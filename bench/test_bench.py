"""Tests of the benchmark itself: result schema, metric names, and checks that bite.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as harness

assert harness.locate_program(), "netbargain sources not found"

import compare  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from reference import CheckFailed  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXPECTED_FAILED = {"certify_corpus": len(workloads.SCALED_COPIES)}


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_result_schema(name, trace):
    result, details = harness.run_workload(name, seed=3, seconds=1, trace=trace, smoke=True)
    assert details["speed_factor"] > 0 and details["probe_samples"] >= 2
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == EXPECTED_FAILED.get(name, 0)
    units = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for k, v in result["metrics"].items():
        assert set(v) == {"value", "unit"} and math.isfinite(v["value"])
        if not trace:
            assert v["value"] > 0, k
    json.dumps(result, allow_nan=False)


def test_tracer_restores_the_program():
    import netbargain.dynamics as dyn
    import netbargain.experiment as exp

    before = (dyn.run, dyn.EdgeIndex.step_alpha, exp.classify)
    harness.run_workload("family_sweep", seed=1, seconds=1, trace=True, smoke=True)
    assert (dyn.run, dyn.EdgeIndex.step_alpha, exp.classify) == before


# -- every check rejects a deliberately wrong answer --------------------------


def _prepared(name, tmp_path, seconds=0.1, smoke=True):
    wl = workloads.WORKLOADS[name](5, seconds, str(tmp_path), smoke=smoke)
    wl.make_inputs()
    return wl, wl.setup()


def _first(wl, ctx, want):
    for item in wl.items:
        if item.known_fault:
            continue
        out = wl.run_item(ctx, item)
        if want(out):
            wl.check(ctx, item, out)  # the untouched answer passes
            return item, out
    raise AssertionError("no suitable item")


def test_certify_check_rejects_shifted_gamma_and_wrong_pairing(tmp_path):
    wl, ctx = _prepared("certify_corpus", tmp_path, smoke=False)
    item, out = _first(wl, ctx, lambda o: o["pairs"])
    W = reference.max_weight(item.edges)
    shifted = dict(out, gamma=out["gamma"] + np.eye(item.n)[0] * 1e-3 * W)
    with pytest.raises(CheckFailed):
        wl.check(ctx, item, shifted)
    (u, v) = sorted(out["pairs"])[0]
    with pytest.raises(CheckFailed):
        wl.check(ctx, item, dict(out, pairs=set(out["pairs"]) - {(u, v)}))
    with pytest.raises(CheckFailed):
        wl.check(ctx, item, dict(out, ok=False))


def test_certify_scaled_copies_fail_their_check(tmp_path):
    wl, ctx = _prepared("certify_corpus", tmp_path)
    faults = [item for item in wl.items if item.known_fault]
    assert len(faults) == len(workloads.SCALED_COPIES)
    for item in faults:
        with pytest.raises(CheckFailed):
            wl.check(ctx, item, wl.run_item(ctx, item))


def test_family_check_rejects_shifted_gamma_and_wrong_matching(tmp_path):
    wl, ctx = _prepared("family_sweep", tmp_path)
    item, out = _first(wl, ctx, lambda o: len(o["matching"]) >= 2)
    W = reference.max_weight(out["edges"])
    gamma = list(out["gamma"])
    gamma[0] += 1e-3 * W
    with pytest.raises(CheckFailed):
        wl.check(ctx, item, dict(out, gamma=tuple(gamma)))
    with pytest.raises(CheckFailed):
        wl.check(ctx, item, dict(out, matching=frozenset(sorted(out["matching"])[1:])))
    with pytest.raises(CheckFailed):
        wl.check(ctx, item, dict(out, iters=None))


def test_large_graph_check_rejects_one_perturbed_message(tmp_path, monkeypatch):
    wl, ctx = _prepared("hub_large", tmp_path)
    item = wl.items[-1]
    out = wl.run_item(ctx, item)
    wl.check(ctx, item, out)
    real_step = workloads.dyn.step

    def bad_step(state, cfg):
        nxt = real_step(state, cfg)
        alpha = nxt.alpha.copy()
        alpha[wl.sample[len(wl.sample) // 2]] += 1e-9 * wl.W
        return dataclasses.replace(nxt, alpha=alpha)

    monkeypatch.setattr(workloads.dyn, "step", bad_step)
    with pytest.raises(CheckFailed):
        wl.check(ctx, item, out)
    monkeypatch.undo()
    growing = list(out["changes"])
    growing[-1] = growing[-2] * 1.01
    with pytest.raises(CheckFailed):
        wl.check(ctx, item, dict(out, changes=growing))


def test_pathlab_check_rejects_perturbed_state_and_broken_guarantees(tmp_path):
    wl, ctx = _prepared("pathlab_diag", tmp_path)
    item = wl.items[0]
    out = wl.run_item(ctx, item)
    wl.check(ctx, item, out)
    states = {s: a.copy() for s, a in out["states"].items()}
    states[+1][-1, 2] += 1e-6
    with pytest.raises(CheckFailed):
        wl.check(ctx, item, dict(out, states=states))
    for key in ("sandwiched", "stationary", "dominated"):
        with pytest.raises(CheckFailed):
            wl.check(ctx, item, dict(out, **{key: False}))
    with pytest.raises(CheckFailed):
        wl.check(ctx, item, dict(out, log=out["log"][:-1] + [-1e-6]))


def test_inputs_depend_only_on_the_seed(tmp_path):
    def docs(seed, sub):
        wl = workloads.CertifyCorpus(seed, 1, str(tmp_path / sub), smoke=True)
        (tmp_path / sub).mkdir()
        wl.make_inputs()
        return [Path(p).read_text() for p in wl.docs]

    first = docs(4, "a")
    assert docs(4, "b") == first
    assert docs(5, "c") != first


# -- the command line ----------------------------------------------------------


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "certify_corpus", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and "correct" not in proc.stdout


def _write_results(directory: Path, workload: str, values: list[float], failed: int = 0):
    directory.mkdir(parents=True, exist_ok=True)
    for seed, v in enumerate(values):
        metrics = {m["name"]: {"value": v, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        result = {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}
        record = {"workload": workload, "seed": seed, "seconds": 1, "trace": 0, "result": result}
        (directory / f"{workload}-{seed}.json").write_text(json.dumps(record))


def test_compare_verdicts(tmp_path):
    base = [1.0, 1.01, 0.99, 1.02, 0.98]
    for name in workloads.WORKLOADS:
        _write_results(tmp_path / "a", name, base)
        _write_results(tmp_path / "same", name, base)
        _write_results(tmp_path / "slow", name, [2 * v for v in base])
        _write_results(tmp_path / "failing", name, base, failed=1)
    lines, ok = compare.compare(tmp_path / "a", tmp_path / "same", SPEC)
    assert ok and all("worse" not in line and "better" not in line for line in lines)
    lines, ok = compare.compare(tmp_path / "a", tmp_path / "slow", SPEC)
    verdicts = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("certify_corpus ") and "attempted" not in line}
    assert not ok
    assert verdicts["item_p50_ms"] == "worse" and verdicts["items_per_s"] == "better"
    lines, ok = compare.compare(tmp_path / "a", tmp_path / "failing", SPEC)
    assert not ok and any("DIFFERS" in line for line in lines)
