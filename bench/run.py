"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload certify_corpus --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke            # every workload at tiny sizes

The run is one process with one compute thread: BLAS pools are pinned to
a single thread before numpy loads, and nothing else is started. Inputs
come from --seed; the amount of work is a fixed number of rounds derived
from --seconds, never a loop bounded by the clock. A run writes its
inputs, sets up several times (setup_s is the median), runs one untimed
warm-up item, times every item, reads the peak resident set, and only
then checks every output against bench/reference.py. With --trace 1 the
timed loop runs a second time with spans around the package's public
functions and the per-layer metrics are printed instead.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit status: 0 when every checked output is correct, 1 when one is not,
2 when the package sources are missing or the arguments are wrong.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def locate_program() -> bool:
    """Put the checkout's own src/ first on the import path, if it is there."""
    src = ROOT / "src"
    if not (src / "netbargain" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


class ItemError:
    """An item whose program call raised; it counts as failed."""

    def __init__(self, text: str):
        self.text = text


class SpeedProbe:
    """A fixed computation outside netbargain, timed between rounds.

    The shared 2-vCPU Xeon host the benchmark was tuned on switches, for
    minutes at a time, between a fast state and one about 45 % slower,
    which spread raw throughput over ten runs by up to 34 %. The probe
    mixes the two kinds of work the workloads do, interpreted scalar
    loops and passes over arrays larger than L2, so it slows with them.
    Its median time in a run over NOMINAL_S is the run's speed factor;
    timed end-to-end metrics are divided by it.
    """

    NOMINAL_S = 0.011  # median probe time in the machine's fast state

    def __init__(self):
        rng = np.random.default_rng(12345)
        u, v = rng.integers(0, 100, 400), rng.integers(0, 100, 400)
        keep = u != v
        u, v = u[keep][:300], v[keep][:300]
        self.graph = reference.DirectedGraph(100, u, v, rng.uniform(1.0, 2.0, len(u)))
        self.alpha = rng.uniform(0.0, 2.0, 2 * len(u))
        self.big = rng.uniform(size=1 << 19)
        self.buf = np.empty_like(self.big)
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference.scalar_step(self.graph, self.alpha, 0.5, range(len(self.alpha)))
        for _ in range(6):
            np.multiply(self.big, 0.5, out=self.buf)
            np.maximum(self.buf, self.big[::-1], out=self.buf)
        self.samples.append(time.perf_counter() - t0)

    def factor(self, since: int = 0) -> float:
        """Speed factor from the samples taken since sample number `since`."""
        return statistics.median(self.samples[since:]) / self.NOMINAL_S


def timed_loop(wl, ctx, probe: SpeedProbe):
    """Run every item; the probe runs after rounds, outside the timed total."""
    gc.collect()
    outputs, times = [], []
    per_round = len(wl.items) // wl.rounds
    stride = per_round * max(1, wl.rounds // 40)
    probe_s = 0.0
    start = time.perf_counter()
    for k, item in enumerate(wl.items, 1):
        t0 = time.perf_counter()
        try:
            out = wl.run_item(ctx, item)
        except Exception:  # a failing program call is a failed item, not a crash
            out = ItemError(traceback.format_exc())
        times.append(time.perf_counter() - t0)
        outputs.append(out)
        if k % stride == 0:
            t0 = time.perf_counter()
            probe.sample()
            probe_s += time.perf_counter() - t0
    return outputs, times, time.perf_counter() - start - probe_s


def median_item_s(wl, item_s) -> float:
    """Median of the per-class median item times.

    In a workload that mixes sizes whose times differ tenfold, a plain
    median falls in the gap between two size classes and is set by the
    single slowest item of one and the fastest of the other.
    """
    by_class: dict = {}
    for item, t in zip(wl.items, item_s):
        by_class.setdefault(wl.size_class(item), []).append(t)
    return statistics.median(statistics.median(ts) for ts in by_class.values())


def check_outputs(wl, ctx, outputs) -> tuple[bool, int]:
    """(correct, failed): known faults and raising calls fail, other mismatches are wrong."""
    correct, failed = True, 0
    for item, out in zip(wl.items, outputs):
        if isinstance(out, ItemError):
            failed += 1
            if not item.known_fault:
                print(f"{wl.name}: item raised\n{out.text}", file=sys.stderr)
            continue
        try:
            wl.check(ctx, item, out)
        except reference.CheckFailed as e:
            if item.known_fault:
                failed += 1
            else:
                correct = False
                print(f"{wl.name}: wrong output: {e}", file=sys.stderr)
    return correct, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, dict]:
    """(result, details): the printed result, and the raw timings behind it."""
    import workloads
    from tracer import Tracer

    workdir = BENCH / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](seed, seconds, str(workdir), smoke=smoke)
        wl.make_inputs()
        probe = SpeedProbe()
        setup_s = []
        ctx = None
        for _ in range(wl.setups):
            ctx = None  # drop the previous set-up before building the next
            gc.collect()
            probe.sample()
            t0 = time.perf_counter()
            ctx = wl.setup()
            setup_s.append(time.perf_counter() - t0)
        wl.run_item(ctx, wl.warmup)
        outputs, item_s, loop_s = timed_loop(wl, ctx, probe)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        speed = probe.factor()
        raw = {
            "items_per_s": len(wl.items) / loop_s,
            "item_p50_ms": median_item_s(wl, item_s) * 1e3,
            "setup_s": statistics.median(setup_s),
        }
        if trace:
            outputs = ctx = None
            first = len(probe.samples)
            tracer = Tracer()
            tracer.install()
            try:
                tracer.active = True
                ctx = wl.setup()
                outputs, _, traced_s = timed_loop(wl, ctx, probe)
                tracer.active = False
            finally:
                tracer.uninstall()
            traced_speed = probe.factor(since=first)
            metrics = tracer.per_layer(traced_s / traced_speed - loop_s / speed, traced_speed)
        else:
            metrics = {
                "items_per_s": (raw["items_per_s"] * speed, "items/s"),
                "item_p50_ms": (raw["item_p50_ms"] / speed, "ms"),
                "setup_s": (raw["setup_s"] / speed, "s"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
        correct, failed = check_outputs(wl, ctx, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": len(wl.items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, {"speed_factor": speed, "probe_samples": len(probe.samples), "raw": raw}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="netbargain benchmark: one workload per process")
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run every workload (or the named one) at tiny sizes")
    p.add_argument("--out", default=None, help="also write the result, with its workload and seed, to this file")
    args = p.parse_args(argv)
    if not locate_program():
        print(f"netbargain sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    if args.workload is None and not args.smoke:
        p.error("--workload is required outside --smoke")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            p.error(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    ok = True
    for name in names:
        result, details = run_workload(name, args.seed, args.seconds, bool(args.trace), smoke=args.smoke)
        ok = ok and result["correct"]
        if args.out:
            record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "result": result}
            record.update(details)
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(json.dumps(record) + "\n", encoding="utf-8")
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
