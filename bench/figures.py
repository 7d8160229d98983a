"""Reference figures for single layers, as a markdown table.

    python3 bench/figures.py

Times the package's public functions on the benchmark's own generators,
one compute thread, median of several repeats after one warm-up call.
These are points of reference for reading the per-layer metrics, not
gates; bench/README.md keeps the last table.
"""

import statistics
import sys
import time

import run  # pins BLAS threads before numpy loads

if not run.locate_program():
    sys.exit("netbargain sources not found")

import numpy as np  # noqa: E402

from netbargain import dynamics as dyn  # noqa: E402
from netbargain import experiment as exp  # noqa: E402
from netbargain import instance as ins  # noqa: E402
from netbargain import matching as mat  # noqa: E402
from netbargain import pathlab as pl  # noqa: E402

import workloads  # noqa: E402


def median_time(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def instance(n: int, u, v, rng) -> ins.Instance:
    w = rng.uniform(1.0, 2.0, size=len(u))
    return ins.Instance(n, tuple(zip(np.asarray(u).tolist(), np.asarray(v).tolist(), w.tolist())))


def step_row(label: str, inst: ins.Instance, repeats: int, batch: int = 1) -> str:
    idx = dyn.EdgeIndex(inst)
    alpha = np.random.default_rng(0).uniform(0.0, idx.W, size=(batch, 2 * idx.m) if batch > 1 else 2 * idx.m)
    t = median_time(lambda: idx.step_alpha(alpha, 0.5), repeats)
    per = t / batch
    return f"| `step_alpha` {label} | m={idx.m}, width {idx.incoming.shape[1]}, B={batch} | {per * 1e6:.1f} us per trajectory-step, {per / (2 * idx.m) * 1e9:.0f} ns/edge |"


def main() -> None:
    rng = np.random.default_rng(2024)
    rows = ["| layer | input | median |", "|---|---|---|"]
    for n, m, reps in ((7, 21, 200), (96, 287, 200), (1000, 3000, 100), (10_000, 30_000, 20), (100_000, 300_000, 5)):
        u, v = workloads.sparse_graph(rng, n, m)
        rows.append(step_row("sparse", instance(n, u, v, rng), reps))
    for n in (300, 3000):
        rows.append(step_row("star hub", instance(n, np.zeros(n - 1, dtype=int), np.arange(1, n), rng), 20))
    u, v = workloads.preferential_attachment(rng, 10_000, 3, workloads.HUB_DEGREE)
    rows.append(step_row("hub_large graph", instance(10_000, u, v, rng), 10))
    u, v = workloads.sparse_graph(rng, 12, 36)
    small = instance(12, u, v, rng)
    for b in (1, 10, 100):
        rows.append(step_row("batched", small, 200, batch=b))
    u, v = workloads.sparse_graph(rng, 100_000, 300_000)
    big = instance(100_000, u, v, rng)
    t = median_time(lambda: dyn.EdgeIndex(big), 3)
    rows.append(f"| `EdgeIndex` build | m=300000 | {t:.2f} s |")
    for topology in ("path", "even_cycle"):
        inst = ins.generate(exp.family_spec(topology, 40, 1))
        t = median_time(lambda: exp.reference_solution(inst), 5)
        rows.append(f"| `reference_solution` | {topology} n=40 | {t * 1e3:.0f} ms |")
    graphs = [workloads.erdos_renyi(10, np.random.default_rng([9, s])) for s in range(20)]
    times = [median_time(lambda: mat.classify(ins.Instance(10, tuple(g))), 3) for g in graphs]
    rows.append(f"| `classify` | G(n,M) n=10, m=22, 20 graphs | {statistics.median(times) * 1e3:.1f} ms |")
    path = pl.PathSpec(tuple(workloads.path_weights(rng, 11)), tuple(k % 2 == 0 for k in range(10)), 0.5)
    state = pl.SimplifiedPathState(path, np.zeros(20), 0.3, -0.2)
    rho = np.ones(20)
    t_simp = median_time(lambda: pl.simplified_step(state), 2000)
    t_mass = median_time(lambda: pl.mass_step(rho, path, injection="both"), 2000)
    rows.append(f"| `simplified_step` / `mass_step` | ell=10 | {t_simp * 1e6:.1f} / {t_mass * 1e6:.1f} us per step |")
    print("\n".join(rows))


if __name__ == "__main__":
    main()
