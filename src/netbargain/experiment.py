"""Convergence-scaling sweeps with CSV output.

A sweep generates instances from one topology family at growing sizes,
filters them to a unique integral optimum with a healthy gap, and counts
the iterations the dynamics needs to bring every player's earning
estimate within eps of the reference allocation. The reported reference
time C_ref * n^7 (W/sigma + log(1+sigma/eps)) is context, never an
assertion.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from .dynamics import EdgeIndex
from .instance import GeneratorSpec, Instance, canon, generate, max_weight
from .slack import SlackDecomposition, decompose
from .matching import SizeCapError, classify
from .nb import NBSolution, certify, fp_from_nb, solve_balance

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "Reference",
    "family_spec",
    "reference_solution",
    "iterations_to_eps",
    "run_experiment",
]


@dataclass(frozen=True)
class Reference:
    solution: NBSolution
    decomposition: SlackDecomposition
    sigma: float


def _maximum_matching(inst: Instance) -> frozenset[tuple[int, int]]:
    g = nx.Graph()
    g.add_nodes_from(range(inst.n))
    for (u, v, w) in inst.edges:
        g.add_edge(u, v, weight=w)
    pairs = nx.max_weight_matching(g, maxcardinality=False)
    return frozenset(canon(u, v) for (u, v) in pairs)


def reference_solution(inst: Instance, enum_cap: int = 12, tol: float = 1e-9) -> Reference | None:
    """Certified allocation plus decomposition, or None when unusable.

    Small instances go through exact corner classification; larger ones
    take the maximum-weight matching and rely on the certified gap for
    uniqueness (every non-matching edge then carries strictly positive
    dual slack, which pins the optimum down).
    """
    try:
        cls = classify(inst, cap=enum_cap)
        if cls.kind != "tight":
            return None
        matching = cls.optimum.ones
    except SizeCapError:
        matching = _maximum_matching(inst)
    gamma = solve_balance(inst, matching)
    if gamma is None:
        return None
    sol = certify(NBSolution(matching, tuple(float(x) for x in np.maximum(gamma, 0.0))), inst, tol=tol)
    if not sol.certified:
        return None
    try:
        fp = fp_from_nb(sol, inst)
        dec = decompose(fp, sol, inst)
    except (ValueError, AssertionError):
        return None
    if dec.gap is None or dec.gap <= 0:
        return None
    return Reference(sol, dec, float(dec.gap))


def iterations_to_eps(
    inst: Instance,
    gamma_ref,
    eps: float,
    kappa: float = 0.5,
    max_iters: int = 10**6,
) -> tuple[int | None, float]:
    """First step from the zero start whose earnings land within eps."""
    idx = EdgeIndex(inst)
    target = np.asarray(gamma_ref)
    alpha = np.zeros(2 * idx.m)
    err = float(np.abs(idx.earnings(idx.offers(alpha)) - target).max())
    if err <= eps:
        return 0, err
    for t in range(1, max_iters + 1):
        alpha = idx.step_alpha(alpha, kappa)
        err = float(np.abs(idx.earnings(idx.offers(alpha)) - target).max())
        if err <= eps:
            return t, err
    return None, err


# -- family weight schemes -----------------------------------------------------

_HEAVY, _LIGHT = 2.0, 1.2


def family_spec(topology: str, size: int, seed: int) -> GeneratorSpec:
    """Benchmark-family recipe for one swept size.

    Paths, blossoms, and bicycles interleave heavy matched edges with
    light edges strong enough to keep second-best offers positive, so
    whole components share one slack level and the gap stays large.
    Even cycles instead keep light edges weak (exactly 1.0 against
    earnings above it), decoupling into per-edge structures with equal
    slacks.
    """
    rng = np.random.default_rng(seed)

    def jitter(base):
        return tuple(b + rng.uniform(-0.02, 0.02) for b in base)

    if topology == "path":
        base = [_HEAVY if k % 2 == 0 else _LIGHT for k in range(size - 1)]
        return GeneratorSpec("path", (size,), weights=jitter(base), seed=seed)
    if topology == "even_cycle":
        if size % 2:
            raise ValueError("even_cycle size must be even")
        # one clearly weak closing edge cuts the cycle into a single coupled
        # path structure, keeping the allocation unique
        heavy = 2.0 + 0.3 * rng.random()
        base = [heavy if k % 2 == 0 else _LIGHT for k in range(size - 1)] + [0.4]
        return GeneratorSpec("even_cycle", (size,), weights=tuple(base), seed=seed)
    if topology == "blossom":
        if size % 2 == 0 or size < 3:
            raise ValueError("blossom size is the (odd) cycle length")
        # a symmetric cycle plus a stem light enough that the head still sees
        # the cycle keeps every node at one slack level: one blossom structure
        cyc = [_LIGHT if k % 2 == 0 else _HEAVY for k in range(size)]
        stem = [1.8 + 0.15 * rng.random()]
        return GeneratorSpec("blossom", (1, size), weights=tuple(cyc + stem), seed=seed)
    if topology == "bicycle":
        if size % 2 == 0 or size < 3:
            raise ValueError("bicycle size is the (odd) length of each cycle")
        cyc = [_LIGHT if k % 2 == 0 else _HEAVY for k in range(size)]
        rod = [2.0 + 0.3 * rng.random()]
        return GeneratorSpec("bicycle", (size, 1, size), weights=tuple(cyc + rod + cyc), seed=seed)
    raise ValueError(f"no benchmark family for topology {topology!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    topology: str
    sizes: tuple[int, ...]
    eps: float = 1e-4
    repetitions: int = 1
    seed: int = 0
    kappa: float = 0.5
    max_iters: int = 10**6
    c_ref: float = 1.0
    min_gap: float = 0.05
    max_w: float = 10.0
    enum_cap: int = 12

    def __post_init__(self):
        if list(self.sizes) != sorted(set(self.sizes)):
            raise ValueError("sizes must be strictly increasing")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass
class ExperimentResult:
    rows: list[dict] = field(default_factory=list)
    regenerated: int = 0
    slope: float | None = None
    intercept: float | None = None

    def to_csv(self) -> str:
        buf = io.StringIO()
        cols = ["n", "W", "sigma", "eps", "iterations_to_eps", "t_star_reference", "seed", "converged"]
        buf.write(",".join(cols) + "\n")
        for r in self.rows:
            buf.write(",".join(str(r[c]) for c in cols) + "\n")
        return buf.getvalue()

    def fit_summary(self) -> str:
        if self.slope is None:
            return "log-log fit: not enough converged rows"
        return f"log-log fit of iterations vs n: slope={self.slope:.3f} intercept={self.intercept:.3f}"


def t_star_reference(n: int, W: float, sigma: float, eps: float, c_ref: float) -> float:
    return c_ref * n**7 * (W / sigma + math.log(1.0 + sigma / eps))


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Sweep sizes, one row per accepted instance; rejected seeds are counted."""
    result = ExperimentResult()
    for size in spec.sizes:
        for rep in range(spec.repetitions):
            seed = spec.seed + 1000 * rep + size
            ref = None
            inst = None
            for attempt in range(50):
                gspec = family_spec(spec.topology, size, seed + 7919 * attempt)
                inst = generate(gspec)
                if max_weight(inst) > spec.max_w:
                    result.regenerated += 1
                    continue
                ref = reference_solution(inst, enum_cap=spec.enum_cap)
                if ref is not None and ref.sigma >= spec.min_gap:
                    seed = seed + 7919 * attempt
                    break
                result.regenerated += 1
                ref = None
            if ref is None:
                raise RuntimeError(f"could not generate a usable {spec.topology} instance at size {size}")
            iters, err = iterations_to_eps(
                inst, ref.solution.gamma, spec.eps, kappa=spec.kappa, max_iters=spec.max_iters
            )
            result.rows.append(
                {
                    "n": inst.n,
                    "W": max_weight(inst),
                    "sigma": ref.sigma,
                    "eps": spec.eps,
                    "iterations_to_eps": iters if iters is not None else "",
                    "t_star_reference": t_star_reference(
                        inst.n, max_weight(inst), ref.sigma, spec.eps, spec.c_ref
                    ),
                    "seed": seed,
                    "converged": iters is not None,
                }
            )
    good = [(r["n"], r["iterations_to_eps"]) for r in result.rows if r["converged"]]
    if len({n for n, _ in good}) >= 2:
        xs = np.log([n for n, _ in good])
        ys = np.log([max(t, 1) for _, t in good])
        slope, intercept = np.polyfit(xs, ys, 1)
        result.slope, result.intercept = float(slope), float(intercept)
    return result
