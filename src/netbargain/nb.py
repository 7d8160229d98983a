"""Balanced outcomes: certification, fixed-point properties, and a brute-force oracle.

A balanced outcome is a matching plus an allocation that is stable (no
non-trading pair could both do better together) and balanced (trading
pairs split the surplus over their best alternatives equally). The
module certifies candidate outcomes, audits numerical fixed points of
the dynamics against the full property list that characterizes them,
converts certified outcomes into exact fixed points, and independently
enumerates outcomes by solving the balance system matching by matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import EdgeIndex, MessageState, derive
from .instance import Instance, canon
from .matching import LPClassification, solid_labels

__all__ = [
    "NBSolution",
    "PropertyCheck",
    "FixedPointReport",
    "OracleResult",
    "check_stability",
    "check_balance",
    "certify",
    "solve_balance",
    "nb_oracle",
    "fp_from_nb",
    "fp_property_suite",
    "nb_from_fp",
    "CERT_TOL",
    "FP_TOL",
]

CERT_TOL = 1e-6  # certification of converged numerical states
FP_TOL = 1e-9  # exactly constructed fixed points

Edge = tuple[int, int]


@dataclass(frozen=True)
class NBSolution:
    matching: frozenset[Edge]
    gamma: tuple[float, ...]
    stable: bool = False
    balanced: bool = False

    @property
    def certified(self) -> bool:
        return self.stable and self.balanced

    def partner_of(self) -> dict[int, int]:
        out = {}
        for (u, v) in self.matching:
            out[u], out[v] = v, u
        return out

    def matched_nodes(self) -> set[int]:
        return {i for e in self.matching for i in e}


def _best_alternative(inst: Instance, weights, gamma, i: int, excluding: int | None) -> float:
    # weights is inst.weights, fetched once by the caller's loop
    best = 0.0
    for k in inst.neighbors(i):
        if k == excluding:
            continue
        best = max(best, weights[canon(i, k)] - gamma[k])
    return max(best, 0.0)


def check_stability(sol: NBSolution, inst: Instance, tol: float = CERT_TOL) -> list[tuple]:
    """Off-matching edges where the pair could jointly earn more."""
    violations = []
    for (u, v, w) in inst.edges:
        e = canon(u, v)
        if e in sol.matching:
            continue
        deficit = sol.gamma[u] + sol.gamma[v] - w
        if deficit < -tol:
            violations.append((e, float(deficit)))
    return violations


def check_balance(sol: NBSolution, inst: Instance, tol: float = CERT_TOL) -> list[tuple]:
    """Residuals of the equal-surplus condition on every matched edge.

    Each record is (edge, residual, lhs, rhs); balanced means all
    residuals are within tol with both surpluses non-negative.
    """
    out = []
    weights = inst.weights
    for (u, v) in sorted(sol.matching):
        lhs = sol.gamma[u] - _best_alternative(inst, weights, sol.gamma, u, v)
        rhs = sol.gamma[v] - _best_alternative(inst, weights, sol.gamma, v, u)
        out.append(((u, v), float(abs(lhs - rhs)), float(lhs), float(rhs)))
    return out


def certify(sol: NBSolution, inst: Instance, tol: float = CERT_TOL) -> NBSolution:
    """Re-evaluate the stability and balance flags for a candidate outcome."""
    g = sol.gamma
    ok = all(gi >= -tol for gi in g)
    matched = sol.matched_nodes()
    for (u, v) in sol.matching:
        if abs(g[u] + g[v] - inst.weight(u, v)) > tol:
            ok = False
    for i in range(inst.n):
        if i not in matched and abs(g[i]) > tol:
            ok = False
    stable = ok and not check_stability(sol, inst, tol)
    balance = check_balance(sol, inst, tol)
    balanced = stable and all(
        r <= tol and lhs >= -tol and rhs >= -tol for (_, r, lhs, rhs) in balance
    )
    return replace(sol, stable=stable, balanced=balanced)


# -- balance-system solver and oracle ----------------------------------------


def solve_balance(
    inst: Instance,
    matching: frozenset[Edge],
    gamma0=None,
    damping: float = 0.5,
    max_sweeps: int = 10**5,
    tol: float = 1e-13,
) -> np.ndarray | None:
    """Solve the balance system for a fixed matching by damped sweeps.

    Unmatched nodes keep gamma = 0. Each sweep resets every matched pair
    to the equal-surplus split of its edge weight given the current best
    alternatives. The balance map is a sup-norm non-expansion, so damped
    iteration settles reliably; None signals non-convergence.
    """
    weights = inst.weights
    gamma = np.zeros(inst.n) if gamma0 is None else np.asarray(gamma0, dtype=np.float64).copy()
    for i in range(inst.n):
        if not any(i in e for e in matching):
            gamma[i] = 0.0
    pairs = sorted(matching)
    scale = max(1.0, max((w for (_, _, w) in inst.edges), default=1.0))
    for _ in range(max_sweeps):
        change = 0.0
        for (u, v) in pairs:
            w = weights[(u, v)]
            au = _best_alternative(inst, weights, gamma, u, v)
            av = _best_alternative(inst, weights, gamma, v, u)
            half = 0.5 * (w - au - av)
            tu, tv = au + half, av + half
            nu = (1 - damping) * gamma[u] + damping * tu
            nv = (1 - damping) * gamma[v] + damping * tv
            change = max(change, abs(nu - gamma[u]), abs(nv - gamma[v]))
            gamma[u], gamma[v] = nu, nv
        if change <= tol * scale:
            return gamma
    return None


def _maximal_matchings(inst: Instance) -> list[frozenset[Edge]]:
    edges = list(inst.weights)

    out = []

    def rec(i: int, used: set[int], picked: list[Edge]):
        if i == len(edges):
            m = frozenset(picked)
            if all(u in used or v in used for (u, v) in edges):
                out.append(m)
            return
        u, v = edges[i]
        rec(i + 1, used, picked)
        if u not in used and v not in used:
            used |= {u, v}
            picked.append((u, v))
            rec(i + 1, used, picked)
            picked.pop()
            used -= {u, v}

    rec(0, set(), [])
    return sorted(set(out), key=sorted)


@dataclass
class OracleResult:
    solutions: list[NBSolution]
    family: bool
    segment_verified: bool | None
    failures: list[frozenset[Edge]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def nb_oracle(
    inst: Instance,
    cap: int = 10,
    n_seeds: int = 6,
    seed: int = 0,
    tol: float = FP_TOL,
    distinct_tol: float = 1e-4,
) -> OracleResult:
    """Enumerate balanced outcomes without touching the message dynamics.

    Only maximal matchings can be stable, so each one gets the balance
    system solved from several seeds; solutions are kept when they
    certify. Distinct allocations for one matching flag a one-parameter
    family (alternating-cycle degeneracy), confirmed by checking that the
    midpoint of the extremes certifies too.
    """
    from .matching import SizeCapError, odd_cycles

    if inst.n > cap:
        raise SizeCapError(f"n={inst.n} exceeds oracle cap {cap}")
    rng = np.random.default_rng(seed)
    W = max((w for (_, _, w) in inst.edges), default=1.0)
    solutions: list[NBSolution] = []
    failures: list[frozenset[Edge]] = []
    family = False
    segment_verified = None
    for matching in _maximal_matchings(inst):
        found: list[np.ndarray] = []
        seeds = [None] + [rng.uniform(0.0, W, size=inst.n) for _ in range(n_seeds - 1)]
        failed = False
        for g0 in seeds:
            g = solve_balance(inst, matching, gamma0=g0)
            if g is None:
                failed = True
                continue
            cand = certify(NBSolution(matching, tuple(float(x) for x in np.maximum(g, 0.0))), inst, tol=tol)
            if cand.certified and not any(
                np.abs(np.array(cand.gamma) - prev).max() <= distinct_tol for prev in found
            ):
                found.append(np.array(cand.gamma))
                solutions.append(cand)
        if failed:
            failures.append(matching)
        if len(found) >= 2:
            family = True
            lo = min(found, key=lambda g: tuple(g))
            hi = max(found, key=lambda g: tuple(g))
            mid = certify(NBSolution(matching, tuple(0.5 * (lo + hi))), inst, tol=tol)
            segment_verified = bool(mid.certified) and (segment_verified is not False)
    if family:
        cycles = odd_cycles(inst)
        disjoint_pair = any(
            not (set(a) & set(b)) for i, a in enumerate(cycles) for b in cycles[i + 1 :]
        )
        if disjoint_pair:
            # two disjoint odd cycles should pin the allocation down; a family
            # here points at a solver or modelling bug, so surface it loudly
            warning = (
                "family detected on an instance with two disjoint odd cycles; "
                "allocations there should be fully determined"
            )
            return OracleResult(solutions, family, segment_verified, failures, [warning])
    return OracleResult(solutions, family, segment_verified, failures)


# -- fixed points from solutions ----------------------------------------------


def fp_from_nb(sol: NBSolution, inst_or_index, tol: float = FP_TOL) -> MessageState:
    """Exact fixed point carrying a certified outcome's allocation.

    Offers are (w - gamma_i)_+ along every directed edge and messages are
    the best non-partner offers; the construction lands on a state the
    update map leaves unchanged, with earnings equal to the allocation.
    """
    if not sol.certified:
        raise ValueError("solution must be certified stable and balanced")
    idx = inst_or_index if isinstance(inst_or_index, EdgeIndex) else EdgeIndex(inst_or_index)
    g = np.asarray(sol.gamma)
    alpha = idx.best_excluding_reverse(np.maximum(idx.w - g[idx.src], 0.0))
    state = derive(alpha, idx)
    if state.step_residual() > tol:
        raise ValueError("constructed state failed the fixed-point residual check")
    if np.abs(state.gamma - g).max() > tol:
        raise ValueError("constructed state does not reproduce the allocation")
    return state


# -- fixed point property suite ------------------------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    witnesses: tuple = ()


@dataclass(frozen=True)
class FixedPointReport:
    checks: dict[str, PropertyCheck]
    labels: dict[Edge, str]  # strong_dotted | weak_dotted | non_dotted
    nb_exists: bool
    tol: float = CERT_TOL
    residual: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def strong_dotted(self) -> frozenset[Edge]:
        return frozenset(e for e, l in self.labels.items() if l == "strong_dotted")

    def summary(self) -> str:
        lines = [f"  tolerance={self.tol:g}  fixed-point residual={self.residual:.3g}"]
        for c in self.checks.values():
            mark = "pass" if c.passed else "FAIL"
            extra = f"  witnesses={list(c.witnesses)[:3]}" if c.witnesses else ""
            lines.append(f"  [{mark}] {c.name}{extra}")
        lines.append(f"  nb_exists={self.nb_exists}")
        return "\n".join(lines)


def fp_property_suite(
    state: MessageState,
    inst: Instance,
    classification: LPClassification,
    tol: float = CERT_TOL,
    residual_tol: float = FP_TOL,
) -> FixedPointReport:
    """Audit a numerical fixed point against the full characterization.

    The checks mirror, edge by edge, the facts that make the earnings of
    a fixed point a balanced outcome on tight instances: consistent
    partner relations, unique partners across strictly-dotted edges,
    zero earnings without dotted support, offers determined by earnings,
    balance at every edge, dual optimality, and agreement between the
    dotted labels and the LP optimum's solid labels.
    """
    if classification.kind == "degenerate":
        raise ValueError("property suite needs a unique LP optimum")
    res = state.step_residual()
    if res > residual_tol:
        raise ValueError(f"state is not a fixed point (residual {res:.3g} > {residual_tol:.3g})")
    idx = state.index
    g = state.gamma
    alpha, offers = state.alpha, state.offers
    wmap = inst.weights
    # w - a_ij - a_ji per undirected edge; edge k owns slots 2k and 2k+1
    slack = dict(zip(wmap, idx.w[0::2] - alpha[0::2] - alpha[1::2]))
    labels = {
        e: ("strong_dotted" if s > tol else "weak_dotted" if s >= -tol else "non_dotted")
        for e, s in slack.items()
    }
    partners = {i: set() for i in range(inst.n)}
    for e, w in wmap.items():
        if abs(g[e[0]] + g[e[1]] - w) <= tol:
            partners[e[0]].add(e[1])
            partners[e[1]].add(e[0])

    checks: dict[str, PropertyCheck] = {}

    def add(name, witnesses):
        checks[name] = PropertyCheck(name, not witnesses, tuple(witnesses))

    # partners <=> non-negative message slack <=> earnings met by the pair's offers
    wit = []
    for k, (u, v, w) in enumerate(inst.edges):
        e = canon(u, v)
        i, j = e
        a = abs(g[i] + g[j] - w) <= tol
        b = slack[e] >= -tol
        # offers into u arrive on slot 2k+1 (v->u), into v on slot 2k
        c = abs(g[u] - offers[2 * k + 1]) <= tol and abs(g[v] - offers[2 * k]) <= tol
        if not (a == b == c):
            wit.append((e, a, b, c))
    add("partner_equivalence", wit)

    wit = []
    for e in wmap:
        i, j = e
        a = partners[i] == {j}
        b = partners[j] == {i}
        c = slack[e] > tol
        if not (a == b == c):
            wit.append((e, a, b, c))
    add("unique_partner", wit)

    wit = []
    for i in range(inst.n):
        dotted = [k for k in inst.neighbors(i) if labels[canon(i, k)] != "non_dotted"]
        if not dotted and g[i] > tol:
            wit.append((i, float(g[i])))
    add("no_dotted_zero_gamma", wit)

    wit = []
    for d in range(2 * idx.m):
        i = int(idx.src[d])
        expect = max(idx.w[d] - g[i], 0.0)
        if abs(offers[d] - expect) > tol:
            wit.append(((i, int(idx.dst[d])), float(offers[d]), float(expect)))
    add("offer_formula", wit)

    wit = []
    for e in wmap:
        i, j = e
        lhs = g[i] - _best_alternative(inst, wmap, g, i, j)
        rhs = g[j] - _best_alternative(inst, wmap, g, j, i)
        if abs(lhs - rhs) > tol or lhs < -tol or rhs < -tol:
            wit.append((e, float(lhs), float(rhs)))
    add("balance_everywhere", wit)

    from .matching import dual_check

    report = dual_check(g, inst, tol=tol, primal_optimum=classification.optimum.weight)
    wit = [] if (report.feasible and report.optimal) else [(report.objective, report.violations)]
    add("dual_optimal", wit)

    solid = solid_labels(classification, inst)
    pairing = {"one_solid": "strong_dotted", "half_solid": "weak_dotted", "non_solid": "non_dotted"}
    wit = [(e, solid[e], labels[e]) for e in wmap if pairing[solid[e]] != labels[e]]
    add("solid_dotted_match", wit)

    return FixedPointReport(
        checks, labels, nb_exists=(classification.kind == "tight"), tol=tol, residual=res
    )


def nb_from_fp(
    state: MessageState, inst: Instance, report: FixedPointReport, tol: float = CERT_TOL
) -> NBSolution:
    """Read the outcome (strong-dotted matching, earnings) off a certified fixed point."""
    sol = NBSolution(report.strong_dotted(), tuple(float(x) for x in state.gamma))
    return certify(sol, inst, tol=tol)
