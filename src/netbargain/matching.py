"""Exact treatment of the matching LP relaxation at desk scale.

The relaxation (maximize sum w_e x_e subject to sum_{e at i} x_e <= 1,
x >= 0) always has a half-integral optimum whose 1/2-edges form
vertex-disjoint odd cycles. Brute-force enumeration of those corners
gives exact optima, exact margins between corners, and exact dual
certificates, which is what the verification layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, canon, max_weight

__all__ = [
    "HalfIntegralSolution",
    "LPClassification",
    "DualReport",
    "SizeCapError",
    "enumerate_corners",
    "classify",
    "dual_check",
    "solid_labels",
    "odd_cycles",
]

DEFAULT_CAP = 12
TOL = 1e-9

Edge = tuple[int, int]


class SizeCapError(ValueError):
    """Instance too large for exhaustive corner enumeration."""


@dataclass(frozen=True)
class HalfIntegralSolution:
    """One corner of the relaxation: 1-edges form a matching, 1/2-edges odd cycles."""

    ones: frozenset[Edge]
    halves: frozenset[Edge]
    weight: float

    def value(self, u: int, v: int) -> float:
        e = canon(u, v)
        if e in self.ones:
            return 1.0
        if e in self.halves:
            return 0.5
        return 0.0

    @property
    def integral(self) -> bool:
        return not self.halves


@dataclass(frozen=True)
class LPClassification:
    """kind is 'tight', 'pointed_not_tight', or 'degenerate'.

    epsilon is the margin between the best and second-best corner weight
    (None when degenerate or when there is a single corner).
    """

    kind: str
    epsilon: float | None
    optimum: HalfIntegralSolution
    runner_up: float | None


@dataclass(frozen=True)
class DualReport:
    feasible: bool
    violations: tuple[tuple, ...]
    objective: float
    optimal: bool | None  # None when the primal optimum is unavailable


def _all_simple_cycles(inst: Instance) -> list[list[int]]:
    # each cycle reported once: smallest node first, orientation canonical
    cycles: list[list[int]] = []
    adj = {i: sorted(inst.neighbors(i)) for i in range(inst.n)}

    def grow(s: int, u: int, path: list[int], visited: set[int]):
        for v in adj[u]:
            if v == s and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(path.copy())
            elif v > s and v not in visited:
                visited.add(v)
                path.append(v)
                grow(s, v, path, visited)
                path.pop()
                visited.remove(v)

    for s in range(inst.n):
        grow(s, s, [s], {s})
    return cycles


def odd_cycles(inst: Instance) -> list[list[int]]:
    """All simple odd cycles, as node sequences."""
    return [c for c in _all_simple_cycles(inst) if len(c) % 2 == 1]


def _cycle_edges(cycle: list[int]) -> frozenset[Edge]:
    k = len(cycle)
    return frozenset(canon(cycle[i], cycle[(i + 1) % k]) for i in range(k))


def _matchings_avoiding(edges: list[tuple[int, int, float]], banned: frozenset[int]):
    usable = [(u, v, w) for (u, v, w) in edges if u not in banned and v not in banned]

    def rec(i: int, used: set[int], picked: list[Edge], weight: float):
        if i == len(usable):
            yield frozenset(picked), weight
            return
        u, v, w = usable[i]
        yield from rec(i + 1, used, picked, weight)
        if u not in used and v not in used:
            used |= {u, v}
            picked.append(canon(u, v))
            yield from rec(i + 1, used, picked, weight + w)
            picked.pop()
            used -= {u, v}

    yield from rec(0, set(), [], 0.0)


def enumerate_corners(inst: Instance, cap: int = DEFAULT_CAP) -> list[HalfIntegralSolution]:
    """Every half-integral corner: a matching plus vertex-disjoint odd cycles at 1/2."""
    if inst.n > cap:
        raise SizeCapError(f"n={inst.n} exceeds enumeration cap {cap}")
    wmap = inst.weights
    cycles = odd_cycles(inst)
    cyc_nodes = [frozenset(c) for c in cycles]
    cyc_edges = [_cycle_edges(c) for c in cycles]
    cyc_weight = [sum(wmap[e] for e in es) for es in cyc_edges]

    packs: list[tuple[frozenset[int], frozenset[Edge], float]] = []

    def pack(i: int, nodes: frozenset[int], edges: frozenset[Edge], w: float):
        packs.append((nodes, edges, w))
        for j in range(i, len(cycles)):
            if not (cyc_nodes[j] & nodes):
                pack(j + 1, nodes | cyc_nodes[j], edges | cyc_edges[j], w + cyc_weight[j])

    pack(0, frozenset(), frozenset(), 0.0)

    corners = []
    for nodes, half_edges, hw in packs:
        for matching, mw in _matchings_avoiding(list(inst.edges), nodes):
            corners.append(HalfIntegralSolution(matching, half_edges, mw + 0.5 * hw))
    return corners


def classify(inst: Instance, cap: int = DEFAULT_CAP, tol: float = TOL) -> LPClassification:
    """Locate the unique best corner and its margin over the runner-up."""
    corners = enumerate_corners(inst, cap=cap)
    corners.sort(key=lambda c: (-c.weight, sorted(c.ones), sorted(c.halves)))
    best = corners[0]
    if len(corners) == 1:
        return LPClassification("tight" if best.integral else "pointed_not_tight", None, best, None)
    second = corners[1].weight
    if best.weight - second <= tol:
        return LPClassification("degenerate", None, best, second)
    kind = "tight" if best.integral else "pointed_not_tight"
    return LPClassification(kind, best.weight - second, best, second)


def dual_check(
    gamma,
    inst: Instance,
    tol: float = TOL,
    primal_optimum: float | None = None,
    cap: int = DEFAULT_CAP,
) -> DualReport:
    """Check gamma against the covering dual: gamma >= 0, gamma_i + gamma_j >= w_ij.

    Optimality (objective equal to the primal optimum) is checked when the
    optimum is supplied or small enough to enumerate.
    """
    g = list(gamma)
    violations = []
    for i, gi in enumerate(g):
        if gi < -tol:
            violations.append(("node", i, float(gi)))
    for (u, v, w) in inst.edges:
        slack = g[u] + g[v] - w
        if slack < -tol:
            violations.append(("edge", canon(u, v), float(slack)))
    objective = float(sum(g))
    if primal_optimum is None and inst.n <= cap:
        primal_optimum = classify(inst, cap=cap, tol=tol).optimum.weight
    optimal = None
    if primal_optimum is not None:
        optimal = not violations and abs(objective - primal_optimum) <= tol
    return DualReport(not violations, tuple(violations), objective, optimal)


def classification_report(classification: LPClassification, inst: Instance) -> str:
    """Structured text: kind, margin, and the optimum's edge values."""
    lines = [f"kind: {classification.kind}", f"epsilon: {classification.epsilon}"]
    opt = classification.optimum
    lines.append(f"optimum weight: {opt.weight!r}")
    for (u, v, _) in inst.edges:
        x = opt.value(u, v)
        if x:
            lines.append(f"  x[{u},{v}] = {x}")
    return "\n".join(lines)


def solid_labels(classification: LPClassification, inst: Instance) -> dict[Edge, str]:
    """Edge labels read off the unique optimum corner."""
    if classification.kind == "degenerate":
        raise ValueError("degenerate problem has no unique optimum to label")
    opt = classification.optimum
    labels = {}
    for e in inst.weights:
        if e in opt.ones:
            labels[e] = "one_solid"
        elif e in opt.halves:
            labels[e] = "half_solid"
        else:
            labels[e] = "non_solid"
    return labels
