"""Reference computations that share no code with netbargain.

Every check the benchmark makes on the program's output goes through
this module: the matching LP solved by scipy's HiGHS, dual feasibility
and balance recomputed by scalar loops, one step of the dynamics rebuilt
from the offer formula, and the simplified path system evolved and
solved as an explicit affine map. Graphs here are the benchmark's own
edge lists, never `netbargain.Instance` objects.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- small graphs: LP optimum, dual feasibility, balance ----------------------


def max_weight(edges) -> float:
    return max(w for (_, _, w) in edges)


def lp_optimum(n: int, edges) -> float:
    """Optimum of max sum w_e x_e s.t. sum_{e at i} x_e <= 1, x >= 0.

    Solved on weights divided by W and scaled back, so the solver's
    absolute tolerances act on numbers of order one at any weight scale.
    """
    from scipy.optimize import linprog

    W = max_weight(edges)
    c = np.array([-w / W for (_, _, w) in edges])
    a = np.zeros((n, len(edges)))
    for k, (u, v, _) in enumerate(edges):
        a[u, k] = a[v, k] = 1.0
    res = linprog(c, A_ub=a, b_ub=np.ones(n), bounds=(0, None), method="highs")
    require(res.status == 0, f"reference LP did not solve: {res.message}")
    return -float(res.fun) * W


def adjacency(n: int, edges) -> list[dict[int, float]]:
    adj: list[dict[int, float]] = [dict() for _ in range(n)]
    for (u, v, w) in edges:
        adj[u][v] = w
        adj[v][u] = w
    return adj


def best_alternative(adj, gamma, i: int, excluding: int) -> float:
    best = 0.0
    for k, w in adj[i].items():
        if k != excluding and w - gamma[k] > best:
            best = w - gamma[k]
    return best


def check_allocation(n: int, edges, gamma, tol: float) -> float:
    """Dual feasibility and LP optimality of gamma; returns the LP optimum."""
    require(len(gamma) == n, f"gamma has {len(gamma)} entries for {n} nodes")
    for i in range(n):
        require(gamma[i] >= -tol, f"gamma[{i}] = {gamma[i]!r} is negative")
    for (u, v, w) in edges:
        require(gamma[u] + gamma[v] >= w - tol, f"edge ({u},{v}) uncovered: {gamma[u] + gamma[v] - w!r}")
    opt = lp_optimum(n, edges)
    total = float(sum(gamma))
    require(abs(total - opt) <= tol, f"sum(gamma) = {total!r} but the LP optimum is {opt!r}")
    return opt


def check_outcome(n: int, edges, gamma, matching, lp_opt: float, tol: float) -> None:
    """A stable, balanced outcome: matching weight, earnings split, equal surplus."""
    adj = adjacency(n, edges)
    seen: set[int] = set()
    weight = 0.0
    for (u, v) in matching:
        require(v in adj[u], f"matched pair ({u},{v}) is not an edge")
        require(u not in seen and v not in seen, f"node of ({u},{v}) matched twice")
        seen |= {u, v}
        weight += adj[u][v]
        require(abs(gamma[u] + gamma[v] - adj[u][v]) <= tol, f"({u},{v}) does not split its weight")
        su = gamma[u] - best_alternative(adj, gamma, u, v)
        sv = gamma[v] - best_alternative(adj, gamma, v, u)
        require(su >= -tol and sv >= -tol, f"negative surplus on ({u},{v})")
        require(abs(su - sv) <= tol, f"unbalanced ({u},{v}): surpluses {su!r} vs {sv!r}")
    require(abs(weight - lp_opt) <= tol, f"matching weight {weight!r} but the LP optimum is {lp_opt!r}")
    for i in range(n):
        if i not in seen:
            require(abs(gamma[i]) <= tol, f"unmatched node {i} earns {gamma[i]!r}")


# -- large graphs: one step of the dynamics from the offer formula -----------


def offer(w: float, a_ij: float, a_ji: float) -> float:
    return max(w - a_ij, 0.0) - 0.5 * max(w - a_ij - a_ji, 0.0)


class DirectedGraph:
    """Directed slots in document order: edge k owns 2k (u->v) and 2k+1 (v->u)."""

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        self.n = n
        self.src = np.empty(2 * len(u), dtype=np.int64)
        self.src[0::2], self.src[1::2] = u, v
        self.dst = np.empty(2 * len(u), dtype=np.int64)
        self.dst[0::2], self.dst[1::2] = v, u
        self.w = np.repeat(np.asarray(w, dtype=np.float64), 2)
        order = np.argsort(self.dst, kind="stable")
        self.into = order
        self.start = np.searchsorted(self.dst[order], np.arange(n + 1))

    def incoming(self, i: int) -> np.ndarray:
        return self.into[self.start[i] : self.start[i + 1]]


def scalar_step(g: DirectedGraph, alpha: np.ndarray, kappa: float, slots) -> np.ndarray:
    """alpha'[i->j] = kappa * max(0, max_{k != j} offer[k->i]) + (1-kappa) * alpha[i->j]."""
    out = np.empty(len(slots))
    for n_, d in enumerate(slots):
        d = int(d)
        i, j = int(g.src[d]), int(g.dst[d])
        best = 0.0
        for e in g.incoming(i):
            e = int(e)
            if int(g.src[e]) != j:
                best = max(best, offer(float(g.w[e]), float(alpha[e]), float(alpha[e ^ 1])))
        out[n_] = kappa * best + (1.0 - kappa) * float(alpha[d])
    return out


def check_non_expansion(changes, tol: float) -> None:
    for t in range(1, len(changes)):
        require(
            changes[t] <= changes[t - 1] + tol,
            f"per-step change grew at step {t + 1}: {changes[t - 1]!r} -> {changes[t]!r}",
        )


# -- paths: the simplified system as an explicit affine map --------------------


def path_affine(weights, matched, kappa: float, b_left: float, b_right: float):
    """(A, b) with alpha' = A alpha + b for the unclamped path update.

    Slot 2i is the message i -> i+1 and slot 2i+1 the message i+1 -> i.
    Matched edges offer an equal split of what both claims leave,
    unmatched ones offer all the sender leaves; each message relaxes
    toward the offer arriving from the far side, and the two end
    messages toward the boundary inputs.
    """
    ell = len(weights)
    n = 2 * ell
    drive = np.zeros((n, n))
    const = np.zeros(n)

    def offer_on(row: int, slot: int) -> None:
        e = slot // 2
        if matched[e]:
            drive[row, slot] -= 0.5
            drive[row, slot ^ 1] += 0.5
            const[row] += 0.5 * weights[e]
        else:
            drive[row, slot] -= 1.0
            const[row] += weights[e]

    const[0] = b_left
    const[n - 1] = b_right
    for i in range(1, ell):
        offer_on(2 * i, 2 * (i - 1))
        offer_on(2 * i - 1, 2 * i + 1)
    a = kappa * drive + (1.0 - kappa) * np.eye(n)
    return a, kappa * const


def checkerboard(ell: int, sign: int, amount: float) -> np.ndarray:
    out = np.empty(2 * ell)
    s = sign * (-1.0) ** np.arange(ell)
    out[0::2] = s * amount
    out[1::2] = -s * amount
    return out


def check_edge_signs(states: np.ndarray, weights, matched, tol: float) -> None:
    """Matched edges never carry more than their weight, unmatched never less."""
    w = np.asarray(weights)
    m = np.asarray(matched)
    sums = states[:, 0::2] + states[:, 1::2] - w
    require(not (sums[:, m] > tol).any(), "a matched edge's messages exceed its weight")
    require(not (sums[:, ~m] < -tol).any(), "an unmatched edge's messages fall short of its weight")
