"""Buyer/seller order structure on bipartite instances.

On a two-sided graph, message vectors carry a partial order (buyers'
outgoing messages up, sellers' outgoing messages down) that the dynamics
preserves. Its extreme points are reachable: running from the all-W
buyer-side start converges monotonically to the buyer-optimal outcome,
and symmetrically for sellers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import DynamicsConfig, EdgeIndex, run
from .instance import Instance

__all__ = [
    "Bipartition",
    "NotBipartiteError",
    "check_bipartite",
    "order_leq",
    "extremal_init",
    "run_extremal",
]


@dataclass(frozen=True)
class Bipartition:
    buyers: frozenset[int]
    sellers: frozenset[int]

    def side(self, i: int) -> str:
        return "buyer" if i in self.buyers else "seller"


class NotBipartiteError(ValueError):
    def __init__(self, cycle: list[int]):
        super().__init__(f"odd cycle {cycle}")
        self.cycle = cycle


def check_bipartite(inst: Instance) -> Bipartition:
    """Two-color the graph; buyers take the side of each component's lowest node.

    Raises NotBipartiteError carrying an odd-cycle witness otherwise.
    """
    color = [-1] * inst.n
    parent = {}
    for root in range(inst.n):
        if color[root] != -1:
            continue
        color[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in inst.neighbors(u):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    pu, pv = [u], [v]
                    while parent[pu[-1]] is not None:
                        pu.append(parent[pu[-1]])
                    while parent[pv[-1]] is not None:
                        pv.append(parent[pv[-1]])
                    on_pv = {node: k for k, node in enumerate(pv)}
                    iu = next(k for k, node in enumerate(pu) if node in on_pv)
                    iv = on_pv[pu[iu]]
                    cycle = pu[: iu + 1] + pv[:iv][::-1]
                    raise NotBipartiteError(cycle)
    buyers = frozenset(i for i in range(inst.n) if color[i] == 0)
    sellers = frozenset(i for i in range(inst.n) if color[i] == 1)
    return Bipartition(buyers, sellers)


def _buyer_src_mask(idx: EdgeIndex, part: Bipartition) -> np.ndarray:
    buyers = np.zeros(idx.n, dtype=bool)
    buyers[list(part.buyers)] = True
    return buyers[idx.src]


def order_leq(beta, alpha, part: Bipartition, index: EdgeIndex, tol: float = 0.0) -> bool:
    """True when alpha dominates beta: buyers claim at least as much
    outgoing and face at most as much incoming."""
    a = index.alpha_from_map(alpha) if isinstance(alpha, dict) else np.asarray(alpha)
    b = index.alpha_from_map(beta) if isinstance(beta, dict) else np.asarray(beta)
    from_buyer = _buyer_src_mask(index, part)
    up = a >= b - tol
    down = a <= b + tol
    return bool(np.all(np.where(from_buyer, up, down)))


def extremal_init(inst: Instance, part: Bipartition, side: str, index: EdgeIndex | None = None) -> np.ndarray:
    """All-W messages out of the favored side, zeros out of the other."""
    idx = index or EdgeIndex(inst)
    if side not in ("buyer", "seller"):
        raise ValueError("side must be 'buyer' or 'seller'")
    from_buyer = _buyer_src_mask(idx, part)
    favored = from_buyer if side == "buyer" else ~from_buyer
    return np.where(favored, idx.W, 0.0)


def run_extremal(
    inst: Instance,
    part: Bipartition,
    side: str,
    config: DynamicsConfig | None = None,
    monotone_tol: float = 1e-12,
):
    """Converge from the one-sided start and certify the outcome.

    Trajectories from the favored-side start move monotonically in the
    partial order; that is asserted every step as a cheap self-check.
    Returns (solution, state, iterations, converged).
    """
    from .nb import NBSolution, certify

    idx = EdgeIndex(inst)
    start = extremal_init(inst, part, side, index=idx)

    def monotone(t, prev, nxt):
        lo, hi = (nxt, prev) if side == "buyer" else (prev, nxt)
        if not order_leq(lo, hi, part, idx, tol=monotone_tol):
            raise AssertionError(f"monotonicity broken at step {t} from the {side} start")

    cfg = replace(config or DynamicsConfig(), init="explicit", alpha0=start)
    state, t, _, converged = run(idx, cfg, observe=monotone)
    alpha = state.alpha
    # strong-dotted edges carry the pairing of the extremal outcome
    slack = idx.w[0::2] - alpha[0::2] - alpha[1::2]  # per undirected edge
    strong = frozenset(e for e, s in zip(inst.weights, slack) if s > 1e-6)
    sol = certify(NBSolution(strong, tuple(float(x) for x in state.gamma)), inst)
    return sol, state, t, converged
