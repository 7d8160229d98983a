"""Damped synchronous bargaining dynamics.

Each player i keeps a best-alternative message alpha[i->j] for every
neighbor j. Offers split the surplus left by both sides' alternatives,
earnings are each node's best incoming offer, and messages relax toward
the best offer from the other neighbors with inertia 1-kappa:

    offer[i->j]  = (w - a_ij)_+ - ((w - a_ij - a_ji)_+) / 2
    gamma[i]     = max over incoming offers (0 if none)
    alpha'[i->j] = kappa * max_{k != j} offer[k->i] + (1-kappa) * alpha[i->j]

All updates are synchronous. The engine stores messages as flat arrays
over directed edges and supports batches (leading axes) so that many
trajectories on the same graph advance together.
"""

from __future__ import annotations

import io
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .instance import Instance, canon, max_weight

__all__ = [
    "EdgeIndex",
    "MessageState",
    "DynamicsConfig",
    "Trace",
    "compute_offer",
    "derive",
    "step",
    "run",
    "extract_pairing",
    "sup_distance",
]


class EdgeIndex:
    """Static directed-edge indexing for one instance.

    Undirected edge k = (u,v,w) owns directed slots 2k (u->v) and 2k+1
    (v->u), so per-edge quantities are slices: `a[0::2] + a[1::2]` sums
    the two messages on every edge in edge order. Incoming edges are
    stored in CSR form sorted by head: `in_ids[in_ptr[i]:in_ptr[i+1]]`
    lists the directed ids pointing into i in increasing order. Every
    attribute is an array of O(n + m) entries or a scalar, so the kernels
    cost O(n + m) per step whatever the degree distribution.
    """

    def __init__(self, inst: Instance):
        self.instance = inst
        n, m = inst.n, inst.m
        self.n, self.m = n, m
        table = np.array(inst.edges, dtype=np.float64).reshape(m, 3)
        ends = table[:, :2].astype(np.int64)
        self.src = ends.ravel()
        self.dst = ends[:, ::-1].ravel()
        self.w = np.repeat(table[:, 2], 2)
        self.rev = np.arange(2 * m, dtype=np.int64) ^ 1
        indeg = np.bincount(self.dst, minlength=n)
        self.in_ids = np.argsort(self.dst, kind="stable")
        self.in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(indeg, out=self.in_ptr[1:])
        # segmented top-2 gathers; segments are the nodes with incoming edges
        has_in = indeg > 0
        self._heads = np.flatnonzero(has_in)
        self._starts = self.in_ptr[self._heads]
        self._seg = np.repeat(np.arange(self._heads.size), indeg[has_in])  # per CSR slot
        self._src_seg = (np.cumsum(has_in) - 1)[self.src]  # per directed edge
        csr_pos = np.empty(2 * m, dtype=np.int64)
        csr_pos[self.in_ids] = np.arange(2 * m)
        self._rev_pos = csr_pos[self.rev]  # CSR slot of each edge's reverse
        self.W = max_weight(inst)

    def incoming_ids(self, i: int) -> np.ndarray:
        """Directed ids of the edges pointing into node i, in increasing order."""
        return self.in_ids[self.in_ptr[i] : self.in_ptr[i + 1]]

    def slot(self, i: int, j: int) -> int:
        """Directed id of the edge i->j; KeyError when i and j are not adjacent."""
        ids = self.incoming_ids(j) if 0 <= j < self.n else self.in_ids[:0]
        hit = ids[self.src[ids] == i]
        if hit.size == 0:
            raise KeyError(f"no edge ({i},{j})")
        return int(hit[0])

    def directed_pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.src.tolist(), self.dst.tolist()))

    def alpha_from_map(self, amap: dict[tuple[int, int], float]) -> np.ndarray:
        a = np.empty(2 * self.m)
        for d, p in enumerate(self.directed_pairs()):
            if p not in amap:
                raise KeyError(f"missing directed edge entry {p}")
            a[d] = amap[p]
        return a

    def alpha_to_map(self, alpha: np.ndarray) -> dict[tuple[int, int], float]:
        return dict(zip(self.directed_pairs(), np.asarray(alpha, dtype=np.float64).tolist()))

    # -- vectorized kernels (alpha may have leading batch axes) --

    def offers(self, alpha: np.ndarray) -> np.ndarray:
        a_rev = alpha[..., self.rev]
        first = np.maximum(self.w - alpha, 0.0)
        surplus = np.maximum(self.w - alpha - a_rev, 0.0)
        return first - 0.5 * surplus

    def _best_in(self, offers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Offers in CSR order floored at 0, and each head's best of them.

        The floor realizes "max over nothing is 0" without a sentinel slot.
        """
        clipped = np.maximum(offers[..., self.in_ids], 0.0)
        return clipped, np.maximum.reduceat(clipped, self._starts, axis=-1)

    def earnings(self, offers: np.ndarray) -> np.ndarray:
        gamma = np.zeros(offers.shape[:-1] + (self.n,))
        gamma[..., self._heads] = self._best_in(offers)[1]
        return gamma

    def best_excluding_reverse(self, offers: np.ndarray) -> np.ndarray:
        """For each directed edge i->j: best offer into i not coming from j.

        Only when j->i is the sole top offer into i does the answer drop
        to the best offer below the top; with ties the top stays.
        """
        clipped, best = self._best_in(offers)
        top = clipped == best[..., self._seg]
        ties = np.add.reduceat(top, self._starts, axis=-1, dtype=np.intp) > 1
        below = np.maximum.reduceat(np.where(top, 0.0, clipped), self._starts, axis=-1)
        second = np.where(ties, best, below)
        return np.where(top[..., self._rev_pos], second[..., self._src_seg], best[..., self._src_seg])

    def step_alpha(self, alpha: np.ndarray, kappa: float) -> np.ndarray:
        m = self.offers(alpha)
        return kappa * self.best_excluding_reverse(m) + (1.0 - kappa) * alpha


def compute_offer(w: float, a_ij: float, a_ji: float) -> float:
    """Offer along one directed edge given both best-alternative claims."""
    return max(w - a_ij, 0.0) - 0.5 * max(w - a_ij - a_ji, 0.0)


@dataclass(frozen=True)
class MessageState:
    """Messages plus their derived offers and earnings at one time step."""

    index: EdgeIndex
    alpha: np.ndarray
    offers: np.ndarray
    gamma: np.ndarray
    time: int = 0

    @property
    def instance(self) -> Instance:
        return self.index.instance

    def alpha_map(self) -> dict[tuple[int, int], float]:
        return self.index.alpha_to_map(self.alpha)

    def offer_map(self) -> dict[tuple[int, int], float]:
        return self.index.alpha_to_map(self.offers)

    def step_residual(self) -> float:
        """Sup-norm mismatch between alpha and its undamped update target.

        The damped update moves a kappa fraction toward the target, so
        this equals the per-step change divided by kappa for any kappa.
        """
        if self.index.m == 0:
            return 0.0
        target = self.index.best_excluding_reverse(self.offers)
        return float(np.abs(target - self.alpha).max())


def derive(alpha, inst_or_index, time: int = 0) -> MessageState:
    """Fill offers and earnings from a message vector.

    alpha may be a dict keyed by directed pairs (i, j) or a flat array in
    EdgeIndex order.
    """
    idx = inst_or_index if isinstance(inst_or_index, EdgeIndex) else EdgeIndex(inst_or_index)
    a = idx.alpha_from_map(alpha) if isinstance(alpha, dict) else np.asarray(alpha, dtype=np.float64)
    m = idx.offers(a)
    return MessageState(idx, a, m, idx.earnings(m), time)


@dataclass(frozen=True)
class DynamicsConfig:
    kappa: float = 0.5
    eps_conv: float = 1e-9
    max_iters: int = 10**6
    init: str = "zeros"  # zeros | uniform_random | explicit | top | bot
    seed: int | None = None
    alpha0: np.ndarray | None = None

    def __post_init__(self):
        if not (0.0 < self.kappa < 1.0):
            raise ValueError("kappa must lie strictly between 0 and 1")


@dataclass
class Trace:
    """Per-step convergence record, exportable as CSV."""

    steps: list[int] = field(default_factory=list)
    step_change: list[float] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,step_change\n")
        for t, c in zip(self.steps, self.step_change):
            buf.write(f"{t},{c!r}\n")
        return buf.getvalue()


def _initial_alpha(idx: EdgeIndex, config: DynamicsConfig) -> np.ndarray:
    if config.init == "zeros":
        return np.zeros(2 * idx.m)
    if config.init == "uniform_random":
        rng = np.random.default_rng(config.seed)
        return rng.uniform(0.0, idx.W, size=2 * idx.m)
    if config.init == "explicit":
        if config.alpha0 is None:
            raise ValueError("explicit init needs alpha0")
        return np.asarray(config.alpha0, dtype=np.float64).copy()
    if config.init in ("top", "bot"):
        from .bipartite import check_bipartite, extremal_init

        part = check_bipartite(idx.instance)
        side = "buyer" if config.init == "top" else "seller"
        return extremal_init(idx.instance, part, side, index=idx)
    raise ValueError(f"unknown init {config.init!r}")


def step(state: MessageState, config: DynamicsConfig | None = None) -> MessageState:
    """One synchronous damped update; pure in the old state."""
    cfg = config or DynamicsConfig()
    idx = state.index
    a = idx.step_alpha(state.alpha, cfg.kappa)
    m = idx.offers(a)
    return MessageState(idx, a, m, idx.earnings(m), state.time + 1)


def run(
    inst_or_index,
    config: DynamicsConfig | None = None,
    observe: Callable[[int, np.ndarray, np.ndarray], object] | None = None,
) -> tuple[MessageState, int, Trace, bool]:
    """Iterate to a numerical fixed point.

    Stops once the per-step change drops to kappa * eps_conv, which makes
    the undamped-map residual of the returned state at most eps_conv.
    Non-convergence within max_iters is reported through the flag.
    `observe(t, prev, nxt)` is called after every step t; it may raise,
    and a true return stops the run at that step as converged.
    """
    cfg = config or DynamicsConfig()
    idx = inst_or_index if isinstance(inst_or_index, EdgeIndex) else EdgeIndex(inst_or_index)
    alpha = _initial_alpha(idx, cfg)
    trace = Trace()
    converged = False
    t = 0
    threshold = cfg.kappa * cfg.eps_conv
    for t in range(1, cfg.max_iters + 1):
        nxt = idx.step_alpha(alpha, cfg.kappa)
        change = float(np.abs(nxt - alpha).max()) if idx.m else 0.0
        trace.steps.append(t)
        trace.step_change.append(change)
        stop = observe is not None and observe(t, alpha, nxt)
        alpha = nxt
        if stop or change <= threshold:
            converged = True
            break
    m = idx.offers(alpha)
    state = MessageState(idx, alpha, m, idx.earnings(m), t)
    return state, t, trace, converged


def sup_distance(a, b, index: EdgeIndex | None = None) -> float:
    """Sup-norm distance between two message vectors on the same graph."""
    if isinstance(a, dict) or isinstance(b, dict):
        if index is None:
            raise ValueError("dict message vectors need an EdgeIndex")
        a = index.alpha_from_map(a) if isinstance(a, dict) else a
        b = index.alpha_from_map(b) if isinstance(b, dict) else b
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("message vectors live on different edge sets")
    if a.size == 0:
        return 0.0
    return float(np.abs(a - b).max())


def extract_pairing(
    state: MessageState, margin: float
) -> tuple[set[tuple[int, int]], set[int], set[int]]:
    """Read trading pairs off the offers.

    A node whose best incoming offer is at most `margin` counts as
    unpaired. Otherwise its partner is the neighbor whose offer beats all
    other incoming offers by more than `margin`; if no such neighbor
    exists the node is ambiguous. Pairs require mutual choice.
    """
    idx = state.index
    choice: dict[int, int] = {}
    ambiguous: set[int] = set()
    unpaired: set[int] = set()
    for i in range(idx.n):
        ids = idx.incoming_ids(i)
        vals = [state.offers[d] for d in ids]
        if not vals or max(vals) <= margin:
            unpaired.add(i)
            continue
        order = sorted(range(len(vals)), key=lambda k: vals[k], reverse=True)
        best = order[0]
        runner = vals[order[1]] if len(order) > 1 else 0.0
        if vals[best] - runner > margin:
            choice[i] = int(idx.src[ids[best]])
        else:
            ambiguous.add(i)
    pairs = {canon(i, j) for i, j in choice.items() if choice.get(j) == i}
    return pairs, ambiguous, unpaired
