"""Simplified dynamics on paths, bounding processes, and mass envelopes.

On a path with an alternating matching, dropping the max and the
clamping from the real update leaves an affine system driven by two
boundary inputs. That system is the tractable comparison object for the
convergence analysis: checkerboard-shifted copies of a fixed point
sandwich the real dynamics on a path structure, and the absolute
difference of two runs is dominated by a non-negative random-walk mass.
Offers here may go negative by design; only the real dynamics clamps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import EdgeIndex, MessageState
from .instance import canon
from .slack import SlackDecomposition

__all__ = [
    "PathSpec",
    "SimplifiedPathState",
    "BoundingConfig",
    "BoundSignError",
    "simplified_step",
    "simplified_fixed_point",
    "run_simplified",
    "bounding_initial",
    "bounding_boundaries",
    "bounding_fixed_point",
    "bounding_process",
    "path_order_geq",
    "structure_path",
    "sandwich_test",
    "mass_step",
    "domination_test",
]


@dataclass(frozen=True)
class PathSpec:
    """Path 0-1-...-ell with weights per edge and a fully alternating matching.

    Directed slot 2i holds the message i -> i+1, slot 2i+1 holds i+1 -> i.
    """

    weights: tuple[float, ...]
    matched: tuple[bool, ...]
    kappa: float = 0.5

    def __post_init__(self):
        ell = len(self.weights)
        if ell < 1 or len(self.matched) != ell:
            raise ValueError("need one matched flag per edge")
        for a, b in zip(self.matched, self.matched[1:]):
            if a == b:
                raise ValueError("matching must strictly alternate along the path")
        if not (0.0 < self.kappa < 1.0):
            raise ValueError("kappa must lie strictly between 0 and 1")

    @property
    def ell(self) -> int:
        return len(self.weights)

    def offers(self, alpha: np.ndarray) -> np.ndarray:
        """Unclamped offers: equal split on matched edges, leftover otherwise."""
        w = np.repeat(self.weights, 2)
        m = np.repeat(self.matched, 2)
        rev = np.arange(2 * self.ell) ^ 1
        return np.where(m, 0.5 * (w - alpha + alpha[..., rev]), w - alpha)


@dataclass(frozen=True)
class SimplifiedPathState:
    path: PathSpec
    alpha: np.ndarray
    b_left: float
    b_right: float
    time: int = 0


def simplified_step(state: SimplifiedPathState) -> SimplifiedPathState:
    p = state.path
    ell, k = p.ell, p.kappa
    a = state.alpha
    m = p.offers(a)
    drive = np.empty_like(a)
    drive[..., 0] = state.b_left
    drive[..., 2 * ell - 1] = state.b_right
    if ell > 1:
        # alpha[i -> i+1] relaxes toward the offer from i-1, i.e. slot 2(i-1)
        drive[..., 2:-1:2] = m[..., 0:-3:2]
        # alpha[i -> i-1] (slot 2i-1) relaxes toward the offer from i+1 (slot 2i+1)
        drive[..., 1:-2:2] = m[..., 3::2]
    new = k * drive + (1 - k) * a
    return replace(state, alpha=new, time=state.time + 1)


def simplified_fixed_point(path: PathSpec, b_left: float, b_right: float) -> np.ndarray:
    """Exact fixed point of the constant-boundary system, by linear solve."""
    ell = path.ell
    n = 2 * ell
    M = np.zeros((n, n))
    c = np.zeros(n)

    def offer_row(slot):
        # coefficients of the offer on directed slot as a linear map of alpha
        row = np.zeros(n)
        const = 0.0
        e = slot // 2
        if path.matched[e]:
            row[slot] = -0.5
            row[slot ^ 1] = 0.5
            const = 0.5 * path.weights[e]
        else:
            row[slot] = -1.0
            const = path.weights[e]
        return row, const

    c[0] = b_left
    c[n - 1] = b_right
    for i in range(1, ell):
        row, const = offer_row(2 * (i - 1))
        M[2 * i] = row
        c[2 * i] = const
        row, const = offer_row(2 * i + 1)
        M[2 * i - 1] = row
        c[2 * i - 1] = const
    sol = np.linalg.solve(np.eye(n) - M, c)
    return sol


def run_simplified(
    state: SimplifiedPathState,
    horizon: int,
    tol: float = 1e-12,
) -> tuple[SimplifiedPathState, list[float], bool]:
    """Iterate to the fixed point; trace holds the sup error per step."""
    star = simplified_fixed_point(state.path, float(state.b_left), float(state.b_right))
    trace = []
    cur = state
    for _ in range(horizon):
        err = float(np.abs(cur.alpha - star).max())
        trace.append(err)
        if err <= tol:
            return cur, trace, True
        cur = simplified_step(cur)
    return cur, trace, float(np.abs(cur.alpha - star).max()) <= tol


# -- bounding processes --------------------------------------------------------


@dataclass(frozen=True)
class BoundingConfig:
    """Checkerboard-shifted companion of a fixed point restricted to a path.

    sign +1 starts above the fixed point on even slots, -1 mirrors it.
    big_delta is the initial shift, delta the boundary pullback; the
    companion's own fixed point sits at distance big_delta - delta.
    """

    sign: int
    big_delta: float
    delta: float
    alpha_star: tuple[float, ...]  # fixed point restricted to path slots

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if not (self.big_delta > 0.0):
            raise ValueError("big_delta must be positive")
        if not (0.0 < self.delta <= self.big_delta):
            raise ValueError("delta must lie in (0, big_delta]")


def _checker(ell: int, sign: int, amount: float) -> np.ndarray:
    out = np.empty(2 * ell)
    signs = sign * (-1.0) ** np.arange(ell)
    out[0::2] = signs * amount
    out[1::2] = -signs * amount
    return out


def bounding_initial(config: BoundingConfig) -> np.ndarray:
    star = np.asarray(config.alpha_star)
    return star + _checker(len(star) // 2, config.sign, config.big_delta)


def bounding_boundaries(config: BoundingConfig) -> tuple[float, float]:
    star = np.asarray(config.alpha_star)
    ell = len(star) // 2
    pull = config.big_delta - config.delta
    b_left = float(star[0]) + config.sign * pull
    b_right = float(star[-1]) + config.sign * ((-1) ** ell) * pull
    return b_left, b_right


def bounding_fixed_point(config: BoundingConfig) -> np.ndarray:
    star = np.asarray(config.alpha_star)
    return star + _checker(len(star) // 2, config.sign, config.big_delta - config.delta)


class BoundSignError(AssertionError):
    """The companion process broke its matched/unmatched sign guarantee."""


def bounding_process(
    config: BoundingConfig,
    path: PathSpec,
    horizon: int,
    sign_tol: float = 1e-12,
) -> np.ndarray:
    """Run the companion process, asserting its sign conditions each step.

    At every step the two messages on a matched edge sum to at most the
    weight, and on an unmatched edge to at least the weight. Returns the
    (horizon+1, 2*ell) array of states.
    """
    bl, br = bounding_boundaries(config)
    state = SimplifiedPathState(path, bounding_initial(config), bl, br)
    w = np.asarray(path.weights)
    matched = np.asarray(path.matched)
    out = np.empty((horizon + 1, 2 * path.ell))
    for t in range(horizon + 1):
        a = state.alpha
        edge_sum = a[0::2] + a[1::2] - w
        bad_matched = matched & (edge_sum > sign_tol)
        bad_unmatched = (~matched) & (edge_sum < -sign_tol)
        if bad_matched.any() or bad_unmatched.any():
            e = int(np.argmax(bad_matched | bad_unmatched))
            raise BoundSignError(f"edge {e} sum deviates by {edge_sum[e]:.3g} at step {t}")
        out[t] = a
        if t < horizon:
            state = simplified_step(state)
    return out


# -- ordering and the sandwich check -------------------------------------------


def path_order_geq(a: np.ndarray, b: np.ndarray, tol: float = 0.0) -> bool:
    """Checkerboard partial order on path messages: a dominates b."""
    ell = a.shape[-1] // 2
    signs = np.empty(2 * ell)
    signs[0::2] = (-1.0) ** np.arange(ell)
    signs[1::2] = -((-1.0) ** np.arange(ell))
    return bool(np.all(signs * (a - b) >= -tol))


def structure_path(decomp: SlackDecomposition, q: int, index: EdgeIndex):
    """Order a path structure's nodes, weights, matching, and directed slots.

    The sequence is the chain of the structure's own nodes with at most one
    anchor edge added at each end (the lowest anchor where offers tie). It
    runs from the lower-numbered end; both ends may be the same anchor.
    Returns (node sequence, PathSpec ingredients, directed ids).
    """
    s = decomp.structures[q]
    if s.topology != "path":
        raise ValueError(f"structure {q} is a {s.topology}, not a path")
    chain: dict[int, list[int]] = {i: [] for i in s.nodes}
    anchors: dict[int, list[int]] = {i: [] for i in s.nodes}
    for (u, v) in s.edges:
        if u in chain and v in chain:
            chain[u].append(v)
            chain[v].append(u)
        else:
            inner, outer = (u, v) if u in chain else (v, u)
            anchors[inner].append(outer)
    # each chain end sorts by its outermost node: its anchor if any, else itself
    ends = [(min(anchors[c], default=c), c) for c, ns in chain.items() if len(ns) == 1]
    (first_out, first), (last_out, last) = sorted(ends)
    seq = [first]
    while len(seq) < len(chain):
        seq.append(next(x for x in chain[seq[-1]] if len(seq) < 2 or x != seq[-2]))
    if first_out != first:
        seq.insert(0, first_out)
    if last_out != last:
        seq.append(last_out)
    weights = tuple(index.instance.weight(a, b) for a, b in zip(seq, seq[1:]))
    matched = tuple(canon(a, b) in s.e1 for a, b in zip(seq, seq[1:]))
    slots = [index.slot(*p) for a, b in zip(seq, seq[1:]) for p in ((a, b), (b, a))]
    return seq, weights, matched, np.asarray(slots, dtype=np.int64)


def sandwich_test(
    fp: MessageState,
    decomp: SlackDecomposition,
    q: int,
    big_delta: float,
    delta: float,
    horizon: int,
    kappa: float = 0.5,
    tol: float = 1e-12,
) -> bool:
    """Run the real dynamics between its two companion processes.

    The start is the fixed point shifted by a checkerboard of size
    big_delta along the structure path, with deviations clamped to
    big_delta - delta on messages leaving already-settled nodes, then
    clipped to the valid range. True when the companions bracket the real
    messages on the path at every step up to the horizon.
    """
    idx = fp.index
    if decomp.gap is not None and not (0.0 < delta <= min(decomp.gap, big_delta)):
        raise ValueError("delta must lie in (0, min(gap, big_delta)]")
    seq, weights, matched, slots = structure_path(decomp, q, idx)
    path = PathSpec(weights, matched, kappa)
    star_path = fp.alpha[slots]

    # messages out of unmatched nodes and earlier structures stay closer in
    settled = set(decomp.c0)
    for s in decomp.structures[:q]:
        settled |= set(s.nodes)
    dev = np.zeros(2 * idx.m)
    dev[slots] = _checker(path.ell, +1, big_delta)
    early = np.isin(idx.src, sorted(settled))
    dev[early] = np.clip(dev[early], -(big_delta - delta), big_delta - delta)
    alpha = np.clip(fp.alpha + dev, 0.0, idx.W)

    runs = {}
    for s in (+1, -1):
        cfg = BoundingConfig(s, big_delta, delta, tuple(star_path))
        bl, br = bounding_boundaries(cfg)
        runs[s] = SimplifiedPathState(path, bounding_initial(cfg), bl, br)

    for _ in range(horizon + 1):
        on_path = alpha[slots]
        if not (
            path_order_geq(runs[+1].alpha, on_path, tol)
            and path_order_geq(on_path, runs[-1].alpha, tol)
        ):
            return False
        alpha = idx.step_alpha(alpha, kappa)
        runs = {s: simplified_step(st) for s, st in runs.items()}
    return True


# -- random-walk mass envelope ---------------------------------------------------


def mass_step(
    rho: np.ndarray,
    path: PathSpec,
    injection: str = "none",
) -> np.ndarray:
    """Advance the non-negative envelope one step.

    Mass passes straight through matched edges and half-splits at
    unmatched ones; boundary slots retain a 1-kappa fraction and take
    kappa times the injected unit when their side injects.
    """
    if injection not in ("none", "left", "right", "both"):
        raise ValueError("injection must be none|left|right|both")
    ell, k = path.ell, path.kappa
    drive = np.empty_like(rho)
    drive[..., 0] = 1.0 if injection in ("left", "both") else 0.0
    drive[..., 2 * ell - 1] = 1.0 if injection in ("right", "both") else 0.0
    if ell > 1:
        left_in = rho[..., 0:-3:2]  # slot 2(i-1): (i-1) -> i
        left_back = rho[..., 1:-2:2]  # slot 2(i-1)+1: i -> (i-1)
        right_in = rho[..., 3::2]  # slot 2i+1 ... feeding i -> i-1
        right_fwd = rho[..., 2::2]
        m_here = np.asarray(path.matched)[1:]
        drive[..., 2:-1:2] = np.where(m_here, left_in, 0.5 * (left_in + left_back))
        m_prev = np.asarray(path.matched)[:-1]
        drive[..., 1:-2:2] = np.where(m_prev, right_in, 0.5 * (right_in + right_fwd))
    return k * drive + (1 - k) * rho


def domination_test(
    path: PathSpec,
    boundary: float,
    delta0: np.ndarray,
    horizon: int,
    tol: float = 1e-12,
    log: list | None = None,
) -> bool:
    """Check that the mass envelope dominates a real difference pointwise.

    Two simplified runs share the constant boundary and differ by delta0
    at the start; the envelope starts flat at ||delta0||_inf with no
    injection. True when rho >= |difference| on every slot at every step.
    A list passed as log collects the per-step worst margin min(rho-|diff|).
    """
    delta0 = np.asarray(delta0, dtype=np.float64)
    a = SimplifiedPathState(path, delta0.copy(), boundary, boundary)
    b = SimplifiedPathState(path, np.zeros_like(delta0), boundary, boundary)
    rho = np.full(2 * path.ell, float(np.abs(delta0).max()) if delta0.size else 0.0)
    for _ in range(horizon + 1):
        margin = float((rho - np.abs(a.alpha - b.alpha)).min())
        if log is not None:
            log.append(margin)
        if margin < -tol:
            return False
        a, b = simplified_step(a), simplified_step(b)
        rho = mass_step(rho, path, injection="none")
    return True


def series_csv(values) -> str:
    """One tracked quantity as CSV rows `t,value`."""
    out = ["t,value"]
    out += [f"{t},{float(v)!r}" for t, v in enumerate(values)]
    return "\n".join(out) + "\n"
