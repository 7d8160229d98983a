"""Weighted exchange-network instances: representation, generators, file I/O.

An instance is an undirected graph with strictly positive edge weights.
Adjacent players may split an edge's weight if they agree to trade, each
player trading with at most one neighbor.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

__all__ = [
    "Instance",
    "canon",
    "GeneratorSpec",
    "InstanceError",
    "load",
    "loads",
    "save",
    "dumps",
    "generate",
    "max_weight",
]


class InstanceError(ValueError):
    """Raised for malformed instance documents or invalid generator parameters."""


def canon(u: int, v: int) -> tuple[int, int]:
    """Key of the undirected edge {u, v}: lower endpoint first."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Instance:
    """Immutable weighted graph. Node ids are 0..n-1; weights are > 0."""

    n: int
    edges: tuple[tuple[int, int, float], ...]
    _adj: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    _weights: dict[tuple[int, int], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n <= 0:
            raise InstanceError("instance needs at least one node")
        weights: dict[tuple[int, int], float] = {}
        adj: dict[int, list[int]] = {}  # isolated nodes get no entry
        for (u, v, w) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InstanceError(f"dangling node id on edge ({u},{v})")
            if u == v:
                raise InstanceError(f"self-loop at node {u}")
            key = canon(u, v)
            if key in weights:
                raise InstanceError(f"duplicate edge ({u},{v})")
            if not (w > 0.0) or not np.isfinite(w):
                raise InstanceError(f"non-positive weight on edge ({u},{v}): {w}")
            if w < sys.float_info.min:
                raise InstanceError(f"subnormal weight on edge ({u},{v}): {w}")
            weights[key] = w
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        object.__setattr__(self, "_adj", {i: tuple(ns) for i, ns in adj.items()})
        object.__setattr__(self, "_weights", weights)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def weights(self) -> MappingProxyType:
        """Read-only {canon(u, v): w}, in edge order."""
        return MappingProxyType(self._weights)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj.get(i, ())

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def weight(self, i: int, j: int) -> float:
        try:
            return self._weights[canon(i, j)]
        except KeyError:
            raise KeyError(f"no edge ({i},{j})") from None

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self._weights)

    def relabeled(self, perm: list[int]) -> "Instance":
        """Instance with node i renamed perm[i]. Used for symmetry tests."""
        if sorted(perm) != list(range(self.n)):
            raise InstanceError("perm must be a permutation of 0..n-1")
        return Instance(self.n, tuple((perm[u], perm[v], w) for (u, v, w) in self.edges))


def max_weight(inst: Instance) -> float:
    """Largest edge weight; the natural scale of every message and earning."""
    if not inst.edges:
        return 0.0
    return max(w for (_, _, w) in inst.edges)


# -- document I/O ------------------------------------------------------------
#
# Document format: {"nodes": n, "edges": [{"u": i, "v": j, "w": weight}, ...]}
# with "w" either a JSON number or a decimal string (parsed once as a double).


def _node_id(x) -> int:
    # int() would truncate 0.9 to 0 and read true as 1
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"node id {x!r} is not an integer")
    return int(x)


def loads(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceError(f"parse error: {e}") from None
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise InstanceError("document must have 'nodes' and 'edges' fields")
    n = doc["nodes"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InstanceError("'nodes' must be an integer")
    if not isinstance(doc["edges"], list):
        raise InstanceError("'edges' must be a list")
    edges = []
    for rec in doc["edges"]:
        try:
            u, v, w = _node_id(rec["u"]), _node_id(rec["v"]), float(rec["w"])
        except (KeyError, TypeError, ValueError) as e:
            raise InstanceError(f"bad edge record {rec!r}: {e}") from None
        edges.append((u, v, w))
    return Instance(n, tuple(edges))


def load(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dumps(inst: Instance) -> str:
    doc = {
        "nodes": inst.n,
        # repr round-trips doubles exactly
        "edges": [{"u": u, "v": v, "w": repr(w)} for (u, v, w) in inst.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


def save(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(inst))


# -- generators --------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for a benchmark instance.

    topology: path | even_cycle | odd_cycle | blossom | bicycle |
              bipartite_random | erdos_renyi
    sizes: per-topology size parameters (see generate)
    weights: explicit edge weights, in edge order; overrides base/jitter
    base: base weight pattern, cycled over edges
    jitter: half-width of the uniform perturbation added per edge;
            None means 0.05 * min(base). Tie-breaking jitter keeps the
            matching LP optimum unique with high probability.
    """

    topology: str
    sizes: tuple[int, ...] = ()
    weights: tuple[float, ...] | None = None
    base: tuple[float, ...] = (1.0,)
    jitter: float | None = None
    seed: int = 0


def _topology_edges(spec: GeneratorSpec, rng: np.random.Generator) -> tuple[int, list[tuple[int, int]]]:
    t, s = spec.topology, spec.sizes
    if t == "path":
        (length,) = s  # node count
        if length < 2:
            raise InstanceError("path needs at least 2 nodes")
        return length, [(i, i + 1) for i in range(length - 1)]
    if t in ("even_cycle", "odd_cycle"):
        (k,) = s
        if k < 3 or (k % 2 == 0) != (t == "even_cycle"):
            raise InstanceError(f"{t} needs a cycle length of matching parity >= 3")
        return k, [(i, (i + 1) % k) for i in range(k)]
    if t == "blossom":
        stem, cyc = s
        if cyc < 3 or cyc % 2 == 0:
            raise InstanceError("blossom cycle length must be odd >= 3")
        if stem < 1:
            raise InstanceError("blossom needs a stem of length >= 1")
        n = cyc + stem
        cycle = [(i, (i + 1) % cyc) for i in range(cyc)]
        stem_edges = [(0, cyc)] + [(cyc + i, cyc + i + 1) for i in range(stem - 1)]
        return n, cycle + stem_edges
    if t == "bicycle":
        c1, rod, c2 = s
        if c1 < 3 or c1 % 2 == 0 or c2 < 3 or c2 % 2 == 0:
            raise InstanceError("bicycle cycles must both be odd >= 3")
        if rod < 1:
            raise InstanceError("bicycle needs a connecting path of length >= 1")
        # cycle 1 on 0..c1-1, rod from node 0 through c1..c1+rod-1,
        # cycle 2 hangs off the rod's far end
        n = c1 + rod + c2 - 1
        cyc1 = [(i, (i + 1) % c1) for i in range(c1)]
        rod_nodes = [0] + [c1 + i for i in range(rod)]
        rod_edges = [(rod_nodes[i], rod_nodes[i + 1]) for i in range(rod)]
        h = rod_nodes[-1]
        c2_nodes = [h] + [c1 + rod + i for i in range(c2 - 1)]
        cyc2 = [(c2_nodes[i], c2_nodes[(i + 1) % c2]) for i in range(c2)]
        return n, cyc1 + rod_edges + cyc2
    if t == "bipartite_random":
        nb, ns = s
        if nb < 1 or ns < 1:
            raise InstanceError("bipartite_random needs both sides nonempty")
        n = nb + ns
        edges = [(i, nb + j) for i in range(nb) for j in range(ns) if rng.random() < 0.6]
        if not edges:
            edges = [(0, nb)]
        return n, edges
    if t == "erdos_renyi":
        (n,) = s
        if n < 2:
            raise InstanceError("erdos_renyi needs n >= 2")
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        if not edges:
            edges = [(0, 1)]
        return n, edges
    raise InstanceError(f"unknown topology {t!r}")


def generate(spec: GeneratorSpec) -> Instance:
    """Build the instance determined by spec. Pure in spec: same seed, same graph."""
    rng = np.random.default_rng(spec.seed)
    n, pairs = _topology_edges(spec, rng)
    m = len(pairs)
    if spec.weights is not None:
        if len(spec.weights) != m:
            raise InstanceError(f"need {m} weights for {spec.topology}{spec.sizes}, got {len(spec.weights)}")
        ws = [float(w) for w in spec.weights]
    else:
        base = [float(spec.base[k % len(spec.base)]) for k in range(m)]
        p = spec.jitter if spec.jitter is not None else 0.05 * min(base)
        ws = [b + rng.uniform(-p, p) for b in base]
    return Instance(n, tuple((u, v, w) for (u, v), w in zip(pairs, ws)))
