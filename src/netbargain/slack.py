"""Slack-level decomposition of an exact fixed point.

A certified fixed point sorts the graph into the unmatched node set plus
a sequence of structures (alternating paths, blossoms, bicycles, or
alternating even cycles). Every node of a structure has the same slack:
its earning minus its best non-partner offer. The levels, the structure
shapes, and the gap they induce are what the convergence theory runs on,
so this module recovers them and double-checks the message identities
they imply.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from .dynamics import MessageState
from .instance import Instance, canon
from .nb import NBSolution

__all__ = [
    "Structure",
    "SlackDecomposition",
    "DecompositionError",
    "decompose",
    "compute_gap",
    "check_fp_identities",
    "IdentityReport",
]

Edge = tuple[int, int]

TOL_CLUSTER = 1e-6


class DecompositionError(ValueError):
    pass


@dataclass(frozen=True)
class Structure:
    nodes: frozenset[int]  # slack-level nodes owned by the structure
    e1: frozenset[Edge]  # matched edges
    e2: frozenset[Edge]  # second-best-offer edges
    v_ext: frozenset[int]  # nodes plus anchored endpoints of e2 edges
    topology: str  # path | blossom | bicycle | cycle | unknown
    sigma: float
    level: int

    @property
    def edges(self) -> frozenset[Edge]:
        return self.e1 | self.e2


@dataclass(frozen=True)
class SlackDecomposition:
    c0: frozenset[int]
    structures: tuple[Structure, ...]
    levels: tuple[float, ...]  # distinct slack values, ascending
    gap: float | None  # None when a degenerate cycle structure is present
    notes: tuple[str, ...] = ()

    def level_of_node(self) -> dict[int, float]:
        out = {i: 0.0 for i in self.c0}
        for s in self.structures:
            for i in s.nodes:
                out[i] = s.sigma
        return out

    def summary(self) -> str:
        lines = [f"unmatched: {sorted(self.c0)}"]
        for q, s in enumerate(self.structures, 1):
            lines.append(
                f"structure {q}: {s.topology}, sigma={s.sigma:.6g}, "
                f"nodes={sorted(s.nodes)}, matched={sorted(s.e1)}, "
                f"second_best={sorted(s.e2)}, ext={sorted(s.v_ext)}"
            )
        gap = "undefined (degenerate cycle present)" if self.gap is None else f"{self.gap:.6g}"
        lines.append(f"levels: {[round(l, 9) for l in self.levels]}  gap: {gap}")
        lines.append("convention: equal-slack structures share one level and add no difference term")
        return "\n".join(lines)


def _classify_topology(core: set[int], edges: set[Edge]) -> str:
    """Shape of one structure: the subgraph on its own nodes decides, with
    second-best edges into anchored outsiders allowed only at chain ends
    (offer ties can put several anchors on one end)."""
    internal = [e for e in edges if e[0] in core and e[1] in core]
    anchored = [e for e in edges if (e[0] in core) != (e[1] in core)]
    if len(internal) + len(anchored) != len(edges):
        return "unknown"
    g = nx.Graph()
    g.add_nodes_from(core)
    g.add_edges_from(internal)
    if not nx.is_connected(g):
        return "unknown"
    rank = g.number_of_edges() - g.number_of_nodes() + 1
    hooks = {e[0] if e[0] in core else e[1] for e in anchored}
    if rank == 0:
        if any(d > 2 for _, d in g.degree()):
            return "unknown"
        ends = {i for i, d in g.degree() if d <= 1}
        return "path" if hooks <= ends else "unknown"
    basis = nx.cycle_basis(g)
    if rank == 1:
        if len(basis[0]) % 2 == 1:
            return "blossom"
        return "cycle" if len(basis[0]) == g.number_of_nodes() and not anchored else "unknown"
    if rank == 2 and len(basis) == 2:
        a, b = (set(c) for c in basis)
        if len(basis[0]) % 2 == 1 and len(basis[1]) % 2 == 1 and len(a & b) <= 1:
            return "bicycle"
    return "unknown"


def decompose(
    fp: MessageState,
    sol: NBSolution,
    inst: Instance,
    tol_cluster: float = TOL_CLUSTER,
    pos_tol: float = TOL_CLUSTER,
) -> SlackDecomposition:
    """Recover slack levels and structures from a fixed point and its outcome.

    The caller is responsible for pairing a certified fixed point with a
    certified outcome on an instance whose relaxation has a unique
    integral optimum; nothing here re-runs that certification.
    """
    if not sol.certified:
        raise DecompositionError("outcome must be certified stable and balanced")
    idx = fp.index
    partner = sol.partner_of()
    matched = sorted(partner)
    c0 = frozenset(i for i in range(inst.n) if i not in partner)

    # per matched node: best non-partner offer and where it comes from
    second_best: dict[int, float] = {}
    second_from: dict[int, list[int]] = {}
    for i in matched:
        offers = [
            (float(fp.offers[d]), int(idx.src[d]))
            for d in idx.incoming_ids(i)
            if int(idx.src[d]) != partner[i]
        ]
        psi = max((o for o, _ in offers), default=0.0)
        psi = max(psi, 0.0)
        second_best[i] = psi
        second_from[i] = [k for (o, k) in offers if psi > pos_tol and o >= psi - tol_cluster]

    slack = {i: float(fp.gamma[i]) - second_best[i] for i in matched}

    order = sorted(matched, key=lambda i: slack[i])
    clusters: list[list[int]] = []
    for i in order:
        if clusters and slack[i] - slack[clusters[-1][-1]] <= tol_cluster:
            clusters[-1].append(i)
        else:
            if clusters:
                gap_between = slack[i] - slack[clusters[-1][-1]]
                if gap_between <= 10 * tol_cluster:
                    raise DecompositionError(
                        f"unstable slack clustering: adjacent values separated by {gap_between:.3g}"
                    )
            clusters.append([i])
    levels = tuple(float(np.mean([slack[i] for i in c])) for c in clusters)

    structures: list[Structure] = []
    notes: list[str] = []
    for level_idx, members in enumerate(clusters):
        mset = set(members)
        for (u, v) in sol.matching:
            if (u in mset) != (v in mset):
                raise DecompositionError(f"matched pair ({u},{v}) straddles slack levels")
        e1 = {canon(u, v) for (u, v) in sol.matching if u in mset}
        e2 = {canon(i, k) for i in members for k in second_from[i]}
        # components connect only through level nodes; anchors stay pendant
        g = nx.Graph()
        g.add_nodes_from(members)
        g.add_edges_from(e for e in e1)
        g.add_edges_from((e for e in e2 if e[0] in mset and e[1] in mset))
        comp_of = {}
        for cid, comp in enumerate(nx.connected_components(g)):
            for i in comp:
                comp_of[i] = cid
        by_comp: dict[int, set[int]] = {}
        for i in members:
            by_comp.setdefault(comp_of[i], set()).add(i)
        for cid in sorted(by_comp, key=lambda c: min(by_comp[c])):
            nodes = by_comp[cid]
            se1 = frozenset(e for e in e1 if e[0] in nodes)
            se2 = frozenset(e for e in e2 if e[0] in nodes or e[1] in nodes)
            v_ext = frozenset(i for e in (se1 | se2) for i in e)
            topo = _classify_topology(set(nodes), set(se1 | se2))
            if topo == "unknown":
                notes.append(f"unrecognized structure shape on nodes {sorted(v_ext)}")
            structures.append(
                Structure(frozenset(nodes), se1, se2, v_ext, topo, levels[level_idx], level_idx)
            )

    structures.sort(key=lambda s: (s.level, min(s.nodes)))
    decomp = SlackDecomposition(c0, tuple(structures), levels, None, tuple(notes))
    if any(s.topology == "cycle" for s in structures):
        notes.append("alternating even cycle present: allocation not unique, gap undefined")
        return SlackDecomposition(c0, tuple(structures), levels, None, tuple(notes))
    gap = compute_gap(decomp, sol, inst)
    return SlackDecomposition(c0, tuple(structures), levels, gap, tuple(notes))


def compute_gap(decomp: SlackDecomposition, sol: NBSolution, inst: Instance) -> float:
    """Smallest of: first level, spacings between levels, chord surpluses.

    The chord terms cover edges joining two of a structure's own nodes
    outside its edge set; their surplus must clear the structure's level
    with room to spare for the structure to settle independently. Edges
    into or between anchored outsiders answer to their own structures
    (two anchors of one structure may well be matched to each other with
    zero surplus), so they contribute no term. Structures sharing a
    level contribute no spacing term.
    """
    if any(s.topology == "cycle" for s in decomp.structures):
        raise DecompositionError("gap undefined: allocation on an alternating cycle is not unique")
    if not decomp.structures:
        raise DecompositionError("gap undefined: no structures")
    terms = [decomp.levels[0]]
    terms += [b - a for a, b in zip(decomp.levels, decomp.levels[1:])]
    for s in decomp.structures:
        for e, w in inst.weights.items():
            if e in s.edges:
                continue
            if e[0] in s.nodes and e[1] in s.nodes:
                terms.append(sol.gamma[e[0]] + sol.gamma[e[1]] - w - s.sigma)
    return float(min(terms))


@dataclass(frozen=True)
class IdentityReport:
    rows: tuple[tuple, ...]  # (edge, kind, observed, expected, ok)
    passed: bool

    def failures(self):
        return [r for r in self.rows if not r[4]]

    def table(self) -> str:
        lines = ["edge        kind              observed      expected      ok"]
        for (e, kind, obs, exp, ok) in self.rows:
            rel = ">=" if kind == "msg_cross" else "=="
            lines.append(f"{str(e):<11} {kind:<17} {obs:>12.6g}  {rel} {exp:>9.6g}  {'yes' if ok else 'NO'}")
        return "\n".join(lines)


def check_fp_identities(
    decomp: SlackDecomposition,
    fp: MessageState,
    inst: Instance,
    tol: float = 1e-9,
) -> IdentityReport:
    """Verify the per-edge message identities implied by the levels.

    On matched structure edges the two messages undershoot the weight by
    twice the level; on second-best edges they overshoot by the level;
    on edges outside every structure they overshoot by at least the
    larger endpoint level. Earnings obey the matching identities with 0
    and sigma_q respectively.
    """
    idx = fp.index
    sigma_of = decomp.level_of_node()
    gamma = fp.gamma
    rows = []
    in_structure: dict[Edge, tuple[str, float]] = {}
    for s in decomp.structures:
        for e in s.e1:
            in_structure[e] = ("matched", s.sigma)
        for e in s.e2:
            in_structure[e] = ("second_best", s.sigma)
    msgs = fp.alpha[0::2] + fp.alpha[1::2] - idx.w[0::2]  # per undirected edge
    for (u, v, w), msg in zip(inst.edges, msgs.tolist()):
        e = canon(u, v)
        earn = float(gamma[u] + gamma[v] - w)
        if e in in_structure:
            kind, sigma = in_structure[e]
            if kind == "matched":
                rows.append((e, "msg_matched", msg, -2 * sigma, abs(msg + 2 * sigma) <= tol))
                rows.append((e, "earn_matched", earn, 0.0, abs(earn) <= tol))
            else:
                rows.append((e, "msg_second_best", msg, sigma, abs(msg - sigma) <= tol))
                rows.append((e, "earn_second_best", earn, sigma, abs(earn - sigma) <= tol))
        else:
            bound = max(sigma_of.get(u, 0.0), sigma_of.get(v, 0.0))
            rows.append((e, "msg_cross", msg, bound, msg >= bound - tol))
    return IdentityReport(tuple(rows), all(r[4] for r in rows))
