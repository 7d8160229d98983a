"""The benchmark's workloads: inputs, set-up, one item, and its checks.

Each workload writes its seeded inputs as instance documents, loads them
with `netbargain.instance.load` in set-up, runs items that call the
package's public functions in the order the matching CLI command does,
and checks every item's output against `reference.py` afterwards.
Program functions are always looked up through their module at call
time, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from netbargain import dynamics as dyn
from netbargain import experiment as exp
from netbargain import instance as ins
from netbargain import matching as mat
from netbargain import nb
from netbargain import pathlab as pl
from netbargain import slack

import reference as ref
from reference import require

KAPPA = 0.5


@dataclass
class Item:
    doc: int  # index of the set-up object the item runs on
    edges: list = field(default_factory=list)  # (u, v, w) as written to the document
    n: int = 0
    spec: tuple = ()
    known_fault: bool = False  # fails today because of a named program fault


def write_doc(path: str, n: int, u, v, w) -> None:
    """Instance document in the package's format; weights as exact reprs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"nodes": %d, "edges": [' % n)
        fh.write(
            ", ".join(
                '{"u": %d, "v": %d, "w": %r}' % rec
                for rec in zip(np.asarray(u).tolist(), np.asarray(v).tolist(), np.asarray(w, dtype=float).tolist())
            )
        )
        fh.write("]}\n")


class Workload:
    name = ""
    round_s = 1.0  # nominal seconds of timed work per round; fixes rounds from --seconds
    setups = 5  # set-ups per run; setup_s is their median

    def __init__(self, seed: int, seconds: float, workdir: str, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.rounds = 1 if smoke else max(1, round(seconds / self.round_s))
        self.workdir = workdir
        self.docs: list[str] = []
        self.items: list[Item] = []
        self.warmup: Item | None = None

    def add_doc(self, n: int, edges) -> int:
        path = os.path.join(self.workdir, f"{self.name}-{len(self.docs)}.json")
        u, v, w = zip(*edges)
        write_doc(path, n, u, v, w)
        self.docs.append(path)
        return len(self.docs) - 1

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self):
        return [self.setup_doc(ins.load(path)) for path in self.docs]

    def setup_doc(self, inst):
        return inst, dyn.EdgeIndex(inst)

    def size_class(self, item: Item):
        """Items of one class are alike in size; item_p50_ms is a median of class medians."""
        return 0

    def run_item(self, ctx, item: Item):
        raise NotImplementedError

    def check(self, ctx, item: Item, out) -> None:
        raise NotImplementedError


# -- certify_corpus: the verify pipeline on small random graphs ----------------


def erdos_renyi(n: int, rng: np.random.Generator):
    """G(n, M) with M half of all pairs; weights cycle 1.0/1.6/2.3 plus a +-0.15 jitter.

    A fixed edge count keeps corner enumeration, which is exponential in
    the number of odd cycles, at like cost across seeds; G(n, 1/2) has a
    heavy tail of dense graphs that dominates any run's total.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pick = sorted(rng.choice(len(pairs), size=round(len(pairs) / 2), replace=False).tolist())
    base = (1.0, 1.6, 2.3)
    return [(*pairs[p], base[k % 3] + float(rng.uniform(-0.15, 0.15))) for k, p in enumerate(pick)]


SCALE = 2.0**-30
# Corpus graphs copied at weight scale 2^-30. They fail today because the
# convergence, certification and matching tolerances are absolute.
SCALED_COPIES = ((7, 0), (6, 1))  # (n, graph seed)


class CertifyCorpus(Workload):
    name = "certify_corpus"
    round_s = 0.6
    per_round = 40

    def make_inputs(self) -> None:
        per_round = 5 if self.smoke else self.per_round
        self.warmup = self._item(8, erdos_renyi(8, np.random.default_rng([self.seed, self.rounds, 0])))
        for r in range(self.rounds):
            for j in range(per_round):
                n = 6 + j % 5
                self.items.append(self._item(n, erdos_renyi(n, np.random.default_rng([self.seed, r, j]))))
            for (n, s) in SCALED_COPIES:
                edges = [(u, v, w * SCALE) for (u, v, w) in erdos_renyi(n, np.random.default_rng([0, s]))]
                self.items.append(self._item(n, edges, known_fault=True))

    def _item(self, n, edges, known_fault=False) -> Item:
        return Item(self.add_doc(n, edges), edges, n, known_fault=known_fault)

    def size_class(self, item):
        return item.n

    def run_item(self, ctx, item):
        """`netbargain verify`: classify, converge from zeros, audit, certify, decompose."""
        inst, idx = ctx[item.doc]
        cls = mat.classify(inst, cap=12)
        state, iters, _, converged = dyn.run(idx, dyn.DynamicsConfig(kappa=KAPPA, eps_conv=1e-9, max_iters=10**6))
        out = {"kind": cls.kind, "gamma": state.gamma, "matching": None, "pairs": None}
        ok = converged
        if cls.kind == "degenerate":
            ok = ok and mat.dual_check(state.gamma, inst, tol=1e-6).feasible
        else:
            report = nb.fp_property_suite(state, inst, cls)
            ok = ok and report.passed
            if cls.kind == "tight" and ok:
                sol = nb.nb_from_fp(state, inst, report)
                ok = sol.certified
                out["matching"] = sol.matching
                try:
                    dec = slack.decompose(state, sol, inst)
                except slack.DecompositionError:
                    ok = False
                else:
                    ok = ok and slack.check_fp_identities(dec, state, inst, tol=1e-6).passed
                    if dec.gap is not None:
                        out["pairs"] = dyn.extract_pairing(state, dec.gap / 3.0)[0]
        out["ok"] = ok
        return out

    def check(self, ctx, item, out) -> None:
        tol = 1e-6 * ref.max_weight(item.edges)
        require(out["ok"], "verify reports a failed check")
        gamma = [float(g) for g in out["gamma"]]
        opt = ref.check_allocation(item.n, item.edges, gamma, tol)
        if out["kind"] == "tight":
            require(out["matching"] is not None, "tight instance without an outcome")
            ref.check_outcome(item.n, item.edges, gamma, out["matching"], opt, tol)
            if out["pairs"] is not None:
                require(set(out["pairs"]) == set(out["matching"]), "extracted pairing differs from the matching")


# -- family_sweep: the experiment pipeline over the four families -------------

FAMILY_SIZES = {
    "path": (5, 10, 20, 40),
    "blossom": (3, 7, 13, 19),
    "bicycle": (3, 7, 13, 19),
    "even_cycle": (6, 12, 20, 40),
}
SMOKE_FAMILY_SIZES = {"path": (5,), "blossom": (3,), "bicycle": (3,), "even_cycle": (6,)}
EPS = 1e-4


class FamilySweep(Workload):
    name = "family_sweep"
    round_s = 0.85

    def make_inputs(self) -> None:
        sizes = SMOKE_FAMILY_SIZES if self.smoke else FAMILY_SIZES
        for r in range(self.rounds):
            for topology, family in sizes.items():
                for size in family:
                    # the row seeds of `netbargain experiment --seed 100000*seed --reps rounds`
                    row_seed = 100000 * self.seed + 1000 * r + size
                    inst = ins.generate(exp.family_spec(topology, size, row_seed))
                    doc = self.add_doc(inst.n, inst.edges)
                    self.items.append(Item(doc, list(inst.edges), inst.n, (topology, size, row_seed)))
        size = sizes["path"][-1]
        self.warmup = Item(-1, spec=("path", size, 100000 * self.seed + 1000 * self.rounds + size))

    def size_class(self, item):
        return item.spec[:2]

    def run_item(self, ctx, item):
        """One sweep row: generate, reference solution, iterations to eps."""
        topology, size, seed = item.spec
        for attempt in range(50):
            inst = ins.generate(exp.family_spec(topology, size, seed + 7919 * attempt))
            if ins.max_weight(inst) > 10.0:
                continue
            reference = exp.reference_solution(inst, enum_cap=12)
            if reference is not None and reference.sigma >= 0.05:
                break
        else:
            raise RuntimeError(f"no usable {topology} instance at size {size}")
        iters, err = exp.iterations_to_eps(inst, reference.solution.gamma, EPS, kappa=KAPPA, max_iters=10**6)
        return {
            "attempt": attempt,
            "n": inst.n,
            "edges": list(inst.edges),
            "gamma": reference.solution.gamma,
            "matching": reference.solution.matching,
            "sigma": reference.sigma,
            "iters": iters,
            "err": err,
        }

    def check(self, ctx, item, out) -> None:
        edges = out["edges"]
        loaded, _ = ctx[item.doc]
        require(list(loaded.edges) == item.edges, "the document did not load back bit for bit")
        if out["attempt"] == 0:
            require(edges == item.edges, "generate is not a pure function of its spec")
        W = ref.max_weight(edges)
        require(W <= 10.0 and out["sigma"] >= 0.05, "accepted row outside the sweep's filter")
        require(out["iters"] is not None and out["err"] <= EPS, "row did not reach eps")
        tol = 1e-6 * W
        gamma = [float(g) for g in out["gamma"]]
        opt = ref.check_allocation(out["n"], edges, gamma, tol)
        ref.check_outcome(out["n"], edges, gamma, out["matching"], opt, tol)


# -- pathlab_diag: comparison processes on one path structure length ---------

PATH_NODES = 10
BIG_DELTA, DELTA = 0.4, 0.2
HORIZON = 200


def path_weights(rng: np.random.Generator, nodes: int) -> list[float]:
    """Heavy matched edges alternating with light ones: one path structure."""
    return [(2.0 if k % 2 == 0 else 1.2) + float(rng.uniform(-0.02, 0.02)) for k in range(nodes - 1)]


@dataclass
class PathSetup:
    fp: object
    dec: object
    q: int
    spec: object
    star: tuple


class PathlabDiag(Workload):
    name = "pathlab_diag"
    round_s = 0.35
    per_round = 8

    def make_inputs(self) -> None:
        nodes, horizon = (6, 20) if self.smoke else (PATH_NODES, HORIZON)
        self.horizon = horizon
        self.weights = []
        for j in range(self.per_round):
            weights = path_weights(np.random.default_rng([self.seed, j]), nodes)
            self.weights.append(weights)
            self.add_doc(nodes, [(k, k + 1, w) for k, w in enumerate(weights)])

        def item(r: int, j: int) -> Item:
            delta0 = np.random.default_rng([self.seed, r, j]).uniform(-1.0, 1.0, 2 * (nodes - 1))
            return Item(j, n=nodes, spec=(delta0,))

        self.items = [item(r, j) for r in range(self.rounds) for j in range(self.per_round)]
        self.warmup = item(self.rounds, 0)

    def setup_doc(self, inst):
        """What `netbargain pathlab` prepares: reference fixed point and path structure."""
        idx = dyn.EdgeIndex(inst)
        reference = exp.reference_solution(inst, enum_cap=12)
        fp = nb.fp_from_nb(reference.solution, idx)
        dec = reference.decomposition
        (q,) = [q for q, s in enumerate(dec.structures) if s.topology == "path"]
        _, weights, matched, slots = pl.structure_path(dec, q, fp.index)
        spec = pl.PathSpec(weights, matched, KAPPA)
        return PathSetup(fp, dec, q, spec, tuple(float(x) for x in fp.alpha[slots]))

    def run_item(self, ctx, item):
        """Bounding processes of both signs, sandwich, mass stationarity, domination."""
        p = ctx[item.doc]
        h = self.horizon
        states = {}
        for sign in (+1, -1):
            cfg = pl.BoundingConfig(sign, BIG_DELTA, DELTA, p.star)
            states[sign] = pl.bounding_process(cfg, p.spec, h)
        sandwiched = pl.sandwich_test(p.fp, p.dec, p.q, BIG_DELTA, DELTA, h, kappa=KAPPA)
        rho = np.ones(2 * p.spec.ell)
        stationary = True
        for _ in range(h):
            rho = pl.mass_step(rho, p.spec, injection="both")
            if np.abs(rho - 1.0).max() > 1e-12:
                stationary = False
                break
        log: list = []
        dominated = pl.domination_test(p.spec, 0.0, item.spec[0], h, log=log)
        return {"states": states, "sandwiched": sandwiched, "stationary": stationary, "dominated": dominated, "log": log}

    def check(self, ctx, item, out) -> None:
        p = ctx[item.doc]
        n = item.n
        weights = self.weights[item.doc]
        matched = [k % 2 == 0 for k in range(n - 1)]
        W = max(weights)
        tol = 1e-9 * W
        require(list(p.spec.weights) == weights and list(p.spec.matched) == matched, "wrong path structure")
        # the reference state is a fixed point of the real dynamics
        g = ref.DirectedGraph(n, np.arange(n - 1), np.arange(1, n), weights)
        alpha = np.asarray(p.fp.alpha)
        again = ref.scalar_step(g, alpha, KAPPA, range(len(alpha)))
        require(np.abs(again - alpha).max() <= tol, "reference state is not a fixed point")
        star = alpha  # the structure spans the whole path, in document slot order
        require(np.abs(np.asarray(p.star) - star).max() == 0.0, "path slots out of document order")
        ell = n - 1
        pull = BIG_DELTA - DELTA
        for sign in (+1, -1):
            states = out["states"][sign]
            ref.check_edge_signs(states, weights, matched, 1e-12)
            b_left = star[0] + sign * pull
            b_right = star[-1] + sign * (-1) ** ell * pull
            a, b = ref.path_affine(weights, matched, KAPPA, b_left, b_right)
            x = star + ref.checkerboard(ell, sign, BIG_DELTA)
            require(np.abs(states[0] - x).max() <= tol, "companion starts off its checkerboard shift")
            for _ in range(self.horizon):
                x = a @ x + b
            require(np.abs(states[-1] - x).max() <= tol, "companion's end state differs from the affine map")
            fixed = np.linalg.solve(np.eye(2 * ell) - a, b)
            require(
                np.abs(fixed - (star + ref.checkerboard(ell, sign, pull))).max() <= tol,
                "companion's fixed point is not the shifted reference",
            )
            require(
                np.abs(states[-1] - fixed).max() <= np.abs(states[0] - fixed).max() + tol,
                "companion moved away from its fixed point",
            )
        require(out["sandwiched"], "sandwich guarantee broken")
        require(out["stationary"], "dual-injection mass is not stationary")
        require(out["dominated"], "mass does not dominate the difference")
        require(len(out["log"]) == self.horizon + 1 and min(out["log"]) >= -1e-12, "domination margins")


# -- sparse_large / hub_large: the step kernel at scale ------------------------

STEPS = 4
SAMPLE = 2000
HUB_DEGREE = 400


def sparse_graph(rng: np.random.Generator, n: int, m: int):
    """Uniform random simple graph with m edges (average degree 2m/n)."""
    u = rng.integers(0, n, size=int(1.2 * m))
    v = rng.integers(0, n, size=int(1.2 * m))
    keep = u != v
    lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    _, first = np.unique(lo * n + hi, return_index=True)
    first = np.sort(first)[:m]
    return lo[first], hi[first]


def preferential_attachment(rng: np.random.Generator, n: int, k: int, hub: int):
    """Barabasi-Albert graph whose largest degree is exactly `hub`.

    Each new node links to k targets drawn by degree, skipping nodes that
    already have `hub` neighbours; the best-connected node is then linked
    to random non-neighbours up to `hub`. The padded kernel's cost is
    n x (max degree + 1), so a fixed largest degree keeps the work alike
    across seeds; plain BA hubs range from 240 to 420 at n = 10k.
    """
    ends: list[int] = list(range(k))
    deg = np.zeros(n, dtype=np.int64)
    u: list[int] = []
    v: list[int] = []
    for new in range(k, n):
        targets: set[int] = set()
        while len(targets) < k:
            t = ends[int(rng.integers(len(ends)))]
            if deg[t] < hub:
                targets.add(t)
        for t in sorted(targets):
            u.append(t)
            v.append(new)
            ends += [t, new]
            deg[t] += 1
            deg[new] += 1
    top = int(deg.argmax())
    linked = {b if a == top else a for a, b in zip(u, v) if top in (a, b)}
    for t in rng.permutation(n).tolist():
        if deg[top] >= hub:
            break
        if t != top and t not in linked:
            u.append(min(top, t))
            v.append(max(top, t))
            deg[top] += 1
    return np.array(u), np.array(v)


class LargeGraph(Workload):
    setups = 3

    def graph(self, rng: np.random.Generator):
        raise NotImplementedError

    def make_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 7])
        u, v = self.graph(rng)
        w = rng.uniform(1.0, 2.0, size=len(u))
        self.n = int(max(u.max(), v.max())) + 1
        self.graph_ref = ref.DirectedGraph(self.n, u, v, w)
        path = os.path.join(self.workdir, f"{self.name}.json")
        write_doc(path, self.n, u, v, w)
        self.docs.append(path)
        self.W = float(w.max())
        self.alpha0 = rng.uniform(0.0, self.W, size=2 * len(u))
        self.sample = rng.choice(2 * len(u), size=min(SAMPLE, 2 * len(u)), replace=False)
        self.items = [Item(0) for _ in range(self.rounds)]
        self.warmup = Item(0)

    def setup(self):
        (ctx,) = super().setup()
        cfg = dyn.DynamicsConfig(kappa=KAPPA, eps_conv=0.0, max_iters=STEPS, init="explicit", alpha0=self.alpha0)
        return ctx + (cfg,)

    def run_item(self, ctx, item):
        """`netbargain run --init explicit` for a fixed number of steps."""
        _, idx, cfg = ctx
        state, iters, trace, converged = dyn.run(idx, cfg)
        keep = item is self.items[0] or item is self.items[-1]
        return {"iters": iters, "converged": converged, "changes": trace.step_change, "state": state if keep else None}

    def check(self, ctx, item, out) -> None:
        _, _, cfg = ctx
        tol = 1e-12 * self.W
        require(out["iters"] == STEPS and not out["converged"], "run did not take its fixed number of steps")
        ref.check_non_expansion(out["changes"], tol)
        state = out["state"]
        if state is None:
            return
        if item is self.items[0]:
            self.first_alpha = state.alpha
        require(np.array_equal(self.first_alpha, state.alpha), "identical runs ended in different states")
        nxt = dyn.step(state, cfg)
        expect = ref.scalar_step(self.graph_ref, state.alpha, KAPPA, self.sample)
        require(np.abs(nxt.alpha[self.sample] - expect).max() <= tol, "step differs from the scalar reference")
        change = float(np.abs(nxt.alpha - state.alpha).max())
        require(change <= out["changes"][-1] + tol, "the further step expanded")


class SparseLarge(LargeGraph):
    name = "sparse_large"
    round_s = 0.23

    def graph(self, rng):
        n, m = (2000, 6000) if self.smoke else (100_000, 300_000)
        return sparse_graph(rng, n, m)


class HubLarge(LargeGraph):
    name = "hub_large"
    round_s = 0.15

    def graph(self, rng):
        return preferential_attachment(rng, 400 if self.smoke else 10_000, 3, 40 if self.smoke else HUB_DEGREE)


WORKLOADS = {w.name: w for w in (CertifyCorpus, FamilySweep, PathlabDiag, SparseLarge, HubLarge)}
