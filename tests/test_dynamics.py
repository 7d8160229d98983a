import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbargain.dynamics import (
    DynamicsConfig,
    EdgeIndex,
    compute_offer,
    derive,
    extract_pairing,
    run,
    step,
    sup_distance,
)
from netbargain.instance import GeneratorSpec, Instance, generate

E2_STAR = {(0, 1): 0.0, (1, 0): 1.0, (1, 2): 1.5, (2, 1): 0.0}


@pytest.mark.parametrize(
    "w,a,b,expected",
    [
        (1.0, 0.2, 0.3, 0.55),
        (1.0, 1.2, 0.0, 0.0),
        (2.0, 0.0, 1.0, 1.5),
        (1.0, 0.0, 0.0, 0.5),
    ],
)
def test_compute_offer(w, a, b, expected):
    assert compute_offer(w, a, b) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.1, 10),
    st.floats(0, 12),
    st.floats(0, 12),
    st.floats(-1, 1),
    st.floats(-1, 1),
)
def test_offer_lipschitz_and_range(w, a, b, da, db):
    # jointly 1-Lipschitz in the sup norm, and always inside [0, w]
    m1 = compute_offer(w, a, b)
    m2 = compute_offer(w, max(a + da, 0.0), max(b + db, 0.0))
    assert abs(m1 - m2) <= max(abs(da), abs(db)) + 1e-12
    assert -1e-12 <= m1 <= w + 1e-12


def test_derive_e2_zeros(e2):
    st_ = derive({(0, 1): 0.0, (1, 0): 0.0, (1, 2): 0.0, (2, 1): 0.0}, e2)
    assert st_.offer_map() == {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 0.5, (2, 1): 0.5}
    assert st_.gamma.tolist() == [1.0, 1.0, 0.5]


def test_derive_single_edge(single_edge):
    st_ = derive({(0, 1): 0.0, (1, 0): 0.0}, single_edge)
    assert st_.gamma.tolist() == [0.5, 0.5]


def test_derive_e2_fixed_point(e2):
    st_ = derive(E2_STAR, e2)
    assert np.allclose(st_.gamma, [0.5, 1.5, 0.0])
    assert st_.step_residual() <= 1e-12


def test_derive_missing_entry(e2):
    with pytest.raises(KeyError):
        derive({(0, 1): 0.0}, e2)


def test_step_hand_iterate(e2):
    st0 = derive({k: 0.0 for k in E2_STAR}, e2)
    st1 = step(st0, DynamicsConfig(kappa=0.5))
    assert st1.alpha_map()[(1, 0)] == pytest.approx(0.25)
    assert st1.time == 1


def test_step_fixed_point_unchanged(e2):
    st_ = derive(E2_STAR, e2)
    nxt = step(st_)
    assert sup_distance(nxt.alpha, st_.alpha) <= 1e-12


def test_step_deterministic(e2):
    idx = EdgeIndex(e2)
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 2, 4)
    s1 = step(derive(a.copy(), idx))
    s2 = step(derive(a.copy(), idx))
    assert np.array_equal(s1.alpha, s2.alpha)


def test_run_single_edge(single_edge):
    state, iters, trace, converged = run(single_edge)
    assert converged
    assert np.allclose(state.gamma, [0.5, 0.5], atol=1e-6)


def test_run_e2(e2):
    state, iters, trace, converged = run(e2)
    assert converged
    assert np.allclose(state.gamma, [0.5, 1.5, 0.0], atol=1e-6)
    assert state.step_residual() <= 1e-9


def test_run_t1(t1):
    state, _, _, converged = run(t1)
    assert converged
    assert np.allclose(state.gamma, [0.5, 0.5, 0.5], atol=1e-6)


def test_trace_csv(e2):
    _, iters, trace, _ = run(e2)
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "t,step_change,u_g,u_gf"
    assert len(lines) == iters + 1
    assert trace.steps == sorted(trace.steps)


def test_trace_reference_columns(e2):
    idx = EdgeIndex(e2)
    ref = idx.alpha_from_map(E2_STAR)
    _, _, trace, _ = run(e2, ref_alpha=ref, ref_edges=[(0, 1)])
    assert trace.u_g[-1] <= 1e-8
    assert all(g is not None for g in trace.u_g)
    assert all(f is not None for f in trace.u_gf)


def test_extract_pairing_e2(e2):
    state, _, _, _ = run(e2)
    pairs, ambiguous, unpaired = extract_pairing(state, margin=0.5 / 3)
    assert pairs == {(0, 1)}
    assert unpaired == {2}
    assert not ambiguous


def test_extract_pairing_single_edge(single_edge):
    state, _, _, _ = run(single_edge)
    pairs, ambiguous, unpaired = extract_pairing(state, margin=0.1)
    assert pairs == {(0, 1)} and not ambiguous and not unpaired


def test_extract_pairing_triangle_ambiguous(t1):
    state, _, _, _ = run(t1)
    pairs, ambiguous, unpaired = extract_pairing(state, margin=0.01)
    assert ambiguous == {0, 1, 2} and not pairs and not unpaired


def test_sup_distance(e2):
    idx = EdgeIndex(e2)
    star = idx.alpha_from_map(E2_STAR)
    assert sup_distance(star, star) == 0.0
    assert sup_distance(np.zeros(4), star) == 1.5
    bumped = star.copy()
    bumped[0] += 0.1
    assert sup_distance(star, bumped) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        sup_distance(np.zeros(3), star)


def _random_instances(k, seed0=0):
    out = []
    s = seed0
    while len(out) < k:
        inst = generate(GeneratorSpec("erdos_renyi", (5 + s % 3,), base=(1.0, 2.0), jitter=0.2, seed=s))
        out.append(inst)
        s += 1
    return out


def test_non_expansion_random_pairs():
    rng = np.random.default_rng(42)
    for inst in _random_instances(5):
        idx = EdgeIndex(inst)
        a = rng.uniform(0, idx.W, size=(20, 2 * inst.m))
        b = rng.uniform(0, idx.W, size=(20, 2 * inst.m))
        before = np.abs(a - b).max(axis=-1)
        sa = idx.step_alpha(a, 0.5)
        sb = idx.step_alpha(b, 0.5)
        after = np.abs(sa - sb).max(axis=-1)
        assert np.all(after <= before + 1e-12)


def test_range_preservation():
    rng = np.random.default_rng(7)
    for inst in _random_instances(5, seed0=50):
        idx = EdgeIndex(inst)
        a = rng.uniform(0, idx.W, size=(20, 2 * inst.m))
        for kappa in (0.3, 0.5, 0.9):
            out = idx.step_alpha(a, kappa)
            assert np.all(out >= -1e-12) and np.all(out <= idx.W + 1e-12)


def test_step_invariant_under_relabeling():
    # synchronous update commutes with node relabeling, so edge order is moot
    rng = np.random.default_rng(3)
    inst = generate(GeneratorSpec("erdos_renyi", (6,), base=(1.0, 1.7), jitter=0.2, seed=9))
    perm = [3, 5, 0, 1, 4, 2]
    other = inst.relabeled(perm)
    idx, odx = EdgeIndex(inst), EdgeIndex(other)
    a = rng.uniform(0, idx.W, size=2 * inst.m)
    amap = idx.alpha_to_map(a)
    bmap = {(perm[i], perm[j]): v for (i, j), v in amap.items()}
    sa = step(derive(amap, idx)).alpha_map()
    sb = step(derive(bmap, odx)).alpha_map()
    for (i, j), v in sa.items():
        assert sb[(perm[i], perm[j])] == pytest.approx(v, abs=1e-12)


def test_kappa_validation():
    with pytest.raises(ValueError):
        DynamicsConfig(kappa=1.0)
    with pytest.raises(ValueError):
        DynamicsConfig(kappa=0.0)


def test_run_init_modes(e2):
    stz, _, _, _ = run(e2, DynamicsConfig(init="zeros"))
    str_, _, _, _ = run(e2, DynamicsConfig(init="uniform_random", seed=5))
    assert np.allclose(stz.gamma, str_.gamma, atol=1e-6)
    idx = EdgeIndex(e2)
    ste, _, _, _ = run(idx, DynamicsConfig(init="explicit", alpha0=idx.alpha_from_map(E2_STAR)))
    assert np.allclose(ste.gamma, [0.5, 1.5, 0.0], atol=1e-9)


def test_step_independent_of_edge_listing_order(e4):
    # same graph, edges listed differently: adjacency order must not matter
    reordered = Instance(4, (e4.edges[2], e4.edges[0], e4.edges[1]))
    rng = np.random.default_rng(12)
    amap = {k: rng.uniform(0, 2) for k in EdgeIndex(e4).directed_pairs()}
    out1 = step(derive(amap, e4)).alpha_map()
    out2 = step(derive(amap, reordered)).alpha_map()
    for key, val in out1.items():
        assert out2[key] == pytest.approx(val, abs=0.0)


def test_run_extremal_inits(e2):
    for init in ("top", "bot"):
        state, _, _, converged = run(e2, DynamicsConfig(init=init))
        assert converged
        assert np.allclose(state.gamma, [0.5, 1.5, 0.0], atol=1e-6)


def _naive_kernels(inst, amap):
    # scalar reference for the segmented kernels: offers from compute_offer,
    # then best incoming offer per node and per directed edge excluding the
    # reverse, both floored at 0 ("max over nothing is 0")
    wmap = {}
    for (u, v, w) in inst.edges:
        wmap[(u, v)] = wmap[(v, u)] = w
    offers = {
        (i, j): compute_offer(wmap[(i, j)], amap[(i, j)], amap[(j, i)]) for (i, j) in amap
    }
    gamma = [max([0.0] + [offers[(k, i)] for k in inst.neighbors(i)]) for i in range(inst.n)]
    best = {
        (i, j): max([0.0] + [offers[(k, i)] for k in inst.neighbors(i) if k != j]) for (i, j) in amap
    }
    return offers, gamma, best


def _naive_step(inst, amap, kappa):
    # damped relaxation toward the best offer from the other neighbors
    _, _, best = _naive_kernels(inst, amap)
    return {(i, j): kappa * best[(i, j)] + (1 - kappa) * a for (i, j), a in amap.items()}


@pytest.mark.parametrize("kappa", [0.25, 0.5, 0.8])
def test_vectorized_step_matches_naive_reference(kappa):
    rng = np.random.default_rng(123)
    for seed in range(8):
        inst = generate(
            GeneratorSpec("erdos_renyi", (4 + seed % 4,), base=(0.7, 1.9, 2.6), jitter=0.3, seed=seed)
        )
        idx = EdgeIndex(inst)
        for _ in range(5):
            amap = {k: float(rng.uniform(0, 1.2 * idx.W)) for k in idx.directed_pairs()}
            got = step(derive(amap, idx), DynamicsConfig(kappa=kappa)).alpha_map()
            want = _naive_step(inst, amap, kappa)
            for k in amap:
                assert got[k] == pytest.approx(want[k], abs=1e-12)


def _kernel_instances():
    rng = np.random.default_rng(7)
    yield Instance(2, ((0, 1, 1.0),))
    yield Instance(5, ((1, 3, 2.0),))  # isolated nodes around one edge
    yield Instance(9, tuple((0, i, 1.0) for i in range(1, 9)))  # star, equal weights
    leaves = tuple((0, i, float(rng.uniform(1, 2))) for i in range(1, 30))
    yield Instance(33, leaves + ((1, 2, 1.5), (2, 3, 1.0), (5, 30, 2.0), (30, 31, 1.0)))  # hub, node 32 isolated
    for seed in range(6):
        yield generate(GeneratorSpec("erdos_renyi", (5 + seed,), base=(1.0, 2.0), jitter=0.0, seed=seed))


@pytest.mark.parametrize("batch", [(), (3,), (2, 3), (2, 1, 2)])
def test_segmented_kernels_match_scalar_reference(batch):
    rng = np.random.default_rng(len(batch))
    all_negative_seen = False
    for inst in _kernel_instances():
        idx = EdgeIndex(inst)
        pairs = idx.directed_pairs()
        hub = int(np.argmax([inst.degree(i) for i in range(inst.n)]))
        draws = [
            rng.choice([0.0, 0.5, 1.0], size=batch + (2 * idx.m,)),  # many tied offers
            rng.uniform(-1.0, 2.5, size=batch + (2 * idx.m,)),
            # messages out of the hub far below zero make every offer into it negative
            np.where(idx.src == hub, -10.0, rng.choice([0.0, 1.0], size=batch + (2 * idx.m,))),
        ]
        for alpha in draws:
            offers = idx.offers(alpha)
            gamma = idx.earnings(offers)
            best = idx.best_excluding_reverse(offers)
            assert gamma.shape == batch + (idx.n,) and best.shape == alpha.shape
            for b in np.ndindex(*batch):
                amap = idx.alpha_to_map(alpha[b])
                ref_offers, ref_gamma, ref_best = _naive_kernels(inst, amap)
                assert offers[b].tolist() == [ref_offers[p] for p in pairs]
                assert gamma[b].tolist() == ref_gamma
                assert best[b].tolist() == [ref_best[p] for p in pairs]
                all_negative_seen |= bool(np.all(offers[b][idx.incoming_ids(hub)] < 0))
    assert all_negative_seen


def test_edge_index_memory_is_linear_on_a_star():
    k = 20_000
    inst = Instance(k + 1, tuple((0, i, 1.0 + i * 1e-6) for i in range(1, k + 1)))
    idx = EdgeIndex(inst)
    entries = sum(v.size for v in vars(idx).values() if isinstance(v, np.ndarray))
    assert entries <= 8 * (idx.n + 2 * idx.m)
    assert not any(isinstance(v, (dict, list)) for v in vars(idx).values())
    nxt = idx.step_alpha(np.zeros(2 * idx.m), 0.5)
    # a leaf's only neighbour is the hub, so its message relaxes toward 0
    assert nxt.shape == (2 * k,) and np.all(nxt[idx.src != 0] == 0.0)
    assert np.all(nxt[idx.src == 0] > 0.0)


def test_slot_round_trips_every_directed_edge():
    for inst in _kernel_instances():
        idx = EdgeIndex(inst)
        for d, (i, j) in enumerate(idx.directed_pairs()):
            assert idx.slot(i, j) == d
            assert d // 2 == idx.slot(j, i) // 2 and idx.w[d] == inst.weight(i, j)
        edges = inst.edge_set()
        off = [(i, j) for i in range(inst.n) for j in range(inst.n) if (min(i, j), max(i, j)) not in edges]
        for (i, j) in off[:20] + [(0, inst.n), (0, -1)]:
            with pytest.raises(KeyError):
                idx.slot(i, j)
