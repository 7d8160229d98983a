import numpy as np
import pytest

from netbargain.bipartite import (
    NotBipartiteError,
    check_bipartite,
    extremal_init,
    order_leq,
    run_extremal,
)
from netbargain.dynamics import DynamicsConfig, EdgeIndex
from netbargain.instance import GeneratorSpec, generate
from netbargain.nb import fp_from_nb, nb_oracle


def test_partition_e2(e2):
    part = check_bipartite(e2)
    assert part.buyers == frozenset({0, 2}) and part.sellers == frozenset({1})


def test_partition_b1(b1):
    part = check_bipartite(b1)
    assert part.buyers == frozenset({0, 2}) and part.sellers == frozenset({1, 3})


def test_triangle_witness(t1):
    with pytest.raises(NotBipartiteError) as exc:
        check_bipartite(t1)
    cycle = exc.value.cycle
    assert len(cycle) % 2 == 1
    edge_set = t1.edge_set()
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert (min(a, b), max(a, b)) in edge_set


def test_odd_cycle_witness_on_larger_graph():
    inst = generate(GeneratorSpec("blossom", (3, 5), seed=2))
    with pytest.raises(NotBipartiteError) as exc:
        check_bipartite(inst)
    cycle = exc.value.cycle
    assert len(cycle) % 2 == 1
    edges = inst.edge_set()
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert (min(a, b), max(a, b)) in edges


def test_order_reflexive_and_top(e2):
    part = check_bipartite(e2)
    idx = EdgeIndex(e2)
    rng = np.random.default_rng(0)
    a = rng.uniform(0, idx.W, 2 * e2.m)
    assert order_leq(a, a, part, idx)
    top = extremal_init(e2, part, "buyer", index=idx)
    assert order_leq(a, top, part, idx)
    bot = extremal_init(e2, part, "seller", index=idx)
    assert order_leq(bot, a, part, idx)


def test_order_single_coordinate(e2):
    part = check_bipartite(e2)
    idx = EdgeIndex(e2)
    alpha = {(0, 1): 0.5, (1, 0): 0.3, (1, 2): 0.3, (2, 1): 0.2}
    beta = dict(alpha)
    beta[(0, 1)] = 0.4
    assert order_leq(beta, alpha, part, idx)  # buyer claims more: alpha above beta
    assert not order_leq(alpha, beta, part, idx)


def test_extremal_init_values(e2, b1, single_edge):
    part = check_bipartite(e2)
    idx = EdgeIndex(e2)
    top = idx.alpha_to_map(extremal_init(e2, part, "buyer", index=idx))
    assert top == {(0, 1): 2.0, (2, 1): 2.0, (1, 0): 0.0, (1, 2): 0.0}

    partse = check_bipartite(single_edge)
    idxse = EdgeIndex(single_edge)
    bot = idxse.alpha_to_map(extremal_init(single_edge, partse, "seller", index=idxse))
    assert bot == {(0, 1): 0.0, (1, 0): 1.0}

    partb = check_bipartite(b1)
    idxb = EdgeIndex(b1)
    topb = extremal_init(b1, partb, "buyer", index=idxb)
    for (i, j) in idxb.directed_pairs():
        assert topb[idxb.slot(i, j)] == (10.0 if i in partb.buyers else 0.0)


def test_extremal_runs_b1(b1):
    part = check_bipartite(b1)
    solB, stateB, _, convB = run_extremal(b1, part, "buyer")
    assert convB and solB.certified
    assert np.allclose(solB.gamma, [9.0, 1.0, 9.0, 1.0], atol=1e-4)
    solS, stateS, _, convS = run_extremal(b1, part, "seller")
    assert convS and solS.certified
    assert np.allclose(solS.gamma, [1.0, 9.0, 1.0, 9.0], atol=1e-4)
    idx = stateB.index
    assert order_leq(stateS.alpha, stateB.alpha, part, idx, tol=1e-9)


def test_extremal_unique_instance_coincides(e2):
    part = check_bipartite(e2)
    for side in ("buyer", "seller"):
        sol, _, _, conv = run_extremal(e2, part, side)
        assert conv
        assert np.allclose(sol.gamma, [0.5, 1.5, 0.0], atol=1e-6)


def test_buyer_extremal_dominates_oracle_family(b1):
    part = check_bipartite(b1)
    solB, stateB, _, _ = run_extremal(b1, part, "buyer")
    solS, stateS, _, _ = run_extremal(b1, part, "seller")
    idx = stateB.index
    for sol in nb_oracle(b1).solutions:
        fp = fp_from_nb(sol, idx)
        assert order_leq(fp.alpha, stateB.alpha, part, idx, tol=1e-6)
        assert order_leq(stateS.alpha, fp.alpha, part, idx, tol=1e-6)


def _ordered_pair(idx, part, rng):
    beta = rng.uniform(0, idx.W, 2 * idx.m)
    room_up = idx.W - beta
    bump = rng.uniform(0, 1, 2 * idx.m)
    from netbargain.bipartite import _buyer_src_mask

    mask = _buyer_src_mask(idx, part)
    alpha = np.where(mask, beta + bump * room_up, beta * (1 - bump))
    return alpha, beta


def test_order_preservation_random_pairs():
    rng = np.random.default_rng(11)
    for seed in range(4):
        inst = generate(GeneratorSpec("bipartite_random", (3, 3), base=(1.0, 1.8), jitter=0.2, seed=seed))
        part = check_bipartite(inst)
        idx = EdgeIndex(inst)
        for _ in range(5):
            alpha, beta = _ordered_pair(idx, part, rng)
            assert order_leq(beta, alpha, part, idx, tol=1e-12)
            for _ in range(200):
                alpha = idx.step_alpha(alpha, 0.5)
                beta = idx.step_alpha(beta, 0.5)
                assert order_leq(beta, alpha, part, idx, tol=1e-12)


def test_monotone_descent_from_top(b1):
    # run_extremal asserts per-step monotonicity internally; surviving means
    # the trajectory from the one-sided start is monotone throughout
    part = check_bipartite(b1)
    run_extremal(b1, part, "buyer", DynamicsConfig(max_iters=500))
    run_extremal(b1, part, "seller", DynamicsConfig(max_iters=500))


@pytest.mark.parametrize("side", ["buyer", "seller"])
def test_monotone_check_fires_at_step_one(b1, side):
    # a tolerance below -W demands every message move by more than W, which
    # messages in [0, W] cannot do, so the very first step must fail
    part = check_bipartite(b1)
    with pytest.raises(AssertionError, match=f"monotonicity broken at step 1 from the {side} start"):
        run_extremal(b1, part, side, monotone_tol=-11.0)
