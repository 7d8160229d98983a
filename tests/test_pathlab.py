import numpy as np
import pytest

from netbargain.slack import decompose
from netbargain.nb import fp_from_nb, nb_oracle
from netbargain.pathlab import (
    BoundSignError,
    BoundingConfig,
    PathSpec,
    SimplifiedPathState,
    bounding_boundaries,
    bounding_fixed_point,
    bounding_initial,
    bounding_process,
    domination_test,
    mass_step,
    path_order_geq,
    run_simplified,
    sandwich_test,
    simplified_fixed_point,
    simplified_step,
    structure_path,
)


def test_pathspec_requires_alternation():
    with pytest.raises(ValueError):
        PathSpec((1.0, 1.0), (True, True))
    with pytest.raises(ValueError):
        PathSpec((1.0, 1.0), (False, False))
    PathSpec((1.0, 1.0, 1.0), (False, True, False))  # ok


def test_fixed_point_length_one():
    p = PathSpec((1.0,), (True,))
    star = simplified_fixed_point(p, 0.3, 0.2)
    assert star == pytest.approx([0.3, 0.2])
    assert p.offers(star)[0] == pytest.approx(0.45)  # (1 - 0.3 + 0.2) / 2
    state = SimplifiedPathState(p, np.zeros(2), 0.3, 0.2)
    final, trace, converged = run_simplified(state, 4000)
    assert converged and np.allclose(final.alpha, [0.3, 0.2], atol=1e-12)


def test_fixed_point_length_two():
    p = PathSpec((1.0, 1.0), (True, False))
    star = simplified_fixed_point(p, 0.0, 0.0)
    assert star == pytest.approx([0.0, 1.0, 1.0, 0.0])
    state = SimplifiedPathState(p, np.zeros(4), 0.0, 0.0)
    final, _, converged = run_simplified(state, 4000)
    assert converged and np.allclose(final.alpha, star, atol=1e-12)


def test_fixed_point_is_stationary():
    p = PathSpec((1.3, 0.9, 1.7), (True, False, True))
    star = simplified_fixed_point(p, 0.25, -0.1)
    state = SimplifiedPathState(p, star.copy(), 0.25, -0.1)
    nxt = simplified_step(state)
    assert np.abs(nxt.alpha - star).max() <= 1e-12


def test_unclamped_offers_can_go_negative():
    p = PathSpec((1.0, 1.0), (True, False))
    alpha = np.array([0.0, 0.0, 1.5, 0.0])
    assert p.offers(alpha)[2] == pytest.approx(-0.5)


def test_decay_trace_and_boundary_values():
    rng = np.random.default_rng(5)
    for ell, parity in ((5, 0), (8, 1)):
        matched = tuple((k % 2) == parity for k in range(ell))
        p = PathSpec(tuple(rng.uniform(0.8, 2.0, ell)), matched)
        bl, br = 0.37, -0.12
        star = simplified_fixed_point(p, bl, br)
        assert star[0] == pytest.approx(bl, abs=1e-12)
        assert star[-1] == pytest.approx(br, abs=1e-12)
        u = rng.uniform(-1, 1, 2 * ell)
        u /= np.abs(u).max()
        state = SimplifiedPathState(p, star + u, bl, br)
        final, trace, converged = run_simplified(state, 200 * ell * ell)
        assert converged
        assert trace[-1] <= 1e-8
        # eventually geometric: the tail is dominated by a shrinking envelope
        tail = np.array(trace[len(trace) // 2 :])
        tail = tail[tail > 0]
        slope = np.polyfit(np.arange(tail.size), np.log(tail), 1)[0]
        assert slope < 0


def test_simplified_non_expansion():
    rng = np.random.default_rng(9)
    p = PathSpec(tuple(rng.uniform(0.5, 2.0, 6)), tuple(k % 2 == 0 for k in range(6)))
    a = SimplifiedPathState(p, rng.uniform(-1, 2, 12), 0.2, 0.1)
    b = SimplifiedPathState(p, rng.uniform(-1, 2, 12), 0.2, 0.1)
    d = np.abs(a.alpha - b.alpha).max()
    for _ in range(300):
        a, b = simplified_step(a), simplified_step(b)
        nd = np.abs(a.alpha - b.alpha).max()
        assert nd <= d + 1e-12
        d = nd


def test_order_preservation_on_paths():
    # domination plus dominating boundaries propagates step by step
    rng = np.random.default_rng(13)
    ell = 7
    p = PathSpec(tuple(rng.uniform(0.8, 1.8, ell)), tuple(k % 2 == 0 for k in range(ell)))
    signs = np.empty(2 * ell)
    signs[0::2] = (-1.0) ** np.arange(ell)
    signs[1::2] = -((-1.0) ** np.arange(ell))
    base = rng.uniform(0, 1.5, 2 * ell)
    above = base + signs * rng.uniform(0, 0.3, 2 * ell)
    bl, br = 0.4, 0.3
    hi = SimplifiedPathState(p, above, bl + 0.05, br + 0.05 * (-1.0) ** ell)
    lo = SimplifiedPathState(p, base, bl, br)
    for _ in range(400):
        assert path_order_geq(hi.alpha, lo.alpha, tol=1e-12)
        hi, lo = simplified_step(hi), simplified_step(lo)


def _e2_setup(e2):
    sol = nb_oracle(e2).solutions[0]
    fp = fp_from_nb(sol, e2)
    dec = decompose(fp, sol, e2)
    return fp, dec


def test_structure_path_anchored_twice_at_one_node():
    # unmatched node 1 anchors both ends of the only structure
    from netbargain.experiment import reference_solution
    from netbargain.instance import GeneratorSpec, generate

    inst = generate(GeneratorSpec("erdos_renyi", (5,), base=(1.0, 1.6, 2.3), jitter=0.15, seed=30))
    ref = reference_solution(inst)
    fp = fp_from_nb(ref.solution, inst)
    seq, weights, matched, slots = structure_path(ref.decomposition, 0, fp.index)
    assert seq == [1, 0, 3, 2, 4, 1] and matched == (False, True, False, True, False)
    assert weights == tuple(inst.weight(a, b) for a, b in zip(seq, seq[1:]))
    pairs = fp.index.directed_pairs()
    assert [pairs[d] for d in slots] == [p for a, b in zip(seq, seq[1:]) for p in ((a, b), (b, a))]


def test_bounding_e2_exact_values(e2):
    fp, dec = _e2_setup(e2)
    seq, weights, matched, slots = structure_path(dec, 0, fp.index)
    assert seq == [0, 1, 2] and matched == (True, False)
    star = tuple(float(x) for x in fp.alpha[slots])
    cfg = BoundingConfig(+1, 0.4, 0.4, star)
    assert bounding_initial(cfg) == pytest.approx([0.4, 0.6, 1.1, 0.4], abs=1e-9)
    assert bounding_boundaries(cfg) == pytest.approx((0.0, 0.0), abs=1e-9)
    assert bounding_fixed_point(cfg) == pytest.approx(star, abs=1e-9)
    # with delta < big_delta the companion fixed point keeps an offset
    cfg2 = BoundingConfig(+1, 0.4, 0.2, star)
    assert bounding_fixed_point(cfg2) == pytest.approx(
        np.asarray(star) + [0.2, -0.2, -0.2, 0.2], abs=1e-9
    )


def test_bounding_sign_mirror():
    star = (0.0, 1.0, 1.5, 0.0)
    up = BoundingConfig(+1, 0.3, 0.1, star)
    dn = BoundingConfig(-1, 0.3, 0.1, star)
    assert bounding_initial(up) - np.asarray(star) == pytest.approx(
        -(bounding_initial(dn) - np.asarray(star))
    )


def test_bounding_process_converges_and_signs_hold(e2):
    fp, dec = _e2_setup(e2)
    _, weights, matched, slots = structure_path(dec, 0, fp.index)
    star = tuple(float(x) for x in fp.alpha[slots])
    p = PathSpec(weights, matched)
    for sign in (+1, -1):
        cfg = BoundingConfig(sign, 0.4, 0.2, star)
        states = bounding_process(cfg, p, 3000)
        assert np.abs(states[-1] - bounding_fixed_point(cfg)).max() <= 1e-12


def test_bounding_sign_violation_detected():
    # a fake reference far from any fixed point trips the sign guard
    p = PathSpec((1.0, 1.0), (True, False))
    cfg = BoundingConfig(+1, 0.05, 0.05, (2.0, 2.0, 2.0, 2.0))
    with pytest.raises(BoundSignError):
        bounding_process(cfg, p, 50)


def test_bounding_config_validation():
    with pytest.raises(ValueError):
        BoundingConfig(0, 0.4, 0.2, (0.0, 0.0))
    with pytest.raises(ValueError):
        BoundingConfig(+1, 0.0, 0.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        BoundingConfig(+1, 0.4, 0.5, (0.0, 0.0))


def test_sandwich_e2(e2):
    fp, dec = _e2_setup(e2)
    assert sandwich_test(fp, dec, 0, 0.4, 0.2, 3000)
    assert sandwich_test(fp, dec, 0, 0.4, 0.4, 3000)


def test_sandwich_trivial_from_fixed_point(e2):
    fp, dec = _e2_setup(e2)
    # starting exactly at the fixed point stays between the companions
    seq, weights, matched, slots = structure_path(dec, 0, fp.index)
    p = PathSpec(weights, matched)
    star = tuple(float(x) for x in fp.alpha[slots])
    alpha = fp.alpha.copy()
    runs = {}
    for s in (+1, -1):
        cfg = BoundingConfig(s, 0.4, 0.2, star)
        bl, br = bounding_boundaries(cfg)
        runs[s] = SimplifiedPathState(p, bounding_initial(cfg), bl, br)
    for _ in range(500):
        on_path = alpha[slots]
        assert path_order_geq(runs[+1].alpha, on_path, tol=1e-12)
        assert path_order_geq(on_path, runs[-1].alpha, tol=1e-12)
        alpha = fp.index.step_alpha(alpha, 0.5)
        runs = {s: simplified_step(st) for s, st in runs.items()}


def test_mass_stationarity_and_decay():
    p = PathSpec((1.0, 1.0, 1.0, 1.0), (True, False, True, False))
    rho = np.ones(8)
    for _ in range(200):
        rho = mass_step(rho, p, injection="both")
    assert np.abs(rho - 1.0).max() == 0.0

    rho = np.full(8, 0.6)
    total = rho.sum()
    for _ in range(50):
        rho = mass_step(rho, p, injection="none")
        assert rho.sum() < total
        total = rho.sum()
        assert np.all(rho >= 0)


def test_mass_single_edge_decay():
    p = PathSpec((1.0,), (True,))
    rho = np.array([0.8, 0.8])
    rho = mass_step(rho, p, injection="none")
    assert rho == pytest.approx([0.4, 0.4])  # (1 - kappa) retention


def test_domination_trivial_and_closed_form():
    p = PathSpec((1.0,), (True,))
    assert domination_test(p, 0.3, np.zeros(2), 500)
    # on one edge both slots are boundary slots: |diff| = (1-kappa)^t * diff0 = rho
    assert domination_test(p, 0.3, np.array([0.9, -0.9]), 500)


def test_domination_random_paths():
    rng = np.random.default_rng(21)
    for trial in range(5):
        ell = int(rng.integers(2, 9))
        parity = trial % 2
        p = PathSpec(
            tuple(rng.uniform(0.5, 2.0, ell)), tuple((k % 2) == parity for k in range(ell))
        )
        d0 = rng.uniform(-1, 1, 2 * ell)
        assert domination_test(p, float(rng.uniform(-0.5, 0.5)), d0, 2000)


def _naive_simplified_step(p, alpha, bl, br):
    # dict-based reference for the path update, straight from the offer rules
    ell, k = p.ell, p.kappa
    def offer(slot):
        e = slot // 2
        if p.matched[e]:
            return 0.5 * (p.weights[e] - alpha[slot] + alpha[slot ^ 1])
        return p.weights[e] - alpha[slot]
    new = np.empty_like(alpha)
    new[0] = k * bl + (1 - k) * alpha[0]
    new[2 * ell - 1] = k * br + (1 - k) * alpha[2 * ell - 1]
    for i in range(1, ell):
        new[2 * i] = k * offer(2 * (i - 1)) + (1 - k) * alpha[2 * i]
    for i in range(0, ell - 1):
        new[2 * i + 1] = k * offer(2 * i + 3) + (1 - k) * alpha[2 * i + 1]
    return new


def test_simplified_step_matches_naive_reference():
    rng = np.random.default_rng(31)
    for trial in range(10):
        ell = int(rng.integers(1, 9))
        p = PathSpec(
            tuple(rng.uniform(0.4, 2.5, ell)),
            tuple((k % 2) == (trial % 2) for k in range(ell)),
            kappa=float(rng.uniform(0.1, 0.9)),
        )
        alpha = rng.uniform(-1.0, 2.5, 2 * ell)
        bl, br = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        got = simplified_step(SimplifiedPathState(p, alpha.copy(), bl, br)).alpha
        want = _naive_simplified_step(p, alpha, bl, br)
        assert np.abs(got - want).max() <= 1e-13


def _naive_mass_step(p, rho, injection):
    # reference recursions: pass-through on matched edges, half-split on
    # unmatched, (1-kappa) retention at the two boundary slots
    ell, k = p.ell, p.kappa
    new = np.empty_like(rho)
    inj_l = 1.0 if injection in ("left", "both") else 0.0
    inj_r = 1.0 if injection in ("right", "both") else 0.0
    new[0] = k * inj_l + (1 - k) * rho[0]
    new[2 * ell - 1] = k * inj_r + (1 - k) * rho[2 * ell - 1]
    for i in range(1, ell):  # slot 2i carries mass moving right on edge i
        if p.matched[i]:
            drive = rho[2 * (i - 1)]
        else:
            drive = 0.5 * (rho[2 * (i - 1)] + rho[2 * (i - 1) + 1])
        new[2 * i] = k * drive + (1 - k) * rho[2 * i]
    for i in range(0, ell - 1):  # slot 2i+1 carries mass moving left on edge i
        if p.matched[i]:
            drive = rho[2 * (i + 1) + 1]
        else:
            drive = 0.5 * (rho[2 * (i + 1) + 1] + rho[2 * (i + 1)])
        new[2 * i + 1] = k * drive + (1 - k) * rho[2 * i + 1]
    return new


@pytest.mark.parametrize("injection", ["none", "left", "right", "both"])
def test_mass_step_matches_naive_reference(injection):
    rng = np.random.default_rng(47)
    for trial in range(8):
        ell = int(rng.integers(1, 9))
        p = PathSpec(
            tuple(rng.uniform(0.4, 2.5, ell)),
            tuple((k % 2) == (trial % 2) for k in range(ell)),
            kappa=float(rng.uniform(0.1, 0.9)),
        )
        rho = rng.uniform(0, 2, 2 * ell)
        got = mass_step(rho.copy(), p, injection=injection)
        want = _naive_mass_step(p, rho, injection)
        assert np.abs(got - want).max() <= 1e-15
