"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. The random corpora are seeded, so every run checks the same
instances.
"""

import time

import numpy as np
import pytest

from netbargain.bipartite import _buyer_src_mask, check_bipartite, order_leq, run_extremal
from netbargain.dynamics import DynamicsConfig, EdgeIndex, MessageState, derive, extract_pairing, run
from netbargain.experiment import family_spec, iterations_to_eps, reference_solution
from netbargain.instance import GeneratorSpec, Instance, generate, max_weight
from netbargain.slack import check_fp_identities, decompose
from netbargain.matching import classify, enumerate_corners
from netbargain.nb import (
    certify,
    fp_from_nb,
    fp_property_suite,
    nb_from_fp,
    nb_oracle,
)
from netbargain.pathlab import (
    BoundingConfig,
    PathSpec,
    SimplifiedPathState,
    bounding_process,
    domination_test,
    mass_step,
    sandwich_test,
    simplified_fixed_point,
)

KAPPA = 0.5


@pytest.fixture(scope="module")
def corpus():
    """100 seeded random instances, n <= 6, jittered weights, tight + unique."""
    out = []
    seed = 0
    while len(out) < 100:
        n = 4 + seed % 3
        spec = GeneratorSpec("erdos_renyi", (n,), base=(1.0, 1.6, 2.3), jitter=0.15, seed=seed)
        seed += 1
        inst = generate(spec)
        cls = classify(inst)
        if cls.kind == "tight":
            out.append((inst, cls))
    return out


def _run_batch(idx: EdgeIndex, alpha: np.ndarray, eps_conv=1e-9, max_iters=10**6):
    threshold = KAPPA * eps_conv
    for t in range(1, max_iters + 1):
        nxt = idx.step_alpha(alpha, KAPPA)
        change = np.abs(nxt - alpha).max()
        alpha = nxt
        if change <= threshold:
            return alpha, t, True
    return alpha, max_iters, False


def test_criterion_1_fixed_points_are_balanced_outcomes(corpus):
    start = time.perf_counter()
    for k, (inst, cls) in enumerate(corpus):
        idx = EdgeIndex(inst)
        rng = np.random.default_rng(10_000 + k)
        alpha0 = rng.uniform(0.0, idx.W, size=(5, 2 * inst.m))
        alpha, iters, converged = _run_batch(idx, alpha0)
        assert converged, f"instance {k} did not converge"
        for row in alpha:
            state = derive(row, idx)
            assert state.step_residual() <= 1e-9
            report = fp_property_suite(state, inst, cls, tol=1e-6)
            assert report.passed, f"instance {k}: {report.summary()}"
            sol = nb_from_fp(state, inst, report, tol=1e-6)
            assert sol.stable and sol.balanced
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS: 100 instances x 5 inits converge and certify ({elapsed:.1f}s)")


def test_criterion_2_outcomes_become_fixed_points(corpus):
    count = 0
    for inst, cls in corpus:
        for sol in nb_oracle(inst).solutions:
            fp = fp_from_nb(sol, inst)
            assert fp.step_residual() <= 1e-9
            assert np.abs(fp.gamma - np.asarray(sol.gamma)).max() <= 1e-9
            count += 1
    print(f"[criterion 2] PASS: {count} oracle outcomes rebuilt as exact fixed points")


FAMILY_SIZES = {
    "path": (5, 10, 20, 40),
    "blossom": (3, 7, 13, 19),
    "bicycle": (3, 7, 13, 19),
    "even_cycle": (6, 12, 20, 40),
}


@pytest.fixture(scope="module")
def family_runs():
    runs = []
    start = time.perf_counter()
    for topology, sizes in FAMILY_SIZES.items():
        for size in sizes:
            ref = None
            for attempt in range(50):
                inst = generate(family_spec(topology, size, seed=size + 7919 * attempt))
                if max_weight(inst) > 10.0:
                    continue
                ref = reference_solution(inst)
                if ref is not None and ref.sigma >= 0.05:
                    break
                ref = None
            assert ref is not None, f"no usable {topology} instance at size {size}"
            iters, err = iterations_to_eps(inst, ref.solution.gamma, 1e-4, kappa=KAPPA)
            runs.append((topology, size, inst, ref, iters))
    return runs, time.perf_counter() - start


def test_criterion_3_convergence_scaling(family_runs):
    runs, elapsed = family_runs
    for topology, size, inst, ref, iters in runs:
        assert max_weight(inst) <= 10.0 and inst.n <= 40
        assert ref.sigma >= 0.05
        assert iters is not None and iters <= 10**6, f"{topology} {size} missed eps"
    path_rows = [(inst.n, max(iters, 1)) for t, s, inst, ref, iters in runs if t == "path"]
    slope = np.polyfit(np.log([n for n, _ in path_rows]), np.log([i for _, i in path_rows]), 1)[0]
    assert slope <= 7.0
    assert elapsed < 300.0
    print(
        f"[criterion 3] PASS: all {len(runs)} family instances reach 1e-4; "
        f"path scaling slope {slope:.2f} <= 7 ({elapsed:.1f}s)"
    )


def test_criterion_4_pairing_extraction(family_runs):
    runs, _ = family_runs
    for topology, size, inst, ref, _ in runs:
        state, _, _, converged = run(inst, DynamicsConfig(kappa=KAPPA))
        assert converged
        pairs, ambiguous, unpaired = extract_pairing(state, margin=ref.sigma / 3.0)
        assert pairs == set(ref.solution.matching), f"{topology} {size}: wrong pairing"
        matched_nodes = {i for e in ref.solution.matching for i in e}
        assert not (ambiguous & matched_nodes), f"{topology} {size}: ambiguous matched node"
    print(f"[criterion 4] PASS: pairing at margin sigma/3 recovers the matching on {len(runs)} instances")


def test_criterion_5_non_expansion(corpus):
    rng = np.random.default_rng(5150)
    checked = 0
    for inst, _ in corpus[:20]:
        idx = EdgeIndex(inst)
        a = rng.uniform(0, idx.W, size=(50, 2 * inst.m))
        b = rng.uniform(0, idx.W, size=(50, 2 * inst.m))
        before = np.abs(a - b).max(axis=-1)
        after = np.abs(idx.step_alpha(a, KAPPA) - idx.step_alpha(b, KAPPA)).max(axis=-1)
        assert np.all(after <= before + 1e-12)
        checked += 50
    assert checked == 1000
    print("[criterion 5] PASS: 1000 random state pairs never expand in sup norm")


def test_criterion_6_bipartite_order_and_extremes(b1):
    rng = np.random.default_rng(66)
    pairs_checked = 0
    for seed in range(10):
        inst = generate(
            GeneratorSpec("bipartite_random", (3, 3), base=(1.0, 1.8, 2.4), jitter=0.2, seed=seed)
        )
        part = check_bipartite(inst)
        idx = EdgeIndex(inst)
        mask = _buyer_src_mask(idx, part)
        beta = rng.uniform(0, idx.W, size=(20, 2 * inst.m))
        bump = rng.uniform(0, 1, size=(20, 2 * inst.m))
        alpha = np.where(mask, beta + bump * (idx.W - beta), beta * (1 - bump))
        for _ in range(1000):
            ok = np.where(mask, alpha >= beta - 1e-12, alpha <= beta + 1e-12)
            assert ok.all()
            alpha = idx.step_alpha(alpha, KAPPA)
            beta = idx.step_alpha(beta, KAPPA)
        pairs_checked += 20
    assert pairs_checked == 200

    part = check_bipartite(b1)
    sol_top, state_top, _, conv_top = run_extremal(b1, part, "buyer")
    sol_bot, state_bot, _, conv_bot = run_extremal(b1, part, "seller")
    assert conv_top and conv_bot
    assert np.abs(np.asarray(sol_top.gamma) - [9, 1, 9, 1]).max() <= 1e-4
    assert np.abs(np.asarray(sol_bot.gamma) - [1, 9, 1, 9]).max() <= 1e-4
    idx = state_top.index
    samples = nb_oracle(b1).solutions
    assert len(samples) >= 3
    for sol in samples:
        fp = fp_from_nb(sol, idx)
        assert order_leq(fp.alpha, state_top.alpha, part, idx, tol=1e-6)
        assert order_leq(state_bot.alpha, fp.alpha, part, idx, tol=1e-6)
    print(
        "[criterion 6] PASS: order preserved on 200 pairs x 1000 steps; "
        f"extremal outcomes (9,1,9,1)/(1,9,1,9) dominate {len(samples)} sampled outcomes"
    )


def test_criterion_7_simplified_dynamics_rate():
    rng = np.random.default_rng(77)
    for ell in (5, 10, 15, 20):
        weights = tuple(rng.uniform(0.8, 2.0, ell))
        matched = tuple(k % 2 == 0 for k in range(ell))
        path = PathSpec(weights, matched, KAPPA)
        b_left, b_right = 0.3, -0.2
        star = simplified_fixed_point(path, b_left, b_right)
        assert abs(star[0] - b_left) <= 1e-12
        assert abs(star[-1] - b_right) <= 1e-12
        u = rng.uniform(-1, 1, 2 * ell)
        u /= np.abs(u).max()
        state = SimplifiedPathState(path, star + u, b_left, b_right)
        from netbargain.pathlab import simplified_step

        for _ in range(200 * ell * ell):
            state = simplified_step(state)
        err = np.abs(state.alpha - star).max()
        assert err <= 1e-8, f"ell={ell}: error {err:.2e}"
    print("[criterion 7] PASS: unit errors decay below 1e-8 within 200*ell^2 steps, ell in {5,10,15,20}")


def _structure_fp(inst):
    ref = reference_solution(inst)
    assert ref is not None
    fp = fp_from_nb(ref.solution, inst)
    return fp, ref.decomposition


def test_criterion_8_bounding_and_sandwich(e2, p9):
    from netbargain.pathlab import structure_path

    horizon = 10**4
    for inst in (e2, p9):
        fp, dec = _structure_fp(inst)
        (q,) = [i for i, s in enumerate(dec.structures) if len(s.nodes) >= 2]
        seq, weights, matched, slots = structure_path(dec, q, fp.index)
        star = tuple(float(x) for x in fp.alpha[slots])
        path = PathSpec(weights, matched, KAPPA)
        for big_delta, delta in ((0.4, 0.2), (0.4, 0.4)):
            for sign in (+1, -1):
                cfg = BoundingConfig(sign, big_delta, delta, star)
                bounding_process(cfg, path, horizon)  # raises on any sign violation
            assert sandwich_test(fp, dec, q, big_delta, delta, horizon, kappa=KAPPA)
    print("[criterion 8] PASS: bound signs and sandwich hold over 1e4 steps on both structure paths")


def test_criterion_9_mass_domination_and_stationarity():
    rng = np.random.default_rng(99)
    for trial in range(20):
        ell = int(rng.integers(1, 16))
        parity = int(rng.integers(0, 2))
        path = PathSpec(
            tuple(rng.uniform(0.5, 2.0, ell)),
            tuple((k % 2) == parity for k in range(ell)),
            KAPPA,
        )
        delta0 = rng.uniform(-1, 1, 2 * ell)
        boundary = float(rng.uniform(-0.5, 0.5))
        assert domination_test(path, boundary, delta0, 10**4), f"trial {trial} failed"
    path = PathSpec(tuple(np.ones(8)), tuple(k % 2 == 0 for k in range(8)), KAPPA)
    rho = np.ones(16)
    for _ in range(1000):
        rho = mass_step(rho, path, injection="both")
        assert np.abs(rho - 1.0).max() <= 1e-12
    print("[criterion 9] PASS: 20 random difference processes dominated over 1e4 steps; dual injection stationary")


def test_criterion_10_exact_micro_instances(e2, e4, t1):
    # every frozen value below is recomputed by the independent machinery
    # (balance-system oracle, corner enumeration) before being asserted
    sol_e2 = nb_oracle(e2).solutions
    assert len(sol_e2) == 1
    assert np.abs(np.asarray(sol_e2[0].gamma) - [0.5, 1.5, 0.0]).max() <= 1e-9
    fp = fp_from_nb(sol_e2[0], e2)
    dec = decompose(fp, sol_e2[0], e2)
    assert abs(dec.gap - 0.5) <= 1e-9
    idx = fp.index
    s1 = dec.structures[0].sigma
    matched_sum = fp.alpha[idx.slot(0, 1)] + fp.alpha[idx.slot(1, 0)] - 2.0
    second_sum = fp.alpha[idx.slot(1, 2)] + fp.alpha[idx.slot(2, 1)] - 1.0
    assert abs(matched_sum - (-2 * s1)) <= 1e-9
    assert abs(second_sum - s1) <= 1e-9
    assert check_fp_identities(dec, fp, e2, tol=1e-9).passed

    sol_e4 = nb_oracle(e4).solutions
    assert len(sol_e4) == 1
    assert np.abs(np.asarray(sol_e4[0].gamma) - [0.45, 1.55, 0.4, 0.4]).max() <= 1e-9
    fp4 = fp_from_nb(sol_e4[0], e4)
    dec4 = decompose(fp4, sol_e4[0], e4)
    assert np.abs(np.asarray(dec4.levels) - [0.4, 0.45]).max() <= 1e-9
    assert abs(dec4.gap - 0.05) <= 1e-9

    state, _, _, converged = run(t1, DynamicsConfig(kappa=KAPPA))
    assert converged
    assert np.abs(state.gamma - 0.5).max() <= 1e-6
    best_corner = max(c.weight for c in enumerate_corners(t1))
    assert abs(best_corner - 1.5) <= 1e-12
    assert abs(float(state.gamma.sum()) - best_corner) <= 1e-6
    print("[criterion 10] PASS: micro-instance values match the independent oracles exactly")
