import numpy as np
import pytest

from netbargain.dynamics import derive, run
from netbargain.instance import GeneratorSpec, Instance, generate
from netbargain.matching import classify
from netbargain.nb import (
    NBSolution,
    certify,
    check_balance,
    check_stability,
    fp_from_nb,
    fp_property_suite,
    nb_from_fp,
    nb_oracle,
    solve_balance,
)


def test_check_stability_e2(e2):
    good = NBSolution(frozenset({(0, 1)}), (0.5, 1.5, 0.0))
    assert check_stability(good, e2) == []
    bad = NBSolution(frozenset({(0, 1)}), (1.5, 0.5, 0.0))
    violations = check_stability(bad, e2)
    assert len(violations) == 1 and violations[0][0] == (1, 2)
    assert violations[0][1] == pytest.approx(-0.5)


def test_check_stability_single_edge(single_edge):
    sol = NBSolution(frozenset({(0, 1)}), (0.5, 0.5))
    assert check_stability(sol, single_edge) == []


def test_check_balance_examples(e2, single_edge):
    sol = NBSolution(frozenset({(0, 1)}), (0.5, 1.5, 0.0))
    [(edge, residual, lhs, rhs)] = check_balance(sol, e2)
    assert edge == (0, 1) and residual == pytest.approx(0.0)
    assert lhs == pytest.approx(0.5) and rhs == pytest.approx(0.5)

    [(edge, residual, *_)] = check_balance(
        NBSolution(frozenset({(0, 1)}), (0.5, 0.5)), single_edge
    )
    assert residual == pytest.approx(0.0)

    [(edge, residual, *_)] = check_balance(NBSolution(frozenset({(0, 1)}), (1.0, 1.0, 0.0)), e2)
    assert residual == pytest.approx(1.0)


def test_certify_flags(e2):
    sol = certify(NBSolution(frozenset({(0, 1)}), (0.5, 1.5, 0.0)), e2)
    assert sol.stable and sol.balanced
    # unmatched node with non-zero earnings cannot certify
    bad = certify(NBSolution(frozenset({(0, 1)}), (0.5, 1.5, 0.3)), e2)
    assert not bad.certified


def test_solve_balance_e2_and_e4(e2, e4):
    g = solve_balance(e2, frozenset({(0, 1)}))
    assert np.allclose(g, [0.5, 1.5, 0.0], atol=1e-9)
    g = solve_balance(e4, frozenset({(0, 1), (2, 3)}))
    assert np.allclose(g, [0.45, 1.55, 0.4, 0.4], atol=1e-9)


def test_oracle_e2(e2):
    res = nb_oracle(e2)
    assert len(res.solutions) == 1 and not res.family
    sol = res.solutions[0]
    assert sol.matching == frozenset({(0, 1)})
    assert np.allclose(sol.gamma, [0.5, 1.5, 0.0], atol=1e-9)


def test_oracle_degenerate_path():
    inst = Instance(3, ((0, 1, 1.0), (1, 2, 1.0)))
    res = nb_oracle(inst)
    got = {(tuple(sorted(s.matching)), tuple(round(g, 6) for g in s.gamma)) for s in res.solutions}
    assert got == {
        (((0, 1),), (0.0, 1.0, 0.0)),
        (((1, 2),), (0.0, 1.0, 0.0)),
    }


def test_oracle_b1_family(b1):
    res = nb_oracle(b1)
    assert res.family and res.segment_verified
    assert len(res.solutions) >= 3
    for sol in res.solutions:
        x = sol.gamma[0]
        assert 1.0 - 1e-6 <= x <= 9.0 + 1e-6
        assert np.allclose(sol.gamma, [x, 10 - x, x, 10 - x], atol=1e-6)


def test_oracle_e3_unique(e3):
    res = nb_oracle(e3)
    assert not res.family and len(res.solutions) == 1
    assert np.allclose(res.solutions[0].gamma, [1.5] * 4, atol=1e-9)


def test_oracle_blossom_unique():
    # allocations on an odd cycle with a stem are pinned down
    inst = generate(GeneratorSpec("blossom", (1, 5), weights=(1.2, 2.0, 1.2, 2.0, 1.2, 1.9)))
    res = nb_oracle(inst)
    assert len(res.solutions) == 1 and not res.family


def test_fp_from_nb_e2(e2):
    sol = nb_oracle(e2).solutions[0]
    fp = fp_from_nb(sol, e2)
    amap = fp.alpha_map()
    assert amap[(0, 1)] == pytest.approx(0.0, abs=1e-9)
    assert amap[(1, 0)] == pytest.approx(1.0, abs=1e-9)
    assert amap[(1, 2)] == pytest.approx(1.5, abs=1e-9)
    assert amap[(2, 1)] == pytest.approx(0.0, abs=1e-9)
    assert fp.step_residual() <= 1e-9


def test_fp_from_nb_single_edge(single_edge):
    sol = certify(NBSolution(frozenset({(0, 1)}), (0.5, 0.5)), single_edge)
    fp = fp_from_nb(sol, single_edge)
    assert np.allclose(fp.alpha, 0.0)
    assert np.allclose(fp.gamma, [0.5, 0.5])


def test_fp_from_nb_b1_interior(b1):
    sol = certify(NBSolution(frozenset({(0, 1), (2, 3)}), (5.0, 5.0, 5.0, 5.0)), b1)
    fp = fp_from_nb(sol, b1)
    amap = fp.alpha_map()
    assert amap[(0, 1)] == pytest.approx(4.0)  # best alternative: 9 - 5
    assert amap[(1, 0)] == pytest.approx(4.0)
    assert amap[(1, 2)] == pytest.approx(5.0)
    assert fp.step_residual() <= 1e-12


def test_fp_from_nb_requires_certification(e2):
    with pytest.raises(ValueError):
        fp_from_nb(NBSolution(frozenset({(0, 1)}), (0.5, 1.5, 0.0)), e2)


def test_property_suite_e2(e2):
    state, _, _, _ = run(e2)
    report = fp_property_suite(state, e2, classify(e2))
    assert report.passed and report.nb_exists
    assert report.labels == {(0, 1): "strong_dotted", (1, 2): "non_dotted"}
    sol = nb_from_fp(state, e2, report)
    assert sol.certified and sol.matching == frozenset({(0, 1)})


def test_property_suite_t1(t1):
    state, _, _, _ = run(t1)
    report = fp_property_suite(state, t1, classify(t1))
    assert report.passed and not report.nb_exists
    assert set(report.labels.values()) == {"weak_dotted"}


def test_property_suite_rejects_non_fixed_point(e2):
    sol = nb_oracle(e2).solutions[0]
    fp = fp_from_nb(sol, e2)
    bumped = fp.alpha.copy()
    bumped[fp.index.slot(1, 0)] += 0.3
    with pytest.raises(ValueError, match="not a fixed point"):
        fp_property_suite(derive(bumped, fp.index), e2, classify(e2))


def test_property_suite_diagnoses_perturbed_state(e2):
    # with the residual gate lifted, the perturbed state fails the audit:
    # the earnings are no longer balanced at the matched edge
    sol = nb_oracle(e2).solutions[0]
    fp = fp_from_nb(sol, e2)
    bumped = fp.alpha.copy()
    bumped[fp.index.slot(1, 0)] += 0.3
    report = fp_property_suite(derive(bumped, fp.index), e2, classify(e2), residual_tol=np.inf)
    assert not report.passed
    bal = report.checks["balance_everywhere"]
    assert not bal.passed and bal.witnesses[0][0] == (0, 1)


def test_outcome_fixed_point_roundtrip_small_corpus():
    # oracle outcome -> exact fixed point -> re-read outcome, and the
    # dynamics lands on the same earnings
    for seed in range(8):
        inst = generate(GeneratorSpec("erdos_renyi", (5,), base=(1.0, 1.6, 2.3), jitter=0.15, seed=seed))
        cls = classify(inst)
        if cls.kind != "tight":
            continue
        res = nb_oracle(inst)
        for sol in res.solutions:
            fp = fp_from_nb(sol, inst)
            assert fp.step_residual() <= 1e-9
            assert np.abs(fp.gamma - np.array(sol.gamma)).max() <= 1e-9
            report = fp_property_suite(fp, inst, cls)
            assert report.passed
            again = nb_from_fp(fp, inst, report)
            assert again.certified
        if not res.family and len(res.solutions) == 1:
            state, _, _, converged = run(inst)
            assert converged
            assert np.abs(state.gamma - np.array(res.solutions[0].gamma)).max() <= 1e-6


def test_partner_set_structure_on_passing_suites(t1, e2):
    # strong-dotted edges form a matching; weak-dotted edges continue
    # weakly at both ends
    from netbargain.matching import classify as _classify

    for inst in (t1, e2):
        state, _, _, _ = run(inst)
        report = fp_property_suite(state, inst, _classify(inst))
        assert report.passed
        strong = report.strong_dotted()
        touched = [i for e in strong for i in e]
        assert len(touched) == len(set(touched))
        for (u, v), label in report.labels.items():
            if label != "weak_dotted":
                continue
            for end in (u, v):
                others = [
                    k for k in inst.neighbors(end)
                    if {k, end} != {u, v}
                    and report.labels[(min(end, k), max(end, k))] == "weak_dotted"
                ]
                assert others, f"weak-dotted edge ({u},{v}) dangling at {end}"


def test_oracle_size_cap():
    from netbargain.matching import SizeCapError

    inst = generate(GeneratorSpec("path", (12,), base=(1.0,), jitter=0.01, seed=0))
    with pytest.raises(SizeCapError):
        nb_oracle(inst)


def test_property_suite_on_random_pointed_instances():
    # instances whose relaxation prefers a half-integral corner still
    # satisfy every audited property except outcome existence
    from netbargain.matching import classify as _classify

    checked = 0
    for seed in range(60):
        inst = generate(
            GeneratorSpec("erdos_renyi", (5 + seed % 2,), base=(1.0, 1.6, 2.3), jitter=0.15, seed=seed)
        )
        cls = _classify(inst)
        if cls.kind != "pointed_not_tight":
            continue
        state, _, _, converged = run(inst)
        if not converged:
            continue
        report = fp_property_suite(state, inst, cls)
        assert report.passed, report.summary()
        assert not report.nb_exists
        assert "weak_dotted" in report.labels.values()
        checked += 1
    assert checked >= 3
