import dataclasses
import sys

import numpy as np
import pytest

from curvkit.errors import DegenerateParams, InvalidParams
from curvkit.gencurv import (GenCurvParams, pp_flat_alpha, qc_flat_alpha,
                             reconstruct_pp_flat, reconstruct_qc_flat,
                             reconstruct_w2_flat, w2_flat_alpha)
from curvkit.harness import (PointModel, TrialConfig, flat_ricci_form,
                             product_ricci_form, random_point_model,
                             rank_one_coefficient, selfconsistent_ricci,
                             verify_all, verify_section2, verify_section4)
from curvkit.tensor import Metric, max_abs, ricci_contract, scalar_curvature
from oracles import random_spd


def test_config_requires_n_above_3():
    with pytest.raises(InvalidParams):
        TrialConfig(seed=0, n=3)
    with pytest.raises(InvalidParams):
        TrialConfig(seed=0, trials=0)
    assert TrialConfig(seed=0, n=4).tolerance == 1e-8


# --------------------------------------------------------------------------
# random models

def test_generic_metric_positive_definite():
    model = random_point_model(3, 5)
    # g = M^T M + n I has all eigenvalues >= n
    eigs = np.linalg.eigvalsh(model.g.mat)
    assert eigs.min() >= 5 * (1 - 1e-12)


def test_model_determinism():
    m1 = random_point_model(11, 4)
    m2 = random_point_model(11, 4)
    assert np.array_equal(m1.g.mat, m2.g.mat)
    assert np.array_equal(m1.ricci, m2.ricci)
    assert m1.coeff == m2.coeff


def test_rank1_model_rank():
    model = random_point_model(5, 4)
    sigma = np.linalg.svd(model.ricci, compute_uv=False)
    assert sigma[1] <= 1e-12 * sigma[0]
    assert abs(model.coeff) >= 0.2


# --------------------------------------------------------------------------
# constructions and guards

def test_product_ricci_form_identity():
    rng = np.random.default_rng(80)
    g = Metric(np.eye(4) * 2.0)
    a_form = rng.standard_normal(4)
    d_form = rng.standard_normal(4)
    b_form = rng.standard_normal(4)
    b_bar = rng.standard_normal(4)
    s, pairing = product_ricci_form(g, a_form, d_form, b_form, b_bar)
    lhs = np.outer(a_form - d_form, b_bar) - pairing * s
    assert max_abs(lhs) <= 1e-14 * (1 + max_abs(pairing * s))


def test_product_ricci_form_guard():
    g = Metric(np.eye(4))
    w = np.ones(4)
    with pytest.raises(DegenerateParams):
        product_ricci_form(g, w, w, w, w)


def test_flat_ricci_form_guard_zero_r():
    g = Metric(np.eye(4))
    w = np.ones(4)
    with pytest.raises(DegenerateParams):
        flat_ricci_form(g, w, w, w, w, 0.0)


def test_rank_one_coefficient_and_guard():
    g = Metric(np.eye(4))
    t = np.array([1.0, 2.0, 0.0, 0.0])
    s = 3.0 * np.outer(t, t)
    assert rank_one_coefficient(g, s, t) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(DegenerateParams):
        rank_one_coefficient(g, s, np.zeros(4))


def test_selfconsistent_ricci_flavors():
    rng = np.random.default_rng(81)
    from oracles import random_spd
    g = Metric(random_spd(rng, 4))
    params = GenCurvParams(1.0, 1.0)
    # qc at r=12, n=4, a=b=1: the forced Einstein coefficient is 3
    s = selfconsistent_ricci(g, 12.0, params, "qc")
    assert max_abs(s - 3.0 * g.mat) <= 1e-10
    s = selfconsistent_ricci(g, 12.0, params, "pp")
    assert max_abs(s - 3.0 * g.mat) <= 1e-10
    s = selfconsistent_ricci(g, 10.0, params, "w2")
    assert max_abs(s - 2.5 * g.mat) <= 1e-10
    with pytest.raises(InvalidParams):
        selfconsistent_ricci(g, 1.0, params, "bogus")


def test_selfconsistent_ricci_degenerate_weights():
    g = Metric(np.eye(4))
    with pytest.raises(DegenerateParams):
        selfconsistent_ricci(g, 1.0, GenCurvParams(1.0, -0.5), "qc")


# --------------------------------------------------------------------------
# section reports

@pytest.fixture(scope="module")
def small_reports():
    config = TrialConfig(seed=1234, trials=20, n=4)
    return verify_all(config)


def test_all_sections_pass(small_reports):
    for report in small_reports:
        assert report.passed, report.to_dict()
        for check in report.checks:
            assert check.max_residual <= 1e-8 or check.max_residual == 0.0


def test_guard_checks_present(small_reports):
    names = {c.name for r in small_reports for c in r.checks}
    assert "guard_zero_scalar_curvature" in names
    assert "guard_zero_difference_form" in names
    assert "guard_degenerate_weights" in names
    pairing_guards = [c for r in small_reports for c in r.checks
                      if c.name == "guard_equal_pairing"]
    assert len(pairing_guards) == 3  # one per section
    total_guards = [c for r in small_reports for c in r.checks
                    if c.name.startswith("guard_")]
    assert len(total_guards) == 6
    assert all(c.passed for c in total_guards)


def test_brute_force_twins_present(small_reports):
    # one single-trial loop-expansion twin per section certifies the
    # vectorized path
    twins = [c for r in small_reports for c in r.checks if "twin" in c.name]
    assert len(twins) == 3
    assert all(c.trials == 1 for c in twins)
    assert all(c.passed for c in twins)


def test_weyl_norm_reported_not_asserted(small_reports):
    s2 = small_reports[0]
    qc_fit = next(c for c in s2.checks if c.name == "qc_quasi_constant_fit")
    assert "weyl_norm" in qc_fit.extra  # reported alongside, no vanishing claim


def test_report_determinism():
    config = TrialConfig(seed=99, trials=10, n=4)
    first = verify_section2(config).to_dict()
    second = verify_section2(config).to_dict()
    assert first == second


def test_different_seeds_differ():
    a = verify_section4(TrialConfig(seed=1, trials=10, n=4)).to_dict()
    b = verify_section4(TrialConfig(seed=2, trials=10, n=4)).to_dict()
    residuals_a = [c["max_residual"] for c in a["checks"]]
    residuals_b = [c["max_residual"] for c in b["checks"]]
    assert residuals_a != residuals_b


def test_custom_params_pass():
    config = TrialConfig(seed=5, trials=10, n=5, params=GenCurvParams(2.0, -0.7))
    for report in verify_all(config):
        assert report.passed, report.to_dict()


def test_point_model_dataclass_fields():
    model = random_point_model(0, 4)
    assert isinstance(model, PointModel)
    assert [f.name for f in dataclasses.fields(PointModel)] == ["g", "ricci", "coeff", "t"]
    assert np.array_equal(model.ricci, model.coeff * np.outer(model.t, model.t))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("flavor", ["qc", "pp", "w2"])
def test_selfconsistent_matches_column_by_column_solve(n, flavor):
    rng = np.random.default_rng(600 + n)
    g = Metric(random_spd(rng, n))
    s0 = rng.standard_normal((n, n))
    r = scalar_curvature(0.5 * (s0 + s0.T), g)
    params = GenCurvParams(1.0, 0.5)

    def image(s):
        if flavor == "qc":
            riemann = reconstruct_qc_flat(s, g, r, params)
        elif flavor == "pp":
            riemann = reconstruct_pp_flat(s, g, r, params)
        else:
            riemann = reconstruct_w2_flat(s, g)
        return ricci_contract(riemann, g).ravel()

    affine = image(np.zeros((n, n)))
    op = np.empty((n * n, n * n))
    for col in range(n * n):
        op[:, col] = image(np.eye(n * n)[col].reshape(n, n)) - affine
    lhs = np.vstack([np.eye(n * n) - op, g.inv.ravel()])
    expected = np.linalg.lstsq(lhs, np.concatenate([affine, [r]]),
                               rcond=1e-12)[0].reshape(n, n)
    got = selfconsistent_ricci(g, r, params, flavor)
    assert max_abs(got - expected) <= 1e-12 * (1.0 + max_abs(expected))


def test_selfconsistent_builds_no_grid(monkeypatch):
    # The operator is contracted term by term; expanding any block grid, for
    # a basis or for G, is what this guards against (no timing involved).
    def refuse(*args, **kwargs):
        raise AssertionError("the fixed-point operator expanded a block grid")

    patched = [module for name, module in list(sys.modules.items())
               if name.startswith("curvkit") and hasattr(module, "_expand_block")]
    assert patched
    for module in patched:
        monkeypatch.setattr(module, "_expand_block", refuse)
    n, r = 8, 3.5
    g = Metric(random_spd(np.random.default_rng(5), n))
    params = GenCurvParams(1.0, 0.5)
    for flavor, alpha in (("qc", qc_flat_alpha(n, r, params)),
                          ("pp", pp_flat_alpha(n, r, params)),
                          ("w2", w2_flat_alpha(n, r))):
        s = selfconsistent_ricci(g, r, params, flavor)
        assert max_abs(s - alpha * g.mat) <= 1e-10 * (1.0 + abs(alpha))


def test_section_layout():
    # A check draws from default_rng([seed, section, position]): reordering,
    # inserting or dropping a check changes the draws of every later one.
    trials = 3
    reports = verify_all(TrialConfig(seed=0, trials=trials, n=4))
    layout = {r.section: [(c.name, c.trials) for c in r.checks] for r in reports}
    assert layout == {
        2: [("qc_einstein_contraction", trials),
            ("qc_product_ricci_identity", trials),
            ("qc_hyper_fit", trials),
            ("qc_rank_one_ricci", trials),
            ("qc_quasi_constant_fit", trials),
            ("qc_bd_expansion", trials),
            ("qc_brute_force_twin", 1),
            ("guard_zero_scalar_curvature", 1),
            ("guard_equal_pairing", 1),
            ("guard_zero_difference_form", 1),
            ("guard_degenerate_weights", 1)],
        3: [("pp_einstein_contraction", trials),
            ("pp_product_ricci_identity", trials),
            ("pp_pseudo_fit", trials),
            ("pp_rank_one_ricci", trials),
            ("pp_quasi_constant_fit", trials),
            ("pp_bd_expansion", trials),
            ("pp_brute_force_twin", 1),
            ("guard_equal_pairing", 1)],
        4: [("w2_einstein_contraction", trials),
            ("w2_product_ricci_identity", trials),
            ("w2_rank_one_quasi_einstein", trials),
            ("w2_brute_force_twin", 1),
            ("guard_equal_pairing", 1)],
    }
