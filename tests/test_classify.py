import itertools

import numpy as np
import pytest

from curvkit.chart import CurvatureBundle
from curvkit.classify import (classification_report, conformally_flat_check,
                              einstein_check, hyper_quasi_constant_fit,
                              pseudo_quasi_constant_fit, quasi_constant_fit,
                              quasi_einstein_decompose)
from curvkit.errors import DimensionMismatch, NotQuasiConstant, NotQuasiEinstein
from curvkit.gencurv import GenCurvParams
from curvkit.tensor import (Metric, Tensor04, hyper_shape, max_abs,
                            pseudo_shape, quasi_constant_shape, wedge_gg)
from oracles import random_riemann_like, random_spd


def unit_covector(rng, g: Metric) -> np.ndarray:
    w = rng.standard_normal(g.n)
    return w / np.sqrt(g.norm_sq(w))


def tracefree(p: np.ndarray, g: Metric) -> np.ndarray:
    return p - (float(np.einsum("ij,ij->", g.inv, p)) / g.n) * g.mat


# --------------------------------------------------------------------------
# einstein_check

def test_einstein_exact():
    g = Metric(np.eye(4))
    fit = einstein_check(3.0 * g.mat, g)
    assert fit.alpha == pytest.approx(3.0)
    assert fit.residual == 0.0
    assert fit.ok


def test_einstein_fails_on_distinct_eigenvalues():
    g = Metric(np.eye(2))
    fit = einstein_check(np.diag([1.0, 2.0]), g)
    assert not fit.ok
    assert fit.residual > 0.1


def test_einstein_round_sphere(sphere3):
    b = sphere3.curvature_bundle((1.0, 0.9, 0.5))
    fit = einstein_check(b.ricci, b.g)
    assert fit.ok
    assert fit.alpha == pytest.approx(3 - 1, rel=1e-9)  # alpha = n - 1 at kappa=1


# --------------------------------------------------------------------------
# quasi_einstein_decompose

def test_quasi_einstein_recovery():
    rng = np.random.default_rng(60)
    g = Metric(random_spd(rng, 4))
    omega = unit_covector(rng, g)
    s = 2.0 * g.mat + 3.0 * np.outer(omega, omega)
    fit = quasi_einstein_decompose(s, g)
    assert fit.p == pytest.approx(2.0, abs=1e-9)
    assert fit.q == pytest.approx(3.0, abs=1e-9)
    gap = min(max_abs(fit.omega - omega), max_abs(fit.omega + omega))
    assert gap <= 1e-9
    assert fit.residual <= 1e-12


def test_quasi_einstein_rejects_einstein():
    g = Metric(np.eye(4))
    with pytest.raises(NotQuasiEinstein) as err:
        quasi_einstein_decompose(1.5 * g.mat, g)
    assert err.value.einstein_alpha == pytest.approx(1.5)


def test_quasi_einstein_rejects_three_eigenvalues():
    g = Metric(np.eye(4))
    s = np.diag([1.0, 1.0, 2.0, 3.0])
    with pytest.raises(NotQuasiEinstein) as err:
        quasi_einstein_decompose(s, g)
    assert err.value.einstein_alpha is None


def test_quasi_einstein_negative_q():
    rng = np.random.default_rng(61)
    g = Metric(random_spd(rng, 5))
    omega = unit_covector(rng, g)
    s = 1.0 * g.mat - 2.5 * np.outer(omega, omega)  # simple eigenvalue below cluster
    fit = quasi_einstein_decompose(s, g)
    assert fit.p == pytest.approx(1.0, abs=1e-9)
    assert fit.q == pytest.approx(-2.5, abs=1e-9)


def test_quasi_einstein_sign_canonicalization():
    rng = np.random.default_rng(62)
    g = Metric(random_spd(rng, 4))
    omega = unit_covector(rng, g)
    s = 2.0 * g.mat + 3.0 * np.outer(omega, omega)
    fit1 = quasi_einstein_decompose(s, g)
    floor = 1e-12 * max_abs(fit1.omega)
    first = next(v for v in fit1.omega if abs(v) > floor)
    assert first > 0.0


def test_quasi_einstein_scale_equivariance_power_of_two():
    rng = np.random.default_rng(63)
    g = Metric(random_spd(rng, 4))
    omega = unit_covector(rng, g)
    s = 0.7 * g.mat + 1.9 * np.outer(omega, omega)
    base = quasi_einstein_decompose(s, g)
    for c in (2.0, 0.5, 4.0):
        scaled = quasi_einstein_decompose(c * s, g)
        assert scaled.p == c * base.p       # exact: power-of-two prescaling
        assert scaled.q == c * base.q
        assert np.array_equal(scaled.omega, base.omega)
    general = quasi_einstein_decompose(3.0 * s, g)
    assert general.p == pytest.approx(3.0 * base.p, rel=1e-12)
    assert general.q == pytest.approx(3.0 * base.q, rel=1e-12)


def test_quasi_einstein_rank_one_input():
    # S = q omega(x)omega: cluster at zero, simple eigenvalue q
    rng = np.random.default_rng(64)
    g = Metric(random_spd(rng, 5))
    omega = unit_covector(rng, g)
    fit = quasi_einstein_decompose(4.0 * np.outer(omega, omega), g)
    assert fit.p == pytest.approx(0.0, abs=1e-10)
    assert fit.q == pytest.approx(4.0, abs=1e-9)


def test_quasi_einstein_recovery_sweep():
    # round-trip over constructed instances at several dimensions
    rng = np.random.default_rng(65)
    for n in (4, 5, 6):
        for _ in range(100):
            g = Metric(random_spd(rng, n))
            omega = unit_covector(rng, g)
            p = float(rng.uniform(-2, 2))
            q = float(rng.uniform(0.5, 3.0) * rng.choice([-1, 1]))
            s = p * g.mat + q * np.outer(omega, omega)
            fit = quasi_einstein_decompose(s, g)
            assert abs(fit.p - p) <= 1e-9 * (1 + abs(p))
            assert abs(fit.q - q) <= 1e-9 * (1 + abs(q))
            assert min(max_abs(fit.omega - omega),
                       max_abs(fit.omega + omega)) <= 1e-8
            rebuilt = fit.p * g.mat + fit.q * np.outer(fit.omega, fit.omega)
            assert max_abs(rebuilt - s) <= (fit.residual + 1e-12) * (1 + max_abs(s))


# --------------------------------------------------------------------------
# quasi_constant_fit

def test_quasi_constant_recovery():
    rng = np.random.default_rng(66)
    g = Metric(random_spd(rng, 4))
    a_unit = unit_covector(rng, g)
    riemann = Tensor04(2.0 * wedge_gg(g).values
                       + 5.0 * quasi_constant_shape(g, a_unit).values,
                       riemann_like=True)
    fit = quasi_constant_fit(riemann, g)
    assert fit.a == pytest.approx(2.0, abs=1e-9)
    assert fit.b == pytest.approx(5.0, abs=1e-9)
    assert min(max_abs(fit.a_form - a_unit), max_abs(fit.a_form + a_unit)) <= 1e-9
    assert fit.residual <= 1e-12


def test_quasi_constant_sphere_downgrades_to_constant_curvature():
    rng = np.random.default_rng(67)
    g = Metric(random_spd(rng, 4))
    riemann = Tensor04(0.9 * wedge_gg(g).values, riemann_like=True)
    with pytest.raises(NotQuasiConstant) as err:
        quasi_constant_fit(riemann, g)
    assert err.value.constant_curvature == pytest.approx(0.9, abs=1e-9)
    assert err.value.residual <= 1e-10


def test_quasi_constant_generic_failure_reports_residual():
    rng = np.random.default_rng(68)
    g = Metric(random_spd(rng, 4))
    riemann = Tensor04(random_riemann_like(rng, 4), riemann_like=True)
    with pytest.raises(NotQuasiConstant) as err:
        quasi_constant_fit(riemann, g)
    assert err.value.residual is not None and err.value.residual > 1e-6


def test_quasi_constant_recovery_sweep():
    rng = np.random.default_rng(69)
    for n in (4, 5, 6):
        for _ in range(100):
            g = Metric(random_spd(rng, n))
            a_unit = unit_covector(rng, g)
            a = float(rng.uniform(0.5, 2.5) * rng.choice([-1, 1]))
            b = float(rng.uniform(0.5, 2.5) * rng.choice([-1, 1]))
            riemann = Tensor04(a * wedge_gg(g).values
                               + b * quasi_constant_shape(g, a_unit).values,
                               riemann_like=True)
            fit = quasi_constant_fit(riemann, g)
            assert abs(fit.a - a) <= 1e-9 * (1 + abs(a))
            assert abs(fit.b - b) <= 1e-9 * (1 + abs(b))
            rebuilt = (fit.a * wedge_gg(g).values
                       + fit.b * quasi_constant_shape(g, fit.a_form).values)
            assert max_abs(rebuilt - riemann.values) \
                <= (fit.residual + 1e-12) * (1 + riemann.norm())


# --------------------------------------------------------------------------
# hyper / pseudo fits

def test_hyper_fit_recovers_tracefree_p():
    rng = np.random.default_rng(70)
    g = Metric(random_spd(rng, 4))
    p0 = tracefree(rng.standard_normal((4, 4)), g)
    a0 = 1.3
    riemann = Tensor04(a0 * wedge_gg(g).values + hyper_shape(g, p0).values)
    fit = hyper_quasi_constant_fit(riemann, g)
    assert fit.residual <= 1e-10
    assert abs(fit.a - a0) <= 1e-10 * (1 + abs(a0))
    assert max_abs(fit.p - p0) <= 1e-9
    assert fit.kernel_dim >= 1  # the trace gauge is always null


def test_hyper_fit_gauge_absorption():
    rng = np.random.default_rng(71)
    g = Metric(random_spd(rng, 4))
    a0, c = 0.7, -1.1
    riemann = Tensor04(a0 * wedge_gg(g).values + hyper_shape(g, c * g.mat).values)
    fit = hyper_quasi_constant_fit(riemann, g)
    assert fit.a == pytest.approx(a0 + 2 * c, abs=1e-10)
    assert max_abs(fit.p) <= 1e-10


def test_hyper_fit_zero_input():
    g = Metric(np.eye(4))
    fit = hyper_quasi_constant_fit(Tensor04(np.zeros((4,) * 4)), g)
    assert fit.a == pytest.approx(0.0, abs=1e-12)
    assert max_abs(fit.p) <= 1e-12


def test_hyper_fit_gauge_invariance():
    # inputs differing by the documented gauge shift give identical results
    rng = np.random.default_rng(72)
    g = Metric(random_spd(rng, 5))
    p0 = rng.standard_normal((5, 5))
    r1 = Tensor04(1.1 * wedge_gg(g).values + hyper_shape(g, p0).values)
    r2 = Tensor04((1.1 - 2 * 0.6) * wedge_gg(g).values
                  + hyper_shape(g, p0 + 0.6 * g.mat).values)
    fit1 = hyper_quasi_constant_fit(r1, g)
    fit2 = hyper_quasi_constant_fit(r2, g)
    assert abs(fit1.a - fit2.a) <= 1e-9 * (1 + abs(fit1.a))
    assert max_abs(fit1.p - fit2.p) <= 1e-9 * (1 + max_abs(fit1.p))


def test_pseudo_fit_recovery_and_gauge():
    rng = np.random.default_rng(73)
    g = Metric(random_spd(rng, 4))
    p0 = tracefree(rng.standard_normal((4, 4)), g)
    a0 = -0.9
    riemann = Tensor04(a0 * wedge_gg(g).values + pseudo_shape(g, p0).values)
    fit = pseudo_quasi_constant_fit(riemann, g)
    assert fit.residual <= 1e-10
    assert abs(fit.a - a0) <= 1e-10 * (1 + abs(a0))
    assert max_abs(fit.p - p0) <= 1e-9
    # gauge: P -> P + c g absorbs into a -> a + c
    c = 0.8
    riemann2 = Tensor04((a0 - c) * wedge_gg(g).values
                        + pseudo_shape(g, p0 + c * g.mat).values)
    fit2 = pseudo_quasi_constant_fit(riemann2, g)
    assert abs(fit2.a - fit.a) <= 1e-9 * (1 + abs(fit.a))
    assert max_abs(fit2.p - fit.p) <= 1e-9


def test_pseudo_fit_accepts_generalized_input():
    rng = np.random.default_rng(74)
    g = Metric(random_spd(rng, 4))
    p0 = rng.standard_normal((4, 4))  # non-symmetric: input is not riemann-like
    riemann = Tensor04(pseudo_shape(g, p0).values)
    fit = pseudo_quasi_constant_fit(riemann, g)
    assert fit.residual <= 1e-10
    assert max_abs(fit.p - tracefree(p0, g)) <= 1e-9


def test_hyper_pseudo_recovery_sweep():
    rng = np.random.default_rng(75)
    for n in (4, 5, 6):
        for _ in range(100):
            g = Metric(random_spd(rng, n))
            a0 = float(rng.uniform(-2, 2))
            p0 = tracefree(rng.standard_normal((n, n)), g)
            fit_h = hyper_quasi_constant_fit(
                Tensor04(a0 * wedge_gg(g).values + hyper_shape(g, p0).values), g)
            assert fit_h.residual <= 1e-9
            assert max_abs(fit_h.p - p0) <= 1e-8 * (1 + max_abs(p0))
            fit_p = pseudo_quasi_constant_fit(
                Tensor04(a0 * wedge_gg(g).values + pseudo_shape(g, p0).values), g)
            assert fit_p.residual <= 1e-9
            assert max_abs(fit_p.p - p0) <= 1e-8 * (1 + max_abs(p0))


# --------------------------------------------------------------------------
# conformal flatness + combined report

def test_conformally_flat_check(conformal4, poly3):
    b = conformal4.curvature_bundle((0.3, -0.2, 0.5, 0.1))
    norm, verdict = conformally_flat_check(b)
    assert norm <= 1e-8 * (1 + b.riemann.norm())
    assert verdict
    flat = CurvatureBundle.from_tensors(
        Metric(np.eye(4)), riemann=Tensor04(np.zeros((4,) * 4), riemann_like=True))
    assert conformally_flat_check(flat) == (0.0, True)


@pytest.mark.parametrize("n", [2, 4])
def test_conformally_flat_check_needs_riemann(n):
    bundle = CurvatureBundle.from_tensors(Metric(np.eye(n)), ricci=np.eye(n))
    with pytest.raises(DimensionMismatch):
        conformally_flat_check(bundle)


def test_conformally_flat_generic_failure():
    rng = np.random.default_rng(76)
    g = Metric(random_spd(rng, 4))
    bundle = CurvatureBundle.from_tensors(
        g, riemann=Tensor04(random_riemann_like(rng, 4), riemann_like=True))
    norm, verdict = conformally_flat_check(bundle)
    assert norm > 1e-3
    assert not verdict


def test_classification_report_sphere(sphere3):
    b = sphere3.curvature_bundle((1.0, 0.9, 0.5))
    report = classification_report(b, GenCurvParams(1.0, 1.0), tol=1e-8)
    d = report.to_dict()
    assert d["einstein"]["verdict"] == "pass"
    assert d["quasi_einstein"]["verdict"] == "fail"  # Einstein is excluded
    assert d["generalized_norms"]["quasi_conformal"] <= 1e-9
    assert d["generalized_norms"]["w2"] <= 1e-9
    assert d["hyper_quasi_constant"]["verdict"] == "pass"


def test_classification_report_generic():
    rng = np.random.default_rng(77)
    g = Metric(random_spd(rng, 4))
    bundle = CurvatureBundle.from_tensors(
        g, riemann=Tensor04(random_riemann_like(rng, 4), riemann_like=True))
    d = classification_report(bundle).to_dict()
    assert d["quasi_constant"]["verdict"] == "fail"
    assert "reason" in d["quasi_constant"]
    assert d["hyper_quasi_constant"]["residual"] > 1e-8


# --------------------------------------------------------------------------
# The reduced-row fits against the full n^4-row least squares

# (sign, metric slots, P slots) of each term of the two shapes, as written
# in their docstrings
HYPER_TERMS = ((1, "il", "jk"), (-1, "ik", "jl"), (1, "jk", "il"), (-1, "jl", "ik"))
PSEUDO_TERMS = ((1, "il", "jk"), (-1, "jl", "ik"))


def full_row_fit(rv, g: Metric, terms, gauge_weight):
    """The fit R ~ a * G + shape(P) on all n^4 rows, with the design written
    out entry by entry from the formulas."""
    n = g.n
    gm = g.mat
    design = np.zeros((n ** 4, n * n + 1))
    for row, (i, j, k, l) in enumerate(itertools.product(range(n), repeat=4)):
        at = {"i": i, "j": j, "k": k, "l": l}
        design[row, 0] = gm[j, k] * gm[i, l] - gm[i, k] * gm[j, l]
        for sign, gs, ps in terms:
            design[row, 1 + at[ps[0]] * n + at[ps[1]]] += sign * gm[at[gs[0]], at[gs[1]]]
    sol, _, _, sigma = np.linalg.lstsq(design, rv.ravel(), rcond=1e-10)
    kernel_dim = design.shape[1] - int(np.sum(sigma > 1e-10 * sigma[0]))
    p0 = sol[1:].reshape(n, n)
    trace = float(np.sum(g.inv * p0))
    p_hat = p0 - (trace / n) * gm
    a_hat = sol[0] + gauge_weight * trace / n
    fitted = design @ np.concatenate([[a_hat], p_hat.ravel()])
    residual = np.max(np.abs(rv.ravel() - fitted)) / (1.0 + np.max(np.abs(rv)))
    return a_hat, p_hat, residual, kernel_dim


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("target", ["general", "riemann-like"])
def test_fits_match_full_row_reference(n, target):
    rng = np.random.default_rng(500 + n)
    g = Metric(random_spd(rng, n))
    if target == "general":
        rv = rng.standard_normal((n,) * 4)
    else:
        rv = random_riemann_like(rng, n)
    riemann = Tensor04(rv)
    for fit_fn, terms, weight in ((hyper_quasi_constant_fit, HYPER_TERMS, 2.0),
                                  (pseudo_quasi_constant_fit, PSEUDO_TERMS, 1.0)):
        fit = fit_fn(riemann, g)
        a, p, residual, kernel_dim = full_row_fit(rv, g, terms, weight)
        assert abs(fit.a - a) <= 1e-10 * abs(a)
        assert max_abs(fit.p - p) <= 1e-10 * max_abs(p)
        assert abs(fit.residual - residual) <= 1e-10 * residual
        assert fit.kernel_dim == kernel_dim
