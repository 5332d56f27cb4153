import gc
import itertools
import pathlib

import numpy as np
import pytest

from curvkit import classify, tensor
from curvkit.chart import CurvatureBundle, MetricField
from curvkit.cli import main
from curvkit.classify import (_not_quasi_constant,
                              _quasi_constant_values, _quasi_einstein_values,
                              classification_report,
                              conformally_flat_check,
                              einstein_check, hyper_quasi_constant_fit,
                              pseudo_quasi_constant_fit, quasi_constant_fit,
                              quasi_einstein_decompose)
from curvkit.errors import DimensionMismatch, NotQuasiConstant, NotQuasiEinstein
from curvkit.gencurv import GenCurvParams
from curvkit.manifest import load_manifest
from curvkit.tensor import (_HYPER_TERMS, _PSEUDO_TERMS, Metric, Tensor04, _adjoint_block,
                            _block_weights, _expand_block, _norm_sq_values, hyper_shape, max_abs,
                            pseudo_shape, quasi_constant_shape, ricci_contract,
                            scalar_curvature, wedge_gg)
from curvkit.wrs import recover_one_forms, weak_symmetry_residual
from oracles import random_riemann_like, random_spd

MANIFESTS = pathlib.Path(__file__).parents[1] / "manifests"


def unit_covector(rng, g: Metric) -> np.ndarray:
    w = rng.standard_normal(g.n)
    return w / np.sqrt(float(_norm_sq_values(g.inv, w)))


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


def quasi_einstein_stack(rng, n, count):
    """Metrics and quasi-Einstein forms p*g + q*omega(x)omega, q of either
    sign, a rank-one form among them, stacked."""
    gs = [Metric(random_spd(rng, n)) for _ in range(count)]
    forms = []
    for k, g in enumerate(gs):
        omega = unit_covector(rng, g)
        p = 0.0 if k == 1 else float(rng.uniform(-2, 2))
        q = float(rng.uniform(0.5, 3.0) * rng.choice([-1, 1]))
        forms.append(p * g.mat + q * np.outer(omega, omega))
    return gs, np.array(forms)


def stacked_metrics(gs):
    return np.array([g.mat for g in gs]), np.array([g.inv for g in gs])


@pytest.mark.parametrize("n", [2, 4, 5])
def test_quasi_einstein_core_rows_match_the_public_function(n):
    rng = np.random.default_rng(160 + n)
    gs, s = quasi_einstein_stack(rng, n, 7)
    if n == 2:  # any two distinct eigenvalues have the pattern
        s[3] = random_spd(rng, 2)
    p, q, omega, residual = _quasi_einstein_values(s, *stacked_metrics(gs))
    for k, g in enumerate(gs):
        fit = quasi_einstein_decompose(s[k], g)
        assert (p[k], q[k], residual[k]) == (fit.p, fit.q, fit.residual)
        assert np.array_equal(omega[k], fit.omega)
    if n == 2:
        # both splits qualify with the same separation: the simple
        # eigenvalue is the larger one
        assert (q > 0.0).all()


# at n = 2 every form that is not Einstein has the pattern
@pytest.mark.parametrize("n,kind", [(2, "einstein"), (4, "einstein"), (5, "einstein"),
                                    (4, "no pattern"), (5, "no pattern")])
def test_quasi_einstein_core_raises_for_its_first_failing_row(n, kind):
    rng = np.random.default_rng(170 + n)
    gs, s = quasi_einstein_stack(rng, n, 6)
    for k in (2, 4):  # row 4 fails too, after row 2
        if kind == "einstein":
            s[k] = float(rng.uniform(0.5, 2.0)) * gs[k].mat
        else:
            s[k] = gs[k].mat @ np.diag(np.arange(1.0, n + 1) ** 2) @ gs[k].mat
    with pytest.raises(NotQuasiEinstein) as stacked:
        _quasi_einstein_values(s, *stacked_metrics(gs))
    with pytest.raises(NotQuasiEinstein) as single:
        quasi_einstein_decompose(s[2], gs[2])
    assert stacked.value.item == 2
    assert str(stacked.value) == str(single.value)
    assert stacked.value.residual == single.value.residual
    assert stacked.value.einstein_alpha == single.value.einstein_alpha
    assert (single.value.einstein_alpha is None) == (kind == "no pattern")


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


def quasi_constant_stack(rng, n, count):
    """Metrics and rank-one quasi-constant grids a*G + b*B(A), stacked with
    the metrics' G grids and the grids' Ricci contractions."""
    gs = [Metric(random_spd(rng, n)) for _ in range(count)]
    grids = []
    for g in gs:
        a, b = rng.uniform(0.5, 2.5, 2) * rng.choice([-1, 1], 2)
        grids.append(a * wedge_gg(g).values
                     + b * quasi_constant_shape(g, unit_covector(rng, g)).values)
    wedge = np.array([wedge_gg(g).values for g in gs])
    return gs, np.array(grids), wedge


def quasi_constant_core(gs, rv, tol=1e-8):
    ricci = np.array([ricci_contract(Tensor04(r), g) for r, g in zip(rv, gs)])
    return _quasi_constant_values(rv, *stacked_metrics(gs), ricci, tol)


@pytest.mark.parametrize("n", [4, 5])
def test_quasi_constant_core_rows_match_the_public_function(n):
    rng = np.random.default_rng(180 + n)
    gs, rv, _ = quasi_constant_stack(rng, n, 6)
    a, b, a_form, residual = quasi_constant_core(gs, rv)
    for k, g in enumerate(gs):
        fit = quasi_constant_fit(Tensor04(rv[k]), g)
        assert (a[k], b[k], residual[k]) == (fit.a, fit.b, fit.residual)
        assert np.array_equal(a_form[k], fit.a_form)


MESSAGES = {"constant curvature": "constant curvature",
            "no pattern": "Ricci contraction is not quasi-Einstein",
            "misfit": "least-squares residual"}


@pytest.mark.parametrize("kind", sorted(MESSAGES))
def test_quasi_constant_core_raises_for_its_first_failing_row(kind):
    rng = np.random.default_rng(190)
    gs, rv, wedge = quasi_constant_stack(rng, 4, 6)
    rv[4] = 0.7 * wedge[4]  # a later row fails as well
    if kind == "constant curvature":
        rv[2] = 1.3 * wedge[2]
    elif kind == "no pattern":
        rv[2] = random_riemann_like(rng, 4)
    else:  # the Ricci pattern holds, the grid is off the family
        rv[2] += 1e-6 * hyper_shape(gs[2], np.diag([1.0, -1.0, 0.0, 0.0])).values
    with pytest.raises(NotQuasiConstant) as stacked:
        quasi_constant_core(gs, rv)
    with pytest.raises(NotQuasiConstant) as single:
        quasi_constant_fit(Tensor04(rv[2]), gs[2])
    assert stacked.value.item == 2
    assert str(stacked.value) == str(single.value)
    assert stacked.value.residual == single.value.residual
    assert stacked.value.constant_curvature == single.value.constant_curvature
    assert str(single.value).startswith(MESSAGES[kind])


def test_failing_classifiers_leave_no_reference_cycle():
    # an error that the raising frame keeps in a local variable forms a
    # cycle with that frame through its traceback, and holds the frame's
    # arrays until the garbage collector runs
    g = Metric(np.eye(4))
    riemann = Tensor04(random_riemann_like(np.random.default_rng(191), 4))
    calls = [(quasi_einstein_decompose, (1.5 * g.mat, g), NotQuasiEinstein),
             (quasi_einstein_decompose, (np.diag([1.0, 1.0, 2.0, 3.0]), g), NotQuasiEinstein),
             (quasi_constant_fit, (riemann, g), NotQuasiConstant)]
    gc.collect()
    gc.disable()
    try:
        for fit, args, error in calls:
            try:
                fit(*args)
            except error:
                pass
            else:
                pytest.fail(f"{fit.__name__} raised no {error.__name__}")
        assert gc.collect() == 0
    finally:
        gc.enable()


def dense_field(n: int) -> MetricField:
    """A chart with every upper-triangle entry nonzero, positive definite
    for |x_i| <= 0.5: g_ii = 2 + 0.1 sin(x_{i+1}) x_i^2,
    g_ij = 0.05 x_i cos(x_j)."""
    xs = [f"x{i + 1}" for i in range(n)]
    entries = {(i, i): f"2 + 0.1*sin({xs[(i + 1) % n]})*{xs[i]}^2" for i in range(n)}
    entries.update({(i, j): f"0.05*{xs[i]}*cos({xs[j]})"
                    for i in range(n) for j in range(i + 1, n)})
    return MetricField(xs, entries)


@pytest.mark.parametrize("chart, quasi_einstein", [
    ("dense4", False), ("dense5", False), ("conformal4", True), ("conformal5", True)])
def test_a_chart_point_leaves_no_reference_cycle(request, chart, quasi_einstein):
    # every query of a point, on both outcomes of the quasi-Einstein
    # decomposition: an error kept past its except clause would hold the
    # point's arrays in a cycle until the garbage collector runs
    if chart.startswith("dense"):
        field = dense_field(int(chart[-1]))
        points = [tuple(np.random.default_rng([121, k]).uniform(-0.5, 0.5, field.n))
                  for k in range(3)]
    elif chart == "conformal4":
        field = request.getfixturevalue("conformal4")
        points = [(0.3, -0.2, 0.5, 0.1), (0.1, 0.4, -0.3, 0.2), (-0.2, 0.1, 0.3, 0.4)]
    else:
        field = load_manifest(MANIFESTS / "conformal5.txt").to_field()
        points = [tuple(np.random.default_rng([122, k]).uniform(-1.0, 1.0, 5))
                  for k in range(3)]

    def evaluate(x):
        bundle = field.curvature_bundle(x)
        report = classification_report(bundle)
        forms, _, _ = recover_one_forms(bundle)
        weak_symmetry_residual(field, x, forms)
        return report

    evaluate(points[0])
    gc.collect()
    gc.disable()
    try:
        reports = [evaluate(x) for x in points]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert all((r.quasi_einstein is not None) == quasi_einstein for r in reports)


def quasi_constant_bundles():
    """conformal5 at 10 seeded points, conformal4 at its manifest's point,
    and synthetic a * G + b * B(omega (x) omega) bundles at n = 4, 5, 6."""
    field = load_manifest(MANIFESTS / "conformal5.txt").to_field()
    rng = np.random.default_rng(123)
    for _ in range(10):
        yield field.curvature_bundle(tuple(rng.uniform(-1.0, 1.0, 5)))
    yield load_manifest(MANIFESTS / "conformal4.txt").to_field().curvature_bundle(
        (0.3, -0.2, 0.5, 0.1))
    for n in (4, 5, 6):
        for _ in range(4):
            g = Metric(random_spd(rng, n))
            a, b = rng.uniform(0.5, 2.5, 2) * rng.choice([-1, 1], 2)
            riemann = (a * wedge_gg(g).values
                       + b * quasi_constant_shape(g, unit_covector(rng, g)).values)
            yield CurvatureBundle.from_tensors(g, Tensor04(riemann, riemann_like=True))


def test_the_quasi_constant_fit_reads_the_reports_decomposition():
    # one decomposition per report: the fitted A is its omega, bit for bit
    count = 0
    for bundle in quasi_constant_bundles():
        report = classification_report(bundle)
        assert report.quasi_einstein is not None and report.quasi_constant is not None
        assert report.quasi_constant.a_form.tobytes() == report.quasi_einstein.omega.tobytes()
        count += 1
    assert count == 23


def test_the_reports_quasi_constant_reason_is_its_decompositions():
    rng = np.random.default_rng(124)
    g = Metric(random_spd(rng, 4))
    bundle = CurvatureBundle.from_tensors(
        g, riemann=Tensor04(random_riemann_like(rng, 4), riemann_like=True))
    report = classification_report(bundle)
    assert not report.einstein.ok and report.quasi_einstein is None
    assert report.quasi_constant_error == ("Ricci contraction is not quasi-Einstein: "
                                           + report.quasi_einstein_error)


def test_the_report_keeps_sphere3s_constant_curvature(sphere3):
    bundle = sphere3.curvature_bundle((1.0, 0.9, 0.5))
    report = classification_report(bundle)
    assert report.quasi_constant_error == "constant curvature (the A-block coefficient vanishes)"
    with pytest.raises(NotQuasiEinstein) as qe:
        quasi_einstein_decompose(bundle.ricci, bundle.g)
    with pytest.raises(NotQuasiConstant) as fit:
        quasi_constant_fit(bundle.riemann, bundle.g)
    shared = _not_quasi_constant(qe.value, bundle.riemann.values, bundle.g.mat,
                                 bundle.g.inv, 1e-8)
    assert str(shared) == str(fit.value) == report.quasi_constant_error
    assert (shared.residual, shared.constant_curvature) == (fit.value.residual,
                                                             fit.value.constant_curvature)


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


def test_classification_report_needs_riemann():
    # from_tensors allows a bundle of Ricci data alone; the report refuses
    # it before any fit reads the missing (0,4) tensor
    bundle = CurvatureBundle.from_tensors(Metric(np.eye(4)), ricci=np.diag([1, 1, 1, 2]))
    with pytest.raises(DimensionMismatch, match="no \\(0,4\\) curvature tensor"):
        classification_report(bundle)


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
# The closed-form fits against a dense least-squares fit in the g-norm

# (sign, metric slots, P slots) of each term of the two shapes, as written
# in their docstrings
HYPER_TERMS = ((1, "il", "jk"), (-1, "ik", "jl"), (1, "jk", "il"), (-1, "jl", "ik"))
PSEUDO_TERMS = ((1, "il", "jk"), (-1, "jl", "ik"))


def each_slot(m, x, slots):
    """x with each of its first `slots` slots contracted with m,
    x'[a, ...] = m[a, i] x[i, ...], one slot at a time."""
    for axis in range(slots):
        x = np.moveaxis(np.tensordot(m, x, axes=(1, axis)), 0, axis)
    return x


def full_row_fit(rv, g: Metric, terms, gauge_weight):
    """The fit R ~ a * G + shape(P) in the g-norm, densely: the design on
    all n^4 rows written out entry by entry from the formulas, then rows and
    grid whitened into the Cholesky frame of g, where the g-norm is the
    Frobenius norm, and the unknowns P = L Q L^T taken as the frame
    components Q, so that the minimum-norm solution is minimal in the g-norm
    too.  Returns a, P in the trace-free gauge, the coordinate max-norm
    residual and the design's rank deficit."""
    n = g.n
    gm = g.mat
    design = np.zeros((n ** 4, n * n + 1))
    for row, (i, j, k, l) in enumerate(itertools.product(range(n), repeat=4)):
        at = {"i": i, "j": j, "k": k, "l": l}
        design[row, 0] = gm[j, k] * gm[i, l] - gm[i, k] * gm[j, l]
        for sign, gs, ps in terms:
            design[row, 1 + at[ps[0]] * n + at[ps[1]]] += sign * gm[at[gs[0]], at[gs[1]]]
    chol = np.linalg.cholesky(gm)
    linv = np.linalg.inv(chol)
    columns = np.zeros((n * n + 1,) * 2)
    columns[0, 0] = 1.0
    columns[1:, 1:] = np.kron(chol, chol)  # vec(P) = kron(L, L) vec(Q), row-major
    # the components in the g-orthonormal frame e'_a = linv[a, i] e_i
    whitened = each_slot(linv, design.reshape((n,) * 4 + (-1,)), 4).reshape(n ** 4, -1) @ columns
    sol, _, rank, _ = np.linalg.lstsq(whitened, each_slot(linv, rv, 4).ravel(), rcond=1e-10)
    p0 = chol @ sol[1:].reshape(n, n) @ chol.T
    trace = float(np.sum(g.inv * p0))
    p_hat = p0 - (trace / n) * gm
    a_hat = sol[0] + gauge_weight * trace / n
    fitted = design @ np.concatenate([[a_hat], p_hat.ravel()])
    residual = np.max(np.abs(rv.ravel() - fitted)) / (1.0 + np.max(np.abs(rv)))
    return a_hat, p_hat, residual, design.shape[1] - rank


def assert_fits_match_reference(rv, g: Metric):
    """Both fits against `full_row_fit`, with an absolute floor for targets
    the fit reproduces (residual and coefficients at rounding level)."""
    riemann = Tensor04(rv)
    scale = 1.0 + max_abs(rv)
    for fit_fn, terms, weight in ((hyper_quasi_constant_fit, HYPER_TERMS, 2.0),
                                  (pseudo_quasi_constant_fit, PSEUDO_TERMS, 1.0)):
        fit = fit_fn(riemann, g)
        a, p, residual, kernel_dim = full_row_fit(rv, g, terms, weight)
        assert abs(fit.a - a) <= 1e-10 * (abs(a) + scale)
        assert max_abs(fit.p - p) <= 1e-10 * (max_abs(p) + scale)
        assert abs(fit.residual - residual) <= 1e-10 * residual + 1e-14
        assert fit.kernel_dim == kernel_dim


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("target", ["general", "riemann-like"])
def test_fits_match_full_row_reference(n, target):
    rng = np.random.default_rng(500 + n)
    g = Metric(random_spd(rng, n))
    if target == "general":
        rv = rng.standard_normal((n,) * 4)
    else:
        rv = random_riemann_like(rng, n)
    assert_fits_match_reference(rv, g)


@pytest.mark.parametrize("n", range(2, 9))
def test_fits_match_reference_at_identity_metric(n):
    # at g = I the g-norm is the Frobenius norm of the components
    rng = np.random.default_rng(520 + n)
    g = Metric(np.eye(n))
    assert_fits_match_reference(rng.standard_normal((n,) * 4), g)
    assert_fits_match_reference(random_riemann_like(rng, n), g)


@pytest.mark.parametrize("name", ["euclid3", "conformal4"])
def test_fits_match_reference_on_golden_metrics(name, request):
    # both golden metrics are multiples of the identity at their points
    field = request.getfixturevalue(name)
    point = {"euclid3": (0.3, -0.7, 1.1), "conformal4": (0.3, -0.2, 0.5, 0.1)}[name]
    bundle = field.curvature_bundle(point)
    n = bundle.n
    assert_fits_match_reference(bundle.riemann.values, bundle.g)
    rng = np.random.default_rng(530 + n)
    assert_fits_match_reference(rng.standard_normal((n,) * 4), bundle.g)


@pytest.mark.parametrize("n", range(2, 9))
def test_fits_reproduce_exact_targets(n):
    """R = a*G + shape(P) for a random P is fitted with zero residual, and
    (a, P) come back in the trace-free gauge wherever the gauge is the only
    null direction."""
    rng = np.random.default_rng(540 + n)
    g = Metric(random_spd(rng, n))
    p = rng.standard_normal((n, n))
    a = 0.7
    trace = float(np.sum(g.inv * p))
    for fit_fn, shape_fn, weight in ((hyper_quasi_constant_fit, hyper_shape, 2.0),
                                     (pseudo_quasi_constant_fit, pseudo_shape, 1.0)):
        rv = a * wedge_gg(g).values + shape_fn(g, p).values
        fit = fit_fn(Tensor04(rv), g)
        assert fit.residual <= 1e-13
        if fit.kernel_dim == 1:
            assert abs(fit.a - (a + weight * trace / n)) <= 1e-11
            assert max_abs(fit.p - (p - (trace / n) * g.mat)) <= 1e-11


def test_sphere2_hyper_kernel(sphere2):
    # at n = 2 the hyper block of P is tr_g(P) * G: every trace-free P is
    # null, with the gauge four null directions, and the minimum-norm P is 0
    bundle = sphere2.curvature_bundle((1.0471975511965976, 0.2))
    fit = hyper_quasi_constant_fit(bundle.riemann, bundle.g)
    assert fit.kernel_dim == 4
    assert fit.residual <= 1e-14
    assert max_abs(fit.p) == 0.0


def g_inner(x, z, ginv):
    """<X, Z>_g of two grids or two bilinears: every slot pair contracted
    with ginv."""
    return float(np.sum(each_slot(ginv, x, x.ndim) * z))


@pytest.mark.parametrize("n", range(2, 7))
def test_the_adjoint_block_is_the_g_adjoint(n):
    rng = np.random.default_rng(545 + n)
    g = Metric(random_spd(rng, n))
    rv, p = rng.standard_normal((n,) * 4), rng.standard_normal((n, n))
    for terms in (_PSEUDO_TERMS, _HYPER_TERMS):
        lhs = g_inner(rv, _expand_block(terms, g.mat, p), g.inv)
        rhs = g_inner(_adjoint_block(terms, g.inv, rv), p, g.inv)
        assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_normal_weights_are_the_normal_operator(n):
    """B*B(P) = lam * P + mu * tr_g(P) * g for every bilinear P at every g,
    with hyper (4(n-2), 4) and pseudo (2(n-1), 0)."""
    rng = np.random.default_rng(550 + n)
    g = Metric(random_spd(rng, n))
    p = rng.standard_normal((n, n))
    for terms, weights in ((_HYPER_TERMS, (4 * (n - 2), 4)), (_PSEUDO_TERMS, (2 * (n - 1), 0))):
        assert _block_weights(terms, n, normal=True) == weights
        lam, mu = weights
        normal = _adjoint_block(terms, g.inv, _expand_block(terms, g.mat, p))
        want = lam * p + mu * float(np.sum(g.inv * p)) * g.mat
        assert max_abs(normal - want) <= 1e-12 * (1 + max_abs(want))


@pytest.mark.parametrize("n", range(2, 9))
def test_fits_of_a_curvature_tensor_take_the_textbook_forms(n):
    """On a curvature tensor both fits give a = r / (n(n-1)), and P the
    trace-free Ricci tensor over n - 2 (hyper, 0 at n = 2) or n - 1
    (pseudo)."""
    rng = np.random.default_rng(555 + n)
    for _ in range(3):
        g = Metric(random_spd(rng, n))
        riemann = Tensor04(random_riemann_like(rng, n), riemann_like=True)
        s = ricci_contract(riemann, g)
        r = scalar_curvature(s, g)
        tracefree_s = s - (r / n) * g.mat
        scale = 1.0 + max_abs(s)
        for fit_fn, divisor in ((hyper_quasi_constant_fit, n - 2),
                                (pseudo_quasi_constant_fit, n - 1)):
            fit = fit_fn(riemann, g)
            assert fit.a == pytest.approx(r / (n * (n - 1)), rel=1e-12, abs=1e-14 * scale)
            want = tracefree_s / divisor if divisor else np.zeros((n, n))
            assert max_abs(fit.p - want) <= 1e-12 * scale


def random_congruence(rng, n):
    """A = I + 0.3 N(0, 1), redrawn until cond(A) <= 100."""
    while True:
        a = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if np.linalg.cond(a) <= 100:
            return a


def congruent(a, g: Metric, rv):
    """(A^T g A, R(A., A., A., A.)): the same metric and grid in the frame
    whose vectors are the columns of A."""
    return Metric(a.T @ g.mat @ a), np.einsum("ia,jb,kc,ld,ijkl->abcd", a, a, a, a, rv)


def weyl_part(rv, g: Metric):
    """The trace-free part of a curvature grid, R - KN(S, g) / (n - 2)
    + r / ((n-1)(n-2)) G, whose Ricci contraction vanishes."""
    n = g.n
    s = ricci_contract(Tensor04(rv), g)
    r = scalar_curvature(s, g)
    return (rv - hyper_shape(g, s).values / (n - 2)
            + r / ((n - 1) * (n - 2)) * wedge_gg(g).values)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_fits_do_not_depend_on_the_frame(n):
    """The fits of (A^T g A, A^4 R) give the same a (and b), and P -> A^T P A
    (A -> A^T A for the 1-form): the fits minimize the g-norm, which no
    change of frame moves."""
    rng = np.random.default_rng(560 + n)
    for _ in range(3):
        g = Metric(random_spd(rng, n))
        a = random_congruence(rng, n)
        for rv in (rng.standard_normal((n,) * 4), random_riemann_like(rng, n)):
            g2, rv2 = congruent(a, g, rv)
            for fit_fn in (hyper_quasi_constant_fit, pseudo_quasi_constant_fit):
                fit, fit2 = fit_fn(Tensor04(rv), g), fit_fn(Tensor04(rv2), g2)
                assert abs(fit2.a - fit.a) <= 1e-9 * (1 + abs(fit.a))
                moved = a.T @ fit.p @ a
                assert max_abs(fit2.p - moved) <= 1e-9 * (1 + max_abs(moved))
                assert fit2.kernel_dim == fit.kernel_dim
        if n < 4:
            continue
        # a quasi-constant grid plus a Weyl part, which keeps its Ricci
        # contraction quasi-Einstein and leaves the fit a residual to spread
        omega = unit_covector(rng, g)
        rv = (0.8 * wedge_gg(g).values + 1.7 * quasi_constant_shape(g, omega).values
              + 0.5 * weyl_part(random_riemann_like(rng, n), g))
        g2, rv2 = congruent(a, g, rv)
        fit = quasi_constant_fit(Tensor04(rv), g, tol=1.0)
        fit2 = quasi_constant_fit(Tensor04(rv2), g2, tol=1.0)
        assert fit.residual > 1e-3
        for got, want in ((fit2.a, fit.a), (fit2.b, fit.b)):
            assert abs(got - want) <= 1e-9 * (1 + abs(want))
        moved = a.T @ fit.a_form
        assert min(max_abs(fit2.a_form - moved), max_abs(fit2.a_form + moved)) <= 1e-9


def _unreachable(*args, **kwargs):
    raise AssertionError("a system reached np.linalg.lstsq")


def test_the_shape_fits_solve_no_system(monkeypatch, sphere3, conformal4):
    # the hyper and pseudo fits are closed forms, and a report's only SVD is
    # the quasi-constant fit's 2 x 2 normal equations
    shapes = []
    svd = np.linalg.svd

    def recording(design, *args, **kwargs):
        shapes.append(design.shape)
        return svd(design, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    monkeypatch.setattr(np.linalg, "lstsq", _unreachable)
    rng = np.random.default_rng(565)
    for n in range(2, 9):
        g = Metric(random_spd(rng, n))
        riemann = Tensor04(rng.standard_normal((n,) * 4))
        hyper_quasi_constant_fit(riemann, g)
        pseudo_quasi_constant_fit(riemann, g)
    assert shapes == []
    # sphere3 is not quasi-Einstein, so it reaches no quasi-constant fit
    for field, point, solves in ((sphere3, (1.0, 0.9, 0.5), []),
                                 (conformal4, (0.3, -0.2, 0.5, 0.1), [(2, 2)])):
        report = classification_report(field.curvature_bundle(point))
        assert (report.quasi_constant is not None) == bool(solves)
        assert shapes == solves
        shapes.clear()


def test_every_solve_applies_the_one_rank_cut(monkeypatch, capsys):
    # verify's fixed points and quasi-constant fits, and classify's
    # quasi-constant fit, solve through tensor._lstsq_kernel, whose one cut
    # is tensor._kernel_rule's
    columns, solves = [], []
    rule, svd = tensor._kernel_rule, np.linalg.svd

    def recording(sigma, width):
        columns.append(width)
        return rule(sigma, width)

    def solving(*args, **kwargs):
        solves.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(tensor, "_kernel_rule", recording)
    monkeypatch.setattr(np.linalg, "svd", solving)
    monkeypatch.setattr(np.linalg, "lstsq", _unreachable)
    assert main(["verify", "--section", "all", "--n", "4", "--trials", "5"]) == 0
    capsys.readouterr()
    verify_calls = len(columns)
    for path in sorted(pathlib.Path(__file__).parent.parent.glob("manifests/*.txt")):
        manifest = load_manifest(path)
        classification_report(manifest.to_field().curvature_bundle(manifest.points[0]))
    assert 0 < verify_calls < len(columns) == len(solves)


def test_quasi_constant_report_builds_one_weyl_grid(monkeypatch):
    rng = np.random.default_rng(88)
    g = Metric(random_spd(rng, 5))
    riemann = Tensor04(2.0 * wedge_gg(g).values
                       + 5.0 * quasi_constant_shape(g, unit_covector(rng, g)).values,
                       riemann_like=True)
    kinds = []
    combined_values = classify._combined_values

    def recording(kind, *args, **kwargs):
        kinds.append(kind)
        return combined_values(kind, *args, **kwargs)

    monkeypatch.setattr(classify, "_combined_values", recording)
    report = classification_report(CurvatureBundle.from_tensors(g, riemann=riemann))
    assert report.quasi_constant is not None
    assert kinds.count("weyl") == 1
