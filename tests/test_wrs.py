import dataclasses
import pathlib

import numpy as np
import pytest

from conftest import GOLDEN
from curvkit.chart import CurvatureBundle, MetricField
from curvkit.errors import (DegenerateRicci, DimensionMismatch, DomainError,
                            ZeroScalarCurvature)
from curvkit.gencurv import GenCurvParams
from curvkit.manifest import load_manifest
from curvkit.tensor import Metric, Tensor04, max_abs
from curvkit.wrs import (OneFormSystem, a_from_bd, check_dr_identity,
                         recover_one_forms, t_identities,
                         weak_symmetry_residual,
                         weak_symmetry_residual_tensors, wrs_residual,
                         ws_to_wrs_condition)
from oracles import random_riemann_like, random_spd

MANIFESTS = pathlib.Path(__file__).parents[1] / "manifests"


def synthetic_bundle(g, s, forms=None, nabla=None, riemann=None, r=None, dr=None):
    return CurvatureBundle.from_tensors(g, riemann=riemann, ricci=s, r=r,
                                        nabla_ricci=nabla, dr=dr)


def rhs_of_decomposition(forms: OneFormSystem, s: np.ndarray) -> np.ndarray:
    return (np.einsum("i,jk->ijk", forms.a, s)
            + np.einsum("j,ik->ijk", forms.b, s)
            + np.einsum("k,ij->ijk", forms.d, s))


# --------------------------------------------------------------------------
# OneFormSystem

def test_one_form_system_basics():
    forms = OneFormSystem(a=[1.0, 0.0], b=[2.0, 1.0], d=[0.5, 1.0])
    assert forms.n == 2
    assert np.allclose(forms.t, [1.5, 0.0])


def test_one_form_system_holds_a_b_d():
    # the curvature-level condition reuses b and d; no other form is stored
    forms = OneFormSystem(a=[1.0, 2.0], b=[3.0, 4.0], d=[5.0, 6.0])
    assert [f.name for f in dataclasses.fields(forms)] == ["a", "b", "d"]
    assert not forms.b.flags.writeable


def test_one_form_system_leaves_the_callers_arrays_writable():
    w = np.array([0.5, 2.0, 3.0])
    forms = OneFormSystem(a=w, b=w, d=w)
    w[0] = 1.0
    assert forms.a[0] == forms.b[0] == forms.d[0] == 0.5
    assert not forms.a.flags.writeable


def test_one_form_length_mismatch():
    with pytest.raises(DimensionMismatch):
        OneFormSystem(a=[1.0, 2.0], b=[1.0], d=[1.0, 2.0])


# --------------------------------------------------------------------------
# wrs_residual

def test_wrs_residual_sphere_zero_forms(sphere2):
    import math
    bundle = sphere2.curvature_bundle((math.pi / 3, 0.1))
    forms = OneFormSystem(a=np.zeros(2), b=np.zeros(2), d=np.zeros(2))
    assert wrs_residual(bundle, forms) <= 1e-12


def test_wrs_residual_synthetic_construction():
    rng = np.random.default_rng(40)
    n = 4
    g = Metric(random_spd(rng, n))
    s = rng.standard_normal((n, n))
    s = 0.5 * (s + s.T) + n * np.eye(n)
    b_form = rng.standard_normal(n)
    forms = OneFormSystem(a=rng.standard_normal(n), b=b_form, d=b_form)
    nabla = rhs_of_decomposition(forms, s)
    bundle = synthetic_bundle(g, s, nabla=nabla)
    assert wrs_residual(bundle, forms) == 0.0


def test_wrs_residual_symmetry_obstruction():
    # with b != d and S generic, the symmetrized right side cannot satisfy the
    # raw decomposition; the defect is exactly half the exchange identity
    rng = np.random.default_rng(41)
    n = 4
    g = Metric(random_spd(rng, n))
    s = rng.standard_normal((n, n))
    s = 0.5 * (s + s.T) + n * np.eye(n)
    forms = OneFormSystem(a=rng.standard_normal(n), b=rng.standard_normal(n),
                          d=rng.standard_normal(n))
    rhs = rhs_of_decomposition(forms, s)
    nabla = 0.5 * (rhs + rhs.transpose(0, 2, 1))  # a genuine nabla S is symmetric
    bundle = synthetic_bundle(g, s, nabla=nabla)
    res = wrs_residual(bundle, forms)
    assert res > 1e-3
    t = forms.t
    defect = 0.5 * max_abs(np.einsum("j,ik->ijk", t, s)
                           - np.einsum("k,ij->ijk", t, s))
    assert res == pytest.approx(defect / (1.0 + max_abs(nabla)), rel=1e-12)


def test_symmetrization_defect_identity():
    # antisymmetric part of the decomposition's right side in (j,k) equals
    # (t_j S_ik - t_k S_ij) / 2 for any forms and symmetric S
    rng = np.random.default_rng(42)
    n = 5
    s = rng.standard_normal((n, n))
    s = 0.5 * (s + s.T)
    forms = OneFormSystem(a=rng.standard_normal(n), b=rng.standard_normal(n),
                          d=rng.standard_normal(n))
    rhs = rhs_of_decomposition(forms, s)
    antisym = 0.5 * (rhs - rhs.transpose(0, 2, 1))
    t = forms.t
    expected = 0.5 * (np.einsum("j,ik->ijk", t, s) - np.einsum("k,ij->ijk", t, s))
    assert max_abs(antisym - expected) <= 1e-13 * (1 + max_abs(expected))


# --------------------------------------------------------------------------
# weak_symmetry_residual

def test_weak_symmetry_sphere_zero_forms(sphere2):
    forms = OneFormSystem(a=np.zeros(2), b=np.zeros(2), d=np.zeros(2))
    assert weak_symmetry_residual(sphere2, (0.8, 0.4), forms) <= 1e-10


def test_weak_symmetry_synthetic_construction():
    rng = np.random.default_rng(43)
    n = 4
    rb = random_riemann_like(rng, n)
    a, b, d = (rng.standard_normal(n) for _ in range(3))
    forms = OneFormSystem(a=a, b=b, d=d)
    # the reduced condition: the forms on the third and fifth slots repeat b, d
    nabla = (np.einsum("m,ijkl->mijkl", a, rb)
             + np.einsum("i,mjkl->mijkl", b, rb)
             + np.einsum("j,imkl->mijkl", b, rb)
             + np.einsum("k,ijml->mijkl", d, rb)
             + np.einsum("l,ijkm->mijkl", d, rb))
    assert weak_symmetry_residual_tensors(nabla, rb, forms) == 0.0


def test_weak_symmetry_random_forms_positive(sphere2):
    rng = np.random.default_rng(44)
    forms = OneFormSystem(a=rng.standard_normal(2), b=rng.standard_normal(2),
                          d=rng.standard_normal(2))
    res = weak_symmetry_residual(sphere2, (0.8, 0.4), forms)
    assert res > 1e-3  # reported, not an error


@pytest.mark.parametrize("name, point", [
    ("sphere2", (1.05, 0.4)), ("sphere3", (1.0, 0.9, 0.5)),
    ("conformal4", (0.3, -0.2, 0.5, 0.1)), ("poly3", (0.4, 0.7, -0.3)),
    ("euclid3", (0.1, 0.2, 0.3))])
def test_weak_symmetry_equals_separate_chart_queries(name, point):
    # one evaluation of the chart gives bit for bit what nabla_riemann and
    # curvature_bundle give when queried separately
    field = MetricField(*GOLDEN[name])
    rng = np.random.default_rng(45)
    n = field.n
    forms = OneFormSystem(a=rng.standard_normal(n), b=rng.standard_normal(n),
                          d=rng.standard_normal(n))
    separate = weak_symmetry_residual_tensors(
        field.nabla_riemann(point), field.curvature_bundle(point).riemann.values,
        forms)
    assert weak_symmetry_residual(field, point, forms) == separate


def test_weak_symmetry_domain_error():
    field = MetricField(["x", "y"], {(0, 0): "1 + x^2.5", (1, 1): "1"})
    forms = OneFormSystem(a=np.ones(2), b=np.ones(2), d=np.ones(2))
    with pytest.raises(DomainError):
        weak_symmetry_residual(field, (0.0, 0.3), forms)


# --------------------------------------------------------------------------
# ws_to_wrs_condition

def test_ws_to_wrs_trivial_zero_forms_and_flat():
    n = 3
    g = Metric(np.eye(n))
    rb = Tensor04(np.zeros((n,) * 4), riemann_like=True)
    bundle = synthetic_bundle(g, np.zeros((n, n)), riemann=rb)
    forms0 = OneFormSystem(a=np.zeros(n), b=np.zeros(n), d=np.zeros(n))
    assert ws_to_wrs_condition(bundle, forms0) == 0.0
    some = OneFormSystem(a=np.zeros(n), b=np.ones(n), d=np.ones(n))
    assert ws_to_wrs_condition(bundle, some) == 0.0


def test_ws_to_wrs_sphere_loop_oracle(sphere2):
    import math
    bundle = sphere2.curvature_bundle((math.pi / 4, 1.0))
    n = 2
    e1 = np.array([1.0, 0.0])
    forms = OneFormSystem(a=np.zeros(n), b=e1, d=e1)
    res = ws_to_wrs_condition(bundle, forms)
    # loop oracle: max over (i,j,k) of |R(i,j,k,.)b# + R(i,k,j,.)d#|
    rb = bundle.riemann.values
    bs = bundle.g.inv @ e1
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = 0.0
                for l in range(n):
                    acc += rb[i, j, k, l] * bs[l] + rb[i, k, j, l] * bs[l]
                worst = max(worst, abs(acc))
    assert res == pytest.approx(worst, rel=1e-12)
    assert res > 0.1  # the sphere is not this kind of degenerate


# --------------------------------------------------------------------------
# dr identity and the closed form for the first form

def test_check_dr_identity_sphere_zero_forms(sphere3):
    bundle = sphere3.curvature_bundle((1.0, 0.9, 0.5))
    forms = OneFormSystem(a=np.zeros(3), b=np.zeros(3), d=np.zeros(3))
    assert check_dr_identity(bundle, forms) <= 1e-10


def test_check_dr_identity_synthetic_closed_form():
    rng = np.random.default_rng(45)
    n = 4
    g = Metric(random_spd(rng, n))
    s = rng.standard_normal((n, n))
    s = 0.5 * (s + s.T) + n * np.eye(n)
    bundle = synthetic_bundle(g, s, dr=np.zeros(n))  # constant nonzero r
    b_form = rng.standard_normal(n)
    d_form = rng.standard_normal(n)
    a_form = a_from_bd(bundle, b_form, d_form)
    forms = OneFormSystem(a=a_form, b=b_form, d=d_form)
    assert check_dr_identity(bundle, forms) <= 1e-12 * (1 + abs(bundle.r))
    # random first form instead: residual strictly positive
    bad = OneFormSystem(a=rng.standard_normal(n), b=b_form, d=d_form)
    assert check_dr_identity(bundle, bad) > 1e-3


def test_a_from_bd_trivial_and_einstein():
    rng = np.random.default_rng(46)
    n = 4
    g = Metric(random_spd(rng, n))
    r = 6.0
    s = (r / n) * g.mat
    bundle = synthetic_bundle(g, s)
    assert max_abs(a_from_bd(bundle, np.zeros(n), np.zeros(n))) == 0.0
    b_form = rng.standard_normal(n)
    # Einstein: Q = (r/n) id, so a = -(1/n)(b + d) = -(2/n) b when b = d
    a_form = a_from_bd(bundle, b_form, b_form)
    assert max_abs(a_form + (2.0 / n) * b_form) <= 1e-12


def test_a_from_bd_zero_scalar_curvature_guard():
    n = 3
    g = Metric(np.eye(n))
    s = np.diag([1.0, -1.0, 0.0])  # traceless
    bundle = synthetic_bundle(g, s)
    with pytest.raises(ZeroScalarCurvature):
        a_from_bd(bundle, np.ones(n), np.ones(n))


@pytest.mark.parametrize("b_shape,d_shape", [((3,), (4,)), ((4,), (5,)), ((4, 1), (4,))])
def test_a_from_bd_refuses_wrong_shape_forms(b_shape, d_shape):
    n = 4
    bundle = synthetic_bundle(Metric(np.eye(n)), np.diag([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(DimensionMismatch, match=r"1-form must have shape \(4,\)"):
        a_from_bd(bundle, np.ones(b_shape), np.ones(d_shape))


# --------------------------------------------------------------------------
# T identities

def test_t_identities_zero_t():
    rng = np.random.default_rng(47)
    n = 4
    g = Metric(random_spd(rng, n))
    s = 0.5 * (lambda m: m + m.T)(rng.standard_normal((n, n)))
    b_form = rng.standard_normal(n)
    forms = OneFormSystem(a=rng.standard_normal(n), b=b_form, d=b_form)
    bundle = synthetic_bundle(g, s)
    assert t_identities(bundle, forms) == (0.0, 0.0)


def test_t_identities_rank_one_ricci():
    rng = np.random.default_rng(48)
    n = 5
    g = Metric(random_spd(rng, n))
    t = rng.standard_normal(n)
    c = 1.7
    s = c * np.outer(t, t)
    bundle = synthetic_bundle(g, s)
    forms = OneFormSystem(a=np.zeros(n), b=t, d=np.zeros(n))
    res_tq, res_ts = t_identities(bundle, forms)
    scale = max_abs(s) * (1 + max_abs(t))
    assert res_tq <= 1e-12 * scale
    assert res_ts <= 1e-12 * scale
    # r = c * |t|_g^2 for the rank-one Ricci model
    assert bundle.r == pytest.approx(c * float(t @ g.inv @ t), rel=1e-12)


def test_t_identities_identity_ricci_pattern():
    # S = g: Q = id, so res_tq = |1 - r| * max|t|; the exchange residual is
    # max |t_j d_ik - t_k d_ij| = max|t| (it vanishes only for t = 0: contracting
    # t_j g_ik = t_k g_ij with the inverse metric forces (n-1) t = 0)
    n = 3
    g = Metric(np.eye(n))
    s = np.eye(n)
    bundle = synthetic_bundle(g, s)  # r = n
    t = np.array([2.0, -1.0, 0.5])
    forms = OneFormSystem(a=np.zeros(n), b=t, d=np.zeros(n))
    res_tq, res_ts = t_identities(bundle, forms)
    assert res_tq == pytest.approx(abs(1.0 - bundle.r) * max_abs(t), rel=1e-12)
    assert res_ts == pytest.approx(max_abs(t), rel=1e-14)


# --------------------------------------------------------------------------
# recover_one_forms

def test_recover_zero_nabla_gives_zero_forms():
    rng = np.random.default_rng(49)
    n = 4
    g = Metric(random_spd(rng, n))
    s = 0.5 * (lambda m: m + m.T)(rng.standard_normal((n, n))) + n * np.eye(n)
    bundle = synthetic_bundle(g, s, nabla=np.zeros((n, n, n)))
    forms, residual, kernel = recover_one_forms(bundle)
    assert max_abs(forms.a) <= 1e-12
    assert max_abs(forms.b) <= 1e-12
    assert max_abs(forms.d) <= 1e-12
    assert residual <= 1e-12
    assert kernel == 0  # full-rank S with distinct eigenvalues determines all forms


def test_recover_synthetic_forms():
    rng = np.random.default_rng(50)
    n = 5
    g = Metric(random_spd(rng, n))
    s = 0.5 * (lambda m: m + m.T)(rng.standard_normal((n, n))) + np.diag(
        np.linspace(n, 2 * n, n))  # distinct eigenvalues
    b_form = rng.standard_normal(n)
    truth = OneFormSystem(a=rng.standard_normal(n), b=b_form, d=b_form)
    nabla = rhs_of_decomposition(truth, s)
    bundle = synthetic_bundle(g, s, nabla=nabla)
    forms, residual, kernel = recover_one_forms(bundle)
    assert residual <= 1e-9
    if kernel == 0:
        assert max_abs(forms.a - truth.a) <= 1e-9
        assert max_abs(forms.b - truth.b) <= 1e-9
        assert max_abs(forms.d - truth.d) <= 1e-9
    # in all cases the recovered forms reproduce nabla S
    assert max_abs(rhs_of_decomposition(forms, s) - nabla) <= 1e-9 * (1 + max_abs(nabla))


def test_recover_rank_one_reports_kernel():
    rng = np.random.default_rng(51)
    n = 4
    g = Metric(random_spd(rng, n))
    t = rng.standard_normal(n)
    s = 2.0 * np.outer(t, t)
    truth = OneFormSystem(a=rng.standard_normal(n), b=rng.standard_normal(n),
                          d=rng.standard_normal(n))
    nabla = rhs_of_decomposition(truth, s)
    bundle = synthetic_bundle(g, s, nabla=nabla)
    forms, residual, kernel = recover_one_forms(bundle)
    assert residual <= 1e-9
    assert kernel >= 2  # (a,b,d) -> (a + x t, b + y t, d + z t), x+y+z = 0
    assert max_abs(rhs_of_decomposition(forms, s) - nabla) <= 1e-9 * (1 + max_abs(nabla))


def test_recover_degenerate_ricci():
    n = 3
    g = Metric(np.eye(n))
    bundle = synthetic_bundle(g, np.zeros((n, n)), nabla=np.zeros((n, n, n)))
    with pytest.raises(DegenerateRicci):
        recover_one_forms(bundle)


def test_recovery_residual_idempotent():
    # the reported residual IS wrs_residual of the recovered forms (bit-equal),
    # on a random bundle and at the first point of each manifest but the flat
    # one, whose S = 0 recovery refuses
    rng = np.random.default_rng(52)
    n = 4
    g = Metric(random_spd(rng, n))
    s = 0.5 * (lambda m: m + m.T)(rng.standard_normal((n, n))) + n * np.eye(n)
    nabla = rng.standard_normal((n, n, n))
    nabla = 0.5 * (nabla + nabla.transpose(0, 2, 1))
    bundles = [synthetic_bundle(g, s, nabla=nabla)]
    for path in sorted(MANIFESTS.glob("*.txt")):
        if path.stem != "euclidean3":
            manifest = load_manifest(path)
            bundles.append(manifest.to_field().curvature_bundle(manifest.points[0]))
    assert len(bundles) == 6
    for bundle in bundles:
        forms, residual, _ = recover_one_forms(bundle)
        assert residual == wrs_residual(bundle, forms)


# --------------------------------------------------------------------------
# A chart whose forms are known in closed form

def _exponential_conformal_chart(seed, n):
    """g = exp(2 w.x) * B as entry text, with w, B and a point drawn from the
    seed: B = M^T M + n I is constant and positive definite.  A conformal
    factor exp(2f) of a flat metric with f = w.x linear is weakly Ricci
    symmetric with a = -2w and b = d = -w in chart coordinates, and its
    Ricci tensor is quasi-Einstein along omega = +-w / |w|_g."""
    rng = np.random.default_rng([seed, n])
    w = rng.uniform(-0.6, 0.6, n)
    m = rng.standard_normal((n, n))
    b = m.T @ m + n * np.eye(n)
    coords = [f"x{i}" for i in range(1, n + 1)]
    factor = "exp(2*(" + " + ".join(f"({float(wi)!r})*{c}"
                                    for wi, c in zip(w, coords)) + "))"
    entries = {(i, j): f"({float(b[i, j])!r})*{factor}"
               for i in range(n) for j in range(i, n)}
    return coords, entries, tuple(rng.uniform(-0.5, 0.5, n)), w


@pytest.mark.parametrize("n", [4, 5, 6, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_recovery_on_an_exponential_conformal_chart(n, seed):
    from curvkit.classify import classification_report
    coords, entries, point, w = _exponential_conformal_chart(seed, n)
    bundle = MetricField(coords, entries).curvature_bundle(point)
    forms, residual, kernel = recover_one_forms(bundle)
    assert kernel == 0
    assert residual <= 1e-13
    tol = 1e-12 * (1.0 + max_abs(w))
    assert max_abs(forms.a + 2.0 * w) <= tol
    assert max_abs(forms.b + w) <= tol
    assert max_abs(forms.d + w) <= tol
    report = classification_report(bundle)
    verdicts = {name: entry["verdict"] for name, entry in report.to_dict().items()
                if isinstance(entry, dict) and "verdict" in entry}
    assert verdicts == {"einstein": "fail", "quasi_einstein": "pass",
                        "quasi_constant": "pass", "hyper_quasi_constant": "pass",
                        "pseudo_quasi_constant": "fail"}
    assert report.conformally_flat is True
    unit = w / np.sqrt(w @ bundle.g.inv @ w)
    omega = report.quasi_einstein.omega
    assert min(max_abs(omega - unit), max_abs(omega + unit)) <= 1e-12
    # at the Weyl weights b/a = -1/(n-2) the quasi-conformal tensor is the
    # Weyl tensor, which vanishes on a conformally flat chart; at other
    # weights it does not
    size = 1.0 + max_abs(bundle.riemann.values)
    for a, b, vanishes in ((1.0, -1.0 / (n - 2), True), (2.0, -2.0 / (n - 2), True),
                           (1.0, 1.0, False), (1.0, 0.0, False)):
        report = classification_report(bundle, GenCurvParams(a, b))
        norm = report.gen_norms["quasi_conformal"] / size
        assert norm <= 1e-13 if vanishes else norm >= 0.1, (a, b, norm)
