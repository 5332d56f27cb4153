import math

import numpy as np
import pytest

from conftest import GOLDEN, euclidean_field
from curvkit.chart import (CurvatureBundle, MetricField, _check_bundle, christoffel,
                           curvature_bundle, nabla_riemann)
from curvkit.errors import (CurvError, DimensionMismatch, DomainError,
                            NumericalInconsistency, SingularMetric)
from curvkit.tensor import Metric, max_abs, scalar_curvature
from oracles import (exact_curvature, fd_christoffel, fd_nabla_ricci, fd_nabla_riemann,
                     fd_riemann, random_chart)


# --------------------------------------------------------------------------
# Flat space

@pytest.mark.parametrize("n", [2, 3, 4])
def test_euclidean_everything_vanishes(n):
    field = euclidean_field(n)
    point = [0.3 * (i + 1) for i in range(n)]
    assert max_abs(field.christoffel(point)) == 0.0
    b = field.curvature_bundle(point)
    assert max_abs(b.riemann.values) == 0.0
    assert max_abs(b.ricci) == 0.0
    assert b.r == 0.0
    assert max_abs(b.nabla_ricci) == 0.0
    assert max_abs(b.dr) == 0.0
    assert max_abs(field.nabla_riemann(point)) == 0.0


# --------------------------------------------------------------------------
# Round spheres (closed-form constants)

def test_sphere2_christoffel_closed_form(sphere2):
    theta = math.pi / 4
    gamma = sphere2.christoffel((theta, 0.3))
    # gamma[k, i, j] with coordinate order (theta, phi)
    assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta), abs=1e-14)
    assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-14)
    assert gamma[1, 0, 1] == pytest.approx(1.0 / math.tan(theta), abs=1e-14)
    assert gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-14)
    assert gamma[1, 1, 0] == gamma[1, 0, 1]  # exact lower-pair symmetry


def test_sphere2_christoffel_matches_fd_oracle(sphere2):
    point = (0.9, 0.4)
    gamma = sphere2.christoffel(point)
    assert max_abs(gamma - fd_christoffel(sphere2, point)) <= 1e-7


def test_scaled_metric_same_christoffel():
    g1 = MetricField(["theta", "phi"],
                     {("theta", "theta"): "1", ("phi", "phi"): "sin(theta)^2"})
    g3 = MetricField(["theta", "phi"],
                     {("theta", "theta"): "3", ("phi", "phi"): "3*sin(theta)^2"})
    for point in [(0.7, 0.1), (1.2, 2.0)]:
        assert max_abs(g1.christoffel(point) - g3.christoffel(point)) <= 1e-13


def test_sphere2_curvature_constants(sphere2):
    b = sphere2.curvature_bundle((math.pi / 3, 0.2))
    assert b.r == pytest.approx(2.0, abs=1e-10)
    assert max_abs(b.ricci - b.g.mat) <= 1e-12       # S = g at kappa = 1
    assert max_abs(b.nabla_ricci) <= 1e-12           # locally symmetric
    assert max_abs(b.dr) <= 1e-12
    # riemann matches the FD-of-christoffel oracle
    assert max_abs(b.riemann.values - fd_riemann(sphere2, (math.pi / 3, 0.2))) <= 1e-6


def test_sphere3_scalar_curvature(sphere3):
    for point in [(1.0, 0.9, 0.5), (0.7, 1.2, 2.5)]:
        b = sphere3.curvature_bundle(point)
        assert b.r == pytest.approx(6.0, abs=1e-9)   # r = n(n-1) at kappa = 1
        assert max_abs(b.ricci - 2.0 * b.g.mat) <= 1e-10


def test_sphere_nabla_riemann_vanishes(sphere2, sphere3):
    assert max_abs(sphere2.nabla_riemann((0.8, 0.3))) <= 1e-8
    assert max_abs(sphere3.nabla_riemann((1.1, 0.8, 0.4))) <= 1e-8


# --------------------------------------------------------------------------
# Generic metric vs finite-difference oracles

GOLDEN_POINTS = {
    "sphere2": (1.05, 0.4),
    "sphere3": (1.0, 0.9, 0.5),
    "conformal4": (0.3, -0.2, 0.5, 0.1),
    "poly3": (0.4, 0.7, -0.3),
}


@pytest.fixture(scope="session")
def golden(sphere2, sphere3, conformal4, poly3, euclid3):
    return {"sphere2": sphere2, "sphere3": sphere3, "conformal4": conformal4,
            "poly3": poly3, "euclid3": euclid3}


def test_poly3_riemann_symmetries(poly3):
    b = poly3.curvature_bundle(GOLDEN_POINTS["poly3"])
    tol = 1e-10 * (b.riemann.norm() + 1e-30)
    for name, res in b.riemann.symmetry_residuals().items():
        assert res <= tol, name


def test_poly3_nabla_riemann_matches_fd(poly3):
    point = GOLDEN_POINTS["poly3"]
    sym = poly3.nabla_riemann(point)
    fd = fd_nabla_riemann(poly3, point)
    assert max_abs(sym - fd) <= 1e-5 * (1.0 + max_abs(sym))


def test_nabla_ricci_matches_fd(poly3, conformal4):
    for field, key in ((poly3, "poly3"), (conformal4, "conformal4")):
        point = GOLDEN_POINTS[key]
        sym = field.curvature_bundle(point).nabla_ricci
        fd = fd_nabla_ricci(field, point)
        assert max_abs(sym - fd) <= 1e-5 * (1.0 + max_abs(sym))


def test_contracted_second_bianchi(golden):
    # dr_i = 2 ginv[j,k] (nabla S)[j,i,k] on the whole golden set
    for name, field in golden.items():
        point = GOLDEN_POINTS.get(name, (0.3, 0.6, 0.9)[:field.n])
        b = field.curvature_bundle(point)
        div_s = 2.0 * np.einsum("jk,jik->i", b.g.inv, b.nabla_ricci)
        assert max_abs(b.dr - div_s) <= 1e-8 * (1.0 + max_abs(b.dr)), name


def test_second_bianchi_cyclic(poly3, sphere3):
    # cyclic sum over the derivative slot and the first pair vanishes:
    # want cyc[m,i,j,...] = nr[m,i,j,...] + nr[i,j,m,...] + nr[j,m,i,...]
    for field, point in ((poly3, GOLDEN_POINTS["poly3"]),
                         (sphere3, GOLDEN_POINTS["sphere3"])):
        nr = field.nabla_riemann(point)
        cyc = (nr + np.einsum("ijmkl->mijkl", nr) + np.einsum("jmikl->mijkl", nr))
        assert max_abs(cyc) <= 1e-8 * (1.0 + max_abs(nr))


def test_scalar_trace_consistency(golden):
    for name, field in golden.items():
        point = GOLDEN_POINTS.get(name, (0.3, 0.6, 0.9)[:field.n])
        b = field.curvature_bundle(point)
        assert abs(b.r - scalar_curvature(b.ricci, b.g)) <= 1e-12 * (1 + abs(b.r))


def test_dr_matches_exact_oracle(poly3):
    point = GOLDEN_POINTS["poly3"]
    want = exact_curvature(*GOLDEN["poly3"], point)["dr"]
    got = poly3.curvature_bundle(point).dr
    assert max_abs(got - want) <= 1e-13 * max_abs(want)


def test_scalar_curvature_expression_is_deprecated(poly3):
    with pytest.raises(CurvError, match=r"curvature_bundle\(point\)\.r"):
        poly3.scalar_curvature_expression()


# --------------------------------------------------------------------------
# Exact oracle: sympy derivatives of the entries, 40-digit contractions

def _assert_matches_exact(field, coords, entries, point):
    """Every output within 1e-12 of the exact value, relative to the larger
    of the quantity and the curvature (the floor for quantities that vanish
    identically, such as nabla S on a round sphere)."""
    want = exact_curvature(coords, entries, point)
    b = field.curvature_bundle(point)
    got = {"gamma": field.christoffel(point), "riemann": b.riemann.values,
           "ricci": b.ricci, "r": b.r, "nabla_ricci": b.nabla_ricci, "dr": b.dr,
           "nabla_riemann": field.nabla_riemann(point)}
    curvature = max_abs(want["riemann"])
    for key, value in got.items():
        scale = max(max_abs(want[key]), curvature)
        assert max_abs(value - want[key]) <= 1e-12 * scale, key


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_matches_exact_oracle(name, golden):
    point = GOLDEN_POINTS.get(name, (0.3, 0.6, 0.9))
    _assert_matches_exact(golden[name], *GOLDEN[name], point)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_chart_matches_exact_oracle(n, seed):
    coords, entries, point = random_chart(seed, n)
    _assert_matches_exact(MetricField(coords, entries), coords, entries, point)


def test_nabla_ricci_symmetry(poly3):
    b = poly3.curvature_bundle(GOLDEN_POINTS["poly3"])
    ns = b.nabla_ricci
    assert max_abs(ns - np.swapaxes(ns, 1, 2)) <= 1e-9 * (1.0 + max_abs(ns))


def test_check_bundle_rejects_asymmetric_nabla_ricci():
    g = Metric(np.eye(3))
    nabla = np.zeros((3, 3, 3))
    nabla[0, 1, 2] = nabla[0, 2, 1] = 1.0
    _check_bundle(CurvatureBundle.from_tensors(g, ricci=np.eye(3), nabla_ricci=nabla))
    nabla[0, 2, 1] = 0.0
    with pytest.raises(NumericalInconsistency, match="symmetry"):
        _check_bundle(CurvatureBundle.from_tensors(g, ricci=np.eye(3),
                                                   nabla_ricci=nabla))
    assert issubclass(NumericalInconsistency, CurvError)  # exit status 2


# --------------------------------------------------------------------------
# Degeneracies and errors

def test_singular_metric_at_pole(sphere2):
    with pytest.raises(SingularMetric):
        sphere2.metric_at((0.0, 0.3))
    with pytest.raises(SingularMetric):
        sphere2.curvature_bundle((math.pi, 0.1))


def test_domain_error_propagates():
    field = MetricField(["x", "y"], {(0, 0): "log(x)", (1, 1): "1"})
    with pytest.raises(DomainError):
        field.curvature_bundle((-1.0, 0.0))


def test_domain_error_only_from_queries_that_need_it():
    # x^2.5 has finite first and second derivatives at x = 0, not a third
    field = MetricField(["x", "y"], {(0, 0): "1 + x^2.5", (1, 1): "1"})
    point = (0.0, 0.3)
    assert max_abs(field.christoffel(point)) == 0.0
    with pytest.raises(DomainError):
        field.curvature_bundle(point)
    with pytest.raises(DomainError):
        field.nabla_riemann(point)


def test_wrong_point_length(sphere2):
    with pytest.raises(DimensionMismatch):
        sphere2.curvature_bundle((0.5,))


def test_metric_field_needs_two_coords():
    with pytest.raises(DimensionMismatch):
        MetricField(["x"], {(0, 0): "1"})


def test_entries_by_name_and_index_agree():
    by_idx = MetricField(["u", "v"], {(0, 0): "1+u^2", (1, 1): "2", (0, 1): "u*v"})
    by_name = MetricField(["u", "v"], {("u", "u"): "1+u^2", ("v", "v"): "2",
                                       ("u", "v"): "u*v"})
    p = (0.4, 0.8)
    assert max_abs(by_idx.metric_at(p).mat - by_name.metric_at(p).mat) == 0.0


def test_unknown_entry_rejected():
    with pytest.raises(DimensionMismatch):
        MetricField(["u", "v"], {("u", "w"): "1"})


def test_module_level_wrappers(sphere2):
    p = (0.8, 0.1)
    assert max_abs(christoffel(sphere2, p) - sphere2.christoffel(p)) == 0.0
    assert curvature_bundle(sphere2, p).r == sphere2.curvature_bundle(p).r
    assert max_abs(nabla_riemann(sphere2, p) - sphere2.nabla_riemann(p)) == 0.0


def test_concurrent_point_queries(poly3):
    # after the cache is sealed, point queries are pure and deterministic
    # under concurrency
    from concurrent.futures import ThreadPoolExecutor

    points = [(0.1 * k, 0.2, -0.1 * k) for k in range(1, 9)]
    baseline = [poly3.curvature_bundle(p).r for p in points]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(3):
            results = list(pool.map(lambda p: poly3.curvature_bundle(p).r, points))
            assert results == baseline
