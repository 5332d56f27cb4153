import math

import numpy as np
import pytest

from conftest import GOLDEN, euclidean_field
from curvkit import chart
from curvkit.chart import MetricField, christoffel, curvature_bundle, nabla_riemann
from curvkit.errors import (CurvError, DimensionMismatch, DomainError, SingularMetric,
                            UnknownIdentifier)
from curvkit.expr import parse
from curvkit.tensor import max_abs, scalar_curvature
from curvkit.wrs import OneFormSystem, weak_symmetry_residual
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


def test_chart_bundle_arrays_are_read_only(sphere2):
    bundle = sphere2.curvature_bundle((1.0, 0.3))
    for part in ("ricci", "ricci_op", "nabla_ricci", "dr"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(bundle, part)[0] = 0.0


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


@pytest.mark.parametrize("query", ["curvature_bundle", "metric_at", "christoffel",
                                   "nabla_riemann"])
def test_point_coordinates_must_be_numbers(sphere2, query):
    with pytest.raises(DomainError, match="sequence of numbers"):
        getattr(sphere2, query)(("a", "b"))


@pytest.mark.parametrize("query", ["curvature_bundle", "metric_at", "christoffel",
                                   "nabla_riemann"])
@pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, -math.inf)])
def test_non_finite_point_coordinates_are_refused(query, point):
    # a constant chart evaluates at any coordinates: the point itself is refused
    field = MetricField(["x", "y"], {(0, 0): "1", (1, 1): "2"})
    with pytest.raises(DomainError, match="point has a non-finite component"):
        getattr(field, query)(point)


@pytest.mark.parametrize("query,point", [("curvature_bundle", 1.0), ("metric_at", None)])
def test_a_point_that_is_not_a_sequence_is_refused(sphere2, query, point):
    with pytest.raises(DimensionMismatch, match="a point is a sequence of 2 numbers"):
        getattr(sphere2, query)(point)


def test_metric_field_needs_two_coords():
    with pytest.raises(DimensionMismatch):
        MetricField(["x"], {(0, 0): "1"})


@pytest.mark.parametrize("entries,keys", [
    ({("x", "y"): "0.1", ("y", "x"): "0.3"}, r"\('x', 'y'\) and \('y', 'x'\)"),
    ({(0, 0): "2", ("x", "x"): "3"}, r"\(0, 0\) and \('x', 'x'\)"),
    ({(0, 1): 0.1, (1, 0): 0.1}, r"\(0, 1\) and \(1, 0\)"),
], ids=["names-both-orders", "index-and-name", "indices-both-orders"])
def test_two_entries_for_one_pair_are_refused(entries, keys):
    # as a manifest refuses a repeated pair, instead of keeping the last entry
    with pytest.raises(DimensionMismatch, match=keys):
        MetricField(["x", "y"], {(0, 0): "2", (1, 1): "2", **entries})


def test_entries_by_name_and_index_agree():
    by_idx = MetricField(["u", "v"], {(0, 0): "1+u^2", (1, 1): "2", (0, 1): "u*v"})
    by_name = MetricField(["u", "v"], {("u", "u"): "1+u^2", ("v", "v"): "2",
                                       ("u", "v"): "u*v"})
    lower = MetricField(["u", "v"], {(0, 0): "1+u^2", (1, 1): "2", ("v", "u"): "u*v"})
    p = (0.4, 0.8)
    assert max_abs(by_idx.metric_at(p).mat - by_name.metric_at(p).mat) == 0.0
    assert max_abs(by_idx.metric_at(p).mat - lower.metric_at(p).mat) == 0.0


def test_unknown_entry_rejected():
    with pytest.raises(DimensionMismatch):
        MetricField(["u", "v"], {("u", "w"): "1"})


def test_expression_over_other_coordinates_rejected():
    entry = parse("2+u^2", ["u", "v"])
    with pytest.raises(UnknownIdentifier, match="'u'"):
        MetricField(["x", "y"], {("x", "x"): entry, ("y", "y"): "1"})
    # an expression over the chart's own names, in any order, is bound by name
    field = MetricField(["u", "v"], {("u", "u"): parse("2+u^2", ["v", "u"]), ("v", "v"): "1"})
    assert field.metric_at((0.5, 0.0)).mat[0, 0] == 2.25


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


# --------------------------------------------------------------------------
# The last-point memo: one evaluation per point, bits as from a fresh field

def _fresh_poly3():
    return MetricField(*GOLDEN["poly3"])


FORMS = OneFormSystem(a=[0.3, -0.2, 0.1], b=[0.05, 0.4, -0.3], d=[-0.1, 0.2, 0.25])


def _query_bytes(field, point, query):
    """The bytes of one query's results at the point."""
    if query == "bundle":
        b = field.curvature_bundle(point)
        return [a.tobytes() for a in (b.g.mat, b.g.inv, b.riemann.values, b.ricci,
                                      b.ricci_op, b.nabla_ricci, b.dr)] + [b.r]
    if query == "nabla":
        return [field.nabla_riemann(point).tobytes()]
    return [weak_symmetry_residual(field, point, FORMS)]


def test_interleaved_queries_match_a_fresh_field():
    field = _fresh_poly3()
    a, b = (0.4, 0.7, -0.3), (0.1, -0.2, 0.35)
    for point in (a, b, a, a, b):
        for query in ("bundle", "nabla", "ws", "nabla", "bundle"):
            assert _query_bytes(field, point, query) == \
                _query_bytes(_fresh_poly3(), point, query), (point, query)


def test_one_chart_evaluation_per_point_and_only_the_last_point_is_kept(monkeypatch):
    calls = []
    jet_at = MetricField._jet_at

    def counting(self, point, order):
        calls.append((tuple(point), order))
        return jet_at(self, point, order)

    monkeypatch.setattr(MetricField, "_jet_at", counting)
    field = _fresh_poly3()
    a, b = (0.4, 0.7, -0.3), (0.1, -0.2, 0.35)
    for point in (a, b, a):
        field.curvature_bundle(point)
        field.nabla_riemann(point)
        weak_symmetry_residual(field, point, FORMS)
    # cycling between two points evaluates each visit again
    assert calls == [(a, 3), (b, 3), (a, 3)]


def test_nabla_riemann_is_built_once_and_nabla_s_and_dr_are_its_traces(monkeypatch):
    calls = []
    curvature = chart._curvature
    monkeypatch.setattr(chart, "_curvature",
                        lambda g, jet: calls.append(g.n) or curvature(g, jet))
    field = _fresh_poly3()
    point = (0.4, 0.7, -0.3)
    bundle = field.curvature_bundle(point)
    nabla = field.nabla_riemann(point)
    weak_symmetry_residual(field, point, FORMS)
    assert calls == [3]
    assert nabla is field._curvature_at(point)[3]
    ginv = bundle.g.inv
    nabla_s = np.einsum("il,mijkl->mjk", ginv, nabla)
    assert np.array_equal(bundle.nabla_ricci, 0.5 * (nabla_s + nabla_s.swapaxes(1, 2)))
    assert np.array_equal(bundle.dr, np.einsum("jk,mjk->m", ginv, bundle.nabla_ricci))


def test_signed_zero_points_are_not_conflated():
    field = _fresh_poly3()
    plus, minus = (0.0, 0.3, 0.2), (-0.0, 0.3, 0.2)
    g_plus = field.curvature_bundle(plus).g.mat.tobytes()
    g_minus = field.curvature_bundle(minus).g.mat.tobytes()
    assert g_plus != g_minus        # g_12 = 0.05*x1*x3 is 0.0 at one, -0.0 at the other
    assert g_plus == _fresh_poly3().curvature_bundle(plus).g.mat.tobytes()
    assert g_minus == _fresh_poly3().curvature_bundle(minus).g.mat.tobytes()
    assert field.curvature_bundle(plus).g.mat.tobytes() == g_plus


def test_held_arrays_are_read_only():
    field = _fresh_poly3()
    point = (0.4, 0.7, -0.3)
    before = _query_bytes(field, point, "bundle")
    bundle = field.curvature_bundle(point)
    g, *arrays = field._curvature_at(point)
    held = [g.mat, g.inv, *arrays, bundle.riemann.values,
            field._riemann_and_nabla(point)[0]]
    for array in held:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0
    assert _query_bytes(field, point, "bundle") == before
    assert _query_bytes(field, point, "ws") == _query_bytes(_fresh_poly3(), point, "ws")


@pytest.mark.parametrize("entry,bad,message", [
    ("log(x)", (-1.0, 0.3), "log of non-positive value"),           # in g itself
    ("1 + x^2.5", (0.0, 0.3), "zero raised to a negative power"),   # in d^3 g
])
def test_failed_point_query_leaves_the_last_entry(entry, bad, message):
    field = MetricField(["x", "y"], {(0, 0): entry, (1, 1): "1 + x^2*y^2"})
    good = (2.0, 0.3)
    held = field._curvature_at(good)
    for _ in range(2):  # raised again: a failure is not stored
        with pytest.raises(DomainError, match=message):
            field.curvature_bundle(bad)
        with pytest.raises(DomainError, match=message):
            field.nabla_riemann(bad)
    assert field._curvature_at(good) is held


def test_two_threads_alternating_points_match_the_sequential_results():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    a, b = (0.4, 0.7, -0.3), (0.1, -0.2, 0.35)
    # the two workers run consecutive tasks side by side: the same point,
    # then different points
    tasks = [(point, query) for query in ("bundle", "nabla", "ws") * 20
             for point in (a, a, b)]
    expected = {(p, q): _query_bytes(_fresh_poly3(), p, q) for p in (a, b)
                for q in ("bundle", "nabla", "ws")}
    field = _fresh_poly3()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_query_bytes, field, *task) for task in tasks]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[task] for task in tasks]
