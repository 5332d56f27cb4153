"""Every argument the library takes either works or ends in a CurvError.

The arguments are drawn arrays of rank 0-5 and side 0-6 (mostly of the
shape the parameter takes), of float, int, bool, complex, text and object
dtypes, with NaN, +-inf and ints beyond float range among their entries,
given as arrays or as nested lists; and None, ragged lists, dicts and bare
strings.  They go to the README's library calls and to the constructors and
functions that take arrays from a caller.  Each call runs with warnings
turned into errors: it returns, or raises a CurvError, and never warns.
"""

import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import curvkit
from curvkit import chart
from curvkit.chart import MetricField
from curvkit.classify import (classification_report, conformally_flat_check,
                              einstein_check, hyper_quasi_constant_fit,
                              pseudo_quasi_constant_fit, quasi_constant_fit,
                              quasi_einstein_decompose)
from curvkit.errors import (CurvError, DimensionMismatch, DomainError, NumericalInconsistency,
                            ParseError)
from curvkit.gencurv import (GenCurvParams, pp_flat_alpha, pseudo_projective, qc_flat_alpha,
                             quasi_conformal, reconstruct_pp_flat, reconstruct_qc_flat,
                             reconstruct_w2_flat, w2, w2_flat_alpha, weyl, weyl_from_tensors)
from curvkit.harness import (TrialConfig, flat_ricci_form, product_ricci_form,
                             random_point_model, rank_one_coefficient, selfconsistent_ricci,
                             verify_all, verify_section2, verify_section3, verify_section4)
from curvkit.tensor import (MAX_DIM, CurvatureBundle, Metric, Tensor04, hyper_shape,
                            pseudo_shape, quasi_constant_shape, ricci_contract,
                            ricci_operator, scalar_curvature, wedge_gg)
from curvkit.wrs import (OneFormSystem, a_from_bd, check_dr_identity,
                         recover_one_forms, t_identities, weak_symmetry_residual,
                         weak_symmetry_residual_tensors, wrs_residual,
                         ws_to_wrs_condition)

_ENTRIES = {
    "float": (float, st.floats(-4.0, 4.0)),
    "float32": (np.float32, st.floats(-4.0, 4.0, width=32)),
    "non-finite": (float, st.floats(-4.0, 4.0) | st.sampled_from([np.nan, np.inf, -np.inf])),
    "int": (np.int64, st.integers(-4, 4)),
    "bool": (bool, st.booleans()),
    "complex": (complex, st.complex_numbers(max_magnitude=4.0)),
    "text": ("U3", st.sampled_from(["x", "1.5", ""])),
    "object": (object, st.sampled_from([0.5, -2, True, 10**400, -10**400, None, "x", 1j])),
}
_ODD = [None, [[1.0, 0.0], [0.0]], {}, 10**400, "x"]


@st.composite
def _argument(draw, shape):
    """An argument for a parameter that takes an array of `shape`."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(_ODD))
    if draw(st.integers(0, 5)) == 0:
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=5, min_side=0, max_side=6))
    kind = draw(st.sampled_from(["float"] * 8 + list(_ENTRIES)))
    dtype, entries = _ENTRIES[kind]
    array = draw(hnp.arrays(dtype, shape, elements=entries))
    return array.tolist() if draw(st.booleans()) else array


def _optional(shape):
    return st.none() | _argument(shape)


def _returns_or_refuses(call, *args, **kwargs):
    """call(*args, **kwargs), or None where it raises a CurvError; any other
    exception, and any warning, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args, **kwargs)
        except CurvError:
            return None


def _metric(n):
    return Metric(np.eye(n) + 0.25 * np.ones((n, n)))


@st.composite
def _tensors(draw, n):
    """A Tensor04 from inside or outside the library, possibly of another
    dimension, or None where the drawn grid is refused."""
    g = _metric(n)
    source = draw(st.sampled_from(["grid", "wedge", "hyper"]))
    if source == "wedge":
        return wedge_gg(g)
    if source == "hyper":
        p = draw(hnp.arrays(float, (n, n), elements=st.floats(-4.0, 4.0)))
        return hyper_shape(g, p + p.T)
    side = draw(st.sampled_from([n, n, n + 1]))
    return _returns_or_refuses(Tensor04, draw(_argument((side,) * 4)),
                               riemann_like=draw(st.booleans()))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_metric_and_tensor04_take_numbers_or_refuse(data):
    n = data.draw(st.integers(2, 4))
    _returns_or_refuses(Metric, data.draw(_argument((n, n))))
    _returns_or_refuses(Tensor04, data.draw(_argument((n,) * 4)),
                        riemann_like=data.draw(st.booleans()))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_bundles_and_their_calls_take_numbers_or_refuse(data):
    n = data.draw(st.integers(2, 4))
    g = _metric(n)
    riemann = data.draw(st.none() | _tensors(n))
    bundle = _returns_or_refuses(
        CurvatureBundle.from_tensors, g, riemann=riemann,
        ricci=data.draw(_optional((n, n))), r=data.draw(_optional(())),
        nabla_ricci=data.draw(_optional((n,) * 3)), dr=data.draw(_optional((n,))),
        point=data.draw(_optional((n,))))
    params = _returns_or_refuses(GenCurvParams, data.draw(_argument(())),
                                 data.draw(_argument(())))
    forms = _returns_or_refuses(OneFormSystem, *(data.draw(_argument((n,))) for _ in "abd"))
    if bundle is None:  # the calls below still take a bundle
        bundle = CurvatureBundle.from_tensors(g, wedge_gg(g), nabla_ricci=np.zeros((n,) * 3),
                                              dr=np.zeros(n))
    if params is not None:
        _returns_or_refuses(quasi_conformal, bundle, params)
        _returns_or_refuses(classification_report, bundle, params)
    _returns_or_refuses(classification_report, bundle)
    _returns_or_refuses(recover_one_forms, bundle)
    _returns_or_refuses(quasi_einstein_decompose, data.draw(_argument((n, n))), g)
    _returns_or_refuses(a_from_bd, bundle, data.draw(_argument((n,))),
                        data.draw(_argument((n,))))
    if bundle.riemann is not None:
        for fit in (quasi_constant_fit, hyper_quasi_constant_fit, pseudo_quasi_constant_fit):
            _returns_or_refuses(fit, bundle.riemann, g)
    if forms is not None:
        for check in (wrs_residual, check_dr_identity, t_identities, ws_to_wrs_condition):
            _returns_or_refuses(check, bundle, forms)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_one_forms_and_grids_of_wrs_take_numbers_or_refuse(data):
    n = data.draw(st.integers(2, 4))
    forms = _returns_or_refuses(OneFormSystem, *(data.draw(_argument((n,))) for _ in "abd"))
    _returns_or_refuses(weak_symmetry_residual_tensors, data.draw(_argument((n,) * 5)),
                        data.draw(_argument((n,) * 4)),
                        forms or OneFormSystem(*np.ones((3, n))))


# Large finite entries, which the drawn arguments above (within +-4) never
# reach: n = 2, g = I, the curvature, the Ricci form and its derivative
# filled with one size, dr = 0, and the forms (0, 0, size) or (size, size,
# 0).  At 1e300 every product of a form with S overflows; at 1e150 none
# does, and the values are those the reporters gave before they checked.
_WRS_CALLS = {
    "wrs_residual": wrs_residual,
    "check_dr_identity": check_dr_identity,
    "t_identities": t_identities,
    "ws_to_wrs_condition": ws_to_wrs_condition,
    "a_from_bd": lambda bundle, forms: a_from_bd(bundle, forms.b, forms.d),
    "weak_symmetry_residual_tensors": lambda bundle, forms: weak_symmetry_residual_tensors(
        np.full((2,) * 5, bundle.r / 2), bundle.riemann.values, forms),
}
_AT_1E150 = {  # (forms (0, 0, x), forms (x, x, 0))
    "wrs_residual": (1e150, 2e150),
    "check_dr_identity": (1.9999999999999998e300, 3.9999999999999996e300),
    "t_identities": ((0.0, 0.0), (0.0, 0.0)),
    "ws_to_wrs_condition": (1.9999999999999998e300, 1.9999999999999998e300),
    "a_from_bd": ([-1e150, -1e150], [-1e150, -1e150]),
    "weak_symmetry_residual_tensors": (2e150, 2.9999999999999998e150),
}


def _sized_data(size, which):
    bundle = CurvatureBundle.from_tensors(
        Metric(np.eye(2)), Tensor04(np.full((2,) * 4, size)), np.full((2, 2), size),
        nabla_ricci=np.full((2,) * 3, size), dr=np.zeros(2))
    forms = (0.0, 0.0, size) if which == 0 else (size, size, 0.0)
    return bundle, OneFormSystem(*(np.full(2, v) for v in forms))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("which", [0, 1], ids=["d", "ab"])
@pytest.mark.parametrize("name", sorted(_WRS_CALLS))
def test_wrs_reporters_on_large_finite_data(name, which):
    """An overflow ends in NumericalInconsistency naming it, without a
    warning; data one step smaller keeps its finite values."""
    with pytest.raises(NumericalInconsistency, match=f"^{name} overflows"):
        _WRS_CALLS[name](*_sized_data(1e300, which))
    assert issubclass(NumericalInconsistency, CurvError)  # exit status 2
    got = _WRS_CALLS[name](*_sized_data(1e150, which))
    assert np.array_equal(got, _AT_1E150[name][which])


_KEYS = st.sampled_from([(0, 0), (1, 1), (0, 1), ("x", "y"), ("y", "y"), (2, 0),
                         (-1, 0), ("z", "x"), ("x", 1), (0,), (0, 1, 2), "xy", 0,
                         (0.5, 1), (None, 0)])
_VALUES = (st.sampled_from(["1", "2 + x^2", "sin(", "q", "exp(y)", "1e999"])
           | st.floats(allow_nan=True, allow_infinity=True) | st.integers(-3, 3)
           | st.sampled_from([10**400, None, 1j, True, [1.0]]))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_charts_take_numbers_or_refuse(data):
    entries = {(0, 0): "2 + x^2", (1, 1): "2 + y^2"}
    entries.update(data.draw(st.dictionaries(_KEYS, _VALUES, max_size=3)))
    field = _returns_or_refuses(MetricField, ["x", "y"], entries)
    if field is None:
        return
    point = data.draw(_argument((2,)) | st.just((10**400, 0.0)))
    _returns_or_refuses(field.curvature_bundle, point)


@pytest.mark.parametrize("entries", [
    {"xx": "2", "yy": "3", "xy": "0.5"},
    {(0, 0): "2", (1, 1): "3", "xy": "0.5"},
], ids=["all-strings", "one-string"])
def test_a_chart_refuses_a_bare_string_key(entries):
    # a two-letter string unpacks as two coordinate names, but is no pair
    bad = next(key for key in entries if isinstance(key, str))
    with pytest.raises(DimensionMismatch, match=f"^metric entry key '{bad}' is not a pair"):
        MetricField(["x", "y"], entries)


@pytest.mark.parametrize("build", [
    lambda: MetricField(["x", "x"], {(0, 0): 5.0, (0, 1): 0.5, (1, 1): 7.0}),
    lambda: MetricField(["x", "1bad"], {(0, 0): 1.0, (1, 1): 1.0}),
    lambda: MetricField(["x", "y z"], {(0, 0): 1.0, (1, 1): 1.0}),
    lambda: MetricField(["x", 1], {(0, 0): 1.0, (1, 1): 1.0}),
    lambda: MetricField(5, {(0, 0): 1.0, (1, 1): 1.0}),
    lambda: curvkit.parse("x", [1]),
    lambda: curvkit.parse("x", None),
], ids=["chart-duplicate", "chart-leading-digit", "chart-space", "chart-int", "chart-int-coords",
        "parse-int", "parse-none"])
def test_charts_and_expressions_refuse_bad_coordinate_names(build):
    with pytest.raises(ParseError):
        build()


@pytest.mark.parametrize("text", [5, None, b"x"], ids=["int", "none", "bytes"])
def test_parse_refuses_text_that_is_not_a_string(text):
    with pytest.raises(ParseError, match="must be a string"):
        curvkit.parse(text, ["x"])


@pytest.mark.parametrize("text,point", [
    ("x*y", None), ("x*y", 5), ("x*y", ["a", "b"]), ("x*y", [1.0, 2j]), ("x*y", [10**400, 1.0]),
    ("x", ["0.5", "2"]), ("x", [b"1", 2]), ("x", [np.nan, 1.0]), ("x", [np.inf, 1.0]),
    ("2*y", [np.nan, 1.0]),
], ids=["none", "int", "text", "complex", "int-beyond-float", "numeric-text", "bytes", "nan",
        "inf", "nan-of-an-unused-coordinate"])
def test_an_expression_refuses_a_point_that_is_not_numbers(text, point):
    # the point a chart refuses (tests/test_chart.py), with the same conversion
    with pytest.raises(DomainError, match="sequence of numbers"):
        curvkit.parse(text, ["x", "y"])(point)


def _fits():
    g = _metric(4)
    t = np.array([1.0, -0.5, 0.25, 2.0])
    qc = Tensor04(2.0 * wedge_gg(g).values
                  + 0.5 * hyper_shape(g, np.outer(t, t)).values, riemann_like=True)
    return g, qc


# each build passes the arrays it gives a record through `keep`
@pytest.mark.parametrize("build", [
    lambda keep: Tensor04(keep(np.ones((3,) * 4))),
    lambda keep: CurvatureBundle.from_tensors(_metric(3), ricci=keep(np.eye(3)),
                                              dr=keep(np.ones(3))),
    lambda keep: OneFormSystem(a=keep(np.ones(3)), b=keep(np.zeros(3)), d=keep(np.ones(3))),
    lambda keep: random_point_model(5, 4),
    lambda keep: quasi_einstein_decompose(keep(np.diag([1.0, 1.0, 1.0, 3.0])), Metric(np.eye(4))),
    lambda keep: quasi_constant_fit(_fits()[1], _fits()[0]),
    lambda keep: hyper_quasi_constant_fit(_fits()[1], _fits()[0]),
    lambda keep: pseudo_quasi_constant_fit(_fits()[1], _fits()[0]),
    lambda keep: classification_report(CurvatureBundle.from_tensors(_fits()[0], _fits()[1])),
], ids=["Tensor04", "CurvatureBundle", "OneFormSystem", "PointModel", "QuasiEinsteinFit",
        "QuasiConstantFit", "HyperQuasiConstantFit", "PseudoQuasiConstantFit",
        "ClassificationReport"])
def test_records_that_hold_arrays_compare_and_hash_by_identity(build):
    given = []
    first, second = (build(lambda a: given.append(a) or a) for _ in range(2))
    assert first == first
    assert first != second  # equal values, distinct instances
    assert hash(first) == hash(first) and hash(second) != hash(first)
    assert len({first, second, first}) == 2
    # and hold every array read-only, in their fields and in the records there
    arrays = list(_arrays_of(first)) + list(_arrays_of(second))
    assert arrays and not any(array.flags.writeable for array in arrays)
    # as copies: the caller's arrays stay writable and unshared
    assert all(a.flags.writeable for a in given)
    assert not any(np.shares_memory(a, b) for a in given for b in arrays)


def test_only_the_record_base_freezes_arrays_it_is_given():
    # Metric and the chart's memo freeze the arrays they create themselves
    freezers = set()
    for path in Path(curvkit.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "setflags" not in text, path.name
        freezers.update(_freezers(ast.parse(text)))
    assert freezers == {"_ArrayRecord.__post_init__", "Metric.__init__",
                        "MetricField._curvature_at"}


def _freezers(node, scope=""):
    """The qualified name of each function in `node` that sets a `writeable` flag."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _freezers(child, f"{scope}.{child.name}".lstrip("."))
        elif isinstance(child, ast.Assign) and any(
                isinstance(t, ast.Attribute) and t.attr == "writeable" for t in child.targets):
            yield scope
        else:
            yield from _freezers(child, scope)


def _arrays_of(record):
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            yield value
        elif dataclasses.is_dataclass(value):
            yield from _arrays_of(value)


# the n of the *_flat_alpha functions: an integer of at least 2, or a refusal
_ALPHAS = {"qc_flat_alpha": lambda n: qc_flat_alpha(n, 1.0, GenCurvParams()),
           "pp_flat_alpha": lambda n: pp_flat_alpha(n, 1.0, GenCurvParams()),
           "w2_flat_alpha": lambda n: w2_flat_alpha(n, 1.0)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", ["5", None, 0, 1, -3, 4.5, np.nan, np.inf, -np.inf, 10**400,
                               1j, [4], np.ones(2)], ids=repr)
@pytest.mark.parametrize("name", sorted(_ALPHAS))
def test_flat_alphas_refuse_every_n_but_an_integer_of_at_least_2(name, n):
    with pytest.raises(DimensionMismatch, match="^n "):
        _ALPHAS[name](n)


@pytest.mark.parametrize("name", sorted(_ALPHAS))
def test_flat_alphas_take_an_integer_n_of_any_type(name):
    alphas = {_ALPHAS[name](n) for n in (4, np.int64(4), 4.0, np.float32(4.0))}
    assert alphas == {0.25}


# the n of random_point_model: an integer from 2 to MAX_DIM, checked before
# any draw or allocation
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", ["5", 0, -2, 4.5, 10**400, MAX_DIM + 1], ids=repr)
def test_random_point_model_refuses_every_n_but_an_integer_from_2_to_max_dim(n):
    with pytest.raises(DimensionMismatch, match="^n "):
        random_point_model(0, n)


def test_random_point_model_takes_an_integer_n_of_any_type():
    models = [random_point_model(0, n) for n in (4, np.int64(4), 4.0, np.float32(4.0))]
    assert all(np.array_equal(m.ricci, models[0].ricci) for m in models)
    assert random_point_model(0, MAX_DIM).g.n == MAX_DIM


# --------------------------------------------------------------------------
# Parameters that take a record: a Metric, a Tensor04, a CurvatureBundle, a
# OneFormSystem, a GenCurvParams, a TrialConfig or a MetricField

def _arguments(n):
    """One valid argument of each kind a call below takes, at dimension n."""
    g = _metric(n)
    coords = "xyzw"[:n]
    entries = {(k, k): f"2 + {c}^2" for k, c in enumerate(coords)}
    return {"g": g, "tensor": wedge_gg(g),
            "bundle": CurvatureBundle.from_tensors(g, wedge_gg(g), nabla_ricci=np.zeros((n,) * 3),
                                                   dr=np.zeros(n)),
            "forms": OneFormSystem(*np.ones((3, n))), "1-form": np.arange(1.0, n + 1),
            "bilinear": np.eye(n) + 0.5, "r": 1.0, "n": n, "flavor": "qc",
            "params": GenCurvParams(), "config": TrialConfig(seed=0),
            "field": MetricField(list(coords), entries),
            "point": np.full(n, 0.5), "grid4": np.zeros((n,) * 4), "grid5": np.zeros((n,) * 5)}


# each public call of tensor, classify, gencurv, harness, wrs and chart that
# takes a record, with its arguments in order: a record parameter by its
# name, and any other argument by its kind
_RECORD_CALLS = {
    "scalar_curvature": (scalar_curvature, "bilinear g"),
    "ricci_operator": (ricci_operator, "bilinear g"),
    "wedge_gg": (wedge_gg, "g"),
    "quasi_constant_shape": (quasi_constant_shape, "g 1-form"),
    "hyper_shape": (hyper_shape, "g bilinear"),
    "pseudo_shape": (pseudo_shape, "g bilinear"),
    "einstein_check": (einstein_check, "bilinear g"),
    "quasi_einstein_decompose": (quasi_einstein_decompose, "bilinear g"),
    "reconstruct_qc_flat": (reconstruct_qc_flat, "bilinear g r params"),
    "reconstruct_pp_flat": (reconstruct_pp_flat, "bilinear g r params"),
    "reconstruct_w2_flat": (reconstruct_w2_flat, "bilinear g"),
    "qc_flat_alpha": (qc_flat_alpha, "n r params"),
    "pp_flat_alpha": (pp_flat_alpha, "n r params"),
    "product_ricci_form": (product_ricci_form, "g 1-form 1-form 1-form 1-form"),
    "flat_ricci_form": (flat_ricci_form, "g 1-form 1-form 1-form 1-form r"),
    "rank_one_coefficient": (rank_one_coefficient, "g bilinear 1-form"),
    "selfconsistent_ricci": (selfconsistent_ricci, "g r params flavor"),
    "verify_section2": (verify_section2, "config"),
    "verify_section3": (verify_section3, "config"),
    "verify_section4": (verify_section4, "config"),
    "verify_all": (verify_all, "config"),
    "weak_symmetry_residual": (weak_symmetry_residual, "field point forms"),
    "chart.christoffel": (chart.christoffel, "field point"),
    "chart.curvature_bundle": (chart.curvature_bundle, "field point"),
    "chart.nabla_riemann": (chart.nabla_riemann, "field point"),
    "from_tensors": (CurvatureBundle.from_tensors, "g riemann"),
    "from_tensors-ricci": (lambda g: CurvatureBundle.from_tensors(g, ricci=np.eye(3)), "g"),
    "ricci_contract": (ricci_contract, "tensor g"),
    "quasi_constant_fit": (quasi_constant_fit, "riemann g"),
    "hyper_quasi_constant_fit": (hyper_quasi_constant_fit, "riemann g"),
    "pseudo_quasi_constant_fit": (pseudo_quasi_constant_fit, "riemann g"),
    "weyl_from_tensors": (weyl_from_tensors, "riemann g"),
    "conformally_flat_check": (conformally_flat_check, "bundle"),
    "classification_report": (classification_report, "bundle params"),
    "quasi_conformal": (quasi_conformal, "bundle params"),
    "pseudo_projective": (pseudo_projective, "bundle params"),
    "w2": (w2, "bundle"),
    "weyl": (weyl, "bundle"),
    "wrs_residual": (wrs_residual, "bundle forms"),
    "ws_to_wrs_condition": (ws_to_wrs_condition, "bundle forms"),
    "check_dr_identity": (check_dr_identity, "bundle forms"),
    "t_identities": (t_identities, "bundle forms"),
    "a_from_bd": (a_from_bd, "bundle 1-form 1-form"),
    "recover_one_forms": (recover_one_forms, "bundle"),
    "weak_symmetry_residual_tensors": (weak_symmetry_residual_tensors, "grid5 grid4 forms"),
}
_KIND = {"g": "g", "riemann": "tensor", "tensor": "tensor", "bundle": "bundle",
         "forms": "forms", "params": "params", "config": "config", "field": "field"}
_UNSIZED = {"r", "n", "flavor", "params", "config"}  # kinds that fix no dimension


def _record_parameters():
    for name, (_, params) in sorted(_RECORD_CALLS.items()):
        for at, param in enumerate(params.split()):
            if param in _KIND:
                yield pytest.param(name, at, id=f"{name}-{param}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,at", _record_parameters())
def test_record_parameters_refuse_any_other_object(name, at):
    """None, an array, a dict or a tuple in place of a record ends in
    DimensionMismatch naming the parameter and the type given; so does a
    record of another dimension, where another argument fixes n."""
    call, params = _RECORD_CALLS[name]
    params = params.split()
    n, param = 3, params[at]
    arguments = _arguments(n)
    valid = [arguments[_KIND.get(p, p)] for p in params]
    record = type(valid[at]).__name__
    others = [None, np.zeros((n,) * 4), {}, (1.0,) * n]
    if (name, param) == ("from_tensors", "riemann"):
        others = others[1:]  # from_tensors takes None for an absent riemann
    for other in others:
        message = f"^{param} must be a {record}, got {type(other).__name__}$"
        with pytest.raises(DimensionMismatch, match=message):
            call(*valid[:at], other, *valid[at + 1:])
    sized = [p for p in params if _KIND.get(p, p) not in _UNSIZED]
    if param in sized and len(sized) > 1:  # another argument fixes n
        with pytest.raises(DimensionMismatch):
            call(*valid[:at], _arguments(n + 1)[_KIND[param]], *valid[at + 1:])
