import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvkit import expr as ex
from curvkit.errors import DomainError, ParseError, UnknownIdentifier
from curvkit.expr import BinOp, Fun, Neg, Num, Var, differentiate, evaluate, parse


# --------------------------------------------------------------------------
# Parsing

def test_parse_constant():
    assert parse("1", ["x"]).root == Num(1.0)


def test_parse_grammar_shape():
    e = parse("sin(theta)^2", ["theta", "phi"])
    assert e.root == BinOp("^", Fun("sin", Var("theta")), Num(2.0))


def test_parse_dangling_operator_offset():
    with pytest.raises(ParseError) as err:
        parse("x1*", ["x1"])
    assert err.value.offset == 3


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        parse("x1 + y", ["x1"])
    assert err.value.name == "y"
    assert err.value.offset == 5


def test_parse_unknown_function():
    with pytest.raises(UnknownIdentifier):
        parse("sinh(x)", ["x"])


def test_parse_unbalanced_parens():
    with pytest.raises(ParseError):
        parse("(x + 1", ["x"])
    with pytest.raises(ParseError):
        parse("x + 1)", ["x"])


def test_parse_pi():
    assert parse("pi", ["x"]).root == Num(math.pi)


def test_parse_duplicate_coordinates_rejected():
    with pytest.raises(ParseError):
        parse("x", ["x", "x"])


@pytest.mark.parametrize("text,offset", [("1e999", 0), ("x + 1e999", 4),
                                         ("2*(x - 9e400)", 7)])
def test_parse_overflowing_literal_offset(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text, ["x"])
    assert err.value.offset == offset
    assert "overflows" in str(err.value)


@pytest.mark.parametrize("text,point,value", [
    ("x1+x2", (1.0, 2.0), 3.0),
    ("2^-3", (0.0, 0.0), 0.125),
    ("-x1^2", (3.0, 0.0), -9.0),          # ^ binds tighter than unary minus
    ("2^3^2", (0.0, 0.0), 512.0),         # right-associative power
    ("10-4-3", (0.0, 0.0), 3.0),          # left-associative subtraction
    ("12/3/2", (0.0, 0.0), 2.0),
    ("-x1*x2", (2.0, 5.0), -10.0),
    ("1 + 2*x1^2", (3.0, 0.0), 19.0),
    ("sqrt(x1)*exp(0)", (4.0, 0.0), 2.0),
])
def test_parse_evaluate(text, point, value):
    assert evaluate(parse(text, ["x1", "x2"]), point) == pytest.approx(value, rel=1e-15)


# --------------------------------------------------------------------------
# Evaluation errors

def test_log_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("log(x1)", ["x1"]), (0.0,))


def test_division_by_zero():
    with pytest.raises(DomainError):
        evaluate(parse("1/x", ["x"]), (0.0,))


def test_zero_to_negative_power():
    with pytest.raises(DomainError):
        evaluate(parse("x^(-2)", ["x"]), (0.0,))


def test_negative_base_fractional_power():
    with pytest.raises(DomainError):
        evaluate(parse("x^0.5", ["x"]), (-2.0,))


def test_domain_error_reports_node():
    with pytest.raises(DomainError) as err:
        evaluate(parse("1 + log(x - 2)", ["x"]), (1.0,))
    assert "log" in str(err.value)


def test_wrong_point_length():
    with pytest.raises(DomainError):
        evaluate(parse("x", ["x"]), (1.0, 2.0))


# --------------------------------------------------------------------------
# Differentiation

def test_diff_sin():
    assert parse("sin(theta)", ["theta"]).diff("theta").root == Fun("cos", Var("theta"))


def test_diff_other_variable_is_zero():
    assert parse("x1", ["x1", "x2"]).diff("x2").root == Num(0.0)


def test_diff_power_matches_finite_difference():
    e = parse("x^3", ["x"])
    d = e.diff("x")
    assert d((2.0,)) == pytest.approx(12.0, abs=1e-12)
    h = 1e-6
    fd = (e((2.0 + h,)) - e((2.0 - h,))) / (2 * h)
    assert abs(d((2.0,)) - fd) <= 1e-8 * (1 + abs(fd))


def test_diff_sin_squared_cross_check():
    e = parse("sin(x)^2", ["x"])
    d = differentiate(e, "x")
    x = 0.7
    assert evaluate(d, (x,)) == pytest.approx(2 * math.sin(x) * math.cos(x), rel=1e-14)
    h = 1e-6
    fd = (e((x + h,)) - e((x - h,))) / (2 * h)
    assert abs(d((x,)) - fd) <= 1e-8 * (1 + abs(fd))


@pytest.mark.parametrize("text,deriv_at,point", [
    ("exp(2*x)", lambda x: 2 * math.exp(2 * x), 0.4),
    ("log(x)", lambda x: 1 / x, 2.5),
    ("sqrt(x)", lambda x: 0.5 / math.sqrt(x), 1.7),
    ("tan(x)", lambda x: 1 / math.cos(x) ** 2, 0.5),
    ("x/(1+x)", lambda x: 1 / (1 + x) ** 2, 0.9),
    ("cos(x)*x", lambda x: -math.sin(x) * x + math.cos(x), 1.1),
])
def test_diff_rules(text, deriv_at, point):
    d = parse(text, ["x"]).diff("x")
    assert d((point,)) == pytest.approx(deriv_at(point), rel=1e-12)


def test_diff_general_power():
    # u^v with a non-constant exponent
    e = parse("x^x", ["x"])
    d = e.diff("x")
    x = 1.3
    expected = x ** x * (math.log(x) + 1.0)
    assert d((x,)) == pytest.approx(expected, rel=1e-12)


def test_diff_undeclared_coordinate():
    with pytest.raises(UnknownIdentifier):
        parse("x", ["x"]).diff("y")


# --------------------------------------------------------------------------
# Random AST corpus: derivative vs central finite difference

_FUNS = ["sin", "cos", "exp", "sqrt", "log", "tan"]


def _gen_ast(rng: random.Random, coords, depth: int) -> ex.Node:
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(round(rng.uniform(-2.0, 2.0), 3))
        return Var(rng.choice(coords))
    kind = rng.random()
    if kind < 0.20:
        return Neg(_gen_ast(rng, coords, depth - 1))
    if kind < 0.45:
        name = rng.choice(_FUNS)
        return Fun(name, _gen_ast(rng, coords, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^"])
    left = _gen_ast(rng, coords, depth - 1)
    if op == "^":
        return BinOp(op, left, Num(float(rng.choice([2, 3]))))
    return BinOp(op, left, _gen_ast(rng, coords, depth - 1))


def _fd_corpus(count: int, seed: int):
    """Yield `count` (expression, derivative value, central finite
    difference) triples that evaluate cleanly."""
    for e, _, _, d_val, fd in _clean_cases(count, seed):
        yield e, d_val, fd


def _clean_cases(count: int, seed: int):
    """Yield `count` cases that evaluate cleanly: (expression, var, point,
    derivative value, central finite difference)."""
    rng = random.Random(seed)
    coords = ("u", "v")
    produced = 0
    attempts = 0
    while produced < count and attempts < count * 200:
        attempts += 1
        node = _gen_ast(rng, coords, depth=rng.randint(1, 6))
        e = ex.Expression(node, coords)
        var = rng.choice(coords)
        point = (rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
        axis = coords.index(var)
        h = 1e-6 * (1.0 + abs(point[axis]))
        shift_plus = list(point)
        shift_minus = list(point)
        shift_plus[axis] += h
        shift_minus[axis] -= h
        try:
            d_val = e.diff(var)(point)
            f_plus = e(shift_plus)
            f_minus = e(shift_minus)
        except DomainError:
            continue
        if any(abs(v) > 1e6 for v in (d_val, f_plus, f_minus)):
            continue
        yield e, var, point, d_val, (f_plus - f_minus) / (2 * h)
        produced += 1
    assert produced == count, f"only generated {produced} clean cases"


def test_random_ast_derivative_corpus():
    checked = 0
    for e, d_val, fd in _fd_corpus(200, seed=20240817):
        assert abs(d_val - fd) <= 1e-6 * (1.0 + abs(fd)), str(e)
        checked += 1
    assert checked == 200


def test_derivatives_stay_in_node_vocabulary():
    # differentiation is closed over {Num, Var, Neg, Fun, BinOp}
    vocabulary = (Num, Var, Neg, Fun, BinOp)

    def walk(node):
        assert isinstance(node, vocabulary), type(node)
        if isinstance(node, Neg):
            walk(node.arg)
        elif isinstance(node, Fun):
            assert node.name in ("sin", "cos", "tan", "exp", "log", "sqrt")
            walk(node.arg)
        elif isinstance(node, BinOp):
            assert node.op in "+-*/^"
            walk(node.left)
            walk(node.right)

    rng = random.Random(123)
    coords = ("u", "v")
    for _ in range(100):
        node = _gen_ast(rng, coords, depth=rng.randint(1, 5))
        for var in coords:
            walk(ex.diff_node(node, var))


def test_evaluation_is_deterministic():
    for e, d_val, _ in _fd_corpus(25, seed=99):
        point = (0.7, 1.3)
        try:
            first = e(point)
        except DomainError:
            continue
        assert e(point) == first  # bit-identical


# --------------------------------------------------------------------------
# Printer round trip

def _roundtrip_fixed_point(node: ex.Node, coords):
    text_once = ex.to_string(node)
    once = parse(text_once, coords).root
    twice = parse(ex.to_string(once), coords).root
    assert twice == once, f"{text_once!r} -> {ex.to_string(once)!r}"


def test_roundtrip_handpicked():
    coords = ("x", "y")
    for text in ["x", "-x", "x-(y-x)", "x*(y+1)", "-(x*y)", "x^2^3",
                 "(-2)^2", "x*-2", "sin(x)^2/cos(y)", "1/(x*y)",
                 "-x^2", "x--2", "sqrt(x+y)*tan(x)"]:
        _roundtrip_fixed_point(parse(text, coords).root, coords)


def test_roundtrip_random_asts():
    rng = random.Random(7)
    coords = ("u", "v")
    for _ in range(300):
        node = _gen_ast(rng, coords, depth=rng.randint(1, 6))
        _roundtrip_fixed_point(node, coords)


@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_roundtrip_numeric_literals(value):
    node = Num(value)
    coords = ("x",)
    reparsed = parse(ex.to_string(node), coords).root
    assert reparsed == node


@given(st.integers(min_value=0, max_value=10_000_000))
@settings(max_examples=100, deadline=None)
def test_byte_offsets_in_long_input(pad):
    text = " " * (pad % 7) + "q"
    with pytest.raises(UnknownIdentifier) as err:
        parse(text, ["x"])
    assert err.value.offset == pad % 7
