"""Large and deep expressions: the iterative walks and the parser's bound.

Differentiation and evaluation walk one topological order with an explicit
stack, so expression size is limited by memory, not by Python's recursion
limit; the parser alone recurses, and bounds its nesting so that deep input
is a ParseError (exit 2), never a RecursionError traceback.

The bit-identity oracle below is a plain recursive evaluator written with
`math` only: it reads the AST's fields and shares no code with curvkit.
"""

import contextlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvkit.cli import main
from curvkit.errors import ParseError
from curvkit.expr import parse
from curvkit.manifest import load_manifest
from test_expr import _clean_cases

MANIFESTS = sorted((Path(__file__).resolve().parents[1] / "manifests").glob("*.txt"))


def _run(argv):
    """cli.main with captured output: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# Oracle: recursive evaluation with math only

_MATH = {"sin": math.sin, "cos": math.cos, "tan": math.tan,
         "exp": math.exp, "log": math.log, "sqrt": math.sqrt}


def _oracle(node, env):
    kind = type(node).__name__
    if kind == "Num":
        return node.value
    if kind == "Var":
        return env[node.name]
    if kind == "Neg":
        return -_oracle(node.arg, env)
    if kind == "Fun":
        return _MATH[node.name](_oracle(node.arg, env))
    a, b = _oracle(node.left, env), _oracle(node.right, env)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return math.pow(a, b)


def _same_bits(a: float, b: float) -> bool:
    return math.copysign(1.0, a) == math.copysign(1.0, b) and a == b


def test_oracle_matches_evaluation_on_random_ast_corpus():
    for e, var, point, _, _ in _clean_cases(200, seed=20240817):
        env = dict(zip(e.coords, point))
        for expr in (e, e.diff(var)):
            assert _same_bits(expr(point), _oracle(expr.root, env)), str(e)


@pytest.mark.parametrize("path", MANIFESTS, ids=lambda p: p.stem)
def test_oracle_matches_every_jet_value_on_golden_charts(path):
    manifest = load_manifest(path)
    coords, point = manifest.coords, manifest.points[0]
    n = len(coords)
    env = dict(zip(coords, point))
    field = manifest.to_field()
    g, jet = field._jet_at(point, 3)
    entries = [[parse(manifest.entries.get((coords[min(i, j)], coords[max(i, j)]), "0"),
                      coords) for j in range(n)] for i in range(n)]
    for k, values in enumerate([g.mat, *jet]):
        assert values.shape == (n,) * (k + 2)
        for idx in itertools.product(range(n), repeat=k + 2):
            e = entries[idx[-2]][idx[-1]]
            for a in sorted(idx[:-2]):      # the jet differentiates in sorted order
                e = e.diff(coords[a])
            assert _same_bits(values[idx], _oracle(e.root, env)), (path.stem, idx)


# --------------------------------------------------------------------------
# Long and deep input

TERMS = 20_000


@pytest.fixture(scope="module")
def long_sum():
    return parse(" + ".join(f"{k % 7 + 1}*x^2*y" for k in range(TERMS)), ["x", "y"])


def test_long_left_deep_sum_parses_differentiates_and_evaluates(long_sum):
    e = long_sum
    weight = sum(k % 7 + 1 for k in range(TERMS))
    x, y = 0.5, 0.25
    assert e((x, y)) == pytest.approx(weight * x * x * y, rel=1e-12)
    assert e.diff("x")((x, y)) == pytest.approx(weight * 2 * x * y, rel=1e-12)


def test_long_left_deep_sum_prints(long_sum):
    # a factor 1 folds away, and literals print as floats
    text = "+".join(f"{k % 7 + 1}.0*x^2.0*y" if k % 7 else "x^2.0*y"
                    for k in range(TERMS))
    assert str(long_sum) == text
    assert repr(long_sum) == f"Expression({text!r}, coords=('x', 'y'))"


def _manifest(path, entry):
    path.write_text(f"dim: 2\ncoords: x1, x2\ng: x1,x1 = {entry}\n"
                    "g: x1,x2 = 0.1*x1*x2\ng: x2,x2 = 1 + x1^2\npoint: 0.3, 0.4\n")
    return str(path)


def test_1200_term_manifest_matches_its_compact_form(tmp_path):
    long = _manifest(tmp_path / "long.txt",
                     "2 + " + " + ".join(["0.001*x1^2*sin(x2)"] * 1200))
    compact = _manifest(tmp_path / "compact.txt", "2 + 1.2*x1^2*sin(x2)")
    code, out, err = _run(["curvature", long])
    assert code == 0, err
    got = json.loads(out)["result"]
    code, out, _ = _run(["curvature", compact])
    assert code == 0
    want = json.loads(out)["result"]
    for key, value in want.items():
        value, mine = np.asarray(value, dtype=float), np.asarray(got[key], dtype=float)
        assert np.abs(mine - value).max() <= 1e-12 * (1.0 + np.abs(value).max()), key


DEEP = {
    "parentheses": "(" * 3000 + "x" + ")" * 3000,
    "unary minuses": "-" * 3000 + "x",
    "power chain": "^".join(["x"] * 3000),
}


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_deep_nesting_is_a_parse_error(text, tmp_path):
    with pytest.raises(ParseError):
        parse(text, ["x"])
    path = tmp_path / "deep.txt"
    path.write_text(f"dim: 2\ncoords: x, y\ng: x,x = {text}\ng: y,y = 1\n")
    code, _, err = _run(["curvature", str(path)])
    assert code == 2
    assert "nested deeper than 100 levels" in err
    assert "Traceback" not in err


def test_nesting_bound_is_100_levels():
    for opening, closing in (("(", ")"), ("sin(", ")"), ("-", ""), ("2^", "")):
        assert parse(opening * 100 + "x" + closing * 100, ["x"])
        with pytest.raises(ParseError) as err:
            parse(opening * 101 + "x" + closing * 101, ["x"])
        # the offset names the first token nested 101 levels deep
        assert err.value.offset == 101 * len(opening)


# --------------------------------------------------------------------------
# Property: README-grammar manifests never escape cli.main

_LEAF = st.sampled_from(["x", "y", "pi", "2", "0.5", "3.25e-1", "1.5"])
_FUNC = st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt"])


def _grow(inner):
    return st.one_of(
        st.builds("({})".format, inner),
        st.builds("-{}".format, inner),
        st.builds("{}({})".format, _FUNC, inner),
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*/^"), inner))


_SMALL = st.recursive(_LEAF, _grow, max_leaves=6)


@st.composite
def _entry(draw):
    shape = draw(st.sampled_from(["small", "long sum", "deep nesting", "chain"]))
    if shape == "small":
        return draw(_SMALL)
    if shape == "long sum":
        terms = draw(st.lists(_SMALL, min_size=1, max_size=4))
        count = draw(st.integers(100, 5000))
        return " + ".join(itertools.islice(itertools.cycle(terms), count))
    if shape == "deep nesting":
        openers = draw(st.lists(st.sampled_from(["(", "-", "sin(", "2^"]),
                                min_size=1, max_size=4))
        depth = draw(st.integers(50, 3000))
        levels = list(itertools.islice(itertools.cycle(openers), depth))
        closers = "".join(")" if o.endswith("(") else "" for o in reversed(levels))
        return "".join(levels) + draw(_SMALL) + closers
    # a long chain-rule derivative: a composition of many functions
    pattern = draw(st.lists(_FUNC, min_size=1, max_size=4))
    names = list(itertools.islice(itertools.cycle(pattern), draw(st.integers(10, 150))))
    return "".join(f"{f}(" for f in names) + draw(_SMALL) + ")" * len(names)


@given(st.tuples(_entry(), _entry(), _entry()))
@settings(max_examples=50, deadline=None)
def test_grammar_manifests_end_in_an_exit_code(tmp_path_factory, entries):
    # small perturbations of a flat metric, so that most examples that parse
    # are positive definite and reach the jet
    xx, yy, xy = entries
    path = tmp_path_factory.mktemp("prop") / "m.txt"
    path.write_text(f"dim: 2\ncoords: x, y\ng: x,x = 2 + 0.001*({xx})\n"
                    f"g: y,y = 2 + 0.001*({yy})\ng: x,y = 0.001*({xy})\n"
                    "point: 0.3, 0.7\n")
    code, _, err = _run(["curvature", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
