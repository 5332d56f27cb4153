import numpy as np
import pytest

from curvkit.errors import DimensionMismatch, SingularMetric
from curvkit.tensor import (_HYPER_TERMS, _PSEUDO_TERMS, _W2_TERMS, Metric,
                            Tensor04, _contract_block, _expand_block,
                            _ricci_contract_values, hyper_shape, is_symmetric,
                            max_abs, pseudo_shape, quasi_constant_shape,
                            ricci_contract, ricci_operator, scalar_curvature,
                            wedge_gg)
from oracles import (loop_hyper_shape, loop_pseudo_shape,
                     loop_quasi_constant_shape, loop_ricci_contract,
                     loop_scalar, loop_wedge, random_riemann_like, random_spd)


# --------------------------------------------------------------------------
# Metric validation

def test_metric_identity():
    g = Metric(np.eye(3))
    assert g.n == 3
    assert max_abs(g.inv - np.eye(3)) == 0.0


def test_metric_rejects_asymmetric():
    m = np.eye(2)
    m[0, 1] = 0.5
    with pytest.raises(SingularMetric):
        Metric(m)


def test_metric_rejects_indefinite():
    with pytest.raises(SingularMetric):
        Metric(np.diag([1.0, -1.0]))


def test_metric_rejects_singular():
    with pytest.raises(SingularMetric):
        Metric(np.diag([1.0, 0.0]))


def test_metric_rejects_tiny_pivot():
    with pytest.raises(SingularMetric):
        Metric(np.diag([1.0, 1e-15]))


def test_metric_rejects_nonsquare_and_small():
    with pytest.raises(DimensionMismatch):
        Metric(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        Metric(np.ones((1, 1)))


def test_metric_inverse_quality():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6):
        g = Metric(random_spd(rng, n))
        assert max_abs(g.mat @ g.inv - np.eye(n)) <= 1e-10


def test_raise_lower_roundtrip():
    rng = np.random.default_rng(1)
    g = Metric(random_spd(rng, 5))
    w = rng.standard_normal(5)
    assert np.allclose(g.mat @ g.raise_index(w), w, atol=1e-12)
    assert g.norm_sq(w) == pytest.approx(float(w @ g.inv @ w))


# --------------------------------------------------------------------------
# Tensor04 flag

def test_riemann_like_flag_validates():
    rng = np.random.default_rng(2)
    vals = random_riemann_like(rng, 3)
    t = Tensor04(vals, riemann_like=True)
    assert all(v <= 1e-12 * t.norm() for v in t.symmetry_residuals().values())
    with pytest.raises(DimensionMismatch):
        Tensor04(rng.standard_normal((3, 3, 3, 3)), riemann_like=True)


# --------------------------------------------------------------------------
# ricci_contract

def test_ricci_contract_zero():
    g = Metric(np.eye(4))
    z = Tensor04(np.zeros((4, 4, 4, 4)))
    assert max_abs(ricci_contract(z, g)) == 0.0


def test_ricci_contract_constant_curvature():
    rng = np.random.default_rng(4)
    for n in (2, 3, 5):
        g = Metric(random_spd(rng, n))
        kappa = 0.7
        r4 = Tensor04(kappa * loop_wedge(g.mat), riemann_like=True)
        s = ricci_contract(r4, g)
        assert max_abs(s - kappa * (n - 1) * g.mat) <= 1e-12 * max_abs(s)
        assert max_abs(s - loop_ricci_contract(r4.values, g.inv)) <= 1e-13


def test_ricci_contract_matches_loop_oracle():
    rng = np.random.default_rng(5)
    g = Metric(random_spd(rng, 4))
    r4 = Tensor04(random_riemann_like(rng, 4), riemann_like=True)
    s = ricci_contract(r4, g)
    assert max_abs(s - loop_ricci_contract(r4.values, g.inv)) <= 1e-13
    assert is_symmetric(s)


def test_ricci_contract_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ricci_contract(Tensor04(np.zeros((3, 3, 3, 3))), Metric(np.eye(4)))


# --------------------------------------------------------------------------
# scalar_curvature and ricci_operator

def test_scalar_trivial():
    g = Metric(np.eye(4))
    assert scalar_curvature(np.zeros((4, 4)), g) == 0.0
    assert scalar_curvature(2.5 * g.mat, g) == pytest.approx(10.0)


def test_scalar_constant_curvature():
    # S = kappa (n-1) g gives r = kappa n (n-1); kappa=1, n=2 -> 2
    g = Metric(np.eye(2))
    assert scalar_curvature(1.0 * (2 - 1) * g.mat, g) == pytest.approx(2.0)
    rng = np.random.default_rng(6)
    g5 = Metric(random_spd(rng, 5))
    s = 3.0 * (5 - 1) * g5.mat
    assert scalar_curvature(s, g5) == pytest.approx(3.0 * 5 * 4, rel=1e-12)
    assert scalar_curvature(s, g5) == pytest.approx(loop_scalar(s, g5.inv), rel=1e-13)


def test_ricci_operator_identity_and_zero():
    rng = np.random.default_rng(7)
    g = Metric(random_spd(rng, 4))
    assert max_abs(ricci_operator(g.mat, g) - np.eye(4)) <= 1e-12
    assert max_abs(ricci_operator(np.zeros((4, 4)), g)) == 0.0


def test_ricci_operator_defining_property():
    rng = np.random.default_rng(8)
    g = Metric(random_spd(rng, 5))
    s = rng.standard_normal((5, 5))
    s = 0.5 * (s + s.T)
    q = ricci_operator(s, g)
    # g(Q e_i, e_j) = S(e_i, e_j): columns of Q are Q e_i, so g(Q e_i, e_j) = (Q^T g)[i, j]
    assert max_abs(q.T @ g.mat - s) <= 1e-12


# --------------------------------------------------------------------------
# Shape builders

def test_wedge_entries_identity_n2():
    # direct substitution into G[i,j,k,l] = g[j,k] g[i,l] - g[i,k] g[j,l]
    g = Metric(np.eye(2))
    w = wedge_gg(g)
    assert w.riemann_like
    assert w.values[0, 1, 1, 0] == 1.0
    assert w.values[0, 1, 0, 1] == -1.0
    assert max_abs(w.values - loop_wedge(g.mat)) == 0.0


def test_wedge_contraction_identity():
    rng = np.random.default_rng(9)
    for n in (3, 5):
        g = Metric(random_spd(rng, n))
        s = ricci_contract(wedge_gg(g), g)
        assert max_abs(s - (n - 1) * g.mat) <= 1e-12 * max_abs(s)


def test_quasi_constant_shape_zero_form():
    g = Metric(np.eye(3))
    assert max_abs(quasi_constant_shape(g, np.zeros(3)).values) == 0.0


def test_quasi_constant_shape_basis_form():
    g = Metric(np.eye(3))
    a = np.array([1.0, 0.0, 0.0])
    shape = quasi_constant_shape(g, a)
    assert shape.riemann_like
    assert max_abs(shape.values - loop_quasi_constant_shape(g.mat, a)) == 0.0


def test_quasi_constant_shape_random_matches_loop():
    rng = np.random.default_rng(10)
    g = Metric(random_spd(rng, 4))
    a = rng.standard_normal(4)
    shape = quasi_constant_shape(g, a)
    assert shape.riemann_like
    assert max_abs(shape.values - loop_quasi_constant_shape(g.mat, a)) <= 1e-14


def test_hyper_shape_gauge_identity():
    rng = np.random.default_rng(11)
    g = Metric(random_spd(rng, 4))
    c = 1.7
    assert max_abs(hyper_shape(g, c * g.mat).values
                   - 2.0 * c * wedge_gg(g).values) <= 1e-12
    assert max_abs(hyper_shape(g, np.zeros((4, 4))).values) == 0.0


def test_hyper_shape_symmetric_is_riemann_like():
    rng = np.random.default_rng(12)
    g = Metric(random_spd(rng, 4))
    p = rng.standard_normal((4, 4))
    p = 0.5 * (p + p.T)
    shape = hyper_shape(g, p)
    assert shape.riemann_like
    assert max_abs(shape.values - loop_hyper_shape(g.mat, p)) <= 1e-14
    # a generic non-symmetric P loses pair symmetry
    p_ns = rng.standard_normal((4, 4))
    shape_ns = hyper_shape(g, p_ns)
    assert not shape_ns.riemann_like
    assert shape_ns.symmetry_residuals()["pair_symmetry"] > 1e-3


def test_pseudo_shape():
    rng = np.random.default_rng(13)
    g = Metric(random_spd(rng, 4))
    c = -0.9
    assert max_abs(pseudo_shape(g, c * g.mat).values
                   - c * wedge_gg(g).values) <= 1e-12
    assert max_abs(pseudo_shape(g, np.zeros((4, 4))).values) == 0.0
    p = rng.standard_normal((4, 4))
    assert max_abs(pseudo_shape(g, p).values - loop_pseudo_shape(g.mat, p)) <= 1e-14


def test_builders_bilinear():
    rng = np.random.default_rng(14)
    g = Metric(random_spd(rng, 4))
    p1 = rng.standard_normal((4, 4))
    p2 = rng.standard_normal((4, 4))
    c1, c2 = 1.3, -0.4
    for builder in (hyper_shape, pseudo_shape):
        combo = builder(g, c1 * p1 + c2 * p2).values
        split = c1 * builder(g, p1).values + c2 * builder(g, p2).values
        assert max_abs(combo - split) <= 1e-12 * (1 + max_abs(combo))


def test_quasi_einstein_contraction_pattern():
    # ricci_contract(a*G + b*shape(A)) = [a(n-1) + b|A|^2] g + b(n-2) A(x)A
    rng = np.random.default_rng(15)
    for n in (4, 5):
        g = Metric(random_spd(rng, n))
        a_form = rng.standard_normal(n)
        a, b = 1.4, -2.2
        total = Tensor04(a * wedge_gg(g).values
                         + b * quasi_constant_shape(g, a_form).values,
                         riemann_like=True)
        s = ricci_contract(total, g)
        expected = ((a * (n - 1) + b * g.norm_sq(a_form)) * g.mat
                    + b * (n - 2) * np.outer(a_form, a_form))
        assert max_abs(s - expected) <= 1e-11 * (1 + max_abs(expected))


@pytest.mark.parametrize("n", [2, 4, 7])
def test_stacked_blocks_match_single_calls(n):
    rng = np.random.default_rng(300 + n)
    g = Metric(random_spd(rng, n))
    stack = rng.standard_normal((2, 3, n, n))
    stack[0, 0] = 0.5 * (stack[0, 0] + stack[0, 0].T)  # one symmetric item
    hyper = _expand_block(_HYPER_TERMS, g.mat, stack)
    pseudo = _expand_block(_PSEUDO_TERMS, g.mat, stack)
    assert hyper.shape == pseudo.shape == (2, 3) + (n,) * 4
    for idx in np.ndindex(2, 3):
        assert np.array_equal(hyper[idx], hyper_shape(g, stack[idx]).values)
        assert np.array_equal(pseudo[idx], pseudo_shape(g, stack[idx]).values)
    # a selection of rows is the same entries of the full grids
    iu, ju = np.triu_indices(n, 1)
    rows = (iu[:, None], ju[:, None], iu, ju)
    assert np.array_equal(_expand_block(_HYPER_TERMS, g.mat, stack, rows),
                          hyper[(Ellipsis,) + rows])
    assert np.array_equal(_expand_block(_PSEUDO_TERMS, g.mat, stack, rows),
                          pseudo[(Ellipsis,) + rows])


# Each block kernel's docstring formula, one entry at a time (W2's is the
# one in gencurv._weights); written apart from the term tables.
BLOCK_FORMULAS = {
    "pseudo": (_PSEUDO_TERMS,
               lambda p, g, i, j, k, l: p[j][k] * g[i][l] - p[i][k] * g[j][l]),
    "hyper": (_HYPER_TERMS,
              lambda p, g, i, j, k, l: (p[j][k] * g[i][l] - p[i][k] * g[j][l]
                                        + g[j][k] * p[i][l] - g[i][k] * p[j][l])),
    "w2": (_W2_TERMS,
           lambda p, g, i, j, k, l: g[i][k] * p[j][l] - g[j][k] * p[i][l]),
}


def loop_block(formula, gm, stack, rows):
    """The formula at every stacked item and every entry of `rows`."""
    grid = np.broadcast(*rows)
    out = np.empty(stack.shape[:-2] + grid.shape)
    g = gm.tolist()
    for idx in np.ndindex(stack.shape[:-2]):
        p = stack[idx].tolist()
        for pos, (i, j, k, l) in zip(np.ndindex(grid.shape), np.broadcast(*rows)):
            out[idx + pos] = formula(p, g, int(i), int(j), int(k), int(l))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", sorted(BLOCK_FORMULAS))
def test_expanded_blocks_match_loop_formulas(kind, n):
    terms, formula = BLOCK_FORMULAS[kind]
    rng = np.random.default_rng(700 + n)
    g = Metric(random_spd(rng, n))
    stack = rng.standard_normal((2, n, n))
    iu, ju = np.triu_indices(n, 1)
    every = np.arange(n)
    for rows in (np.ix_(every, every, every, every),
                 (iu[:, None], ju[:, None], iu, ju),
                 (iu[:, None, None], ju[:, None, None], every[:, None], every)):
        expected = loop_block(formula, g.mat, stack, rows)
        assert np.array_equal(_expand_block(terms, g.mat, stack, rows), expected)
    assert np.array_equal(_expand_block(terms, g.mat, stack),
                          loop_block(formula, g.mat, stack, np.ix_(*[every] * 4)))


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", sorted(BLOCK_FORMULAS))
def test_contracted_blocks_match_expanded(kind, n):
    terms, _ = BLOCK_FORMULAS[kind]
    rng = np.random.default_rng(800 + n)
    g = Metric(random_spd(rng, n))
    stack = rng.standard_normal((3, 2, n, n))
    expected = _ricci_contract_values(g.inv, _expand_block(terms, g.mat, stack))
    got = _contract_block(terms, g.inv, g.mat, stack)
    assert got.shape == (3, 2, n, n)
    assert max_abs(got - expected) <= 1e-13 * max_abs(expected)


def test_wedge_built_once_per_metric():
    g = Metric(random_spd(np.random.default_rng(8), 4))
    first = wedge_gg(g)
    assert wedge_gg(g) is first
    assert not first.values.flags.writeable
    assert np.array_equal(first.values, loop_wedge(g.mat))
