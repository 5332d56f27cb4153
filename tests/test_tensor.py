import numpy as np
import pytest

from curvkit.classify import (classification_report, conformally_flat_check,
                              einstein_check, hyper_quasi_constant_fit,
                              quasi_constant_fit, quasi_einstein_decompose)
from curvkit.errors import (DimensionMismatch, InvalidParams, NumericalInconsistency,
                            SingularMetric)
from curvkit.gencurv import GenCurvParams, pp_flat_alpha, qc_flat_alpha, w2_flat_alpha
from curvkit.harness import (flat_ricci_form, product_ricci_form, rank_one_coefficient,
                             selfconsistent_ricci)
from curvkit.tensor import (_HYPER_TERMS, _PSEUDO_TERMS, _W2_TERMS, _WEDGE_WEIGHT,
                            KERNEL_RCOND, CurvatureBundle, Metric, Tensor04,
                            _contract_block, _expand_block, _expand_with_wedge,
                            _lstsq_kernel, _norm_sq_values,
                            _ricci_contract_values, hyper_shape, is_symmetric,
                            max_abs, pseudo_shape, quasi_constant_shape,
                            ricci_contract, ricci_operator, scalar_curvature,
                            wedge_gg)
from curvkit.wrs import (OneFormSystem, check_dr_identity, recover_one_forms,
                         weak_symmetry_residual_tensors, wrs_residual)
from oracles import (loop_curvature_symmetry_defect, loop_hyper_shape,
                     loop_pseudo_shape, loop_quasi_constant_shape,
                     loop_ricci_contract, loop_scalar, loop_wedge,
                     random_riemann_like, random_spd)


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_metric_rejects_non_finite(bad):
    # raised before any arithmetic on the entry, so numpy warns of nothing
    with pytest.raises(SingularMetric, match="non-finite"):
        Metric([[1.0, bad], [bad, 1.0]])


def test_metric_rejects_nonsquare_and_small():
    with pytest.raises(DimensionMismatch):
        Metric(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        Metric(np.ones((1, 1)))


@pytest.mark.parametrize("components", [[["a"]], [[1.0, 0.0], [0.0]], {}])
def test_metric_rejects_components_that_are_not_numbers(components):
    with pytest.raises(DimensionMismatch, match="matrix of numbers"):
        Metric(components)


WORDS = [["a", "b"], ["c", "d"]]


@pytest.mark.parametrize("build", [
    lambda g: CurvatureBundle.from_tensors(g, ricci=WORDS),
    lambda g: CurvatureBundle.from_tensors(g, ricci=np.eye(2), nabla_ricci=[WORDS] * 2),
    lambda g: CurvatureBundle.from_tensors(g, ricci=np.eye(2), dr=["a", "b"]),
    lambda g: hyper_shape(g, WORDS),
    lambda g: pseudo_shape(g, WORDS),
    lambda g: quasi_constant_shape(g, ["a", "b"]),
    lambda g: einstein_check(WORDS, g),
    lambda g: Tensor04([[[["a"]]]]),
    lambda g: Metric(np.eye(2) * (1 + 1j)),
    lambda g: hyper_shape(g, np.eye(2) * (1 + 0j)),
    lambda g: hyper_shape(g, [[10**400, 0], [0, 1]]),
    lambda g: CurvatureBundle.from_tensors(g, ricci=np.eye(2), point=["a", "b"]),
    lambda g: CurvatureBundle.from_tensors(g, ricci=np.eye(2), r="x"),
    lambda g: OneFormSystem(a=["x", "y"], b=np.ones(2), d=np.ones(2)),
    lambda g: weak_symmetry_residual_tensors([["a"]], np.zeros((2,) * 4), _forms(2)),
    lambda g: product_ricci_form(g, "x", np.zeros(2), np.ones(2), np.ones(2)),
    lambda g: flat_ricci_form(g, np.ones(2), "x", np.zeros(2), np.ones(2), 1.0),
    lambda g: selfconsistent_ricci(g, "x", GenCurvParams(), "qc"),
    lambda g: einstein_check(np.eye(2), g, tol="x"),
    lambda g: quasi_constant_fit(wedge_gg(g), g, tol="x"),
    lambda g: conformally_flat_check(CurvatureBundle.from_tensors(g, wedge_gg(g)), tol="x"),
    lambda g: classification_report(CurvatureBundle.from_tensors(g, wedge_gg(g)), tol="x"),
    lambda g: qc_flat_alpha(4, "x", GenCurvParams()),
    lambda g: pp_flat_alpha(4, "x", GenCurvParams()),
    lambda g: w2_flat_alpha(4, "x"),
], ids=["from_tensors", "from_tensors-nabla_ricci", "from_tensors-dr",
        "hyper_shape", "pseudo_shape", "quasi_constant_shape", "einstein_check",
        "Tensor04", "Metric-complex", "hyper_shape-complex", "hyper_shape-int-beyond-float",
        "from_tensors-point", "from_tensors-r", "OneFormSystem",
        "weak_symmetry_residual_tensors", "product_ricci_form", "flat_ricci_form",
        "selfconsistent_ricci", "einstein_check-tol", "quasi_constant_fit-tol",
        "conformally_flat_check-tol", "classification_report-tol", "qc_flat_alpha-r",
        "pp_flat_alpha-r", "w2_flat_alpha-r"])
def test_entries_that_are_not_numbers_are_refused(build):
    with pytest.raises(DimensionMismatch, match="of numbers"):
        build(Metric(np.eye(2)))


@pytest.mark.parametrize("tol", [0.0, -0.0, -1.0, -1e-300])
@pytest.mark.parametrize("check", [
    lambda g, tol: einstein_check(np.eye(3), g, tol=tol),
    lambda g, tol: quasi_constant_fit(wedge_gg(g), g, tol=tol),
    lambda g, tol: conformally_flat_check(CurvatureBundle.from_tensors(g, wedge_gg(g)), tol=tol),
    lambda g, tol: classification_report(CurvatureBundle.from_tensors(g, wedge_gg(g)), tol=tol),
], ids=["einstein_check", "quasi_constant_fit", "conformally_flat_check",
        "classification_report"])
def test_a_tolerance_that_is_not_positive_is_refused(check, tol):
    # an exactly Einstein, constant-curvature input would fail every verdict
    # at such a tolerance; the CLI's --tol refuses it as well
    with pytest.raises(InvalidParams, match="tol must be positive"):
        check(Metric(np.eye(3)), tol)


def _forms(n):
    return OneFormSystem(a=np.ones(n), b=np.ones(n), d=np.ones(n))


def _bundle_with(**arrays):
    return CurvatureBundle.from_tensors(Metric(np.eye(4)), ricci=np.diag([1.0, 2.0, 3.0, 4.0]),
                                        **arrays)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: _bundle_with(point=[1.0] * 3),
    lambda: wrs_residual(_bundle_with(nabla_ricci=np.zeros((2, 2))), _forms(4)),
    lambda: recover_one_forms(_bundle_with(nabla_ricci=np.zeros((2, 2)))),
    lambda: check_dr_identity(_bundle_with(dr=np.zeros(3)), _forms(4)),
    lambda: weak_symmetry_residual_tensors(np.zeros((4, 4)), np.zeros((4,) * 4), _forms(4)),
    lambda: product_ricci_form(Metric(np.eye(4)), np.ones(3), np.zeros(4), np.ones(4),
                               np.ones(4)),
    lambda: rank_one_coefficient(Metric(np.eye(4)), np.eye(4), np.ones(3)),
], ids=["from_tensors-point", "wrs_residual", "recover_one_forms", "check_dr_identity",
        "weak_symmetry_residual_tensors", "product_ricci_form", "rank_one_coefficient"])
def test_arguments_of_a_wrong_shape_are_refused(call):
    with pytest.raises(DimensionMismatch, match="must have shape"):
        call()


def _grid(value):
    return Tensor04(np.full((4,) * 4, value))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda g: CurvatureBundle.from_tensors(g, ricci=np.full((4, 4), np.inf)),
    lambda g: quasi_einstein_decompose(np.full((4, 4), np.nan), g),
    lambda g: classification_report(CurvatureBundle.from_tensors(
        g, Tensor04(np.zeros((4,) * 4)), ricci=np.full((4, 4), np.nan))),
    lambda g: quasi_constant_fit(_grid(np.nan), g),
    lambda g: quasi_constant_fit(_grid(np.inf), g),
    lambda g: hyper_quasi_constant_fit(_grid(np.inf), g),
    lambda g: classification_report(CurvatureBundle.from_tensors(g, _grid(np.inf),
                                                                 ricci=np.eye(4))),
], ids=["from_tensors-inf", "quasi_einstein_decompose-nan", "classification_report-nan",
        "quasi_constant_fit-nan", "quasi_constant_fit-inf", "hyper_quasi_constant_fit-inf",
        "classification_report-inf"])
def test_non_finite_arguments_are_refused(call):
    with pytest.raises(DimensionMismatch, match="non-finite"):
        call(Metric(np.eye(4)))


def test_metric_inverse_quality():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6):
        g = Metric(random_spd(rng, n))
        assert max_abs(g.mat @ g.inv - np.eye(n)) <= 1e-10


def test_raise_lower_roundtrip():
    rng = np.random.default_rng(1)
    g = Metric(random_spd(rng, 5))
    w = rng.standard_normal(5)
    assert np.allclose(g.mat @ (g.inv @ w), w, atol=1e-12)
    assert float(_norm_sq_values(g.inv, w)) == pytest.approx(float(w @ g.inv @ w))


# --------------------------------------------------------------------------
# The least-squares solve

def _lstsq_systems(rng):
    """Six 7 x 3 systems on leading axes (2, 3); the one at (1, 0) has a
    kernel of dimension 1 and the one at (0, 2) of dimension 2."""
    design = rng.standard_normal((2, 3, 7, 3))
    design[1, 0, :, 2] = design[1, 0, :, 0] - design[1, 0, :, 1]
    design[0, 2, :, 1:] = design[0, 2, :, :1]
    return design, rng.standard_normal((2, 3, 7))


def test_lstsq_kernel_solves_a_stack_as_lstsq_solves_each_system():
    design, rhs = _lstsq_systems(np.random.default_rng(30))
    sol, kernel_dim, cut = _lstsq_kernel(design, rhs)
    assert sol.shape == (2, 3, 3) and kernel_dim.shape == cut.shape == (2, 3)
    for k in np.ndindex(2, 3):
        # lstsq (LAPACK gelsd), one system at a time, as an independent oracle
        one, _, rank, _ = np.linalg.lstsq(design[k], rhs[k], rcond=KERNEL_RCOND)
        assert np.abs(sol[k] - one).max() <= 1e-12 * (1.0 + np.abs(sol[k]).max())
        assert kernel_dim[k] == 3 - rank
        sigma = np.linalg.svd(design[k], full_matrices=False)[1]
        assert cut[k] == KERNEL_RCOND * sigma.max()
    assert kernel_dim.tolist() == [[0, 0, 2], [1, 0, 0]]


def test_lstsq_kernel_takes_one_system_without_leading_axes():
    design, rhs = _lstsq_systems(np.random.default_rng(31))
    sol, kernel_dim, cut = _lstsq_kernel(design[1, 0], rhs[1, 0])
    stacked = _lstsq_kernel(design, rhs)
    assert sol.shape == (3,) and np.shape(kernel_dim) == np.shape(cut) == ()
    assert np.array_equal(sol, stacked[0][1, 0])
    assert int(kernel_dim) == 1 and float(cut) == stacked[2][1, 0]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["design", "rhs"])
def test_lstsq_kernel_refuses_a_non_finite_system_before_solving(monkeypatch, bad, where):
    design, rhs = _lstsq_systems(np.random.default_rng(32))
    if where == "design":
        design[1, 1, 4, 2] = bad
        design[1, 2, 0, 0] = bad
    else:
        rhs[1, 1, 6] = bad
        rhs[1, 2, 0] = bad

    def unreachable(*args, **kwargs):
        raise AssertionError("a system reached the SVD")

    monkeypatch.setattr(np.linalg, "svd", unreachable)
    with pytest.raises(NumericalInconsistency, match="non-finite") as err:
        _lstsq_kernel(design, rhs)
    assert err.value.item == 4  # the flat index of system (1, 1)


# --------------------------------------------------------------------------
# Tensor04 flag

def test_riemann_like_flag_validates():
    rng = np.random.default_rng(2)
    vals = random_riemann_like(rng, 3)
    t = Tensor04(vals, riemann_like=True)
    assert all(v <= 1e-12 * t.norm() for v in t.symmetry_residuals().values())
    with pytest.raises(DimensionMismatch):
        Tensor04(rng.standard_normal((3, 3, 3, 3)), riemann_like=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_riemann_like_flag_refuses_non_finite_values(bad):
    # refused before the symmetry residuals, so numpy warns of nothing
    with pytest.raises(DimensionMismatch, match="non-finite"):
        Tensor04(np.full((3,) * 4, bad), riemann_like=True)


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


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("terms", [_PSEUDO_TERMS, _HYPER_TERMS, _W2_TERMS],
                         ids=["pseudo", "hyper", "w2"])
def test_each_block_at_g_is_its_weight_times_g(terms, n):
    # B(g) = w * G is what lets every c * G term join its block as the shift
    # (c / w) * g of the block's bilinear
    rng = np.random.default_rng(60 + n)
    g = random_spd(rng, n)
    wedge = loop_wedge(g)
    weight = _WEDGE_WEIGHT[terms]
    assert max_abs(_expand_block(terms, g, g) - weight * wedge) <= 1e-14 * max_abs(wedge)
    p = rng.standard_normal((n, n))
    want = _expand_block(terms, g, p) - 0.7 * wedge
    assert max_abs(_expand_with_wedge(terms, g, p, -0.7) - want) <= 1e-14 * max_abs(want)


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
        expected = ((a * (n - 1) + b * float(_norm_sq_values(g.inv, a_form))) * g.mat
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


@pytest.mark.parametrize("kind", sorted(BLOCK_FORMULAS))
def test_term_tables_span_the_four_slots(kind):
    """Each term puts P on two output slots and g on the other two, so
    every evaluator of a table reads each term as a relabeling of g (x) P."""
    terms, _ = BLOCK_FORMULAS[kind]
    for sign, p_slots, g_slots in terms:
        assert sign in (+1, -1) and len(p_slots) == len(g_slots) == 2
        assert sorted(p_slots + g_slots) == list("ijkl"), (p_slots, g_slots)


def loop_block(formula, gm, stack):
    """The formula at every stacked item and every grid entry; gm is one
    metric for every item, or one per item."""
    n = gm.shape[-1]
    out = np.empty(stack.shape[:-2] + (n,) * 4)
    for idx in np.ndindex(stack.shape[:-2]):
        p, g = stack[idx].tolist(), (gm if gm.ndim == 2 else gm[idx]).tolist()
        for i, j, k, l in np.ndindex((n,) * 4):
            out[idx + (i, j, k, l)] = formula(p, g, i, j, k, l)
    return out


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", sorted(BLOCK_FORMULAS))
def test_expanded_blocks_match_loop_formulas(kind, n):
    terms, formula = BLOCK_FORMULAS[kind]
    rng = np.random.default_rng(700 + n)
    g = Metric(random_spd(rng, n))
    stack = rng.standard_normal((2, n, n))
    assert np.array_equal(_expand_block(terms, g.mat, stack),
                          loop_block(formula, g.mat, stack))
    # one metric per stacked item
    gms = np.stack([g.mat, Metric(random_spd(rng, n)).mat])
    assert np.array_equal(_expand_block(terms, gms, stack), loop_block(formula, gms, stack))


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


def test_wedge_is_read_only_and_matches_the_loops():
    g = Metric(random_spd(np.random.default_rng(8), 4))
    wedge = wedge_gg(g)
    assert not wedge.values.flags.writeable
    assert np.array_equal(wedge.values, loop_wedge(g.mat))


def test_bundle_parts_stay_consistent_after_the_caller_writes_its_arrays():
    g = Metric(np.eye(3))
    s, nabla, dr = np.eye(3), np.zeros((3, 3, 3)), np.ones(3)
    bundle = CurvatureBundle.from_tensors(g, ricci=s, nabla_ricci=nabla, dr=dr)
    s[0, 0], nabla[0, 0, 0], dr[0] = 5.0, 5.0, 5.0
    assert bundle.ricci[0, 0] == bundle.ricci_op[0, 0] == 1.0
    assert bundle.r == np.trace(bundle.ricci) == 3.0
    assert bundle.nabla_ricci[0, 0, 0] == 0.0 and bundle.dr[0] == 1.0
    for part in ("ricci", "ricci_op", "nabla_ricci", "dr"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(bundle, part)[0] = 2.0


def test_a_bundle_built_directly_is_the_bundle_from_tensors_builds():
    g = Metric(random_spd(np.random.default_rng(9), 3))
    riemann = Tensor04(2.0 * loop_wedge(g.mat), riemann_like=True)
    parts = (g, riemann, None, None, np.zeros((3, 3, 3)), np.ones(3), (0.5, 1, 2))
    direct, named = CurvatureBundle(*parts), CurvatureBundle.from_tensors(*parts)
    for part in ("ricci", "ricci_op", "nabla_ricci", "dr"):
        assert np.array_equal(getattr(direct, part), getattr(named, part))
    assert np.array_equal(direct.ricci_op, g.inv @ direct.ricci)
    assert direct.r == named.r and direct.point == named.point == (0.5, 1.0, 2.0)
    with pytest.raises(DimensionMismatch, match="ricci must have shape"):
        CurvatureBundle(g, ricci=np.eye(2))
    with pytest.raises(DimensionMismatch, match="need riemann or ricci"):
        CurvatureBundle(g)
    with pytest.raises(DimensionMismatch, match="^g must be a Metric"):
        CurvatureBundle(g.mat, ricci=np.eye(3))
    with pytest.raises(TypeError, match="ricci_op"):
        CurvatureBundle(g, ricci=np.eye(3), ricci_op=np.zeros((3, 3)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_builders_flag_riemann_like_by_construction(n):
    """The four-term builders set the flag by construction; check the
    symmetries entry by entry as well."""
    rng = np.random.default_rng(950 + n)
    g = Metric(random_spd(rng, n))
    p = rng.standard_normal((n, n))
    built = (wedge_gg(g), quasi_constant_shape(g, rng.standard_normal(n)),
             hyper_shape(g, p + p.T))
    for tensor in built:
        v = tensor.values
        assert tensor.riemann_like
        assert loop_curvature_symmetry_defect(v) <= 1e-12 * float(np.abs(v).max())
    assert not hyper_shape(g, p).riemann_like
