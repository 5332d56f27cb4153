import numpy as np
import pytest

from curvkit.chart import CurvatureBundle
from curvkit.errors import DegenerateParams, DimensionMismatch, InvalidParams
from curvkit.gencurv import (GenCurvParams, _flat_alpha, _flat_ricci, _flat_values,
                             _weights, pp_flat_alpha, pseudo_projective,
                             qc_flat_alpha, quasi_conformal,
                             reconstruct_pp_flat, reconstruct_qc_flat,
                             reconstruct_w2_flat, w2, w2_flat_alpha, weyl,
                             weyl_from_tensors)
from curvkit.harness import selfconsistent_ricci
from curvkit.tensor import (Metric, Tensor04, _ricci_contract_values, max_abs,
                            ricci_contract, scalar_curvature, wedge_gg)
from oracles import (loop_curvature_symmetry_defect, loop_pseudo_projective,
                     loop_quasi_conformal, loop_w2, random_riemann_like,
                     random_spd)


def flat_bundle(n: int) -> CurvatureBundle:
    g = Metric(np.eye(n))
    return CurvatureBundle.from_tensors(g, riemann=Tensor04(np.zeros((n,) * 4),
                                                            riemann_like=True))


def constant_curvature_bundle(rng, n: int, kappa: float) -> CurvatureBundle:
    g = Metric(random_spd(rng, n))
    riemann = Tensor04(kappa * wedge_gg(g).values, riemann_like=True)
    return CurvatureBundle.from_tensors(g, riemann=riemann)


def random_bundle(rng, n: int) -> CurvatureBundle:
    g = Metric(random_spd(rng, n))
    riemann = Tensor04(random_riemann_like(rng, n), riemann_like=True)
    return CurvatureBundle.from_tensors(g, riemann=riemann)


# --------------------------------------------------------------------------
# Forward combinations

def test_flat_bundle_all_zero():
    b = flat_bundle(4)
    params = GenCurvParams(1.3, -0.7)
    assert max_abs(quasi_conformal(b, params).values) == 0.0
    assert max_abs(pseudo_projective(b, params).values) == 0.0
    assert max_abs(w2(b).values) == 0.0
    assert max_abs(weyl(b).values) == 0.0


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, -0.5), (1.0, 0.0), (-3.0, 7.0)])
def test_constant_curvature_quasi_conformally_flat(a, b):
    rng = np.random.default_rng(21)
    bundle = constant_curvature_bundle(rng, 4, kappa=0.8)
    out = quasi_conformal(bundle, GenCurvParams(a, b))
    assert max_abs(out.values) <= 1e-12 * (1 + bundle.riemann.norm())


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, -0.5), (-3.0, 7.0)])
def test_constant_curvature_pseudo_projectively_flat(a, b):
    rng = np.random.default_rng(22)
    bundle = constant_curvature_bundle(rng, 5, kappa=-0.6)
    out = pseudo_projective(bundle, GenCurvParams(a, b))
    assert max_abs(out.values) <= 1e-12 * (1 + bundle.riemann.norm())


def test_constant_curvature_w2_and_weyl_flat():
    rng = np.random.default_rng(23)
    bundle = constant_curvature_bundle(rng, 4, kappa=1.1)
    assert max_abs(w2(bundle).values) <= 1e-12 * (1 + bundle.riemann.norm())
    assert max_abs(weyl(bundle).values) <= 1e-12 * (1 + bundle.riemann.norm())


def test_quasi_conformal_matches_loop_oracle():
    rng = np.random.default_rng(24)
    bundle = random_bundle(rng, 4)
    for a, b in [(1.0, 1.0), (1.0, 0.0), (0.7, -2.0)]:
        mine = quasi_conformal(bundle, GenCurvParams(a, b)).values
        oracle = loop_quasi_conformal(bundle.riemann.values, bundle.ricci,
                                      bundle.g.mat, bundle.r, 4, a, b)
        assert max_abs(mine - oracle) <= 1e-12 * (1 + max_abs(oracle))


def test_concircular_reduction_a1_b0():
    # a=1, b=0 reduces to R - (r/(n(n-1))) G
    rng = np.random.default_rng(25)
    bundle = random_bundle(rng, 4)
    mine = quasi_conformal(bundle, GenCurvParams(1.0, 0.0)).values
    expected = (bundle.riemann.values
                - (bundle.r / (4 * 3)) * wedge_gg(bundle.g).values)
    assert max_abs(mine - expected) <= 1e-12 * (1 + max_abs(expected))


def test_pseudo_projective_matches_loop_oracle():
    rng = np.random.default_rng(26)
    bundle = random_bundle(rng, 4)
    a, b = 1.4, 0.3
    mine = pseudo_projective(bundle, GenCurvParams(a, b)).values
    oracle = loop_pseudo_projective(bundle.riemann.values, bundle.ricci,
                                    bundle.g.mat, bundle.r, 4, a, b)
    assert max_abs(mine - oracle) <= 1e-12 * (1 + max_abs(oracle))


def test_pseudo_projective_einstein_independent_of_b():
    rng = np.random.default_rng(27)
    g = Metric(random_spd(rng, 4))
    riemann = Tensor04(random_riemann_like(rng, 4), riemann_like=True)
    r = 8.0
    s = (r / 4) * g.mat  # Einstein Ricci (probing bundle, r fixed)
    bundle = CurvatureBundle.from_tensors(g, riemann=riemann, ricci=s, r=r)
    a = 1.7
    out_b1 = pseudo_projective(bundle, GenCurvParams(a, 1.0)).values
    out_b2 = pseudo_projective(bundle, GenCurvParams(a, -2.5)).values
    expected = a * (riemann.values - (r / (4 * 3)) * wedge_gg(g).values)
    assert max_abs(out_b1 - out_b2) <= 1e-12 * (1 + max_abs(out_b1))
    assert max_abs(out_b1 - expected) <= 1e-12 * (1 + max_abs(expected))


def test_pseudo_projective_requires_nonzero_weights():
    bundle = flat_bundle(4)
    with pytest.raises(InvalidParams):
        pseudo_projective(bundle, GenCurvParams(0.0, 1.0))
    with pytest.raises(InvalidParams):
        pseudo_projective(bundle, GenCurvParams(1.0, 0.0))


@pytest.mark.parametrize("a,b", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 0.5)])
def test_params_must_be_finite(a, b):
    with pytest.raises(InvalidParams, match="finite"):
        GenCurvParams(a, b)


def test_w2_matches_loop_oracle_and_correction_trace():
    rng = np.random.default_rng(28)
    bundle = random_bundle(rng, 4)
    mine = w2(bundle).values
    oracle = loop_w2(bundle.riemann.values, bundle.ricci, bundle.g.mat, 4)
    assert max_abs(mine - oracle) <= 1e-13 * (1 + max_abs(oracle))
    # trace of the correction block alone: (S - r g) / (n-1)
    corr = Tensor04(mine - bundle.riemann.values)
    traced = ricci_contract(corr, bundle.g)
    expected = (bundle.ricci - bundle.r * bundle.g.mat) / (4 - 1)
    assert max_abs(traced - expected) <= 1e-12 * (1 + max_abs(expected))


def test_weyl_totally_trace_free():
    rng = np.random.default_rng(29)
    for n in (4, 5):
        bundle = random_bundle(rng, n)
        c = weyl(bundle).values
        ginv = bundle.g.inv
        for pattern in ("il,ijkl->jk", "ik,ijkl->jl", "jk,ijkl->il",
                     "jl,ijkl->ik", "ij,ijkl->kl", "kl,ijkl->ij"):
            assert max_abs(np.einsum(pattern, ginv, c)) <= 1e-9 * (1 + max_abs(c))


def test_weyl_zero_identically_at_n3():
    rng = np.random.default_rng(30)
    bundle = random_bundle(rng, 3)
    assert max_abs(weyl(bundle).values) <= 1e-12 * (1 + bundle.riemann.norm())


def test_weyl_needs_n3():
    with pytest.raises(DimensionMismatch):
        weyl(flat_bundle(2))


def test_weyl_from_tensors_checks_ricci_shape():
    g = Metric(np.eye(4))
    with pytest.raises(DimensionMismatch):
        weyl_from_tensors(Tensor04(np.zeros((4,) * 4)), g, ricci=np.eye(3), r=1.0)


def test_weyl_conformally_flat_chart(conformal4):
    b = conformal4.curvature_bundle((0.3, -0.2, 0.5, 0.1))
    assert max_abs(weyl(b).values) <= 1e-8 * (1 + b.riemann.norm())


def test_weyl_round_sphere_zero(sphere3):
    b = sphere3.curvature_bundle((1.0, 0.9, 0.5))
    assert max_abs(weyl_from_tensors(b.riemann, b.g).values) <= 1e-10


# --------------------------------------------------------------------------
# Flat reconstructions

def test_reconstruct_zero_inputs():
    g = Metric(np.eye(4))
    z = np.zeros((4, 4))
    params = GenCurvParams(1.0, 1.0)
    assert max_abs(reconstruct_qc_flat(z, g, 0.0, params).values) == 0.0
    assert max_abs(reconstruct_pp_flat(z, g, 0.0, params).values) == 0.0
    assert max_abs(reconstruct_w2_flat(z, g).values) == 0.0


def test_reconstruction_round_trips():
    rng = np.random.default_rng(31)
    n = 5
    g = Metric(random_spd(rng, n))
    s = rng.standard_normal((n, n))
    s = 0.5 * (s + s.T)
    r = scalar_curvature(s, g)
    params = GenCurvParams(1.2, -0.8)
    # quasi-conformal round trip
    rec = reconstruct_qc_flat(s, g, r, params)
    bundle = CurvatureBundle.from_tensors(g, riemann=rec, ricci=s, r=r)
    assert max_abs(quasi_conformal(bundle, params).values) <= 1e-12 * (1 + rec.norm())
    # pseudo-projective round trip
    rec = reconstruct_pp_flat(s, g, r, params)
    bundle = CurvatureBundle.from_tensors(g, riemann=rec, ricci=s, r=r)
    assert max_abs(pseudo_projective(bundle, params).values) <= 1e-12 * (1 + rec.norm())
    # w2 round trip
    rec = reconstruct_w2_flat(s, g)
    bundle = CurvatureBundle.from_tensors(g, riemann=rec, ricci=s, r=r)
    assert max_abs(w2(bundle).values) <= 1e-12 * (1 + rec.norm())


def test_reconstruct_riemann_like_flag():
    rng = np.random.default_rng(32)
    g = Metric(random_spd(rng, 4))
    s_sym = 0.5 * (lambda m: m + m.T)(rng.standard_normal((4, 4)))
    assert reconstruct_qc_flat(s_sym, g, 1.0, GenCurvParams()).riemann_like
    s_gen = rng.standard_normal((4, 4))
    assert not reconstruct_qc_flat(s_gen, g, 1.0, GenCurvParams()).riemann_like


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_qc_reconstruction_has_curvature_symmetries(n):
    """The reconstruction of a symmetric S flags itself riemann-like; check
    the four symmetries entry by entry as well."""
    rng = np.random.default_rng(900 + n)
    g = Metric(random_spd(rng, n))
    s = rng.standard_normal((n, n))
    s = s + s.T
    rec = reconstruct_qc_flat(s, g, scalar_curvature(s, g), GenCurvParams(1.3, -0.4))
    assert rec.riemann_like
    v = rec.values
    assert loop_curvature_symmetry_defect(v) <= 1e-12 * float(np.abs(v).max())


def test_qc_selfconsistent_einstein_spot_value():
    # n=4, a=b=1, r=12: alpha = (12/3) * (-1 + (1/4)(1+6)) = 3
    assert qc_flat_alpha(4, 12.0, GenCurvParams(1.0, 1.0)) == pytest.approx(3.0)
    # and S = 3 g is the fixed point of contraction o reconstruction
    rng = np.random.default_rng(33)
    g = Metric(random_spd(rng, 4))
    s = 3.0 * g.mat
    rec = reconstruct_qc_flat(s, g, 12.0, GenCurvParams(1.0, 1.0))
    assert max_abs(ricci_contract(rec, g) - s) <= 1e-11 * (1 + max_abs(s))


def test_pp_and_w2_alpha_values():
    assert pp_flat_alpha(4, 12.0, GenCurvParams(1.0, 1.0)) == pytest.approx(3.0)
    assert w2_flat_alpha(5, 10.0) == pytest.approx(2.0)
    # fixed-point property of the forced Einstein Ricci
    rng = np.random.default_rng(34)
    g = Metric(random_spd(rng, 5))
    s = 2.0 * g.mat
    rec = reconstruct_w2_flat(s, g)
    # contraction: (r g - S)/(n-1) = (10 g - 2 g)/4 = 2 g = S
    assert max_abs(ricci_contract(rec, g) - s) <= 1e-11 * (1 + max_abs(s))


def test_qc_alpha_consistent_with_trace():
    # alpha*n = r whenever r is the metric trace of S (algebraic identity)
    rng = np.random.default_rng(35)
    for n in (4, 5, 6):
        for _ in range(5):
            a = float(rng.uniform(0.5, 2.0))
            b = float(rng.uniform(-1.5, 1.5))
            r = float(rng.uniform(-20, 20))
            try:
                alpha = qc_flat_alpha(n, r, GenCurvParams(a, b))
            except DegenerateParams:
                continue
            assert alpha * n == pytest.approx(r, rel=1e-10, abs=1e-12)


def test_guards():
    with pytest.raises(InvalidParams):
        reconstruct_qc_flat(np.zeros((4, 4)), Metric(np.eye(4)), 0.0,
                            GenCurvParams(0.0, 1.0))
    with pytest.raises(DegenerateParams):
        qc_flat_alpha(4, 1.0, GenCurvParams(1.0, -0.5))  # 1 + (b/a)(n-2) = 0
    with pytest.raises(DegenerateParams):
        pp_flat_alpha(4, 1.0, GenCurvParams(3.0, -1.0))  # 1 + (b/a)(n-1) = 0


def _flat_cores(kind, params, n=4):
    """Each core that evaluates a kind's flat formula, at one point."""
    g, s = Metric(np.eye(n)), np.eye(n)
    wedge = wedge_gg(g).values
    return {"_flat_values": lambda: _flat_values(kind, s, g.mat, 4.0, params, wedge),
            "_flat_ricci": lambda: _flat_ricci(kind, s, g.mat, g.inv, 4.0, params),
            "_flat_alpha": lambda: _flat_alpha(kind, n, 4.0, params),
            "selfconsistent_ricci": lambda: selfconsistent_ricci(g, 4.0, params, kind)}


_CORES = sorted(_flat_cores("qc", GenCurvParams()))


@pytest.mark.parametrize("core", _CORES)
@pytest.mark.parametrize("kind, params", [("qc", GenCurvParams(0.0, 1.0)),
                                          ("pp", GenCurvParams(0.0, 1.0)),
                                          ("pp", GenCurvParams(1.0, 0.0))],
                         ids=["qc-a=0", "pp-a=0", "pp-b=0"])
def test_flat_cores_refuse_weights_outside_their_preconditions(kind, params, core):
    # the cores divide by a: a zero weight is refused before that division
    with pytest.raises(InvalidParams, match=r"combination requires a != 0"):
        _flat_cores(kind, params)[core]()


@pytest.mark.parametrize("core", _CORES)
@pytest.mark.parametrize("kind", ["weyl", "x", "QC", ""])
def test_flat_cores_refuse_a_kind_without_a_flat_formula(kind, core):
    with pytest.raises(InvalidParams, match="unknown flavor"):
        _flat_cores(kind, GenCurvParams())[core]()


@pytest.mark.parametrize("kind", ["x", "QC", "", "w3"])
def test_weights_refuse_an_unknown_kind(kind):
    with pytest.raises(InvalidParams, match="unknown kind"):
        _weights(kind, 4, 1.0, GenCurvParams())


def test_combinations_linear_in_bundle():
    # fixed g: all three combinations are additive over (riemann, ricci, r)
    rng = np.random.default_rng(37)
    n = 4
    g = Metric(random_spd(rng, n))
    params = GenCurvParams(1.1, -0.6)

    def make(seed):
        local = np.random.default_rng(seed)
        riemann = Tensor04(random_riemann_like(local, n), riemann_like=True)
        s = local.standard_normal((n, n))
        s = 0.5 * (s + s.T)
        return CurvatureBundle.from_tensors(g, riemann=riemann, ricci=s)

    b1, b2 = make(1), make(2)
    merged = CurvatureBundle.from_tensors(
        g, riemann=Tensor04(b1.riemann.values + b2.riemann.values, riemann_like=True),
        ricci=b1.ricci + b2.ricci,
        r=b1.r + b2.r)
    for combo in (lambda b: quasi_conformal(b, params),
                  lambda b: pseudo_projective(b, params),
                  w2):
        total = combo(merged).values
        split = combo(b1).values + combo(b2).values
        assert max_abs(total - split) <= 1e-12 * (1 + max_abs(total))


def test_round_sphere_chart_generalized_tensors(sphere3):
    b = sphere3.curvature_bundle((1.0, 0.9, 0.5))
    params = GenCurvParams(1.0, 1.0)
    scale = 1 + b.riemann.norm()
    assert max_abs(quasi_conformal(b, params).values) <= 1e-9 * scale
    assert max_abs(pseudo_projective(b, params).values) <= 1e-9 * scale
    assert max_abs(w2(b).values) <= 1e-9 * scale


@pytest.mark.parametrize("n", [4, 6])
def test_stacked_reconstructions_match_single_calls(n):
    # a stack of forms, metrics and scalar curvatures gives each item's
    # single-call grid bit for bit, and so does a stack of forms at one point
    rng = np.random.default_rng(400 + n)
    metrics = [Metric(random_spd(rng, n)) for _ in range(5)]
    gm = np.array([g.mat for g in metrics])
    wedge = np.array([wedge_gg(g).values for g in metrics])
    params = GenCurvParams(1.3, -0.4)
    r = np.linspace(-2.0, 2.7, 5)
    stack = rng.standard_normal((5, n, n))
    for kind, single in (
            ("qc", lambda s, g, r: reconstruct_qc_flat(s, g, r, params)),
            ("pp", lambda s, g, r: reconstruct_pp_flat(s, g, r, params)),
            ("w2", lambda s, g, r: reconstruct_w2_flat(s, g))):
        stacked = _flat_values(kind, stack, gm, r, params, wedge)
        at_one_point = _flat_values(kind, stack, gm[0], r[0], params, wedge[0])
        for q, s in enumerate(stack):
            assert np.array_equal(stacked[q], single(s, metrics[q], r[q]).values), (kind, q)
            assert np.array_equal(at_one_point[q], single(s, metrics[0], r[0]).values), (kind, q)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", ["qc", "pp", "w2"])
def test_contracted_reconstructions_match_expanded(kind, n):
    rng = np.random.default_rng(900 + n)
    metrics = [Metric(random_spd(rng, n)) for _ in range(4)]
    gm = np.array([g.mat for g in metrics])
    ginv = np.array([g.inv for g in metrics])
    params = GenCurvParams(1.3, -0.4)
    r = np.array([2.7, -1.0, 0.5, 3.0])
    stack = rng.standard_normal((4, n, n))
    wedge = np.array([wedge_gg(g).values for g in metrics])
    expected = _ricci_contract_values(ginv, _flat_values(kind, stack, gm, r, params, wedge))
    got = _flat_ricci(kind, stack, gm, ginv, r, params)
    assert got.shape == (4, n, n)
    assert max_abs(got - expected) <= 1e-13 * max_abs(expected)
