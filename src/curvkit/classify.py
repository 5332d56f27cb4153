"""Curvature classification: Einstein, quasi-Einstein, and the
(quasi / hyper quasi / pseudo quasi) constant-curvature fits.

Each fit either returns a result object carrying the fitted parameters and a
reconstruction residual, or raises the matching Not* error.  Every accepted
fit re-expands through the tensor builders to the input within its reported
residual.  The reading is strict: an Einstein Ricci tensor is not
quasi-Einstein, and constant curvature is not quasi-constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidParams, NotQuasiConstant, NotQuasiEinstein
from .gencurv import GenCurvParams, _combined_values
from .tensor import (_HYPER_TERMS, _PSEUDO_TERMS, _WEDGE_WEIGHT, CurvatureBundle,
                     Metric, Tensor04, _ArrayRecord, _adjoint_block, _as_array,
                     _block_weights, _bundle_part, _expand_block, _expand_with_wedge, _grid_of,
                     _instance, _lift, _lstsq_kernel, _max_abs_items, _outer, _relative,
                     _ricci_contract_values, _scalar_curvature_values, _tolerance,
                     _wedge_values, max_abs)

__all__ = [
    "EinsteinFit", "QuasiEinsteinFit", "QuasiConstantFit",
    "HyperQuasiConstantFit", "PseudoQuasiConstantFit", "ClassificationReport",
    "einstein_check", "quasi_einstein_decompose", "quasi_constant_fit",
    "hyper_quasi_constant_fit", "pseudo_quasi_constant_fit",
    "conformally_flat_check", "classification_report",
]

COEFF_FLOOR = 1e-10  # relative threshold below which a fitted scalar counts as zero
CLUSTER_TOL = 1e-6   # relative spread within which eigenvalues form one cluster
# The bound on the magnitude of a classified metric's largest entry: the fits
# form products of up to four metric entries (the squared norm of the G
# grid), which stay finite and normal for entries between 1/METRIC_LIMIT and
# METRIC_LIMIT at every admitted dimension and weight.  (Scaled golden charts
# classified alike, without a warning, from 1e-80 to 1e76.)
METRIC_LIMIT = 1e70


@dataclass(frozen=True)
class EinsteinFit:
    alpha: float
    residual: float
    ok: bool


@dataclass(frozen=True, eq=False)
class QuasiEinsteinFit(_ArrayRecord):
    p: float
    q: float
    omega: np.ndarray  # g-unit covector, sign-canonicalized
    residual: float


@dataclass(frozen=True, eq=False)
class QuasiConstantFit(_ArrayRecord):
    a: float
    b: float
    a_form: np.ndarray  # g-unit covector, sign-canonicalized
    residual: float


@dataclass(frozen=True, eq=False)
class HyperQuasiConstantFit(_ArrayRecord):
    a: float
    p: np.ndarray  # trace-free gauge representative
    residual: float
    kernel_dim: int
    shape: ClassVar = (_HYPER_TERMS, _WEDGE_WEIGHT[_HYPER_TERMS])  # the block, B(g) / G


@dataclass(frozen=True, eq=False)
class PseudoQuasiConstantFit(_ArrayRecord):
    a: float
    p: np.ndarray
    residual: float
    kernel_dim: int
    shape: ClassVar = (_PSEUDO_TERMS, _WEDGE_WEIGHT[_PSEUDO_TERMS])


def einstein_check(s, g: Metric, tol: float = 1e-8) -> EinsteinFit:
    """Fit S = alpha * g with alpha = r/n; residual is max-norm relative."""
    s = _as_array(s, "bilinear form", 2, _instance(g, Metric, "g").n)
    return _einstein_fit(s, g, _positive_tol(tol))


def _positive_tol(tol) -> float:
    """The caller's tol, a finite number (DimensionMismatch) above zero (InvalidParams)."""
    if (value := float(_as_array(tol, "tol", 0))) <= 0.0:
        raise InvalidParams(f"tol must be positive, got {value:g}")
    return value


def _einstein_fit(s: np.ndarray, g: Metric, tol: float) -> EinsteinFit:
    """`einstein_check` of a form and a tolerance already checked."""
    alpha, residual = _einstein_values(s, g.mat, g.inv)
    return EinsteinFit(alpha=float(alpha), residual=float(residual), ok=bool(residual <= tol))


def _einstein_values(s: np.ndarray, gm: np.ndarray, ginv: np.ndarray):
    """`einstein_check`'s alpha and residual for forms and metrics stacked
    on leading axes, unchecked."""
    alpha = _scalar_curvature_values(ginv, s) / gm.shape[-1]
    residual = _relative(s - _lift(alpha, 2) * gm, _max_abs_items(s, 2), 2)
    return alpha, residual


def _canonical_sign(w: np.ndarray) -> np.ndarray:
    """Flip each covector of a stack, (m, n), so that its first component of
    nontrivial magnitude is positive."""
    size = np.abs(w)
    big = size > 1e-12 * np.maximum(size.max(axis=-1, keepdims=True), 1e-300)
    first = w[np.arange(len(w)), big.argmax(axis=-1)]
    return np.where(((first < 0.0) & big.any(axis=-1))[:, None], -w, w)


def _generalized_eigh(s: np.ndarray, gm: np.ndarray):
    """Solve S v = lam g v for forms and metrics stacked on leading axes,
    ascending lam, with eigenvectors normalized to v^T g v = 1: reduce by
    the Cholesky factor g = L L^T to the ordinary symmetric problem
    (L^-1 S L^-T) w = lam w and map back v = L^-T w."""
    chol = np.linalg.cholesky(gm)
    half = np.linalg.solve(chol, s)                            # L^-1 S
    reduced = np.linalg.solve(chol, half.swapaxes(-1, -2))     # L^-1 S^T L^-T = L^-1 S L^-T
    lam, w = np.linalg.eigh(0.5 * (reduced + reduced.swapaxes(-1, -2)))
    return lam, np.linalg.solve(chol.swapaxes(-1, -2), w)


def quasi_einstein_decompose(s, g: Metric) -> QuasiEinsteinFit:
    """Decompose S = p*g + q*omega(x)omega with omega g-unit and q != 0.

    Solves the g-relative symmetric eigenproblem; the pattern required is an
    (n-1)-fold eigenvalue cluster plus one simple eigenvalue (relative
    clustering tolerance CLUSTER_TOL).  The input is prescaled by a power of
    two, which makes the decomposition exactly equivariant under S -> 2^k S.

    Raises NotQuasiEinstein when the pattern is absent, or when it collapses
    to Einstein (q ~ 0), in which case `einstein_alpha` is set on the error.
    """
    return _quasi_einstein_fit(_as_array(s, "bilinear form", 2, _instance(g, Metric, "g").n), g)


def _quasi_einstein_fit(s: np.ndarray, g: Metric) -> QuasiEinsteinFit:
    """`quasi_einstein_decompose` of a form already checked."""
    p, q, omega, residual = _quasi_einstein_values(s[None], g.mat[None], g.inv[None])
    return QuasiEinsteinFit(p=float(p[0]), q=float(q[0]), omega=omega[0],
                            residual=float(residual[0]))


def _quasi_einstein_values(s: np.ndarray, gm: np.ndarray, ginv: np.ndarray):
    """`quasi_einstein_decompose` of forms and metrics stacked on one leading
    axis, unchecked: p, q, omega and the residual of each, stacked.  Raises
    NotQuasiEinstein for the first form without the pattern, its index as
    `item`; where no split has the pattern, the residual it reports is that
    of the split whose simple eigenvalue is n - 1."""
    n = gm.shape[-1]
    scale = _max_abs_items(s, 2)
    c0 = np.ldexp(1.0, np.frexp(scale)[1])  # 1 where scale is 0
    lam, vec = _generalized_eigh(s / _lift(c0, 2), gm)
    tol = CLUSTER_TOL * np.maximum(1e-300, np.abs(lam).max(axis=-1, keepdims=True))
    einstein = lam[:, -1] - lam[:, 0] <= tol[:, 0]
    # the two splits of the ascending eigenvalues, each as the index of the
    # simple one and then of the cluster: n - 1 (as -1) and 0 .. n - 2, or
    # 0 and 1 .. n - 1
    order = np.arange(n) - np.array([[1], [0]])
    splits = lam[:, order]
    sep = np.abs(splits[..., 0] - splits[..., 1:].sum(axis=-1) / (n - 1))
    ok = (splits[..., -1] - splits[..., 1] <= tol) & (sep > tol)
    # the larger separation among the splits with the pattern; argmax takes
    # the first on a tie, the simple eigenvalue n - 1
    split = np.where(ok, sep, -1.0).argmax(axis=-1)
    rows = np.arange(len(lam))
    chosen = splits[rows, split] * _lift(c0, 1)  # in the units of S
    p = chosen[:, 1:].sum(axis=-1) / (n - 1)
    q = chosen[:, 0] - p
    omega = _canonical_sign((gm @ vec[rows, :, order[split, 0], None])[..., 0])
    residual = _relative(s - _lift(p, 2) * gm - _lift(q, 2) * _outer(omega, omega), scale, 2)
    failed = einstein | ~ok.any(axis=-1)
    if failed.any():
        k = int(np.argmax(failed))
        if einstein[k]:
            raise NotQuasiEinstein(
                "eigenvalues form a single cluster: Einstein, not quasi-Einstein",
                residual=float(_einstein_values(s[k], gm[k], ginv[k])[1]),
                einstein_alpha=float(c0[k] * np.mean(lam[k]))).at(k)
        raise NotQuasiEinstein("eigenvalue pattern {(n-1)-cluster, simple} is absent",
                               residual=float(residual[k])).at(k)
    return p, q, omega, residual


def quasi_constant_fit(riemann: Tensor04, g: Metric,
                       tol: float = 1e-8) -> QuasiConstantFit:
    """Fit R = a * wedge_gg(g) + b * quasi_constant_shape(g, A), A g-unit,
    with nonzero scalars a, b.

    Strategy: the Ricci contraction of such an R is quasi-Einstein, and its
    simple eigendirection fixes A up to sign; (a, b) then come from a linear
    least-squares fit in the g-norm, so they do not depend on the chart.
    The class definition additionally demands conformal flatness, which
    `conformally_flat_check` decides from the Weyl norm.

    Raises NotQuasiConstant when the Ricci pattern is absent, when the
    least-squares residual exceeds `tol`, or when the fitted b collapses to
    zero; in the last case `constant_curvature` carries the pure wedge fit.
    The residual is the coordinate max-norm of the misfit over 1 + max|R|.
    """
    rv = _grid_of(riemann, "riemann", g)
    a, b, a_form, residual = _quasi_constant_values(
        rv[None], g.mat[None], g.inv[None], _ricci_contract_values(g.inv, rv)[None],
        _positive_tol(tol))
    return QuasiConstantFit(a=float(a[0]), b=float(b[0]), a_form=a_form[0],
                            residual=float(residual[0]))


def _quasi_constant_values(rv: np.ndarray, gm: np.ndarray, ginv: np.ndarray,
                           ricci: np.ndarray, tol: float):
    """`quasi_constant_fit` of grids and metrics stacked on one leading axis,
    unchecked, given the grids' Ricci contractions `ricci`: a, b, A and the
    residual of each, stacked.  Raises NotQuasiConstant for the first grid
    that fails, its index as `item`."""
    try:
        omega = _quasi_einstein_values(ricci, gm, ginv)[2]
    except NotQuasiEinstein as exc:
        k = exc.item
        if k:  # a grid before k may fail a later step
            _quasi_constant_values(rv[:k], gm[:k], ginv[:k], ricci[:k], tol)
        raise _not_quasi_constant(exc, rv[k], gm[k], ginv[k], tol).at(k) from None
    return _quasi_constant_along(rv, gm, ginv, omega, tol)


def _not_quasi_constant(exc: NotQuasiEinstein, rv: np.ndarray, gm: np.ndarray,
                        ginv: np.ndarray, tol: float) -> NotQuasiConstant:
    """The NotQuasiConstant, unraised, of one grid whose Ricci contraction
    failed the quasi-Einstein decomposition with `exc`.  The constant
    curvature is the g-orthogonal projection of R on G,
    <G, R>_g / <G, G>_g = tr_g(Y) / (4n(n-1)), Y the hyper block's
    `tensor._adjoint_block` of R, and a_cc * G the pseudo block at a_cc * g."""
    n = len(ginv)
    a_cc = float(_scalar_curvature_values(ginv, _adjoint_block(_HYPER_TERMS, ginv, rv))
                 / (4 * n * (n - 1)))
    res_cc = float(_relative(
        _misfit_size(rv, _expand_block(_PSEUDO_TERMS, gm, a_cc * gm)), max_abs(rv), 0))
    if exc.einstein_alpha is not None and res_cc <= tol:
        return NotQuasiConstant("constant curvature (the A-block coefficient vanishes)",
                                residual=res_cc, constant_curvature=a_cc)
    return NotQuasiConstant(f"Ricci contraction is not quasi-Einstein: {exc}",
                            residual=res_cc)


def _quasi_constant_along(rv: np.ndarray, gm: np.ndarray, ginv: np.ndarray,
                          omega: np.ndarray, tol: float):
    """`_quasi_constant_values` given the A of each grid, `omega`: the
    least-squares fit R ~ a * G + b * H in the g-norm, H the hyper block at
    A (x) A, the fitted grid the hyper block at (a / 2) g + b A (x) A.  For
    a g-unit A the Gram matrix of G and H is the constant
    [[2n(n-1), 4(n-1)], [4(n-1), 4(n-1)]], and with Y the hyper block's
    `tensor._adjoint_block` of R the right side is <G, R>_g = tr_g(Y) / 2
    (G is the hyper block at g / 2) and <H, R>_g = Y(A#, A#), A# = ginv A.
    The 2 x 2 system, singular at n = 2, is solved for the whole stack in
    one `tensor._lstsq_kernel` call."""
    n = gm.shape[-1]
    y = _adjoint_block(_HYPER_TERMS, ginv, rv)
    sharp = ginv @ omega[..., None]
    rhs = np.stack([_scalar_curvature_values(ginv, y) / 2,
                    (sharp.swapaxes(-1, -2) @ y @ sharp)[..., 0, 0]], axis=-1)
    gram = np.array([[2 * n * (n - 1), 4 * (n - 1)], [4 * (n - 1), 4 * (n - 1)]], dtype=float)
    a, b = _lstsq_kernel(gram, rhs)[0].T
    rv_size = _max_abs_items(rv, 4)
    floor = _tolerance(COEFF_FLOOR, rv_size / _max_abs_items(_wedge_values(gm), 4))
    fitted = _expand_with_wedge(_HYPER_TERMS, gm, _lift(b, 2) * _outer(omega, omega), a)
    residual = _relative(_misfit_size(rv, fitted), rv_size, 0)
    failed = (residual > tol) | (np.abs(b) <= floor) | (np.abs(a) <= floor)
    if failed.any():
        k = int(np.argmax(failed))
        if residual[k] > tol:
            raise NotQuasiConstant(
                f"least-squares residual {residual[k]:g} exceeds tolerance {tol:g}",
                residual=float(residual[k])).at(k)
        if abs(b[k]) <= floor[k]:
            raise NotQuasiConstant(
                "fitted A-block coefficient is numerically zero (constant curvature)",
                residual=float(residual[k]), constant_curvature=float(a[k])).at(k)
        raise NotQuasiConstant("fitted wedge coefficient is numerically zero",
                               residual=float(residual[k])).at(k)
    return a, b, omega, residual


def _linear_fit(rv: np.ndarray, gm: np.ndarray, ginv: np.ndarray,
                terms, gauge_weight: float):
    """Least-squares fit R ~ a * wedge_gg + B(P) over (a, P) in the g-norm
    |X|_g^2 = X_ijkl X^ijkl, with the trace part of P moved into a
    (`gauge_weight` wedges per unit trace), for grids R and metrics stacked
    on the same leading axes, unchecked.  Returns a, P, the residual and the
    kernel dimension, each stacked.

    `terms` is the term table of a `tensor` block kernel B, and G is
    B(g) / gauge_weight, so the fitted grid is the one block B(P') for
    P' = P + (a / gauge_weight) g.  The normal equations of P' read
    lam * P' + mu * tr_g(P') * g = Y (`tensor._block_weights`), Y = B*(R) the
    block's `tensor._adjoint_block` of R, so in closed form the trace-free
    part of P' is (Y - tr_g(Y) / n * g) / lam and its trace
    tr_g(Y) / (lam + n mu).  Where lam = 0 (the hyper block at n = 2) every
    trace-free P' is in the kernel, and the minimum-norm answer takes it 0:
    the kernel dimension is n^2 there and 1, the gauge, elsewhere.  The
    g-norm is the Frobenius norm of the components in any g-orthonormal
    frame, so (a, P) follow the chart as tensors do.  The residual is
    measured on the full coordinate grid."""
    n = gm.shape[-1]
    lam, mu = _block_weights(terms, n, normal=True)
    y = _adjoint_block(terms, ginv, rv)
    trace = _scalar_curvature_values(ginv, y)
    p_hat = (y - _lift(trace / n, 2) * gm) / lam if lam else np.zeros_like(y)
    a_hat = gauge_weight * trace / (n * (lam + n * mu))
    residual = _relative(_misfit_size(rv, _expand_with_wedge(terms, gm, p_hat, a_hat)),
                         _max_abs_items(rv, 4), 0)
    return a_hat, p_hat, residual, np.full(gm.shape[:-2], 1 if lam else n * n)


def _misfit_size(rv: np.ndarray, fitted: np.ndarray) -> np.ndarray:
    """max|R - fitted| of each fit of a stack, written into `fitted`, the
    grids its caller has just built, so a fit holds no n^4 grid more."""
    np.subtract(rv, fitted, out=fitted)
    return np.abs(fitted, out=fitted).max(axis=(-4, -3, -2, -1), initial=0.0)


def _shape_fit(rv: np.ndarray, g: Metric, kind):
    """The `_linear_fit` of one checked grid to the `shape` of the fit class
    `kind`, as its instance."""
    a, p, residual, kernel = _linear_fit(rv, g.mat, g.inv, *kind.shape)
    return kind(a=float(a), p=p, residual=float(residual), kernel_dim=int(kernel))


def hyper_quasi_constant_fit(riemann: Tensor04, g: Metric) -> HyperQuasiConstantFit:
    """Fit R = a * wedge_gg(g) + hyper_shape(g, P) with P gauge-fixed to be
    trace-free (P -> P + c*g is absorbed by a -> a - 2c), by least squares
    in the g-norm |X|_g^2 = X_ijkl X^ijkl, so (a, P) do not depend on the
    chart.  Always returns; `residual`, the coordinate max-norm of the misfit
    over 1 + max|R|, says how well the fit explains the input and
    `kernel_dim` reports the null directions of the design operator: 1, the
    gauge, except n^2 at n = 2, where the block is a multiple of G."""
    rv = _grid_of(riemann, "riemann", g)
    return _shape_fit(rv, g, HyperQuasiConstantFit)


def pseudo_quasi_constant_fit(riemann: Tensor04, g: Metric) -> PseudoQuasiConstantFit:
    """Fit R = a * wedge_gg(g) + pseudo_shape(g, P), trace-free gauge
    (P -> P + c*g is absorbed by a -> a + c), fitted as
    `hyper_quasi_constant_fit` is.  Accepts generalized inputs; the two-term
    shape need not be riemann-like."""
    rv = _grid_of(riemann, "riemann", g)
    return _shape_fit(rv, g, PseudoQuasiConstantFit)


def conformally_flat_check(bundle: CurvatureBundle,
                           tol: float = 1e-8) -> tuple[float, bool]:
    """Max-norm of the Weyl tensor and the verdict `norm <= tol * (1 + |R|)`.
    (For n <= 3 the Weyl tensor vanishes identically, so the verdict is
    vacuous there and only meaningful from n = 4 on; the norm reads 0 at
    n = 2, where the tensor is not even defined.)"""
    return _conformally_flat(_bundle_part(bundle, "riemann").values, bundle,
                             _positive_tol(tol))


def _conformally_flat(rv: np.ndarray, bundle: CurvatureBundle, tol: float):
    """`conformally_flat_check` of the bundle's grid rv, tol checked."""
    norm = 0.0 if bundle.n < 3 else max_abs(_combined_values(
        "weyl", rv, bundle.g.mat, bundle.ricci, bundle.r, None))
    return norm, norm <= _tolerance(tol, max_abs(rv))


# --------------------------------------------------------------------------
# Combined report

@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Structured verdicts for one bundle; see `classification_report`."""

    n: int
    tol: float
    params: GenCurvParams
    einstein: EinsteinFit
    quasi_einstein: QuasiEinsteinFit | None
    quasi_einstein_error: str | None
    quasi_constant: QuasiConstantFit | None
    quasi_constant_error: str | None
    hyper: HyperQuasiConstantFit
    pseudo: PseudoQuasiConstantFit
    weyl_norm: float
    conformally_flat: bool
    gen_norms: dict[str, float]

    def to_dict(self) -> dict:
        def arr(x):
            return np.asarray(x).tolist()

        out = {
            "n": self.n,
            "tolerance": self.tol,
            "params": {"a": self.params.a, "b": self.params.b},
            "einstein": {"alpha": self.einstein.alpha,
                         "residual": self.einstein.residual,
                         "verdict": "pass" if self.einstein.ok else "fail"},
            "weyl_norm": self.weyl_norm,
            "conformally_flat": self.conformally_flat,
            "generalized_norms": dict(self.gen_norms),
        }
        if self.quasi_einstein is not None:
            qe = self.quasi_einstein
            out["quasi_einstein"] = {"verdict": "pass", "p": qe.p, "q": qe.q,
                                     "omega": arr(qe.omega), "residual": qe.residual}
        else:
            out["quasi_einstein"] = {"verdict": "fail",
                                     "reason": self.quasi_einstein_error}
        if self.quasi_constant is not None:
            qc = self.quasi_constant
            out["quasi_constant"] = {"verdict": "pass", "a": qc.a, "b": qc.b,
                                     "a_form": arr(qc.a_form),
                                     "residual": qc.residual}
        else:
            out["quasi_constant"] = {"verdict": "fail",
                                     "reason": self.quasi_constant_error}
        for name, fit in (("hyper_quasi_constant", self.hyper),
                          ("pseudo_quasi_constant", self.pseudo)):
            out[name] = {"verdict": "pass" if fit.residual <= self.tol else "fail",
                         "a": fit.a, "p": arr(fit.p), "residual": fit.residual,
                         "kernel_dim": fit.kernel_dim}
        return out


def classification_report(bundle: CurvatureBundle,
                          params: GenCurvParams = GenCurvParams(),
                          tol: float = 1e-8) -> ClassificationReport:
    """Run every classifier on one bundle and collect verdicts + residuals,
    along with the max-norms of the three generalized curvature tensors.
    Raises DimensionMismatch, before any fit runs, when the bundle carries
    no (0,4) curvature tensor or params is not a GenCurvParams, and
    InvalidParams when the metric's largest entry lies outside the bound
    METRIC_LIMIT sets."""
    rv, s, g = _bundle_part(bundle, "riemann").values, bundle.ricci, bundle.g
    _instance(params, GenCurvParams, "params")
    tol = _positive_tol(tol)
    size = max_abs(g.mat)
    if not 1.0 / METRIC_LIMIT <= size <= METRIC_LIMIT:
        raise InvalidParams(f"classify needs the metric's largest entry between "
                            f"{1.0 / METRIC_LIMIT:g} and {METRIC_LIMIT:g}, got {size:g}")
    ein = _einstein_fit(s, g, tol)
    hyper = _shape_fit(rv, g, HyperQuasiConstantFit)
    pseudo = _shape_fit(rv, g, PseudoQuasiConstantFit)
    # one quasi-Einstein decomposition of s, pass or fail, serves both verdicts
    qe = qe_err = qc = qc_err = None
    try:
        qe = _quasi_einstein_fit(s, g)
    except NotQuasiEinstein as exc:
        qe_err = str(exc)
        qc_err = str(_not_quasi_constant(exc, rv, g.mat, g.inv, tol))
    else:
        try:
            a, b, a_form, residual = _quasi_constant_along(
                rv[None], g.mat[None], g.inv[None], qe.omega[None], tol)
            qc = QuasiConstantFit(a=float(a[0]), b=float(b[0]), a_form=a_form[0],
                                  residual=float(residual[0]))
        except NotQuasiConstant as exc:
            qc_err = str(exc)
    weyl_norm, conf_flat = _conformally_flat(rv, bundle, tol)

    def norm(kind):
        return max_abs(_combined_values(kind, rv, g.mat, s, bundle.r, params))

    gen_norms = {"quasi_conformal": norm("qc"), "w2": norm("w2"),
                 "pseudo_projective": norm("pp") if params.a and params.b else None}
    return ClassificationReport(
        n=bundle.n, tol=tol, params=params, einstein=ein,
        quasi_einstein=qe, quasi_einstein_error=qe_err,
        quasi_constant=qc, quasi_constant_error=qc_err,
        hyper=hyper, pseudo=pseudo,
        weyl_norm=weyl_norm, conformally_flat=conf_flat, gen_norms=gen_norms)
