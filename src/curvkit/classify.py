"""Curvature classification: Einstein, quasi-Einstein, and the
(quasi / hyper quasi / pseudo quasi) constant-curvature fits.

Each fit either returns a result object carrying the fitted parameters and a
reconstruction residual, or raises the matching Not* error.  Every accepted
fit re-expands through the tensor builders to the input within its reported
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chart import CurvatureBundle
from .errors import (DimensionMismatch, InvalidParams, NotQuasiConstant,
                     NotQuasiEinstein)
from .gencurv import (GenCurvParams, pseudo_projective, quasi_conformal, w2,
                      weyl_from_tensors)
from .tensor import (_HYPER_TERMS, _PSEUDO_TERMS, Metric, Tensor04,
                     _check_bilinear, _expand_block, _lstsq_kernel, max_abs,
                     quasi_constant_shape, ricci_contract, scalar_curvature,
                     wedge_gg)

__all__ = [
    "EinsteinFit", "QuasiEinsteinFit", "QuasiConstantFit",
    "HyperQuasiConstantFit", "PseudoQuasiConstantFit", "ClassificationReport",
    "einstein_check", "quasi_einstein_decompose", "quasi_constant_fit",
    "hyper_quasi_constant_fit", "pseudo_quasi_constant_fit",
    "conformally_flat_check", "classification_report",
]

COEFF_FLOOR = 1e-10  # relative threshold below which a fitted scalar counts as zero
CLUSTER_TOL = 1e-6   # relative spread within which eigenvalues form one cluster


@dataclass(frozen=True)
class EinsteinFit:
    alpha: float
    residual: float
    ok: bool


@dataclass(frozen=True)
class QuasiEinsteinFit:
    p: float
    q: float
    omega: np.ndarray  # g-unit covector, sign-canonicalized
    residual: float


@dataclass(frozen=True)
class QuasiConstantFit:
    a: float
    b: float
    a_form: np.ndarray  # g-unit covector, sign-canonicalized
    residual: float
    weyl_norm: float


@dataclass(frozen=True)
class HyperQuasiConstantFit:
    a: float
    p: np.ndarray  # trace-free gauge representative
    residual: float
    kernel_dim: int


@dataclass(frozen=True)
class PseudoQuasiConstantFit:
    a: float
    p: np.ndarray
    residual: float
    kernel_dim: int


def einstein_check(s, g: Metric, tol: float = 1e-8) -> EinsteinFit:
    """Fit S = alpha * g with alpha = r/n; residual is max-norm relative."""
    s = _check_bilinear(s, g.n)
    alpha = scalar_curvature(s, g) / g.n
    residual = max_abs(s - alpha * g.mat) / (1.0 + max_abs(s))
    return EinsteinFit(alpha=alpha, residual=residual, ok=residual <= tol)


def _canonical_sign(w: np.ndarray) -> np.ndarray:
    """Flip so the first component of nontrivial magnitude is positive."""
    floor = 1e-12 * max(max_abs(w), 1e-300)
    for v in w:
        if abs(v) > floor:
            return -w if v < 0.0 else w
    return w


def _generalized_eigh(s: np.ndarray, g: Metric):
    """Solve S v = lam g v, ascending lam, with eigenvectors normalized to
    v^T g v = 1: reduce by the Cholesky factor g = L L^T to the ordinary
    symmetric problem (L^-1 S L^-T) w = lam w and map back v = L^-T w."""
    chol = np.linalg.cholesky(g.mat)
    half = np.linalg.solve(chol, s)                  # L^-1 S
    reduced = np.linalg.solve(chol, half.T)          # L^-1 S^T L^-T = L^-1 S L^-T
    lam, w = np.linalg.eigh(0.5 * (reduced + reduced.T))
    return lam, np.linalg.solve(chol.T, w)


def quasi_einstein_decompose(s, g: Metric) -> QuasiEinsteinFit:
    """Decompose S = p*g + q*omega(x)omega with omega g-unit and q != 0.

    Solves the g-relative symmetric eigenproblem; the pattern required is an
    (n-1)-fold eigenvalue cluster plus one simple eigenvalue (relative
    clustering tolerance CLUSTER_TOL).  The input is prescaled by a power of
    two, which makes the decomposition exactly equivariant under S -> 2^k S.

    Raises NotQuasiEinstein when the pattern is absent, or when it collapses
    to Einstein (q ~ 0), in which case `einstein_alpha` is set on the error.
    """
    s = _check_bilinear(s, g.n)
    scale = max_abs(s)
    c0 = math.ldexp(1.0, math.frexp(scale)[1]) if scale > 0.0 else 1.0
    lam, vec = _generalized_eigh(s / c0, g)
    spread_all = lam[-1] - lam[0]
    lam_scale = max(1e-300, float(np.max(np.abs(lam))))
    if spread_all <= CLUSTER_TOL * lam_scale:
        alpha = c0 * float(np.mean(lam))
        raise NotQuasiEinstein(
            "eigenvalues form a single cluster: Einstein, not quasi-Einstein",
            residual=einstein_check(s, g).residual, einstein_alpha=alpha)

    def split_quality(simple_idx: int, cluster_idx) -> tuple[bool, float]:
        cluster = lam[cluster_idx]
        spread = float(np.max(cluster) - np.min(cluster))
        sep = abs(lam[simple_idx] - float(np.mean(cluster)))
        tol = CLUSTER_TOL * lam_scale
        return (spread <= tol and sep > tol), sep

    candidates = []
    for simple_idx, cluster_idx in ((g.n - 1, slice(0, g.n - 1)),
                                    (0, slice(1, g.n))):
        ok, sep = split_quality(simple_idx, cluster_idx)
        if ok:
            candidates.append((sep, simple_idx, cluster_idx))
    if not candidates:
        # best-effort reconstruction residual for reporting
        best = _split_fit(s, g, lam * c0, vec, g.n - 1, slice(0, g.n - 1))
        raise NotQuasiEinstein(
            "eigenvalue pattern {(n-1)-cluster, simple} is absent",
            residual=best.residual)
    _, simple_idx, cluster_idx = max(candidates)
    return _split_fit(s, g, lam * c0, vec, simple_idx, cluster_idx)


def _split_fit(s, g: Metric, lam, vec, simple_idx, cluster_idx) -> QuasiEinsteinFit:
    """S = p*g + q*omega(x)omega read off one split of the eigenvalues `lam`
    (in the units of S) into a cluster and a simple one."""
    p = float(np.mean(lam[cluster_idx]))
    q = float(lam[simple_idx]) - p
    omega = _canonical_sign(g.mat @ vec[:, simple_idx])
    residual = max_abs(s - p * g.mat - q * np.outer(omega, omega)) / (1.0 + max_abs(s))
    return QuasiEinsteinFit(p=p, q=q, omega=omega, residual=residual)


def quasi_constant_fit(riemann: Tensor04, g: Metric,
                       tol: float = 1e-8) -> QuasiConstantFit:
    """Fit R = a * wedge_gg(g) + b * quasi_constant_shape(g, A), A g-unit,
    with nonzero scalars a, b.

    Strategy: the Ricci contraction of such an R is quasi-Einstein, and its
    simple eigendirection fixes A up to sign; (a, b) then come from a linear
    least-squares fit.  The Weyl norm of the input is reported alongside (the
    class definition additionally demands conformal flatness).

    Raises NotQuasiConstant when the Ricci pattern is absent, when the
    least-squares residual exceeds `tol`, or when the fitted b collapses to
    zero; in the last case `constant_curvature` carries the pure wedge fit.
    """
    if riemann.n != g.n:
        raise DimensionMismatch(f"riemann n={riemann.n} vs metric n={g.n}")
    rv = riemann.values
    scale = 1.0 + max_abs(rv)
    gw = wedge_gg(g).values
    try:
        qe = quasi_einstein_decompose(ricci_contract(riemann, g), g)
    except NotQuasiEinstein as exc:
        a_cc = float(np.vdot(gw, rv) / np.vdot(gw, gw))
        res_cc = max_abs(rv - a_cc * gw) / scale
        if exc.einstein_alpha is not None and res_cc <= tol:
            raise NotQuasiConstant(
                "constant curvature (the A-block coefficient vanishes)",
                residual=res_cc, constant_curvature=a_cc) from None
        raise NotQuasiConstant(
            f"Ricci contraction is not quasi-Einstein: {exc}",
            residual=res_cc) from None
    block = quasi_constant_shape(g, qe.omega).values
    design = np.stack([gw.ravel(), block.ravel()], axis=1)
    (a, b), *_ = np.linalg.lstsq(design, rv.ravel(), rcond=None)
    residual = max_abs(rv - a * gw - b * block) / scale
    if residual > tol:
        raise NotQuasiConstant(
            f"least-squares residual {residual:g} exceeds tolerance {tol:g}",
            residual=residual)
    floor = COEFF_FLOOR * (1.0 + max_abs(rv) / max_abs(gw))
    if abs(b) <= floor:
        raise NotQuasiConstant(
            "fitted A-block coefficient is numerically zero (constant curvature)",
            residual=residual, constant_curvature=float(a))
    if abs(a) <= floor:
        raise NotQuasiConstant(
            "fitted wedge coefficient is numerically zero",
            residual=residual)
    return QuasiConstantFit(a=float(a), b=float(b), a_form=qe.omega,
                            residual=residual, weyl_norm=_weyl_norm(riemann, g))


def _weyl_norm(riemann: Tensor04, g: Metric, ricci=None,
               r: float | None = None) -> float:
    """Max-norm of the Weyl tensor; 0 for n < 3, where it vanishes
    identically (at n = 2 it is not even defined)."""
    if g.n < 3:
        return 0.0
    return max_abs(weyl_from_tensors(riemann, g, ricci=ricci, r=r).values)


def _linear_fit(riemann: Tensor04, g: Metric, terms, gauge_weight: float,
                antisym_kl: bool) -> tuple[float, np.ndarray, float, int]:
    """Least-squares fit R ~ a * wedge_gg + B(P) over (a, P), with the
    trace part of P moved into a (`gauge_weight` wedges per unit trace).

    `terms` is the term table of a `tensor` block kernel B; the design is
    its image of the stacked identity basis of bilinears, built in one
    call.  Every column is antisymmetric in (i, j), and in (k, l) too when
    `antisym_kl`, so each design row outside i < j (and k < l) is zero or a
    signed copy of a kept row.  The fit builds and solves only the kept
    rows, against the target antisymmetrized the same way: the least-squares
    solution is the same, and every singular value scales by one common
    factor, so the relative rank cut-off (`tensor._lstsq_kernel`) and
    `kernel_dim` do not change.  The residual is measured on the full grid."""
    if riemann.n != g.n:
        raise DimensionMismatch(f"riemann n={riemann.n} vs metric n={g.n}")
    n = g.n
    rv = riemann.values
    gw = wedge_gg(g).values
    iu, ju = np.triu_indices(n, 1)
    if antisym_kl:
        i, j, k, l = rows = (iu[:, None], ju[:, None], iu, ju)
        target = 0.25 * (rv[i, j, k, l] - rv[j, i, k, l]
                         - rv[i, j, l, k] + rv[j, i, l, k])
    else:
        i, j, k, l = rows = (iu[:, None, None], ju[:, None, None],
                             np.arange(n)[:, None], np.arange(n))
        target = 0.5 * (rv[i, j, k, l] - rv[j, i, k, l])
    basis = np.eye(n * n).reshape(n * n, n, n)
    design = np.concatenate([gw[rows][None], _expand_block(terms, g.mat, basis, rows)])
    design = design.reshape(n * n + 1, -1).T
    sol, kernel_dim = _lstsq_kernel(design, target.ravel())
    a0 = float(sol[0])
    p0 = sol[1:].reshape(n, n)
    trace = float(np.einsum("ij,ij->", g.inv, p0))
    p_hat = p0 - (trace / n) * g.mat
    a_hat = a0 + gauge_weight * trace / n
    block = _expand_block(terms, g.mat, p_hat)
    residual = max_abs(rv - a_hat * gw - block) / (1.0 + max_abs(rv))
    return a_hat, p_hat, residual, kernel_dim


def hyper_quasi_constant_fit(riemann: Tensor04, g: Metric) -> HyperQuasiConstantFit:
    """Fit R = a * wedge_gg(g) + hyper_shape(g, P) with P gauge-fixed to be
    trace-free (P -> P + c*g is absorbed by a -> a - 2c).  Always returns;
    `residual` says how well the fit explains the input and `kernel_dim`
    reports the null directions of the design operator (>= 1, the gauge)."""
    a, p, residual, kernel = _linear_fit(riemann, g, _HYPER_TERMS,
                                         gauge_weight=2.0, antisym_kl=True)
    return HyperQuasiConstantFit(a=a, p=p, residual=residual, kernel_dim=kernel)


def pseudo_quasi_constant_fit(riemann: Tensor04, g: Metric) -> PseudoQuasiConstantFit:
    """Fit R = a * wedge_gg(g) + pseudo_shape(g, P), trace-free gauge
    (P -> P + c*g is absorbed by a -> a + c).  Accepts generalized inputs;
    the two-term shape need not be riemann-like."""
    a, p, residual, kernel = _linear_fit(riemann, g, _PSEUDO_TERMS,
                                         gauge_weight=1.0, antisym_kl=False)
    return PseudoQuasiConstantFit(a=a, p=p, residual=residual, kernel_dim=kernel)


def conformally_flat_check(bundle: CurvatureBundle,
                           tol: float = 1e-8) -> tuple[float, bool]:
    """Max-norm of the Weyl tensor and the verdict `norm <= tol * (1 + |R|)`.
    (For n <= 3 the Weyl tensor vanishes identically, so the verdict is
    vacuous there and only meaningful from n = 4 on.)"""
    if bundle.riemann is None:
        raise DimensionMismatch("bundle carries no (0,4) curvature tensor")
    norm = _weyl_norm(bundle.riemann, bundle.g, bundle.ricci, bundle.r)
    return norm, norm <= tol * (1.0 + bundle.riemann.norm())


# --------------------------------------------------------------------------
# Combined report

@dataclass(frozen=True)
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
    along with the max-norms of the three generalized curvature tensors."""
    s, g = bundle.ricci, bundle.g
    ein = einstein_check(s, g, tol)
    qe = qe_err = None
    try:
        qe = quasi_einstein_decompose(s, g)
    except NotQuasiEinstein as exc:
        qe_err = str(exc)
    qc = qc_err = None
    try:
        qc = quasi_constant_fit(bundle.riemann, g, tol)
    except NotQuasiConstant as exc:
        qc_err = str(exc)
    hyper = hyper_quasi_constant_fit(bundle.riemann, g)
    pseudo = pseudo_quasi_constant_fit(bundle.riemann, g)
    weyl_norm, conf_flat = conformally_flat_check(bundle, tol)
    gen_norms = {
        "quasi_conformal": max_abs(quasi_conformal(bundle, params).values),
        "w2": max_abs(w2(bundle).values),
    }
    try:
        gen_norms["pseudo_projective"] = max_abs(
            pseudo_projective(bundle, params).values)
    except InvalidParams:
        gen_norms["pseudo_projective"] = None  # undefined when a*b = 0
    return ClassificationReport(
        n=bundle.n, tol=tol, params=params, einstein=ein,
        quasi_einstein=qe, quasi_einstein_error=qe_err,
        quasi_constant=qc, quasi_constant_error=qc_err,
        hyper=hyper, pseudo=pseudo,
        weyl_norm=weyl_norm, conformally_flat=conf_flat, gen_norms=gen_norms)
