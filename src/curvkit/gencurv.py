"""Generalized curvature tensors and their flat-case inversions.

Every tensor here has the one form

    K = a*R + b*B(S) - c*G,        G = wedge_gg(g),

a weighted sum of the (0,4) curvature R, a block kernel B of `tensor`
applied to the Ricci form S, and the constant-curvature shape G, all in the
package's lowered (0,4) convention and built from a
:class:`~curvkit.chart.CurvatureBundle`.  The kinds differ only in their
weights (`_weights`):

    kind              a   b          B(S)                     c
    quasi-conformal   a   b          S-wedge (four-term)      (r/n)(a/(n-1) + 2b)
    pseudo-projective a   b          S_jk g_il - S_ik g_jl    (r/n)(a/(n-1) + b)
    W2                1   1/(n-1)    g_ik S_jl - g_jk S_il    0
    Weyl              1   -1/(n-2)   S-wedge (four-term)      -r/((n-1)(n-2))

The Weyl tensor serves as the conformal-flatness predicate.

Setting any of the first three to zero and solving for R gives
R = (c/a)*G - (b/a)*B(S), the `reconstruct_*` functions; feeding a
reconstruction back through its combination returns zero identically.  The
quasi-conformal and pseudo-projective reconstructions accept S and r
independently so callers can probe inconsistent inputs; their `strict=True`
enforces r = trace(S).  The W2 reconstruction takes no r: its weights do not
involve it.

The scalar curvature is one quantity and is named `r` throughout, whichever
weighted combination it appears in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import CurvatureBundle
from .errors import DegenerateParams, DimensionMismatch, InvalidParams
from .tensor import (_HYPER_TERMS, _PSEUDO_TERMS, _W2_TERMS, Metric,
                     Tensor04, _check_bilinear, _contract_block, _expand_block,
                     is_symmetric, ricci_contract, scalar_curvature, wedge_gg)

__all__ = [
    "GenCurvParams",
    "quasi_conformal", "pseudo_projective", "w2", "weyl", "weyl_from_tensors",
    "reconstruct_qc_flat", "reconstruct_pp_flat", "reconstruct_w2_flat",
    "qc_flat_alpha", "pp_flat_alpha", "w2_flat_alpha",
]

_GUARD_TOL = 1e-12


@dataclass(frozen=True)
class GenCurvParams:
    """The constant weights (a, b) of the quasi-conformal and
    pseudo-projective combinations."""

    a: float = 1.0
    b: float = 1.0

    def require_qc(self) -> None:
        if self.a == 0.0:
            raise InvalidParams("quasi-conformal combination requires a != 0")

    def require_pp(self) -> None:
        if self.a == 0.0 or self.b == 0.0:
            raise InvalidParams("pseudo-projective combination requires a != 0 and b != 0")

    def qc_denominator(self, n: int) -> float:
        """1 + (b/a)(n-2); raises DegenerateParams near zero (the
        quasi-conformal Einstein-coefficient formula divides by it)."""
        self.require_qc()
        return self._denominator(n, 2)

    def pp_denominator(self, n: int) -> float:
        """1 + (b/a)(n-1), the analogous guard for the pseudo-projective case."""
        self.require_pp()
        return self._denominator(n, 1)

    def _denominator(self, n: int, k: int) -> float:
        ba = self.b / self.a
        d = 1.0 + ba * (n - k)
        if abs(d) <= _GUARD_TOL * (1.0 + abs(ba) * n):
            raise DegenerateParams(f"1 + (b/a)(n-{k}) = {d:g} is numerically zero")
        return d


# --------------------------------------------------------------------------
# The one form K = a*R + b*B(S) - c*G

def _weights(kind: str, n: int, r: float, params: GenCurvParams | None):
    """(a, b, B, c) of K = a*R + b*B(S) - c*G for one kind of tensor; B is
    the term table of a `tensor` block kernel (W2's is the two-term block
    with k and l exchanged, g_ik S_jl - g_jk S_il)."""
    if kind == "qc":
        return (params.a, params.b, _HYPER_TERMS,
                (r / n) * (params.a / (n - 1) + 2.0 * params.b))
    if kind == "pp":
        return (params.a, params.b, _PSEUDO_TERMS,
                (r / n) * (params.a / (n - 1) + params.b))
    if kind == "w2":
        return 1.0, 1.0 / (n - 1), _W2_TERMS, 0.0
    if n < 3:
        raise DimensionMismatch("the Weyl tensor needs n >= 3")
    return 1.0, -1.0 / (n - 2), _HYPER_TERMS, -r / ((n - 1) * (n - 2))


def _combine(kind: str, riemann: Tensor04 | None, g: Metric, s, r: float,
             params: GenCurvParams | None = None) -> Tensor04:
    if riemann is None:
        raise DimensionMismatch("bundle carries no (0,4) curvature tensor")
    if riemann.n != g.n:
        raise DimensionMismatch(f"riemann n={riemann.n} vs metric n={g.n}")
    a, b, block, c = _weights(kind, g.n, r, params)
    values = a * riemann.values + b * _expand_block(block, g.mat, s)
    return Tensor04(_minus_g(values, c, g))


def _flat_values(kind: str, s: np.ndarray, g: Metric, r: float,
                 params: GenCurvParams | None) -> np.ndarray:
    """The R that makes K vanish, (c/a)*G - (b/a)*B(S), for S stacked on
    leading axes (..., n, n) -> (..., n, n, n, n), unchecked.  The public
    reconstructions wrap it; `_flat_ricci` is its Ricci contraction."""
    a, b, block, c = _weights(kind, g.n, r, params)
    return _minus_g(-(b / a) * _expand_block(block, g.mat, s), -c / a, g)


def _flat_ricci(kind: str, s: np.ndarray, g: Metric, r: float,
                params: GenCurvParams | None) -> np.ndarray:
    """The Ricci contraction of `_flat_values`,
    (c/a)*contract(G) - (b/a)*contract(B(S)), for S stacked on leading axes
    (..., n, n) -> (..., n, n), unchecked.  It contracts before expanding:
    no n^4 grid is built, and contract(G) is the pseudo block's at P = g.
    The harness applies it to a whole basis in one call."""
    a, b, block, c = _weights(kind, g.n, r, params)
    out = -(b / a) * _contract_block(block, g.inv, g.mat, s)
    if c:
        out = out + (c / a) * _contract_block(_PSEUDO_TERMS, g.inv, g.mat, g.mat)
    return out


def _minus_g(values: np.ndarray, c: float, g: Metric) -> np.ndarray:
    """values - c*G; a zero weight (the W2 kind) builds no G."""
    return values - c * wedge_gg(g).values if c else values


# --------------------------------------------------------------------------
# Forward combinations

def quasi_conformal(bundle: CurvatureBundle, params: GenCurvParams) -> Tensor04:
    """a*R + b*(S-wedge) - (r/n)(a/(n-1) + 2b) * G.

    Vanishes identically on constant-curvature data for every (a, b).
    """
    return _combine("qc", bundle.riemann, bundle.g, bundle.ricci, bundle.r, params)


def pseudo_projective(bundle: CurvatureBundle, params: GenCurvParams) -> Tensor04:
    """a*R + b*[S_jk g_il - S_ik g_jl] - (r/n)(a/(n-1) + b) * G.

    Requires a != 0 and b != 0.  Not riemann-like in general.
    """
    params.require_pp()
    return _combine("pp", bundle.riemann, bundle.g, bundle.ricci, bundle.r, params)


def w2(bundle: CurvatureBundle) -> Tensor04:
    """R + 1/(n-1) * [g_ik S_jl - g_jk S_il]."""
    return _combine("w2", bundle.riemann, bundle.g, bundle.ricci, bundle.r)


def weyl(bundle: CurvatureBundle) -> Tensor04:
    """Weyl tensor of the bundle; identically zero at n = 3, the conformal
    curvature for n >= 4.  Totally trace-free."""
    return _combine("weyl", bundle.riemann, bundle.g, bundle.ricci, bundle.r)


def weyl_from_tensors(riemann: Tensor04, g: Metric,
                      ricci=None, r: float | None = None) -> Tensor04:
    """Weyl tensor of an arbitrary (0,4) curvature grid:

        C = R - (S-wedge)/(n-2) + r/((n-1)(n-2)) * G

    with S and r derived from `riemann` when not supplied.
    """
    if ricci is None:
        ricci = ricci_contract(riemann, g)
    if r is None:
        r = scalar_curvature(ricci, g)
    return _combine("weyl", riemann, g, _check_bilinear(ricci, g.n), r)


# --------------------------------------------------------------------------
# Flat reconstructions: solve <combination> = 0 for R

def _check_sr(s, g: Metric, r: float, strict: bool) -> np.ndarray:
    s = _check_bilinear(s, g.n)
    if strict:
        tr = scalar_curvature(s, g)
        if abs(tr - r) > 1e-10 * (1.0 + abs(r)):
            raise InvalidParams(
                f"strict mode: r={r:g} is not the metric trace of S ({tr:g})")
    return s


def reconstruct_qc_flat(s, g: Metric, r: float, params: GenCurvParams,
                        strict: bool = False) -> Tensor04:
    """R under a vanishing quasi-conformal combination:

        R = -(b/a) * (S-wedge) + (r/n)(1/(n-1) + 2b/a) * G

    Feeding the result back through `quasi_conformal` (with the same S, r)
    returns zero identically.  Riemann-like whenever S is symmetric.
    """
    params.require_qc()
    s = _check_sr(s, g, r, strict)
    return Tensor04(_flat_values("qc", s, g, r, params), riemann_like=is_symmetric(s))


def reconstruct_pp_flat(s, g: Metric, r: float, params: GenCurvParams,
                        strict: bool = False) -> Tensor04:
    """R under a vanishing pseudo-projective combination:

        R = -(b/a) * [S_jk g_il - S_ik g_jl] + (r/(a n))(a/(n-1) + b) * G
    """
    params.require_pp()
    s = _check_sr(s, g, r, strict)
    return Tensor04(_flat_values("pp", s, g, r, params))


def reconstruct_w2_flat(s, g: Metric) -> Tensor04:
    """R under a vanishing W2 combination:

        R = 1/(n-1) * [g_jk S_il - g_ik S_jl]
    """
    return Tensor04(_flat_values("w2", _check_bilinear(s, g.n), g, 0.0, None))


# --------------------------------------------------------------------------
# Einstein coefficients forced by the contractions of the reconstructions

def qc_flat_alpha(n: int, r: float, params: GenCurvParams) -> float:
    """The coefficient alpha with S = alpha*g for the self-consistent Ricci of
    a vanishing quasi-conformal combination:

        alpha = r / (1 + (b/a)(n-2)) * [ -b/a + (1 + 2b(n-1)/a) / n ]

    Equals r/n whenever r is the metric trace of S (the formula is the
    general contraction before imposing trace consistency).
    """
    denom = params.qc_denominator(n)
    ba = params.b / params.a
    return (r / denom) * (-ba + (1.0 + 2.0 * params.b * (n - 1) / params.a) / n)


def pp_flat_alpha(n: int, r: float, params: GenCurvParams) -> float:
    """alpha = r/n for a vanishing pseudo-projective combination (the
    contraction divides by 1 + (b/a)(n-1), which must be nonzero)."""
    params.pp_denominator(n)
    return r / n


def w2_flat_alpha(n: int, r: float) -> float:
    """alpha = r/n for vanishing W2 (no parameter degeneracy for n >= 2)."""
    if n < 2:
        raise DimensionMismatch("need n >= 2")
    return r / n
