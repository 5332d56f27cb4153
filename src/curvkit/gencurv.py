"""Generalized curvature tensors and their flat-case inversions.

Three weighted combinations of Riemann, Ricci and metric blocks are built
from a :class:`~curvkit.chart.CurvatureBundle` (all in the package's lowered
(0,4) convention, G = wedge_gg(g)):

* quasi-conformal:    a*R + b*(S-wedge block) - (r/n)(a/(n-1) + 2b) * G
* pseudo-projective:  a*R + b*[S_jk g_il - S_ik g_jl] - (r/n)(a/(n-1) + b) * G
* W2:                 R + 1/(n-1) * [g_ik S_jl - g_jk S_il]

plus the Weyl tensor as the conformal-flatness predicate.

Setting any of the three combinations to zero and solving for R gives the
`reconstruct_*` functions; feeding a reconstruction back through its
combination returns zero identically.  The reconstructions accept S and r
independently so callers can probe inconsistent inputs; `strict=True`
enforces r = trace(S).

The scalar curvature is one quantity and is named `r` throughout, whichever
weighted combination it appears in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import CurvatureBundle
from .errors import DegenerateParams, DimensionMismatch, InvalidParams
from .tensor import (Metric, Tensor04, _hyper_block, _pseudo_block,
                     is_symmetric, scalar_curvature, wedge_gg)

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
        d = 1.0 + (self.b / self.a) * (n - 2)
        if abs(d) <= _GUARD_TOL * (1.0 + abs(self.b / self.a) * n):
            raise DegenerateParams(f"1 + (b/a)(n-2) = {d:g} is numerically zero")
        return d

    def pp_denominator(self, n: int) -> float:
        """1 + (b/a)(n-1), the analogous guard for the pseudo-projective case."""
        self.require_pp()
        d = 1.0 + (self.b / self.a) * (n - 1)
        if abs(d) <= _GUARD_TOL * (1.0 + abs(self.b / self.a) * n):
            raise DegenerateParams(f"1 + (b/a)(n-1) = {d:g} is numerically zero")
        return d


# --------------------------------------------------------------------------
# Forward combinations

def quasi_conformal(bundle: CurvatureBundle, params: GenCurvParams) -> Tensor04:
    """a*R + b*(S-wedge) - (r/n)(a/(n-1) + 2b) * G.

    Vanishes identically on constant-curvature data for every (a, b).
    """
    n, g, s, r = bundle.n, bundle.g, bundle.ricci, bundle.r
    _need_riemann(bundle)
    coeff = (r / n) * (params.a / (n - 1) + 2.0 * params.b)
    vals = (params.a * bundle.riemann.values
            + params.b * _hyper_block(g.mat, s)
            - coeff * wedge_gg(g).values)
    return Tensor04(vals)


def pseudo_projective(bundle: CurvatureBundle, params: GenCurvParams) -> Tensor04:
    """a*R + b*[S_jk g_il - S_ik g_jl] - (r/n)(a/(n-1) + b) * G.

    Requires a != 0 and b != 0.  Not riemann-like in general.
    """
    params.require_pp()
    n, g, s, r = bundle.n, bundle.g, bundle.ricci, bundle.r
    _need_riemann(bundle)
    coeff = (r / n) * (params.a / (n - 1) + params.b)
    vals = (params.a * bundle.riemann.values + params.b * _pseudo_block(g.mat, s)
            - coeff * wedge_gg(g).values)
    return Tensor04(vals)


def w2(bundle: CurvatureBundle) -> Tensor04:
    """R + 1/(n-1) * [g_ik S_jl - g_jk S_il]."""
    _need_riemann(bundle)
    return Tensor04(bundle.riemann.values - _w2_flat_values(bundle.ricci, bundle.g))


def weyl(bundle: CurvatureBundle) -> Tensor04:
    """Weyl tensor of the bundle; identically zero at n = 3, the conformal
    curvature for n >= 4.  Totally trace-free."""
    _need_riemann(bundle)
    return weyl_from_tensors(bundle.riemann, bundle.g,
                             ricci=bundle.ricci, r=bundle.r)


def weyl_from_tensors(riemann: Tensor04, g: Metric,
                      ricci=None, r: float | None = None) -> Tensor04:
    """Weyl tensor of an arbitrary (0,4) curvature grid:

        C = R - (S-wedge)/(n-2) + r/((n-1)(n-2)) * G

    with S and r derived from `riemann` when not supplied.
    """
    n = g.n
    if n < 3:
        raise DimensionMismatch("the Weyl tensor needs n >= 3")
    if riemann.n != n:
        raise DimensionMismatch(f"riemann n={riemann.n} vs metric n={g.n}")
    if ricci is None:
        from .tensor import ricci_contract
        ricci = ricci_contract(riemann, g)
    if r is None:
        r = scalar_curvature(ricci, g)
    vals = (riemann.values - _hyper_block(g.mat, np.asarray(ricci, float)) / (n - 2)
            + (r / ((n - 1) * (n - 2))) * wedge_gg(g).values)
    return Tensor04(vals)


def _need_riemann(bundle: CurvatureBundle) -> None:
    if bundle.riemann is None:
        raise DimensionMismatch("bundle carries no (0,4) curvature tensor")


# --------------------------------------------------------------------------
# Flat reconstructions: solve <combination> = 0 for R

def _check_sr(s, g: Metric, r: float, strict: bool) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (g.n, g.n):
        raise DimensionMismatch(f"ricci must have shape ({g.n},{g.n}), got {s.shape}")
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
    return Tensor04(_qc_flat_values(s, g, r, params), riemann_like=is_symmetric(s))


def reconstruct_pp_flat(s, g: Metric, r: float, params: GenCurvParams,
                        strict: bool = False) -> Tensor04:
    """R under a vanishing pseudo-projective combination:

        R = -(b/a) * [S_jk g_il - S_ik g_jl] + (r/(a n))(a/(n-1) + b) * G
    """
    params.require_pp()
    s = _check_sr(s, g, r, strict)
    return Tensor04(_pp_flat_values(s, g, r, params))


def reconstruct_w2_flat(s, g: Metric, strict: bool = False) -> Tensor04:
    """R under a vanishing W2 combination:

        R = 1/(n-1) * [g_jk S_il - g_ik S_jl]
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (g.n, g.n):
        raise DimensionMismatch(f"ricci must have shape ({g.n},{g.n}), got {s.shape}")
    return Tensor04(_w2_flat_values(s, g))


# The value grids of the three reconstructions, for S stacked on leading axes
# (..., n, n) -> (..., n, n, n, n), unchecked.  The public functions above
# wrap them, and the harness applies them to a whole basis in one call.

def _qc_flat_values(s: np.ndarray, g: Metric, r: float,
                    params: GenCurvParams) -> np.ndarray:
    n = g.n
    ba = params.b / params.a
    return (-ba * _hyper_block(g.mat, s)
            + (r / n) * (1.0 / (n - 1) + 2.0 * ba) * wedge_gg(g).values)


def _pp_flat_values(s: np.ndarray, g: Metric, r: float,
                    params: GenCurvParams) -> np.ndarray:
    n = g.n
    coeff = (r / (params.a * n)) * (params.a / (n - 1) + params.b)
    return -(params.b / params.a) * _pseudo_block(g.mat, s) + coeff * wedge_gg(g).values


def _w2_flat_values(s: np.ndarray, g: Metric) -> np.ndarray:
    # g_jk S_il - g_ik S_jl is the two-term block with k and l exchanged,
    # negated
    return -np.swapaxes(_pseudo_block(g.mat, s), -1, -2) / (g.n - 1)


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
