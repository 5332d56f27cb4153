"""Generalized curvature tensors and their flat-case inversions.

Every tensor here has the one form

    K = a*R + b*B(S) - c*G = a*R + B(b*S - (c/w)*g),      G = wedge_gg(g) = B(g)/w,

a weighted sum of the (0,4) curvature R, a block kernel B of `tensor`
applied to the Ricci form S, and the constant-curvature shape G, all in the
package's lowered (0,4) convention and built from a
:class:`~curvkit.tensor.CurvatureBundle`.  G is the block at g over its
weight w (`tensor._WEDGE_WEIGHT`: 2 for the four-term block, 1 for the
two-term block), so each K is one block expansion.  The kinds differ only
in their weights (`_weights`):

    kind              a   b          B(S)                     c
    quasi-conformal   a   b          S-wedge (four-term)      (r/n)(a/(n-1) + 2b)
    pseudo-projective a   b          S_jk g_il - S_ik g_jl    (r/n)(a/(n-1) + b)
    W2                1   1/(n-1)    g_ik S_jl - g_jk S_il    0
    Weyl              1   -1/(n-2)   S-wedge (four-term)      -r/((n-1)(n-2))

The Weyl tensor serves as the conformal-flatness predicate.

Setting any of the first three to zero and solving for R gives
R = (c/a)*G - (b/a)*B(S) = B(-(b/a)*S + (c/(a*w))*g), the `reconstruct_*`
functions; feeding a reconstruction back through its combination returns
zero identically.  The quasi-conformal and pseudo-projective
reconstructions accept S and r independently, so callers can probe
inconsistent inputs.  The W2 reconstruction takes no r: its weights do not
involve it.

The scalar curvature is one quantity and is named `r` throughout, whichever
weighted combination it appears in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParams, DimensionMismatch, InvalidParams
from .tensor import (_HYPER_TERMS, _PSEUDO_TERMS, _W2_TERMS, CurvatureBundle,
                     Metric, Tensor04, _as_array, _bundle_part, _contract_block,
                     _expand_with_wedge, _grid_of, _instance, _lift, _tolerance,
                     is_symmetric)

__all__ = [
    "GenCurvParams",
    "quasi_conformal", "pseudo_projective", "w2", "weyl", "weyl_from_tensors",
    "reconstruct_qc_flat", "reconstruct_pp_flat", "reconstruct_w2_flat",
    "qc_flat_alpha", "pp_flat_alpha", "w2_flat_alpha",
]

_GUARD_TOL = 1e-12
# The bound on the weights' magnitudes (see GenCurvParams): within it, the
# products and quotients that the combinations, the reconstructions and
# their fits form from the weights stay finite and normal.
WEIGHT_LIMIT = 1e100


@dataclass(frozen=True)
class GenCurvParams:
    """The constant weights (a, b) of the quasi-conformal and
    pseudo-projective combinations: both finite real numbers, held as
    floats, and each of a, b and b/a zero or of magnitude between
    1/WEIGHT_LIMIT and WEIGHT_LIMIT."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        for name in ("a", "b"):
            try:
                value = float(_as_array(getattr(self, name), name, 0))
            except DimensionMismatch as exc:
                raise InvalidParams(f"weights must be finite numbers: {exc}") from None
            object.__setattr__(self, name, value)

        def admitted(v):
            return v == 0.0 or 1.0 / WEIGHT_LIMIT <= abs(v) <= WEIGHT_LIMIT

        # b/a only once a and b are admitted, so the quotient cannot overflow
        if not (admitted(self.a) and admitted(self.b)
                and admitted(self.b / self.a if self.a else 0.0)):
            raise InvalidParams(f"a, b and b/a must each be zero or of magnitude between "
                                f"{1.0 / WEIGHT_LIMIT:g} and {WEIGHT_LIMIT:g}, "
                                f"got a={self.a}, b={self.b}")


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
    if kind != "weyl":
        raise InvalidParams(f"unknown kind {kind!r}")
    if n < 3:
        raise DimensionMismatch("the Weyl tensor needs n >= 3")
    return 1.0, -1.0 / (n - 2), _HYPER_TERMS, -r / ((n - 1) * (n - 2))


def _require(kind: str, params: GenCurvParams | None, n: int | None = None):
    """The preconditions of the weights of one kind's flat formulas, stated
    once: InvalidParams for a kind with no flat formula and for a = 0 (qc,
    pp) or b = 0 (pp), DimensionMismatch for params not a GenCurvParams.
    Given n, it returns alpha's denominator 1 + (b/a)(n-k), k = 2 for qc and
    1 for pp, with DegenerateParams near zero (None for W2)."""
    if kind not in ("qc", "pp", "w2"):
        raise InvalidParams(f"unknown flavor {kind!r}")
    if kind == "w2":
        return None
    if _instance(params, GenCurvParams, "params").a == 0.0 or (kind == "pp" and params.b == 0.0):
        raise InvalidParams("quasi-conformal combination requires a != 0" if kind == "qc" else
                            "pseudo-projective combination requires a != 0 and b != 0")
    if n is None:
        return None
    k, ba = (2 if kind == "qc" else 1), params.b / params.a
    d = 1.0 + ba * (n - k)
    if abs(d) <= _tolerance(_GUARD_TOL, abs(ba) * n):
        raise DegenerateParams(f"1 + (b/a)(n-{k}) = {d:g} is numerically zero")
    return d


def _combine(kind: str, bundle: CurvatureBundle,
             params: GenCurvParams | None = None) -> Tensor04:
    """K of one kind for a bundle that carries its (0,4) tensor."""
    rv = _bundle_part(bundle, "riemann").values
    return Tensor04(_combined_values(kind, rv, bundle.g.mat, bundle.ricci, bundle.r, params))


def _combined_values(kind: str, rv: np.ndarray, gm: np.ndarray, s: np.ndarray,
                     r, params: GenCurvParams | None) -> np.ndarray:
    """K = a*R + B(b*S - (c/w)*g), one block expansion, for grids R, metrics
    g, forms S and scalars r stacked on the same leading axes, unchecked.
    `_combine` wraps it, and the report takes its norms from it."""
    a, b, block, c = _weights(kind, gm.shape[-1], r, params)
    values = _expand_with_wedge(block, gm, b * s, -c)
    values += a * rv
    return values


def _flat_values(kind: str, s: np.ndarray, gm: np.ndarray, r,
                 params: GenCurvParams | None) -> np.ndarray:
    """The R that makes K vanish, B(-(b/a)*S + (c/(a*w))*g), for forms S,
    metrics g and scalars r stacked on the same leading axes,
    (..., n, n) -> (..., n, n, n, n); only the weights are checked.
    The reconstructions wrap it; `_flat_ricci` is its Ricci contraction."""
    _require(kind, params)
    a, b, block, c = _weights(kind, gm.shape[-1], r, params)
    return _expand_with_wedge(block, gm, -(b / a) * s, c / a)


def _flat_ricci(kind: str, s: np.ndarray, gm: np.ndarray, ginv: np.ndarray,
                r, params: GenCurvParams | None) -> np.ndarray:
    """The Ricci contraction of `_flat_values`,
    (c/a)*contract(G) - (b/a)*contract(B(S)), for S, g, ginv and r on
    leading axes that broadcast, (..., n, n) -> (..., n, n), checking only
    the weights.  It contracts before expanding (`tensor._contract_block`):
    no array it builds is larger than its output, and contract(G) is the
    pseudo block's at P = g.  The harness applies it to a whole basis for a
    stack of metrics in one call."""
    _require(kind, params)
    a, b, block, c = _weights(kind, gm.shape[-1], r, params)
    out = -(b / a) * _contract_block(block, ginv, gm, s)
    if np.any(c):
        out = out + _lift(c / a, 2) * _contract_block(_PSEUDO_TERMS, ginv, gm, gm)
    return out


# --------------------------------------------------------------------------
# Forward combinations

def quasi_conformal(bundle: CurvatureBundle, params: GenCurvParams) -> Tensor04:
    """a*R + b*(S-wedge) - (r/n)(a/(n-1) + 2b) * G.

    Vanishes identically on constant-curvature data for every (a, b).
    """
    return _combine("qc", bundle, _instance(params, GenCurvParams, "params"))


def pseudo_projective(bundle: CurvatureBundle, params: GenCurvParams) -> Tensor04:
    """a*R + b*[S_jk g_il - S_ik g_jl] - (r/n)(a/(n-1) + b) * G.

    Requires a != 0 and b != 0.  Not riemann-like in general.
    """
    _require("pp", params)
    return _combine("pp", bundle, params)


def w2(bundle: CurvatureBundle) -> Tensor04:
    """R + 1/(n-1) * [g_ik S_jl - g_jk S_il]."""
    return _combine("w2", bundle)


def weyl(bundle: CurvatureBundle) -> Tensor04:
    """Weyl tensor of the bundle; identically zero at n = 3, the conformal
    curvature for n >= 4.  Totally trace-free."""
    return _combine("weyl", bundle)


def weyl_from_tensors(riemann: Tensor04, g: Metric,
                      ricci=None, r: float | None = None) -> Tensor04:
    """Weyl tensor of an arbitrary (0,4) curvature grid:

        C = R - (S-wedge)/(n-2) + r/((n-1)(n-2)) * G

    with S and r derived from `riemann` when not supplied.
    """
    _grid_of(riemann, "riemann", g)  # required here, where from_tensors takes None
    return _combine("weyl", CurvatureBundle.from_tensors(g, riemann, ricci, r))


# --------------------------------------------------------------------------
# Flat reconstructions: solve <combination> = 0 for R

def _flat_grid(kind: str, s, g: Metric, r: float,
               params: GenCurvParams) -> tuple[np.ndarray, np.ndarray]:
    """The grid of `reconstruct_<kind>_flat` and its S, after checking the
    weights, then S and r."""
    _require(kind, params)
    s = _as_array(s, "bilinear form", 2, _instance(g, Metric, "g").n)
    r = float(_as_array(r, "r", 0))
    return _flat_values(kind, s, g.mat, r, params), s


def reconstruct_qc_flat(s, g: Metric, r: float, params: GenCurvParams) -> Tensor04:
    """R under a vanishing quasi-conformal combination:

        R = -(b/a) * (S-wedge) + (r/n)(1/(n-1) + 2b/a) * G

    Feeding the result back through `quasi_conformal` (with the same S, r)
    returns zero identically.  Riemann-like whenever S is symmetric: the
    four-term block of a symmetric S and G have every curvature symmetry,
    so the flag is set then, and checked on the grid like any other.
    """
    values, s = _flat_grid("qc", s, g, r, params)
    return Tensor04(values, riemann_like=is_symmetric(s))


def reconstruct_pp_flat(s, g: Metric, r: float, params: GenCurvParams) -> Tensor04:
    """R under a vanishing pseudo-projective combination:

        R = -(b/a) * [S_jk g_il - S_ik g_jl] + (r/(a n))(a/(n-1) + b) * G
    """
    return Tensor04(_flat_grid("pp", s, g, r, params)[0])


def reconstruct_w2_flat(s, g: Metric) -> Tensor04:
    """R under a vanishing W2 combination:

        R = 1/(n-1) * [g_jk S_il - g_ik S_jl]
    """
    s = _as_array(s, "bilinear form", 2, _instance(g, Metric, "g").n)
    return Tensor04(_flat_values("w2", s, g.mat, 0.0, None))


# --------------------------------------------------------------------------
# Einstein coefficients forced by the contractions of the reconstructions

def _flat_alpha(kind: str, n: int, r, params: GenCurvParams | None):
    """The alpha of the public `<kind>_flat_alpha` for scalars r stacked on
    leading axes, checking only the weights."""
    denom = _require(kind, params, n)
    if kind == "qc":
        ba = params.b / params.a
        return (r / denom) * (-ba + (1.0 + 2.0 * params.b * (n - 1) / params.a) / n)
    return r / n


def _dimension(n, top: int | None = None) -> int:
    """n checked, a whole number from 2 to `top`; DimensionMismatch naming n otherwise."""
    value = float(_as_array(n, "n", 0))
    if value < 2 or not value.is_integer() or (top is not None and value > top):
        most = "" if top is None else f" and at most {top}"
        raise DimensionMismatch(f"n must be an integer of at least 2{most}, got {value:g}")
    return int(value)


def qc_flat_alpha(n: int, r: float, params: GenCurvParams) -> float:
    """The coefficient alpha with S = alpha*g for the self-consistent Ricci of
    a vanishing quasi-conformal combination:

        alpha = r / (1 + (b/a)(n-2)) * [ -b/a + (1 + 2b(n-1)/a) / n ]

    Equals r/n whenever r is the metric trace of S (the formula is the
    general contraction before imposing trace consistency).
    """
    return _flat_alpha("qc", _dimension(n), float(_as_array(r, "r", 0)), params)


def pp_flat_alpha(n: int, r: float, params: GenCurvParams) -> float:
    """alpha = r/n for a vanishing pseudo-projective combination (the
    contraction divides by 1 + (b/a)(n-1), which must be nonzero)."""
    return _flat_alpha("pp", _dimension(n), float(_as_array(r, "r", 0)), params)


def w2_flat_alpha(n: int, r: float) -> float:
    """alpha = r/n for vanishing W2 (no parameter degeneracy for n >= 2)."""
    return _flat_alpha("w2", _dimension(n), float(_as_array(r, "r", 0)), None)
