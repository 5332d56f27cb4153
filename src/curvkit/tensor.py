"""Pointwise multilinear algebra on an n-dimensional tangent space.

Everything here acts on plain numpy arrays at a single point.  The fixed
conventions, used consistently across the package:

* curvature of type (0,4):  ``R[i,j,k,l] = g(R(e_i,e_j)e_k, e_l)``
* Ricci contraction:        ``S[j,k] = ginv[i,l] R[i,j,k,l]``
* Ricci operator:           ``Q[i,j] = ginv[i,k] S[k,j]``  (so g(QX,Y) = S(X,Y))
* scalar curvature:         ``r = ginv[j,k] S[j,k]``

With these signs a round sphere of curvature kappa > 0 has S = kappa (n-1) g
and r = kappa n (n-1) > 0.

Storage is dense; the intended regime is desk scale (n up to ~10).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SingularMetric

__all__ = [
    "Metric", "Tensor04",
    "ricci_contract", "scalar_curvature", "ricci_operator",
    "wedge_gg", "quasi_constant_shape", "hyper_shape", "pseudo_shape",
    "max_abs", "is_symmetric",
]

SYMMETRY_TOL = 1e-12
RIEMANN_TOL = 1e-10
INVERSE_TOL = 1e-10
KERNEL_RCOND = 1e-10  # singular values below this times the largest count as zero


def max_abs(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.abs(a).max()) if a.size else 0.0


def is_symmetric(a: np.ndarray) -> bool:
    return max_abs(a - a.T) <= SYMMETRY_TOL * max(1.0, max_abs(a))


def _lstsq_kernel(design: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """The minimum-norm least-squares solution of design @ x = rhs, and the
    kernel dimension of `design`: the columns less the singular values above
    KERNEL_RCOND * sigma_max, the same cut-off the solve applies."""
    sol, _, _, sigma = np.linalg.lstsq(design, rhs, rcond=KERNEL_RCOND)
    return sol, design.shape[1] - int(np.sum(sigma > KERNEL_RCOND * sigma[0]))


def _as_square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {a.shape}")
    return a


class Metric:
    """A positive definite symmetric bilinear form, with cached inverse.

    Construction validates symmetry (within 1e-12 relative), positive
    definiteness (Cholesky with pivot threshold 1e-12 * max|g|) and the
    quality of the cached inverse (g @ ginv = I within 1e-10).
    """

    __slots__ = ("n", "mat", "inv", "_wedge")

    def __init__(self, components):
        g = _as_square(components, "metric")
        n = g.shape[0]
        if n < 2:
            raise DimensionMismatch(f"metric dimension must be >= 2, got {n}")
        scale = max(1.0, max_abs(g))
        if max_abs(g - g.T) > SYMMETRY_TOL * scale:
            raise SingularMetric("metric is not symmetric")
        g = 0.5 * (g + g.T)  # exact symmetrization of rounding noise
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise SingularMetric("metric is not positive definite") from None
        pivot_floor = 1e-12 * max_abs(g)
        if float(np.min(np.diagonal(chol)) ** 2) <= pivot_floor:
            raise SingularMetric("metric is numerically singular (tiny Cholesky pivot)")
        inv = np.linalg.inv(g)
        inv = 0.5 * (inv + inv.T)
        if max_abs(g @ inv - np.eye(n)) > INVERSE_TOL:
            raise SingularMetric("metric inverse failed the identity check")
        g.flags.writeable = False
        inv.flags.writeable = False
        self.n = n
        self.mat = g
        self.inv = inv
        self._wedge = None  # wedge_gg(self), built on first use

    def raise_index(self, covector) -> np.ndarray:
        """Metric dual of a 1-form: v^i = ginv[i,j] w_j."""
        w = np.asarray(covector, dtype=float)
        if w.shape != (self.n,):
            raise DimensionMismatch(f"1-form must have shape ({self.n},), got {w.shape}")
        return self.inv @ w

    def norm_sq(self, covector) -> float:
        """Squared metric norm of a 1-form: ginv[i,j] w_i w_j."""
        w = np.asarray(covector, dtype=float)
        return float(w @ self.inv @ w)

    def __repr__(self):
        return f"Metric(n={self.n})"


@dataclass(frozen=True)
class Tensor04:
    """A (0,4) tensor as a dense n^4 grid.

    `riemann_like=True` asserts (and validates on construction) the full set
    of algebraic curvature symmetries: antisymmetry in the first and second
    index pairs, pair exchange symmetry, and the first Bianchi identity, each
    within 1e-10 * max|values|.  Generalized curvature tensors (the
    quasi-conformal, pseudo-projective and W2 combinations) do not in general
    enjoy all of these and carry `riemann_like=False`.
    """

    values: np.ndarray
    riemann_like: bool = False
    n: int = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 4 or len(set(v.shape)) != 1:
            raise DimensionMismatch(f"(0,4) tensor must be n^4, got shape {v.shape}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "n", v.shape[0])
        if self.riemann_like:
            res = self.symmetry_residuals()
            # absolute floor: a numerically-zero tensor is all rounding noise,
            # and noise cannot beat a purely relative symmetry tolerance
            tol = RIEMANN_TOL * self.norm() + 1e-12
            bad = {k: r for k, r in res.items() if r > tol}
            if bad:
                raise DimensionMismatch(
                    f"tensor flagged riemann-like violates curvature symmetries: {bad}")
        v.flags.writeable = False

    def norm(self) -> float:
        return max_abs(self.values)

    def symmetry_residuals(self) -> dict[str, float]:
        """Max-norm residuals of the four algebraic curvature symmetries."""
        v = self.values
        return {
            "antisym_first_pair": max_abs(v + v.transpose(1, 0, 2, 3)),
            "antisym_second_pair": max_abs(v + v.transpose(0, 1, 3, 2)),
            "pair_symmetry": max_abs(v - v.transpose(2, 3, 0, 1)),
            "first_bianchi": max_abs(v + v.transpose(1, 2, 0, 3)
                                     + v.transpose(2, 0, 1, 3)),
        }


def _check_bilinear(p, n: int) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (n, n):
        raise DimensionMismatch(f"bilinear form must have shape ({n},{n}), got {p.shape}")
    return p


def _check_oneform(w, n: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise DimensionMismatch(f"1-form must have shape ({n},), got {w.shape}")
    return w


# --------------------------------------------------------------------------
# Contractions

def ricci_contract(tensor: Tensor04, g: Metric) -> np.ndarray:
    """Trace a (0,4) tensor over its first and fourth slots:
    S[j,k] = ginv[i,l] R[i,j,k,l].  Symmetric whenever the input is
    riemann-like; general bilinear otherwise."""
    if tensor.n != g.n:
        raise DimensionMismatch(f"tensor n={tensor.n} vs metric n={g.n}")
    return _ricci_contract_values(g.inv, tensor.values)


def _ricci_contract_values(ginv: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`ricci_contract` of grids stacked on leading axes, unchecked."""
    return np.einsum("il,...ijkl->...jk", ginv, values)


def scalar_curvature(ricci, g: Metric) -> float:
    """Full metric trace of a bilinear form: r = ginv[j,k] S[j,k]."""
    s = _check_bilinear(ricci, g.n)
    return float(np.einsum("jk,jk->", g.inv, s))


def ricci_operator(ricci, g: Metric) -> np.ndarray:
    """The endomorphism Q with g(QX,Y) = S(X,Y): Q[i,j] = ginv[i,k] S[k,j]."""
    s = _check_bilinear(ricci, g.n)
    return g.inv @ s


# --------------------------------------------------------------------------
# Curvature-shaped builders
#
# Each block kernel is written once, as a table of signed terms
# (sign, slots of P, slots of g) over the output slots ijkl: the entry
# B(P)[i,j,k,l] is the signed sum of P[slots] * g[slots] in table order.
# Two evaluators read a table.  `_expand_block` builds the grid for
# bilinears stacked on leading axes, P of shape (..., n, n) giving
# (..., n, n, n, n); `rows` = (i, j, k, l), index arrays that broadcast
# together, selects entries instead, of shape (...,) + their broadcast
# shape.  Each entry is a fixed sum of products, so a stacked call, or a
# selection of rows, equals the full item-by-item grids bit for bit.
# `_contract_block` returns the Ricci contraction of that grid without
# building it.  The builders here and in `gencurv`, and the fits of
# `classify`, pass their table to one of the two directly.

_PSEUDO_TERMS = ((+1, "jk", "il"), (-1, "ik", "jl"))
_HYPER_TERMS = _PSEUDO_TERMS + ((+1, "il", "jk"), (-1, "jl", "ik"))
_W2_TERMS = ((+1, "jl", "ik"), (-1, "il", "jk"))


@functools.lru_cache(maxsize=16)
def _full_grid(n: int):
    return np.ix_(*[np.arange(n)] * 4)


def _expand_block(terms, gm: np.ndarray, p: np.ndarray, rows=None) -> np.ndarray:
    """The grid (or the `rows` selection) of the block that `terms` describe."""
    slot = dict(zip("ijkl", _full_grid(gm.shape[0]) if rows is None else rows))
    out = None
    for sign, ps, gs in terms:
        # every term spans all four slots, so each has the output's shape
        term = p[..., slot[ps[0]], slot[ps[1]]] * gm[slot[gs[0]], slot[gs[1]]]
        if out is None:  # every table opens with a + term
            out = term
        elif sign > 0:
            out += term
        else:
            out -= term
    return out


def _contract_block(terms, ginv: np.ndarray, gm: np.ndarray,
                    p: np.ndarray) -> np.ndarray:
    """S[..., j, k] = ginv[i,l] B(P)[..., i, j, k, l] for the block that
    `terms` describe, P stacked on leading axes, without building the grid:
    per term, ginv is summed into the g factor first (one small unstacked
    einsum), and what is left is contracted with the stacked P."""
    out = 0.0
    for sign, ps, gs in terms:
        # the slots of ginv and g that P or the output still needs
        kept = "".join(dict.fromkeys(c for c in "il" + gs if c in ps + "jk"))
        weight = np.einsum(f"il,{gs}->{kept}", ginv, gm)
        term = np.einsum(f"...{ps},{kept}->...jk", p, weight)
        out = out + term if sign > 0 else out - term
    return out


def wedge_gg(g: Metric) -> Tensor04:
    """G[i,j,k,l] = g[j,k] g[i,l] - g[i,k] g[j,l]; the constant-curvature shape.
    Its Ricci contraction is (n-1) g.  Built and validated once per metric;
    every later call returns the same read-only tensor."""
    if g._wedge is None:
        g._wedge = Tensor04(_expand_block(_PSEUDO_TERMS, g.mat, g.mat), riemann_like=True)
    return g._wedge


def quasi_constant_shape(g: Metric, a_form) -> Tensor04:
    """The rank-one block of the quasi-constant-curvature shape:

        g[i,l] A[j] A[k] - g[i,k] A[j] A[l] + g[j,k] A[i] A[l] - g[j,l] A[i] A[k]

    Riemann-like for every covector A.  Callers apply their own scalar weight.
    """
    a = _check_oneform(a_form, g.n)
    return Tensor04(_expand_block(_HYPER_TERMS, g.mat, np.outer(a, a)), riemann_like=True)


def hyper_shape(g: Metric, p) -> Tensor04:
    """The four-term P-block

        g[i,l] P[j,k] - g[i,k] P[j,l] + g[j,k] P[i,l] - g[j,l] P[i,k]

    for a general (not necessarily symmetric) bilinear P.  Riemann-like
    exactly when P is symmetric.  Gauge: replacing P by P + c*g adds
    2c * wedge_gg(g)."""
    p = _check_bilinear(p, g.n)
    return Tensor04(_expand_block(_HYPER_TERMS, g.mat, p), riemann_like=is_symmetric(p))


def pseudo_shape(g: Metric, p) -> Tensor04:
    """The two-term P-block  P[j,k] g[i,l] - P[i,k] g[j,l].

    Not riemann-like in general (no second-pair antisymmetry).  Gauge:
    replacing P by P + c*g adds c * wedge_gg(g)."""
    p = _check_bilinear(p, g.n)
    return Tensor04(_expand_block(_PSEUDO_TERMS, g.mat, p), riemann_like=False)

