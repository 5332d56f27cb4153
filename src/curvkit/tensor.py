"""Pointwise multilinear algebra on an n-dimensional tangent space.

Everything here acts on plain numpy arrays at a single point.  The fixed
conventions, used consistently across the package:

* curvature of type (0,4):  ``R[i,j,k,l] = g(R(e_i,e_j)e_k, e_l)``
* Ricci contraction:        ``S[j,k] = ginv[i,l] R[i,j,k,l]``
* Ricci operator:           ``Q[i,j] = ginv[i,k] S[k,j]``  (so g(QX,Y) = S(X,Y))
* scalar curvature:         ``r = ginv[j,k] S[j,k]``

With these signs a round sphere of curvature kappa > 0 has S = kappa (n-1) g
and r = kappa n (n-1) > 0.

Storage is dense; the intended regime is desk scale (n up to ~10).  The
harness and manifests refuse dimensions above MAX_DIM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, NumericalInconsistency, SingularMetric

__all__ = [
    "Metric", "Tensor04", "CurvatureBundle",
    "ricci_contract", "scalar_curvature", "ricci_operator",
    "wedge_gg", "quasi_constant_shape", "hyper_shape", "pseudo_shape",
    "max_abs", "is_symmetric",
]

SYMMETRY_TOL = 1e-12
RIEMANN_TOL = 1e-10
INVERSE_TOL = 1e-10
KERNEL_RCOND = 1e-10  # singular values below this times the largest count as zero
MAX_DIM = 16  # the largest `verify --n` and manifest `dim:` accepted


def max_abs(a) -> float:
    return float(np.abs(a).max(initial=0.0))


def _max_abs_items(a: np.ndarray, ndim: int) -> np.ndarray:
    """`max_abs` of each item of a stack, taken over its last `ndim` axes."""
    return np.abs(a).max(axis=tuple(range(-ndim, 0)), initial=0.0)


def _relative(x, scale, ndim: int):
    """max|x| / (1 + scale), the one normalized residual: max|x| over the
    last `ndim` axes of each stacked item (|x| itemwise for 0), and scale
    >= 0 the size of what x is compared against.  Absolute, not scale-free.
    Not of this form, and so written where they stand: the pairing's
    product scale (`harness._pairing`), the max(1, .) tests of
    `is_symmetric` and `_checked_metrics`, RIEMANN_TOL * |R| + 1e-12,
    CLUSTER_TOL * max|lambda|, `_kernel_rule`'s cut and `gencurv`'s weights."""
    return _max_abs_items(x, ndim) / (1.0 + scale)


def _tolerance(tol, scale):
    """tol * (1 + scale), the one threshold for a quantity of that scale."""
    return tol * (1.0 + scale)


def _lift(x, ndim: int) -> np.ndarray:
    """Per-item scalars (shape s) reshaped to s + (1,) * ndim, so that they
    scale items with `ndim` axes of their own."""
    return np.asarray(x)[(...,) + (None,) * ndim]


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.outer of 1-forms stacked on the same leading axes."""
    return u[..., :, None] * v[..., None, :]


def is_symmetric(a: np.ndarray) -> bool:
    return max_abs(a - a.T) <= SYMMETRY_TOL * max(1.0, max_abs(a))


def _lstsq_kernel(design: np.ndarray,
                  rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one least-squares solve: the minimum-norm solutions of
    design @ x = rhs for systems stacked on leading axes that broadcast
    (none for one system), designs (..., m, k) and right-hand sides
    (..., m), in one stacked SVD.  Returns the solutions, the kernel dimension of each design
    (the columns less the singular values above the cut) and the cut,
    KERNEL_RCOND * sigma_max, which the solve applies, stacked.  Raises
    NumericalInconsistency for the first system with a non-finite
    coefficient, its flat index as `item`, before any is solved: LAPACK may
    not return on one."""
    if not (np.isfinite(design).all() and np.isfinite(rhs).all()):
        finite = np.isfinite(design).all(axis=(-2, -1)) & np.isfinite(rhs).all(axis=-1)
        raise NumericalInconsistency("a least-squares system has a non-finite "
                                     "coefficient").at(int(np.argmin(finite)))
    u, sigma, vh = np.linalg.svd(design, full_matrices=False)
    cut, kernel_dim = _kernel_rule(sigma, design.shape[-1])
    coef = (u.swapaxes(-1, -2) @ rhs[..., None])[..., 0]
    coef = np.divide(coef, sigma, out=np.zeros_like(coef), where=sigma > cut[..., None])
    return (vh.swapaxes(-1, -2) @ coef[..., None])[..., 0], kernel_dim, cut


def _kernel_rule(sigma: np.ndarray, columns: int) -> tuple[np.ndarray, np.ndarray]:
    """The one rank rule, for the singular values of systems stacked on
    leading axes, (..., k), all of one system's on the last axis: the cut
    KERNEL_RCOND * sigma_max and the kernel dimension, `columns` less the
    singular values above the cut."""
    cut = KERNEL_RCOND * sigma.max(axis=-1, initial=0.0)
    return cut, columns - np.count_nonzero(sigma > cut[..., None], axis=-1)


def _as_array(x, name: str, rank: int, n: int | None = None,
              finite: bool = True) -> np.ndarray:
    """The one conversion of a caller's argument: `x` as a float array of
    `rank` axes (0 for a scalar), each of length n, or all of one length
    when n is None.  Raises DimensionMismatch naming the argument `name`
    when x is not made of real numbers, has another shape, or holds a
    non-finite entry.  finite=False leaves non-finite entries to the
    caller: `Metric` refuses them as SingularMetric, and a chart evaluates
    its entries at any coordinates.  A float array is returned as it is."""
    try:
        a = np.asarray(x)
        if a.dtype.kind not in "biufO":  # complex, text, times: no real numbers
            raise TypeError(f"got {a.dtype} entries")
        a = a.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        noun = ("a scalar", "a vector", "a matrix")[rank] if rank < 3 else "a grid"
        raise DimensionMismatch(f"{name} must be {noun} of numbers: {exc}") from None
    if a.ndim != rank or len(set(a.shape) if n is None else {n, *a.shape}) > 1:
        want = f"{rank} axes of one length" if n is None and rank else f"shape {(n,) * rank}"
        raise DimensionMismatch(f"{name} must have {want}, got shape {a.shape}")
    if finite and not np.isfinite(a).all():
        raise DimensionMismatch(f"{name} has a non-finite component")
    return a


def _point_values(point, n: int) -> list[float]:
    """The n coordinates of a point as floats, the one conversion of a point
    that `Expression` and `MetricField` share: DomainError unless it is a
    sequence of n real, finite numbers."""
    try:
        return _as_array(point, "point", 1, n).tolist()
    except DimensionMismatch as exc:
        raise DomainError(f"a point must be a sequence of numbers: {exc}") from None


def _instance(x, cls: type, name: str):
    """x, after checking that it is a `cls`; raises DimensionMismatch naming
    the argument `name` otherwise."""
    if not isinstance(x, cls):
        raise DimensionMismatch(f"{name} must be a {cls.__name__}, got {type(x).__name__}")
    return x


def _grid_of(tensor, name: str, g) -> np.ndarray:
    """The grid of the (0,4) argument `name`, after checking that it is a
    `Tensor04` and g a `Metric` of the same n."""
    if _instance(tensor, Tensor04, name).n != _instance(g, Metric, "g").n:
        raise DimensionMismatch(f"{name} n={tensor.n} vs metric n={g.n}")
    return tensor.values


def _bundle_part(bundle, part: str):
    """bundle.<part>, after checking that bundle is a `CurvatureBundle` that
    carries it (`from_tensors` may leave riemann, nabla_ricci and dr out)."""
    value = getattr(_instance(bundle, CurvatureBundle, "bundle"), part)
    if value is None:
        noun = "(0,4) curvature tensor" if part == "riemann" else part
        raise DimensionMismatch(f"bundle carries no {noun}")
    return value


def _checked_metrics(g: np.ndarray):
    """Metrics stacked as (m, n, n), exactly symmetrized, and their
    symmetrized inverses; or, when some metric fails a check, the reason
    the first check that fails gives."""
    size = _max_abs_items(g, 2)
    if not np.isfinite(size).all():  # before any arithmetic that would warn on it
        return "metric has a non-finite component"
    g_t = g.swapaxes(-1, -2)
    if not (_max_abs_items(g - g_t, 2) <= SYMMETRY_TOL * np.maximum(1.0, size)).all():
        return "metric is not symmetric"
    g = 0.5 * (g + g_t)  # exact symmetrization of rounding noise
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return "metric is not positive definite"
    pivots = chol.diagonal(axis1=-2, axis2=-1).min(axis=-1)
    if not (pivots ** 2 > 1e-12 * _max_abs_items(g, 2)).all():
        return "metric is numerically singular (tiny Cholesky pivot)"
    inv = np.linalg.inv(g)
    inv = 0.5 * (inv + inv.swapaxes(-1, -2))
    if not (_max_abs_items(g @ inv - np.eye(g.shape[-1]), 2) <= INVERSE_TOL).all():
        return "metric inverse failed the identity check"
    return g, inv


def _validate_metrics(components: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate metrics stacked on leading axes, (..., n, n), and return them
    exactly symmetrized with their symmetrized inverses.  Each must be finite,
    symmetric within SYMMETRY_TOL * max(1, max|g|), positive definite with
    its smallest Cholesky pivot squared above 1e-12 * max|g|, and pass
    g @ ginv = I within INVERSE_TOL.  Raises SingularMetric for the first
    failing metric in C order, with its flat index as `item`."""
    n = components.shape[-1]
    g = components.reshape(-1, n, n)
    checked = _checked_metrics(g)
    if isinstance(checked, str):  # some metric fails: find the first, one at a time
        for k in range(len(g)):
            why = _checked_metrics(g[k:k + 1])
            if isinstance(why, str):
                raise SingularMetric(why).at(k)
    return checked[0].reshape(components.shape), checked[1].reshape(components.shape)


class Metric:
    """A positive definite symmetric bilinear form, with cached inverse.

    Construction validates finiteness, symmetry (within 1e-12 relative),
    positive definiteness (Cholesky with pivot threshold 1e-12 * max|g|) and
    the quality of the cached inverse (g @ ginv = I within 1e-10).
    """

    __slots__ = ("n", "mat", "inv")

    def __init__(self, components):
        g = _as_array(components, "metric", 2, finite=False)
        if g.shape[0] < 2:
            raise DimensionMismatch(f"metric dimension must be >= 2, got {g.shape[0]}")
        mat, inv = _validate_metrics(g)
        mat.flags.writeable = inv.flags.writeable = False
        self.n, self.mat, self.inv = mat.shape[0], mat, inv

    def __repr__(self):
        return f"Metric(n={self.n})"


class _ArrayRecord:
    """Base of the frozen dataclass records that hold arrays, each array
    field as a read-only copy: the caller's array stays writable and
    unshared.  A record's own `__post_init__` converts and checks its fields,
    then calls this one, which takes the copies."""

    def __post_init__(self):
        for name, value in list(vars(self).items()):
            if isinstance(value, np.ndarray):
                value = value.copy()
                value.flags.writeable = False
                object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class Tensor04(_ArrayRecord):
    """A (0,4) tensor as a dense n^4 grid.

    `riemann_like=True` asserts (and validates on construction) the full set
    of algebraic curvature symmetries: antisymmetry in the first and second
    index pairs, pair exchange symmetry, and the first Bianchi identity, each
    within 1e-10 * max|values|.  Generalized curvature tensors (the
    quasi-conformal, pseudo-projective and W2 combinations) do not in general
    enjoy all of these and carry `riemann_like=False`.  Every construction
    checks the flag, the library's own builders included, whose output has
    the symmetries by construction (`wedge_gg`, `quasi_constant_shape`, and
    `hyper_shape` and `gencurv.reconstruct_qc_flat` of a symmetric form).
    The grid is held as a read-only copy.  Tensors compare and hash by identity.
    """

    values: np.ndarray
    riemann_like: bool = False
    n: int = field(init=False)

    def __post_init__(self):
        values = _as_array(self.values, "(0,4) tensor", 4)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", values.shape[0])
        if self.riemann_like:
            # absolute floor: a numerically-zero tensor is all rounding noise,
            # and noise cannot beat a purely relative symmetry tolerance
            tol = RIEMANN_TOL * self.norm() + 1e-12
            bad = {k: r for k, r in self.symmetry_residuals().items() if r > tol}
            if bad:
                raise DimensionMismatch(
                    f"tensor flagged riemann-like violates curvature symmetries: {bad}")
        super().__post_init__()

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


@dataclass(frozen=True, eq=False)
class CurvatureBundle(_ArrayRecord):
    """All pointwise curvature data derived from a metric at one point.

    `riemann` uses the (0,4) convention R[i,j,k,l] = g(R(e_i,e_j)e_k, e_l);
    `nabla_ricci[i,j,k]` is the covariant derivative (nabla_i S)(e_j, e_k);
    `dr[i]` is the coordinate differential of the scalar curvature.

    Construction checks every part (each axis of length n), fills the
    defaults (`ricci` contracts `riemann`, `r` traces `ricci`) and derives
    `ricci_op = ginv @ ricci`; the arrays are held as read-only copies.
    Synthetic data may leave `point`, `nabla_ricci`, `dr` and even `riemann`
    out (None).  Bundles compare and hash by identity."""

    g: Metric
    riemann: Tensor04 | None = None
    ricci: np.ndarray | None = None
    r: float | None = None
    nabla_ricci: np.ndarray | None = None
    dr: np.ndarray | None = None
    point: tuple[float, ...] | None = None
    ricci_op: np.ndarray = field(init=False)

    def __post_init__(self):
        g, ricci, r = self.g, self.ricci, self.r
        rv = None if self.riemann is None else _grid_of(self.riemann, "riemann", g)
        if ricci is None:
            if rv is None:
                raise DimensionMismatch("need riemann or ricci to build a bundle")
            ricci = _ricci_contract_values(g.inv, rv)
        ricci = _as_array(ricci, "ricci", 2, _instance(g, Metric, "g").n)
        r = _scalar_curvature_values(g.inv, ricci) if r is None else _as_array(r, "r", 0)
        held = {"ricci": ricci, "ricci_op": g.inv @ ricci, "r": float(r)}
        for name, rank in (("nabla_ricci", 3), ("dr", 1)):
            if getattr(self, name) is not None:
                held[name] = _as_array(getattr(self, name), name, rank, g.n)
        if self.point is not None:
            held["point"] = tuple(_as_array(self.point, "point", 1, g.n).tolist())
        for name, value in held.items():
            object.__setattr__(self, name, value)
        super().__post_init__()

    @property
    def n(self) -> int:
        return self.g.n

    @classmethod
    def from_tensors(cls, *parts, **named) -> "CurvatureBundle":
        """`CurvatureBundle(...)` by its documented name: the parts g,
        riemann, ricci, r, nabla_ricci, dr and point, in that order."""
        return cls(*parts, **named)


# --------------------------------------------------------------------------
# Contractions

def ricci_contract(tensor: Tensor04, g: Metric) -> np.ndarray:
    """Trace a (0,4) tensor over its first and fourth slots:
    S[j,k] = ginv[i,l] R[i,j,k,l].  Symmetric whenever the input is
    riemann-like; general bilinear otherwise."""
    values = _grid_of(tensor, "tensor", g)
    return _ricci_contract_values(g.inv, values)


def _ricci_contract_values(ginv: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`ricci_contract` of grids stacked on leading axes, unchecked; ginv
    has leading axes of its own or none."""
    return np.einsum("...il,...ijkl->...jk", ginv, values)


def scalar_curvature(ricci, g: Metric) -> float:
    """Full metric trace of a bilinear form: r = ginv[j,k] S[j,k]."""
    ricci = _as_array(ricci, "ricci", 2, _instance(g, Metric, "g").n)
    return float(_scalar_curvature_values(g.inv, ricci))


def _scalar_curvature_values(ginv: np.ndarray, s: np.ndarray) -> np.ndarray:
    """`scalar_curvature` of forms stacked on leading axes, unchecked."""
    return np.einsum("...jk,...jk->...", ginv, s)


def _norm_sq_values(ginv: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared metric norms ginv[i,j] w_i w_j of 1-forms stacked on leading
    axes, unchecked."""
    return ((w[..., None, :] @ ginv) @ w[..., :, None])[..., 0, 0]


def ricci_operator(ricci, g: Metric) -> np.ndarray:
    """The endomorphism Q with g(QX,Y) = S(X,Y): Q[i,j] = ginv[i,k] S[k,j]."""
    ricci = _as_array(ricci, "ricci", 2, _instance(g, Metric, "g").n)
    return g.inv @ ricci


# --------------------------------------------------------------------------
# Curvature-shaped builders
#
# Each block kernel is written once, as a table of signed terms
# (sign, slots of P, slots of g) over the output slots ijkl: the entry
# B(P)[i,j,k,l] is the signed sum of P[slots] * g[slots] in table order.
# Two evaluators read a table.  `_expand_block` builds the grid for
# bilinears stacked on leading axes, P of shape (..., n, n) giving
# (..., n, n, n, n), with g stacked the same way or not at all; each entry
# is a fixed sum of products, so a stacked call equals the item-by-item
# grids bit for bit.  `_contract_block` returns the Ricci contraction of
# that grid without building it.  The builders here and in `gencurv` pass
# their table to one of the two directly.  A third reader, `_adjoint_block`,
# maps a grid back to a bilinear by the g-adjoint of the block, which is
# all the shape fits of `classify` need: their normal equations, in the
# g-norm, are one such contraction of the fitted grid.  G is a block too:
# each table gives B(g) = w * G, w its `_WEDGE_WEIGHT`, so a term c * G joins
# an expanded block as the shift (c / w) * g of P (`_expand_with_wedge`).

_PSEUDO_TERMS = ((+1, "jk", "il"), (-1, "ik", "jl"))
_HYPER_TERMS = _PSEUDO_TERMS + ((+1, "il", "jk"), (-1, "jl", "ik"))
_W2_TERMS = ((+1, "jl", "ik"), (-1, "il", "jk"))
_WEDGE_WEIGHT = {_PSEUDO_TERMS: 1.0, _HYPER_TERMS: 2.0, _W2_TERMS: -1.0}


def _expand_block(terms, gm: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The grid of the block that `terms` describe.  g (x) P is formed once
    per stacked item, P[a,b] * g[c,d] on axes abcd; each term is a
    transposed view of it, and the views are summed in table order."""
    product = gm[..., None, None, :, :] * p[..., :, :, None, None]
    stacked = "0123456789"[:product.ndim - 4]  # a name for each stacked axis
    out = None
    for sign, ps, gs in terms:
        # the product's axes are named stacked + ps + gs, the term's stacked + ijkl
        term = product.transpose(tuple(map((stacked + ps + gs).index, stacked + "ijkl")))
        if out is None:  # every table opens with a + term
            out = term.copy()
        elif sign > 0:
            out += term
        else:
            out -= term
    return out


def _expand_with_wedge(terms, gm: np.ndarray, p: np.ndarray, c) -> np.ndarray:
    """B(P) + c*G, c one scalar per stacked metric, as the one block B(P + (c / w) g)."""
    return _expand_block(terms, gm, p + _lift(c / _WEDGE_WEIGHT[terms], 2) * gm)


def _contract_block(terms, ginv: np.ndarray, gm: np.ndarray,
                    p: np.ndarray) -> np.ndarray:
    """S[..., j, k] = ginv[i,l] B(P)[..., i, j, k, l] for the block that
    `terms` describe, P, g and ginv stacked on leading axes that broadcast,
    without building the grid: per term, ginv is summed first into the
    factor that holds both its slots i and l (a term P[il] g[jk] becomes
    tr_g(P) g), or into the g factor when each holds one, and what is left
    is contracted with the other factor.  So no intermediate has more than
    two slots of length n: per stacked item the largest array is n x n, and
    a block of the harness's contraction checks, whose n + 1 probe images
    fill BLOCK_BYTES, builds no einsum output above BLOCK_BYTES
    (tests/test_harness_stacks.py pins it)."""
    out = 0.0
    for sign, ps, gs in terms:
        first, fs, second, ss = (p, ps, gm, gs) if set("il") <= set(ps) else (gm, gs, p, ps)
        # the slots of ginv and the first factor that the second or the output needs
        kept = "".join(dict.fromkeys(c for c in "il" + fs if c in ss + "jk"))
        weight = np.einsum(f"...il,...{fs}->...{kept}", ginv, first)
        term = np.einsum(f"...{ss},...{kept}->...jk", second, weight)
        out = out + term if sign > 0 else out - term
    return out


def _adjoint_block(terms, ginv: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Y = B*(R), the g-adjoint of the block B that `terms` describe, for
    grids R and inverse metrics stacked on leading axes that broadcast:
    <R, B(P)>_g = <Y, P>_g for every bilinear P, where <X, Z>_g contracts
    every slot pair with ginv.  Per term (sign, ps, gs), R has its slots
    gs contracted with ginv and its slots ps kept, in that order; the terms
    are summed in table order.  The pseudo block gives c14 - c24 and the
    hyper block c14 - c24 + c23 - c13, c14 being `_ricci_contract_values`."""
    out = 0.0
    for sign, ps, gs in terms:
        term = np.einsum(f"...{gs},...ijkl->...{ps}", ginv, values)
        out = out + term if sign > 0 else out - term
    return out


def wedge_gg(g: Metric) -> Tensor04:
    """G[i,j,k,l] = g[j,k] g[i,l] - g[i,k] g[j,l]; the constant-curvature shape.
    Its Ricci contraction is (n-1) g."""
    return Tensor04(_wedge_values(_instance(g, Metric, "g").mat), riemann_like=True)


def _wedge_values(gm: np.ndarray) -> np.ndarray:
    """The G grid of `wedge_gg` for metrics stacked on leading axes,
    (..., n, n) -> (..., n, n, n, n), unchecked: the pseudo block at P = g."""
    return _expand_block(_PSEUDO_TERMS, gm, gm)


def quasi_constant_shape(g: Metric, a_form) -> Tensor04:
    """The rank-one block of the quasi-constant-curvature shape:

        g[i,l] A[j] A[k] - g[i,k] A[j] A[l] + g[j,k] A[i] A[l] - g[j,l] A[i] A[k]

    Riemann-like for every covector A.  Callers apply their own scalar weight.
    """
    a = _as_array(a_form, "1-form", 1, _instance(g, Metric, "g").n)
    return Tensor04(_expand_block(_HYPER_TERMS, g.mat, np.outer(a, a)), riemann_like=True)


def hyper_shape(g: Metric, p) -> Tensor04:
    """The four-term P-block

        g[i,l] P[j,k] - g[i,k] P[j,l] + g[j,k] P[i,l] - g[j,l] P[i,k]

    for a general (not necessarily symmetric) bilinear P.  Riemann-like
    exactly when P is symmetric.  Gauge: replacing P by P + c*g adds
    2c * wedge_gg(g)."""
    p = _as_array(p, "bilinear form", 2, _instance(g, Metric, "g").n)
    return Tensor04(_expand_block(_HYPER_TERMS, g.mat, p), riemann_like=is_symmetric(p))


def pseudo_shape(g: Metric, p) -> Tensor04:
    """The two-term P-block  P[j,k] g[i,l] - P[i,k] g[j,l].

    Not riemann-like in general (no second-pair antisymmetry).  Gauge:
    replacing P by P + c*g adds c * wedge_gg(g)."""
    p = _as_array(p, "bilinear form", 2, _instance(g, Metric, "g").n)
    return Tensor04(_expand_block(_PSEUDO_TERMS, g.mat, p))

