"""Weak Ricci symmetry: residual checks and 1-form recovery.

The structure under test is the decomposition of the covariant derivative of
the Ricci tensor into three coefficient 1-forms (a, b, d):

    (nabla_X S)(Z, U) = a(X) S(Z, U) + b(Z) S(X, U) + d(U) S(X, Z)

together with the scalar identities it induces: the trace identity
dr(X) = r a(X) + b(QX) + d(QX), the closed form for a when r != 0, and the
identities T(QX) = r T(X) and T(Z)S(X,U) = T(U)S(X,Z) for the difference
form T = b - d.  None of the identities is ever assumed; each is exposed as
a residual reporter, and `recover_one_forms` solves the defining relation in
the least-squares sense.

All residuals are max-norm; `wrs_residual` and `weak_symmetry_residual` are
normalized by (1 + max|lhs data|), the pure identity checks are raw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import CurvatureBundle, MetricField
from .errors import DegenerateRicci, DimensionMismatch, ZeroScalarCurvature
from .tensor import _lstsq_kernel, max_abs

__all__ = [
    "OneFormSystem", "wrs_residual", "weak_symmetry_residual",
    "weak_symmetry_residual_tensors", "ws_to_wrs_condition",
    "check_dr_identity", "a_from_bd", "t_identities", "recover_one_forms",
]

ZERO_R_TOL = 1e-12  # |r| at or below this counts as zero scalar curvature


@dataclass(frozen=True)
class OneFormSystem:
    """The coefficient 1-forms of the weak-symmetry conditions.

    `a`, `b`, `d` are the three covectors of the Ricci-level condition; the
    optional `c`, `e` extend to the full curvature-level condition (they
    default to `b` and `d`, the reduction under which the curvature-level
    condition collapses to the Ricci-level one).
    """

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    c: np.ndarray | None = None
    e: np.ndarray | None = None

    def __post_init__(self):
        arrays = {}
        n = None
        for name in ("a", "b", "d", "c", "e"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=float)
            if v.ndim != 1:
                raise DimensionMismatch(f"1-form {name!r} must be a vector")
            if n is None:
                n = v.shape[0]
            elif v.shape[0] != n:
                raise DimensionMismatch("1-forms must share a common length")
            v.flags.writeable = False
            arrays[name] = v
        for name, v in arrays.items():
            object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def t(self) -> np.ndarray:
        """Difference form t = b - d."""
        return self.b - self.d

    def full(self) -> tuple[np.ndarray, ...]:
        """(a, b, c, d, e) with the b/d defaults filled in."""
        c = self.b if self.c is None else self.c
        e = self.d if self.e is None else self.e
        return self.a, self.b, c, self.d, e


def _check_forms(bundle: CurvatureBundle, forms: OneFormSystem) -> None:
    if forms.n != bundle.n:
        raise DimensionMismatch(f"forms n={forms.n} vs bundle n={bundle.n}")


# --------------------------------------------------------------------------
# Residual reporters

def wrs_residual(bundle: CurvatureBundle, forms: OneFormSystem) -> float:
    """Max-norm residual of the Ricci-level decomposition, normalized by
    (1 + max|nabla_ricci|).  Zero iff the condition holds at the point."""
    _check_forms(bundle, forms)
    if bundle.nabla_ricci is None:
        raise DimensionMismatch("bundle carries no nabla_ricci")
    s = bundle.ricci
    rhs = (np.einsum("i,jk->ijk", forms.a, s)
           + np.einsum("j,ik->ijk", forms.b, s)
           + np.einsum("k,ij->ijk", forms.d, s))
    return max_abs(bundle.nabla_ricci - rhs) / (1.0 + max_abs(bundle.nabla_ricci))


def weak_symmetry_residual_tensors(nabla_riemann: np.ndarray,
                                   riemann: np.ndarray,
                                   forms: OneFormSystem) -> float:
    """Max-norm residual of the curvature-level condition

        (nabla_X R)(Y,Z,U,V) = a(X) R(Y,Z,U,V) + b(Y) R(X,Z,U,V)
                               + c(Z) R(Y,X,U,V) + d(U) R(Y,Z,X,V)
                               + e(V) R(Y,Z,U,X)

    on raw pointwise grids, normalized by (1 + max|nabla R|).  With c and e
    left at their defaults this is the reduced (b = c, d = e) condition."""
    nr = np.asarray(nabla_riemann, dtype=float)
    rb = np.asarray(riemann, dtype=float)
    a, b, c, d, e = forms.full()
    if a.shape[0] != rb.shape[0]:
        raise DimensionMismatch(f"forms n={a.shape[0]} vs tensor n={rb.shape[0]}")
    rhs = (np.einsum("m,ijkl->mijkl", a, rb)
           + np.einsum("i,mjkl->mijkl", b, rb)
           + np.einsum("j,imkl->mijkl", c, rb)
           + np.einsum("k,ijml->mijkl", d, rb)
           + np.einsum("l,ijkm->mijkl", e, rb))
    return max_abs(nr - rhs) / (1.0 + max_abs(nr))


def weak_symmetry_residual(field: MetricField, point, forms: OneFormSystem) -> float:
    """Curvature-level residual evaluated on a chart metric at a point."""
    rb, nr = field._riemann_and_nabla(point)
    return weak_symmetry_residual_tensors(nr, rb, forms)


def ws_to_wrs_condition(bundle: CurvatureBundle, forms: OneFormSystem) -> float:
    """Raw max-norm of  b(R(X,Z)U) + d(R(X,U)Z)  over all basis triples:
    the extra term by which the curvature-level condition exceeds the
    Ricci-level one after contraction.  Zero means the two agree here."""
    _check_forms(bundle, forms)
    if bundle.riemann is None:
        raise DimensionMismatch("bundle carries no (0,4) curvature tensor")
    rb = bundle.riemann.values
    b_vec = bundle.g.raise_index(forms.b)
    d_vec = bundle.g.raise_index(forms.d)
    term_b = np.einsum("ijkl,l->ijk", rb, b_vec)
    term_d = np.einsum("ijkl,l->ijk", rb, d_vec)
    return max_abs(term_b + term_d.transpose(0, 2, 1))


def check_dr_identity(bundle: CurvatureBundle, forms: OneFormSystem) -> float:
    """Raw max-norm residual of  dr(X) = r a(X) + b(QX) + d(QX)  over basis X."""
    _check_forms(bundle, forms)
    if bundle.dr is None:
        raise DimensionMismatch("bundle carries no dr")
    q = bundle.ricci_op
    rhs = bundle.r * forms.a + forms.b @ q + forms.d @ q
    return max_abs(bundle.dr - rhs)


def a_from_bd(bundle: CurvatureBundle, b, d) -> np.ndarray:
    """Closed form for the first 1-form under nonzero scalar curvature:

        a(X) = -(1/r) [ b(QX) + d(QX) ]

    Raises ZeroScalarCurvature when |r| <= ZERO_R_TOL; in that regime the
    identity degenerates to b(QX) + d(QX) = 0 instead."""
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    if b.shape != (bundle.n,) or d.shape != (bundle.n,):
        raise DimensionMismatch("b and d must be length-n covectors")
    if abs(bundle.r) <= ZERO_R_TOL:
        raise ZeroScalarCurvature(
            f"scalar curvature {bundle.r:g} is numerically zero; "
            "the closed form for the first 1-form does not apply")
    q = bundle.ricci_op
    return -(b @ q + d @ q) / bundle.r


def t_identities(bundle: CurvatureBundle, forms: OneFormSystem) -> tuple[float, float]:
    """Raw max-norm residuals of the two T-identities for T = b - d:

        res_tq  = max_i | (T Q)_i - r T_i |
        res_ts  = max_{i,j,k} | T_j S_ik - T_k S_ij |
    """
    _check_forms(bundle, forms)
    t = forms.t
    res_tq = max_abs(t @ bundle.ricci_op - bundle.r * t)
    s = bundle.ricci
    res_ts = max_abs(np.einsum("j,ik->ijk", t, s) - np.einsum("k,ij->ijk", t, s))
    return res_tq, res_ts


# --------------------------------------------------------------------------
# Recovery

def recover_one_forms(bundle: CurvatureBundle) -> tuple[OneFormSystem, float, int]:
    """Least-squares solve of the Ricci-level decomposition for (a, b, d).

    All n^3 component equations are stacked (the symmetric (j,k) redundancy
    is kept; it weights symmetric equations twice, consistently) and solved
    for the 3n unknowns in the Frobenius sense.  Returns the minimum-norm
    solution, the residual as reported by :func:`wrs_residual` on it, and the
    kernel dimension of the design operator (`tensor._lstsq_kernel`:
    singular values at or below KERNEL_RCOND * sigma_max count as zero).

    Raises DegenerateRicci when S is numerically zero (the system is vacuous).
    """
    if bundle.nabla_ricci is None:
        raise DimensionMismatch("bundle carries no nabla_ricci")
    s = bundle.ricci
    n = bundle.n
    if max_abs(s) <= 1e-13:
        raise DegenerateRicci("Ricci tensor is numerically zero")
    eye = np.eye(n)
    block_a = np.einsum("ip,jk->ijkp", eye, s).reshape(n**3, n)
    block_b = np.einsum("jp,ik->ijkp", eye, s).reshape(n**3, n)
    block_d = np.einsum("kp,ij->ijkp", eye, s).reshape(n**3, n)
    design = np.hstack([block_a, block_b, block_d])
    rhs = bundle.nabla_ricci.reshape(n**3)
    solution, kernel_dim = _lstsq_kernel(design, rhs)
    forms = OneFormSystem(a=solution[:n], b=solution[n:2 * n], d=solution[2 * n:])
    residual = wrs_residual(bundle, forms)
    return forms, residual, kernel_dim
