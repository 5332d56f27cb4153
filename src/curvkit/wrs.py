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
normalized by (1 + max|lhs data|), the pure identity checks are raw.  A
reporter of a bundle or of given grids, and `a_from_bd`, ends in
NumericalInconsistency where its result overflows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (DegenerateRicci, DimensionMismatch, NumericalInconsistency,
                     ZeroScalarCurvature)
from .tensor import (CurvatureBundle, _ArrayRecord, _as_array, _bundle_part, _instance, _lift,
                     _lstsq_kernel, _relative, max_abs)

if TYPE_CHECKING:
    from .chart import MetricField

__all__ = [
    "OneFormSystem", "wrs_residual", "weak_symmetry_residual",
    "weak_symmetry_residual_tensors", "ws_to_wrs_condition",
    "check_dr_identity", "a_from_bd", "t_identities", "recover_one_forms",
]

ZERO_R_TOL = 1e-12  # |r| at or below this counts as zero scalar curvature


@dataclass(frozen=True, eq=False)
class OneFormSystem(_ArrayRecord):
    """The coefficient 1-forms of the weak-symmetry conditions.

    `a`, `b`, `d` are the three covectors of the Ricci-level condition, of
    one length.  The curvature-level condition is checked in its reduced
    form, where its second pair of forms repeats (b, d)
    (`weak_symmetry_residual_tensors`).  Compared and hashed by identity.
    """

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        n = None
        for name in ("a", "b", "d"):
            v = _as_array(getattr(self, name), f"1-form {name}", 1, n)
            n = len(v)
            object.__setattr__(self, name, v)
        super().__post_init__()

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def t(self) -> np.ndarray:
        """Difference form t = b - d."""
        return self.b - self.d


def _forms_n(forms: OneFormSystem, n: int | None = None, owner: str = "") -> int:
    """The n of forms, after checking that it is a `OneFormSystem`, and when
    n is given, that it is n, the n of `owner`."""
    m = _instance(forms, OneFormSystem, "forms").n
    if n is not None and m != n:
        raise DimensionMismatch(f"forms n={m} vs {owner} n={n}")
    return m


def _check_forms(bundle: CurvatureBundle, forms: OneFormSystem, part: str):
    """The bundle's `part` (`tensor._bundle_part`), after checking that
    forms is a `OneFormSystem` of the bundle's n."""
    value = _bundle_part(bundle, part)
    _forms_n(forms, bundle.n, "bundle")
    return value


def _finite(func):
    """func, with numpy's overflow warnings off, ending in
    NumericalInconsistency where its result is not finite: every array it
    reads is checked finite, so only an overflow makes the result so."""
    @functools.wraps(func)
    def checked(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            result = func(*args, **kwargs)
        if not np.isfinite(result).all():
            raise NumericalInconsistency(f"{func.__name__} overflows on these inputs")
        return result
    return checked


# --------------------------------------------------------------------------
# Residual reporters

@_finite
def wrs_residual(bundle: CurvatureBundle, forms: OneFormSystem) -> float:
    """Max-norm residual of the Ricci-level decomposition, normalized by
    (1 + max|nabla_ricci|).  Zero iff the condition holds at the point."""
    nabla_ricci = _check_forms(bundle, forms, "nabla_ricci")
    return _wrs_defect(nabla_ricci, bundle.ricci, forms.a, forms.b, forms.d)


def _wrs_defect(nabla_ricci: np.ndarray, s: np.ndarray, a: np.ndarray, b: np.ndarray,
                d: np.ndarray) -> float:
    """max|nabla S - (a(X) S(Z,U) + b(Z) S(X,U) + d(U) S(X,Z))|
    / (1 + max|nabla S|), unchecked: the one residual of the Ricci-level
    condition."""
    return float(_relative(nabla_ricci - _wrs_terms(s, a, b, d), max_abs(nabla_ricci), 3))


def _wrs_terms(s: np.ndarray, a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The right-hand side a(X) S(Z,U) + b(Z) S(X,U) + d(U) S(X,Z) of the
    Ricci-level condition over the basis triples, out[..., X, Z, U], for
    1-forms a, b, d stacked on the same leading axes, unchecked."""
    return (np.einsum("...i,jk->...ijk", a, s)
            + np.einsum("...j,ik->...ijk", b, s)
            + np.einsum("...k,ij->...ijk", d, s))


@_finite
def weak_symmetry_residual_tensors(nabla_riemann: np.ndarray,
                                   riemann: np.ndarray,
                                   forms: OneFormSystem) -> float:
    """Max-norm residual of the reduced curvature-level condition

        (nabla_X R)(Y,Z,U,V) = a(X) R(Y,Z,U,V) + b(Y) R(X,Z,U,V)
                               + b(Z) R(Y,X,U,V) + d(U) R(Y,Z,X,V)
                               + d(V) R(Y,Z,U,X)

    on raw pointwise grids, normalized by (1 + max|nabla R|): the general
    condition with five forms (a, b, c, d, e), reduced by c = b and e = d.
    The grids have the forms' length n on every axis."""
    n = _forms_n(forms)
    return _weak_symmetry_residual(_as_array(nabla_riemann, "nabla_riemann", 5, n),
                                   _as_array(riemann, "riemann", 4, n), forms)


def _weak_symmetry_residual(nr: np.ndarray, rb: np.ndarray, forms: OneFormSystem) -> float:
    """`weak_symmetry_residual_tensors` of grids already checked."""
    rhs = (np.einsum("m,ijkl->mijkl", forms.a, rb)
           + np.einsum("i,mjkl->mijkl", forms.b, rb)
           + np.einsum("j,imkl->mijkl", forms.b, rb)
           + np.einsum("k,ijml->mijkl", forms.d, rb)
           + np.einsum("l,ijkm->mijkl", forms.d, rb))
    return float(_relative(nr - rhs, max_abs(nr), 5))


def weak_symmetry_residual(field: MetricField, point, forms: OneFormSystem) -> float:
    """Curvature-level residual evaluated on a chart metric at a point."""
    from .chart import MetricField  # loaded already wherever a field was built
    rb, nr = _instance(field, MetricField, "field")._riemann_and_nabla(point)
    _forms_n(forms, field.n, "field")
    return _weak_symmetry_residual(nr, rb, forms)


@_finite
def ws_to_wrs_condition(bundle: CurvatureBundle, forms: OneFormSystem) -> float:
    """Raw max-norm of  b(R(X,Z)U) + d(R(X,U)Z)  over all basis triples:
    the extra term by which the curvature-level condition exceeds the
    Ricci-level one after contraction.  Zero means the two agree here."""
    rb = _check_forms(bundle, forms, "riemann").values
    b_vec = bundle.g.inv @ forms.b
    d_vec = bundle.g.inv @ forms.d
    term_b = np.einsum("ijkl,l->ijk", rb, b_vec)
    term_d = np.einsum("ijkl,l->ijk", rb, d_vec)
    return max_abs(term_b + term_d.transpose(0, 2, 1))


@_finite
def check_dr_identity(bundle: CurvatureBundle, forms: OneFormSystem) -> float:
    """Raw max-norm residual of  dr(X) = r a(X) + b(QX) + d(QX)  over basis X."""
    dr = _check_forms(bundle, forms, "dr")
    q = bundle.ricci_op
    rhs = bundle.r * forms.a + forms.b @ q + forms.d @ q
    return max_abs(dr - rhs)


@_finite
def a_from_bd(bundle: CurvatureBundle, b, d) -> np.ndarray:
    """Closed form for the first 1-form under nonzero scalar curvature:

        a(X) = -(1/r) [ b(QX) + d(QX) ]

    Raises ZeroScalarCurvature when |r| <= ZERO_R_TOL; in that regime the
    identity degenerates to b(QX) + d(QX) = 0 instead."""
    q = _bundle_part(bundle, "ricci_op")
    b, d = _as_array(b, "1-form", 1, bundle.n), _as_array(d, "1-form", 1, bundle.n)
    if abs(bundle.r) <= ZERO_R_TOL:
        raise ZeroScalarCurvature(
            f"scalar curvature {bundle.r:g} is numerically zero; "
            "the closed form for the first 1-form does not apply")
    return -(b @ q + d @ q) / bundle.r


@_finite
def t_identities(bundle: CurvatureBundle, forms: OneFormSystem) -> tuple[float, float]:
    """Raw max-norm residuals of the two T-identities for T = b - d:

        res_tq  = max_i | (T Q)_i - r T_i |
        res_ts  = max_{i,j,k} | T_j S_ik - T_k S_ij |
    """
    q = _check_forms(bundle, forms, "ricci_op")
    tq, ts = _t_identity_defects(forms.t, q, bundle.r, bundle.ricci)
    return max_abs(tq), max_abs(ts)


def _t_identity_defects(t: np.ndarray, q: np.ndarray, r, s: np.ndarray):
    """The defects (T Q)_i - r T_i and T_j S_ik - T_k S_ij of `t_identities`
    for 1-forms, Ricci operators, scalars and Ricci forms stacked on the same
    leading axes, unchecked."""
    tq = (t[..., None, :] @ q)[..., 0, :] - _lift(r, 1) * t
    ts = np.einsum("...j,...ik->...ijk", t, s) - np.einsum("...k,...ij->...ijk", t, s)
    return tq, ts


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
    nabla_ricci = _bundle_part(bundle, "nabla_ricci")
    s = bundle.ricci
    n = bundle.n
    if max_abs(s) <= 1e-13:
        raise DegenerateRicci("Ricci tensor is numerically zero")
    # column p of the design: the right-hand side at the p-th unit vector of (a, b, d)
    units = np.eye(3 * n).reshape(3 * n, 3, n).transpose(1, 0, 2)
    design = _wrs_terms(s, *units).reshape(3 * n, n**3).T
    solution, kernel_dim, _ = _lstsq_kernel(design, nabla_ricci.reshape(n**3))
    a, b, d = solution[:n], solution[n:2 * n], solution[2 * n:]
    residual = _wrs_defect(nabla_ricci, s, a, b, d)
    return OneFormSystem(a=a, b=b, d=d), residual, int(kernel_dim)
