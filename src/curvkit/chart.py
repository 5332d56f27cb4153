"""Chart-level geometry: from a symbolic metric to pointwise curvature data.

A :class:`MetricField` holds the metric components as symbolic expressions of
the chart coordinates.  The only symbolic work is exact differentiation of
those entries: their partials up to third order (the metric's 3-jet) are
built once, on first use, and compiled into one slot-indexed program per
order.  A point query runs those programs in flat loops, up to the order it
needs, and computes everything else with numpy -- the inverse metric, the
Christoffel symbols, the (0,4) curvature R and its covariant derivative
nabla R, the one derivative of curvature a point evaluates.  Ricci is the
contraction of R, and nabla S and the scalar differential dr are the same
traces of nabla R.  No nested finite differences are involved.

The compiled program is immutable once built; any first query builds it.
The curvature queries read the chart's data at a point (g, gamma, R,
nabla R) from one memo, the last point evaluated, which a successful
evaluation replaces in one attribute assignment.  So the bundle, then
`nabla_riemann` or a weak-symmetry residual at the same point, evaluate
the chart once, and point queries are safe to run concurrently.
"""

from __future__ import annotations

import itertools
import operator
import struct
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from .errors import CurvError, DimensionMismatch, NumericalInconsistency, UnknownIdentifier
from .tensor import (CurvatureBundle, Metric, Tensor04, _as_array, _instance, _point_values,
                     _ricci_contract_values, _scalar_curvature_values)

__all__ = ["MetricField", "CurvatureBundle", "christoffel", "curvature_bundle",
           "nabla_riemann"]


def _normalize_entries(coords: Sequence[str], entries: Mapping) -> list[ex.Node]:
    """The upper-triangle AST nodes g_ij (i <= j), row by row; missing entries are zero."""
    n = len(coords)
    index = {name: i for i, name in enumerate(coords)}
    upper: dict[tuple[int, int], tuple] = {}  # (the key, the node) of each pair
    for key, value in entries.items():
        try:
            if isinstance(key, str):  # 'xy' unpacks, but names no pair
                raise TypeError
            i, j = (index[k] if isinstance(k, str) else operator.index(k) for k in key)
        except (KeyError, TypeError, ValueError):
            raise DimensionMismatch(f"metric entry key {key!r} is not a pair of indices "
                                    "or coordinate names") from None
        if not (0 <= i < n and 0 <= j < n):
            raise DimensionMismatch(f"metric entry index {key!r} out of range")
        pair = min(i, j), max(i, j)
        if pair in upper:
            raise DimensionMismatch(f"keys {upper[pair][0]!r} and {key!r} name one metric entry")
        if isinstance(value, ex.Expression):
            # its variables are bound by name: each must be a chart coordinate
            stray = [c for c in value.coords if c not in index]
            if stray:
                raise UnknownIdentifier(stray[0])
            node = value.root
        elif isinstance(value, (int, float)):
            node = ex.num(_as_array(value, f"metric entry {key!r}", 0, finite=False))
        else:
            node = ex.parse(str(value), coords).root
        upper[pair] = key, node
    zero = ex.num(0.0)
    return [upper.get((i, j), (None, zero))[1] for i in range(n) for j in range(i, n)]


class MetricField:
    """Symbolic metric over named chart coordinates.

    `entries` maps index pairs, one key per unordered pair -- ``(i, j)`` with
    integers or coordinate names -- to expression strings, numbers, or parsed
    :class:`~curvkit.expr.Expression` objects.  Missing entries are zero.
    """

    def __init__(self, coords: Sequence[str], entries: Mapping):
        self.coords = ex._check_coords(coords)
        if len(self.coords) < 2:
            raise DimensionMismatch("a chart needs at least 2 coordinates")
        self.n = len(self.coords)
        self._g = _normalize_entries(self.coords, entries)
        self._last = (None, None)  # (key, data) of the last curvature evaluation

    # -- the symbolic metric jet (built lazily, then immutable) -------------

    @cached_property
    def _gamma(self):
        """The metric jet from which the Christoffel symbols and all curvature
        are evaluated: g_ij and its exact partials d^k g_ij / dx_a1 ... dx_ak,
        k = 1, 2, 3, compiled for evaluation.  (The name is kept for the
        benchmark's tracer, which times this build as the cold symbolic
        Christoffel build.)

        Returns ``(constants, program)``.  A point's value list starts as its
        coordinates followed by `constants` (see `expr.compile_tapes`).
        Entry k of `program` is ``(code, ops, gather)``: `code` appends the
        values of the nodes that entries 0..k-1 do not reach, in topological
        order, so running entries 0..k in turn evaluates each node once;
        `gather` indexes the value list with the full (n,)*k + (n, n) grid of
        d^k g, one slot per sorted derivative index tuple and upper-triangle
        pair (i <= j), which makes the symmetry in the derivative slots and
        in (i, j) exact.  One differentiation memo per coordinate keeps
        shared subtrees shared across entries and orders.  The result is
        never mutated."""
        n = self.n
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        pair_of = np.array([[pairs.index((min(i, j), max(i, j))) for j in range(n)]
                            for i in range(n)])
        memos: list[dict] = [{} for _ in range(n)]
        level = {(): self._g}
        known: set[int] = set()
        tapes, grids = [], []
        for k in range(4):
            if k:
                level = {key + (a,): ex.diff_nodes(nodes, self.coords[a], memos[a])
                         for key, nodes in level.items()
                         for a in range(key[-1] if key else 0, n)}
            key_index = {key: q for q, key in enumerate(level)}
            key_of = np.array([key_index[tuple(sorted(idx))]
                               for idx in itertools.product(range(n), repeat=k)])
            take = key_of.reshape((n,) * k)[..., None, None] * len(pairs) + pair_of
            roots = [node for nodes in level.values() for node in nodes]
            tapes.append(ex.topological(roots, known))
            known.update(map(id, tapes[-1]))
            grids.append((roots, take))
        constants, programs, slot = ex.compile_tapes(self.coords, tapes)
        return constants, [(code, ops, np.array([slot[id(root)] for root in roots])[take])
                           for (code, ops), (roots, take) in zip(programs, grids)]

    # -- evaluation ----------------------------------------------------------

    def _coordinates(self, point: Sequence[float]) -> list[float]:
        """The point as n floats; DomainError for coordinates that are not finite numbers."""
        try:
            size = len(point)
        except TypeError:
            raise DimensionMismatch(f"a point is a sequence of {self.n} numbers, "
                                    f"got {type(point).__name__}") from None
        if size != self.n:
            raise DimensionMismatch(f"point has {size} components, expected {self.n}")
        return _point_values(point, self.n)

    def _jet_at(self, x: Sequence[float], order: int):
        """The metric and its partials d^k g (k = 1..order) at coordinates x.
        No higher order is evaluated than the query needs, nor before the
        metric is validated, so a DomainError surfaces only from the queries
        whose results depend on it, and never at a singular metric."""
        constants, program = self._gamma
        values = list(x) + constants
        (code, ops, gather), higher = program[0], program[1:order + 1]
        ex.run_program(code, ops, values)
        g = Metric(np.array(values)[gather])
        for code, ops, _ in higher:
            ex.run_program(code, ops, values)
        values = np.array(values)
        return g, [values[gather] for _, _, gather in higher]

    def _curvature_at(self, x: Sequence[float]):
        """``(g, gamma, R, nabla_R)`` at coordinates x: the metric, the
        Christoffel symbols, the (0,4) curvature and its covariant
        derivative (see `_curvature`), all read-only.

        The field keeps these for the last point evaluated, keyed by the bit
        patterns of its coordinates (so 0.0 and -0.0 are different points),
        and a query at that point reads them back: the bundle, then
        `nabla_riemann` or a weak-symmetry residual at one point, evaluate
        the chart once.  It keeps one point only.  A successful evaluation
        replaces the entry in one assignment; one that raises leaves it
        (NumericalInconsistency names the first part that is not finite)."""
        key = struct.pack(f"{self.n}d", *x)
        last, data = self._last
        if last == key:
            return data
        g, jet = self._jet_at(x, 3)
        with np.errstate(over="ignore", invalid="ignore"):  # a finite jet may overflow
            data = (g, *_curvature(g, jet))
        for name, array in zip(("christoffel", "riemann", "nabla_riemann"), data[1:]):
            if not np.isfinite(array).all():
                raise NumericalInconsistency(f"{name} is not finite at this point")
            array.flags.writeable = False
        self._last = (key, data)
        return data

    def metric_at(self, point: Sequence[float]) -> Metric:
        """Evaluate the metric; raises SingularMetric where the chart
        degenerates.  The first call on a field builds its whole jet."""
        return self._jet_at(self._coordinates(point), 0)[0]

    def christoffel(self, point: Sequence[float]) -> np.ndarray:
        """Christoffel symbols gamma[k,i,j] at the point (exactly symmetric in i,j)."""
        g, (dg,) = self._jet_at(self._coordinates(point), 1)
        return _christoffel(g, _first_kind(dg))

    def scalar_curvature_expression(self):
        """Deprecated: always raises CurvError.

        Curvature is no longer built symbolically, so there is no scalar
        curvature expression; use ``curvature_bundle(point).r`` and its
        differential ``.dr``.  The method remains only because the benchmark's
        tracer looks it up by name."""
        raise CurvError("scalar_curvature_expression() is deprecated: curvature "
                        "is evaluated numerically from the metric's 3-jet; use "
                        "curvature_bundle(point).r and .dr instead")

    def curvature_bundle(self, point: Sequence[float]) -> CurvatureBundle:
        """Evaluate the full curvature package at a point.  Ricci, nabla S
        and dr are contractions of the held R and nabla R:
        S = sym(ginv[i,l] R[i,j,k,l]), nabla_m S = sym(ginv[i,l]
        nabla_m R[i,j,k,l]) and dr_m = ginv[j,k] nabla_m S[j,k]."""
        x = self._coordinates(point)
        g, _, rv, nabla_rv = self._curvature_at(x)
        ricci = _sym(_ricci_contract_values(g.inv, rv))
        nabla_ricci = _sym(_ricci_contract_values(g.inv, nabla_rv))
        return CurvatureBundle.from_tensors(
            g, Tensor04(rv, riemann_like=True), ricci, nabla_ricci=nabla_ricci,
            dr=_scalar_curvature_values(g.inv, nabla_ricci), point=x)

    def nabla_riemann(self, point: Sequence[float]) -> np.ndarray:
        """Covariant derivative of the (0,4) curvature: out[m,i,j,k,l] =
        (nabla_m R)(e_i,e_j,e_k,e_l), the field's held read-only grid."""
        return self._riemann_and_nabla(point)[1]

    def _riemann_and_nabla(self, point: Sequence[float]):
        """The held (0,4) curvature grid and its covariant derivative."""
        return self._curvature_at(self._coordinates(point))[2:]


# --------------------------------------------------------------------------
# Numeric curvature from the jet

def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize the last two axes; exact symmetry, and a no-op where the
    input is already exactly symmetric."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _first_kind(d: np.ndarray) -> np.ndarray:
    """Christoffel symbols of the first kind, c[..., l, i, j] =
    (d_i g_jl + d_j g_il - d_l g_ij) / 2, from d[..., m, i, j] = d_m g_ij.
    The first two terms trade places under i <-> j, so c is exactly
    symmetric in (i, j)."""
    return 0.5 * (np.moveaxis(d, -1, -3) + np.swapaxes(d, -1, -3) - d)


def _christoffel(g: Metric, c: np.ndarray) -> np.ndarray:
    """gamma[k,i,j] = ginv[k,l] c[l,i,j] from the metric and its first-kind
    symbols c (`_first_kind`)."""
    return _sym(np.einsum("kl,lij->kij", g.inv, c))


# Per slot s of a (0,4) grid: the axes that move s to the front, and the
# axes that move the second axis of [m, s, other slots] back to slot s.
_SLOT_AXES = [((s, *(t for t in range(4) if t != s)),
               (0, *range(2, s + 2), 1, *range(s + 2, 5))) for s in range(4)]


def _curvature(g: Metric, jet: list[np.ndarray]):
    """Christoffel symbols, R(0,4) and its covariant derivative nabla R, from
    the metric and its 3-jet.

    With c the first-kind symbols, R[i,j,k,l] = T[i,j,k,l] - T[j,i,k,l] where
    T[i,j,k,l] = (d_k d_i g_lj + d_l d_j g_ki) / 2 + c[p,k,i] gamma[p,l,j];
    the swapped T holds the two negative terms of the classical formula, so
    the (i, j) antisymmetry is exact.  d(ginv) = -ginv (dg) ginv is the only
    derivative of the inverse that the partials d_m R need.  nabla_m R is
    d_m R less, for each slot of R in turn, gamma[p,m,a] contracted with R's
    index p in that slot: one (n^2, n) @ (n, n^3) matrix product per slot,
    with the slot moved to the front of R and moved back after."""
    dg, ddg, dddg = jet
    ginv, n = g.inv, g.n
    dginv = -np.einsum("kp,apq,ql->akl", ginv, dg, ginv)
    c, dc = _first_kind(dg), _first_kind(ddg)
    gamma = _christoffel(g, c)
    dgamma = (np.einsum("akl,lij->akij", dginv, c)
              + np.einsum("kl,alij->akij", ginv, dc))
    t = (0.5 * (np.einsum("kilj->ijkl", ddg) + np.einsum("ljki->ijkl", ddg))
         + np.einsum("pki,plj->ijkl", c, gamma))
    dt = (0.5 * (np.einsum("akilj->aijkl", dddg) + np.einsum("aljki->aijkl", dddg))
          + np.einsum("apki,plj->aijkl", dc, gamma)
          + np.einsum("pki,aplj->aijkl", c, dgamma))
    riemann, nabla = t - np.swapaxes(t, 0, 1), dt - np.swapaxes(dt, 1, 2)
    gamma_ma = gamma.reshape(n, n * n).T  # [(m, a), p]
    for first, back in _SLOT_AXES:
        nabla -= (gamma_ma @ riemann.transpose(first).reshape(n, -1)).reshape(
            (n,) * 5).transpose(back)
    return gamma, riemann, nabla


# Module-level conveniences mirroring the method API.

def christoffel(field: MetricField, point: Sequence[float]) -> np.ndarray:
    return _instance(field, MetricField, "field").christoffel(point)


def curvature_bundle(field: MetricField, point: Sequence[float]) -> CurvatureBundle:
    return _instance(field, MetricField, "field").curvature_bundle(point)


def nabla_riemann(field: MetricField, point: Sequence[float]) -> np.ndarray:
    return _instance(field, MetricField, "field").nabla_riemann(point)
