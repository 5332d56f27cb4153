"""Chart-level geometry: from a symbolic metric to pointwise curvature data.

A :class:`MetricField` holds the metric components as symbolic expressions of
the chart coordinates.  The only symbolic work is exact differentiation of
those entries: their partials up to third order (the metric's 3-jet) are
built once, on first use, and cached as one topologically ordered node list
per order.  A point query evaluates those lists in flat loops, up to the
order it needs, and computes everything else with numpy -- the inverse metric and its derivative,
the Christoffel symbols, the (0,4) curvature and its derivative, Ricci as the
contraction of the curvature, the scalar curvature and its differential, and
the covariant derivatives.  No nested finite differences are involved.

The cache fill is single-writer: build it from one thread (any first query
does), after which all point queries are pure reads and safe to run
concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import expr as ex
from .errors import CurvError, DimensionMismatch, NumericalInconsistency
from .tensor import (Metric, Tensor04, max_abs, ricci_contract, ricci_operator,
                     scalar_curvature)

__all__ = ["MetricField", "CurvatureBundle", "christoffel", "curvature_bundle",
           "nabla_riemann"]


@dataclass(frozen=True)
class CurvatureBundle:
    """All pointwise curvature data derived from a metric at one point.

    `riemann` uses the (0,4) convention R[i,j,k,l] = g(R(e_i,e_j)e_k, e_l);
    `nabla_ricci[i,j,k]` is the covariant derivative (nabla_i S)(e_j, e_k);
    `dr[i]` is the coordinate differential of the scalar curvature.

    Synthetic pointwise data (no chart behind it) is built with
    :meth:`from_tensors`, in which case `point`, `nabla_ricci`, `dr` and even
    `riemann` may be absent (None).
    """

    g: Metric
    riemann: Tensor04 | None
    ricci: np.ndarray
    ricci_op: np.ndarray
    r: float
    point: tuple[float, ...] | None = None
    nabla_ricci: np.ndarray | None = None
    dr: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.g.n

    @classmethod
    def from_tensors(cls, g: Metric, riemann: Tensor04 | None = None,
                     ricci=None, r: float | None = None,
                     nabla_ricci=None, dr=None,
                     point: Sequence[float] | None = None) -> "CurvatureBundle":
        """Assemble a bundle from raw pointwise tensors.

        `ricci` defaults to the contraction of `riemann`; `r` defaults to the
        metric trace of `ricci`.  The Ricci operator is always recomputed.
        """
        if ricci is None:
            if riemann is None:
                raise DimensionMismatch("need riemann or ricci to build a bundle")
            ricci = ricci_contract(riemann, g)
        ricci = np.asarray(ricci, dtype=float)
        if ricci.shape != (g.n, g.n):
            raise DimensionMismatch(
                f"ricci must have shape ({g.n},{g.n}), got {ricci.shape}")
        if riemann is not None and riemann.n != g.n:
            raise DimensionMismatch(f"riemann n={riemann.n} vs metric n={g.n}")
        if r is None:
            r = scalar_curvature(ricci, g)
        q = ricci_operator(ricci, g)
        if nabla_ricci is not None:
            nabla_ricci = np.asarray(nabla_ricci, dtype=float)
        if dr is not None:
            dr = np.asarray(dr, dtype=float)
        if point is not None:
            point = tuple(float(v) for v in point)
        return cls(g=g, riemann=riemann, ricci=ricci, ricci_op=q, r=float(r),
                   point=point, nabla_ricci=nabla_ricci, dr=dr)


# --------------------------------------------------------------------------

def _normalize_entries(coords: Sequence[str], entries: Mapping) -> list[ex.Node]:
    """The upper-triangle AST nodes g_ij (i <= j), row by row; missing entries are zero."""
    n = len(coords)
    index = {name: i for i, name in enumerate(coords)}
    upper: dict[tuple[int, int], ex.Node] = {}
    for key, value in entries.items():
        i, j = key
        if isinstance(i, str):
            if i not in index or j not in index:
                raise DimensionMismatch(f"metric entry {key!r} names unknown coordinates")
            i, j = index[i], index[j]
        if not (0 <= i < n and 0 <= j < n):
            raise DimensionMismatch(f"metric entry index {key!r} out of range")
        if isinstance(value, ex.Expression):
            node = value.root
        elif isinstance(value, (int, float)):
            node = ex.num(value)
        else:
            node = ex.parse(str(value), coords).root
        upper[min(i, j), max(i, j)] = node
    zero = ex.num(0.0)
    return [upper.get((i, j), zero) for i in range(n) for j in range(i, n)]


class MetricField:
    """Symbolic metric over named chart coordinates.

    `entries` maps upper-triangle index pairs -- ``(i, j)`` with integers or
    coordinate-name pairs -- to expression strings, numbers, or parsed
    :class:`~curvkit.expr.Expression` objects.  Missing entries are zero.
    """

    def __init__(self, coords: Sequence[str], entries: Mapping):
        self.coords = tuple(coords)
        if len(self.coords) < 2:
            raise DimensionMismatch("a chart needs at least 2 coordinates")
        self.n = len(self.coords)
        self._g = _normalize_entries(self.coords, entries)

    # -- the symbolic metric jet (built lazily, then immutable) -------------

    @cached_property
    def _gamma(self):
        """The metric jet from which the Christoffel symbols and all curvature
        are evaluated: g_ij and its exact partials d^k g_ij / dx_a1 ... dx_ak,
        k = 1, 2, 3.  (The name is kept for the benchmark's tracer, which
        times this build as the cold symbolic Christoffel build.)

        Entry k is ``(nodes, roots, take)``: `roots` holds one node per sorted
        derivative index tuple of length k and upper-triangle pair (i <= j);
        `nodes` lists in topological order the nodes that entries 0..k-1 do
        not reach, so evaluating entries 0..k in turn evaluates each node
        once; `take` scatters the root values into the full (n,)*k + (n, n)
        grid, which makes the symmetry in the derivative slots and in (i, j)
        exact.  One differentiation memo per coordinate keeps shared subtrees
        shared across entries and orders."""
        n = self.n
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        pair_of = np.array([[pairs.index((min(i, j), max(i, j))) for j in range(n)]
                            for i in range(n)])
        memos: list[dict] = [{} for _ in range(n)]
        level = {(): self._g}
        known: set[int] = set()
        jet = []
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
            nodes = ex.topological(roots, known)
            known.update(map(id, nodes))
            jet.append((nodes, roots, take))
        return jet

    # -- evaluation ----------------------------------------------------------

    def _jet_at(self, point: Sequence[float], order: int):
        """The metric and its partials d^k g (k = 1..order) at the point.  No
        higher order is evaluated than the query needs, so a DomainError
        surfaces only from the queries whose results depend on it."""
        if len(point) != self.n:
            raise DimensionMismatch(f"point has {len(point)} components, expected {self.n}")
        env = dict(zip(self.coords, (float(v) for v in point)))
        values: dict = {}

        def level(nodes, roots, take):
            ex.eval_order(nodes, env, values)
            return np.array([values[id(root)] for root in roots])[take]

        g = Metric(level(*self._gamma[0]))
        return g, [level(*entry) for entry in self._gamma[1:order + 1]]

    def metric_at(self, point: Sequence[float]) -> Metric:
        """Evaluate the metric; raises SingularMetric where the chart
        degenerates.  The first call on a field builds its whole jet."""
        return self._jet_at(point, 0)[0]

    def christoffel(self, point: Sequence[float]) -> np.ndarray:
        """Christoffel symbols gamma[k,i,j] at the point (exactly symmetric in i,j)."""
        return _christoffel(*self._jet_at(point, 1))

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
        """Evaluate the full curvature package at a point."""
        g, jet = self._jet_at(point, 3)
        gamma, dginv, riemann, d_riemann = _curvature(g, jet)
        riemann = Tensor04(riemann, riemann_like=True)
        ricci = _sym(ricci_contract(riemann, g))
        d_ricci = _sym(np.einsum("ail,ijkl->ajk", dginv, riemann.values)
                       + np.einsum("il,aijkl->ajk", g.inv, d_riemann))
        nabla_ricci = (d_ricci
                       - np.einsum("lij,lk->ijk", gamma, ricci)
                       - np.einsum("lik,jl->ijk", gamma, ricci))
        dr = (np.einsum("ajk,jk->a", dginv, ricci)
              + np.einsum("jk,ajk->a", g.inv, d_ricci))
        bundle = CurvatureBundle.from_tensors(g, riemann, ricci=ricci,
                                              nabla_ricci=nabla_ricci, dr=dr,
                                              point=point)
        _check_bundle(bundle)
        return bundle

    def nabla_riemann(self, point: Sequence[float]) -> np.ndarray:
        """Covariant derivative of the (0,4) curvature: out[m,i,j,k,l] =
        (nabla_m R)(e_i,e_j,e_k,e_l)."""
        return self._riemann_and_nabla(point)[1]

    def _riemann_and_nabla(self, point: Sequence[float]):
        """The (0,4) curvature grid and its covariant derivative, from one
        evaluation of the 3-jet."""
        gamma, _, rb, drb = _curvature(*self._jet_at(point, 3))
        return rb, (drb
                    - np.einsum("pmi,pjkl->mijkl", gamma, rb)
                    - np.einsum("pmj,ipkl->mijkl", gamma, rb)
                    - np.einsum("pmk,ijpl->mijkl", gamma, rb)
                    - np.einsum("pml,ijkp->mijkl", gamma, rb))


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


def _christoffel(g: Metric, jet: list[np.ndarray]) -> np.ndarray:
    """gamma[k,i,j] = ginv[k,l] c[l,i,j] from the metric and its first partials."""
    return _sym(np.einsum("kl,lij->kij", g.inv, _first_kind(jet[0])))


def _curvature(g: Metric, jet: list[np.ndarray]):
    """Christoffel symbols, the partials of the inverse metric, R(0,4) and
    its partials d_a R, from the metric and its 3-jet.

    With c the first-kind symbols, R[i,j,k,l] = T[i,j,k,l] - T[j,i,k,l] where
    T[i,j,k,l] = (d_k d_i g_lj + d_l d_j g_ki) / 2 + c[p,k,i] gamma[p,l,j];
    the swapped T holds the two negative terms of the classical formula, so
    the (i, j) antisymmetry is exact.  d(ginv) = -ginv (dg) ginv is the only
    derivative of the inverse that d_a R needs."""
    dg, ddg, dddg = jet
    ginv = g.inv
    dginv = -np.einsum("kp,apq,ql->akl", ginv, dg, ginv)
    c, dc = _first_kind(dg), _first_kind(ddg)
    gamma = _christoffel(g, jet)
    dgamma = (np.einsum("akl,lij->akij", dginv, c)
              + np.einsum("kl,alij->akij", ginv, dc))
    t = (0.5 * (np.einsum("kilj->ijkl", ddg) + np.einsum("ljki->ijkl", ddg))
         + np.einsum("pki,plj->ijkl", c, gamma))
    dt = (0.5 * (np.einsum("akilj->aijkl", dddg) + np.einsum("aljki->aijkl", dddg))
          + np.einsum("apki,plj->aijkl", dc, gamma)
          + np.einsum("pki,aplj->aijkl", c, dgamma))
    return gamma, dginv, t - np.swapaxes(t, 0, 1), dt - np.swapaxes(dt, 1, 2)


def _check_bundle(bundle: CurvatureBundle) -> None:
    """Internal consistency of a chart-produced bundle: nabla_ricci keeps the
    (j,k) symmetry of the Ricci tensor."""
    ns = bundle.nabla_ricci
    sym = max_abs(ns - np.swapaxes(ns, 1, 2))
    if sym > 1e-9 * (1.0 + max_abs(ns)):
        raise NumericalInconsistency(
            f"nabla_ricci lost its (j,k) symmetry: residual {sym:g}")


# Module-level conveniences mirroring the method API.

def christoffel(field: MetricField, point: Sequence[float]) -> np.ndarray:
    return field.christoffel(point)


def curvature_bundle(field: MetricField, point: Sequence[float]) -> CurvatureBundle:
    return field.curvature_bundle(point)


def nabla_riemann(field: MetricField, point: Sequence[float]) -> np.ndarray:
    return field.nabla_riemann(point)
