"""Independent oracles for the test suite.

Everything here is deliberately written as explicit index loops, finite
differences or sympy/mpmath arithmetic, sharing no code path with the
package's vectorized/symbolic implementations.
"""

from __future__ import annotations

import itertools

import mpmath
import numpy as np
import sympy


# --------------------------------------------------------------------------
# Brute-force loop contractions and builders

def loop_ricci_contract(r4: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    n = r4.shape[0]
    out = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            acc = 0.0
            for i in range(n):
                for l in range(n):
                    acc += ginv[i, l] * r4[i, j, k, l]
            out[j, k] = acc
    return out


def loop_scalar(s: np.ndarray, ginv: np.ndarray) -> float:
    n = s.shape[0]
    acc = 0.0
    for j in range(n):
        for k in range(n):
            acc += ginv[j, k] * s[j, k]
    return acc


def loop_wedge(g: np.ndarray) -> np.ndarray:
    n = g.shape[0]
    out = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i, j, k, l] = g[j, k] * g[i, l] - g[i, k] * g[j, l]
    return out


def loop_quasi_constant_shape(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    n = g.shape[0]
    out = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i, j, k, l] = (g[i, l] * a[j] * a[k]
                                       - g[i, k] * a[j] * a[l]
                                       + g[j, k] * a[i] * a[l]
                                       - g[j, l] * a[i] * a[k])
    return out


def loop_hyper_shape(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    n = g.shape[0]
    out = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i, j, k, l] = (g[i, l] * p[j, k] - g[i, k] * p[j, l]
                                       + g[j, k] * p[i, l] - g[j, l] * p[i, k])
    return out


def loop_pseudo_shape(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    n = g.shape[0]
    out = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i, j, k, l] = p[j, k] * g[i, l] - p[i, k] * g[j, l]
    return out


def loop_quasi_conformal(r4, s, g, r, n, a, b):
    out = np.zeros((n, n, n, n))
    coeff = (r / n) * (a / (n - 1) + 2.0 * b)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i, j, k, l] = (
                        a * r4[i, j, k, l]
                        + b * (s[j, k] * g[i, l] - s[i, k] * g[j, l]
                               + g[j, k] * s[i, l] - g[i, k] * s[j, l])
                        - coeff * (g[j, k] * g[i, l] - g[i, k] * g[j, l]))
    return out


def loop_pseudo_projective(r4, s, g, r, n, a, b):
    out = np.zeros((n, n, n, n))
    coeff = (r / n) * (a / (n - 1) + b)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i, j, k, l] = (
                        a * r4[i, j, k, l]
                        + b * (s[j, k] * g[i, l] - s[i, k] * g[j, l])
                        - coeff * (g[j, k] * g[i, l] - g[i, k] * g[j, l]))
    return out


def loop_w2(r4, s, g, n):
    out = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i, j, k, l] = r4[i, j, k, l] + (
                        g[i, k] * s[j, l] - g[j, k] * s[i, l]) / (n - 1)
    return out


# --------------------------------------------------------------------------
# Random tensors with curvature symmetries

def loop_curvature_symmetry_defect(v: np.ndarray) -> float:
    """The largest violation, entry by entry, of R_ijkl = -R_jikl = -R_ijlk
    = R_klij and R_ijkl + R_jkil + R_kijl = 0."""
    n = v.shape[0]
    worst = 0.0
    for i, j, k, l in itertools.product(range(n), repeat=4):
        x = v[i, j, k, l]
        worst = max(worst, abs(x + v[j, i, k, l]), abs(x + v[i, j, l, k]),
                    abs(x - v[k, l, i, j]), abs(x + v[j, k, i, l] + v[k, i, j, l]))
    return worst


def random_riemann_like(rng: np.random.Generator, n: int) -> np.ndarray:
    """Generic algebraic curvature tensor: antisymmetrize a random grid in
    both index pairs, symmetrize the pair exchange, then project out the
    totally antisymmetric part so the first Bianchi identity holds."""
    a = rng.standard_normal((n, n, n, n))
    a = a - a.transpose(1, 0, 2, 3)
    a = a - a.transpose(0, 1, 3, 2)
    a = a + a.transpose(2, 3, 0, 1)
    cyc = a + a.transpose(1, 2, 0, 3) + a.transpose(2, 0, 1, 3)
    return a - cyc / 3.0


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return m.T @ m + n * np.eye(n)


def random_chart(seed: int, n: int):
    """A seeded polynomial/trigonometric chart: coords, upper-triangle entry
    text and a point.  Diagonal entries are 2 plus two small terms and the
    off-diagonal ones are small, so the metric is positive definite on the
    sampled box |x| <= 0.6."""
    rng = np.random.default_rng([seed, n])
    coords = [f"x{i}" for i in range(1, n + 1)]
    shapes = ["{a}^2", "{a}*{b}", "sin({a})", "cos({a})*{b}", "exp(0.3*{a})",
              "{a}^3", "sin({a})*cos({b})"]

    def term():
        a, b = rng.choice(coords, size=2)
        return shapes[rng.integers(len(shapes))].format(a=a, b=b)

    def coeff(lo, hi):
        return f"{rng.uniform(lo, hi) * rng.choice([-1, 1]):.3f}"

    entries = {}
    for i in range(n):
        entries[i, i] = f"2 + {coeff(0.05, 0.2)}*{term()} + {coeff(0.05, 0.2)}*{term()}"
        for j in range(i + 1, n):
            entries[i, j] = f"{coeff(0.01, 0.08)}*{term()}"
    point = tuple(float(v) for v in np.round(rng.uniform(-0.6, 0.6, n), 3))
    return coords, entries, point


# --------------------------------------------------------------------------
# Finite-difference oracles over a MetricField

def fd_partial(sample, point, axis: int, h: float):
    """Central difference of an array-valued function of the point."""
    p_plus = list(point)
    p_minus = list(point)
    p_plus[axis] += h
    p_minus[axis] -= h
    return (np.asarray(sample(p_plus)) - np.asarray(sample(p_minus))) / (2.0 * h)


def fd_christoffel(field, point, h: float = 1e-6) -> np.ndarray:
    """Christoffel symbols from sampled metric values only."""
    n = field.n
    g = field.metric_at(point).mat
    ginv = np.linalg.inv(g)
    dg = np.array([fd_partial(lambda p: field.metric_at(p).mat, point, m, h)
                   for m in range(n)])
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for l in range(n):
                    acc += ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                gamma[k, i, j] = 0.5 * acc
    return gamma


def fd_riemann(field, point, h: float = 1e-5) -> np.ndarray:
    """R(0,4) from finite differences of sampled Christoffel symbols."""
    n = field.n
    g = field.metric_at(point).mat
    gamma = field.christoffel(point)
    dgamma = np.array([fd_partial(field.christoffel, point, m, h)
                       for m in range(n)])
    out = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    up = dgamma[i][m, j, k] - dgamma[j][m, i, k]
                    for p in range(n):
                        up += (gamma[m, i, p] * gamma[p, j, k]
                               - gamma[m, j, p] * gamma[p, i, k])
                    for l in range(n):
                        out[i, j, k, l] += g[l, m] * up
    return out


def fd_nabla_ricci(field, point, h: float = 1e-5) -> np.ndarray:
    """(nabla S) from central differences of the pointwise Ricci tensor plus
    the Christoffel correction at the center point."""
    n = field.n
    gamma = field.christoffel(point)
    s = field.curvature_bundle(point).ricci

    def ricci_at(p):
        return field.curvature_bundle(p).ricci

    ds = np.array([fd_partial(ricci_at, point, m, h) for m in range(n)])
    out = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = ds[i][j, k]
                for l in range(n):
                    acc -= gamma[l, i, j] * s[l, k] + gamma[l, i, k] * s[j, l]
                out[i, j, k] = acc
    return out


def fd_nabla_riemann(field, point, h: float = 1e-5) -> np.ndarray:
    """(nabla R) from central differences of the pointwise (0,4) curvature
    plus the four Christoffel corrections at the center point."""
    n = field.n
    gamma = field.christoffel(point)
    rb = field.curvature_bundle(point).riemann.values

    def riemann_at(p):
        return field.curvature_bundle(p).riemann.values

    dr = np.array([fd_partial(riemann_at, point, m, h) for m in range(n)])
    out = np.zeros((n, n, n, n, n))
    for m in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        acc = dr[m][i, j, k, l]
                        for p in range(n):
                            acc -= (gamma[p, m, i] * rb[p, j, k, l]
                                    + gamma[p, m, j] * rb[i, p, k, l]
                                    + gamma[p, m, k] * rb[i, j, p, l]
                                    + gamma[p, m, l] * rb[i, j, k, p])
                        out[m, i, j, k, l] = acc
    return out


# --------------------------------------------------------------------------
# Exact oracle: sympy derivatives of the metric entries, mpmath contractions

def exact_curvature(coords, entries, point, dps: int = 40) -> dict:
    """The curvature package of a chart at a point, to `dps` digits.

    Each metric entry (upper triangle, keyed by coordinate names or indices,
    values as curvkit expression text or numbers) is parsed by sympy and
    differentiated exactly up to third order; the derivatives are evaluated
    at the point to `dps` digits.  Everything after that -- the inverse
    metric and its first two derivatives, Christoffel symbols and their first
    two derivatives, R, S, r, nabla S, dr and nabla R -- is textbook index
    loops in mpmath at the same precision.  Returns float arrays keyed
    gamma / riemann / ricci / r / nabla_ricci / dr / nabla_riemann, in the
    package's conventions: R[i,j,k,l] = g(R(e_i,e_j)e_k, e_l),
    nabla_ricci[i,j,k] = (nabla_i S)_jk.
    """
    n = len(coords)
    syms = {name: sympy.Symbol(name) for name in coords}
    at = {syms[name]: sympy.Float(float(v), dps) for name, v in zip(coords, point)}
    index = {name: i for i, name in enumerate(coords)}
    exprs = {}
    for (i, j), text in entries.items():
        i, j = index.get(i, i), index.get(j, j)
        exprs[min(i, j), max(i, j)] = sympy.sympify(str(text).replace("^", "**"),
                                                    locals=syms)
    # d[(a1..ak)][i][j] = d^k g_ij / dx_a1..dx_ak for sorted a's, k <= 3
    d = {}
    with mpmath.workdps(dps):
        for i in range(n):
            for j in range(i, n):
                e = exprs.get((i, j), sympy.Integer(0))
                partial = {(): e}
                for key in itertools.chain.from_iterable(  # prefixes come first
                        itertools.combinations_with_replacement(range(n), k)
                        for k in range(4)):
                    if key:
                        partial[key] = sympy.diff(partial[key[:-1]],
                                                  syms[coords[key[-1]]])
                    val = mpmath.mpf(partial[key].evalf(dps, subs=at))
                    d.setdefault(key, [[None] * n for _ in range(n)])
                    d[key][i][j] = d[key][j][i] = val
        out = _exact_contractions(n, d)
    return {k: np.array(v, dtype=float) for k, v in out.items()}


def _exact_contractions(n, d):
    rn = range(n)

    def D(*idx):  # metric partials with the derivative indices unsorted
        *a, i, j = idx
        return d[tuple(sorted(a))][i][j]

    g = mpmath.matrix([[D(i, j) for j in rn] for i in rn])
    h = mpmath.inverse(g)
    h1 = [[[-mpmath.fsum(h[k, p] * D(a, p, q) * h[q, l] for p in rn for q in rn)
            for l in rn] for k in rn] for a in rn]
    h2 = [[[[-mpmath.fsum(h1[b][k][p] * D(a, p, q) * h[q, l]
                          + h[k, p] * D(a, b, p, q) * h[q, l]
                          + h[k, p] * D(a, p, q) * h1[b][q][l]
                          for p in rn for q in rn)
             for l in rn] for k in rn] for b in rn] for a in rn]

    def first_kind(*a):  # c_{l,ij} differentiated along a
        return [[[(D(*a, i, j, l) + D(*a, j, i, l) - D(*a, l, i, j)) / 2
                  for j in rn] for i in rn] for l in rn]

    c = first_kind()
    c1 = [first_kind(a) for a in rn]
    c2 = [[first_kind(a, b) for b in rn] for a in rn]
    gam = [[[mpmath.fsum(h[k, l] * c[l][i][j] for l in rn) for j in rn]
            for i in rn] for k in rn]
    gam1 = [[[[mpmath.fsum(h1[a][k][l] * c[l][i][j] + h[k, l] * c1[a][l][i][j]
                           for l in rn) for j in rn] for i in rn] for k in rn]
            for a in rn]
    gam2 = [[[[[mpmath.fsum(h2[a][b][k][l] * c[l][i][j]
                            + h1[a][k][l] * c1[b][l][i][j]
                            + h1[b][k][l] * c1[a][l][i][j]
                            + h[k, l] * c2[a][b][l][i][j] for l in rn)
                for j in rn] for i in rn] for k in rn] for b in rn] for a in rn]

    # up[l][i][j][k]: component of R(e_i, e_j) e_k along e_l, and its partials
    up = [[[[gam1[i][l][j][k] - gam1[j][l][i][k]
             + mpmath.fsum(gam[l][i][m] * gam[m][j][k] - gam[l][j][m] * gam[m][i][k]
                           for m in rn)
             for k in rn] for j in rn] for i in rn] for l in rn]
    dup = [[[[[gam2[a][i][l][j][k] - gam2[a][j][l][i][k]
               + mpmath.fsum(gam1[a][l][i][m] * gam[m][j][k]
                             + gam[l][i][m] * gam1[a][m][j][k]
                             - gam1[a][l][j][m] * gam[m][i][k]
                             - gam[l][j][m] * gam1[a][m][i][k] for m in rn)
               for k in rn] for j in rn] for i in rn] for l in rn] for a in rn]
    riem = [[[[mpmath.fsum(D(l, m) * up[m][i][j][k] for m in rn) for l in rn]
              for k in rn] for j in rn] for i in rn]
    driem = [[[[[mpmath.fsum(D(a, l, m) * up[m][i][j][k] + D(l, m) * dup[a][m][i][j][k]
                             for m in rn) for l in rn] for k in rn] for j in rn]
               for i in rn] for a in rn]
    ric = [[mpmath.fsum(up[i][i][j][k] for i in rn) for k in rn] for j in rn]
    dric = [[[mpmath.fsum(dup[a][i][i][j][k] for i in rn) for k in rn] for j in rn]
            for a in rn]
    r = mpmath.fsum(h[j, k] * ric[j][k] for j in rn for k in rn)
    dr = [mpmath.fsum(h1[a][j][k] * ric[j][k] + h[j, k] * dric[a][j][k]
                      for j in rn for k in rn) for a in rn]
    nabla_ricci = [[[dric[i][j][k]
                     - mpmath.fsum(gam[l][i][j] * ric[l][k] + gam[l][i][k] * ric[j][l]
                                   for l in rn)
                     for k in rn] for j in rn] for i in rn]
    nabla_riemann = [[[[[driem[m][i][j][k][l]
                         - mpmath.fsum(gam[p][m][i] * riem[p][j][k][l]
                                       + gam[p][m][j] * riem[i][p][k][l]
                                       + gam[p][m][k] * riem[i][j][p][l]
                                       + gam[p][m][l] * riem[i][j][k][p]
                                       for p in rn)
                         for l in rn] for k in rn] for j in rn] for i in rn]
                     for m in rn]
    return {"gamma": gam, "riemann": riem, "ricci": ric, "r": r,
            "nabla_ricci": nabla_ricci, "dr": dr, "nabla_riemann": nabla_riemann}


# --------------------------------------------------------------------------
# The contraction fixed point as one dense system

def dense_fixed_point(apply_map, n: int, trace_vec, r: float) -> np.ndarray:
    """Solve S = F(S) with the trace pin trace_vec . vec(S) = r as one dense
    (n^2 + 1) x n^2 linear system, assembled column by column from
    black-box applications of F to the zero form and each basis bilinear."""
    affine = apply_map(np.zeros((n, n))).ravel()
    columns = np.empty((n * n, n * n))
    for col in range(n * n):
        basis = np.zeros(n * n)
        basis[col] = 1.0
        columns[:, col] = apply_map(basis.reshape(n, n)).ravel() - affine
    lhs = np.vstack([np.eye(n * n) - columns, trace_vec])
    rhs = np.concatenate([affine, [r]])
    solution, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    gap = np.abs(lhs @ solution - rhs).max()
    assert gap <= 1e-9 * (1.0 + abs(r)), "oracle system inconsistent"
    return solution.reshape(n, n)


# --------------------------------------------------------------------------
# The harness's redraw loop, one attempt at a time

def sequential_trials(rng, draw, degenerate, trials: int, cap: int):
    """The draws of `trials` trials as a loop that redraws each trial on
    its own: `draw(rng)` draws one attempt, and a trial takes the first
    attempt that is not `degenerate`.  `cap` consecutive degenerate attempts
    end the loop.  Returns the accepted attempts and the trial at which the
    cap ran out (None when every trial was filled)."""
    accepted = []
    for k in range(trials):
        for _ in range(cap):
            attempt = draw(rng)
            if not degenerate(attempt):
                accepted.append(attempt)
                break
        else:
            return accepted, k
    return accepted, None
