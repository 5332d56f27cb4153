"""Randomized pointwise verification of the flat-case derivation chains.

Each section of checks mirrors one chain of consequences of a vanishing
generalized curvature tensor on a weakly Ricci symmetric structure
(quasi-conformal / pseudo-projective / W2).  A check builds random tangent
space data satisfying the chain's hypotheses and asserts its conclusion as a
residual at machine precision.  The identities are pointwise multilinear, so
random tangent-space models are exactly the right arena; no global manifold
construction is attempted.

The three sections are one table, `_SECTIONS`: per section the flavor of
its chain (qc / pp / w2), its checks as (name, check, trials) and its guard
trials, run by `_verify_section`.  All randomness flows from
`numpy.random.default_rng([seed, section, index])`, where a check's rng
index is its position in its section's table: a fixed config yields an
identical report, and the order of the table fixes every check's draws.
Trials are independent; they are executed in trial-index order and
results merged in that order, so any parallel execution scheme would not
change the output.

Degenerate draws (near-zero difference form, near-equal pairings) are
rejected and redrawn, with a cap; genuinely degenerate *inputs* raise the
designated guard errors, and each guard has a dedicated trial asserting
exactly that.

The contraction checks solve for the Ricci tensor that a vanishing
generalized tensor forces (`selfconsistent_ricci`).  The linear operator of
that system is built in one call, contracting before expanding: the Ricci
contraction of the library's own flat reconstruction (`gencurv._flat_ricci`,
read from the same weights and block term tables as the `_flat_values` that
`reconstruct_*_flat` wrap) is applied to the stacked basis
[0, E_1, ..., E_{n^2}] of bilinears.  Each block term sums g^-1 into its g
factor first and then meets the stacked basis, so no n^4 grid is built.
The operator's columns are the images of the E_m minus the image of 0, the
contracted G term.  It is not a closed form, so the check of the
closed-form alpha stays independent of it; the brute-force twin trials
certify the reconstruction and its contraction with index loops.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chart import CurvatureBundle
from .classify import (einstein_check, hyper_quasi_constant_fit,
                       pseudo_quasi_constant_fit, quasi_constant_fit,
                       quasi_einstein_decompose)
from .errors import (CurvError, DegenerateParams, InvalidParams,
                     ZeroScalarCurvature)
from .gencurv import (GenCurvParams, _flat_ricci, pp_flat_alpha,
                      qc_flat_alpha, reconstruct_pp_flat, reconstruct_qc_flat,
                      reconstruct_w2_flat, w2, w2_flat_alpha,
                      weyl_from_tensors)
from .tensor import (Metric, Tensor04, _lstsq_kernel, hyper_shape, max_abs,
                     pseudo_shape, quasi_constant_shape, ricci_contract,
                     scalar_curvature)
from .wrs import OneFormSystem, a_from_bd, t_identities

__all__ = [
    "TrialConfig", "PointModel", "CheckResult", "HarnessReport",
    "random_point_model", "verify_section2", "verify_section3",
    "verify_section4", "verify_all",
    "product_ricci_form", "flat_ricci_form", "rank_one_coefficient",
]

REJECT_TOL = 1e-6
REDRAW_CAP = 100


@dataclass(frozen=True)
class TrialConfig:
    """Seeded configuration for one harness run.  n > 3 is required: every
    chain under test is stated for dimension greater than three."""

    seed: int
    trials: int = 100
    n: int = 4
    params: GenCurvParams = field(default_factory=GenCurvParams)
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.n <= 3:
            raise InvalidParams(f"the verified chains require n > 3, got n={self.n}")
        if self.trials < 1:
            raise InvalidParams("trials must be >= 1")
        if not 0.0 < self.tolerance < math.inf:
            raise InvalidParams("tolerance must be positive and finite")


@dataclass(frozen=True)
class PointModel:
    """Random pointwise data with a rank-one Ricci form S = coeff * t(x)t."""

    g: Metric
    ricci: np.ndarray
    coeff: float
    t: np.ndarray  # the difference form


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    max_residual: float
    passed: bool
    note: str = ""
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HarnessReport:
    section: int
    config: TrialConfig
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "section": self.section,
            "n": self.config.n,
            "seed": self.config.seed,
            "trials": self.config.trials,
            "params": {"a": self.config.params.a, "b": self.config.params.b},
            "tolerance": self.config.tolerance,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "trials": c.trials,
                 "max_residual": c.max_residual, "passed": c.passed,
                 "note": c.note, "extra": dict(sorted(c.extra.items()))}
                for c in self.checks
            ],
        }


# --------------------------------------------------------------------------
# Random models

def _draw_metric(rng: np.random.Generator, n: int) -> Metric:
    m = rng.standard_normal((n, n))
    return Metric(m.T @ m + n * np.eye(n))


def _draw_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def _draw_scalar(rng: np.random.Generator, lo: float = 0.2, hi: float = 2.0) -> float:
    return float(rng.uniform(lo, hi) * rng.choice([-1.0, 1.0]))


def _draw_covector(rng: np.random.Generator, n: int) -> np.ndarray:
    for _ in range(REDRAW_CAP):
        w = rng.standard_normal(n)
        if max_abs(w) > REJECT_TOL:
            return w
    raise DegenerateParams("could not draw a non-degenerate covector")


def random_point_model(seed, n: int) -> PointModel:
    """Seeded pointwise data.  `seed` may be an int, a seed sequence, or an
    existing Generator.  g = M^T M + n*I for random M (positive definite by
    construction, smallest eigenvalue >= n), and S = c * t(x)t with |c|
    bounded away from 0 and t bounded away from 0."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = _draw_metric(rng, n)
    c = _draw_scalar(rng)
    t = _draw_covector(rng, n)
    return PointModel(g=g, ricci=c * np.outer(t, t), coeff=c, t=t)


# --------------------------------------------------------------------------
# Shared constructions (each owns a degeneracy guard)

def product_ricci_form(g: Metric, a_form, d_form, b_form, b_bar
                       ) -> tuple[np.ndarray, float]:
    """S = (1/s) (a - d)(x)b_bar with the pairing scalar
    s = (a - d)(dual of b).  Raises DegenerateParams when s ~ 0 (the pairing
    the construction divides by)."""
    a_form = np.asarray(a_form, float)
    d_form = np.asarray(d_form, float)
    b_bar = np.asarray(b_bar, float)
    s = float((a_form - d_form) @ g.raise_index(b_form))
    scale = (1.0 + max_abs(a_form) + max_abs(d_form)) * (1.0 + max_abs(b_form))
    if abs(s) <= REJECT_TOL * scale:
        raise DegenerateParams(
            f"pairing (a-d)(b-dual) = {s:g} is numerically zero")
    return np.outer(a_form - d_form, b_bar) / s, s


def flat_ricci_form(g: Metric, b_form, b_bar, d_form, d_bar, r: float
                    ) -> np.ndarray:
    """The Ricci form obtained by substituting the closed form of the first
    1-form, a = -(b_bar + d_bar)/r, into the product form:

        S = -(1/(s*r)) (b_bar + d_bar)(x)b_bar - (1/s) d(x)b_bar

    with s the pairing scalar of that substituted a against d and b."""
    if abs(r) <= REJECT_TOL:
        raise DegenerateParams(f"scalar curvature r = {r:g} is numerically zero")
    b_bar = np.asarray(b_bar, float)
    d_bar = np.asarray(d_bar, float)
    a_form = -(b_bar + d_bar) / r
    s_matrix, _ = product_ricci_form(g, a_form, d_form, b_form, b_bar)
    return s_matrix


def rank_one_coefficient(g: Metric, ricci, t) -> float:
    """The coefficient r / T(rho) of a rank-one Ricci form S = c * t(x)t,
    where T(rho) is the squared metric norm of t.  Raises DegenerateParams
    when t is numerically zero (the degenerate T(rho) = 0 case the chains
    rule out)."""
    t = np.asarray(t, float)
    t_rho = g.norm_sq(t)
    if t_rho <= REJECT_TOL ** 2:
        raise DegenerateParams(
            f"difference form has squared norm {t_rho:g}; the rank-one "
            "coefficient divides by it")
    return scalar_curvature(np.asarray(ricci, float), g) / t_rho


# --------------------------------------------------------------------------
# The self-consistency solver (contraction fixed point)

def selfconsistent_ricci(g: Metric, r: float, params: GenCurvParams,
                         flavor: str) -> np.ndarray:
    """Solve S = ricci_contract(reconstruct_<flavor>_flat(S, g, r)) for S,
    with the scalar curvature pinned by the extra row tr_g(S) = r, as a dense
    linear system over all n^2 components.  Its operator is the Ricci
    contraction of the reconstruction of each basis bilinear E_m, taken term
    by term without building any reconstructed grid, and its affine part
    that of the G term, zero for W2 (see the module docstring).  The
    solution is the unique Ricci tensor consistent with the vanishing of the
    chosen generalized tensor at this (g, r).  (The trace row matters for the
    W2 flavor, whose fixed-point set without it is the whole Einstein line;
    for the other two it is consistent with the already-unique fixed
    point.)  The system is singular when it has a kernel under the one rank
    rule of `tensor._lstsq_kernel`, the cut every fit applies."""
    n = g.n
    if flavor == "qc":
        params.qc_denominator(n)
    elif flavor == "pp":
        params.pp_denominator(n)
    elif flavor != "w2":
        raise InvalidParams(f"unknown flavor {flavor!r}")
    # the zero bilinear, then the identity basis E_1 ... E_{n^2}
    basis = np.eye(n * n + 1, n * n, k=-1).reshape(n * n + 1, n, n)
    images = _flat_ricci(flavor, basis, g, r, params).reshape(n * n + 1, n * n)
    affine = images[0]
    op = (images[1:] - affine).T
    lhs = np.vstack([np.eye(n * n) - op, g.inv.ravel()])
    rhs = np.concatenate([affine, [r]])
    solution, kernel_dim, _ = _lstsq_kernel(lhs, rhs)
    if kernel_dim > 0:
        raise DegenerateParams(
            "the contraction fixed-point system is singular for these weights")
    gap = max_abs(lhs @ solution - rhs)
    if gap > 1e-8 * (1.0 + abs(r)):
        raise DegenerateParams(
            f"the contraction fixed-point system is inconsistent (gap {gap:g})")
    return solution.reshape(n, n)


# --------------------------------------------------------------------------
# Check runners

def _retry_degenerate(fn: Callable, rng: np.random.Generator):
    """Run a draw-and-build closure, redrawing on rejected degenerate draws."""
    for _ in range(REDRAW_CAP):
        try:
            return fn()
        except DegenerateParams:
            continue
    raise DegenerateParams("redraw cap exhausted")


def _run_check(name: str, fn: Callable, config: TrialConfig, section: int,
               index: int, trials: int | None = None) -> CheckResult:
    rng = np.random.default_rng([config.seed, section, index])
    trials = config.trials if trials is None else trials
    worst = 0.0
    extra: dict = {}
    try:
        for _ in range(trials):
            out = fn(rng, config)
            if isinstance(out, tuple):
                residual, info = out
                for k, v in info.items():
                    extra[k] = max(extra.get(k, 0.0), v)
            else:
                residual = out
            worst = max(worst, float(residual))
    except CurvError as exc:
        return CheckResult(name=name, trials=trials, max_residual=float("inf"),
                           passed=False, note=f"error: {exc}", extra=extra)
    return CheckResult(name=name, trials=trials, max_residual=worst,
                       passed=worst <= config.tolerance, extra=extra)


def _run_guard(name: str, guard: Callable, config: TrialConfig,
               expected: type) -> CheckResult:
    try:
        guard(config)
    except expected:
        return CheckResult(name=name, trials=1, max_residual=0.0, passed=True,
                           note=f"raised {expected.__name__}")
    except CurvError as exc:
        return CheckResult(name=name, trials=1, max_residual=float("inf"),
                           passed=False,
                           note=f"raised {type(exc).__name__} instead of "
                                f"{expected.__name__}")
    return CheckResult(name=name, trials=1, max_residual=float("inf"),
                       passed=False, note=f"no {expected.__name__} raised")


def _rel(x: float, scale: float) -> float:
    return abs(x) / (1.0 + abs(scale))


# --------------------------------------------------------------------------
# Individual checks

def _contraction_check(flavor: str):
    def check(rng, config):
        g = _draw_metric(rng, config.n)
        s0 = _draw_symmetric(rng, config.n)
        r = scalar_curvature(s0, g)
        s_star = selfconsistent_ricci(g, r, config.params, flavor)
        if flavor == "qc":
            alpha = qc_flat_alpha(config.n, r, config.params)
        elif flavor == "pp":
            alpha = pp_flat_alpha(config.n, r, config.params)
        else:
            alpha = w2_flat_alpha(config.n, r)
        residual = max_abs(s_star - alpha * g.mat) / (1.0 + abs(alpha))
        # the forced Ricci is Einstein by construction; report that too
        residual = max(residual, einstein_check(s_star, g).residual)
        return residual
    return check


def _pairing_identity_check(rng, config):
    """The two-sided cancellation behind the product Ricci form: with
    S = (1/s)(a - d)(x)b_bar, the combination
    (a - d)(X) b_bar(Y) - s * S(X, Y) vanishes identically."""
    n = config.n

    def build():
        g = _draw_metric(rng, n)
        a_form = _draw_covector(rng, n)
        d_form = _draw_covector(rng, n)
        b_form = _draw_covector(rng, n)
        b_bar = _draw_covector(rng, n)
        s_matrix, s = product_ricci_form(g, a_form, d_form, b_form, b_bar)
        return a_form, d_form, b_bar, s_matrix, s

    a_form, d_form, b_bar, s_matrix, s = _retry_degenerate(build, rng)
    lhs = np.outer(a_form - d_form, b_bar) - s * s_matrix
    return max_abs(lhs) / (1.0 + max_abs(s * s_matrix))


def _flat_fit_check(flavor: str):
    """Reconstruct the curvature from the substituted Ricci form and fit the
    corresponding shape family; the fit must reproduce the exact closed-form
    coefficients (up to the documented trace gauge)."""
    def check(rng, config):
        n = config.n
        params = config.params

        def build():
            g = _draw_metric(rng, n)
            r = _draw_scalar(rng, lo=0.5, hi=3.0) * n
            s = flat_ricci_form(g, _draw_covector(rng, n), _draw_covector(rng, n),
                                _draw_covector(rng, n), _draw_covector(rng, n), r)
            return g, r, s

        g, r, s = _retry_degenerate(build, rng)
        ba = params.b / params.a
        p_true = -ba * s
        trace = float(np.einsum("ij,ij->", g.inv, p_true))
        if flavor == "qc":
            riemann = reconstruct_qc_flat(s, g, r, params)
            fit = hyper_quasi_constant_fit(riemann, g)
            alpha = (r / n) * (1.0 / (n - 1) + 2.0 * ba)
            a_true = alpha + 2.0 * trace / n
        else:
            riemann = reconstruct_pp_flat(s, g, r, params)
            fit = pseudo_quasi_constant_fit(riemann, g)
            alpha = (r / (params.a * n)) * (params.a / (n - 1) + params.b)
            a_true = alpha + trace / n
        p_hat = p_true - (trace / n) * g.mat
        return max(fit.residual,
                   _rel(fit.a - a_true, a_true),
                   max_abs(fit.p - p_hat) / (1.0 + max_abs(p_hat)))
    return check


def _draw_rank_one(rng: np.random.Generator, n: int) -> tuple[PointModel, float]:
    """A rank-one Ricci model and its coefficient r / T(rho), redrawn while
    the difference form is degenerate."""
    def build():
        model = random_point_model(rng, n)
        return model, rank_one_coefficient(model.g, model.ricci, model.t)
    return _retry_degenerate(build, rng)


def _rank_one_check(rng, config):
    """Rank-one Ricci data: the coefficient is exactly r / T(rho), and both
    T-identities hold with zero residual."""
    n = config.n
    model = random_point_model(rng, n)
    bundle = CurvatureBundle.from_tensors(model.g, ricci=model.ricci)
    coeff = rank_one_coefficient(model.g, model.ricci, model.t)
    forms = OneFormSystem(a=np.zeros(n), b=model.t, d=np.zeros(n))
    res_tq, res_ts = t_identities(bundle, forms)
    scale = 1.0 + max_abs(model.ricci) * (1.0 + max_abs(model.t))
    return max(_rel(coeff - model.coeff, model.coeff),
               res_tq / scale, res_ts / scale)


def _qc_quasi_constant_check(rng, config):
    """Plugging the rank-one Ricci into the quasi-conformal reconstruction
    lands exactly on the quasi-constant-curvature family; the fit must
    recover the closed-form wedge and block coefficients."""
    n = config.n
    params = config.params
    model, coeff = _draw_rank_one(rng, n)
    g, t = model.g, model.t
    r = scalar_curvature(model.ricci, g)
    riemann = reconstruct_qc_flat(model.ricci, g, r, params)
    fit = quasi_constant_fit(riemann, g, tol=max(config.tolerance, 1e-8))
    t_rho = g.norm_sq(t)
    l_true = (r / n) * (1.0 / (n - 1) + 2.0 * params.b / params.a)
    delta_true = -(params.b / params.a) * coeff
    b_true = delta_true * t_rho
    unit = t / np.sqrt(t_rho)
    a_form_gap = min(max_abs(fit.a_form - unit), max_abs(fit.a_form + unit))
    delta_rec = fit.b / t_rho
    return (max(fit.residual,
                _rel(fit.a - l_true, l_true),
                _rel(fit.b - b_true, b_true),
                _rel(delta_rec - delta_true, delta_true),
                a_form_gap),
            {"weyl_norm": max_abs(weyl_from_tensors(riemann, g).values)})


def _pp_quasi_constant_check(rng, config):
    """Same closed-form recovery for the pseudo-projective reconstruction of
    rank-one Ricci data, against the two-term shape family."""
    n = config.n
    params = config.params
    model, coeff = _draw_rank_one(rng, n)
    g, t = model.g, model.t
    r = scalar_curvature(model.ricci, g)
    riemann = reconstruct_pp_flat(model.ricci, g, r, params)
    fit = pseudo_quasi_constant_fit(riemann, g)
    t_rho = g.norm_sq(t)
    gamma1 = (r / (params.a * n)) * (params.a / (n - 1) + params.b)
    delta1 = -(params.b / params.a) * coeff
    a_true = gamma1 + delta1 * t_rho / n
    p_hat = delta1 * (np.outer(t, t) - (t_rho / n) * g.mat)
    unit = t / np.sqrt(t_rho)
    delta_rec = float(unit @ g.inv @ fit.p @ g.inv @ unit) / (t_rho * (1.0 - 1.0 / n))
    return max(fit.residual,
               _rel(fit.a - a_true, a_true),
               max_abs(fit.p - p_hat) / (1.0 + max_abs(p_hat)),
               _rel(delta_rec - delta1, delta1))


def _bd_expansion_check(flavor: str):
    """Expanding the difference form t = b - d inside a t(x)t block must equal
    the bilinear block built from b(x)b - b(x)d - d(x)b + d(x)d: for "qc" the
    four-term block against the dedicated `quasi_constant_shape`, otherwise
    the two-term block against itself at t(x)t."""
    def check(rng, config):
        n = config.n
        g = _draw_metric(rng, n)
        b_form = _draw_covector(rng, n)
        d_form = _draw_covector(rng, n)
        delta = _draw_scalar(rng)
        t = b_form - d_form
        bd_block = delta * (np.outer(b_form, b_form) - np.outer(b_form, d_form)
                            - np.outer(d_form, b_form) + np.outer(d_form, d_form))
        if flavor == "qc":
            lhs = hyper_shape(g, bd_block).values
            rhs = delta * quasi_constant_shape(g, t).values
        else:
            lhs = pseudo_shape(g, bd_block).values
            rhs = delta * pseudo_shape(g, np.outer(t, t)).values
        return max_abs(lhs - rhs) / (1.0 + max_abs(rhs))
    return check


def _w2_rank_one_check(rng, config):
    """Rank-one Ricci through the W2 reconstruction: the round trip through
    the W2 combination is exactly zero and the quasi-Einstein decomposition
    recovers (p, q, omega) = (0, r, t-direction)."""
    model, _ = _draw_rank_one(rng, config.n)
    g, t = model.g, model.t
    s = model.ricci
    r = scalar_curvature(s, g)
    riemann = reconstruct_w2_flat(s, g)
    bundle = CurvatureBundle.from_tensors(g, riemann=riemann, ricci=s, r=r)
    roundtrip = max_abs(w2(bundle).values) / (1.0 + riemann.norm())
    qe = quasi_einstein_decompose(s, g)
    t_rho = g.norm_sq(t)
    unit = t / np.sqrt(t_rho)
    omega_gap = min(max_abs(qe.omega - unit), max_abs(qe.omega + unit))
    return max(roundtrip,
               _rel(qe.p, r), _rel(qe.q - r, r), omega_gap)


# --------------------------------------------------------------------------
# Brute-force twins
#
# One trial per section re-derives the section's reconstruction and its
# Ricci contraction with fully expanded index loops that share no code with
# the vectorized implementations, certifying the optimized path once per run.

def _twin_check(flavor: str):
    def check(rng, config):
        n = config.n
        params = config.params
        model = random_point_model(rng, n)
        g, s = model.g, model.ricci
        r = scalar_curvature(s, g)
        gm, ginv = g.mat, g.inv
        a, b = params.a, params.b
        # each flavor's entry R[i,j,k,l], as its reconstruction's docstring
        # writes it
        if flavor == "qc":
            fast = reconstruct_qc_flat(s, g, r, params).values
            coeff = (r / n) * (1.0 / (n - 1) + 2.0 * b / a)

            def entry(i, j, k, l):
                return (-(b / a) * (s[j, k] * gm[i, l] - s[i, k] * gm[j, l]
                                    + gm[j, k] * s[i, l] - gm[i, k] * s[j, l])
                        + coeff * (gm[j, k] * gm[i, l] - gm[i, k] * gm[j, l]))
        elif flavor == "pp":
            fast = reconstruct_pp_flat(s, g, r, params).values
            coeff = (r / (a * n)) * (a / (n - 1) + b)

            def entry(i, j, k, l):
                return (-(b / a) * (s[j, k] * gm[i, l] - s[i, k] * gm[j, l])
                        + coeff * (gm[j, k] * gm[i, l] - gm[i, k] * gm[j, l]))
        else:
            fast = reconstruct_w2_flat(s, g).values

            def entry(i, j, k, l):
                return (gm[j, k] * s[i, l] - gm[i, k] * s[j, l]) / (n - 1)
        # one pass over the grid fills each entry and adds it into its
        # contraction slow[j,k] = sum over (i, l) of ginv[i,l] * loops[i,j,k,l]
        loops = np.zeros((n, n, n, n))
        slow = np.zeros((n, n))
        for i, j, k, l in itertools.product(range(n), repeat=4):
            loops[i, j, k, l] = entry(i, j, k, l)
            slow[j, k] += ginv[i, l] * loops[i, j, k, l]
        worst = max_abs(fast - loops) / (1.0 + max_abs(fast))
        # contraction twin: the loop sums against the einsum path
        contracted = ricci_contract(Tensor04(fast), g)
        return max(worst, max_abs(contracted - slow) / (1.0 + max_abs(slow)))
    return check


# --------------------------------------------------------------------------
# Guard trials (one per degenerate denominator)

def _guard_zero_scalar(config):
    n = config.n
    g = Metric(np.eye(n))
    s = np.zeros((n, n))
    s[0, 0], s[1, 1] = 1.0, -1.0  # traceless: r = 0
    bundle = CurvatureBundle.from_tensors(g, ricci=s)
    a_from_bd(bundle, np.ones(n), np.ones(n))


def _guard_equal_pairing(config):
    n = config.n
    g = Metric(np.eye(n))
    w = np.ones(n)
    product_ricci_form(g, w, w, w, w)  # a == d: the pairing vanishes


def _guard_zero_t(config):
    n = config.n
    g = Metric(np.eye(n))
    rank_one_coefficient(g, np.eye(n), np.zeros(n))


def _guard_degenerate_weights(config):
    n = config.n
    qc_flat_alpha(n, 1.0, GenCurvParams(a=1.0, b=-1.0 / (n - 2)))


# --------------------------------------------------------------------------
# Section drivers
#
# section -> (flavor, checks, guards).  Check names are prefixed with the
# flavor, and `trials` None means config.trials.  A check's rng index is its
# position (see the module docstring); tests/test_harness.py pins the layout.

_SECTIONS = {
    2: ("qc",
        (("einstein_contraction", _contraction_check("qc"), None),
         ("product_ricci_identity", _pairing_identity_check, None),
         ("hyper_fit", _flat_fit_check("qc"), None),
         ("rank_one_ricci", _rank_one_check, None),
         ("quasi_constant_fit", _qc_quasi_constant_check, None),
         ("bd_expansion", _bd_expansion_check("qc"), None),
         ("brute_force_twin", _twin_check("qc"), 1)),
        (("guard_zero_scalar_curvature", _guard_zero_scalar, ZeroScalarCurvature),
         ("guard_equal_pairing", _guard_equal_pairing, DegenerateParams),
         ("guard_zero_difference_form", _guard_zero_t, DegenerateParams),
         ("guard_degenerate_weights", _guard_degenerate_weights, DegenerateParams))),
    3: ("pp",
        (("einstein_contraction", _contraction_check("pp"), None),
         ("product_ricci_identity", _pairing_identity_check, None),
         ("pseudo_fit", _flat_fit_check("pp"), None),
         ("rank_one_ricci", _rank_one_check, None),
         ("quasi_constant_fit", _pp_quasi_constant_check, None),
         ("bd_expansion", _bd_expansion_check("pp"), None),
         ("brute_force_twin", _twin_check("pp"), 1)),
        (("guard_equal_pairing", _guard_equal_pairing, DegenerateParams),)),
    4: ("w2",
        (("einstein_contraction", _contraction_check("w2"), None),
         ("product_ricci_identity", _pairing_identity_check, None),
         ("rank_one_quasi_einstein", _w2_rank_one_check, None),
         ("brute_force_twin", _twin_check("w2"), 1)),
        (("guard_equal_pairing", _guard_equal_pairing, DegenerateParams),)),
}


def _verify_section(section: int, config: TrialConfig) -> HarnessReport:
    flavor, checks, guards = _SECTIONS[section]
    results = [_run_check(f"{flavor}_{name}", check, config, section, index, trials)
               for index, (name, check, trials) in enumerate(checks)]
    results += [_run_guard(name, guard, config, expected)
                for name, guard, expected in guards]
    return HarnessReport(section=section, config=config, checks=tuple(results))


def verify_section2(config: TrialConfig) -> HarnessReport:
    """The quasi-conformally-flat chain: forced Einstein coefficient, the
    product Ricci form, the four-term (hyper) fit of the reconstruction, the
    rank-one Ricci consequences, the quasi-constant fit, the b/d expansion,
    and this section's share of the degeneracy guards."""
    return _verify_section(2, config)


def verify_section3(config: TrialConfig) -> HarnessReport:
    """The pseudo-projectively-flat chain (Einstein contraction with
    alpha = r/n, product Ricci form, two-term fit of the reconstruction,
    rank-one consequences, and the b/d expansion)."""
    return _verify_section(3, config)


def verify_section4(config: TrialConfig) -> HarnessReport:
    """The W2-flat chain (Einstein contraction with alpha = r/n, product
    Ricci form, rank-one Ricci with the quasi-Einstein conclusion)."""
    return _verify_section(4, config)


def verify_all(config: TrialConfig) -> list[HarnessReport]:
    return [verify_section2(config), verify_section3(config),
            verify_section4(config)]
