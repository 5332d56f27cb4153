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

A check runs in two phases per block of trials (`_Check`, `_run_check`).
The draw phase reads the check's attempt stream: attempts are drawn one by
one, with the same rng calls in the same order as a loop that redraws each
trial on its own, and a rejected attempt consumes the same calls as an
accepted one.  The redraw predicates (a near-zero pairing, r or T(rho))
are judged over the stack of attempts, and trial k takes the k-th accepted
attempt; REDRAW_CAP consecutive rejections end the check at their trial.
Genuinely degenerate *inputs* raise the designated guard errors, and each
guard has a dedicated trial asserting exactly that.  The compute phase
validates the block's metrics in one call and runs the check's arithmetic
once over the stack: one residual per trial, the worst of which is the
check's.  Only the small least-squares solves and the branching
classifiers run trial by trial, on rows of the stack.  A failure is
charged to its trial: the check ends there, with the extras of the trials
before it.  Blocks hold as many trials as keep one stacked n^4 grid within
BLOCK_BYTES, which bounds the memory the stacks take.

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
from typing import Callable, NamedTuple

import numpy as np

from .chart import CurvatureBundle
from .classify import (_einstein_values, _linear_fit, quasi_constant_fit,
                       quasi_einstein_decompose)
from .errors import (CurvError, DegenerateParams, InvalidParams,
                     SingularMetric, ZeroScalarCurvature)
from .gencurv import (GenCurvParams, _combined_values, _flat_ricci,
                      _flat_values, pp_flat_alpha, qc_flat_alpha,
                      reconstruct_pp_flat, reconstruct_qc_flat,
                      reconstruct_w2_flat, w2_flat_alpha)
from .tensor import (_HYPER_TERMS, _PSEUDO_TERMS, Metric, Tensor04,
                     _check_oneform, _expand_block, _lift, _lstsq_kernel,
                     _max_abs_items, _norm_sq_values, _ricci_contract_values,
                     _scalar_curvature_values, _validate_metrics, max_abs,
                     ricci_contract, scalar_curvature)
from .wrs import _t_identity_defects, a_from_bd

__all__ = [
    "TrialConfig", "PointModel", "CheckResult", "HarnessReport",
    "random_point_model", "verify_section2", "verify_section3",
    "verify_section4", "verify_all",
    "product_ricci_form", "flat_ricci_form", "rank_one_coefficient",
]

REJECT_TOL = 1e-6
REDRAW_CAP = 100
# Trials run in blocks: one stacked n^4 grid of a block's trials stays
# within this many bytes (at least one trial per block).
BLOCK_BYTES = 1 << 17


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

def _draw_metric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return m.T @ m + n * np.eye(n)


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


def _draw_point(rng: np.random.Generator, n: int):
    """The draws of a point model: metric components, c and t."""
    return _draw_metric(rng, n), _draw_scalar(rng), _draw_covector(rng, n)


def random_point_model(seed, n: int) -> PointModel:
    """Seeded pointwise data.  `seed` may be an int, a seed sequence, or an
    existing Generator.  g = M^T M + n*I for random M (positive definite by
    construction, smallest eigenvalue >= n), and S = c * t(x)t with |c|
    bounded away from 0 and t bounded away from 0."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g, c, t = _draw_point(rng, n)
    return PointModel(g=Metric(g), ricci=c * np.outer(t, t), coeff=c, t=t)


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.outer of 1-forms stacked on the same leading axes."""
    return u[..., :, None] * v[..., None, :]


# --------------------------------------------------------------------------
# Shared constructions (each owns a degeneracy guard)
#
# Each guard's quantity is computed once, for 1-forms and inverse metrics
# stacked on leading axes or for one point, with the verdict that it is
# clear of zero; the public functions raise on that verdict, and the checks
# read it as the redraw predicate of their attempts.

def _pairing(ginv: np.ndarray, a_form, d_form, b_form):
    """The pairing scalar s = (a - d)(dual of b) and whether |s| is clear of
    REJECT_TOL times the forms' scale."""
    s = ((a_form - d_form)[..., None, :] @ (ginv @ b_form[..., :, None]))[..., 0, 0]
    scale = ((1.0 + _max_abs_items(a_form, 1) + _max_abs_items(d_form, 1))
             * (1.0 + _max_abs_items(b_form, 1)))
    return s, np.abs(s) > REJECT_TOL * scale


def _product_matrix(a_form, d_form, b_bar, s) -> np.ndarray:
    """S = (1/s) (a - d)(x)b_bar."""
    return _outer(a_form - d_form, b_bar) / _lift(s, 2)


def _flat_first_form(b_bar, d_bar, r) -> np.ndarray:
    """The closed form of the first 1-form, a = -(b_bar + d_bar)/r."""
    return -(b_bar + d_bar) / _lift(r, 1)


def _difference_norm(ginv: np.ndarray, t):
    """T(rho), the squared metric norm of the difference form t, and whether
    it is clear of REJECT_TOL^2 (the rank-one coefficient divides by it)."""
    t_rho = _norm_sq_values(ginv, t)
    return t_rho, t_rho > REJECT_TOL ** 2


def _zero_difference_form(t_rho: float) -> DegenerateParams:
    return DegenerateParams(f"difference form has squared norm {t_rho:g}; the "
                            "rank-one coefficient divides by it")


def product_ricci_form(g: Metric, a_form, d_form, b_form, b_bar
                       ) -> tuple[np.ndarray, float]:
    """S = (1/s) (a - d)(x)b_bar with the pairing scalar
    s = (a - d)(dual of b).  Raises DegenerateParams when s ~ 0 (the pairing
    the construction divides by)."""
    a_form = np.asarray(a_form, float)
    d_form = np.asarray(d_form, float)
    s, clear = _pairing(g.inv, a_form, d_form, _check_oneform(b_form, g.n))
    if not clear:
        raise DegenerateParams(
            f"pairing (a-d)(b-dual) = {s:g} is numerically zero")
    return _product_matrix(a_form, d_form, np.asarray(b_bar, float), s), float(s)


def flat_ricci_form(g: Metric, b_form, b_bar, d_form, d_bar, r: float
                    ) -> np.ndarray:
    """The Ricci form obtained by substituting the closed form of the first
    1-form, a = -(b_bar + d_bar)/r, into the product form:

        S = -(1/(s*r)) (b_bar + d_bar)(x)b_bar - (1/s) d(x)b_bar

    with s the pairing scalar of that substituted a against d and b."""
    if abs(r) <= REJECT_TOL:
        raise DegenerateParams(f"scalar curvature r = {r:g} is numerically zero")
    b_bar = np.asarray(b_bar, float)
    a_form = _flat_first_form(b_bar, np.asarray(d_bar, float), r)
    s_matrix, _ = product_ricci_form(g, a_form, d_form, b_form, b_bar)
    return s_matrix


def rank_one_coefficient(g: Metric, ricci, t) -> float:
    """The coefficient r / T(rho) of a rank-one Ricci form S = c * t(x)t,
    where T(rho) is the squared metric norm of t.  Raises DegenerateParams
    when t is numerically zero (the degenerate T(rho) = 0 case the chains
    rule out)."""
    t_rho, clear = _difference_norm(g.inv, np.asarray(t, float))
    if not clear:
        raise _zero_difference_form(t_rho)
    return scalar_curvature(np.asarray(ricci, float), g) / float(t_rho)


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
    return _fixed_point_solution(*_fixed_point_systems(g.mat, g.inv, r, params, flavor))


def _fixed_point_systems(gm: np.ndarray, ginv: np.ndarray, r, params: GenCurvParams,
                         flavor: str) -> tuple[np.ndarray, np.ndarray]:
    """The systems lhs @ vec(S) = rhs of `selfconsistent_ricci` for metrics
    and scalar curvatures stacked on leading axes: lhs (..., n^2 + 1, n^2)
    and rhs (..., n^2 + 1), whose last entry is r.  Every operator of the
    stack comes from one `_flat_ricci` call."""
    n = gm.shape[-1]
    lead = gm.shape[:-2]
    if flavor == "qc":
        params.qc_denominator(n)
    elif flavor == "pp":
        params.pp_denominator(n)
    elif flavor != "w2":
        raise InvalidParams(f"unknown flavor {flavor!r}")
    # the zero bilinear, then the identity basis E_1 ... E_{n^2}
    basis = np.eye(n * n + 1, n * n, k=-1).reshape(n * n + 1, n, n)
    images = _flat_ricci(flavor, basis, gm[..., None, :, :], ginv[..., None, :, :],
                         _lift(r, 1), params).reshape(*lead, n * n + 1, n * n)
    affine = images[..., 0, :]
    op = (images[..., 1:, :] - affine[..., None, :]).swapaxes(-1, -2)
    lhs = np.concatenate([np.eye(n * n) - op, ginv.reshape(*lead, 1, n * n)], axis=-2)
    return lhs, np.concatenate([affine, _lift(r, 1)], axis=-1)


def _fixed_point_solution(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The Ricci form that solves one system of `_fixed_point_systems`."""
    solution, kernel_dim, _ = _lstsq_kernel(lhs, rhs)
    if kernel_dim > 0:
        raise DegenerateParams(
            "the contraction fixed-point system is singular for these weights")
    gap = max_abs(lhs @ solution - rhs)
    if gap > 1e-8 * (1.0 + abs(rhs[-1])):
        raise DegenerateParams(
            f"the contraction fixed-point system is inconsistent (gap {gap:g})")
    n = math.isqrt(len(solution))
    return solution.reshape(n, n)


# --------------------------------------------------------------------------
# Check runners

class _Check(NamedTuple):
    """One randomized check.  `draw(rng, n)` draws one attempt: its metric's
    components, then its other draws.  `accept(gm, ginv, *draws)` says which
    attempts of a stack are not degenerate (None: every attempt is a trial).
    `compute(config, gm, ginv, *draws)` takes a stack of trials and returns
    the residual of each and a dict of per-trial extras, reported as their
    maximum; a failure raises the CurvError of the first trial that fails,
    its index in `item` (None: the first trial)."""

    draw: Callable
    compute: Callable
    accept: Callable | None = None


def _per_trial(fn: Callable, *stacks) -> list:
    """fn over the rows of stacks of trials, in trial order; a CurvError
    carries the index of its trial."""
    out = []
    for k, rows in enumerate(zip(*stacks)):
        try:
            out.append(fn(*rows))
        except CurvError as exc:
            exc.item = k
            raise
    return out


def _draw_block(check: _Check, rng: np.random.Generator, n: int, count: int):
    """The next `count` trials of a check, stacked as (gm, ginv, *draws), and
    the error that ends the check at the trial after them, or None.

    Attempts are drawn in stream order, `count` less the trials filled so
    far at a time, then validated and judged over their stack.  Trial k is
    the k-th accepted attempt, so every trial gets the draws it had when
    each attempt was drawn and judged on its own.  REDRAW_CAP consecutive
    rejections end the check at the trial they were drawn for; so does an
    attempt whose draw or metric fails, after the verdicts on the attempts
    before it.  A draw that fails its own degeneracy guard is a rejected
    attempt of a check that redraws."""
    parts, filled, misses, error = [], 0, 0, None
    while filled < count and error is None:
        drawn = []  # this round's attempts; None for one rejected while drawn
        while len(drawn) < count - filled:
            try:
                drawn.append(check.draw(rng, n))
            except CurvError as exc:
                if check.accept is None or not isinstance(exc, DegenerateParams):
                    error = exc
                    break
                drawn.append(None)
        at = [k for k, attempt in enumerate(drawn) if attempt is not None]
        verdicts = np.zeros(len(drawn), dtype=bool)
        if at:
            stack = [np.array(column) for column in zip(*(drawn[k] for k in at))]
            try:
                stack[:1] = _validate_metrics(stack[0])
            except SingularMetric as exc:  # the check ends at that attempt
                error, verdicts, at = exc, verdicts[:at[exc.item]], at[:exc.item]
                stack = [column[:exc.item] for column in stack]
                stack[:1] = _validate_metrics(stack[0])
            verdicts[at] = True if check.accept is None else check.accept(*stack)
        last = len(verdicts)
        for k, accepted in enumerate(verdicts):
            misses = 0 if accepted else misses + 1
            if misses == REDRAW_CAP:
                error, last = DegenerateParams("redraw cap exhausted"), k
                break
        if at:
            rows = verdicts[at] & (np.array(at) < last)
            parts.append([column[rows] for column in stack])
            filled += int(np.count_nonzero(rows))
    return [np.concatenate(column) for column in zip(*parts)], error


def _compute_block(check: _Check, config: TrialConfig, stack, error):
    """The residuals and extras of a block's trials, up to the first trial
    whose computation fails, and the error that ends the check there (else
    the draw phase's `error`).  On a failure at trial k the block is
    computed again on its first k trials, which may fail earlier still."""
    end = len(stack[0]) if stack else 0
    while end:
        try:
            residuals, extras = check.compute(config, *(column[:end] for column in stack))
            return residuals, extras, error
        except CurvError as exc:
            end, error = exc.item or 0, exc
    return np.zeros(0), {}, error


def _run_check(name: str, check: _Check, config: TrialConfig, section: int,
               index: int, trials: int | None = None) -> CheckResult:
    rng = np.random.default_rng([config.seed, section, index])
    trials = config.trials if trials is None else trials
    block = max(1, BLOCK_BYTES // (8 * config.n ** 4))
    worst = 0.0
    extra: dict = {}
    for start in range(0, trials, block):
        stack, error = _draw_block(check, rng, config.n, min(block, trials - start))
        residuals, extras, error = _compute_block(check, config, stack, error)
        if len(residuals):
            worst = float(np.max(residuals, initial=worst))
            for k, v in extras.items():
                extra[k] = float(np.max(v, initial=extra.get(k, 0.0)))
        if error is not None:
            return CheckResult(name=name, trials=trials, max_residual=float("inf"),
                               passed=False, note=f"error: {error}", extra=extra)
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


def _rel(x, scale):
    return np.abs(x) / (1.0 + np.abs(scale))


def _direction_gap(w, t, t_rho):
    """How far each fitted unit covector w is from the direction of t, up to
    sign: min over the sign of max|w -+ t / sqrt(T(rho))|."""
    unit = t / _lift(np.sqrt(t_rho), 1)
    return np.minimum(_max_abs_items(w - unit, 1), _max_abs_items(w + unit, 1))


# --------------------------------------------------------------------------
# Individual checks
#
# Each computes over a stack of trials (leading axis); gm and ginv are the
# validated metrics and their inverses.

def _contraction_check(flavor: str) -> _Check:
    def draw(rng, n):
        return _draw_metric(rng, n), _draw_symmetric(rng, n)

    def compute(config, gm, ginv, s0):
        n, params = config.n, config.params
        r = _scalar_curvature_values(ginv, s0)
        s_star = np.array(_per_trial(
            _fixed_point_solution, *_fixed_point_systems(gm, ginv, r, params, flavor)))
        if flavor == "qc":
            alpha = qc_flat_alpha(n, r, params)
        elif flavor == "pp":
            alpha = pp_flat_alpha(n, r, params)
        else:
            alpha = w2_flat_alpha(n, r)
        residual = _max_abs_items(s_star - _lift(alpha, 2) * gm, 2) / (1.0 + np.abs(alpha))
        # the forced Ricci is Einstein by construction; report that too
        return np.maximum.reduce([residual, _einstein_values(s_star, gm, ginv)[1]]), {}
    return _Check(draw, compute)


def _draw_pairing(rng, n):
    return (_draw_metric(rng, n), _draw_covector(rng, n), _draw_covector(rng, n),
            _draw_covector(rng, n), _draw_covector(rng, n))


def _accept_pairing(gm, ginv, a_form, d_form, b_form, b_bar):
    return _pairing(ginv, a_form, d_form, b_form)[1]


def _pairing_identity(config, gm, ginv, a_form, d_form, b_form, b_bar):
    """The two-sided cancellation behind the product Ricci form: with
    S = (1/s)(a - d)(x)b_bar, the combination
    (a - d)(X) b_bar(Y) - s * S(X, Y) vanishes identically."""
    s, _ = _pairing(ginv, a_form, d_form, b_form)
    scaled = _lift(s, 2) * _product_matrix(a_form, d_form, b_bar, s)
    lhs = _outer(a_form - d_form, b_bar) - scaled
    return _max_abs_items(lhs, 2) / (1.0 + _max_abs_items(scaled, 2)), {}


def _flat_fit_check(flavor: str) -> _Check:
    """Reconstruct the curvature from the substituted Ricci form and fit the
    corresponding shape family; the fit must reproduce the exact closed-form
    coefficients (up to the documented trace gauge)."""
    def draw(rng, n):
        # the covectors in the order flat_ricci_form takes them
        return (_draw_metric(rng, n), _draw_scalar(rng, lo=0.5, hi=3.0) * n,
                _draw_covector(rng, n), _draw_covector(rng, n),
                _draw_covector(rng, n), _draw_covector(rng, n))

    def accept(gm, ginv, r, b_form, b_bar, d_form, d_bar):
        a_form = _flat_first_form(b_bar, d_bar, r)
        return (np.abs(r) > REJECT_TOL) & _pairing(ginv, a_form, d_form, b_form)[1]

    def compute(config, gm, ginv, r, b_form, b_bar, d_form, d_bar):
        n = config.n
        params = config.params
        if flavor == "qc":  # the reconstruction's precondition, before b / a
            params.require_qc()
        else:
            params.require_pp()
        a_form = _flat_first_form(b_bar, d_bar, r)
        s = _product_matrix(a_form, d_form, b_bar, _pairing(ginv, a_form, d_form, b_form)[0])
        ba = params.b / params.a
        p_true = -ba * s
        trace = _scalar_curvature_values(ginv, p_true)
        wedge = _expand_block(_PSEUDO_TERMS, gm, gm)
        if flavor == "qc":
            riemann = _flat_values("qc", s, gm, r, params, wedge)
            fit_a, fit_p, fit_residual, _ = _linear_fit(riemann, gm, ginv, wedge,
                                                        _HYPER_TERMS, 2.0)
            alpha = (r / n) * (1.0 / (n - 1) + 2.0 * ba)
            a_true = alpha + 2.0 * trace / n
        else:
            riemann = _flat_values("pp", s, gm, r, params, wedge)
            fit_a, fit_p, fit_residual, _ = _linear_fit(riemann, gm, ginv, wedge,
                                                        _PSEUDO_TERMS, 1.0)
            alpha = (r / (params.a * n)) * (params.a / (n - 1) + params.b)
            a_true = alpha + trace / n
        p_hat = p_true - _lift(trace / n, 2) * gm
        return np.maximum.reduce([
            fit_residual, _rel(fit_a - a_true, a_true),
            _max_abs_items(fit_p - p_hat, 2) / (1.0 + _max_abs_items(p_hat, 2))]), {}
    return _Check(draw, compute, accept)


def _redrawn_rank_one(compute) -> _Check:
    """A check on rank-one Ricci data, redrawn while t is degenerate."""
    return _Check(_draw_point, compute,
                  lambda gm, ginv, c, t: _difference_norm(ginv, t)[1])


def _rank_one_data(ginv, c, t):
    """A stack of rank-one Ricci forms S = c * t(x)t, their scalar
    curvatures, T(rho) and rank-one coefficients r / T(rho); raises the guard
    of `rank_one_coefficient` for the first trial whose t is degenerate."""
    ricci = _lift(c, 2) * _outer(t, t)
    r = _scalar_curvature_values(ginv, ricci)
    t_rho, clear = _difference_norm(ginv, t)
    if not clear.all():
        error = _zero_difference_form(t_rho[np.argmin(clear)])
        error.item = int(np.argmin(clear))
        raise error
    return ricci, r, t_rho, r / t_rho


def _rank_one(config, gm, ginv, c, t):
    """Rank-one Ricci data: the coefficient is exactly r / T(rho), and both
    T-identities hold with zero residual."""
    ricci, r, _, coeff = _rank_one_data(ginv, c, t)
    # the T-identities of the forms (a, b, d) = (0, t, 0), so T = t
    tq, ts = _t_identity_defects(t, ginv @ ricci, r, ricci)
    scale = 1.0 + _max_abs_items(ricci, 2) * (1.0 + _max_abs_items(t, 1))
    return np.maximum.reduce([_rel(coeff - c, c), _max_abs_items(tq, 1) / scale,
                              _max_abs_items(ts, 3) / scale]), {}


def _qc_quasi_constant(config, gm, ginv, c, t):
    """Plugging the rank-one Ricci into the quasi-conformal reconstruction
    lands exactly on the quasi-constant-curvature family; the fit must
    recover the closed-form wedge and block coefficients."""
    n = config.n
    params = config.params
    ricci, r, t_rho, coeff = _rank_one_data(ginv, c, t)
    params.require_qc()
    wedge = _expand_block(_PSEUDO_TERMS, gm, gm)
    riemann = _flat_values("qc", ricci, gm, r, params, wedge)
    tol = max(config.tolerance, 1e-8)
    fits = _per_trial(lambda rv, g, ginv_k: quasi_constant_fit(
        Tensor04(rv), Metric._from_validated(g, ginv_k), tol=tol), riemann, gm, ginv)
    fit_a, fit_b, fit_residual = (np.array([getattr(f, k) for f in fits])
                                  for k in ("a", "b", "residual"))
    l_true = (r / n) * (1.0 / (n - 1) + 2.0 * params.b / params.a)
    delta_true = -(params.b / params.a) * coeff
    b_true = delta_true * t_rho
    delta_rec = fit_b / t_rho
    weyl_ricci = _ricci_contract_values(ginv, riemann)
    weyl = _combined_values("weyl", riemann, gm, weyl_ricci,
                            _scalar_curvature_values(ginv, weyl_ricci), None, wedge)
    return (np.maximum.reduce([
        fit_residual, _rel(fit_a - l_true, l_true), _rel(fit_b - b_true, b_true),
        _rel(delta_rec - delta_true, delta_true),
        _direction_gap(np.array([f.a_form for f in fits]), t, t_rho)]),
        {"weyl_norm": _max_abs_items(weyl, 4)})


def _pp_quasi_constant(config, gm, ginv, c, t):
    """Same closed-form recovery for the pseudo-projective reconstruction of
    rank-one Ricci data, against the two-term shape family."""
    n = config.n
    params = config.params
    ricci, r, t_rho, coeff = _rank_one_data(ginv, c, t)
    params.require_pp()
    wedge = _expand_block(_PSEUDO_TERMS, gm, gm)
    riemann = _flat_values("pp", ricci, gm, r, params, wedge)
    fit_a, fit_p, fit_residual, _ = _linear_fit(riemann, gm, ginv, wedge, _PSEUDO_TERMS, 1.0)
    gamma1 = (r / (params.a * n)) * (params.a / (n - 1) + params.b)
    delta1 = -(params.b / params.a) * coeff
    a_true = gamma1 + delta1 * t_rho / n
    p_hat = _lift(delta1, 2) * (_outer(t, t) - _lift(t_rho / n, 2) * gm)
    unit = t / _lift(np.sqrt(t_rho), 1)
    along = (((unit[..., None, :] @ ginv) @ fit_p) @ ginv) @ unit[..., :, None]
    delta_rec = along[..., 0, 0] / (t_rho * (1.0 - 1.0 / n))
    return np.maximum.reduce([
        fit_residual, _rel(fit_a - a_true, a_true),
        _max_abs_items(fit_p - p_hat, 2) / (1.0 + _max_abs_items(p_hat, 2)),
        _rel(delta_rec - delta1, delta1)]), {}


def _bd_expansion_check(flavor: str) -> _Check:
    """Expanding the difference form t = b - d inside a t(x)t block must equal
    the bilinear block built from b(x)b - b(x)d - d(x)b + d(x)d: for "qc" the
    four-term block against the four-term block at t(x)t (the dedicated
    `quasi_constant_shape`), otherwise the two-term block against itself at
    t(x)t."""
    terms = _HYPER_TERMS if flavor == "qc" else _PSEUDO_TERMS

    def draw(rng, n):
        return (_draw_metric(rng, n), _draw_covector(rng, n), _draw_covector(rng, n),
                _draw_scalar(rng))

    def compute(config, gm, ginv, b_form, d_form, delta):
        t = b_form - d_form
        bd_block = _lift(delta, 2) * (_outer(b_form, b_form) - _outer(b_form, d_form)
                                      - _outer(d_form, b_form) + _outer(d_form, d_form))
        lhs = _expand_block(terms, gm, bd_block)
        rhs = _lift(delta, 4) * _expand_block(terms, gm, _outer(t, t))
        return _max_abs_items(lhs - rhs, 4) / (1.0 + _max_abs_items(rhs, 4)), {}
    return _Check(draw, compute)


def _w2_rank_one(config, gm, ginv, c, t):
    """Rank-one Ricci through the W2 reconstruction: the round trip through
    the W2 combination is exactly zero and the quasi-Einstein decomposition
    recovers (p, q, omega) = (0, r, t-direction)."""
    s, r, t_rho, _ = _rank_one_data(ginv, c, t)
    riemann = _flat_values("w2", s, gm, 0.0, None, None)
    roundtrip = (_max_abs_items(_combined_values("w2", riemann, gm, s, r, None, None), 4)
                 / (1.0 + _max_abs_items(riemann, 4)))
    fits = _per_trial(lambda s_k, g, ginv_k: quasi_einstein_decompose(
        s_k, Metric._from_validated(g, ginv_k)), s, gm, ginv)
    qe_p, qe_q = (np.array([getattr(f, k) for f in fits]) for k in ("p", "q"))
    return np.maximum.reduce([roundtrip, _rel(qe_p, r), _rel(qe_q - r, r),
                              _direction_gap(np.array([f.omega for f in fits]), t, t_rho)]), {}


# --------------------------------------------------------------------------
# Brute-force twins
#
# One trial per section re-derives the section's reconstruction and its
# Ricci contraction with fully expanded index loops that share no code with
# the vectorized implementations, certifying the optimized path once per run.

def _twin_check(flavor: str) -> _Check:
    def check(config, g, s):
        n = config.n
        params = config.params
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

    def compute(config, gm, ginv, c, t):
        def trial(g, g_inv, c_k, t_k):
            return check(config, Metric._from_validated(g, g_inv), c_k * np.outer(t_k, t_k))
        return np.array(_per_trial(trial, gm, ginv, c, t)), {}
    return _Check(_draw_point, compute)


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

_PAIRING_IDENTITY = _Check(_draw_pairing, _pairing_identity, _accept_pairing)
_RANK_ONE = _Check(_draw_point, _rank_one)

_SECTIONS = {
    2: ("qc",
        (("einstein_contraction", _contraction_check("qc"), None),
         ("product_ricci_identity", _PAIRING_IDENTITY, None),
         ("hyper_fit", _flat_fit_check("qc"), None),
         ("rank_one_ricci", _RANK_ONE, None),
         ("quasi_constant_fit", _redrawn_rank_one(_qc_quasi_constant), None),
         ("bd_expansion", _bd_expansion_check("qc"), None),
         ("brute_force_twin", _twin_check("qc"), 1)),
        (("guard_zero_scalar_curvature", _guard_zero_scalar, ZeroScalarCurvature),
         ("guard_equal_pairing", _guard_equal_pairing, DegenerateParams),
         ("guard_zero_difference_form", _guard_zero_t, DegenerateParams),
         ("guard_degenerate_weights", _guard_degenerate_weights, DegenerateParams))),
    3: ("pp",
        (("einstein_contraction", _contraction_check("pp"), None),
         ("product_ricci_identity", _PAIRING_IDENTITY, None),
         ("pseudo_fit", _flat_fit_check("pp"), None),
         ("rank_one_ricci", _RANK_ONE, None),
         ("quasi_constant_fit", _redrawn_rank_one(_pp_quasi_constant), None),
         ("bd_expansion", _bd_expansion_check("pp"), None),
         ("brute_force_twin", _twin_check("pp"), 1)),
        (("guard_equal_pairing", _guard_equal_pairing, DegenerateParams),)),
    4: ("w2",
        (("einstein_contraction", _contraction_check("w2"), None),
         ("product_ricci_identity", _PAIRING_IDENTITY, None),
         ("rank_one_quasi_einstein", _redrawn_rank_one(_w2_rank_one), None),
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
