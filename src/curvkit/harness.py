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

A check runs in one pass (`_Check`, `_run_check`): it draws a round of
trials, computes them, and then draws the next round.  A round's attempts
are drawn one by one, with the same rng calls in the same order as a loop
that redraws each trial on its own, and a rejected attempt consumes the
same calls as an accepted one.  A draw cannot fail.  Their metrics are
validated in one call per round (the attempts still needed, up to as many
metrics as fit BLOCK_BYTES; one more round follows rejections), the check's
accept predicate (a near-zero pairing, r or T(rho)) is judged over the
stack of attempts, and trial k takes the k-th accepted attempt;
REDRAW_CAP consecutive rejections end the check at their trial.  Genuinely
degenerate *inputs* raise the designated guard errors, and each guard has a
dedicated trial asserting exactly that.
A round's trials are computed once per block of trials, over the stack: one
residual per trial, the worst of which is the check's.
The classifiers and their least-squares fits run stacked too
(`classify._quasi_einstein_values`, `_quasi_constant_values`,
`_linear_fit`); only the one-trial brute-force twins run trial by
trial, on rows of the stack.
A failure is charged to its trial: the check ends there, with the extras
of the trials before it.  A round is computed before an error of its
metrics or its redraws is reported, so a compute failure at an earlier
trial wins.  Blocks hold as
many trials as keep the largest array a trial stacks within BLOCK_BYTES,
which bounds the memory a block takes: an n^4 curvature grid, or for the
contraction checks the n + 1 probe images of n x n below, and no
intermediate is larger.  A fit check builds no G grid: it expands one
fitted grid and writes its misfit into it, and an expansion check writes
its difference into one of its two grids, so every check's traced peak
stays within 4.5 * BLOCK_BYTES (tests/test_harness_stacks.py pins it).
The draws take at most a few n x n arrays per attempt of one round, so no
array grows with the number of trials.

The contraction checks solve for the Ricci tensor that a vanishing
generalized tensor forces (`selfconsistent_ricci`): S = F(S) with the trace
row tr_g(S) = r, F the Ricci contraction of the library's own flat
reconstruction (`gencurv._flat_ricci`, from the same weights and term
tables as `reconstruct_*_flat`).  It is solved in the frame of
eigh(g) = Q diag(mu) Q^T, orthogonal on both sides of the system, so the
singular values stay and the minimum-norm solution rotates back as
S = Q diag(s) Q^T.  There every term table contracts to
F(S) = alpha*S + beta*g*tr_g(S) + gamma*g, with no S^T term, so the
equations split:
- off the diagonal, where g is zero, they read (1 - alpha) S_ab = 0, so S
  is diagonal;
- on the diagonal, with the trace row diag(1/mu), they form one
  (n+1) x n system, whose coefficients n + 1 probes read: the zero form
  and each E_aa, contracted term by term without an n^4 grid.
That system alone sets the solution, its gap and the singular verdict: for
n >= 3 it acts as (1 - alpha)*I on the vectors orthogonal to mu and 1/mu,
so |1 - alpha| is one of its singular values at least n - 2 times.  (At
n = 2, 1 - alpha is the constant 1 for qc and 2 for W2; the pp value
1 + b/a is a singular value of its system at every n.)  F is not a closed
form, so the check of the closed-form alpha stays independent of it; the
brute-force twin trials certify the reconstruction and its contraction
with index loops.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .classify import (HyperQuasiConstantFit, PseudoQuasiConstantFit, _einstein_values,
                       _linear_fit, _quasi_constant_values, _quasi_einstein_values)
from .errors import (CurvError, DegenerateParams, InvalidParams,
                     SingularMetric, ZeroScalarCurvature)
from .gencurv import (GenCurvParams, _combined_values, _dimension, _flat_alpha,
                      _flat_ricci, _flat_values, _require, qc_flat_alpha,
                      reconstruct_pp_flat, reconstruct_qc_flat, reconstruct_w2_flat)
from .tensor import (_HYPER_TERMS, _PSEUDO_TERMS, MAX_DIM, CurvatureBundle, Metric,
                     _ArrayRecord, _as_array, _expand_block, _instance, _lift,
                     _lstsq_kernel, _max_abs_items, _norm_sq_values, _outer, _relative,
                     _ricci_contract_values, _scalar_curvature_values, _tolerance,
                     _validate_metrics, max_abs, ricci_contract, scalar_curvature)
from .wrs import _t_identity_defects, a_from_bd

__all__ = [
    "TrialConfig", "PointModel", "CheckResult", "HarnessReport",
    "random_point_model", "verify_section2", "verify_section3",
    "verify_section4", "verify_all",
    "product_ricci_form", "flat_ricci_form", "rank_one_coefficient",
]

REJECT_TOL = 1e-6
REDRAW_CAP = 100
# trials at n = 4; a check's work grows as n^4 per trial, so the cap is on
# trials * n^4 (6,250 trials at n = 8, 390 at n = 16)
MAX_TRIALS = 100_000
# Trials run in blocks: the largest array of a block's trials, stacked,
# stays within this many bytes (at least one trial per block).
BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class TrialConfig:
    """Seeded configuration for one harness run.  The seed is non-negative,
    and n > 3 is required: every chain under test is stated for dimension
    greater than three.  n is bounded by MAX_DIM, and trials * n^4 by
    MAX_TRIALS * 4^4.  Any other value, or a seed, trials or n that is not
    an integer, a tolerance that is not a number or params that are not
    GenCurvParams, raises InvalidParams."""

    seed: int
    trials: int = 100
    n: int = 4
    params: GenCurvParams = field(default_factory=GenCurvParams)
    tolerance: float = 1e-8

    def __post_init__(self):
        for name in ("seed", "trials", "n"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise InvalidParams(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.params, GenCurvParams):
            raise InvalidParams(f"params must be a GenCurvParams, got {self.params!r}")
        if self.seed < 0:
            raise InvalidParams(f"seed must be non-negative, got {self.seed}")
        if self.n <= 3:
            raise InvalidParams(f"the verified chains require n > 3, got n={self.n}")
        if self.n > MAX_DIM:
            raise InvalidParams(f"n={self.n} exceeds the dimension limit {MAX_DIM}")
        limit = MAX_TRIALS * 4 ** 4 // self.n ** 4
        if not 1 <= self.trials <= limit:
            raise InvalidParams(f"trials must be between 1 and {limit} at n={self.n}, "
                                f"got {self.trials}")
        if not (isinstance(self.tolerance, numbers.Real) and 0.0 < self.tolerance < math.inf):
            raise InvalidParams("tolerance must be positive and finite")


@dataclass(frozen=True, eq=False)
class PointModel(_ArrayRecord):
    """Random pointwise data with a rank-one Ricci form S = coeff * t(x)t.
    Models compare and hash by identity."""

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
    """The components M of a metric g = M^T M + n*I (see `_metrics`)."""
    return rng.standard_normal((n, n))


def _metrics(m: np.ndarray) -> np.ndarray:
    """g = M^T M + n*I for components M stacked on leading axes: positive
    definite by construction, with smallest eigenvalue >= n."""
    n = m.shape[-1]
    return m.swapaxes(-1, -2) @ m + n * np.eye(n)


def _draw_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def _draw_scalar(rng: np.random.Generator, lo: float = 0.2, hi: float = 2.0) -> float:
    # the sign reads the stream as rng.choice([-1.0, 1.0]) does
    return float(rng.uniform(lo, hi) * (-1.0, 1.0)[rng.integers(2)])


def _draw_point(rng: np.random.Generator, n: int):
    """The draws of a point model: metric components, c and t."""
    return _draw_metric(rng, n), _draw_scalar(rng), rng.standard_normal(n)


def random_point_model(seed, n: int) -> PointModel:
    """Seeded pointwise data in dimension n, an integer from 2 to MAX_DIM
    checked before any draw; `seed` is an int, a seed sequence or a Generator.
    g = M^T M + n*I for random M (positive definite by construction, smallest
    eigenvalue >= n), and S = c * t(x)t with |c| in [0.2, 2] and t a
    standard normal covector."""
    n = _dimension(n, MAX_DIM)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    m, c, t = _draw_point(rng, n)
    return PointModel(g=Metric(_metrics(m)), ricci=c * np.outer(t, t), coeff=c, t=t)


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
    n = _instance(g, Metric, "g").n
    a_form, d_form = _as_array(a_form, "a_form", 1, n), _as_array(d_form, "d_form", 1, n)
    b_form, b_bar = _as_array(b_form, "b_form", 1, n), _as_array(b_bar, "b_bar", 1, n)
    s, clear = _pairing(g.inv, a_form, d_form, b_form)
    if not clear:
        raise DegenerateParams(
            f"pairing (a-d)(b-dual) = {s:g} is numerically zero")
    return _product_matrix(a_form, d_form, b_bar, s), float(s)


def flat_ricci_form(g: Metric, b_form, b_bar, d_form, d_bar, r: float
                    ) -> np.ndarray:
    """The Ricci form obtained by substituting the closed form of the first
    1-form, a = -(b_bar + d_bar)/r, into the product form:

        S = -(1/(s*r)) (b_bar + d_bar)(x)b_bar - (1/s) d(x)b_bar

    with s the pairing scalar of that substituted a against d and b."""
    r = float(_as_array(r, "r", 0))
    if abs(r) <= REJECT_TOL:
        raise DegenerateParams(f"scalar curvature r = {r:g} is numerically zero")
    n = _instance(g, Metric, "g").n
    b_bar = _as_array(b_bar, "b_bar", 1, n)
    a_form = _flat_first_form(b_bar, _as_array(d_bar, "d_bar", 1, n), r)
    return product_ricci_form(g, a_form, d_form, b_form, b_bar)[0]


def rank_one_coefficient(g: Metric, ricci, t) -> float:
    """The coefficient r / T(rho) of a rank-one Ricci form S = c * t(x)t,
    where T(rho) is the squared metric norm of t.  Raises DegenerateParams
    when t is numerically zero (the degenerate T(rho) = 0 case the chains
    rule out)."""
    t = _as_array(t, "t", 1, _instance(g, Metric, "g").n)
    t_rho, clear = _difference_norm(g.inv, t)
    if not clear:
        raise _zero_difference_form(t_rho)
    return scalar_curvature(ricci, g) / float(t_rho)


# --------------------------------------------------------------------------
# The self-consistency solver (contraction fixed point)

def selfconsistent_ricci(g: Metric, r: float, params: GenCurvParams,
                         flavor: str) -> np.ndarray:
    """Solve S = ricci_contract(reconstruct_<flavor>_flat(S, g, r)) for S,
    with the scalar curvature pinned by the extra row tr_g(S) = r, as one
    (n+1) x n system on the diagonal of S in the frame of eigh(g) (see the
    module docstring).  The solution is the unique Ricci tensor consistent
    with the vanishing of the chosen generalized tensor at this (g, r).
    (The trace row matters for the W2 flavor, whose fixed-point set without
    it is the whole Einstein line; for the other two it is consistent with
    the already-unique fixed point.)
    It is solved by `tensor._lstsq_kernel`, the one least-squares solve,
    and is singular when it has a kernel under the cut every fit applies."""
    gm = _instance(g, Metric, "g").mat[None]
    return _fixed_point(gm, _as_array(r, "r", 0).reshape(1),
                        _instance(params, GenCurvParams, "params"), flavor)[0]


def _fixed_point(gm: np.ndarray, r, params: GenCurvParams, flavor: str) -> np.ndarray:
    """`selfconsistent_ricci` for metrics and scalar curvatures stacked on
    one leading axis: the (n+1) x n diagonal system of each, solved for the
    stack in one `_lstsq_kernel` call.  Raises DegenerateParams for the
    first system that is singular or inconsistent, its index as `item`."""
    n = gm.shape[-1]
    _require(flavor, params, n)
    mu, q = np.linalg.eigh(gm)
    eye = np.eye(n)
    # the zero form, then each E_aa
    probes = np.concatenate([np.zeros((1, n, n)), eye[:, :, None] * eye])
    images = _flat_ricci(flavor, probes, (mu[:, :, None] * eye)[:, None],
                         (eye / mu[:, :, None])[:, None], _lift(r, 1), params)
    diagonals = np.diagonal(images, axis1=-2, axis2=-1)  # stack axis outermost
    affine = diagonals[:, 0]
    # column b is the diagonal of the image of E_bb, then the trace row
    images_dd = diagonals[:, 1:] - affine[:, None]  # [b, a]: E_bb to entry (a, a)
    lhs = np.concatenate([eye - images_dd.swapaxes(-1, -2), 1.0 / mu[:, None, :]], axis=-2)
    rhs = np.concatenate([affine, _lift(r, 1)], axis=-1)
    s, kernel_dim, _ = _lstsq_kernel(lhs, rhs)
    gap = _max_abs_items((lhs @ s[..., None])[..., 0] - rhs, 1)
    failed = (kernel_dim > 0) | (gap > _tolerance(1e-8, np.abs(r)))
    if failed.any():
        k = int(np.argmax(failed))
        raise DegenerateParams(
            "the contraction fixed-point system is singular for these weights"
            if kernel_dim[k] else
            f"the contraction fixed-point system is inconsistent (gap {gap[k]:g})").at(k)
    return (q * s[:, None, :]) @ q.swapaxes(-1, -2)


# --------------------------------------------------------------------------
# Check runners

class _Check(NamedTuple):
    """One randomized check.  `draw(rng, n)` draws one attempt: its metric's
    components M (see `_metrics`), then its other draws.
    `accept(gm, ginv, *draws)` says which attempts of a stack are not
    degenerate, the check's only rejection (None: every attempt is a
    trial).
    `compute(config, gm, ginv, *draws)` takes a stack of trials and returns
    the residual of each and a dict of per-trial extras, reported as their
    maximum; a failure raises the CurvError of the first trial that fails,
    its index in `item` (None: the first trial).  `footprint(n)` is the
    number of floats of the largest array a trial stacks in `compute`,
    intermediates included, which sets the size of a block: a block's
    largest array stays within BLOCK_BYTES."""

    draw: Callable
    compute: Callable
    accept: Callable | None = None
    footprint: Callable = lambda n: n ** 4


def _compute_block(check: _Check, config: TrialConfig, stack):
    """The residuals and extras of a block's trials, up to the first trial
    whose computation fails, and the error that ends the check there, or
    None.  On a failure at trial k the block is computed again on its first
    k trials, which may fail earlier still."""
    end, error = len(stack[0]), None
    while end:
        try:
            residuals, extras = check.compute(config, *(column[:end] for column in stack))
            return residuals, extras, error
        except CurvError as exc:
            end, error = exc.item or 0, exc
    return np.zeros(0), {}, error


def _run_check(name: str, check: _Check, config: TrialConfig, section: int,
               index: int, trials: int | None = None) -> CheckResult:
    """Run `trials` trials of a check (default config.trials), one round at
    a time: draw a round, compute its trials in blocks, draw the next.

    A round's attempts are drawn in stream order: the trials still needed,
    but no more than the attempts whose metrics fit BLOCK_BYTES (at least
    256 at n <= 8).  Its metrics are formed, validated and judged as one
    stack, so a check of at most that many trials whose attempts are all
    accepted validates its metrics once, and no array grows with the number
    of trials a check runs.  Trial k is the k-th accepted attempt, so every
    trial gets the draws it had when each attempt was drawn and judged on
    its own.  REDRAW_CAP consecutive rejections by `check.accept`, counted
    across rounds, end the check at the trial they were drawn for; so does
    an attempt whose metric fails, after the verdicts on the attempts before
    it.  The round's accepted trials are computed before either error is
    reported, so a compute failure at an earlier trial wins."""
    n = config.n
    rng = np.random.default_rng([config.seed, section, index])
    trials = config.trials if trials is None else trials
    cap = max(1, BLOCK_BYTES // (8 * n * n))
    block = max(1, BLOCK_BYTES // (8 * check.footprint(n)))
    filled, misses, error, worst, extra = 0, 0, None, 0.0, {}
    while filled < trials and error is None:
        stack = [np.array(column) for column in
                 zip(*(check.draw(rng, n) for _ in range(min(trials - filled, cap))))]
        stack[0] = _metrics(stack[0])
        try:
            stack[:1] = _validate_metrics(stack[0])
        except SingularMetric as exc:  # the check ends at that attempt
            error, stack = exc, [column[:exc.item] for column in stack]
            stack[:1] = _validate_metrics(stack[0])
        verdicts = (np.ones(len(stack[0]), dtype=bool) if check.accept is None
                    else check.accept(*stack))
        for k, accepted in enumerate(verdicts):
            misses = 0 if accepted else misses + 1
            if misses == REDRAW_CAP:
                error, verdicts = DegenerateParams("redraw cap exhausted"), verdicts[:k]
                break
        stack = [column[:len(verdicts)][verdicts] for column in stack]
        filled += len(stack[0])
        for start in range(0, len(stack[0]), block):
            residuals, extras, failure = _compute_block(
                check, config, [column[start:start + block] for column in stack])
            worst = float(np.max(residuals, initial=worst))
            for k, v in extras.items():
                extra[k] = float(np.max(v, initial=extra.get(k, 0.0)))
            if failure is not None:
                error = failure
                break
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
        s_star = _fixed_point(gm, r, params, flavor)
        alpha = _flat_alpha(flavor, n, r, params)
        residual = _relative(s_star - _lift(alpha, 2) * gm, np.abs(alpha), 2)
        # the forced Ricci is Einstein by construction; report that too
        return np.maximum.reduce([residual, _einstein_values(s_star, gm, ginv)[1]]), {}
    return _Check(draw, compute, footprint=lambda n: (n + 1) * n * n)


def _draw_pairing(rng, n):
    return _draw_metric(rng, n), *rng.standard_normal((4, n))


def _accept_pairing(gm, ginv, a_form, d_form, b_form, b_bar):
    return _pairing(ginv, a_form, d_form, b_form)[1]


def _pairing_identity(config, gm, ginv, a_form, d_form, b_form, b_bar):
    """The two-sided cancellation behind the product Ricci form: with
    S = (1/s)(a - d)(x)b_bar, the combination
    (a - d)(X) b_bar(Y) - s * S(X, Y) vanishes identically."""
    s, _ = _pairing(ginv, a_form, d_form, b_form)
    scaled = _lift(s, 2) * _product_matrix(a_form, d_form, b_bar, s)
    lhs = _outer(a_form - d_form, b_bar) - scaled
    return _relative(lhs, _max_abs_items(scaled, 2), 2), {}


def _flat_weights(flavor: str, n: int, r, params: GenCurvParams):
    """(c/a, -b/a) of the flat reconstruction R = (c/a)*G - (b/a)*B(S) of
    the "qc" or "pp" flavor, as the reconstructions' docstrings write them:
    apart from `gencurv._weights`, so the checks stay independent of it."""
    a, b = params.a, params.b
    if flavor == "qc":
        return (r / n) * (1.0 / (n - 1) + 2.0 * b / a), -(b / a)
    return (r / (a * n)) * (a / (n - 1) + b), -(b / a)


def _flat_fit_check(flavor: str) -> _Check:
    """Reconstruct the curvature from the substituted Ricci form and fit the
    corresponding shape family; the fit must reproduce the exact closed-form
    coefficients (up to the documented trace gauge)."""
    terms, gauge_weight = (HyperQuasiConstantFit if flavor == "qc"
                           else PseudoQuasiConstantFit).shape

    def draw(rng, n):
        # the covectors in the order flat_ricci_form takes them
        return (_draw_metric(rng, n), _draw_scalar(rng, lo=0.5, hi=3.0) * n,
                *rng.standard_normal((4, n)))

    def accept(gm, ginv, r, b_form, b_bar, d_form, d_bar):
        a_form = _flat_first_form(b_bar, d_bar, r)
        return (np.abs(r) > REJECT_TOL) & _pairing(ginv, a_form, d_form, b_form)[1]

    def compute(config, gm, ginv, r, b_form, b_bar, d_form, d_bar):
        n, params = config.n, config.params
        a_form = _flat_first_form(b_bar, d_bar, r)
        s = _product_matrix(a_form, d_form, b_bar, _pairing(ginv, a_form, d_form, b_form)[0])
        # the reconstruction checks the weights before the oracle divides by a
        riemann = _flat_values(flavor, s, gm, r, params)
        alpha, beta = _flat_weights(flavor, n, r, params)
        p_true = beta * s
        trace = _scalar_curvature_values(ginv, p_true)
        fit_a, fit_p, fit_residual, _ = _linear_fit(riemann, gm, ginv, terms, gauge_weight)
        a_true = alpha + gauge_weight * trace / n
        p_hat = p_true - _lift(trace / n, 2) * gm
        return np.maximum.reduce([
            fit_residual, _relative(fit_a - a_true, np.abs(a_true), 0),
            _relative(fit_p - p_hat, _max_abs_items(p_hat, 2), 2)]), {}
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
        k = int(np.argmin(clear))
        raise _zero_difference_form(t_rho[k]).at(k)
    return ricci, r, t_rho, r / t_rho


def _rank_one(config, gm, ginv, c, t):
    """Rank-one Ricci data: the coefficient is exactly r / T(rho), and both
    T-identities hold with zero residual."""
    ricci, r, _, coeff = _rank_one_data(ginv, c, t)
    # the T-identities of the forms (a, b, d) = (0, t, 0), so T = t
    tq, ts = _t_identity_defects(t, ginv @ ricci, r, ricci)
    scale = _max_abs_items(ricci, 2) * (1.0 + _max_abs_items(t, 1))
    return np.maximum.reduce([_relative(coeff - c, np.abs(c), 0), _relative(tq, scale, 1),
                              _relative(ts, scale, 3)]), {}


def _qc_quasi_constant(config, gm, ginv, c, t):
    """Plugging the rank-one Ricci into the quasi-conformal reconstruction
    lands exactly on the quasi-constant-curvature family; the fit must
    recover the closed-form wedge and block coefficients."""
    n = config.n
    params = config.params
    ricci, r, t_rho, coeff = _rank_one_data(ginv, c, t)
    riemann = _flat_values("qc", ricci, gm, r, params)
    contracted = _ricci_contract_values(ginv, riemann)
    fit_a, fit_b, a_form, fit_residual = _quasi_constant_values(
        riemann, gm, ginv, contracted, max(config.tolerance, 1e-8))
    l_true, beta = _flat_weights("qc", n, r, params)
    delta_true = beta * coeff
    b_true = delta_true * t_rho
    delta_rec = fit_b / t_rho
    weyl = _combined_values("weyl", riemann, gm, contracted,
                            _scalar_curvature_values(ginv, contracted), None)
    return (np.maximum.reduce([
        fit_residual, _relative(fit_a - l_true, np.abs(l_true), 0),
        _relative(fit_b - b_true, np.abs(b_true), 0),
        _relative(delta_rec - delta_true, np.abs(delta_true), 0),
        _direction_gap(a_form, t, t_rho)]),
        {"weyl_norm": _max_abs_items(weyl, 4)})


def _pp_quasi_constant(config, gm, ginv, c, t):
    """Same closed-form recovery for the pseudo-projective reconstruction of
    rank-one Ricci data, against the two-term shape family."""
    n = config.n
    params = config.params
    ricci, r, t_rho, coeff = _rank_one_data(ginv, c, t)
    riemann = _flat_values("pp", ricci, gm, r, params)
    fit_a, fit_p, fit_residual, _ = _linear_fit(riemann, gm, ginv, *PseudoQuasiConstantFit.shape)
    gamma1, beta = _flat_weights("pp", n, r, params)
    delta1 = beta * coeff
    a_true = gamma1 + delta1 * t_rho / n
    p_hat = _lift(delta1, 2) * (_outer(t, t) - _lift(t_rho / n, 2) * gm)
    unit = t / _lift(np.sqrt(t_rho), 1)
    along = (((unit[..., None, :] @ ginv) @ fit_p) @ ginv) @ unit[..., :, None]
    delta_rec = along[..., 0, 0] / (t_rho * (1.0 - 1.0 / n))
    return np.maximum.reduce([
        fit_residual, _relative(fit_a - a_true, np.abs(a_true), 0),
        _relative(fit_p - p_hat, _max_abs_items(p_hat, 2), 2),
        _relative(delta_rec - delta1, np.abs(delta1), 0)]), {}


def _bd_expansion_check(flavor: str) -> _Check:
    """Expanding the difference form t = b - d inside a t(x)t block must equal
    the bilinear block built from b(x)b - b(x)d - d(x)b + d(x)d: for "qc" the
    four-term block against the four-term block at t(x)t (the dedicated
    `quasi_constant_shape`), otherwise the two-term block against itself at
    t(x)t."""
    terms = _HYPER_TERMS if flavor == "qc" else _PSEUDO_TERMS

    def draw(rng, n):
        return _draw_metric(rng, n), *rng.standard_normal((2, n)), _draw_scalar(rng)

    def compute(config, gm, ginv, b_form, d_form, delta):
        t = b_form - d_form
        bd_block = _lift(delta, 2) * (_outer(b_form, b_form) - _outer(b_form, d_form)
                                      - _outer(d_form, b_form) + _outer(d_form, d_form))
        lhs = _expand_block(terms, gm, bd_block)
        rhs = _expand_block(terms, gm, _outer(t, t))
        rhs *= _lift(delta, 4)
        np.subtract(lhs, rhs, out=lhs)
        return _relative(lhs, _max_abs_items(rhs, 4), 4), {}
    return _Check(draw, compute)


def _w2_rank_one(config, gm, ginv, c, t):
    """Rank-one Ricci through the W2 reconstruction: the round trip through
    the W2 combination is exactly zero and the quasi-Einstein decomposition
    recovers (p, q, omega) = (0, r, t-direction)."""
    s, r, t_rho, _ = _rank_one_data(ginv, c, t)
    riemann = _flat_values("w2", s, gm, 0.0, None)
    roundtrip = _relative(_combined_values("w2", riemann, gm, s, r, None),
                          _max_abs_items(riemann, 4), 4)
    qe_p, qe_q, omega, _ = _quasi_einstein_values(s, gm, ginv)
    return np.maximum.reduce([roundtrip, _relative(qe_p, np.abs(r), 0),
                              _relative(qe_q - r, np.abs(r), 0),
                              _direction_gap(omega, t, t_rho)]), {}


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
        fast = (reconstruct_qc_flat(s, g, r, params) if flavor == "qc" else
                reconstruct_pp_flat(s, g, r, params) if flavor == "pp" else
                reconstruct_w2_flat(s, g))
        # the loops read Python floats: numpy scalars, one entry at a time,
        # would make the same products several times slower
        gm, ginv, s = g.mat.tolist(), g.inv.tolist(), s.tolist()
        # each flavor's entry R[i,j,k,l], as its reconstruction's docstring
        # writes it
        if flavor == "w2":
            def entry(i, j, k, l):
                return (gm[j][k] * s[i][l] - gm[i][k] * s[j][l]) / (n - 1)
        else:
            coeff, beta = _flat_weights(flavor, n, r, params)

            def entry(i, j, k, l):
                block = s[j][k] * gm[i][l] - s[i][k] * gm[j][l]
                if flavor == "qc":  # the four-term block
                    block = block + gm[j][k] * s[i][l] - gm[i][k] * s[j][l]
                return beta * block + coeff * (gm[j][k] * gm[i][l] - gm[i][k] * gm[j][l])
        # one pass over the grid lists each entry in C order and adds it into
        # its contraction slow[j][k] = sum over (i, l) of ginv[i][l] * entry
        loops, slow = [], [[0.0] * n for _ in range(n)]
        for i, j, k, l in itertools.product(range(n), repeat=4):
            loops.append(entry(i, j, k, l))
            slow[j][k] += ginv[i][l] * loops[-1]
        loops, slow = np.array(loops).reshape((n,) * 4), np.array(slow)
        worst = _relative(fast.values - loops, fast.norm(), 4)
        # contraction twin: the loop sums against the einsum path
        contracted = ricci_contract(fast, g)
        return max(worst, _relative(contracted - slow, max_abs(slow), 2))

    def compute(config, gm, ginv, c, t):
        # no extras, so a failure charged to the first trial reads the same
        return np.array([check(config, Metric(g), c_k * np.outer(t_k, t_k))
                         for g, c_k, t_k in zip(gm, c, t)]), {}
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
    _instance(config, TrialConfig, "config")
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
