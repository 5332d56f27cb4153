"""The harness draws each check's trials one attempt at a time and computes
them as stacks, in blocks.  These tests pin what that must not change:
every trial's draws (against a loop that redraws each trial on its own),
the reports recorded before trials were stacked, and which trial a failure
is charged to; and they bound, without timing anything, how often metrics
are validated and how large a stacked grid gets."""

import contextlib
import io
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from curvkit import cli, harness, tensor
from curvkit.errors import NotQuasiConstant
from curvkit.harness import TrialConfig
from oracles import sequential_trials

REFERENCE = Path(__file__).parent / "data" / "verify_reference.json"


# --------------------------------------------------------------------------
# The attempt stream, drawn again one attempt at a time

def _metric(rng, n):
    m = rng.standard_normal((n, n))
    return m.T @ m + n * np.eye(n)


def _scalar(rng, lo=0.2, hi=2.0):
    return float(rng.uniform(lo, hi) * rng.choice([-1.0, 1.0]))


def _covector(rng, n):
    return rng.standard_normal(n)


def _covectors(rng, n, count):
    return [_covector(rng, n) for _ in range(count)]


def _pairing_degenerate(g, a_form, d_form, b_form):
    s = (a_form - d_form) @ np.linalg.solve(g, b_form)
    scale = ((1 + np.abs(a_form).max() + np.abs(d_form).max())
             * (1 + np.abs(b_form).max()))
    return abs(s) <= harness.REJECT_TOL * scale


def _draw_pairing(rng, n):
    g = _metric(rng, n)
    return (g, *_covectors(rng, n, 4))


def _pairing_rejects(attempt):
    g, a_form, d_form, b_form, _ = attempt
    return _pairing_degenerate(g, a_form, d_form, b_form)


def _draw_flat(rng, n):
    g = _metric(rng, n)
    r = _scalar(rng, 0.5, 3.0) * n
    return (g, r, *_covectors(rng, n, 4))


def _flat_rejects(attempt):
    g, r, b_form, b_bar, d_form, d_bar = attempt
    if abs(r) <= harness.REJECT_TOL:
        return True
    return _pairing_degenerate(g, -(b_bar + d_bar) / r, d_form, b_form)


def _draw_rank_one(rng, n):
    g = _metric(rng, n)
    c = _scalar(rng)
    return g, c, _covector(rng, n)


def _rank_one_rejects(attempt):
    g, _, t = attempt
    return t @ np.linalg.solve(g, t) <= harness.REJECT_TOL ** 2


# (section, index) of each check whose trials come from these draws
STREAMS = {
    "pairing": (_draw_pairing, _pairing_rejects, [(2, 1), (3, 1), (4, 1)]),
    "flat": (_draw_flat, _flat_rejects, [(2, 2), (3, 2)]),
    "rank_one": (_draw_rank_one, _rank_one_rejects, [(2, 4), (3, 4), (4, 2)]),
}


def _recorded(section, index, config, trials=None):
    """Run one check with its compute phase replaced by a recorder: the
    report, and the draws each trial was computed on, stacked."""
    name, check, _ = harness._SECTIONS[section][1][index]
    seen = []

    def record(config, gm, ginv, *draws):
        seen.append((gm, *draws))
        return np.zeros(len(gm)), {}

    result = harness._run_check(name, check._replace(compute=record),
                                config, section, index, trials)
    return result, [np.concatenate(column) for column in zip(*seen)]


def _sequential(stream, section, index, config, trials):
    draw, rejects, _ = STREAMS[stream]
    rng = np.random.default_rng([config.seed, section, index])
    return sequential_trials(rng, lambda rng: draw(rng, config.n), rejects,
                             trials, harness.REDRAW_CAP)


def _assert_same_draws(columns, attempts):
    assert len(columns[0]) == len(attempts)
    for k, attempt in enumerate(attempts):
        g = attempt[0]
        assert np.array_equal(columns[0][k], 0.5 * (g + g.T)), k
        for column, value in zip(columns[1:], attempt[1:]):
            assert np.array_equal(column[k], value), k


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_trials_get_the_draws_of_the_sequential_loop(stream, n):
    for seed in (1, 3):
        config = TrialConfig(seed=seed, trials=30, n=n)
        for section, index in STREAMS[stream][2]:
            result, columns = _recorded(section, index, config)
            attempts, exhausted = _sequential(stream, section, index, config, 30)
            assert exhausted is None and result.note == ""
            _assert_same_draws(columns, attempts)


@pytest.mark.parametrize("stream,tol", [("pairing", 0.02), ("flat", 0.02),
                                        ("rank_one", 0.6)])
def test_rejected_attempts_are_skipped_as_the_loop_skips_them(monkeypatch, stream, tol):
    # at n = 4 these tolerances reject about a third of all attempts
    monkeypatch.setattr(harness, "REJECT_TOL", tol)
    config = TrialConfig(seed=2, trials=60, n=4)
    for section, index in STREAMS[stream][2]:
        _, columns = _recorded(section, index, config)
        attempts, exhausted = _sequential(stream, section, index, config, 60)
        assert exhausted is None
        _assert_same_draws(columns, attempts)
        # the rejections happened: the stream ran past the trials
        rng = np.random.default_rng([config.seed, section, index])
        draw, rejects, _ = STREAMS[stream]
        rejected = sum(rejects(a)
                       for a in (draw(rng, 4) for _ in range(60)))
        assert 10 <= rejected <= 35


def test_exhausted_redraw_cap_ends_the_check_at_its_trial(monkeypatch):
    monkeypatch.setattr(harness, "REJECT_TOL", 0.6)
    monkeypatch.setattr(harness, "REDRAW_CAP", 2)
    section, index = 2, 4  # qc_quasi_constant_fit: rank-one draws, an extra
    name, check, _ = harness._SECTIONS[section][1][index]
    for seed in range(40):
        config = TrialConfig(seed=seed, trials=40, n=4)
        attempts, exhausted = _sequential("rank_one", section, index, config, 40)
        if exhausted is not None and exhausted >= 2:
            break
    else:
        pytest.fail("no seed exhausts the cap after trial 1")
    result, columns = _recorded(section, index, config)
    _assert_same_draws(columns, attempts)
    assert len(attempts) == exhausted
    result = harness._run_check(name, check, config, section, index)
    assert result.note == "error: redraw cap exhausted"
    assert math.isinf(result.max_residual) and not result.passed
    before = harness._run_check(name, check, config, section, index, exhausted)
    assert before.note == "" and set(before.extra) == {"weyl_norm"}
    assert result.extra == before.extra


# BLOCK_BYTES that cap a draw round at 1 and at 7 attempts at n = 4, so that
# the checks above draw their tens of trials in many rounds
SMALL_ROUNDS = [8 * 4 * 4, 8 * 4 * 4 * 7]


@pytest.mark.parametrize("block_bytes", SMALL_ROUNDS)
@pytest.mark.parametrize("stream,tol", [("pairing", 0.02), ("flat", 0.02),
                                        ("rank_one", 0.6)])
def test_rejected_attempts_across_small_draw_rounds(monkeypatch, stream, tol, block_bytes):
    monkeypatch.setattr(harness, "BLOCK_BYTES", block_bytes)
    test_rejected_attempts_are_skipped_as_the_loop_skips_them(monkeypatch, stream, tol)


@pytest.mark.parametrize("stream,section,index,n,seed,rejected", [
    ("pairing", 3, 1, 4, 26, 36),   # pp_product_ricci_identity
    ("flat", 2, 2, 5, 45, 64),      # qc_hyper_fit
    ("pairing", 2, 1, 8, 21, 8),    # qc_product_ricci_identity
])
def test_a_natural_rejection_is_redrawn_as_the_loop_redraws_it(stream, section, index, n,
                                                                seed, rejected):
    # REJECT_TOL as shipped: these seeds draw one degenerate attempt each
    config = TrialConfig(seed=seed, trials=100, n=n)
    result, columns = _recorded(section, index, config)
    attempts, exhausted = _sequential(stream, section, index, config, 100)
    assert exhausted is None and result.note == ""
    _assert_same_draws(columns, attempts)
    draw, rejects, _ = STREAMS[stream]
    rng = np.random.default_rng([seed, section, index])
    stream_attempts = [draw(rng, n) for _ in range(101)]
    assert [k for k, a in enumerate(stream_attempts) if rejects(a)] == [rejected]


@pytest.mark.parametrize("block_bytes", SMALL_ROUNDS)
def test_exhausted_redraw_cap_across_small_draw_rounds(monkeypatch, block_bytes):
    # the consecutive rejections are counted across rounds
    monkeypatch.setattr(harness, "BLOCK_BYTES", block_bytes)
    test_exhausted_redraw_cap_ends_the_check_at_its_trial(monkeypatch)


# --------------------------------------------------------------------------
# Reports recorded before trials were stacked

def _verify(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("case", json.loads(REFERENCE.read_text()),
                         ids=lambda case: " ".join(case["argv"][3:]))
def test_verify_matches_the_recorded_reports(case):
    code, report = _verify(case["argv"])
    expected = case["report"]
    assert code == case["exit"] == report["exit_status"] == expected["exit_status"]
    assert report["verdicts"] == expected["verdicts"]
    assert [c["name"] for c in report["checks"]] == [c["name"] for c in expected["checks"]]
    for got, want in zip(report["checks"], expected["checks"]):
        for key in ("trials", "passed", "note"):
            assert got[key] == want[key], (got["name"], key)
        assert sorted(got["extra"]) == sorted(want["extra"]), got["name"]
        pairs = [(got["max_residual"], want["max_residual"])]
        pairs += [(got["extra"][k], want["extra"][k]) for k in want["extra"]]
        for value, recorded in pairs:
            assert abs(value - recorded) <= 1e-12, got["name"]


# --------------------------------------------------------------------------
# Which trial a failure is charged to

def test_compute_failure_is_charged_to_its_trial(monkeypatch):
    section, index = 2, 4
    name, check, _ = harness._SECTIONS[section][1][index]
    config = TrialConfig(seed=7, trials=10, n=4)
    _, columns = _recorded(section, index, config)
    third = columns[0][3]
    fit = harness._quasi_constant_values

    def failing(rv, gm, *args):
        # the stacked fit raises for its first failing grid, with its index
        hit = [k for k, g in enumerate(gm) if np.array_equal(g, third)]
        if hit:
            raise NotQuasiConstant(f"forced at g00 = {third[0, 0]!r}").at(hit[0])
        return fit(rv, gm, *args)

    monkeypatch.setattr(harness, "_quasi_constant_values", failing)
    result = harness._run_check(name, check, config, section, index)
    assert result.note == f"error: forced at g00 = {third[0, 0]!r}"
    assert math.isinf(result.max_residual) and not result.passed
    before = harness._run_check(name, check, config, section, index, 3)
    assert set(result.extra) == {"weyl_norm"}
    assert result.extra == before.extra


def _forced_at_trial_3(monkeypatch, force):
    """qc_einstein_contraction over 10 trials, one block, with the rank
    rule's verdict on trial 3 changed by `force(cut, kernel_dim)` in every
    stack that holds trial 3.  Returns the result, the result of trials 0-2
    alone, and the sizes of the stacks the rule judged for the first."""
    section, index = 2, 0
    name, check, _ = harness._SECTIONS[section][1][index]
    sizes = []
    rule = tensor._kernel_rule

    def forced(sigma, columns):
        sizes.append(len(sigma))
        cut, kernel_dim = rule(sigma, columns)
        if len(sigma) > 3:
            force(cut, kernel_dim)
        return cut, kernel_dim

    monkeypatch.setattr(tensor, "_kernel_rule", forced)
    config = TrialConfig(seed=1, trials=10, n=4)
    result = harness._run_check(name, check, config, section, index)
    judged = list(sizes)
    before = harness._run_check(name, check, config, section, index, 3)
    assert math.isinf(result.max_residual) and not result.passed
    assert before.passed and result.extra == before.extra
    return result, before, judged


def test_singular_fixed_point_system_at_trial_3(monkeypatch):
    def singular(cut, kernel_dim):
        kernel_dim[3] += 1

    result, _, judged = _forced_at_trial_3(monkeypatch, singular)
    assert result.note == ("error: the contraction fixed-point system is "
                           "singular for these weights")
    # the block's 10 trials solved in one stack, then trials 0-2 again for
    # their extras
    assert judged == [10, 3]


def test_inconsistent_fixed_point_system_at_trial_3(monkeypatch):
    def inconsistent(cut, kernel_dim):
        cut[3] = np.inf  # every singular value of trial 3 cut, none counted

    result, _, judged = _forced_at_trial_3(monkeypatch, inconsistent)
    # trial 3 solves to S = 0, which misses the trace row r != 0
    match = re.fullmatch(r"error: the contraction fixed-point system is "
                         r"inconsistent \(gap (.+)\)", result.note)
    assert match and float(match.group(1)) > 1e-8
    assert judged == [10, 3]


def test_stack_wide_failure_is_charged_to_the_first_trial():
    config = TrialConfig(seed=1, trials=5, n=4,
                         params=harness.GenCurvParams(a=1.0, b=-0.5))
    report = harness.verify_section2(config)
    contraction = report.checks[0]
    assert contraction.note.startswith("error: 1 + (b/a)(n-2)")
    assert contraction.extra == {}


# --------------------------------------------------------------------------
# Structure, not time

def test_metric_validation_factors_once_per_block(monkeypatch):
    # a check validates its metrics once per round, however many blocks it
    # computes them in, and every 100-trial check is one round
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        if sys._getframe(1).f_code.co_name == "_checked_metrics":
            calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    code, _ = _verify(["verify", "--section", "all", "--n", "5", "--trials", "100"])
    assert code == 0
    checks = sum(len(checks) for _, checks, _ in harness._SECTIONS.values())
    # one factorization per check; the guard trials build six metrics more,
    # and each brute-force twin builds its one trial's Metric again
    twins = sum(name == "brute_force_twin" for _, checks, _ in harness._SECTIONS.values()
                for name, _, _ in checks)
    assert len(calls) <= checks + 6 + twins
    assert max(shape[0] for shape in calls if len(shape) == 3) == 100


def test_no_solve_in_verify_is_wider_than_n_plus_one_columns(monkeypatch):
    n = 8
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    def unreachable(*args, **kwargs):
        raise AssertionError("a system reached np.linalg.lstsq")

    monkeypatch.setattr(np.linalg, "svd", recording)
    monkeypatch.setattr(np.linalg, "lstsq", unreachable)
    code, _ = _verify(["verify", "--section", "all", "--n", str(n), "--trials", "10"])
    assert code == 0
    assert max(shape[-1] for shape in shapes) <= n + 1
    # the contraction fixed point solves only its diagonal systems, stacked
    fixed_points = [shape for shape in shapes if shape[-2:] == (n + 1, n)]
    assert fixed_points and all(len(shape) == 3 for shape in fixed_points)
    assert len(fixed_points) < len(shapes)


@pytest.mark.parametrize("n,trials", [(5, 100), (8, 20)])
def test_no_stacked_grid_exceeds_the_block_budget(monkeypatch, n, trials):
    argv = ["verify", "--section", "all", "--n", str(n), "--trials", str(trials)]
    assert _verify(argv)[0] == 0  # first use: imports and caches, not blocks
    largest = [0]
    expand = tensor._expand_block

    def measured(*args):
        grid = expand(*args)
        largest[0] = max(largest[0], grid.nbytes)
        return grid

    for module in [m for name, m in list(sys.modules.items())
                   if name.startswith("curvkit") and hasattr(m, "_expand_block")]:
        monkeypatch.setattr(module, "_expand_block", measured)
    # the contraction checks stack no grid: their largest array is the
    # n + 1 probe images of each trial, and a block fills most of the budget
    images = [0]
    flat_ricci = harness._flat_ricci

    def measured_images(*args):
        out = flat_ricci(*args)
        images[0] = max(images[0], out.nbytes)
        return out

    monkeypatch.setattr(harness, "_flat_ricci", measured_images)
    # and no einsum of their contraction builds an n^4 intermediate
    contracted = [0]
    einsum = np.einsum

    def measured_einsum(*args, **kwargs):
        out = einsum(*args, **kwargs)
        if sys._getframe(1).f_code.co_name == "_contract_block":
            contracted[0] = max(contracted[0], out.nbytes)
        return out

    monkeypatch.setattr(np, "einsum", measured_einsum)
    # the traced peak of each check, in units of BLOCK_BYTES
    peaks = {}
    run_check = harness._run_check

    def traced(name, *args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = run_check(name, *args)
        peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / harness.BLOCK_BYTES
        return result

    monkeypatch.setattr(harness, "_run_check", traced)
    tracemalloc.start()
    try:
        code, _ = _verify(argv)
    finally:
        tracemalloc.stop()
    assert code == 0
    assert 8 * n ** 4 < largest[0] <= harness.BLOCK_BYTES
    assert harness.BLOCK_BYTES // 2 < images[0] <= harness.BLOCK_BYTES
    assert 0 < contracted[0] <= harness.BLOCK_BYTES
    # a fit check holds a few grids of a block at once (the reconstruction
    # and one fitted grid, into which the misfit is written), the expansion
    # checks write their difference into one of their two grids, and the
    # contraction checks hold fewer arrays of that size
    assert len(peaks) == sum(len(checks) for _, checks, _ in harness._SECTIONS.values())
    assert max(peaks.values()) <= 4.5


def test_a_metric_that_fails_validation_ends_its_check_at_its_trial(monkeypatch):
    index = 4
    name, check, _ = harness._SECTIONS[2][1][index]
    assert name == "quasi_constant_fit"
    config = TrialConfig(seed=3, trials=10, n=4)
    clean = harness._run_check(name, check, config, 2, index, trials=6)
    metrics = harness._metrics

    def negated(m):
        g = metrics(m)
        g[6] = -g[6]  # attempt 6 of the round
        return g

    monkeypatch.setattr(harness, "_metrics", negated)
    result = harness._run_check(name, check, config, 2, index)
    assert result.note == "error: metric is not positive definite"
    assert result.max_residual == math.inf and not result.passed
    # the extras of trials 0 .. 5, as a run of those six trials reports them
    assert result.extra == clean.extra and "weyl_norm" in result.extra


@pytest.mark.parametrize("index", [3, 4], ids=["rank_one_ricci", "quasi_constant_fit"])
def test_a_zero_difference_form_ends_its_check_at_its_trial(index):
    """rank_one_ricci does not redraw, so a t of zero norm at trial 5 reaches
    the rank-one guard; quasi_constant_fit, whose trials report weyl_norm,
    is run the same way with its redraw turned off."""
    section = 2
    name, check, _ = harness._SECTIONS[section][1][index]
    draws = [0]

    def zero_t_at_5(rng, n):
        m, c, t = harness._draw_point(rng, n)
        draws[0] += 1
        return (m, c, np.zeros(n)) if draws[0] == 6 else (m, c, t)

    config = TrialConfig(seed=4, trials=10, n=4)
    result = harness._run_check(name, check._replace(draw=zero_t_at_5, accept=None),
                                config, section, index)
    assert result.note == ("error: difference form has squared norm 0; "
                           "the rank-one coefficient divides by it")
    assert math.isinf(result.max_residual) and not result.passed
    before = harness._run_check(name, check, config, section, index, 5)
    assert before.passed and result.extra == before.extra
    assert set(result.extra) == ({"weyl_norm"} if index == 4 else set())
