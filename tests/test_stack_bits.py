"""A stacked core gives each trial the same bits whatever else shares its
stack.

Each core of classify, gencurv and the harness's fixed point is run on 40
seeded trials as one stack, and again on the same trials split into stacks
of 1, 2 and 7; every output of every trial must be bit-identical.  The
same holds end to end: `verify_all` reports the same residuals whatever
block size `harness.BLOCK_BYTES` sets.
"""

import numpy as np
import pytest

from curvkit import harness
from curvkit.classify import (HyperQuasiConstantFit, PseudoQuasiConstantFit, _einstein_values,
                              _linear_fit, _quasi_constant_values, _quasi_einstein_values)
from curvkit.gencurv import GenCurvParams, _flat_ricci, _flat_values
from curvkit.harness import TrialConfig, _fixed_point, verify_all
from curvkit.tensor import (_HYPER_TERMS, _expand_block, _outer, _ricci_contract_values,
                            _scalar_curvature_values, _validate_metrics, _wedge_values)

TRIALS = 40
PARAMS = GenCurvParams(0.5, 2.0)


def _trials(n, seed):
    """40 seeded trials: metrics and their inverses, a generic
    symmetric form, the scalar curvature of a rank-one Ricci form, a
    quasi-Einstein form, the qc reconstruction of the rank-one form (a
    quasi-constant grid) and a generic grid near a hyper shape."""
    rng = np.random.default_rng([seed, n])
    m = rng.standard_normal((TRIALS, n, n))
    gm, ginv = _validate_metrics(m.swapaxes(-1, -2) @ m + n * np.eye(n))
    sym = rng.standard_normal((TRIALS, n, n))
    sym = sym + sym.swapaxes(-1, -2)
    t = rng.standard_normal((TRIALS, n))
    ricci = rng.uniform(0.2, 2.0, (TRIALS, 1, 1)) * _outer(t, t)
    r = _scalar_curvature_values(ginv, ricci)
    omega = rng.standard_normal((TRIALS, n))
    qe = (rng.uniform(1, 2, (TRIALS, 1, 1)) * gm
          + rng.uniform(3, 4, (TRIALS, 1, 1)) * _outer(omega, omega))
    qc = _flat_values("qc", ricci, gm, r, PARAMS)
    generic = (_expand_block(_HYPER_TERMS, gm, sym) + 0.3 * _wedge_values(gm)
               + 1e-3 * rng.standard_normal((TRIALS,) + (n,) * 4))
    return dict(gm=gm, ginv=ginv, sym=sym, r=r, qe=qe, qc=qc, generic=generic)


def _linear(shape, grid):
    return lambda d: _linear_fit(d[grid], d["gm"], d["ginv"], *shape)


CORES = {
    "linear_fit-hyper-generic": _linear(HyperQuasiConstantFit.shape, "generic"),
    "linear_fit-pseudo-generic": _linear(PseudoQuasiConstantFit.shape, "generic"),
    "linear_fit-hyper-qc": _linear(HyperQuasiConstantFit.shape, "qc"),
    "linear_fit-pseudo-qc": _linear(PseudoQuasiConstantFit.shape, "qc"),
    "quasi_einstein": lambda d: _quasi_einstein_values(d["qe"], d["gm"], d["ginv"]),
    "quasi_constant": lambda d: _quasi_constant_values(
        d["qc"], d["gm"], d["ginv"], _ricci_contract_values(d["ginv"], d["qc"]), 1e-8),
    "einstein": lambda d: _einstein_values(d["sym"], d["gm"], d["ginv"]),
    **{f"flat_values-{kind}": (lambda d, kind=kind: _flat_values(
        kind, d["sym"], d["gm"], d["r"], PARAMS)) for kind in ("qc", "pp", "w2")},
    **{f"flat_ricci-{kind}": (lambda d, kind=kind: _flat_ricci(
        kind, d["sym"], d["gm"], d["ginv"], d["r"], PARAMS)) for kind in ("qc", "pp", "w2")},
    **{f"fixed_point-{flavor}": (lambda d, flavor=flavor: _fixed_point(
        d["gm"], d["r"], PARAMS, flavor)) for flavor in ("qc", "pp", "w2")},
}


def _outputs(core, trials):
    out = core(trials)
    return [np.asarray(v) for v in (out if isinstance(out, tuple) else (out,))]


@pytest.mark.parametrize("n", [4, 5, 8])
@pytest.mark.parametrize("name", sorted(CORES))
def test_each_trial_gets_the_same_bits_in_every_stack_size(name, n):
    trials = _trials(n, 3)
    whole = _outputs(CORES[name], trials)
    assert all(len(v) == TRIALS for v in whole)
    for size in (1, 2, 7):
        for start in range(0, TRIALS, size):
            part = _outputs(CORES[name], {k: v[start:start + size] for k, v in trials.items()})
            for got, want in zip(part, whole):
                assert got.tobytes() == want[start:start + size].tobytes(), (size, start)


def _residuals(config):
    return [(c.name, c.max_residual, c.passed, c.note, c.extra)
            for report in verify_all(config) for c in report.checks]


@pytest.mark.parametrize("weights", [(1.0, 1.0), (0.5, 2.0)], ids=str)
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("n", [4, 5, 8])
def test_verify_reports_the_same_residuals_at_every_block_size(monkeypatch, n, seed, weights):
    config = TrialConfig(seed=seed, trials=100, n=n, params=GenCurvParams(*weights))
    reports = []
    for block_bytes in (1 << 15, 1 << 17, 1 << 18):
        monkeypatch.setattr(harness, "BLOCK_BYTES", block_bytes)
        reports.append(_residuals(config))
    assert reports[0] == reports[1] == reports[2]
