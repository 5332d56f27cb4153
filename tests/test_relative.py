"""Every normalized residual is `tensor._relative`, and every threshold of the
form tol * (1 + scale) is `tensor._tolerance`: no module divides a residual
or scales a tolerance by its own 1 + scale.

The first patch makes `_relative` read inf in every module that binds it.
Each normalized residual that `curvature`, `classify`, `wrs` and `verify`
print must then read inf, and each raw field must keep its bytes; only the
verdicts decided on a normalized residual may move.  The second patch makes
`_tolerance` read -1, and one verdict or guard at each of its call sites
moves.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import curvkit
from curvkit import chart, classify, cli, gencurv, harness, tensor, wrs
from curvkit.errors import DegenerateParams, NotQuasiConstant, NumericalInconsistency
from curvkit.gencurv import GenCurvParams
from curvkit.tensor import Metric, quasi_constant_shape
from oracles import random_spd

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "manifests").glob("*.txt"))


def _binding(name):
    """The curvkit modules that bind tensor's function `name`."""
    for module in (chart, classify, cli, gencurv, harness, tensor, wrs):
        getattr(module, "__name__")  # runs a module the CLI bound lazily
    found = [m for key, m in sys.modules.items()
             if key.startswith("curvkit.") and vars(m).get(name) is getattr(tensor, name)]
    return sorted(found, key=lambda m: m.__name__)


def _patch(monkeypatch, name, fake):
    modules = _binding(name)
    for module in modules:
        monkeypatch.setattr(module, name, fake)
    return [m.__name__.split(".")[1] for m in modules]


def _inf(x, scale, ndim):
    return np.full_like(tensor._max_abs_items(x, ndim), np.inf)


def _run(monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, (json.loads(out.getvalue()) if out.getvalue() else None), err.getvalue()


def _pop(report, path):
    """Remove and return the field at `path` (keys, joined by '.'), or None."""
    *head, last = path.split(".")
    for key in head:
        report = report.get(key, {})
    return report.pop(last, None)


# per command: the normalized residuals it prints, and the fields decided
# on one of them (verdicts, and the quasi-constant record, whose pass or
# fail rests on its residual)
NORMALIZED = {
    "curvature": ["residuals.contracted_second_bianchi"],
    "classify": ["residuals.einstein", "residuals.hyper_quasi_constant",
                 "residuals.pseudo_quasi_constant", "result.einstein.residual",
                 "result.hyper_quasi_constant.residual",
                 "result.pseudo_quasi_constant.residual", "result.quasi_einstein.residual"],
    "wrs": ["residuals.wrs_fit", "result.residual"],
}
DECIDED = {
    "curvature": [],
    "classify": ["verdicts", "result.einstein.verdict", "result.hyper_quasi_constant.verdict",
                 "result.pseudo_quasi_constant.verdict", "result.quasi_constant"],
    "wrs": ["verdicts"],
}


def test_the_patches_reach_every_module_that_binds_them(monkeypatch):
    assert _patch(monkeypatch, "_relative", _inf) == ["classify", "cli", "harness",
                                                       "tensor", "wrs"]
    assert _patch(monkeypatch, "_tolerance", None) == ["classify", "gencurv", "harness",
                                                        "tensor"]


@pytest.mark.parametrize("argv", [[c, m] + extra for m in MANIFESTS
                                  for c, extra in (("curvature", []), ("classify", []),
                                                   ("classify", ["--a", "2", "--b", "-0.7"]),
                                                   ("wrs", []))], ids=" ".join)
def test_point_commands_print_every_normalized_residual_through_relative(monkeypatch, argv):
    code, base, base_err = _run(monkeypatch, argv)
    _patch(monkeypatch, "_relative", _inf)
    patched_code, patched, err = _run(monkeypatch, argv)
    assert (patched_code, err) == (code, base_err)
    if base is None:  # refused before any residual (wrs on flat euclidean3)
        assert patched is None
        return
    command = argv[0]
    for path in NORMALIZED[command]:
        was, now = _pop(base, path), _pop(patched, path)
        assert now == (None if was is None else "inf"), (path, now)
    for path in DECIDED[command]:
        was, now = _pop(base, path), _pop(patched, path)
        if path == "result.quasi_constant" and was["verdict"] == "pass":
            assert now["reason"].startswith("least-squares residual inf exceeds"), now
    assert cli.dumps(patched) == cli.dumps(base)  # every raw field keeps its bytes


@pytest.mark.parametrize("n,trials", [(4, 20), (8, 4)])
def test_verify_reports_every_check_through_relative(monkeypatch, n, trials):
    """Each check's max_residual reads inf, and so does the worst of them.
    A check that still runs all its trials keeps its extras (the raw Weyl
    norm); the fit whose verdict rests on its residual ends at its first
    trial, and its extras go with it.  The guard trials print no residual
    and keep their bytes."""
    argv = ["verify", "--section", "all", "--n", str(n), "--trials", str(trials)]
    code, base, _ = _run(monkeypatch, argv)
    _patch(monkeypatch, "_relative", _inf)
    patched_code, patched, err = _run(monkeypatch, argv)
    assert (code, patched_code, err) == (0, 1, "")
    ended = []
    for was, now in zip(base["checks"], patched["checks"], strict=True):
        if "guard_" in was["name"]:
            assert cli.dumps(now) == cli.dumps(was)
            continue
        assert now["max_residual"] == "inf" and now["trials"] == was["trials"], now
        if now["note"]:
            ended.append(now["name"])
        else:
            assert cli.dumps(now["extra"]) == cli.dumps(was["extra"]), now["name"]
    assert ended == ["s2.qc_quasi_constant_fit"]
    assert patched["residuals"]["max_residual"] == "inf"  # the worst over every check


def _sphere():
    return chart.MetricField(["x", "y", "z"], {(0, 0): "1", (1, 1): "sin(x)^2",
                                                (2, 2): "(sin(x) * sin(y))^2"})


def _tolerance_sites():
    """Per call site of `_tolerance`, a verdict or guard as a function that
    returns a value or raises: each moves when the threshold reads -1."""
    g = Metric(random_spd(np.random.default_rng(3), 4))
    bundle = _sphere().curvature_bundle((1.0, 0.9, 0.5))
    unit = np.array([1.0, 0.5, -0.3, 0.2])
    params = GenCurvParams(a=1.0, b=-0.5 * (1.0 + 1e-13))  # 1 + (b/a)(n - 2) ~ 1e-13
    return {
        # classify.py: the floor under which a fitted coefficient is zero
        "classify.COEFF_FLOOR": lambda: classify.quasi_constant_fit(
            quasi_constant_shape(g, unit), g).b,
        # classify.py: the conformal-flatness verdict
        "classify.conformally_flat": lambda: classify.conformally_flat_check(bundle)[1],
        # gencurv.py: the nonzero denominator of the forced Einstein coefficient
        "gencurv._require": lambda: gencurv.qc_flat_alpha(4, 1.0, params),
        # harness.py: the fixed-point system's consistency gap
        "harness._fixed_point": lambda: harness.selfconsistent_ricci(
            Metric(np.diag([1.0, 2.0, 3.0, 4.0])), 2.0, GenCurvParams(), "qc").shape,
    }


def _outcome(call):
    """What a site's call gives: the error it raises, a verdict, or 'returns'."""
    try:
        value = call()
    except (DegenerateParams, NotQuasiConstant, NumericalInconsistency) as exc:
        return f"raises {type(exc).__name__}"
    return bool(value) if isinstance(value, (bool, np.bool_)) else "returns"


EXPECTED = {  # (today, with the threshold at -1)
    "classify.COEFF_FLOOR": ("raises NotQuasiConstant", "returns"),
    "classify.conformally_flat": (True, False),
    "gencurv._require": ("raises DegenerateParams", "returns"),
    "harness._fixed_point": ("returns", "raises DegenerateParams"),
}


def test_each_tolerance_site_moves_its_verdict(monkeypatch):
    sites = _tolerance_sites()
    before = {name: _outcome(call) for name, call in sites.items()}
    _patch(monkeypatch, "_tolerance", lambda tol, scale: -1.0)
    after = {name: _outcome(call) for name, call in sites.items()}
    assert {name: (before[name], after[name]) for name in before} == EXPECTED


_SOURCES = {p.name: p.read_text() for p in Path(curvkit.__file__).parent.glob("*.py")}


@pytest.mark.parametrize("name", sorted(set(_SOURCES) - {"tensor.py"}))
def test_no_module_but_tensor_writes_the_normalization(name):
    """No residual divided by an inline 1 + scale and no tolerance times
    one, outside `tensor`; the products of sizes inside a scale (the
    pairing's, the T-identities') and gencurv's weight formulas stay."""
    assert not re.search(r"/\s*\(1\.0 \+", _SOURCES[name])
    assert not re.search(r"(?i)(tol|floor|\de-\d+)\s*\*\s*\(1\.0 \+", _SOURCES[name])
