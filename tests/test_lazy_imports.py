"""Each CLI command runs only the curvkit modules it uses.

`curvkit.cli` binds chart, classify, expr, gencurv, harness, manifest and
wrs as lazy modules: each is in `sys.modules` from the start and runs on its first
attribute access.  So "not in sys.modules" cannot tell an unexecuted module
from a run one; the module's own `__dict__`, read past the lazy module's
`__getattribute__`, can: it holds the module's public names only once the
module has run.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvkit

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"
TRACE_MARK = "PERFBENCH-TRACE "
LAZY = ("chart", "classify", "expr", "gencurv", "harness", "manifest", "wrs")

# what a command leaves unexecuted; it runs every other lazy module
UNEXECUTED = {
    ("curvature", "manifests/sphere3.txt"): {"classify", "gencurv", "harness", "wrs"},
    ("classify", "manifests/sphere3.txt"): {"harness", "wrs"},
    ("wrs", "manifests/sphere3.txt"): {"classify", "gencurv", "harness"},
    ("verify", "--n", "4", "--trials", "3"): {"chart", "expr", "manifest"},
}

PROBE = """
import json, sys
import curvkit.cli
public = json.loads(sys.argv[1])
status = curvkit.cli.main(sys.argv[2:])
ran = {}
for name, names in public.items():
    own = object.__getattribute__(sys.modules["curvkit." + name], "__dict__")
    ran[name] = [n for n in names if n in own]
print(json.dumps({"status": status, "ran": ran}))
"""


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(Path(curvkit.__file__).parents[1])}


def _python(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", list(UNEXECUTED), ids=lambda argv: argv[0])
def test_a_command_runs_only_the_modules_it_uses(argv):
    public = {name: importlib.import_module(f"curvkit.{name}").__all__
              for name in LAZY}
    done = _python("-c", PROBE, json.dumps(public), *argv)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["status"] == 0
    for name in LAZY:
        expected = [] if name in UNEXECUTED[argv] else public[name]
        assert report["ran"][name] == expected, name


def test_package_names_load_their_modules_on_first_use():
    import curvkit.chart
    import curvkit.expr
    import curvkit.gencurv
    import curvkit.harness
    import curvkit.tensor
    assert curvkit.TrialConfig is curvkit.harness.TrialConfig
    assert curvkit.GenCurvParams is curvkit.gencurv.GenCurvParams
    assert curvkit.MetricField is curvkit.chart.MetricField
    assert curvkit.Expression is curvkit.expr.Expression
    assert curvkit.parse is curvkit.expr.parse
    assert curvkit.CurvatureBundle is curvkit.chart.CurvatureBundle is \
        curvkit.tensor.CurvatureBundle
    with pytest.raises(AttributeError, match="nope"):
        curvkit.nope


def test_the_numeric_layers_import_no_symbolic_module():
    # verify's whole import graph: tensor, harness and the layers it calls
    done = _python("-c", "import sys, curvkit, curvkit.tensor, curvkit.harness, "
                   "curvkit.classify, curvkit.gencurv, curvkit.wrs; "
                   "print(' '.join(m for m in sys.modules if m.startswith('curvkit')))")
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "curvkit.harness" in loaded
    assert "curvkit.chart" not in loaded and "curvkit.expr" not in loaded


@pytest.mark.parametrize("argv", list(UNEXECUTED), ids=lambda argv: argv[0])
def test_the_benchmarks_traced_cli_still_runs(argv):
    plain = _python("-m", "curvkit.cli", *argv)
    traced = _python(str(CHILD), "cli", *argv)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    *rest, last = traced.stderr.splitlines()
    assert last.startswith(TRACE_MARK) and "".join(rest) == plain.stderr
    summary = json.loads(last[len(TRACE_MARK):])
    # the tracer reached the layers loaded on first use (the report calls
    # none of the public fits, so its own span shows classify)
    if argv[0] == "classify":
        assert summary["times"]["classify.report_s"] > 0
    if argv[0] == "verify":
        assert summary["counts"]["gencurv.reconstruct_calls"] > 0
