"""Tests of the benchmark itself (not part of curvkit's test suite).

    python -m pytest perfbench/tests -q

The smoke test runs every workload at its tiny size in both modes; the
whole file takes about a minute on a 2-CPU machine.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
from inputs import golden_chart  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED_NAMES = {"setup_s", "cmds_per_s", "cmd_p50_s", "points_per_s", "n5_s", "n8_s",
               "peak_rss_mb", "fail_frac"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric(trace):
    printed = set()
    for workload in run.WORKLOADS:
        p = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", trace, "--tiny")
        assert p.returncode == 0, p.stderr
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in spec}
        for m in spec:
            value = result["metrics"][m["name"]]
            assert value["unit"] == m["unit"] and math.isfinite(value["value"])
            if trace == "0":
                assert value["value"] > 0
        printed |= {word.strip("()") for line in lines[:-1] for word in line.split()}
    if trace == "0":
        assert PRINTED_NAMES <= printed


def test_oracle_marks_a_wrong_reference_as_failed(monkeypatch, capsys):
    # sphere2 with a wrong metric formula (cos^2 for sin^2) as the reference
    def wrong(name):
        chart = golden_chart(name)
        if name == "sphere2":
            chart = dataclasses.replace(
                chart, metric=lambda x: np.diag([1.0, math.cos(x[0]) ** 2]))
        return chart

    monkeypatch.setattr(run, "golden_chart", wrong)
    assert run.main(["--workload", "cli-cold", "--seed", "7", "--seconds", "0",
                     "--tiny"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert not result["correct"]
    # sphere2's curvature fails; its classify and wrs, which are checked
    # against that curvature output, fail with it, in both rounds
    assert result["failed"] == 6
    assert any("curvature sphere2: metric vs chart formula" in line for line in out)


def test_chart_warm_fails_points_that_differ_between_processes(monkeypatch):
    # three fake chart-warm processes; the third disagrees on point 1
    outputs = iter([{"0": "a", "1": "b"}, {"0": "a", "1": "b"}, {"0": "a", "1": "X"}])

    def fake_python(self, *args, **kwargs):
        res = {"setup_s": 1.0, "point_s": [0.5, 0.5], "attempted": 2, "failed": 0,
               "problems": [], "digests": next(outputs)}
        return 0, json.dumps(res).encode(), b"", 1.0

    monkeypatch.setattr(run.Run, "python", fake_python)
    r = run.Run(seed=0, seconds=0, trace=False, tiny=True)
    try:
        run.chart_warm(r)
    finally:
        r.close()
    assert (r.attempted, r.failed) == (6, 1)
    assert r.problems == ["point 1: results differ between processes"]


def test_a_long_program_process_is_stopped_to_probe_and_resumed():
    # 2.5 s of work: the process is stopped and resumed twice on the way
    busy = ("import time\nt = time.perf_counter()\n"
            "while time.perf_counter() - t < 2.5: pass\nprint('done')")
    r = run.Run(seed=0, seconds=0, trace=False, tiny=True)
    try:
        t = time.perf_counter()
        rc, out, err, scaled = r.python("-c", busy)
        elapsed = time.perf_counter() - t
    finally:
        r.close()
    assert (rc, out, err) == (0, b"done\n", b"")
    assert 2.0 < r.wall < 3.5 and scaled > 0
    assert elapsed - r.wall > 0.05          # three probes ran outside the wall time


def test_oracle_checks_closed_forms():
    sphere = golden_chart("sphere2")
    rc, out, err, _ = _cli("curvature", sphere)
    assert oracle.check_cli(sphere, "curvature", True, rc, out, err, None) == []
    # the same output checked as if it were the flat chart must fail
    flat = dataclasses.replace(sphere, name="euclidean3")
    problems = oracle.check_cli(flat, "curvature", True, rc, out, err, None)
    assert any("kappa" in p for p in problems)


def test_traced_cli_stdout_is_byte_identical():
    chart = golden_chart("conformal4")
    for command in ("curvature", "classify", "wrs"):
        plain = _cli(command, chart)
        traced = _cli(command, chart, traced=True)
        summary, err = run.parse_trace(traced[2])
        assert summary is not None
        assert (traced[0], traced[1], err) == plain[:3]


def test_scipy_import_time_counts_outermost_scipy_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:       400 |        750 |   scipy.linalg",
        "import time:        10 |        900 | curvkit.classify",
        "import time:         5 |          5 | json",
    ])
    assert run.scipy_import_s(text) == pytest.approx(750e-6)


def test_fails_without_the_program():
    bare = ROOT / ".perfbench-work" / "bare-checkout"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "tests"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        p = bench("--workload", "cli-cold", "--seed", "1", "--seconds", "1", cwd=bare)
        assert p.returncode != 0
        assert '"metrics"' not in p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()


def _cli(command, chart, traced=False):
    r = run.Run(seed=0, seconds=0, trace=False, tiny=True)
    try:
        (r.work / f"{chart.name}.txt").write_text(chart.manifest)
        prefix = [str(HERE / "child.py"), "cli"] if traced else ["-m", "curvkit.cli"]
        return r.python(*prefix, command, f"{chart.name}.txt")
    finally:
        r.close()
