import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import curvkit
from curvkit import harness
from curvkit.classify import METRIC_LIMIT
from curvkit.cli import dumps, main
from curvkit.manifest import load_manifest, parse_manifest
from curvkit.errors import ManifestError
from curvkit.harness import MAX_TRIALS
from curvkit.tensor import MAX_DIM

SPHERE2 = """\
# unit round 2-sphere
dim: 2
coords: theta, phi
g: theta,theta = 1
g: phi,phi = sin(theta)^2
point: 1.0471975511965976, 0.2
"""

EUCLID4 = """\
dim: 4
coords: x1, x2, x3, x4
g: x1,x1 = 1
g: x2,x2 = 1
g: x3,x3 = 1
g: x4,x4 = 1
"""


@pytest.fixture
def sphere_path(tmp_path):
    path = tmp_path / "sphere2.txt"
    path.write_text(SPHERE2)
    return str(path)


@pytest.fixture
def euclid_path(tmp_path):
    path = tmp_path / "euclid4.txt"
    path.write_text(EUCLID4)
    return str(path)


# --------------------------------------------------------------------------
# manifest parsing

def test_parse_manifest_roundtrip():
    m = parse_manifest(SPHERE2)
    assert m.dim == 2
    assert m.coords == ("theta", "phi")
    assert m.entries[("phi", "phi")] == "sin(theta)^2"
    assert m.points == ((1.0471975511965976, 0.2),)
    field = m.to_field()
    assert field.curvature_bundle(m.points[0]).r == pytest.approx(2.0, abs=1e-10)


def test_manifest_missing_entries_are_zero():
    m = parse_manifest("dim: 2\ncoords: u, v\ng: u,u = 1\ng: v,v = 1\n")
    assert ("u", "v") not in m.entries
    g = m.to_field().metric_at((0.0, 0.0))
    assert g.mat[0, 1] == 0.0


@pytest.mark.parametrize("text,fragment", [
    ("coords: u, v\ng: u,u = 1\n", "missing 'dim:'"),
    ("dim: 2\ng: u,u = 1\n", "missing 'coords:'"),
    ("dim: 3\ncoords: u, v\n", "dim is 3"),
    ("dim: 2\ncoords: u, v\ng: u,w = 1\n", "unknown coordinate"),
    ("dim: 2\ncoords: u, v\ng: u,u = 1 +\n", "bad metric expression"),
    ("dim: 2\ncoords: u, v\npoint: 1.0\n", "sample point"),
    ("dim: 2\ncoords: u, v\nwhat: 7\n", "unknown key"),
    ("dim: two\ncoords: u, v\n", "dim must be an integer"),
    ("dim: 2\ncoords: u, v\nnonsense\n", "expected 'key: value'"),
    # a repeated line is refused at the repeat, naming the first
    ("dim: 2\ncoords: u, v\ndim: 2\n", "'dim: 2' repeats what line 1 sets (line 3)"),
    ("dim: 2\ncoords: u, v\ncoords: v, u\n",
     "'coords: v, u' repeats what line 2 sets (line 3)"),
    ("dim: 2\ncoords: u, v\ng: v,v = 1\ng: v,v = 4\n",
     "'g: v,v = 4' repeats what line 3 sets (line 4)"),
    ("dim: 2\ncoords: u, v\ng: u,v = 1\n# a comment\ng: v,u = 0.5\n",
     "'g: v,u = 0.5' repeats what line 3 sets (line 5)"),
    # the coordinate names are checked on their own line
    ("dim: 2\ncoords: u, u\ng: u,u = 1\n", "duplicate coordinate name 'u' (line 2)"),
    ("dim: 2\ncoords: u, u\n", "duplicate coordinate name 'u' (line 2)"),
    ("dim: 2\ncoords: u, 2v\ng: u,u = 1\n", "invalid coordinate name '2v' (line 2)"),
    # a metric entry without '=' or without two indices, at its own line
    ("dim: 2\ncoords: u, v\n\ng: u,u 1\n",
     "metric entry must look like 'g: i,j = expression' (line 4)"),
    ("dim: 2\ncoords: u, v\ng: u = 1\n", "bad index pair 'u' (line 3)"),
    ("dim: 2\ncoords: u, v\ng: u,v,u = 1\n", "bad index pair 'u,v,u' (line 3)"),
    ("dim: 2\ncoords: u, v\ng: u, = 1\n", "bad index pair 'u,' (line 3)"),
])
def test_manifest_errors(text, fragment):
    with pytest.raises(ManifestError) as err:
        parse_manifest(text)
    assert fragment in str(err.value)


def test_manifest_error_carries_line_number():
    with pytest.raises(ManifestError) as err:
        parse_manifest("dim: 2\ncoords: u, v\ng: u,u = sin(\n")
    assert err.value.line == 3


# --------------------------------------------------------------------------
# deterministic JSON writer

def test_dumps_sorted_and_17g():
    blob = dumps({"b": 1.0 / 3.0, "a": [1, True, None, "x"], "c": {"z": 2, "y": 0.1}})
    assert blob == ('{"a":[1,true,null,"x"],'
                    '"b":0.33333333333333331,'
                    '"c":{"y":0.10000000000000001,"z":2}}')
    assert json.loads(blob)["b"] == 1.0 / 3.0  # 17 significant digits round-trip


def test_dumps_non_finite():
    assert dumps(float("inf")) == '"inf"'
    assert dumps(float("nan")) == '"nan"'
    assert dumps(np.float64(2.5)) == "2.5"
    assert dumps(np.arange(3)) == "[0,1,2]"


# --------------------------------------------------------------------------
# commands

def test_curvature_sphere(sphere_path, capsys):
    assert main(["curvature", sphere_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exit_status"] == 0
    assert report["result"]["scalar_curvature"] == pytest.approx(2.0, abs=1e-10)
    assert set(report) == {"tool_version", "input", "checks", "residuals",
                           "verdicts", "result", "exit_status"}
    assert report["residuals"]["contracted_second_bianchi"] <= 1e-8


def test_curvature_euclid_all_zero(euclid_path, capsys):
    assert main(["curvature", euclid_path, "--at", "0,0,0,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    res = report["result"]
    for key in ("riemann", "ricci", "nabla_ricci", "dr", "christoffel"):
        assert np.max(np.abs(np.asarray(res[key]))) == 0.0
    assert res["scalar_curvature"] == 0.0


def test_curvature_text_format(sphere_path, capsys):
    assert main(["curvature", sphere_path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "scalar curvature: 2" in out


def test_curvature_requires_point(euclid_path, capsys):
    assert main(["curvature", euclid_path]) == 2
    assert "no point given" in capsys.readouterr().err


def test_curvature_bad_point_dimension(sphere_path, capsys):
    assert main(["curvature", sphere_path, "--at", "1,2,3"]) == 2


def test_tol_only_on_commands_that_use_it(sphere_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curvature", sphere_path, "--tol", "1e-6"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    for command in ("classify", "wrs"):
        assert main([command, sphere_path, "--tol", "1e-6"]) == 0
        assert json.loads(capsys.readouterr().out)["input"]["tol"] == 1e-6


def test_at_takes_a_negative_first_coordinate(sphere_path, capsys):
    assert main(["curvature", sphere_path, "--at=-1,0.2"]) == 0
    glued = capsys.readouterr().out
    assert main(["curvature", sphere_path, "--at", "-1,0.2"]) == 0
    assert capsys.readouterr().out == glued
    assert main(["classify", sphere_path, "--at", "-.5,0.2"]) == 0


def test_at_followed_by_an_option_is_a_usage_error(sphere_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curvature", sphere_path, "--at", "--format", "text"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_missing_manifest(capsys):
    assert main(["curvature", "/nonexistent/file.txt"]) == 2


def test_overflowing_literal_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "inf.txt"
    path.write_text("dim: 2\ncoords: x, y\ng: x,x = 1e999\ng: y,y = 1\npoint: 0.1, 0.2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["curvature", str(path)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "numeric literal '1e999' overflows a float (byte offset 0) (line 3)" in err


def run_quietly(capsys, argv):
    """main(argv) with every warning recorded: its exit code, stdout and
    stderr, after asserting that no RuntimeWarning was raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


def test_entries_near_the_float_limit_do_not_overflow_the_metric_check(tmp_path, capsys):
    """g + g^T of entries above half the largest float would overflow: the
    metric check halves first, so the flat chart is reported and classify
    gives its own limit."""
    path = tmp_path / "huge.txt"
    path.write_text("dim: 2\ncoords: x, y\ng: x,x = 1.5e308\ng: y,y = 1.5e308\n"
                    "point: 1, 0.5\n")
    code, out, _ = run_quietly(capsys, ["curvature", str(path)])
    assert code == 0 and json.loads(out)["result"]["scalar_curvature"] == 0
    code, _, err = run_quietly(capsys, ["classify", str(path)])
    assert code == 2
    assert err == (f"error: classify needs the metric's largest entry between "
                   f"{1 / METRIC_LIMIT:g} and {METRIC_LIMIT:g}, got 1.5e+308\n")


@pytest.mark.parametrize("command", ["curvature", "classify", "wrs"])
def test_a_finite_jet_whose_curvature_overflows_is_named(tmp_path, capsys, command):
    """A finite 3-jet whose covariant derivative of curvature comes out as
    inf - inf: exit 2 naming it, with no warning."""
    path = tmp_path / "overflow.txt"
    path.write_text("dim: 2\ncoords: x0, x1\n"
                    "g: x0,x0 = 1e-8 + tan(log(x0)) + (cos(x1*1e-150) + 3)*1e-3\n"
                    "g: x0,x1 = 1e-9\ng: x1,x1 = 1e-8 + x1*1e100\npoint: 1e10, 0\n")
    code, out, err = run_quietly(capsys, [command, str(path)])
    assert (code, out, err) == (2, "", "error: nabla_riemann is not finite at this point\n")


@pytest.mark.parametrize("entry", ["0*log(x)", "log(x)*0", "0/log(x)", "log(x)^0"])
def test_zero_factor_does_not_skip_evaluation(tmp_path, capsys, entry):
    """A literal zero factor (or exponent) does not hide the domain error of
    its other operand: the entry fails at x = 0 as `1*log(x)` does."""
    def run(text):
        path = tmp_path / "zero.txt"
        path.write_text(f"dim: 2\ncoords: x, y\ng: x,x = 2 + {text}\ng: y,y = 1\n"
                        "point: 0, 0.5\n")
        code = main(["curvature", str(path)])
        return code, capsys.readouterr().err

    expected = run("1*log(x)")
    assert expected[0] == 2 and "log of non-positive value" in expected[1]
    assert run(entry) == expected


def test_classify_sphere(sphere_path, capsys):
    assert main(["classify", sphere_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["einstein"] == "pass"
    assert report["residuals"]["quasi_conformal_norm"] <= 1e-9
    assert report["residuals"]["w2_norm"] <= 1e-9


def test_classify_flat(euclid_path, capsys):
    assert main(["classify", euclid_path, "--at", "0,0,0,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["einstein"] == "pass"  # alpha = 0
    assert report["result"]["einstein"]["alpha"] == 0.0
    for key in ("quasi_conformal_norm", "pseudo_projective_norm", "w2_norm",
                "weyl_norm"):
        assert report["residuals"][key] == 0.0
    # the strict quasi-Einstein/quasi-constant classes exclude this boundary
    assert report["verdicts"]["quasi_einstein"] == "fail"
    assert report["verdicts"]["quasi_constant"] == "fail"


def test_wrs_sphere(sphere_path, capsys):
    assert main(["wrs", sphere_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["wrs_fit"] == "pass"
    assert max(abs(v) for v in report["result"]["a"]) <= 1e-9
    assert "kernel_dim" in report["result"]


def test_verify_exit_codes(capsys):
    assert main(["verify", "--section", "4", "--n", "4", "--trials", "5",
                 "--seed", "3"]) == 0
    capsys.readouterr()
    assert main(["verify", "--n", "3"]) == 2  # the chains require n > 3
    err = capsys.readouterr().err
    assert "n > 3" in err


@pytest.mark.parametrize("args,fragment", [
    (["--n", str(MAX_DIM + 1)], f"exceeds the dimension limit {MAX_DIM}"),
    (["--trials", str(MAX_TRIALS + 1)], f"trials must be between 1 and {MAX_TRIALS}"),
    # the cap is on trials * n^4: 390 trials at n = 16
    (["--n", "16", "--trials", "391"], "trials must be between 1 and 390"),
    (["--seed", "-1"], "seed must be non-negative, got -1"),
], ids=lambda value: "-".join(value) if isinstance(value, list) else value)
def test_verify_refuses_oversized_input_before_running(monkeypatch, capsys, args,
                                                       fragment):
    def refuse(*args, **kwargs):
        raise AssertionError("a section ran on oversized input")

    monkeypatch.setattr(harness, "_verify_section", refuse)
    assert main(["verify", *args]) == 2
    assert fragment in capsys.readouterr().err


def test_manifest_dimension_limit():
    def manifest(dim):
        return f"dim: {dim}\ncoords: {', '.join(f'x{i}' for i in range(dim))}\n"

    assert parse_manifest(manifest(MAX_DIM)).dim == MAX_DIM
    with pytest.raises(ManifestError, match=f"dim must be between 2 and {MAX_DIM}"):
        parse_manifest(manifest(MAX_DIM + 1))


_QC_NEEDS_A = {f"s2.qc_{name}": "error: quasi-conformal combination requires a != 0"
               for name in ("einstein_contraction", "hyper_fit", "quasi_constant_fit",
                            "brute_force_twin")}
_PP_NEEDS_AB = {f"s3.pp_{name}": ("error: pseudo-projective combination "
                                  "requires a != 0 and b != 0")
                for name in ("einstein_contraction", "pseudo_fit", "quasi_constant_fit",
                             "brute_force_twin")}


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("a, b, failed", [
    (0.0, lambda n: 1.0, {**_QC_NEEDS_A, **_PP_NEEDS_AB}),
    # b = 0 leaves the quasi-conformal reconstruction of constant curvature
    (1.0, lambda n: 0.0, {"s2.qc_quasi_constant_fit": "error: constant curvature "
                                                       "(the A-block coefficient vanishes)",
                          **_PP_NEEDS_AB}),
    (0.0, lambda n: 0.0, {**_QC_NEEDS_A, **_PP_NEEDS_AB}),
    (1.0, lambda n: -1.0 / (n - 2), {"s2.qc_einstein_contraction":
                                     "error: 1 + (b/a)(n-2) = 0 is numerically zero"}),
    (1.0, lambda n: -1.0 / (n - 1), {"s3.pp_einstein_contraction":
                                     "error: 1 + (b/a)(n-1) = 0 is numerically zero"}),
], ids=["a=0", "b=0", "a=b=0", "qc-denominator-0", "pp-denominator-0"])
def test_verify_with_a_zero_reports_the_precondition(capsys, n, a, b, failed):
    # weights outside a flat formula's preconditions: each check that needs
    # the formula ends with that error, every other check passes, and none
    # ends in a traceback
    assert main(["verify", "--n", str(n), "--trials", "2", "--a", repr(a),
                 "--b", repr(b(n))]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert {c["name"]: c["note"] for c in report["checks"] if not c["passed"]} == failed
    assert report["residuals"]["max_residual"] == "inf"  # the errored checks count
    assert err == ""


def test_verify_all_sections(capsys):
    assert main(["verify", "--section", "all", "--n", "4", "--trials", "5",
                 "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"] == {"section2": "pass", "section3": "pass",
                                  "section4": "pass"}
    assert report["residuals"]["max_residual"] <= 1e-8
    names = {c["name"] for c in report["checks"]}
    assert "s2.qc_einstein_contraction" in names
    assert "s4.w2_rank_one_quasi_einstein" in names


def test_verify_deterministic_bytes(capsys):
    args = ["verify", "--section", "2", "--n", "4", "--trials", "10",
            "--seed", "42"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_classify_deterministic_bytes(sphere_path, capsys):
    assert main(["classify", sphere_path]) == 0
    first = capsys.readouterr().out
    assert main(["classify", sphere_path]) == 0
    second = capsys.readouterr().out
    assert first == second


CLI_REFERENCE = Path(__file__).parent / "data" / "cli_reference.json"


@pytest.mark.parametrize("case", json.loads(CLI_REFERENCE.read_text()),
                         ids=lambda case: " ".join(case["argv"]))
def test_manifest_commands_match_the_recorded_bytes(monkeypatch, capsys, case):
    # stdout and exit code of each command, recorded from `python -m
    # curvkit.cli` in the repository root
    monkeypatch.chdir(CLI_REFERENCE.parents[2])
    assert run_main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def test_curvature_evaluates_the_chart_once(monkeypatch, capsys):
    # the bundle runs the jet programs of orders 0-3 once; the Christoffel
    # symbols of the report are read back from that evaluation
    from curvkit import expr
    runs = []
    run_program = expr.run_program

    def counting(*args):
        runs.append(1)
        return run_program(*args)

    monkeypatch.setattr(expr, "run_program", counting)
    monkeypatch.chdir(CLI_REFERENCE.parents[2])
    assert main(["curvature", "manifests/poly3.txt"]) == 0
    assert len(runs) == 4
    assert json.loads(capsys.readouterr().out)["result"]["christoffel"]


def test_a_manifest_rebuilt_by_replace_gives_the_same_curvature(monkeypatch, capsys):
    # the field is built from `entries` alone, so a copy of the manifest is as good
    from curvkit import manifest
    monkeypatch.chdir(CLI_REFERENCE.parents[2])
    path = "manifests/conformal5.txt"
    assert main(["curvature", path]) == 0
    parsed = capsys.readouterr().out
    load = manifest.load_manifest
    monkeypatch.setattr(manifest, "load_manifest", lambda p: dataclasses.replace(load(p)))
    assert main(["curvature", path]) == 0
    assert capsys.readouterr().out == parsed


def test_load_manifest_from_disk(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(EUCLID4)
    m = load_manifest(path)
    assert m.dim == 4


@pytest.mark.parametrize("command", ["curvature", "classify", "wrs"])
def test_manifest_with_a_byte_order_mark(tmp_path, capsys, command):
    # some editors start a UTF-8 file with a byte-order mark
    original = CLI_REFERENCE.parents[2] / "manifests" / "sphere2.txt"
    bom = tmp_path / "sphere2.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    reports = []
    for path in (original, bom):
        assert main([command, str(path)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    for key in ("result", "verdicts", "residuals"):
        assert reports[0][key] == reports[1][key]


# --------------------------------------------------------------------------
# numbers from outside

NAN_POINT = "dim: 2\ncoords: x, y\ng: x,x = x\ng: y,y = 1\npoint: nan, 0\n"


def run_main(argv) -> int:
    """main's exit code, including argparse's usage errors."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["curvature", "{nan_point}"],
    ["classify", "{nan_point}"],
    ["curvature", "{sphere}", "--at", "nan,0"],
    ["curvature", "{sphere}", "--at", "1,inf"],
    ["curvature", "{sphere}", "--at", "1,x"],
    ["classify", "{sphere}", "--tol", "-1"],
    ["classify", "{sphere}", "--tol", "inf"],
    ["classify", "{sphere}", "--a", "nan"],
    ["wrs", "{sphere}", "--tol", "-1"],
    ["wrs", "{sphere}", "--tol", "nan"],
    ["verify", "--tol", "nan"],
    ["verify", "--tol", "inf"],
    ["verify", "--tol", "0"],
    ["verify", "--a", "nan"],
    ["verify", "--b", "inf"],
], ids=" ".join)
def test_bad_numbers_exit_2(tmp_path, sphere_path, capfd, argv):
    nan_point = tmp_path / "nan.txt"
    nan_point.write_text(NAN_POINT)
    argv = [arg.format(nan_point=nan_point, sphere=sphere_path) for arg in argv]
    assert run_main(argv) == 2
    out, err = capfd.readouterr()  # file-descriptor level: LAPACK writes there
    assert out == ""
    assert err
    for text in ("Traceback", "DLASCL", "Warning"):
        assert text not in err


@pytest.mark.parametrize("text", ["0.5, 0.25", "1e-3,2", "nan, 0", "1, inf",
                                  "1,x", "1,,2", ""])
def test_point_line_and_at_parse_alike(tmp_path, capsys, text):
    chart = "dim: 2\ncoords: x, y\ng: x,x = 1 + x^2\ng: y,y = 1\n"
    with_point = tmp_path / "with_point.txt"
    with_point.write_text(chart + f"point: {text}\n")
    without = tmp_path / "without.txt"
    without.write_text(chart)
    code = main(["curvature", str(with_point)])
    from_line = capsys.readouterr()
    assert main(["curvature", str(without), "--at", text]) == code
    from_at = capsys.readouterr()
    if code == 0:
        line, at = json.loads(from_line.out), json.loads(from_at.out)
        assert line["input"]["point"] == at["input"]["point"]
        assert line["result"] == at["result"]
    else:
        assert code == 2
        assert from_line.err == from_at.err.replace("\n", " (line 5)\n")


# weights of every magnitude: 0, +-1e-310 (subnormal), +-1e-200, +-1,
# +-1e200, +-5e307, +-1e308 (near the largest float)
WEIGHTS = sorted({sign * m for m in (0.0, 1e-310, 1e-200, 1.0, 1e200, 5e307, 1e308)
                  for sign in (1.0, -1.0)})


@pytest.mark.parametrize("a", WEIGHTS, ids=repr)
def test_extreme_weights_end_in_a_verdict_or_one_error_line(capfd, a):
    sphere3 = Path(__file__).parents[1] / "manifests" / "sphere3.txt"
    for b in WEIGHTS:
        for argv in (["verify", "--n", "4", "--trials", "3"], ["classify", str(sphere3)]):
            argv = argv + [f"--a={a!r}", f"--b={b!r}"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_main(argv)
            out, err = capfd.readouterr()  # file-descriptor level: LAPACK writes there
            assert not caught, (argv, [str(w.message) for w in caught])
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
            else:
                assert code in (0, 1) and err == "", argv
                assert '"nan"' not in out, argv


# metrics of extreme magnitude: a flat chart, the unit 3-sphere with every
# entry scaled, and the conformal4 chart far along x1, where its metric is
# exp(2*x1) times the identity
MANIFESTS = Path(__file__).parents[1] / "manifests"
FLAT = "dim: 2\ncoords: x, y\ng: x,x = {s}\ng: y,y = {s}\npoint: 1, 0.5\n"


def _scaled_sphere3(scale: str) -> str:
    return re.sub(r"^(g: [^=]*= )(.*)$", rf"\g<1>{scale} * (\2)",
                  (MANIFESTS / "sphere3.txt").read_text(), flags=re.M)


EXTREME_CHARTS = {
    # name: (manifest text, --at, the same chart at a moderate scale)
    "flat-1e200": (FLAT.format(s="1e200"), None, FLAT.format(s="1")),
    "sphere3-x1e155": (_scaled_sphere3("1e155"), None, _scaled_sphere3("1")),
    "sphere3-x1e77": (_scaled_sphere3("1e77"), None, _scaled_sphere3("1")),
    "sphere3-x1e-100": (_scaled_sphere3("1e-100"), None, _scaled_sphere3("1")),
    "conformal4-at-178": ((MANIFESTS / "conformal4.txt").read_text(), "178,0,0,0", None),
    "conformal4-at--200": ((MANIFESTS / "conformal4.txt").read_text(), "-200,0,0,0", None),
}


def _verdicts(out: str) -> dict:
    result = json.loads(out)["result"]
    verdicts = {name: (v["verdict"], v.get("reason")) for name, v in result.items()
                if isinstance(v, dict) and "verdict" in v}
    return {**verdicts, "conformally_flat": result["conformally_flat"]}


@pytest.mark.parametrize("name", EXTREME_CHARTS)
def test_classify_at_an_extreme_metric_scale_ends_cleanly(tmp_path, capfd, name):
    text, at, moderate = EXTREME_CHARTS[name]
    path = tmp_path / "chart.txt"
    path.write_text(text)
    argv = ["classify", str(path)] + (["--at", at] if at else [])
    # a fresh process with a timeout: LAPACK did not return on such a fit
    env = {**os.environ, "PYTHONPATH": str(Path(curvkit.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "curvkit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode == 2:
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert f"between {1 / METRIC_LIMIT:g} and {METRIC_LIMIT:g}" in done.stderr
    else:
        assert done.returncode == 0 and done.stderr == ""
        if moderate is None:  # the manifest's own point, x1 = 0.3
            moderate, argv = text, argv[:2]
        path.write_text(moderate)
        assert main(argv) == 0
        assert _verdicts(done.stdout) == _verdicts(capfd.readouterr().out)


# refusals reached in the process itself: the metric scale bound of the
# report, and values that leave float range while a chart is evaluated
REFUSED_CHARTS = {
    "metric-above-the-limit": (FLAT.format(s="1e75"), "classify",
                               f"between {1 / METRIC_LIMIT:g} and {METRIC_LIMIT:g}, got 1e+75"),
    "metric-below-the-limit": (FLAT.format(s="1e-75"), "classify",
                               f"between {1 / METRIC_LIMIT:g} and {METRIC_LIMIT:g}, got 1e-75"),
    "exp-overflow": ("dim: 2\ncoords: x, y\ng: x,x = exp(x)\ng: y,y = 1\npoint: 1000, 0\n",
                     "curvature", "exp failed: math range error in 'exp(x)'"),
    "product-overflow": ("dim: 2\ncoords: x, y\ng: x,x = 1 + x*x*x\ng: y,y = 1\n"
                         "point: 1e120, 0\n", "curvature",
                         "operation produced non-finite value in 'x*x*x'"),
}


@pytest.mark.parametrize("name", REFUSED_CHARTS)
def test_refused_charts_exit_2_with_one_error_line(tmp_path, capsys, name):
    text, command, message = REFUSED_CHARTS[name]
    path = tmp_path / "chart.txt"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_classify_admits_metrics_at_the_scale_bound(tmp_path, capfd):
    # the sphere's verdicts and reasons do not depend on its scale
    verdicts = []
    for scale in ("1", f"{METRIC_LIMIT:g}", f"{1 / METRIC_LIMIT:g}"):
        path = tmp_path / "sphere3.txt"
        path.write_text(_scaled_sphere3(scale))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["classify", str(path)]) == 0
        out, err = capfd.readouterr()
        assert not caught and err == ""
        verdicts.append(_verdicts(out))
    assert verdicts[0] == verdicts[1] == verdicts[2]


# --------------------------------------------------------------------------
# the process entry

# run the CLI as `python -m curvkit.cli` does, and report at exit, after
# the command, how many objects the collector has frozen
ENTRY_PROBE = """\
import atexit, gc, pathlib, runpy, sys
frozen = pathlib.Path(sys.argv.pop(1))
atexit.register(lambda: frozen.write_text(str(gc.get_freeze_count())))
runpy.run_module("curvkit.cli", run_name="__main__")
"""


@pytest.mark.parametrize("argv,code", [
    (["curvature", "manifests/sphere2.txt"], 0),
    (["verify", "--n", "17"], 2),
    (["--version"], 0),
], ids=["curvature", "verify --n 17", "--version"])
def test_the_process_entry_freezes_at_exit_and_keeps_the_bytes(tmp_path, monkeypatch,
                                                               capsys, argv, code):
    root = CLI_REFERENCE.parents[2]
    frozen = tmp_path / "frozen"
    env = {**os.environ, "PYTHONPATH": str(Path(curvkit.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", ENTRY_PROBE, str(frozen), *argv],
                          cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert int(frozen.read_text()) > 0
    monkeypatch.chdir(root)
    freezes = gc.get_freeze_count()
    assert run_main(argv) == done.returncode == code
    assert gc.get_freeze_count() == freezes  # main() called in-process never freezes
    assert capsys.readouterr() == (done.stdout, done.stderr)
