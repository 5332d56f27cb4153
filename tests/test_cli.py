import json
import warnings

import numpy as np
import pytest

from curvkit.cli import dumps, main
from curvkit.manifest import load_manifest, parse_manifest
from curvkit.errors import ManifestError

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


def test_load_manifest_from_disk(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(EUCLID4)
    m = load_manifest(path)
    assert m.dim == 4
