"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line on success (pytest
shows them with -s, and failures surface as ordinary assertion errors).
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import euclidean_field
from curvkit.chart import CurvatureBundle
from curvkit.classify import quasi_einstein_decompose
from curvkit.cli import main
from curvkit.gencurv import (GenCurvParams, pp_flat_alpha, qc_flat_alpha,
                             pseudo_projective, quasi_conformal,
                             reconstruct_pp_flat, reconstruct_qc_flat,
                             reconstruct_w2_flat, w2, w2_flat_alpha)
from curvkit.tensor import (Metric, _norm_sq_values, max_abs, ricci_contract,
                            scalar_curvature)
from curvkit.wrs import OneFormSystem, recover_one_forms, wrs_residual
from oracles import dense_fixed_point, random_spd


def _report(name: str):
    print(f"ACCEPTANCE {name}: PASS")


# --------------------------------------------------------------------------

def test_acceptance_1_flat_space_zero():
    from curvkit.manifest import parse_manifest
    t0 = time.perf_counter()
    params = GenCurvParams(1.0, 1.0)
    for n in (2, 3, 4):
        coords = [f"x{i}" for i in range(1, n + 1)]
        text = f"dim: {n}\ncoords: {', '.join(coords)}\n" + "".join(
            f"g: {c},{c} = 1\n" for c in coords)
        field = parse_manifest(text).to_field()
        b = field.curvature_bundle([0.1 * (i + 1) for i in range(n)])
        assert b.riemann.norm() <= 1e-12
        assert max_abs(b.ricci) <= 1e-12
        assert abs(b.r) <= 1e-12
        assert max_abs(b.nabla_ricci) <= 1e-12
        assert max_abs(quasi_conformal(b, params).values) <= 1e-12
        assert max_abs(pseudo_projective(b, params).values) <= 1e-12
        assert max_abs(w2(b).values) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"flat-space checks took {elapsed:.2f}s"
    _report("1 flat-space zero")


def test_acceptance_2_round_sphere_constants(sphere2, sphere3):
    params = GenCurvParams(1.0, 1.0)
    checks = [(sphere2, (math.pi / 3, 0.2), 2.0),
              (sphere2, (1.1, 2.7), 2.0),
              (sphere3, (1.0, 0.9, 0.5), 6.0),
              (sphere3, (0.8, 1.3, 2.1), 6.0)]
    for field, point, expected_r in checks:
        b = field.curvature_bundle(point)
        assert abs(b.r - expected_r) <= 1e-8
        scale = 1.0 + b.riemann.norm()
        assert max_abs(quasi_conformal(b, params).values) <= 1e-9 * scale
        assert max_abs(pseudo_projective(b, params).values) <= 1e-9 * scale
        assert max_abs(w2(b).values) <= 1e-9 * scale
    _report("2 round-sphere constants (r = n(n-1))")


# --------------------------------------------------------------------------

def test_acceptance_3_contraction_identities():
    params = GenCurvParams(1.0, 1.0)
    # spot value first: n=4, a=b=1, r=12 forces alpha = 3
    assert qc_flat_alpha(4, 12.0, params) == pytest.approx(3.0, abs=1e-12)
    rng = np.random.default_rng(2024)
    trials_per_n = {4: 34, 5: 33, 6: 33}  # 100 seeded trials total
    for n, trials in trials_per_n.items():
        for _ in range(trials):
            g = Metric(random_spd(rng, n))
            s0 = rng.standard_normal((n, n))
            s0 = 0.5 * (s0 + s0.T)
            r = scalar_curvature(s0, g)
            trace_vec = g.inv.ravel()

            s_qc = dense_fixed_point(
                lambda s: ricci_contract(reconstruct_qc_flat(s, g, r, params), g),
                n, trace_vec, r)
            alpha = qc_flat_alpha(n, r, params)
            assert max_abs(s_qc - alpha * g.mat) <= 1e-10 * (1.0 + abs(alpha))

            s_pp = dense_fixed_point(
                lambda s: ricci_contract(reconstruct_pp_flat(s, g, r, params), g),
                n, trace_vec, r)
            alpha_pp = pp_flat_alpha(n, r, params)
            assert alpha_pp == pytest.approx(r / n, rel=1e-14)
            assert max_abs(s_pp - alpha_pp * g.mat) <= 1e-10 * (1.0 + abs(alpha_pp))

            s_w2 = dense_fixed_point(
                lambda s: ricci_contract(reconstruct_w2_flat(s, g), g),
                n, trace_vec, r)
            alpha_w2 = w2_flat_alpha(n, r)
            assert max_abs(s_w2 - alpha_w2 * g.mat) <= 1e-10 * (1.0 + abs(alpha_w2))
    _report("3 contraction identities (qc alpha formula; pp/w2 alpha = r/n)")


def test_acceptance_4_verification_suites(capsys):
    for n in (4, 5):
        t0 = time.perf_counter()
        code = main(["verify", "--section", "all", "--n", str(n),
                     "--trials", "100", "--seed", "20240817"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0, f"verify failed at n={n}"
        assert elapsed < 10.0, f"verify at n={n} took {elapsed:.1f}s"
        report = json.loads(out)
        assert report["residuals"]["max_residual"] <= 1e-8
        guards = [c for c in report["checks"] if "guard" in c["name"]]
        assert len(guards) == 6
        assert all(c["passed"] for c in guards)
        assert all(c["passed"] for c in report["checks"])
    _report("4 verification suites at n=4 and n=5 (six guard trials included)")


def test_acceptance_5_quasi_einstein_recovery():
    rng = np.random.default_rng(77)
    done = 0
    while done < 100:
        n = int(rng.integers(4, 9))
        g = Metric(random_spd(rng, n))
        w = rng.standard_normal(n)
        omega = w / np.sqrt(float(_norm_sq_values(g.inv, w)))
        p = float(rng.uniform(-2.0, 2.0))
        q = float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
        s = p * g.mat + q * np.outer(omega, omega)
        fit = quasi_einstein_decompose(s, g)
        assert abs(fit.p - p) <= 1e-9 * (1.0 + abs(p))
        assert abs(fit.q - q) <= 1e-9 * (1.0 + abs(q))
        assert min(max_abs(fit.omega - omega), max_abs(fit.omega + omega)) <= 1e-8
        done += 1
    _report("5 quasi-Einstein recovery (100 instances, n in 4..8)")


def test_acceptance_6_wrs_recovery():
    rng = np.random.default_rng(88)
    for _ in range(100):
        n = int(rng.integers(4, 7))
        g = Metric(random_spd(rng, n))
        s = rng.standard_normal((n, n))
        s = 0.5 * (s + s.T) + np.diag(np.linspace(n, 2.0 * n, n))
        truth = OneFormSystem(a=rng.standard_normal(n), b=rng.standard_normal(n),
                              d=rng.standard_normal(n))
        nabla = (np.einsum("i,jk->ijk", truth.a, s)
                 + np.einsum("j,ik->ijk", truth.b, s)
                 + np.einsum("k,ij->ijk", truth.d, s))
        bundle = CurvatureBundle.from_tensors(g, ricci=s, nabla_ricci=nabla)
        forms, residual, kernel = recover_one_forms(bundle)
        assert residual <= 1e-9
        # match the generators modulo the reported kernel: both solutions must
        # produce the same decomposition right side; with no kernel they agree
        rhs_fit = (np.einsum("i,jk->ijk", forms.a, s)
                   + np.einsum("j,ik->ijk", forms.b, s)
                   + np.einsum("k,ij->ijk", forms.d, s))
        assert max_abs(rhs_fit - nabla) <= 1e-9 * (1.0 + max_abs(nabla))
        if kernel == 0:
            for mine, theirs in ((forms.a, truth.a), (forms.b, truth.b),
                                 (forms.d, truth.d)):
                assert max_abs(mine - theirs) <= 1e-9 * (1.0 + max_abs(theirs))
        assert residual == wrs_residual(bundle, forms)
    _report("6 WRS 1-form recovery (100 synthetic instances)")


def test_acceptance_7_derivative_exactness(sphere2, sphere3, conformal4, poly3,
                                           euclid3):
    # symbolic-vs-FD corpus (>= 200 cases), reusing the generator from the
    # expression tests
    from test_expr import _fd_corpus
    count = 0
    for e, d_val, fd in _fd_corpus(200, seed=31415):
        assert abs(d_val - fd) <= 1e-6 * (1.0 + abs(fd)), str(e)
        count += 1
    assert count == 200
    # contracted second Bianchi on the golden chart set
    golden = [(euclidean_field(2), (0.1, 0.2)),
              (euclid3, (0.3, 0.6, 0.9)),
              (euclidean_field(4), (0.1, 0.2, 0.3, 0.4)),
              (sphere2, (1.05, 0.4)),
              (sphere3, (1.0, 0.9, 0.5)),
              (conformal4, (0.3, -0.2, 0.5, 0.1)),
              (poly3, (0.4, 0.7, -0.3))]
    for field, point in golden:
        b = field.curvature_bundle(point)
        div_s = 2.0 * np.einsum("jk,jik->i", b.g.inv, b.nabla_ricci)
        assert max_abs(b.dr - div_s) <= 1e-8 * (1.0 + max_abs(b.dr))
    _report("7 derivative exactness (200-case FD corpus + contracted Bianchi)")


def test_acceptance_8_determinism(tmp_path, capsys):
    manifest = tmp_path / "sphere.txt"
    manifest.write_text("dim: 2\ncoords: theta, phi\ng: theta,theta = 1\n"
                        "g: phi,phi = sin(theta)^2\npoint: 1.1, 0.3\n")
    commands = [
        ["verify", "--section", "all", "--n", "4", "--trials", "25",
         "--seed", "1234"],
        ["curvature", str(manifest)],
        ["classify", str(manifest)],
        ["wrs", str(manifest)],
    ]
    for argv in commands:
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second, f"output differs for {argv}"
        json.loads(first)  # and it is valid JSON
    _report("8 determinism (byte-identical JSON across consecutive runs)")
