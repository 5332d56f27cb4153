"""A change of chart through the jet: curvkit must give one manifold's
curvature as a tensor, whatever chart the manifest is written in.

The map is x = phi(y) with phi_i(y) = y_i + 0.1 y_{i+1}^2 + 0.05 sin(y_{i+2}),
indices cyclic, so n >= 3.  The y-chart of a manifest is written as manifest
text, g_y[a][b] = sum_ij J_ia J_jb g_x[i][j](phi(y)) with J_ia = d phi_i / d y_a,
and parsed like any manifest.  At y0 and x0 = phi(y0) both charts see one
point, so r is equal, S, R, nabla S, dr and nabla R transform by J, every
classify verdict is equal, the hyper and pseudo fits have equal a with
p -> J^T p J, a quasi-constant fit that passes has equal a and b with
A -> J^T A, and the 1-form recovery has an equal kernel and, on a weakly
Ricci symmetric chart, forms a, b, d -> J^T a, J^T b, J^T d.  The oracle is
the Jacobian, written by hand below beside phi and evaluated with `math`,
apart from curvkit's jet.  Residual values are not compared: they are
coordinate max-norms, which move with the chart.  The dense seeded charts
of `oracles.random_chart` take the same map, for the tensors alone.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from curvkit.classify import classification_report
from curvkit.manifest import parse_manifest
from curvkit.wrs import recover_one_forms
from oracles import random_chart

MANIFESTS = Path(__file__).parents[1] / "manifests"
QUASI_CONSTANT = {"conformal4"}  # the charts whose quasi-constant verdict passes
WEAKLY_RICCI_SYMMETRIC = {"sphere3", "conformal4"}


def phi(y):
    n = len(y)
    return tuple(y[i] + 0.1 * y[(i + 1) % n] ** 2 + 0.05 * math.sin(y[(i + 2) % n])
                 for i in range(n))


def jacobian(y):
    """J[i, a] = d phi_i / d y_a."""
    n = len(y)
    jac = np.eye(n)
    for i in range(n):
        jac[i, (i + 1) % n] += 0.2 * y[(i + 1) % n]
        jac[i, (i + 2) % n] += 0.05 * math.cos(y[(i + 2) % n])
    return jac


def composed(text: str) -> str:
    """The manifest `text` in the chart y, its coordinates named y1 .. yn,
    as manifest text: each x-coordinate replaced by phi written out, and each
    entry summed over the Jacobian entries, as text, that are not zero."""
    manifest = parse_manifest(text)
    coords = manifest.coords
    n = len(coords)
    ys = [f"y{a + 1}" for a in range(n)]
    x_of_y = {name: f"({ys[i]} + 0.1*{ys[(i + 1) % n]}^2 + 0.05*sin({ys[(i + 2) % n]}))"
              for i, name in enumerate(coords)}
    names = re.compile(r"\b(" + "|".join(map(re.escape, coords)) + r")\b")
    g = {}
    for (p, q), entry in manifest.entries.items():
        i, j = coords.index(p), coords.index(q)
        g[i, j] = g[j, i] = "(" + names.sub(lambda m: x_of_y[m.group(1)], entry) + ")"
    jac = {}
    for i in range(n):
        jac[i, i] = "1"
        jac[i, (i + 1) % n] = f"0.2*{ys[(i + 1) % n]}"
        jac[i, (i + 2) % n] = f"0.05*cos({ys[(i + 2) % n]})"
    lines = [f"dim: {n}", "coords: " + ", ".join(ys)]
    for a in range(n):
        for b in range(a, n):
            terms = [f"{jac[i, a]}*{jac[j, b]}*{g[i, j]}" for (i, j) in g
                     if (i, a) in jac and (j, b) in jac]
            if terms:
                lines.append(f"g: {ys[a]},{ys[b]} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def verdicts(report) -> dict:
    out = report.to_dict()
    return {name: out[name]["verdict"] for name in
            ("einstein", "quasi_einstein", "quasi_constant", "hyper_quasi_constant",
             "pseudo_quasi_constant")} | {"conformally_flat": out["conformally_flat"]}


def assert_transforms(got, want, tol=1e-10):
    assert np.abs(got - want).max() <= tol * (1.0 + np.abs(want).max())


def tensors_transform(text: str, point):
    """The bundles of the manifest `text` at x0 = phi(y0) and of its y-chart
    at y0, a point near `point`, and J at y0, once r, g, S, R, nabla S, dr
    and nabla R are checked to agree through J."""
    y0 = tuple(0.9 * np.asarray(point)
               + 0.05 * np.random.default_rng(16).standard_normal(len(point)))
    x0 = phi(y0)
    field_x, field_y = parse_manifest(text).to_field(), parse_manifest(composed(text)).to_field()
    bx, by = field_x.curvature_bundle(x0), field_y.curvature_bundle(y0)
    jac = jacobian(y0)
    assert by.r == pytest.approx(bx.r, rel=1e-10, abs=1e-12)
    assert_transforms(by.g.mat, jac.T @ bx.g.mat @ jac)
    assert_transforms(by.ricci, jac.T @ bx.ricci @ jac)
    assert_transforms(by.riemann.values,
                      np.einsum("ia,jb,kc,ld,ijkl->abcd", jac, jac, jac, jac, bx.riemann.values))
    assert_transforms(by.nabla_ricci,
                      np.einsum("ia,jb,kc,ijk->abc", jac, jac, jac, bx.nabla_ricci))
    assert_transforms(by.dr, jac.T @ bx.dr)
    assert_transforms(field_y.nabla_riemann(y0),
                      np.einsum("ma,ib,jc,kd,le,mijkl->abcde", jac, jac, jac, jac, jac,
                                field_x.nabla_riemann(x0), optimize=True))
    return bx, by, jac


@pytest.mark.parametrize("name", ["sphere3", "poly3", "conformal4"])
def test_a_change_of_chart_transforms_the_curvature_as_a_tensor(name):
    text = (MANIFESTS / f"{name}.txt").read_text()
    bx, by, jac = tensors_transform(text, parse_manifest(text).points[0])
    rx, ry = classification_report(bx), classification_report(by)
    assert verdicts(ry) == verdicts(rx)
    for fx, fy in ((rx.hyper, ry.hyper), (rx.pseudo, ry.pseudo)):
        assert fy.a == pytest.approx(fx.a, rel=1e-10, abs=1e-12)
        assert_transforms(fy.p, jac.T @ fx.p @ jac)
        assert fy.kernel_dim == fx.kernel_dim
    assert (rx.quasi_constant is not None) == (name in QUASI_CONSTANT)
    if rx.quasi_constant is not None:
        qx, qy = rx.quasi_constant, ry.quasi_constant
        assert (qy.a, qy.b) == pytest.approx((qx.a, qx.b), rel=1e-10, abs=1e-12)
        assert_transforms(qy.a_form, jac.T @ qx.a_form)
    (forms_x, _, kernel_x), (forms_y, _, kernel_y) = recover_one_forms(bx), recover_one_forms(by)
    assert kernel_y == kernel_x
    if name in WEAKLY_RICCI_SYMMETRIC:
        for part in ("a", "b", "d"):
            assert_transforms(getattr(forms_y, part), jac.T @ getattr(forms_x, part))


@pytest.mark.parametrize("n", [4, 5])
def test_a_change_of_chart_on_a_dense_chart(n):
    coords, entries, point = random_chart(0, n)
    text = "\n".join([f"dim: {n}", "coords: " + ", ".join(coords)]
                     + [f"g: {coords[i]},{coords[j]} = {entry}"
                        for (i, j), entry in entries.items()]) + "\n"
    tensors_transform(text, point)
