"""A non-diagonal conformally flat chart with a known Ricci tensor.

`manifests/conformal5.txt` is g = exp(2 f(u)) * B with u = w.x, B a constant
symmetric positive definite matrix with no zero entry, and
f(u) = c1*u + c2*u^2 + c3*sin(u).  A conformal change exp(2f) of the flat
metric B gives, with f' and f'' taken at u,

    S = -(n-2)(f'' - f'^2) w(x)w - (f'' + (n-2) f'^2) (w^T B^-1 w) B,

so S = p*g + q*omega(x)omega with omega = +-w / sqrt(w^T g^-1 w): the chart
is quasi-Einstein at every point.  The closed form and the parameters below
are written here, apart from the package's jet and contraction."""

from pathlib import Path

import numpy as np
import pytest

from curvkit.classify import classification_report
from curvkit.manifest import load_manifest
from curvkit.tensor import max_abs

MANIFEST = Path(__file__).parents[1] / "manifests" / "conformal5.txt"
N = 5
W = np.array([0.3, -0.2, 0.5, 0.1, 0.4])
C1, C2, C3 = 0.3, 0.2, 0.5
B = np.array([[2.0, 0.3, -0.2, 0.1, 0.4],
              [0.3, 1.5, 0.25, -0.1, 0.2],
              [-0.2, 0.25, 1.8, 0.3, -0.15],
              [0.1, -0.1, 0.3, 1.2, 0.35],
              [0.4, 0.2, -0.15, 0.35, 1.6]])


def _points():
    rng = np.random.default_rng(20)
    return [tuple(rng.uniform(-1.0, 1.0, N)) for _ in range(8)]


def _closed_form(x):
    """g, S and the direction w / sqrt(w^T g^-1 w) at x."""
    u = float(W @ np.asarray(x))
    f = C1 * u + C2 * u ** 2 + C3 * np.sin(u)
    f1 = C1 + 2.0 * C2 * u + C3 * np.cos(u)
    f2 = 2.0 * C2 - C3 * np.sin(u)
    g = np.exp(2.0 * f) * B
    s = (-(N - 2) * (f2 - f1 ** 2) * np.outer(W, W)
         - (f2 + (N - 2) * f1 ** 2) * (W @ np.linalg.solve(B, W)) * B)
    return g, s, W / np.sqrt(W @ np.linalg.solve(g, W))


@pytest.fixture(scope="module")
def field():
    return load_manifest(MANIFEST).to_field()


def test_every_metric_entry_is_nonzero(field):
    assert (B != 0).all() and (np.linalg.eigvalsh(B) > 0).all()
    for x in _points():
        g, _, _ = _closed_form(x)
        assert max_abs(field.metric_at(x).mat - g) <= 1e-14 * max_abs(g)


def test_ricci_matches_the_closed_form(field):
    for x in _points():
        _, s, _ = _closed_form(x)
        ricci = field.curvature_bundle(x).ricci
        assert max_abs(ricci - s) <= 1e-12 * (1.0 + max_abs(s)), x


def test_verdicts_and_the_quasi_einstein_form(field):
    for x in _points():
        _, _, unit = _closed_form(x)
        report = classification_report(field.curvature_bundle(x))
        verdicts = {name: entry["verdict"] for name, entry in report.to_dict().items()
                    if isinstance(entry, dict) and "verdict" in entry}
        assert verdicts == {"einstein": "fail", "quasi_einstein": "pass",
                            "quasi_constant": "pass", "hyper_quasi_constant": "pass",
                            "pseudo_quasi_constant": "fail"}, x
        assert report.conformally_flat
        omega = report.quasi_einstein.omega
        assert min(max_abs(omega - unit), max_abs(omega + unit)) <= 1e-12, x
