"""Every minimum-norm least-squares system is solved in one place,
`tensor._lstsq_kernel`: one stacked SVD, with the one rank cut of
`tensor._kernel_rule`.

A source scan keeps `np.linalg.lstsq` out of the package and
`np.linalg.svd` inside `_lstsq_kernel`, which loops over no systems.  The
contraction fixed point, which solved its stacked systems with an SVD of
its own before it called `_lstsq_kernel`, must keep that solve's bits: it
is pinned against the same five lines written out here.
"""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import curvkit
from curvkit import harness, tensor
from curvkit.errors import CurvError
from curvkit.gencurv import GenCurvParams
from curvkit.harness import _fixed_point
from curvkit.tensor import _kernel_rule, _scalar_curvature_values, _validate_metrics

_SOURCES = {p.name: p.read_text() for p in Path(curvkit.__file__).parent.glob("*.py")}


@pytest.mark.parametrize("name", sorted(_SOURCES))
def test_no_module_solves_outside_lstsq_kernel(name):
    source = _SOURCES[name]
    assert not re.search(r"\b(lstsq|pinv)\b", source)
    svd_calls = len(re.findall(r"\bsvd\b", source))
    if name == "tensor.py":
        kernel = inspect.getsource(tensor._lstsq_kernel)
        assert svd_calls == len(re.findall(r"\bnp\.linalg\.svd\(", kernel)) == 1
    else:
        assert svd_calls == 0


def test_lstsq_kernel_has_no_loop_over_systems():
    tree = ast.parse(inspect.getsource(tensor._lstsq_kernel))
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [node for node in ast.walk(tree) if isinstance(node, loops)]


def _inline_solve(lhs, rhs):
    """The contraction fixed point's own solve before it called
    `_lstsq_kernel`, line for line."""
    u, sigma, vh = np.linalg.svd(lhs, full_matrices=False)
    cut, kernel_dim = _kernel_rule(sigma, lhs.shape[-1])
    coef = (u.swapaxes(-1, -2) @ rhs[..., None])[..., 0]
    coef = np.divide(coef, sigma, out=np.zeros_like(coef), where=sigma > cut[:, None])
    s = (vh.swapaxes(-1, -2) @ coef[..., None])[..., 0]
    return s, kernel_dim, cut


def _outcome(call):
    """The bits of call()'s array, or the type, text and item of its CurvError."""
    try:
        return call().tobytes()
    except CurvError as exc:
        return type(exc), str(exc), exc.item


def _stack(n, seed, trials=30):
    """`trials` seeded metrics and the scalar curvatures of rank-one forms."""
    rng = np.random.default_rng([seed, n])
    m = rng.standard_normal((trials, n, n))
    gm, ginv = _validate_metrics(m.swapaxes(-1, -2) @ m + n * np.eye(n))
    t = rng.standard_normal((trials, n))
    ricci = rng.uniform(0.2, 2.0, (trials, 1, 1)) * (t[:, :, None] * t[:, None, :])
    return gm, _scalar_curvature_values(ginv, ricci)


@pytest.mark.parametrize("n", [4, 5, 8])
@pytest.mark.parametrize("flavor", ["qc", "pp", "w2"])
def test_fixed_point_keeps_the_bits_of_its_own_svd_solve(monkeypatch, flavor, n):
    gm, r = _stack(n, 33)
    # the last two clear the weight guard of qc (k = 2) and pp (k = 1) by
    # 1 + (b/a)(n-k) = 1e-11, which leaves their systems singular inside the cut
    weights = [(1.0, 1.0), (0.5, 2.0), (-1.5, 0.3), (0.0, 1.0), (1.0, -1.0 / (n - 2)),
               *((1.0, (1e-11 - 1.0) / (n - k)) for k in (2, 1))]
    outcomes = []
    for a, b in weights:
        params = GenCurvParams(a, b)
        call = lambda: _fixed_point(gm, r, params, flavor)  # noqa: E731
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_lstsq_kernel", _inline_solve)
            inline = _outcome(call)
        outcomes.append(_outcome(call))
        assert outcomes[-1] == inline, (a, b)
    # the pin reaches solved stacks and, for qc and pp, singular ones
    assert any(isinstance(out, bytes) for out in outcomes)
    singular = [out for out in outcomes if "singular for these weights" in str(out)]
    assert bool(singular) == (flavor != "w2")
