"""Each argument is checked once, and every curvature grid is checked.

Every `Tensor04` the library builds runs its constructor's check; and the
chart point, the report and the weak-symmetry calls check their arguments
at the top and then compute on private cores, opening no other public call.
"""

import functools
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import curvkit
from curvkit.chart import MetricField
from curvkit.classify import classification_report
from curvkit.gencurv import (GenCurvParams, pseudo_projective, quasi_conformal,
                             reconstruct_pp_flat, reconstruct_qc_flat, reconstruct_w2_flat,
                             w2, weyl)
from curvkit.tensor import (CurvatureBundle, Metric, Tensor04, hyper_shape, pseudo_shape,
                            quasi_constant_shape, wedge_gg)
from curvkit.wrs import recover_one_forms, weak_symmetry_residual
from oracles import random_chart, random_spd

# leaf arithmetic, which perfbench/tracer.py leaves unwrapped as well
LEAF = {"curvkit.tensor.max_abs", "curvkit.tensor.is_symmetric"}


def _chart_point(n=5):
    coords, entries, point = random_chart(26, n)
    return MetricField(coords, entries), point


def _quasi_constant_bundle(n=5):
    rng = np.random.default_rng(26)
    g = Metric(random_spd(rng, n))
    w = rng.standard_normal(n)
    riemann = Tensor04(2.0 * wedge_gg(g).values
                       + 5.0 * quasi_constant_shape(g, w / np.sqrt(g.norm_sq(w))).values,
                       riemann_like=True)
    return CurvatureBundle.from_tensors(g, riemann=riemann)


def count_constructions() -> dict:
    """The Tensor04 instances made, and those that ran `__post_init__`,
    over a chart point, two reports, recovery, a weak-symmetry residual,
    the four combinations, the three reconstructions and the four shape
    builders.  It sets `Tensor04.__new__`, which CPython cannot unset
    cleanly (deleting it leaves the class calling object.__new__ with the
    constructor's arguments), so it runs in a process of its own."""
    made, checked = [], []
    post_init = Tensor04.__post_init__

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return object.__new__(cls)

    def counting_post_init(self):
        checked.append(self)
        post_init(self)

    field, point = _chart_point()
    params = GenCurvParams(0.7, -1.3)
    Tensor04.__new__ = counting_new
    Tensor04.__post_init__ = counting_post_init
    bundle = field.curvature_bundle(point)
    classification_report(bundle, params)
    classification_report(_quasi_constant_bundle())
    forms, _, _ = recover_one_forms(bundle)
    weak_symmetry_residual(field, point, forms)
    combined = [quasi_conformal(bundle, params), pseudo_projective(bundle, params),
                w2(bundle), weyl(bundle)]
    g, s, r = bundle.g, bundle.ricci, bundle.r
    rebuilt = [reconstruct_qc_flat(s, g, r, params), reconstruct_pp_flat(s, g, r, params),
               reconstruct_w2_flat(s, g)]
    g = Metric(random_spd(np.random.default_rng(27), 4))
    shapes = [wedge_gg(g), quasi_constant_shape(g, np.ones(4)), hyper_shape(g, np.eye(4)),
              pseudo_shape(g, np.eye(4))]
    returned = combined + rebuilt + shapes
    return {"made": len(made), "checked": len(checked),
            "returned_unchecked": sum(not any(t is c for c in checked) for t in returned)}


def test_every_tensor04_the_library_builds_is_checked():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(curvkit.__file__).parents[1]), str(tests)])
    child = subprocess.run(
        [sys.executable, "-c", "import json, test_checked_once as t; "
                               "print(json.dumps(t.count_constructions()))"],
        cwd=tests, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120)
    assert child.returncode == 0, child.stderr
    counts = json.loads(child.stdout)
    assert counts["returned_unchecked"] == 0
    assert counts["made"] == counts["checked"] >= 15


def _record_public_calls(monkeypatch) -> list:
    """Wrap every function that a curvkit module names in its `__all__`,
    rebinding each module-level name bound to it, as perfbench/tracer.py
    does; the wrappers append their names to the list returned."""
    modules = [importlib.import_module(f"curvkit.{info.name}")
               for info in pkgutil.iter_modules(curvkit.__path__)]
    calls = []

    def recording(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in modules:
        for name in getattr(module, "__all__", ()):
            fn, qualified = getattr(module, name), f"{module.__name__}.{name}"
            if not inspect.isfunction(fn) or qualified in LEAF:
                continue
            wrapper = recording(fn, qualified)
            for other in modules:
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        monkeypatch.setattr(other, attr, wrapper)
    return calls


def test_chart_point_report_and_weak_symmetry_open_no_nested_public_call(monkeypatch):
    field, point = _chart_point()
    warm, _ = _chart_point()
    forms, _, _ = recover_one_forms(warm.curvature_bundle(point))
    qc_bundle = _quasi_constant_bundle()
    calls = _record_public_calls(monkeypatch)
    bundle = None

    def chart_point():
        nonlocal bundle
        bundle = field.curvature_bundle(point)

    entries = [
        ("curvature_bundle, first point", chart_point),
        ("curvature_bundle, the same point", chart_point),
        ("classification_report", lambda: classification_report(bundle)),
        ("classification_report, quasi-constant", lambda: classification_report(qc_bundle)),
        ("classification_report, a * b = 0",
         lambda: classification_report(bundle, GenCurvParams(0.0, 1.0))),
        ("recover_one_forms", lambda: recover_one_forms(bundle)),
        ("weak_symmetry_residual", lambda: weak_symmetry_residual(field, point, forms)),
        ("weak_symmetry_residual, another point",
         lambda: weak_symmetry_residual(warm, tuple(0.5 * x for x in point), forms)),
    ]
    for name, entry in entries:
        calls.clear()
        entry()
        assert calls == [], name
