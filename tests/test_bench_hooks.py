"""The benchmark's traced run finds curvkit's entry points by name.

perfbench/tracer.py wraps every name in its FUNCTIONS and METHODS tables,
and the cached build of `MetricField._gamma`, looking each up with getattr.
A refactor that renames or removes one of them breaks the traced run; these
tests make it break the test suite instead.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

from curvkit.chart import MetricField

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _tracer()
    for modname, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
    for (modname, clsname), names in tracer.METHODS.items():
        cls = getattr(importlib.import_module(modname), clsname)
        for name in names:
            assert callable(getattr(cls, name, None)), f"{clsname}.{name}"


def test_jet_build_is_a_cached_property():
    assert isinstance(vars(MetricField).get("_gamma"), functools.cached_property)
