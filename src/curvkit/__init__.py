"""Symbolic/numeric Riemannian curvature toolkit.

Chart-level geometry from symbolic metrics, pointwise tensor algebra,
generalized curvature tensors (quasi-conformal, pseudo-projective, W2),
weak-Ricci-symmetry diagnostics, curvature classification, and a seeded
verification harness for the associated identity chains.
"""

__version__ = "0.1.0"

import importlib

from .errors import CurvError
from .tensor import CurvatureBundle, Metric, Tensor04

__all__ = [
    "__version__", "CurvatureBundle", "MetricField", "CurvError",
    "Expression", "parse", "GenCurvParams", "TrialConfig", "Metric",
    "Tensor04",
]


def __getattr__(name):
    # these names import their modules on first use, so `import curvkit`
    # runs none of chart, expr, gencurv and harness
    module = {"MetricField": "chart", "Expression": "expr", "parse": "expr",
              "GenCurvParams": "gencurv", "TrialConfig": "harness"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
