"""Seeded benchmark inputs: the dense chart family and the golden charts.

Every chart carries its metric as a plain Python function of the point, so
the oracle can check curvkit's output against values that curvkit did not
compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Chart:
    name: str
    manifest: str                      # manifest file text
    point: tuple[float, ...]           # the manifest's `point:`
    metric: Callable[[np.ndarray], np.ndarray]

    @property
    def n(self) -> int:
        return len(self.point)


def _diag(*fns):
    return lambda x: np.diag([f(x) for f in fns])


def _poly3(x):
    g = np.diag([1 + 0.1 * x[1] ** 2, 1 + 0.1 * x[2] ** 2, 1 + 0.1 * x[0] ** 2])
    g[0, 1] = g[1, 0] = 0.05 * x[0] * x[2]
    g[1, 2] = g[2, 1] = 0.05 * x[1]
    return g


# The golden charts are copies of the repository's manifests/ set, kept here
# so that the benchmark's inputs do not move when those files do.
_GOLDEN_METRICS = {
    "sphere2": _diag(lambda x: 1.0, lambda x: math.sin(x[0]) ** 2),
    "sphere3": _diag(lambda x: 1.0, lambda x: math.sin(x[0]) ** 2,
                     lambda x: (math.sin(x[0]) * math.sin(x[1])) ** 2),
    "euclidean3": lambda x: np.eye(3),
    "conformal4": lambda x: math.exp(2 * x[0]) * np.eye(4),
    "poly3": _poly3,
}
GOLDEN = tuple(_GOLDEN_METRICS)


def golden_chart(name: str) -> Chart:
    text = (GOLDEN_DIR / f"{name}.txt").read_text()
    point = next(tuple(float(v) for v in line.split(":", 1)[1].split("#")[0].split(","))
                 for line in text.splitlines() if line.startswith("point:"))
    return Chart(name, text, point, _GOLDEN_METRICS[name])


def dense_chart(seed: int, n: int) -> Chart:
    """The dense family  g_ii = 2 + c*sin(x_{i+1})*x_i^2,
    g_ij = c2*x_i*cos(x_j) (i < j, x_{n+1} = x_1), with c, c2 and the point
    drawn from the seed.  Every upper-triangle entry is non-zero; with
    |x| <= 0.5 the metric is diagonally dominant, hence positive definite."""
    rng = np.random.default_rng([seed, n])
    c = round(float(rng.uniform(0.05, 0.15)), 6)
    c2 = round(float(rng.uniform(0.02, 0.08)), 6)
    point = tuple(round(float(v), 6) for v in rng.uniform(-0.5, 0.5, n))
    xs = [f"x{i + 1}" for i in range(n)]
    lines = [f"# dense chart, n = {n}, seed {seed}", f"dim: {n}",
             "coords: " + ", ".join(xs)]
    for i in range(n):
        lines.append(f"g: {xs[i]},{xs[i]} = 2 + {c!r}*sin({xs[(i + 1) % n]})*{xs[i]}^2")
        for j in range(i + 1, n):
            lines.append(f"g: {xs[i]},{xs[j]} = {c2!r}*{xs[i]}*cos({xs[j]})")
    lines.append("point: " + ", ".join(repr(v) for v in point))

    def metric(x):
        g = np.empty((n, n))
        for i in range(n):
            g[i, i] = 2 + c * math.sin(x[(i + 1) % n]) * x[i] ** 2
            for j in range(i + 1, n):
                g[i, j] = g[j, i] = c2 * x[i] * math.cos(x[j])
        return g

    return Chart(f"dense{n}", "\n".join(lines) + "\n", point, metric)


def dense_points(seed: int, n: int, count: int) -> list[tuple[float, ...]]:
    """`count` seeded evaluation points of the dense chart, |x_i| <= 0.5."""
    rng = np.random.default_rng([seed, n, 1])
    return [tuple(float(v) for v in rng.uniform(-0.5, 0.5, n)) for _ in range(count)]
