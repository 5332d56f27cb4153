"""Metric manifest files.

A manifest is line-oriented plain text: a dimension, an ordered coordinate
list, the upper-triangle metric entries as expression strings, and optional
sample points.  `#` starts a comment (whole-line or trailing), blank lines
are ignored, and missing upper-triangle entries are zero::

    # unit round 2-sphere
    dim: 2
    coords: theta, phi
    g: theta,theta = 1
    g: phi,phi = sin(theta)^2
    point: 1.0471975511965976, 0.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .chart import MetricField
from .errors import CurvError, ManifestError, ParseError
from .expr import _check_coords
from .expr import parse as parse_expression
from .tensor import MAX_DIM

__all__ = ["MetricManifest", "parse_point", "parse_manifest", "load_manifest"]


@dataclass(frozen=True)
class MetricManifest:
    dim: int
    coords: tuple[str, ...]
    entries: dict[tuple[str, str], str]
    points: tuple[tuple[float, ...], ...] = field(default_factory=tuple)

    def to_field(self) -> MetricField:
        return MetricField(self.coords, self.entries)


def parse_point(text: str, line: int | None = None) -> tuple[float, ...]:
    """The point `x1, x2, ...` of a `point:` line or of `--at`; ManifestError,
    carrying `line`, on a component that is not a finite number."""
    try:
        point = tuple(float(c) for c in text.split(","))
    except ValueError:
        raise ManifestError(f"bad point {text!r}", line) from None
    if not all(map(math.isfinite, point)):
        raise ManifestError(f"point {text!r} has a non-finite component", line)
    return point


def parse_manifest(text: str) -> MetricManifest:
    dim: int | None = None
    coords: tuple[str, ...] | None = None
    raw_entries: list[tuple[str, str, str, int]] = []  # (i, j, expression, line)
    points: list[tuple[float, ...]] = []
    first_line: dict = {}  # the line of each key and of each unordered entry pair

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ManifestError(f"expected 'key: value', got {line!r}", lineno)
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "dim":
            try:
                dim = int(value)
            except ValueError:
                raise ManifestError(f"dim must be an integer, got {value!r}",
                                    lineno) from None
        elif key == "coords":
            try:
                coords = _check_coords(c.strip() for c in value.split(",") if c.strip())
            except ParseError as exc:
                raise ManifestError(str(exc), lineno) from None
        elif key == "g":
            if "=" not in value:
                raise ManifestError("metric entry must look like "
                                    "'g: i,j = expression'", lineno)
            pair, _, expr_text = value.partition("=")
            names = [c.strip() for c in pair.split(",")]
            if len(names) != 2 or not all(names):
                raise ManifestError(f"bad index pair {pair.strip()!r}", lineno)
            raw_entries.append((names[0], names[1], expr_text.strip(), lineno))
        elif key == "point":
            points.append(parse_point(value, lineno))
        else:
            raise ManifestError(f"unknown key {key!r}", lineno)
        if key != "point":  # each other key once, and each unordered entry pair
            first = first_line.setdefault(frozenset(names) if key == "g" else key, lineno)
            if first != lineno:
                raise ManifestError(f"{line!r} repeats what line {first} sets", lineno)

    if dim is None:
        raise ManifestError("missing 'dim:' line")
    if coords is None:
        raise ManifestError("missing 'coords:' line")
    if dim != len(coords):
        raise ManifestError(
            f"dim is {dim} but {len(coords)} coordinates are declared")
    if not 2 <= dim <= MAX_DIM:
        raise ManifestError(f"dim must be between 2 and {MAX_DIM}, got {dim}")

    entries: dict[tuple[str, str], str] = {}
    for i, j, expr_text, lineno in raw_entries:
        if i not in coords or j not in coords:
            raise ManifestError(f"metric entry names unknown coordinate "
                                f"in ({i},{j})", lineno)
        try:
            parse_expression(expr_text, coords)
        except CurvError as exc:
            raise ManifestError(f"bad metric expression: {exc}", lineno) from None
        entries[(i, j)] = expr_text

    for p in points:
        if len(p) != dim:
            raise ManifestError(
                f"sample point has {len(p)} components, expected {dim}")

    return MetricManifest(dim=dim, coords=coords, entries=entries, points=tuple(points))


def load_manifest(path) -> MetricManifest:
    # utf-8-sig: a byte-order mark, as some editors write, is not part of line 1
    return parse_manifest(Path(path).read_text(encoding="utf-8-sig"))
