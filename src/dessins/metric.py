"""Piecewise-euclidean structures on dessins.

A metric assigns each dart a length l(e) > 0, equal on a dart and its
reverse, and a corner angle phi(e) in (0, 2*pi) swept counterclockwise
from e to rho0(e) at the origin vertex of e.  In the local chart of a
dart the origin sits at 0 and the endpoint at l(e), and neighbouring
charts are glued by the affine relations

    z_{rho0 e} = exp(i phi(e)) z_e        z_{rho1 e} = l(e) - z_e
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cartography import CellIndex, CellKind, Dessin, Violation

R0 = "rho0"
R1 = "rho1"
R0_INV = "rho0_inv"

_TWO_PI = 2.0 * math.pi


class FaceDegreeMismatch(ValueError):
    """A face has the wrong number of sides for the requested structure."""


@dataclass(frozen=True)
class MetricData:
    """Per-dart lengths and corner angles."""

    lengths: tuple[float, ...]
    angles: tuple[float, ...]

    def __init__(self, lengths, angles):
        lengths = tuple(float(x) for x in lengths)
        angles = tuple(float(x) for x in angles)
        for i, x in enumerate(lengths):
            if not (x > 0.0 and math.isfinite(x)):
                raise ValueError(f"lengths[{i}] = {x} is not positive")
        for i, x in enumerate(angles):
            if not 0.0 < x < _TWO_PI:
                raise ValueError(f"angles[{i}] = {x} outside (0, 2*pi)")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "angles", angles)


def metric_violations(d: Dessin, m: MetricData) -> list[Violation]:
    """Consistency of a metric with a dessin: array sizes and equality of
    lengths on reversed darts."""
    out = []
    if len(m.lengths) != d.n_darts or len(m.angles) != d.n_darts:
        out.append(Violation(
            "metric-size-mismatch", None,
            f"metric arrays sized {len(m.lengths)}/{len(m.angles)}, "
            f"dessin has {d.n_darts} darts"))
        return out
    lengths = np.array(m.lengths)
    for x in np.flatnonzero(lengths != lengths[d._r1]).tolist():
        out.append(Violation(
            "length-not-edge-constant", x,
            f"lengths differ on dart {x} and its reverse {d._r1[x]}"))
    return out


# metrics whose check results a dessin keeps; a stratum asks once per
# vertex with one metric, so a few entries are plenty
_METRIC_CHECKS_KEPT = 4


def _require_metric(d: Dessin, m: MetricData) -> None:
    """Raise unless ``m`` fits ``d``.  :func:`metric_violations` runs
    once per (dessin, metric) pair: the dessin keeps the result by
    ``id(m)`` together with ``m`` itself, so the id cannot be reused
    while the entry lives."""
    checks = d._metric_checks
    entry = checks.get(id(m))
    if entry is None:
        if len(checks) >= _METRIC_CHECKS_KEPT:
            del checks[next(iter(checks))]
        entry = checks[id(m)] = (m, metric_violations(d, m))
    bad = entry[1]
    if bad:
        raise ValueError("; ".join(str(v) for v in bad))


def _constant_structure(d: Dessin, face_size: int, angle: float) -> MetricData:
    d.require_valid()
    size = d.cell_arrays(CellKind.FACE).size
    bad = np.flatnonzero(size != face_size)
    if len(bad):
        raise FaceDegreeMismatch(
            f"face {bad[0]} has {size[bad[0]]} sides, expected {face_size}")
    n = d.n_darts
    return MetricData((1.0,) * n, (angle,) * n)


def equilateral_structure(d: Dessin) -> MetricData:
    """Unit lengths and angles pi/3; requires every face to be a triangle."""
    return _constant_structure(d, 3, math.pi / 3.0)


def square_structure(d: Dessin) -> MetricData:
    """Unit lengths and angles pi/2; requires every face to be a square."""
    return _constant_structure(d, 4, math.pi / 2.0)


@dataclass(frozen=True)
class AffineChart:
    """The affine map z -> a*z + b between dart charts."""

    a: complex
    b: complex

    def apply(self, z: complex) -> complex:
        return self.a * z + self.b

    def compose(self, inner: "AffineChart") -> "AffineChart":
        """self o inner (inner acts first)."""
        return AffineChart(self.a * inner.a, self.a * inner.b + self.b)

    def is_identity(self, tol: float = 1e-12) -> bool:
        return abs(self.a - 1.0) <= tol and abs(self.b) <= tol

    @staticmethod
    def identity() -> "AffineChart":
        return AffineChart(1.0 + 0j, 0j)


def chart_transition(d: Dessin, m: MetricData, dart: int, word) -> AffineChart:
    """Affine map expressing the chart of ``word * dart`` in the chart of
    ``dart``.

    ``word`` is a sequence over {"rho0", "rho1", "rho0_inv"} read as a
    group word, the rightmost token acting first.
    """
    d.require_valid()
    _require_metric(d, m)
    if not 0 <= dart < d.n_darts:
        raise ValueError(f"dart {dart} out of range")
    chart = AffineChart.identity()
    cur = dart
    for token in reversed(tuple(word)):
        if token == R0:
            step = AffineChart(cmath.exp(1j * m.angles[cur]), 0j)
            cur = d.rho0[cur]
        elif token == R1:
            step = AffineChart(-1.0 + 0j, complex(m.lengths[cur]))
            cur = d.rho1[cur]
        elif token == R0_INV:
            # the preimage of cur, found on its vertex cycle
            prev = cur
            while d.rho0[prev] != cur:
                prev = d.rho0[prev]
            cur = prev
            step = AffineChart(cmath.exp(-1j * m.angles[cur]), 0j)
        else:
            raise ValueError(f"unknown word token {token!r}")
        chart = step.compose(chart)
    return chart


def face_closure_residual(d: Dessin, m: MetricData, face) -> tuple[complex, float]:
    """Developing walk around a face boundary.

    Starting from the face's smallest dart with heading 0, each step
    advances by l(e) * exp(i*heading) and then turns by the exterior
    angle pi - phi(next dart) at the corner just reached.  Returns the
    end position (0 for a closed euclidean polygon) and the accumulated
    turning minus 2*pi.
    """
    d.require_valid()
    _require_metric(d, m)
    if isinstance(face, CellIndex):
        if face.kind != CellKind.FACE:
            raise ValueError(f"expected a face cell, got {face.kind}")
        face = face.id
    faces = d.cell_arrays(CellKind.FACE)
    if not 0 <= face < len(faces.smallest):
        raise ValueError(f"face {face} out of range")
    pos = 0j
    heading = 0.0
    turning = 0.0
    cur = int(faces.smallest[face])
    for _ in range(faces.size[face]):
        pos += m.lengths[cur] * cmath.exp(1j * heading)
        cur = d.rho2[cur]
        turn = math.pi - m.angles[cur]
        heading += turn
        turning += turn
    return pos, turning - _TWO_PI


def cone_angle(d: Dessin, m: MetricData, vertex) -> float:
    """Total angle at a vertex: the sum of phi over its darts."""
    d.require_valid()
    _require_metric(d, m)
    if isinstance(vertex, CellIndex):
        if vertex.kind != CellKind.VERTEX:
            raise ValueError(f"expected a vertex cell, got {vertex.kind}")
        vertex = vertex.id
    vertices = d.cells(CellKind.VERTEX)
    if not 0 <= vertex < len(vertices):
        raise ValueError(f"vertex {vertex} out of range")
    # the darts of the vertex in rho0-cycle order from the smallest
    return sum(m.angles[x] for x in vertices[vertex])
