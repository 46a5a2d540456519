"""Piecewise-euclidean structures on dessins.

A metric assigns each dart a length l(e) > 0, equal on a dart and its
reverse, and a corner angle phi(e) in (0, 2*pi) swept counterclockwise
from e to rho0(e) at the origin vertex of e.  In the local chart of a
dart the origin sits at 0 and the endpoint at l(e), and neighbouring
charts are glued by the affine relations

    z_{rho0 e} = exp(i phi(e)) z_e        z_{rho1 e} = l(e) - z_e

:class:`MetricData` stores lengths and angles as read-only float arrays
built by :func:`metric_array`, the one rule for them, which the document
reader also applies to each metric line; ``lengths`` and ``angles`` are
tuple views built on first use.  Pickles and copies hold only the arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cartography import (CellKind, Dessin, FaceDegreeMismatch, Violation,
                          _frozen, _index, _read_only, _require_face_size,
                          _require_instance, tuple_view)

R0 = "rho0"
R1 = "rho1"
R0_INV = "rho0_inv"

_TWO_PI = 2.0 * math.pi


# per metric array: the top of its open interval (0, top), and the
# words of the message naming an entry outside it
_RANGE = {"lengths": (math.inf, "is not positive"),
          "angles": (_TWO_PI, "outside (0, 2*pi)")}


def metric_array(name: str, values) -> np.ndarray:
    """``values`` as the read-only float array ``name`` ("lengths" or
    "angles") of a :class:`MetricData`, shared when it already is one;
    a sequence goes through float() entry by entry.  Every entry must
    lie in the open interval of ``name``, so NaN fails; ValueError
    names the first that does not.  A 2-D array raises ValueError, and
    complex values TypeError, in an array as in a sequence."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ValueError(f"{name} must be a 1-D array, "
                             f"got shape {values.shape}")
        if values.dtype.kind == "c":
            raise TypeError(f"{name} must be real, not {values.dtype}")
        values = _read_only(values, np.float64)
    else:
        values = _frozen(np.fromiter(map(float, values), np.float64))
    top, words = _RANGE[name]
    # one numpy pass; NaN fails both comparisons
    bad = np.flatnonzero(~((values > 0.0) & (values < top)))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"{name}[{i}] = {float(values[i])} {words}")
    return values


@dataclass(frozen=True)
class MetricData:
    """Per-dart lengths and corner angles, given as arrays or sequences
    and stored as the read-only float arrays ``_lengths`` and
    ``_angles`` by :func:`metric_array`; ``lengths`` and ``angles`` are
    tuple views of them."""

    lengths: tuple[float, ...] = tuple_view("_lengths")
    angles: tuple[float, ...] = tuple_view("_angles")

    def __init__(self, lengths, angles):
        object.__setattr__(self, "_lengths", metric_array("lengths", lengths))
        object.__setattr__(self, "_angles", metric_array("angles", angles))

    def __reduce__(self):  # the arrays only: the memos name a dessin
        return type(self), (self._lengths, self._angles)


def metric_violations(d: Dessin, m: MetricData) -> list[Violation]:
    """Consistency of a metric with a dessin: array sizes and equality of
    lengths on reversed darts."""
    _require_instance("d", d, Dessin)
    _require_instance("m", m, MetricData)
    out = []
    lengths = m._lengths
    if len(lengths) != d.n_darts or len(m._angles) != d.n_darts:
        out.append(Violation(
            "metric-size-mismatch", None,
            f"metric arrays sized {len(lengths)}/{len(m._angles)}, "
            f"dessin has {d.n_darts} darts"))
        return out
    for x in np.flatnonzero(lengths != lengths[d._r1]).tolist():
        out.append(Violation(
            "length-not-edge-constant", x,
            f"lengths differ on dart {x} and its reverse {d._r1[x]}"))
    return out


def _require_metric(d: Dessin, m: MetricData) -> None:
    """Raise unless ``d`` is valid and ``m`` fits it (TypeError, from
    :func:`metric_violations`, for a wrong type).  The last dessin found
    to fit sits in ``m.__dict__`` beside the :func:`cone_angle` table,
    so a stratum checks the fit once; a misfit raises each time."""
    if isinstance(d, Dessin) and getattr(m, "_fits", None) is d:
        return
    bad = metric_violations(d, m)
    d.require_valid()
    if bad:
        raise ValueError("; ".join(str(v) for v in bad))
    m.__dict__["_fits"] = d


def _constant_structure(d: Dessin, face_size: int, angle: float) -> MetricData:
    _require_instance("d", d, Dessin)
    _require_face_size(d, face_size)
    return MetricData(_frozen(np.full(d.n_darts, 1.0)),
                      _frozen(np.full(d.n_darts, angle)))


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

    def is_identity(self) -> bool:
        """Whether a and b lie within 1e-12 of 1 and 0."""
        return abs(self.a - 1.0) <= 1e-12 and abs(self.b) <= 1e-12

    @staticmethod
    def identity() -> "AffineChart":
        return AffineChart(1.0 + 0j, 0j)


def chart_transition(d: Dessin, m: MetricData, dart: int, word) -> AffineChart:
    """Affine map expressing the chart of ``word * dart`` in the chart of
    ``dart``.

    ``word`` is a sequence over {"rho0", "rho1", "rho0_inv"} read as a
    group word, the rightmost token acting first.
    """
    _require_metric(d, m)
    dart = _index(dart, "dart", d.n_darts)
    if isinstance(word, (str, bytes)):  # not one token per character
        raise TypeError(f"word must be a sequence of tokens, "
                        f"not {type(word).__name__}")
    chart = AffineChart.identity()
    cur = dart
    # entries read with .item() as Python numbers: no tuple view is built
    for token in reversed(tuple(word)):
        if token == R0:
            step = AffineChart(cmath.exp(1j * m._angles.item(cur)), 0j)
            cur = d._r0.item(cur)
        elif token == R1:
            step = AffineChart(-1.0 + 0j, complex(m._lengths.item(cur)))
            cur = d._r1.item(cur)
        elif token == R0_INV:
            cur = d._r2.item(d._r1.item(cur))  # rho0^-1 = rho2 o rho1
            step = AffineChart(cmath.exp(-1j * m._angles.item(cur)), 0j)
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
    _require_metric(d, m)
    faces = d.cell_arrays(CellKind.FACE)
    face = _index(face, "face", len(faces.smallest))
    pos = 0j
    heading = 0.0
    turning = 0.0
    cur = int(faces.smallest[face])
    for _ in range(faces.size[face]):
        pos += m._lengths.item(cur) * cmath.exp(1j * heading)
        cur = d._r2.item(cur)
        turn = math.pi - m._angles.item(cur)
        heading += turn
        turning += turn
    return pos, turning - _TWO_PI


def cone_angle(d: Dessin, m: MetricData, vertex) -> float:
    """Total angle at a vertex: the sum of phi over its darts in rho0
    order from the smallest.  The first call for a (metric, dessin) pair
    sums every vertex into a table kept in ``m.__dict__``, keyed to
    ``d``; later calls for the pair look it up."""
    _require_metric(d, m)
    table = m.__dict__.get("_totals")
    if table is None or table[0] is not d:
        # a transient list of the floats .item() gives: no tuple view kept
        angle = m._angles.tolist().__getitem__
        table = m.__dict__["_totals"] = (d, [
            sum(map(angle, darts)) for darts in d.cells(CellKind.VERTEX)])
    return table[1][_index(vertex, "vertex", len(table[1]))]
