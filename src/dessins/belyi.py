"""Ramification passports of tricolored dessins and the degree-6
barycentric rational map.

A tricolored dessin of degree d (d = number of white triangles)
ramifies over the three labels: the local degree at a vertex is half
the number of triangles around it, and the three multisets of local
degrees form the passport.  Barycentric subdivision of a triangulation
corresponds on the sphere to composition with the fixed degree-6 map

    beta = (4/27) (x^2 - x + 1)^3 / (x^2 (1 - x)^2)

which sends vertices of the triangulation to infinity, edge midpoints
to 1 and triangle centers to 0.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cartography import CellKind, substitute
from .metric import _require_face_size
from .tiling import TricoloredDessin, tricolored_from_labels


class InconsistentPassportError(ValueError):
    """Passport data whose multisets or genus cannot belong to a map."""


@dataclass(frozen=True)
class Passport:
    """Cycle-type triple of a degree-``degree`` cover ramified over the
    three labels; each multiset is stored sorted decreasingly."""

    degree: int
    over_zero: tuple[int, ...]
    over_one: tuple[int, ...]
    over_infinity: tuple[int, ...]

    def __init__(self, degree, over_zero, over_one, over_infinity):
        object.__setattr__(self, "degree", int(degree))
        for name, val in (("over_zero", over_zero),
                          ("over_one", over_one),
                          ("over_infinity", over_infinity)):
            val = tuple(sorted((int(x) for x in val), reverse=True))
            if any(x <= 0 for x in val):
                raise ValueError(f"{name} contains a non-positive part")
            object.__setattr__(self, name, val)


def passport(t: TricoloredDessin) -> Passport:
    """Passport of a tricolored dessin: degree = number of white faces,
    local degree at a vertex = (incident face count) / 2."""
    n_white = int(t._face_shade.sum())  # white is shade code 1
    n_black = len(t._face_shade) - n_white
    if n_white != n_black:
        raise ValueError(
            f"{n_white} white and {n_black} black faces; "
            "shades do not checkerboard")
    size = t.base.cell_arrays(CellKind.VERTEX).size
    odd = np.flatnonzero(size % 2)
    if len(odd):
        raise ValueError(f"vertex {odd[0]} has odd incident face count")
    return Passport(n_white,
                    *(size[t._vertex_label == c] // 2 for c in range(3)))


def riemann_hurwitz_genus(p: Passport) -> int:
    """Genus from the Riemann-Hurwitz formula
    2 - 2g = 2*degree - sum over all parts of (part - 1)."""
    for name in ("over_zero", "over_one", "over_infinity"):
        val = getattr(p, name)
        if sum(val) != p.degree:
            raise InconsistentPassportError(
                f"{name} sums to {sum(val)}, expected degree {p.degree}")
    excess = sum(x - 1 for val in (p.over_zero, p.over_one, p.over_infinity)
                 for x in val)
    two_g = 2 - 2 * p.degree + excess
    if two_g % 2 or two_g < 0:
        raise InconsistentPassportError(
            f"2g = {two_g} is not an even non-negative integer")
    return two_g // 2


class _SphereInfinity:
    """The point at infinity on the sphere, as a tagged singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _SphereInfinity()


def barycentric_rational(b0):
    """Evaluate beta = (4/27)(b0^2 - b0 + 1)^3 / (b0^2 (1 - b0)^2).

    Rational inputs (int, Fraction) are evaluated exactly; float and
    complex inputs in floating point; any other numeric object (e.g. a
    symbolic expression) is pushed through the same formula unchanged.
    The poles 0, 1 and the input INFINITY map to INFINITY.
    """
    if b0 is INFINITY:
        return INFINITY
    if isinstance(b0, bool):
        raise TypeError("b0 must be a number")
    if isinstance(b0, (int, Fraction)):
        b0 = Fraction(b0)
        exact = True
    elif isinstance(b0, (float, complex)):
        b0 = complex(b0)
        exact = False
    else:
        exact = True  # symbolic path: rely on the object's arithmetic
    if exact:
        num = 4 * (b0 * b0 - b0 + 1) ** 3
        den = 27 * b0 * b0 * (1 - b0) ** 2
        is_zero = getattr(den, "is_zero", None)
        if is_zero is None:
            is_zero = (den == 0)
        if is_zero:
            return INFINITY
        return num / den
    try:
        num = 4 * (b0 * b0 - b0 + 1) ** 3
        den = 27 * b0 * b0 * (1 - b0) ** 2
    except OverflowError:
        return INFINITY
    if den == 0:
        return INFINITY
    val = num / den
    if not cmath.isfinite(val):
        return INFINITY
    return val


# Dart substitution tables (see cartography.substitute); per old dart e:
# triangle (origin, mid, center) is 6e -> 6e+2 -> 6e+5, triangle
# (mid, end, center) is 6e+1 -> 6e+4 of the next side -> its 6e+3
_BARYCENTRIC_RHO1 = (("rho1", 1), ("rho1", 0), ("e", 3), ("e", 2),
                     ("e", 5), ("e", 4))
_BARYCENTRIC_RHO2 = (("e", 2), ("rho2", 4), ("e", 5), ("e", 1),
                     ("rho2_inv", 3), ("e", 0))
# label code (0 zero, 1 one, 2 infinity) of a new vertex read at its
# smallest dart 6e + r: old vertex, edge midpoint or face center
_LABEL_CODE_OF_REMAINDER = np.array([2, 1, 1, 0, 2, 0])


def barycentric_subdivide(t) -> TricoloredDessin:
    """Barycentric subdivision of a triangulated dessin.

    Accepts a :class:`TricoloredDessin` or a plain triangulated
    :class:`Dessin`.  Each triangle splits into six around its center;
    per old dart e the new darts are: 6e origin->mid and 6e+1 mid->end
    (the two halves of e), 6e+2 / 6e+3 the spoke mid <-> center, and
    6e+4 / 6e+5 the spoke origin <-> center.  Output labels are those of
    the composed cover: old vertices -> infinity, edge midpoints -> one,
    centers -> zero; face count and passport degree both grow sixfold
    and the genus is unchanged.
    """
    base = t.base if isinstance(t, TricoloredDessin) else t
    _require_face_size(base, 3)
    out = substitute(base, 6, _BARYCENTRIC_RHO1, _BARYCENTRIC_RHO2)
    remainder = out.cell_arrays(CellKind.VERTEX).smallest % 6
    return tricolored_from_labels(out, _LABEL_CODE_OF_REMAINDER[remainder])
