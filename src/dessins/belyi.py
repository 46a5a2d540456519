"""Ramification passports of tricolored dessins and the degree-6
barycentric rational map.

A tricolored dessin of degree d (d = number of white triangles)
ramifies over the three labels: the local degree at a vertex is half
the number of triangles around it, and the three multisets of local
degrees form the passport.  Barycentric subdivision of a triangulation
corresponds on the sphere to composition with the fixed degree-6 map

    beta = (4/27) (x^2 - x + 1)^3 / (x^2 (1 - x)^2)

which sends vertices of the triangulation to infinity, edge midpoints
to 1 and triangle centers to 0, the labels that
:func:`barycentric_subdivide` gives unchecked (see :mod:`dessins.tiling`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cartography import (CellKind, Dessin, _is_integer,
                          _require_face_size, _require_instance,
                          _Substitution)
from .tiling import TricoloredDessin, _tricolored_substitution


class InconsistentPassportError(ValueError):
    """Passport data whose multisets or genus cannot belong to a map."""


def _integer(name: str, value) -> int:
    """``value``, an int, a numpy integer or an integral float, as an
    int.  A str, bytes or bool raises TypeError, and a non-integral, NaN
    or infinite value ValueError, each naming ``name``."""
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, not "  # numpy 1.x: bool_
                        f"{type(value).__name__.rstrip('_')}")
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # inf and NaN
        whole = None
    if whole != value:
        raise ValueError(f"{name} = {value} is not an integer")
    return whole


_PARTS = ("over_zero", "over_one", "over_infinity")


@dataclass(frozen=True)
class Passport:
    """Cycle-type triple of a degree-``degree`` cover ramified over the
    three labels, each multiset sorted decreasingly: an integer array by
    numpy, anything else entry by entry through :func:`_integer`."""

    degree: int
    over_zero: tuple[int, ...]
    over_one: tuple[int, ...]
    over_infinity: tuple[int, ...]

    def __init__(self, degree, over_zero, over_one, over_infinity):
        degree = _integer("degree", degree)
        if degree < 1:
            raise ValueError(f"degree {degree} is not positive")
        object.__setattr__(self, "degree", degree)
        for name, val in zip(_PARTS, (over_zero, over_one, over_infinity)):
            if (isinstance(val, np.ndarray) and val.ndim == 1
                    and val.dtype.kind in "iu"):
                val = np.sort(val)[::-1].tolist()
            else:
                val = sorted((_integer(f"{name}[{i}]", x)
                              for i, x in enumerate(val)), reverse=True)
            if val and val[-1] <= 0:
                raise ValueError(f"{name} contains a non-positive part")
            object.__setattr__(self, name, tuple(val))


def passport(t: TricoloredDessin) -> Passport:
    """Passport of a tricolored dessin: degree = number of white faces,
    local degree at a vertex = (incident face count) / 2."""
    _require_instance("t", t, TricoloredDessin)
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
    _require_instance("p", p, Passport)
    parts = [getattr(p, name) for name in _PARTS]
    for name, val in zip(_PARTS, parts):
        if sum(val) != p.degree:
            raise InconsistentPassportError(
                f"{name} sums to {sum(val)}, expected degree {p.degree}")
    # each multiset sums to the degree, so the parts less one sum to
    # 3 * degree less the number of parts
    excess = 3 * p.degree - sum(map(len, parts))
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

    Rational inputs (int, numpy integer, Fraction) are evaluated
    exactly; float and complex inputs, numpy ones included, in double
    precision; any other numeric object (e.g. a symbolic expression) is
    pushed through the same formula unchanged.  The poles 0, 1 and the
    inputs INFINITY and inf map to INFINITY; a float or complex input
    with a NaN part raises ValueError, and a bool TypeError.
    """
    if b0 is INFINITY:
        return INFINITY
    if isinstance(b0, (bool, np.bool_)):
        raise TypeError("b0 must be a number")
    if _is_integer(b0):
        b0 = Fraction(int(b0))
    elif isinstance(b0, (float, complex, np.floating, np.complexfloating)):
        b0 = complex(b0)
        if cmath.isnan(b0):
            raise ValueError(f"b0 = {b0} has a NaN part")
    try:
        num = 4 * (b0 * b0 - b0 + 1) ** 3
        den = 27 * b0 * b0 * (1 - b0) ** 2
    except OverflowError:
        return INFINITY
    # a symbolic denominator may say itself whether it vanishes: sympy
    # answers True, False or None, while Decimal.is_zero is a method
    is_zero = getattr(den, "is_zero", None)
    if not isinstance(is_zero, bool):
        is_zero = den == 0
    if is_zero:
        return INFINITY
    val = num / den
    if isinstance(val, complex) and not cmath.isfinite(val):
        return INFINITY
    return val


# the barycentric subdivision (see cartography._Substitution); per old
# dart e, triangle (origin, mid, center) is 6e -> 6e+2 -> 6e+5, triangle
# (mid, end, center) is 6e+1 -> 6e+4 of the next side -> its 6e+3
_BARYCENTRIC = _Substitution(
    rho1=(("rho1", 1), ("rho1", 0), ("e", 3), ("e", 2), ("e", 5), ("e", 4)),
    rho2=(("e", 2), ("rho2", 4), ("e", 5), ("e", 1), ("rho2_inv", 3),
          ("e", 0)),
    vertices=(("vertex", "e"), ("edge", "e"), ("edge", "e"), ("face", "e"),
              ("vertex", "e"), ("face", "e")))
# the label code (0 zero, 1 one, 2 infinity) of the new vertex that
# lifts an old vertex, edge midpoint or face center: the composed cover
_BARYCENTRIC_LABELS = {"vertex": 2, "edge": 1, "face": 0}


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
    _require_instance("t", t, (TricoloredDessin, Dessin))
    base = t.base if isinstance(t, TricoloredDessin) else t
    _require_face_size(base, 3)
    return _tricolored_substitution(base, _BARYCENTRIC, _BARYCENTRIC_LABELS)
