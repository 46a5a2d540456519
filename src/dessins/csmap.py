"""Normalized incomplete-beta-type coordinate maps.

The basic object is

    I(a, b; t) = integral of w^(a-1) (1 - w)^(b-1) dw
                 over the straight segment from 0 to t,

with the branches of w^(a-1) and (1-w)^(b-1) continued along the path
from the real-positive determination at the start.  Real t in (1, inf)
is rejected: the path would run along the branch cut of the second
factor.  On the negative real axis the argument of w is taken to be
-pi, i.e. the integral is the continuous limit from the lower
half-plane, which is where the coordinate maps live.

A map spec normalizes by the complete integral and a unimodular
prefactor:  cs_map(spec, t) = prefactor * I(a, b; t) / B(a, b).  The
closed lower half-plane then maps onto a euclidean triangle with
interior angles a*pi at the image of 0, b*pi at the image of 1 and
(1-a-b)*pi at the image of infinity.

Quadrature: the substitution w = t*s turns I into t^a * integral_0^1
s^(a-1) (1-t*s)^(b-1) ds, whose integrand is evaluated in real arithmetic
(see _scaled_integral).  The endpoint weight s^(a-1) is absorbed by
Gauss-Jacobi nodes; when the path passes near w = 1 the reflection
I(a,b;t) = B(a,b) - I(b,a;1-t) moves the singularity out of the way, and
for |t| > 1 the s-interval is covered by a short geometric ladder of
Gauss-Legendre panels away from the scaled branch point.  Every panel
[lo, hi] runs at its scaled point lo*t on unscaled nodes, so no weight
or scale exceeds 1; B(a, b) is I(a,b;1/2) + I(b,a;1/2), one panel each.
The ladder is fixed: every panel, B's included, is evaluated at n and
2n nodes, and when the summed differences exceed 1e-12 of the value, as
they do only for a node count far below the default, the map raises
NonConvergenceError.  Both Gauss rules come from one Golub-Welsch
eigenproblem in numpy.  A QuadratureConfig sets n for cs_map,
incomplete_cs_integral and complete_beta; every other function,
inversion included, uses n = 48.

Inversion returns 0 or 1 for a point within the Newton target of its
image, and otherwise runs Newton from the expansion of the map at the
prevertex 0, 1 or infinity (Driscoll & Trefethen, Schwarz-Christoffel
Mapping, 2002) chosen per point.  Near 1 and infinity the map is its
expansion at 0 for a permuted exponent pair (DLMF 15.10), so seed and
step are written once, in the chart x = t, 1 - t or 1/t of a prevertex
with exponent e.  Each Halley step runs in x^e at the prevertex nearest
the iterate t, infinity once r = min(|t|, |1-t|) > 1, and returns to t
as x (1 + v)^(1/e) for its relative step v.  As every derivative of the
map is closed-form, a nonzero step g below r/100, r the radius of the
Taylor series around t, is then refined by one Newton iteration on the
quintic model of F(t+g) - F(t), in plain complex arithmetic: each
evaluation buys a sixth-order step instead of Halley's third-order one.
Nothing is precomputed for a spec beyond its complete beta and its Gauss rules.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cartography import _is_integer, _require_instance

# QuadratureConfig.node_count cap: each Gauss rule is an O(n^3) eigensolve
MAX_NODE_COUNT = 512


class CutCrossingError(ValueError):
    """The integration path would cross the branch cut on (1, inf)."""


class NonConvergenceError(RuntimeError):
    """The quadrature's n- against 2n-node estimate missed its 1e-12
    relative tolerance, or the Newton iteration failed to settle.

    ``stage`` is "quadrature" or "newton", ``evaluations`` the number of
    cs_map calls the failed stage spent (1 for the quadrature), and
    ``best_residual`` how close it came: the estimated relative error of
    the quadrature, or the smallest |cs_map(t) - z| that Newton reached.
    """

    def __init__(self, message: str, *, stage: str | None = None,
                 evaluations: int | None = None,
                 best_residual: float | None = None):
        super().__init__(message)
        self.stage = stage
        self.evaluations = evaluations
        self.best_residual = best_residual


class OutsideImageError(ValueError):
    """The point to invert lies outside the closed image triangle."""


def _require_finite(name: str, value) -> complex:
    """``value`` as a finite complex; a str or bytes is a TypeError."""
    if isinstance(value, (str, bytes)):
        raise TypeError(f"{name} must be a number, not {type(value).__name__}")
    value = complex(value)
    if not cmath.isfinite(value):
        raise ValueError(f"{name} = {value} is not finite")
    return value


def _path_end(t) -> complex:
    """``t`` as the complex end of the straight path from 0: finite,
    with a modulus that is still a float, and off the branch cut."""
    t = _require_finite("t", t)
    try:
        abs(t)
    except OverflowError:
        raise ValueError(
            f"t = {t} has a modulus beyond the float range") from None
    if t.imag == 0.0 and t.real > 1.0:
        raise CutCrossingError(
            f"t = {t.real} lies on the branch cut (1, inf)")
    return t


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss nodes per quadrature panel; each panel also runs at twice
    as many to estimate its error."""

    node_count: int = 48

    def __post_init__(self):
        if not _is_integer(self.node_count) or self.node_count < 2:
            raise ValueError("node_count must be an integer >= 2")
        if self.node_count > MAX_NODE_COUNT:
            raise ValueError(f"node_count must be <= {MAX_NODE_COUNT}")
        object.__setattr__(self, "node_count", int(self.node_count))


DEFAULT_CONFIG = QuadratureConfig()


def _node_count(cfg: QuadratureConfig | None) -> int:
    """The node count of ``cfg``, or of DEFAULT_CONFIG for None."""
    _require_instance("cfg", cfg, (QuadratureConfig, type(None)))
    return (DEFAULT_CONFIG if cfg is None else cfg).node_count


#: smallest exponent: below about 1.2e-16 a - 1 rounds to -1 or next to
#: it, and the Golub-Welsch matrix of its Gauss rule divides 0 by 0
MIN_EXPONENT = 1e-15


def _check_exponents(a: float, b: float) -> tuple[float, float]:
    """(a, b) as Python floats, each a Python or numpy integer or float,
    not a bool, in [MIN_EXPONENT, 1]."""
    for name, x in (("a", a), ("b", b)):
        if (not isinstance(x, (int, float, np.integer, np.floating))
                or isinstance(x, bool) or not MIN_EXPONENT <= x <= 1.0):
            raise ValueError(
                f"exponent {name} must lie in [{MIN_EXPONENT}, 1]")
    return float(a), float(b)


@dataclass(frozen=True)
class CsMapSpec:
    """Exponent pair and unimodular prefactor of a coordinate map, held
    as Python floats and a complex, so every map runs in double precision."""

    a: float
    b: float
    prefactor: complex
    name: str = "custom"

    def __post_init__(self):
        a, b = _check_exponents(self.a, self.b)
        _require_instance("prefactor", self.prefactor, numbers.Number)
        prefactor = complex(self.prefactor)
        if a == 1.0:
            raise ValueError("exponent a must lie below 1")
        # negated, so a NaN modulus fails too
        if not abs(abs(prefactor) - 1.0) <= 1e-12:
            raise ValueError("prefactor must have modulus 1")
        for field, value in (("a", a), ("b", b), ("prefactor", prefactor)):
            object.__setattr__(self, field, value)


#: unit square cell coordinate: angles pi/4, pi/4, pi/2
SQUARE_CELL = CsMapSpec(0.25, 0.25, 1j, "square_cell")
#: coordinate of a tricolored triangle pair: angles pi/6, pi/2, pi/3
TRIANGLE_COORD = CsMapSpec(1.0 / 6.0, 0.5, 1.0 + 0j, "triangle_coord")
#: square-target coordinate: angles pi/4, pi/2, pi/4
SQUARE_COORD = CsMapSpec(0.25, 0.5, 1.0 + 0j, "square_coord")

NAMED_SPECS = {
    s.name: s for s in (SQUARE_CELL, TRIANGLE_COORD, SQUARE_COORD)
}


def named_spec(name: str) -> CsMapSpec:
    try:
        return NAMED_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown map spec {name!r}; available: "
            f"{', '.join(sorted(NAMED_SPECS))}") from None


def _arg_lower(t: complex) -> float:
    """Argument in [-pi, pi) continued from the lower half-plane: the
    negative real axis gets -pi."""
    if t.imag == 0.0 and t.real < 0.0:
        return -math.pi
    # cmath.phase gives the same double, but raises where it underflows
    return math.atan2(t.imag, t.real)


def _pow_lower(t: complex, p: float) -> complex:
    """t**p with the lower-half-plane branch of the argument.  |t|**p is
    a real power: exp(p*log|t|) would scale log's rounding by p*log|t|."""
    if t == 0:
        return complex(0.0) if p > 0 else complex("inf")
    return cmath.rect(abs(t) ** p, p * _arg_lower(t))


def _gauss01(n: int, a: float):
    """Nodes s and weights w with sum(w * f(s)) = integral_0^1
    s^(a-1) f(s) ds for polynomials f of degree < 2n (a = 1: Legendre).
    Golub & Welsch (1969): the nodes are the eigenvalues of the Jacobi
    matrix of P^(0, a-1) moved to [0, 1], and the weights the squared
    first eigenvector components times the mass 1/a."""
    c = a - 1.0
    k = np.arange(1, n, dtype=float)
    m = 2.0 * k + c
    diag = np.append(a / (a + 1.0), 0.5 + 0.5 * c * c / (m * (m + 2.0)))
    off = k * (k + c) / (m * np.sqrt((m - 1.0) * (m + 1.0)))
    s, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = v[0] ** 2 / a
    w.setflags(write=False)
    return s, w


def _segment_distance_to_one(t: complex) -> float:
    """Distance from the point 1 to the segment [0, t]: |1 - u*t| for
    u = Re t/|t|/|t| clipped to [0, 1] (|t|^2 itself can overflow)."""
    r = abs(t)
    u = min(1.0, max(0.0, t.real / r / r)) if r > 0 else 0.0
    return abs(1.0 - u * t)


# The caches below are keyed by user-supplied specs and node counts, so
# each holds a bounded number of entries.
@lru_cache(maxsize=64)
def _node_pair(n: int, a: float):
    """The n- and 2n-node rules of a panel side by side for the weight
    s^(a-1): nodes of both in one array, then the two weight vectors."""
    rules = [_gauss01(m, a) for m in (n, 2 * n)]
    s = np.concatenate([rule[0] for rule in rules])
    s.setflags(write=False)
    return s, rules[0][1], rules[1][1]


_TARGET_REL_ERROR = 1e-12


def _panel(p: complex, b: float, n: int, s, w, w2, scale: float,
           weight=None) -> tuple[complex, float]:
    """One panel of _scaled_integral at its scaled point p, with the
    integrand (1 - p*s)^(b-1) at the nodes s, times ``weight`` if given:
    the 2n-node value and its distance from the n-node value.  With
    x + iy = 1 - p*s, the integrand has modulus hypot(x, y)^(b-1), where
    x^2 + y^2 could overflow, and argument (b-1)*atan2(y, x): principal,
    as 1 - p*s meets (-inf, 0] only for t on the cut (1, inf)."""
    x, y = 1.0 - p.real * s, -p.imag * s
    modulus = np.hypot(x, y) ** (b - 1.0)
    if weight is not None:
        modulus *= weight
    angle = (b - 1.0) * np.arctan2(y, x)
    re, im = modulus * np.cos(angle), modulus * np.sin(angle)
    fine = scale * complex(w2 @ re[n:], w2 @ im[n:])
    return fine, abs(fine - scale * complex(w @ re[:n], w @ im[:n]))


def _scaled_integral(a: float, b: float, t: complex, n: int) -> complex:
    """integral_0^1 s^(a-1) (1 - t*s)^(b-1) ds on a fixed ladder: one
    Gauss-Jacobi panel from 0, which absorbs the weight, up to 1 or, for
    |t| > 1, up to 0.5/|t|, then Gauss-Legendre panels that double in
    length up to 1.  A panel [lo, hi] runs at its scaled point p = lo*t:
    with s = lo*x it is lo^a times the integral of x^(a-1) (1 - p*x)^(b-1)
    over x in [0, 1] for the first panel and in [1, hi/lo] for the rest,
    whose scale (hi - lo)/lo * lo^a and weight x^(a-1) are at most 1.
    Each panel runs at n and 2n nodes; the summed differences estimate
    the error of the summed 2n-node values."""
    s, w, w2 = _node_pair(n, a)
    r = abs(t)
    lo = 1.0 if r <= 1.0 else 0.5 / r
    total, err = _panel(lo * t, b, n, s, w, w2, lo ** a)
    total += 0  # summed from 0 as sum() did, so -0.0 parts read 0.0
    if lo < 1.0:
        s, w, w2 = _node_pair(n, 1.0)
    while lo < 1.0:
        hi = min(2.0 * lo, 1.0)
        width = (hi - lo) / lo
        x = 1.0 + width * s
        value, error = _panel(lo * t, b, n, x, w, w2, width * lo ** a,
                              x ** (a - 1.0))
        total += value
        err += error
        lo = hi
    if err <= _TARGET_REL_ERROR * max(abs(total), 1e-300):
        return total
    rel_err = err / max(abs(total), 1e-300)
    raise NonConvergenceError(
        f"estimated relative error {rel_err:.2e} of the quadrature at "
        f"node_count {n} exceeds {_TARGET_REL_ERROR:.0e}",
        stage="quadrature", evaluations=1, best_residual=rel_err)


_NEAR_ONE = 0.1


def incomplete_cs_integral(a: float, b: float, t,
                           cfg: QuadratureConfig | None = None) -> complex:
    """I(a, b; t) along the straight segment from 0 to t.

    The endpoint t = 1 is allowed (the integral converges to the
    complete value); real t > 1 raises CutCrossingError, and a t with
    an infinite or NaN part, or whose modulus exceeds the largest
    float, raises ValueError.  NonConvergenceError means the n- and
    2n-node values of the panel ladder differ by more than 1e-12
    relative, as they do for a node count far below the default.
    """
    n = _node_count(cfg)
    a, b = _check_exponents(a, b)
    return _integral(a, b, _path_end(t), n)


def _integral(a: float, b: float, t: complex, n: int) -> complex:
    """I(a, b; t) for checked a, b and t, on n-node panels.  A path near
    w = 1 is reflected: I(a, b; t) = B(a, b) - I(b, a; 1 - t), whose
    path stays clear of 1, as its points 1 - s + s*t have real part at
    least min(1, Re t) > 0.9."""
    reflect = _segment_distance_to_one(t) < _NEAR_ONE
    p, q, s = (b, a, 1.0 - t) if reflect else (a, b, t)
    value = _pow_lower(s, p) * _scaled_integral(p, q, s, n) if s else 0j
    return _beta_cached(a, b, n) - value if reflect else value


@lru_cache(maxsize=256)
def _beta_cached(a: float, b: float, n: int) -> float:
    """B(a, b) as the integrals of w^(x-1) (1-w)^(y-1) over [0, 1/2] for
    (x, y) = (a, b), (b, a): 2^-x times _scaled_integral at t = 1/2."""
    return (0.5 ** a * _scaled_integral(a, b, 0.5, n)
            + 0.5 ** b * _scaled_integral(b, a, 0.5, n)).real


def complete_beta(a: float, b: float,
                  cfg: QuadratureConfig | None = None) -> float:
    """B(a, b) = I(a, b; 1), split symmetrically at 1/2 so the result is
    exactly symmetric in (a, b).  Each half is checked as
    :func:`incomplete_cs_integral` is, with its NonConvergenceError."""
    n = _node_count(cfg)
    return _beta_cached(*_check_exponents(a, b), n)


def cs_map(spec: CsMapSpec, t, cfg: QuadratureConfig | None = None) -> complex:
    """prefactor * I(a, b; t) / B(a, b): the normalized coordinate.

    Raises the errors of :func:`incomplete_cs_integral`: CutCrossingError
    for real t > 1, ValueError for non-finite t or t whose modulus
    overflows, and NonConvergenceError for a missed tolerance.
    """
    _require_instance("spec", spec, CsMapSpec)
    n = _node_count(cfg)
    return spec.prefactor * _integral(spec.a, spec.b, _path_end(t), n) \
        / _beta_cached(spec.a, spec.b, n)


def cs_map_derivative(spec: CsMapSpec, t) -> complex:
    """Closed-form derivative prefactor * t^(a-1) (1-t)^(b-1) / B(a, b),
    with the same branch convention as the map itself.  Raises
    ValueError at t = 0, at t = 1, for non-finite t or t whose modulus
    overflows, and where the derivative overflows (next to 0 or 1 for a
    tiny exponent), and CutCrossingError for real t > 1."""
    _require_instance("spec", spec, CsMapSpec)
    t = _path_end(t)
    if t == 0 or t == 1:
        raise ValueError(f"derivative is singular at t = {t}")
    try:
        return spec.prefactor * _pow_lower(t, spec.a - 1.0) \
            * (1.0 - t) ** (spec.b - 1.0) / complete_beta(spec.a, spec.b)
    except OverflowError:
        raise ValueError(f"derivative at t = {t} overflows the float "
                         "range") from None


def image_triangle(spec: CsMapSpec) -> tuple[complex, complex, complex]:
    """Vertices of the image triangle: cs_map at 0, at 1, and the limit
    along the negative real axis (the image of infinity)."""
    _require_instance("spec", spec, CsMapSpec)
    a, b = spec.a, spec.b
    if not a + b < 1.0:
        raise ValueError("image is a triangle only for a + b < 1")
    c = 1.0 - a - b
    if c < MIN_EXPONENT:
        raise ValueError(f"1 - a - b = {c!r} lies below MIN_EXPONENT "
                         f"{MIN_EXPONENT}")
    n = DEFAULT_CONFIG.node_count
    v_inf = spec.prefactor * cmath.exp(-1j * math.pi * a) \
        * _beta_cached(a, c, n) / _beta_cached(a, b, n)
    return 0j, complex(spec.prefactor), v_inf


def _inside_triangle(z: complex, tri, tol: float) -> bool:
    """Whether z lies inside tri or within distance tol of it."""
    p0, p1, p2 = tri
    orient = ((p1 - p0).conjugate() * (p2 - p0)).imag
    sign = 1.0 if orient >= 0 else -1.0
    for q0, q1 in ((p0, p1), (p1, p2), (p2, p0)):
        edge = q1 - q0
        if sign * (edge.conjugate() * (z - q0)).imag < -tol * abs(edge):
            return False
    return True


# points within this share of max(1, |z|) past an edge count as on it,
# 100 times inside the residual promise
_SNAP = 1e-12
_NEWTON_TARGET = 1e-14
_NEWTON_PROMISE = 1e-10
_MAX_ITERATIONS = 100
# a run whose residual has not halved in this many evaluations in a row
# has stalled, whether next to the answer at the precision of t itself
# or lost far from it
_STALL_ITERATIONS = 3


def _prevertices(spec: CsMapSpec) -> tuple[tuple[float, float, complex], ...]:
    """(e, beta, lead) at the prevertices 0, 1 and infinity: in the chart
    x = _chart(k, t) of prevertex k the map is tri[k] + lead x^e / (e B)
    to leading order, and dF/dw = lead (1 - x)^(beta-1) / (e B) for w =
    x^e."""
    a, b, pf = spec.a, spec.b, spec.prefactor
    return ((a, b, pf), (b, a, -pf),
            (1.0 - (a + b), b, -pf * cmath.exp(1j * math.pi * (b - 1.0))))


def _chart(k: int, t: complex) -> complex:
    """x = t, 1 - t or 1/t at prevertex k; each is its own inverse."""
    return t if k == 0 else 1.0 - t if k == 1 else 1.0 / t


def _newton_step(spec: CsMapSpec, t: complex, residual: complex,
                 beta_ab: float) -> complex:
    """One Halley-corrected Newton update for cs_map(t) = z (see _halley),
    refined on the map's Taylor model around t (see _refined).  It runs
    in w = x^e at the prevertex nearest t, where the map has a simple
    zero and F''/F' is closed-form: 0 or 1 while r = min(|t|, |1-t|) <=
    1, infinity beyond.  At infinity w is t^(a+b-1) on the lower branch:
    the principal power of 1/t = -0.2-0j lies across the cut.  The step
    returns as x (1 + v)^(1/e) for the relative step v in w, since a
    power of w itself would magnify w's rounding by 1/|e|; an iterate on
    0 or 1 divides by zero."""
    r = min(abs(t), abs(1.0 - t))
    k = 2 if r > 1.0 else 0 if abs(t) <= abs(1.0 - t) else 1
    e, beta, lead = _prevertices(spec)[k]
    x = _chart(k, t)
    w = _pow_lower(t, -e) if k == 2 else _pow_lower(x, e)
    rho = residual * e * beta_ab / (lead * (1.0 - x) ** (beta - 1.0))
    s = x / w
    v = -_halley(rho, (1.0 - beta) * s / (e * (1.0 - x))) / w
    # log(1 + v) is log(p) less p's rounding (p - 1 - v)/p
    p = 1.0 + v
    x_new = x * cmath.exp((cmath.log(p) - (p - 1.0 - v) / p) / e)
    dt_dx = 1.0 if k == 0 else -1.0 if k == 1 else -t * t
    return _refined(spec.a, spec.b, t, _chart(k, x_new), rho * s / e * dt_dx,
                    r)


# _refined runs where the step g is below this share of the radius r:
# above it the quintic model's remainder, of order |F'| r |g/r|^6, misses
# the Newton target, so the refined step would not save an evaluation
_MODEL_HIGH = 0.01


def _refined(a: float, b: float, t: complex, t_new: complex, rho: complex,
             r: float) -> complex:
    """t_new, or where its step g = t_new - t has 0 < |g| < _MODEL_HIGH*r
    (a step that rounds to nothing ends the run), t + g after one Newton
    iteration on the Taylor model M(g) = -rho, rho = (F(t) - z)/F'(t) the
    Newton step in t (see _taylor_model), whose radius is at least r."""
    g = t_new - t
    if not 0.0 < abs(g) < _MODEL_HIGH * r:
        return t_new
    m, dm = _taylor_model(a, b, t, g)
    return t + (g - (m + rho) / dm)


def _taylor_model(a: float, b: float, t: complex,
                  g: complex) -> tuple[complex, complex]:
    """The quintic model M(g) = sum_{j<5} c_j g^(j+1)/(j+1) of
    (F(t+g) - F(t))/F'(t), and its derivative M'(g) = sum_{j<5} c_j g^j.
    The c_j are the Taylor coefficients of F'(t+g)/F'(t) =
    (1 + g/t)^(a-1) (1 + g/(t-1))^(b-1): the Cauchy product of two
    binomial series, which converge for |g| < min(|t|, |1-t|).  Terms
    are carried as c_j g^j, summed from the smallest."""
    x, y = g / t, g / (t - 1.0)
    p1 = (a - 1.0) * x
    p2 = p1 * (a - 2.0) * x / 2.0
    p3 = p2 * (a - 3.0) * x / 3.0
    p4 = p3 * (a - 4.0) * x / 4.0
    q1 = (b - 1.0) * y
    q2 = q1 * (b - 2.0) * y / 2.0
    q3 = q2 * (b - 3.0) * y / 3.0
    q4 = q3 * (b - 4.0) * y / 4.0
    c1 = p1 + q1
    c2 = p2 + p1 * q1 + q2
    c3 = p3 + p2 * q1 + p1 * q2 + q3
    c4 = p4 + p3 * q1 + p2 * q2 + p1 * q3 + q4
    return (g * (c4 / 5.0 + c3 / 4.0 + c2 / 3.0 + c1 / 2.0 + 1.0),
            c4 + c3 + c2 + c1 + 1.0)


def _halley(rho: complex, k: complex) -> complex:
    """Halley's step rho / (1 - rho*k/2) from Newton's step rho and the
    curvature k = F''/F', or rho itself where |rho*k/2| > 1/2."""
    h = 0.5 * rho * k
    return rho / (1.0 - h) if abs(h) <= 0.5 else rho


def _corner_seed(spec: CsMapSpec, z: complex, tri,
                 beta_ab: float) -> complex:
    """The local inverse at the corner of the image expected to land
    closest to z.  Each corner's seed solves the first two terms of the
    map's expansion in the chart x of its prevertex (see _prevertices):
    the leading solve x0 of z = tri[k] + lead x^e / (e B), moved by
    the second term, whose share kappa |x0| of the first ranks the
    seeds: the smallest such share of |z - tri[k]| wins.  A seed that
    overflows or is not finite is skipped."""
    best_t, best_error = None, math.inf
    for k, (e, beta, lead) in enumerate(_prevertices(spec)):
        kappa = e * (1.0 - beta) / (e + 1.0)
        try:
            x0 = ((z - tri[k]) * e * beta_ab / lead) ** (1.0 / e)
            t = _chart(k, x0 * (1.0 + kappa * x0) ** (-1.0 / e))
            error = kappa * abs(x0) * abs(z - tri[k])
        except (OverflowError, ZeroDivisionError):
            continue
        if cmath.isfinite(t) and error < best_error:
            best_t, best_error = t, error
    if best_t is None:
        raise NonConvergenceError(
            f"no corner of the image gives a finite seed for {z}",
            stage="newton", evaluations=0, best_residual=math.inf)
    return _onto_sheet(best_t)


def _onto_sheet(t: complex) -> complex:
    """Keep a Newton iterate on the sheet: solutions live in the closed
    lower half-plane, and crossing (-inf,0] or [1,inf) from below
    changes the branch."""
    if t.imag == 0.0 and t.real > 1.0:
        return complex(t.real, -1e-12)
    if t.imag > 0.0 and not 0.0 < t.real < 1.0:
        return t.conjugate()
    return t


def _onto_lower(t: complex) -> complex:
    """t with a positive imaginary part dropped.  Newton iterates may
    cross the real segment (0, 1), where the map continues analytically,
    and a root on that segment can come back as Im t of about 1e-13."""
    return complex(t.real, 0.0) if t.imag > 0.0 else t


def invert_cs_map(spec: CsMapSpec, z) -> complex:
    """Solve cs_map(spec, t) = z for t in the closed lower half-plane.

    The returned t satisfies |cs_map(t) - z| <= 1e-10 * max(1, |z|).
    Points more than 1e-12 * max(1, |z|) outside the closed image
    triangle raise OutsideImageError, a z with an infinite or NaN part or
    a spec whose image is no triangle (:func:`image_triangle`) raises
    ValueError, and a Newton iteration that does not settle raises
    NonConvergenceError.  A z within the Newton target, 1e-14 *
    max(1, |z|), of the image of 0 or 1 returns that corner.

    Newton runs once, from one seed: the two-term local inverse at the
    corner whose expansion is expected to land closest to z (see
    _corner_seed).  Each step is a Halley step in the variable of the
    prevertex nearest the iterate, refined on the map's quintic Taylor
    model where it is small, so one evaluation of the map buys a
    sixth-order step (see _newton_step).
    No corner giving a finite seed, as for exponents whose powers
    overflow, is a NonConvergenceError with no evaluations.  Near the
    image of t = 1 the promise can be out of reach: the solution is
    1 - d with |Re d| below the spacing of doubles next to 1, and the
    map magnifies that spacing by about |d|^(b-1).  For SQUARE_CELL
    this holds within about 2e-3 of 1j, except on the bisector of that
    corner, where d is imaginary.  A failing run ends once three
    evaluations in a row have not halved its residual, whether it sits
    there next to its answer or far from it.
    """
    z = _require_finite("z", z)
    tri = image_triangle(spec)
    if not _inside_triangle(z, tri, _SNAP * max(1.0, abs(z))):
        raise OutsideImageError(f"{z} is outside the image triangle")
    for corner in (0, 1):  # where the corner is as good as Newton's t
        if abs(z - tri[corner]) <= _NEWTON_TARGET * max(1.0, abs(z)):
            return complex(corner)
    a, b, pf, n = spec.a, spec.b, spec.prefactor, DEFAULT_CONFIG.node_count
    beta_ab = _beta_cached(a, b, n)
    t = _corner_seed(spec, z, tri, beta_ab)
    best_t = None
    best_r = math.inf
    halved_r = math.inf  # the residual when it last halved
    since_halved = 0
    for evaluations in range(1, _MAX_ITERATIONS + 1):
        try:
            # iterates are finite and off the cut; a huge |t| overflows
            value = pf * _integral(a, b, t, n) / beta_ab
        except (ValueError, OverflowError):
            break
        r = abs(value - z)
        if r < best_r:
            best_r = r
            best_t = t
        if r <= _NEWTON_TARGET:
            return _onto_lower(t)
        if r <= 0.5 * halved_r:
            halved_r = r
            since_halved = 0
        else:
            since_halved += 1
            if since_halved >= _STALL_ITERATIONS:
                break
        try:
            t_new = _newton_step(spec, t, value - z, beta_ab)
        except (OverflowError, ZeroDivisionError, ValueError):  # x = 0
            break
        if not cmath.isfinite(t_new):
            break
        t_new = _onto_sheet(t_new)
        if t_new == t:
            break
        t = t_new
    if best_r <= _NEWTON_PROMISE:
        return _onto_lower(best_t)
    raise NonConvergenceError(
        f"Newton iteration for {z} stalled at residual {best_r:.2e}",
        stage="newton", evaluations=evaluations, best_residual=best_r)


def triangle_to_square(z) -> complex:
    """Conformal change of coordinate from the triangle-shaped image of
    TRIANGLE_COORD to the half-square image of SQUARE_COORD, fixing 0
    and 1 and matching the maps' shared parameter t.  Raises the errors
    of :func:`invert_cs_map`."""
    return cs_map(SQUARE_COORD, invert_cs_map(TRIANGLE_COORD, z))
