"""coordinate_maps: the Schwarz-Christoffel layer alone, one point per op.

One pass is what a user gets from `dessins map-eval --grid N` for each
of the three named specs, then `dessins transform` and
`invert_cs_map(SQUARE_CELL, .)` on seeded points of the image
triangles.  Most inverse points are uniform in the interior; a fixed
share lies on an edge or within 1e-9 to 1e-3 of a corner, where Newton
reseeds, snaps and, today, sometimes stalls.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from dessins import csmap
from dessins.csmap import (SQUARE_CELL, SQUARE_COORD, TRIANGLE_COORD,
                           NonConvergenceError, QuadratureConfig)

GRID = 16
INVERSE_POINTS = 2400  # for each of the two inverse functions
EDGE_POINTS = 240
CORNER_POINTS = 240
FORWARD_CHECK_EVERY = 16
# known stall of invert_cs_map(TRIANGLE_COORD, .), kept in the mix
STALL_POINT = complex(0.39423, -0.20921)
REFERENCE = QuadratureConfig(node_count=96)


@dataclass(frozen=True)
class Point:
    kind: str  # "forward", "transform" or "invert"
    spec: csmap.CsMapSpec
    value: complex  # t for forward, z for the inverse kinds
    checked: bool = True


# R2 low-discrepancy sequence: k * (1/g, 1/g^2) mod 1 for the plastic
# number g.  Any run of its points covers a region in proportion to the
# region's area, so the few points that land where Newton is slow or
# stalls come in the same share on every seed; the seed only shifts the
# sequence.
_PLASTIC = 1.324717957244746
_R2 = (1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2)


class _Sampler:
    """Seeded points in the closed image triangle ``tri``: interior
    points uniform in the triangle, points on its edges, and points
    10**-9 to 10**-3 from a corner in a direction inside the corner."""

    def __init__(self, tri, rng: random.Random):
        self.tri = tri
        self.offsets = {kind: (rng.random(), rng.random())
                        for kind in ("interior", "edge", "corner")}
        self.count = dict.fromkeys(self.offsets, 0)

    def _next(self, kind: str) -> tuple[float, float]:
        k = self.count[kind]
        self.count[kind] += 1
        (a, b) = self.offsets[kind]
        return (a + k * _R2[0]) % 1.0, (b + k * _R2[1]) % 1.0

    def interior(self) -> complex:
        p0, p1, p2 = self.tri
        u, v = self._next("interior")
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        return p0 + u * (p1 - p0) + v * (p2 - p0)

    def edge(self) -> complex:
        u, _ = self._next("edge")
        i = self.count["edge"] % 3
        a, b = self.tri[i], self.tri[(i + 1) % 3]
        return a + u * (b - a)

    def corner(self) -> complex:
        u, v = self._next("corner")
        i = self.count["corner"] % 3
        c, q, r = self.tri[i], self.tri[(i + 1) % 3], self.tri[(i + 2) % 3]
        direction = u * (q - c) + (1.0 - u) * (r - c)
        return c + 10.0 ** (-9.0 + 6.0 * v) * direction / abs(direction)

    def points(self, first=()) -> list[complex]:
        out = list(first)
        while len(out) < INVERSE_POINTS - EDGE_POINTS - CORNER_POINTS:
            out.append(self.interior())
        out += [self.edge() for _ in range(EDGE_POINTS)]
        out += [self.corner() for _ in range(CORNER_POINTS)]
        return out


class CoordinateMaps:
    name = "coordinate_maps"
    unit = "points"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.setup_times = {}
        t0 = complex(0.3, -0.4)
        for spec, invert in (
                (SQUARE_COORD, None),
                (TRIANGLE_COORD, csmap.triangle_to_square),
                (SQUARE_CELL, functools.partial(csmap.invert_cs_map,
                                                SQUARE_CELL))):
            # the first call of a spec pays for its nodes, its complete
            # beta and, when inverted, its seed grid
            start = perf_counter()
            z0 = csmap.cs_map(spec, t0)
            if invert is not None:
                invert(z0)
            self.setup_times[f"csmap.first_call_s.{spec.name}"] = \
                perf_counter() - start
        forward = []
        for spec in (SQUARE_CELL, TRIANGLE_COORD, SQUARE_COORD):
            for j in range(GRID):
                for i in range(GRID):
                    t = complex(i / (GRID - 1), -j / (GRID - 1))
                    forward.append(Point(
                        "forward", spec, t,
                        len(forward) % FORWARD_CHECK_EVERY == 0))
        coord = _Sampler(csmap.image_triangle(TRIANGLE_COORD), rng)
        cell = _Sampler(csmap.image_triangle(SQUARE_CELL), rng)
        self.points = forward
        self.points += [Point("transform", TRIANGLE_COORD, z)
                        for z in coord.points(first=(STALL_POINT,))]
        self.points += [Point("invert", SQUARE_CELL, z)
                        for z in cell.points()]

    def items(self):
        return self.points

    def squares(self, p: Point) -> int:
        return 0

    def kind(self, p: Point) -> str:
        return "forward" if p.kind == "forward" else "inverse"

    def run(self, p: Point, tr):
        if p.kind == "forward":
            return tr.call("csmap.cs_map", 0, csmap.cs_map, p.spec, p.value)
        if p.kind == "transform":
            return tr.call("csmap.triangle_to_square", 0,
                           csmap.triangle_to_square, p.value)
        return tr.call("csmap.invert_cs_map", 0, csmap.invert_cs_map,
                       p.spec, p.value)

    def check(self, p: Point, out: complex) -> str | None:
        if p.kind == "forward":
            if not p.checked:
                return None
            ref = csmap.cs_map(p.spec, p.value, REFERENCE)
            if abs(out - ref) > 1e-9 * max(1.0, abs(ref)):
                return f"cs_map({p.spec.name}, {p.value}) = {out}, " \
                       f"node_count=96 gives {ref}"
            return None
        z = p.value
        if p.kind == "transform":
            # triangle_to_square is deterministic: repeat its inversion
            # to recover the t it mapped
            t = csmap.invert_cs_map(TRIANGLE_COORD, z)
            if out != csmap.cs_map(SQUARE_COORD, t):
                return f"triangle_to_square({z}) = {out} is not the " \
                       f"square coordinate of t = {t}"
        else:
            t = out
        residual = abs(csmap.cs_map(p.spec, t) - z)
        if not residual <= 1e-10 * max(1.0, abs(z)):
            return f"{p.kind}({z}): residual {residual:.2e}"
        return None

    def summary(self, out: complex) -> complex:
        return out

    def check_pass(self, items, results) -> dict[int, str]:
        return {}

    def tolerated(self, p: Point, exc: Exception) -> bool:
        """Newton stalls on inverse points are the known defect this
        workload keeps in its mix; they count as failed ops."""
        return p.kind != "forward" and isinstance(exc, NonConvergenceError)

    def traced_extras(self, tr, records, scratch: Path) -> dict[str, float]:
        """Failed inverse ops by exception type, each op counted once."""
        out = dict.fromkeys(("NonConvergenceError", "OutsideImageError",
                             "other", "check"), 0)
        errors = {r.item: r.error for r in records
                  if r.kind == "inverse" and r.error is not None}
        for error in errors.values():
            out[error if error in out else "other"] += 1
        return {f"csmap.invert_failures.{k}": v for k, v in out.items()}
