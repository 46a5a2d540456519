"""classify_surfaces: sort a shuffled collection of existing square-tiled
surfaces into strata and isomorphism classes.

Where subdivide_pipeline builds new dessins, this workload reads
cartography and metric on dessins that already exist.  The collection
holds equal-area torus grids of several shapes (w x h and h x w are
isomorphic, differently shaped grids of one area are not) and random
origamis; every surface also appears as two random relabelings.  The
Dessin objects of a pass are built before it starts, outside the timed
section, so cached orbits and codes never carry over between passes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from dessins import catalog, metric, permutations
from dessins.cartography import CellKind, Dessin, is_isomorphic

GRID_SHAPES = (
    (1, 16), (16, 1), (2, 8), (8, 2), (4, 4),
    (2, 18), (18, 2), (3, 12), (12, 3), (6, 6),
    (2, 32), (32, 2), (4, 16), (16, 4), (8, 8),
)
# three 128-square origamis put the 90th percentile inside one group of
# like-sized ops rather than on the edge between two
ORIGAMI_SQUARES = (8, 16, 32, 64, 128, 128, 128, 256)
RELABELINGS = 2


@dataclass(frozen=True)
class Entry:
    source: int  # surfaces with one source are relabelings of each other
    shape: tuple[int, int] | None  # grid shape, None for origamis
    squares: int
    n_darts: int
    rho0: tuple[int, ...]
    rho1: tuple[int, ...]


@dataclass(frozen=True)
class Item:
    entry: Entry
    dessin: Dessin


class ClassifySurfaces:
    name = "classify_surfaces"
    unit = "squares"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.setup_times = {"catalog.build_s": 0.0,
                            "cartography.relabeled_s": 0.0}
        surfaces = [(shape, shape[0] * shape[1], catalog.square_torus_grid,
                     *shape) for shape in GRID_SHAPES]
        surfaces += [(None, n, catalog.random_origami, n, rng)
                     for n in ORIGAMI_SQUARES]
        self.entries = []
        for source, (shape, squares, build, *args) in enumerate(surfaces):
            start = perf_counter()
            d = build(*args)
            self.setup_times["catalog.build_s"] += perf_counter() - start
            copies = [d]
            start = perf_counter()
            for _ in range(RELABELINGS):
                sigma = permutations.random_permutation(d.n_darts, rng)
                copies.append(d.relabeled(sigma))
            self.setup_times["cartography.relabeled_s"] += \
                perf_counter() - start
            self.entries += [Entry(source, shape, squares, c.n_darts, c.rho0,
                                   c.rho1) for c in copies]
        rng.shuffle(self.entries)
        self._buckets: dict = {}

    def items(self):
        """Fresh Dessin objects and empty buckets: each pass sorts the
        collection from scratch."""
        self._buckets = {}
        return [Item(e, Dessin(e.n_darts, e.rho0, e.rho1))
                for e in self.entries]

    def squares(self, item: Item) -> int:
        return item.entry.squares

    def kind(self, item: Item) -> str:
        return "surface"

    def run(self, item: Item, tr):
        d = item.dessin
        n = d.n_darts
        m = tr.call("metric.square_structure", n, metric.square_structure, d)
        angles = [tr.call("metric.cone_angle", n, metric.cone_angle, d, m, v)
                  for v in range(len(d.cells(CellKind.VERTEX)))]
        stratum = tuple(sorted(round(a / (math.pi / 2)) for a in angles))
        tr.call("cartography.canonical_code", n,
                getattr, d, "canonical_code")
        bucket = self._buckets.setdefault((n, stratum), [])
        for cls, rep in bucket:
            if tr.call("cartography.is_isomorphic", n, is_isomorphic, rep, d):
                return angles, stratum, cls
        cls = (n, stratum, len(bucket))
        bucket.append((cls, d))
        return angles, stratum, cls

    def check(self, item: Item, out) -> str | None:
        angles, stratum, _ = out
        if any(abs(a / (math.pi / 2) - k) > 1e-9
               for a, k in zip(sorted(angles), stratum)) or \
                sum(stratum) != item.entry.n_darts:
            return f"cone angles {angles} do not make a square stratum"
        return None

    def summary(self, out):
        angles, stratum, cls = out
        return tuple(angles), stratum, cls

    def check_pass(self, items, results) -> dict[int, str]:
        """Relabelings and transposed grids share a class and differently
        shaped grids do not.  Buckets are keyed by stratum, so a class
        has one stratum, and a relabeling that changed the stratum would
        split its surface over two classes."""
        def key(e: Entry):
            return ("grid", tuple(sorted(e.shape))) if e.shape \
                else ("origami", e.source)

        classes = {}
        for item, out in zip(items, results):
            if out is not None:
                classes.setdefault(key(item.entry), set()).add(out[2])
        problems = {}
        for i, (item, out) in enumerate(zip(items, results)):
            if out is None:
                continue
            k = key(item.entry)
            if len(classes[k]) != 1:
                problems[i] = f"{k} split over classes {classes[k]}"
                continue
            shared = [other for other, c in classes.items()
                      if other != k and other[0] == "grid" == k[0]
                      and c == classes[k]]
            if shared:
                problems[i] = f"{k} shares a class with {shared}"
        return problems

    def tolerated(self, item: Item, exc: Exception) -> bool:
        return False

    def traced_extras(self, tr, records, scratch: Path) -> dict[str, float]:
        return {}
