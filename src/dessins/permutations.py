"""Permutations of {0, ..., n-1} as tuples of images: the cycle listing
of ``Dessin.cells`` and seeded random draws.  The package computes with
the index arrays of :mod:`dessins.cartography`; the draws stay here
because :mod:`dessins.catalog`, the tests and the benchmark replay
seeded streams, which must not change.
"""

from __future__ import annotations

from random import Random
from typing import Sequence


def orbits(p: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cycles of p, each starting at its smallest element, ordered by
    that element.  Singletons are included."""
    seen = [False] * len(p)
    out = []
    for x in range(len(p)):
        if seen[x]:
            continue
        cyc = []
        y = x
        while not seen[y]:
            seen[y] = True
            cyc.append(y)
            y = p[y]
        out.append(tuple(cyc))
    return tuple(out)


def random_permutation(n: int, rng: Random) -> tuple[int, ...]:
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def random_fixed_point_free_involution(n: int, rng: Random) -> tuple[int, ...]:
    """Uniform fixed-point-free involution of {0, ..., n-1}; n must be even."""
    if n % 2:
        raise ValueError("a fixed-point-free involution needs an even domain")
    slots = list(range(n))
    rng.shuffle(slots)
    images = [0] * n
    for i in range(0, n, 2):
        a, b = slots[i], slots[i + 1]
        images[a] = b
        images[b] = a
    return tuple(images)
