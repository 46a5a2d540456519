"""Seeded random draws of permutations of {0, ..., n-1}, as tuples of
images.  The package computes with the index arrays of
:mod:`dessins.cartography`, cell listings included; the draws stay here
because :mod:`dessins.catalog`, the tests and the benchmark replay
seeded streams, which must not change.
"""

from __future__ import annotations

from random import Random


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
