import random

import pytest

from dessins import permutations as perms


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_random_permutation_properties(n):
    rng = random.Random(99)
    for _ in range(20):
        p = perms.random_permutation(n, rng)
        assert sorted(p) == list(range(n))


def test_random_involution_fixed_point_free():
    rng = random.Random(5)
    for n in (2, 8, 30):
        for _ in range(10):
            p = perms.random_fixed_point_free_involution(n, rng)
            assert all(p[x] != x for x in range(n))
            assert all(p[p[x]] == x for x in range(n))


def test_random_involution_rejects_odd():
    with pytest.raises(ValueError):
        perms.random_fixed_point_free_involution(3, random.Random(0))


def test_random_streams_are_pinned():
    # catalog, the property tests and the benchmark replay seeded draws,
    # so the images a seed gives must not change
    assert perms.random_permutation(8, random.Random(2022)) == (
        6, 1, 5, 0, 2, 7, 3, 4)
    assert perms.random_fixed_point_free_involution(
        8, random.Random(2022)) == (5, 6, 7, 4, 3, 0, 1, 2)
