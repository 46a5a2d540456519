"""Stock dessins: small closed surfaces, origami builders, and seeded
random generators for property tests."""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from . import permutations as perms
from .cartography import (CellKind, Dessin, _permutation_array,
                          from_rho1_rho2, inverse_array)
from .tiling import TricoloredDessin, VertexLabel, tricolored_from_labels


def from_face_lists(faces: Sequence[Sequence[int]]) -> Dessin:
    """Build a dessin from counterclockwise face boundaries given as
    cyclic vertex sequences.

    Each consecutive pair (v_i, v_{i+1}) of a face is one dart; the two
    orientations of an edge must appear in exactly one face each.
    Surfaces where a directed side repeats (self-glued squares and the
    like) cannot be expressed this way; build the permutations directly
    for those.
    """
    darts: list[tuple[int, int]] = []
    for f, face in enumerate(faces):
        if len(face) < 2:
            raise ValueError(f"face {f} has fewer than 2 sides")
        for v in face:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"face {f} contains a bad vertex id {v!r}")
        for i, v in enumerate(face):
            darts.append((v, face[(i + 1) % len(face)]))
    side_index: dict[tuple[int, int], int] = {}
    for d, side in enumerate(darts):
        if side in side_index:
            raise ValueError(
                f"directed side {side[0]}->{side[1]} appears twice; "
                "use explicit permutations for self-glued faces")
        side_index[side] = d
    n = len(darts)
    rho1 = [0] * n
    for d, (u, v) in enumerate(darts):
        try:
            rho1[d] = side_index[(v, u)]
        except KeyError:
            raise ValueError(f"side {u}->{v} has no reverse; "
                             "the surface is not closed") from None
    rho2 = [0] * n
    pos = 0
    for face in faces:
        k = len(face)
        for i in range(k):
            rho2[pos + i] = pos + (i + 1) % k
        pos += k
    return from_rho1_rho2(rho1, rho2)


def origami(horizontal: Sequence[int], vertical: Sequence[int]) -> Dessin:
    """Square-tiled surface from two gluing permutations on squares:
    square s glues its right side to the left side of horizontal[s] and
    its top side to the bottom side of vertical[s].

    Darts 4s..4s+3 are the bottom, right, top, left sides of square s,
    in counterclockwise order.
    """
    n_sq = len(horizontal)
    if len(vertical) != n_sq:
        raise ValueError("gluing permutations must have equal length")
    h, v = (_permutation_array(p, n_sq,
                               "gluings must be permutations of the squares")
            for p in (horizontal, vertical))
    # rho1 per square: bottom, right, top, left meet the top of the
    # square below, the left of the right neighbour, and so on
    rho1 = np.stack([4 * inverse_array(v) + 2, 4 * h + 3, 4 * v,
                     4 * inverse_array(h) + 1], axis=1).ravel()
    darts = np.arange(4 * n_sq)
    rho2 = darts - darts % 4 + (darts + 1) % 4
    return from_rho1_rho2(rho1, rho2)


def one_square_torus() -> Dessin:
    """The unit torus: one square with opposite sides glued."""
    return origami([0], [0])


def square_torus_grid(width: int, height: int) -> Dessin:
    """Torus tiled by a width x height grid of squares."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    # square s = y * width + x; its right and upper neighbours, cyclically
    n_sq = width * height
    h = [s - s % width + (s + 1) % width for s in range(n_sq)]
    v = [(s + width) % n_sq for s in range(n_sq)]
    return origami(h, v)


def pillow_sphere() -> Dessin:
    """Two squares glued along their boundaries: a sphere with four
    cone points of angle pi under the square metric."""
    return from_face_lists([[0, 1, 2, 3], [3, 2, 1, 0]])


def tetrahedron() -> Dessin:
    """Boundary of the tetrahedron, faces counterclockwise from
    outside."""
    return from_face_lists([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])


_OCTA_FACES = [
    [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
    [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4],
]


def octahedron() -> Dessin:
    """Boundary of the octahedron: poles 0 and 5, equator 1, 2, 3, 4."""
    return from_face_lists(_OCTA_FACES)


def octahedron_tricolored() -> TricoloredDessin:
    """The octahedron with poles labeled infinity and the equator
    alternating zero / one.  The smallest closed triangulation that
    admits a tricoloring."""
    d = octahedron()
    by_vertex = {
        0: VertexLabel.INFINITY, 5: VertexLabel.INFINITY,
        1: VertexLabel.ZERO, 3: VertexLabel.ZERO,
        2: VertexLabel.ONE, 4: VertexLabel.ONE,
    }
    labels = [VertexLabel.ZERO] * len(d.cell_arrays(CellKind.VERTEX).size)
    dart = 0
    for face in _OCTA_FACES:
        for v in face:
            labels[d.dart_cell(dart, CellKind.VERTEX).id] = by_vertex[v]
            dart += 1
    return tricolored_from_labels(d, labels)


def random_origami(n_squares: int, rng: random.Random,
                   max_tries: int = 1000) -> Dessin:
    """Connected random origami on n_squares squares."""
    if n_squares < 1:
        raise ValueError("need at least one square")
    for _ in range(max_tries):
        h = perms.random_permutation(n_squares, rng)
        v = perms.random_permutation(n_squares, rng)
        d = origami(h, v)
        if d.is_valid():
            return d
    raise RuntimeError(f"no connected origami found in {max_tries} tries")


def random_dessin(n_darts: int, rng: random.Random,
                  max_tries: int = 1000) -> Dessin:
    """Random valid dessin: a random vertex rotation together with a
    random fixed-point-free pairing, resampled until connected."""
    if n_darts < 2 or n_darts % 2:
        raise ValueError("n_darts must be even and at least 2")
    for _ in range(max_tries):
        rho0 = perms.random_permutation(n_darts, rng)
        rho1 = perms.random_fixed_point_free_involution(n_darts, rng)
        d = Dessin(n_darts, rho0, rho1)
        if d.is_valid():
            return d
    raise RuntimeError(f"no connected dessin found in {max_tries} tries")
