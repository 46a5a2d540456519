import itertools
import math
import random
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import cartography
from dessins import permutations as perms
from dessins.belyi import barycentric_subdivide
from dessins.cartography import (_PREFIX_LEN, CellIndex, CellKind, Dessin,
                                 FaceDegreeMismatch, InvalidDessinError,
                                 _faces_of_size, _prefix_survivors,
                                 _require_face_size, from_rho1_rho2,
                                 is_isomorphic)
from dessins.catalog import (from_face_lists, octahedron, one_square_torus,
                             origami, pillow_sphere, random_dessin,
                             random_origami, square_torus_grid, tetrahedron)
from dessins.metric import (cone_angle, equilateral_structure,
                            square_structure)
from dessins.tiling import (NonBipartiteError, corner_bipartition,
                            diagonal_subdivision, is_square_tiling,
                            refine_2x2, tricolored_from_labels)

import oracles


def loop_on_sphere() -> Dessin:
    # single loop edge at one vertex: rho0 = rho1 = the swap
    return Dessin(2, (1, 0), (1, 0))


def arc_on_sphere() -> Dessin:
    # single edge with two distinct endpoints
    return Dessin(2, (0, 1), (1, 0))


class TestConstruction:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            Dessin(0, (), ())
        with pytest.raises(ValueError):
            Dessin(-2, (0,), (0,))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="rho0 has 1 entries"):
            Dessin(2, (0,), (1, 0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"rho1\[1\] = 7"):
            Dessin(2, (1, 0), (1, 7))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match=r"rho0\[0\] is not an integer"):
            Dessin(2, (0.5, 1), (1, 0))
        with pytest.raises(ValueError, match="not an integer"):
            Dessin(2, (True, 1), (1, 0))

    def test_accepts_int_subclasses(self):
        # an IntEnum is no plain int, so its entries take the per-entry
        # path, which accepts every int but bool
        Dart = IntEnum("Dart", ["A", "B"], start=0)
        d = Dessin(2, (Dart.A, Dart.B), (Dart.B, Dart.A))
        assert d.is_valid()
        assert d._r0.tolist() == [0, 1] and d._r1.tolist() == [1, 0]


class TestViolations:
    def test_valid_dessins_have_none(self):
        for d in (loop_on_sphere(), arc_on_sphere(), one_square_torus(),
                  tetrahedron()):
            assert d.violations() == []
            assert d.is_valid()

    def test_non_bijection_reported(self):
        d = Dessin(3, (0, 0, 1), (1, 0, 2))
        codes = [v.code for v in d.violations()]
        assert "rho0-not-bijection" in codes
        with pytest.raises(InvalidDessinError):
            _ = d.rho2

    def test_fixed_point_and_involution(self):
        d = Dessin(4, (1, 2, 3, 0), (0, 3, 1, 2))
        codes = [v.code for v in d.violations()]
        assert "rho1-fixed-point" in codes
        assert "rho1-not-involution" in codes

    def test_violation_str_is_code_message(self):
        v = Dessin(2, (0, 1), (0, 1)).violations()[0]
        assert str(v).startswith("rho1-fixed-point: ")

    def test_disconnected_union_not_transitive(self):
        # two disjoint loops
        d = Dessin(4, (1, 0, 3, 2), (1, 0, 3, 2))
        vs = d.violations()
        assert [v.code for v in vs] == ["not-transitive"]
        assert vs[0].dart == 2

    def test_require_valid_raises(self):
        with pytest.raises(InvalidDessinError):
            Dessin(4, (1, 0, 3, 2), (1, 0, 3, 2)).require_valid()

    def test_invalid_raises_on_every_call(self):
        # validity is computed once; the verdict must not wear off
        bad = Dessin(4, (1, 0, 3, 2), (1, 0, 3, 2))
        for _ in range(2):
            with pytest.raises(InvalidDessinError):
                bad.require_valid()
            with pytest.raises(InvalidDessinError):
                bad.cells(CellKind.VERTEX)
            with pytest.raises(InvalidDessinError):
                _ = bad.canonical_code
            with pytest.raises(InvalidDessinError):
                bad.automorphism_count()
            with pytest.raises(InvalidDessinError):
                is_isomorphic(bad, bad)
            assert not bad.is_valid()

    def test_violations_list_is_a_copy(self):
        bad = Dessin(4, (1, 2, 3, 0), (0, 3, 1, 2))
        first = bad.violations()
        expected = list(first)
        first.clear()
        assert bad.violations() == expected
        good = one_square_torus()
        good.violations().append("junk")
        assert good.violations() == []
        assert good.is_valid()


class TestCells:
    def test_tetrahedron_counts(self):
        d = tetrahedron()
        assert d.n_darts == 12
        assert len(d.cells(CellKind.VERTEX)) == 4
        assert len(d.cells(CellKind.EDGE)) == 6
        assert len(d.cells(CellKind.FACE)) == 4
        # cross-check against the naive orbit counter
        assert oracles.orbit_count(d.rho0) == 4
        assert oracles.orbit_count(d.rho1) == 6
        assert oracles.orbit_count(
            oracles.face_permutation(d.rho0, d.rho1)) == 4

    def test_one_square_torus_counts(self):
        d = one_square_torus()
        assert (len(d.cells(CellKind.VERTEX)),
                len(d.cells(CellKind.EDGE)),
                len(d.cells(CellKind.FACE))) == (1, 2, 1)

    def test_two_dart_dessins(self):
        loop = loop_on_sphere()
        assert (len(loop.cells(CellKind.VERTEX)),
                len(loop.cells(CellKind.EDGE)),
                len(loop.cells(CellKind.FACE))) == (1, 1, 2)
        arc = arc_on_sphere()
        assert (len(arc.cells(CellKind.VERTEX)),
                len(arc.cells(CellKind.EDGE)),
                len(arc.cells(CellKind.FACE))) == (2, 1, 1)

    def test_partition(self):
        d = octahedron()
        for kind in CellKind:
            seen = sorted(x for orb in d.cells(kind) for x in orb)
            assert seen == list(range(d.n_darts))

    def test_edges_all_size_two(self):
        rng = random.Random(2)
        for _ in range(20):
            d = random_dessin(2 * rng.randint(1, 15), rng)
            assert all(len(e) == 2 for e in d.cells(CellKind.EDGE))

    def test_dart_cell(self):
        d = one_square_torus()
        assert d.dart_cell(0, CellKind.VERTEX) == CellIndex(CellKind.VERTEX, 0)
        # all four darts bound the same face
        assert len({d.dart_cell(x, CellKind.FACE) for x in range(4)}) == 1
        for x in range(4):
            assert (d.dart_cell(x, CellKind.VERTEX)
                    == d.dart_cell(d.rho0[x], CellKind.VERTEX))
            assert (d.dart_cell(x, CellKind.EDGE)
                    == d.dart_cell(d.rho1[x], CellKind.EDGE))
        with pytest.raises(ValueError):
            d.dart_cell(4, CellKind.VERTEX)


@pytest.mark.parametrize("build, args, message", [
    (from_face_lists, ([[0]],), "face 0 has fewer than 2 sides"),
    (from_face_lists, ([[0, 1, 2], [0, -1, 2]],),
     "face 1 contains a bad vertex id -1"),
    (from_face_lists, ([[0, 1], [0, 1]],), "directed side 0->1 appears twice"),
    (from_face_lists, ([[0, 1, 2]],), "side 0->1 has no reverse"),
    (origami, ([0, 1], [0]), "gluing permutations must have equal length"),
    (square_torus_grid, (0, 3), "grid dimensions must be positive"),
    (random_origami, (0, random.Random(0)), "need at least one square"),
    (random_dessin, (3, random.Random(0)), "n_darts must be even"),
    (square_torus_grid, (True, 2), "grid dimensions must be integers"),
    (square_torus_grid, (2, np.True_), "grid dimensions must be integers"),
])
def test_catalog_rejects_bad_input(build, args, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build(*args)


# an id or a size may be a numpy integer wherever an int is taken, as a
# dart or cell argument already could; each call, given np.int64s, builds
# the dessin it builds from ints
@pytest.mark.parametrize("build", [
    lambda i: Dessin(i(4), (1, 0, 3, 2), (2, 3, 0, 1)),
    lambda i: Dessin(2, [i(1), i(0)], [1, 0]),
    lambda i: origami([i(0)], [i(0)]),
    lambda i: square_torus_grid(i(2), 2),
    lambda i: one_square_torus().relabeled([i(x) for x in (1, 0, 2, 3)]),
    lambda i: from_face_lists([[i(0), 1, 2], [0, 2, 1]])],
    ids=["n_darts", "rho0", "origami", "square_torus_grid", "relabeled",
         "from_face_lists"])
def test_numpy_integers_are_taken(build):
    d = build(np.int64)
    assert d == build(int)
    assert type(d.n_darts) is int
    # the public tuples hold ints, so they serialize as JSON
    assert all(type(x) is int for x in d.rho0 + d.rho1)


class TestRelationsAndGenus:
    def test_rho2_matches_pointwise_solution(self):
        rng = random.Random(7)
        for _ in range(50):
            d = random_dessin(2 * rng.randint(1, 20), rng)
            assert list(d.rho2) == oracles.face_permutation(d.rho0, d.rho1)

    def test_relator_is_identity_on_darts(self):
        rng = random.Random(8)
        for _ in range(50):
            d = random_dessin(2 * rng.randint(1, 20), rng)
            # rho2 rho1 rho0, rightmost factor first, fixes every dart
            assert all(d.rho2[d.rho1[d.rho0[x]]] == x
                       for x in range(d.n_darts))

    def test_genus_fixtures(self):
        assert tetrahedron().genus() == 0
        assert one_square_torus().genus() == 1
        assert loop_on_sphere().genus() == 0
        assert arc_on_sphere().genus() == 0
        assert octahedron().genus() == 0

    def test_genus_grids(self):
        for w, h in ((1, 2), (2, 2), (3, 1), (3, 4)):
            assert square_torus_grid(w, h).genus() == 1

    def test_genus_matches_oracle_on_random(self):
        rng = random.Random(9)
        for _ in range(50):
            d = random_dessin(2 * rng.randint(1, 20), rng)
            assert d.genus() == oracles.euler_genus(d.rho0, d.rho1)
            assert d.genus() >= 0


class TestIsomorphism:
    def test_relabeling_invariance(self):
        rng = random.Random(10)
        for _ in range(50):
            d = random_dessin(2 * rng.randint(1, 15), rng)
            sigma = perms.random_permutation(d.n_darts, rng)
            r = d.relabeled(sigma)
            assert d.canonical_code == r.canonical_code
            assert is_isomorphic(d, r)

    def test_different_sizes_not_isomorphic(self):
        assert not is_isomorphic(one_square_torus(), loop_on_sphere())

    def test_loop_vs_arc(self):
        assert not is_isomorphic(loop_on_sphere(), arc_on_sphere())

    def test_two_square_torus_variants(self):
        cylinder = origami([1, 0], [0, 1])
        twisted = origami([1, 0], [1, 0])
        # same coarse invariants, distinguished only by the full code
        for d in (cylinder, twisted):
            assert (len(d.cells(CellKind.VERTEX)),
                    len(d.cells(CellKind.EDGE)),
                    len(d.cells(CellKind.FACE)),
                    d.genus()) == (2, 4, 2, 1)
        assert not is_isomorphic(cylinder, twisted)

    @pytest.mark.parametrize("args, message", [
        ((None, loop_on_sphere()), "d1 must be a Dessin, not NoneType"),
        ((loop_on_sphere(), None), "d2 must be a Dessin, not NoneType"),
        ((loop_on_sphere(), ((1, 0), (1, 0))),
         "d2 must be a Dessin, not tuple"),
    ])
    def test_non_dessin_rejected(self, args, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            is_isomorphic(*args)

    def test_invalid_input_rejected(self):
        bad = Dessin(4, (1, 0, 3, 2), (1, 0, 3, 2))
        with pytest.raises(InvalidDessinError):
            is_isomorphic(bad, bad)

    def test_relabeled_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            one_square_torus().relabeled((0, 0, 1, 2))

    @pytest.mark.parametrize("images", [
        [1, 0, 3, 2], [2, 3, 0, 1], [0, 0, 1, 2], [0, 1, 2], [0, 1, 2, 4],
        [0, 1, 2, -1]])
    def test_permutation_arrays_act_as_lists(self, images):
        """relabeled and origami take integer arrays as they take lists:
        the same dessin, or the same error."""
        def outcome(f, *args):
            try:
                return f(*args)
            except ValueError as exc:
                return str(exc)

        torus = one_square_torus()
        same = list(range(len(images)))
        for dtype in (np.intp, np.int16):
            arr = np.array(images, dtype=dtype)
            assert (outcome(torus.relabeled, arr)
                    == outcome(torus.relabeled, images))
            assert (outcome(origami, arr, np.array(same, dtype=dtype))
                    == outcome(origami, images, same))


@st.composite
def small_dessins(draw):
    """Valid dessins of at most 40 darts: random maps, random origamis
    and torus grids (whose automorphism groups are large), each possibly
    relabeled."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(("dessin", "origami", "grid")))
    if kind == "dessin":
        d = random_dessin(2 * draw(st.integers(1, 20)), rng)
    elif kind == "origami":
        d = random_origami(draw(st.integers(1, 10)), rng)
    else:
        w = draw(st.integers(1, 10))
        d = square_torus_grid(w, draw(st.integers(1, 10 // w)))
    if draw(st.booleans()):
        d = d.relabeled(perms.random_permutation(d.n_darts, rng))
    return d


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


class TestCanonicalCodeProperties:
    @PROPERTY
    @given(small_dessins())
    def test_matches_oracle(self, d):
        codes = oracles.start_codes(d.rho0, d.rho1)
        best = min(codes)
        assert d.canonical_code == best
        assert d.automorphism_count() == codes.count(best)
        assert d.n_darts % d.automorphism_count() == 0

    @PROPERTY
    @given(small_dessins(), st.data())
    def test_relabeling_keeps_code(self, d, data):
        sigma = data.draw(st.permutations(range(d.n_darts)))
        r = d.relabeled(sigma)
        assert r.canonical_code == d.canonical_code
        assert r.automorphism_count() == d.automorphism_count()
        assert is_isomorphic(d, r)

    def test_rho0_tie_broken_by_rho1(self):
        # several starts give the minimal relabeled rho0 but differ on
        # rho1; only the starts equal on both are automorphic
        d = Dessin(6, (4, 3, 1, 2, 5, 0), (2, 3, 0, 1, 5, 4))
        codes = oracles.start_codes(d.rho0, d.rho1)
        best = min(codes)
        assert len({r1 for r0, r1 in codes if r0 == best[0]}) > 1
        assert d.canonical_code == best
        assert d.automorphism_count() == codes.count(best) == 2

    @pytest.mark.parametrize("k", range(1, 9))
    def test_square_grids_are_regular(self, k):
        d = square_torus_grid(k, k)
        assert d.automorphism_count() == d.n_darts
        sigma = perms.random_permutation(d.n_darts, random.Random(k))
        assert d.relabeled(sigma).automorphism_count() == d.n_darts


def prefix_oracle(d: Dessin, k: int) -> tuple[set, set]:
    """From the oracle codes: the starts whose first k relabeled rho0
    images are the smallest, and the starts that give the code."""
    codes = oracles.start_codes(d.rho0, d.rho1)
    smallest = min(r0[:k] for r0, _ in codes)
    best = min(codes)
    return ({s for s, (r0, _) in enumerate(codes) if r0[:k] == smallest},
            {s for s, code in enumerate(codes) if code == best})


def path_of_two_edges() -> Dessin:
    # vertex 0 - vertex 1 - vertex 2: two degree-1 vertices, so rho0
    # fixes darts 0 and 3
    return Dessin(4, (0, 2, 1, 3), (1, 0, 3, 2))


class TestPrefixPass:
    """``_prefix_survivors`` drops only starts that cannot give the code."""

    @PROPERTY
    @given(small_dessins(), st.integers(1, 8))
    def test_matches_oracle_prefixes(self, d, k):
        survivors = set(_prefix_survivors(d._r0, d._r1, k).tolist())
        smallest_prefix, minimal = prefix_oracle(d, k)
        assert minimal <= survivors
        assert survivors == smallest_prefix

    @pytest.mark.parametrize("build", [
        loop_on_sphere, arc_on_sphere, path_of_two_edges,
        one_square_torus, pillow_sphere])
    def test_small_maps_and_fixed_points(self, build):
        # at most 8 darts, so k = 8 covers the whole rho0 code, and the
        # 2-dart maps have fewer darts than _PREFIX_LEN
        d = build()
        for k in (1, _PREFIX_LEN, 8):
            survivors = set(_prefix_survivors(d._r0, d._r1, k).tolist())
            assert survivors == prefix_oracle(d, k)[0]

    def test_origamis_take_the_deferred_pass(self, monkeypatch):
        # the pass runs only after the best code improved twice, which a
        # random origami of this size reaches within a few starts
        calls = []

        def counted(*args):
            calls.append(args)
            return _prefix_survivors(*args)

        monkeypatch.setattr(cartography, "_prefix_survivors", counted)
        rng = random.Random(17)
        for n_squares in (32, 48, 64):
            d = random_origami(n_squares, rng)
            d = d.relabeled(perms.random_permutation(d.n_darts, rng))
            before = len(calls)
            codes = oracles.start_codes(d.rho0, d.rho1)
            best = min(codes)
            assert d.canonical_code == best
            assert d.automorphism_count() == codes.count(best)
            assert len(calls) == before + 1

    @pytest.mark.parametrize("shape", [(1, 16), (2, 8), (3, 12), (6, 6),
                                       (2, 32), (4, 16), (5, 7)])
    def test_grids_skip_the_pass(self, shape, monkeypatch):
        # a grid's darts form at most two automorphism orbits (one when
        # it is square), so its best code improves at most once
        monkeypatch.setattr(cartography, "_prefix_survivors", None)
        d = square_torus_grid(*shape)
        d = d.relabeled(perms.random_permutation(d.n_darts, random.Random(1)))
        orbits = 1 if shape[0] == shape[1] else 2
        assert d.automorphism_count() == d.n_darts // orbits


def swapped_grid(width: int, height: int) -> Dessin:
    """A torus grid with the vertical gluings of squares 0 and 1 swapped:
    its starts tie one another on long code prefixes."""
    n_sq = width * height
    horizontal = [s - s % width + (s + 1) % width for s in range(n_sq)]
    vertical = [(s + width) % n_sq for s in range(n_sq)]
    vertical[0], vertical[1] = vertical[1], vertical[0]
    return origami(horizontal, vertical)


@st.composite
def relabeled_surfaces(draw):
    """Randomly relabeled torus grids, swapped grids and random origamis
    of up to 40 squares: up to four times the darts of small_dessins, so
    the best code improves more often, and starts tie a best that won
    mid-run over longer prefixes."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(("grid", "swapped", "origami")))
    if kind == "origami":
        d = random_origami(draw(st.integers(1, 40)), rng)
    else:
        w = draw(st.integers(2, 20))
        h = draw(st.integers(1, 40 // w))
        d = (square_torus_grid if kind == "grid" else swapped_grid)(w, h)
    return d.relabeled(perms.random_permutation(d.n_darts, rng))


class TestLazyBest:
    """Only the final best start runs to the end; a start that beats the
    best keeps its images up to where it won."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(relabeled_surfaces())
    def test_matches_oracle(self, d):
        codes = oracles.start_codes(d.rho0, d.rho1)
        best = min(codes)
        assert d.canonical_code == best
        assert d.automorphism_count() == codes.count(best)

    def test_large_origami_and_relabeling(self):
        d = random_origami(1024, random.Random(1))
        r = d.relabeled(perms.random_permutation(d.n_darts, random.Random(2)))
        assert r.canonical_code == d.canonical_code
        assert d.automorphism_count() == r.automorphism_count() == 1

    @pytest.mark.parametrize("rho0, rho1, start", [
        # start 1 precedes the starts that give the code
        ((8, 2, 9, 11, 1, 4, 0, 3, 10, 7, 6, 5),
         (9, 7, 10, 4, 3, 6, 5, 1, 11, 0, 2, 8), 1),
        # start 5 follows start 2, which gives the code
        ((5, 7, 6, 4, 2, 11, 9, 10, 1, 0, 8, 3),
         (7, 3, 5, 1, 10, 2, 11, 0, 9, 8, 4, 6), 5),
    ])
    def test_rho1_decides_late(self, rho0, rho1, start):
        # start ties the code on all of rho0, and its rho1 images first
        # differ from the code's at position 7 of 12
        d = Dessin(12, rho0, rho1)
        codes = oracles.start_codes(d.rho0, d.rho1)
        best = min(codes)
        r0, r1 = codes[start]
        assert r0 == best[0] and r1[:7] == best[1][:7] and r1 != best[1]
        assert d.canonical_code == best
        assert d.automorphism_count() == codes.count(best)


@st.composite
def face_kernel_inputs(draw):
    """Valid dessins without face cells: random dessins of up to 40
    darts, random origamis of up to 16 squares and torus grids of up to
    6x6, each square tiling possibly cut along its diagonals (refined
    first when its corners are not bipartite) and that possibly
    barycentrically subdivided."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(("dessin", "origami", "grid")))
    if kind == "dessin":
        return random_dessin(2 * draw(st.integers(1, 20)), rng)
    if kind == "origami":
        d = random_origami(draw(st.integers(1, 16)), rng)
    else:
        d = square_torus_grid(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    if draw(st.booleans()):
        try:
            labels = corner_bipartition(d)
        except NonBipartiteError:
            d = refine_2x2(d)
            labels = corner_bipartition(d)
        d = diagonal_subdivision(d, labels).base
        if draw(st.booleans()):
            d = barycentric_subdivide(d).base
    return d


def twin(d: Dessin) -> Dessin:
    """A fresh dessin with the arrays of ``d``, none of its caches."""
    return Dessin(d.n_darts, d._r0, d._r1)


# hand-built rho1, rho2 pairs whose faces are not all squares, though
# rho2^4 = id for the first two: only the fixed-dart test rejects them
NOT_ALL_SQUARES = {
    "2-gons and a square": ((4, 5, 3, 2, 0, 1), (1, 2, 3, 0, 5, 4)),
    "1-gons and a square": ((4, 5, 3, 2, 0, 1), (1, 2, 3, 0, 4, 5)),
    "all 2-gons": ((5, 2, 1, 4, 3, 0), (1, 0, 3, 2, 5, 4)),
}


class TestFacesOfSize:
    @given(face_kernel_inputs())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_face_cells(self, d):
        """The rho2 test agrees with the face cells for sizes 1..6,
        builds none, and reads the same once they are built."""
        assert CellKind.FACE not in d._cell_arrays
        before = [_faces_of_size(d, k) for k in range(1, 7)]
        assert CellKind.FACE not in d._cell_arrays  # the test built none
        size = d.cell_arrays(CellKind.FACE).size
        expected = [bool((size == k).all()) for k in range(1, 7)]
        assert before == expected
        assert [_faces_of_size(d, k) for k in range(1, 7)] == expected

    @pytest.mark.parametrize("name", list(NOT_ALL_SQUARES))
    def test_rejects_short_faces_with_rho2_order_four(self, name):
        d = from_rho1_rho2(*NOT_ALL_SQUARES[name])
        assert d.is_valid()
        assert not _faces_of_size(d, 4) and not is_square_tiling(d)
        assert not _faces_of_size(twin(d), 4)

    @pytest.mark.parametrize("faces, sizes", [
        # an octagon pillow: two 8-gons
        ([list(range(8)), list(range(7, -1, -1))], [8, 8]),
        # a square pyramid: a square base and four triangles
        ([[3, 2, 1, 0], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]],
         [4, 3, 3, 3, 3]),
    ])
    def test_rejects_long_and_mixed_faces(self, faces, sizes):
        d = from_face_lists(faces)
        assert not is_square_tiling(d)
        with pytest.raises(FaceDegreeMismatch):
            square_structure(d)
        assert d.cell_arrays(CellKind.FACE).size.tolist() == sizes
        assert not is_square_tiling(d)

    @pytest.mark.parametrize("d", [
        Dessin(4, (1, 0, 3, 2), (1, 0, 3, 2)),  # two disjoint edges
        Dessin(2, (0, 0), (1, 0)),  # rho0 not a bijection
        Dessin(2, (1, 0), (0, 1)),  # rho1 with fixed points
    ], ids=["not-transitive", "not-bijection", "rho1-fixed-point"])
    @pytest.mark.parametrize("call", [
        lambda d: _faces_of_size(d, 1), is_square_tiling, square_structure,
        equilateral_structure, barycentric_subdivide,
        lambda d: diagonal_subdivision(d, []),
        lambda d: tricolored_from_labels(d, []),
    ], ids=["kernel", "is_square_tiling", "square_structure",
            "equilateral_structure", "barycentric_subdivide",
            "diagonal_subdivision", "tricolored_from_labels"])
    def test_invalid_dessin_raises_before_any_face_message(self, d, call):
        with pytest.raises(InvalidDessinError):
            call(d)

    @given(face_kernel_inputs())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_mismatch_names_first_bad_face(self, d):
        """The message names the first face, in cell order, of another
        size, whether or not the face cells were built before."""
        cells = twin(d).cells(CellKind.FACE)
        for k in range(1, 7):
            bad = [i for i, c in enumerate(cells) if len(c) != k]
            for built in (False, True):
                e = twin(d)
                if built:
                    e.cell_arrays(CellKind.FACE)
                if not bad:
                    _require_face_size(e, k)
                    continue
                with pytest.raises(FaceDegreeMismatch) as info:
                    _require_face_size(e, k)
                assert str(info.value) == (
                    f"face {bad[0]} has {len(cells[bad[0]])} sides, "
                    f"expected {k}")


def _subgroup_counts(n_max: int) -> list[int]:
    """a_n, the number of index-n subgroups of the free group F_2, by
    Hall's recursion a_n = n n! - sum_{k<n} (n-k)! a_k (M. Hall, Canad.
    J. Math. 1, 1949); a_0 is unused."""
    a = [0]
    for n in range(1, n_max + 1):
        a.append(n * math.factorial(n) - sum(
            math.factorial(n - k) * a[k] for k in range(1, n)))
    return a


@pytest.mark.parametrize("n, class_count", [(1, 1), (2, 2), (3, 4),
                                            (4, 14), (5, 48)])
def test_origami_classes_meet_the_mass_formula(n, class_count):
    """Every origami with n squares is a transitive pair (h, v) in S_n,
    and isomorphism of its dessin is relabeling of the squares together
    with the four rotations, so the orbit-counting lemma weighs the
    classes exactly: the sum of 1/automorphism_count() over them is
    a_n/(4n).  The classes whose cone angles are all 2 pi, the tori,
    weigh sigma(n)/(4n), from the sigma(n) sublattices of index n in
    Z^2.  Over every pair this checks canonical codes, automorphism
    counts, transitivity, the origami builder and the metric layer."""
    classes = {}
    for h in itertools.permutations(range(n)):
        for v in itertools.permutations(range(n)):
            d = origami(h, v)
            if d.is_valid():
                classes.setdefault(d.canonical_code, d)
    mass = torus_mass = Fraction(0)
    for d in classes.values():
        weight = Fraction(1, d.automorphism_count())
        mass += weight
        m = square_structure(d)
        if all(abs(cone_angle(d, m, i) - 2.0 * math.pi) < 1e-9
               for i in range(len(d.cells(CellKind.VERTEX)))):
            torus_mass += weight
    sigma = sum(k for k in range(1, n + 1) if n % k == 0)
    assert len(classes) == class_count
    assert mass == Fraction(_subgroup_counts(n)[n], 4 * n)
    assert torus_mass == Fraction(sigma, 4 * n)


def test_is_isomorphic_agrees_with_the_start_codes():
    """On seeded pairs of distinct valid origamis of two to four
    squares, each with a random relabeling, ``is_isomorphic`` answers as
    the smallest codes over all start darts compare, negative answers
    included, and ``automorphism_count`` is the number of starts that
    reach the smallest code."""
    rng = random.Random(18)
    answers = set()
    for n in range(2, 5):  # one square makes a single origami
        for _ in range(20):
            pair = []
            while len(pair) < 2:
                d = origami(perms.random_permutation(n, rng),
                            perms.random_permutation(n, rng))
                if d.is_valid() and all(d != e for e in pair):
                    pair.append(d)
            group = [e for d in pair for e in (d, d.relabeled(
                perms.random_permutation(d.n_darts, rng)))]
            smallest = []
            for d in group:
                codes = oracles.start_codes(d.rho0, d.rho1)
                smallest.append(min(codes))
                assert d.automorphism_count() == codes.count(min(codes))
            for (d1, c1), (d2, c2) in itertools.combinations(
                    zip(group, smallest), 2):
                assert is_isomorphic(d1, d2) == (c1 == c2)
                answers.add(c1 == c2)
    assert answers == {True, False}
