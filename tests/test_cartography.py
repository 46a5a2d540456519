import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import permutations as perms
from dessins.cartography import (CellIndex, CellKind, Dessin,
                                 InvalidDessinError, is_isomorphic)
from dessins.catalog import (octahedron, one_square_torus, origami,
                             random_dessin, random_origami,
                             square_torus_grid, tetrahedron)

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
            composite = perms.compose(d.rho2,
                                      perms.compose(d.rho1, d.rho0))
            assert composite == perms.identity(d.n_darts)

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
