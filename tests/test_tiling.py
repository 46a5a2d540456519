import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import permutations as perms
from dessins import tiling
from dessins.cartography import CellKind, Dessin
from dessins.catalog import (octahedron, octahedron_tricolored,
                             one_square_torus, pillow_sphere, random_origami,
                             square_torus_grid, tetrahedron)
from dessins.tiling import (Color, InconsistentLabelsError, NonBipartiteError,
                            NotSquareTilingError, Shade, TricoloredDessin,
                            VertexLabel, corner_bipartition,
                            diagonal_subdivision, is_square_tiling,
                            refine_2x2, tricolored_from_labels,
                            validate_tricoloring)

import oracles


def vertex_count(d):
    return len(d.cells(CellKind.VERTEX))


def counts(d):
    return (vertex_count(d), len(d.cells(CellKind.EDGE)),
            len(d.cells(CellKind.FACE)))


@st.composite
def corner_graphs(draw):
    """Square tilings whose corner graphs are bipartite or not: random
    origamis of up to 24 squares, possibly refined 2x2, and torus grids
    of up to 8x8 squares, each possibly relabeled."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        d = random_origami(draw(st.integers(1, 24)), rng)
        if draw(st.booleans()):
            d = refine_2x2(d)
    else:
        d = square_torus_grid(draw(st.integers(1, 8)),
                              draw(st.integers(1, 8)))
    if draw(st.booleans()):
        d = d.relabeled(perms.random_permutation(d.n_darts, rng))
    return d


def assert_bipartition_matches_oracle(d):
    """Same verdict and labels as the breadth-first oracle; a witness is
    a closed walk at vertex 0 in the corner graph, of the least odd
    length that one can have."""
    expected = oracles.corner_bipartition(d.rho0, d.rho1)
    try:
        labels = corner_bipartition(d)
    except NonBipartiteError as e:
        assert expected is None
        walk = e.witness
        edges = {frozenset(uv) for uv in oracles.corner_edges(d.rho0, d.rho1)}
        assert walk[0] == walk[-1] == 0
        assert all(frozenset(uv) in edges for uv in zip(walk, walk[1:]))
        assert len(walk) - 1 == oracles.odd_walk_length(d.rho0, d.rho1)
    else:
        assert [x.value for x in labels] == expected


class TestSquareTiling:
    def test_recognition(self):
        assert is_square_tiling(one_square_torus())
        assert is_square_tiling(pillow_sphere())
        assert is_square_tiling(square_torus_grid(3, 2))
        assert not is_square_tiling(tetrahedron())

    def test_random_origamis_are_tilings(self):
        rng = random.Random(20)
        for _ in range(10):
            assert is_square_tiling(random_origami(rng.randint(1, 12), rng))


class TestCornerBipartition:
    def test_one_square_torus_not_bipartite(self):
        with pytest.raises(NonBipartiteError) as info:
            corner_bipartition(one_square_torus())
        walk = info.value.witness
        assert walk[0] == walk[-1]
        assert (len(walk) - 1) % 2 == 1

    def test_witness_is_a_walk_in_the_corner_graph(self):
        d = square_torus_grid(3, 1)  # odd cycle of corners horizontally
        with pytest.raises(NonBipartiteError) as info:
            corner_bipartition(d)
        walk = info.value.witness
        vert_id = d.cell_arrays(CellKind.VERTEX).id.tolist()
        adjacent = set()
        for edge in d.cells(CellKind.EDGE):
            u = vert_id[edge[0]]
            v = vert_id[d.rho1[edge[0]]]
            adjacent.add(frozenset((u, v)))
        for u, v in zip(walk, walk[1:]):
            assert frozenset((u, v)) in adjacent

    def test_witness_is_found_once_per_raise(self, monkeypatch):
        """The error is raised holding its walk, searched once; reading
        the witness and the message searches no more."""
        calls = []

        def counted(*args):
            calls.append(args)
            return odd_walk(*args)

        odd_walk = tiling._odd_walk
        monkeypatch.setattr(tiling, "_odd_walk", counted)
        with pytest.raises(NonBipartiteError) as info:
            corner_bipartition(square_torus_grid(7, 9))
        assert len(calls) == 1
        exc = info.value
        assert exc.witness == [0, 1, 4, 6, 8, 10, 12, 0]
        assert str(exc) == ("corner graph has an odd closed walk through "
                            "[0, 1, 4, 6, 8, 10, 12, 0]")
        assert str(exc) == str(NonBipartiteError(exc.witness))
        assert len(calls) == 1
        copy = pickle.loads(pickle.dumps(exc))
        assert (copy.witness, str(copy)) == (exc.witness, str(exc))

    def test_pillow_bipartition(self):
        d = pillow_sphere()
        labels = corner_bipartition(d)
        assert labels[0] == VertexLabel.ZERO
        assert sorted(labels.count(c) for c in
                      (VertexLabel.ZERO, VertexLabel.ONE)) == [2, 2]

    def test_even_grid_bipartite(self):
        labels = corner_bipartition(square_torus_grid(2, 4))
        assert set(labels) == {VertexLabel.ZERO, VertexLabel.ONE}

    def test_rejects_non_tiling(self):
        with pytest.raises(NotSquareTilingError):
            corner_bipartition(tetrahedron())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(corner_graphs())
    def test_matches_breadth_first_oracle(self, d):
        assert_bipartition_matches_oracle(d)

    def test_every_small_grid_matches_oracle(self):
        for w in range(1, 9):
            for h in range(1, 9):
                assert_bipartition_matches_oracle(square_torus_grid(w, h))


class TestRefine:
    def test_one_square_counts(self):
        r = refine_2x2(one_square_torus())
        assert counts(r) == (4, 8, 4)
        assert r.genus() == 1
        assert is_square_tiling(r)

    def test_one_square_bipartition_parts(self):
        r = refine_2x2(one_square_torus())
        labels = corner_bipartition(r)
        sizes = sorted(labels.count(c) for c in
                       (VertexLabel.ZERO, VertexLabel.ONE))
        assert sizes == [2, 2]

    def test_refined_classes_are_corners_centers_vs_midpoints(self):
        # the two bipartition classes of a refined tiling have sizes
        # V + F (old corners plus centers) and E (midpoints)
        for d in (pillow_sphere(), square_torus_grid(2, 2),
                  square_torus_grid(3, 2)):
            v, e, f = counts(d)
            labels = corner_bipartition(refine_2x2(d))
            sizes = sorted(labels.count(c) for c in
                           (VertexLabel.ZERO, VertexLabel.ONE))
            assert sizes == sorted([v + f, e])

    def test_multiplies_faces_by_four_preserves_genus(self):
        rng = random.Random(21)
        for _ in range(10):
            d = random_origami(rng.randint(1, 10), rng)
            r = refine_2x2(d)
            assert r.n_darts == 4 * d.n_darts
            assert len(r.cells(CellKind.FACE)) \
                == 4 * len(d.cells(CellKind.FACE))
            assert r.genus() == d.genus()
            assert oracles.euler_genus(r.rho0, r.rho1) == d.genus()

    def test_refine_then_bipartition_never_errors(self):
        rng = random.Random(22)
        for _ in range(20):
            d = random_origami(rng.randint(1, 20), rng)
            corner_bipartition(refine_2x2(d))  # must not raise

    def test_rejects_non_tiling(self):
        with pytest.raises(NotSquareTilingError):
            refine_2x2(octahedron())


class TestDiagonalSubdivision:
    def subdivided_grid(self):
        d = square_torus_grid(2, 2)
        return d, diagonal_subdivision(d, corner_bipartition(d))

    def test_grid_counts(self):
        d, t = self.subdivided_grid()
        assert counts(t.base) == (8, 24, 16)
        assert t.base.genus() == 1
        assert all(len(f) == 3 for f in t.base.cells(CellKind.FACE))

    def test_grid_validates(self):
        _, t = self.subdivided_grid()
        assert validate_tricoloring(t) == []

    def test_centers_labeled_infinity_with_four_triangles(self):
        d, t = self.subdivided_grid()
        infinity_orbits = [
            orb for i, orb in enumerate(t.base.cells(CellKind.VERTEX))
            if t.vertex_label[i] == VertexLabel.INFINITY]
        assert len(infinity_orbits) == len(d.cells(CellKind.FACE))
        assert all(len(orb) == 4 for orb in infinity_orbits)

    def test_side_edges_blue_diagonals_red_green(self):
        _, t = self.subdivided_grid()
        from collections import Counter
        hist = Counter(t.edge_color)
        # 8 old sides, 16 half-diagonals split evenly by corner label
        assert hist[Color.BLUE] == 8
        assert hist[Color.RED] == 8
        assert hist[Color.GREEN] == 8

    def test_label_count_checked(self):
        d = square_torus_grid(2, 2)
        with pytest.raises(ValueError, match="labels has 3 entries"):
            diagonal_subdivision(d, [VertexLabel.ZERO] * 3)

    def test_adjacent_equal_labels_rejected(self):
        d = square_torus_grid(2, 2)
        with pytest.raises(InconsistentLabelsError):
            diagonal_subdivision(d, [VertexLabel.ZERO] * 4)

    def test_infinity_label_rejected(self):
        d = pillow_sphere()
        with pytest.raises(InconsistentLabelsError, match="zero or one"):
            diagonal_subdivision(d, [VertexLabel.INFINITY] * 4)

    def test_random_bipartite_tilings_validate(self):
        rng = random.Random(23)
        for _ in range(50):
            d = refine_2x2(random_origami(rng.randint(1, 12), rng))
            t = diagonal_subdivision(d, corner_bipartition(d))
            assert validate_tricoloring(t) == []
            assert t.base.genus() == d.genus()
            assert len(t.base.cells(CellKind.FACE)) \
                == 4 * len(d.cells(CellKind.FACE))


class TestTricoloredValidation:
    def test_octahedron_clean(self):
        t = octahedron_tricolored()
        assert validate_tricoloring(t) == []
        from collections import Counter
        assert Counter(t.face_shade) == {Shade.WHITE: 4, Shade.BLACK: 4}

    def test_shape_mismatch_rejected_at_construction(self):
        d = octahedron()
        with pytest.raises(ValueError, match="edge_color has 2 entries"):
            TricoloredDessin(d, [Color.BLUE, Color.RED],
                             [Shade.WHITE] * 8,
                             [VertexLabel.ZERO] * 6)

    def test_flipped_shade_breaks_checkerboard(self):
        t = octahedron_tricolored()
        shades = list(t.face_shade)
        shades[0] = Shade.BLACK if shades[0] == Shade.WHITE else Shade.WHITE
        broken = TricoloredDessin(t.base, t.edge_color, shades,
                                  t.vertex_label)
        codes = {v.code for v in validate_tricoloring(broken)}
        assert "checkerboard" in codes

    def test_globally_permuted_colors_accepted(self):
        # any bijection color <-> label pair passes the validator
        t = octahedron_tricolored()
        swap = {Color.BLUE: Color.RED, Color.RED: Color.GREEN,
                Color.GREEN: Color.BLUE}
        permuted = TricoloredDessin(t.base,
                                    [swap[c] for c in t.edge_color],
                                    t.face_shade, t.vertex_label)
        assert validate_tricoloring(permuted) == []

    def test_single_recolored_edge_caught(self):
        t = octahedron_tricolored()
        colors = list(t.edge_color)
        colors[0] = Color.GREEN if colors[0] != Color.GREEN else Color.BLUE
        broken = TricoloredDessin(t.base, colors, t.face_shade,
                                  t.vertex_label)
        codes = {v.code for v in validate_tricoloring(broken)}
        assert codes & {"color-label-mismatch", "vertex-color-count",
                        "face-colors-repeat"}

    def test_non_triangle_face_short_circuits(self):
        d = pillow_sphere()
        fake = TricoloredDessin(
            d, [Color.BLUE] * 4, [Shade.WHITE, Shade.BLACK],
            [VertexLabel.ZERO, VertexLabel.ONE] * 2)
        vs = validate_tricoloring(fake)
        assert vs and all(v.code == "face-not-triangle" for v in vs)

    def test_edge_loop_reported(self):
        # triangulated torus from one triangle pair with all corners at
        # one vertex: every edge is a loop
        d = Dessin(6, (5, 3, 4, 2, 0, 1), (3, 4, 5, 0, 1, 2))
        assert all(len(f) == 3 for f in d.cells(CellKind.FACE))
        fake = TricoloredDessin(
            d, [Color.BLUE, Color.RED, Color.GREEN],
            [Shade.WHITE, Shade.BLACK],
            [VertexLabel.ZERO] * vertex_count(d))
        codes = {v.code for v in validate_tricoloring(fake)}
        assert "edge-loop" in codes


class TestTricoloredFromLabels:
    def test_octahedron_roundtrip(self):
        t = octahedron_tricolored()
        rebuilt = tricolored_from_labels(t.base, t.vertex_label)
        assert rebuilt.edge_color == t.edge_color
        assert rebuilt.face_shade == t.face_shade

    def test_rejects_equal_endpoint_labels(self):
        d = octahedron()
        with pytest.raises(InconsistentLabelsError):
            tricolored_from_labels(d, [VertexLabel.ZERO] * 6)

    def test_rejects_two_label_face(self):
        # valid labels pairwise distinct across each edge but a face
        # missing one label is impossible for triangles; check the
        # error path via a non-triangular base instead
        d = pillow_sphere()
        with pytest.raises(ValueError, match="expected 3"):
            tricolored_from_labels(
                d, [VertexLabel.ZERO, VertexLabel.ONE,
                    VertexLabel.INFINITY, VertexLabel.ONE])

    def test_shades_partition_by_orientation(self):
        t = octahedron_tricolored()
        # each edge borders one white and one black face (checkerboard
        # already covered); additionally white count equals black count
        assert t.face_shade.count(Shade.WHITE) \
            == t.face_shade.count(Shade.BLACK)
