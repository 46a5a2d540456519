"""The numpy dart-substitution operators, cells and validation against
the dart-by-dart oracles in ``oracles.py``: equal outputs dart for dart,
equal cell numbering, and equal errors and violation lists."""

import os
import pickle
import random
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import belyi, cartography, tiling
from dessins import permutations as perms
from dessins.belyi import barycentric_subdivide, passport
from dessins.cartography import (CellKind, Dessin, InvalidDessinError,
                                 _substitute, _Substitution, from_rho1_rho2)
from dessins.catalog import (octahedron, octahedron_tricolored,
                             random_dessin, random_origami, square_torus_grid,
                             tetrahedron)
from dessins.document import from_tricolored
from dessins.metric import FaceDegreeMismatch
from dessins.tiling import (InconsistentLabelsError, NonBipartiteError,
                            TricoloredDessin, VertexLabel, corner_bipartition,
                            diagonal_subdivision, refine_2x2,
                            tricolored_from_labels, validate_tricoloring)

import oracles

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


@st.composite
def square_tilings(draw, max_squares=12):
    """Random origamis and torus grids of at most ``max_squares``
    squares, each possibly relabeled."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        d = random_origami(draw(st.integers(1, max_squares)), rng)
    else:
        w = draw(st.integers(1, max_squares))
        d = square_torus_grid(w, draw(st.integers(1, max_squares // w)))
    if draw(st.booleans()):
        d = d.relabeled(perms.random_permutation(d.n_darts, rng))
    return d


def bipartite(d):
    """``d`` with corner labels, refined once when its corner graph is
    not bipartite."""
    try:
        return d, corner_bipartition(d)
    except NonBipartiteError:
        d = refine_2x2(d)
        return d, corner_bipartition(d)


def values(seq):
    return [x.value for x in seq]


def flat(t):
    """A tricolored dessin as the oracles return it."""
    d = t.base
    return [list(d.rho0), list(d.rho1), values(t.vertex_label),
            values(t.edge_color), values(t.face_shade)]


def assert_cells_match(d):
    for kind, images in ((CellKind.VERTEX, d.rho0), (CellKind.EDGE, d.rho1),
                         (CellKind.FACE, d.rho2)):
        cyc = oracles.cycles(images)
        assert list(d.cells(kind)) == cyc
        ids = oracles.cell_ids(images)
        assert [d.dart_cell(x, kind).id for x in range(d.n_darts)] == ids
        cells = d.cell_arrays(kind)
        assert cells.id.tolist() == ids
        assert cells.smallest.tolist() == [c[0] for c in cyc]
        assert cells.size.tolist() == [len(c) for c in cyc]


class TestOperatorsMatchOracles:
    @PROPERTY
    @given(square_tilings())
    def test_refine_2x2(self, d):
        r = refine_2x2(d)
        assert (list(r.rho0), list(r.rho1)) == oracles.refine_2x2(d.rho0,
                                                                  d.rho1)
        assert_cells_match(r)

    @PROPERTY
    @given(square_tilings())
    def test_diagonal_subdivision(self, d):
        d, labels = bipartite(d)
        t = diagonal_subdivision(d, labels)
        assert flat(t) == list(oracles.diagonal_subdivision(
            d.rho0, d.rho1, values(labels)))
        assert_cells_match(t.base)

    @PROPERTY
    @given(square_tilings())
    def test_barycentric_subdivide(self, d):
        d, labels = bipartite(d)
        base = diagonal_subdivision(d, labels).base
        b = barycentric_subdivide(base)
        assert flat(b) == list(oracles.barycentric_subdivide(base.rho0,
                                                             base.rho1))
        assert_cells_match(b.base)

    SPHERES = {"tetrahedron": tetrahedron(), "octahedron": octahedron(),
               "octahedron_tricolored": octahedron_tricolored()}
    # each triangulation and its cover, so that the cover is taken twice
    SPHERES.update({f"{name}-cover": barycentric_subdivide(t)
                    for name, t in list(SPHERES.items())})

    @pytest.mark.parametrize("name", list(SPHERES))
    def test_barycentric_of_sphere_triangulations(self, name):
        t = self.SPHERES[name]
        d = t.base if isinstance(t, TricoloredDessin) else t
        b = barycentric_subdivide(t)
        assert flat(b) == list(oracles.barycentric_subdivide(d.rho0, d.rho1))
        assert_tricoloring_as_checked(b)
        assert_lifted_cells(b.base)

    @PROPERTY
    @given(st.integers(0, 2 ** 32), st.integers(1, 20))
    def test_cells_of_random_dessins(self, seed, half):
        assert_cells_match(random_dessin(2 * half, random.Random(seed)))


class TestSubstitute:
    def test_identity_table_keeps_the_dessin(self):
        d = random_origami(5, random.Random(3))
        same, _ = _substitute(d, _Substitution(
            (("rho1", 0),), (("rho2", 0),), (("vertex", "e"),)))
        assert same == d

    def test_from_rho1_rho2_inverts_rho2(self):
        d = random_dessin(12, random.Random(4))
        assert from_rho1_rho2(np.array(d.rho1), np.array(d.rho2)) == d

    def test_bijective_but_invalid_input(self):
        # two disjoint edges: bijective, but not transitive
        d = Dessin(4, (1, 0, 3, 2), (1, 0, 3, 2))
        for s in (tiling._REFINE, tiling._DIAGONAL, belyi._BARYCENTRIC):
            with pytest.raises(InvalidDessinError) as info:
                _substitute(d, s)
            assert [v.code for v in info.value.violations] \
                == ["not-transitive"]

    def test_operators_neither_validate_nor_walk(self, monkeypatch):
        # their outputs are valid and labelled by construction: neither
        # the bijection check nor the transitivity kernel runs, nor the
        # edge-label and triangle checks of tricolored_from_labels
        grid = square_torus_grid(4, 6)
        labels = corner_bipartition(grid)
        origami = random_origami(9, random.Random(2))
        assert origami.is_valid()

        def boom(*args):
            raise AssertionError("called on an operator output")

        monkeypatch.setattr(cartography, "_components", boom)
        monkeypatch.setattr(cartography, "_inverse_or_none", boom)
        # the operators check their own inputs, and only those
        inputs = [grid]
        for name in ("_first_same_end_edge", "_require_face_size"):
            def on_inputs_only(d, *args, check=getattr(tiling, name)):
                if not any(d is x for x in inputs):
                    boom()
                return check(d, *args)
            monkeypatch.setattr(tiling, name, on_inputs_only)

        def assert_no_edge_or_face_cells(t):
            passport(t)
            from_tricolored(t).serialize()
            assert CellKind.EDGE not in t.base._cell_arrays
            assert CellKind.FACE not in t.base._cell_arrays

        refined = refine_2x2(origami)
        t = diagonal_subdivision(grid, labels)
        assert_no_edge_or_face_cells(t)
        inputs.append(t.base)
        b = barycentric_subdivide(t)
        assert_no_edge_or_face_cells(b)
        for out in (refined, t.base, b.base):
            assert out.violations() == []
            for kind in CellKind:
                out.cell_arrays(kind)


class TestOutputsHoldNoInput:
    # an output's vertex cells are lifted as it is built, so it keeps
    # nothing of its input, even before any of its cells is read
    @pytest.mark.parametrize("make, operator", [
        (lambda: square_torus_grid(8, 8), refine_2x2),
        (lambda: square_torus_grid(8, 8),
         lambda d: diagonal_subdivision(d, corner_bipartition(d))),
        (lambda: diagonal_subdivision(*bipartite(square_torus_grid(8, 8))),
         barycentric_subdivide)],
        ids=["refine_2x2", "diagonal_subdivision", "barycentric_subdivide"])
    def test_input_dies_with_the_callers_reference(self, make, operator):
        source = make()
        dessin = weakref.ref(getattr(source, "base", source))
        out = operator(source)
        del source
        assert dessin() is None  # while the output lives
        del out


def raised(fn, *args):
    """(kind, message) of the error ``fn`` raises, or None; the
    package's InconsistentLabelsError and the oracles' LabelError are
    one kind."""
    try:
        fn(*args)
    except (InconsistentLabelsError, oracles.LabelError) as exc:
        return "labels", str(exc)
    except ValueError as exc:
        return "value", str(exc)
    return None


class TestLabelErrorsMatchOracles:
    @PROPERTY
    @given(square_tilings(), st.data())
    def test_tricolored_from_labels(self, d, data):
        d, labels = bipartite(d)
        base = diagonal_subdivision(d, labels).base
        n_vertices = len(base.cells(CellKind.VERTEX))
        labels = data.draw(st.lists(st.sampled_from(oracles.LABEL_CYCLE),
                                    min_size=n_vertices,
                                    max_size=n_vertices))
        mine = raised(tricolored_from_labels, base, labels)
        assert mine == raised(oracles.tricolor, base.rho0, base.rho1, labels)
        if mine is None:
            t = tricolored_from_labels(base, labels)
            assert [values(t.edge_color), values(t.face_shade)] == list(
                oracles.tricolor(base.rho0, base.rho1, labels))

    @PROPERTY
    @given(square_tilings(), st.data())
    def test_diagonal_subdivision_corner_clash(self, d, data):
        n_vertices = len(d.cells(CellKind.VERTEX))
        labels = data.draw(st.lists(st.sampled_from(("zero", "one")),
                                    min_size=n_vertices,
                                    max_size=n_vertices))
        assert raised(diagonal_subdivision, d, labels) == raised(
            oracles.diagonal_subdivision, d.rho0, d.rho1, labels)

    def test_non_triangle_face(self):
        d = square_torus_grid(2, 2)
        labels = ["zero"] * len(d.cells(CellKind.VERTEX))
        labels[0] = "one"
        with pytest.raises(FaceDegreeMismatch,
                           match="face 0 has 4 sides, expected 3"):
            barycentric_subdivide(d)
        assert raised(tricolored_from_labels, d, labels) == raised(
            oracles.tricolor, d.rho0, d.rho1, labels)
        # labels with no clash reach the face rule
        with pytest.raises(FaceDegreeMismatch,
                           match="^face 0 has 4 sides, expected 3$"):
            tricolored_from_labels(d, corner_bipartition(d))

    def test_too_many_labels(self):
        with pytest.raises(ValueError,
                           match="^vertex_label has 7 entries, expected 6$"):
            tricolored_from_labels(octahedron(), [VertexLabel.ZERO] * 7)

    def test_too_few_labels(self):
        base = octahedron()
        with pytest.raises(ValueError,
                           match="vertex_label has 5 entries, expected 6"):
            tricolored_from_labels(base, [VertexLabel.ZERO] * 5)


@st.composite
def malformed_arrays(draw):
    """In-range image arrays broken in one of four ways: a repeated
    image, rho1 fixed points, rho1 not an involution, or two
    components."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = 2 * draw(st.integers(2, 12))
    rho0 = list(perms.random_permutation(n, rng))
    rho1 = list(perms.random_fixed_point_free_involution(n, rng))
    defect = draw(st.sampled_from(
        ("non-bijection", "fixed-point", "non-involution", "intransitive")))
    if defect == "non-bijection":
        p = rho0 if draw(st.booleans()) else rho1
        p[rng.randrange(n)] = p[rng.randrange(n)]
    elif defect == "fixed-point":
        for _ in range(draw(st.integers(1, 3))):
            x = rng.randrange(n)
            y = rho1[x]
            rho1[x], rho1[y] = x, y
    elif defect == "non-involution":
        rho1 = list(perms.random_permutation(n, rng))
    else:
        # a dessin on darts 0..k-1 beside one on k..n-1, relabeled
        k = 2 * rng.randint(1, n // 2 - 1)
        rho0 = list(perms.random_permutation(k, rng)) + [
            k + x for x in perms.random_permutation(n - k, rng)]
        rho1 = list(perms.random_fixed_point_free_involution(k, rng)) + [
            k + x for x in
            perms.random_fixed_point_free_involution(n - k, rng)]
        return Dessin(n, rho0, rho1).relabeled(
            perms.random_permutation(n, rng))
    return Dessin(n, rho0, rho1)


class TestViolationsMatchOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(malformed_arrays())
    def test_same_list(self, d):
        assert [(v.code, v.dart, v.message) for v in d.violations()] == \
            oracles.dessin_violations(d.rho0, d.rho1)

    @PROPERTY
    @given(st.integers(0, 2 ** 32), st.integers(1, 20))
    def test_valid_dessins_report_nothing(self, seed, half):
        d = random_dessin(2 * half, random.Random(seed))
        assert d.violations() == oracles.dessin_violations(d.rho0, d.rho1)

    def test_all_four_defects_at_once(self):
        # rho0 repeats an image, rho1 fixes dart 0 and moves dart 1
        # under its square, and only dart 0 is reachable from dart 0
        d = Dessin(4, (0, 0, 2, 3), (0, 2, 3, 1))
        assert [(v.code, v.dart, v.message) for v in d.violations()] == \
            oracles.dessin_violations(d.rho0, d.rho1)
        assert [v.code for v in d.violations()] == [
            "rho0-not-bijection", "rho1-fixed-point", "rho1-not-involution",
            "not-transitive"]

    @pytest.mark.parametrize("n", [4, 10, 1000])
    def test_chains(self, n):
        # rho1 = x ^ 1; rho0 steps up the chain with its last image
        # repeated, so every dart is reachable, or steps down with its
        # first image repeated, so only darts 0 and 1 are
        rho1 = [x ^ 1 for x in range(n)]
        for rho0 in ([min(x + 1, n - 1) for x in range(n)],
                     [max(x - 1, 0) for x in range(n)]):
            d = Dessin(n, rho0, rho1)
            assert [(v.code, v.dart, v.message)
                    for v in d.violations()] == \
                oracles.dessin_violations(rho0, rho1)

    def test_long_chain_in_one_search(self):
        # reachability from dart 0 takes time linear in the darts, not a
        # round per level of the 100,000-level chain
        n = 100_000
        d = Dessin(n, np.minimum(np.arange(1, n + 1), n - 1),
                   np.arange(n) ^ 1)
        start = time.perf_counter()
        assert [(v.code, v.dart) for v in d.violations()] == [
            ("rho0-not-bijection", n - 1)]
        assert time.perf_counter() - start < 0.5


def side_by_side(parts):
    """Image lists of the dessins ``parts`` on consecutive dart ranges."""
    rho0, rho1 = [], []
    for r0, r1 in parts:
        rho0 += [len(rho1) + x for x in r0]
        rho1 += [len(rho1) + x for x in r1]
    return rho0, rho1


def path_tree(k):
    """The plane tree that is a path of k edges: edge j runs from dart
    2j at vertex j to dart 2j + 1 at vertex j + 1, so the vertex
    quotient is a path of k + 1 vertices."""
    rho0 = list(range(2 * k))
    for j in range(1, k):
        rho0[2 * j - 1], rho0[2 * j] = 2 * j, 2 * j - 1
    return rho0, [x ^ 1 for x in range(2 * k)]


def star_tree(k):
    """The plane star with k leaves: leaf darts 0..k-1 first, then the
    centre's darts k..2k-1, dart i paired with dart k + i."""
    rho0 = list(range(k)) + [k + (i + 1) % k for i in range(k)]
    return rho0, [k + i for i in range(k)] + list(range(k))


def one_cycle(n, rng, face):
    """A random fixed-point-free rho1 on n darts with a single n-cycle
    as rho0 (one vertex) or as rho2 (one face)."""
    rho1 = perms.random_fixed_point_free_involution(n, rng)
    cycle = np.roll(np.arange(n), -1)
    d = from_rho1_rho2(rho1, cycle) if face else Dessin(n, cycle, rho1)
    return list(d.rho0), list(d.rho1)


@st.composite
def quotient_shapes(draw):
    """Image lists whose vertex quotient stresses transitivity and the
    cell kernels: 3 to 8 components side by side, one vertex or one
    face of up to ~2000 darts (the most doubling rounds), a long path
    of vertices, or a star whose centre's neighbours come in increasing
    order; each possibly relabeled at random."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    shape = draw(st.sampled_from(
        ("components", "one-vertex", "one-face", "path", "star")))
    if shape == "components":
        parts = []
        for _ in range(draw(st.integers(3, 8))):
            half = rng.randint(1, 12)
            part = rng.choice(("path", "star", "cycle", "random"))
            if part == "path":
                parts.append(path_tree(half))
            elif part == "star":
                parts.append(star_tree(half))
            elif part == "cycle":
                parts.append(one_cycle(2 * half, rng, rng.random() < 0.5))
            else:
                d = random_dessin(2 * half, rng)
                parts.append((d.rho0, d.rho1))
        rho0, rho1 = side_by_side(parts)
    elif shape in ("one-vertex", "one-face"):
        n = 2 * draw(st.integers(1, 1000))
        rho0, rho1 = one_cycle(n, rng, shape == "one-face")
    else:
        k = draw(st.integers(1, 1000))
        rho0, rho1 = (path_tree if shape == "path" else star_tree)(k)
    d = Dessin(len(rho0), rho0, rho1)
    if draw(st.booleans()):
        d = d.relabeled(perms.random_permutation(d.n_darts, rng))
    return d


class TestQuotientShapes:
    """Shapes malformed_arrays never draws, against the oracles."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(quotient_shapes())
    def test_violations_and_cells(self, d):
        expected = oracles.dessin_violations(d.rho0, d.rho1)
        assert [(v.code, v.dart, v.message)
                for v in d.violations()] == expected
        if not expected:
            assert_cells_match(d)

    def test_star_validates_in_few_hook_rounds(self):
        # hooking each root under whichever smaller root a scatter keeps
        # last takes one round per leaf here, quadratic time; under the
        # smallest one, two rounds
        d = Dessin(40000, *star_tree(20000))
        start = time.perf_counter()
        assert d.violations() == []
        assert time.perf_counter() - start < 1.0
        assert d.genus() == 0


def assert_lifted_cells(d):
    """``d``, an operator output assembled from its arrays unchecked, is
    valid and is what the checked constructor builds from its tuples: an
    int ``n_darts``, read-only intp index arrays, the same rho2 and
    cells, and a pickle round trip."""
    fresh = Dessin(d.n_darts, d.rho0, d.rho1)
    assert type(d.n_darts) is int
    assert d == fresh
    for name in ("_r0", "_r1", "_r2"):
        arr = getattr(d, name)
        assert arr.dtype == np.intp and not arr.flags.writeable, name
    assert d.violations() == fresh.violations() == []
    assert np.array_equal(d._r2, fresh._r2)
    for kind in CellKind:
        for got, want in zip(d.cell_arrays(kind), fresh.cell_arrays(kind)):
            assert np.array_equal(got, want), kind
    assert pickle.loads(pickle.dumps(d)) == d


def assert_tricoloring_as_checked(t):
    """``t`` holds read-only int8 codes equal to those that
    tricolored_from_labels derives, with its checks, from the same base
    and labels, and validate_tricoloring finds nothing."""
    checked = tricolored_from_labels(t.base, t._vertex_label)
    for name in ("_edge_color", "_face_shade", "_vertex_label"):
        got = getattr(t, name)
        assert got.dtype == np.int8 and not got.flags.writeable, name
        assert np.array_equal(got, getattr(checked, name)), name
    assert validate_tricoloring(t) == []


class TestLiftedCells:
    @PROPERTY
    @given(square_tilings(max_squares=40))
    def test_operator_outputs_match_a_fresh_dessin(self, d):
        # the vertex column and the labels of each table are not checked
        # at run time: the lift must number the cells as the generic
        # kernel does, and the colors and shades read off the arrays
        # must be those the checked path derives
        assert_lifted_cells(refine_2x2(d))
        d, labels = bipartite(d)
        t = diagonal_subdivision(d, labels)
        b = barycentric_subdivide(t)
        for out in (t, b):
            assert_tricoloring_as_checked(out)
            assert_lifted_cells(out.base)


class TestLargeGrid:
    @pytest.mark.parametrize("d", [
        square_torus_grid(16, 32),
        # an odd corner graph, as on the refine path of the pipeline
        random_origami(128, random.Random(1))], ids=["grid", "origami"])
    def test_lifted_cells_at_benchmark_scale(self, d):
        refined = refine_2x2(d)
        assert_lifted_cells(refined)
        d, labels = bipartite(d)
        t = diagonal_subdivision(d, labels)
        b = barycentric_subdivide(t)
        for out in (t, b):
            assert_tricoloring_as_checked(out)
            assert_lifted_cells(out.base)

    def test_64x64_pipeline_counts(self):
        d = square_torus_grid(64, 64)
        t = diagonal_subdivision(d, corner_bipartition(d))
        b = barycentric_subdivide(t)
        assert b.base.n_darts == 6 * 3 * d.n_darts
        assert b.base.genus() == 1
        assert len(b.face_shade) == 6 * len(t.face_shade)


def test_import_does_not_load_scipy_sparse():
    # scipy.sparse.csgraph would add ~0.1 s and ~8 MB to every import;
    # orbits and components are computed with numpy alone, and the
    # quadrature rules of the coordinate maps too, so no scipy module
    # loads even after a forward map and an inversion
    code = ("import sys, dessins; "
            "from dessins.csmap import SQUARE_CELL, cs_map, invert_cs_map; "
            "invert_cs_map(SQUARE_CELL, cs_map(SQUARE_CELL, 0.3 - 0.4j)); "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              sys.path)}).returncode == 0
