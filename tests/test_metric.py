import cmath
import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins.cartography import CellIndex, CellKind, Dessin
from dessins.catalog import (octahedron, one_square_torus, pillow_sphere,
                             random_dessin, random_origami,
                             square_torus_grid, tetrahedron)
from dessins.metric import (R0, R0_INV, R1, AffineChart, FaceDegreeMismatch,
                            MetricData, chart_transition, cone_angle,
                            equilateral_structure, face_closure_residual,
                            metric_violations, square_structure)

import oracles

TOL = 1e-12


def random_metric(d, rng):
    """Arbitrary valid metric: random edge lengths, random angles."""
    lengths = [0.0] * d.n_darts
    for edge in d.cells(CellKind.EDGE):
        val = rng.uniform(0.2, 3.0)
        for x in edge:
            lengths[x] = val
    angles = [rng.uniform(0.1, 2 * math.pi - 0.1) for _ in range(d.n_darts)]
    return MetricData(lengths, angles)


class TestMetricData:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError, match=r"lengths\[1\]"):
            MetricData((1.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            MetricData((1.0, -2.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            MetricData((1.0, float("inf")), (1.0, 1.0))

    def test_rejects_angle_outside_interval(self):
        with pytest.raises(ValueError, match=r"angles\[0\]"):
            MetricData((1.0,), (0.0,))
        with pytest.raises(ValueError):
            MetricData((1.0,), (2 * math.pi,))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(
        (1.0, 0.5, 0.0, -0.0, -1.0, 2 * math.pi, 7.0, 1e-300, math.inf,
         -math.inf, math.nan, 3)), min_size=1, max_size=8),
        st.integers(0, 2 ** 32))
    def test_messages_match_loop(self, values, seed):
        rng = random.Random(seed)
        lengths, angles = values[:], values[:]
        rng.shuffle(angles)
        expected = oracles.metric_data_error(lengths, angles)
        if expected is None:
            m = MetricData(lengths, angles)
            assert (m.lengths, m.angles) == (tuple(map(float, lengths)),
                                             tuple(map(float, angles)))
        else:
            with pytest.raises(ValueError) as exc:
                MetricData(lengths, angles)
            assert str(exc.value) == expected

    def test_rejects_2d_array(self):
        with pytest.raises(ValueError,
                           match=r"angles must be a 1-D array, got shape"):
            MetricData(np.ones(4), np.ones((2, 2)))

    @pytest.mark.parametrize("lengths", [np.array([1 + 2j]), [1 + 2j],
                                         np.array([1 + 0j])])
    def test_rejects_complex(self, lengths):
        # a complex array is not cast to its real part
        with pytest.raises(TypeError):
            MetricData(lengths, np.array([1.0]))

    def test_fit_check_leaves_equality_hash_and_repr(self):
        d = square_torus_grid(2, 2)
        m, fresh = square_structure(d), square_structure(d)
        cone_angle(d, m, 0)
        assert m == fresh and hash(m) == hash(fresh)
        assert repr(m) == repr(fresh)

    def test_size_mismatch_violation(self):
        d = one_square_torus()
        m = MetricData((1.0, 1.0), (1.0, 1.0))
        assert [v.code for v in metric_violations(d, m)] \
            == ["metric-size-mismatch"]

    def test_length_edge_constance(self):
        d = one_square_torus()
        # rho1 pairs darts (0,2) and (1,3); break the first pair
        m = MetricData((1.0, 1.0, 2.0, 1.0), (1.0,) * 4)
        codes = {v.code for v in metric_violations(d, m)}
        assert codes == {"length-not-edge-constant"}

    def test_valid_metric_clean(self):
        d = tetrahedron()
        assert metric_violations(d, equilateral_structure(d)) == []


class TestStructures:
    def test_equilateral_tetrahedron(self):
        m = equilateral_structure(tetrahedron())
        assert m.lengths == (1.0,) * 12
        assert m.angles == (math.pi / 3,) * 12

    def test_equilateral_octahedron_accepted(self):
        assert equilateral_structure(octahedron()).lengths == (1.0,) * 24

    def test_square_structures(self):
        m = square_structure(one_square_torus())
        assert m.angles == (math.pi / 2,) * 4
        square_structure(square_torus_grid(3, 2))
        square_structure(pillow_sphere())

    def test_degree_mismatch_named_face(self):
        with pytest.raises(FaceDegreeMismatch, match="face 0 has 3 sides"):
            square_structure(tetrahedron())
        with pytest.raises(FaceDegreeMismatch, match="expected 3"):
            equilateral_structure(one_square_torus())


class TestAffineChart:
    def test_apply(self):
        c = AffineChart(2j, 1.0)
        assert c.apply(3.0) == 1.0 + 6j

    def test_compose_inner_first(self):
        outer = AffineChart(2.0, 1.0)
        inner = AffineChart(-1.0, 5.0)
        composed = outer.compose(inner)
        for z in (0j, 1.5, 2 - 3j):
            assert composed.apply(z) == outer.apply(inner.apply(z))

    def test_identity(self):
        assert AffineChart.identity().is_identity()
        assert not AffineChart(1.0, 1e-6).is_identity()
        assert AffineChart(1.0 + 1e-15, 1e-15).is_identity()


class TestChartTransition:
    def test_single_rho0_is_rotation(self):
        d = one_square_torus()
        m = square_structure(d)
        c = chart_transition(d, m, 0, [R0])
        assert abs(c.a - cmath.exp(1j * math.pi / 2)) < TOL
        assert abs(c.b) < TOL

    def test_single_rho1_is_reversal(self):
        d = one_square_torus()
        m = square_structure(d)
        c = chart_transition(d, m, 0, [R1])
        # z -> l - z with unit length
        assert abs(c.a + 1.0) < TOL and abs(c.b - 1.0) < TOL

    def test_rho0_then_inverse_cancels(self):
        rng = random.Random(3)
        d = random_dessin(12, rng)
        m = random_metric(d, rng)
        for dart in range(d.n_darts):
            assert chart_transition(d, m, dart, [R0_INV, R0]) \
                .is_identity()
            assert chart_transition(d, m, dart, [R0, R0_INV]) \
                .is_identity()

    def test_rho0_inverse_is_one_lookup(self):
        # rho0^-1 = rho2 o rho1 costs two lookups per token, where a walk
        # around the vertex cycle would cost its degree, here 200,000
        n = 200_000
        d = Dessin(n, np.roll(np.arange(n), -1), np.arange(n) ^ 1)
        m = MetricData(np.ones(n), np.full(n, 2.0 * math.pi / n))
        chart_transition(d, m, 0, [R0])  # validates d and m once
        with oracles.time_limit(0.25):
            chart = chart_transition(d, m, 0, [R0_INV] * 20)
        assert abs(chart.a - cmath.exp(-40j * math.pi / n)) <= TOL
        assert chart.b == 0

    def test_group_relators_give_identity_charts(self):
        rng = random.Random(4)
        for _ in range(25):
            d = random_dessin(2 * rng.randint(2, 12), rng)
            m = random_metric(d, rng)
            for dart in range(0, d.n_darts, 3):
                assert chart_transition(d, m, dart, [R1, R1]) \
                    .is_identity()
                # rho2 rho1 rho0 spelled in the available letters
                word = [R0_INV, R1, R1, R0]
                assert chart_transition(d, m, dart, word).is_identity()

    def test_face_loop_of_square_tiling_is_identity(self):
        # developing a full face boundary must close up: the rho2 step
        # as a chart word, iterated face-size times
        for d in (one_square_torus(), square_torus_grid(2, 3),
                  pillow_sphere()):
            m = square_structure(d)
            for dart in range(d.n_darts):
                word = [R0_INV, R1] * 4
                assert chart_transition(d, m, dart, word).is_identity()

    def test_face_loop_of_triangulation_is_identity(self):
        for d in (tetrahedron(), octahedron()):
            m = equilateral_structure(d)
            for dart in range(d.n_darts):
                word = [R0_INV, R1] * 3
                assert chart_transition(d, m, dart, word).is_identity()

    def test_unknown_token(self):
        d = one_square_torus()
        with pytest.raises(ValueError, match="unknown word token"):
            chart_transition(d, square_structure(d), 0, ["rho2"])


class TestClosureAndConeAngles:
    def test_square_faces_close(self):
        for d in (one_square_torus(), square_torus_grid(3, 2),
                  pillow_sphere()):
            m = square_structure(d)
            for f in range(len(d.cells(CellKind.FACE))):
                residual, turn = face_closure_residual(d, m, f)
                assert abs(residual) < TOL
                assert abs(turn) < TOL

    def test_triangle_faces_close(self):
        for d in (tetrahedron(), octahedron()):
            m = equilateral_structure(d)
            for f in range(len(d.cells(CellKind.FACE))):
                residual, turn = face_closure_residual(d, m, f)
                assert abs(residual) < TOL
                assert abs(turn) < TOL

    def test_accepts_cell_index(self):
        d = tetrahedron()
        m = equilateral_structure(d)
        residual, _ = face_closure_residual(
            d, m, CellIndex(CellKind.FACE, 2))
        assert abs(residual) < TOL
        with pytest.raises(ValueError, match="expected a face"):
            face_closure_residual(d, m, CellIndex(CellKind.VERTEX, 0))

    @pytest.mark.parametrize("call, message", [
        (lambda d, m: chart_transition(d, m, 4, [R0]),
         "dart 4 out of range"),
        (lambda d, m: face_closure_residual(d, m, 1), "face 1 out of range"),
        (lambda d, m: cone_angle(d, m, CellIndex(CellKind.FACE, 0)),
         "expected a vertex cell"),
        (lambda d, m: cone_angle(d, m, 1), "vertex 1 out of range"),
    ])
    def test_rejects_cell_out_of_range(self, call, message):
        d = one_square_torus()  # 4 darts, one vertex, one face
        with pytest.raises(ValueError, match=message):
            call(d, square_structure(d))

    @pytest.mark.parametrize("call", [
        lambda d, m, x: d.dart_cell(x, CellKind.VERTEX),
        lambda d, m, x: chart_transition(d, m, x, []),
        face_closure_residual,
        cone_angle,
    ], ids=["dart_cell", "chart_transition", "face_closure_residual",
            "cone_angle"])
    def test_dart_and_cell_arguments_checked(self, call):
        """A bool, a non-integer or an id out of range raises ValueError;
        numpy integers are taken as the equal int."""
        d = square_torus_grid(2, 2)  # 16 darts, 4 vertices, 4 faces
        m = square_structure(d)
        for bad in (True, False, np.True_, 1.5, np.float64(1.0), "1", None):
            with pytest.raises(ValueError, match="is not an integer"):
                call(d, m, bad)
        for bad in (-1, 16, np.int64(16)):
            with pytest.raises(ValueError, match="out of range"):
                call(d, m, bad)
        for good in (np.int64(3), np.uint8(2), np.intp(0)):
            assert call(d, m, good) == call(d, m, int(good))

    def test_open_polygon_has_residual(self):
        d = one_square_torus()
        # lengths stay edge-constant but the quadrilateral cannot close:
        # sides 1, 2, 1, 2 with right angles close, so bend one angle
        m = MetricData((1.0,) * 4,
                       (math.pi / 2, math.pi / 2, math.pi / 3, math.pi / 2))
        residual, turn = face_closure_residual(d, m, 0)
        assert abs(residual) > 0.1
        assert abs(turn) > 0.1

    def test_cone_angles_tetrahedron(self):
        d = tetrahedron()
        m = equilateral_structure(d)
        for v in range(4):
            assert abs(cone_angle(d, m, v) - math.pi) < TOL

    def test_cone_angles_one_square_torus_flat(self):
        d = one_square_torus()
        assert abs(cone_angle(d, square_structure(d), 0) - 2 * math.pi) < TOL

    def test_cone_angles_pillow(self):
        d = pillow_sphere()
        m = square_structure(d)
        for v in range(4):
            assert abs(cone_angle(d, m, v) - math.pi) < TOL

    def test_cone_angle_accepts_cell_index(self):
        d = pillow_sphere()
        m = square_structure(d)
        assert cone_angle(d, m, CellIndex(CellKind.VERTEX, 1)) \
            == pytest.approx(math.pi)

    def test_random_origami_flat_away_from_cones(self):
        # total angle over all vertices is (pi/2) * n_darts
        rng = random.Random(6)
        for _ in range(10):
            d = random_origami(rng.randint(1, 10), rng)
            m = square_structure(d)
            total = sum(cone_angle(d, m, v)
                        for v in range(len(d.cells(CellKind.VERTEX))))
            assert total == pytest.approx(math.pi / 2 * d.n_darts)
            for v in range(len(d.cells(CellKind.VERTEX))):
                ratio = cone_angle(d, m, v) / (2 * math.pi)
                assert abs(ratio - round(ratio)) < TOL


class TestMetricCheckedOnce:
    def test_one_check_per_pair_over_a_stratum(self, monkeypatch):
        import dessins.metric as metric_module

        calls = []
        real = metric_module.metric_violations

        def counting(d, m):
            calls.append((id(d), id(m)))
            return real(d, m)

        monkeypatch.setattr(metric_module, "metric_violations", counting)
        d = square_torus_grid(6, 5)
        m = square_structure(d)
        angles = [cone_angle(d, m, v)
                  for v in range(len(d.cells(CellKind.VERTEX)))]
        assert angles == pytest.approx([2 * math.pi] * len(angles))
        for f in range(len(d.cells(CellKind.FACE))):
            face_closure_residual(d, m, f)
        for x in range(d.n_darts):
            chart_transition(d, m, x, [R0_INV, R1, R0])
        assert len(calls) == 1
        # a second metric on the same dessin is checked once more
        m2 = square_structure(d)
        cone_angle(d, m2, 0)
        cone_angle(d, m2, 1)
        assert len(calls) == 2

    def test_bad_metric_raises_on_every_call(self):
        d = one_square_torus()
        bad = MetricData([1.0, 2.0, 2.0, 1.0], [1.0] * 4)
        assert metric_violations(d, bad)
        for _ in range(3):
            with pytest.raises(ValueError, match="length-not-edge-constant"):
                cone_angle(d, bad, 0)

    def test_rho0_inverse_token_matches_inverse(self):
        d = random_dessin(30, random.Random(8))
        m = random_metric(d, random.Random(9))
        for x in range(d.n_darts):
            back = chart_transition(d, m, x, [R0_INV, R0])
            assert back.is_identity()


def vertex_sums(d, m):
    """Each vertex's angle sum over its darts in rho0 order from the
    smallest, vertex by vertex: what cone_angle summed per call before
    it kept a table."""
    return [sum(m.angles[x] for x in darts)
            for darts in d.cells(CellKind.VERTEX)]


def all_cone_angles(d, m):
    return [cone_angle(d, m, v) for v in range(len(d.cells(CellKind.VERTEX)))]


def counting_fit_checks(monkeypatch):
    """A list that each metric_violations call appends to."""
    import dessins.metric as metric_module

    calls = []
    real = metric_module.metric_violations

    def counting(d, m):
        calls.append((id(d), id(m)))
        return real(d, m)

    monkeypatch.setattr(metric_module, "metric_violations", counting)
    return calls


class TestConeAngleTable:
    def test_equals_per_vertex_sums_exactly(self):
        rng = random.Random(11)
        for _ in range(20):
            d = random_origami(rng.randint(1, 40), rng)
            m = random_metric(d, rng)
            n = len(d.cells(CellKind.VERTEX))
            # the first call, which builds the table, asks for the last
            got = {v: cone_angle(d, m, v) for v in reversed(range(n))}
            assert [got[v] for v in range(n)] == vertex_sums(d, m)

    def test_one_metric_alternating_between_two_dessins(self):
        """A metric that fits two dessins of one size gives each its own
        totals, and a vertex id each its own range."""
        grid = square_torus_grid(4, 8)
        origami = random_origami(32, random.Random(1))
        assert grid.n_darts == origami.n_darts
        m = square_structure(grid)
        expected = [vertex_sums(grid, m), vertex_sums(origami, m)]
        assert expected[0] != expected[1]
        for _ in range(3):
            assert [all_cone_angles(grid, m),
                    all_cone_angles(origami, m)] == expected
        n = len(expected[1])
        assert n < len(expected[0])
        assert cone_angle(grid, m, n) == expected[0][n]
        with pytest.raises(ValueError, match=f"^vertex {n} out of range$"):
            cone_angle(origami, m, n)
        assert cone_angle(grid, m, n) == expected[0][n]


class TestMetricCopies:
    def test_pickle_holds_no_memo(self):
        d = square_torus_grid(16, 16)
        m = square_structure(d)
        fresh = pickle.dumps(m)
        all_cone_angles(d, m)
        assert pickle.dumps(m) == fresh
        back = pickle.loads(fresh)
        assert back == m
        assert np.array_equal(back._lengths, m._lengths)
        assert np.array_equal(back._angles, m._angles)
        # rebuilt through metric_array, so read-only as the original
        assert not back._lengths.flags.writeable
        assert not back._angles.flags.writeable

    def test_unpickled_metric_checks_its_fit_once(self, monkeypatch):
        d = square_torus_grid(3, 5)
        m = square_structure(d)
        expected = all_cone_angles(d, m)
        back = pickle.loads(pickle.dumps(m))
        calls = counting_fit_checks(monkeypatch)
        assert all_cone_angles(d, back) == expected
        assert calls == [(id(d), id(back))]

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_copies_hold_no_memo(self, copier):
        d = square_torus_grid(3, 5)
        m = square_structure(d)
        all_cone_angles(d, m)
        c = copier(m)
        assert c == m
        assert "_fits" not in c.__dict__ and "_totals" not in c.__dict__
