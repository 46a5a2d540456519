import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from dessins.belyi import (INFINITY, InconsistentPassportError, Passport,
                           barycentric_rational, barycentric_subdivide,
                           passport, riemann_hurwitz_genus)
from dessins.cartography import CellKind
from dessins.catalog import (octahedron_tricolored, one_square_torus,
                             pillow_sphere, random_origami,
                             square_torus_grid, tetrahedron)
from dessins.metric import FaceDegreeMismatch
from dessins.tiling import (Shade, TricoloredDessin, VertexLabel,
                            corner_bipartition, diagonal_subdivision,
                            refine_2x2, validate_tricoloring)

import oracles


def subdivided(d):
    return diagonal_subdivision(d, corner_bipartition(d))


class TestPassportType:
    def test_parts_sorted_descending(self):
        p = Passport(5, (1, 3, 1), (2, 3), (5,))
        assert p.over_zero == (3, 1, 1)
        assert p.over_one == (3, 2)
        assert p.over_infinity == (5,)

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError, match="non-positive"):
            Passport(2, (2,), (0, 2), (2,))

    @pytest.mark.parametrize("part", [np.array([0, 2]), np.array([2, -1]),
                                      np.array([0, 2], dtype=np.uint8)])
    def test_rejects_nonpositive_array_parts(self, part):
        with pytest.raises(ValueError) as info:
            Passport(2, (2,), part, (2,))
        assert str(info.value) == "over_one contains a non-positive part"

    def test_arrays_tuples_and_floats_agree(self):
        from_array = Passport(5, np.array([1, 3, 1]), np.array([2, 3]),
                              np.array([5], dtype=np.int8))
        from_tuples = Passport(5, (1, 3, 1), (2, 3), (5,))
        from_floats = Passport(5.0, [1.0, 3.0, 1.0], [2.0, 3.0], [5.0])
        assert from_array == from_tuples == from_floats
        assert hash(from_array) == hash(from_tuples)
        assert all(type(x) is int for x in from_array.over_zero)

    @pytest.mark.parametrize("args, message", [
        (("3", [3], [3], [3]), "degree must be an integer, not str"),
        ((True, [1], [1], [1]), "degree must be an integer, not bool"),
        ((2, ["2"], [2], [1, 1]), r"over_zero\[0\] must be an integer, "
                                  "not str"),
        ((2, [2], [True, 1], [1, 1]), r"over_one\[0\] must be an integer, "
                                      "not bool"),
        ((2, [2], [2], np.array([True, True])),
         r"over_infinity\[0\] must be an integer, not bool")])
    def test_rejects_str_and_bool(self, args, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            Passport(*args)

    @pytest.mark.parametrize("args, message", [
        ((2.7, [2], [2], [1, 1]), "degree = 2.7 is not an integer"),
        ((float("nan"), [2], [2], [2]), "degree = nan is not an integer"),
        ((float("inf"), [2], [2], [2]), "degree = inf is not an integer"),
        ((2, [1.9, 1], [2], [2]), r"over_zero\[0\] = 1.9 is not an integer"),
        ((2, [2], [float("inf")], [2]),
         r"over_one\[0\] = inf is not an integer"),
        ((2, [2], [2], np.array([1.0, np.nan])),
         r"over_infinity\[1\] = nan is not an integer")])
    def test_rejects_non_integers(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Passport(*args)

    def test_rejects_nonpositive_degree(self):
        # a cover has at least one sheet; degree 0 would pass
        # riemann_hurwitz_genus with empty parts as a torus
        for degree in (0, -2):
            with pytest.raises(ValueError, match="is not positive"):
                Passport(degree, (), (), ())


class TestPassportComputation:
    def test_subdivided_grid(self):
        p = passport(subdivided(square_torus_grid(2, 2)))
        assert p == Passport(8, (4, 4), (4, 4), (2, 2, 2, 2))

    def test_subdivided_pillow(self):
        p = passport(subdivided(pillow_sphere()))
        assert p == Passport(4, (2, 2), (2, 2), (2, 2))
        assert riemann_hurwitz_genus(p) == 0

    def test_octahedron(self):
        p = passport(octahedron_tricolored())
        assert p == Passport(4, (2, 2), (2, 2), (2, 2))

    def test_parts_sum_to_degree(self):
        rng = random.Random(31)
        for _ in range(20):
            t = subdivided(refine_2x2(random_origami(rng.randint(1, 10),
                                                     rng)))
            p = passport(t)
            for parts in (p.over_zero, p.over_one, p.over_infinity):
                assert sum(parts) == p.degree

    def test_rejects_plain_dessin(self):
        with pytest.raises(TypeError, match="^t must be a TricoloredDessin, "
                                            "not Dessin$"):
            passport(one_square_torus())

    def test_rejects_unbalanced_shades(self):
        t = octahedron_tricolored()
        all_white = TricoloredDessin(t.base, t.edge_color,
                                     [Shade.WHITE] * 8, t.vertex_label)
        with pytest.raises(ValueError, match="^8 white and 0 black faces; "
                                             "shades do not checkerboard$"):
            passport(all_white)

    def test_rejects_odd_incident_face_count(self):
        # three triangles meet at each vertex of a tetrahedron; the
        # coloring has the right sizes and two faces of each shade
        t = TricoloredDessin(tetrahedron(), [0] * 6, [0, 0, 1, 1], [0] * 4)
        with pytest.raises(ValueError, match="^vertex 0 has odd incident "
                                             "face count$"):
            passport(t)

    def test_genus_always_matches_base(self):
        rng = random.Random(32)
        for _ in range(20):
            t = subdivided(refine_2x2(random_origami(rng.randint(1, 10),
                                                     rng)))
            assert riemann_hurwitz_genus(passport(t)) == t.base.genus()


class TestRiemannHurwitz:
    def test_known_values(self):
        assert riemann_hurwitz_genus(
            Passport(8, (4, 4), (4, 4), (2, 2, 2, 2))) == 1
        assert riemann_hurwitz_genus(Passport(1, (1,), (1,), (1,))) == 0
        assert riemann_hurwitz_genus(Passport(3, (3,), (3,), (1, 1, 1))) == 0

    def test_sum_mismatch_rejected(self):
        with pytest.raises(InconsistentPassportError, match="sums to 2"):
            riemann_hurwitz_genus(Passport(3, (3,), (3,), (1, 1)))

    def test_odd_branching_rejected(self):
        with pytest.raises(InconsistentPassportError):
            riemann_hurwitz_genus(Passport(2, (2,), (2,), (2,)))

    def test_negative_genus_rejected(self):
        with pytest.raises(InconsistentPassportError):
            riemann_hurwitz_genus(Passport(2, (1, 1), (1, 1), (1, 1)))


class TestRationalMap:
    def test_exact_critical_values(self):
        # all three preimages of 1 on the real line, exactly
        assert barycentric_rational(Fraction(1, 2)) == 1
        assert barycentric_rational(-1) == 1
        assert barycentric_rational(2) == 1
        # cross-check the plain-Fraction oracle
        for x in (Fraction(1, 2), Fraction(-1), Fraction(2)):
            assert oracles.rational_map_exact(x) == 1

    def test_exact_rational_sample(self):
        for num in range(-6, 7):
            for den in (1, 2, 3, 5):
                x = Fraction(num, den)
                if x in (0, 1):
                    continue
                assert barycentric_rational(x) \
                    == oracles.rational_map_exact(x)

    def test_poles_and_infinity(self):
        assert barycentric_rational(0) is INFINITY
        assert barycentric_rational(1) is INFINITY
        assert barycentric_rational(Fraction(0)) is INFINITY
        assert barycentric_rational(INFINITY) is INFINITY
        assert barycentric_rational(0.0) is INFINITY
        assert barycentric_rational(1.0 + 0j) is INFINITY

    @pytest.mark.parametrize("b0", [float("nan"), complex("nan"),
                                    complex(1.0, float("nan")),
                                    complex(float("inf"), float("nan"))])
    def test_nan_rejected(self, b0):
        with pytest.raises(ValueError, match="NaN"):
            barycentric_rational(b0)

    def test_infinity_repr(self):
        assert repr(INFINITY) == "INFINITY"

    def test_infinite_float_is_the_pole_at_infinity(self):
        assert barycentric_rational(float("inf")) is INFINITY
        assert barycentric_rational(complex(0.5, float("-inf"))) is INFINITY

    def test_bool_rejected(self):
        for b0 in (True, np.bool_(True), np.bool_(False)):
            with pytest.raises(TypeError, match="b0 must be a number"):
                barycentric_rational(b0)

    @pytest.mark.parametrize("b0", [
        np.int8(100), np.uint8(200), np.int16(-7), np.int64(2),
        np.uint64(2 ** 64 - 1)])
    def test_numpy_integers_are_exact(self, b0):
        # no wraparound in the scalar's own width, and an exact value
        got = barycentric_rational(b0)
        assert type(got) is Fraction
        assert got == barycentric_rational(int(b0)) \
            == oracles.rational_map_exact(Fraction(int(b0)))

    @pytest.mark.parametrize("b0", [
        np.float32(1e-30), np.float32(0.3), np.float64(-2.5),
        np.float16(0.75), np.complex64(0.5 + 0.2j), np.complex128(2 - 1j)])
    def test_numpy_floats_run_in_double(self, b0):
        # float32 would underflow b0^2 at 1e-30 and return INFINITY
        assert barycentric_rational(b0) == barycentric_rational(complex(b0))

    def test_numpy_nan_and_poles(self):
        with pytest.raises(ValueError, match="NaN"):
            barycentric_rational(np.float32("nan"))
        assert barycentric_rational(np.float32(0)) is INFINITY
        assert barycentric_rational(np.int32(1)) is INFINITY

    def test_decimal_input(self):
        # Decimal has an is_zero() method, which is not a vanishing flag
        assert barycentric_rational(Decimal(2)) == 1
        assert barycentric_rational(Decimal("0.5")) == 1
        assert barycentric_rational(Decimal(0)) is INFINITY
        assert barycentric_rational(Decimal(1)) is INFINITY

    def test_sixth_root_maps_to_zero_exactly(self):
        sympy = pytest.importorskip("sympy")
        b0 = sympy.Rational(1, 2) + sympy.sqrt(3) * sympy.I / 2
        assert sympy.simplify(barycentric_rational(b0)) == 0
        conj = sympy.Rational(1, 2) - sympy.sqrt(3) * sympy.I / 2
        assert sympy.simplify(barycentric_rational(conj)) == 0

    def test_derivative_vanishes_at_simple_critical_points(self):
        for x in (Fraction(-1), Fraction(1, 2), Fraction(2)):
            assert oracles.rational_map_derivative_exact(x) == 0
        # and at no other small rational
        for x in (Fraction(1, 3), Fraction(3), Fraction(-2)):
            assert oracles.rational_map_derivative_exact(x) != 0

    def test_symmetry_under_reflection(self):
        rng = random.Random(33)
        for _ in range(1000):
            x = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            bx = barycentric_rational(x)
            br = barycentric_rational(1 - x)
            assert bx is not INFINITY and br is not INFINITY
            assert abs(br - bx) <= 1e-12 * max(1.0, abs(bx))

    def test_symmetry_under_inversion(self):
        rng = random.Random(34)
        for _ in range(1000):
            x = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(x) < 1e-3:
                continue
            bx = barycentric_rational(x)
            bi = barycentric_rational(1 / x)
            assert abs(bi - bx) <= 1e-12 * max(1.0, abs(bx))

    def test_float_far_from_poles_finite(self):
        val = barycentric_rational(3.0 + 4.0j)
        assert isinstance(val, complex)

    def test_overflow_is_infinity(self):
        assert barycentric_rational(1e120) is INFINITY


class TestBarycentricSubdivide:
    def test_octahedron_counts(self):
        t = octahedron_tricolored()
        b = barycentric_subdivide(t)
        base = b.base
        assert len(base.cells(CellKind.FACE)) == 48
        assert len(base.cells(CellKind.VERTEX)) == 6 + 12 + 8
        assert base.genus() == 0
        assert validate_tricoloring(b) == []

    def test_plain_tetrahedron_input(self):
        b = barycentric_subdivide(tetrahedron())
        base = b.base
        assert len(base.cells(CellKind.FACE)) == 24
        assert len(base.cells(CellKind.VERTEX)) == 4 + 6 + 4
        assert base.genus() == 0
        assert validate_tricoloring(b) == []

    def test_labels_of_composition(self):
        b = barycentric_subdivide(octahedron_tricolored())
        # old vertices keep their darts' count doubled at infinity
        from collections import Counter
        hist = Counter(b.vertex_label)
        assert hist[VertexLabel.INFINITY] == 6
        assert hist[VertexLabel.ONE] == 12
        assert hist[VertexLabel.ZERO] == 8

    def test_passport_degree_times_six(self):
        t = octahedron_tricolored()
        before = passport(t)
        after = passport(barycentric_subdivide(t))
        assert after.degree == 6 * before.degree
        assert riemann_hurwitz_genus(after) == t.base.genus()

    def test_all_fixtures_grow_sixfold_same_genus(self):
        fixtures = [
            subdivided(pillow_sphere()).base,
            subdivided(square_torus_grid(2, 2)).base,
            octahedron_tricolored().base,
            tetrahedron(),
        ]
        for base in fixtures:
            out = barycentric_subdivide(base)
            assert len(out.base.cells(CellKind.FACE)) \
                == 6 * len(base.cells(CellKind.FACE))
            assert out.base.genus() == base.genus()

    def test_shades_balanced(self):
        b = barycentric_subdivide(octahedron_tricolored())
        assert b.face_shade.count(Shade.WHITE) \
            == b.face_shade.count(Shade.BLACK)

    def test_rejects_non_triangulation(self):
        with pytest.raises(FaceDegreeMismatch):
            barycentric_subdivide(one_square_torus())
