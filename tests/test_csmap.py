"""Numerical coordinate-map engine: quadrature, branch handling, the
three named coordinate specs, Newton inversion, and the triangle-to-
square transform.

Expected constants were frozen from the independent gamma oracle
(oracles.gamma_beta) and from scipy's regularized incomplete beta,
neither of which shares code with the package quadrature.
"""

import cmath
import dataclasses
import math
import random

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dessins.csmap import (
    CsMapSpec,
    CutCrossingError,
    MIN_EXPONENT,
    NonConvergenceError,
    OutsideImageError,
    QuadratureConfig,
    SQUARE_CELL,
    SQUARE_COORD,
    TRIANGLE_COORD,
    complete_beta,
    cs_map,
    cs_map_derivative,
    image_triangle,
    incomplete_cs_integral,
    invert_cs_map,
    named_spec,
    triangle_to_square,
)
import dessins.csmap as csmap_module
from oracles import (complex_power_scaled_integral, fd_derivative, gamma_beta,
                     list_summed_scaled_integral, time_limit)

ALL_SPECS = (SQUARE_CELL, TRIANGLE_COORD, SQUARE_COORD)


class TestConfigAndSpec:
    def test_default_config(self):
        cfg = QuadratureConfig()
        assert cfg.node_count == 48
        assert [f.name for f in dataclasses.fields(cfg)] == ["node_count"]

    def test_config_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            QuadratureConfig(node_count=1)
        with pytest.raises(ValueError):
            QuadratureConfig(node_count=2.5)
        # an integer, as every size in the package, but not a bool
        for flag in (True, np.True_):
            with pytest.raises(ValueError):
                QuadratureConfig(node_count=flag)
        # the 1e-12 tolerance is fixed and panels are never split
        with pytest.raises(TypeError):
            QuadratureConfig(target_rel_error=1e-8)
        with pytest.raises(TypeError):
            QuadratureConfig(max_path_splits=40)

    def test_numpy_node_count_is_taken(self):
        cfg = QuadratureConfig(node_count=np.int64(48))
        assert cfg == QuadratureConfig()
        assert type(cfg.node_count) is int

    def test_node_count_capped(self):
        # the cap bounds one rule build to a dense 2n-node eigenproblem;
        # at the cap a map still evaluates and agrees with the default
        cap = csmap_module.MAX_NODE_COUNT
        with pytest.raises(ValueError, match=f"node_count must be <= {cap}"):
            QuadratureConfig(node_count=cap + 1)
        with pytest.raises(ValueError, match="<= "):
            QuadratureConfig(node_count=10 ** 9)
        cfg = QuadratureConfig(node_count=cap)
        t = 0.5 - 0.2j
        assert abs(cs_map(SQUARE_CELL, t, cfg) - cs_map(SQUARE_CELL, t)) \
            <= 1e-12

    def test_named_specs_exact(self):
        assert (SQUARE_CELL.a, SQUARE_CELL.b) == (0.25, 0.25)
        assert SQUARE_CELL.prefactor == 1j
        assert (TRIANGLE_COORD.a, TRIANGLE_COORD.b) == (1.0 / 6.0, 0.5)
        assert TRIANGLE_COORD.prefactor == 1.0 + 0j
        assert (SQUARE_COORD.a, SQUARE_COORD.b) == (0.25, 0.5)
        assert SQUARE_COORD.prefactor == 1.0 + 0j

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CsMapSpec(0.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="exponent a must lie in"):
            CsMapSpec(1e-300, 0.5, 1)
        with pytest.raises(ValueError, match="exponent b must lie in"):
            CsMapSpec(0.5, MIN_EXPONENT / 2, 1)
        # a bool is an int, but no exponent, as for Dessin's n_darts
        with pytest.raises(ValueError, match="exponent b must lie in"):
            CsMapSpec(0.5, True, 1)
        with pytest.raises(ValueError):
            CsMapSpec(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            CsMapSpec(0.5, 1.5, 1.0)
        with pytest.raises(ValueError):
            CsMapSpec(0.25, 0.25, 2.0)

    @pytest.mark.parametrize("prefactor", [
        complex("nan"), complex(1, float("nan")), complex("inf"),
        complex(float("inf"), float("nan"))])
    def test_non_finite_prefactor_rejected(self, prefactor):
        # a NaN modulus compares False against any bound
        with pytest.raises(ValueError, match="prefactor must have modulus 1"):
            CsMapSpec(0.5, 0.25, prefactor)

    def test_named_spec_lookup(self):
        assert named_spec("square_cell") is SQUARE_CELL
        assert named_spec("triangle_coord") is TRIANGLE_COORD
        assert named_spec("square_coord") is SQUARE_COORD
        with pytest.raises(ValueError, match="unknown map spec"):
            named_spec("pentagon")

    def test_error_hierarchy(self):
        assert issubclass(CutCrossingError, ValueError)
        assert issubclass(OutsideImageError, ValueError)
        assert issubclass(NonConvergenceError, RuntimeError)


class TestCompleteBeta:
    def test_unit_exponents(self):
        assert complete_beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_half_half_is_pi(self):
        assert complete_beta(0.5, 0.5) == pytest.approx(
            3.141592653589793, rel=1e-11)

    def test_quarter_quarter_frozen(self):
        # gamma(1/4)^2 / gamma(1/2), frozen from the C library gamma
        assert complete_beta(0.25, 0.25) == pytest.approx(
            7.416298709205489, rel=1e-11)

    def test_sixth_half_frozen(self):
        assert complete_beta(1.0 / 6.0, 0.5) == pytest.approx(
            7.285951943662745, rel=1e-11)

    def test_matches_gamma_oracle_on_grid(self):
        for a in (0.1, 0.25, 1.0 / 3.0, 0.5, 0.8, 1.0):
            for b in (0.15, 0.5, 0.9):
                expect = gamma_beta(a, b)
                assert complete_beta(a, b) == pytest.approx(
                    expect, rel=1e-10), (a, b)

    def test_exact_symmetry(self):
        # split at 1/2 makes the two computations literally the same sum
        for a, b in ((0.25, 0.5), (1.0 / 6.0, 0.5), (0.3, 0.9)):
            assert complete_beta(a, b) == complete_beta(b, a)

    def test_rejects_out_of_range_exponents(self):
        with pytest.raises(ValueError):
            complete_beta(0.0, 0.5)
        with pytest.raises(ValueError):
            complete_beta(0.5, 1.2)
        # below the floor, a - 1 rounds to -1 and the Gauss rule's
        # matrix would divide 0 by 0
        with pytest.raises(ValueError, match="exponent a must lie in"):
            incomplete_cs_integral(5e-324, 0.5, 0.5 - 0.5j)
        with pytest.raises(ValueError, match="exponent a must lie in"):
            incomplete_cs_integral(True, 0.5, 0.5 - 0.5j)

    def test_floor_exponent_is_finite(self):
        assert math.isfinite(complete_beta(MIN_EXPONENT, MIN_EXPONENT))
        value = incomplete_cs_integral(MIN_EXPONENT, 0.5, 0.5 - 0.5j)
        assert cmath.isfinite(value)

    # B(a, b) is checked as the ladder is, so a coarse node count raises
    # wherever it enters: alone, on the reflected branch near t = 1, and
    # in the normalization of a map; unchecked, the first two were off
    # by 4.8e-4 and 4.8e-7 relative and the third by 4e-8
    @pytest.mark.parametrize("call", [
        lambda: complete_beta(0.25, 0.25, QuadratureConfig(node_count=2)),
        lambda: incomplete_cs_integral(0.25, 0.25, 0.95 - 0.01j,
                                       QuadratureConfig(node_count=4)),
        lambda: cs_map(SQUARE_CELL, 0.999 - 0.001j,
                       QuadratureConfig(node_count=4))],
        ids=["complete_beta", "reflected", "cs_map"])
    def test_coarse_node_count_raises(self, call):
        with pytest.raises(NonConvergenceError) as info:
            call()
        assert info.value.stage == "quadrature"


class TestIncompleteIntegral:
    def test_constant_integrand_is_identity(self):
        for t in (0.3, -2.0, 0.5 - 0.5j, -1.0 - 3.0j, 0.97 - 0.01j,
                  4.0 - 2.0j):
            value = incomplete_cs_integral(1.0, 1.0, t)
            assert abs(value - t) <= 1e-14 * max(1.0, abs(t)), t

    def test_zero_endpoint(self):
        assert incomplete_cs_integral(0.25, 0.25, 0.0) == 0j

    def test_one_endpoint_is_complete_beta(self):
        b = complete_beta(0.25, 0.5)
        assert incomplete_cs_integral(0.25, 0.5, 1.0) == complex(b)

    def test_real_cut_raises(self):
        with pytest.raises(CutCrossingError):
            incomplete_cs_integral(0.25, 0.25, 1.5)
        with pytest.raises(CutCrossingError):
            incomplete_cs_integral(0.25, 0.25, 1.0000001)

    def test_matches_scipy_on_real_axis(self):
        # betainc is regularized: I(a,b;x) = B(a,b) * betainc(a,b,x).
        # Covers both the direct path (small x) and the reflected path
        # (x within 0.1 of 1).
        for a, b in ((0.25, 0.25), (1.0 / 6.0, 0.5), (0.7, 0.4)):
            whole = gamma_beta(a, b)
            for x in (0.05, 0.3, 0.5, 0.85, 0.91, 0.97, 0.999):
                expect = whole * float(scipy.special.betainc(a, b, x))
                got = incomplete_cs_integral(a, b, x)
                assert abs(got.imag) <= 1e-12 * abs(got.real)
                assert got.real == pytest.approx(expect, rel=1e-9), (a, b, x)

    def test_continuous_across_reflection_boundary(self):
        # the segment-to-1 distance threshold sits at 0.1; stepping over
        # it must not move the value beyond a first-order estimate
        a, b = 0.25, 0.25
        t0, t1 = 0.8999 - 0.2j, 0.9001 - 0.2j
        f0 = incomplete_cs_integral(a, b, t0)
        f1 = incomplete_cs_integral(a, b, t1)
        mid = (t0 + t1) / 2.0
        integrand = mid ** (a - 1.0) * (1.0 - mid) ** (b - 1.0)
        predicted = integrand * (t1 - t0)
        assert abs((f1 - f0) - predicted) <= 1e-9

    def test_lower_half_plane_values_are_finite(self):
        rng = random.Random(7)
        for _ in range(25):
            t = complex(rng.uniform(-3, 4), -rng.uniform(0.01, 3))
            value = incomplete_cs_integral(0.25, 0.25, t)
            assert cmath.isfinite(value)


class TestAgainstMpmath:
    """The rules and the map against 30-digit mpmath values."""

    @pytest.mark.parametrize("a", [1.0 / 6.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("n", [48, 96])
    def test_gauss_rule_is_exact_on_monomials(self, a, n):
        # integral_0^1 s^(a-1) s^k ds = 1/(a+k) for every k < 2n
        s, w = csmap_module._gauss01(n, a)
        k = np.arange(2 * n)
        got = (s ** k[:, None]) @ w
        assert np.max(np.abs(got * (a + k) - 1.0)) <= 1e-13

    @staticmethod
    def assert_map_matches_mpmath(spec, points):
        with mpmath.workdps(30):
            whole = mpmath.beta(spec.a, spec.b)
            for t in points:
                z = cs_map(spec, t)
                expect = complex(spec.prefactor * mpmath.betainc(
                    spec.a, spec.b, 0, t) / whole)
                assert abs(z - expect) <= 1e-14 * max(1.0, abs(z)), t

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_map_eval_grid_points(self, spec):
        # the points of `dessins map-eval --grid 16`
        n = 16
        self.assert_map_matches_mpmath(
            spec, [complex(i / (n - 1), -j / (n - 1))
                   for j in range(n) for i in range(n)])

    @pytest.mark.parametrize("spec", ALL_SPECS + (
        CsMapSpec(0.01, 0.02, 1.0), CsMapSpec(1e-4, 1e-3, 1.0)),
        ids=lambda s: f"{s.name}-{s.a:g}-{s.b:g}")
    def test_far_points_on_the_panel_ladder(self, spec):
        # |t| > 1 takes the Gauss-Legendre ladder, which the map-eval
        # grid never reaches: up to about 1000 panels at |t| = 1e300
        radii = (1.5, 3.0, 10.0, 1e2, 1e4, 1e8, 1e16, 1e64, 1e200, 1e300)
        angles = (1e-6, math.pi / 4, math.pi / 2, 3 * math.pi / 4,
                  math.pi - 1e-6)
        self.assert_map_matches_mpmath(
            spec, [cmath.rect(r, -theta) for r in radii for theta in angles])


class TestCsMap:
    def test_shared_normalization_points(self):
        for spec in ALL_SPECS:
            assert cs_map(spec, 0.0) == 0j
            one = cs_map(spec, 1.0)
            assert abs(one - spec.prefactor) <= 1e-12

    def test_square_cell_sends_one_to_i(self):
        assert abs(cs_map(SQUARE_CELL, 1.0) - 1j) <= 1e-9

    def test_square_cell_far_negative_axis_reaches_center(self):
        # tail decays like |t|^(a+b-1) = |t|^(-1/2)
        value = cs_map(SQUARE_CELL, -1e8)
        assert abs(value - (0.5 + 0.5j)) <= 2e-4

    def test_square_cell_real_segment_maps_to_imaginary_axis(self):
        for k in range(1, 10):
            t = k / 10.0
            z = cs_map(SQUARE_CELL, t)
            assert abs(z.real) <= 1e-12, t
            assert 0.0 < z.imag < 1.0

    def test_node_doubling_stability(self):
        coarse = QuadratureConfig(node_count=48)
        fine = QuadratureConfig(node_count=96)
        samples = (0.3, 0.5 - 0.4j, -2.0 - 1.0j, 0.95 - 0.05j, 3.0 - 2.0j)
        for spec in ALL_SPECS:
            for t in samples:
                delta = abs(cs_map(spec, t, coarse) - cs_map(spec, t, fine))
                assert delta <= 1e-9, (spec.name, t)

    def test_cut_raises(self):
        with pytest.raises(CutCrossingError):
            cs_map(SQUARE_CELL, 2.0)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_corner_angle_at_zero(self, spec):
        # image of a lower-half-disk of radius 1e-3 at t=0 spans a*pi
        r = 1e-3
        z_pos = cs_map(spec, r)
        z_neg = cs_map(spec, -r)
        span = abs(cmath.phase(z_pos * z_neg.conjugate()))
        assert abs(span - spec.a * math.pi) <= 1e-3

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_corner_angle_at_one(self, spec):
        r = 1e-3
        corner = cs_map(spec, 1.0)
        # t=1+r sits on the cut, so approach the cut from below
        z_out = cs_map(spec, 1.0 + r * cmath.exp(-1e-6j))
        z_in = cs_map(spec, 1.0 - r)
        span = abs(cmath.phase(
            (z_out - corner) * (z_in - corner).conjugate()))
        assert abs(span - spec.b * math.pi) <= 1e-3


class TestDerivative:
    def test_singular_points_rejected(self):
        with pytest.raises(ValueError):
            cs_map_derivative(SQUARE_CELL, 0.0)
        with pytest.raises(ValueError):
            cs_map_derivative(SQUARE_CELL, 1.0)
        with pytest.raises(CutCrossingError):
            cs_map_derivative(SQUARE_CELL, 2.5)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_matches_finite_difference(self, spec):
        rng = random.Random(11)
        checked = 0
        while checked < 20:
            t = complex(rng.uniform(-1.5, 2.5), -rng.uniform(0.1, 2.0))
            if abs(t) < 0.15 or abs(t - 1.0) < 0.15:
                continue
            fd = fd_derivative(lambda w: cs_map(spec, w), t)
            exact = cs_map_derivative(spec, t)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact)), t
            checked += 1

    def test_blows_up_at_zero(self):
        mags = [abs(cs_map_derivative(SQUARE_CELL, -r))
                for r in (1e-2, 1e-4, 1e-8)]
        assert mags[0] < mags[1] < mags[2]
        assert mags[2] > 1e4


class TestImageTriangle:
    def test_needs_sum_below_one(self):
        flat = CsMapSpec(0.5, 0.5, 1.0)
        with pytest.raises(ValueError, match="triangle"):
            image_triangle(flat)

    def test_third_exponent_below_min(self):
        # a and b are in range, but B(a, 1 - a - b) would take 1.1e-16:
        # the error names that exponent, not the spec's b
        spec = CsMapSpec(0.5, 0.4999999999999999, 1.0)
        message = ("1 - a - b = 1.1102230246251565e-16 lies below "
                   "MIN_EXPONENT 1e-15")
        for fn in (image_triangle, lambda s: invert_cs_map(s, 0.1j)):
            with pytest.raises(ValueError) as exc:
                fn(spec)
            assert str(exc.value) == message

    def test_square_cell_triangle(self):
        p0, p1, p2 = image_triangle(SQUARE_CELL)
        assert p0 == 0j
        assert p1 == 1j
        assert abs(p2 - (0.5 + 0.5j)) <= 1e-12

    def test_triangle_coord_triangle(self):
        p0, p1, p2 = image_triangle(TRIANGLE_COORD)
        assert p0 == 0j
        assert p1 == 1.0 + 0j
        assert abs(p2 - (1.0 - 1j / math.sqrt(3.0))) <= 1e-12

    def test_square_coord_triangle(self):
        p0, p1, p2 = image_triangle(SQUARE_COORD)
        assert abs(p2 - (1.0 - 1j)) <= 1e-12


class TestInversion:
    def test_corner_snaps(self):
        for spec in ALL_SPECS:
            assert invert_cs_map(spec, 0j) == 0j
            assert invert_cs_map(spec, spec.prefactor) == 1.0 + 0j

    @pytest.mark.parametrize("z_of", [
        lambda tri: 5.301061939785505e-06 - 9.470043098466664e-07j,
        lambda tri: tri[1] + 4e-7 * (tri[2] - tri[1]) / abs(tri[2] - tri[1]),
    ], ids=["next_to_0", "next_to_1"])
    def test_no_snap_beyond_the_promise(self, z_of):
        # with a + b next to 1 the triangle's diameter is 3.2e7, so these
        # points lie within 1e-12 of it from a corner, yet that corner
        # misses the residual promise by 5.4e-6 and 4e-7
        spec = CsMapSpec(0.056270645099858366, 0.9437293531703974, 1)
        z = z_of(image_triangle(spec))
        t = invert_cs_map(spec, z)
        assert t not in (0, 1)
        assert abs(cs_map(spec, t) - z) <= 1e-10 * max(1.0, abs(z))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
    def test_no_snap_beyond_the_newton_target(self, spec):
        # 1e-11 from the image of 0 the corner would meet the promise,
        # but Newton's t meets the 1e-14 target
        tri = image_triangle(spec)
        z = 1e-11 * (tri[1] + tri[2]) / abs(tri[1] + tri[2])
        t = invert_cs_map(spec, z)
        assert t != 0
        assert abs(cs_map(spec, t) - z) <= 1e-14

    @pytest.mark.parametrize("a, b, t", [
        (0.5, 0.5 - 1e-6, 1.5 - 1.2j),
        (0.5, 0.5 - 1e-8, 2.0 - 0.5j),
        (0.5, 0.5 - 1e-10, 2.0 - 0.5j),
        (0.8, 0.2 - 1e-8, -1.5 - 1j),
        (0.2, 0.8 - 1e-10, 1.5 - 1.2j),
        (0.8, 0.2 - 1e-12, 0.5 - 2j),
    ])
    def test_tiny_c_between_the_prevertices(self, a, b, t):
        # with c = a + b - 1 next to 0, q = t^c rounds next to 1 where
        # 1 < min(|t|, |1-t|) <= 3, while the map keeps an O(1) slope:
        # a step back to t through (q - h)^(1/c) magnified that rounding
        # by 1/|c| and stalled, at residuals from 1e-11 up to 7e-6
        spec = CsMapSpec(a, b, 1.0)
        z = cs_map(spec, t)
        assert abs(cs_map(spec, invert_cs_map(spec, z)) - z) <= 1e-14

    def test_outside_image_rejected(self):
        for spec in ALL_SPECS:
            with pytest.raises(OutsideImageError):
                invert_cs_map(spec, 2.0 + 2.0j)
        # just past the straight edge from 0 to i
        with pytest.raises(OutsideImageError):
            invert_cs_map(SQUARE_CELL, -0.05 + 0.5j)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_round_trip_on_interior_grid(self, spec):
        # 50 sample parameters across the open lower half-plane
        count = 0
        for i in range(10):
            for j in range(5):
                t = complex(-1.5 + 4.0 * i / 9.0,
                            -0.05 - 1.95 * j / 4.0)
                z = cs_map(spec, t)
                t_back = invert_cs_map(spec, z)
                assert abs(t_back - t) <= 1e-8 * max(1.0, abs(t)), t
                count += 1
        assert count == 50

    def test_residual_promise(self):
        for spec in ALL_SPECS:
            for t in (0.4 - 0.3j, -1.0 - 1.0j, 2.0 - 0.5j):
                z = cs_map(spec, t)
                t_inv = invert_cs_map(spec, z)
                assert abs(cs_map(spec, t_inv) - z) \
                    <= 1e-10 * max(1.0, abs(z))

    def test_near_far_corner(self):
        # close to the image of t=infinity the parameter is huge and the
        # derivative nearly flat; the inversion must still land
        z = 0.48 + 0.5j
        t = invert_cs_map(SQUARE_CELL, z)
        assert abs(cs_map(SQUARE_CELL, t) - z) <= 1e-10
        assert abs(t) > 50.0


class TestTriangleToSquare:
    def test_fixes_both_normalization_points(self):
        assert abs(triangle_to_square(0j)) <= 1e-12
        assert abs(triangle_to_square(1.0 + 0j) - 1.0) <= 1e-10

    def test_real_segment_increasing(self):
        values = [triangle_to_square(x / 10.0) for x in range(1, 10)]
        for v in values:
            assert abs(v.imag) <= 1e-9
            assert 0.0 < v.real < 1.0
        reals = [v.real for v in values]
        assert reals == sorted(reals)
        assert len(set(reals)) == len(reals)

    def test_cauchy_riemann_residual(self):
        # five interior points of the triangle 0, 1, 1 - i/sqrt(3)
        points = (0.6 - 0.1j, 0.7 - 0.2j, 0.8 - 0.1j,
                  0.5 - 0.05j, 0.85 - 0.3j)
        h = 1e-5
        for z in points:
            dx = (triangle_to_square(z + h)
                  - triangle_to_square(z - h)) / (2.0 * h)
            dy = (triangle_to_square(z + 1j * h)
                  - triangle_to_square(z - 1j * h)) / (2.0 * h)
            residual = abs(dy - 1j * dx)
            assert residual <= 1e-6 * max(1.0, abs(dx)), z

    def test_outside_triangle_rejected(self):
        with pytest.raises(OutsideImageError):
            triangle_to_square(0.5 + 0.5j)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_NON_FINITE_FLOAT = st.sampled_from((math.inf, -math.inf, math.nan))
NON_FINITE = st.one_of(
    _NON_FINITE_FLOAT,
    st.builds(complex, _NON_FINITE_FLOAT, _ANY_FLOAT),
    st.builds(complex, _ANY_FLOAT, _NON_FINITE_FLOAT))
CALL_LIMIT_S = 0.5


class TestNonFiniteInput:
    @pytest.mark.parametrize("t", [complex(0.0, math.inf), -math.inf,
                                   math.nan, complex(0.5, math.nan)])
    def test_forward_map_rejects_promptly(self, t):
        for spec in ALL_SPECS:
            with time_limit(CALL_LIMIT_S):
                with pytest.raises(ValueError, match="not finite"):
                    cs_map(spec, t)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(ALL_SPECS), NON_FINITE)
    def test_t_rejected(self, spec, t):
        with time_limit(CALL_LIMIT_S):
            with pytest.raises(ValueError, match="not finite"):
                incomplete_cs_integral(spec.a, spec.b, t)
            with pytest.raises(ValueError, match="not finite"):
                cs_map(spec, t)
            with pytest.raises(ValueError, match="not finite"):
                cs_map_derivative(spec, t)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(ALL_SPECS), NON_FINITE)
    def test_z_rejected(self, spec, z):
        with time_limit(CALL_LIMIT_S):
            with pytest.raises(ValueError, match="not finite"):
                invert_cs_map(spec, z)
            with pytest.raises(ValueError, match="not finite"):
                triangle_to_square(z)


_FINITE_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((1.7976931348623157e308, -1.7976931348623157e308,
                     1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324,
                     0.0, -0.0, 1.0, 1.0000000000000002)))
FINITE_EXTREME = st.builds(complex, _FINITE_FLOAT, _FINITE_FLOAT)


def _assert_documented_outcome(call, spec, t):
    """A finite value, or one of the documented errors: CutCrossingError,
    NonConvergenceError, or ValueError for a modulus past the float
    range, at a singular point of the derivative or where a power in
    the derivative overflows."""
    try:
        value = call(spec, t)
    except (CutCrossingError, NonConvergenceError):
        return
    except ValueError as exc:
        if "singular" in str(exc):
            assert call is cs_map_derivative and t in (0, 1)
        elif "overflows the float range" in str(exc):
            assert call is cs_map_derivative
        else:
            assert "modulus beyond the float range" in str(exc)
            assert math.isinf(math.hypot(t.real, t.imag))
        return
    assert cmath.isfinite(value)


# a tiny exponent next to its prevertex takes t^(a-1) or (1-t)^(b-1)
# past the float range
TINY_EXPONENT_SPECS = (CsMapSpec(1e-15, 0.5, 1.0), CsMapSpec(0.5, 1e-15, 1.0))


class TestFiniteExtremeInput:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.sampled_from(ALL_SPECS + TINY_EXPONENT_SPECS), FINITE_EXTREME)
    def test_documented_outcome_in_bounded_time(self, spec, t):
        with time_limit(CALL_LIMIT_S):
            _assert_documented_outcome(cs_map, spec, t)
        with time_limit(CALL_LIMIT_S):
            _assert_documented_outcome(cs_map_derivative, spec, t)

    @pytest.mark.parametrize("spec", ALL_SPECS + TINY_EXPONENT_SPECS,
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("t", [1e300 - 1e-300j, 1e308 - 1e-300j,
                                   1.7976931348623157e308 - 5e-324j,
                                   -1e308 - 1e-300j, 1e308 - 1e308j])
    def test_far_lower_half_plane_reaches_far_corner(self, spec, t):
        # cmath.phase overflowed on the first of these, and |t|^2
        # overflowed in the distance to the branch point; past |t| =
        # 2^1023 the ladder weight s^(a-1) overflowed for a tiny a
        with time_limit(CALL_LIMIT_S):
            value = cs_map(spec, t)
        assert abs(value - image_triangle(spec)[2]) <= 1e-6

    @pytest.mark.parametrize("call", [
        lambda t: cs_map(SQUARE_CELL, t),
        lambda t: incomplete_cs_integral(0.25, 0.25, t),
        lambda t: cs_map_derivative(SQUARE_CELL, t),
        lambda t: invert_cs_map(SQUARE_CELL, t),
        triangle_to_square,
    ], ids=["cs_map", "incomplete_cs_integral", "cs_map_derivative",
            "invert_cs_map", "triangle_to_square"])
    @pytest.mark.parametrize("t", ["1", "0.5-0.1j", b"1"],
                             ids=["str", "complex_str", "bytes"])
    def test_text_rejected(self, call, t):
        # complex() would parse a str: cs_map(SQUARE_CELL, "1") gave 1j
        with pytest.raises(TypeError, match="must be a number, not "
                                            f"{type(t).__name__}$"):
            call(t)

    @pytest.mark.parametrize("spec, t", [
        (TINY_EXPONENT_SPECS[0], 1e-310), (TINY_EXPONENT_SPECS[0], -5e-324j),
        (TINY_EXPONENT_SPECS[1], 1 - 1e-310j)])
    def test_derivative_overflow_is_a_value_error(self, spec, t):
        with pytest.raises(ValueError, match="overflows the float range"):
            cs_map_derivative(spec, t)
        assert cmath.isfinite(cs_map(spec, t))

    def test_modulus_past_float_range_rejected(self):
        t = complex(-1.7976931348623157e308, -1.7976931348623157e308)
        for fn in (cs_map, cs_map_derivative):
            with pytest.raises(ValueError, match="beyond the float range"):
                fn(SQUARE_CELL, t)


_SIGNED_ZERO = st.sampled_from((0.0, -0.0))
# moduli 1e-300..1e300 at any angle, and both axes with signed zeros
ARG_POINTS = st.one_of(
    st.builds(cmath.rect, st.floats(-300, 300).map(lambda e: 10.0 ** e),
              st.floats(-math.pi, math.pi)),
    st.builds(complex, _FINITE_FLOAT, _SIGNED_ZERO),
    st.builds(complex, _SIGNED_ZERO, _FINITE_FLOAT),
    FINITE_EXTREME)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ARG_POINTS)
def test_arg_lower_is_the_phase_expression(t):
    """math.atan2 gives cmath.phase's double, signed zeros included,
    wherever cmath.phase returns."""
    try:
        expected = (-math.pi if t.imag == 0.0 and t.real < 0.0
                    else cmath.phase(t))
    except OverflowError:
        expected = None
    got = csmap_module._arg_lower(t)
    if expected is not None:
        assert got.hex() == expected.hex()


class TestInversionStaysInLowerHalfPlane:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(ALL_SPECS), st.floats(0.0, 1.0),
           st.sampled_from((0.0, 1e-12, 1e-9, 1e-6)))
    def test_edge_from_zero_to_one(self, spec, u, inward):
        # points on (or just inside) the image of the real segment
        # [0, 1], where Newton iterates may cross into Im t > 0
        p0, p1, p2 = image_triangle(spec)
        z = p0 + u * (p1 - p0)
        z += inward * (p2 - z)
        try:
            t = invert_cs_map(spec, z)
        except NonConvergenceError:
            return
        assert t.imag <= 0.0
        assert abs(cs_map(spec, t) - z) <= 1e-10 * max(1.0, abs(z))


class TestBoundedCaches:
    def test_every_cache_is_finite(self):
        for fn in (csmap_module._node_pair, csmap_module._beta_cached):
            assert fn.cache_info().maxsize is not None

    def test_quadrature_rule_caches_stay_bounded(self):
        fn = csmap_module._node_pair
        cap = fn.cache_info().maxsize
        for n in range(2, cap + 12):
            fn(n, 0.5)
        assert fn.cache_info().currsize == cap

    def test_beta_cache_stays_bounded(self):
        cap = csmap_module._beta_cached.cache_info().maxsize
        for i in range(cap + 10):
            complete_beta(0.5, (i + 1) / (cap + 11))
        assert csmap_module._beta_cached.cache_info().currsize == cap


def _toward_centroid(tri, i):
    """Unit vector from corner i of the image triangle to its centroid."""
    d = sum(tri) / 3.0 - tri[i]
    return d / abs(d)


@st.composite
def near_corner_t(draw):
    """t in the closed lower half-plane with |t| in [1e-4, 0.3] or
    |1 - t| in [1e-3, 0.3]."""
    theta = draw(st.floats(0.0, math.pi))
    if draw(st.booleans()):
        return draw(st.floats(1e-4, 0.3)) * cmath.exp(-1j * theta)
    return 1.0 - draw(st.floats(1e-3, 0.3)) * cmath.exp(1j * theta)


def counting_evaluations(monkeypatch) -> list:
    """The arguments of every evaluation of the map from now on: each
    cs_map call and each Newton iterate runs the kernel _integral once."""
    calls = []
    integral = csmap_module._integral

    def counting(*args):
        calls.append(args)
        return integral(*args)

    monkeypatch.setattr(csmap_module, "_integral", counting)
    return calls


class TestNewtonSeedsAndStalls:
    @pytest.mark.parametrize("spec, z", [
        (TRIANGLE_COORD, 0.39423 - 0.20921j),
        (SQUARE_CELL, 0.13586 + 0.859925j),
        (SQUARE_CELL, 0.135402 + 0.135402j),
    ], ids=["triangle_coord", "square_cell_upper", "square_cell_lower"])
    def test_points_far_from_the_seed_grid_invert(self, spec, z):
        # their preimages lie within 0.03 of t = 0 or t = 1 although z
        # is 0.19 to 0.45 from that corner's image; the corner expansion
        # seeds them within 4e-7, where Newton from farther out diverged
        t = invert_cs_map(spec, z)
        assert t.imag <= 0.0
        assert abs(cs_map(spec, t) - z) <= 1e-10 * max(1.0, abs(z))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(ALL_SPECS), near_corner_t())
    def test_round_trip_near_corners(self, spec, t):
        z = cs_map(spec, t)
        with time_limit(2.0):
            t_back = invert_cs_map(spec, z)
        assert abs(cs_map(spec, t_back) - z) <= 1e-10 * max(1.0, abs(z))

    def test_unreachable_promise_fails_promptly(self, monkeypatch):
        # next to the image of t = 1 the solution is 1 - d with |Re d|
        # below one ulp of 1, so no double t meets the promise (on the
        # bisector d is imaginary and exact, hence the centroid direction)
        tri = image_triangle(SQUARE_CELL)
        z = tri[1] + 1e-6 * _toward_centroid(tri, 1)
        calls = counting_evaluations(monkeypatch)
        with pytest.raises(NonConvergenceError,
                           match=r"^Newton iteration for .* stalled at "
                                 r"residual \d\.\d\de[-+]\d\d$") as info:
            invert_cs_map(SQUARE_CELL, z)
        assert len(calls) <= 20
        assert info.value.stage == "newton"
        assert info.value.evaluations == len(calls)
        assert 1e-10 < info.value.best_residual <= 1e-4

    def test_cold_inversion_evaluates_only_newton_iterates(
            self, monkeypatch):
        # a spec never seen before costs no precomputed values: every
        # evaluation of the map is one Newton iterate
        spec = CsMapSpec(0.3, 0.4, cmath.exp(0.7j), "cold")
        z = cs_map(spec, 0.4 - 0.6j)
        calls = counting_evaluations(monkeypatch)
        t = invert_cs_map(spec, z)
        # counted before the check, whose cs_map call runs the kernel too
        assert 1 <= len(calls) <= csmap_module._MAX_ITERATIONS
        assert abs(cs_map(spec, t) - z) <= 1e-10

    def test_quadrature_failure_carries_its_stage(self):
        # two nodes per panel are far too few for the fixed ladder
        cfg = QuadratureConfig(node_count=2)
        with pytest.raises(NonConvergenceError,
                           match=r"^estimated relative error \d\.\d\de-\d\d "
                                 r"of the quadrature at node_count 2 "
                                 r"exceeds 1e-12$") as info:
            cs_map(SQUARE_CELL, 0.5 - 0.5j, cfg)
        assert info.value.stage == "quadrature"
        assert info.value.evaluations == 1
        assert info.value.best_residual > 1e-12


def _corner_variable(spec, kind):
    """The variable w of _newton_step's branch ``kind`` ("u" at 0, "v"
    at 1, "q" at infinity) as the pair (w of t, t of w), both with
    principal powers and logs."""
    a, b = spec.a, spec.b
    c = a + b - 1.0
    if kind == "u":
        return (lambda t: t ** a), (lambda u: u ** (1.0 / a))
    if kind == "v":
        return (lambda t: (1.0 - t) ** b), (lambda v: 1.0 - v ** (1.0 / b))
    return ((lambda t: cmath.exp(c * cmath.log(t))),
            (lambda q: cmath.exp(cmath.log(q) / c)))


_ANGLES = (0.4, 1.6, 2.8)
#: points t of the lower half-plane next to each prevertex, and ("t")
#: between them
_REGION_POINTS = {
    "u": [cmath.rect(0.1, -theta) for theta in _ANGLES],
    "v": [1.0 - cmath.rect(0.1, theta) for theta in _ANGLES],
    "q": [cmath.rect(5.0, -theta) for theta in _ANGLES],
    "t": [0.5 - 0.5j, 1.6 - 0.8j, -0.9 - 0.4j],
}
#: points between the prevertices, each with the variable that
#: _newton_step's rule picks there: the nearer finite prevertex while
#: min(|t|, |1-t|) <= 1, infinity beyond
_BETWEEN = [("u", 0.3 - 0.7j), ("u", 0.45 - 0.3j), ("u", -0.4 - 0.6j),
            ("v", 0.6 - 0.9j), ("v", 1.4 - 0.5j), ("v", 0.55 - 0.2j),
            ("q", 0.5 - 1.5j), ("q", -1.0 - 1.0j), ("q", 2.2 - 0.3j)]


class TestHalleyCurvature:
    """The closed-form curvature k = F''/F' that _newton_step corrects
    each step with, in each of its three variables, against central
    differences of the map written in that variable, next to each
    prevertex and between them, where the branch rule picks the
    variable: a wrong k or a wrong pick fails here instead of only
    slowing Newton back to its quadratic rate."""

    @pytest.mark.parametrize("kind", ["u", "v", "q", "between"])
    @pytest.mark.parametrize("spec", ALL_SPECS + (
        CsMapSpec(0.3, 0.45, cmath.exp(0.7j), "custom"),),
        ids=lambda spec: spec.name)
    def test_curvature_matches_differences(self, spec, kind, monkeypatch):
        points = _BETWEEN if kind == "between" else [
            (kind, t) for t in _REGION_POINTS[kind]]
        beta_ab = complete_beta(spec.a, spec.b)
        halley, seen = csmap_module._halley, []

        def recording(rho, k):
            seen.append(k)
            return halley(rho, k)

        monkeypatch.setattr(csmap_module, "_halley", recording)
        h = 1e-4
        for variable, t in points:
            w_of, t_of = _corner_variable(spec, variable)
            csmap_module._newton_step(spec, t, 1e-9, beta_ab)
            w = w_of(t)
            assert abs(t_of(w) - t) <= 1e-12

            def slope(w):
                return fd_derivative(lambda x: cs_map(spec, t_of(x)), w, h)

            k = fd_derivative(slope, w, h) / slope(w)
            assert abs(seen[-1] - k) <= 1e-5 * max(1.0, abs(k)), t
        assert len(seen) == len(points)


class TestTaylorModel:
    """The quintic model that _newton_step refines each step on, F(t+g)
    - F(t) = F'(t) * sum_{j<5} c_j g^(j+1)/(j+1), against differences of
    the map at t next to each prevertex and between them: the remainder
    is the series' next term, of order |F'(t)| r |g/r|^6 for r =
    min(|t|, |1-t|), so a wrong coefficient c_j, whose error grows like
    |g/r|^(j+1), fails here instead of only costing an evaluation.
    Below |g| of about 10^-2.5 r the remainder drops under the rounding
    of the map, about 3e-16 at these points, which the floor covers."""

    @pytest.mark.parametrize("kind", ["u", "v", "q", "t"])
    @pytest.mark.parametrize("spec", ALL_SPECS + (
        CsMapSpec(0.3, 0.45, cmath.exp(0.7j), "custom"),),
        ids=lambda spec: spec.name)
    def test_model_matches_differences(self, spec, kind):
        for t in _REGION_POINTS[kind]:
            r = min(abs(t), abs(1.0 - t))
            slope, value = cs_map_derivative(spec, t), cs_map(spec, t)
            floor = 1e-15 * max(1.0, abs(value))
            for size in (1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4):
                for angle in (0.3, 1.9, 3.5, 5.1):
                    g = cmath.rect(size * r, angle)
                    model = csmap_module._taylor_model(spec.a, spec.b, t, g)
                    error = abs(cs_map(spec, t + g) - value - slope * model[0])
                    assert error <= abs(slope) * r * size ** 6 + floor, \
                        (t, g)

    def test_derivative_is_the_model_slope(self):
        # M'(g) = sum c_j g^j against a central difference of M(g)
        a, b, t, h = 0.3, 0.45, 0.5 - 0.5j, 1e-5
        for g in (0.01 + 0.02j, -0.03j, 0.02 - 0.01j):
            value, slope = csmap_module._taylor_model(a, b, t, g)
            diff = fd_derivative(
                lambda x: csmap_module._taylor_model(a, b, t, x)[0], g, h)
            assert abs(slope - diff) <= 1e-8


def _interior_grid(tri, size):
    """size^2 points strictly inside the triangle tri: the lattice
    ((i + 1/3)/size, (j + 1/3)/size) of barycentric offsets, folded
    back across the far edge where their sum exceeds 1."""
    out = []
    for i in range(size):
        for j in range(size):
            u, v = (i + 1.0 / 3.0) / size, (j + 1.0 / 3.0) / size
            if u + v > 1.0:
                u, v = 1.0 - u, 1.0 - v
            out.append(tri[0] + u * (tri[1] - tri[0]) + v * (tri[2] - tri[0]))
    return out


def test_interior_points_invert_in_few_evaluations(monkeypatch):
    """Each evaluation buys a sixth-order step: over a 10x10 grid of
    interior points of each named spec, Halley-corrected steps refined
    on the Taylor model take 2.11 evaluations of the map per inversion,
    Halley's steps alone 2.61 and plain Newton steps 3.23.  The bound
    leaves 0.19 per inversion (56 evaluations) of margin."""
    points = [(spec, z) for spec in ALL_SPECS
              for z in _interior_grid(image_triangle(spec), 10)]
    calls = counting_evaluations(monkeypatch)
    results = [invert_cs_map(spec, z) for spec, z in points]
    assert len(calls) <= 2.3 * len(points)
    monkeypatch.undo()
    for (spec, z), t in zip(points, results):
        assert abs(cs_map(spec, t) - z) <= 1e-10 * max(1.0, abs(z))


class TestNewtonExits:
    """The ways one Newton run ends without meeting its target."""

    def test_t_past_the_float_range_ends_the_run(self, monkeypatch):
        # with a + b next to 1, t (1 + w)^(1/(a+b-1)) from the relative
        # step w in the variable q at infinity leaves the float range for
        # a small w: its exponential overflows inside the step and the
        # run stops there
        spec = CsMapSpec(0.25, 0.75 - 1e-6, 1.0)
        z = 0.5 * image_triangle(spec)[2] + 0.25
        newton_step, calls, raised = csmap_module._newton_step, [], []

        def recording_step(*args):
            calls.append(args)
            try:
                return newton_step(*args)
            except Exception as error:
                raised.append(error)
                raise

        monkeypatch.setattr(csmap_module, "_newton_step", recording_step)
        with pytest.raises(NonConvergenceError, match="stalled") as info:
            invert_cs_map(spec, z)
        # the second step, the run's last, is the one that overflowed
        assert len(raised) == 1
        assert isinstance(raised[0], OverflowError)
        assert "math range error" in str(raised[0])
        assert info.value.stage == "newton"
        assert info.value.evaluations == len(calls) == 2

    def test_overflowing_step_ends_the_run(self):
        # the step at the corner t = 0 raises t^a's update to the power
        # 1/a = 33, past the float range; it once escaped as OverflowError
        spec = CsMapSpec(0.03, 1.0 - 0.03 - 1e-13, 1.0)
        z = 0.5 * image_triangle(spec)[2]
        with pytest.raises(NonConvergenceError, match="stalled") as info:
            invert_cs_map(spec, z)
        assert info.value.stage == "newton"

    def test_map_error_mid_run_ends_it(self, monkeypatch):
        # each iterate is finite and kept off the cut (1, inf), so the
        # map does not raise inside a run; should it, the run ends with
        # its best residual so far
        tri = image_triangle(SQUARE_CELL)
        z = sum(tri) / 3.0
        calls = []
        integral = csmap_module._integral

        def failing_second_call(a, b, t, n):
            calls.append(t)
            if len(calls) == 2:
                raise CutCrossingError(f"t = {t} on the cut")
            return integral(a, b, t, n)

        monkeypatch.setattr(csmap_module, "_integral", failing_second_call)
        with pytest.raises(NonConvergenceError, match="stalled") as info:
            invert_cs_map(SQUARE_CELL, z)
        assert info.value.evaluations == 2
        assert info.value.best_residual == abs(cs_map(SQUARE_CELL, calls[0])
                                               - z)

    @pytest.mark.parametrize("a, b, z, best", [
        (0.6150469590365196, 0.07210821000725263,
         0.9349304993314776 - 0.007046221015891797j, 3.536420990392e-4),
        (0.7226554195439228, 0.05818291400700373,
         0.9872844821796686 - 0.0002216972290328284j, 1.258306843226e-3),
        (0.17346361691172446, 0.05944179990785985,
         0.9641195628959909 - 0.0040954036984085j, 7.419676028153e-4),
    ])
    def test_run_far_from_its_answer_stalls_promptly(self, a, b, z, best):
        # a run stuck far above the promise ends once three evaluations
        # in a row have not halved its residual, with the best residual
        # it reached, instead of spending all _MAX_ITERATIONS
        with pytest.raises(NonConvergenceError, match="stalled") as info:
            invert_cs_map(CsMapSpec(a, b, 1), z)
        assert info.value.evaluations <= 5
        assert info.value.best_residual == pytest.approx(best, rel=1e-9)

    def test_no_finite_corner_seed(self):
        # every expansion overflows far outside the image triangle, where
        # invert_cs_map rejects z before seeding, so the seed is asked
        # directly
        tri = image_triangle(SQUARE_CELL)
        with pytest.raises(NonConvergenceError,
                           match="^no corner of the image gives a finite "
                                 "seed for") as info:
            csmap_module._corner_seed(SQUARE_CELL, 1e300 + 1e300j, tri,
                                      complete_beta(0.25, 0.25))
        assert info.value.evaluations == 0


# The quadrature panels are fixed and Newton runs from one seed; these
# two properties are what that rests on.
EXPONENT = st.floats(MIN_EXPONENT, 1.0, exclude_max=True)


@st.composite
def log_uniform_t(draw):
    """t with |t| log-uniform in [1e-300, 1e300] at an angle in the
    closed lower half-plane, some within 1e-300 to 1e-1 of either real
    half-axis, or t within 1e-15 to 1e-1 of 1."""
    kind = draw(st.sampled_from(("angle", "near_axis", "near_one")))
    if kind == "near_one":
        r = 10.0 ** draw(st.floats(-15.0, -1.0))
        return 1.0 + r * cmath.exp(-1j * draw(st.floats(0.0, math.pi)))
    r = 10.0 ** draw(st.floats(-300.0, 300.0))
    if kind == "angle":
        theta = draw(st.floats(0.0, math.pi))
    else:
        eps = 10.0 ** draw(st.floats(-300.0, -1.0))
        theta = draw(st.sampled_from((eps, math.pi - eps)))
    return r * cmath.exp(-1j * theta)


@st.composite
def closed_triangle_point(draw, specs=st.sampled_from(ALL_SPECS)):
    """A spec and a z in or next to its closed image triangle: an
    interior point, a point on an edge (corners included) or 1e-12 to
    1e-6 of the diameter to either side of it, or a point 1e-14 to 0.3
    of the diameter from a corner."""
    spec = draw(specs)
    tri = image_triangle(spec)
    diam = max(abs(p - q) for p in tri for q in tri)
    kind = draw(st.sampled_from(("interior", "edge", "corner")))
    u = draw(st.floats(0.0, 1.0))
    i = draw(st.integers(0, 2))
    if kind == "interior":
        v = draw(st.floats(0.0, 1.0))
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        return spec, tri[0] + u * (tri[1] - tri[0]) + v * (tri[2] - tri[0])
    if kind == "edge":
        z = tri[i] + u * (tri[(i + 1) % 3] - tri[i])
        inward = sum(tri) / 3.0 - z
        side = draw(st.sampled_from((-1.0, 0.0, 1.0)))
        offset = side * 10.0 ** draw(st.floats(-12.0, -6.0))
        return spec, z + offset * diam * inward / abs(inward)
    d = (u * (tri[(i + 1) % 3] - tri[i])
         + (1.0 - u) * (tri[(i + 2) % 3] - tri[i]))
    r = 10.0 ** draw(st.floats(-14.0, math.log10(0.3)))
    return spec, tri[i] + r * diam * d / abs(d)


@st.composite
def custom_spec(draw):
    """A spec with a and b log-uniform in [1e-8, 1) and a + b < 1."""
    exponent = st.floats(-8.0, 0.0, exclude_max=True).map(lambda x: 10.0 ** x)
    a = draw(exponent)
    b = draw(exponent.filter(lambda b: a + b < 1.0))
    return CsMapSpec(a, b, 1.0)


# exponents log-uniform down to MIN_EXPONENT, and both ends of the range
SMALL_EXPONENT = st.one_of(st.sampled_from((MIN_EXPONENT, 1.0)),
                           st.floats(-15.0, 0.0).map(lambda x: 10.0 ** x))


@st.composite
def ladder_t(draw):
    """t in the open lower half-plane with |t| log-uniform in [1.5,
    1e300], t within 1e-15 to 1e-1 of 1, or t on the negative axis (the
    lower-half-plane limit) with |t| log-uniform in [1e-300, 1e300]."""
    kind = draw(st.sampled_from(("far", "near_one", "negative")))
    if kind == "far":
        r = 10.0 ** draw(st.floats(math.log10(1.5), 300.0))
        return cmath.rect(r, -draw(st.floats(1e-9, math.pi - 1e-9)))
    if kind == "near_one":
        r = 10.0 ** draw(st.floats(-15.0, -1.0))
        return 1.0 + cmath.rect(r, -draw(st.floats(0.0, math.pi)))
    return complex(-(10.0 ** draw(st.floats(-300.0, 300.0))), -0.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(SMALL_EXPONENT, SMALL_EXPONENT, ladder_t())
# reflected to a = 1, b = 1e-15, where the oracle needs extended precision
@example(1e-15, 1.0, 4.848290980780888e+271 - 4.558636005377481e+270j)
def test_real_panels_match_the_complex_power(a, b, t):
    """The real-arithmetic integrand of the panel ladder against numpy's
    complex power on the same nodes and weights (oracles), for the
    arguments incomplete_cs_integral passes on: within 1e-14 relative,
    about 50 ulps, where a wrong branch or formula is off by O(1)."""
    if csmap_module._segment_distance_to_one(t) < csmap_module._NEAR_ONE:
        a, b, t = b, a, 1.0 - t
    got = csmap_module._scaled_integral(a, b, t, 48)
    expect = complex_power_scaled_integral(
        a, b, t, csmap_module._node_pair(48, a),
        csmap_module._node_pair(48, 1.0))
    assert abs(got - expect) <= 1e-14 * abs(expect)


def _kernel_outcome(kernel, a, b, t, n):
    """The kernel's value as float.hex strings, or its error and message."""
    try:
        value = kernel(a, b, t, n)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)
    return value.real.hex(), value.imag.hex()


@pytest.mark.parametrize("spec", ALL_SPECS + (
    CsMapSpec(0.4, 0.55, 1.0), CsMapSpec(0.9, 0.05, 1.0)),
    ids=lambda s: f"{s.a:g}-{s.b:g}")
@pytest.mark.parametrize("n", [48, 96])
def test_kernel_matches_its_list_summed_form_bit_for_bit(spec, n):
    """The kernel against its list-summed form (oracles), where the 1e-14
    of the complex-power oracle would let a refactor move the last digits:
    |t| log-uniform in [1e-300, 1e300] at any argument, t = -1 and 0.5,
    and t within 1e-15 to 1e-1 of 1, passed on as _integral does."""
    rng = random.Random(n + int(1000 * spec.a))
    points = [cmath.rect(10.0 ** rng.uniform(-300.0, 300.0),
                         rng.uniform(-math.pi, math.pi)) for _ in range(12)]
    points += [-1.0 + 0j, 0.5 + 0j]
    points += [1.0 + cmath.rect(10.0 ** rng.uniform(-15.0, -1.0),
                                rng.uniform(-math.pi, math.pi))
               for _ in range(6)]
    for t in points:
        a, b = spec.a, spec.b
        if csmap_module._segment_distance_to_one(t) < csmap_module._NEAR_ONE:
            a, b, t = b, a, 1.0 - t
        assert _kernel_outcome(csmap_module._scaled_integral, a, b, t, n) \
            == _kernel_outcome(list_summed_scaled_integral, a, b, t, n), t


class TestFixedLadderAndOneSeed:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(EXPONENT, st.floats(MIN_EXPONENT, 1.0), log_uniform_t(),
           st.sampled_from((48, 96)))
    def test_panel_ladder_meets_its_tolerance(self, a, b, t, node_count):
        # a finite value or, for real t > 1, CutCrossingError; never a
        # missed quadrature tolerance
        spec = CsMapSpec(a, b, 1.0)
        cfg = QuadratureConfig(node_count=node_count)
        # the Gauss rules of new exponents are built outside the limit
        for x in (a, b, 1.0):
            csmap_module._node_pair(node_count, x)
        complete_beta(a, b, cfg)
        with time_limit(CALL_LIMIT_S):
            try:
                value = cs_map(spec, t, cfg)
            except CutCrossingError:
                return
        assert cmath.isfinite(value)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(closed_triangle_point())
    def test_one_newton_run_keeps_its_promise(self, point):
        spec, z = point
        tri = image_triangle(spec)
        diam = max(abs(p - q) for p in tri for q in tri)
        with time_limit(CALL_LIMIT_S):
            try:
                t = invert_cs_map(spec, z)
            except OutsideImageError:
                return
            except NonConvergenceError as exc:
                assert exc.stage == "newton"
                assert exc.best_residual < 1e-4 * diam
                return
        assert t.imag <= 0.0
        assert abs(cs_map(spec, t) - z) <= 1e-10 * max(1.0, abs(z))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(closed_triangle_point(custom_spec()))
    def test_custom_specs_keep_the_promise_or_fail_in_newton(self, point):
        # small exponents push the corner expansions past the float
        # range; that is a failed seed, never an escaped OverflowError
        spec, z = point
        # image_triangle built the Jacobi rules; the Legendre one too
        # is built outside the limit
        csmap_module._node_pair(48, 1.0)
        with time_limit(CALL_LIMIT_S):
            try:
                t = invert_cs_map(spec, z)
            except OutsideImageError:
                return
            except NonConvergenceError as exc:
                assert exc.stage == "newton"
                return
        assert t.imag <= 0.0
        assert abs(cs_map(spec, t) - z) <= 1e-10 * max(1.0, abs(z))
