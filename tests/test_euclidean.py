"""Euclidean solver: inequalities, anchors, vertices, areas, robustness."""

import math

import numpy as np
import pytest

from cyclicpoly import euclidean, polyio
from cyclicpoly.domain import TWO_PI
from cyclicpoly.errors import DomainError, NearDegenerateError, NoPolygonError

from oracles import euclidean_radius_bisect, quadrilateral_radius, strict_lengths


class TestPolygonInequalities:
    def test_strict(self):
        m, margin = euclidean.check_polygon_inequalities([1, 1, 1])
        assert (m, margin) == (0, -1.0)

    def test_equality(self):
        with pytest.raises(NoPolygonError, match="equals the sum") as exc:
            euclidean.check_polygon_inequalities([1, 1, 2])
        assert exc.value.index == 2 and exc.value.equality

    def test_violated(self):
        with pytest.raises(NoPolygonError, match="exceeds the sum of the others by 1:") as exc:
            euclidean.check_polygon_inequalities([1, 1, 3])
        assert exc.value.index == 2 and not exc.value.equality

    def test_at_most_one_offender(self):
        # pigeonhole: with positive lengths only the longest side can offend
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(3, 10))
            l = rng.uniform(0.1, 5.0, n)
            try:
                m, margin = euclidean.check_polygon_inequalities(l)
            except NoPolygonError as exc:
                assert exc.index == int(np.argmax(l))
            else:
                assert m == int(np.argmax(l)) and margin < 0

    def test_input_validation(self):
        with pytest.raises(DomainError):
            euclidean.check_polygon_inequalities([1.0, 2.0])
        with pytest.raises(DomainError):
            euclidean.check_polygon_inequalities([1.0, -2.0, 3.0])
        with pytest.raises(DomainError):
            euclidean.check_polygon_inequalities([1.0, math.inf, 3.0])


class TestSolveAnchors:
    def test_equilateral(self):
        sol = euclidean.solve_euclidean([1, 1, 1])
        assert sol.radius == pytest.approx(3 ** -0.5, abs=1e-12)
        assert np.allclose(sol.angles.values, TWO_PI / 3, atol=1e-12)
        assert sol.center_inside

    def test_thales_345(self):
        sol = euclidean.solve_euclidean([3, 4, 5])
        assert sol.radius == pytest.approx(2.5, abs=1e-12)
        expected = (2 * math.asin(0.6), 2 * math.asin(0.8), math.pi)
        assert np.allclose(sol.angles.values, expected, atol=1e-12)

    def test_unit_square(self):
        sol = euclidean.solve_euclidean([1, 1, 1, 1])
        assert sol.radius == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert np.allclose(sol.angles.values, math.pi / 2, atol=1e-12)

    def test_center_outside_case(self):
        # the dominant side forces its central angle past pi; R = sqrt(10)
        # (solved independently by the pure-bisection oracle)
        sol = euclidean.solve_euclidean([1, 1, 1, 2.9])
        assert not sol.center_inside
        assert sol.angles.values[3] > math.pi
        assert sol.radius == pytest.approx(math.sqrt(10.0), rel=1e-12)
        assert sol.radius == pytest.approx(euclidean_radius_bisect([1, 1, 1, 2.9]), rel=1e-12)

    def test_degenerate_flat_rejected(self):
        with pytest.raises(NoPolygonError) as exc_info:
            euclidean.solve_euclidean([1, 1, 2])
        assert exc_info.value.index == 2
        assert exc_info.value.equality

    def test_impossible_rejected(self):
        with pytest.raises(NoPolygonError) as exc_info:
            euclidean.solve_euclidean([1, 1, 3])
        assert exc_info.value.index == 2
        assert not exc_info.value.equality


class TestVertices:
    def test_equilateral_placement(self):
        v = euclidean.vertices_on_circle(1.0, [TWO_PI / 3] * 3)
        expected = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
        assert np.allclose(v, expected, atol=1e-15)

    def test_square_placement(self):
        v = euclidean.vertices_on_circle(1.0, [math.pi / 2] * 4)
        expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        assert np.allclose(v, expected, atol=1e-15)

    def test_chords_reproduce_345(self):
        sol = euclidean.solve_euclidean([3, 4, 5])
        d = np.roll(sol.vertices, -1, axis=0) - sol.vertices
        assert np.allclose(np.linalg.norm(d, axis=1), [3, 4, 5], atol=1e-10)

    def test_bad_radius(self):
        with pytest.raises(DomainError):
            euclidean.vertices_on_circle(0.0, [TWO_PI / 3] * 3)
        with pytest.raises(DomainError):
            euclidean.vertices_on_circle(-1.0, [TWO_PI / 3] * 3)

    def test_numpy_sin_and_cos_are_math_sin_and_cos(self):
        # vertices_on_circle and spherical.chord_from_arc call numpy's sin and
        # cos where math's would do: a numpy whose values differ in the last
        # bit would change every report
        angles = np.random.default_rng(0).uniform(0.0, TWO_PI, 100_000)
        listed = angles.tolist()
        assert np.sin(angles).tolist() == list(map(math.sin, listed))
        assert np.cos(angles).tolist() == list(map(math.cos, listed))


class TestArea:
    def test_unit_square(self):
        v = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert euclidean.polygon_area(v) == pytest.approx(1.0, abs=1e-15)

    def test_right_triangle(self):
        sol = euclidean.solve_euclidean([3, 4, 5])
        assert euclidean.polygon_area(sol.vertices) == pytest.approx(6.0, abs=1e-12)

    def test_brahmagupta_1234(self):
        # cyclic quadrilateral: area^2 = (s-1)(s-2)(s-3)(s-4), s = 5
        sol = euclidean.solve_euclidean([1, 2, 3, 4])
        assert euclidean.polygon_area(sol.vertices) == pytest.approx(
            math.sqrt(24.0), abs=1e-9
        )

    def test_brahmagupta_random_quadrilaterals(self):
        # area^2 = prod_k (s - l_k) with s the half perimeter, for any
        # cyclic quadrilateral
        rng = np.random.default_rng(36)
        for _ in range(100):
            l = strict_lengths(rng, 4, 0.3, 3.0)
            sol = euclidean.solve_euclidean(l)
            area = euclidean.polygon_area(sol.vertices)
            s = 0.5 * math.fsum(l.tolist())
            expected_sq = math.prod(s - x for x in l)
            assert area * area == pytest.approx(expected_sq, rel=1e-9)

    def test_too_few_vertices(self):
        with pytest.raises(DomainError):
            euclidean.polygon_area(np.array([[0.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (2, 2, 2)])
    def test_not_an_n_by_2_array(self, shape):
        with pytest.raises(DomainError, match=r"\(n, 2\) array"):
            euclidean.polygon_area(np.ones(shape))


class TestSolveProperties:
    def test_round_trip(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(3, 33))
            l = strict_lengths(rng, n, 1e-2, 1e2, log_uniform=True)
            sol = euclidean.solve_euclidean(l)
            d = np.roll(sol.vertices, -1, axis=0) - sol.vertices
            rec = np.linalg.norm(d, axis=1)
            assert np.max(np.abs(rec - l) / l) <= 1e-9
            assert abs(math.fsum(sol.angles.values.tolist()) - TWO_PI) <= 1e-11
            assert np.max(np.abs(np.linalg.norm(sol.vertices, axis=1) - sol.radius)) <= (
                1e-10 * sol.radius
            )

    def test_radius_lower_bound(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            l = strict_lengths(rng, n, 0.2, 3.0)
            sol = euclidean.solve_euclidean(l)
            lmax = float(np.max(l))
            assert sol.radius >= 0.5 * lmax * (1 - 1e-12)
            if abs(sol.radius - 0.5 * lmax) <= 1e-12 * sol.radius:
                assert abs(np.max(sol.angles.values) - math.pi) <= 1e-6

    def test_half_angle_sum_strictly_decreasing(self):
        rng = np.random.default_rng(34)
        l = strict_lengths(rng, 6, 0.5, 2.0)
        r0 = 0.5 * float(np.max(l))
        radii = r0 * np.array([1.0, 1.1, 1.5, 2.0, 4.0, 16.0, 256.0])
        sums = [math.fsum(np.arcsin(np.minimum(1.0, l / (2 * r))).tolist()) for r in radii]
        assert all(a > b for a, b in zip(sums, sums[1:]))

    def test_bisection_oracle_agreement(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            l = strict_lengths(rng, n, 0.2, 3.0)
            sol = euclidean.solve_euclidean(l)
            assert sol.radius == pytest.approx(euclidean_radius_bisect(l), rel=1e-10)

    def test_barely_strict_still_solves(self):
        sol = euclidean.solve_euclidean([1.0, 1.0, 1.0, 3.0 - 3e-13])
        assert sol.radius > 1e5  # blows up, but remains finite and consistent
        d = np.roll(sol.vertices, -1, axis=0) - sol.vertices
        rec = np.linalg.norm(d, axis=1)
        assert np.max(np.abs(rec[:3] - 1.0)) <= 1e-9

    def test_long_side_beside_many_short_ones_solves(self):
        # the center is outside by a margin of 1e-5 over 10^5 short sides: the
        # upper bound lies 5e-11 (relative) past the root, and the root is well
        # conditioned
        n, short = 100_000, 1.00001e-5
        sol = euclidean.solve_euclidean([1.0] + [short] * n)
        assert not sol.center_inside

        def f(r):
            return n * math.asin(short / (2.0 * r)) - math.asin(1.0 / (2.0 * r))

        lo, hi = 0.5, 1e3  # f(lo) < 0 < f(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
        assert sol.radius == pytest.approx(lo, rel=1e-10)

    def test_strict_by_one_ulp_solves(self):
        # the longest side is one ulp short of the sum of the others: the
        # defect near the root is the margin over 2R plus cubic tails, whose
        # sign is exact, and R = 47,453,132.81 is Parameshvara's
        lengths = [1.0, 1.0, 1.0, 2.9999999999999996]
        radius = euclidean.solve_euclidean(lengths).radius
        assert abs(radius / quadrilateral_radius(lengths) - 1.0) <= 1e-14

    def test_radius_past_the_float_range_is_near_degenerate(self):
        # strict by one ulp at 1e307: R is about 1.5e7 times the longest side
        with pytest.raises(NearDegenerateError, match="circumradius passes the float range"):
            euclidean.solve_euclidean([1e307, 1e307, 1.9999999999999997e307])


class TestBoundsPastTheRoot:
    """Rounding can take the defect at a closed-form bound past 0 where the
    bound lies within rounding of the root.  A lower bound past the root gives
    way to R0; an upper bound short of it becomes the lower end, below
    far_radius (P/2 inside), as a bound moved past the root shows."""

    @pytest.mark.parametrize("lengths", [[0.9, 0.6, 0.7, 0.5], [0.9, 0.3, 0.3, 0.35]])
    @pytest.mark.parametrize("end, shift", [(0, 1e-6), (1, -1e-6)])
    def test_solves_from_the_fallback_end(self, monkeypatch, lengths, end, shift):
        # the longest side is in [0.5, 1), so the solve runs unscaled
        ref = euclidean.solve_euclidean(lengths)
        bounds = euclidean.radius_bounds

        def moved(lm, rest, center_inside):
            b = list(bounds(lm, rest, center_inside))
            b[end] = ref.radius * (1.0 + shift)
            return tuple(b)

        monkeypatch.setattr(euclidean, "radius_bounds", moved)
        sol = euclidean.solve_euclidean(lengths)
        assert sol.center_inside == ref.center_inside
        assert sol.radius == pytest.approx(euclidean_radius_bisect(lengths), rel=1e-14)


class TestSingularityFreeVariable:
    """The radius is solved in t = sqrt(R - R0), where the half angles have
    no square-root singularity at R0 = l_max / 2."""

    @pytest.mark.parametrize("geometry", ["euclidean", "spherical", "hyperbolic"])
    def test_needle_solves(self, geometry):
        # the root sits within ~1e-17 of R0; asin near 1 used to lose half
        # the digits of the short side's angle
        report = polyio.cli_solve(polyio.parse_request({"geometry": geometry, "lengths": [1e-8, 1, 1]}))
        assert report["diagnostics"]["residuals"]["side_recovery_max_rel_error"] <= 1e-14

    def test_near_semicircle_angles(self):
        # center 2.4e-12 (relative) outside the dominant chord
        lengths = [0.07153032284579745, 0.17433379726023074, 0.19970445219152042,
                   0.23524571411210815, 0.909213773530669, 0.5210908795761939,
                   0.14282016623868107]
        report = polyio.cli_solve(polyio.parse_request({"geometry": "spherical", "lengths": lengths}))
        assert report["diagnostics"]["residuals"]["side_recovery_max_rel_error"] <= 1e-14

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_extreme_scales(self, k):
        # homogeneous of degree 1: an exact power-of-two scale changes no bit
        base = [0.7, 1.3, 1.1, 0.9]
        radius = euclidean.solve_euclidean(base).radius
        scaled = euclidean.solve_euclidean([math.ldexp(x, k) for x in base]).radius
        assert scaled == math.ldexp(radius, k)

    @pytest.mark.parametrize(
        "lengths,index,equality,message",
        [
            ([1, 1, 2], 2, True, "side 2 equals the sum of the others: the polygon "
             "degenerates to a flat (doubly traversed) segment"),
            ([1, 2.5, 1], 1, False, "side 1 exceeds the sum of the others by 0.5: no polygon exists"),
        ],
    )
    def test_refusal_text(self, lengths, index, equality, message):
        with pytest.raises(NoPolygonError) as info:
            euclidean.solve_euclidean(lengths)
        assert str(info.value) == message
        assert info.value.index == index and info.value.equality == equality
