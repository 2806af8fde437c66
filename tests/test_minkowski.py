"""Spacetime solver: reverse inequality, hyperbola construction, phi_ell."""

import math

import numpy as np
import pytest

from cyclicpoly import euclidean, hyperbolic, minkowski
from cyclicpoly.errors import (
    DimensionMismatchError,
    DomainError,
    NearDegenerateError,
    ReverseInequalityError,
)

from oracles import phi_root_bisect


def spacelike_sides(vertices):
    d = np.roll(vertices, -1, axis=0) - vertices
    return np.sqrt(d[:, 0] ** 2 - d[:, 1] ** 2)


def feasible_lengths(rng, n):
    base = rng.uniform(0.5, 2.0, n - 1)
    dom = float(base.sum() * rng.uniform(1.05, 2.0))
    return np.concatenate([base, [dom]])


class TestFeasibility:
    def test_dominant_side(self):
        assert minkowski.check_minkowski_feasibility([1, 1, 3]) == (2, 1.0)

    def test_no_dominant_side(self):
        with pytest.raises(ReverseInequalityError, match="margin -1\\)") as exc:
            minkowski.check_minkowski_feasibility([1, 1, 1])
        assert exc.value.index == 0

    def test_equality_infeasible(self):
        with pytest.raises(ReverseInequalityError, match="margin 0\\)") as exc:
            minkowski.check_minkowski_feasibility([1, 1, 2])
        assert exc.value.index == 2


class TestSolve:
    def test_113_closed_form(self):
        # a_3 = a_1 + a_2 with equal short sides gives R = 1/sqrt(5)
        sol = minkowski.solve_minkowski([1, 1, 3])
        assert sol.radius == pytest.approx(5 ** -0.5, abs=1e-12)
        a = sol.foot_params.values
        assert abs(a[2] - a[0] - a[1]) <= 1e-10
        assert a[0] == a[1]  # symmetry of identical sides
        assert 2 * sol.radius * math.sinh(a[2] / 2) == pytest.approx(3.0, rel=1e-12)

    def test_vertices_on_future_branch(self):
        sol = minkowski.solve_minkowski([1, 1, 3])
        v = sol.vertices
        assert np.all(v[:, 1] > 0)
        rsq = sol.radius ** 2
        assert np.max(np.abs(v[:, 0] ** 2 - v[:, 1] ** 2 + rsq)) <= 1e-10 * rsq
        assert np.allclose(spacelike_sides(v), [1, 1, 3], atol=1e-9)

    def test_scaling(self):
        r1 = minkowski.solve_minkowski([1, 1, 3]).radius
        for c in (0.01, 7.3, 250.0):
            rc = minkowski.solve_minkowski([c, c, 3 * c]).radius
            assert rc == pytest.approx(c * r1, rel=1e-12)

    def test_needle(self):
        eps = 0.05
        sol = minkowski.solve_minkowski([eps, eps, 1.0])
        a = sol.foot_params.values
        assert a[0] == a[1]
        assert abs(a[2] - 2 * a[0]) <= 1e-10
        assert np.allclose(spacelike_sides(sol.vertices), [eps, eps, 1.0], rtol=1e-9)

    def test_extreme_needle_parameters(self):
        # rapidities ~28 put vertex coordinates near 1e6 at radius 1e-6;
        # the defining relations still hold even though raw-coordinate side
        # recovery is beyond binary64 at this aspect ratio
        eps = 1e-3
        sol = minkowski.solve_minkowski([eps, eps, 1.0])
        a = sol.foot_params.values
        assert a[0] == a[1]
        rec = 2 * sol.radius * np.sinh(a / 2)
        assert np.allclose(rec, [eps, eps, 1.0], rtol=1e-9)

    def test_dominant_not_last(self):
        sol = minkowski.solve_minkowski([3, 1, 1])
        assert sol.dominant == 0
        assert np.allclose(spacelike_sides(sol.vertices), [3, 1, 1], atol=1e-9)

    @pytest.mark.parametrize(
        "lengths",
        [[1e308, 2e307, 3e307], [1.7e308, 1e307, 1e307], [1.7e308] + [1e304] * 999],
        ids=["1e308", "1.7e308", "n=1000"],
    )
    def test_radius_past_half_the_float_maximum(self, lengths):
        # the bracket on the radius passes 2**1023, where 2x overflows: the
        # root is found (6.96e306 for the first), and its vertices pass the range
        with pytest.raises(NearDegenerateError, match="vertex coordinates"):
            minkowski.solve_minkowski(lengths)

    def test_radius_past_the_float_range_is_near_degenerate(self):
        # past the threshold by one ulp at 1.6e308: R is about 3e315, and
        # the upper end, euclidean.linear_root, overflows to inf
        lengths = [8e307, 8e307, 1.6000000000000002e308]
        assert math.isinf(euclidean.linear_root(lengths[2], lengths[0] + lengths[1]))
        with pytest.raises(NearDegenerateError, match="radius passes the float range") as exc_info:
            minkowski.solve_minkowski(lengths)
        assert exc_info.value.index == 2

    def test_half_feet_where_2x_overflows(self):
        chords = np.array([2e307, 3e307, 1e308])
        half_max = np.finfo(float).max / 2
        for x in (1.5, 1e300, half_max):  # the quotient c / 2x, bit for bit
            assert np.array_equal(hyperbolic._half_feet(x, chords), np.arcsinh(chords / (2.0 * x)))
        past = np.nextafter(half_max, math.inf)
        assert np.array_equal(hyperbolic._half_feet(past, chords), np.arcsinh(chords / 2.0 / past))
        assert hyperbolic.phi(past, chords) > 0.0

    def test_infeasible(self):
        with pytest.raises(ReverseInequalityError) as exc_info:
            minkowski.solve_minkowski([1, 1, 1])
        assert exc_info.value.index == 0
        with pytest.raises(ReverseInequalityError):
            minkowski.solve_minkowski([1, 1, 2])

    def test_random_suite_invariants(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            l = feasible_lengths(rng, n)
            sol = minkowski.solve_minkowski(l)
            v = sol.vertices
            rsq = sol.radius ** 2
            assert np.all(v[:, 1] > 0)
            assert np.max(np.abs(v[:, 0] ** 2 - v[:, 1] ** 2 + rsq)) <= 1e-10 * rsq
            assert np.max(np.abs(spacelike_sides(v) - l) / l) <= 1e-9
            a = sol.foot_params.values
            assert abs(a[-1] - math.fsum(a[:-1].tolist())) <= 1e-10


class TestSharedCore:
    def test_same_root_as_hypercycle_solver(self):
        # where both domains apply, the spacetime radius and the hypercycle
        # radius are the one zero of the identical defect function, found by
        # the one phi step
        l = [3.0, 3.0, 6.5]
        r_mink = minkowski.solve_minkowski(l).radius
        r_hyp = hyperbolic.solve_hypercycle_radius(l)
        assert r_mink == r_hyp
        assert r_mink == pytest.approx(phi_root_bisect(l, 1.0, 8.0), rel=1e-11)


class TestPhiEll:
    def test_unit_lengths_drop_linear_terms(self):
        from cyclicpoly.specfun import clh2

        a = np.array([0.4, 0.7, 1.1])
        val = minkowski.phi_ell([1, 1, 1], a)
        expected = clh2(0.4) + clh2(0.7) - clh2(1.1)
        assert val == pytest.approx(expected, abs=1e-14)

    def test_direct_summation_oracle(self):
        from cyclicpoly.specfun import clh2

        rng = np.random.default_rng(62)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            l = rng.uniform(0.5, 3.0, n)
            a = rng.uniform(0.1, 2.0, n)
            direct = math.fsum(
                clh2(float(ak)) + math.log(lk) * float(ak) for ak, lk in zip(a[:-1], l[:-1])
            ) - (clh2(float(a[-1])) + math.log(l[-1]) * float(a[-1]))
            assert minkowski.phi_ell(l, a) == pytest.approx(direct, abs=1e-12)

    def test_solution_is_constrained_critical_point(self):
        # at the solved polygon, -log|2 sinh(a_k/2)| + log(l_k) is the same
        # constant log(R) for every k
        rng = np.random.default_rng(63)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            l = feasible_lengths(rng, n)
            sol = minkowski.solve_minkowski(l)
            lam = -np.log(2 * np.sinh(sol.foot_params.values / 2)) + np.log(l)
            assert lam.max() - lam.min() <= 1e-9
            assert lam[0] == pytest.approx(math.log(sol.radius), abs=1e-9)

    def test_neither_concave_nor_convex(self):
        # two constraint-respecting directions with opposite-sign second
        # differences at the same point
        l = np.array([1.0, 1.0, 3.0])
        a = minkowski.solve_minkowski(l).foot_params.values
        h = 1e-3

        def second_diff(v):
            return (
                minkowski.phi_ell(l, a + h * v)
                - 2 * minkowski.phi_ell(l, a)
                + minkowski.phi_ell(l, a - h * v)
            )

        concave_dir = np.array([1.0, -1.0, 0.0])  # v_n = sum of the others
        convex_dir = np.array([1.0, 1.0, 2.0])
        assert second_diff(concave_dir) < 0
        assert second_diff(convex_dir) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            minkowski.phi_ell([1, 1, 3], [0.5, 0.5])
        with pytest.raises(DomainError):
            minkowski.phi_ell([1, 1, 3], [0.5, 0.5, math.nan])
