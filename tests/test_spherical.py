"""Spherical solver: chord map, feasibility, lifting, round trips."""

import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

from cyclicpoly import euclidean, polyio, spherical
from cyclicpoly.domain import TWO_PI
from cyclicpoly.errors import DomainError, NearDegenerateError, NoPolygonError, PerimeterError

def feasible_spherical(rng, n):
    """Random sides with strict polygon inequalities and perimeter < 2*pi."""
    while True:
        l = rng.uniform(0.1, 1.0, n)
        l *= rng.uniform(1.0, TWO_PI - 0.2) / l.sum()
        m = int(np.argmax(l))
        if l[m] < math.fsum(np.delete(l, m).tolist()):
            return l


def math_chords(lengths):
    """2 sin(l/2) of each side by math.sin: the chords the solver works with."""
    return [2.0 * math.sin(0.5 * x) for x in lengths]


class TestChordFromArc:
    # the map takes a whole side vector; each chord is math.sin's, bit for bit
    def test_half_turn(self):
        chords = spherical.chord_from_arc([math.pi] * 3)
        assert chords.tolist() == math_chords([math.pi] * 3)
        assert chords == pytest.approx([2.0] * 3, abs=1e-15)

    def test_quarter_turn(self):
        lengths = [math.pi / 2, 1.0, 0.25]
        chords = spherical.chord_from_arc(lengths)
        assert chords.tolist() == math_chords(lengths)
        assert chords[0] == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_inverse_pair(self):
        lengths = [2 * math.asin(0.3), 2 * math.asin(0.6), 2 * math.asin(0.9)]
        chords = spherical.chord_from_arc(lengths)
        assert chords.tolist() == math_chords(lengths)
        assert chords == pytest.approx([0.6, 1.2, 1.8], abs=1e-15)

    def test_domain(self):
        for bad in (0.0, -1.0, TWO_PI, 7.0, math.nan):
            with pytest.raises(DomainError):
                spherical.chord_from_arc([1.0, bad, 1.0])

    def test_first_chord_that_rounds_to_0(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in (spherical.chord_from_arc, spherical.solve_spherical):
                with pytest.raises(NearDegenerateError, match="^arc length 5e-324 is too short"):
                    call([1.0, 5e-324, 1.0, 1.0, 1e-300])

    def test_each_side_is_mapped_once(self, monkeypatch):
        # one map call per request, solver and report together
        calls = []
        chord = spherical.chord_from_arc

        def counting_chord(sides):
            calls.append(sides)
            return chord(sides)

        monkeypatch.setattr(spherical, "chord_from_arc", counting_chord)
        lengths = [1.0, 0.5, 1.5, 0.75]
        rep = polyio.cli_solve(polyio.parse_request({"geometry": "spherical", "lengths": lengths}))
        assert len(calls) == 1 and rep["status"] == "ok"
        assert spherical.solve_spherical(lengths).chords.tolist() == math_chords(lengths)


class TestFeasibility:
    def test_octant_feasible(self):
        m, margin = spherical.check_spherical_feasibility([math.pi / 2] * 3)
        assert m == 0 and margin == -math.pi / 2

    def test_perimeter_bound(self):
        with pytest.raises(PerimeterError, match="perimeter 7 is not") as exc:
            spherical.check_spherical_feasibility([1, 1, 1, 4])
        assert exc.value.index is None

    def test_polygon_inequality(self):
        # the Euclidean check's refusal, message included
        with pytest.raises(NoPolygonError, match="exceeds the sum of the others by 0.3:") as exc:
            spherical.check_spherical_feasibility([0.1, 0.1, 0.5])
        assert exc.value.index == 2 and not exc.value.equality
        with pytest.raises(NoPolygonError, match="equals the sum") as exc:
            spherical.check_spherical_feasibility([0.5, 0.5, 1.0])
        assert exc.value.index == 2 and exc.value.equality

    def test_great_circle_boundary_rejected(self):
        # a perimeter at or past 2*pi degenerates to a great circle; [pi/2] * 4
        # sums exactly to 2*pi - 2.4e-16, so one side is two ulps longer
        lengths = [math.pi / 2] * 3 + [math.pi / 2 + 2 * math.ulp(math.pi / 2)]
        for check in (spherical.check_spherical_feasibility, spherical.solve_spherical):
            with pytest.raises(PerimeterError, match="great circle"):
                check(lengths)


T = 2.0943951023931953  # 2*pi/3 rounded down: [T] * 3 sums exactly to 2*pi - 6.9e-16


class TestExactPerimeter:
    # existence is decided on the exact sum of the sides, not within a tolerance of 2*pi
    @pytest.mark.parametrize(
        "lengths, rbar",
        [
            ([T, T, 2.094395102393], 0.9999999999999811),
            ([T, T, 2.0943951023931], None),
            ([3.0, 3.0, 0.283185307179], None),
            ([math.pi / 2] * 4, 0.9999999999999999),
        ],
    )
    def test_perimeter_just_below_two_pi_solves(self, lengths, rbar):
        for command in (polyio.cli_solve, polyio.cli_verify):
            rep = command(polyio.parse_request({"geometry": "spherical", "lengths": lengths}))
            assert rep["status"] == "ok"
            assert rep["solution"]["chordal_radius"] < 1.0
            if rbar is not None:
                assert rep["solution"]["chordal_radius"] == rbar

    @pytest.mark.parametrize("lengths", [[T, T, T], [T, T, math.nextafter(T, math.inf)]])
    def test_chordal_radius_rounding_to_one_is_near_degenerate(self, lengths):
        spherical.check_spherical_feasibility(lengths)  # the polygon exists
        with pytest.raises(NearDegenerateError, match="chordal circumradius 1.0 is not below 1"):
            spherical.solve_spherical(lengths)

    def test_boundary_falls_between_adjacent_floats(self):
        # [h] * 3 with h = pi/2 rounded sums exactly to 2*pi - (h + 2.4e-16): a
        # fourth side of h + 1 ulp leaves the perimeter 2.3e-17 below 2*pi, and
        # the next float, h + 2 ulps, passes 2*pi
        h = math.pi / 2
        below = math.nextafter(h, 2.0)
        assert spherical.check_spherical_feasibility([h, h, h, below]) == (3, -3 * h + below)
        with pytest.raises(PerimeterError, match="perimeter 6.28319 is not strictly below 2"):
            spherical.check_spherical_feasibility([h, h, h, math.nextafter(below, 2.0)])

    def test_two_pi_lo_is_what_two_pi_rounds_off(self):
        two_pi = Decimal("6.283185307179586476925286766559005768394")  # 40 digits
        assert float(two_pi) == TWO_PI
        assert float(two_pi - Decimal(TWO_PI)) == spherical.TWO_PI_LO


class TestSolve:
    def test_octant_triangle(self):
        sol = spherical.solve_spherical([math.pi / 2] * 3)
        assert sol.chordal_radius == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
        assert sol.circumradius == pytest.approx(math.asin(math.sqrt(2.0 / 3.0)), abs=1e-12)
        for i in range(3):
            assert abs(float(sol.vertices[i] @ sol.vertices[(i + 1) % 3])) <= 1e-10

    def test_unit_equilateral(self):
        sol = spherical.solve_spherical([1, 1, 1])
        assert sol.chordal_radius == pytest.approx(2 * math.sin(0.5) / math.sqrt(3), abs=1e-12)
        assert sol.circumradius == pytest.approx(math.asin(sol.chordal_radius), abs=1e-15)

    def test_infeasible_raises(self):
        with pytest.raises(NoPolygonError):
            spherical.solve_spherical([0.1, 0.1, 0.5])

    def test_invariants_on_random_suite(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            l = feasible_spherical(rng, n)
            sol = spherical.solve_spherical(l)
            v = sol.vertices
            assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) <= 1e-12
            assert sol.chordal_radius < 1.0 - 1e-12
            # common circle: constant inner product with the axis
            assert v[:, 2].max() - v[:, 2].min() <= 1e-12
            # geodesic round trip via the inner product
            dots = np.clip(np.einsum("ij,ij->i", v, np.roll(v, -1, axis=0)), -1.0, 1.0)
            rec = np.arccos(dots)
            assert np.max(np.abs(rec - l)) <= 1e-10

    def test_central_angles_shared_with_chordal_polygon(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            l = feasible_spherical(rng, int(rng.integers(3, 9)))
            sol = spherical.solve_spherical(l)
            chords = 2 * np.sin(l / 2)
            planar = euclidean.solve_euclidean(chords)
            assert np.allclose(sol.angles.values, planar.angles.values, atol=1e-12)
            # and the spherical vertices subtend the same angles about the axis
            polar = np.arctan2(sol.vertices[:, 1], sol.vertices[:, 0])
            gaps = np.diff(np.concatenate([polar, polar[:1]])) % TWO_PI
            assert np.allclose(gaps, sol.angles.values, atol=1e-9)


class TestSumOfSines:
    def test_lemma(self):
        # sin(sum b_k) <= sum sin(b_k) for non-negative b with sum <= pi
        rng = np.random.default_rng(43)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            b = rng.uniform(0.0, 1.0, n)
            b *= rng.uniform(0.0, math.pi) / max(b.sum(), 1e-30)
            if b.sum() > math.pi:
                continue
            assert math.sin(math.fsum(b.tolist())) <= math.fsum(np.sin(b).tolist()) + 1e-14

    def test_chord_inequality_transfer(self):
        # feasible spherical sides map to strictly feasible chords
        rng = np.random.default_rng(44)
        for _ in range(200):
            l = feasible_spherical(rng, int(rng.integers(3, 11)))
            chords = spherical.chord_from_arc(l)
            m, margin = euclidean.check_polygon_inequalities(chords)
            assert m == int(np.argmax(chords)) and margin < 0
