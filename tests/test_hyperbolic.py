"""Hyperbolic solver: trichotomy, three constructions, defect-function root."""

import math
import re
import warnings

import numpy as np
import pytest

from cyclicpoly import euclidean, hyperbolic, polyio
from cyclicpoly.domain import prefix_sums
from cyclicpoly.errors import (
    DomainError,
    InvariantViolation,
    NearDegenerateError,
    NoPolygonError,
)

from oracles import phi_root_bisect

# third side making sinh(l3/2) = 2 sinh(1/2) exactly: the horocycle threshold
HOROCYCLE_L3 = 2 * math.asinh(2 * math.sinh(0.5))

# circle case (1,1,1): r = arsinh(chord / sqrt(3)), frozen
HYP_R_111 = 0.5702898271141295


def hyp_dot(u, v):
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


def recovered_sides(vertices):
    d = np.roll(vertices, -1, axis=0) - vertices
    return 2.0 * np.arcsinh(np.sqrt(hyp_dot(d, d)) / 2.0)


def make_horocycle_lengths(rng, n):
    base = rng.uniform(0.3, 1.2, n - 1)
    dom = 2 * math.asinh(math.fsum(np.sinh(base / 2).tolist()))
    return np.concatenate([base, [dom]])


def make_hypercycle_lengths(rng, n):
    while True:
        base = rng.uniform(1.0, 3.0, n - 1)
        q = rng.uniform(1.05, 1.8)
        dom = 2 * math.asinh(q * math.fsum(np.sinh(base / 2).tolist()))
        l = np.concatenate([base, [dom]])
        if dom < math.fsum(base.tolist()):
            if hyperbolic.classify(l).kind == hyperbolic.HYPERCYCLE:
                return l


def math_chords(lengths):
    """2 sinh(l/2) of each side by math.sinh: the chords the solver works with."""
    return [2.0 * math.sinh(0.5 * x) for x in lengths]


class TestChordMap:
    # the map takes a whole side vector; each chord is math.sinh's, bit for bit
    def test_inverse_pair(self):
        lengths = [2 * math.asinh(1.0)] * 3
        chords = hyperbolic.hyp_chord(lengths)
        assert chords.tolist() == math_chords(lengths)
        assert chords == pytest.approx([2.0] * 3, abs=1e-15)

    def test_unit(self):
        chords = hyperbolic.hyp_chord([1.0, 0.5, 3.0])
        assert chords.tolist() == math_chords([1.0, 0.5, 3.0])
        assert chords[0] == 2 * math.sinh(0.5)
        # 10^4 sides from 1e-300 to 1400, the large-n size
        rng = np.random.default_rng(0)
        lengths = np.exp(rng.uniform(math.log(1e-300), math.log(1400.0), 10**4))
        assert hyperbolic.hyp_chord(lengths).tolist() == math_chords(lengths.tolist())

    def test_small_argument_limit(self):
        lengths = [1e-3, 1e-6, 1e-9]
        chords = hyperbolic.hyp_chord(lengths)
        assert chords.tolist() == math_chords(lengths)
        assert chords / lengths == pytest.approx([1.0] * 3, abs=1e-6)

    def test_domain(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="side lengths"):
                hyperbolic.hyp_chord([1.0, bad, 1.0])
        with pytest.raises(DomainError, match="too few"):
            hyperbolic.hyp_chord([1.0, 1.0])

    @pytest.mark.parametrize("ell,word", [(5e-324, "short"), (1420.0, "long"), (1e308, "long")])
    def test_chord_past_the_float_range(self, ell, word):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            match = re.escape(f"{ell!r} is too {word} for its chord")
            with pytest.raises(NearDegenerateError, match=match):
                hyperbolic.hyp_chord([1.0, ell, 1.0])

    @pytest.mark.parametrize(
        "lengths, named",
        [
            ([1, 5e-324, 1500, 1500], "5e-324 is too short"),
            ([1500, 5e-324, 1, 1500], "1500.0 is too long"),
            # 10^4 sides, the bad ones first and last
            ([5e-324] + [1.0] * 9998 + [1500.0], "5e-324 is too short"),
            ([1500.0] + [1.0] * 9998 + [5e-324], "1500.0 is too long"),
            ([1.0] * 9999 + [5e-324], "5e-324 is too short"),
            ([1.0] * 9999 + [1500.0], "1500.0 is too long"),
        ],
    )
    def test_first_bad_side_in_caller_order(self, lengths, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in (hyperbolic.hyp_chord, hyperbolic.classify, hyperbolic.solve_hyperbolic):
                with pytest.raises(NearDegenerateError, match=f"^hyperbolic length {named} "):
                    call(lengths)


class TestClassify:
    def test_equilateral_circle(self):
        cls = hyperbolic.classify([1, 1, 1])
        assert cls.kind == hyperbolic.CIRCLE
        assert cls.margin < 0

    def test_horocycle_threshold(self):
        cls = hyperbolic.classify([1, 1, HOROCYCLE_L3])
        assert cls.kind == hyperbolic.HOROCYCLE
        assert cls.index == 2
        assert abs(cls.margin) <= 1e-12

    def test_hypercycle(self):
        cls = hyperbolic.classify([1, 1, 1.9])
        assert cls.kind == hyperbolic.HYPERCYCLE
        assert cls.index == 2
        assert cls.margin == pytest.approx(
            2 * math.sinh(0.95) - 4 * math.sinh(0.5), abs=1e-14
        )

    def test_polygon_inequality_enforced(self):
        # 3 >= 1 + 1: no hyperbolic polygon of any kind exists
        with pytest.raises(NoPolygonError):
            hyperbolic.classify([1, 1, 3])

    def test_perturbation_flips(self):
        plus = hyperbolic.classify([1, 1, HOROCYCLE_L3 + 1e-6])
        minus = hyperbolic.classify([1, 1, HOROCYCLE_L3 - 1e-6])
        assert plus.kind == hyperbolic.HYPERCYCLE
        assert minus.kind == hyperbolic.CIRCLE

    @pytest.mark.parametrize(
        "f,kind",
        [
            (-1.1, hyperbolic.CIRCLE),
            (-0.9, hyperbolic.HOROCYCLE),
            (0.9, hyperbolic.HOROCYCLE),
            (1.1, hyperbolic.HYPERCYCLE),
        ],
    )
    def test_band_edges(self, f, kind):
        # the horocycle tag covers |margin| <= HOROCYCLE_BAND * sum(chords)
        c = 2 * math.sinh(0.5)
        total = 4 * c  # the chord sum, to well within the 10% steps below
        margin = f * hyperbolic.HOROCYCLE_BAND * total
        cls = hyperbolic.classify([1, 1, 2 * math.asinh(0.5 * (2 * c + margin))])
        assert cls.kind == kind
        assert cls.margin == pytest.approx(margin, rel=1e-3)


class TestCircleCase:
    def test_equilateral(self):
        sol = hyperbolic.solve_hyperbolic([1, 1, 1])
        assert sol.curve_class.kind == hyperbolic.CIRCLE
        assert sol.circumradius == pytest.approx(HYP_R_111, abs=1e-12)
        assert np.max(np.abs(hyp_dot(sol.vertices, sol.vertices) + 1.0)) <= 1e-12
        assert np.allclose(recovered_sides(sol.vertices), [1, 1, 1], atol=1e-12)

    def test_congruent_to_chordal_euclidean_polygon(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            l = rng.uniform(0.1, 0.9, n)
            try:
                euclidean.check_polygon_inequalities(l)
            except NoPolygonError:
                with pytest.raises(NoPolygonError):
                    hyperbolic.classify(l)
                continue
            if hyperbolic.classify(l).kind != hyperbolic.CIRCLE:
                continue
            sol = hyperbolic.solve_hyperbolic(l)
            chords = 2 * np.sinh(l / 2)
            planar = euclidean.solve_euclidean(chords)
            assert math.sinh(sol.circumradius) == pytest.approx(planar.radius, rel=1e-9)
            d = np.roll(sol.vertices, -1, axis=0) - sol.vertices
            chordal = np.sqrt(hyp_dot(d, d))
            assert np.max(np.abs(chordal - chords) / chords) <= 1e-9


class TestHorocycleCase:
    def test_threshold_construction(self):
        sol = hyperbolic.solve_hyperbolic([1, 1, HOROCYCLE_L3])
        assert sol.curve_class.kind == hyperbolic.HOROCYCLE
        c = 2 * math.sinh(0.5)
        assert np.allclose(sol.offsets, [0.0, c, 2 * c], atol=1e-12)
        assert np.allclose(sol.vertices[0], [0.0, 0.0, 1.0], atol=1e-15)
        # every vertex on the horocycle x3 - x1 = 1
        assert np.max(np.abs(sol.vertices[:, 2] - sol.vertices[:, 0] - 1.0)) <= 1e-12
        assert np.allclose(recovered_sides(sol.vertices), [1, 1, HOROCYCLE_L3], atol=1e-12)

    def test_chord_equals_arc_length(self):
        # the unit-speed horocycle parameter is both the arc length and the
        # ambient chordal length, so consecutive parameter gaps equal chords
        rng = np.random.default_rng(52)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            l = make_horocycle_lengths(rng, n)
            sol = hyperbolic.solve_hyperbolic(l)
            assert sol.curve_class.kind == hyperbolic.HOROCYCLE
            gaps = np.diff(sol.offsets)
            chords = 2 * np.sinh(l[: n - 1] / 2)
            assert np.allclose(gaps, chords, atol=1e-12)
            d = sol.vertices[1:] - sol.vertices[:-1]
            assert np.allclose(np.sqrt(hyp_dot(d, d)), gaps, atol=1e-9)


class TestHypercycleCase:
    def test_simple_instance(self):
        sol = hyperbolic.solve_hyperbolic([1, 1, 1.9])
        assert sol.curve_class.kind == hyperbolic.HYPERCYCLE
        r = sol.axis_distance
        assert r > 0
        a = sol.foot_distances.values
        assert abs(a[2] - a[0] - a[1]) <= 1e-10
        # chord relation: chord_k = 2 cosh(R) sinh(a_k / 2)
        chords = 2 * np.sinh(np.asarray([1, 1, 1.9]) / 2)
        assert np.max(np.abs(chords - 2 * math.cosh(r) * np.sinh(a / 2)) / chords) <= 1e-10
        assert np.max(np.abs(hyp_dot(sol.vertices, sol.vertices) + 1.0)) <= 1e-12
        assert np.allclose(recovered_sides(sol.vertices), [1, 1, 1.9], atol=1e-10)
        # constant distance from the axis: x2 = sinh(R) on all vertices
        x2 = sol.vertices[:, 1]
        assert x2.max() - x2.min() <= 1e-12
        assert x2[0] == pytest.approx(math.sinh(r), rel=1e-12)

    def test_dominant_side_not_last(self):
        sol = hyperbolic.solve_hyperbolic([1.9, 1.0, 1.0])
        assert sol.curve_class.index == 0
        assert np.allclose(recovered_sides(sol.vertices), [1.9, 1.0, 1.0], atol=1e-10)
        a = sol.foot_distances.values
        assert abs(a[0] - a[1] - a[2]) <= 1e-10

    @pytest.mark.parametrize(
        "lengths",
        [
            # Phi(1) rounds to 0: a root solve from x = 1 would return R = 0
            [1.0, 1.0, 1.9999999999999998],
            # Phi(1) rounds above 0: a root solve from x = 1 has no bracket
            [2.4212358851346494, 0.25534419410209774, 2.676580079236747],
        ],
    )
    def test_flat_onto_its_axis_is_near_degenerate(self, lengths):
        assert hyperbolic.classify(lengths).kind == hyperbolic.HYPERCYCLE
        with pytest.raises(NearDegenerateError, match="within rounding of its axis") as exc:
            hyperbolic.solve_hyperbolic(lengths)
        assert exc.value.index == 2

    @pytest.mark.xfail(
        strict=True,
        reason="known false ok, ROADMAP item 1: near its axis x = cosh R resolves R "
        "only to about sqrt(eps), and the solve ends ok with axis distance 6.322e-8",
    )
    def test_near_its_axis_is_not_a_false_ok(self):
        # Phi(1) = -2.2e-16; the axis distance of the geodesic request, from a
        # 60-digit root of Phi, is 5.2254201548788865e-8
        try:
            sol = hyperbolic.solve_hyperbolic([1.0, 1.0, 1.9999999999999996])
        except NearDegenerateError:
            return
        assert sol.axis_distance == pytest.approx(5.2254201548788865e-8, rel=1e-14)


class TestPhi:
    def test_phi_at_one_is_half_length_deficit(self):
        l = np.array([1.0, 1.0, 1.9])
        chords = 2 * np.sinh(l / 2)
        expected = 0.5 * (l[-1] - l[0] - l[1])
        assert hyperbolic.phi(1.0, chords) == pytest.approx(expected, abs=1e-12)

    def test_direct_arithmetic(self):
        val = hyperbolic.phi(1.5, [1.0, 1.0, 2.1])
        expected = math.asinh(2.1 / 3.0) - 2 * math.asinh(1.0 / 3.0)
        assert val == pytest.approx(expected, abs=1e-15)

    def test_large_x_sign_matches_chord_margin(self):
        chords = [1.0, 1.0, 2.5]  # margin +0.5
        assert hyperbolic.phi(1e6, chords) > 0
        chords = [1.0, 1.0, 1.5]  # margin -0.5
        assert hyperbolic.phi(1e6, chords) < 0

    def test_domain(self):
        with pytest.raises(DomainError):
            hyperbolic.phi(0.0, [1, 1, 2.5])
        with pytest.raises(DomainError):
            hyperbolic.phi(-2.0, [1, 1, 2.5])
        with pytest.raises(DomainError):
            hyperbolic.phi_prime(0.0, [1, 1, 2.5])

    def test_phi_prime_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        chords = [0.8, 1.3, 0.9, 3.4]
        for _ in range(20):
            x = float(rng.uniform(0.3, 5.0))
            h = 1e-6 * x
            fd = (hyperbolic.phi(x + h, chords) - hyperbolic.phi(x - h, chords)) / (2 * h)
            assert hyperbolic.phi_prime(x, chords) == pytest.approx(fd, abs=1e-7)

    def test_tanh_subadditivity_witness(self):
        assert math.tanh(0.7) < math.tanh(0.3) + math.tanh(0.4)


class TestHypercycleRadius:
    def test_root_properties(self):
        l = np.array([1.0, 1.0, 1.9])
        chords = 2 * np.sinh(l / 2)
        rbar = hyperbolic.solve_hypercycle_radius(chords)
        assert rbar > 1.0
        assert abs(hyperbolic.phi(rbar, chords)) <= 1e-12
        assert hyperbolic.phi_prime(rbar, chords) > 0
        assert rbar == pytest.approx(phi_root_bisect(chords, 1.0, 8.0), rel=1e-11)

    def test_scaling_covariance(self):
        chords = 2 * np.sinh(np.array([1.0, 1.0, 1.9]) / 2)
        r1 = hyperbolic.solve_hypercycle_radius(chords)
        r2 = hyperbolic.solve_hypercycle_radius(chords * 37.0)
        assert r2 == pytest.approx(37.0 * r1, rel=1e-13)

    def test_near_horocycle_margin_sweep(self):
        # as the chord margin shrinks by decades, the root grows monotonically
        # and the solver keeps terminating
        base = 2 * math.sinh(0.5)
        roots = []
        for k in range(1, 8):
            margin = 10.0 ** -k
            chords = np.array([base, base, 2 * base + margin])
            roots.append(hyperbolic.solve_hypercycle_radius(chords))
        assert all(b > a for a, b in zip(roots, roots[1:]))

    def test_dominant_chord_beside_many_short_ones(self):
        # 10^5 short chords 1e-7 (relative) short of the dominant one: the
        # rounding of their sum puts axis_bound 2.2e-10 (relative) short of the
        # root, so the bound becomes the lower end, below far_radius
        n, c = 100_000, 30.0 * (1.0 - 1e-7) / 100_000
        rbar = hyperbolic.solve_hypercycle_radius([c] * n + [30.0])

        def f(x):
            return math.asinh(15.0 / x) - n * math.asinh(c / (2.0 * x))

        lo, hi = 1.0, 1e6  # f(lo) < 0 < f(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
        assert rbar == pytest.approx(lo, rel=1e-8)

    def test_non_dominant_chords_rejected(self):
        with pytest.raises(InvariantViolation):
            hyperbolic.solve_hypercycle_radius([1.0, 1.0, 1.9])  # margin -0.1

    def test_chords_without_underlying_polygon_rejected(self):
        # dominance holds but phi(1) > 0: the geodesic lengths behind these
        # chords violate the polygon inequalities
        with pytest.raises(InvariantViolation):
            hyperbolic.solve_hypercycle_radius([1.0, 1.0, 3.0])


BAD_CHORDS = {
    "too_few": [1.0, 2.5],
    "nan": [1.0, math.nan, 2.5],
    "zero": [1.0, 0.0, 2.5],
    "negative": [1.0, -1.0, 2.5],
    "two_d": [[1.0, 1.0, 2.5]],
}

CHORD_USERS = {
    "phi": lambda c: hyperbolic.phi(1.5, c),
    "phi_prime": lambda c: hyperbolic.phi_prime(1.5, c),
    "solve_hypercycle_radius": hyperbolic.solve_hypercycle_radius,
}


class TestChordChecks:
    # chords are the side lengths of the chordal polygon and obey their rule
    @pytest.mark.parametrize("bad", BAD_CHORDS.values(), ids=BAD_CHORDS.keys())
    @pytest.mark.parametrize("user", CHORD_USERS.values(), ids=CHORD_USERS.keys())
    def test_rejects_invalid_chords(self, user, bad):
        with pytest.raises(DomainError, match="side lengths"):
            user(bad)


class TestSingleChordMap:
    @pytest.mark.parametrize(
        "lengths, kind",
        [
            ([1.0, 1.0, 1.0], hyperbolic.CIRCLE),
            ([1.0, 1.0, HOROCYCLE_L3], hyperbolic.HOROCYCLE),
            ([1.0, 1.0, 1.9], hyperbolic.HYPERCYCLE),
        ],
    )
    def test_each_side_is_mapped_once(self, monkeypatch, lengths, kind):
        # one map call per request, solver and report together
        calls = []
        chord = hyperbolic.hyp_chord

        def counting_chord(sides):
            calls.append(sides)
            return chord(sides)

        monkeypatch.setattr(hyperbolic, "hyp_chord", counting_chord)
        rep = polyio.cli_solve(polyio.parse_request({"geometry": "hyperbolic", "lengths": lengths}))
        assert len(calls) == 1
        assert rep["solution"]["class"]["kind"] == kind
        cls = hyperbolic.solve_hyperbolic(lengths).curve_class
        assert cls.chords.tolist() == math_chords(lengths)
        # the kept chords take no part in equality or hashing
        plain = hyperbolic.HypCurveClass(kind, cls.index, cls.margin)
        assert hyperbolic.classify(lengths) == plain
        assert hash(cls) == hash(plain)


class TestNearHorocycleHypercycle:
    def test_huge_near_horocycle_input(self):
        # a chord excess of 4e-9, just outside the band: cosh R lands near
        # 5.6e13, yet a hypercycle instance is still placed on its
        # hypercycle, without a warning
        base = 1e10
        chords = np.array([base, base, 2 * base * (1 + 4e-9)])
        lengths = 2 * np.arcsinh(chords / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = hyperbolic.solve_hyperbolic(lengths)
        assert sol.curve_class.kind == hyperbolic.HYPERCYCLE
        assert math.cosh(sol.axis_distance) > 1e12
        a = sol.foot_distances.values
        assert abs(a[2] - a[0] - a[1]) <= 1e-12 * a[2]


class TestFootDistances:
    def test_validation(self):
        with pytest.raises(DomainError):
            hyperbolic.FootDistances([1.0, -2.0])
        with pytest.raises(DomainError):
            hyperbolic.FootDistances([[1.0, 2.0]])

    def test_sinh_superadditivity(self):
        # sinh(x + y) > sinh(x) + sinh(y) for positive x, y
        rng = np.random.default_rng(54)
        for _ in range(500):
            x, y = rng.uniform(1e-3, 5.0, 2)
            assert math.sinh(x + y) > math.sinh(x) + math.sinh(y)


class TestPlace:
    @pytest.mark.parametrize("x", [None, 1.0000001, 2.5, 3e7])
    @pytest.mark.parametrize("dom", [0, 4, 8])
    def test_matches_the_per_vertex_loop(self, x, dom):
        # the array placement does the same IEEE operations as this loop, so
        # it must agree bit for bit
        marks = np.exp(np.random.default_rng(dom).uniform(-12.0, 1.0, 9))
        order = hyperbolic.dominant_last(dom, marks.size)
        t, feet, points = hyperbolic.place(marks, dom, x)
        ref = np.empty_like(points)
        for j, tj in enumerate(prefix_sums(marks.tolist())[0]):
            if x is None:
                ref[order[j]] = (0.5 * tj * tj, tj, 1.0 + 0.5 * tj * tj)
            else:
                ref[order[j]] = (x * math.sinh(tj), x * math.cosh(tj))
            assert t[j] == tj
            assert feet[order[j]] == marks[j]
        assert np.array_equal(points, ref)

    @pytest.mark.parametrize("x", [None, 1.5])
    def test_coordinates_past_the_float_range(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NearDegenerateError):
                hyperbolic.place(np.array([1e200, 1e200, 1.0]), 2, x)
