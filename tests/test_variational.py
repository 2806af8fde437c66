"""Variational functional, gradient, simplex maximizer, critical points."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclicpoly import euclidean, polyio, specfun, variational
from cyclicpoly.domain import TWO_PI, CentralAngles, SideLengths
from cyclicpoly.errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    InfeasibleError,
    InvariantViolation,
    NearDegenerateError,
)

# sum of Cl2(a_k) + log(l_k) a_k at the (3,4,5) critical point, frozen from
# the quadrature oracle
F_ELL_345_AT_CRIT = 10.832510712006361

THALES_345 = (2 * math.asin(0.6), 2 * math.asin(0.8), math.pi)

# a center-outside quadrilateral on which a Sherman-Morrison Newton ascent
# that eliminates the last angle, with steps allowed to within 1e-14 of the
# boundary, stalls at gradient spread 0.28
HARD_QUAD = [1.4774909679267925, 2.622668132096232, 0.5691554691862191, 0.6494128844753946]


def _interior_angles(rng, n):
    a = rng.dirichlet(np.ones(n)) * TWO_PI
    return CentralAngles(a)


class TestFunctionals:
    def test_f_ell_equilateral(self):
        val = variational.f_ell([1, 1, 1], [TWO_PI / 3] * 3)
        assert val == pytest.approx(3 * specfun.clausen2(TWO_PI / 3), abs=1e-13)

    def test_f_ell_square(self):
        val = variational.f_ell([1, 1, 1, 1], [math.pi / 2] * 4)
        assert val == pytest.approx(4 * specfun.clausen2(math.pi / 2), abs=1e-13)

    def test_f_ell_345(self):
        assert variational.f_ell([3, 4, 5], THALES_345) == pytest.approx(
            F_ELL_345_AT_CRIT, abs=1e-11
        )

    def test_f_ell_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            variational.f_ell([1, 1, 1, 1], [TWO_PI / 3] * 3)

    def test_v_n_simplex_vertex(self):
        assert abs(variational.v_n([TWO_PI, 0.0, 0.0])) <= 1e-12

    def test_v_n_equilateral(self):
        assert variational.v_n([TWO_PI / 3] * 3) == pytest.approx(
            3 * specfun.clausen2(TWO_PI / 3), abs=1e-13
        )

    def test_v_n_half_turns(self):
        assert abs(variational.v_n([math.pi, math.pi, 0.0])) <= 1e-12


class TestGradient:
    def test_unit_equilateral(self):
        g = variational.grad_f_ell([1, 1, 1], [TWO_PI / 3] * 3)
        assert np.allclose(g, -math.log(math.sqrt(3.0)), atol=1e-14)

    def test_scaled_equilateral(self):
        g = variational.grad_f_ell([2, 2, 2], [TWO_PI / 3] * 3)
        expected = math.log(2.0) - math.log(math.sqrt(3.0))
        assert np.allclose(g, expected, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            lengths = SideLengths(rng.uniform(0.5, 3.0, n))
            alpha = _interior_angles(rng, n)
            g = variational.grad_f_ell(lengths, alpha)
            h = 1e-6
            for k in range(n):
                # stay on the constraint plane: bump k against a partner
                j = (k + 1) % n
                step = np.zeros(n)
                step[k], step[j] = h, -h
                if np.any(alpha.values + step <= 0) or np.any(alpha.values - step <= 0):
                    continue
                df = (
                    variational.f_ell(lengths, CentralAngles(alpha.values + step))
                    - variational.f_ell(lengths, CentralAngles(alpha.values - step))
                ) / (2 * h)
                assert df == pytest.approx(g[k] - g[j], abs=1e-6)

    def test_boundary_is_singular(self):
        with pytest.raises(DomainError):
            variational.grad_f_ell([1, 1, 1], [0.0, math.pi, math.pi])


class TestMaximizer:
    def test_equilateral(self):
        alpha = variational.maximize_on_simplex([1, 1, 1])
        assert np.allclose(alpha.values, TWO_PI / 3, atol=1e-9)

    def test_square(self):
        alpha = variational.maximize_on_simplex([1, 1, 1, 1])
        assert np.allclose(alpha.values, math.pi / 2, atol=1e-9)

    def test_thales(self):
        alpha = variational.maximize_on_simplex([3, 4, 5])
        assert np.allclose(alpha.values, THALES_345, atol=1e-8)

    def test_scale_covariance(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            l = rng.uniform(0.5, 2.0, n)
            m = int(np.argmax(l))
            if l[m] >= l.sum() - l[m]:
                continue
            a1 = variational.maximize_on_simplex(l)
            a2 = variational.maximize_on_simplex(1000.0 * l)
            assert np.allclose(a1.values, a2.values, atol=1e-9)

    def test_infeasible_input_does_not_converge(self):
        with pytest.raises(ConvergenceError) as exc_info:
            variational.maximize_on_simplex([1, 1, 5])
        err = exc_info.value
        assert err.gradient_spread > 0
        assert isinstance(err.best, CentralAngles)


class TestCriticalPoint:
    def test_equilateral_radius(self):
        r = variational.check_critical_point([1, 1, 1], [TWO_PI / 3] * 3)
        assert r == pytest.approx(3 ** -0.5, abs=1e-12)

    def test_thales_radius(self):
        r = variational.check_critical_point([3, 4, 5], THALES_345)
        assert r == pytest.approx(2.5, abs=1e-12)

    def test_mismatch_raises(self):
        # the per-side radii 1/sqrt(2), 1/sqrt(2) and 1/2 spread by 32% of their mean
        with pytest.raises(InvariantViolation, match=r"not a critical point \(spread 3\.246e-01\)"):
            variational.check_critical_point([1, 1, 1], [math.pi / 2, math.pi / 2, math.pi])

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            variational.check_critical_point([1, 1, 1], [0.0, math.pi, math.pi])


class TestConcavityStructure:
    def test_midpoint_concavity(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(3, 13))
            a = rng.dirichlet(np.ones(n)) * TWO_PI
            b = rng.dirichlet(np.ones(n)) * TWO_PI
            if np.max(np.abs(a - b)) <= 1e-3:
                continue
            mid = variational.v_n(0.5 * (a + b))
            assert mid > 0.5 * (variational.v_n(a) + variational.v_n(b))

    def test_triangle_cutoff_identity(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(4, 11))
            a = rng.dirichlet(np.ones(n)) * TWO_PI
            whole = variational.v_n(a)
            merged = np.concatenate([a[: n - 2], [a[n - 2] + a[n - 1]]])
            tri = np.array([math.fsum(a[: n - 2].tolist()), a[n - 2], a[n - 1]])
            split = variational.v_n(merged) + variational.v_n(tri)
            assert whole == pytest.approx(split, abs=1e-11)

    def test_cross_solver_radius_agreement(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            l = rng.uniform(0.5, 3.0, n)
            m = int(np.argmax(l))
            if l[m] >= l.sum() - l[m]:
                continue
            alpha = variational.maximize_on_simplex(l)
            r_var = variational.check_critical_point(l, alpha)
            assert isinstance(r_var, float)
            r_root = euclidean.solve_euclidean(l).radius
            assert abs(r_var - r_root) / r_root <= 1e-8


def _dense_newton_direction(g, a):
    """The Newton direction on the simplex by a dense solve that eliminates a_n."""
    h = -0.5 / np.tan(0.5 * a)
    H = np.diag(h[:-1]) + h[-1]
    d = np.linalg.solve(H, -(g[:-1] - g[-1]))
    return np.append(d, -d.sum())


class TestNewtonStep:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(31)
        past_pi = 0
        for i in range(60):
            n = int(rng.integers(3, 40))
            if i % 2:
                # one angle past pi: the others share less than pi
                a = rng.dirichlet(np.ones(n - 1)) * rng.uniform(0.2, 0.95) * math.pi
                a = np.insert(a, int(rng.integers(n)), TWO_PI - a.sum())
            else:
                a = rng.dirichlet(np.ones(n)) * TWO_PI
            past_pi += a.max() > math.pi
            g = variational._gradient(np.log(rng.uniform(0.5, 3.0, n)), a)
            v, newton = variational._ascent_direction(g, a)
            assert newton
            oracle = _dense_newton_direction(g, a)
            assert np.linalg.norm(v - oracle) <= 1e-10 * np.linalg.norm(oracle)
        assert past_pi >= 30

    def test_diagonal_step_where_rounding_breaks_definiteness(self):
        # three angles near 1e-8: the Sherman-Morrison denominator is ~1e-16
        # in exact arithmetic and not positive once rounded
        small = np.array([1.2e-8, 0.7e-8, 0.9e-8])
        a = np.concatenate([[TWO_PI - small.sum()], small])
        g = variational._gradient(np.log([3.0, 1.0, 1.0, 1.0]), a)
        v, newton = variational._ascent_direction(g, a)
        assert not newton
        assert float(g @ v) > 0.0
        assert abs(v.sum()) <= 1e-12 * np.abs(v).max()

    def test_hard_quadrilateral_converges(self):
        alpha = variational.maximize_on_simplex(HARD_QUAD)
        assert alpha.values.max() > math.pi
        r_var = variational.check_critical_point(HARD_QUAD, alpha)
        r_root = euclidean.solve_euclidean(HARD_QUAD).radius
        assert abs(r_var - r_root) / r_root <= 1e-12

    def test_large_n_dual_path_delta(self):
        rng = np.random.default_rng(32)
        lengths = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 5000))
        request = polyio.parse_request({"geometry": "euclidean", "lengths": lengths.tolist()})
        report = polyio.cli_verify(request)
        assert report["checks"]["dual_path_radius_rel_delta"] <= 1e-12

    def test_stalled_ascent_stops(self, monkeypatch):
        # 1 = 0.5 + 0.5 + 1e-300 is flat to rounding: the maximizer needs three
        # angles within rounding of 0 and one of 2*pi; once a step no longer
        # changes the iterate the ascent gives up instead of spending its whole
        # iteration budget
        calls = _count_directions(monkeypatch)
        with pytest.raises(ConvergenceError):
            variational.maximize_on_simplex([0.5, 0.5, 1, 1e-300])
        assert len(calls) < 2000

    def test_tiny_third_side_converges_at_the_start(self, monkeypatch):
        # [1, 1, 1e-300] is the segment of length 1 traversed twice: the start
        # circle, of radius 1/2, is its circumcircle to rounding
        calls = _count_directions(monkeypatch)
        alpha = variational.maximize_on_simplex([1, 1, 1e-300])
        assert len(calls) <= 1
        assert variational.check_critical_point([1, 1, 1e-300], alpha) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize(
        "lengths",
        [
            [1e-8, 1, 1],
            [1e308] * 3,
            [1.2e308, 0.8e308, 0.8e308],
            [1e-300, 1, 1, 1],
            [1e-308, 1, 1, 1.9],
        ],
        ids=["needle", "huge", "huge-sum-overflows", "tiny-beside-unit", "tiny-center-outside"],
    )
    def test_hard_inputs_converge_without_warning(self, lengths):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r_var = variational.check_critical_point(lengths, variational.maximize_on_simplex(lengths))
        r_root = euclidean.solve_euclidean(lengths).radius
        assert abs(r_var - r_root) / r_root <= 1e-12

    def test_subnormal_start_angle_is_near_degenerate(self):
        # tan(a/2) of the 1e-320 side's angle is below 1/(2 * float max), so
        # h = -cot(a/2)/2 would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NearDegenerateError) as exc_info:
                variational.maximize_on_simplex([1e-320, 1, 1, 1.9])
        assert exc_info.value.index == 0

    def test_no_dense_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense solve called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        for lengths in ([1, 1, 1], [3, 4, 5], HARD_QUAD, [1.0, 1.2, 0.8, 2.9]):
            alpha = variational.maximize_on_simplex(lengths)
            assert isinstance(variational.check_critical_point(lengths, alpha), float)


def _count_directions(monkeypatch) -> list:
    calls = []
    direction = variational._ascent_direction

    def counted(g, a):
        calls.append(None)
        return direction(g, a)

    monkeypatch.setattr(variational, "_ascent_direction", counted)
    return calls


def _verify_workload_sides(seed: int) -> list[np.ndarray]:
    """The side vectors of one pass of the benchmark's verify workload
    (perfbench/workloads.py): n log-uniform on [8, 600], sides log-uniform on
    [0.1, 10], draws whose largest side is 0.9 to 1 times the sum of the
    others redrawn, and every fourth draw made center-outside."""
    rng = np.random.default_rng([seed, 3])
    lo, hi, count = math.log(8), math.log(600), 200
    out = []
    for i in range(count):
        n = int(round(math.exp(lo + (i + rng.uniform()) / count * (hi - lo))))
        while True:
            l = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
            if not 0.9 <= l.max() / (math.fsum(l.tolist()) - l.max()) < 1.0:
                break
        if i % 4 == 3:
            k = int(rng.integers(n))
            l[k] = 0.0
            l[k] = math.fsum(l) * rng.uniform(0.75, 0.88)
        out.append(l)
    return out


def test_verify_workload_needs_few_gradients(monkeypatch):
    # from the equal angles 2*pi/n the ascent took 10.4 gradients per
    # maximization on these requests; from the chord angles of the lower-bound
    # circle it takes 4.3
    calls = []
    gradient = variational._gradient

    def counted(logl, a):
        calls.append(None)
        return gradient(logl, a)

    monkeypatch.setattr(variational, "_gradient", counted)
    maximized = 0
    for l in _verify_workload_sides(0):
        try:
            euclidean.check_polygon_inequalities(l)
        except InfeasibleError:
            continue
        variational.maximize_on_simplex(l)
        maximized += 1
    assert maximized >= 150
    assert len(calls) / maximized <= 6


def _count_clausen_calls(monkeypatch, lengths) -> int:
    calls = []
    clausen = variational._clausen2_vec

    def counted(a):
        calls.append(None)
        return clausen(a)

    monkeypatch.setattr(variational, "_clausen2_vec", counted)
    variational.maximize_on_simplex(lengths)
    return len(calls)


def _verify_like_sides() -> list[np.ndarray]:
    """198 polygons like the verify workload's: n in [8, 60], sides
    log-uniform on [0.1, 10], every fourth draw center-outside (a side set to
    U(0.75, 0.88) times the sum of the rest), and draws whose largest side is
    at least 0.9 times the rest skipped."""
    rng = np.random.default_rng(123)
    out = []
    for i in range(200):
        n = int(rng.integers(8, 61))
        l = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
        if i % 4 == 3:
            k = int(rng.integers(n))
            l[k] = math.fsum(np.delete(l, k).tolist()) * rng.uniform(0.75, 0.88)
        m = int(np.argmax(l))
        if l[m] < 0.9 * math.fsum(np.delete(l, m).tolist()):
            out.append(l)
    return out


def _near_flat_sides(draws) -> dict[int, np.ndarray]:
    """The given draws of 400 center-outside polygons within 1e-12 to 1e-6
    relative of flat: n in [3, 40], sides log-uniform on [0.1, 10], one side
    set to the sum of the others times 1 - 10**U(-12, -6)."""
    rng = np.random.default_rng(9)
    out = {}
    for d in range(400):
        n = int(rng.integers(3, 41))
        l = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
        k = int(rng.integers(n))
        l[k] = 0.0
        l[k] = math.fsum(l.tolist()) * (1.0 - 10.0 ** rng.uniform(-12, -6))
        if d in draws:
            out[d] = l
    return out


class TestConcavityCertificate:
    """A step whose new gradient g_t has g_t . v >= 1e-4 g . v passes the
    Armijo test by concavity, and so does a resolved Newton step whose
    midpoint and end gradients have (g_mid + g_t) . v / 2 >= 1e-4 g . v; the
    objective is evaluated only on steps that fail both proofs."""

    def test_verify_like_polygons_make_no_clausen_call(self, monkeypatch):
        # without the midpoint proof these take 315 Cl2 evaluations, one per
        # line search on a full Newton step that overshoots the line's maximum
        sides = _verify_like_sides()
        assert len(sides) == 198
        assert sum(_count_clausen_calls(monkeypatch, l) for l in sides) == 0
        proved = [variational.maximize_on_simplex(l).values for l in sides]
        monkeypatch.setattr(variational, "_midpoint_proves", lambda *args: False)
        searched = [variational.maximize_on_simplex(l).values for l in sides]
        assert all(np.array_equal(p, q) for p, q in zip(proved, searched))

    @pytest.mark.parametrize("draw", [27, 183, 341, 374])
    def test_unresolved_slope_keeps_the_line_search(self, draw):
        # near flat the slope is within rounding of the dot products: proved
        # at their midpoints, these steps would end in false oks with
        # dual-path deltas of 5.9e-5 to 3.3e-2
        lengths = _near_flat_sides({draw})[draw]
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            with pytest.raises(ConvergenceError):
                variational.maximize_on_simplex(lengths)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.01

    def test_center_outside_triangle_needs_few_evaluations(self, monkeypatch):
        assert _count_clausen_calls(monkeypatch, [1, 1, 1.9]) <= 4

    def test_large_n_needs_few_evaluations(self, monkeypatch):
        lengths = np.exp(np.random.default_rng(0).uniform(-2, 2, 600))
        assert _count_clausen_calls(monkeypatch, lengths) <= 2

    @given(st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=3, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_objective_never_falls_along_the_iterates(self, lengths):
        longest = max(lengths)
        assume(longest < (1 - 1e-9) * (math.fsum(lengths) - longest))
        iterates = []
        direction = variational._ascent_direction

        def recorded(g, a):
            iterates.append(a)
            return direction(g, a)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(variational, "_ascent_direction", recorded)
            variational.maximize_on_simplex(lengths)
        f = [variational.f_ell(lengths, a) for a in iterates]
        for before, after in zip(f, f[1:]):
            assert after >= before - 1e-12 * abs(before)


@pytest.mark.xfail(
    strict=True,
    reason="known false ok: near a flat polygon the gradient-spread stop "
    "cannot see a radius error of several percent",
)
def test_near_flat_triangle_is_not_a_false_ok():
    request = polyio.parse_request({"geometry": "euclidean", "lengths": [1, 1, 1.9999999999]})
    try:
        report = polyio.cli_verify(request)
    except NearDegenerateError:
        return
    assert report["status"] == "ok"
    assert report["checks"]["dual_path_radius_rel_delta"] <= 1e-8
