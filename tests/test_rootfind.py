"""Safeguarded Newton root finder: closed-form roots, bracket contract,
evaluation budget, one evaluation per point, and a 50-digit oracle."""

import math

import numpy as np
import pytest

from cyclicpoly import euclidean, hyperbolic, minkowski, polyio, spherical
from cyclicpoly.errors import CyclicPolyError, InfeasibleError, InvariantViolation
from cyclicpoly.rootfind import bisect_newton
from oracles import workload_request

GEOMETRIES = ("euclidean", "spherical", "hyperbolic", "minkowski")

#: Euclidean sides whose root solve once stalled: a sub-ulp Newton step at
#: the noise floor landed on the bracket end and set off bisection
STALL_INPUT = [2.6540753500258583, 2.4428218188684676, 0.7397834999966217, 0.9120179215556686]


def draw_requests(seed: int, count: int) -> list[dict]:
    """Four-geometry requests, n in [3, 12], sides log-uniform on [0.25, 4].

    Spherical sides are rescaled to a perimeter uniform on [0.5, 7];
    one Minkowski side is set to the sum of the others times a factor
    log-uniform on [0.75, 1.5].  Infeasible draws stay in.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        geometry = GEOMETRIES[i % 4]
        n = int(rng.integers(3, 13))
        l = np.exp(rng.uniform(math.log(0.25), math.log(4.0), n))
        if geometry == "spherical":
            l *= rng.uniform(0.5, 7.0) / math.fsum(l.tolist())
        elif geometry == "minkowski":
            k = int(rng.integers(n))
            l[k] = 0.0
            l[k] = math.fsum(l.tolist()) * math.exp(rng.uniform(math.log(0.75), math.log(1.5)))
        out.append({"geometry": geometry, "lengths": l.tolist()})
    return out


class EvalCounter:
    """Counts f and f' evaluations per root solve, wrapping the callables
    handed to bisect_newton at its euclidean and hyperbolic bindings."""

    def __init__(self, monkeypatch):
        self.solves: list[tuple[int, int]] = []
        for module in (euclidean, hyperbolic):
            monkeypatch.setattr(module, "bisect_newton", self._wrap(module.bisect_newton))

    def _wrap(self, fn):
        def wrapper(f, lo, hi, *, dfdx, **kwargs):
            count = [0, 0]

            def f_counted(x):
                count[0] += 1
                return f(x)

            def dfdx_counted(x):
                count[1] += 1
                return dfdx(x)

            res = fn(f_counted, lo, hi, dfdx=dfdx_counted, **kwargs)
            self.solves.append(tuple(count))
            # the caller passes f at both ends, so every evaluation is an iteration
            assert res.iterations == count[0]
            return res

        return wrapper


def _solve(request: dict):
    try:
        return polyio.cli_solve(polyio.parse_request(request))
    except CyclicPolyError as exc:
        return type(exc).__name__


class TestClosedForm:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_regular_polygon(self, n):
        side = 1.7
        sol = euclidean.solve_euclidean([side] * n)
        assert sol.radius == pytest.approx(side / (2.0 * math.sin(math.pi / n)), rel=1e-14)

    def test_right_triangle(self):
        # [3, 4, 5]: the hypotenuse is a diameter, so the root is R0 itself
        assert euclidean.solve_euclidean([3, 4, 5]).radius == pytest.approx(2.5, rel=1e-15)

    @pytest.mark.parametrize("s,L", [(1.0, 3.0), (0.5, 1.1), (2.0, 40.0), (0.3, 0.61)])
    def test_minkowski_isosceles(self, s, L):
        expected = s * s / math.sqrt((L - 2.0 * s) * (L + 2.0 * s))
        assert minkowski.solve_minkowski([s, s, L]).radius == pytest.approx(expected, rel=1e-13)


class TestBracketContract:
    @staticmethod
    def _solve(f, lo, hi, **kwargs):
        """bisect_newton with the bracket values f(lo) and f(hi) passed in."""
        return bisect_newton(f, lo, hi, f_lo=f(lo), f_hi=f(hi), **kwargs)

    def test_bracket_values_are_required(self):
        with pytest.raises(TypeError, match="f_lo"):
            bisect_newton(lambda x: x - 1.0, 0.0, 2.0, dfdx=lambda x: 1.0, f_hi=1.0)
        with pytest.raises(TypeError, match="dfdx"):
            bisect_newton(lambda x: x - 1.0, 0.0, 2.0, f_lo=-1.0, f_hi=1.0)

    def test_unbracketed_root_raises(self):
        with pytest.raises(InvariantViolation, match="not bracketed"):
            self._solve(lambda x: x * x + 1.0, 0.0, 1.0, dfdx=lambda x: 2.0 * x)

    @pytest.mark.parametrize("lo,hi", [(1.0, 3.0), (-2.0, 1.0)])
    def test_zero_at_bracket_end(self, lo, hi):
        res = self._solve(lambda x: x - 1.0, lo, hi, dfdx=lambda x: 1.0)
        assert (res.root, res.iterations, res.residual) == (1.0, 0, 0.0)

    def test_bisection_without_derivative(self):
        # a derivative that is NaN everywhere gives no Newton step
        calls = []

        def f(x):
            calls.append(x)
            return x ** 3 - 2.0

        res = self._solve(f, 0.0, 2.0, dfdx=lambda x: math.nan, rel_tol=1e-10)
        assert res.root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-10)
        assert res.iterations == len(calls) - 2  # the two ends are the caller's
        assert 30 <= res.iterations <= 36  # halving to rel_tol, not Newton

    def test_newton_converges_quadratically(self):
        res = self._solve(lambda x: x ** 3 - 2.0, 0.0, 2.0, dfdx=lambda x: 3.0 * x * x)
        assert res.root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
        assert res.iterations <= 10

    def test_sub_ulp_step_onto_bracket_end_stops(self):
        # the last Newton step is below one ulp, so x - step is x itself,
        # which is a bracket end: that is convergence, not a reason to bisect
        a, c = 1.723891370552135, 39.31174411534405
        res = self._solve(lambda x: a * x * x - c, 0.0, 14.135858401621663, dfdx=lambda x: 2.0 * a * x)
        assert res.root == pytest.approx(math.sqrt(c / a), rel=1e-15)
        assert res.iterations <= 10

    def test_slow_newton_falls_back_to_bisection(self):
        # at a fifth-order root Newton only shrinks the error by 4/5 a step;
        # the safeguard bisects whenever a step fails to halve the one before last
        res = self._solve(lambda x: (x - 0.3) ** 5, 0.0, 1.0, dfdx=lambda x: 5.0 * (x - 0.3) ** 4)
        assert res.root == pytest.approx(0.3, rel=1e-13)
        assert res.iterations <= 100  # pure Newton inside the bracket takes 140

    @pytest.mark.parametrize("f_hi, root", [(3.0, 1.0), (0.5, math.nextafter(1.0, 2.0))])
    def test_polish_onto_a_bracket_end_reads_its_value(self, f_hi, root):
        # adjacent floats: the Newton step from lo lands on hi, whose f is known
        lo, hi = 1.0, math.nextafter(1.0, 2.0)
        calls = []

        def f(x):
            calls.append(x)
            return x - lo

        res = bisect_newton(f, lo, hi, dfdx=lambda x: 1.0 / (hi - lo), f_lo=-1.0, f_hi=f_hi)
        assert (res.root, res.iterations, calls) == (root, 0, [])

    @pytest.mark.parametrize("rel_tol", [1e-14, 1e-8, 1e-3])
    def test_loose_tolerance_still_polishes(self, rel_tol):
        res = self._solve(lambda x: math.exp(x) - 3.0, 0.0, 5.0, dfdx=math.exp, rel_tol=rel_tol)
        assert res.root == pytest.approx(math.log(3.0), rel=1e-15)


class TestEvaluationBudget:
    def test_stall_input(self, monkeypatch):
        counter = EvalCounter(monkeypatch)
        euclidean.solve_euclidean(STALL_INPUT)
        [(f_evals, _)] = counter.solves
        assert f_evals <= 20

    def test_corpus_budget(self, monkeypatch):
        counter = EvalCounter(monkeypatch)
        for request in draw_requests(seed=101, count=2000):
            _solve(request)
        f_evals = [f for f, _ in counter.solves]
        assert len(f_evals) > 1500
        assert sum(f_evals) / len(f_evals) <= 12.0
        assert max(f_evals) <= 30


class TestEachPointOnce:
    """A solve evaluates its defect (the Euclidean f, or phi) at each point
    once, bracket search included: the bracket ends a caller has already
    evaluated are passed to bisect_newton as f_lo and f_hi."""

    @staticmethod
    def _record(monkeypatch) -> list:
        points: list = []
        phi = hyperbolic.phi

        def recorded_phi(x, chords):
            points.append(("phi", float(x)))
            return phi(x, chords)

        for module in (hyperbolic, minkowski):
            monkeypatch.setattr(module, "phi", recorded_phi)

        # the Euclidean f(t) reads the half angles at t from a cache, so each
        # computation of them is one evaluation of f at a new t
        half_angles = euclidean._half_angles

        def recorded_half_angles(t, *args):
            points.append(("f", t))
            return half_angles(t, *args)

        monkeypatch.setattr(euclidean, "_half_angles", recorded_half_angles)
        return points

    @pytest.mark.parametrize(
        "lengths, budget",
        [([1e-300, 1e-300, 3e-300], 9), ([1e200, 1e200, 3e200], 8)],
        ids=["1e-300", "1e200"],
    )
    def test_phi_budget_at_extreme_scales(self, monkeypatch, lengths, budget):
        # the upper end is hyperbolic.axis_bound, which scales with the sides, and
        # the lower end halves from it: halving from 1 alone would take about
        # 1,000 evaluations at 1e-300
        points = self._record(monkeypatch)
        minkowski.solve_minkowski(lengths)
        assert len(points) <= budget

    @pytest.mark.parametrize(
        "curve, seed",
        [
            pytest.param(
                curve,
                seed,
                marks=pytest.mark.xfail(
                    strict=True, reason="5 phi points against the budget of 4"
                )
                if (curve, seed) == ("hyperbolic-hypercycle", 8)
                else (),
            )
            for curve in ("euclidean", "hyperbolic-hypercycle", "minkowski")
            for seed in range(10)
        ],
    )
    def test_budget_at_n_10000(self, monkeypatch, curve, seed):
        # built as the large-n workload builds them: both bracket ends are
        # closed-form bounds, and the solve starts at the one nearer the root.
        # Seeds 0-9 take 4 points each on the Euclidean curve, 3 or 4 on the
        # hyperbola, and 3 to 5 on the hypercycle
        points = self._record(monkeypatch)
        request = workload_request(curve, 10_000, np.random.default_rng(seed))
        assert isinstance(_solve(request), dict)
        assert len(points) <= 4 and len(set(points)) == len(points), points

    def test_one_arsinh_pass_per_phi_point(self, monkeypatch):
        # phi_prime at the x phi just took, and the placement at the root, reuse
        # the half feet of that phi
        points = self._record(monkeypatch)
        passes = []
        half_feet = hyperbolic._half_feet

        def recorded_half_feet(x, chords):
            passes.append(("phi", float(x)))
            return half_feet(x, chords)

        monkeypatch.setattr(hyperbolic, "_half_feet", recorded_half_feet)
        solved = 0
        for request in draw_requests(seed=405, count=400):
            if request["geometry"] not in ("hyperbolic", "minkowski"):
                continue
            points.clear()
            passes.clear()
            if isinstance(_solve(request), dict):
                solved += 1
            assert passes == [p for p in points if p[0] == "phi"], request
        assert solved > 100

    def test_no_point_evaluated_twice(self, monkeypatch):
        points = self._record(monkeypatch)
        solved = 0
        for request in draw_requests(seed=404, count=400):
            points.clear()
            if isinstance(_solve(request), dict):
                solved += 1
            assert len(points) == len(set(points)), (request, points)
        assert solved > 300


class TestMpmathOracle:
    """Each geometry's root against a 50-digit bisection of the same equation
    on the same float inputs (sides, or the chords the solver works on)."""

    @staticmethod
    def _bisect(f, lo, hi, mp):
        flo = f(lo)
        assert (flo > 0) != (f(hi) > 0)
        while hi - lo > mp.mpf("1e-30") * hi:
            mid = (lo + hi) / 2
            if (f(mid) > 0) == (flo > 0):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    def _planar_radius(self, chords, mp):
        c = [mp.mpf(x) for x in chords]
        m = max(range(len(c)), key=c.__getitem__)
        others = c[:m] + c[m + 1:]
        if mp.fsum(mp.asin(o / c[m]) for o in others) >= mp.pi / 2:
            def f(r):
                return mp.fsum(mp.asin(x / (2 * r)) for x in c) - mp.pi
        else:
            def f(r):
                return mp.fsum(mp.asin(o / (2 * r)) for o in others) - mp.asin(c[m] / (2 * r))
        hi = c[m]
        while (f(hi) > 0) == (f(c[m] / 2) > 0):
            hi *= 2
        return self._bisect(f, c[m] / 2, hi, mp)

    def _phi_root(self, chords, lo, mp):
        c = [mp.mpf(x) for x in chords]  # dominant last

        def f(x):
            return mp.asinh(c[-1] / (2 * x)) - mp.fsum(mp.asinh(o / (2 * x)) for o in c[:-1])

        lo = mp.mpf(lo)
        while f(lo) >= 0:
            lo /= 2
        hi = lo
        while f(hi) <= 0:
            hi *= 2
        return self._bisect(f, lo, hi, mp)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_root_matches_50_digits(self, geometry):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        with mpmath.workdps(50):
            checked = 0
            for request in draw_requests(seed=303, count=160):
                if request["geometry"] != geometry:
                    continue
                l = np.array(request["lengths"])
                try:
                    if geometry == "euclidean":
                        got, ref = euclidean.solve_euclidean(l).radius, self._planar_radius(l, mp)
                    elif geometry == "spherical":
                        chords = spherical.chord_from_arc(l)
                        got = spherical.solve_spherical(l).chordal_radius
                        ref = self._planar_radius(chords, mp)
                    elif geometry == "hyperbolic":
                        cls = hyperbolic.classify(l)
                        if cls.kind == hyperbolic.CIRCLE:
                            got = euclidean.solve_euclidean(cls.chords).radius
                            ref = self._planar_radius(cls.chords, mp)
                        else:
                            rot = cls.chords[hyperbolic.dominant_last(cls.index, l.size)]
                            got = hyperbolic.solve_hypercycle_radius(rot)
                            ref = self._phi_root(rot, 1.0, mp)
                    else:
                        dom = int(np.argmax(l))
                        rot = l[hyperbolic.dominant_last(dom, l.size)]
                        got = minkowski.solve_minkowski(l).radius
                        ref = self._phi_root(rot, rot.max() / 2, mp)
                except InfeasibleError:
                    continue
                assert abs(mp.mpf(got) / ref - 1) <= 1e-12, request
                checked += 1
            assert checked >= 20

    @pytest.mark.parametrize("k", range(1, 16))
    def test_spacetime_radius_near_threshold_matches_50_digits(self, k):
        # the dominant side past the sum of the others by 10**-k (relative): Phi
        # near its zero is the margin over 2x plus cubic tails, summed apart
        mpmath = pytest.importorskip("mpmath")
        l = np.array([1.0, 1.3, 0.7, 3.0 * (1.0 + 10.0**-k)])
        with mpmath.workdps(50):
            ref = self._phi_root(l, 1.5, mpmath.mp)
            got = minkowski.solve_minkowski(l).radius
            assert abs(mpmath.mpf(got) / ref - 1) <= 1e-14
