"""Special functions: frozen values, invariants, and quadrature agreement."""

import math
import warnings

import numpy as np
import pytest

from cyclicpoly import specfun
from cyclicpoly.errors import DimensionMismatchError, DomainError, InfiniteDivergenceError

from oracles import clausen2_quad, clh2_quad

# frozen from the quadrature oracles (cross-checked against mpmath)
CL2_HALF_PI = 0.915965594177219  # Catalan's constant
CL2_THIRD_PI = 1.0149416064096536  # global maximum of Cl2
CL2_TWO_THIRD_PI = 0.6766277376064358
LOB_QUARTER_PI = 0.4579827970886095
CLH2_ONE = 0.9861797794993301
CLH2_MINUS_THREE = 0.6554867984527668
KL_HALF_VS_QUARTERS = 0.14384103622589042


class TestClausen2:
    def test_zero(self):
        assert specfun.clausen2(0.0) == 0.0

    def test_pi_is_zero(self):
        assert abs(specfun.clausen2(math.pi)) <= 1e-12

    def test_half_pi(self):
        assert specfun.clausen2(math.pi / 2) == pytest.approx(CL2_HALF_PI, abs=1e-12)

    def test_third_pi_is_global_max(self):
        peak = specfun.clausen2(math.pi / 3)
        assert peak == pytest.approx(CL2_THIRD_PI, abs=1e-12)
        assert peak > specfun.clausen2(math.pi / 3 - 0.01)
        assert peak > specfun.clausen2(math.pi / 3 + 0.01)

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                specfun.clausen2(bad)

    def test_periodicity_and_oddness(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(-10.0, 10.0, 1000):
            x = float(x)
            assert abs(specfun.clausen2(x + 2 * math.pi) - specfun.clausen2(x)) <= 1e-12
            assert abs(specfun.clausen2(-x) + specfun.clausen2(x)) <= 1e-12

    def test_small_argument_asymptotics(self):
        # Cl2(x) = -x log|x| + x + o(x) as x -> 0
        for k in range(2, 9):
            x = 10.0 ** -k
            ratio = abs(specfun.clausen2(x) - (-x * math.log(x) + x)) / x
            assert ratio <= 10.0 * x

    def test_quadrature_agreement(self):
        rng = np.random.default_rng(12)
        for x in rng.uniform(-4 * math.pi, 4 * math.pi, 25):
            assert specfun.clausen2(float(x)) == pytest.approx(
                clausen2_quad(float(x)), abs=1e-10
            )

    def test_vectorized_matches_scalar(self):
        # one series kernel: bit for bit on [-pi, pi], where both argument
        # reductions are exact, and to 1e-14 beyond
        rng = np.random.default_rng(13)
        xs = np.concatenate((rng.uniform(-math.pi, math.pi, 64), [-math.pi, math.pi]))
        vec = specfun._clausen2_vec(xs)
        for x, v in zip(xs, vec):
            assert v.hex() == specfun.clausen2(float(x)).hex()
        xs = rng.uniform(-15.0, 15.0, 64)
        xs = xs[np.abs(xs) > math.pi]
        vec = specfun._clausen2_vec(xs)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(specfun.clausen2(float(x)), abs=1e-14)


class TestLobachevsky:
    def test_examples(self):
        assert specfun.lobachevsky(0.0) == 0.0
        assert abs(specfun.lobachevsky(math.pi / 2)) <= 1e-12
        assert specfun.lobachevsky(math.pi / 4) == pytest.approx(LOB_QUARTER_PI, abs=1e-12)

    def test_delegation_identity(self):
        rng = np.random.default_rng(14)
        for x in rng.uniform(-8.0, 8.0, 50):
            x = float(x)
            assert specfun.lobachevsky(x) == 0.5 * specfun.clausen2(2 * x)


class TestClh2:
    def test_zero(self):
        assert specfun.clh2(0.0) == 0.0

    def test_frozen_values(self):
        assert specfun.clh2(1.0) == pytest.approx(CLH2_ONE, abs=1e-12)
        assert specfun.clh2(-3.0) == pytest.approx(CLH2_MINUS_THREE, abs=1e-12)

    def test_oddness(self):
        rng = np.random.default_rng(15)
        for x in rng.uniform(0.0, 50.0, 200):
            x = float(x)
            assert abs(specfun.clh2(-x) + specfun.clh2(x)) <= 1e-13 * max(1.0, abs(specfun.clh2(x)))

    def test_quadrature_agreement(self):
        rng = np.random.default_rng(16)
        for x in rng.uniform(-50.0, 50.0, 25):
            assert specfun.clh2(float(x)) == pytest.approx(clh2_quad(float(x)), abs=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            specfun.clh2(math.nan)


class TestClh2ViaDilog:
    def test_zero(self):
        assert specfun.clh2_via_dilog(0.0) == 0.0

    def test_matches_clh2(self):
        for x in (1.0, -3.0, 0.25, -0.25, 2.0, 7.5, -20.0, 49.0):
            assert specfun.clh2_via_dilog(x) == pytest.approx(specfun.clh2(x), abs=1e-10)

    def test_identity_against_quadrature_on_positive_axis(self):
        # the dilogarithm identity is only trustworthy once verified against
        # the defining integral for x > 0
        for x in (0.1, 0.5, 1.0, 2.0, 3.7, 10.0, 30.0):
            assert specfun.clh2_via_dilog(x) == pytest.approx(clh2_quad(x), abs=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            specfun.clh2_via_dilog(math.inf)


class TestKLDivergence:
    def test_equal_distributions(self):
        assert specfun.kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_single_atom(self):
        assert specfun.kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_frozen_example(self):
        assert specfun.kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
            KL_HALF_VS_QUARTERS, abs=1e-14
        )

    def test_infinite_divergence_signalled(self):
        with pytest.raises(InfiniteDivergenceError):
            specfun.kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            specfun.kl_divergence([1.0], [0.5, 0.5])

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            assert specfun.kl_divergence(p / p.sum(), q / q.sum()) >= -1e-14

    def test_probdist_validation(self):
        with pytest.raises(DomainError):
            specfun.ProbDist([0.5, -0.1, 0.6])
        with pytest.raises(DomainError):
            specfun.ProbDist([0.5, 0.4])  # sums to 0.9
        with pytest.raises(DomainError):
            specfun.ProbDist([math.nan, 1.0])
        with pytest.raises(DomainError):
            specfun.ProbDist([])


class TestRatioInverses:
    """sin_ratio_inverse and sinh_ratio_inverse against 50-digit roots of
    x / sin x = a / b and sinh(x) / x = a / b, from a ratio within an ulp of 1
    up to the ends of their ranges."""

    @staticmethod
    def _check(inverse, ratio, top: float, seed: int):
        # a / b - 1 log-uniform from 1e-16 to top; b log-uniform on [1e-300, 1e-10]
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        b = np.exp(rng.uniform(math.log(1e-300), math.log(1e-10), 100))
        a = b * (1.0 + np.exp(rng.uniform(math.log(1e-16), math.log(top), 100)))
        with mpmath.workdps(50):
            for a, b in zip(a.tolist(), b.tolist()):
                level = mpmath.log(mpmath.mpf(a) / mpmath.mpf(b))
                lo, hi = mpmath.mpf(0), mpmath.mpf(inverse(a, b)) * 2
                for _ in range(180):  # bisection on the increasing log ratio
                    mid = (lo + hi) / 2
                    lo, hi = (lo, mid) if mpmath.log(ratio(mpmath, mid)) > level else (mid, hi)
                assert inverse(a, b) == pytest.approx(float(lo), rel=8e-16, abs=0), (a, b)

    def test_sin_ratio_inverse(self):
        self._check(specfun.sin_ratio_inverse, lambda mp, x: x / mp.sin(x), math.pi / 2 - 1 - 1e-6, 0)

    def test_sinh_ratio_inverse(self):
        self._check(specfun.sinh_ratio_inverse, lambda mp, x: mp.sinh(x) / x, 1e200, 1)

    def test_ends_of_the_ranges(self):
        # past pi/2 by rounding: pi/2; a / b past the float maximum: sinh(x) / x
        # = 1e600 at x - log(2x) = 600 log 10
        assert specfun.sin_ratio_inverse(math.pi / 2 + 1e-3, 1.0) == math.pi / 2
        x = specfun.sinh_ratio_inverse(1e300, 1e-300)
        assert x - math.log(2.0 * x) == pytest.approx(600.0 * math.log(10.0), rel=1e-15)


class TestInverseTail:
    """inverse_tail against 50 digits of arcsin x - x and arsinh x - x, within
    4 ulps of the tail, for x from 1e-300 up to TAIL_CUT."""

    @staticmethod
    def _ulps(x: np.ndarray, hyperbolic: bool) -> float:
        mpmath = pytest.importorskip("mpmath")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = specfun.inverse_tail(x, hyperbolic)
        worst = 0.0
        for xk, gk in zip(x.tolist(), got.tolist()):
            # arcsin x - x cancels 2 log10(1/x) digits: carry them on top of 50
            digits = 50 + 2 * max(0, -math.floor(math.log10(xk))) if xk else 50
            with mpmath.workdps(digits):
                x_mp = mpmath.mpf(xk)
                tail = (mpmath.asinh(x_mp) if hyperbolic else mpmath.asin(x_mp)) - x_mp
                worst = max(worst, float(abs(gk - tail)) / float(np.spacing(abs(float(tail)))))
        return worst

    @pytest.mark.parametrize("hyperbolic", [False, True], ids=["arcsin", "arsinh"])
    def test_one_argument_at_a_time(self, hyperbolic):
        # each argument sets its own number of terms
        rng = np.random.default_rng(7)
        x = np.concatenate((
            np.exp(rng.uniform(math.log(1e-300), math.log(specfun.TAIL_CUT), 150)),
            specfun.TAIL_CUT * (1.0 - np.exp(rng.uniform(math.log(1e-16), math.log(0.1), 30))),
            [0.0, math.nextafter(specfun.TAIL_CUT, 0.0)],
        ))
        assert max(self._ulps(x[k : k + 1], hyperbolic) for k in range(x.size)) <= 4.0

    @pytest.mark.parametrize("hyperbolic", [False, True], ids=["arcsin", "arsinh"])
    def test_vector_over_30_binades(self, hyperbolic):
        # the largest entry sets the number of terms for all of them
        x = np.ldexp(0.4999, -np.arange(30))
        assert self._ulps(x, hyperbolic) <= 4.0
        assert self._ulps(np.append(x, 0.0), hyperbolic) <= 4.0

    def test_zero(self):
        for hyperbolic in (False, True):
            assert specfun.inverse_tail(np.zeros(3), hyperbolic).tolist() == [0.0, 0.0, 0.0]
