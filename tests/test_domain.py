"""Validated input vectors: construction rules and invariants."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclicpoly import domain
from cyclicpoly.domain import (
    FSUM_CUTOFF,
    PREFIX_CUTOFF,
    TWO_PI,
    CentralAngles,
    FootDistances,
    SideLengths,
    columns,
    dominance,
    excess,
    fsum,
    mean,
    prefix_sums,
)
from cyclicpoly.errors import DomainError
from cyclicpoly.specfun import ProbDist

#: one valid value for each validated vector class
VECTORS = [
    (SideLengths, [3.0, 4.0, 5.0]),
    (CentralAngles, [TWO_PI / 3] * 3),
    (FootDistances, [1.0, 2.0, 3.0]),
    (ProbDist, [0.25, 0.75]),
]


@pytest.mark.parametrize("cls,valid", VECTORS, ids=[c.__name__ for c, _ in VECTORS])
class TestVectorBase:
    def test_values_are_read_only(self, cls, valid):
        arr = np.array(valid)
        v = cls(arr)
        with pytest.raises(ValueError):
            v.values[0] = 9.0
        arr[0] = 9.0  # the caller's array is copied, not frozen
        assert v.values[0] == valid[0]

    def test_coerce_passes_through(self, cls, valid):
        v = cls(valid)
        assert cls.coerce(v) is v

    def test_repr_round_trips(self, cls, valid):
        v = cls(valid)
        assert repr(v).startswith(f"{cls.__name__}(")
        again = eval(repr(v), {cls.__name__: cls})
        assert type(again) is cls and again.values.tolist() == v.values.tolist()


class TestSideLengths:
    def test_accepts_valid(self):
        s = SideLengths([3, 4, 5])
        assert s.n == 3 and len(s) == 3
        assert list(s) == [3.0, 4.0, 5.0]
        assert s[1] == 4.0

    @pytest.mark.parametrize(
        "bad",
        [[1, 1], [1, 0, 1], [1, -1, 1], [1, math.inf, 1], [1, math.nan, 1], [[1, 2, 3]]],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(DomainError):
            SideLengths(bad)


class TestCentralAngles:
    def test_interior_point(self):
        a = CentralAngles([TWO_PI / 3] * 3)
        assert a.is_interior

    def test_boundary_point(self):
        a = CentralAngles([TWO_PI, 0.0, 0.0])
        assert not a.is_interior

    def test_sum_tolerance(self):
        CentralAngles([TWO_PI / 3] * 3)  # exact
        CentralAngles([TWO_PI / 3 + 3e-13, TWO_PI / 3, TWO_PI / 3])  # within 1e-12
        with pytest.raises(DomainError):
            CentralAngles([TWO_PI / 3 + 1e-11, TWO_PI / 3, TWO_PI / 3])
        with pytest.raises(DomainError):
            CentralAngles([2.0, 2.0, 2.0])  # sums to 6, not 2*pi

    @pytest.mark.parametrize(
        "bad",
        [
            [math.pi, math.pi],  # a 2-gon is rejected upstream of any solver
            [TWO_PI / 3, TWO_PI / 3, -1e-3],
            [math.nan, math.pi, math.pi],
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(DomainError):
            CentralAngles(bad)


class TestDominance:
    def test_margin_of_the_largest_entry(self):
        assert dominance([1.0, 5.0, 2.0]) == (1, 2.0)
        assert dominance([3.0, 4.0, 5.0]) == (2, -2.0)

    def test_first_of_tied_entries(self):
        assert dominance([2.0, 1.0, 2.0]) == (0, -1.0)

    def test_rest_past_the_float_maximum(self):
        # fsum of the rest overflows: the margin is taken in units of 2**k
        # and is the correctly rounded exact margin
        for v in ([1e308, 1e308, 1.5e308], [1e308, 1e308, 1.7e308], [1.7e308, 1.2e308, 1e308]):
            m, margin = dominance(v)
            assert m == int(np.argmax(v))
            exact = Fraction(v[m]) - sum(Fraction(x) for k, x in enumerate(v) if k != m)
            assert margin == float(exact)
        assert dominance([1e308, 1e308, 1.5e308]) == (2, -5e307)

    def test_margin_past_the_float_maximum(self):
        # the true margin -2 * 1.7e308 is itself below -(float max)
        assert dominance([1.7e308] * 4) == (0, -math.inf)


def _fsum_outcome(total, x):
    """The bits of total(x), or the class of what it raised."""
    try:
        return total(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _math_fsum(x):
    return math.fsum(x.tolist())


#: every finite float, subnormals and +-0 included
any_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestFsum:
    @given(st.lists(any_finite, min_size=1, max_size=40))
    # a tie broken by 2**-600, the one entry three passes leave over
    @example([1.0, -1.0, 2.0**-200, 2.0**-253, 2.0**-600])
    @settings(max_examples=300, deadline=None)
    def test_extraction_at_any_size_is_math_fsum(self, values):
        x = np.array(values, dtype=float)
        with mock.patch.object(domain, "FSUM_CUTOFF", 0):
            assert _fsum_outcome(fsum, x) == _fsum_outcome(_math_fsum, x)

    @given(
        st.sampled_from([3, FSUM_CUTOFF - 1, FSUM_CUTOFF, 1500]),
        st.integers(min_value=-1074, max_value=1023),
        st.integers(min_value=0, max_value=2100),
        st.sampled_from(["positive", "mixed", "cancelling"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_long_vectors_are_math_fsum(self, n, top, spread, signs, seed):
        # entries 2**e times a mantissa in [1, 2), e uniform on [top - spread, top]
        rng = np.random.default_rng(seed)
        e = rng.integers(max(top - spread, -1074), top + 1, n)
        x = np.ldexp(rng.uniform(1.0, 2.0, n), e)
        if signs == "mixed":
            x *= rng.choice([-1.0, 1.0], n)
        elif signs == "cancelling":  # the largest quarter cancelled exactly
            x.sort()
            x[: n // 4] = -x[n - n // 4:]
            rng.shuffle(x)
        assert _fsum_outcome(fsum, x) == _fsum_outcome(_math_fsum, x)

    @pytest.mark.parametrize("n", [3, FSUM_CUTOFF])
    def test_raises_what_math_fsum_raises(self, n):
        with pytest.raises(OverflowError):  # an intermediate sum past the float maximum
            fsum(np.full(n, 1e308))
        with pytest.raises(ValueError):  # inf - inf
            fsum(np.concatenate(([math.inf, -math.inf], np.ones(n))))
        assert fsum(np.concatenate(([math.inf], np.ones(n)))) == math.inf
        assert math.isnan(fsum(np.concatenate(([math.nan], np.ones(n)))))

    def test_zero_sums(self):
        for x in ([-0.0] * FSUM_CUTOFF, [1.0, -1.0] * FSUM_CUTOFF, [0.0] * FSUM_CUTOFF):
            x = np.array(x)
            assert fsum(x).hex() == math.fsum(x.tolist()).hex()

    @given(st.lists(any_finite, min_size=1, max_size=40), st.lists(any_finite, max_size=3))
    @example([math.pi / 2, math.pi / 2, 2.0**-60], [-math.pi])
    @settings(max_examples=200, deadline=None)
    def test_more_terms_are_summed_after_the_array(self, values, more):
        # the inside defect's sum less math.pi, rounded once
        x = np.array(values, dtype=float)

        def total(x):
            return math.fsum(x.tolist() + more)

        assert _fsum_outcome(lambda x: fsum(x, *more), x) == _fsum_outcome(total, x)
        with mock.patch.object(domain, "FSUM_CUTOFF", 0):
            assert _fsum_outcome(lambda x: fsum(x, *more), x) == _fsum_outcome(total, x)


class TestExcess:
    @pytest.mark.parametrize("n", [5, FSUM_CUTOFF, 1500])
    def test_entry_less_the_fsum_of_the_rest(self, n):
        # the fsum path from FSUM_CUTOFF entries gives the short path's value
        v = np.random.default_rng(n).uniform(0.25, 4.0, n)
        for m in (-1, n - 1, 0, n // 2):
            rest = np.delete(v, m).tolist()
            assert excess(v, m).hex() == (v[m] - math.fsum(rest)).hex()


def _spanning(n: int, span: int, low: int, signs: bool, zeros: bool, rng) -> np.ndarray:
    """n entries whose smallest and largest magnitudes are 2**low and 0.75 *
    2**(low + span + 1), frexp exponents span apart, with random signs, or 3
    zeros, if asked."""
    e = rng.integers(low + 2, low + span + 1, n)
    x = np.ldexp(rng.uniform(0.5, 1.0, n), e)
    x[:2] = 0.75 * 2.0 ** (low + span + 1), 2.0**low
    if signs:
        x *= rng.choice([-1.0, 1.0], n)
    if zeros:
        x[rng.integers(2, n, 3)] = 0.0
    return x


def _exact(x) -> Fraction:
    return sum(map(Fraction, np.asarray(x).tolist()), Fraction(0))


class TestEarlyExit:
    """From FSUM_CUTOFF entries, fsum stops after the first extraction pass where x
    spans at most 53 - 2 * bit_length(n + 2) binades: the remainder sums exactly."""

    @pytest.mark.parametrize("n", [FSUM_CUTOFF - 1, FSUM_CUTOFF, 10**4])
    @pytest.mark.parametrize("wider", [0, 1], ids=["at-the-span", "one-binade-more"])
    @pytest.mark.parametrize("low", [-20, -1060], ids=["normal", "subnormal"])
    @pytest.mark.parametrize("signs", [False, True], ids=["positive", "mixed"])
    @pytest.mark.parametrize("zeros", [False, True], ids=["no-zeros", "zeros"])
    def test_parts_are_exact_and_the_exit_taken_where_it_holds(self, n, wider, low, signs, zeros):
        shift = (n + 2).bit_length()
        rng = np.random.default_rng([n, wider, -low, signs, zeros])
        x = _spanning(n, 53 - 2 * shift + wider, low, signs, zeros, rng)
        a = np.abs(x[x != 0.0])
        assert math.frexp(a.max())[1] - math.frexp(a.min())[1] == 53 - 2 * shift + wider
        parts = domain._parts(x)
        assert _exact(parts) == _exact(x)
        # the first pass, replayed: the part and, at the exit, the remainder
        sigma = 2.0 ** (math.frexp(float(np.abs(x).max()))[1] + shift)
        q = (x + sigma) - sigma
        assert Fraction(parts[0]) == _exact(q)
        exits = not (wider or zeros)
        assert (len(parts) == 2) == exits
        if exits:
            assert Fraction(parts[1]) == _exact(x - q)
        assert fsum(x).hex() == math.fsum(x.tolist()).hex()
        assert fsum(x, -0.5, 2.0**-70).hex() == math.fsum(x.tolist() + [-0.5, 2.0**-70]).hex()
        for m in (0, -1, int(x.argmax()), n // 2):
            assert excess(x, m).hex() == (x[m] - math.fsum(np.delete(x, m).tolist())).hex()

    def test_a_sum_past_the_float_maximum_keeps_its_path(self):
        # the whole sum passes the float maximum, the rest without the first
        # entry does not: no split, and excess takes math.fsum of the rest
        v = np.array([1.7e308, 1e308] + [1.0] * 1000)
        assert domain._parts(v) is None
        with pytest.raises(OverflowError):
            fsum(v)
        want = (1.7e308 - math.fsum(v[1:].tolist())).hex()
        assert excess(v, 0).hex() == want
        assert dominance(v)[0] == 0 and dominance(v)[1].hex() == want
        # the rest passes it too: dominance's margin in units of 2**k
        v = np.array([1.5e308, 1e308, 1e308] + [1.0] * 1000)
        with pytest.raises(OverflowError):
            excess(v, 0)
        assert dominance(v) == (0, float(Fraction(1.5e308) - _exact(v[1:])))


class TestColumns:
    @pytest.mark.parametrize("n", [1, 3, 1000])
    def test_column_major_matrix_of_its_columns(self, n):
        # stored column by column: a reduction along n runs over contiguous memory
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        m = columns(n, x, 0.75, -x)
        assert m.shape == (n, 3) and m.flags.f_contiguous
        assert m[:, 0].tobytes() == x.tobytes()
        assert (m[:, 1] == 0.75).all()
        assert m[:, 2].tobytes() == (-x).tobytes()

    def test_one_column(self):
        m = columns(4, 2.5)
        assert m.shape == (4, 1) and m.flags.f_contiguous and (m == 2.5).all()


class TestMean:
    def test_plain_mean_where_it_is_finite(self):
        x = np.random.default_rng(3).uniform(0.5, 2.0, 101)
        assert mean(x) == float(x.mean())

    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_sum_past_the_float_maximum(self, n):
        x = np.full(n, 1.5e308)
        with np.errstate(over="ignore"):
            assert math.isinf(float(x.mean()))
        with np.errstate(over="raise"):  # the plain mean is not tried
            assert mean(x) == 1.5e308

    @pytest.mark.parametrize("n", [3, 4, 1000])
    def test_plain_mean_below_the_scaling_threshold(self, n):
        # n entries below 2**(1024 - k), k the bit length of n, cannot sum
        # past the float maximum, so the plain mean raises no overflow
        x = np.full(n, np.nextafter(math.ldexp(1.0, 1024 - n.bit_length()), 0.0))
        with np.errstate(over="raise"):
            assert mean(x) == x[0]


class TestPrefixSums:
    @staticmethod
    def assert_matches_fsum(marks):
        hi, lo = prefix_sums(marks)
        assert len(hi) == len(lo) == len(marks)
        for j in range(len(marks)):
            assert hi[j] == math.fsum(marks[:j]), j
            assert abs(lo[j]) <= 0.5 * math.ulp(hi[j])

    @pytest.mark.parametrize("seed,n", [(0, 3), (1, 10), (2, 100), (3, 1000), (4, 10000)])
    def test_log_uniform_marks(self, seed, n):
        rng = np.random.default_rng(seed)
        marks = np.exp(rng.uniform(math.log(1e-12), math.log(1e3), n)).tolist()
        self.assert_matches_fsum(marks)

    @pytest.mark.parametrize(
        "marks",
        [
            [0.1] * 1000,
            [TWO_PI / 7] * 7,
            [1e3] + [1e-12] * 999,
            [1e-12] * 500 + [1e3] + [1e-12] * 499,
        ],
    )
    def test_hand_picked_marks(self, marks):
        self.assert_matches_fsum(marks)

    def test_empty(self):
        hi, lo = prefix_sums([])
        assert hi.size == lo.size == 0

    def test_last_bit_near_a_rounding_tie(self):
        # 1 + 2^-53 + 2^-106 lies just above a tie, beyond double-double
        # precision: hi rounds the tie to even, one ulp below math.fsum
        marks = [1.0, 2.0**-53, 2.0**-106, 0.0]
        hi, lo = prefix_sums(marks)
        assert hi[3] == 1.0 and lo[3] == 2.0**-53
        assert math.fsum(marks[:3]) == 1.0 + 2.0**-52

    def test_last_bit_near_a_rounding_tie_in_numpy(self):
        # the same tie on the vector path: the error sum E rounds it alike
        marks = [1.0, 2.0**-53, 2.0**-106] + [0.0] * PREFIX_CUTOFF
        hi, lo = prefix_sums(marks)
        assert hi[3] == 1.0 and lo[3] == 2.0**-53

    @pytest.mark.parametrize("n", [PREFIX_CUTOFF - 1, PREFIX_CUTOFF, 5000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_loop_and_vector_paths_agree(self, n, seed):
        # marks spread over 2**87: hi is bit for bit the same on both paths,
        # and lo is within half an ulp of hi on both
        marks = np.exp(np.random.default_rng(seed).uniform(-30.0, 30.0, n))
        paths = []
        for cutoff in (0, n + 1):
            with mock.patch.object(domain, "PREFIX_CUTOFF", cutoff):
                paths.append(prefix_sums(marks))
        (hi, lo), (loop_hi, loop_lo) = paths
        assert hi.tobytes() == loop_hi.tobytes()
        for h, l in ((hi, lo), (loop_hi, loop_lo)):
            assert (np.abs(l) <= 0.5 * np.spacing(h)).all()
