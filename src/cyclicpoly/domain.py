"""Validated input vectors, the exact sum, the dominance margin and the
compensated prefix sums shared by every geometry module."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi

#: absolute tolerance on sum(angles) == 2*pi
ANGLE_SUM_TOL = 1e-12

#: the sizes from which fsum and prefix_sums run in numpy: fsum's one extraction
#: pass beats math.fsum from about 350-400 entries, and prefix_sums beats the
#: two-sum loop from about 80 marks
FSUM_CUTOFF, PREFIX_CUTOFF = 450, 80


def fsum(x: np.ndarray, *more: float) -> float:
    """math.fsum of the entries of a 1-d float array and then ``more``, bit for
    bit, raising what it raises.

    From FSUM_CUTOFF entries, one error-free extraction pass (Rump, Ogita and
    Oishi, SIAM J. Sci. Comput. 31, 2008) splits off parts q = (sigma + x) - sigma,
    sigma = 2**(e + shift) with max|x| < 2**e and shift = bit_length(n + 2), which
    numpy sums exactly in any order.  The remainder's entries are multiples of
    ulp(min|x|) below 2**(e + shift - 53), so numpy sums it exactly too where e is
    at most 53 - 2 * shift above the exponent of a nonzero min|x|, as it is for
    the solvers' vectors.  math.fsum then rounds the two sums and ``more`` once.
    Elsewhere (a 0, a wider span, a NaN or an infinity, a sigma past 2**1023),
    the vector goes to math.fsum as is.
    """
    if x.size < FSUM_CUTOFF or (parts := _parts(x)) is None:
        terms = x.tolist()
        if more:
            terms.extend(more)
        return math.fsum(terms)
    return math.fsum([*parts, *more])


def _parts(x: np.ndarray) -> list | None:
    """The two exact sums of fsum's extraction pass over x, or None where x goes
    to math.fsum as is."""
    shift = (x.size + 2).bit_length()
    a = np.abs(x)
    m, low = float(a.max()), float(a.min())
    e = math.frexp(m)[1]
    if not (0.0 < low and m < math.ldexp(1.0, 1023 - shift)
            and e <= math.frexp(low)[1] + 53 - 2 * shift):
        return None
    sigma = math.ldexp(1.0, e + shift)
    q = (x + sigma) - sigma
    return [float(q.sum()), float((x - q).sum())]


def excess(v: np.ndarray, m: int) -> float:
    """v[m] minus the fsum of the other entries of v: from FSUM_CUTOFF entries,
    fsum's parts of all of v and -v[m], rounded once by math.fsum, without a copy
    of the rest.  Where no split applies, the rest goes to math.fsum."""
    if v.size < FSUM_CUTOFF or (parts := _parts(v)) is None:
        rest = v.tolist()
        return rest.pop(m) - math.fsum(rest)
    return float(v[m]) - math.fsum([*parts, -float(v[m])])


def prefix_sums(marks) -> tuple[np.ndarray, np.ndarray]:
    """Compensated running sums of ``marks``, in O(n).

    Returns arrays ``hi``, ``lo`` of length n where hi[j] + lo[j] is the
    double-double value of marks[0] + ... + marks[j-1] (so hi[0] = lo[0] = 0
    and the full total is not included).  hi[j] is the correctly rounded sum
    (as math.fsum gives it) unless the exact sum lies within double-double
    precision of a rounding tie, where it can be one ulp off, and |lo[j]| is
    at most half an ulp of hi[j].  Plain running sums let rounding leak into
    the short sides of very eccentric polygons.

    Below PREFIX_CUTOFF marks a two-sum loop renormalizes the pair at every step.
    From it, hi = S + E, with S the plain running sums and E the running sums of
    each step's exact two-sum error, and lo is the rounding error of S + E: the
    same hi, and a lo that also carries the rounding of E in its last bits.
    """
    a = np.asarray(marks, dtype=float)
    if a.size < PREFIX_CUTOFF:
        his, los = [], []
        hi = lo = 0.0
        for x in a.tolist():
            his.append(hi)
            los.append(lo)
            t = hi + x  # two-sum: exact error of hi + x goes into lo
            b = t - hi
            lo += (hi - (t - b)) + (x - b)
            hi = t + lo  # renormalize the (hi, lo) pair
            lo -= hi - t
        return np.array(his), np.array(los)
    s = np.cumsum(np.concatenate(([0.0], a[:-1])))
    b = s[1:] - s[:-1]  # two-sum of s[j-1] + a[j-1] = s[j]
    e = np.cumsum(np.concatenate(([0.0], (s[:-1] - (s[1:] - b)) + (a[:-1] - b))))
    hi = s + e
    return hi, e - (hi - s)


def dominance(values) -> tuple[int, float]:
    """Index m of the largest entry (the first, on ties) and the signed
    margin v[m] - fsum(rest): the sign test every geometry starts from.  Where
    the rest sum past the float maximum, the margin is taken in units of 2**k,
    with k the exponent of v[m]; it is -inf only where it is itself below
    -(float max)."""
    v = np.asarray(values, dtype=float)
    m = int(v.argmax())
    try:
        return m, excess(v, m)
    except OverflowError:  # fsum's intermediate overflow: positive entries only
        k = math.frexp(float(v[m]))[1]
        scaled = fsum(np.ldexp(np.append(-np.delete(v, m), v[m]), -k))
        try:
            return m, math.ldexp(scaled, k)
        except OverflowError:  # math.ldexp raises where the margin overflows
            return m, -math.inf


def columns(n: int, *cols) -> np.ndarray:
    """The n-row matrix of these columns, stored column by column, so that the
    report gates' reductions along n run over contiguous memory; a scalar fills
    its column."""
    out = np.empty((len(cols), n))
    for j, col in enumerate(cols):
        out[j] = col
    return out.T


def mean(x: np.ndarray) -> float:
    """x.mean() where no sum of x can pass the float maximum, else the mean of
    x / 2**k times 2**k, with k the bit length of x.size."""
    k = x.size.bit_length()
    if x.max() < math.ldexp(1.0, 1024 - k):
        return float(x.sum() / x.size)  # x.mean(), bit for bit
    return math.ldexp(float(np.ldexp(x, -k).mean()), k)


class Vector:
    """Validated, read-only 1-d vector of finite floats.

    The entries are copied, so freezing them never touches the caller's
    array.  A subclass names its entries in ``_what``, sets ``min_size`` and
    adds its own rule in ``_check``.
    """

    __slots__ = ("values",)
    _what = "entries"
    min_size = 1

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise DomainError(f"{self._what} must be a 1-d vector")
        if arr.size < self.min_size:
            raise DomainError(
                f"too few {self._what}: need at least {self.min_size}, got {arr.size}"
            )
        if not np.isfinite(arr).all():
            raise DomainError(f"{self._what} must be finite")
        self._check(arr)
        arr.setflags(write=False)
        self.values = arr

    def _check(self, arr: np.ndarray) -> None:
        """Raise DomainError unless ``arr`` obeys the subclass's rule."""

    @classmethod
    def coerce(cls, obj):
        return obj if isinstance(obj, cls) else cls(obj)

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, k):
        return self.values[k]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.values.tolist()!r})"


class SideLengths(Vector):
    """Vector of n >= 3 strictly positive, finite side lengths."""

    __slots__ = ()
    _what = "side lengths"
    min_size = 3

    def _check(self, arr):
        if (arr <= 0.0).any():
            k = int(np.argmax(arr <= 0.0))
            raise DomainError(f"side lengths must be strictly positive (side {k} is {arr[k]})")


class CentralAngles(Vector):
    """Point of the closed simplex: n non-negative angles summing to 2*pi.

    The sum constraint is enforced to ANGLE_SUM_TOL in absolute terms.
    ``is_interior`` distinguishes the open simplex (all entries positive,
    where the variational functional is differentiable) from its boundary.
    """

    __slots__ = ()
    _what = "central angles"
    min_size = 3

    def _check(self, arr):
        if (arr < 0.0).any():
            k = int(np.argmax(arr < 0.0))
            raise DomainError(f"central angles must be non-negative (entry {k} is {arr[k]})")
        total = fsum(arr)
        if abs(total - TWO_PI) > ANGLE_SUM_TOL:
            raise DomainError(
                f"central angles must sum to 2*pi (got {total!r}, off by {total - TWO_PI:.3e})"
            )

    @property
    def is_interior(self) -> bool:
        """True iff the point lies in the open simplex (every entry > 0)."""
        return bool((self.values > 0.0).all())


class FootDistances(Vector):
    """Distances between consecutive perpendicular feet on the axis geodesic
    (hyperbolic hypercycle) or rapidity increments (1+1 spacetime).

    In caller side order; with the dominant side reindexed last, the
    dominant entry equals the sum of the others (its foot segment comprises
    all the others).
    """

    __slots__ = ()
    _what = "foot distances"

    def _check(self, arr):
        if (arr <= 0.0).any():
            raise DomainError("foot distances must be positive")
