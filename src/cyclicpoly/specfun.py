"""Scalar special functions backing the variational solvers.

Implements Clausen's integral

    Cl2(x) = -integral_0^x log|2 sin(t/2)| dt,

its hyperbolic analogue

    Clh2(x) = -integral_0^x log|2 sinh(t/2)| dt,

Milnor's Lobachevsky function Cl2(2x)/2, and the Kullback-Leibler
divergence between discrete distributions.  For the radius roots of the
chordal solvers it inverts x / sin(x) on (0, pi/2] and sinh(x) / x on
(0, inf), whose levels bound them in closed form, and sums the tails
arcsin x - x and arsinh x - x, of their defects near the existence threshold.

Cl2 is evaluated by reducing the argument mod 2*pi to (-pi, pi] and summing
the log-corrected series

    Cl2(x) = x * (1 - log|x| + sum_{n>=1} c_n (x/2pi)^(2n)),
    c_n = zeta(2n) / (n (2n+1)),

which converges like 4^-n on the reduced range.  Clh2 uses the sign-
alternating variant of the same series near zero and the exponential series
pi^2/6 - x^2/4 - sum_k e^(-kx)/k^2 for large arguments.  The advertised
absolute accuracy is 1e-12 (on [-4pi, 4pi] for Cl2, |x| <= 50 for Clh2);
in practice both stay within a few ulps.

All functions validate their input and fail loudly; nothing is clamped.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import TWO_PI, Vector
from .errors import DimensionMismatchError, DomainError, InfiniteDivergenceError

__all__ = [
    "clausen2",
    "lobachevsky",
    "clh2",
    "clh2_via_dilog",
    "ProbDist",
    "kl_divergence",
    "sin_ratio_inverse",
    "sinh_ratio_inverse",
    "inverse_tail",
]

_PI_SQ_6 = math.pi * math.pi / 6.0
_PI_SQ_3 = math.pi * math.pi / 3.0
_LN2 = math.log(2.0)

# c_n = zeta(2n)/(n(2n+1)), n = 1..30.  Truncation error of the Cl2 series at
# |x| = pi is below 1e-18.
_CL2_COEFFS = (
    0.54831135561607547882,
    0.10823232337111381915,
    0.048444907713545197129,
    0.027891037672165120538,
    0.018199901365960328824,
    0.012823667776324462158,
    0.0095243928393815114746,
    0.0073530535460250636167,
    0.0058479755397266959055,
    0.0047619093045811136800,
    0.0039525701124525799515,
    0.0033333335320272968375,
    0.0028490028914574211634,
    0.0024630541963678177950,
    0.0021505376364114568439,
    0.0018939393943803620897,
    0.0016806722690053911275,
    0.0015015015015233512341,
    0.0013495276653220485554,
    0.0012195121951230603595,
    0.0011074197120711266597,
    0.0010101010101010675186,
    0.00092506938020352840967,
    0.00085034013605442478972,
    0.00078431372549019677504,
    0.00072568940493468811469,
    0.00067340067340067343805,
    0.00062656641604010025932,
    0.00058445353594389246258,
    0.00054644808743169398955,
)


#: 1/(2k+1)!, k = 13..1: with them the series of sinh(x) - x and x - sin(x)
#: is exact to rounding below x = 5/2, where the differences lose digits
_ODD_TAIL = tuple(1.0 / math.factorial(2 * k + 1) for k in range(13, 0, -1))

#: Newton steps of the ratio inverses; from their starts a few suffice
_RATIO_STEPS = 40

#: C(2n, n) / (4^n (2n + 1)), n = 1..29: arcsin x = x + sum c_n x^(2n+1), and
#: arsinh x the same with signs (-1)^n; below TAIL_CUT, 29 terms suffice
_ASIN_COEFFS = tuple(math.comb(2 * n, n) / (4**n * (2 * n + 1)) for n in range(1, 30))
TAIL_CUT = 0.5


def _require_finite(x, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _cl2_series(r: float, sign: float = 1.0) -> float:
    # sum_{n>=1} (sign)^n c_n y^n  with y = (r/2pi)^2, then the log correction
    y = (r / TWO_PI) ** 2
    s = 0.0
    p = 1.0
    for c in _CL2_COEFFS:
        p *= sign * y
        s += c * p
    return r * (1.0 - math.log(abs(r)) + s)


def clausen2(x: float) -> float:
    """Clausen's integral Cl2(x); 2*pi-periodic, odd, continuous."""
    x = _require_finite(x)
    r = math.remainder(x, TWO_PI)
    if r == 0.0:
        return 0.0
    return _cl2_series(r)


def _clausen2_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized Cl2 for internal use (input assumed finite)."""
    x = np.asarray(x, dtype=float)
    r = x - TWO_PI * np.round(x / TWO_PI)
    y = (r / TWO_PI) ** 2
    s = _CL2_COEFFS[-1] * y  # Horner from (0 + c_30) * y
    for c in reversed(_CL2_COEFFS[:-1]):  # in place: no new array per coefficient
        s += c
        s *= y
    with np.errstate(divide="ignore", invalid="ignore"):
        out = r * (1.0 - np.log(np.abs(r)) + s)
    out[r == 0.0] = 0.0
    return out


def lobachevsky(x: float) -> float:
    """Milnor's Lobachevsky function: Cl2(2x)/2, by delegation to clausen2."""
    x = _require_finite(x)
    return 0.5 * clausen2(2.0 * x)


def _dilog_series(u: float) -> float:
    # Li2(u) = sum u^k / k^2, for |u| <= 1/2 (short tail)
    s = 0.0
    p = 1.0
    for k in range(1, 80):
        p *= u
        t = p / (k * k)
        s += t
        if abs(t) < 1e-18:
            break
    return s


def _li2_exp_neg(t: float) -> float:
    """Li2(e^-t) for t >= 0, accurate through u = e^-t near 1."""
    if t >= _LN2:
        return _dilog_series(math.exp(-t))
    # u in (1/2, 1]: reflect; log(u) = -t exactly, 1-u via expm1
    w = -math.expm1(-t)
    if w == 0.0:
        return _PI_SQ_6
    return _PI_SQ_6 + t * math.log(w) - _dilog_series(w)


def clh2(x: float) -> float:
    """Hyperbolic analogue of Clausen's integral: -int_0^x log|2 sinh(t/2)| dt.

    Odd in x.  Uses the alternating series for |x| <= 1 and the exponential
    series pi^2/6 - x^2/4 - sum e^(-kx)/k^2 beyond.
    """
    x = _require_finite(x)
    if x == 0.0:
        return 0.0
    ax = abs(x)
    if ax <= 1.0:
        return _cl2_series(x, sign=-1.0)
    tail = _dilog_series(math.exp(-ax))  # Li2(e^-|x|)
    return math.copysign(1.0, x) * (_PI_SQ_6 - 0.25 * ax * ax - tail)


def clh2_via_dilog(x: float) -> float:
    """Clh2 through the dilogarithm identity Re Li2(e^x) + x^2/4 - pi^2/6.

    For x > 0 the real part of the principal branch is obtained from the
    inversion formula Re Li2(u) = pi^2/3 - log(u)^2/2 - Li2(1/u).  Cross-
    checks clh2 to better than 1e-10; both are tested against quadrature.
    """
    x = _require_finite(x)
    if x == 0.0:
        return 0.0
    if x > 0.0:
        re_li2 = _PI_SQ_3 - 0.5 * x * x - _li2_exp_neg(x)
    else:
        re_li2 = _li2_exp_neg(-x)
    return re_li2 + 0.25 * x * x - _PI_SQ_6


class ProbDist(Vector):
    """Discrete probability distribution: non-negative weights summing to 1."""

    __slots__ = ()
    _what = "weights"

    def _check(self, arr):
        if (arr < 0.0).any():
            raise DomainError("weights must be non-negative")
        total = math.fsum(arr.tolist())
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1 (got {total!r})")


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence sum p_k log(p_k/q_k), with 0 log(0/q) = 0.

    Non-negative up to rounding (>= -1e-14), and zero iff p == q.  Raises
    InfiniteDivergenceError where p_k > 0 meets q_k = 0 instead of returning
    +inf, since every caller in this package has strictly positive q.
    """
    p = ProbDist.coerce(p)
    q = ProbDist.coerce(q)
    if len(p) != len(q):
        raise DimensionMismatchError(
            f"distributions must have equal length ({len(p)} vs {len(q)})"
        )
    terms = []
    for k, (pk, qk) in enumerate(zip(p.values, q.values)):
        if pk == 0.0:
            continue
        if qk == 0.0:
            raise InfiniteDivergenceError(
                f"divergence is infinite: p[{k}] = {pk} > 0 but q[{k}] = 0"
            )
        terms.append(pk * math.log(pk / qk))
    return math.fsum(terms)


def _odd_tail(x: float, hyperbolic: bool) -> float:
    """sinh(x) - x (hyperbolic) or x - sin(x), for x >= 0, to a few ulps: from
    the series x^3/3! +- x^5/5! + ... below 5/2, directly above."""
    if x >= 2.5:
        return math.sinh(x) - x if hyperbolic else x - math.sin(x)
    z = x * x if hyperbolic else -x * x
    acc = 0.0
    for c in _ODD_TAIL:
        acc = acc * z + c
    return acc * x * x * x


def _newton_from_above(x: float, step) -> float:
    # a convex function increasing past its root, from a start above it: the
    # steps shrink monotonically, quadratically once small
    for _ in range(_RATIO_STEPS):
        dx = step(x)
        if not dx > 0.0:  # at the root, or past it by rounding
            break
        x -= dx
        if dx <= 1e-9 * x:  # the next step would be below rounding
            break
    return x


def sin_ratio_inverse(a: float, b: float) -> float:
    """The x in (0, pi/2] with x / sin(x) = a / b, for positive b < a <= b pi/2
    (pi/2 where rounding puts a / b past pi/2), to a few ulps.

    Newton from above on (x - sin x) - s sin x, s = (a - b) / b, which is
    convex and increasing from its root on.  The start solves the first two
    terms of x / sin x - 1 = x^2/6 + 7x^4/360 + ... = s, whose terms are all
    positive, so it lies above the root.
    """
    s = (a - b) / b
    x = min(math.sqrt(12.0 * s / (1.0 + math.sqrt(1.0 + 2.8 * s))), 0.5 * math.pi)
    return _newton_from_above(
        x,
        lambda x: (_odd_tail(x, False) - s * math.sin(x))
        / (2.0 * math.sin(0.5 * x) ** 2 - s * math.cos(x)),
    )


def sinh_ratio_inverse(a: float, b: float) -> float:
    """The x > 0 with sinh(x) / x = a / b, for positive b < a, to a few ulps.

    Newton from above.  Where s = (a - b) / b is at most 1 (x below 2.18), on
    (sinh x - x) - s x, started at the root of x^2/6 + x^4/120 = s as in
    sin_ratio_inverse.  Above, on log(sinh(x) / x) - log(a / b), whose
    logarithms never overflow, started at 2 (log(a / b) + 1), where it is
    positive.
    """
    s = (a - b) / b
    if s <= 1.0:
        x = math.sqrt(12.0 * s / (1.0 + math.sqrt(1.0 + 1.2 * s)))
        return _newton_from_above(
            x, lambda x: (_odd_tail(x, True) - s * x) / (2.0 * math.sinh(0.5 * x) ** 2 - s)
        )
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    level = math.log(ma / mb) + (ea - eb) * _LN2  # log(a / b), where a / b overflows
    return _newton_from_above(
        2.0 * (level + 1.0),
        lambda x: (x - _LN2 + math.log1p(-math.exp(-2.0 * x)) - math.log(x) - level)
        / (1.0 / math.tanh(x) - 1.0 / x),
    )


def inverse_tail(x: np.ndarray, hyperbolic: bool) -> np.ndarray:
    """arsinh x - x (hyperbolic) or arcsin x - x, entrywise for 0 <= x < TAIL_CUT, to a
    few ulps: x^3 (1/6 -+ 3x^2/40 + ...), up to the first power of max x^2 below 1e-17."""
    z = x * x
    top = float(z.max())
    k = next((k for k in range(1, len(_ASIN_COEFFS)) if top**k <= 1e-17), len(_ASIN_COEFFS))
    w = -z if hyperbolic else z
    s = np.full_like(z, _ASIN_COEFFS[k - 1])
    for c in reversed(_ASIN_COEFFS[: k - 1]):  # Horner, in place
        s *= w
        s += c
    return x * (w * s)
