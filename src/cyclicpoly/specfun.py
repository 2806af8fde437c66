"""Scalar special functions backing the variational solvers.

Implements Clausen's integral

    Cl2(x) = -integral_0^x log|2 sin(t/2)| dt,

its hyperbolic analogue

    Clh2(x) = -integral_0^x log|2 sinh(t/2)| dt,

Milnor's Lobachevsky function Cl2(2x)/2, and the Kullback-Leibler
divergence between discrete distributions.  For the radius roots of the
chordal solvers it solves T(x) = s x for the odd tails T(x) = x - sin x and
sinh x - x (tail_root), whose roots bound them in closed form, and sums the
tails arcsin x - x and arsinh x - x of their defects near the existence
threshold.

Cl2 is evaluated by reducing the argument mod 2*pi to (-pi, pi] and summing
the log-corrected series

    Cl2(x) = x * (1 - log|x| + sum_{n>=1} c_n (x/2pi)^(2n)),
    c_n = zeta(2n) / (n (2n+1)),

which converges like 4^-n on the reduced range.  Clh2 uses the sign-
alternating variant of the same series near zero and the exponential series
pi^2/6 - x^2/4 - sum_k e^(-kx)/k^2 for large arguments, whose dilogarithm
takes 60 terms.  Every power series here goes through one Horner kernel, on
a float or an array.  The advertised absolute accuracy is 1e-12 (on
[-4pi, 4pi] for Cl2, |x| <= 50 for Clh2); in practice both stay within a few ulps.

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
    "tail_root",
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


#: 1/(2k+1)!, k = 1..13: with them the series of sinh(x) - x and x - sin(x)
#: is exact to rounding below x = 5/2; tail_root takes it below 2.2
_ODD_TAIL = tuple(1.0 / math.factorial(2 * k + 1) for k in range(1, 14))

#: Newton steps of tail_root; from its starts a few suffice
_TAIL_STEPS = 40

#: C(2n, n) / (4^n (2n + 1)), n = 1..29: arcsin x = x + sum c_n x^(2n+1), and
#: arsinh x the same with signs (-1)^n; below TAIL_CUT, 29 terms suffice
_ASIN_COEFFS = tuple(math.comb(2 * n, n) / (4**n * (2 * n + 1)) for n in range(1, 30))
TAIL_CUT = 0.5

#: 1/k^2, k = 1..60: Li2(u) = u sum u^(k-1) / k^2, to rounding for |u| <= 1/2
_DILOG_COEFFS = tuple(1.0 / (k * k) for k in range(1, 61))


def _require_finite(x, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _horner(coeffs, w):
    """c_0 + c_1 w + c_2 w^2 + ... by Horner's rule, for a float or an array w."""
    s = coeffs[-1]
    for c in coeffs[-2::-1]:
        s *= w
        s += c
    return s


def _cl2_series(r, sign: float = 1.0):
    """r (1 - log|r| + sum_n sign^n c_n (r/2pi)^(2n)): Cl2 (sign 1), Clh2 (sign -1)."""
    q = r / TWO_PI
    w = sign * (q * q)  # not q ** 2: a float's pow need not round as the product
    return r * (1.0 - np.log(np.abs(r)) + _horner(_CL2_COEFFS, w) * w)


def clausen2(x: float) -> float:
    """Clausen's integral Cl2(x); 2*pi-periodic, odd, continuous."""
    x = _require_finite(x)
    r = math.remainder(x, TWO_PI)
    if r == 0.0:
        return 0.0
    return float(_cl2_series(r))


def _clausen2_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized Cl2 for internal use (input assumed finite)."""
    x = np.asarray(x, dtype=float)
    r = x - TWO_PI * np.round(x / TWO_PI)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _cl2_series(r)
    out[r == 0.0] = 0.0
    return out


def lobachevsky(x: float) -> float:
    """Milnor's Lobachevsky function: Cl2(2x)/2, by delegation to clausen2."""
    x = _require_finite(x)
    return 0.5 * clausen2(2.0 * x)


def _dilog_series(u: float) -> float:
    # Li2(u) = sum u^k / k^2, for |u| <= 1/2
    return u * _horner(_DILOG_COEFFS, u)


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
        return float(_cl2_series(x, sign=-1.0))
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


def _newton_from_above(x: float, step) -> float:
    # a convex function increasing past its root, from a start above it: the
    # steps shrink monotonically, quadratically once small
    for _ in range(_TAIL_STEPS):
        dx = step(x)
        if not dx > 0.0:  # at the root, or past it by rounding
            break
        x -= dx
        if dx <= 1e-9 * x:  # the next step would be below rounding
            break
    return x


def tail_root(a: float, b: float) -> float:
    """The x > 0 with T(x) = s x, s = |a - b| / b, to a few ulps, for positive
    a != b with b <= a pi/2.  T is the odd tail x - sin x where a < b (the root
    is then at most pi/2, and pi/2 where rounding puts b / a past pi/2) and
    sinh x - x where a > b.

    Newton from above on T(x) - s x, which is convex and increasing from its
    root on, with slope 2 sin^2(x/2) - s (2 sinh^2(x/2) - s).  The start solves
    x^2/6 -+ x^4/120 = s, the series of T(x) / x cut after its second term, which
    lies below T(x) / x on both branches, so the start lies above the root.  On
    the hyperbola where s > 1 (x past 2.18), Newton from above on
    log(sinh(x) / x) - log(a / b), whose logarithms never overflow, started at
    2 (log(a / b) + 1), where it is positive.
    """
    s = abs(a - b) / b
    if s > 1.0:  # a > 2b: the hyperbola
        (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
        level = math.log(ma / mb) + (ea - eb) * _LN2  # log(a / b), where a / b overflows
        return _newton_from_above(
            2.0 * (level + 1.0),
            lambda x: (x - _LN2 + math.log1p(-math.exp(-2.0 * x)) - math.log(x) - level)
            / (1.0 / math.tanh(x) - 1.0 / x),
        )
    w, sin = (1.0, math.sinh) if a > b else (-1.0, math.sin)
    x = math.sqrt(12.0 * s / (1.0 + math.sqrt(1.0 + 1.2 * w * s)))
    return _newton_from_above(
        x if a > b else min(x, 0.5 * math.pi),
        lambda x: (_horner(_ODD_TAIL, w * x * x) * x * x * x - s * x)
        / (2.0 * sin(0.5 * x) ** 2 - s),
    )


def inverse_tail(x: np.ndarray, hyperbolic: bool) -> np.ndarray:
    """arsinh x - x (hyperbolic) or arcsin x - x, entrywise for 0 <= x < TAIL_CUT, to a
    few ulps: x^3 (1/6 -+ 3x^2/40 + ...), up to the first power of max x^2 below 1e-17."""
    z = x * x
    top = float(z.max())
    k = next((k for k in range(1, len(_ASIN_COEFFS)) if top**k <= 1e-17), len(_ASIN_COEFFS))
    w = -z if hyperbolic else z
    return x * (w * _horner(_ASIN_COEFFS[:k], w))
