"""Independent numerical oracles for the test suite.

These deliberately avoid the library's evaluation strategies: the special
functions are checked against direct adaptive quadrature of their defining
integrals (scipy QUADPACK, with the integrable log singularities passed as
breakpoints), and the circumradius solvers against plain long-running
bisection with no Newton polish and no shared code.
"""

import math
import warnings

import numpy as np
from scipy.integrate import quad

TWO_PI = 2.0 * math.pi


def clausen2_quad(x: float) -> float:
    """-integral_0^x log|2 sin(t/2)| dt by adaptive quadrature."""
    if x == 0.0:
        return 0.0

    def f(t):
        s = 2.0 * math.sin(0.5 * t)
        return -math.log(abs(s)) if s != 0.0 else 0.0

    a, b = (0.0, x) if x > 0 else (x, 0.0)
    lo_k = int(math.floor(a / TWO_PI)) + 1
    hi_k = int(math.ceil(b / TWO_PI))
    points = [k * TWO_PI for k in range(lo_k, hi_k) if a < k * TWO_PI < b]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = quad(f, a, b, points=points or None, limit=500, epsabs=1e-13, epsrel=1e-13)
    return val if x > 0 else -val


def clh2_quad(x: float) -> float:
    """-integral_0^x log|2 sinh(t/2)| dt by adaptive quadrature."""
    if x == 0.0:
        return 0.0

    def f(t):
        s = 2.0 * math.sinh(0.5 * t)
        return -math.log(abs(s)) if s != 0.0 else 0.0

    a, b = (0.0, x) if x > 0 else (x, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = quad(f, a, b, limit=500, epsabs=1e-13, epsrel=1e-13)
    return val if x > 0 else -val


def euclidean_radius_bisect(lengths, iterations: int = 200) -> float:
    """Circumradius by pure bisection on the case-split angle equations."""
    l = np.asarray(lengths, dtype=float)
    m = int(np.argmax(l))
    others = np.delete(l, m)
    if math.fsum(np.arcsin(np.minimum(1.0, others / l[m])).tolist()) >= 0.5 * math.pi:
        def f(r):
            return math.fsum(np.arcsin(np.minimum(1.0, l / (2.0 * r))).tolist()) - math.pi
    else:
        def f(r):
            return math.fsum(np.arcsin(others / (2.0 * r)).tolist()) - math.asin(
                min(1.0, l[m] / (2.0 * r))
            )

    lo = 0.5 * l[m]
    flo = f(lo)
    if flo == 0.0:
        return lo
    hi = 2.0 * lo
    while (f(hi) > 0.0) == (flo > 0.0):
        hi *= 2.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def phi_root_bisect(chords, lo: float, hi: float, iterations: int = 200) -> float:
    """Root of the arsinh defect function by pure bisection (dominant last)."""
    c = [float(v) for v in chords]

    def f(x):
        return math.asinh(c[-1] / (2.0 * x)) - math.fsum(
            math.asinh(ck / (2.0 * x)) for ck in c[:-1]
        )

    while f(hi) <= 0.0:
        hi *= 2.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def strict_lengths(rng, n: int, low: float, high: float, log_uniform: bool = False) -> np.ndarray:
    """Draw side lengths satisfying the strict polygon inequalities."""
    while True:
        if log_uniform:
            l = 10.0 ** rng.uniform(math.log10(low), math.log10(high), n)
        else:
            l = rng.uniform(low, high, n)
        m = int(np.argmax(l))
        if l[m] < math.fsum(np.delete(l, m).tolist()):
            return l


def workload_request(curve: str, n: int, rng) -> dict:
    """One n-gon request in a curve class, built as the large-n workload builds it:
    the n quantiles of the log-uniform law on [0.25, 1] in a random order,
    rescaled to perimeter 10 (spherical: pi), one chord or side then made dominant.
    ``curve`` is a geometry, or hyperbolic-circle, -horocycle or -hypercycle."""
    quantiles = np.exp(math.log(0.25) * (1.0 - (np.arange(n) + 0.5) / n))
    l = rng.permutation(quantiles)
    l *= (math.pi if curve == "spherical" else 10.0) / math.fsum(l.tolist())
    k = int(rng.integers(n))
    if curve in ("hyperbolic-horocycle", "hyperbolic-hypercycle"):
        chords = 2.0 * np.sinh(0.5 * l)
        chords[k] = 0.0
        excess = 1.0 if curve == "hyperbolic-horocycle" else 1.25
        l[k] = 2.0 * math.asinh(0.5 * math.fsum(chords.tolist()) * excess)
    elif curve == "minkowski":
        l[k] = 0.0
        l[k] = math.fsum(l.tolist()) * 1.25
    return {"geometry": curve.split("-")[0], "lengths": l.tolist()}


def triangle_radius(l) -> float:
    """abc / sqrt(|p|) with Kahan's product p = (a+(b+c))(c-(a-b))(c+(a-b))(a+(b-c)),
    a >= b >= c: the circumradius of a triangle (p > 0), or the radius of the
    hyperbola through a spacetime triangle, and the zero of Phi on hypercycle
    chords (p < 0).  W. Kahan, "Miscalculating Area and Angles of a
    Needle-like Triangle" (2014)."""
    a, b, c = sorted((float(x) for x in l), reverse=True)
    p = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    return a * b * c / math.sqrt(abs(p))


def quadrilateral_radius(l) -> float:
    """Parameshvara's R = sqrt((ab + cd)(ac + bd)(ad + bc) / 16 prod(s - l_k)): the
    circumradius of a quadrilateral (every s - l_k > 0), or, from |R^2|, the
    radius of the hyperbola through a spacetime quadrilateral and the zero of
    Phi on hypercycle chords (the dominant factor < 0).  Each s - l_k is half
    the fsum of the other three sides less l_k, so the factor that carries the
    margin is correctly rounded."""
    sides = [float(x) for x in l]
    a, b, c, d = sides
    gaps = [0.5 * math.fsum([*sides[:k], *sides[k + 1:], -x]) for k, x in enumerate(sides)]
    p = (a * b + c * d) * (a * c + b * d) * (a * d + b * c)
    return math.sqrt(abs(p / (16.0 * math.prod(gaps))))
