"""Euclidean cyclic polygons: existence check, circumradius root-finding,
angle recovery, planar vertex construction, and area.

A cyclic polygon with sides l_1..l_n inscribed in a circle of radius R has
central angles a_k with sum(a_k) = 2*pi and l_k = 2 R sin(a_k/2).  The
solver finds R as the root of a single monotone equation chosen by a case
split on the position of the circumcenter:

* center inside (or on) the polygon: sum_k arcsin(l_k / 2R) = pi,
* center cut off by the longest side m (its angle exceeds pi):
  sum_{k != m} arcsin(l_k / 2R) = arcsin(l_m / 2R).

The split is decided at the smallest admissible radius R0 = l_max/2 by
comparing sum_{k != m} arcsin(l_k / l_m) with pi/2.  Each branch is solved
by safeguarded Newton (rootfind.bisect_newton) in t = sqrt(R - R0), where
the equation has no square-root singularity, on a bracket of closed-form
bounds (radius_bounds), from the end whose defect is smaller: on large
polygons P/2pi, for the perimeter P, within a few millionths of the root.
Outside, below l_max / 2R = 1/2, the defect is the margin (sum of the
others) - l_max over 2R plus the tails arcsin x - x, so its sign holds
however close to flat the polygon is.  Where rounding takes the sign at
P/2pi, R0 is the lower end; where the defect at the upper bound is not past
the root, that bound is the lower end, below far_radius (P/2 inside).  A
polygon exists iff every side is strictly shorter than the sum of the
others, and it is unique.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import TWO_PI, CentralAngles, SideLengths, columns, dominance, fsum, prefix_sums
from .errors import DomainError, NearDegenerateError, NoPolygonError
from .rootfind import bisect_newton
from .specfun import TAIL_CUT, inverse_tail, sin_ratio_inverse

__all__ = [
    "EuclideanSolution",
    "check_polygon_inequalities",
    "radius_bounds",
    "far_radius",
    "solve_euclidean",
    "vertices_on_circle",
    "polygon_area",
]

@dataclass(frozen=True, eq=False)
class EuclideanSolution:
    """Unique cyclic polygon for the given sides.

    Vertices are listed counterclockwise with the circumcenter at the
    origin and the first vertex on the positive horizontal axis.
    ``center_inside`` is False iff the longest side's central angle
    exceeds pi (the circumcenter falls outside the polygon).
    """

    radius: float
    angles: CentralAngles
    vertices: np.ndarray  # (n, 2)
    center_inside: bool
    iterations: int = field(default=0, compare=False)


def check_polygon_inequalities(lengths) -> tuple[int, float]:
    """Index m of the longest side and its margin l_m - sum of the others
    (domain.dominance), which is negative where a polygon exists.

    Raises NoPolygonError with ``index`` m where the margin is not negative,
    with ``equality`` set where it is 0 (a flat, doubly traversed segment).
    """
    m, margin = dominance(SideLengths.coerce(lengths).values)
    if margin == 0.0:
        raise NoPolygonError(
            f"side {m} equals the sum of the others: the polygon "
            "degenerates to a flat (doubly traversed) segment",
            index=m,
            equality=True,
        )
    if not margin < 0.0:
        raise NoPolygonError(
            f"side {m} exceeds the sum of the others by {margin:g}: "
            "no polygon exists",
            index=m,
        )
    return m, margin


def _half_angles(t: float, r0: float, gap: np.ndarray, half: np.ndarray):
    """R = R0 + t^2, q = sqrt((t^2 + R0 - l/2)(R + l/2)) and the half angles atan2(l/2, q)."""
    radius = r0 + t * t
    q = np.sqrt((t * t + gap) * (radius + half))
    return radius, q, np.arctan2(half, q)


def radius_bounds(lm: float, rest: float, center_inside: bool) -> tuple[float, float]:
    """Closed-form bounds R_lo <= R <= R_hi on the circumradius, from the
    longest side lm and the sum of the others, rest.

    Inside, arcsin x >= x puts R at or above P/2pi (P = lm + rest), and
    Jordan's arcsin x <= pi x/2 at or below P/4; R_lo is at least lm/2.
    Outside, R_lo = lm/2, and the defect is at least its value with the other
    sides linearized, which is positive from R_hi = lm / 2 sin(theta) on,
    where theta / sin(theta) = rest / lm.
    """
    if center_inside:
        return max((lm + rest) / TWO_PI, 0.5 * lm), 0.25 * (lm + rest)
    return 0.5 * lm, 0.5 * lm / math.sin(sin_ratio_inverse(rest, lm))


def far_radius(a: float, b: float) -> float:
    """a b / 2 sqrt(|a - b| (a + b)), with a the longest side (dominant chord) and
    b the sum of the others: the peak of the defect (Phi) with the others
    linearized, a lower bound positive there, so past the root."""
    big, small = max(a, b), min(a, b)
    return 0.5 * small / math.sqrt((big - small) / big * (1.0 + small / big))


def solve_euclidean(lengths) -> EuclideanSolution:
    """Construct the unique Euclidean cyclic polygon with the given sides.

    Raises NoPolygonError when the polygon inequalities fail, and
    NearDegenerateError when a side's central angle underflows to 0 or the
    radius passes the float range.  A polygon strict by one ulp is solved.
    """
    lengths = SideLengths.coerce(lengths)
    m, _ = check_polygon_inequalities(lengths)
    # the problem is homogeneous of degree 1: solve with the longest side
    # scaled into [0.5, 1) by an exact power of two, so that no product
    # below over- or underflows at extreme scales
    scale = math.frexp(float(lengths.values[m]))[1]
    l = np.ldexp(lengths.values, -scale)
    lm = float(l[m])
    r0 = 0.5 * lm

    # branch selection at the smallest admissible radius
    h0 = fsum(np.arcsin(np.minimum(1.0, np.concatenate((l[:m], l[m + 1:])) / lm)))
    center_inside = h0 >= 0.5 * math.pi

    # The unknown is t = sqrt(R - R0).  With h_k = R0 - l_k/2 >= 0 the half
    # angle arcsin(l_k / 2R) is atan2(l_k/2, sqrt((t^2 + h_k)(R + l_k/2))),
    # which has no square-root singularity at R = R0 (t = 0), so Newton
    # converges quadratically even when the root is close to R0.
    half = 0.5 * l
    gap = r0 - half
    sign = np.ones(l.size)
    if not center_inside:
        sign[m] = -1.0
        mu = fsum(l, -2.0 * lm)  # the sum of the others less lm, rounded once
    sign_half = sign * half

    # the last three t: f' follows f at its t, and the root returned is the
    # last t, the one before it, or a bracket end where the solve started
    @functools.lru_cache(maxsize=3)
    def half_angles(t: float):
        return _half_angles(t, r0, gap, half)

    def f(t: float) -> float:
        radius, _, a = half_angles(t)
        if center_inside:
            # the sum of the half angles less math.pi is rounded once: the sum
            # rounded on its own would step by ulp(pi) near the root
            return fsum(a, -math.pi)
        if half[m] < TAIL_CUT * radius:
            # mu / 2R plus the tails arcsin x - x at x = l / 2R: the half angles
            # summed whole carry an error of eps * sum(x), past f near the root
            return fsum(sign * inverse_tail(half / radius, False), mu / (2.0 * radius))
        return fsum(sign * a)

    def dfdx(t: float) -> float:
        if t * t == 0.0:
            # q = 0 for the sides as long as the longest (and where t^2
            # underflows): each contributes its limit sqrt(2/R0) to -f'
            return -math.sqrt(2.0 / r0) * float(sign[m] * np.count_nonzero(gap == 0.0))
        radius, q, _ = half_angles(t)
        return -2.0 * t / radius * fsum(sign_half / q)

    # The bracket ends are radius_bounds.  At R0 (t = 0) f is h0 - pi/2 on
    # either branch, since the longest side's half angle there is pi/2: f is
    # past the root where its sign is not that of f0.
    f0 = h0 - 0.5 * math.pi
    rest = fsum(l, -lm)
    r_lo, r_hi = radius_bounds(lm, rest, center_inside)
    t = t_lo = math.sqrt(r_lo - r0)
    f_lo = f(t_lo) if t_lo > 0.0 else f0
    if (f_lo < 0.0) != (f0 < 0.0):  # rounding took the sign at P/2pi: R0 is the lower end
        t = t_lo = 0.0
        f_lo = f0
    iterations = 0
    if f_lo != 0.0:
        t_hi = math.sqrt(r_hi - r0)
        if ((f_hi := f(t_hi)) < 0.0) == (f0 < 0.0):
            # R_hi nears the root as the sides grow in number; short of it, the lower end
            t_lo, f_lo = t_hi, f_hi
            t_hi = math.sqrt((0.5 * (lm + rest) if center_inside else far_radius(lm, rest)) - r0)
            f_hi = f(t_hi)
        res = bisect_newton(f, t_lo, t_hi, dfdx=dfdx, f_lo=f_lo, f_hi=f_hi)
        t = res.root
        iterations = res.iterations

    radius, _, a = half_angles(t)
    if not a.all():
        k = int(np.argmin(a))
        raise NearDegenerateError(f"side {k} is too short for its central angle", index=k)
    if math.frexp(radius)[1] + scale > 1024:
        raise NearDegenerateError("the circumradius passes the float range", index=m)
    radius = math.ldexp(radius, scale)
    alpha = 2.0 * a
    if not center_inside:
        alpha[m] = TWO_PI - alpha[m]
    # distribute the residual angle defect uniformly instead of dumping it
    # all on the closing side
    alpha *= TWO_PI / fsum(alpha)
    angles = CentralAngles(alpha)

    return EuclideanSolution(
        radius=radius,
        angles=angles,
        vertices=vertices_on_circle(radius, angles),
        center_inside=center_inside,
        iterations=iterations,
    )


def vertices_on_circle(radius: float, angles) -> np.ndarray:
    """Place vertices on the circle of the given radius centered at the origin.

    Vertex j sits at polar angle sum(angles[:j]); the first vertex is on the
    positive horizontal axis and the order is counterclockwise, so side j
    joins vertex j to vertex j+1 and subtends angles[j].
    """
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise DomainError(f"radius must be positive and finite, got {radius!r}")
    angles = CentralAngles.coerce(angles)
    # The polar angles hi + lo are double-double prefix sums, and the trig
    # values of hi are corrected to first order in lo.  numpy's cos and sin
    # give math.cos and math.sin bit for bit (a test pins this).
    hi, lo = prefix_sums(angles.values)
    c, s = np.cos(hi), np.sin(hi)
    return columns(lo.size, radius * (c - lo * s), radius * (s + lo * c))


def polygon_area(vertices) -> float:
    """Shoelace area of a simple counterclockwise polygon."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        raise DomainError("vertices must be an (n, 2) array")
    if v.shape[0] < 3:
        raise DomainError(f"a polygon needs at least 3 vertices, got {v.shape[0]}")
    x, y = v[:, 0], v[:, 1]
    xr, yr = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    return 0.5 * math.fsum((x * yr - xr * y).tolist())
