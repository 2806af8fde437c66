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
the equation has no square-root singularity.  A polygon exists iff every
side is strictly shorter than the sum of the others, and it is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import TWO_PI, CentralAngles, SideLengths, columns, dominance, fsum, prefix_sums
from .errors import DomainError, NearDegenerateError, NoPolygonError
from .rootfind import bisect_newton

__all__ = [
    "EuclideanSolution",
    "check_polygon_inequalities",
    "solve_euclidean",
    "vertices_on_circle",
    "polygon_area",
]

#: R may not exceed this multiple of the longest side (beyond it the input
#: is degenerate to working precision)
_MAX_RADIUS_FACTOR = 1e15

#: bound on the relative rounding error of each computed half angle; a
#: defect value below this times the sum of the half angles has no sign
_ANGLE_REL_NOISE = 1e-15


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


def solve_euclidean(lengths) -> EuclideanSolution:
    """Construct the unique Euclidean cyclic polygon with the given sides.

    Raises NoPolygonError when the polygon inequalities fail, and
    NearDegenerateError when they hold by so little that no radius up to
    1e15 times the longest side changes the sign of the defect by more
    than its rounding error, or when a side's central angle underflows to 0.
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
    sign_half = sign * half
    target = math.pi if center_inside else 0.0

    memo = {}  # the last two t: f' follows f at its t; only the t before last is revisited

    def half_angles(t: float):
        if t not in memo:
            if len(memo) == 2:
                del memo[next(iter(memo))]
            memo[t] = _half_angles(t, r0, gap, half)
        return memo[t]

    def f(t: float) -> float:
        a = half_angles(t)[2]
        return fsum(a if center_inside else sign * a) - target

    def dfdx(t: float) -> float:
        if t * t == 0.0:
            return math.nan  # q_m = 0 at R = R0: no Newton step from there
        radius, q, _ = half_angles(t)
        return -2.0 * t / radius * fsum(sign_half / q)

    # bracket: f(0) >= 0 > f(inf) on the inside branch, f(0) < 0 < f(inf)
    # on the outside branch; grow the upper end until the sign flips by more
    # than the rounding error of the half angles
    f0 = f(0.0)
    t = 0.0
    iterations = 0
    if f0 != 0.0:
        hi = math.sqrt(r0)
        while True:
            fhi = f(hi)
            if (fhi > 0.0) != (f0 > 0.0) and abs(fhi) > _ANGLE_REL_NOISE * (
                fsum(half_angles(hi)[2]) + target
            ):
                break
            hi *= 2.0
            if r0 + hi * hi > _MAX_RADIUS_FACTOR * lm:
                raise NearDegenerateError(
                    "circumradius exceeds 1e15 times the longest side; the input "
                    "is degenerate to working precision",
                    index=m,
                )
        res = bisect_newton(f, 0.0, hi, dfdx=dfdx, f_lo=f0, f_hi=fhi)
        t = res.root
        iterations = res.iterations

    radius, _, a = half_angles(t)
    if not a.all():
        k = int(np.argmin(a))
        raise NearDegenerateError(f"side {k} is too short for its central angle", index=k)
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
