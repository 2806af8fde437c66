"""Spherical cyclic polygons on the unit sphere, by chordal reduction.

Joining the vertices of a spherical cyclic polygon with straight segments
in the ambient 3-space yields a Euclidean cyclic polygon with the same
central angles and the chords lbar = 2 sin(l/2), which chord_from_arc maps
once per request and the solution keeps.  A spherical instance is feasible
iff the polygon inequalities hold strictly and the perimeter stays strictly
below 2*pi (at 2*pi the polygon degenerates to a great circle), which is
decided on the exact sum of the sides; for feasible input the chordal
circumradius is < 1, so the planar solution lifts back to the sphere at height
sqrt(1 - Rbar^2) along the axis.  A perimeter so close to 2*pi that Rbar
rounds to 1 ends in NearDegenerateError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import TWO_PI, CentralAngles, SideLengths, columns, fsum
from .errors import DomainError, NearDegenerateError, PerimeterError
from .euclidean import check_polygon_inequalities, solve_euclidean

__all__ = [
    "SphericalSolution",
    "chord_from_arc",
    "check_spherical_feasibility",
    "solve_spherical",
]

#: 2*pi - TWO_PI, rounded: TWO_PI + TWO_PI_LO is 2*pi to within 6e-33
TWO_PI_LO = 2.4492935982947064e-16


@dataclass(frozen=True, eq=False)
class SphericalSolution:
    """Unique spherical cyclic polygon for the given geodesic side lengths.

    ``chordal_radius`` is the circumradius Rbar < 1 of the chordal polygon;
    ``circumradius`` is the geodesic radius arcsin(Rbar).  Vertices are unit
    vectors on the circle of axis (0, 0, 1) at height sqrt(1 - Rbar^2), the
    first one in the plane of the first and third basis vectors, ordered
    counterclockwise seen from the axis.
    """

    chordal_radius: float
    circumradius: float
    angles: CentralAngles
    vertices: np.ndarray  # (n, 3) unit vectors
    chords: np.ndarray  # 2 sin(l/2), the sides of the chordal polygon
    iterations: int = field(default=0, compare=False)


def chord_from_arc(lengths) -> np.ndarray:
    """The chords 2 sin(l/2) of a side vector of arcs in (0, 2*pi), by np.sin,
    which gives math.sin bit for bit (a test pins this).  Raises
    NearDegenerateError at the first side whose chord rounds to 0, as for
    l = 5e-324."""
    values = SideLengths.coerce(lengths).values
    if values.max() >= TWO_PI:
        raise DomainError(f"arc length must lie in (0, 2*pi), got {float(values.max())!r}")
    s = np.sin(0.5 * values)
    if s.min() == 0.0:
        ell = float(values[s.argmin()])  # the first zero: no sine here is negative
        raise NearDegenerateError(f"arc length {ell!r} is too short for its chord")
    return 2.0 * s


def check_spherical_feasibility(lengths) -> tuple[int, float]:
    """Raise PerimeterError unless the exact sum of the sides is strictly below
    2*pi, then return check_polygon_inequalities(lengths): the longest side and
    its negative margin, or a NoPolygonError."""
    lengths = SideLengths.coerce(lengths)
    try:
        gap = fsum(lengths.values, -TWO_PI, -TWO_PI_LO)  # exactly rounded
    except OverflowError:  # positive sides summing past the float maximum
        gap = math.inf
    if gap >= 0.0:
        raise PerimeterError(
            f"perimeter {gap + TWO_PI:g} is not strictly below 2*pi: the "
            "polygon degenerates to a great circle"
        )
    return check_polygon_inequalities(lengths)


def solve_spherical(lengths) -> SphericalSolution:
    """Construct the unique spherical cyclic polygon with the given sides;
    raises what check_spherical_feasibility raises."""
    lengths = SideLengths.coerce(lengths)
    check_spherical_feasibility(lengths)
    chords = chord_from_arc(lengths)
    planar = solve_euclidean(chords)
    rbar = planar.radius
    if rbar >= 1.0:  # a perimeter within rounding of 2*pi
        raise NearDegenerateError(
            f"chordal circumradius {rbar!r} is not below 1: the perimeter is "
            "within rounding of 2*pi"
        )
    height = math.sqrt(1.0 - rbar * rbar)
    vertices = columns(lengths.n, *planar.vertices.T, height)
    return SphericalSolution(
        chordal_radius=rbar,
        circumradius=math.asin(rbar),
        angles=planar.angles,
        vertices=vertices,
        chords=chords,
        iterations=planar.iterations,
    )
