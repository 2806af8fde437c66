"""Hyperbolic cyclic polygons in the hyperboloid model.

Vertices live on H^2 = {x in R^{2,1} : <x,x> = -1, x3 > 0} with
<x,y> = x1 y1 + x2 y2 - x3 y3.  A convex polygon is cyclic when its
vertices lie on a curve of constant nonzero curvature: a circle, a
horocycle, or a hypercycle (constant distance R from a geodesic).  Which
one is decided by the chords lbar = 2 sinh(l/2), which hyp_chord maps from
the whole side vector once per request: the dominant chord is <, =, or > the
sum of the others, respectively (the geodesic lengths always satisfy the
strict polygon inequalities).  The chords are the sides of the chordal
polygon: a chord vector is a domain.SideLengths, checked once where a solver
first uses it.

Constructions, one per class:

* circle: the chordal polygon is Euclidean, so the planar solver applies;
  a planar circumradius Rbar lifts to hyperbolic circumradius
  r = arsinh(Rbar), and the vertices sit on the plane x3 = cosh(r).
* horocycle: all horocycles are congruent, so we mark cumulative chord
  lengths along x3 - x1 = 1, parametrized by s -> (s^2/2, s, 1 + s^2/2);
  the parameter difference is both the chordal and the horocycle arc
  length.
* hypercycle: with the dominant side last, Rbar = cosh(R) is the unique
  zero in (1, inf) of

      Phi(x) = arsinh(lbar_n / 2x) - sum_{k<n} arsinh(lbar_k / 2x),

  found by safeguarded Newton to 1e-12 relative (Phi(1) is half the
  negative length deficit, Phi > 0 for large x, and Phi' > 0 at any zero)
  between 1 and the closed-form axis_bound, from the end where |Phi| is
  smaller; near the existence threshold phi splits off the chord margin, so
  that its sign is right.  Foot distances a_k = 2 arsinh(lbar_k / 2 Rbar)
  then mark the vertex feet along the axis geodesic, and vertices are
  (Rbar sinh t, sinh R, Rbar cosh t).  This Phi step, bracket, root and
  placement, is solve_on_axis; minkowski's hyperbola takes it too, halving
  the lower end below 1 where its radius is smaller.

Placement conventions (a choice, fixed for reproducibility): the circle is
centered on (0, 0, 1) with the first vertex in the x1 x3-plane; horocycle
marking starts at (0, 0, 1); the hypercycle axis is the geodesic in the
x1 x3-plane and vertices take x2 = +sinh(R).  When the dominant side is not
last in caller order, marking starts at the vertex that follows it;
vertices are always reported in caller side order.  One placement step
(place) serves the horocycle, the hypercycle and minkowski's hyperbola: a
vertex's parameter (horocycle offset or axis coordinate t) is the running
sum of the marks before it, accumulated in double-double arithmetic in O(n)
(domain.prefix_sums: a two-sum loop over a short vector, numpy running sums
over a long one), and a coordinate past the float range raises
NearDegenerateError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import CentralAngles, FootDistances, SideLengths, columns, dominance, excess
from .domain import fsum, prefix_sums
from .errors import DomainError, InvariantViolation, NearDegenerateError
from .euclidean import check_polygon_inequalities, far_radius, solve_euclidean
from .rootfind import bisect_newton
from .specfun import TAIL_CUT, inverse_tail, sinh_ratio_inverse

__all__ = [
    "CIRCLE",
    "HOROCYCLE",
    "HYPERCYCLE",
    "HypCurveClass",
    "FootDistances",
    "HyperbolicSolution",
    "axis_bound",
    "hyp_chord",
    "classify",
    "phi",
    "phi_prime",
    "solve_hypercycle_radius",
    "solve_hyperbolic",
]

CIRCLE = "circle"
HOROCYCLE = "horocycle"
HYPERCYCLE = "hypercycle"

#: half-width of the horocycle classification band, relative to the total
#: chord length (the horocycle locus has measure zero; exact inputs land
#: within a few ulps of it)
HOROCYCLE_BAND = 1e-9

#: relative tolerance of the phi root solve (rootfind.bisect_newton's rel_tol)
_PHI_REL_TOL = 1e-12

#: half the float maximum, the largest x whose 2x is finite (chords, _half_feet)
_HALF_MAX = 0.5 * np.finfo(float).max


@dataclass(frozen=True)
class HypCurveClass:
    """Inscribing-curve classification.

    ``index`` is the dominant (longest) side, ``margin`` the signed value
    chord[index] - sum(other chords); its sign against the band width picks
    the tag.  ``chords`` keeps the chords in caller order; it takes no part
    in equality, hashing or repr.
    """

    kind: str  # CIRCLE, HOROCYCLE, or HYPERCYCLE
    index: int
    margin: float
    chords: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class HyperbolicSolution:
    """Unique hyperbolic cyclic polygon, with per-class parameters.

    ``vertices`` are rows on the unit hyperboloid (<x,x> = -1, x3 > 0) in
    caller side order.  Exactly one parameter group is populated:
    ``circumradius`` (circle), ``offsets`` (horocycle: cumulative chordal
    marks in marking order, starting at 0), or ``axis_distance`` plus
    ``foot_distances`` (hypercycle).  ``angles`` carries the chordal central
    angles in the circle case.
    """

    curve_class: HypCurveClass
    vertices: np.ndarray  # (n, 3)
    circumradius: float | None = None
    angles: CentralAngles | None = None
    offsets: np.ndarray | None = None
    axis_distance: float | None = None
    foot_distances: FootDistances | None = None
    iterations: int = field(default=0, compare=False)


def hyp_chord(lengths) -> np.ndarray:
    """The chords 2 sinh(l/2), by math.sinh, of a hyperbolic side vector.  Raises
    NearDegenerateError at the first side whose chord rounds to 0, as for
    l = 5e-324, or passes the float range, as for l = 1420."""
    values = SideLengths.coerce(lengths).values
    # math.sinh raises from l/2 = 710.48; 2 sinh(l/2) passes the float range from 709.79
    s = np.fromiter(map(math.sinh, np.minimum(0.5 * values, 710.0).tolist()), float, values.size)
    bad = np.flatnonzero((s <= 0.0) | (s > _HALF_MAX))
    if bad.size:
        k = bad[0]
        ell, size = float(values[k]), "short" if s[k] == 0.0 else "long"
        raise NearDegenerateError(f"hyperbolic length {ell!r} is too {size} for its chord")
    return 2.0 * s


def classify(lengths) -> HypCurveClass:
    """Decide which curve the cyclic polygon is inscribed in.

    Requires the strict polygon inequalities on the geodesic lengths
    (check_polygon_inequalities raises NoPolygonError otherwise).  The
    horocycle tag covers |margin| <= HOROCYCLE_BAND * sum(chords).
    """
    lengths = SideLengths.coerce(lengths)
    check_polygon_inequalities(lengths)
    chords = hyp_chord(lengths)
    dom, margin = dominance(chords)
    try:
        tau = HOROCYCLE_BAND * fsum(chords)
    except OverflowError:  # the chords sum past the float maximum
        tau = fsum(HOROCYCLE_BAND * chords)
    if margin < -tau:
        kind = CIRCLE
    elif margin > tau:
        kind = HYPERCYCLE
    else:
        kind = HOROCYCLE
    return HypCurveClass(kind=kind, index=dom, margin=margin, chords=chords)


def _half_feet(x: float, chords) -> np.ndarray:
    # arsinh(c_k / 2x), half the foot marks at x; (c_k / 2) / x where 2x overflows
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"x must be positive and finite, got {x!r}")
    c = SideLengths.coerce(chords).values
    return np.arcsinh(c / (2.0 * x) if x <= _HALF_MAX else 0.5 * c / x)


@functools.lru_cache(maxsize=2)
def _shared_feet(chords: SideLengths, x: float) -> np.ndarray:
    # the half feet at the last two (chords, x), chords by identity: phi_prime,
    # and the placement, reuse the arsinh pass of the phi a root solve just took
    return _half_feet(x, chords)


def phi(x: float, chords) -> float:
    """Defect Phi(x) = arsinh(c_n/2x) - sum_{k<n} arsinh(c_k/2x), dominant last.

    Where c_n/2x is below TAIL_CUT, it is margin/2x plus the tails arsinh y - y
    at y = c/2x, with the margin c_n - sum_{k<n} c_k rounded once: the half feet
    summed whole carry an error of eps * sum(y), past Phi near its zero.
    """
    c = SideLengths.coerce(chords)
    feet = _shared_feet(c, float(x))
    if feet[-1] >= math.asinh(TAIL_CUT):
        return excess(feet, -1)
    margin = -fsum(c.values[:-1], -c.values[-1])
    # x > c_n here, so no c / x overflows
    return excess(inverse_tail(0.5 * (c.values / x), True), -1) + 0.5 * (margin / x)


def phi_prime(x: float, chords) -> float:
    """Derivative of phi: (1/x)(-tanh a_n(x) + sum_{k<n} tanh a_k(x)).

    Positive at any zero of phi (tanh is strictly subadditive), which is
    what makes the zero unique.
    """
    feet = _shared_feet(SideLengths.coerce(chords), float(x))
    # 0.0 - e, not -e: +0.0 where the two sides agree, as their difference is
    return (0.0 - excess(np.tanh(feet), -1)) / float(x)


def dominant_last(dom: int, n: int) -> np.ndarray:
    """Marking order: caller indices starting after side ``dom``, so it comes last."""
    return np.arange(dom + 1, dom + 1 + n) % n


def place(marks: np.ndarray, dom: int, x: float | None = None):
    """Vertex placement shared by the hypercycle, the horocycle and the
    Minkowski hyperbola, from the ``marks`` in marking order
    (dominant_last(dom, n)).

    A vertex's parameter t is the running sum of the marks before it.  The
    points are x (sinh t, cosh t), with x = Rbar = cosh(R) on a hypercycle
    and the radius R on a hyperbola, or the horocycle points
    (t^2/2, t, 1 + t^2/2) when x is None.  Returns t, and the marks and the
    points in caller order.  Raises NearDegenerateError when a coordinate
    passes the float range.
    """
    t = prefix_sums(marks)[0]
    with np.errstate(over="ignore"):
        if x is None:
            h = 0.5 * t * t
            points = columns(t.size, h, t, 1.0 + h)
        else:
            n, ts = t.size, t.tolist()
            try:  # math.sinh, math.cosh: np.sinh, np.cosh differ in the last bits
                sinh = np.fromiter(map(math.sinh, ts), float, n)
                points = x * columns(n, sinh, np.fromiter(map(math.cosh, ts), float, n))
            except OverflowError:
                points = np.array([math.inf])
    if not np.isfinite(points).all():
        raise NearDegenerateError(
            f"vertex coordinates pass the float range (largest parameter t = {t[-1]:.6g})"
        )
    k = -(dom + 1) % marks.size  # marking order starts at caller side dom + 1
    marks, points = (np.concatenate((a[k:], a[:k])) for a in (marks, points))
    return t, marks, points


def axis_bound(c_dom: float, rest: float) -> float:
    """A closed-form upper bound on the zero of phi, from the dominant chord
    c_dom and the sum of the others, rest.

    As arsinh y <= y, Phi(x) is at least its value with the other chords
    linearized, which is positive from x = c_dom / 2Y on, where
    arsinh(Y) / Y = rest / c_dom.  With Y = sinh u that x is rest / 2u, where
    sinh(u) / u = c_dom / rest.
    """
    return rest / (2.0 * sinh_ratio_inverse(c_dom, rest))


def solve_on_axis(chords, dom: int, floor: float):
    """The Phi step of the hypercycle and the Minkowski hyperbola: the zero x
    of phi on ``chords`` (caller order, dominant side ``dom`` rotated last),
    then place's points x (sinh t, cosh t) at the marks 2 arsinh(c_k / 2x).
    Returns (rootfind.RootResult, FootDistances, points), both in caller order.

    The upper end is axis_bound.  The lower end starts at 1; while
    Phi(lo) >= 0, or lo is not below the upper end, lo becomes the upper end
    (Phi at the bound is then never taken) and is halved.  Where Phi at the
    bound is not positive, the bound is the lower end and far_radius the upper
    one.  Raises NearDegenerateError (``index`` dom) where lo <= floor must
    move, as at x = 1 for a hypercycle within rounding of its axis, where
    c_dom / 2x passes the float range at either end, or where the upper end
    does.
    """
    rot = SideLengths(chords[dominant_last(dom, len(chords))])  # checked once
    c_dom = float(chords[dom])

    def refuse_below(x: float) -> None:
        # c_dom / 2x, and so Phi near x, passes the float range
        if x == 0.0 or math.isinf(c_dom / (2.0 * x)):
            raise NearDegenerateError(
                f"the radius is at most {hi:g}, too small for it or its rapidities "
                "to be represented",
                index=dom,
            )

    def refuse_above(x: float) -> float:
        if math.isinf(x):
            raise NearDegenerateError("the radius passes the float range", index=dom)
        return x

    rest = fsum(rot.values[:-1])
    hi = refuse_above(axis_bound(c_dom, rest))
    refuse_below(hi)
    lo, f_hi = 1.0, None
    while lo >= hi or not (f_lo := phi(lo, rot)) < 0.0:
        if lo <= floor:
            raise NearDegenerateError(
                "the hypercycle lies within rounding of its axis: its distance from "
                "the axis cannot be resolved",
                index=dom,
            )
        if lo < hi:
            hi, f_hi = lo, f_lo
        lo = 0.5 * min(lo, c_dom)
        refuse_below(lo)
    if f_hi is None and not (f_hi := phi(hi, rot)) > 0.0:
        # the bound nears the zero as the chords grow in number; short of it, the lower end
        lo, f_lo = hi, f_hi
        hi = refuse_above(far_radius(c_dom, rest))
        f_hi = phi(hi, rot)
    res = bisect_newton(
        lambda x: phi(x, rot), lo, hi, dfdx=lambda x: phi_prime(x, rot),
        rel_tol=_PHI_REL_TOL, f_lo=f_lo, f_hi=f_hi,
    )
    _, feet, points = place(2.0 * _shared_feet(rot, res.root), dom, res.root)
    return res, FootDistances(feet), points


def solve_hypercycle_radius(chords) -> float:
    """Unique zero Rbar = cosh(R) of phi in (1, inf), by solve_on_axis;
    dominant chord last.

    Requires chords of an actual hyperbolic polygon, i.e. the dominant chord
    exceeds the sum of the others while the underlying geodesic lengths
    still satisfy the polygon inequalities (equivalently phi(1) < 0).
    Violations are a caller bug and raise InvariantViolation, as do chords
    whose root or vertices solve_on_axis refuses as near-degenerate.
    """
    c = SideLengths.coerce(chords)
    if excess(c.values, -1) <= 0.0:
        raise InvariantViolation(
            "hypercycle condition fails: last chord does not exceed the sum of the others"
        )
    try:
        return solve_on_axis(c, c.n - 1, 1.0)[0].root
    except NearDegenerateError as exc:
        raise InvariantViolation(f"no hypercycle polygon has these chords: {exc}") from exc


def solve_hyperbolic(lengths) -> HyperbolicSolution:
    """Construct the unique hyperbolic cyclic polygon with the given sides.

    Classifies the inscribing curve, then dispatches on the class: a
    hypercycle instance is always placed on its hypercycle.  Raises
    NoPolygonError when the polygon inequalities fail, and
    NearDegenerateError when a hypercycle lies so close to its axis that
    Phi(1) rounds to 0 or above.
    """
    lengths = SideLengths.coerce(lengths)
    cls = classify(lengths)
    n = lengths.n

    if cls.kind == CIRCLE:
        planar = solve_euclidean(cls.chords)
        rbar = planar.radius
        x3 = math.hypot(1.0, rbar)  # cosh(arsinh(rbar))
        vertices = columns(n, *planar.vertices.T, x3)
        return HyperbolicSolution(
            curve_class=cls,
            vertices=vertices,
            circumradius=math.asinh(rbar),
            angles=planar.angles,
            iterations=planar.iterations,
        )

    if cls.kind == HOROCYCLE:
        offsets, _, vertices = place(cls.chords[dominant_last(cls.index, n)], cls.index)
        return HyperbolicSolution(cls, vertices, offsets=offsets)

    # Phi(1) < 0 holds exactly; where its rounding lost the sign, floor 1 raises
    res, feet, points = solve_on_axis(cls.chords, cls.index, 1.0)
    rbar = res.root
    sinh_r = math.sqrt((rbar - 1.0) * (rbar + 1.0))
    return HyperbolicSolution(
        curve_class=cls,
        vertices=columns(n, points[:, 0], sinh_r, points[:, 1]),
        axis_distance=math.acosh(rbar),
        foot_distances=feet,
        iterations=res.iterations,
    )
