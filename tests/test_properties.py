"""Property-based invariants of the scalar building blocks and of the solved radius."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cyclicpoly import euclidean, hyperbolic, minkowski, specfun, spherical, variational
from cyclicpoly.domain import FSUM_CUTOFF, dominance
from cyclicpoly.errors import InfeasibleError, NoPolygonError
from oracles import (
    euclidean_radius_bisect,
    phi_root_bisect,
    quadrilateral_radius,
    triangle_radius,
)

finite_angles = st.floats(min_value=-12.0, max_value=12.0, allow_nan=False)
small_positive = st.floats(min_value=1e-3, max_value=5.0)


@given(finite_angles)
@settings(max_examples=200, deadline=None)
def test_clausen2_odd(x):
    assert abs(specfun.clausen2(-x) + specfun.clausen2(x)) <= 1e-12


@given(finite_angles)
@settings(max_examples=200, deadline=None)
def test_clausen2_periodic(x):
    assert abs(specfun.clausen2(x + 2 * math.pi) - specfun.clausen2(x)) <= 1e-12


@given(finite_angles)
@settings(max_examples=200, deadline=None)
def test_clausen2_bounded_by_global_max(x):
    assert abs(specfun.clausen2(x)) <= specfun.clausen2(math.pi / 3) + 1e-12


@given(st.floats(min_value=-40.0, max_value=40.0))
@settings(max_examples=200, deadline=None)
def test_clh2_odd(x):
    scale = max(1.0, abs(specfun.clh2(x)))
    assert abs(specfun.clh2(-x) + specfun.clh2(x)) <= 1e-13 * scale


@given(finite_angles)
@settings(max_examples=100, deadline=None)
def test_lobachevsky_is_half_doubled_clausen(x):
    assert specfun.lobachevsky(x) == 0.5 * specfun.clausen2(2 * x)


@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=8),
       st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=8))
@settings(max_examples=150, deadline=None)
def test_kl_divergence_non_negative(p, q):
    assume(len(p) == len(q))
    p = np.asarray(p) / math.fsum(p)
    q = np.asarray(q) / math.fsum(q)
    assume(abs(math.fsum(p.tolist()) - 1) < 1e-12 and abs(math.fsum(q.tolist()) - 1) < 1e-12)
    assert specfun.kl_divergence(p, q) >= -1e-14


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_sum_of_sines(b):
    total = math.fsum(b)
    assume(total <= math.pi)
    assert math.sin(total) <= math.fsum(math.sin(x) for x in b) + 1e-14


@given(small_positive, small_positive)
@settings(max_examples=150, deadline=None)
def test_sinh_superadditive(x, y):
    assert math.sinh(x + y) > math.sinh(x) + math.sinh(y)


@given(small_positive, small_positive)
@settings(max_examples=150, deadline=None)
def test_tanh_subadditive(x, y):
    assert math.tanh(x + y) < math.tanh(x) + math.tanh(y)


@given(st.lists(st.floats(min_value=1e-6, max_value=2 * math.pi - 1e-6), min_size=3, max_size=8))
@settings(max_examples=150, deadline=None)
def test_spherical_chord_range(lengths):
    chords = spherical.chord_from_arc(lengths)
    assert chords.tolist() == [2.0 * math.sin(0.5 * x) for x in lengths]  # bit for bit
    assert ((0.0 < chords) & (chords <= 2.0)).all()


@given(st.lists(st.floats(min_value=1e-6, max_value=50.0), min_size=3, max_size=8))
@settings(max_examples=150, deadline=None)
def test_hyperbolic_chord_dominates_length(lengths):
    chords = hyperbolic.hyp_chord(lengths)
    assert chords.tolist() == [2.0 * math.sinh(0.5 * x) for x in lengths]  # bit for bit
    assert (chords >= lengths).all()


@given(st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=3, max_size=8))
@settings(max_examples=100, deadline=None)
def test_polygon_inequality_margin_sign_matches_kind(lengths):
    m = int(np.argmax(lengths))
    margin = lengths[m] - math.fsum(lengths[:m] + lengths[m + 1 :])
    if margin < 0:
        assert euclidean.check_polygon_inequalities(lengths) == (m, margin)
    else:
        with pytest.raises(NoPolygonError) as exc:
            euclidean.check_polygon_inequalities(lengths)
        assert exc.value.index == m and exc.value.equality == (margin == 0)


@given(st.lists(st.floats(min_value=0.3, max_value=2.0), min_size=3, max_size=8))
@settings(max_examples=60, deadline=None)
def test_euclidean_round_trip_property(lengths):
    l = np.asarray(lengths)
    m = int(np.argmax(l))
    assume(l[m] < math.fsum(np.delete(l, m).tolist()))
    sol = euclidean.solve_euclidean(l)
    d = np.roll(sol.vertices, -1, axis=0) - sol.vertices
    assert np.max(np.abs(np.linalg.norm(d, axis=1) - l) / l) <= 1e-9


GEOMETRIES = ("euclidean", "spherical", "hyperbolic", "minkowski")


# the benchmark's small-request envelope: n in [3, 12], sides log-uniform on
# [0.25, 4]; spherical perimeters uniform on [0.5, 7]; one Minkowski side set to
# the sum of the others times f, f log-uniform on [0.75, 1.5]
@st.composite
def small_requests(draw, geometries=GEOMETRIES):
    geometry = draw(st.sampled_from(geometries))
    n = draw(st.integers(min_value=3, max_value=12))
    log_side = st.floats(min_value=math.log(0.25), max_value=math.log(4.0))
    l = np.exp(draw(st.lists(log_side, min_size=n, max_size=n)))
    if geometry == "spherical":
        l *= draw(st.floats(min_value=0.5, max_value=7.0)) / math.fsum(l.tolist())
    elif geometry == "minkowski":
        k = draw(st.integers(min_value=0, max_value=n - 1))
        f = math.exp(draw(st.floats(min_value=math.log(0.75), max_value=math.log(1.5))))
        l[k] = f * math.fsum(np.delete(l, k).tolist())
    return geometry, l


# the same envelope at n from FSUM_CUTOFF to 1500, where every defect sum takes
# domain.fsum's vector path; the sides come from a seeded generator
@st.composite
def long_requests(draw):
    geometry = draw(st.sampled_from(GEOMETRIES))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = int(rng.integers(FSUM_CUTOFF, 1501))
    l = np.exp(rng.uniform(math.log(0.25), math.log(4.0), n))
    if geometry == "spherical":
        l *= rng.uniform(0.5, 7.0) / math.fsum(l.tolist())
    elif geometry == "minkowski":
        k = int(rng.integers(n))
        f = math.exp(rng.uniform(math.log(0.75), math.log(1.5)))
        l[k] = f * math.fsum(np.delete(l, k).tolist())
    return geometry, l


def _radius(geometry: str, l: np.ndarray):
    """The root-find radius (with the hyperbolic curve class), or the type of
    the structured refusal."""
    try:
        if geometry == "euclidean":
            return euclidean.solve_euclidean(l).radius
        if geometry == "spherical":
            return spherical.solve_spherical(l).chordal_radius
        if geometry == "minkowski":
            return minkowski.solve_minkowski(l).radius
        sol = hyperbolic.solve_hyperbolic(l)
        return sol.curve_class.kind, sol.circumradius, sol.axis_distance
    except InfeasibleError as exc:
        return type(exc)


@given(small_requests(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_radius_is_independent_of_side_order(request, rng):
    # a cyclic polygon's radius does not depend on the order of its sides, and
    # reversing them mirrors it; every defect sum is an fsum, so bit for bit
    _check_side_order(request, rng)


def _check_side_order(request, rng):
    geometry, l = request
    perm = list(range(l.size))
    rng.shuffle(perm)
    radius = _radius(geometry, l)
    assert _radius(geometry, l[perm]) == radius
    assert _radius(geometry, l[::-1]) == radius


@given(long_requests(), st.randoms(use_true_random=False))
@settings(max_examples=6, deadline=None)
def test_radius_is_independent_of_side_order_in_long_vectors(request, rng):
    _check_side_order(request, rng)


# a center-outside pentagon of the envelope, 0.9% of its longest side from flat:
# reversing its sides moves the variational radius by 9.1e-14
NEAR_FLAT_PENTAGON = [
    0.3784286239146148, 0.5442745554447188, 0.3214175477703104, 1.8258552846423166, 0.590676693715851
]


@pytest.mark.xfail(
    strict=True,
    reason="near a flat polygon the gradient-spread stop of the simplex ascent leaves "
    "a radius error of up to about 1e-13 that depends on the side order",
)
@given(small_requests(("euclidean",)), st.randoms(use_true_random=False))
@example(("euclidean", np.array(NEAR_FLAT_PENTAGON)), random.Random(0))
@settings(max_examples=300, deadline=None)
def test_variational_radius_is_independent_of_side_order(request, rng):
    # the variational path, too, finds one radius whatever the order of the
    # sides, up to the rounding of its last steps
    _, l = request
    try:
        euclidean.check_polygon_inequalities(l)
    except InfeasibleError:
        assume(False)
    perm = list(range(l.size))
    rng.shuffle(perm)
    radius = _variational_radius(l)
    for other in (l[perm], l[::-1]):
        assert abs(_variational_radius(other) - radius) <= 1e-14 * radius


def _variational_radius(l: np.ndarray) -> float:
    return variational.check_critical_point(l, variational.maximize_on_simplex(l))


def _per_side(geometry: str, l: np.ndarray):
    """The central angles (Euclidean, spherical, hyperbolic circle) or the foot
    spacings (hypercycle, Minkowski) in side order; None on a horocycle, whose
    offsets are running sums; or the type of the structured refusal."""
    try:
        if geometry == "euclidean":
            return euclidean.solve_euclidean(l).angles.values
        if geometry == "spherical":
            return spherical.solve_spherical(l).angles.values
        if geometry == "minkowski":
            return minkowski.solve_minkowski(l).foot_params.values
        sol = hyperbolic.solve_hyperbolic(l)
        per_side = sol.angles if sol.angles is not None else sol.foot_distances
        return None if per_side is None else per_side.values
    except InfeasibleError as exc:
        return type(exc)


def _check_reversal(geometry: str, l: np.ndarray):
    # reversing the sides mirrors the polygon: each side keeps its central
    # angle or foot spacing, a function of the side and the radius alone
    per_side, reversed_ = _per_side(geometry, l), _per_side(geometry, l[::-1])
    if isinstance(per_side, np.ndarray):
        assert reversed_.tobytes() == per_side[::-1].tobytes()
    else:
        assert reversed_ == per_side


@given(small_requests())
@settings(max_examples=300, deadline=None)
def test_reversal_reverses_angles_and_feet(request):
    _check_reversal(*request)


@given(long_requests())
@settings(max_examples=6, deadline=None)
def test_reversal_reverses_angles_and_feet_in_long_vectors(request):
    _check_reversal(*request)


# hypercycles of the small-request envelope: hyperbolic draws from it, made by
# a seeded generator until one is inscribed in a hypercycle (about 1 in 15)
@st.composite
def small_hypercycles(draw):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    while True:
        n = int(rng.integers(3, 13))
        l = np.exp(rng.uniform(math.log(0.25), math.log(4.0), n))
        try:
            cls = hyperbolic.classify(l)
        except NoPolygonError:
            continue
        if cls.kind == hyperbolic.HYPERCYCLE:
            return l, cls


#: a hypercycle (hypothesis found it) on which two phi solves that bracket
#: the root by different rules differ by 1.5e-12
SPACETIME_EXAMPLE = np.array([0.33068174704629283, 1.916963113366947, 1.6852262055097254])


@given(small_hypercycles())
@example((SPACETIME_EXAMPLE, hyperbolic.classify(SPACETIME_EXAMPLE)))
@settings(max_examples=300, deadline=None)
def test_spacetime_polygon_on_hypercycle_chords_is_the_hypercycle(hypercycle):
    # the hypercycle proof also proves the 1+1 spacetime theorem: on the chords
    # of a hypercycle, the hyperbola has radius cosh R, the same foot distances,
    # and the hypercycle's vertex columns (x1, x3).  Both solves take the one
    # phi step (hyperbolic.solve_on_axis), so they agree bit for bit
    l, cls = hypercycle
    hyp = hyperbolic.solve_hyperbolic(l)
    spacetime = minkowski.solve_minkowski(cls.chords)
    assert spacetime.radius == pytest.approx(math.cosh(hyp.axis_distance), rel=1e-14, abs=0)
    assert spacetime.foot_params.values.tobytes() == hyp.foot_distances.values.tobytes()
    assert spacetime.vertices.tobytes() == hyp.vertices[:, [0, 2]].tobytes()


EPS = sys.float_info.epsilon


# n - 1 sides log-uniform on [0.1, 10] and a first side 10**u of the way, u
# uniform on [-3, 0), from their sum towards the least side that keeps the
# polygon inequalities (Euclidean; |b - c| for a triangle), or their sum times
# 1 + 10**u (spacetime, and hypercycle chords)
@st.composite
def closed_form_polygons(draw, n: int, euclidean_plane: bool):
    log_side = st.floats(min_value=math.log(0.1), max_value=math.log(10.0))
    sides = [math.exp(draw(log_side)) for _ in range(n - 1)]
    step = 10.0 ** draw(st.floats(min_value=-3.0, max_value=0.0, exclude_max=True))
    total = math.fsum(sides)
    if euclidean_plane:
        short = math.fsum(sorted(sides)[:-1])  # all but the longest
        a = total - 2.0 * min(0.5 * total, short) * step
    else:
        a = total * (1.0 + step)
    assume(a > 0.0)  # a least side of 0 and a step that rounds to 1
    return np.array([a, *sides])


def _assert_closed_form_radius(radius: float, sides: np.ndarray) -> None:
    # the condition of the radius in the sides is about perimeter / |margin|
    _, margin = dominance(sides)
    unit = 8.0 * EPS * max(1.0, math.fsum(sides.tolist()) / abs(margin))
    closed_form = triangle_radius if sides.size == 3 else quadrilateral_radius
    assert abs(radius / closed_form(sides) - 1.0) <= unit, sides.tolist()


def _euclidean_radius(sides: np.ndarray) -> float:
    try:
        return euclidean.solve_euclidean(sides).radius
    except InfeasibleError:  # flat, or flat within rounding
        assume(False)


def _hypercycle_root(chords: np.ndarray) -> tuple:
    """The zero of Phi on the solver's own chords of the hyperbolic polygon whose
    chords these are, and those chords."""
    try:
        cls = hyperbolic.classify(2.0 * np.arcsinh(0.5 * chords))
    except NoPolygonError:
        assume(False)
    assume(cls.kind == hyperbolic.HYPERCYCLE)
    rot = cls.chords[hyperbolic.dominant_last(cls.index, chords.size)]
    return hyperbolic.solve_hypercycle_radius(rot), cls.chords


@given(closed_form_polygons(3, True))
@settings(max_examples=300, deadline=None)
def test_euclidean_triangle_radius_is_closed_form(sides):
    _assert_closed_form_radius(_euclidean_radius(sides), sides)


@given(closed_form_polygons(3, False))
@settings(max_examples=300, deadline=None)
def test_spacetime_triangle_radius_is_closed_form(sides):
    _assert_closed_form_radius(minkowski.solve_minkowski(sides).radius, sides)


@given(closed_form_polygons(3, False))
@settings(max_examples=300, deadline=None)
def test_hypercycle_triangle_root_is_closed_form(chords):
    _assert_closed_form_radius(*_hypercycle_root(chords))


@given(closed_form_polygons(4, True))
@settings(max_examples=300, deadline=None)
def test_euclidean_quadrilateral_radius_is_closed_form(sides):
    _assert_closed_form_radius(_euclidean_radius(sides), sides)


@given(closed_form_polygons(4, False))
@settings(max_examples=300, deadline=None)
def test_spacetime_quadrilateral_radius_is_closed_form(sides):
    _assert_closed_form_radius(minkowski.solve_minkowski(sides).radius, sides)


@given(closed_form_polygons(4, False))
@settings(max_examples=300, deadline=None)
def test_hypercycle_quadrilateral_root_is_closed_form(chords):
    _assert_closed_form_radius(*_hypercycle_root(chords))


# polygons of the small-request envelope, with one side then set to f times the
# sum of the others for f in [0.3, 0.999]: the center falls outside in about
# half of them
@st.composite
def polygons(draw):
    _, l = draw(small_requests(("euclidean",)))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=0, max_value=l.size - 1))
        l[k] = draw(st.floats(min_value=0.3, max_value=0.999)) * math.fsum(np.delete(l, k).tolist())
    return l


@given(polygons())
# the center outside, past a side beside 101 short ones: the upper bound is
# within 5e-5 of the root
@example(np.array([1.0] + [0.01] * 101))
@settings(max_examples=200, deadline=None)
def test_radius_bounds_bracket_the_root(l):
    m = int(np.argmax(l))
    others = np.delete(l, m)
    rest = math.fsum(others.tolist())
    assume(l[m] < rest)
    inside = math.fsum(np.arcsin(others / l[m]).tolist()) >= 0.5 * math.pi
    lo, hi = euclidean.radius_bounds(float(l[m]), rest, inside)
    assert lo <= euclidean_radius_bisect(l) <= hi
    # the far end, where the upper bound is not past the root, is past it too
    assert inside or hi <= euclidean.far_radius(float(l[m]), rest)


@given(small_hypercycles())
@settings(max_examples=100, deadline=None)
def test_axis_bound_brackets_the_hypercycle_root(hypercycle):
    _, cls = hypercycle
    rot = cls.chords[hyperbolic.dominant_last(cls.index, cls.chords.size)]
    rest = math.fsum(rot[:-1].tolist())
    bound = hyperbolic.axis_bound(float(rot[-1]), rest)
    assert 1.0 < phi_root_bisect(rot, 1.0, 2.0) <= bound <= euclidean.far_radius(float(rot[-1]), rest)


# spacetime polygons of the small-request envelope: one side f times the sum of
# the others, f log-uniform on [1.001, 1.5]
@st.composite
def spacetime_polygons(draw):
    _, l = draw(small_requests(("euclidean",)))
    k = draw(st.integers(min_value=0, max_value=l.size - 1))
    f = math.exp(draw(st.floats(min_value=math.log(1.001), max_value=math.log(1.5))))
    l[k] = f * math.fsum(np.delete(l, k).tolist())
    return l


@given(spacetime_polygons())
@settings(max_examples=100, deadline=None)
def test_axis_bound_brackets_the_hyperbola_radius(l):
    dom = int(np.argmax(l))
    rot = l[hyperbolic.dominant_last(dom, l.size)]
    rest = math.fsum(rot[:-1].tolist())
    bound = hyperbolic.axis_bound(float(rot[-1]), rest)
    assert phi_root_bisect(rot, 1e-3 * bound, bound) <= bound <= euclidean.far_radius(float(rot[-1]), rest)


# Near the existence threshold, at gaps 10**-k: the defect near the root is the
# margin over 2R plus cubic tails, summed apart, so the radius keeps its
# relative accuracy however close to flat the polygon is
NEAR_THRESHOLD_REL = 1e-14


def _assert_near_threshold_radius(sides: list) -> None:
    closed_form = triangle_radius if len(sides) == 3 else quadrilateral_radius
    radius = euclidean.solve_euclidean(sides).radius
    assert abs(radius / closed_form(sides) - 1.0) <= NEAR_THRESHOLD_REL, sides


@pytest.mark.parametrize("k", range(4, 16))
def test_near_flat_triangle_radius_is_closed_form(k):
    _assert_near_threshold_radius([1.0, 1.0, 2.0 - 10.0**-k])


@pytest.mark.parametrize("k", range(4, 16))
@pytest.mark.parametrize("others", [[1.0, 1.0, 1.0], [0.7, 1.1, 0.25]])
def test_near_flat_quadrilateral_radius_is_closed_form(others, k):
    _assert_near_threshold_radius([*others, math.fsum(others) * (1.0 - 10.0**-k)])


def test_near_flat_triangles_of_random_shape():
    # a, b = e^U(-1, 1) and c = (a + b)(1 - 10^U(-15, -1))
    rng = np.random.default_rng(3)
    for _ in range(300):
        a, b = np.exp(rng.uniform(-1.0, 1.0, 2)).tolist()
        _assert_near_threshold_radius([a, b, (a + b) * (1.0 - 10.0 ** rng.uniform(-15.0, -1.0))])
