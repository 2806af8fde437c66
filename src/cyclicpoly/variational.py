"""Variational route to the Euclidean cyclic polygon.

For sides l the functional

    f_l(a) = sum_k ( Cl2(a_k) + log(l_k) a_k )

is strictly concave on the open simplex D_n = {a > 0, sum a = 2*pi}, and its
critical points are exactly the central-angle vectors of cyclic polygons
with sides l: the gradient condition says -log|2 sin(a_k/2)| + log(l_k) is
the same constant log(R) for every k, i.e. l_k = 2 R sin(a_k/2).  The
concavity is not termwise: Cl2''(x) = -cot(x/2)/2 is positive on (pi, 2*pi).
But at most one angle a_m can pass pi.  When one does, the others' half-angles
x_j = a_j/2 sum to X < pi/2, and the Hessian restricted to the simplex is
negative definite exactly when

    s = 1 - sum_{j != m} tan(x_j) / tan(X) > 0,

which holds for n >= 3 because tan is superadditive on [0, pi/2).

``maximize_on_simplex`` starts at the chord angles 2 arcsin(l_k / 2r), scaled
to sum to 2*pi, of the circle of radius r = max(perimeter / 2pi, longest / 2).
r <= R, since the perimeter is below 2 pi R and no side passes the diameter
2R: each chord angle is defined and at least its value at R, so a side of any
size starts near its own angle, where 2*pi/n is off by the ratio of the sides.
The ascent runs in reduced coordinates that eliminate the largest angle a_m,
so every other h_j = Cl2''(a_j) is negative and the reduced Hessian is
diag(h_j) + h_m * ones.  The Sherman-Morrison formula solves for the Newton
step in O(n); its denominator is the s above.  When the other angles are
small, s is of the order of their square and is lost to rounding, so where
the computed s is not positive the step falls back to the diagonal step
(g_m - g_j) / h_j, which is still an ascent direction.  On a line a + t v
(sum v = 0) f_l is concave, so f_l(a + t v) >= f_l(a) + t g_t.v with g_t its
gradient there: a step with g_t.v >= 1e-4 g.v passes the Armijo test
unevaluated.  A Newton step that overshoots the line's maximum fails that
test; on each half of it g.v is at least its value at the half's end, so
f_l(a + t v) - f_l(a) >= (t/2) (g_mid + g_t).v with g_mid the gradient at the
midpoint, and the step passes when (g_mid + g_t).v / 2 >= 1e-4 g.v.  That
proof is used only where the slope g.v is resolved above the rounding of the
dot products, g.v >= 1e8 eps (|g| + 1).|v|; near a flat polygon it is not.
Only where neither proof holds (or g_t.v is not finite) does a backtracking
line search on f_l decide; the Newton endgame makes no test.  No step to a
non-finite gradient is kept.  Every step is capped at half the
distance to the simplex boundary, so every angle stays positive -- the inward
derivative at the boundary is +infinity, so the maximizer of a feasible
instance is interior and the ascent cannot stall there.  This path is
deliberately independent of the radius root-finder in ``euclidean``; agreement
of the two is a library self-check.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .domain import TWO_PI, CentralAngles, SideLengths, fsum, mean
from .errors import ConvergenceError, DimensionMismatchError, DomainError
from .errors import InvariantViolation, NearDegenerateError
from .specfun import _clausen2_vec

__all__ = [
    "f_ell",
    "v_n",
    "grad_f_ell",
    "maximize_on_simplex",
    "check_critical_point",
]

_GRAD_SPREAD_TOL = 1e-10  # the ascent stops at this gradient spread max - min
_MAX_ITERATIONS = 10_000  # ascent steps before ConvergenceError
_CRITICAL_REL_TOL = 1e-9  # relative spread of the radii check_critical_point accepts
_RESOLVED_SLOPE = 1e8 * sys.float_info.epsilon  # of (|g| + 1).|v|, for the midpoint proof


def _match(lengths: SideLengths, angles: CentralAngles) -> None:
    if lengths.n != angles.n:
        raise DimensionMismatchError(
            f"{lengths.n} side lengths vs {angles.n} central angles"
        )


def f_ell(lengths, alpha) -> float:
    """The concave objective sum_k (Cl2(a_k) + log(l_k) a_k)."""
    lengths = SideLengths.coerce(lengths)
    alpha = CentralAngles.coerce(alpha)
    _match(lengths, alpha)
    a = alpha.values
    terms = _clausen2_vec(a) + np.log(lengths.values) * a
    return math.fsum(terms.tolist())


def v_n(alpha) -> float:
    """sum_k Cl2(a_k): the length-independent part of the objective."""
    alpha = CentralAngles.coerce(alpha)
    return math.fsum(_clausen2_vec(alpha.values).tolist())


def _gradient(logl: np.ndarray, a: np.ndarray) -> np.ndarray:
    return -np.log(2.0 * np.sin(0.5 * a)) + logl


def grad_f_ell(lengths, alpha) -> np.ndarray:
    """Gradient of f_ell; component k is -log|2 sin(a_k/2)| + log(l_k).

    Only defined at interior points: on the simplex boundary the derivative
    of Cl2 is +infinity.
    """
    lengths = SideLengths.coerce(lengths)
    alpha = CentralAngles.coerce(alpha)
    _match(lengths, alpha)
    if not alpha.is_interior:
        raise DomainError(
            "gradient is singular at the simplex boundary (some angle is 0 or 2*pi)"
        )
    return _gradient(np.log(lengths.values), alpha.values)


def _objective(logl: np.ndarray, a: np.ndarray) -> float:
    return math.fsum((_clausen2_vec(a) + logl * a).tolist())


def _ascent_direction(g: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, bool]:
    """An ascent direction v (sum v = 0) at a, and whether it is the Newton step.

    O(n): the largest angle a_m is eliminated, and the reduced Hessian
    diag(h_j) + h_m * ones is inverted with the Sherman-Morrison formula.
    """
    m = int(np.argmax(a))
    h = -0.5 / np.tan(0.5 * a)
    h_m = h[m]
    h[m] = 1.0  # the m-th entries below must vanish; any nonzero value works
    v = (g[m] - g) / h  # the diagonal step, an ascent direction since h_j < 0
    w = 1.0 / h
    w[m] = 0.0
    s = 1.0 + h_m * float(w.sum())  # Sherman-Morrison denominator
    newton = s > 0.0
    if newton:
        v -= (h_m * float(v.sum()) / s) * w
    v[m] = -float(v.sum())
    return v, newton


def _step(a: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    a_new = a + t * v
    a_new *= TWO_PI / math.fsum(a_new.tolist())
    return a_new


def _midpoint_proves(logl, a, t, v, g, g_new, slope) -> bool:
    """Whether concavity proves the Armijo test of the step a + t v from the
    gradients at its midpoint and its end: f rises by at least
    (t/2) (g_mid + g_new).v, since g.v falls along the line.  Where the slope is
    within rounding of the dot products, or g_new is not finite, the proof is
    not tried."""
    end = float(g_new @ v)
    if not (math.isfinite(end) and slope >= _RESOLVED_SLOPE * float((np.abs(g) + 1.0) @ np.abs(v))):
        return False
    g_mid = _gradient(logl, _step(a, 0.5 * t, v))
    return 0.5 * (float(g_mid @ v) + end) >= 1e-4 * slope


def maximize_on_simplex(lengths) -> CentralAngles:
    """Maximize f_ell over the open simplex of central angles.

    The caller is responsible for the strict polygon inequalities (see
    euclidean.check_polygon_inequalities); for such inputs the maximizer is
    the unique interior critical point, where all gradient components agree
    (the shared value is log of the circumradius).  Convergence is declared
    when the gradient spread max - min drops to _GRAD_SPREAD_TOL; one more
    step is then taken, and kept if its spread is no larger.  A spread still
    above it after _MAX_ITERATIONS steps raises ConvergenceError, and a start
    angle whose -cot(a/2)/2 overflows NearDegenerateError.

    A step is accepted without evaluating f_ell where concavity proves the
    Armijo test: from the gradient at its end, or, on a Newton step whose
    slope g.v is at least 1e8 eps (|g| + 1).|v|, from the gradients at its
    midpoint and its end (_midpoint_proves).  Only the other steps run a
    backtracking line search on f_ell, as near a flat polygon, where the
    slope is within rounding.
    """
    lengths = SideLengths.coerce(lengths)
    logl = np.log(lengths.values)

    # the start, on the sides scaled by the power of two that puts the longest in [0.5, 1)
    l = np.ldexp(lengths.values, -math.frexp(float(lengths.values.max()))[1])
    r = max(fsum(l) / TWO_PI, 0.5 * float(l.max()))  # a lower bound on R
    a = 2.0 * np.arcsin(np.minimum(1.0, l / (2.0 * r)))
    a *= TWO_PI / fsum(a)
    k = int(np.argmin(a))
    if not math.tan(0.5 * a[k]) >= 0.5 / sys.float_info.max:  # h_k would overflow
        raise NearDegenerateError(f"side {k} is too short for its simplex-ascent angle", index=k)
    g = _gradient(logl, a)
    fa = None  # f_ell at a, evaluated only when the line search needs it
    converged = None  # (angles, spread) where the spread test first passed

    for _ in range(_MAX_ITERATIONS):
        spread = float(g.max() - g.min())
        if converged is not None:
            return CentralAngles(a if spread <= converged[1] else converged[0])
        if spread <= _GRAD_SPREAD_TOL:
            converged = (a, spread)

        v, newton = _ascent_direction(g, a)
        slope = float(g @ v)
        if not slope > 0.0:
            break  # numerically stationary

        # cap the step at half the distance to the simplex boundary (a ratio over
        # a tiny v_k overflows and does not bind); off a feasible path g_new may
        # be non-finite
        falling = v < 0.0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t = min(1.0, 0.5 * float((a[falling] / -v[falling]).min()))
            a_new = _step(a, t, v)
            g_new = _gradient(logl, a_new)
        # endgame: objective improvements drop below evaluation noise, so let
        # Newton contract the iterate; elsewhere concavity proves Armijo from
        # the end's gradient, or from the midpoint's on an overshooting Newton step
        if (
            (newton and spread < 1e-5)
            or g_new @ v >= 1e-4 * slope
            or (newton and _midpoint_proves(logl, a, t, v, g, g_new, slope))
        ):
            fa = None
        else:
            if fa is None:
                fa = _objective(logl, a)
            for halvings in range(60):
                f_new = _objective(logl, a_new)
                if f_new >= fa + 1e-4 * t * slope:
                    fa = f_new
                    break
                t *= 0.5
                a_new = _step(a, t, v)
            else:
                break  # no ascent within 60 halvings
            if halvings:
                g_new = _gradient(logl, a_new)
        if (a_new == a).all() or not np.isfinite(g_new).all():
            break  # the step is lost to rounding, or leaves the feasible path
        a, g = a_new, g_new

    if converged is not None:
        return CentralAngles(converged[0])
    spread = float(g.max() - g.min())
    if spread <= _GRAD_SPREAD_TOL:
        return CentralAngles(a)
    raise ConvergenceError(
        f"simplex ascent did not reach gradient spread {_GRAD_SPREAD_TOL:g} "
        f"(best {spread:.3e})",
        best=CentralAngles(a),
        gradient_spread=spread,
    )


def check_critical_point(lengths, alpha) -> float:
    """Verify the circumradius relation at an interior angle vector.

    Returns the common value R of l_k / (2 sin(a_k/2)) when all components
    agree to _CRITICAL_REL_TOL (1e-9) relative, and raises InvariantViolation
    with their relative spread otherwise.
    """
    lengths = SideLengths.coerce(lengths)
    alpha = CentralAngles.coerce(alpha)
    _match(lengths, alpha)
    if not alpha.is_interior:
        raise DomainError("critical-point check requires an interior angle vector")
    ratios = lengths.values / (2.0 * np.sin(0.5 * alpha.values))
    r = mean(ratios)
    spread = float((ratios.max() - ratios.min()) / r)
    if spread <= _CRITICAL_REL_TOL:
        return r
    raise InvariantViolation(
        f"variational maximizer is not a critical point (spread {spread:.3e})"
    )
