"""Safeguarded Newton root finding on a sign-checked bracket.

The first step is a Newton step from the bracket end where |f| is smaller,
since the callers' ends are closed-form bounds that often lie very close to
the root.  Each step takes the Newton step when it lands strictly inside the
bracket and shrinks at least as fast as bisection, and bisects otherwise (the
rtsafe safeguard; Brent 1973, *Algorithms for Minimization without
Derivatives*).  Once a Newton step is within the relative tolerance, a few
more Newton steps polish the root to the evaluation noise floor.  Every point
f is evaluated at becomes a bracket end, so no point is evaluated twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import InvariantViolation

#: Newton steps tried after convergence; each must shrink |f| to be kept
_NEWTON_STEPS = 3


@dataclass(frozen=True)
class RootResult:
    """``iterations`` counts the evaluations of f after the two bracket ends
    (reports carry it as ``solver_iterations``)."""

    root: float
    iterations: int
    residual: float


def _newton_step(fx: float, d: float) -> float | None:
    """fx / d, or None where f' = d gives no usable step (zero, inf, NaN)."""
    step = fx / d if d != 0.0 else 0.0
    return step if 0.0 < abs(step) < math.inf else None


def bisect_newton(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    dfdx: Callable[[float], float],
    f_lo: float,
    f_hi: float,
    rel_tol: float = 1e-14,
) -> RootResult:
    """Find the root of f in [lo, hi], given f_lo = f(lo) and f_hi = f(hi).

    The two must not share a sign; f is not evaluated at the ends.  Safeguarded
    Newton from the end with the smaller |f|: a step bisects wherever the Newton
    step would leave the bracket or, after the first two steps, not halve the
    step before last, or where dfdx gives none (0, inf or NaN: a dfdx that
    returns NaN forces bisection).  The search ends once a Newton step, or the
    bracket, is at most rel_tol * |x|; up to three Newton steps, with the last
    derivative, then polish the root to the evaluation noise floor.
    """
    if f_lo == 0.0:
        return RootResult(lo, 0, 0.0)
    if f_hi == 0.0:
        return RootResult(hi, 0, 0.0)
    neg_lo = f_lo < 0.0
    if neg_lo == (f_hi < 0.0):
        raise InvariantViolation(
            f"root not bracketed: f({lo!r}) = {f_lo!r}, f({hi!r}) = {f_hi!r}"
        )

    x, fx = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    d = dfdx(x)
    newton = _newton_step(fx, d)  # the Newton step at x, once known
    iterations = 0
    dx_old, dx = math.inf, hi - lo
    while True:
        if newton is not None:
            x_new = x - newton
            # tested before the bracket: at the noise floor a sub-ulp step
            # lands on the bracket end x itself
            if lo <= x_new <= hi and abs(newton) <= rel_tol * abs(x):
                break
        if (
            newton is None
            or not lo < x_new < hi
            or 2.0 * abs(newton) > abs(dx_old)
        ):
            x_new = 0.5 * (lo + hi)
            if hi - lo <= rel_tol * max(abs(lo), abs(hi)) or not lo < x_new < hi:
                break
        dx_old, dx = dx, x - x_new
        x = x_new
        fx = f(x)
        iterations += 1
        newton = None
        if fx == 0.0:
            break
        if (fx < 0.0) == neg_lo:
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
        d = dfdx(x)
        newton = _newton_step(fx, d)

    # x is a bracket end (or a zero of f), and the polish keeps the bracket, so
    # a step onto the other end reads its value instead of evaluating f there;
    # at the noise floor f' is constant far below the steps, so d is kept
    for _ in range(_NEWTON_STEPS):
        if newton is None:
            break
        x_new = x - newton
        if x_new == x or not lo <= x_new <= hi:
            break
        if x_new == lo:
            f_new = f_lo
        elif x_new == hi:
            f_new = f_hi
        else:
            f_new = f(x_new)
            iterations += 1
            if (f_new < 0.0) == neg_lo:
                lo, f_lo = x_new, f_new
            else:
                hi, f_hi = x_new, f_new
        if abs(f_new) >= abs(fx):
            break
        x, fx = x_new, f_new
        newton = _newton_step(fx, d) if fx != 0.0 else None
    return RootResult(x, iterations, fx)
