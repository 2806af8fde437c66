"""Safeguarded Newton root finding on a sign-checked bracket.

Each step takes the Newton step when it lands strictly inside the bracket
and shrinks at least as fast as bisection, and bisects otherwise (the
rtsafe safeguard; Brent 1973, *Algorithms for Minimization without
Derivatives*).  Once a Newton step is within the relative tolerance, a few
more Newton steps polish the root to the evaluation noise floor.
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
    Newton from the midpoint: a step bisects wherever the Newton step would
    leave the bracket or not halve the step before last, or where dfdx gives
    none (0, inf or NaN: a dfdx that returns NaN forces bisection).  The search
    ends once a Newton step, or the bracket, is at most rel_tol * |x|; up to
    three Newton steps then polish the root to the evaluation noise floor.
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

    x = 0.5 * (lo + hi)
    fx = f(x)
    iterations = 1
    dx_old = dx = hi - lo
    newton = None  # the Newton step at x, once known
    while fx != 0.0:
        if (fx < 0.0) == neg_lo:
            lo = x
        else:
            hi = x
        newton = _newton_step(fx, dfdx(x))
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

    for _ in range(_NEWTON_STEPS):
        if newton is None:
            break
        x_new = x - newton
        if x_new == x or not lo <= x_new <= hi:
            break
        f_new = f(x_new)
        iterations += 1
        if abs(f_new) >= abs(fx):
            break
        x, fx = x_new, f_new
        newton = _newton_step(fx, dfdx(x)) if fx != 0.0 else None
    return RootResult(x, iterations, fx)
