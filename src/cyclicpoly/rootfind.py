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
    dfdx: Callable[[float], float] | None = None,
    rel_tol: float = 1e-14,
    f_lo: float | None = None,
    f_hi: float | None = None,
) -> RootResult:
    """Find the root of f in [lo, hi]; f(lo) and f(hi) must not share a sign.

    Safeguarded Newton from the midpoint: the bracket shrinks to every
    evaluated point, and a step bisects wherever the Newton step (given
    dfdx) would leave the bracket or not halve the step before last.  The
    search ends once a Newton step is at most rel_tol * |x| (without dfdx:
    once the bracket is that narrow), and up to three Newton steps then
    polish the root while |f| strictly falls, so any tolerance ends at the
    evaluation noise floor.  Given f_lo or f_hi, f is not evaluated at that end.
    """
    flo = f(lo) if f_lo is None else f_lo
    if flo == 0.0:
        return RootResult(lo, 0, 0.0)
    fhi = f(hi) if f_hi is None else f_hi
    if fhi == 0.0:
        return RootResult(hi, 0, 0.0)
    neg_lo = flo < 0.0
    if neg_lo == (fhi < 0.0):
        raise InvariantViolation(
            f"root not bracketed: f({lo!r}) = {flo!r}, f({hi!r}) = {fhi!r}"
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
        newton = _newton_step(fx, dfdx(x)) if dfdx is not None else None
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
