"""Safeguarded scalar root finding: bisection to a relative tolerance, then
a few bracket-confined Newton steps to polish to the evaluation noise floor."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import InvariantViolation

#: Newton steps tried after bisection; each must shrink |f| to be kept
_NEWTON_STEPS = 3


@dataclass(frozen=True)
class RootResult:
    root: float
    iterations: int
    residual: float


def bisect_newton(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    dfdx: Callable[[float], float] | None = None,
    rel_tol: float = 1e-14,
) -> RootResult:
    """Find the root of f in [lo, hi]; f(lo) and f(hi) must not share a sign.

    Bisection narrows the bracket to a relative width of rel_tol; Newton
    steps (if dfdx is given) then polish within the final bracket.
    """
    flo = f(lo)
    if flo == 0.0:
        return RootResult(lo, 0, 0.0)
    fhi = f(hi)
    if fhi == 0.0:
        return RootResult(hi, 0, 0.0)
    if (flo > 0.0) == (fhi > 0.0):
        raise InvariantViolation(
            f"root not bracketed: f({lo!r}) = {flo!r}, f({hi!r}) = {fhi!r}"
        )

    iterations = 0
    fmid = flo
    while hi - lo > rel_tol * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = f(mid)
        iterations += 1
        if fmid == 0.0:
            return RootResult(mid, iterations, 0.0)
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid

    x = 0.5 * (lo + hi)
    fx = f(x)
    if dfdx is not None:
        for _ in range(_NEWTON_STEPS):
            if fx == 0.0:
                break
            d = dfdx(x)
            if d == 0.0 or not (abs(d) < float("inf")):
                break
            step = fx / d
            x_new = x - step
            if not (lo <= x_new <= hi):
                break
            f_new = f(x_new)
            iterations += 1
            if abs(f_new) >= abs(fx):
                break
            x, fx = x_new, f_new
    return RootResult(x, iterations, fx)
