"""Exception types shared by all solver modules.

Infeasibility (no polygon with the requested sides exists in the target
geometry) is kept distinct from malformed input: the CLI maps the former to
exit code 2 and the latter to exit code 1.
"""

from __future__ import annotations


class CyclicPolyError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CyclicPolyError, ValueError):
    """An argument is outside a function's documented domain.

    Covers non-finite scalars, wrong signs, vectors that are too short,
    and similar malformed input.
    """


class DimensionMismatchError(DomainError):
    """Two vectors that must have matching lengths do not."""


class InfeasibleError(CyclicPolyError):
    """No polygon with the requested side lengths exists.

    Subclasses identify which existence condition failed; ``code`` is the
    machine-readable tag used in CLI reports.
    """

    code = "infeasible"

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NoPolygonError(InfeasibleError):
    """A side is >= the sum of the others (polygon inequality fails).

    ``index`` is the 0-based offending side, ``equality`` distinguishes the
    degenerate flat case from outright violation.
    """

    code = "polygon_inequality"

    def __init__(self, message: str, index: int, equality: bool = False):
        super().__init__(message, index)
        self.equality = equality


class PerimeterError(InfeasibleError):
    """Spherical perimeter bound fails: the sides must sum to < 2*pi."""

    code = "perimeter"


class ReverseInequalityError(InfeasibleError):
    """Spacetime condition fails: no side strictly exceeds the sum of the others."""

    code = "reverse_inequality"


class NearDegenerateError(InfeasibleError):
    """The circumradius, or a vertex coordinate, passes the float range.

    Raised for vertices that lie too far out along a hypercycle, horocycle or
    hyperbola, a Minkowski radius too small, a hypercycle too close to its
    axis, or a side too short for its chord or central angle, to be
    represented.  Near-flat input is not refused as such: a polygon strict by
    one ulp is solved.
    """

    code = "near_degenerate"


class ConvergenceError(CyclicPolyError):
    """An iterative solver exhausted its budget.

    Carries the best iterate and its gradient spread so callers can inspect
    how close the run got.
    """

    def __init__(self, message: str, best=None, gradient_spread: float | None = None):
        super().__init__(message)
        self.best = best
        self.gradient_spread = gradient_spread


class InvariantViolation(CyclicPolyError):
    """An internal consistency check failed.

    This signals a bug in the solver (or a caller bypassing documented
    preconditions), never bad user input.
    """


class InfiniteDivergenceError(CyclicPolyError):
    """KL divergence is +infinity: p puts mass where q has none."""
