"""Cyclic polygons in flat 1+1 spacetime, inscribed in a hyperbola branch.

R^{1,1} carries <x,y> = x1 y1 - x2 y2; a spacelike segment has length
sqrt(<d,d>).  A polygon with spacelike sides l_1..l_n inscribed in one
branch of <x,x> = -R^2 exists iff exactly one side strictly exceeds the sum
of the others (the reverse polygon inequality), and is then unique up to
the isometries of the plane (boosts, translations, reflections); this
module reports the canonical representative on the future branch (x2 > 0)
with the first vertex at rapidity 0.

The radius is found by the hypercycle's Phi step (hyperbolic.solve_on_axis),
with the side lengths themselves playing the role of chords (the ambient
plane is already flat): the zero of the same defect Phi (phi) on (0, inf),
where Phi tends to -inf at 0 and is eventually positive, so the bracket may
halve down to floor 0.  Rapidity increments a_k = 2 arsinh(l_k / 2R) then
place the vertices (R sinh t, R cosh t); with the dominant side last,
a_n = sum of the others.  A vertex's rapidity t is the running sum of the
increments before it, accumulated in double-double arithmetic in O(n)
(hyperbolic.place).  On a hypercycle's chords the hyperbola is therefore the
hypercycle bit for bit: radius Rbar = cosh(R), the same foot distances, and
its vertices are the hypercycle's (x1, x3) columns.

The variational functional phi_ell built from Clh2 has the solved polygon
as its constrained critical point but is neither concave nor convex, so it
is exposed for diagnostics only; no optimization over it is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import FootDistances, SideLengths, Vector, dominance
from .errors import DimensionMismatchError, ReverseInequalityError
from .hyperbolic import phi, solve_on_axis
from .specfun import clh2

__all__ = [
    "MinkowskiSolution",
    "check_minkowski_feasibility",
    "solve_minkowski",
    "phi",
    "phi_ell",
]


@dataclass(frozen=True, eq=False)
class MinkowskiSolution:
    """Unique hyperbola-inscribed polygon for the given spacelike sides.

    ``foot_params`` are the rapidity increments a_k in caller side order;
    ``dominant`` is the index of the dominant side.  Vertices lie on the
    future branch x2 > 0 of x1^2 - x2^2 = -radius^2.
    """

    radius: float
    foot_params: FootDistances
    dominant: int
    vertices: np.ndarray  # (n, 2)
    iterations: int = field(default=0, compare=False)


def check_minkowski_feasibility(lengths) -> tuple[int, float]:
    """Index of the dominant (longest) side and its margin over the sum of
    the others (domain.dominance); raises ReverseInequalityError unless the
    margin is strictly positive."""
    dom, margin = dominance(SideLengths.coerce(lengths).values)
    if not margin > 0.0:
        raise ReverseInequalityError(
            f"side {dom} does not strictly exceed the sum of the others "
            f"(margin {margin:g}): no hyperbola-inscribed polygon exists",
            index=dom,
        )
    return dom, margin


def solve_minkowski(lengths) -> MinkowskiSolution:
    """Construct the unique spacetime cyclic polygon with the given sides;
    raises what check_minkowski_feasibility and solve_on_axis raise."""
    lengths = SideLengths.coerce(lengths)
    dom, _ = check_minkowski_feasibility(lengths)
    res, feet, vertices = solve_on_axis(lengths, dom, 0.0)
    return MinkowskiSolution(
        radius=res.root,
        foot_params=feet,
        dominant=dom,
        vertices=vertices,
        iterations=res.iterations,
    )


def phi_ell(lengths, a) -> float:
    """Diagnostic functional sum_{k<n}(Clh2(a_k) + log(l_k) a_k) - (Clh2(a_n) + log(l_n) a_n).

    Expects the dominant side last.  Its critical points under the
    constraint a_n = sum_{k<n} a_k are exactly the solved polygons
    (-log|2 sinh(a_k/2)| + log(l_k) is then the same constant log R for all
    k), but it is neither concave nor convex, so it is not used as a solver.
    """
    lengths = SideLengths.coerce(lengths)
    arr = Vector(a).values
    if arr.size != lengths.n:
        raise DimensionMismatchError(f"{lengths.n} side lengths vs {arr.size} foot parameters")
    logl = np.log(lengths.values)
    terms = [clh2(float(ak)) + logl[k] * float(ak) for k, ak in enumerate(arr)]
    return math.fsum(terms[:-1]) - terms[-1]
