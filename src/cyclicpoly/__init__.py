"""Cyclic polygons with prescribed side lengths, in four geometries.

Given n >= 3 positive side lengths, decide whether a convex polygon
inscribed in a circle (Euclidean, spherical), a constant-curvature curve
(hyperbolic: circle, horocycle, or hypercycle), or a hyperbola branch
(1+1 spacetime) exists, and construct the unique solution with explicit
vertex coordinates.  Two independent solution paths are provided for the
Euclidean case (radius root-finding and concave maximization over the
simplex of central angles) and cross-checked by the CLI's verify command.
"""

from .domain import CentralAngles, SideLengths
from .errors import (
    ConvergenceError,
    CyclicPolyError,
    DimensionMismatchError,
    DomainError,
    InfeasibleError,
    InfiniteDivergenceError,
    InvariantViolation,
    NearDegenerateError,
    NoPolygonError,
    PerimeterError,
    ReverseInequalityError,
)
from .euclidean import (
    EuclideanSolution,
    check_polygon_inequalities,
    polygon_area,
    solve_euclidean,
    vertices_on_circle,
)
from .hyperbolic import (
    FootDistances,
    HypCurveClass,
    HyperbolicSolution,
    classify,
    hyp_chord,
    phi,
    phi_prime,
    solve_hyperbolic,
    solve_hypercycle_radius,
)
from .minkowski import (
    MinkowskiSolution,
    check_minkowski_feasibility,
    phi_ell,
    solve_minkowski,
)
from .specfun import ProbDist, clausen2, clh2, clh2_via_dilog, kl_divergence, lobachevsky
from .spherical import (
    SphericalSolution,
    check_spherical_feasibility,
    chord_from_arc,
    solve_spherical,
)
from .variational import (
    check_critical_point,
    f_ell,
    grad_f_ell,
    maximize_on_simplex,
    v_n,
)

__version__ = "0.1.0"

__all__ = [
    "CentralAngles",
    "SideLengths",
    "ProbDist",
    "clausen2",
    "lobachevsky",
    "clh2",
    "clh2_via_dilog",
    "kl_divergence",
    "f_ell",
    "v_n",
    "grad_f_ell",
    "maximize_on_simplex",
    "check_critical_point",
    "check_polygon_inequalities",
    "solve_euclidean",
    "vertices_on_circle",
    "polygon_area",
    "EuclideanSolution",
    "chord_from_arc",
    "check_spherical_feasibility",
    "solve_spherical",
    "SphericalSolution",
    "hyp_chord",
    "classify",
    "phi",
    "phi_prime",
    "solve_hypercycle_radius",
    "solve_hyperbolic",
    "HypCurveClass",
    "FootDistances",
    "HyperbolicSolution",
    "check_minkowski_feasibility",
    "solve_minkowski",
    "phi_ell",
    "MinkowskiSolution",
    "CyclicPolyError",
    "DomainError",
    "DimensionMismatchError",
    "InfeasibleError",
    "NoPolygonError",
    "PerimeterError",
    "ReverseInequalityError",
    "NearDegenerateError",
    "ConvergenceError",
    "InvariantViolation",
    "InfiniteDivergenceError",
    "__version__",
]
