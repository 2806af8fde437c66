"""Independent correctness check for every answer the benchmark receives.

Nothing here calls the library.  Existence is recomputed from the side
lengths alone, and an ok report must reproduce the requested sides from its
intrinsic parameters (radius, central angles, foot distances, horocycle
offsets), not from its float vertex coordinates.

``judge`` sorts each answer into one of these outcomes:

* ``ok`` / ``infeasible``: a correct answer (counts as answered);
* ``near_degenerate``: the structured near-degenerate refusal on a feasible
  request; not a failure, counted on its own;
* ``internal_error``: the library refused with its internal-error code;
* ``wrong``: a false ok, a false infeasible, an ok whose parameters miss the
  sides, a verify whose two solver paths disagree, or a malformed report.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

#: largest relative error allowed when the intrinsic parameters of an ok
#: report are mapped back to side lengths
SIDE_REL_TOL = 1e-9
#: largest absolute error allowed on sum(angles) == 2*pi
ANGLE_SUM_TOL = 1e-9
#: largest error allowed on foot additivity (dominant = sum of the others),
#: relative to the dominant foot distance
FOOT_REL_TOL = 1e-9
#: largest dual_path_radius_rel_delta allowed in a Euclidean verify report
DUAL_PATH_TOL = 1e-8
#: the library's default horocycle band; margins inside it are horocycles
HOROCYCLE_BAND = 1e-9

INFEASIBLE_CODES = {
    "euclidean": {"polygon_inequality"},
    "hyperbolic": {"polygon_inequality"},
    "spherical": {"polygon_inequality", "perimeter"},
    "minkowski": {"reverse_inequality"},
}


def _dominant(lengths):
    m = max(range(len(lengths)), key=lengths.__getitem__)
    return m, lengths[m] - math.fsum(lengths[:m] + lengths[m + 1:])


def exists(geometry: str, lengths: list[float]) -> bool:
    """Existence from the side lengths alone (see the README's table)."""
    _, margin = _dominant(lengths)
    if geometry == "minkowski":
        return margin > 0.0
    if geometry == "spherical" and math.fsum(lengths) >= TWO_PI:
        return False
    return margin < 0.0


def _sides_error(recovered, lengths) -> str | None:
    worst = max(abs(r - l) / l for r, l in zip(recovered, lengths))
    if not worst <= SIDE_REL_TOL:
        return f"sides reproduced to {worst:.3e} relative (tolerance {SIDE_REL_TOL:g})"
    return None


def _angles_error(angles, n) -> str | None:
    if len(angles) != n or min(angles) <= 0.0:
        return "angles are not n positive values"
    err = abs(math.fsum(angles) - TWO_PI)
    if not err <= ANGLE_SUM_TOL:
        return f"angles sum to 2*pi within {err:.3e} (tolerance {ANGLE_SUM_TOL:g})"
    return None


def _foot_error(a, dom) -> str | None:
    err = abs(a[dom] - math.fsum(a[:dom] + a[dom + 1:]))
    if not err <= FOOT_REL_TOL * a[dom]:
        return f"foot additivity off by {err:.3e} (tolerance {FOOT_REL_TOL:g} relative)"
    return None


def _circle_sides(chordal_radius, angles, lift):
    return [lift(chordal_radius * math.sin(0.5 * a)) for a in angles]


def _euclidean(sol, lengths):
    angles = sol["angles"]
    err = _angles_error(angles, len(lengths))
    if err:
        return err
    if sol["center_inside"] != (max(angles) <= math.pi):
        return "center_inside disagrees with the angles"
    return _sides_error(_circle_sides(sol["radius"], angles, lambda c: 2.0 * c), lengths)


def _spherical(sol, lengths):
    angles = sol["angles"]
    err = _angles_error(angles, len(lengths))
    if err:
        return err
    rbar = sol["chordal_radius"]
    if not 0.0 < rbar < 1.0 or abs(math.asin(rbar) - sol["circumradius"]) > 1e-12 * math.asin(rbar):
        return "chordal radius and circumradius disagree"
    return _sides_error(_circle_sides(rbar, angles, lambda c: 2.0 * math.asin(c)), lengths)


def _hyperbolic(sol, lengths):
    n = len(lengths)
    chords = [2.0 * math.sinh(0.5 * l) for l in lengths]
    dom, margin = _dominant(chords)
    band = HOROCYCLE_BAND * math.fsum(chords)
    expected = "circle" if margin < -band else "hypercycle" if margin > band else "horocycle"
    cls = sol["class"]
    if cls["kind"] != expected or cls["dominant"] != dom:
        return f"class {cls['kind']}/{cls['dominant']}, expected {expected}/{dom}"
    if expected == "circle":
        angles = sol["angles"]
        err = _angles_error(angles, n)
        if err:
            return err
        rbar = math.sinh(sol["circumradius"])
        return _sides_error(_circle_sides(rbar, angles, lambda c: 2.0 * math.asinh(c)), lengths)
    if expected == "hypercycle":
        a = sol["foot_distances"]
        if len(a) != n:
            return "foot distances are not n values"
        rbar = math.cosh(sol["axis_distance"])
        sides = [2.0 * math.asinh(rbar * math.sinh(0.5 * ak)) for ak in a]
        return _foot_error(a, dom) or _sides_error(sides, lengths)
    # horocycle: marks start after the dominant side and run in side order;
    # the parameter difference of two marks is their chord
    s = sol["offsets"]
    if len(s) != n or s[0] != 0.0:
        return "offsets are not n marks starting at 0"
    order = [(dom + 1 + j) % n for j in range(n)]
    recovered = [0.0] * n
    for j in range(n - 1):
        recovered[order[j]] = 2.0 * math.asinh(0.5 * (s[j + 1] - s[j]))
    recovered[dom] = 2.0 * math.asinh(0.5 * (s[-1] - s[0]))
    others = [k for k in range(n) if k != dom]
    err = _sides_error([recovered[k] for k in others], [lengths[k] for k in others])
    if err:
        return err
    # the dominant side answers the nearest exact horocycle, within the band
    tol = max(SIDE_REL_TOL, 1.5 * abs(margin) / chords[dom])
    rel = abs(recovered[dom] - lengths[dom]) / lengths[dom]
    if not rel <= tol:
        return f"dominant side reproduced to {rel:.3e} relative (tolerance {tol:.3e})"
    return None


def _minkowski(sol, lengths):
    dom, _ = _dominant(lengths)
    if sol["dominant"] != dom:
        return f"dominant side {sol['dominant']}, expected {dom}"
    a = sol["foot_params"]
    if len(a) != len(lengths):
        return "foot parameters are not n values"
    radius = sol["radius"]
    sides = [2.0 * radius * math.sinh(0.5 * ak) for ak in a]
    return _foot_error(a, dom) or _sides_error(sides, lengths)


_SOLUTION_CHECKS = {
    "euclidean": _euclidean,
    "spherical": _spherical,
    "hyperbolic": _hyperbolic,
    "minkowski": _minkowski,
}


def solution_error(request: dict, report: dict) -> str | None:
    """Why an ok report (solve or verify) is wrong, or None if it is right."""
    geometry, lengths = request["geometry"], request["lengths"]
    if report.get("geometry") != geometry:
        return f"report geometry {report.get('geometry')!r}, expected {geometry!r}"
    sol = report["solution"]
    if len(sol["vertices"]) != len(lengths):
        return "vertex count differs from the side count"
    if "checks" in report and geometry == "euclidean":
        delta = report["checks"]["dual_path_radius_rel_delta"]
        if not delta <= DUAL_PATH_TOL:
            return f"dual-path radius delta {delta:.3e} exceeds {DUAL_PATH_TOL:g}"
    return _SOLUTION_CHECKS[geometry](sol, lengths)


def judge(request: dict, report: dict) -> tuple[str, str | None]:
    """Classify one answer; returns (outcome, reason for a wrong answer)."""
    geometry, lengths = request["geometry"], request["lengths"]
    feasible = exists(geometry, lengths)
    status = report.get("status")
    if status == "ok":
        if not feasible:
            return "wrong", "ok report for a request with no solution"
        try:
            reason = solution_error(request, report)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            reason = f"malformed ok report: {exc!r}"
        return ("wrong", reason) if reason else ("ok", None)
    code = report.get("error", {}).get("code") if status == "error" else None
    if code in INFEASIBLE_CODES[geometry]:
        if feasible:
            return "wrong", f"{code} error for a request that has a solution"
        return "infeasible", None
    if code == "near_degenerate" and feasible:
        return "near_degenerate", None
    if code == "internal_error":
        return "internal_error", None
    return "wrong", f"unexpected report status {status!r} code {code!r}"
