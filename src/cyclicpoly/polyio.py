"""Request parsing, solution reports, and report serialization for the CLI.

A request is a JSON object {"geometry": ..., "lengths": [...]}: no option
sets the horocycle band (hyperbolic.HOROCYCLE_BAND) or a root solve's
precision.  A report is a JSON object with "status" "ok" or "error"; ok
reports carry the geometry-tagged solution payload plus diagnostics
(recovery residuals, solver iterations, cross-check deltas).  One gate pass
serves every curve class: each side is recovered as the root of its side
vector's ambient quadratic form, in a power-of-two unit of its own, pulled
back through the chord map, and every residual row is checked against its
bound before a report is emitted; a violation raises rather than emitting a
bad report.

Floats are serialized with 17 significant digits (binary64 round-trip
exact) in one template pass: one walk builds a %-template with a %.17g field
per float, and one % fills it.  A float vector or matrix is one block: payloads
hold the solvers' float64 arrays, and a list (a JSON-loaded report) is walked
item by item into the same text.  The solvers store an (n, k) vertex matrix
column by column (domain.columns), so the gates' reductions along n and the
test for a constant column run over contiguous memory; the writer copies its
cells into row order once.  A finite matrix column of one value (the
shared height of the vertices on a sphere's circle) is formatted once, into
the row text.  A finite block of at least _BLOCK_CUTOFF cells is written by a
numpy kernel, byte for byte as %.17g writes it (exact digits from Dekker's
two-product), and its parts go straight into the % arguments through %s fields;
smaller blocks keep their %.17g fields.  A float is checked where it is written,
so the first non-finite value in report order raises.  The kernel's rare
fix-ups (a decade that log10 missed, a borrow or carry between the digit
halves, a last 4-digit group of 0) run only on the cells that need them.
Keys and strings are quoted as json.dumps quotes them; reports round-trip byte for byte.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import euclidean, hyperbolic, minkowski, spherical, variational
from .domain import TWO_PI, SideLengths, excess, fsum, mean
from .errors import DomainError, InvariantViolation

__all__ = [
    "GEOMETRIES",
    "SolveRequest",
    "RequestError",
    "parse_request",
    "cli_solve",
    "cli_classify",
    "cli_verify",
    "dumps_report",
]

GEOMETRIES = ("euclidean", "spherical", "hyperbolic", "minkowski")

_CONVENTIONS = {
    "euclidean": "circumcenter at origin, first vertex on +x, counterclockwise",
    "spherical": "circle axis +z, first vertex in the xz-plane, counterclockwise from the axis",
    "hyperbolic:circle": "circle centered on (0,0,1), first vertex in the x1x3-plane",
    "hyperbolic:horocycle": "horocycle x3 - x1 = 1, marking starts at (0,0,1)",
    "hyperbolic:hypercycle": "axis geodesic in the x1x3-plane, vertices at x2 = +sinh(R)",
    "minkowski": "future hyperbola branch (x2 > 0), first vertex at rapidity 0",
}


class RequestError(DomainError):
    """The request is structurally malformed (bad JSON shape, unknown keys)."""


@dataclass(frozen=True)
class SolveRequest:
    geometry: str
    lengths: list[float]


def parse_request(data, *, geometry: str | None = None) -> SolveRequest:
    """Validate a decoded request object; a geometry given here (the CLI's
    --geometry) overrides the request's."""
    if not isinstance(data, dict):
        raise RequestError(f"request must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {"geometry", "lengths"}
    if unknown:
        raise RequestError(f"unknown request keys: {sorted(unknown)}")

    geo = geometry if geometry is not None else data.get("geometry")
    if geo is None:
        raise RequestError("no geometry: set \"geometry\" in the request or pass --geometry")
    if geo not in GEOMETRIES:
        raise RequestError(f"unknown geometry {geo!r}; expected one of {list(GEOMETRIES)}")

    lengths = data.get("lengths")
    if not isinstance(lengths, list) or not lengths:
        raise RequestError("\"lengths\" must be a non-empty array of numbers")
    try:
        types = set(map(type, lengths))
        if types <= {float, int}:  # checked in bulk; an all-float list is copied as is
            values = list(lengths) if types == {float} else list(map(float, lengths))
            return SolveRequest(geometry=geo, lengths=values)
        values = []
        for v in lengths:  # one at a time, to name the first bad entry
            if isinstance(v, bool) or not isinstance(v, numbers.Real):  # np.bool_ is not Real
                raise RequestError(f"\"lengths\" must contain only numbers, got {v!r}")
            values.append(float(v))
    except OverflowError:  # a JSON integer beyond the float range
        raise RequestError("\"lengths\" holds an integer too large for a float") from None
    return SolveRequest(geometry=geo, lengths=values)


# ---------------------------------------------------------------------------
# solution payloads and diagnostics

#: the signs of each geometry's ambient quadratic form: a side is the root of
#: its side vector's form, pulled back through the geometry's chord map
_SIGNS = {
    "euclidean": np.array([1.0, 1.0]),
    "spherical": np.array([1.0, 1.0, 1.0]),
    "hyperbolic": np.array([1.0, 1.0, -1.0]),
    "minkowski": np.array([1.0, -1.0]),
}


def _form(x: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The quadratic form of each row of x, its squares summed in the order
    np.linalg.norm sums them (a BLAS product need not)."""
    return (x * x * signs).sum(axis=1)


def _max_rel_err(recovered: np.ndarray, expected: np.ndarray) -> float:
    return float((np.abs(recovered - expected) / expected).max())


def _side_recovery(geometry: str, d: np.ndarray, e: np.ndarray, l: np.ndarray) -> float:
    """The largest relative error of the sides recovered from the side vectors d:
    the root of each one's form in units of 2**-e[k], pulled back through the
    chord map (in those units where the map is the identity)."""
    chords = np.sqrt(_form(np.ldexp(d, e[:, None]), _SIGNS[geometry]))
    if geometry in ("euclidean", "minkowski"):
        return _max_rel_err(chords, np.ldexp(l, e))
    half = np.ldexp(chords, -e) / 2.0
    arcs = np.arcsinh(half) if geometry == "hyperbolic" else np.arcsin(np.minimum(1.0, half))
    return _max_rel_err(2.0 * arcs, l)


def _angle_check(angles, chords: np.ndarray) -> tuple:
    """The angle-sum row, and the radii chord / 2 sin(angle / 2) of each side."""
    a = angles.values
    row = ("angle_sum_abs_error", abs(fsum(a) - TWO_PI), 1e-11)
    return row, chords / (2.0 * np.sin(0.5 * a))


def _foot_check(a: np.ndarray, dom: int, chords: np.ndarray) -> tuple:
    """Foot spacings of a hypercycle or hyperbola: the row saying the dominant one
    is the sum of the rest, and the radii chord / 2 sinh(spacing / 2)."""
    error = abs(excess(a, dom))
    return ("foot_additivity_abs_error", error, 1e-10), chords / (2.0 * np.sinh(0.5 * a))


def _enforce(checks: list) -> None:
    """Raise on the first (name, value, bound) row whose value is not within its bound."""
    for name, value, bound in checks:
        if not value <= bound:  # fails closed: a NaN residual is a violation
            raise InvariantViolation(f"solution residual {name} = {value:.3e} exceeds {bound:g}")


def _report_body(geometry: str, lengths: SideLengths, sol):
    """Gate a solution through one list of (name, value, bound) rows, then return
    its report's payload, diagnostics and convention."""
    l, v, signs = lengths.values, sol.vertices, _SIGNS[geometry]
    d = np.concatenate((v[1:], v[:1])) - v
    # side k in units of 2**-e[k], which bring its largest entry into [0.5, 1), and
    # the residency in the smallest of them: scaling by a power of two is exact, so
    # the gates match the caller's units wherever those neither under- nor overflow
    e = -np.frexp(np.abs(d).max(axis=1))[1]
    e_min = int(e.min())
    side = _side_recovery(geometry, d, e, l)
    side_bound = 1e-10 if geometry == "spherical" else 1e-9
    curve = geometry
    if geometry == "euclidean":
        r = math.ldexp(sol.radius, e_min)
        residency = float(np.abs(np.sqrt(_form(np.ldexp(v, e_min), signs)) - r).max()) / r
        row, ratios = _angle_check(sol.angles, l)
        rows = [row, ("curve_residency_max_rel_error", residency, 1e-10)]
        payload = {
            "radius": float(sol.radius),
            "center_inside": bool(sol.center_inside),
            "angles": sol.angles.values,
            "vertices": v,
        }
    elif geometry == "spherical":
        axis_dots = v[:, 2]
        norm_error = np.abs(np.sqrt(_form(v, signs)) - 1.0).max()
        residency = float(max(norm_error, axis_dots.max() - axis_dots.min()))
        row, ratios = _angle_check(sol.angles, sol.chords)
        rows = [row, ("curve_residency_max_abs_error", residency, 1e-12)]
        payload = {
            "chordal_radius": float(sol.chordal_radius),
            "circumradius": float(sol.circumradius),
            "angles": sol.angles.values,
            "vertices": v,
        }
    elif geometry == "minkowski":
        r = math.ldexp(sol.radius, e_min)
        residency = float(np.abs(_form(np.ldexp(v, e_min), signs) + r * r).max()) / (r * r)
        a = sol.foot_params.values
        row, ratios = _foot_check(a, sol.dominant, l)
        rows = [("curve_residency_max_rel_error", residency, 1e-10), row]
        payload = {
            "radius": float(sol.radius),
            "dominant": int(sol.dominant),
            "foot_params": a,
            "vertices": v,
        }
    else:
        cls = sol.curve_class
        kind = cls.kind
        curve = f"hyperbolic:{kind}"
        payload = {
            "class": {"kind": kind, "dominant": int(cls.index), "margin": float(cls.margin)},
            "vertices": v,
        }
        if kind == hyperbolic.CIRCLE:
            functional = v[:, 2]
            payload["circumradius"] = float(sol.circumradius)
            payload["angles"] = sol.angles.values
            row, ratios = _angle_check(sol.angles, cls.chords)
        elif kind == hyperbolic.HOROCYCLE:
            functional = v[:, 2] - v[:, 0]  # == 1 on the horocycle
            # a banded horocycle answers the nearest exact-horocycle instance: its
            # dominant side may differ from the request by the classification margin
            side_bound = max(side_bound, 1.5 * abs(cls.margin) / float(cls.chords[cls.index]))
            payload["offsets"] = sol.offsets
            row, ratios = None, None
            cross = {"chord_margin_rel": float(cls.margin / fsum(cls.chords))}
        else:
            functional = v[:, 1]
            a = sol.foot_distances.values
            payload["axis_distance"] = float(sol.axis_distance)
            payload["foot_distances"] = a
            row, ratios = _foot_check(a, cls.index, cls.chords)
        residency = float(np.abs(_form(v, signs) + 1.0).max())
        rows = [
            ("curve_residency_max_abs_error", residency, 1e-10),
            ("curve_functional_max_spread", float(functional.max() - functional.min()), 1e-10),
        ]
        if row:
            rows.append(row)
    if ratios is not None:
        spread = (ratios.max() - ratios.min()) / mean(ratios)
        cross = {"radius_relation_rel_spread": float(spread)}
    checks = [("side_recovery_max_rel_error", side, side_bound), *rows]
    _enforce(checks)
    diagnostics = {
        "residuals": {name: value for name, value, _ in checks},
        "solver_iterations": int(sol.iterations),
        "cross_check": cross,
    }
    return payload, diagnostics, _CONVENTIONS[curve]


def _solve(request: SolveRequest):
    lengths = SideLengths(request.lengths)
    if request.geometry == "euclidean":
        sol = euclidean.solve_euclidean(lengths)
    elif request.geometry == "spherical":
        sol = spherical.solve_spherical(lengths)
    elif request.geometry == "hyperbolic":
        sol = hyperbolic.solve_hyperbolic(lengths)
    else:
        sol = minkowski.solve_minkowski(lengths)
    return lengths, sol, _report_body(request.geometry, lengths, sol)


def cli_solve(request: SolveRequest) -> dict:
    """Solve the request and assemble the ok-report."""
    _, _, (payload, diagnostics, convention) = _solve(request)
    return {
        "status": "ok",
        "geometry": request.geometry,
        "convention": convention,
        "solution": payload,
        "diagnostics": diagnostics,
    }


def cli_classify(request: SolveRequest) -> dict:
    """Classify the inscribing curve of a hyperbolic instance."""
    if request.geometry != "hyperbolic":
        raise RequestError("classify applies to geometry \"hyperbolic\" only")
    cls = hyperbolic.classify(SideLengths(request.lengths))
    return {
        "status": "ok",
        "geometry": "hyperbolic",
        "class": {
            "kind": cls.kind,
            "dominant": int(cls.index),
            "margin": float(cls.margin),
            "band": hyperbolic.HOROCYCLE_BAND,
        },
    }


def cli_verify(request: SolveRequest) -> dict:
    """Solve, re-derive the sides from the vertices, and cross-check.

    For Euclidean requests both solution paths are run: the radius
    root-finder and the variational simplex maximizer; their radius delta is
    part of the report.
    """
    lengths, sol, (payload, diagnostics, convention) = _solve(request)
    checks = dict(diagnostics["residuals"])
    checks.update(diagnostics["cross_check"])
    if request.geometry == "euclidean":
        alpha = variational.maximize_on_simplex(lengths)
        r_var = variational.check_critical_point(lengths, alpha)
        checks["rootfind_radius"] = float(sol.radius)
        checks["variational_radius"] = float(r_var)
        checks["dual_path_radius_rel_delta"] = abs(r_var - sol.radius) / sol.radius
    return {
        "status": "ok",
        "geometry": request.geometry,
        "convention": convention,
        "checks": checks,
        "solution": payload,
    }


# ---------------------------------------------------------------------------
# canonical JSON


def _layout(items: list, pad: str, step: str) -> str:
    """The text of a list whose values print as `items`."""
    return f"[\n{pad}{step}" + f",\n{pad}{step}".join(items) + f"\n{pad}]" if items else "[]"


#: a finite block of at least this many cells is written by _format_cells, which
#: breaks even with % fields near 300 cells; each written column takes a code
#: byte below "\n" and one bytes.replace pass, so a row holds at most 8
_BLOCK_CUTOFF, _BLOCK_COLUMNS = 300, 8
#: cells per _format_cells call: fewer pay more for its fixed numpy calls, more
#: raise the peak RSS of a large report
_CHUNK = 4096
#: a cell's row in _format_cells: its column code, "-0.000" and the first digit
#: in bytes 0-7, the other 16 digits in 8-23, "%.17g" in 24-28, then "." and
#: the 17 digits again in 30-47
_ROW = 48
#: the row mask of a cell that % writes, after the (sign, exponent, digits) masks
_SLOW = 2 * 21 * 18
_POW10 = np.array([float(10**k) for k in range(21)])  # all exact
#: the codes 0, 1, ..., k - 1, 0, 1, ... of k columns: a chunk's start at any offset below k
_codes = functools.cache(lambda k: (np.arange(_CHUNK + k) % k).astype(np.uint8))


def _split(a: np.ndarray) -> tuple:
    """Veltkamp's split of a into two halves of at most 26 significant bits."""
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _tables() -> tuple:
    """The lookup tables of _format_cells, built on first use: the ASCII of each
    4-digit group and its digits left once trailing zeros go, the row masks, the
    words of bytes 0-7 and 24-31 for each first digit.  A word is only ever a
    view of bytes, so they hold on either byte order."""
    i = np.arange(10000, dtype=np.int16)
    chars = (i[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8)
    groups = chars.view(np.uint32).ravel()
    kept = (4 - (i % 10 == 0) - (i % 100 == 0) - (i % 1000 == 0) - (i == 0)).astype(np.int8)
    masks = np.zeros((_SLOW + 1, _ROW), bool)
    masks[:, 0] = True
    masks[_SLOW, 24:29] = True
    for neg in (0, 1):
        for x in range(-4, 17):
            for n in range(1, 18):
                row = masks[(neg * 21 + x + 4) * 18 + n]
                row[1] = neg
                if x < 0:  # "0." and -x - 1 zeros, then the digits
                    row[2:3 - x] = True
                    row[7:7 + n] = True
                else:  # x + 1 digits, then "." and the rest from the second copy
                    row[7:8 + x] = True
                    row[30] = n > x + 1
                    row[32 + x:31 + n] = True
    heads = b"".join(b"\0-0.000%d%%.17g .%d" % (d, d) for d in range(10))
    words = np.frombuffer(heads, np.uint64).reshape(10, 2).T.copy()
    return groups, kept, masks.view(np.uint64), words


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple:
    """(p, e) with p + e == a * 10**(16 - x) exactly: Dekker's two-product (Numer.
    Math. 18, 1971), exact since the power is a double and nothing under- or overflows."""
    s = _POW10[16 - x]
    p = a * s
    ah, al = _split(a)
    sh, sl = _split(s)
    return p, ((ah * sh - p) + ah * sl + al * sh) + al * sl


def _digits(v: np.ndarray) -> tuple:
    """The row mask key, first digit and four 4-digit groups of the "%.17g" text
    of each finite value of v.

    For 1e-4 <= |x| < 1e17, x * 10**(16 - X) with X = floor(log10|x|) is an exact
    p + e, whose p is an even integer; p + rint(e) is then the 17-digit integer,
    rounded half to even as dtoa rounds it (D. M. Gay, 1990).  The other cells,
    0, |x| < 1e-4 and |x| >= 1e17, get the key _SLOW."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    x = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    p, e = _scaled(a, x)
    # where log10 missed the decade, redo with the one next to it; only p at an
    # end of the decade's range can have missed, so only those take the exact test
    near = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    pn, en = p[near], e[near]
    step = ((pn > 1e17) | ((pn == 1e17) & (en >= 0))) * 1
    step -= (pn < 1e16) | ((pn == 1e16) & (en < 0))
    redo = near[step != 0]
    if redo.size:
        x[redo] += step[step != 0]
        miss = redo[(x[redo] < -4) | (x[redo] > 16)]
        fast[miss], x[miss], a[miss] = False, 0, 1.0
        p[redo], e[redo] = _scaled(a[redo], x[redo])
    # the 17-digit integer as hi * 1e8 + lo, each part exact in floats; it stays
    # below 10**17, as no float lies within 5e-18 * 10**j below 10**j, j = -3..17
    hi = np.floor(p * 1e-8)
    lo = (p - hi * 1e8) + np.rint(e)
    fix = np.flatnonzero((lo < 0.0) | (lo >= 1e8))
    step = (lo[fix] >= 1e8) * 1.0 - (lo[fix] < 0.0)
    hi[fix] += step
    lo[fix] -= step * 1e8
    d0 = np.floor(hi * 1e-8)
    hi -= d0 * 1e8
    g = np.empty((4, v.size))
    g[0] = np.floor(hi * 1e-4)
    g[1] = hi - g[0] * 1e4
    g[2] = np.floor(lo * 1e-4)
    g[3] = lo - g[2] * 1e4
    g = g.astype(np.intp)
    # the digits left once trailing zeros go: the last group's, or where it is 0, the others'
    table = _tables()[1]
    kept = 13 + table.take(g[3])
    zero = np.flatnonzero(g[3] == 0)
    if zero.size:
        z = table.take(g[:3, zero])
        kept[zero] = 1 + z[0]
        for j in (1, 2):
            kept[zero[z[j] > 0]] = 4 * j + 1 + z[j][z[j] > 0]
    key = ((v < 0.0) * 21 + x + 4) * 18 + np.maximum(kept, x + 1)
    key[~fast] = _SLOW
    return key, d0.astype(np.intp), g


def _format_cells(v: np.ndarray, codes: np.ndarray, seps: list) -> bytes:
    """The "%.17g" text of each finite value of v, each after the separator
    seps[code] of its code.  The digits go from 4-digit tables into a fixed row
    per cell, and the mask of the cell's key picks the bytes to keep; a cell of
    key _SLOW keeps a %.17g field that one % fills."""
    groups, _, masks, words = _tables()
    key, d0, g = _digits(v)
    rows = np.empty((v.size, _ROW // 8), np.uint64)
    rows[:, 0] = words[0].take(d0)
    rows[:, 3] = words[1].take(d0)
    digits = groups.take(g).T
    r32 = rows.view(np.uint32)
    r32[:, 2:6] = digits
    r32[:, 8:12] = digits
    r8 = rows.view(np.uint8)
    r8[:, 0] = codes
    text = r8[masks.take(key, axis=0).view(bool)].tobytes()
    for code, sep in enumerate(seps):  # no separator holds a code byte or a %
        text = text.replace(bytes((code,)), sep)
    slow = v[key == _SLOW]
    return text % tuple(slow.tolist()) if slow.size else text


def _block_text(values: np.ndarray, cell: str, pad: str, inner: str) -> list:
    """The text of a block whose rows print as the template `cell`, its fields
    filled from the finite row-major `values`, in parts of one chunk each."""
    head, *within, tail = cell.split("%.17g")
    seps = [f"{tail},\n{inner}{head}".encode(), *(sep.encode() for sep in within)]
    parts, cycle = [], _codes(len(seps))
    for start in range(0, values.size, _CHUNK):
        chunk, at = values[start:start + _CHUNK], start % len(seps)
        parts.append(_format_cells(chunk, cycle[at:at + chunk.size], seps).decode("ascii"))
    # the first cell has no separator
    parts[0] = f"[\n{inner}{head}" + parts[0][len(seps[0]):]
    parts[-1] += f"{tail}\n{pad}]"
    return parts


def _finite(x: float) -> float:
    """0.0 + x for a finite x (0.0 + -0.0 is 0.0: "-0" would reparse as an int)."""
    if not math.isfinite(x):
        raise InvariantViolation(f"non-finite value {x!r} in report")
    return 0.0 + x


def _emit(obj, out: list, args: list, pad: str, step: str) -> None:
    """Append obj's template text to `out` and its % arguments to `args`; `step` is
    one indent.  A float goes in through a %.17g field, a block that _block_text
    writes through a %s field per part.  Each float is checked where it is written,
    so the first non-finite one in report order raises."""
    inner = pad + step
    if isinstance(obj, dict):
        sep = "{\n"
        for k, v in obj.items():
            if not isinstance(k, str):
                raise InvariantViolation(f"non-string report key {k!r}")
            head = f"{sep}{inner}{encode_basestring_ascii(k).replace('%', '%%')}: "
            sep = ",\n"
            if type(v) is float:
                out.append(head + "%.17g")
                args.append(_finite(v))
            elif type(v) is str:
                out.append(head + encode_basestring_ascii(v).replace("%", "%%"))
            else:
                out.append(head)
                _emit(v, out, args, inner, step)
        out.append("\n" + pad + "}" if obj else "{}")
    elif isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim not in (1, 2):
            raise InvariantViolation(f"unserializable {obj.ndim}-d report array of {obj.dtype}")
        cell = "%.17g"
        if obj.ndim == 2 and len(obj):
            # a finite column equal to its first entry all the way down goes into the row text
            first = obj[0].tolist()
            same = np.logical_and.reduce(obj == obj[0]).tolist()
            keep = [j for j, x in enumerate(first) if not (same[j] and math.isfinite(x))]
            cells = [cell if j in keep else "%.17g" % (0.0 + x) for j, x in enumerate(first)]
            cell = _layout(cells, inner, step)
            obj = obj[:, keep]  # in its own layout: take row-orders it, slowly
        values = np.add(obj, 0.0, order="C").ravel()  # the cells in row order, one copy
        if (
            values.size >= _BLOCK_CUTOFF
            and cell.count("%") <= _BLOCK_COLUMNS
            and np.isfinite(values).all()
        ):
            parts = _block_text(values, cell, pad, inner)
            out.append("%s" * len(parts))
            args += parts
        else:
            out.append(_layout([cell] * len(obj), pad, step))
            cells = values.tolist()
            if not all(map(math.isfinite, cells)):
                _finite(next(x for x in cells if not math.isfinite(x)))  # raises
            args += cells
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.append(("[\n" if i == 0 else ",\n") + inner)
            _emit(v, out, args, inner, step)
        out.append("\n" + pad + "]" if obj else "[]")
    elif isinstance(obj, int):  # bool is an int
        out.append("true" if obj is True else "false" if obj is False else str(obj))
    elif isinstance(obj, float):
        out.append("%.17g")
        args.append(_finite(obj))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj).replace("%", "%%"))
    elif obj is None:
        out.append("null")
    else:
        raise InvariantViolation(f"unserializable report value of type {type(obj).__name__}")


def dumps_report(report: dict | list[dict], *, indent: int = 2) -> str:
    """Serialize a report, or a list of reports (CLI batch mode), with
    17-significant-digit floats, newline-terminated."""
    out: list[str] = []
    args: list = []
    _emit(report, out, args, "", " " * indent)
    out.append("\n")
    # tuple() of a list allocates once; a tuple built from an iterator is
    # resized as it fills, which let peak RSS creep up over many reports
    return "".join(out) % tuple(args)
