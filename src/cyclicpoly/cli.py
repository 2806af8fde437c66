"""Command-line interface.

    cyclicpoly solve    [INPUT] [--geometry G]
    cyclicpoly classify [INPUT] [--geometry hyperbolic]
    cyclicpoly render   [INPUT] [--geometry G] --out FILE
    cyclicpoly verify   [INPUT] [--geometry G]

INPUT is a path to a JSON request (or '-' / omitted for stdin): an object
{"geometry": ..., "lengths": [...]}, or an array of such objects for batch
processing (render takes one object).  Reports go to stdout as JSON; render
writes the SVG to --out (nothing is written on failure).

Exit codes: 0 success, 1 malformed input or an internal error, 2 geometric
infeasibility.  Exit 1 covers the error codes "parse", "io" and
"invalid_input" (the request cannot be read) and "internal_error" (the solver
did not converge or a solution missed a residual gate); the report's
error.code tells them apart.  A usage error (an unknown command or flag, or a
bad flag value) also exits 1, with argparse's message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import polyio
from .errors import CyclicPolyError, DomainError, InfeasibleError, InvariantViolation

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means infeasible, so exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _error_report(code: str, message: str, side: int | None = None) -> dict:
    err: dict = {"code": code, "message": message}
    if side is not None:
        err["side"] = int(side)
    return {"status": "error", "error": err}


def _refuse(code: str, message: str) -> int:  # an error report for the whole input
    sys.stdout.write(polyio.dumps_report(_error_report(code, message)))
    return EXIT_INVALID


def _run_one(args, data) -> tuple[dict, int, str | None]:
    """Process one decoded request; returns (report, exit_code, svg_text)."""
    try:
        request = polyio.parse_request(data, geometry=args.geometry)
        if args.command == "solve":
            return polyio.cli_solve(request), EXIT_OK, None
        if args.command == "classify":
            return polyio.cli_classify(request), EXIT_OK, None
        if args.command == "verify":
            return polyio.cli_verify(request), EXIT_OK, None
        report = polyio.cli_solve(request)
        svg_text = polyio.cli_render(report)
        summary = {"status": "ok", "geometry": request.geometry, "out": args.out}
        return summary, EXIT_OK, svg_text
    except InfeasibleError as exc:
        return _error_report(exc.code, str(exc), exc.index), EXIT_INFEASIBLE, None
    except DomainError as exc:
        return _error_report("invalid_input", str(exc)), EXIT_INVALID, None
    except CyclicPolyError as exc:  # ConvergenceError, InvariantViolation
        return _error_report("internal_error", str(exc)), EXIT_INVALID, None


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="cyclicpoly",
        description="Solve, classify, render, and verify cyclic polygons with "
        "prescribed side lengths in four geometries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve a request and print the solution report"),
        ("classify", "classify the inscribing curve of a hyperbolic instance"),
        ("render", "solve a request and write an SVG figure"),
        ("verify", "solve and cross-check (dual solver paths, side recovery)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", default="-",
                       help="JSON request file, or '-' for stdin (default)")
        p.add_argument("--geometry", choices=polyio.GEOMETRIES,
                       help="override the request's geometry")
        if name == "render":
            p.add_argument("--out", required=True, help="output SVG path")
    args = parser.parse_args(argv)

    try:
        text = _read_input(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        return _refuse("io", str(exc))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return _refuse("parse", f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # e.g. an integer literal past
        # the int digit limit, or arrays nested past the recursion limit
        return _refuse("parse", f"invalid JSON: {exc}")

    batch = isinstance(data, list)
    if batch and args.command == "render":  # one SVG file holds one figure
        return _refuse("invalid_input", "render takes one request, not an array")
    requests = data if batch else [data]
    reports: list[dict] = []
    codes: list[int] = []
    for item in requests:
        report, code, svg_text = _run_one(args, item)
        reports.append(report)
        codes.append(code)

    try:
        text = polyio.dumps_report(reports if batch else reports[0])
    except InvariantViolation:  # a non-finite value: find its reports one by one
        for i, report in enumerate(reports):
            try:
                polyio.dumps_report(report)
            except InvariantViolation as exc:
                reports[i], codes[i] = _error_report("internal_error", str(exc)), EXIT_INVALID
        text = polyio.dumps_report(reports if batch else reports[0])

    if args.command == "render" and not any(codes):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg_text)
        except OSError as exc:
            return _refuse("io", str(exc))

    sys.stdout.write(text)
    # one unreadable request or internal error (1) outranks any infeasible one (2)
    return EXIT_INVALID if EXIT_INVALID in codes else max(codes, default=EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
