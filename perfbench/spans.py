"""Outside-in tracing of the library's layers.

The tracer replaces module-level names that the layers call each other
through with wrappers that record one span per call: name, start, end,
parent span and request id.  Spans are kept in flat arrays in memory and
written once, when the run ends.  Every replaced name is put back on exit.
The library itself is not edited: only names it looks up at call time are
seen, so a layer that calls a function through a name bound elsewhere is
wrapped at that binding too (see ``SPANS``).
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import Counter

from cyclicpoly.errors import (
    ConvergenceError,
    DomainError,
    InfeasibleError,
    InvariantViolation,
)

#: (module, name bound there, span name).  A span name is
#: ``<layer>.<function>``; the same function reached through two bindings
#: gets one span name.
SPANS = [
    ("cli", "main", "cli.main"),
    ("polyio", "parse_request", "polyio.parse_request"),
    ("polyio", "cli_solve", "polyio.cli_solve"),
    ("polyio", "cli_verify", "polyio.cli_verify"),
    ("polyio", "dumps_report", "polyio.dumps_report"),
    ("polyio", "SideLengths", "domain.SideLengths"),
    ("euclidean", "solve_euclidean", "euclidean.solve_euclidean"),
    ("spherical", "solve_euclidean", "euclidean.solve_euclidean"),
    ("hyperbolic", "solve_euclidean", "euclidean.solve_euclidean"),
    ("euclidean", "check_polygon_inequalities", "euclidean.check_polygon_inequalities"),
    ("spherical", "check_polygon_inequalities", "euclidean.check_polygon_inequalities"),
    ("euclidean", "vertices_on_circle", "euclidean.vertices_on_circle"),
    ("spherical", "solve_spherical", "spherical.solve_spherical"),
    ("spherical", "check_spherical_feasibility", "spherical.check_spherical_feasibility"),
    ("hyperbolic", "solve_hyperbolic", "hyperbolic.solve_hyperbolic"),
    ("hyperbolic", "classify", "hyperbolic.classify"),
    ("hyperbolic", "phi", "hyperbolic.phi"),
    ("minkowski", "phi", "hyperbolic.phi"),
    ("minkowski", "solve_minkowski", "minkowski.solve_minkowski"),
    ("minkowski", "check_minkowski_feasibility", "minkowski.check_minkowski_feasibility"),
    ("euclidean", "bisect_newton", "rootfind.bisect_newton"),
    ("hyperbolic", "bisect_newton", "rootfind.bisect_newton"),
    ("variational", "maximize_on_simplex", "variational.maximize_on_simplex"),
    ("variational", "check_critical_point", "variational.check_critical_point"),
    ("variational", "_clausen2_vec", "specfun.clausen2_vec"),
]

#: solver entry points whose normal return counts as a finished solve when
#: polyio called them (the denominator of polyio.gate_reject_frac)
SOLVERS = (
    "euclidean.solve_euclidean",
    "spherical.solve_spherical",
    "hyperbolic.solve_hyperbolic",
    "minkowski.solve_minkowski",
)


def error_code(exc: BaseException) -> str:
    """The code the CLI would report for an exception (see cli._run_one)."""
    if isinstance(exc, InfeasibleError):
        return exc.code
    if isinstance(exc, DomainError):
        return "invalid_input"
    if isinstance(exc, (ConvergenceError, InvariantViolation)):
        return "internal_error"
    return "crash"


class Tracer:
    """Span recorder; use as a context manager to install the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.counts: Counter = Counter()
        self.request_id = -1
        self._open: list[int] = []
        self._saved: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _span(self, name: str, fn, on_return=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        layer = name.split(".", 1)[0]
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.request.append(self.request_id)
            self.raised.append(0)
            self.end.append(0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end[idx] = clock()
                self.raised[idx] = 1
                # count an error once, at the innermost span it left
                if not getattr(exc, "_perfbench_seen", False):
                    exc._perfbench_seen = True
                    self.counts[f"{layer}.raised.{error_code(exc)}"] += 1
                raise
            else:
                self.end[idx] = clock()
                if on_return is not None:
                    on_return(result)
                return result
            finally:
                self._open.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bisect_newton(self, name: str, fn):
        # count f and f' evaluations by wrapping the callables passed in
        spanned = self._span(name, fn)

        def wrapper(f, lo, hi, *, dfdx=None, **kwargs):
            f = self._counted("rootfind.f_evals", f)
            if dfdx is not None:
                dfdx = self._counted("rootfind.df_evals", dfdx)
            return spanned(f, lo, hi, dfdx=dfdx, **kwargs)

        return wrapper

    def _enforce(self, fn):
        # a gate rejection is a raise from polyio._enforce; its error is
        # attributed to the enclosing polyio span, so no span of its own
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except InvariantViolation:
                self.counts["polyio.gate_rejects"] += 1
                raise

        return wrapper

    def _add_bytes(self, text: str) -> None:
        self.counts["polyio.dumps_report.bytes"] += len(text.encode("utf-8"))

    # -- installation -----------------------------------------------------

    def _replace(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        try:
            for mod_name, attr, span in SPANS:
                module = importlib.import_module(f"cyclicpoly.{mod_name}")
                fn = getattr(module, attr)
                if span == "rootfind.bisect_newton":
                    wrapper = self._bisect_newton(span, fn)
                elif span == "polyio.dumps_report":
                    wrapper = self._span(span, fn, on_return=self._add_bytes)
                else:
                    wrapper = self._span(span, fn)
                self._replace(module, attr, wrapper)
            polyio = importlib.import_module("cyclicpoly.polyio")
            self._replace(polyio, "_enforce", self._enforce(polyio._enforce))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive ms and self ms; plus the counts.

        Self time is a span's duration minus the time its child spans cover
        (children of one span never overlap: there is one thread).
        """
        n_spans = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n_spans)]
        child = [0] * n_spans
        for i in range(n_spans):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = Counter()
        total_ns = Counter()
        self_ns = Counter()
        finished = 0
        for i in range(n_spans):
            name = self.names[self.name[i]]
            calls[name] += 1
            total_ns[name] += dur[i]
            self_ns[name] += dur[i] - child[i]
            p = self.parent[i]
            if (name in SOLVERS and not self.raised[i] and p >= 0
                    and self.names[self.name[p]].startswith("polyio.cli_")):
                finished += 1
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = total_ns[name] / 1e6
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
        out.update(self.counts)
        out["polyio.solves_finished"] = finished
        rejects = self.counts["polyio.gate_rejects"]
        out["polyio.gate_reject_frac"] = rejects / finished if finished else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("span,parent,request,name,start_ns,end_ns,raised\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{self.parent[i]},{self.request[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]},{self.raised[i]}\n"
                )
