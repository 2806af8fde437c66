"""Seeded request generators and the request paths each workload drives.

Generator envelope.  Every workload stays inside the region where the
library answers every request (ok, or a structured infeasible or
near-degenerate refusal), so that no operation fails and a run's failure
count does not depend on how many passes fit in its time.  The regions left
out are those of known library defects; known_defects() below sends one
request from each of them in every run and prints the outcome, so they stay
visible.

* Side lengths are log-uniform on [0.25, 4] unless stated otherwise.
* ``small-single`` / ``small-batch``: a balanced design over geometry
  (euclidean, spherical, hyperbolic, minkowski) and n in [3, 12], every
  (geometry, n) cell equally often, in shuffled order.  Spherical sides are
  rescaled to a perimeter uniform on [0.5, 7]; above 2*pi (about 11% of the
  spherical draws) the request is infeasible.  Minkowski draws set one
  random side to (sum of the others) * f, f log-uniform on [0.75, 1.5];
  f <= 1 (about 40% of them) is infeasible.  Euclidean and hyperbolic draws
  are infeasible when the polygon inequalities fail (mostly at small n).
  About 20% of all draws are infeasible and stop in the feasibility layer.
  A hyperbolic draw whose circle would have its center within
  SEMICIRCLE_BAND of the dominant side is drawn again (about 1 in 10^4;
  see near_semicircle).  Left out: hyperbolic sides above about 7 and
  Minkowski sides spread over more than about 20x with f above about 1.3,
  where the library's vertex-residual gates reject the solution.
* ``large-n``: n in {1000, 3000, 10000}, one request per class and n.
  The sides are the n quantiles of the log-uniform law on [0.25, 1] in a
  seeded random order, rescaled to perimeter 10 (spherical: pi), so every
  seed sends the same side multisets.  Classes: Euclidean; spherical;
  hyperbolic circle (sides as they are); hyperbolic horocycle (one random
  side's chord set to the sum of the other chords); hyperbolic hypercycle
  (that chord set to 1.25 times the sum); Minkowski (one side set to 1.25
  times the sum of the others).  The shape parameters are fixed too, so
  seeds differ only in side order.  Every request has a solution, and the
  hypercycle and Minkowski side residuals stay near 1e-10, a tenth of the
  library's gate.  Left out: wider side spreads, larger perimeters and
  larger dominance factors, where those gates reject every hyperbolic and
  Minkowski request at these sizes.
* ``verify``: Euclidean only, n log-uniform on [8, 600] by stratified
  sampling (one jittered draw per equal-width stratum of log n, so every
  seed sees the same spread of sizes), sides log-uniform on [0.1, 10].
  Every fourth stratum is made center-outside by setting one random side
  to (sum of the others) * U(0.75, 0.88).  A draw whose largest side is
  between 0.9 and 1 times the sum of the others (VERIFY_DOMINANCE_GAP;
  small n only) is drawn again.  Left out thereby: that near-degenerate
  band, where the variational solver can fail to converge, after up to a
  minute.  Draws above 1 stay in and are infeasible.

Reasons for the workloads: ``small-single`` is dominated by fixed per-call
cost (root solve, report gates, serialization); ``small-batch`` is the only
path through the CLI's decode, batch loop and list serialization;
``large-n`` is dominated by construction and serialization, where O(n^2)
steps show; ``verify`` is the only workload that runs the variational
solver and the Clausen function.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time

import numpy as np

from cyclicpoly import cli, polyio

import reference
from check import judge
from spans import error_code

WORKLOADS = ("small-single", "small-batch", "large-n", "verify")
GEOMETRIES = ("euclidean", "spherical", "hyperbolic", "minkowski")

LOG_LO, LOG_HI = math.log(0.25), math.log(4.0)
#: the wider side law of the verify workload
VERIFY_LOG_LO, VERIFY_LOG_HI = math.log(0.1), math.log(10.0)
#: the large-n side law, before rescaling to LARGE_PERIMETER
LARGE_LOG_LO, LARGE_LOG_HI = math.log(0.25), 0.0
LARGE_PERIMETER = 10.0
#: dominance factor of the large-n hypercycle and Minkowski requests
LARGE_EXCESS = 1.25
#: verify draws whose largest side is this many times the sum of the
#: others are left out
VERIFY_DOMINANCE_GAP = (0.9, 1.0)
#: hyperbolic circles whose center lies within this (in central angle, to
#: first order) of the dominant side are left out
SEMICIRCLE_BAND = 1e-3

#: requests in one pass of each workload (full size, tiny size)
SMALL_COUNT = (4000, 40)
BATCH_SIZE = (100, 10)
LARGE_SIZES = ((1000, 3000, 10000), (30, 100, 300))
LARGE_CLASSES = (
    "euclidean",
    "spherical",
    "hyperbolic-circle",
    "hyperbolic-horocycle",
    "hyperbolic-hypercycle",
    "minkowski",
)
VERIFY_COUNT = (200, 20)
VERIFY_N = ((8, 600), (8, 60))


def _sides(rng, n: int, lo: float = LOG_LO, hi: float = LOG_HI) -> np.ndarray:
    return np.exp(rng.uniform(lo, hi, n))


def _dominance(l: np.ndarray) -> float:
    """The largest side over the sum of the others."""
    m = float(l.max())
    return m / (math.fsum(l.tolist()) - m)


def near_semicircle(lengths) -> bool:
    """True if the hyperbolic circle through these sides has its center
    within SEMICIRCLE_BAND of the dominant side.

    The circle problem is the Euclidean one on the chords 2 sinh(l/2): the
    center is on the dominant side when the other chords, taken as chords
    of a circle with the dominant chord as diameter, span exactly pi.  The
    library's side recovery loses precision within about 1e-5 of there.
    """
    chords = 2.0 * np.sinh(0.5 * np.asarray(lengths))
    dom = int(np.argmax(chords))
    others = np.delete(chords, dom)
    if math.fsum(others.tolist()) <= chords[dom]:
        return False  # a horocycle, a hypercycle or infeasible: no circle
    span = math.fsum((2.0 * np.arcsin(others / chords[dom])).tolist())
    return abs(span - math.pi) < SEMICIRCLE_BAND


def _request(geometry: str, lengths: np.ndarray) -> dict:
    return {"geometry": geometry, "lengths": lengths.tolist()}


def small_requests(rng, count: int) -> list[dict]:
    cells = [(GEOMETRIES[i % 4], 3 + (i // 4) % 10) for i in range(count)]
    order = rng.permutation(count)
    out = []
    for i in order:
        geometry, n = cells[i]
        l = _sides(rng, n)
        if geometry == "spherical":
            l *= rng.uniform(0.5, 7.0) / math.fsum(l)
        elif geometry == "hyperbolic":
            while near_semicircle(l):
                l = _sides(rng, n)
        elif geometry == "minkowski":
            k = int(rng.integers(n))
            l[k] = 0.0
            l[k] = math.fsum(l) * math.exp(rng.uniform(math.log(0.75), math.log(1.5)))
        out.append(_request(geometry, l))
    return out


def large_requests(rng, sizes) -> list[dict]:
    out = []
    for n in sizes:
        # the n quantiles of the side law, in seeded order
        quantiles = np.exp(
            LARGE_LOG_LO + (np.arange(n) + 0.5) / n * (LARGE_LOG_HI - LARGE_LOG_LO)
        )
        for cls in LARGE_CLASSES:
            l = rng.permutation(quantiles)
            l *= (math.pi if cls == "spherical" else LARGE_PERIMETER) / math.fsum(l)
            k = int(rng.integers(n))
            if cls in ("hyperbolic-horocycle", "hyperbolic-hypercycle"):
                chords = 2.0 * np.sinh(0.5 * l)
                chords[k] = 0.0
                excess = 1.0 if cls == "hyperbolic-horocycle" else LARGE_EXCESS
                l[k] = 2.0 * math.asinh(0.5 * math.fsum(chords) * excess)
            elif cls == "minkowski":
                l[k] = 0.0
                l[k] = math.fsum(l) * LARGE_EXCESS
            out.append(_request(cls.split("-")[0], l))
    return out


def verify_requests(rng, count: int, n_range) -> list[dict]:
    lo, hi = math.log(n_range[0]), math.log(n_range[1])
    out = []
    for i in range(count):
        n = int(round(math.exp(lo + (i + rng.uniform()) / count * (hi - lo))))
        l = _sides(rng, n, VERIFY_LOG_LO, VERIFY_LOG_HI)
        while VERIFY_DOMINANCE_GAP[0] <= _dominance(l) < VERIFY_DOMINANCE_GAP[1]:
            l = _sides(rng, n, VERIFY_LOG_LO, VERIFY_LOG_HI)
        if i % 4 == 3:
            k = int(rng.integers(n))
            l[k] = 0.0
            l[k] = math.fsum(l) * rng.uniform(0.75, 0.88)
        out.append(_request("euclidean", l))
    return [out[i] for i in rng.permutation(count)]


def known_defects() -> list[tuple[str, str, dict]]:
    """One request from each region the envelope leaves out: (label, command,
    request).  On the library these workloads were built against, each
    ends in internal_error."""
    wide = np.exp(math.log(0.1) + (np.arange(1000) + 0.5) / 1000 * math.log(100.0))
    return [
        ("hyperbolic, a side above 7", "solve",
         {"geometry": "hyperbolic", "lengths": [5.78, 2.59, 9.44, 0.92, 2.63, 2.13]}),
        ("hyperbolic circle centered on its dominant side", "solve",
         {"geometry": "hyperbolic", "lengths": [
             0.5931279566952691, 2.246857826826122, 1.9419761279814667,
             0.5896291760473107, 0.44862706873659525]}),
        ("minkowski, sides spread 50x, f = 1.38", "solve",
         {"geometry": "minkowski", "lengths": [0.113, 5.83, 8.2]}),
        ("hyperbolic circle, n = 1000 on [0.1, 10]", "solve",
         {"geometry": "hyperbolic", "lengths": wide.tolist()}),
        ("verify center-outside, n = 13, f = 0.98", "verify",
         {"geometry": "euclidean", "lengths": [
             1.6075095040344785, 0.20457455887920645, 0.20861448688590845,
             3.0045267714155157, 19.605393140797123, 0.32847122141526675,
             0.62325827844632, 0.847140164424557, 0.23248994580555563,
             1.3426687124949348, 3.034641892366018, 0.6473965525322651,
             7.8845534112970785]}),
    ]


def requests_for(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The requests of one pass; the same seed gives the same requests."""
    # small-single and small-batch share stream 0, so one seed gives them
    # the same requests
    stream = 0 if workload == "small-batch" else WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, stream])
    size = 1 if tiny else 0
    if workload in ("small-single", "small-batch"):
        return small_requests(rng, SMALL_COUNT[size])
    if workload == "large-n":
        return large_requests(rng, LARGE_SIZES[size])
    return verify_requests(rng, VERIFY_COUNT[size], VERIFY_N[size])


# ---------------------------------------------------------------------------
# request paths


class Tally:
    """Outcomes and timings of the requests sent so far.

    Times are kept both as measured (``raw``) and at the reference speed
    (see reference.py), per pass, so that a pass slowed by other tenants of
    the machine moves a median over passes little.
    """

    def __init__(self):
        self.attempted = 0
        self.answered_sides = 0
        self.outcomes = dict.fromkeys(
            ("ok", "infeasible", "near_degenerate", "internal_error", "wrong"), 0
        )
        self.wrong_reasons: list[str] = []
        #: per pass: (busy seconds, raw busy seconds, answered requests,
        #: answered sides), and the request latencies, scaled and raw
        self.passes: list[tuple[float, float, int, int]] = []
        self.latencies_ms: list[list[float]] = []
        self.raw_latencies_ms: list[list[float]] = []

    @property
    def answered(self) -> int:
        return self.outcomes["ok"] + self.outcomes["infeasible"] + self.outcomes["near_degenerate"]

    @property
    def failed(self) -> int:
        return self.outcomes["internal_error"] + self.outcomes["wrong"]

    def record(self, request: dict, report: dict) -> None:
        outcome, reason = judge(request, report)
        self.outcomes[outcome] += 1
        self.attempted += 1
        if outcome in ("ok", "infeasible", "near_degenerate"):
            self.answered_sides += len(request["lengths"])
        if reason is not None and len(self.wrong_reasons) < 5:
            self.wrong_reasons.append(f"{request['geometry']} n={len(request['lengths'])}: {reason}")

    def absorb(self, other: "Tally") -> None:
        """Add another tally's outcome counts to this one."""
        for key, value in other.outcomes.items():
            self.outcomes[key] += value
        self.attempted += other.attempted
        self.wrong_reasons += other.wrong_reasons

    def rates(self, raw: bool = False) -> tuple[float, float]:
        """Median over passes of answered requests and sides per second of
        request time."""
        k = 1 if raw else 0
        return (
            statistics.median(p[2] / p[k] for p in self.passes),
            statistics.median(p[3] / p[k] for p in self.passes),
        )

    def p50_ms(self, raw: bool = False) -> float:
        """Median over passes of the pass's median latency."""
        per_pass = self.raw_latencies_ms if raw else self.latencies_ms
        return statistics.median(statistics.median(lat) for lat in per_pass)

    def all_latencies_ms(self, raw: bool = False) -> list[float]:
        return [t for lat in (self.raw_latencies_ms if raw else self.latencies_ms) for t in lat]


def error_report(exc: Exception) -> dict:
    return {"status": "error", "error": {"code": error_code(exc), "message": str(exc)}}


class SinglePath:
    """parse_request -> cli_solve or cli_verify -> dumps_report, one request
    per call, as a library caller would do it."""

    def __init__(self, requests: list[dict], command: str):
        self.units = requests
        self.command = command

    def run(self, request: dict, tally: Tally) -> tuple[float, int]:
        """Send one request; returns its time and request count (1)."""
        t0 = time.perf_counter()
        try:
            parsed = polyio.parse_request(request)
            if self.command == "verify":
                report = polyio.cli_verify(parsed)
            else:
                report = polyio.cli_solve(parsed)
            text = polyio.dumps_report(report)
        except Exception as exc:  # every failure is an answer to tally
            elapsed = time.perf_counter() - t0
            report = error_report(exc)
        else:
            elapsed = time.perf_counter() - t0
            report = json.loads(text)
        tally.record(request, report)
        return elapsed, 1

    def requests_per_pass(self) -> int:
        return len(self.units)


class BatchPath:
    """``cyclicpoly solve FILE`` in-process on JSON-array files, stdout
    captured.  Latency is a batch's time divided by its request count."""

    def __init__(self, requests: list[dict], batch_size: int, directory):
        self.units = []
        for b in range(0, len(requests), batch_size):
            batch = requests[b:b + batch_size]
            path = f"{directory}/batch-{b // batch_size:04d}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(batch, fh)
            self.units.append((path, batch))

    def run(self, unit, tally: Tally) -> tuple[float, int]:
        """Send one batch; returns its time and request count."""
        path, batch = unit
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                cli.main(["solve", path])
        except Exception as exc:
            # the CLI died mid-batch: no report reached any caller
            elapsed = time.perf_counter() - t0
            reports = [error_report(exc)] * len(batch)
        else:
            elapsed = time.perf_counter() - t0
            reports = json.loads(out.getvalue())
        for request, report in zip(batch, reports, strict=True):
            tally.record(request, report)
        return elapsed, len(batch)

    def requests_per_pass(self) -> int:
        return sum(len(batch) for _, batch in self.units)


def make_path(workload: str, requests: list[dict], directory, tiny: bool = False):
    if workload == "small-batch":
        return BatchPath(requests, BATCH_SIZE[1 if tiny else 0], directory)
    return SinglePath(requests, "verify" if workload == "verify" else "solve")


def run_passes(path, seconds: float, tally: Tally, tracer=None) -> int:
    """Send whole passes over the request set, closed loop, until ``seconds``
    of wall time have gone by (at least one pass).  Returns the pass count.

    Requests are timed in windows of at least reference.WINDOW_S of request
    time, with the reference kernel timed between windows.  With a tracer,
    each request (or batch) gets its own request id.
    """
    start = time.perf_counter()
    passes = 0
    ref = reference.sample_s()
    while passes == 0 or time.perf_counter() - start < seconds:
        answered, sides = tally.answered, tally.answered_sides
        busy = raw_busy = window_s = 0.0
        window: list[tuple[float, int]] = []
        lat: list[float] = []
        raw_lat: list[float] = []
        for i, unit in enumerate(path.units):
            if tracer is not None:
                tracer.request_id += 1
            elapsed, count = path.run(unit, tally)
            window.append((elapsed, count))
            window_s += elapsed
            if window_s < reference.WINDOW_S and i + 1 < len(path.units):
                continue
            ref_after = reference.sample_s()
            factor = reference.scale(ref, ref_after)
            ref = ref_after
            for elapsed, count in window:
                raw_lat.append(1e3 * elapsed / count)
                lat.append(1e3 * elapsed / count * factor)
            busy += window_s * factor
            raw_busy += window_s
            window, window_s = [], 0.0
        tally.passes.append(
            (busy, raw_busy, tally.answered - answered, tally.answered_sides - sides)
        )
        tally.latencies_ms.append(lat)
        tally.raw_latencies_ms.append(raw_lat)
        passes += 1
    return passes
