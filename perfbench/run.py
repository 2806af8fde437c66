"""cyclicpoly benchmark: one closed-loop caller, seeded requests, every
answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 1]

Run from the root of a source checkout; the library is imported from its
``src/`` directory (nothing needs building).  Workloads are described in
``workloads.py``.  Each run sends whole passes over its seeded request set,
one request at a time from one thread, for at least ``--seconds`` of wall
time.  There is one caller and no queue, so no request ever waits and no
waiting time is reported.

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json:

* setup_s: median wall time of 9 fresh interpreters running
  ``python -m cyclicpoly.cli solve`` on one triangle request;
* throughput_rps / sides_per_s: answered requests (ok or a structured
  infeasible error) and their total side count, per second of time spent
  inside the request path (the benchmark's own checking is excluded); the
  median over passes;
* latency_p50_ms: per-request time, parse -> solve or verify ->
  dumps_report (in small-batch, a batch's time over its request count);
  the median over passes of each pass's median;
* peak_rss_mb: peak resident set of this process.

Request times are scaled to the speed of a fixed reference kernel timed
between windows of requests (see reference.py), because the shared cores
of the machines this runs on change speed by up to 1.7x over minutes; the
times as measured are printed beside the scaled ones.

It also prints, without a bound, latency_p99_ms over every request sent
(only when the run has at least 1000 samples) and fail_frac with its base: requests ending in
internal_error plus answers failing the correctness check, over requests
attempted.  ``failed`` and ``attempted`` in the last line carry the same
base.  ``correct`` is false when any answer was wrong (see check.py);
internal_error refusals are failures but not wrong answers.

The workloads stay inside the region where the library answers every
request, so a correct library fails none of them.  Every run also sends,
once and untimed, one request from each region they leave out (known
library defects, see workloads.known_defects) and prints its outcome; these
are not counted in ``attempted`` or ``failed``.

``--trace 1`` runs untraced passes for half the time, then traced passes for
the other half, and reports the per-layer metrics of BENCHMARK.json: counts
and span times (as measured, not scaled) are per pass over the request set,
so for a fixed seed every count repeats exactly.  The tracing overhead is
the ratio of the untraced to the traced throughput.  The spans are written
to ``perfbench/out/``.

The last line of standard output is one JSON object; a run that cannot
import the library from ``src/`` exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: fresh interpreters timed for setup_s, after one untimed start that
#: compiles the bytecode
COLD_STARTS = 9
#: least samples for latency_p99_ms to be defined
P99_MIN_SAMPLES = 1000


def _import_library():
    """Import cyclicpoly from this checkout's src/, or None."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cyclicpoly
    except ImportError:
        return None
    if Path(cyclicpoly.__file__).resolve().parent != ROOT / "src" / "cyclicpoly":
        return None
    return cyclicpoly


def _environment(seed: int) -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu}, seed {seed}"
    )


def _setup_seconds(seed: int, directory: Path) -> float:
    """Median wall time of a cold CLI solve of one seeded triangle.

    Not scaled to the reference speed: the child runs in another process,
    often on the other core, and its time tracks the reference kernel worse
    than it tracks nothing at all.
    """
    import numpy as np

    from check import judge

    rng = np.random.default_rng([seed, 99])
    a, b = rng.uniform(0.5, 2.0, 2)
    request = {"geometry": "euclidean",
               "lengths": [float(a), float(b), float(rng.uniform(abs(a - b), a + b))]}
    path = directory / "triangle.json"
    path.write_text(json.dumps(request), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "cyclicpoly.cli", "solve", str(path)]
    times = []
    for i in range(COLD_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cold CLI solve exited {proc.returncode}: {proc.stderr}")
        outcome, reason = judge(request, json.loads(proc.stdout))
        if outcome != "ok":
            raise RuntimeError(f"cold CLI solve gave a wrong answer: {outcome} {reason}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(tally, raw: bool = False) -> dict:
    lat = tally.all_latencies_ms(raw)
    rps, sides = tally.rates(raw)
    out = {
        "throughput_rps": rps,
        "sides_per_s": sides,
        "latency_p50_ms": tally.p50_ms(raw),
    }
    if len(lat) >= P99_MIN_SAMPLES:
        out["latency_p99_ms"] = statistics.quantiles(lat, n=100, method="inclusive")[98]
    return out


def _per_layer(tracer, passes: int, untraced_rps: float, traced_rps: float,
               requests_per_pass: int, listed: list[str]) -> dict:
    summary = tracer.summary()
    out = {}
    for key, value in summary.items():
        # counts and times are per pass; ratios stay as they are
        out[key] = value if key.endswith("_frac") else value / passes
    raised = {k: v for k, v in out.items() if ".raised." in k}
    out["unlisted.raised.any"] = sum(v for k, v in raised.items() if k not in listed)
    out["trace.requests_per_pass"] = requests_per_pass
    out["trace.throughput_rps_untraced"] = untraced_rps
    out["trace.throughput_rps_traced"] = traced_rps
    out["trace.overhead_ratio"] = untraced_rps / traced_rps
    return {name: out.get(name, 0) for name in listed}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args, spec: dict) -> int:
    import workloads
    from spans import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    requests = workloads.requests_for(args.workload, args.seed, args.tiny)
    warmup = workloads.requests_for(args.workload, args.seed + 1_000_003, tiny=True)

    print(f"cyclicpoly benchmark: workload {args.workload}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"env: {_environment(args.seed)}")
    print("load: closed loop, 1 caller, 1 thread; no queue, so waiting time does not apply")

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmp = Path(tmp)
        metrics, raw = {}, {}
        if not args.trace:
            metrics["setup_s"] = _setup_seconds(args.seed, tmp)
        workloads.run_passes(workloads.make_path(args.workload, warmup, tmp, tiny=True),
                             0.0, workloads.Tally())
        path = workloads.make_path(args.workload, requests, tmp, args.tiny)
        tally = workloads.Tally()
        if not args.trace:
            passes = workloads.run_passes(path, args.seconds, tally)
            metrics.update(_end_to_end(tally))
            raw.update(_end_to_end(tally, raw=True))
            metrics["peak_rss_mb"] = _peak_rss_mb()
            names = spec["end_to_end"]
        else:
            untraced = workloads.run_passes(path, args.seconds / 2, tally)
            tracer, traced_tally = Tracer(), workloads.Tally()
            with tracer:
                traced = workloads.run_passes(path, args.seconds / 2, traced_tally, tracer)
            passes = untraced + traced
            names = spec["per_layer"]
            metrics = _per_layer(tracer, traced, tally.rates()[0], traced_tally.rates()[0],
                                 path.requests_per_pass(), list(names))
            tally.absorb(traced_tally)
            trace_path = OUT_DIR / f"trace-{args.workload}.csv.gz"
            tracer.write(trace_path)

    # sent once, after the measured part, and not counted in attempted or
    # failed; a wrong answer here still makes the run incorrect
    print("known defects, outside the workload envelope:")
    defects = workloads.Tally()
    for label, command, request in workloads.known_defects():
        before = dict(defects.outcomes)
        workloads.SinglePath([request], command).run(request, defects)
        outcome = next(k for k, v in defects.outcomes.items() if v != before[k])
        print(f"  {label:<50} {outcome}")
    for reason in defects.wrong_reasons:
        print(f"  wrong: {reason}")

    o = tally.outcomes
    print(f"requests: {tally.attempted} attempted in {passes} passes of "
          f"{path.requests_per_pass()}; ok {o['ok']}, infeasible {o['infeasible']}, "
          f"near_degenerate {o['near_degenerate']}, internal_error {o['internal_error']}, "
          f"wrong {o['wrong']}")
    for reason in tally.wrong_reasons:
        print(f"  wrong: {reason}")
    print(f"  {'fail_frac':<44} {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} attempted)")
    if args.trace:
        print(f"spans: {len(tracer.name)} written to {trace_path.relative_to(ROOT)}")
    elif "latency_p99_ms" in metrics:
        print(f"  {'latency_p99_ms':<44} {_fmt(metrics['latency_p99_ms'])} ms "
              f"(as measured {_fmt(raw['latency_p99_ms'])})")
    else:
        print(f"  {'latency_p99_ms':<44} n/a ({len(tally.all_latencies_ms())} samples, "
              f"needs {P99_MIN_SAMPLES})")
    result = {}
    for name, unit in names.items():
        measured = f" (as measured {_fmt(raw[name])})" if name in raw else ""
        print(f"  {name:<44} {_fmt(metrics[name])} {unit}{measured}")
        result[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({
        "correct": o["wrong"] + defects.outcomes["wrong"] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, then one table."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    metric_names = list(next(iter(results.values()))["metrics"])
    print(f"\n{'metric':<44}" + "".join(f"{w:>16}" for w in results))
    for metric in metric_names:
        unit = results[workloads.WORKLOADS[0]]["metrics"][metric]["unit"]
        row = "".join(f"{_fmt(r['metrics'][metric]['value']):>16}" for r in results.values())
        print(f"{metric + ' (' + unit + ')':<44}{row}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("small-single", "small-batch", "large-n", "verify", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="use the small request sets of the self-test")
    args = parser.parse_args(argv)

    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
    except OSError as exc:
        sys.stderr.write(f"cannot read BENCHMARK.json: {exc}\n")
        return 2
    spec = {level: {m["name"]: m["unit"] for m in bench[level]}
            for level in ("end_to_end", "per_layer")}
    if _import_library() is None:
        sys.stderr.write(f"cannot import cyclicpoly from {ROOT / 'src'}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
