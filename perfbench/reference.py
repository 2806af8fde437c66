"""Reference-speed normalisation of measured times.

The machines this benchmark was built on share their cores with other
tenants: for seconds to minutes at a time the same code runs up to 1.7x
slower, and thread CPU time slows with it, so neither wall time nor CPU
time repeats between runs.  The benchmark therefore times a fixed
reference kernel (the same mix of small numpy calls, float sums, float
formatting and list slicing that the library spends its time in) before and
after every window of about a quarter second of requests, and scales that
window's times by NOMINAL_S / (mean of the two reference times).  A
reported time is thus "seconds at the reference speed": on a machine that
runs the kernel in NOMINAL_S it equals the wall time.  Measured raw times
are printed beside the scaled ones.  The set-up time, spent in other
processes, is not scaled.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: reference-kernel time on the machine the bounds were set on (2 vCPU
#: Intel Xeon, Python 3.11, numpy 2.4), typical of its unloaded periods
NOMINAL_S = 0.0065
#: requests are grouped into windows of at least this much request time
WINDOW_S = 0.25

_X = np.linspace(0.1, 2.0, 12)
_LONG = [1.0 + 1e-6 * i for i in range(20000)]
_DOC = json.dumps({
    "status": "ok",
    "solution": {"vertices": [[0.1 * i, 0.2 * i] for i in range(12)], "radius": 1.5},
    "diagnostics": {"residual": 1e-16, "iterations": 3},
})


@dataclass(frozen=True)
class _Result:
    value: float
    points: np.ndarray


def _kernel_s() -> float:
    t0 = time.perf_counter()
    for i in range(100):
        a = np.arcsin(np.minimum(1.0, _X / (2.0 + 1e-3 * i)))
        s = math.fsum(a.tolist())
        result = _Result(s, np.column_stack((np.cos(a), np.sin(a))))
        doc = json.loads(_DOC)
        try:
            raise ValueError(f"residual {result.value:.3e}")
        except ValueError as exc:
            doc["message"] = str(exc)
        json.dumps({"v": [format(v, ".17g") for v in a.tolist()], "doc": doc})
    for j in range(0, len(_LONG), 2000):
        math.fsum(_LONG[:j])
    return time.perf_counter() - t0


def sample_s() -> float:
    """Reference time now: the median of three kernel runs, which drops a
    run that the scheduler interrupted."""
    return statistics.median(_kernel_s() for _ in range(3))


def scale(before_s: float, after_s: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return NOMINAL_S / (0.5 * (before_s + after_s))
