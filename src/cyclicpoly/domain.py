"""Validated input vectors and the compensated prefix sum shared by every
geometry module."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi

#: absolute tolerance on sum(angles) == 2*pi
ANGLE_SUM_TOL = 1e-12


def prefix_sums(marks) -> tuple[list[float], list[float]]:
    """Compensated running sums of ``marks``, in one O(n) pass.

    Returns lists ``hi``, ``lo`` of length n where hi[j] + lo[j] is the
    double-double value of marks[0] + ... + marks[j-1] (so hi[0] = lo[0] = 0
    and the full total is not included).  The pair is renormalized at every
    step, so hi[j] is the rounded value of hi[j] + lo[j] and |lo[j]| is at
    most half an ulp of hi[j].  hi[j] is the correctly rounded sum (as
    math.fsum gives it) unless the exact sum lies within double-double
    precision of a rounding tie, where it can be one ulp off.  Plain running sums let rounding leak into the
    short sides of very eccentric polygons.
    """
    his, los = [], []
    hi = lo = 0.0
    for a in marks:
        his.append(hi)
        los.append(lo)
        t = hi + a  # two-sum: exact error of hi + a goes into lo
        b = t - hi
        lo += (hi - (t - b)) + (a - b)
        hi = t + lo  # renormalize the (hi, lo) pair
        lo -= hi - t
    return his, los


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class SideLengths:
    """Vector of n >= 3 strictly positive, finite side lengths."""

    __slots__ = ("values",)

    def __init__(self, lengths):
        arr = np.asarray(lengths, dtype=float).copy()
        if arr.ndim != 1:
            raise DomainError("side lengths must be a 1-d vector")
        if arr.size < 3:
            raise DomainError(f"a polygon needs at least 3 sides, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("side lengths must be finite")
        if np.any(arr <= 0.0):
            k = int(np.argmax(arr <= 0.0))
            raise DomainError(f"side lengths must be strictly positive (side {k} is {arr[k]})")
        self.values = _readonly(arr)

    @classmethod
    def coerce(cls, obj) -> "SideLengths":
        return obj if isinstance(obj, cls) else cls(obj)

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, k):
        return self.values[k]

    def __repr__(self) -> str:
        return f"SideLengths({self.values.tolist()!r})"


class CentralAngles:
    """Point of the closed simplex: n non-negative angles summing to 2*pi.

    The sum constraint is enforced to ANGLE_SUM_TOL in absolute terms.
    ``is_interior`` distinguishes the open simplex (all entries positive,
    where the variational functional is differentiable) from its boundary.
    """

    __slots__ = ("values",)

    def __init__(self, angles):
        arr = np.asarray(angles, dtype=float).copy()
        if arr.ndim != 1:
            raise DomainError("central angles must be a 1-d vector")
        if arr.size < 3:
            raise DomainError(f"need at least 3 central angles, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("central angles must be finite")
        if np.any(arr < 0.0):
            k = int(np.argmax(arr < 0.0))
            raise DomainError(f"central angles must be non-negative (entry {k} is {arr[k]})")
        total = math.fsum(arr.tolist())
        if abs(total - TWO_PI) > ANGLE_SUM_TOL:
            raise DomainError(
                f"central angles must sum to 2*pi (got {total!r}, off by {total - TWO_PI:.3e})"
            )
        self.values = _readonly(arr)

    @classmethod
    def coerce(cls, obj) -> "CentralAngles":
        return obj if isinstance(obj, cls) else cls(obj)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def is_interior(self) -> bool:
        """True iff the point lies in the open simplex (every entry > 0)."""
        return bool(np.all(self.values > 0.0))

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, k):
        return self.values[k]

    def __repr__(self) -> str:
        return f"CentralAngles({self.values.tolist()!r})"
