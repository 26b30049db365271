"""Finite probability vectors and the majorization partial order.

ProbVector is the common currency of every entropy in the library: classical
distributions, quantum spectra and generalized spectra all land here before
being compared or fed to an entropic pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AllZero, InvalidProbVector, NegativeWeight

#: Absolute tolerance for probability sums and partial-sum comparisons.
#: Double-precision LP outputs feed these checks, so 1e-9 is deliberately
#: far above machine epsilon.
TOL = 1e-9


@dataclass(frozen=True)
class ProbVector:
    """An N-dimensional probability vector (N >= 1).

    Components are clamped to 0 when within ``TOL`` below zero and rescaled
    so they sum to exactly 1. Anything worse raises ``InvalidProbVector``.
    """

    components: tuple[float, ...]

    def __init__(self, components: Iterable[float]):
        try:
            comps = [float(c) for c in components]
        except (TypeError, ValueError):
            raise InvalidProbVector("components must be numbers") from None
        if not comps:
            raise InvalidProbVector("a probability vector needs at least one component")
        if any(not np.isfinite(c) for c in comps):
            raise InvalidProbVector("components must be finite")
        low = min(comps)
        if low < -TOL:
            raise InvalidProbVector(f"component {low!r} is negative beyond tolerance")
        comps = [c if c > 0.0 else 0.0 for c in comps]
        total = sum(comps)
        if abs(total - 1.0) > TOL:
            raise InvalidProbVector(f"components sum to {total!r}, not 1")
        if total != 1.0:
            comps = [c / total for c in comps]
        object.__setattr__(self, "components", tuple(comps))

    @classmethod
    def _from_trusted(cls, components: tuple[float, ...]) -> "ProbVector":
        """Bypass validation for values that are already a valid vector."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "components", components)
        return obj

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> float:
        return self.components[i]

    def as_array(self) -> np.ndarray:
        return np.array(self.components, dtype=float)

    def to_json(self) -> list[float]:
        """Serialize as a plain JSON array of numbers."""
        return list(self.components)


def normalize(weights: Sequence[float]) -> ProbVector:
    """Rescale nonnegative weights into a ProbVector.

    Raises ``NegativeWeight`` if any weight is below ``-TOL`` and ``AllZero``
    if every weight is numerically zero.
    """
    ws = [float(w) for w in weights]
    if any(not np.isfinite(w) for w in ws):
        raise NegativeWeight("weights must be finite")
    if any(w < -TOL for w in ws):
        raise NegativeWeight(f"negative weight in {ws!r}")
    ws = [w if w > 0.0 else 0.0 for w in ws]
    total = sum(ws)
    if total <= TOL:
        raise AllZero("all weights are zero; nothing to normalize")
    return ProbVector([w / total for w in ws])


def sort_desc(p: ProbVector) -> ProbVector:
    """Permutation of ``p`` with nonincreasing components (stable for ties)."""
    return ProbVector._from_trusted(tuple(sorted(p.components, reverse=True)))


def _padded_sorted(p: ProbVector, n: int) -> np.ndarray:
    arr = np.sort(p.as_array())[::-1]
    if len(arr) < n:
        arr = np.concatenate([arr, np.zeros(n - len(arr))])
    return arr


def majorizes(q: ProbVector, p: ProbVector) -> bool:
    """True iff ``p`` is majorized by ``q`` (p < q in the majorization order).

    Vectors of different length are compared after zero-padding the shorter
    one; partial sums of the decreasing rearrangements must satisfy
    ``sum_k p_i <= sum_k q_i`` for every k, with equal totals.
    """
    n = max(len(p), len(q))
    ps = np.cumsum(_padded_sorted(p, n))
    qs = np.cumsum(_padded_sorted(q, n))
    if abs(ps[-1] - qs[-1]) > TOL:
        return False
    return bool(np.all(ps[:-1] <= qs[:-1] + TOL))
