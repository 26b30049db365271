"""Entropic functional pairs (h, phi) and the classical entropy they induce.

A pair consists of an outer map ``h`` and an inner map ``phi`` with
``phi(0) = 0`` and ``h(phi(1)) = 0``, in one of two admissible regimes:
``h`` increasing with ``phi`` concave, or ``h`` decreasing with ``phi``
convex. The induced entropy of a distribution ``p`` is
``h(sum_i phi(p_i))``; Shannon, Renyi and Tsallis are presets.

Both maps are evaluated on numpy arrays, one call per array: the presets are
numpy expressions and grid pairs interpolate with ``np.interp``. A callable
that only takes one float at a time is lifted to arrays at construction.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BadParameter, InvalidEntropicPair, InvalidProbVector, _expect
from .probvec import TOL, ProbVector

REGIME_INC_CONCAVE = "h-increasing/phi-concave"
REGIME_DEC_CONVEX = "h-decreasing/phi-convex"
_REGIMES = (REGIME_INC_CONCAVE, REGIME_DEC_CONVEX)

#: Largest support size the library commits to; bounds the reachable range
#: of sum_i phi(p_i) used when validating h.
N_CAP = 16

_GRID_POINTS = 1001
_GRID_TOL = 1e-7


def _validate_pair(h, phi, regime):
    if regime not in _REGIMES:
        raise InvalidEntropicPair(f"unknown regime {regime!r}")
    phi0 = float(phi(0.0))
    if abs(phi0) > TOL:
        raise InvalidEntropicPair(f"phi(0) = {phi0!r}, expected 0")
    h_at_1 = float(h(phi(1.0)))
    if abs(h_at_1) > TOL:
        raise InvalidEntropicPair(f"h(phi(1)) = {h_at_1!r}, expected 0")

    # Concavity/convexity of phi via second differences on a uniform grid.
    xs = np.linspace(0.0, 1.0, _GRID_POINTS)
    ys = np.asarray(phi(xs), float)
    if not np.all(np.isfinite(ys)):
        raise InvalidEntropicPair("phi is not finite on [0, 1]")
    d2 = ys[2:] - 2.0 * ys[1:-1] + ys[:-2]
    # one signed test per regime: -d2 and -dh are exact negations
    concave = regime == REGIME_INC_CONCAVE
    sign = 1.0 if concave else -1.0
    if (sign * d2).max() > _GRID_TOL:
        raise InvalidEntropicPair(f"phi is not {'concave' if concave else 'convex'} on [0, 1]")

    # Monotonicity of h on the range sum_i phi(p_i) can reach for N <= N_CAP.
    ends = sorted([float(phi(1.0)), float(N_CAP * phi(1.0 / N_CAP))])
    if ends[1] - ends[0] > 1e-12:
        ts = np.linspace(ends[0], ends[1], _GRID_POINTS)
        hs = np.asarray(h(ts), float)
        if not np.all(np.isfinite(hs)):
            raise InvalidEntropicPair("h is not finite on the reachable range")
        if (-sign * np.diff(hs)).max() > _GRID_TOL:
            raise InvalidEntropicPair(f"h is not {'increasing' if concave else 'decreasing'} "
                                      "on the reachable range")


def _on_arrays(f: Callable, probe: np.ndarray) -> Callable:
    """``f`` if it maps the probe array elementwise, else ``f`` lifted to arrays."""
    try:
        with np.errstate(all="ignore"):  # domain problems are the validation's to report
            if np.shape(f(probe)) == probe.shape:
                return f
    except Exception:  # a scalar-only callable fails on an array in any way it likes
        pass
    return np.vectorize(f, otypes=[float])


@dataclass(frozen=True)
class EntropicPair:
    """An (h, phi) functional pair, numerically validated at construction.

    ``h`` and ``phi`` map arrays elementwise; a callable that fails on an
    array, or does not return one of the same shape, is replaced by its
    ``np.vectorize`` lift, which calls it once per element.
    """

    h: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]
    regime: str
    name: str | None = None
    parameter: float | None = field(default=None)

    def __post_init__(self):
        phi = _on_arrays(self.phi, np.array([0.0, 1.0]))
        h = _on_arrays(self.h, np.full(2, float(phi(1.0))))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "h", h)
        _validate_pair(h, phi, self.regime)

    def __repr__(self):  # callables are noise; show the identity instead
        if self.parameter is None:
            return f"EntropicPair({self.name or 'custom'}, {self.regime})"
        return f"EntropicPair({self.name}({self.parameter:g}), {self.regime})"


def _shannon_phi(p):
    p = np.asarray(p, float)
    return -p * np.log(np.where(p > 0.0, p, 1.0))  # 0 at p <= 0, without a log(0)


#: Distinct (name, parameter) presets kept built; a sweep over many
#: parameters evicts the least recently used ones.
_PRESET_CACHE = 64


def make_preset(name: str, parameter: float | None = None) -> EntropicPair:
    """Build one of the preset pairs: shannon, renyi(alpha) or tsallis(q).

    For renyi/tsallis the parameter must be finite, positive and different
    from 1 (the Shannon limit is reached continuously but not evaluated at 1).
    Each (name, parameter) is built and validated once; later calls return
    the same pair.
    """
    if not isinstance(name, str):
        raise BadParameter(f"preset name must be a string, got {name!r}")
    key = name.strip().lower()
    if key == "shannon":
        return _preset(key, None)
    if key in ("renyi", "tsallis"):
        if parameter is None:
            raise BadParameter(f"{key} needs a parameter")
        try:
            a = float(parameter)
        except (TypeError, ValueError, OverflowError):
            raise BadParameter(f"{key} parameter must be a number, got {parameter!r}") from None
        if not math.isfinite(a) or a <= 0.0 or abs(a - 1.0) <= 1e-12:
            raise BadParameter(f"{key} parameter must be finite, > 0 and != 1, got {a!r}")
        return _preset(key, a)
    raise BadParameter(f"unknown preset {name!r}")


@functools.lru_cache(maxsize=_PRESET_CACHE)
def _preset(key: str, a: float | None) -> EntropicPair:
    """The validated pair of a checked preset name and parameter."""
    if key == "shannon":
        return EntropicPair(h=lambda x: x, phi=_shannon_phi,
                            regime=REGIME_INC_CONCAVE, name="shannon")
    regime = REGIME_DEC_CONVEX if a > 1.0 else REGIME_INC_CONCAVE
    phi = lambda p, _a=a: np.maximum(p, 0.0) ** _a  # 0 at p <= 0, as a > 0
    if key == "renyi":
        h = lambda x, _a=a: np.log(x) / (1.0 - _a)
    else:
        h = lambda x, _a=a: (x - 1.0) / (1.0 - _a)
    return EntropicPair(h=h, phi=phi, regime=regime, name=key, parameter=a)


def _entropies(pair: EntropicPair, probs: np.ndarray) -> np.ndarray:
    """h(sum_i phi(p_i)) of each row of a stack of distributions.

    Each row gets the checks a ``ProbVector`` makes (finite components that
    sum to 1 within ``TOL``, else ``InvalidProbVector``); components below
    ``TOL`` count as exact zeros. ``InvalidEntropicPair`` unless ``pair`` is
    an ``EntropicPair``.
    """
    _expect(pair, EntropicPair, InvalidEntropicPair)
    for total in probs.sum(axis=1).tolist():  # Python floats: the cheaper test per row
        if not abs(total - 1.0) <= TOL:  # a NaN or infinite component fails this too
            if not np.isfinite(probs).all():
                raise InvalidProbVector("components must be finite")
            raise InvalidProbVector(f"components sum to {total!r}, not 1")
    return np.asarray(pair.h(np.where(probs >= TOL, pair.phi(probs), 0.0).sum(axis=1)), float)


def classical_entropy(pair: EntropicPair, p: ProbVector) -> float:
    """h(sum_i phi(p_i)) with components below tolerance treated as exact 0;
    ``InvalidProbVector`` unless ``p`` is a ``ProbVector``."""
    return float(_entropies(pair, _expect(p, ProbVector, InvalidProbVector).as_array()[None])[0])


def entropy_upper_bound(pair: EntropicPair, n: int) -> float:
    """Value of the pair's entropy on the uniform distribution of size n."""
    _expect(pair, EntropicPair, InvalidEntropicPair)
    try:
        n = operator.index(n)
    except TypeError:
        raise BadParameter(f"support size must be an integer, got {n!r}") from None
    if n < 1:
        raise BadParameter(f"support size must be >= 1, got {n!r}")
    return float(pair.h(n * pair.phi(1.0 / n)))


def pair_from_spec(spec: str) -> EntropicPair:
    """Parse a CLI pair descriptor: 'shannon', 'renyi:2.0' or 'tsallis:0.5'."""
    if not isinstance(spec, str):
        raise BadParameter(f"pair spec must be a string, got {spec!r}")
    head, _, tail = spec.partition(":")
    head = head.strip().lower()
    if head == "shannon":
        if tail:
            raise BadParameter("shannon takes no parameter")
        return make_preset("shannon")
    if head in ("renyi", "tsallis"):
        try:
            value = float(tail)
        except ValueError:
            raise BadParameter(f"bad parameter {tail!r} in {spec!r}") from None
        return make_preset(head, value)
    raise BadParameter(f"unknown pair spec {spec!r}")


def pair_from_grid_descriptor(desc: dict) -> EntropicPair:
    """Build a custom pair from sampled-grid definitions of h and phi.

    Expected JSON shape::

        {"regime": "h-increasing/phi-concave",
         "phi": {"x": [...], "y": [...]},
         "h":   {"x": [...], "y": [...]},
         "name": "optional"}

    Both maps are interpolated piecewise-linearly and clamped outside their
    grids; the usual construction-time validation still applies.
    """
    try:
        regime = desc["regime"]
        phi_x = np.asarray(desc["phi"]["x"], dtype=float)
        phi_y = np.asarray(desc["phi"]["y"], dtype=float)
        h_x = np.asarray(desc["h"]["x"], dtype=float)
        h_y = np.asarray(desc["h"]["y"], dtype=float)
    # IndexError: an array; OverflowError: an integer too large for a float
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise InvalidEntropicPair(f"malformed pair descriptor: {exc}") from None
    for label, grid in {"phi.x": phi_x, "phi.y": phi_y, "h.x": h_x, "h.y": h_y}.items():
        if grid.ndim != 1:
            raise InvalidEntropicPair(f"grid {label} must be one-dimensional")
        if not np.isfinite(grid).all():
            raise InvalidEntropicPair(f"grid {label} must be finite")
        if label.endswith(".x") and not (np.diff(grid) > 0.0).all():
            raise InvalidEntropicPair(f"grid {label} must be strictly increasing")
    if len(phi_x) != len(phi_y) or len(h_x) != len(h_y) or len(phi_x) < 2 or len(h_x) < 2:
        raise InvalidEntropicPair("grid definitions need matching x/y arrays of length >= 2")
    phi = lambda p: np.interp(p, phi_x, phi_y)
    h = lambda x: np.interp(x, h_x, h_y)
    return EntropicPair(h=h, phi=phi, regime=regime, name=desc.get("name", "custom"))
