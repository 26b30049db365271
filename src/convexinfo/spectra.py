"""Generalized spectra, generalized majorization and the two state entropies.

The spectrum of a state, when it exists, is the majorant of the probability
vectors of all its pure-state convex decompositions. On a polytope model
these form the polytope P = {w >= 0 : sum_i w_i v_i = state}. The sum of the
k largest weights is convex in w, so its maximum T_k over P is attained at a
vertex of P, and so is the maximum of its sum over k: a majorant (attaining
every T_k at once) exists iff some vertex of P is one. The vertices come
from one batched solve over the model's regular bases, which are built
once per model; the same solve decides that the state is a member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convex_kernel import LinearProgram, decomposition_program
from .entropic import EntropicPair, _entropies, classical_entropy
from .errors import DimensionMismatch, InvalidEntropicPair, NoFrames, SpectrumUndefined, _expect
from .gpt_models import (
    Frame,
    GptState,
    StateSpace,
    _decomposition_vertices,
    _frame_distributions,
    enumerate_frames,
)
from .probvec import TOL, ProbVector, majorizes

#: Summed shortfall below which the best vertex realizes every T_k.
_GAP_TOL = 1e-8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Majorant weights (sorted decreasing, zeros trimmed) and their pure states."""

    weights: ProbVector
    support: tuple[GptState, ...]
    support_indices: tuple[int, ...]

    def to_json(self) -> dict:
        return {"exists": True,
                "weights": self.weights.to_json(),
                "support": list(self.support_indices)}


@dataclass(frozen=True)
class NoMajorant:
    """Explicit outcome: the decomposition set has no majorization maximum.

    ``tk`` holds the per-level suprema of the k-largest-weight functional and
    ``best_candidate`` the decomposition that came closest to realizing them
    all (summed shortfall ``gap``).
    """

    tk: tuple[float, ...]
    best_candidate: tuple[float, ...]
    gap: float

    def to_json(self) -> dict:
        return {"exists": False,
                "tk": list(self.tk),
                "best_candidate": list(self.best_candidate),
                "gap": self.gap}


def decomposition_constraints(space: StateSpace, state: GptState) -> LinearProgram:
    """Objective-free LP over vertex weights reproducing the state (``NotAState`` as
    ``make_state`` raises it: when no basis of the model decomposes the state)."""
    _decomposition_vertices(space, state)
    return decomposition_program(space._verts, state.as_array())


def generalized_spectrum(space: StateSpace, state: GptState):
    """The majorant of all pure decompositions of the state, if it exists.

    Returns a ``SpectralDecomposition`` on success and a ``NoMajorant``
    diagnostic otherwise. Raises ``NotAState`` when the state has no
    decomposition over the model's vertices.
    """
    w = _decomposition_vertices(space, state)
    # each row's weights largest first, summed: the first is positive, so the
    # sign of a zero weight never reaches a sum
    profiles = np.sort(w)[:, ::-1].cumsum(axis=1)
    t = profiles.max(axis=0)
    levels = min(len(t), int(t.searchsorted(1.0 - 1e-12)) + 1)
    tk = t[:levels]
    summed = profiles[:, :levels].sum(axis=1)
    best = int((summed >= summed.max() - 1e-12).argmax())
    gap = float(tk.sum() - summed[best])
    if gap <= _GAP_TOL:
        return _package(space, w[best], profiles[best])
    return NoMajorant(tk=tuple(map(float, tk)), best_candidate=tuple(map(float, w[best])),
                      gap=gap)


def _package(space: StateSpace, weights: np.ndarray, profile: np.ndarray) -> SpectralDecomposition:
    """The decomposition of ``weights``, a row of ``_decomposition_vertices``, whose
    decreasing partial sums are ``profile``: its weights from ``TOL`` up, largest first
    (ties in vertex order), rescaled if their sum misses 1 by more than ``TOL``."""
    values = weights.tolist()
    kept = sorted((i for i, v in enumerate(values) if v >= TOL), key=values.__getitem__,
                  reverse=True)
    # the kept weights added largest first; may miss 1 by the reconstruction tolerance
    total = float(profile[len(kept) - 1])
    scale = total if abs(total - 1.0) > TOL else 1.0
    return SpectralDecomposition(
        weights=ProbVector([values[i] / scale for i in kept]),
        support=tuple(map(space._vertex_states.__getitem__, kept)),
        support_indices=tuple(kept),
    )


def generalized_majorizes(space: StateSpace, nu: GptState, mu: GptState) -> bool:
    """True iff mu is majorized by nu in the generalized (spectral) order."""
    spec_nu = generalized_spectrum(space, nu)
    if isinstance(spec_nu, NoMajorant):
        raise SpectrumUndefined("first state has no spectrum", state=nu)
    spec_mu = generalized_spectrum(space, mu)
    if isinstance(spec_mu, NoMajorant):
        raise SpectrumUndefined("second state has no spectrum", state=mu)
    return majorizes(spec_nu.weights, spec_mu.weights)


@dataclass(frozen=True)
class PhiMixture:
    """Formal combination sum_i phi(w_i) * state_i from a spectral decomposition."""

    coefficients: tuple[float, ...]
    states: tuple[GptState, ...]

    @property
    def unit_total(self) -> float:
        """Value of the unit functional on the formal combination."""
        return float(sum(self.coefficients))


def apply_phi(space: StateSpace, state: GptState, pair: EntropicPair) -> PhiMixture:
    """Apply the pair's inner map to the state through its spectrum."""
    _expect(pair, EntropicPair, InvalidEntropicPair)
    spec = generalized_spectrum(space, state)
    if isinstance(spec, NoMajorant):
        raise SpectrumUndefined("state has no spectrum", state=state)
    coeffs = tuple(np.asarray(pair.phi(spec.weights.as_array()), float).tolist())
    return PhiMixture(coefficients=coeffs, states=spec.support)


def spectral_entropy(pair: EntropicPair, space: StateSpace, state: GptState) -> float:
    """Entropy of the generalized spectrum (the spectral-route definition).

    This is h of the unit functional on the phi-mixture, which is the
    classical entropy of the spectral weights.
    """
    spec = generalized_spectrum(space, state)
    if isinstance(spec, NoMajorant):
        raise SpectrumUndefined("state has no spectrum", state=state)
    return classical_entropy(pair, spec.weights)


def frame_entropy(pair: EntropicPair, space: StateSpace,
                  state: GptState) -> tuple[float, Frame]:
    """Minimum entropy of the state's restriction over all frames.

    The facet cone decided each frame, and a restriction reads its witness
    (``restrict_to_frame``): the least-squares witness if it is valid, else
    the k x d witness LP's vertex, else the facet cone's checked point; a
    one-vertex frame's is the unit effect. The witness is not unique in
    general, so this is not the minimum over every frame's witnesses.
    Ties go to the first frame in enumeration order (lexicographic vertex
    indices), which keeps golden outputs stable. ``DimensionMismatch``
    unless ``state`` is a ``GptState``.
    """
    point = _expect(state, GptState, DimensionMismatch).as_array()
    frames = enumerate_frames(space)
    if not frames:
        raise NoFrames("model admits no frame")
    entropies = _entropies(pair, _frame_distributions(point, frames)).tolist()
    best = 0
    for k, value in enumerate(entropies):
        if value < entropies[best] - 1e-15:
            best = k
    return entropies[best], frames[best]
