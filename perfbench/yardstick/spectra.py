"""Generalized spectra, generalized majorization and the two state entropies.

The spectrum of a state, when it exists, is the majorant of the set of all
probability vectors arising from pure-state convex decompositions. On a
polytope model that set is itself a polytope in weight space, and the sum
of the k largest weights attains its maximum T_k at one of finitely many
vertex subsets. A majorant must achieve every T_k simultaneously, and its
sorted prefixes form a nested chain of level argmax subsets, so the search
below sweeps subsets per level, then tries every nested chain of argmax
subsets with one slack-minimizing LP each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .convex_kernel import (
    LinearProgram,
    decomposition_program,
    lp_solve,
    topk_weight_max,
)
from .entropic import EntropicPair, classical_entropy
from .errors import LpNumericalError, NoFrames, NotAState, SpectrumUndefined
from .gpt_models import (
    Frame,
    GptState,
    StateSpace,
    enumerate_frames,
    restrict_to_frame,
    vertex_state,
)
from .probvec import TOL, ProbVector, majorizes

#: Summed slack below which a chain counts as exactly realizing all T_k.
_CHAIN_TOL = 1e-8
#: Hard cap on explored chains; hit only by adversarial tie structures.
_MAX_CHAINS = 100_000


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
    """Objective-free LP over vertex weights reproducing the state.

    Raises ``NotAState`` when the point is not in the model polytope.
    """
    skeleton = decomposition_program(space.vertex_array(), state.as_array())
    if lp_solve(skeleton).status != "optimal":
        raise NotAState("state has no convex decomposition over the model vertices")
    return skeleton


def _level_sweep(skeleton: LinearProgram, n_vertices: int):
    """Per-level suprema T_k and the subsets attaining them (within 1e-9)."""
    tk: list[float] = []
    argmax_sets: list[list[tuple[int, ...]]] = []
    for k in range(1, n_vertices + 1):
        values = [(combo, topk_weight_max(skeleton, combo))
                  for combo in itertools.combinations(range(n_vertices), k)]
        best = max(v for _, v in values)
        tk.append(best)
        argmax_sets.append([combo for combo, v in values if v >= best - 1e-9])
        if best >= 1.0 - 1e-12:
            break
    return tk, argmax_sets


def generalized_spectrum(space: StateSpace, state: GptState):
    """The majorant of all pure decompositions of the state, if it exists.

    Returns a ``SpectralDecomposition`` on success and a ``NoMajorant``
    diagnostic otherwise.
    """
    skeleton = decomposition_constraints(space, state)
    v = space.n_vertices
    tk, argmax_sets = _level_sweep(skeleton, v)
    levels = len(tk)
    target = float(sum(tk))

    best_gap = np.inf
    best_point = None
    chains_tried = 0

    def chains(level: int, prefix: tuple[int, ...]):
        if level == levels:
            yield ()
            return
        for combo in argmax_sets[level]:
            if set(prefix) <= set(combo):
                for rest in chains(level + 1, combo):
                    yield (combo,) + rest

    def chain_lp(chain):
        counts = np.zeros(v)
        for combo in chain:
            counts[list(combo)] += 1.0
        result = lp_solve(skeleton.with_objective(tuple(counts), maximize=True))
        if result.status != "optimal":  # skeleton is feasible, so cannot happen
            raise LpNumericalError("chain LP failed on a feasible skeleton")
        return target - float(result.value), np.asarray(result.point, float)

    for chain in chains(0, ()):
        chains_tried += 1
        if chains_tried > _MAX_CHAINS:
            raise LpNumericalError("chain search exhausted its cap")
        gap, point = chain_lp(chain)
        if gap <= _CHAIN_TOL:
            return _package(space, state, point)
        if gap < best_gap - 1e-12:
            best_gap = gap
            best_point = point

    if best_point is None:
        # level argmax subsets do not nest at all; report the greedy nested
        # chain's best decomposition as the diagnostic candidate
        best_gap, best_point = chain_lp(_greedy_chain(skeleton, v, levels))
    return NoMajorant(tk=tuple(tk),
                      best_candidate=tuple(float(x) for x in best_point),
                      gap=float(best_gap))


def _greedy_chain(skeleton: LinearProgram, v: int, levels: int):
    chain = []
    current: tuple[int, ...] = ()
    for _ in range(levels):
        best_value, best_set = -np.inf, None
        for j in range(v):
            if j in current:
                continue
            candidate = tuple(sorted(current + (j,)))
            value = topk_weight_max(skeleton, candidate)
            if value > best_value + 1e-12:
                best_value, best_set = value, candidate
        current = best_set
        chain.append(current)
    return chain


def _package(space: StateSpace, state: GptState, weights: np.ndarray) -> SpectralDecomposition:
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    kept = [i for i in order if weights[i] >= TOL]
    recon = sum(weights[i] * space.vertex_array()[i] for i in range(len(weights)))
    if np.max(np.abs(recon - state.as_array())) > 1e-8:
        raise LpNumericalError("spectral weights fail to reconstruct the state")
    return SpectralDecomposition(
        weights=ProbVector([weights[i] for i in kept]),
        support=tuple(vertex_state(space, i) for i in kept),
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
    spec = generalized_spectrum(space, state)
    if isinstance(spec, NoMajorant):
        raise SpectrumUndefined("state has no spectrum", state=state)
    coeffs = tuple(float(pair.phi(w)) for w in spec.weights.components)
    return PhiMixture(coefficients=coeffs, states=spec.support)


def spectral_entropy(pair: EntropicPair, space: StateSpace, state: GptState) -> float:
    """Entropy of the generalized spectrum (the spectral-route definition).

    Evaluated both through the formal phi-mixture and directly on the weight
    vector; the two routes must agree to within tolerance.
    """
    spec = generalized_spectrum(space, state)
    if isinstance(spec, NoMajorant):
        raise SpectrumUndefined("state has no spectrum", state=state)
    via_mixture = float(pair.h(apply_phi(space, state, pair).unit_total))
    direct = classical_entropy(pair, spec.weights)
    if abs(via_mixture - direct) > 1e-9:
        raise LpNumericalError("phi-mixture and direct entropy routes disagree")
    return direct


def frame_entropy(pair: EntropicPair, space: StateSpace,
                  state: GptState) -> tuple[float, Frame]:
    """Minimum entropy of the state's restriction over all frames.

    Ties are broken by frame enumeration order (lexicographic vertex
    indices), which keeps golden outputs stable.
    """
    frames = enumerate_frames(space)
    if not frames:
        raise NoFrames("model admits no frame")
    best_value, best_frame = np.inf, None
    for frame in frames:
        value = classical_entropy(pair, restrict_to_frame(state, frame))
        if value < best_value - 1e-15:
            best_value, best_frame = value, frame
    return float(best_value), best_frame
