"""Density operators, POVMs, quantum entropies and the Holevo bound.

The two equivalent entropy routes are kept separate on purpose: the
spectral route applies an entropic pair to the eigenvalues, while the
measurement route minimizes the classical entropy of Born statistics over
sampled rank-one POVMs (the eigenbasis measurement is always seeded, so
the known optimum is reachable whenever the pair is Schur-concave).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .entropic import EntropicPair, _entropies, classical_entropy, make_preset
from .errors import (
    BadParameter,
    DimensionMismatch,
    InvalidDensityMatrix,
    InvalidPovm,
    NotNormalized,
    TooLarge,
)
from .probvec import TOL, ProbVector, majorizes

#: Dense eigensolves only; desk-scale dimension cap.
MAX_DIM = 16
#: Cap on the candidates of one measurement-minimum search: 100,000 of them
#: take about 6 s at the 16 x 16 cap.
MAX_SEARCH_BUDGET = 100_000


def _as_complex_matrix(entries, error=InvalidDensityMatrix) -> np.ndarray:
    try:
        m = np.asarray(entries, complex)
    except (TypeError, ValueError):  # ragged rows or non-numeric entries
        raise error("expected a square matrix of numbers") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise error(f"expected a square matrix, got shape {m.shape}")
    if not m.size:
        raise error("expected a matrix with at least one entry")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """A positive semidefinite, unit-trace complex matrix (N <= 16)."""

    entries: tuple[tuple[complex, ...], ...]

    def __init__(self, entries):
        m = _as_complex_matrix(entries)
        n = m.shape[0]
        if n > MAX_DIM:
            raise TooLarge(f"dimension {n} exceeds the cap {MAX_DIM}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise InvalidDensityMatrix("entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > TOL:
            raise InvalidDensityMatrix("matrix is not Hermitian within tolerance")
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > TOL:
            raise InvalidDensityMatrix(f"trace is {trace!r}, not 1")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -TOL:
            raise InvalidDensityMatrix(f"negative eigenvalue {lo!r} beyond tolerance")
        object.__setattr__(self, "entries", tuple(tuple(row) for row in m))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries, complex)

    def to_json(self) -> list:
        return [[[z.real, z.imag] for z in row] for row in self.entries]


@dataclass(frozen=True)
class Povm:
    """A finite POVM: PSD effects summing to the identity."""

    effects: tuple[tuple[tuple[complex, ...], ...], ...]
    rank_one: bool

    def __init__(self, effects, rank_one: bool | None = None):
        try:
            mats = [_as_complex_matrix(e, InvalidPovm) for e in effects]
        except TypeError:  # effects is not iterable
            raise InvalidPovm(f"expected a sequence of effects, got {effects!r}") from None
        if not mats:
            raise InvalidPovm("a POVM needs at least one effect")
        n = mats[0].shape[0]
        if any(m.shape[0] != n for m in mats):
            raise DimensionMismatch("effects must share one dimension")
        stack = np.array(mats)
        not_hermitian = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2)) > TOL
        evals = np.linalg.eigvalsh(stack)
        negative = evals[:, 0] < -TOL
        first = int(np.argmax(not_hermitian | negative))  # effects are checked in order
        if not_hermitian[first]:
            raise InvalidPovm("effect is not Hermitian within tolerance")
        if negative[first]:
            raise InvalidPovm(f"effect has negative eigenvalue {float(evals[first, 0])!r}")
        detected_rank_one = n == 1 or not (evals[:, -2] > 1e-7).any()
        if np.max(np.abs(stack.sum(axis=0) - np.eye(n))) > TOL:
            raise InvalidPovm("effects do not sum to the identity")
        if rank_one is None:
            rank_one = detected_rank_one
        elif rank_one and not detected_rank_one:
            raise InvalidPovm("rank_one flag set but an effect has rank > 1")
        object.__setattr__(self, "effects",
                           tuple(tuple(tuple(row) for row in m) for m in mats))
        object.__setattr__(self, "rank_one", bool(rank_one))

    @property
    def dim(self) -> int:
        return len(self.effects[0])

    def __len__(self) -> int:
        return len(self.effects)


@dataclass(frozen=True)
class Ensemble:
    """Classical source emitting quantum states: weights plus same-dim states."""

    weights: ProbVector
    states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.states):
            raise DimensionMismatch("one weight per state required")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise DimensionMismatch("ensemble states must share one dimension")
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def average_state(self) -> DensityMatrix:
        mix = sum(w * s.as_array() for w, s in zip(self.weights.components, self.states))
        return DensityMatrix(mix)


def born_probabilities(rho: DensityMatrix, m: Povm) -> ProbVector:
    """Outcome distribution Tr(rho E_i) of measuring m on rho."""
    if rho.dim != m.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs POVM dim {m.dim}")
    return ProbVector(np.einsum("ab,kba->k", rho.as_array(), np.asarray(m.effects, complex)).real)


def eigen_spectrum(rho: DensityMatrix) -> ProbVector:
    """Eigenvalues sorted decreasing, clamped at 0 and renormalized."""
    evals = np.linalg.eigvalsh(rho.as_array())[::-1]
    clamped = np.where(evals > 0.0, evals, 0.0)
    return ProbVector(clamped / clamped.sum())


def quantum_entropy(pair: EntropicPair, rho: DensityMatrix) -> float:
    """h(Tr phi(rho)): the pair's entropy of the eigenvalue distribution."""
    return classical_entropy(pair, eigen_spectrum(rho))


def _isometry_rows(rng: np.random.Generator, dim: int, outcomes: int,
                   stack: tuple[int, ...] = ()) -> np.ndarray:
    """Rows of Haar-ish isometries; row i induces the effect |r_i*><r_i*|.

    ``stack=(k,)`` draws a stack of k isometries, the same numbers as k
    draws one at a time.
    """
    g = rng.standard_normal((*stack, outcomes, dim, 2)).view(complex)[..., 0]  # (re, im) pairs
    q, _ = np.linalg.qr(g)
    return q  # (..., outcomes, dim) with orthonormal columns


#: Multiply-adds of one scoring GEMM. OpenBLAS runs a complex GEMM of at
#: most 2**15 of them on the calling thread; a larger one wakes its other
#: threads, which spin and touch buffers of their own for a product that
#: takes tens of microseconds.
_GEMM_CELLS = 1 << 15


def _rows_entropies(pair, rho_arr, rows) -> np.ndarray:
    """Entropy of the Born statistics of each isometry in a stack.

    The products of all the stack's rows with rho take one GEMM, or a few
    of at most ``_GEMM_CELLS`` multiply-adds each.
    """
    k, m, n = rows.shape
    flat = rows.reshape(k * m, n)
    chunk = _GEMM_CELLS // (n * n)
    products = np.concatenate([flat[i:i + chunk] @ rho_arr
                               for i in range(0, k * m, chunk)]).reshape(rows.shape)
    probs = np.einsum("kia,kia->ki", products, rows.conj()).real
    probs = np.where(probs > 0.0, probs, 0.0)
    return _entropies(pair, probs / probs.sum(axis=1, keepdims=True))


def _first_below(values: np.ndarray, best: float) -> int | None:
    """Index of the first value that improves on ``best`` by more than 1e-15."""
    hits = np.flatnonzero(values < best - 1e-15)
    return int(hits[0]) if hits.size else None


#: Bound on the isometry entries of one block of refinement steps drawn and
#: scored together: one block at d = 2 and 4, blocks of 64 steps at d = 16.
#: The draws do not depend on the scores; after an improvement the block's
#: later steps are scored again around the new best isometry, so the result
#: is that of one step at a time.
_REFINE_CELLS = 1 << 14


def _refine(pair, rho_arr, rows, value, rng, steps: int):
    """Local refinement of the best isometry; returns the best (value, rows).

    Each step orthonormalizes the best rows so far plus a complex Gaussian
    perturbation, whose scale shrinks by 0.5% per step from 0.3 down to 0.01.
    """
    # 0.3 * 0.995**k as a sequential product, floored: the recurrence's bits
    scales = np.maximum(np.multiply.accumulate(np.r_[0.3, np.full(max(steps - 1, 0), 0.995)]),
                        0.01)
    block = _REFINE_CELLS // rows.size
    for start in range(0, steps, block):
        g = rng.standard_normal((min(block, steps - start), *rows.shape, 2))
        moves = scales[start:start + len(g), None, None] * g.view(complex)[..., 0]
        while len(moves):
            candidates, _ = np.linalg.qr(rows + moves)
            values = _rows_entropies(pair, rho_arr, candidates)
            i = _first_below(values, value)
            if i is None:
                break
            value, rows = values[i], candidates[i]
            moves = moves[i + 1:]
    return value, rows


def quantum_entropy_min_search(pair: EntropicPair, rho: DensityMatrix,
                               budget: int = 1000, seed: int = 0) -> tuple[float, Povm]:
    """Minimize the pair's entropy of Born statistics over rank-one POVMs.

    Deterministic given (seed, budget). The eigenbasis projective measurement
    is always the first candidate; random isometry-sampled POVMs with N..2N
    outcomes use roughly 70% of the budget and local refinements of the best
    isometry the rest. Candidates are scored in stacks, with the result of
    scoring them one at a time in a fixed order: the random ones grouped by
    outcome count (fewest first), then the refinement steps in turn. A
    candidate replaces the best only if it improves on it by more than 1e-15.
    """
    try:
        budget = operator.index(budget)
    except TypeError:
        raise BadParameter(f"budget must be an integer, got {budget!r}") from None
    if budget < 1:
        raise DimensionMismatch("budget must be >= 1")
    if budget > MAX_SEARCH_BUDGET:
        raise TooLarge(f"budget {budget} exceeds the cap {MAX_SEARCH_BUDGET}")
    n = rho.dim
    rho_arr = rho.as_array()
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise BadParameter(f"seed must be a non-negative integer, got {seed!r}") from None

    _, vecs = np.linalg.eigh(rho_arr)
    best_rows = vecs.conj().T[::-1].copy()  # eigenbasis bras, largest eigenvalue first
    best_value = _rows_entropies(pair, rho_arr, best_rows[None])[0]

    n_random = min(budget - 1, max(1, int(0.7 * (budget - 1))))
    counts = rng.integers(n, 2 * n + 1, size=n_random)
    for outcomes, size in enumerate(np.bincount(counts - n, minlength=n + 1), start=n):
        if not size:
            continue
        rows = _isometry_rows(rng, n, outcomes, (int(size),))
        values = _rows_entropies(pair, rho_arr, rows)
        while (i := _first_below(values, best_value)) is not None:
            best_value, best_rows = values[i], rows[i]
            values, rows = values[i + 1:], rows[i + 1:]

    best_value, best_rows = _refine(pair, rho_arr, best_rows, best_value, rng,
                                    budget - 1 - n_random)
    effects = np.einsum("ia,ib->iab", best_rows.conj(), best_rows)
    return float(best_value), Povm(effects, rank_one=True)


def quantum_majorizes(sigma: DensityMatrix, rho: DensityMatrix) -> bool:
    """True iff rho is majorized by sigma (eigenvalue majorization)."""
    if sigma.dim != rho.dim:
        raise DimensionMismatch("states must share one dimension")
    return majorizes(eigen_spectrum(sigma), eigen_spectrum(rho))


def holevo_chi(e: Ensemble) -> float:
    """S(sum p_x rho_x) - sum p_x S(rho_x) with the Shannon preset."""
    shannon = make_preset("shannon")
    mixed = quantum_entropy(shannon, e.average_state())
    conditional = sum(w * quantum_entropy(shannon, s)
                      for w, s in zip(e.weights.components, e.states))
    return float(mixed - conditional)


def mutual_information(joint) -> float:
    """I(X:Y) = H(X) + H(Y) - H(X,Y) in nats for a joint probability table."""
    try:
        j = np.asarray(joint, float)
    except (TypeError, ValueError):
        raise NotNormalized("joint table must be a 2-d array of numbers") from None
    if j.ndim != 2:
        raise NotNormalized("joint table must be a 2-d array")
    if not j.size:
        raise NotNormalized("joint table is empty")
    if np.min(j) < -TOL:
        raise NotNormalized(f"negative joint probability {float(np.min(j))!r}")
    total = float(j.sum())
    if abs(total - 1.0) > TOL:
        raise NotNormalized(f"joint probabilities sum to {total!r}, not 1")
    j = np.clip(j, 0.0, None) / total
    shannon = make_preset("shannon")
    hx, hy, hxy = (float(_entropies(shannon, p[None])[0])
                   for p in (j.sum(axis=1), j.sum(axis=0), j.reshape(-1)))
    return hx + hy - hxy


def accessible_info_estimate(e: Ensemble, m: Povm) -> float:
    """Mutual information of the source with the given measurement's outcome."""
    if e.dim != m.dim:
        raise DimensionMismatch(f"ensemble dim {e.dim} vs POVM dim {m.dim}")
    states = np.array([s.as_array() for s in e.states])
    probs = np.einsum("xab,kba->xk", states, np.asarray(m.effects, complex)).real
    return mutual_information(e.weights.as_array()[:, None] * np.maximum(probs, 0.0))
