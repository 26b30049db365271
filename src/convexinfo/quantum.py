"""Density operators, POVMs, quantum entropies and the Holevo bound.

The two equivalent entropy routes are kept separate on purpose: the
spectral route applies an entropic pair to the eigenvalues, while the
measurement route scores the Born statistics of the eigenbasis measurement,
which attains the minimum over rank-one POVMs for every Schur-concave pair.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .entropic import EntropicPair, _entropies, classical_entropy, make_preset
from .errors import (
    BadParameter,
    DimensionMismatch,
    InvalidDensityMatrix,
    InvalidPovm,
    InvalidProbVector,
    NotNormalized,
    TooLarge,
    _expect,
)
from .probvec import TOL, ProbVector, majorizes

#: Dense eigensolves only; desk-scale dimension cap.
MAX_DIM = 16
#: Cap on the budget of a measurement-minimum search. The search scores only
#: the eigenbasis, so the cap bounds no work; it stays part of the contract.
MAX_SEARCH_BUDGET = 100_000


def _as_complex_matrix(entries, error=InvalidDensityMatrix) -> np.ndarray:
    """A fresh C-ordered complex copy: the caller's array never aliases it."""
    try:
        m = np.array(entries, complex, order="C")
    except (TypeError, ValueError):  # ragged rows or non-numeric entries
        raise error("expected a square matrix of numbers") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise error(f"expected a square matrix, got shape {m.shape}")
    if not m.size:
        raise error("expected a matrix with at least one entry")
    return m


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _ArrayValue:
    """Value identity of a frozen type that holds read-only arrays, read from
    the attributes that ``_args`` names, its constructor's arguments in order.

    Two values are equal when their arguments are (``np.array_equal``), and
    equal values hash alike: adding 0.0 turns every -0.0 into 0.0. A copy or
    an unpickled value goes back through the constructor, so it is checked
    and frozen afresh.
    """

    _args: tuple[str, ...]

    def _arg_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._args)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, self._arg_values(), other._arg_values()))

    def __hash__(self):
        return hash(tuple((v.shape, (v + 0.0).tobytes()) if isinstance(v, np.ndarray) else v
                          for v in self._arg_values()))

    def __reduce__(self):
        return self.__class__, self._arg_values()


@dataclass(frozen=True, eq=False)
class DensityMatrix(_ArrayValue):
    """A positive semidefinite, unit-trace complex matrix (N <= 16).

    ``entries`` is the validated matrix itself, a read-only complex (N, N)
    array copied from the input, so later changes to the caller's array do
    not reach it; ``as_array`` hands out a writable copy. The ascending
    eigenvalues that the positivity check computes are kept, read-only, and
    ``eigen_spectrum`` reads them with no second eigensolve. Equality and
    hashing go by value (``_ArrayValue``).
    """

    entries: np.ndarray
    _eigenvalues: np.ndarray = field(repr=False)
    _args = ("entries",)

    def __init__(self, entries):
        m = _as_complex_matrix(entries)
        n = m.shape[0]
        if n > MAX_DIM:
            raise TooLarge(f"dimension {n} exceeds the cap {MAX_DIM}")
        if not np.isfinite(m).all():  # a complex entry is finite when both parts are
            raise InvalidDensityMatrix("entries must be finite")
        if abs(m - m.conj().T).max() > TOL:
            raise InvalidDensityMatrix("matrix is not Hermitian within tolerance")
        trace = float(m.trace().real)
        if abs(trace - 1.0) > TOL:
            raise InvalidDensityMatrix(f"trace is {trace!r}, not 1")
        evals = np.linalg.eigvalsh(m)
        lo = float(evals[0])
        if lo < -TOL:
            raise InvalidDensityMatrix(f"negative eigenvalue {lo!r} beyond tolerance")
        object.__setattr__(self, "entries", _frozen(m))
        object.__setattr__(self, "_eigenvalues", _frozen(evals))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return self.entries.copy()

    def to_json(self) -> list:
        return [[[z.real, z.imag] for z in row] for row in self.entries]


def _checked_effects(stack: np.ndarray, eigensolve: bool) -> np.ndarray | None:
    """Check a complex (k, N, N) stack of effects as a ``Povm`` holds them,
    and freeze it; with ``eigensolve``, return the effects' ascending
    eigenvalues.

    The entries are finite; then, effect by effect in order, each is
    Hermitian within ``TOL`` and, with ``eigensolve``, has no eigenvalue
    below -``TOL``; then the effects sum to the identity within ``TOL``.
    Each check asks that its bound holds, so a NaN fails it.
    """
    if not np.isfinite(stack).all():
        raise InvalidPovm("entries must be finite")
    hermitian = abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= TOL
    failed, evals = ~hermitian, None
    if eigensolve:
        evals = np.linalg.eigvalsh(stack)
        failed |= ~(evals[:, 0] >= -TOL)
    if failed.any():
        first = int(np.argmax(failed))  # effects are checked in order
        if not hermitian[first]:
            raise InvalidPovm("effect is not Hermitian within tolerance")
        raise InvalidPovm(f"effect has negative eigenvalue {float(evals[first, 0])!r}")
    if not abs(stack.sum(axis=0) - np.eye(stack.shape[1])).max() <= TOL:
        raise InvalidPovm("effects do not sum to the identity")
    _frozen(stack)
    return evals


@dataclass(frozen=True, eq=False)
class Povm(_ArrayValue):
    """A finite POVM: PSD effects summing to the identity.

    ``effects`` is the validated stack itself, a read-only complex (k, N, N)
    array. Equality and hashing go by value, ``rank_one`` included
    (``_ArrayValue``). Every
    POVM built from effects, a copy or an unpickled one included, is checked
    in full, eigensolve included; only the min-search's eigenbasis witness
    (``_eigenbasis``) skips the eigensolve, which cannot fail on it.
    """

    effects: np.ndarray
    rank_one: bool
    _args = ("effects", "rank_one")

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
        evals = _checked_effects(stack, eigensolve=True)
        detected_rank_one = n == 1 or not (evals[:, -2] > 1e-7).any()
        if rank_one is None:
            rank_one = detected_rank_one
        elif rank_one and not detected_rank_one:
            raise InvalidPovm("rank_one flag set but an effect has rank > 1")
        object.__setattr__(self, "effects", stack)
        object.__setattr__(self, "rank_one", bool(rank_one))

    @classmethod
    def _eigenbasis(cls, rows: np.ndarray) -> Povm:
        """The rank-one POVM {|r_i><r_i|} of the orthonormal bras ``rows``,
        the min-search's witness.

        It runs every check of ``__init__`` but the eigensolve: the entries
        are finite, each effect is Hermitian, and the effects sum to the
        identity within ``TOL``. The eigensolve decides that no eigenvalue
        lies below -``TOL`` and that no effect has a second eigenvalue above
        1e-7, and neither can fail here: a rounded outer product r r† lies
        within about N eps ||r||^2 of r r†, whose eigenvalues are ||r||^2
        and N - 1 zeros (Weyl's bound), and the sum check bounds ||r||^2,
        the effect's trace, by N (1 + TOL).
        """
        effects = np.einsum("ia,ib->iab", rows.conj(), rows)
        _checked_effects(effects, eigensolve=False)
        povm = object.__new__(cls)
        object.__setattr__(povm, "effects", effects)
        object.__setattr__(povm, "rank_one", True)
        return povm

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def __len__(self) -> int:
        return len(self.effects)


@dataclass(frozen=True)
class Ensemble:
    """Classical source emitting quantum states: weights plus same-dim states."""

    weights: ProbVector
    states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        if not isinstance(self.weights, ProbVector):
            raise InvalidProbVector(
                f"weights must be a ProbVector, got {type(self.weights).__name__}")
        try:
            states = tuple(self.states)
        except TypeError:  # states is not iterable
            raise InvalidDensityMatrix("ensemble states must be a sequence of DensityMatrix, "
                                       f"got {type(self.states).__name__}") from None
        for s in states:
            if not isinstance(s, DensityMatrix):
                raise InvalidDensityMatrix(
                    f"ensemble states must be DensityMatrix, got {type(s).__name__}")
        object.__setattr__(self, "states", states)
        if len(self.weights) != len(self.states):
            raise DimensionMismatch("one weight per state required")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise DimensionMismatch("ensemble states must share one dimension")

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def average_state(self) -> DensityMatrix:
        mix = sum(w * s.entries for w, s in zip(self.weights.components, self.states))
        return DensityMatrix(mix)


def born_probabilities(rho: DensityMatrix, m: Povm) -> ProbVector:
    """Outcome distribution Tr(rho E_i) of measuring m on rho."""
    _expect(rho, DensityMatrix, InvalidDensityMatrix)
    _expect(m, Povm, InvalidPovm)
    if rho.dim != m.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs POVM dim {m.dim}")
    return ProbVector(np.einsum("ab,kba->k", rho.entries, m.effects).real)


def eigen_spectrum(rho: DensityMatrix) -> ProbVector:
    """Eigenvalues sorted decreasing, clamped at 0 and renormalized; read from
    the ones the state's positivity check computed, with no eigensolve."""
    _expect(rho, DensityMatrix, InvalidDensityMatrix)
    clamped = np.maximum(rho._eigenvalues[::-1], 0.0)  # ProbVector turns a -0.0 into 0.0
    return ProbVector((clamped / clamped.sum()).tolist())


def quantum_entropy(pair: EntropicPair, rho: DensityMatrix) -> float:
    """h(Tr phi(rho)): the pair's entropy of the eigenvalue distribution."""
    return classical_entropy(pair, eigen_spectrum(rho))


def quantum_entropy_min_search(pair: EntropicPair, rho: DensityMatrix,
                               budget: int = 1000, seed: int = 0) -> tuple[float, Povm]:
    """Minimize the pair's entropy of Born statistics over rank-one POVMs.

    Returns the eigenbasis measurement, largest eigenvalue first, and its
    value, the pair's entropy of the spectrum. It attains the minimum: the
    Born statistics of any rank-one POVM are majorized by the spectrum (a
    Naimark dilation makes the POVM projective, and by Schur-Horn a diagonal
    is majorized by the eigenvalues), and a pair in either regime (phi
    concave and h increasing, or phi convex and h decreasing) is
    Schur-concave, so no measurement scores less.

    The measurement gets every check a ``Povm`` makes (finite, Hermitian
    effects that sum to the identity within ``TOL``) but the eigensolve of
    its effects, which could not fail: by Weyl's bound each rounded outer
    product of a row has eigenvalues within about N eps of ||r||^2 and 0,
    far inside ``TOL`` and the rank-one test's 1e-7 (``Povm._eigenbasis``).

    A grid pair (``pair_from_grid_descriptor``) is in its regime only if its
    interpolated phi and h are, and construction checks them only at
    ``_GRID_POINTS`` samples within ``_GRID_TOL``. So its knots may bend
    against the regime unseen, for example a convex knot of slope rise up to
    about 1e-4 in a concave phi, and near such a knot a measurement can
    score below the value returned here (by up to half the rise times the
    eigenvalue gap across the knot); the search does not look for one.

    ``budget`` and ``seed`` are still validated (an integer budget from 1 to
    ``MAX_SEARCH_BUDGET``, a seed that ``np.random.default_rng`` takes) but
    steer nothing.
    """
    _expect(rho, DensityMatrix, InvalidDensityMatrix)
    try:
        budget = operator.index(budget)
    except TypeError:
        raise BadParameter(f"budget must be an integer, got {budget!r}") from None
    if budget < 1:
        raise DimensionMismatch("budget must be >= 1")
    if budget > MAX_SEARCH_BUDGET:
        raise TooLarge(f"budget {budget} exceeds the cap {MAX_SEARCH_BUDGET}")
    rho_arr = rho.entries
    # default_rng takes these as they are and hands any other seed to
    # SeedSequence, which checks it without building a generator
    if not isinstance(seed, (np.random.Generator, np.random.BitGenerator, np.random.RandomState,
                             np.random.bit_generator.ISeedSequence)):
        try:
            np.random.SeedSequence(seed)
        except (TypeError, ValueError):
            raise BadParameter(f"seed must be a non-negative integer, got {seed!r}") from None

    _, vecs = np.linalg.eigh(rho_arr)
    rows = vecs.conj().T[::-1].copy()  # eigenbasis bras, largest eigenvalue first
    witness = Povm._eigenbasis(rows)
    probs = np.einsum("ia,ia->i", rows @ rho_arr, rows.conj()).real
    probs = np.maximum(probs, 0.0)  # a -0.0 counts as 0 in _entropies as well
    value = _entropies(pair, (probs / probs.sum())[None])[0]
    return float(value), witness


def quantum_majorizes(sigma: DensityMatrix, rho: DensityMatrix) -> bool:
    """True iff rho is majorized by sigma (eigenvalue majorization)."""
    _expect(sigma, DensityMatrix, InvalidDensityMatrix)
    _expect(rho, DensityMatrix, InvalidDensityMatrix)
    if sigma.dim != rho.dim:
        raise DimensionMismatch("states must share one dimension")
    return majorizes(eigen_spectrum(sigma), eigen_spectrum(rho))


def holevo_chi(e: Ensemble) -> float:
    """S(sum p_x rho_x) - sum p_x S(rho_x) with the Shannon preset."""
    _expect(e, Ensemble, InvalidDensityMatrix)
    # one row per spectrum: _entropies scores each row as quantum_entropy scores it alone
    spectra = [eigen_spectrum(s).components for s in (e.average_state(), *e.states)]
    mixed, *each = _entropies(make_preset("shannon"), np.array(spectra)).tolist()
    return float(mixed - sum(w * h for w, h in zip(e.weights.components, each)))


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
    low = float(j.min())
    if low < -TOL:
        raise NotNormalized(f"negative joint probability {low!r}")
    total = float(j.sum())
    if abs(total - 1.0) > TOL:
        raise NotNormalized(f"joint probabilities sum to {total!r}, not 1")
    j = np.maximum(j, 0.0) / total
    shannon = make_preset("shannon")
    hx, hy, hxy = (float(_entropies(shannon, p[None])[0])
                   for p in (j.sum(axis=1), j.sum(axis=0), j.reshape(-1)))
    return hx + hy - hxy


def accessible_info_estimate(e: Ensemble, m: Povm) -> float:
    """Mutual information of the source with the given measurement's outcome."""
    _expect(e, Ensemble, InvalidDensityMatrix)
    _expect(m, Povm, InvalidPovm)
    if e.dim != m.dim:
        raise DimensionMismatch(f"ensemble dim {e.dim} vs POVM dim {m.dim}")
    states = np.array([s.entries for s in e.states])
    probs = np.einsum("xab,kba->xk", states, m.effects).real
    return mutual_information(e.weights.as_array()[:, None] * np.maximum(probs, 0.0))
