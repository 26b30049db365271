"""Polytopic convex state spaces: models, states, effects and frames.

States live in an ambient space whose last coordinate is a homogeneous 1;
the unit functional u_C simply reads that coordinate. Effects are linear
functionals on the ambient space constrained to [0, 1] on every vertex
(hence, by convexity, on every state). A frame is a maximal set of
perfectly distinguishable vertices, each set decided by one facet-cone LP,
together with a checked measurement that resolves the unit functional and
witnesses it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .convex_kernel import FEAS_TOL, Polytope, _solve, _solved
from .errors import (
    DegenerateModel,
    DimensionMismatch,
    IncompleteFrame,
    InvalidEffect,
    LpNumericalError,
    NotAState,
    ValidationError,
    _expect,
)
from .probvec import TOL, ProbVector

#: Cap on the number of pure states of a single model.
MAX_MODEL_VERTICES = 16
#: Singular values below this fraction of the constraint matrix's largest
#: count as zero when its rank is taken (relative, so it holds at any scale).
_RANK_RTOL = 1e-10
#: Bases whose |det| over the product of their column norms (1 for orthogonal
#: columns; unit-norm rows make it independent of the coordinates' scale)
#: falls below this are numerically singular.
_REGULAR_TOL = 1e-12
#: Most negative basic-solution weight still counted as a zero weight (not
#: the kernel's ``FEAS_TOL``, which bounds LP rows).
_NEGATIVE_WEIGHT_TOL = 1e-9
#: Largest coordinate error of a vertex's reconstruction of the state.
_RECON_TOL = 1e-8
#: A vertex where a facet's effect (1 at its farthest vertex) is within this of
#: 0 lies on the facet, and vertices whose unit-norm rows have a singular value
#: below it are dependent: neither depends on the coordinates' scale.
_FACET_TOL = 1e-9

KIND_SIMPLEX = "simplex"
KIND_POLYGON = "regular_polygon"
KIND_CUSTOM = "custom_polytope"


def _combinations(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n), one per row, in ``itertools.combinations`` order."""
    return np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), k)),
                       int, math.comb(n, k) * k).reshape(-1, k)


@dataclass(frozen=True)
class StateSpace:
    """A compact convex model given by its pure states (polytope vertices).

    ``vertices`` is a V x d array whose last column is identically 1. The
    model's frames, facets and the bases of its decomposition polytope are
    built on first use and kept with it. The bases decide states, spectra and
    a classical pair's conditional states; the facets decide which frames
    span and whether a joint state's marginal is a state.
    """

    kind: str
    vertices: tuple[tuple[float, ...], ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def vertex_array(self) -> np.ndarray:
        return np.asarray(self.vertices, float)

    def __getstate__(self):
        # a copy or an unpickled model builds its bases, facets and frames afresh
        return {"kind": self.kind, "vertices": self.vertices}

    def unit(self) -> np.ndarray:
        """The normalization functional u_C (reads the homogeneous 1)."""
        u = np.zeros(self.dim)
        u[-1] = 1.0
        return u

    def polytope(self) -> Polytope:
        return Polytope(self.vertices)

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "vertices": [list(v[:-1]) for v in self.vertices]}

    @functools.cached_property
    def _verts(self) -> np.ndarray:
        """``vertex_array()``, built once and read-only."""
        verts = self.vertex_array()
        verts.flags.writeable = False
        return verts

    @functools.cached_property
    def _vertex_states(self) -> tuple[GptState, ...]:
        """The pure state of each vertex, built once."""
        return tuple(GptState(point=v) for v in self.vertices)

    @functools.cached_property
    def _spectrum_bases(self) -> tuple[np.ndarray, ...]:
        """The state-independent part of the decomposition polytope's vertices.

        The polytope is {w >= 0 : a w = (state, 1)}; only the right-hand side
        depends on the state. Returns ``(a, rows, scale, bases, sub)``: the
        constraints, the first rows that span their row space (so a simplex
        keeps its identity rows and solves exactly) and those rows' norms,
        the regular bases in ``itertools.combinations`` order, and each
        basis's square submatrix of the kept rows scaled to unit norm. Built
        once, read-only.
        """
        verts = self._verts
        # rows: the coordinates (the last one the unit functional), then sum w = 1
        a = np.vstack([verts.T, np.ones(len(verts))])
        # the rank of every prefix of the rows, each zero-padded to all of them,
        # from one batched SVD; the last prefix is a, whose largest singular
        # value sets the cut
        prefixes = np.where(np.tri(len(a), dtype=bool)[:, :, None], a, 0.0)
        singular = np.linalg.svd(prefixes, compute_uv=False)
        prefix_ranks = (singular > _RANK_RTOL * singular[-1, 0]).sum(axis=1)
        rows = np.flatnonzero(np.diff(prefix_ranks, prepend=0))
        scale = np.linalg.norm(a[rows], axis=1)
        a_r = a[rows] / scale[:, None]
        bases = _combinations(a.shape[1], len(rows))
        sub = np.transpose(a_r[:, bases], (1, 0, 2))
        ratio = np.abs(np.linalg.det(sub)) / np.prod(np.linalg.norm(sub, axis=1), axis=1)
        arrays = (a, rows, scale, bases[ratio > _REGULAR_TOL], sub[ratio > _REGULAR_TOL])
        for array in arrays:
            array.flags.writeable = False
        return arrays

    def _basic_solutions(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every regular basis solved for each right-hand side (s, d + 1) in one solve.

        A right-hand side is a point of the cone over the model, then its weight
        sum (a state, then 1). Returns ``(which, w)``: one row of ``w`` per basic
        solution that is feasible (weights >= -``_NEGATIVE_WEIGHT_TOL``, then
        clipped at 0) and reproduces its right-hand side within ``_RECON_TOL``,
        zero off its basis, and the index of its right-hand side in ``which``.
        Rows come one right-hand side after another, each one's in
        ``itertools.combinations`` order of the bases.
        """
        a, rows, scale, bases, sub = self._spectrum_bases
        # (r, s) right-hand sides broadcast against the (n_bases, r, r) stack
        x = np.linalg.solve(sub, (b[:, rows] / scale).T)
        which, basis = (x.min(axis=1) >= -_NEGATIVE_WEIGHT_TOL).T.nonzero()
        w = np.zeros((len(which), a.shape[1]))
        w[np.arange(len(w))[:, None], bases[basis]] = np.maximum(x[basis, :, which], 0.0)
        reproduces = np.abs(w @ a.T - b[which]).max(axis=1) <= _RECON_TOL
        return which[reproduces], w[reproduces]

    @functools.cached_property
    def _decompositions(self):
        """All regular bases solved for a point at once, by its bytes; the last 4 (``majorize``
        asks for two) kept read-only, so a state's membership and spectrum share one solve."""

        @functools.lru_cache(maxsize=4)
        def vertices(key: bytes) -> np.ndarray:
            _, w = self._basic_solutions(np.concatenate((np.frombuffer(key), (1.0,)))[None])
            w.flags.writeable = False
            return w

        return vertices

    @functools.cached_property
    def _facets(self) -> tuple[np.ndarray, np.ndarray]:
        """Per facet an effect, 0 on it and 1 at its farthest vertex, and its vertex mask: an
        independent (r - 1)-subset of the vertices in the r rows ``_spectrum_bases`` keeps whose
        normal (one batched SVD) leaves them all on one side spans one. Built once, read-only."""
        a, rows, scale, _, _ = self._spectrum_bases
        points = (a[rows] / scale[:, None]).T
        subsets = _combinations(len(points), len(rows) - 1)
        _, singular, vt = np.linalg.svd(points[subsets])
        values = vt[:, -1] @ points.T
        peak = np.take_along_axis(values, np.abs(values).argmax(axis=1)[:, None], axis=1)
        values /= peak
        keep = (singular[:, -1] > _FACET_TOL) & (values.min(axis=1) >= -_FACET_TOL)
        bits = (values[keep] <= _FACET_TOL) @ (1 << np.arange(len(points)))
        masks, first = np.unique(bits, return_index=True)
        effects = np.zeros((len(masks), self.dim))
        effects[:, rows] = (vt[:, -1] / peak)[keep][first] / scale
        effects.flags.writeable = masks.flags.writeable = False
        return effects, masks

    @functools.cached_property
    def _frames(self) -> tuple[Frame, ...]:
        # read only through enumerate_frames, which hands out copies
        v = self.n_vertices
        verts = self._verts
        # each passing set maps to the facet cone's point, a vertex alone to
        # the unit effect
        witnesses: dict[tuple[int, ...], list[GptEffect] | np.ndarray] = {
            (i,): [unit_effect(self)] for i in range(v)}
        tested: set[tuple[int, ...]] = set()
        jumped: list[int] = []  # masks of maximal cliques that passed whole

        def test(combos) -> list[bool]:
            # the sets of each size are decided in one stack
            tested.update(combos)
            for size in sorted(set(map(len, combos))):
                sets = [combo for combo in combos if len(combo) == size]
                for combo, found in zip(sets, _screen(self, verts[np.array(sets)])):
                    if found is not None:
                        witnesses[combo] = found
            return [combo in witnesses for combo in combos]

        def known(combo) -> bool:
            return combo in witnesses or any(_mask(combo) & ~k == 0 for k in jumped)

        test(list(itertools.combinations(range(v), 2)))
        # a distinguishable set is a clique of the distinguishable pairs
        cliques = _maximal_cliques(v, [c for c in witnesses if len(c) == 2])
        for size in range(3, v + 1):
            found = test(sorted({
                combo for clique in cliques if _mask(clique) not in jumped
                for combo in itertools.combinations(clique, size)
                if combo not in tested and not known(combo)
                and all(known(combo[:i] + combo[i + 1:]) for i in range(size))}))
            # a clique whose every size-subset passed is tested whole once; if
            # it passes it is maximal, and none of its subsets is tested again
            whole = [clique for clique in cliques if len(clique) > size and clique not in tested
                     and all(map(known, itertools.combinations(clique, size)))]
            jumped += [_mask(clique) for clique, passed in zip(whole, test(whole)) if passed]
            if not any(found) and all(k.bit_count() <= size for k in jumped):
                break

        masks = sorted(map(_mask, witnesses), key=int.bit_count, reverse=True)
        maximal = [combo for combo in sorted(witnesses)
                   if not any(_mask(combo) & ~other == 0 and _mask(combo) != other
                              for other in masks)]
        # the spans of all maximal sets from the model's facets, then the
        # witnesses of the kept frames, one stack per size: least squares,
        # else the witness LP, else the facet cone's checked point
        kept = [combo for combo, spans in zip(maximal, _spans_model(self, maximal)) if spans]
        effects = {combo: witnesses[combo] for combo in kept}
        for size in sorted({len(combo) for combo in kept} - {1}):
            sets = [combo for combo in kept if len(combo) == size]
            points = verts[np.array(sets)]
            guesses = _least_squares_effects(self, points)
            missing = [i for i, guess in enumerate(guesses) if guess is None]
            for i, found_effects in zip(missing, _distinguishing_effects(
                    self, points[missing]) if missing else []):
                guesses[i] = found_effects or _checked_screen_witness(
                    self, points[i], witnesses[sets[i]])
            effects.update(zip(sets, guesses))
        return tuple(Frame(vertex_indices=combo,
                           states=tuple(vertex_state(self, i) for i in combo),
                           effects=tuple(effects[combo])) for combo in kept)

    @functools.cached_property
    def _extreme_effects(self) -> np.ndarray:
        """The unit and frame effects, one per row, frames in ``_frames`` order: the effects
        whose pairs ``max_tensor_member`` tests. Built once, read-only."""
        effects = np.asarray([self.unit(), *(e.coeffs for f in self._frames for e in f.effects)],
                             float)
        effects.flags.writeable = False
        return effects


@dataclass(frozen=True)
class GptState:
    """A state of some model: a point with homogeneous coordinate 1."""

    point: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.point, float)

    def coords(self) -> tuple[float, ...]:
        """Coordinates without the homogeneous 1 (the serialized form)."""
        return self.point[:-1]


@dataclass(frozen=True)
class GptEffect:
    """An affine functional with values in [0, 1] on every state."""

    coeffs: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, float)


@dataclass(frozen=True)
class Frame:
    """Maximal perfectly distinguishable vertices plus a witnessing measurement."""

    vertex_indices: tuple[int, ...]
    states: tuple[GptState, ...]
    effects: tuple[GptEffect, ...]

    def __len__(self) -> int:
        return len(self.vertex_indices)


def build_model(kind: str, n: int | None = None, vertices=None) -> StateSpace:
    """Construct a simplex(n), regular_polygon(n) or custom_polytope model."""
    if kind in (KIND_SIMPLEX, KIND_POLYGON):
        # checked before anything of size n is built
        try:
            n = operator.index(n)
        except TypeError:
            raise DegenerateModel(f"{kind} needs an integer n, got {n!r}") from None
        if not 2 <= n <= MAX_MODEL_VERTICES:
            raise DegenerateModel(f"{kind} needs 2 <= n <= {MAX_MODEL_VERTICES}, got {n}")
    if kind == KIND_SIMPLEX:
        raw = np.hstack([np.eye(n), np.ones((n, 1))])
    elif kind == KIND_POLYGON:
        angles = [2.0 * math.pi * k / n for k in range(n)]
        raw = np.array([[math.cos(a), math.sin(a), 1.0] for a in angles])
    elif kind == KIND_CUSTOM:
        try:
            base = np.asarray([] if vertices is None else vertices, float)
        except (TypeError, ValueError):
            raise DegenerateModel("custom vertices must be rows of numbers") from None
        if base.size == 0:
            raise DegenerateModel("custom polytope needs explicit vertices")
        if base.ndim != 2:
            raise DegenerateModel("vertices must form a 2-d array")
        raw = np.hstack([base, np.ones((base.shape[0], 1))])
    else:
        raise DegenerateModel(f"unknown model kind {kind!r}")

    if raw.shape[0] > MAX_MODEL_VERTICES:
        raise DegenerateModel(f"{raw.shape[0]} vertices exceeds the cap {MAX_MODEL_VERTICES}")
    poly = Polytope(raw)  # finite, pairwise distinct vertices
    if kind == KIND_CUSTOM:
        # the affine hull of the given points must fill their coordinate space
        diffs = raw[1:, :-1] - raw[0, :-1]
        if raw.shape[0] == 1 or np.linalg.matrix_rank(diffs, tol=1e-9) < raw.shape[1] - 1:
            raise DegenerateModel("custom vertices must affinely span their space")
    return StateSpace(kind=kind, vertices=poly.vertices)


def make_state(space: StateSpace, coords) -> GptState:
    """Build a state from coordinates (homogeneous 1 appended here).

    Raises ``NotAState`` when the point is not finite or no model basis decomposes
    it (``_decomposition_vertices``; the spectrum reuses the vertices found).
    """
    _expect(space, StateSpace, DimensionMismatch)
    try:
        c = np.asarray(coords, float)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"expected {space.dim - 1} coordinates, got a ragged or "
                                "non-numeric sequence") from None
    if c.shape != (space.dim - 1,):
        raise DimensionMismatch(f"expected {space.dim - 1} coordinates, got {c.shape}")
    if not np.isfinite(c).all():
        raise NotAState(f"point {c.tolist()} is not finite")
    state = GptState(point=(*c.tolist(), 1.0))
    _decomposition_vertices(space, state)
    return state


def _decomposition_vertices(space: StateSpace, state: GptState) -> np.ndarray:
    """Vertices of P = {w >= 0 : sum_i w_i v_i = state}, one per row: the membership test.

    Rows come in ``itertools.combinations`` order of the model's regular bases, a
    degenerate vertex once per basis that reaches it; ``NotAState`` if there is none."""
    _expect(space, StateSpace, DimensionMismatch)
    point = _expect(state, GptState, DimensionMismatch).as_array()
    if point.shape != (space.dim,):
        raise DimensionMismatch(f"state dim {point.shape[0]} vs model dim {space.dim}")
    w = space._decompositions(point.tobytes())
    if not len(w):
        raise NotAState(f"point {list(state.coords())} is outside the model")
    return w


def vertex_state(space: StateSpace, index: int) -> GptState:
    """The pure state of vertex ``index``; ``DimensionMismatch`` unless it is an
    integer with 0 <= index < ``space.n_vertices``."""
    _expect(space, StateSpace, DimensionMismatch)
    try:
        i = operator.index(index)
    except TypeError:
        raise DimensionMismatch(f"a vertex index must be an integer, got {index!r}") from None
    if not 0 <= i < space.n_vertices:
        raise DimensionMismatch(f"vertex index {i} is out of range for {space.n_vertices} "
                                "vertices")
    return space._vertex_states[i]


def mix_state(space: StateSpace, weights) -> GptState:
    """Convex mixture of the model's vertices, one weight per vertex.

    The weights must already be a probability vector (``ProbVector``): they
    are rescaled only within ``TOL`` of summing to 1, and weights that sum
    to anything else raise ``InvalidProbVector``."""
    _expect(space, StateSpace, DimensionMismatch)
    w = ProbVector(weights)
    if len(w) != space.n_vertices:
        raise DimensionMismatch("one weight per vertex required")
    point = w.as_array() @ space.vertex_array()
    return GptState(point=tuple(float(x) for x in point))


def make_effect(space: StateSpace, coeffs) -> GptEffect:
    """Validate affine-functional coefficients against all vertices."""
    _expect(space, StateSpace, DimensionMismatch)
    try:
        e = np.asarray(coeffs, float)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"expected {space.dim} coefficients, got a ragged or "
                                "non-numeric sequence") from None
    if e.shape != (space.dim,):
        raise DimensionMismatch(f"expected {space.dim} coefficients, got {e.shape}")
    values = space.vertex_array() @ e
    # written as "holds", so that a NaN coefficient fails it
    if not (np.min(values) >= -TOL and np.max(values) <= 1.0 + TOL):
        raise InvalidEffect("effect leaves [0, 1] on a vertex")
    return GptEffect(coeffs=tuple(float(x) for x in e))


def unit_effect(space: StateSpace) -> GptEffect:
    return GptEffect(coeffs=tuple(_expect(space, StateSpace, DimensionMismatch).unit().tolist()))


def zero_effect(space: StateSpace) -> GptEffect:
    return GptEffect(coeffs=(0.0,) * _expect(space, StateSpace, DimensionMismatch).dim)


def evaluate(effect: GptEffect, state: GptState) -> float:
    """Outcome probability of the effect on the state, clamped to [0, 1]."""
    e = _expect(effect, GptEffect, DimensionMismatch).as_array()
    s = _expect(state, GptState, DimensionMismatch).as_array()
    if e.shape != s.shape:
        raise DimensionMismatch("effect and state dimensions differ")
    value = float(e @ s)
    if not -TOL <= value <= 1.0 + TOL:  # a NaN effect or state fails it
        raise InvalidEffect(f"evaluation {value!r} outside [0, 1]")
    return min(1.0, max(0.0, value))


def _block_diagonal(blocks: np.ndarray, count: int) -> np.ndarray:
    """``np.kron(np.eye(count), block)`` for a block (r, c) or each block of a stack."""
    *lead, r, c = blocks.shape
    return (np.eye(count)[:, None, :, None] * blocks[..., None, :, None, :]).reshape(
        *lead, count * r, count * c)


def _witness_equalities(space: StateSpace, points: np.ndarray):
    """Equality rows of the witness LP over one effect per point (k x d variables).

    Effect i is x[i*d:(i+1)*d]; the rows sum the effects to the unit
    functional, then ask effect i for 1 on point i and 0 on the others.
    ``points`` is one set (k, d) or a stack of them.
    """
    *lead, k, d = points.shape
    a_eq = np.concatenate([np.broadcast_to(np.tile(np.eye(d), k), (*lead, d, k * d)),
                           _block_diagonal(points, k)], axis=-2)
    b_eq = np.concatenate([space.unit(), np.eye(k).ravel()])
    return a_eq, b_eq


def _least_squares_effects(space: StateSpace, points: np.ndarray) -> list[list[GptEffect] | None]:
    """The minimum-norm solution of the witness equalities, if it is a witness.

    It is the symmetric, canonical witness on well-behaved models, and the
    first one tried for a kept frame; it decides no set. None when it
    leaves [0, 1] on some vertex or misses the equalities. ``points`` is
    a stack of point sets (s, k, d), and the answer a list of one per set:
    ``np.linalg.lstsq`` solves each set alone, the checks run on the stack.
    """
    a_eq, b_eq = _witness_equalities(space, points)
    x = np.array([np.linalg.lstsq(a, b_eq, rcond=None)[0] for a in a_eq])
    effects = x.reshape(points.shape)
    values = effects @ space._verts.T
    good = ((np.abs(np.matmul(a_eq, x[..., None])[..., 0] - b_eq).max(axis=1) <= 1e-9)
            & (values.min(axis=(1, 2)) >= -TOL) & (values.max(axis=(1, 2)) <= 1.0 + TOL))
    return [[GptEffect(coeffs=tuple(e)) for e in set_effects.tolist()] if ok else None
            for set_effects, ok in zip(effects, good.tolist())]


def _distinguishing_effects(space: StateSpace,
                            points: np.ndarray) -> list[list[GptEffect] | None]:
    """Witness LP for perfect distinguishability: the effects, or None if it finds none or fails.

    Variables are the stacked coefficients of one effect per point, free;
    each effect must stay in [0, 1] on every vertex (0 <= cells @ x <= 1)
    and meet the witness equalities. Frame enumeration runs it only for kept
    frames whose least-squares witness failed; the verdict itself comes from
    ``_screen``. A stack of point sets (s, k, d) is solved in one kernel call
    and gives one answer per set.
    """
    s, k, d = points.shape
    cells = _block_diagonal(space._verts, k)
    a_eq, b_eq = _witness_equalities(space, points)
    # a >= 0 and a <= 1 row per cell, then the equality rows
    m, n = cells.shape
    a = np.concatenate([np.broadcast_to(np.repeat(cells, 2, axis=0), (s, 2 * m, n)), a_eq], axis=1)
    results = _solve(np.zeros(n), a,
                     np.concatenate([np.tile([-1.0, 1.0], m), np.zeros(len(b_eq))]),
                     np.concatenate([np.tile([0.0, 1.0], m), b_eq]),
                     np.full(n, -np.inf), np.full(n, np.inf))
    return [None if isinstance(r, LpNumericalError) or r.status != "optimal" else [
        GptEffect(coeffs=tuple(e)) for e in np.asarray(r.point, float).reshape(k, d).tolist()]
        for r in results]


def _screen(space: StateSpace, points: np.ndarray) -> list[np.ndarray | None]:
    """Perfect distinguishability, decided by the facet cone: k x d witness effects, or None.

    An effect 0 on every point but point i is a non-negative combination of
    the facet effects (``StateSpace._facets``) within ``_FACET_TOL`` of 0 there,
    F_i; so the points are distinguishable exactly when some x >= 0 sums the
    effects of F_1 ∪ … ∪ F_k to u. Its rows are their values on the vertices,
    summing to 1, which keep the effects' scale whatever the coordinates'. The
    witness, e_i = Σ_{f∈F_i} x_f e_f (a facet in several F_i goes to the
    first), is unchecked: ``_checked_screen_witness`` checks it where it is
    used. A stack of point sets (s, k, d) is one kernel call, one answer per set.
    """
    effects, _ = space._facets
    zero = np.abs(points @ effects.T) <= _FACET_TOL  # (s, k, facets)
    member = zero.sum(axis=1, keepdims=True) - zero == points.shape[1] - 1  # f in F_i
    first = member & (np.cumsum(member, axis=1) == 1)
    values = space._verts @ effects.T
    v, n = values.shape
    results = _solved(_solve(np.zeros(n), np.where(member.any(axis=1)[:, None], values, 0.0),
                             np.zeros(v), np.ones(v), np.zeros(n), np.full(n, np.inf)))
    return [None if r.status != "optimal" else (owned * np.asarray(r.point)) @ effects
            for r, owned in zip(results, first)]


def _checked_screen_witness(space: StateSpace, points: np.ndarray,
                            effects: np.ndarray) -> list[GptEffect]:
    """The facet cone's point as the witness of the set ``points``, checked first.

    Within ``FEAS_TOL``, on the vertices: every effect in [0, 1] and their
    values summing to 1; and effect i equal to 1 on point i and 0 on the
    others. Else ``LpNumericalError``.
    """
    values = effects @ space._verts.T
    if not (values.min() >= -FEAS_TOL and values.max() <= 1.0 + FEAS_TOL
            and np.abs(values.sum(axis=0) - 1.0).max() <= FEAS_TOL
            and np.abs(effects @ points.T - np.eye(len(points))).max() <= FEAS_TOL):
        raise LpNumericalError("the facet cone's point is no witness")
    return [GptEffect(coeffs=tuple(e)) for e in effects.tolist()]


def perfectly_distinguishable(space: StateSpace, states) -> bool:
    """Can one measurement answer which of the states was prepared, surely?

    Decided as frame enumeration decides it, by one facet-cone LP
    (``_screen``). ``DimensionMismatch`` unless ``states`` are ``GptState``s
    of the model's dimension; ``NotAState`` for a point that is not finite,
    whose homogeneous coordinate is not 1 or that a facet effect of the
    model reads below -``_FACET_TOL``.
    """
    _expect(space, StateSpace, DimensionMismatch)
    try:
        states = list(states)
        points = np.asarray([st.point for st in states if isinstance(st, GptState)], float)
    except (TypeError, ValueError):
        raise DimensionMismatch("expected an iterable of GptState of numbers") from None
    if len(states) < 2:
        raise ValidationError("need at least 2 states to distinguish")
    if len(points) != len(states) or points.shape[1:] != (space.dim,):
        raise DimensionMismatch(f"expected GptStates of the model's dimension {space.dim}")
    if not np.isfinite(points).all():
        raise NotAState("a state's point is not finite")
    if (np.abs(points[:, -1] - 1.0) > TOL).any():
        raise NotAState("a state's homogeneous coordinate is not 1")
    if (points @ space._facets[0].T).min() < -_FACET_TOL:
        raise NotAState("a state lies outside the model")
    return _screen(space, points[None])[0] is not None


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


def _maximal_cliques(n: int, edges) -> list[tuple[int, ...]]:
    """Maximal cliques of a graph on n nodes (Bron-Kerbosch with pivoting).

    Node sets are int bit masks inside; the cliques come back as sorted
    index tuples in lexicographic order.
    """
    adjacent = [0] * n
    for i, j in edges:
        adjacent[i] |= 1 << j
        adjacent[j] |= 1 << i
    cliques = []

    def expand(clique: int, candidates: int, excluded: int) -> None:
        if not candidates | excluded:
            cliques.append(tuple(i for i in range(n) if clique >> i & 1))
            return
        pivot = max((i for i in range(n) if (candidates | excluded) >> i & 1),
                    key=lambda i: (candidates & adjacent[i]).bit_count())
        for i in range(n):
            if (candidates & ~adjacent[pivot]) >> i & 1:
                expand(clique | 1 << i, candidates & adjacent[i], excluded & adjacent[i])
                candidates &= ~(1 << i)
                excluded |= 1 << i

    expand(0, (1 << n) - 1, 0)
    return sorted(cliques)


def _spans_model(space: StateSpace, indices) -> list[bool]:
    """Is the smallest face containing each set of vertices the whole polytope? It is unless
    one of the model's facets (``StateSpace._facets``) holds them all; one answer per set."""
    _, facets = space._facets
    return [not (_mask(combo) & ~facets == 0).any() for combo in indices]

def enumerate_frames(space: StateSpace) -> list[Frame]:
    """Maximal perfectly distinguishable vertex sets spanning the model.

    A frame stands in for an orthogonal resolution of the top lattice
    element, so besides mutual distinguishability its vertices must not sit
    inside a proper face, and every proper face lies in a facet of the model.
    Frames come in lexicographic order of their vertex indices, which fixes
    the tie order downstream consumers rely on.

    Distinguishability is inherited by subsets, so sets are tested level by
    level and a set only once all its one-smaller subsets passed. The
    facet-cone LP (``_screen``) decides every set, one stack per size.
    What witnesses a kept frame is its least-squares witness, else the k x d
    witness LP, else the facet cone's checked point, one stack per size; a
    one-vertex frame keeps the unit effect. Whether a maximal set spans the
    model is read from the model's facets, built once (``_spans_model``);
    no LP decides it.
    Clique rule: a distinguishable set is a clique of the graph of
    distinguishable pairs, so after a level s >= 3 every maximal clique
    whose s-subsets all passed is tested whole, once. If it passes it is a
    maximal distinguishable set and none of its subsets is tested again.

    The enumeration runs once per model; every call returns a fresh list of
    the kept frames.
    """
    return list(_expect(space, StateSpace, DimensionMismatch)._frames)


def _frame_distributions(point: np.ndarray, frames) -> np.ndarray:
    """Outcome distributions of the frames' measurements on a state, one row per frame.

    Rows of frames with fewer effects are padded with zero effects, whose
    outcomes have probability exactly 0.
    """
    if any(len(e.coeffs) != point.shape[0] for f in frames for e in f.effects):
        raise DimensionMismatch("frame and state dimensions differ")
    effects = np.zeros((len(frames), max(len(f.effects) for f in frames), point.shape[0]))
    for row, frame in zip(effects, frames):
        row[:len(frame.effects)] = [e.coeffs for e in frame.effects]
    values = np.vecdot(effects, point)  # one dot product per effect, as np.dot
    totals = values.sum(axis=1)
    incomplete = np.abs(totals - 1.0) > TOL
    if incomplete.any():
        total = float(totals[incomplete.argmax()])
        raise IncompleteFrame(f"frame effects resolve the state to {total!r}, not 1")
    return np.maximum(values, 0.0) / totals[:, None]


def restrict_to_frame(state: GptState, frame: Frame) -> ProbVector:
    """Kolmogorovian restriction of a state to a frame's measurement, its witness effects.

    The facet cone decided the frame; its witness is the least-squares one if
    that is valid, else the k x d witness LP's vertex, else the facet cone's
    checked point, and a one-vertex frame's is the unit effect. A frame's
    witness is not unique in general. ``DimensionMismatch`` unless ``state``
    is a ``GptState`` and ``frame`` a ``Frame``."""
    point = _expect(state, GptState, DimensionMismatch).as_array()
    return ProbVector(_frame_distributions(point, [_expect(frame, Frame, DimensionMismatch)])[0])


# -- JSON model/state files ---------------------------------------------------

def model_from_json(doc: dict) -> StateSpace:
    if not isinstance(doc, dict):
        raise ValidationError("a model document must be a JSON object")
    kind = doc.get("kind")
    field = {KIND_SIMPLEX: "n", KIND_POLYGON: "n", KIND_CUSTOM: "vertices"}.get(
        kind if isinstance(kind, str) else None)
    if field is None:
        raise DegenerateModel(f"unknown model kind {kind!r}")
    if field not in doc:
        raise ValidationError(f"a {kind} model document needs {field!r}")
    return build_model(kind, **{field: doc[field]})


def load_model(path: str) -> StateSpace:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
