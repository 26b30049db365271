"""Polytopic convex state spaces: models, states, effects and frames.

States live in an ambient space whose last coordinate is a homogeneous 1;
the unit functional u_C simply reads that coordinate. Effects are linear
functionals on the ambient space constrained to [0, 1] on every vertex
(hence, by convexity, on every state). A frame is a maximal set of
perfectly distinguishable vertices together with an LP-witnessed
measurement resolving the unit functional.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .convex_kernel import (
    Constraint,
    LinearProgram,
    Polytope,
    decomposition_program,
    lp_solve,
)
from .errors import (
    DegenerateModel,
    DimensionMismatch,
    IncompleteFrame,
    InvalidEffect,
    NotAState,
    ValidationError,
)
from .probvec import TOL, ProbVector

#: Cap on the number of pure states of a single model.
MAX_MODEL_VERTICES = 16

KIND_SIMPLEX = "simplex"
KIND_POLYGON = "regular_polygon"
KIND_CUSTOM = "custom_polytope"


@dataclass(frozen=True)
class StateSpace:
    """A compact convex model given by its pure states (polytope vertices).

    ``vertices`` is a V x d array whose last column is identically 1. The
    model's frames are enumerated on first use and kept with it.
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
    def _frames(self) -> tuple[Frame, ...]:
        # read only through enumerate_frames, which hands out copies
        v = self.n_vertices
        distinguishable: set[frozenset[int]] = {frozenset([i]) for i in range(v)}
        witnesses: dict[tuple[int, ...], list[GptEffect]] = {
            (i,): [unit_effect(self)] for i in range(v)}
        for size in range(2, v + 1):
            found = False
            for combo in itertools.combinations(range(v), size):
                if any(frozenset(combo[:i] + combo[i + 1:]) not in distinguishable
                       for i in range(size)):
                    continue
                effects = _distinguishing_effects(
                    self, [vertex_state(self, i) for i in combo])
                if effects is not None:
                    distinguishable.add(frozenset(combo))
                    witnesses[combo] = effects
                    found = True
            if not found:
                break

        frames = []
        for combo in sorted(witnesses):
            s = frozenset(combo)
            if any(s < other for other in distinguishable):
                continue
            if not _spans_model(self, combo):
                continue
            frames.append(Frame(
                vertex_indices=combo,
                states=tuple(vertex_state(self, i) for i in combo),
                effects=tuple(witnesses[combo]),
            ))
        return tuple(frames)


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

    Raises ``NotAState`` when the point is not finite or outside the model
    polytope.
    """
    c = np.asarray(coords, float)
    if c.shape != (space.dim - 1,):
        raise DimensionMismatch(f"expected {space.dim - 1} coordinates, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise NotAState(f"point {c.tolist()} is not finite")
    point = np.concatenate([c, [1.0]])
    if lp_solve(decomposition_program(space.vertex_array(), point)).status != "optimal":
        raise NotAState(f"point {c.tolist()} is outside the model")
    return GptState(point=tuple(float(x) for x in point))


def vertex_state(space: StateSpace, index: int) -> GptState:
    return GptState(point=space.vertices[index])


def mix_state(space: StateSpace, weights) -> GptState:
    """Convex mixture of the model's vertices (weights normalized here)."""
    w = ProbVector(weights)
    if len(w) != space.n_vertices:
        raise DimensionMismatch("one weight per vertex required")
    point = w.as_array() @ space.vertex_array()
    return GptState(point=tuple(float(x) for x in point))


def make_effect(space: StateSpace, coeffs) -> GptEffect:
    """Validate affine-functional coefficients against all vertices."""
    e = np.asarray(coeffs, float)
    if e.shape != (space.dim,):
        raise DimensionMismatch(f"expected {space.dim} coefficients, got {e.shape}")
    values = space.vertex_array() @ e
    if np.min(values) < -TOL or np.max(values) > 1.0 + TOL:
        raise InvalidEffect("effect leaves [0, 1] on a vertex")
    return GptEffect(coeffs=tuple(float(x) for x in e))


def unit_effect(space: StateSpace) -> GptEffect:
    return GptEffect(coeffs=tuple(space.unit()))


def zero_effect(space: StateSpace) -> GptEffect:
    return GptEffect(coeffs=(0.0,) * space.dim)


def evaluate(effect: GptEffect, state: GptState) -> float:
    """Outcome probability of the effect on the state, clamped to [0, 1]."""
    e = effect.as_array()
    s = state.as_array()
    if e.shape != s.shape:
        raise DimensionMismatch("effect and state dimensions differ")
    value = float(e @ s)
    if value < -TOL or value > 1.0 + TOL:
        raise InvalidEffect(f"evaluation {value!r} outside [0, 1]")
    return min(1.0, max(0.0, value))


def _distinguishing_effects(space: StateSpace, states) -> list[GptEffect] | None:
    """Witness for perfect distinguishability, or None if there is none.

    Variables are the stacked coefficients of one effect per state; each
    effect must stay in [0, 1] on every vertex, the effects must sum to the
    unit functional, and effect i must answer 1 on state i and 0 on the rest.
    The minimum-norm solution of the equality part is tried first (it is the
    symmetric, canonical witness on well-behaved models); the LP only decides
    when that solution leaves [0, 1] somewhere.
    """
    k = len(states)
    d = space.dim
    verts = space.vertex_array()
    # effect i is x[i*d:(i+1)*d]; the rows sum the effects to the unit, then
    # ask effect i for 1 on state i and 0 on the others
    a_eq = np.vstack([np.tile(np.eye(d), k),
                      np.kron(np.eye(k), [st.point for st in states])])
    b_eq = np.concatenate([space.unit(), np.eye(k).ravel()])

    x, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
    if np.max(np.abs(a_eq @ x - b_eq)) <= 1e-9:
        values = x.reshape(k, d) @ verts.T
        if np.min(values) >= -TOL and np.max(values) <= 1.0 + TOL:
            return [GptEffect(coeffs=tuple(e)) for e in x.reshape(k, d)]

    # every effect within [0, 1] on every vertex: a >= 0 and a <= 1 row each
    cells = np.repeat(np.kron(np.eye(k), verts), 2, axis=0)
    cons = [Constraint(tuple(row), rel, bound) for row, (rel, bound)
            in zip(cells, itertools.cycle(((">=", 0.0), ("<=", 1.0))))]
    cons += [Constraint(tuple(row), "=", rhs) for row, rhs in zip(a_eq, b_eq)]
    lp = LinearProgram(n_vars=k * d, objective=None, constraints=tuple(cons),
                       bounds=((None, None),) * (k * d))
    result = lp_solve(lp)
    if result.status != "optimal":
        return None
    return [GptEffect(coeffs=tuple(e)) for e in np.asarray(result.point, float).reshape(k, d)]


def perfectly_distinguishable(space: StateSpace, states) -> bool:
    """Can one measurement answer which of the states was prepared, surely?"""
    states = list(states)
    if len(states) < 2:
        raise ValidationError("need at least 2 states to distinguish")
    return _distinguishing_effects(space, states) is not None


def _spans_model(space: StateSpace, indices) -> bool:
    """Is the smallest face containing these vertices the whole polytope?

    Equivalent test: the barycenter of the vertices lies in the relative
    interior of the state polytope, i.e. it admits a decomposition with
    strictly positive weight on every vertex (checked by maximizing the
    minimum weight).
    """
    verts = space.vertex_array()
    bary = verts[list(indices)].mean(axis=0)
    v = space.n_vertices
    # variables: the weights w, then t = min w (w_i - t >= 0), maximized
    cons = [Constraint(tuple(row), "=", float(c))
            for row, c in zip(np.hstack([verts.T, np.zeros((space.dim, 1))]), bary)]
    cons += [Constraint(tuple(row), ">=", 0.0)
             for row in np.hstack([np.eye(v), -np.ones((v, 1))])]
    lp = LinearProgram(n_vars=v + 1, objective=(0.0,) * v + (1.0,),
                       constraints=tuple(cons),
                       bounds=((0.0, None),) * v + ((None, None),))
    result = lp_solve(lp)
    return result.status == "optimal" and result.value > 1e-9


def enumerate_frames(space: StateSpace) -> list[Frame]:
    """Maximal perfectly distinguishable vertex sets spanning the model.

    A frame stands in for an orthogonal resolution of the top lattice
    element, so besides mutual distinguishability its vertices must not sit
    inside a proper face (their barycenter must be relatively interior).
    Subsets are explored in lexicographic index order, which fixes the tie
    order downstream consumers rely on; distinguishability is inherited by
    subsets, so a subset is only tested when all its one-smaller subsets
    already passed. The enumeration runs once per model; every call returns a
    fresh list of the kept frames.
    """
    return list(space._frames)


def restrict_to_frame(state: GptState, frame: Frame) -> ProbVector:
    """Kolmogorovian restriction of a state to a frame's measurement."""
    values = []
    for e in frame.effects:
        c = e.as_array()
        s = state.as_array()
        if c.shape != s.shape:
            raise DimensionMismatch("frame and state dimensions differ")
        values.append(float(c @ s))
    total = sum(values)
    if abs(total - 1.0) > TOL:
        raise IncompleteFrame(f"frame effects resolve the state to {total!r}, not 1")
    return ProbVector([max(0.0, v) / total for v in values])


# -- JSON model/state files ---------------------------------------------------

def model_from_json(doc: dict) -> StateSpace:
    if not isinstance(doc, dict):
        raise ValidationError("a model document must be a JSON object")
    kind = doc.get("kind")
    field = {KIND_SIMPLEX: "n", KIND_POLYGON: "n", KIND_CUSTOM: "vertices"}.get(kind)
    if field is None:
        raise DegenerateModel(f"unknown model kind {kind!r}")
    if field not in doc:
        raise ValidationError(f"a {kind} model document needs {field!r}")
    return build_model(kind, **{field: doc[field]})


def load_model(path: str) -> StateSpace:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
