"""Bipartite state spaces: product states, min/max tensor sets, separability.

A joint state is a coefficient tensor W on the bilinear embedding of the two
factor spaces; evaluating it against factor effects e, f gives e.T W f. The
minimal tensor set is the convex hull of vertex products.

When a factor is classical (a simplex: its vertices are linearly
independent) the minimal and maximal tensor sets of the pair coincide, and
a joint state is separable exactly when each of its conditional states, one
per classical outcome, lies in the cone of the other factor's states. Each
conditional state is then tested as ``make_state`` tests a state, through
the other factor's regular bases, and no LP is solved; pairs without a
classical factor make one cone test over every vertex product
(``convex_kernel._cone_weights``), on the conditioned rows and Gram matrix
of the products that the pair builds once (``ProductSpace._cone``), and
solve no LP either. A pair keeps its last few decisions by the table's bytes
(``ProductSpace._separability``), so a table's witness, max-tensor test and
verdict decide it once.

Max-tensor membership of a pair with a classical factor is that same test.
Otherwise it is one test over fixed pairs of effects, each of which must give
the joint state a probability. The pairs of the factors' frame and unit
effects (``StateSpace._extreme_effects``, one read-only array per factor,
built once) are, for the models built here, the operative effect set (for
squares it is the convention that makes the standard no-signaling box a
member). Each factor's facet effects (``StateSpace._facets``), paired with
the other factor's unit effect, make both marginals states of their factors,
which the frame effects alone do not ensure: on the square they bound
|x|, |y| <= 1 around the model's |x| + |y| <= 1. No basis is solved, and
the zero effect, whose pairs are exact zeros, is left out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .convex_kernel import (
    FEAS_TOL,
    Polytope,
    _Cone,
    _conditioned,
    _cone_weights,
    _decomposition_rows,
)
from .errors import (
    DimensionMismatch,
    LpNumericalError,
    NotNormalized,
    TooLarge,
    UnsupportedModel,
    _expect,
)
from .gpt_models import (
    GptEffect,
    GptState,
    KIND_POLYGON,
    KIND_SIMPLEX,
    StateSpace,
    enumerate_frames,
)
from .probvec import TOL
from .quantum import _ArrayValue

#: Factor-size cap for explicit vertex products.
MAX_FACTOR_VERTICES = 8


@dataclass(frozen=True)
class ProductSpace:
    factor_a: StateSpace
    factor_b: StateSpace

    def __post_init__(self):
        _expect(self.factor_a, StateSpace, DimensionMismatch)
        _expect(self.factor_b, StateSpace, DimensionMismatch)

    def __getstate__(self):
        # a copy or an unpickled pair builds its tables and decisions afresh
        return {"factor_a": self.factor_a, "factor_b": self.factor_b}

    @property
    def joint_shape(self) -> tuple[int, int]:
        return (self.factor_a.dim, self.factor_b.dim)

    def _check_cap(self) -> None:
        va, vb = self.factor_a.n_vertices, self.factor_b.n_vertices
        if va > MAX_FACTOR_VERTICES or vb > MAX_FACTOR_VERTICES:
            raise TooLarge(f"factors with {va} x {vb} vertices exceed the cap "
                           f"{MAX_FACTOR_VERTICES} per side")

    @functools.cached_property
    def _min_tensor(self) -> Polytope:
        """All products of factor vertices as one polytope, built and checked once."""
        self._check_cap()
        va, vb = self.factor_a.n_vertices, self.factor_b.n_vertices
        products = np.einsum("ai,bj->abij", self.factor_a.vertex_array(),
                             self.factor_b.vertex_array())
        return Polytope(products.reshape(va * vb, -1))

    @functools.cached_property
    def _products(self) -> np.ndarray:
        """The vertices of ``_min_tensor``, one flattened product per row, read-only."""
        products = self._min_tensor.as_array()
        products.flags.writeable = False
        return products

    @functools.cached_property
    def _cone(self) -> _Cone:
        """The decomposition rows over ``_products`` as the cone test works
        on them, Gram matrix included; built once, read-only."""
        return _conditioned(_decomposition_rows(self._products, self._products[0])[0])

    @functools.cached_property
    def _classical(self) -> tuple | None:
        """How a classical factor splits a table into its conditional states, or None.

        A factor is classical when its n x d vertex array V, homogeneous
        coordinate included, has linearly independent rows: every simplex,
        and custom points that are affinely independent. A table T (the
        classical factor's side first) is then V.T @ M for the n x d' matrix
        M of its conditional states, and the first n coordinates that span
        V.T (the rows that ``_spectrum_bases`` keeps) give M = S^-1 T[rows]
        with S = V.T[rows]; for a simplex they are its unit coordinates, so M
        is T's own first n rows. Returns ``(side, rows, s, spread, other)``:
        0 for factor A or 1 for B (the first classical factor: a classical
        partner has one regular basis), the rows, S, V.T and the other
        factor. Built once; the arrays are read-only.
        """
        self._check_cap()
        factors = (self.factor_a, self.factor_b)
        for side, space in enumerate(factors):
            a, rows, *_ = space._spectrum_bases
            if len(rows) == space.n_vertices:
                s = a[rows]
                s.flags.writeable = False  # the other arrays are views of read-only ones
                return side, rows, s, space._verts.T, factors[1 - side]
        return None

    @functools.cached_property
    def _separability(self):
        """The weights of ``separable_witness`` for a table, by its bytes: an
        (n_A, n_B) array, or None outside the minimal tensor set. The last 4
        are kept read-only, so that a table's witness, max-tensor test and
        verdict share one decision; an exception is not kept."""

        @functools.lru_cache(maxsize=4)
        def weights(key: bytes) -> np.ndarray | None:
            classical = self._classical
            if classical is None:
                w = _cone_weights(self._cone, np.concatenate(((1.0,), np.frombuffer(key))))
                w = None if w is None else w.reshape(self.factor_a.n_vertices, -1)
            else:
                w = _conditional_weights(classical,
                                         np.frombuffer(key).reshape(self.joint_shape))
            if w is not None:
                w.flags.writeable = False
            return w

        return weights


@dataclass(frozen=True, eq=False)
class JointState(_ArrayValue):
    """Coefficient tensor over the joint embedding; table[-1, -1] is u_AB.

    ``table`` is the validated tensor itself, a read-only float (d_A, d_B)
    array copied from the input; ``as_array`` hands out a writable copy.
    Equality and hashing go by value (``_ArrayValue``).
    """

    table: np.ndarray
    _args = ("table",)

    def __init__(self, table):
        try:
            t = np.array(table, float, order="C")
        except (TypeError, ValueError):
            raise DimensionMismatch("joint table must be a 2-d array of numbers") from None
        if t.ndim != 2:
            raise DimensionMismatch("joint table must be a 2-d array")
        if not t.size:
            raise DimensionMismatch("joint table is empty")
        if not np.all(np.isfinite(t)):
            raise NotNormalized("joint table must be finite")
        if abs(t[-1, -1] - 1.0) > TOL:
            raise NotNormalized(f"u_AB evaluates to {float(t[-1, -1])!r}, not 1")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def as_array(self) -> np.ndarray:
        return self.table.copy()

    def evaluate(self, e: GptEffect, f: GptEffect) -> float:
        return float(e.as_array() @ self.table @ f.as_array())


def product_state(nu_a: GptState, nu_b: GptState) -> JointState:
    """The factorizing joint state nu_a (x) nu_b."""
    return JointState(np.outer(_expect(nu_a, GptState, DimensionMismatch).as_array(),
                               _expect(nu_b, GptState, DimensionMismatch).as_array()))


def min_tensor_vertices(ps: ProductSpace) -> Polytope:
    """All products of factor vertices, flattened into one polytope."""
    return _expect(ps, ProductSpace, DimensionMismatch)._min_tensor


def _joint_table(ps: ProductSpace, omega: JointState) -> np.ndarray:
    """The state's read-only table, which must have the pair's joint shape;
    ``DimensionMismatch`` naming ``ProductSpace`` or ``JointState`` unless
    ``ps`` and ``omega`` are one."""
    _expect(ps, ProductSpace, DimensionMismatch)
    table = _expect(omega, JointState, DimensionMismatch).table
    if table.shape != ps.joint_shape:
        raise DimensionMismatch(f"table shape {table.shape} vs {ps.joint_shape}")
    return table


def _conditional_weights(classical: tuple, table: np.ndarray) -> np.ndarray | None:
    """The weights of ``separable_witness`` on a pair with a classical factor,
    or None; ``classical`` is ``ProductSpace._classical``.

    Each conditional state M_a of the table must be V'.T w_a with w_a >= 0,
    V' the other factor's vertices, so w_a sums to M_a's homogeneous
    coordinate, outcome a's probability p_a (0 at the apex): w_a is the first
    basic solution of (M_a, p_a) over the other factor's regular bases
    (``StateSpace._basic_solutions``), all outcomes in one solve. None
    certifies that some M_a has none or that the table leaves the classical
    factor's span (T != V.T @ M) by more than ``FEAS_TOL``; weights that do
    not reconstruct the table within ``FEAS_TOL`` raise ``LpNumericalError``.
    """
    side, rows, s, spread, other = classical
    if side:  # B is classical: its side first
        table = table.T
    # a vast table overflows to inf or NaN here, which the span check rejects,
    # and one near the largest float overflows in the basis solve
    with np.errstate(over="ignore", invalid="ignore"):
        conditionals = np.linalg.solve(s, table[rows])
        if not (np.abs(spread @ conditionals - table) <= FEAS_TOL).all():
            return None
        which, solutions = other._basic_solutions(
            np.hstack([conditionals, conditionals[:, -1:]]))
        # which is sorted: each conditional state's first solution starts a run
        first = np.flatnonzero(np.concatenate((which[:1] >= 0, which[1:] != which[:-1])))
        if len(first) < len(conditionals):
            return None
        weights = solutions[first]
        if not (np.abs(spread @ weights @ other._verts - table) <= FEAS_TOL).all():
            raise LpNumericalError("the conditional states' weights do not reconstruct the table")
    return weights.T if side else weights


def separable_witness(ps: ProductSpace, omega: JointState):
    """Convex weights over vertex products reconstructing omega, or None.

    Weights are indexed by (a_index, b_index) pairs in row-major order, and
    only weights above ``TOL`` are listed. With a classical factor the
    weights are its conditional states' basic solutions over the other
    factor's bases (``_conditional_weights``); otherwise they are the
    checked non-negative least-squares weights of one cone test over all
    vertex products (``_cone_weights``), and a vertex product gets weight
    exactly 1. No LP is solved either way, and None comes with a
    certificate: a checked Farkas ray, a conditional state with no basic
    solution, or a table outside the classical factor's span. The pair keeps
    the decision (``ProductSpace._separability``); each call gets a new list.
    """
    weights = _separable_weights(ps, omega)
    if weights is None:
        return None
    rows, cols = (weights > TOL).nonzero()
    return [((a, b), w) for a, b, w in zip(rows.tolist(), cols.tolist(),
                                           weights[rows, cols].tolist())]


def _separable_weights(ps: ProductSpace, omega: JointState) -> np.ndarray | None:
    """The pair's decision on the state's table (``ProductSpace._separability``)."""
    key = _joint_table(ps, omega).tobytes()  # a wrong-typed pair is named first
    return ps._separability(key)


def is_separable(ps: ProductSpace, omega: JointState) -> bool:
    """Membership of the joint state in the minimal tensor set."""
    return _separable_weights(ps, omega) is not None


def max_tensor_member(ps: ProductSpace, omega: JointState) -> bool:
    """Does omega assign sane probabilities to all product measurements?

    With a classical factor the maximal tensor set is the minimal one: this
    is ``is_separable``. Otherwise checks omega(E, E') in [0, 1] over the
    factors' frame effects plus the unit effect, and that every facet effect
    of a factor is >= 0 on its marginal, ``table[:, -1]`` for A and
    ``table[-1]`` for B (the facet x unit pairs): a marginal is a state of its
    factor exactly when no facet effect is negative on it. Every bound allows
    ``TOL``, and a rejected table fails at least one pair. Normalization
    omega(u_A, u_B) = 1 is part of the JointState invariant. A factor over
    ``MAX_FACTOR_VERTICES`` raises ``TooLarge`` either way.
    """
    table = _joint_table(ps, omega)
    if ps._classical is not None:
        return is_separable(ps, omega)
    values = ps.factor_a._extreme_effects @ table @ ps.factor_b._extreme_effects.T
    if not (values.min() >= -TOL and values.max() <= 1.0 + TOL):
        return False
    return bool((ps.factor_a._facets[0] @ table[:, -1]).min() >= -TOL
                and (ps.factor_b._facets[0] @ table[-1]).min() >= -TOL)


def classify_joint(ps: ProductSpace, omega: JointState) -> str:
    """Three-way verdict: separable / entangled / not-a-state.

    'entangled' means outside the minimal tensor set but consistent with the
    maximal one; anything violating max-tensor positivity is 'not-a-state'.
    With a classical factor the two sets coincide (``max_tensor_member`` is
    ``is_separable``), and the pair's one decision answers both.
    """
    if not max_tensor_member(ps, omega):
        return "not-a-state"
    return "separable" if is_separable(ps, omega) else "entangled"


def pr_box(ps: ProductSpace) -> JointState:
    """The maximally nonlocal no-signaling joint state on two square models.

    Both factors must carry exactly two frames of two outcomes each. The
    returned tensor gives uniform marginals for every frame choice and
    perfectly correlated outcomes except when both sides use their second
    frame, where outcomes anti-correlate.
    """
    _expect(ps, ProductSpace, DimensionMismatch)
    basis = []
    for space in (ps.factor_a, ps.factor_b):
        frames = enumerate_frames(space)
        if len(frames) != 2 or any(len(f) != 2 for f in frames):
            raise UnsupportedModel("no-signaling box needs two 2-outcome frames per factor")
        rows = [frames[0].effects[0].as_array(),
                frames[1].effects[0].as_array(),
                space.unit()]
        b = np.asarray(rows)
        if abs(np.linalg.det(b)) < 1e-12:
            raise UnsupportedModel("frame effects do not span the effect space")
        basis.append(b)

    # target values on basis pairs: first effects of frames x, y plus units
    m = np.array([[.5, .5, .5], [.5, 0, .5], [.5, .5, 1]])

    w = np.linalg.solve(basis[0], np.linalg.solve(basis[1], m.T).T)
    return JointState(w)


def classical_collapse_check(space_a: StateSpace, space_b: StateSpace) -> bool:
    """Is every extreme joint state a product of factor vertices?

    For two simplexes the joint probability tables (positive, summing to 1)
    have the na * nb point masses as their extreme points; each one's
    coefficient tensor must equal a product of factor vertices. That branch
    holds by construction: a simplex's gauge basis is the identity, so each
    extended point mass is the product of its two vertices, and it returns
    True for every simplex pair under the cap. The square
    pair is certified false via the no-signaling box (max-tensor member
    outside the minimal set).
    """
    ps = ProductSpace(space_a, space_b)
    if space_a.kind == KIND_SIMPLEX and space_b.kind == KIND_SIMPLEX:
        na, nb = space_a.n_vertices, space_b.n_vertices
        if na * nb > 16:
            raise TooLarge(f"{na} x {nb} outcome cells exceed the cap 16")
        # canonical indicator effects (delta_i, 0) plus the unit functional
        # form an invertible coefficient basis pinning the tensor gauge
        basis_a = np.vstack([np.hstack([np.eye(na), np.zeros((na, 1))]), space_a.unit()])
        basis_b = np.vstack([np.hstack([np.eye(nb), np.zeros((nb, 1))]), space_b.unit()])
        # each point-mass table P extended to its full coefficient tensor
        # M = E_a P E_b.T (E = (I; 1 ... 1) appends its row and column sums and
        # its total 1), then every W with M = basis_a W basis_b.T in one solve
        ext_a, ext_b = np.vstack([np.eye(na), np.ones(na)]), np.vstack([np.eye(nb), np.ones(nb)])
        m = np.einsum("ai,kij,bj->kab", ext_a, np.eye(na * nb).reshape(-1, na, nb), ext_b)
        w = np.linalg.solve(np.kron(basis_a, basis_b), m.reshape(na * nb, -1).T).T
        # every W must be some product of factor vertices
        close = np.abs(w[:, None] - ps._products).max(axis=2) <= 1e-8
        return bool(close.any(axis=1).all())

    if (space_a.kind == KIND_POLYGON and space_a.n_vertices == 4
            and space_b.kind == KIND_POLYGON and space_b.n_vertices == 4):
        box = pr_box(ps)
        return not (max_tensor_member(ps, box) and not is_separable(ps, box))

    raise UnsupportedModel("collapse check covers simplex pairs and the square pair")

