"""Bipartite state spaces: product states, min/max tensor sets, separability.

A joint state is a coefficient tensor W on the bilinear embedding of the two
factor spaces; evaluating it against factor effects e, f gives e.T W f. The
minimal tensor set is the convex hull of vertex products.

When a factor is classical (a simplex: its vertices are linearly
independent) the minimal and maximal tensor sets of the pair coincide, and
a joint state is separable exactly when each of its conditional states, one
per classical outcome, lies in the cone of the other factor's states. The
separability test is then one small LP per outcome, all solved in one stack,
in place of the LP over every vertex product.

Max-tensor membership is checked against each factor's frame effects
together with the zero and unit effects; for the models built here that is
the operative effect set (for simplexes it is equivalent to checking every
effect, and for squares it is the convention that makes the standard
no-signaling box a member).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .convex_kernel import FEAS_TOL, Polytope, _decomposition_lp, _solve, _solved
from .errors import (
    DimensionMismatch,
    LpNumericalError,
    NotNormalized,
    TooLarge,
    UnsupportedModel,
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

#: Factor-size cap for explicit vertex products.
MAX_FACTOR_VERTICES = 8


@dataclass(frozen=True)
class ProductSpace:
    factor_a: StateSpace
    factor_b: StateSpace

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
        0 for factor A or 1 for B (the one with more vertices, and so the
        smaller LPs, when both are classical), the rows, S, V.T and the
        other factor's vertex array transposed. Built once, read-only.
        """
        self._check_cap()
        factors = (self.factor_a, self.factor_b)
        classical = [side for side, space in enumerate(factors)
                     if len(space._spectrum_bases[1]) == space.n_vertices]
        if not classical:
            return None
        side = max(classical, key=lambda i: factors[i].n_vertices)
        a, rows, *_ = factors[side]._spectrum_bases
        s = a[rows]
        s.flags.writeable = False  # the other arrays are views of read-only ones
        return side, rows, s, factors[side]._verts.T, factors[1 - side]._verts.T


@dataclass(frozen=True)
class JointState:
    """Coefficient tensor over the joint embedding; table[-1, -1] is u_AB."""

    table: tuple[tuple[float, ...], ...]

    def __init__(self, table):
        try:
            t = np.asarray(table, float)
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
        object.__setattr__(self, "table", tuple(tuple(float(x) for x in row) for row in t))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.table, float)

    def evaluate(self, e: GptEffect, f: GptEffect) -> float:
        return float(e.as_array() @ self.as_array() @ f.as_array())


def product_state(nu_a: GptState, nu_b: GptState) -> JointState:
    """The factorizing joint state nu_a (x) nu_b."""
    return JointState(np.outer(nu_a.as_array(), nu_b.as_array()))


def min_tensor_vertices(ps: ProductSpace) -> Polytope:
    """All products of factor vertices, flattened into one polytope."""
    return ps._min_tensor


def _joint_table(ps: ProductSpace, omega: JointState) -> np.ndarray:
    table = omega.as_array()
    if table.shape != ps.joint_shape:
        raise DimensionMismatch(f"table shape {table.shape} vs {ps.joint_shape}")
    return table


def _conditional_weights(classical: tuple, table: np.ndarray) -> np.ndarray | None:
    """The weights of ``separable_witness`` on a pair with a classical factor,
    or None; ``classical`` is ``ProductSpace._classical``.

    Each conditional state M_a of the table must be V'.T w_a with w_a >= 0,
    V' the other factor's vertices: one LP per outcome a, all entering the
    kernel in one stack, and the weights are the rows w_a. None certifies
    that an LP is infeasible or that the table leaves the classical factor's
    span (T != V.T @ M) by more than ``FEAS_TOL``; weights that do not
    reconstruct the table within ``FEAS_TOL`` raise ``LpNumericalError``.
    """
    side, rows, s, spread, other = classical
    if side:  # B is classical: its side first
        table = table.T
    # a vast table overflows to inf or NaN here, which the span check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        conditionals = np.linalg.solve(s, table[rows])
        inside = (np.abs(spread @ conditionals - table) <= FEAS_TOL).all()
    if not inside:
        return None
    zeros = np.zeros(other.shape[1])
    results = _solved(_solve(zeros, other, np.zeros(len(other)), conditionals, zeros,
                             np.full(len(zeros), np.inf)))
    if any(result.status != "optimal" for result in results):
        return None
    weights = np.array([result.point for result in results])
    if not (np.abs(spread @ weights @ other.T - table) <= FEAS_TOL).all():
        raise LpNumericalError("the conditional states' weights do not reconstruct the table")
    return weights.T if side else weights


def separable_witness(ps: ProductSpace, omega: JointState):
    """Convex weights over vertex products reconstructing omega, or None.

    Weights are indexed by (a_index, b_index) pairs in row-major order, and
    only weights above ``TOL`` are listed. With a classical factor the
    weights are those of its conditional states' LPs (``_conditional_weights``);
    otherwise they are the point of one decomposition LP over all vertex
    products. Either way None comes with a certificate: an infeasible LP, or
    a table outside the classical factor's span.
    """
    table, classical = _joint_table(ps, omega), ps._classical
    if classical is None:
        result = _decomposition_lp(ps._products, table.reshape(-1))
        if result.status != "optimal":
            return None
        weights = np.asarray(result.point, float).reshape(ps.factor_a.n_vertices, -1)
    else:
        weights = _conditional_weights(classical, table)
    if weights is None:
        return None
    rows, cols = (weights > TOL).nonzero()
    return [((a, b), float(weights[a, b])) for a, b in zip(rows.tolist(), cols.tolist())]


def is_separable(ps: ProductSpace, omega: JointState) -> bool:
    """Membership of the joint state in the minimal tensor set."""
    return separable_witness(ps, omega) is not None


def _extreme_effects(space: StateSpace) -> np.ndarray:
    """The zero, unit and frame effects of the model, one per row."""
    rows = [np.zeros(space.dim), space.unit()]
    rows += [e.as_array() for frame in enumerate_frames(space) for e in frame.effects]
    return np.asarray(rows)


def max_tensor_member(ps: ProductSpace, omega: JointState) -> bool:
    """Does omega assign sane probabilities to all product measurements?

    Checks omega(E, E') in [0, 1] over the factors' frame effects plus the
    zero and unit effects; normalization omega(u_A, u_B) = 1 is part of the
    JointState invariant.
    """
    table = _joint_table(ps, omega)
    values = _extreme_effects(ps.factor_a) @ table @ _extreme_effects(ps.factor_b).T
    return bool(values.min() >= -TOL and values.max() <= 1.0 + TOL)


def classify_joint(ps: ProductSpace, omega: JointState) -> str:
    """Three-way verdict: separable / entangled / not-a-state.

    'entangled' means outside the minimal tensor set but consistent with the
    maximal one; anything violating max-tensor positivity is 'not-a-state'.
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
    coefficient tensor must equal a product of factor vertices. The square
    pair is certified false via the no-signaling box (max-tensor member
    outside the minimal set).
    """
    if space_a.kind == KIND_SIMPLEX and space_b.kind == KIND_SIMPLEX:
        na, nb = space_a.n_vertices, space_b.n_vertices
        if na * nb > 16:
            raise TooLarge(f"{na} x {nb} outcome cells exceed the cap 16")
        ps = ProductSpace(space_a, space_b)
        # canonical indicator effects (delta_i, 0) plus the unit functional
        # form an invertible coefficient basis pinning the tensor gauge
        basis_a = np.vstack([np.hstack([np.eye(na), np.zeros((na, 1))]), space_a.unit()])
        basis_b = np.vstack([np.hstack([np.eye(nb), np.zeros((nb, 1))]), space_b.unit()])
        products = ps._products
        for table in np.eye(na * nb):
            p = table.reshape(na, nb)
            # extend the probability table to the full coefficient tensor
            m = np.zeros((na + 1, nb + 1))
            m[:na, :nb] = p
            m[na, :nb] = p.sum(axis=0)
            m[:na, nb] = p.sum(axis=1)
            m[na, nb] = 1.0
            w = np.linalg.solve(basis_a, np.linalg.solve(basis_b, m.T).T)
            if not np.any(np.max(np.abs(products - w.reshape(-1)), axis=1) <= 1e-8):
                return False
        return True

    if (space_a.kind == KIND_POLYGON and space_a.n_vertices == 4
            and space_b.kind == KIND_POLYGON and space_b.n_vertices == 4):
        ps = ProductSpace(space_a, space_b)
        box = pr_box(ps)
        return not (max_tensor_member(ps, box) and not is_separable(ps, box))

    raise UnsupportedModel("collapse check covers simplex pairs and the square pair")

