"""Internal geometry engine: dense LP solver and polytope membership.

The solver is a textbook two-phase simplex on a dense tableau with Bland's
anti-cycling rule. Instances here are tiny (tens of variables), so the
implementation favours determinism and verifiability over speed: every
reported optimum is re-checked against the original constraints before it
is returned, and a check failure raises instead of returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateModel,
    DimensionMismatch,
    InfeasibleDecomposition,
    LpNumericalError,
    TooLarge,
)

#: Feasibility and reported-value tolerance.
FEAS_TOL = 1e-8
#: Pivot threshold.
_EPS = 1e-9
_MAX_PIVOTS = 20000

RELATIONS = ("<=", "=", ">=")


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[float, ...]
    rel: str
    bound: float

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise DimensionMismatch(f"unknown relation {self.rel!r}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "bound", float(self.bound))


@dataclass(frozen=True)
class LinearProgram:
    """max (or min) c.x subject to rows (coeffs, rel, bound) and var bounds.

    ``objective=None`` means a pure feasibility problem. ``bounds`` is one
    (lo, hi) pair per variable with None for unbounded; the default is
    (0, None) for every variable.
    """

    n_vars: int
    objective: tuple[float, ...] | None
    constraints: tuple[Constraint, ...]
    bounds: tuple[tuple[float | None, float | None], ...] | None = None
    maximize: bool = True

    def __post_init__(self):
        if self.objective is not None:
            object.__setattr__(self, "objective", tuple(float(c) for c in self.objective))
            if len(self.objective) != self.n_vars:
                raise DimensionMismatch("objective length != n_vars")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for con in self.constraints:
            if len(con.coeffs) != self.n_vars:
                raise DimensionMismatch("constraint length != n_vars")
        if self.bounds is not None:
            bs = tuple((lo, hi) for lo, hi in self.bounds)
            if len(bs) != self.n_vars:
                raise DimensionMismatch("bounds length != n_vars")
            object.__setattr__(self, "bounds", bs)

    def with_objective(self, objective: Sequence[float], maximize: bool = True) -> "LinearProgram":
        return LinearProgram(self.n_vars, tuple(objective), self.constraints,
                             self.bounds, maximize)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: tuple[float, ...] | None
    value: float | None


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau, basis, costs, n_cols):
    """Minimize costs over the tableau in place; Bland's rule throughout.

    Returns "optimal" or "unbounded". ``n_cols`` restricts which columns may
    enter the basis (used to lock out artificial columns in phase 2).
    """
    m = tableau.shape[0]
    for _ in range(_MAX_PIVOTS):
        cb = costs[basis]
        reduced = costs[:n_cols] - cb @ tableau[:, :n_cols]
        entering = -1
        for j in range(n_cols):
            if reduced[j] < -_EPS:
                entering = j
                break
        if entering < 0:
            return "optimal"
        # ratio test; ties resolved by smallest basis index (Bland)
        best_ratio, leaving = None, -1
        for i in range(m):
            aij = tableau[i, entering]
            if aij > _EPS:
                ratio = tableau[i, -1] / aij
                if best_ratio is None or ratio < best_ratio - _EPS or (
                        abs(ratio - best_ratio) <= _EPS and basis[i] < basis[leaving]):
                    best_ratio, leaving = ratio, i
        if leaving < 0:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)
    raise LpNumericalError("simplex did not terminate within the pivot cap")


def lp_solve(lp: LinearProgram) -> LpResult:
    """Solve a small dense LP; statuses are optimal/infeasible/unbounded.

    Optimal points are verified against all constraints within ``FEAS_TOL``;
    a failed verification raises ``LpNumericalError``.
    """
    n = lp.n_vars
    c_orig = np.zeros(n) if lp.objective is None else np.asarray(lp.objective, float)
    bounds = lp.bounds if lp.bounds is not None else ((0.0, None),) * n

    # Substitute every variable by nonnegative ones: x = offset + sum(sign * y).
    offsets = np.zeros(n)
    col_map: list[list[tuple[int, float]]] = []  # per original var: (y index, sign)
    extra_rows: list[tuple[int, float]] = []     # (y index, upper bound) rows
    m_y = 0
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None:
            offsets[j] = lo
            col_map.append([(m_y, 1.0)])
            if hi is not None:
                if hi < lo - FEAS_TOL:
                    return LpResult("infeasible", None, None)
                extra_rows.append((m_y, hi - lo))
            m_y += 1
        elif hi is not None:
            offsets[j] = hi
            col_map.append([(m_y, -1.0)])
            m_y += 1
        else:
            col_map.append([(m_y, 1.0), (m_y + 1, -1.0)])
            m_y += 2

    rows, rels, rhs = [], [], []
    for con in lp.constraints:
        coeffs = np.asarray(con.coeffs, float)
        row = np.zeros(m_y)
        for j, pairs in enumerate(col_map):
            for yj, sign in pairs:
                row[yj] += sign * coeffs[j]
        rows.append(row)
        rels.append(con.rel)
        rhs.append(con.bound - float(coeffs @ offsets))
    for yj, ub in extra_rows:
        row = np.zeros(m_y)
        row[yj] = 1.0
        rows.append(row)
        rels.append("<=")
        rhs.append(ub)

    m = len(rows)
    n_slack = sum(1 for r in rels if r != "=")
    a = np.zeros((m, m_y + n_slack))
    b = np.array(rhs, float)
    s = m_y
    for i, (row, rel) in enumerate(zip(rows, rels)):
        a[i, :m_y] = row
        if rel == "<=":
            a[i, s] = 1.0
            s += 1
        elif rel == ">=":
            a[i, s] = -1.0
            s += 1
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: artificial basis.
    n_cols = m_y + n_slack
    tableau = np.hstack([a, np.eye(m), b.reshape(-1, 1)])
    basis = np.arange(n_cols, n_cols + m)
    costs1 = np.concatenate([np.zeros(n_cols), np.ones(m), [0.0]])
    status = _run_simplex(tableau, basis, costs1[:-1], n_cols + m)
    if status != "optimal":  # cannot happen: phase-1 objective is bounded
        raise LpNumericalError("phase 1 reported unbounded")
    if float(costs1[basis].astype(float) @ tableau[:, -1]) > FEAS_TOL:
        return LpResult("infeasible", None, None)

    # Drive remaining artificials out of the basis or drop redundant rows.
    keep = np.ones(tableau.shape[0], bool)
    for i in range(tableau.shape[0]):
        if basis[i] >= n_cols:
            pivot_col = -1
            for j in range(n_cols):
                if abs(tableau[i, j]) > _EPS:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, i, pivot_col)
            else:
                keep[i] = False
    tableau = tableau[keep]
    basis = basis[keep]
    tableau = np.hstack([tableau[:, :n_cols], tableau[:, -1:]])

    sense = -1.0 if lp.maximize else 1.0
    costs2 = np.zeros(n_cols)
    for j, pairs in enumerate(col_map):
        for yj, sign in pairs:
            costs2[yj] += sense * sign * c_orig[j]
    status = _run_simplex(tableau, basis, costs2, n_cols)
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    y = np.zeros(n_cols)
    y[basis] = tableau[:, -1]
    x = offsets.copy()
    for j, pairs in enumerate(col_map):
        for yj, sign in pairs:
            x[j] += sign * y[yj]

    _verify_point(lp, x, bounds)
    value = float(c_orig @ x)
    return LpResult("optimal", tuple(float(v) for v in x), value)


def _verify_point(lp: LinearProgram, x: np.ndarray, bounds) -> None:
    # every test is written as "holds", so a NaN anywhere fails it
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None and not x[j] >= lo - FEAS_TOL:
            raise LpNumericalError(f"solution violates lower bound on x[{j}]")
        if hi is not None and not x[j] <= hi + FEAS_TOL:
            raise LpNumericalError(f"solution violates upper bound on x[{j}]")
    for con in lp.constraints:
        lhs = float(np.asarray(con.coeffs) @ x)
        if con.rel == "<=" and not lhs <= con.bound + FEAS_TOL:
            raise LpNumericalError("solution violates a <= constraint")
        if con.rel == ">=" and not lhs >= con.bound - FEAS_TOL:
            raise LpNumericalError("solution violates a >= constraint")
        if con.rel == "=" and not abs(lhs - con.bound) <= FEAS_TOL:
            raise LpNumericalError("solution violates an equality constraint")


# -- polytopes ----------------------------------------------------------------

#: Caps keep every LP desk-scale; sized to admit joint embeddings of two
#: factors with up to 8 vertices each.
MAX_VERTICES = 64
MAX_DIM = 64
_DUPLICATE_TOL = 1e-9


@dataclass(frozen=True)
class Polytope:
    """Convex hull of an explicit vertex list (no redundancy elimination)."""

    vertices: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        verts = tuple(tuple(float(c) for c in v) for v in self.vertices)
        if not verts:
            raise DegenerateModel("a polytope needs at least one vertex")
        if len(verts) > MAX_VERTICES:
            raise TooLarge(f"{len(verts)} vertices exceeds the cap {MAX_VERTICES}")
        dim = len(verts[0])
        if dim > MAX_DIM:
            raise TooLarge(f"dimension {dim} exceeds the cap {MAX_DIM}")
        arr = np.asarray(verts, float)
        if arr.ndim != 2 or any(len(v) != dim for v in verts):
            raise DegenerateModel("vertices must share one dimension")
        if not np.all(np.isfinite(arr)):
            raise DegenerateModel("vertices must be finite")
        for i in range(len(verts) - 1):
            close = np.flatnonzero(np.linalg.norm(arr[i + 1:] - arr[i], axis=1) <= _DUPLICATE_TOL)
            if close.size:
                raise DegenerateModel(f"vertices {i} and {i + 1 + close[0]} coincide")
        object.__setattr__(self, "vertices", verts)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vertices, float)


def decomposition_program(vertices: np.ndarray, point: np.ndarray) -> LinearProgram:
    """Feasibility LP for convex weights w >= 0, sum w = 1, sum w_i v_i = point."""
    v = np.asarray(vertices, float)
    p = np.asarray(point, float)
    if v.shape[1] != p.shape[0]:
        raise DimensionMismatch(f"point dim {p.shape[0]} vs vertex dim {v.shape[1]}")
    cons = [Constraint(tuple(np.ones(v.shape[0])), "=", 1.0)]
    for k in range(v.shape[1]):
        cons.append(Constraint(tuple(v[:, k]), "=", float(p[k])))
    return LinearProgram(n_vars=v.shape[0], objective=None, constraints=tuple(cons))


def convex_weights(point, poly: Polytope) -> np.ndarray | None:
    """Convex weights over the vertices reproducing the point, or None."""
    result = lp_solve(decomposition_program(poly.as_array(), np.asarray(point, float)))
    if result.status != "optimal":
        return None
    return np.asarray(result.point, float)


def membership(point, poly: Polytope) -> bool:
    """LP-feasibility test: is the point in the convex hull of the vertices?"""
    return convex_weights(point, poly) is not None


def topk_weight_max(skeleton: LinearProgram, subset: Iterable[int]) -> float:
    """Maximum of sum_{i in S} w_i over a decomposition polytope.

    ``skeleton`` is an objective-free decomposition LP (one variable per
    vertex); raises ``InfeasibleDecomposition`` when the underlying state is
    not in the hull at all.
    """
    s = sorted(set(int(i) for i in subset))
    if not s:
        raise InfeasibleDecomposition("subset must be nonempty")
    if s[0] < 0 or s[-1] >= skeleton.n_vars:
        raise DimensionMismatch(f"subset {s} out of range for {skeleton.n_vars} weights")
    objective = np.zeros(skeleton.n_vars)
    objective[s] = 1.0
    result = lp_solve(skeleton.with_objective(tuple(objective), maximize=True))
    if result.status != "optimal":
        raise InfeasibleDecomposition("state has no convex decomposition")
    return float(result.value)
