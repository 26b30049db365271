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
#: Coefficient of each relation's slack column.
_SLACK_SIGN = {"<=": 1.0, "=": 0.0, ">=": -1.0}


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
    pivot_row = tableau[row] / tableau[row, col]
    # one rank-1 update of the rows with a nonzero in the pivot column; the
    # others are left as they are, so no 0 * inf meets an infinite bound
    rows = tableau[:, col].nonzero()[0]
    tableau[rows] -= tableau[rows, col, None] * pivot_row
    tableau[row] = pivot_row
    basis[row] = col


def _run_simplex(tableau, basis, costs, n_cols):
    """Minimize costs over the tableau in place; Bland's rule throughout.

    Returns "optimal" or "unbounded". ``n_cols`` restricts which columns may
    enter the basis (used to lock out artificial columns in phase 2).
    """
    entering_costs = costs[:n_cols]
    body, rhs = tableau[:, :n_cols], tableau[:, -1]  # views: pivots update them
    for _ in range(_MAX_PIVOTS):
        improving = (entering_costs - costs[basis] @ body < -_EPS).nonzero()[0]
        if improving.size == 0:
            return "optimal"
        column = body[:, improving[0]]
        rows = (column > _EPS).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = rhs[rows] / column[rows]
        # ratios within _EPS of the minimum tie and go to the smallest basis
        # index (Bland); a NaN ratio, only possible from NaN data, ties them all
        ties = rows[~(ratios > ratios[ratios.argmin()] + _EPS)]
        _pivot(tableau, basis, ties[basis[ties].argmin()], improving[0])
    raise LpNumericalError("simplex did not terminate within the pivot cap")


def lp_solve(lp: LinearProgram) -> LpResult:
    """Solve a small dense LP; statuses are optimal/infeasible/unbounded.

    Optimal points are verified against all constraints within ``FEAS_TOL``;
    a failed verification raises ``LpNumericalError``.
    """
    n, cons = lp.n_vars, lp.constraints
    bounds = lp.bounds if lp.bounds is not None else ((0.0, None),) * n
    lower, upper = np.array([(-np.inf if lo is None else lo, np.inf if hi is None else hi)
                             for lo, hi in bounds], float).reshape(n, 2).T
    return _solve(np.zeros(n) if lp.objective is None else np.asarray(lp.objective, float),
                  np.array([con.coeffs for con in cons], float).reshape(len(cons), n),
                  np.array([_SLACK_SIGN[con.rel] for con in cons], float),
                  np.array([con.bound for con in cons], float), lower, upper, lp.maximize)


def _solve(c_orig, con_a, con_rel, con_b, lower, upper, maximize=True) -> LpResult:
    """``lp_solve`` on arrays; ``con_rel`` holds each row's slack sign (1.0 for
    <=, 0.0 for =, -1.0 for >=) and an infinite variable bound is no bound."""
    n = c_orig.shape[0]
    if (upper < lower - FEAS_TOL).any():
        return LpResult("infeasible", None, None)

    # Substitute x = offsets + t @ y with y >= 0: a lower bound shifts x, an
    # upper bound alone mirrors it, a free x splits into y+ - y-. Each column
    # of t holds a single +-1, so the substituted rows are exact. An infinite
    # bound is no bound; a NaN bound is skipped here and fails verification.
    has_lo, has_hi = lower > -np.inf, upper < np.inf
    owner = np.arange(n).repeat(1 + ~(has_lo | has_hi))  # the x of each y column
    sign = np.where(has_hi & ~has_lo, -1.0, 1.0)[owner]
    sign[1:][owner[1:] == owner[:-1]] = -1.0  # the y- column of a free x
    t = np.zeros((n, owner.size))
    t[owner, np.arange(owner.size)] = sign
    offsets = np.where(has_lo, lower, np.where(has_hi, upper, 0.0))

    if np.isnan(con_a).any() or np.isnan(con_b).any():
        raise LpNumericalError("constraint coefficients and bounds must not be NaN")
    if np.isinf(con_b).any():
        # a row bounded by +-inf holds for every x when the infinity's sign is
        # its slack's (<= +inf, >= -inf) and for none otherwise; it never
        # enters the tableau
        finite = np.isfinite(con_b)
        if (np.sign(con_b[~finite]) != con_rel[~finite]).any():
            return LpResult("infeasible", None, None)
        con_a, con_b, con_rel = con_a[finite], con_b[finite], con_rel[finite]

    # Stack the constraints and the finite boxes (x <= hi rows) with one +-1
    # slack column per inequality, every right-hand side made >= 0.
    boxed = has_lo & has_hi
    a = np.concatenate([con_a, np.eye(n)[boxed]])
    b = np.concatenate([con_b, upper[boxed]])
    rel = np.concatenate([con_rel, np.ones(np.count_nonzero(boxed))])
    lhs = np.concatenate([a @ t, np.diag(rel)[:, rel != 0.0]], axis=1)
    rhs = b - np.vecdot(a, offsets)
    neg = rhs < 0
    lhs[neg] *= -1.0
    rhs[neg] *= -1.0
    m, n_cols = lhs.shape
    n_y = owner.size

    # Phase 1: artificial basis.
    tableau = np.concatenate([lhs, np.eye(m), rhs[:, None]], axis=1)
    basis = np.arange(n_cols, n_cols + m)
    costs1 = np.zeros(n_cols + m)
    costs1[n_cols:] = 1.0
    if _run_simplex(tableau, basis, costs1, n_cols + m) != "optimal":
        # cannot happen: the phase-1 objective is bounded below by 0
        raise LpNumericalError("phase 1 reported unbounded")
    if float(costs1[basis] @ tableau[:, -1]) > FEAS_TOL:
        return LpResult("infeasible", None, None)

    # Drive remaining artificials out of the basis or drop redundant rows.
    keep = np.ones(m, bool)
    for i in (basis >= n_cols).nonzero()[0]:
        cols = (np.abs(tableau[i, :n_cols]) > _EPS).nonzero()[0]
        if cols.size:
            _pivot(tableau, basis, i, cols[0])
        else:
            keep[i] = False
    tableau = np.concatenate([tableau[keep, :n_cols], tableau[keep, -1:]], axis=1)
    basis = basis[keep]

    costs2 = np.zeros(n_cols)
    costs2[:n_y] = (-1.0 if maximize else 1.0) * (c_orig @ t)
    if _run_simplex(tableau, basis, costs2, n_cols) == "unbounded":
        return LpResult("unbounded", None, None)

    y = np.zeros(n_cols)
    y[basis] = tableau[:, -1]
    x = offsets + t @ y[:n_y]
    _verify_point(x, lower, upper, a, rel, b)
    return LpResult("optimal", tuple(x.tolist()), float(c_orig @ x))


def _verify_point(x, lower, upper, a, rel, b) -> None:
    # every test is written as "holds", so a NaN anywhere fails it
    in_bounds = (x >= lower - FEAS_TOL) & (x <= upper + FEAS_TOL)
    if not in_bounds.all():
        j = in_bounds.argmin()
        side = "upper" if x[j] >= lower[j] - FEAS_TOL else "lower"
        raise LpNumericalError(f"solution violates {side} bound on x[{j}]")
    lhs = np.vecdot(a, x)  # one dot product per row, as np.dot computes it
    # an equality row must meet both inequalities
    holds = ((rel < 0) | (lhs <= b + FEAS_TOL)) & ((rel > 0) | (lhs >= b - FEAS_TOL))
    if not holds.all():
        kind = {1.0: "a <=", -1.0: "a >=", 0.0: "an equality"}[rel[holds.argmin()]]
        raise LpNumericalError(f"solution violates {kind} constraint")


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
        arr = np.asarray(self.vertices, float)  # raises for non-numeric or ragged rows
        if len(arr) == 0:
            raise DegenerateModel("a polytope needs at least one vertex")
        if len(arr) > MAX_VERTICES:
            raise TooLarge(f"{len(arr)} vertices exceeds the cap {MAX_VERTICES}")
        if arr.ndim != 2:
            raise DegenerateModel("vertices must share one dimension")
        if arr.shape[1] > MAX_DIM:
            raise TooLarge(f"dimension {arr.shape[1]} exceeds the cap {MAX_DIM}")
        if not np.all(np.isfinite(arr)):
            raise DegenerateModel("vertices must be finite")
        for i in range(len(arr) - 1):
            close = np.flatnonzero(np.linalg.norm(arr[i + 1:] - arr[i], axis=1) <= _DUPLICATE_TOL)
            if close.size:
                raise DegenerateModel(f"vertices {i} and {i + 1 + close[0]} coincide")
        object.__setattr__(self, "vertices", tuple(map(tuple, arr.tolist())))

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.vertices, float)


def _decomposition_rows(vertices, point) -> tuple[np.ndarray, np.ndarray]:
    """Equality rows of the decomposition LP: sum w = 1, then sum w_i v_i = point."""
    v = np.asarray(vertices, float)
    p = np.asarray(point, float)
    if v.shape[1] != p.shape[0]:
        raise DimensionMismatch(f"point dim {p.shape[0]} vs vertex dim {v.shape[1]}")
    return np.vstack([np.ones(v.shape[0]), v.T]), np.concatenate([[1.0], p])


def _decomposition_lp(vertices, point) -> LpResult:
    """Solve the feasibility LP of ``decomposition_program`` from its arrays."""
    a, b = _decomposition_rows(vertices, point)
    n = a.shape[1]
    return _solve(np.zeros(n), a, np.zeros(len(a)), b, np.zeros(n), np.full(n, np.inf))


def decomposition_program(vertices: np.ndarray, point: np.ndarray) -> LinearProgram:
    """Feasibility LP for convex weights w >= 0, sum w = 1, sum w_i v_i = point."""
    a, b = _decomposition_rows(vertices, point)
    return LinearProgram(n_vars=a.shape[1], objective=None, constraints=tuple(
        Constraint(tuple(row), "=", bound) for row, bound in zip(a, b)))


def convex_weights(point, poly: Polytope) -> np.ndarray | None:
    """Convex weights over the vertices reproducing the point, or None."""
    result = _decomposition_lp(poly.as_array(), point)
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
