"""Internal geometry engine: dense LP solver and polytope membership.

The solver is a textbook two-phase simplex on a dense tableau with Bland's
anti-cycling rule. Instances here are tiny (tens of variables), so the
implementation favours determinism and verifiability over speed: every
reported optimum is re-checked against the original constraints before it
is returned, and a check failure raises instead of returning a wrong answer.
A stack of same-shape LPs pivots together on a 3-D tableau; a lone LP
pivots on its own 2-D tableau by the same rule and the same arithmetic, so
its result is the one it gets inside a stack, bit for bit.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

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
#: Largest stack of tableaus, in cells, that one simplex run holds; a longer
#: stack of LPs is solved in slices under it, so peak memory stays bounded.
_STACK_CELLS = 1 << 21

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
        try:
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
            object.__setattr__(self, "bound", float(self.bound))
        except (TypeError, ValueError):
            raise DimensionMismatch("constraint coefficients and bound must be numbers") from None


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
        try:
            if self.objective is not None:
                object.__setattr__(self, "objective", tuple(float(c) for c in self.objective))
            if self.bounds is not None:
                object.__setattr__(self, "bounds", tuple(
                    tuple(None if x is None else float(x) for x in (lo, hi))
                    for lo, hi in self.bounds))
        except (TypeError, ValueError):
            raise DimensionMismatch("objective needs numbers, bounds (lo, hi) pairs") from None
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for name, part in (("objective", self.objective), ("bounds", self.bounds),
                           *(("constraint", con.coeffs) for con in self.constraints)):
            if part is not None and len(part) != self.n_vars:
                raise DimensionMismatch(f"{name} length != n_vars")

    def with_objective(self, objective: Sequence[float], maximize: bool = True) -> "LinearProgram":
        return LinearProgram(self.n_vars, tuple(objective), self.constraints,
                             self.bounds, maximize)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: tuple[float, ...] | None
    value: float | None
    #: One multiplier per constraint row, read from the optimal basis; None unless optimal.
    duals: tuple[float, ...] | None = None


def _pivot(tableau, basis, rows, cols, column, every) -> None:
    """Pivot member i of the stack on (``rows[i]``, ``cols[i]``), for every i;
    ``column[i]`` is member i's column ``cols[i]``, every row, and ``every``
    is ``arange(len(tableau))``."""
    pivot_rows = tableau[every, rows]
    pivot_rows /= column[every, rows][:, None]
    # one rank-1 update of every row; a row with a 0 in the pivot column keeps
    # its values
    tableau -= column[:, :, None] * pivot_rows[:, None]
    tableau[every, rows] = pivot_rows
    basis[every, rows] = cols


def _pivot_alone(tableau, basis, row, col, column) -> None:
    """``_pivot`` on one LP's 2-D tableau: pivot on (``row``, ``col``), where
    ``column`` is its column ``col``."""
    pivot_row = tableau[row] / column[row]
    tableau -= column[:, None] * pivot_row
    tableau[row] = pivot_row
    basis[row] = col


def _run_simplex(tableau, basis, costs, n_enter):
    """Minimize each LP of the stack over its tableau in place; Bland's rule throughout.

    ``tableau`` is a stack (s, m, columns) whose last column holds the
    right-hand sides, ``basis`` is (s, m), and ``costs`` holds the column
    costs, in one row for every LP or one row per LP. Columns from ``n_enter``
    on may not enter the basis (it locks out artificial columns in phase 2),
    except column ``n_enter`` itself: it is zero and counts as improving, so it
    enters exactly when no other column can, and then finds no row to pivot
    on. Each LP takes its own pivots and all that still pivot advance
    together; an LP leaves the live stack as soon as it finishes. A stack of
    one runs on its 2-D tableau (``_run_alone``). Returns two flags per LP:
    unbounded (else optimal), and still pivoting at the pivot cap.
    """
    if len(tableau) == 1:
        return _run_alone(tableau[0], basis[0], costs[0], n_enter)
    s, m = basis.shape
    unbounded, capped = np.zeros(s, bool), np.zeros(s, bool)
    members = np.arange(s)  # the stack index of each live LP
    live_t, live_b, every = tableau, basis, members
    ratios = np.empty((s, m))
    reduced = np.full((s, n_enter + 1), -1.0)  # the zero column's stays -1
    # views of the live stack, which pivots update in place
    body, rhs, entering_costs = live_t[:, :, :n_enter], live_t[:, :, -1], costs[:, :n_enter]
    improving = reduced[:, :n_enter]
    shared = costs[0] if len(costs) == 1 else None  # one row of costs for every LP
    for _ in range(_MAX_PIVOTS):
        basic = shared[live_b] if shared is not None else costs[every[:, None], live_b]
        np.subtract(entering_costs, np.matmul(basic[:, None], body)[:, 0], out=improving)
        entering = (reduced < -_EPS).argmax(axis=1)  # Bland: the first improving column
        column = live_t[every, :, entering]
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=column > _EPS)
        least = ratios.min(axis=1, initial=np.inf)
        going = np.isfinite(least)  # a row to pivot on
        n_going = np.count_nonzero(going)
        if n_going < len(members):
            # an LP that takes no pivot now is finished: unbounded when a
            # column improves, optimal otherwise; it leaves the live stack
            done = ~going
            unbounded[members] |= done & (entering < n_enter)
            if n_going == 0:
                break
            if live_t is not tableau:
                tableau[members[done]], basis[members[done]] = live_t[done], live_b[done]
            pivoting = going.nonzero()[0]
            live_t, live_b, members = live_t[pivoting], live_b[pivoting], members[pivoting]
            if shared is None:
                costs = costs[pivoting]
            every, reduced = every[:n_going], reduced[:n_going]
            body, rhs = live_t[:, :, :n_enter], live_t[:, :, -1]
            entering_costs, improving = costs[:, :n_enter], reduced[:, :n_enter]
            ratios, least = ratios[pivoting], least[pivoting]
            entering, column = entering[pivoting], column[pivoting]
        # ratios within _EPS of the minimum tie and go to the smallest basis
        # index (Bland); rows that cannot pivot have ratio inf
        leaving = np.where(ratios > least[:, None] + _EPS, live_t.shape[2],
                           live_b).argmin(axis=1)
        _pivot(live_t, live_b, leaving, entering, column, every)
    else:
        capped[members] = True
    if live_t is not tableau:
        tableau[members], basis[members] = live_t, live_b
    return unbounded, capped


def _run_alone(tableau, basis, costs, n_enter):
    """``_run_simplex`` on one LP: ``tableau`` (m, columns), ``basis`` (m,) and
    ``costs`` one row. The rule and the arithmetic are the stack's, so the
    flags, the tableau and the basis are those the LP gets in a stack; only
    the indexing is 2-D: the pivot is a pair of ints and the entering column
    a view."""
    reduced = np.full(n_enter + 1, -1.0)  # the zero column's stays -1
    improving = reduced[:n_enter]
    body, rhs, entering_costs = tableau[:, :n_enter], tableau[:, -1], costs[:n_enter]
    ratios = np.empty(len(basis))
    for _ in range(_MAX_PIVOTS):
        np.subtract(entering_costs, costs[basis] @ body, out=improving)
        entering = int((reduced < -_EPS).argmax())  # Bland: the first improving column
        column = tableau[:, entering]
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=column > _EPS)
        least = ratios.min(initial=np.inf)
        if not np.isfinite(least):  # no row to pivot on: finished
            return np.array([entering < n_enter]), np.zeros(1, bool)
        leaving = int(np.where(ratios > least + _EPS, tableau.shape[1], basis).argmin())
        _pivot_alone(tableau, basis, leaving, entering, column)
    return np.zeros(1, bool), np.ones(1, bool)


class _Layout(NamedTuple):
    """The parts of an LP's tableau that its relations and variable bounds fix."""

    rel: np.ndarray  # the slack sign of every row, box rows included
    t: np.ndarray  # x = offsets + t @ y
    offsets: np.ndarray
    box_a: np.ndarray  # the rows x_j <= hi_j of the variables with both bounds
    box_b: np.ndarray
    n_cols: int  # the y and slack columns
    template: np.ndarray  # one tableau with its slack and artificial columns
    costs1: np.ndarray  # (1, columns): the phase-1 cost of each column
    artificials: np.ndarray  # (1, m): the artificial column of each row
    in_bounds: tuple[np.ndarray, np.ndarray]  # x must lie within these
    at_least: np.ndarray  # the >= rows
    at_most: np.ndarray  # the <= rows
    columns2: np.ndarray  # the columns of phase 2: no artificials
    crossed: bool  # some lower bound lies above its upper bound


@functools.lru_cache(maxsize=256)
def _layout(rel_bytes: bytes, lower_bytes: bytes, upper_bytes: bytes) -> _Layout:
    """The ``_Layout`` of LPs with these relations and bounds, as float64 bytes."""
    con_rel, lower, upper = map(np.frombuffer, (rel_bytes, lower_bytes, upper_bytes))
    n = len(lower)
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
    # The rows are the constraints, then the finite boxes (x <= hi rows). The
    # tableau columns: y, one +-1 slack per inequality, one artificial per row,
    # the zero column of _run_simplex and the right-hand sides.
    boxed = has_lo & has_hi
    rel = np.concatenate([con_rel, np.ones(np.count_nonzero(boxed))])
    m, slack_rows = len(rel), (rel != 0.0).nonzero()[0]
    n_cols = owner.size + slack_rows.size
    template = np.zeros((m, n_cols + m + 2))
    template[slack_rows, owner.size + np.arange(slack_rows.size)] = rel[slack_rows]
    template[np.arange(m), np.arange(n_cols, n_cols + m)] = 1.0
    costs1 = np.zeros((1, n_cols + m + 1))
    costs1[0, n_cols:-1] = 1.0
    layout = _Layout(rel, t, offsets, np.eye(n)[boxed], upper[boxed], n_cols, template, costs1,
                     np.arange(n_cols, n_cols + m)[None],
                     (lower - FEAS_TOL, upper + FEAS_TOL), rel < 0, rel > 0,
                     np.append(np.arange(n_cols), [n_cols + m, n_cols + m + 1]),
                     bool((upper < lower - FEAS_TOL).any()))
    for array in (*layout[:5], *layout[6:9], *layout[9], *layout[10:13]):
        array.flags.writeable = False  # every LP of this layout shares them
    return layout


def lp_solve(lp: LinearProgram) -> LpResult:
    """Solve a small dense LP; statuses are optimal/infeasible/unbounded.

    Optimal points are verified against all constraints within ``FEAS_TOL``;
    a failed verification raises ``LpNumericalError``.
    """
    n, cons = lp.n_vars, lp.constraints
    bounds = lp.bounds if lp.bounds is not None else ((0.0, None),) * n
    lower, upper = np.array([(-np.inf if lo is None else lo, np.inf if hi is None else hi)
                             for lo, hi in bounds], float).reshape(n, 2).T
    return _solved(_solve(
        np.zeros(n) if lp.objective is None else np.asarray(lp.objective, float),
        np.array([con.coeffs for con in cons], float).reshape(len(cons), n),
        np.array([_SLACK_SIGN[con.rel] for con in cons], float),
        np.array([con.bound for con in cons], float), lower, upper, lp.maximize))[0]


def _solved(results: list[LpResult | LpNumericalError]) -> list[LpResult]:
    """``_solve``'s results, unless an LP failed: then the first failure is raised."""
    for result in results:
        if isinstance(result, LpNumericalError):
            raise result
    return results


def _solve(c, a, con_rel, b, lower, upper, maximize=True) -> list[LpResult | LpNumericalError]:
    """``lp_solve`` on float arrays, a list of one result per LP; ``con_rel``
    holds each row's slack sign (1.0 for <=, 0.0 for =, -1.0 for >=) and an
    infinite variable bound is no bound. An optimal result carries the row
    multipliers of its final basis (``_multipliers``), all 0 for an LP with
    no objective.

    A row bounded by an infinity becomes 0 <= 0 in place when it holds for
    every x (<= +inf, >= -inf), and makes its LP infeasible otherwise.

    A leading stack axis on ``c``, ``a`` or ``b`` makes a stack of same-shape
    LPs that share the relations and the variable bounds, solved together;
    without one the stack holds one LP. Every LP keeps its place in the
    stack: a redundant row is zeroed in place, and a finished LP stays,
    zeroed. So each result, multipliers included, equals that LP solved
    alone, and a failing LP's result is its ``LpNumericalError``, in its
    place; ``_solved`` raises the first. Only ``_multipliers``' singular-basis
    error, which no input is known to reach, raises for the whole stack.
    """
    m, n = a.shape[-2:]
    if c.ndim == 1 and a.ndim == 2 and b.ndim == 1:  # one LP: a stack of one
        s, c, a, b = 1, c[None], a[None], b[None]
    else:  # a shared c, a or b meets a real stack
        (s,) = np.broadcast_shapes(c.shape[:-1], a.shape[:-2], b.shape[:-1])
        c, a = np.broadcast_to(c, (s, n)), np.broadcast_to(a, (s, m, n))
        b = np.broadcast_to(b, (s, m))
    lay = _layout(con_rel.tobytes(), lower.tobytes(), upper.tobytes())
    # a bound on one LP's tableau: every row and box row with a slack and an
    # artificial column, and two columns for each free variable
    rows = m + n
    step = max(1, _STACK_CELLS // (rows * (2 * n + 2 * rows + 2) + 1))
    # Entries near the largest float can overflow to inf and then make NaNs,
    # without a warning: a phase-1 residual of inf makes its LP infeasible, and
    # a point that inf or NaN reaches fails verification (``_violations``)
    with np.errstate(over="ignore", invalid="ignore"):
        return [result for i in range(0, s, step) for result in _solve_stack(
            c[i:i + step], a[i:i + step], b[i:i + step], lay, maximize)]


def _solve_stack(c, a, b, lay: _Layout, maximize) -> list[LpResult | LpNumericalError]:
    """``_solve`` on a stack (s, m, n) of LPs, all of them in one simplex run."""
    s, m_con = len(a), a.shape[1]
    errors: dict[int, str] = {}  # the first failure of each failing LP
    void = np.full(s, lay.crossed)  # the LPs crossed bounds or an infinite row void
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        nan = np.isnan(a).any(axis=(1, 2)) | np.isnan(b).any(axis=1)
        errors.update(dict.fromkeys(nan.nonzero()[0].tolist(),
                                    "constraint coefficients and bounds must not be NaN"))
        # a row bounded by +-inf holds for every x when the infinity's sign
        # is its slack's (<= +inf, >= -inf), and becomes 0 <= 0; it holds
        # for no x otherwise, and makes its LP infeasible
        infinite = np.isinf(b)
        void |= (infinite & (np.sign(b) != lay.rel[:m_con])).any(axis=1)
        # a failing or infeasible LP solves zeros in its place
        a = np.where((nan | void)[:, None, None] | infinite[:, :, None], 0.0, a)
        b = np.where((nan | void)[:, None] | infinite, 0.0, b)
    if len(lay.box_b):
        a = np.concatenate([a, np.broadcast_to(lay.box_a, (s, *lay.box_a.shape))], axis=1)
        b = np.concatenate([b, np.broadcast_to(lay.box_b, (s, len(lay.box_b)))], axis=1)
    n_y, n_cols, m = lay.t.shape[1], lay.n_cols, len(lay.rel)

    # Phase 1 from the artificial basis, every right-hand side made >= 0.
    tableau = np.empty((s, *lay.template.shape))
    tableau[:] = lay.template
    tableau[:, :, :n_y] = a @ lay.t
    rhs = tableau[:, :, -1]
    np.subtract(b, np.vecdot(a, lay.offsets), out=rhs)
    neg = rhs < 0
    tableau[:, :, :n_cols][neg] *= -1.0
    rhs[neg] *= -1.0
    basis = np.repeat(lay.artificials, s, axis=0)
    unbounded, capped = _run_simplex(tableau, basis, lay.costs1, n_cols + m)
    for i in capped.nonzero()[0].tolist():
        errors.setdefault(i, "simplex did not terminate within the pivot cap")
    for i in unbounded.nonzero()[0].tolist():
        # cannot happen: the phase-1 objective is bounded below by 0
        errors.setdefault(i, "phase 1 reported unbounded")
    # a finished LP, infeasible or failed, stays in the stack with a zero tableau
    done = (np.vecdot(lay.costs1[0, basis], rhs) > FEAS_TOL) | void
    done[list(errors)] = True
    results = [LpNumericalError(errors[i]) if i in errors else LpResult("infeasible", None, None)
               for i in range(s)]
    finished = np.count_nonzero(done)
    if finished == s:
        return results

    # Drive remaining artificials out of the basis; a row where none can
    # leave is redundant. A row pivots on an entry beyond _EPS, and until one
    # does no row changes, so the loop starts at the first row holding one.
    artificial = basis >= n_cols
    if finished:
        tableau[done], artificial[done] = 0.0, False
    stack, rows = artificial.nonzero()
    first = rows[(np.abs(tableau[stack, rows, :n_cols]) > _EPS).any(axis=1)].min(initial=m)
    for i in first + artificial[:, first:].any(axis=0).nonzero()[0]:
        members = artificial[:, i].nonzero()[0]
        cols = np.abs(tableau[members, i, :n_cols]) > _EPS
        found = cols.any(axis=1)
        if found.any():
            members, entering = members[found], cols[found].argmax(axis=1)
            some_t, some_b = tableau[members], basis[members]
            every = np.arange(members.size)
            _pivot(some_t, some_b, np.full(members.size, i), entering,
                   some_t[every, :, entering], every)
            tableau[members], basis[members] = some_t, some_b
    unbounded = capped = np.zeros(s, bool)
    multipliers = np.zeros((s, m_con))
    if c.any():
        # Phase 2 without the artificial columns. A redundant row is zeroed in
        # place, with the zero column as its basic column, of cost 0.
        tableau = tableau[:, :, lay.columns2]
        redundant = basis >= n_cols
        tableau[redundant] = 0.0
        basis[redundant] = n_cols
        costs = np.zeros((s, n_cols + 1))
        costs[:, :n_y] = (-1.0 if maximize else 1.0) * np.matmul(c[:, None], lay.t)[:, 0]
        unbounded, capped = _run_simplex(tableau, basis, costs, n_cols)
        # for the optimal LPs with an objective; the box rows come last
        solved = ~(done | unbounded | capped) & c.any(axis=1)
        multipliers[solved] = _multipliers(c[solved], a[solved], lay, basis[solved])[:, :m_con]
    y = np.zeros((s, tableau.shape[2]))
    y[np.arange(s)[:, None], basis] = tableau[:, :, -1]
    x = lay.offsets + np.matmul(lay.t, y[:, :n_y, None])[:, :, 0]
    failures = _violations(x, lay, a, b)
    points, values = x.tolist(), np.vecdot(c, x).tolist()
    for i in (~done).nonzero()[0].tolist():
        if capped[i]:
            results[i] = LpNumericalError("simplex did not terminate within the pivot cap")
        elif unbounded[i]:
            results[i] = LpResult("unbounded", None, None)
        elif failures and failures[i] is not None:
            results[i] = LpNumericalError(failures[i])
        else:
            results[i] = LpResult("optimal", tuple(points[i]), values[i],
                                  tuple(multipliers[i].tolist()))
    return results


def _multipliers(c, a, lay: _Layout, basis) -> np.ndarray:
    """The row multipliers y of each LP's final basis B, from B^T y = c_B.

    B holds the basic columns of the phase-2 tableau, taken from ``a`` after
    the substitution x = offsets + t @ y, and c_B their objective
    coefficients, c as given. So a minimum has reduced costs c - a^T y >= 0
    on its nonbasic columns. A row zeroed as redundant, held by the zero
    column, gets multiplier 0; the box rows come last.
    """
    s, m, n_y = len(a), len(lay.rel), lay.t.shape[1]
    cols = np.zeros((s, m, lay.n_cols + 1))  # the last is the zero column
    cols[:, :, :n_y] = a @ lay.t
    cols[:, :, n_y:lay.n_cols] = lay.template[:, n_y:lay.n_cols]
    costs = np.zeros((s, lay.n_cols + 1))
    costs[:, :n_y] = np.matmul(c[:, None], lay.t)[:, 0]
    sub = np.take_along_axis(cols, basis[:, None, :], axis=2)
    held, place = (basis == lay.n_cols).nonzero()
    sub[held, place, place] = 1.0  # a zeroed row's own unit column: its multiplier is 0
    try:
        return np.linalg.solve(np.swapaxes(sub, 1, 2),
                               np.take_along_axis(costs, basis, axis=1)[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise LpNumericalError("the optimal basis is singular") from None


def _violations(x, lay: _Layout, a, b) -> list[str | None]:
    """What each point of the stack violates (None where it holds), or an
    empty list when every point holds."""
    # every test is written as "holds", so a NaN anywhere fails it
    in_bounds = (x >= lay.in_bounds[0]) & (x <= lay.in_bounds[1])
    lhs = np.vecdot(a, x[:, None])  # one dot product per row, as np.dot computes it
    # an equality row must meet both inequalities
    holds = (lay.at_least | (lhs <= b + FEAS_TOL)) & (lay.at_most | (lhs >= b - FEAS_TOL))
    if in_bounds.all() and holds.all():
        return []
    failures = [None] * len(x)
    for i in range(len(x)):
        if not in_bounds[i].all():
            j = in_bounds[i].argmin()
            side = "upper" if x[i, j] >= lay.in_bounds[0][j] else "lower"
            failures[i] = f"solution violates {side} bound on x[{j}]"
        elif not holds[i].all():
            kind = {1.0: "a <=", -1.0: "a >=", 0.0: "an equality"}[lay.rel[holds[i].argmin()]]
            failures[i] = f"solution violates {kind} constraint"
    return failures


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
        try:
            arr = np.asarray(self.vertices, float)
        except (TypeError, ValueError):
            raise DegenerateModel("vertices must be rows of numbers") from None
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
    try:
        v, p = np.asarray(vertices, float), np.asarray(point, float)
    except (TypeError, ValueError):
        raise DimensionMismatch("vertices and a point must be rows of numbers") from None
    if v.ndim != 2:
        raise DimensionMismatch("vertices must be rows of one length")
    if p.shape != v.shape[1:]:
        raise DimensionMismatch(f"point shape {p.shape} vs vertex dim {v.shape[1]}")
    a, b = np.empty((v.shape[1] + 1, v.shape[0])), np.empty(p.shape[0] + 1)
    a[0], a[1:], b[0], b[1:] = 1.0, v.T, 1.0, p
    return a, b


def _decomposition_lp(vertices, point) -> LpResult:
    """Solve the feasibility LP of ``decomposition_program`` from its arrays."""
    a, b = _decomposition_rows(vertices, point)
    zeros = np.zeros(a.shape[1])
    return _solved(_solve(zeros, a, np.zeros(len(a)), b, zeros, np.full(a.shape[1], np.inf)))[0]


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
    try:
        s = sorted(set(map(operator.index, subset)))
    except (TypeError, ValueError):
        raise DimensionMismatch("subset must hold weight indices") from None
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
