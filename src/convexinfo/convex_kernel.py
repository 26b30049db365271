"""Internal geometry engine: dense LP solver and polytope membership.

The solver is a textbook two-phase simplex on a dense tableau with Bland's
anti-cycling rule. Instances here are tiny (tens of variables), so the
implementation favours determinism and verifiability over speed: every
reported optimum is re-checked against the original constraints before it
is returned, and a check failure raises instead of returning a wrong answer.
A stack of same-shape LPs pivots together on a 3-D tableau, and a lone LP
is a stack of one: every LP runs the one loop, and its result is the one it
gets inside any stack, bit for bit.

Hull membership is not an LP: whether a point is a convex combination of
vertices is one cone test (``_cone_weights``), non-negative least squares
over the decomposition rows, centred and scaled row by row (``_Cone``),
whose weights or Farkas ray are checked before it answers. ``membership``, ``convex_weights``
and the separability of a pair without a classical factor all ask it.
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
    _expect,
)

#: Feasibility and reported-value tolerance.
FEAS_TOL = 1e-8
#: Largest cosine between a column and a Farkas ray (``_cone_weights``).
#: The residual of a point FEAS_TOL outside its cone carries the rounding of
#: b - a @ w, about 1e-16, in a length of 1e-8, so its cosine with the
#: columns it is orthogonal to reads up to about 1e-7.
_RAY_TOL = 1e-6
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
            object.__setattr__(self, "n_vars", operator.index(self.n_vars))
            if self.objective is not None:
                object.__setattr__(self, "objective", tuple(float(c) for c in self.objective))
            if self.bounds is not None:
                object.__setattr__(self, "bounds", tuple(
                    tuple(None if x is None else float(x) for x in (lo, hi))
                    for lo, hi in self.bounds))
        except (TypeError, ValueError):
            raise DimensionMismatch("n_vars needs an integer, objective numbers, "
                                    "bounds (lo, hi) pairs") from None
        if self.n_vars < 0 or not np.isfinite(self.objective or ()).all():
            raise DimensionMismatch("n_vars must be >= 0 and the objective finite")
        try:
            constraints = iter(self.constraints)
        except TypeError:
            raise DimensionMismatch("constraints must be an iterable of Constraint") from None
        object.__setattr__(self, "constraints", tuple(
            _expect(con, Constraint, DimensionMismatch) for con in constraints))
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


def _run_simplex(tableau, basis, costs, n_enter):
    """Minimize each LP of the stack over its tableau in place; Bland's rule throughout.

    ``tableau`` is a stack (s, m, columns) whose last column holds the
    right-hand sides, ``basis`` is (s, m), and ``costs`` is the one row of
    column costs that every LP of the stack shares. Every column before
    ``n_enter`` may enter the basis. Column ``n_enter`` is the zero column, the
    last before the right-hand sides in both phases (phase 2 drops the
    artificial columns): it counts as improving, so it enters exactly when no
    other column can, and then finds no row to pivot on. Each LP takes its
    own pivots and all that still pivot advance together; an LP leaves the
    live stack as soon as it finishes; a lone LP is a stack of one. Returns
    two flags per LP: unbounded (else optimal), and still pivoting at the
    pivot cap.
    """
    s, m = basis.shape
    unbounded, capped = np.zeros(s, bool), np.zeros(s, bool)
    members = np.arange(s)  # the stack index of each live LP
    live_t, live_b, every = tableau, basis, members
    ratios = np.empty((s, m))
    reduced = np.full((s, n_enter + 1), -1.0)  # the zero column's stays -1
    # views of the live stack, which pivots update in place
    body, rhs, entering_costs = live_t[:, :, :n_enter], live_t[:, :, -1], costs[:n_enter]
    improving = reduced[:, :n_enter]
    for _ in range(_MAX_PIVOTS):
        np.subtract(entering_costs, np.matmul(costs[live_b][:, None], body)[:, 0], out=improving)
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
            every, reduced = every[:n_going], reduced[:n_going]
            body, rhs = live_t[:, :, :n_enter], live_t[:, :, -1]
            improving = reduced[:, :n_enter]
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


class _Layout(NamedTuple):
    """The parts of an LP's tableau that its relations and variable bounds fix."""

    rel: np.ndarray  # the slack sign of every row, box rows included
    t: np.ndarray  # x = offsets + t @ y
    offsets: np.ndarray
    box_a: np.ndarray  # the rows x_j <= hi_j of the variables with both bounds
    box_b: np.ndarray
    n_cols: int  # the y and slack columns
    template: np.ndarray  # one tableau with its slack and artificial columns
    costs1: np.ndarray  # the phase-1 cost of each column
    artificials: np.ndarray  # the artificial column of each row
    in_bounds: tuple[np.ndarray, np.ndarray]  # x must lie within these
    at_least: np.ndarray  # the >= rows
    at_most: np.ndarray  # the <= rows
    columns2: np.ndarray  # the columns of phase 2: no artificials
    crossed: bool  # a lower bound above its upper bound or +inf, or an upper bound -inf


@functools.lru_cache(maxsize=256)
def _layout(rel_bytes: bytes, lower_bytes: bytes, upper_bytes: bytes) -> _Layout:
    """The ``_Layout`` of LPs with these relations and bounds, as float64 bytes."""
    con_rel, lower, upper = map(np.frombuffer, (rel_bytes, lower_bytes, upper_bytes))
    n = len(lower)
    # Substitute x = offsets + t @ y with y >= 0: a lower bound shifts x, an
    # upper bound alone mirrors it, a free x splits into y+ - y-. Each column
    # of t holds a single +-1, so the substituted rows are exact. A lower
    # bound of -inf or an upper one of +inf is no bound, and one of +inf or
    # -inf is crossed; a NaN bound is skipped here and fails verification.
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
    costs1 = np.zeros(n_cols + m + 1)
    costs1[n_cols:-1] = 1.0
    layout = _Layout(rel, t, offsets, np.eye(n)[boxed], upper[boxed], n_cols, template, costs1,
                     np.arange(n_cols, n_cols + m),
                     (lower - FEAS_TOL, upper + FEAS_TOL), rel < 0, rel > 0,
                     np.append(np.arange(n_cols), [n_cols + m, n_cols + m + 1]),
                     bool((upper < lower - FEAS_TOL).any() or (lower == np.inf).any()
                          or (upper == -np.inf).any()))
    for array in (*layout[:5], *layout[6:9], *layout[9], *layout[10:13]):
        array.flags.writeable = False  # every LP of this layout shares them
    return layout


def lp_solve(lp: LinearProgram) -> LpResult:
    """Solve a small dense LP; statuses are optimal/infeasible/unbounded.

    Optimal points are verified against all constraints within ``FEAS_TOL``;
    a failed verification raises ``LpNumericalError``. ``DimensionMismatch``
    unless ``lp`` is a ``LinearProgram``.
    """
    _expect(lp, LinearProgram, DimensionMismatch)
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

    ``a`` is (m, n), or a stack (s, m, n) of s LPs that share ``c`` (n,),
    ``b`` (m,), the relations and the variable bounds, solved together. A
    row bounded by an infinity becomes 0 <= 0 in place when it holds for
    every x (<= +inf, >= -inf), and makes every LP infeasible otherwise; a
    NaN in ``b`` fails every LP. Every LP keeps its place in the stack: a
    redundant row is zeroed in place, and a finished LP stays, zeroed. So
    each result, multipliers included, equals that LP solved alone, and a
    failing LP's result is its ``LpNumericalError``, in its place;
    ``_solved`` raises the first. Only ``_multipliers``' singular-basis
    error, which no input is known to reach, raises for the whole stack.
    """
    a = a[None] if a.ndim == 2 else a  # one LP is a stack of one
    s, m, n = a.shape
    lay = _layout(con_rel.tobytes(), lower.tobytes(), upper.tobytes())
    # a bound on one LP's tableau: every row and box row with a slack and an
    # artificial column, and two columns for each free variable
    rows = m + n
    step = max(1, _STACK_CELLS // (rows * (2 * n + 2 * rows + 2) + 1))
    # Entries near the largest float can overflow to inf and then make NaNs,
    # without a warning: a phase-1 residual of inf makes its LP infeasible, and
    # a point that inf or NaN reaches fails verification (``_violations``)
    with np.errstate(over="ignore", invalid="ignore"):
        return [result for i in range(0, s, step)
                for result in _solve_stack(c, a[i:i + step], b, lay, maximize)]


def _solve_stack(c, a, b, lay: _Layout, maximize) -> list[LpResult | LpNumericalError]:
    """``_solve`` on a stack (s, m, n) of LPs with one ``c`` and ``b``, in one simplex run."""
    s, m_con = len(a), a.shape[1]
    errors: dict[int, str] = {}  # the first failure of each failing LP
    void = lay.crossed  # crossed bounds or an infinite row void every LP
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        nan = np.isnan(a).any(axis=(1, 2)) | np.isnan(b).any()
        infinite_a = np.isinf(a).any(axis=(1, 2))
        errors.update(dict.fromkeys(nan.nonzero()[0].tolist(),
                                    "constraint coefficients and bounds must not be NaN"))
        errors.update(dict.fromkeys((infinite_a & ~nan).nonzero()[0].tolist(),
                                    "constraint coefficients must not be infinite"))
        # a row bounded by +-inf holds for every x when the infinity's sign
        # is its slack's (<= +inf, >= -inf), and becomes 0 <= 0; it holds
        # for no x otherwise, and makes every LP infeasible
        infinite = np.isinf(b)
        void |= bool((infinite & (np.sign(b) != lay.rel[:m_con])).any())
        # a failing LP solves zeros in its place
        a = np.where((nan | infinite_a)[:, None, None] | infinite[:, None], 0.0, a)
        b = np.where(np.isfinite(b), b, 0.0)
    if void:  # no x meets every row and bound, and an infinite bound has no offset
        return [LpNumericalError(errors[i]) if i in errors else LpResult("infeasible", None, None)
                for i in range(s)]
    if len(lay.box_b):
        a = np.concatenate([a, np.broadcast_to(lay.box_a, (s, *lay.box_a.shape))], axis=1)
        b = np.concatenate([b, lay.box_b])
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
    basis = np.tile(lay.artificials, (s, 1))
    unbounded, capped = _run_simplex(tableau, basis, lay.costs1, n_cols + m)
    for i in capped.nonzero()[0].tolist():
        errors.setdefault(i, "simplex did not terminate within the pivot cap")
    for i in unbounded.nonzero()[0].tolist():
        # cannot happen: the phase-1 objective is bounded below by 0
        errors.setdefault(i, "phase 1 reported unbounded")
    # a finished LP, infeasible or failed, stays in the stack with a zero tableau
    done = np.vecdot(lay.costs1[basis], rhs) > FEAS_TOL
    done[list(errors)] = True
    results = [LpNumericalError(errors[i]) if i in errors else LpResult("infeasible", None, None)
               for i in range(s)]
    finished = np.count_nonzero(done)
    if finished == s:
        return results

    # Drive remaining artificials out of the basis, the rows in order and
    # the stack's LPs together: a row pivots on its first entry beyond _EPS,
    # and a row with none is redundant (a finished LP's zero rows among them).
    if finished:
        tableau[done] = 0.0
    for row in ((basis >= n_cols) & ~done[:, None]).any(axis=0).nonzero()[0]:
        entries = np.abs(tableau[:, row, :n_cols]) > _EPS
        lps = ((basis[:, row] >= n_cols) & entries.any(axis=1)).nonzero()[0]
        if lps.size:
            part, part_basis, every = tableau[lps], basis[lps], np.arange(lps.size)
            cols = entries[lps].argmax(axis=1)
            _pivot(part, part_basis, np.full(lps.size, row), cols, part[every, :, cols], every)
            tableau[lps], basis[lps] = part, part_basis
    unbounded = capped = np.zeros(s, bool)
    multipliers = np.zeros((s, m_con))
    if c.any():
        # Phase 2 without the artificial columns. A redundant row is zeroed in
        # place, with the zero column as its basic column, of cost 0.
        tableau = tableau[:, :, lay.columns2]
        redundant = basis >= n_cols
        tableau[redundant] = 0.0
        basis[redundant] = n_cols
        costs = np.zeros(n_cols + 1)
        costs[:n_y] = (-1.0 if maximize else 1.0) * (c @ lay.t)
        unbounded, capped = _run_simplex(tableau, basis, costs, n_cols)
        # for the optimal LPs; the box rows come last
        solved = ~(done | unbounded | capped)
        multipliers[solved] = _multipliers(c, a[solved], lay, basis[solved])[:, :m_con]
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
    costs = np.zeros(lay.n_cols + 1)
    costs[:n_y] = c @ lay.t
    sub = np.take_along_axis(cols, basis[:, None, :], axis=2)
    held, place = (basis == lay.n_cols).nonzero()
    sub[held, place, place] = 1.0  # a zeroed row's own unit column: its multiplier is 0
    try:
        return np.linalg.solve(np.swapaxes(sub, 1, 2), costs[basis][..., None])[..., 0]
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
            len(arr)  # None or a lone number makes a 0-d array, which has no length
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
        # every pair i < j in one pass, in order of i, then j
        i, j = np.triu_indices(len(arr), 1)
        close = np.flatnonzero(np.linalg.norm(arr[j] - arr[i], axis=1) <= _DUPLICATE_TOL)
        if close.size:
            raise DegenerateModel(f"vertices {i[close[0]]} and {j[close[0]]} coincide")
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


class _Cone(NamedTuple):
    """The decomposition rows ``a`` of ``_decomposition_rows`` as the cone
    test works on them. Each coordinate row less its mean over the vertices
    times the sum row, a row operation that keeps every solution of
    a @ w = b, then every row scaled to max-norm 1 (a zero row kept): so
    the sum row weighs as much as the coordinates, whatever their offset
    and scale."""

    a: np.ndarray  # the rows as given
    centre: np.ndarray  # each coordinate row's mean
    scales: np.ndarray  # what each shifted row is multiplied by
    rows: np.ndarray  # the conditioned rows
    gram: np.ndarray  # rows.T @ rows
    norms: np.ndarray  # the norm of each conditioned column


def _conditioned(a) -> _Cone:
    """The ``_Cone`` of decomposition rows ``a``, its arrays read-only, so a
    caller that asks about many points of one cone can keep it."""
    centre = a[1:].mean(axis=1)
    rows = np.vstack([a[:1], a[1:] - centre[:, None]])
    top = np.abs(rows).max(axis=1)
    scales = np.divide(1.0, top, out=np.ones(len(top)), where=top > 0.0)
    rows *= scales[:, None]
    gram = rows.T @ rows
    cone = _Cone(a, centre, scales, rows, gram, np.sqrt(gram.diagonal()))
    for array in cone:
        array.flags.writeable = False
    return cone


def _passive_weights(gram, atb, passive) -> np.ndarray:
    """The least-squares weights of the ``passive`` columns alone: one solve
    of their block of the Gram matrix ``gram``, with ``atb`` = a.T @ b."""
    try:
        return np.linalg.solve(gram[passive[:, None], passive], atb[passive])
    except np.linalg.LinAlgError:
        raise LpNumericalError("the cone test's passive columns are dependent") from None


def _cone_weights(cone: _Cone, b) -> np.ndarray | None:
    """Convex weights w >= 0 with a @ w = b within ``FEAS_TOL`` on every
    row, or None when b lies outside the cone of a's columns; a is
    ``cone.a``, the rows of ``_decomposition_rows``, and b its right-hand
    side, whose first entry the weights sum to.

    Lawson and Hanson's non-negative least squares (Solving Least Squares
    Problems, 1974, ch. 23) on the conditioned rows (``_Cone``), with b
    conditioned alike and scaled to max-norm 1, which moves no point into
    or out of the cone: the column of largest cosine with the residual
    y enters the passive set, and each passive-set system is solved on its
    block of ``cone.gram`` (``_passive_weights``). It stops as soon as its
    weights reconstruct b, or when no cosine exceeds ``_RAY_TOL``. Both
    answers are checked. Weights, divided by their sum and multiplied by
    b[0] so that a vertex's own weight is exactly 1, are returned only
    when they reconstruct b row by row against a, as ``_violations`` checks
    an LP's point; None only when y is a Farkas ray of the conditioned
    rows, which the row operations turn into one of a: no column's cosine
    with y above ``_RAY_TOL``, and a positive product with b. When neither
    holds it raises ``LpNumericalError``, as it does for a NaN in b; a
    point with an infinite coordinate lies in no cone of finite columns.
    """
    if np.isnan(b).any():
        raise LpNumericalError("a point must not be NaN")
    if np.isinf(b).any():
        return None
    a, at, gram, norms = cone.rows, cone.rows.T, cone.gram, cone.norms
    # b conditioned as a's columns are, its centre taken off before any
    # rounding that the columns do not share, then scaled to max-norm 1
    target = b.copy()
    target[1:] -= cone.centre * b[0]
    scale = np.abs(target).max()
    target *= cone.scales / scale
    atb = at @ target
    tol = FEAS_TOL / scale * cone.scales  # FEAS_TOL in each conditioned row's units
    # the passive set is order[:size], in the order its columns entered; the
    # residual y and the cosines are written in place on every iteration
    n = a.shape[1]
    w, order, size = np.zeros(n), np.empty(n, int), 0
    y, cosines = np.empty(len(target)), np.empty(n)
    for _ in range(3 * n):
        np.subtract(target, np.matmul(a, w, out=y), out=y)
        if (np.abs(y) <= tol).all():
            break
        np.divide(np.matmul(at, y, out=cosines), norms, out=cosines)  # times |y|
        cosines[order[:size]] = -np.inf
        j = int(cosines.argmax())
        if cosines[j] <= _RAY_TOL * np.sqrt(y @ y):
            break
        order[size] = j
        size += 1
        while True:
            passive = order[:size]
            z = _passive_weights(gram, atb, passive)
            if (z > 0.0).all():
                w.fill(0.0)
                w[passive] = z
                break
            # step from w toward z until the first weight reaches 0; it and
            # every other weight at 0 leave the passive set
            current = w[passive]
            ratios = np.divide(current, current - z, out=np.zeros(len(z)), where=current > z)
            ratios[z > 0.0] = np.inf
            first = ratios.argmin()
            current += ratios[first] * (z - current)
            np.maximum(current, 0.0, out=current)
            current[first] = 0.0
            w[passive] = current
            kept = passive[current > 0.0]
            size = len(kept)
            order[:size] = kept
    else:
        raise LpNumericalError("the cone test did not settle within its iteration cap")
    if (np.abs(y) <= tol).all():
        # scaled to sum to b[0], a vertex's own weight is exactly 1; where
        # that moves a reconstruction near FEAS_TOL past it, the weights as
        # found may still hold
        for weights in (w / w.sum() * b[0], w * scale):
            if (np.abs(cone.a @ weights - b) <= FEAS_TOL).all():
                return weights
    elif (at @ y <= _RAY_TOL * norms * np.sqrt(y @ y)).all() and target @ y > 0.0:
        return None
    raise LpNumericalError("the cone test found neither weights nor a Farkas ray")


def decomposition_program(vertices: np.ndarray, point: np.ndarray) -> LinearProgram:
    """Feasibility LP for convex weights w >= 0, sum w = 1, sum w_i v_i = point."""
    a, b = _decomposition_rows(vertices, point)
    return LinearProgram(n_vars=a.shape[1], objective=None, constraints=tuple(
        Constraint(tuple(row), "=", bound) for row, bound in zip(a, b)))


def convex_weights(point, poly: Polytope) -> np.ndarray | None:
    """Convex weights over the vertices reproducing the point, or None;
    one cone test (``_cone_weights``) over the decomposition rows."""
    a, b = _decomposition_rows(_expect(poly, Polytope, DimensionMismatch).as_array(), point)
    return _cone_weights(_conditioned(a), b)


def membership(point, poly: Polytope) -> bool:
    """Is the point in the convex hull of the vertices? (``convex_weights``)"""
    return convex_weights(point, poly) is not None


def topk_weight_max(skeleton: LinearProgram, subset: Iterable[int]) -> float:
    """Maximum of sum_{i in S} w_i over a decomposition polytope.

    ``skeleton`` is an objective-free decomposition LP (one variable per
    vertex); raises ``InfeasibleDecomposition`` when the underlying state is
    not in the hull at all.
    """
    _expect(skeleton, LinearProgram, DimensionMismatch)
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
