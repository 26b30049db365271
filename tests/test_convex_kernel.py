from collections import Counter

import numpy as np
import pytest

from convexinfo import (
    Constraint,
    LinearProgram,
    Polytope,
    build_model,
    convex_kernel,
    lp_solve,
    membership,
    perfectly_distinguishable,
    topk_weight_max,
)
from convexinfo.convex_kernel import (
    FEAS_TOL,
    RELATIONS,
    convex_weights,
    decomposition_program,
)
from convexinfo.entropic import entropy_upper_bound, make_preset, pair_from_spec
from convexinfo.errors import (
    BadParameter,
    DegenerateModel,
    DimensionMismatch,
    InfeasibleDecomposition,
    InvalidPovm,
    InvalidProbVector,
    LpNumericalError,
    TooLarge,
    ValidationError,
)
from convexinfo.gpt_models import GptState
from convexinfo.probvec import normalize
from convexinfo.quantum import Povm

from oracles import loop_reference, scipy_lp_reference


def test_max_x_example():
    lp = LinearProgram(1, (1.0,), (Constraint((1.0,), "<=", 3.0),))
    result = lp_solve(lp)
    assert result.status == "optimal"
    assert result.value == pytest.approx(3.0, abs=1e-9)
    assert result.point[0] == pytest.approx(3.0, abs=1e-9)


def test_infeasible_example():
    lp = LinearProgram(1, (1.0,), (Constraint((1.0,), "<=", -1.0),))
    assert lp_solve(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(1, (1.0,), ())
    assert lp_solve(lp).status == "unbounded"


@pytest.mark.parametrize("rel", ["<=", "=", ">="])
@pytest.mark.parametrize("objective", [(1.0,), None])
def test_nan_bound_is_never_optimal(rel, objective):
    cons = (Constraint((1.0,), rel, float("nan")), Constraint((1.0,), "<=", 3.0))
    with pytest.raises(LpNumericalError):
        lp_solve(LinearProgram(1, objective, cons))


def test_quadrilateral_constraint_system():
    # max p1 subject to p1 = p2, p3 = 2 p4, sum p = 1, p >= 0
    cons = (
        Constraint((1.0, -1.0, 0.0, 0.0), "=", 0.0),
        Constraint((0.0, 0.0, 1.0, -2.0), "=", 0.0),
        Constraint((1.0, 1.0, 1.0, 1.0), "=", 1.0),
    )
    lp = LinearProgram(4, (1.0, 0.0, 0.0, 0.0), cons)
    result = lp_solve(lp)
    assert result.status == "optimal"
    assert result.value == pytest.approx(0.5, abs=1e-9)


def test_minimize_and_free_variables():
    # min x + y with x free, y >= 1, x >= y - 3
    cons = (Constraint((1.0, -1.0), ">=", -3.0),)
    lp = LinearProgram(2, (1.0, 1.0), cons, bounds=((None, None), (1.0, None)),
                       maximize=False)
    result = lp_solve(lp)
    assert result.status == "optimal"
    assert result.value == pytest.approx(-1.0, abs=1e-9)  # y = 1, x = -2


def test_upper_bounded_variables():
    lp = LinearProgram(2, (3.0, 1.0), (Constraint((1.0, 1.0), "<=", 1.5),),
                       bounds=((0.0, 1.0), (0.0, 1.0)))
    result = lp_solve(lp)
    assert result.value == pytest.approx(3.5, abs=1e-9)


def test_weak_duality_hand_bound():
    # max x1 + x2 s.t. 2x1 + x2 <= 4, x1 + 3x2 <= 6; dual y = (2/5, 3/5)
    # gives bound 4*(2/5) + 6*(3/5) = 26/5; optimum is x = (6/5, 8/5).
    cons = (Constraint((2.0, 1.0), "<=", 4.0), Constraint((1.0, 3.0), "<=", 6.0))
    lp = LinearProgram(2, (1.0, 1.0), cons)
    result = lp_solve(lp)
    assert result.status == "optimal"
    assert result.value <= 26.0 / 5.0 + 1e-9
    assert result.value == pytest.approx(14.0 / 5.0, abs=1e-9)


def test_against_scipy_on_random_instances(rng):
    for trial in range(120):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cons = []
        for _ in range(m):
            coeffs = tuple(rng.normal(size=n).round(3))
            rel = ("<=", ">=", "=")[int(rng.integers(0, 3))]
            cons.append(Constraint(coeffs, rel, float(rng.normal()) * 2.0))
        bounds = []
        for _ in range(n):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                bounds.append((0.0, None))
            elif kind == 1:
                bounds.append((0.0, float(rng.uniform(0.5, 3.0))))
            else:
                bounds.append((None, None))
        lp = LinearProgram(n, tuple(rng.normal(size=n).round(3)), tuple(cons),
                           bounds=tuple(bounds), maximize=bool(rng.integers(0, 2)))
        mine = lp_solve(lp)
        ref_status, ref_value = scipy_lp_reference(lp)
        assert mine.status == ref_status, f"trial {trial}: {mine.status} vs {ref_status}"
        if ref_status == "optimal":
            assert mine.value == pytest.approx(ref_value, abs=1e-7)


# Beale's example cycles under the textbook largest-coefficient rule; in the
# second, the first entering column ties two rows at ratio 0.
CYCLING_PRONE = {
    "beale": LinearProgram(4, (-0.75, 150.0, -0.02, 6.0), (
        Constraint((0.25, -60.0, -0.04, 9.0), "<=", 0.0),
        Constraint((0.5, -90.0, -0.02, 3.0), "<=", 0.0),
        Constraint((0.0, 0.0, 1.0, 0.0), "<=", 1.0)), maximize=False),
    "tied-zero-ratios": LinearProgram(4, (10.0, -57.0, -9.0, -24.0), (
        Constraint((0.5, -5.5, -2.5, 9.0), "<=", 0.0),
        Constraint((0.5, -1.5, -0.5, 1.0), "<=", 0.0),
        Constraint((1.0, 0.0, 0.0, 0.0), "<=", 1.0))),
}


@pytest.mark.parametrize("name", sorted(CYCLING_PRONE))
def test_against_scipy_on_cycling_prone_instances(name):
    lp = CYCLING_PRONE[name]
    mine = lp_solve(lp)
    ref_status, ref_value = scipy_lp_reference(lp)
    assert (mine.status, ref_status) == ("optimal", "optimal")
    assert mine.value == pytest.approx(ref_value, abs=1e-7)
    assert mine.value == pytest.approx({"beale": -0.05, "tied-zero-ratios": 1.0}[name], abs=1e-9)


def test_matches_the_loop_simplex_exactly_on_random_lps(rng):
    # the array kernel must reproduce the scalar-loop simplex bit for bit:
    # same pivots, same point, same value
    seen = Counter()
    for trial in range(400):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        cons = []
        for _ in range(m):
            coeffs = rng.normal(size=n).round(int(rng.integers(1, 4)))
            coeffs[rng.random(n) < 0.2] = 0.0
            rel = RELATIONS[int(rng.integers(0, 3))]
            # a zero bound makes ratio-test ties at 0, where Bland's rule decides
            bound = 0.0 if rng.random() < 0.3 else float(rng.normal()) * 2.0
            cons.append((tuple(coeffs), rel, bound))
            seen[rel] += 1
        bounds = []
        for _ in range(n):
            kind = ("default", "lower", "free", "upper-only", "boxed")[int(rng.integers(0, 5))]
            lo = float(rng.normal())
            bounds.append({"default": (0.0, None), "lower": (lo, None), "free": (None, None),
                           "upper-only": (None, lo),
                           "boxed": (lo, lo + float(rng.uniform(0.0, 3.0)))}[kind])
            seen[kind] += 1
        objective = None if rng.random() < 0.1 else tuple(rng.normal(size=n).round(3))
        maximize = bool(rng.integers(0, 2))
        mine = lp_solve(LinearProgram(n, objective, tuple(Constraint(*c) for c in cons),
                                      tuple(bounds), maximize))
        ref = loop_reference.lp_solve(loop_reference.LinearProgram(
            n, objective, tuple(loop_reference.Constraint(*c) for c in cons),
            tuple(bounds), maximize))
        assert (mine.status, mine.point, mine.value) == (ref.status, ref.point, ref.value), \
            f"trial {trial}"
        seen[mine.status] += 1
    assert min(seen.values()) >= 40, seen
    assert len(seen) == 3 + 5 + 3


def test_multipliers_certify_each_optimum_of_a_stack(rng):
    # min c.x over a x = b, x >= 0, and max c.x over a x <= b, x >= 0: the
    # multipliers are dual feasible and b.y is the optimum. The stack shares
    # c and b; each a holds a point of its own, through its last column. The
    # last row is the sum of the first two in half of the LPs (redundant
    # there) and random in the others; a stack gives each LP its lone
    # solve's multipliers.
    s, m, n = 12, 5, 9
    a = rng.normal(size=(s, m, n))
    a[::2, -1] = a[::2, 0] + a[::2, 1]
    b = rng.normal(size=m)
    b[-1] = b[0] + b[1]
    x = rng.uniform(0.1, 1.0, size=(s, n))
    a[:, :, -1] = (b - np.matmul(a[:, :, :-1], x[:, :-1, None])[..., 0]) / x[:, -1:]
    a[::2, -1, -1] = a[::2, 0, -1] + a[::2, 1, -1]
    c = rng.uniform(0.5, 2.0, size=n)
    lower, upper = np.zeros(n), np.full(n, np.inf)
    for rel, maximize in ((np.zeros(m), False), (np.ones(m), True)):
        if maximize:
            c = -c  # so that the maximum is bounded
        stacked = convex_kernel._solve(c, a, rel, b, lower, upper, maximize)
        assert all(result.status == "optimal" for result in stacked)
        for i, result in enumerate(stacked):
            assert [result] == convex_kernel._solve(c, a[i], rel, b, lower, upper, maximize)
            y = np.asarray(result.duals)
            reduced = c - a[i].T @ y
            assert (reduced <= 1e-8).all() if maximize else (reduced >= -1e-8).all()
            if maximize:
                assert (y >= -1e-8).all()  # a <= row's slack may not enter either
            assert b @ y == pytest.approx(result.value, abs=1e-8)
        assert lp_solve(LinearProgram(n, tuple(c), tuple(
            Constraint(tuple(row), "<=" if maximize else "=", bound)
            for row, bound in zip(a[0], b)), maximize=maximize)).duals == stacked[0].duals


@pytest.mark.parametrize("side", [0, 1])
def test_nan_variable_bound_is_never_optimal(side):
    bound = [0.0, 2.0]
    bound[side] = float("nan")
    lp = LinearProgram(2, (1.0, 1.0), (Constraint((1.0, 1.0), "<=", 3.0),),
                       bounds=(tuple(bound), (0.0, 1.0)))
    with pytest.raises(LpNumericalError, match=("lower", "upper")[side]):
        lp_solve(lp)


def test_infinite_variable_bounds_mean_no_bound():
    inf = float("inf")
    cons = (Constraint((1.0, -1.0), ">=", -3.0),)
    free = LinearProgram(2, (1.0, 1.0), cons, bounds=((None, None), (1.0, None)), maximize=False)
    infinite = LinearProgram(2, (1.0, 1.0), cons, bounds=((-inf, inf), (1.0, inf)), maximize=False)
    assert lp_solve(infinite) == lp_solve(free)


def test_polytope_names_the_first_coinciding_pair(rng):
    points = rng.normal(size=(12, 3))
    points[[9, 7, 5]] = points[[2, 4, 2]]  # coinciding pairs (2, 5), (2, 9), (4, 7)
    points[6] = points[3] + 1e-10          # within the tolerance: (3, 6)
    first = next((i, j) for i in range(12) for j in range(i + 1, 12)
                 if np.linalg.norm(points[i] - points[j]) <= 1e-9)
    assert first == (2, 5)
    with pytest.raises(DegenerateModel, match=r"vertices 2 and 5 coincide"):
        Polytope(tuple(map(tuple, points)))


def test_polytope_validation():
    with pytest.raises(DegenerateModel):
        Polytope(((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(DegenerateModel):
        Polytope(())
    with pytest.raises(TooLarge):
        Polytope(tuple((float(i), 0.0) for i in range(65)))


def test_polytope_dimension_cap_and_shape():
    with pytest.raises(TooLarge, match="dimension 65 exceeds the cap 64"):
        Polytope(((0.0,) * 65,))
    with pytest.raises(DegenerateModel, match="vertices must share one dimension"):
        Polytope((1.0, 2.0))
    poly = Polytope(np.array([[1, 0], [0, 1]]))
    assert poly.vertices == ((1.0, 0.0), (0.0, 1.0))
    assert all(type(c) is float for v in poly.vertices for c in v)


def test_membership_triangle():
    triangle = Polytope(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    assert membership((1.0 / 3.0, 1.0 / 3.0), triangle)
    assert membership((0.0, 0.0), triangle)
    assert not membership((2.0, 2.0), triangle)


def test_membership_vertices_and_mixtures(rng):
    points = rng.normal(size=(5, 3))
    poly = Polytope(tuple(map(tuple, points)))
    for v in points:
        assert membership(v, poly)
    for _ in range(25):
        w = rng.dirichlet(np.ones(5))
        assert membership(w @ points, poly)


def test_membership_false_outside_face_normal():
    square = Polytope(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))
    # displaced outward from the x + y = 1 edge along its normal
    outward = np.array([0.5, 0.5]) + 1e-8 * np.array([1.0, 1.0]) / np.sqrt(2) * 10
    assert not membership(outward, square)
    assert membership((0.5, 0.5), square)


def test_convex_weights_reconstruct(rng):
    points = rng.normal(size=(6, 4))
    poly = Polytope(tuple(map(tuple, points)))
    target = rng.dirichlet(np.ones(6)) @ points
    w = convex_weights(target, poly)
    assert w is not None
    assert np.allclose(w @ points, target, atol=1e-8)
    assert w.min() >= -1e-9
    assert w.sum() == pytest.approx(1.0, abs=1e-8)


def test_hull_membership_enters_no_lp_kernel(monkeypatch, rng):
    def entered(*args):
        raise AssertionError("an LP entered the kernel")

    monkeypatch.setattr(convex_kernel, "_solve_stack", entered)
    points = rng.normal(size=(7, 3))
    poly = Polytope(points)
    for _ in range(20):
        weights = convex_weights(rng.dirichlet(np.ones(7)) @ points, poly)
        assert weights is not None and weights.min() >= 0.0
    for direction in rng.normal(size=(10, 3)):
        # past the vertex that maximizes a functional
        top = points[(points @ direction).argmax()]
        assert membership(top, poly) and not membership(top + 1e-3 * direction, poly)


@pytest.mark.parametrize("scale", (1e-6, 1e-3, 1.0, 1e3, 1e6))
@pytest.mark.parametrize("offset", (0.0, 1e3))
def test_hull_membership_holds_on_shifted_and_rescaled_points(scale, offset):
    # the cone test conditions its rows, so coordinates far from 1 or from
    # the origin leave the sum row its weight; the LP raised at scale 1e-6
    rng = np.random.default_rng(11)
    for v, d in ((6, 3), (10, 2), (12, 4), (16, 5)):
        points = rng.normal(size=(v, d))
        poly = Polytope(points * scale + offset)
        inside = rng.dirichlet(np.ones(v)) @ points
        direction = rng.normal(size=d)
        top = (points @ direction).argmax()  # a vertex of the hull
        weights = convex_weights(inside * scale + offset, poly)
        assert weights is not None and weights.min() >= 0.0
        assert np.abs(weights @ poly.as_array() - (inside * scale + offset)).max() <= FEAS_TOL
        assert not membership((points[top] + 0.01 * direction) * scale + offset, poly)
        # a vertex is its own decomposition, with weight exactly 1
        assert np.array_equal(convex_weights(points[top] * scale + offset, poly), np.eye(v)[top])


def test_a_wrong_passive_solve_raises_instead_of_answering(monkeypatch, rng):
    # weights and Farkas rays are checked against the data: halved passive
    # weights reconstruct no point and leave no ray, inside or outside
    points = rng.normal(size=(6, 3))
    poly, centre = Polytope(points), points.mean(axis=0)
    inside, outside = rng.dirichlet(np.ones(6)) @ points, centre + 3.0 * (points[0] - centre)
    assert membership(inside, poly) and not membership(outside, poly)
    solve = convex_kernel._passive_weights
    monkeypatch.setattr(convex_kernel, "_passive_weights", lambda *args: 0.5 * solve(*args))
    for point in (inside, outside):
        with pytest.raises(LpNumericalError):
            convex_weights(point, poly)


def test_a_nan_point_raises_and_an_infinite_one_lies_outside():
    square = Polytope(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))
    with pytest.raises(LpNumericalError, match="NaN"):
        membership((np.nan, 0.0), square)
    assert convex_weights((np.inf, 0.0), square) is None


def _square_center_skeleton():
    verts = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    return decomposition_program(verts, np.array([0.0, 0.0, 1.0]))


def test_topk_square_center():
    skeleton = _square_center_skeleton()
    # the unique decomposition family is (p, p, q, q) with p + q = 1/2
    assert topk_weight_max(skeleton, [0]) == pytest.approx(0.5, abs=1e-9)
    assert topk_weight_max(skeleton, [0, 1]) == pytest.approx(1.0, abs=1e-9)
    assert topk_weight_max(skeleton, [0, 2]) == pytest.approx(0.5, abs=1e-9)


def test_topk_simplex_unique():
    verts = np.hstack([np.eye(3), np.ones((3, 1))])
    skeleton = decomposition_program(verts, np.array([0.5, 0.3, 0.2, 1.0]))
    assert topk_weight_max(skeleton, [0]) == pytest.approx(0.5, abs=1e-9)
    assert topk_weight_max(skeleton, [1]) == pytest.approx(0.3, abs=1e-9)
    assert topk_weight_max(skeleton, [0, 1]) == pytest.approx(0.8, abs=1e-9)


def test_topk_monotone_in_subset(rng):
    skeleton = _square_center_skeleton()
    subsets = [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [2], [2, 3], [1, 2, 3]]
    values = {tuple(s): topk_weight_max(skeleton, s) for s in subsets}
    for s in subsets:
        for t in subsets:
            if set(s) <= set(t):
                assert values[tuple(s)] <= values[tuple(t)] + 1e-9


def test_topk_infeasible_decomposition():
    verts = np.hstack([np.eye(2), np.ones((2, 1))])
    skeleton = decomposition_program(verts, np.array([2.0, -1.0, 1.0]))
    with pytest.raises(InfeasibleDecomposition):
        topk_weight_max(skeleton, [0])
    with pytest.raises(InfeasibleDecomposition):
        topk_weight_max(_square_center_skeleton(), [])


def test_nan_right_hand_side_or_coefficient_raises_with_an_objective():
    nan = float("nan")
    for row in (Constraint((1.0, 1.0), ">=", nan), Constraint((1.0, nan), ">=", 1.0)):
        lp = LinearProgram(2, (1.0, 1.0), (row, Constraint((1.0, 0.0), "<=", 3.0)))
        with pytest.raises(LpNumericalError, match="NaN"):
            lp_solve(lp)


@pytest.mark.parametrize("rel, bound, status", [
    ("<=", float("inf"), "optimal"), (">=", -float("inf"), "optimal"),
    ("<=", -float("inf"), "infeasible"), (">=", float("inf"), "infeasible"),
    ("=", float("inf"), "infeasible"), ("=", -float("inf"), "infeasible")])
def test_infinite_rows_are_vacuous_or_infeasible(rel, bound, status):
    # runs under the suite's warnings-as-errors: no inf - inf reaches the tableau
    row = Constraint((1.0, 1.0), rel, bound)
    boxed = LinearProgram(2, (1.0, 1.0), (row,), bounds=((0.0, 3.0), (0.0, 3.0)))
    capped = LinearProgram(2, (1.0, 1.0), (row, Constraint((1.0, 0.0), "<=", 3.0),
                                           Constraint((0.0, 1.0), "<=", 3.0)))
    for lp in (boxed, capped):
        result = lp_solve(lp)
        assert result.status == status
        if status == "optimal":
            assert result.point == (3.0, 3.0)


def test_the_drive_out_pivots_on_a_rows_first_entry():
    # min c.x over x >= 0 with r1: k x0 - x1 = 0, r2 = -r1 and r3: x2 = 1.
    # The sums of r1 and r2 cancel, so phase 1 pivots x2 in for r3 and ends
    # with r1's and r2's artificials basic at 0. The drive-out pivots r1 on
    # x0, its first entry beyond _EPS, and r2 becomes redundant (held by the
    # zero column). Both bases with x0 or x1 in r1 are optimal, since x1 = k x0
    # and c0 + k c1 > 0, so r1's multiplier tells which one the drive-out
    # took: B^T y = c_B gives k y1 = c0 on x0 and -y1 = c1 on x1. The last LP
    # of the stack, r2: x0 + x1 = 0, leaves no artificial to drive out.
    c, b = np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 1.0])
    a = np.array([[[k, -1.0, 0.0], [-k, 1.0, 0.0], [0.0, 0.0, 1.0]] for k in (1.0, 2.0, 1.0)])
    a[2, 1] = [1.0, 1.0, 0.0]
    results = convex_kernel._solve(c, a, np.zeros(3), b, np.zeros(3), np.full(3, np.inf),
                                   maximize=False)
    assert [r.point for r in results] == [(0.0, 0.0, 1.0)] * 3
    assert [r.duals for r in results[:2]] == [(1.0, 0.0, 3.0), (0.5, 0.0, 3.0)]


def _random_stack(rng, size):
    """A stack of LPs sharing c, b, relations and bounds, each with its own A.

    Two equality rows with one right-hand side come first; in about half the
    LPs the second repeats the first, which leaves a redundant row for phase
    1 to drive out or drop. A third of the right-hand sides are 0, so ratio
    tests tie at 0.
    """
    n, m = int(rng.integers(1, 6)), int(rng.integers(2, 7))
    rel = np.array([0.0, 0.0, *rng.choice([1.0, 0.0, -1.0], size=m - 2)])
    lo = rng.normal(size=n)
    kinds = rng.integers(0, 5, size=n)  # default, lower, free, upper-only, boxed
    lower = np.select([kinds == 0, kinds == 1, kinds == 4], [0.0, lo, lo], -np.inf)
    upper = np.select([kinds == 3, kinds == 4], [lo, lo + rng.uniform(0.0, 3.0, n)], np.inf)
    a = rng.normal(size=(size, m, n)).round(1)
    a[rng.random((size, m, n)) < 0.2] = 0.0
    b = np.where(rng.random(m) < 0.3, 0.0, rng.normal(size=m) * 2.0)
    b[1] = b[0]
    repeat = rng.random(size) < 0.5
    a[repeat, 1] = a[repeat, 0]
    c = rng.normal(size=n).round(2) * (rng.random() >= 0.1)
    return c, a, rel, b, lower, upper, bool(rng.integers(0, 2))


def _one_by_one(c, a, rel, b, lower, upper, maximize):
    return [repr(*convex_kernel._solve(c, a[i], rel, b, lower, upper, maximize))
            for i in range(len(a))]


@pytest.mark.parametrize("stack_cells", [convex_kernel._STACK_CELLS, 200])
def test_a_stack_of_lps_gives_each_lp_its_own_result(stack_cells, monkeypatch):
    # every LP of a stack must come out as it does alone, bit for bit and
    # multipliers included; a small cell budget splits the stacks into slices
    monkeypatch.setattr(convex_kernel, "_STACK_CELLS", stack_cells)
    rng = np.random.default_rng(8)
    seen, mixed = Counter(), 0
    for trial in range(150):
        lps = _random_stack(rng, int(rng.integers(1, 12)))
        if trial % 10 == 0:  # a row bounded by an infinity, in every LP
            lps[3][-1] = np.inf * lps[2][-1] if lps[2][-1] else np.inf
        stacked = convex_kernel._solve(*lps)
        assert [repr(r) for r in stacked] == _one_by_one(*lps), f"trial {trial}"
        statuses = {r.status for r in convex_kernel._solved(stacked)}
        seen.update(statuses)
        mixed += len(statuses) == 3
    assert min(seen.values()) >= 20 and mixed >= 3, (seen, mixed)
    # more trials, until a pivot cap stops some LPs of the stack and not
    # others: a shared c and b make it stop all or none of some stacks
    monkeypatch.setattr(convex_kernel, "_MAX_PIVOTS", 3)
    for _ in range(10):
        lps = _random_stack(rng, 11)
        stacked = convex_kernel._solve(*lps)
        assert [repr(r) for r in stacked] == _one_by_one(*lps)
        capped = [isinstance(r, LpNumericalError) for r in stacked]
        if any(capped) and not all(capped):
            break
    assert any(capped) and not all(capped), stacked
    # and a stack of one that the cap stops
    c, a, rel, b, lower, upper, maximize = lps
    i = capped.index(True)
    lone = convex_kernel._solve(c, a[i:i + 1], rel, b, lower, upper, maximize)
    assert [repr(r) for r in lone] == [repr(stacked[i])]
    with pytest.raises(LpNumericalError, match="pivot cap"):
        convex_kernel._solved(lone)


@pytest.mark.parametrize("stack_cells", [convex_kernel._STACK_CELLS, 200])
def test_a_stack_of_lps_gives_each_lp_its_own_multipliers(stack_cells, monkeypatch):
    # the trials above, multipliers alone: every LP keeps its place in the
    # stack, so its multipliers come out as they do alone, bit for bit, and
    # most optimal LPs have a nonzero one
    monkeypatch.setattr(convex_kernel, "_STACK_CELLS", stack_cells)
    rng = np.random.default_rng(8)
    certified = 0
    for trial in range(150):
        lps = _random_stack(rng, int(rng.integers(1, 12)))
        if trial % 10 == 0:  # a row bounded by an infinity, in every LP
            lps[3][-1] = np.inf * lps[2][-1] if lps[2][-1] else np.inf
        c, a, rel, b, lower, upper, maximize = lps
        alone = [convex_kernel._solve(c, a[i], rel, b, lower, upper, maximize)[0].duals
                 for i in range(len(a))]
        stacked = [r.duals for r in convex_kernel._solve(*lps)]
        assert stacked == alone, f"trial {trial}"
        certified += sum(d is not None and any(d) for d in stacked)
    assert certified >= 100, certified


def test_crossed_bounds_make_every_lp_infeasible():
    # max x + y s.t. x + y <= 4 and 2 <= x <= 1, alone and as a stack of two
    row = Constraint((1.0, 1.0), "<=", 4.0)
    assert lp_solve(LinearProgram(2, (1.0, 1.0), (row,), bounds=((2.0, 1.0), (0.0, None)))) \
        == convex_kernel.LpResult("infeasible", None, None)
    stacked = convex_kernel._solve(np.ones(2), np.array([[[1.0, 1.0]], [[1.0, -1.0]]]),
                                   np.ones(1), np.array([4.0]), np.array([2.0, 0.0]),
                                   np.array([1.0, np.inf]))
    assert stacked == [convex_kernel.LpResult("infeasible", None, None)] * 2


@pytest.mark.parametrize("bounds", [((None, -np.inf),), ((-np.inf, -np.inf),),
                                    ((np.inf, None),), ((np.inf, np.inf),)],
                         ids=("upper -inf", "both -inf", "lower +inf", "both +inf"))
@pytest.mark.parametrize("objective", [(1.0,), None], ids=("objective", "feasibility"))
def test_an_infinite_bound_on_its_wrong_side_is_crossed(bounds, objective):
    # x <= -inf or x >= +inf holds for no x
    lp = LinearProgram(1, objective, (Constraint((1.0,), "<=", 5.0),), bounds=bounds)
    assert lp_solve(lp) == convex_kernel.LpResult("infeasible", None, None)


def test_a_failing_lp_fails_in_its_own_place():
    # NaNs in the matrices of LPs 3 and 5 of a stack: their places hold the
    # error, every other LP's result is its lone one, and lp_solve on a NaN
    # LP still raises; a NaN right-hand side, which every LP shares, fails
    # every LP
    rng = np.random.default_rng(9)
    c, a, rel, b, lower, upper, maximize = _random_stack(rng, 6)
    a[3, 0, 0] = np.nan
    a[5, 1, -1] = np.nan
    stacked = convex_kernel._solve(c, a, rel, b, lower, upper, maximize)
    nan = repr(LpNumericalError("constraint coefficients and bounds must not be NaN"))
    assert [repr(stacked[i]) for i in (3, 5)] == [nan, nan]
    assert [repr(r) for r in stacked] == _one_by_one(c, a, rel, b, lower, upper, maximize)
    assert all(isinstance(stacked[i], convex_kernel.LpResult) for i in (0, 1, 2, 4))
    with pytest.raises(LpNumericalError) as raised:  # the first in stack order
        convex_kernel._solved(stacked)
    assert raised.value is stacked[3]
    with pytest.raises(LpNumericalError, match="must not be NaN"):
        lp_solve(LinearProgram(1, (1.0,), (Constraint((np.nan,), "<=", 1.0),)))
    b[-1] = np.nan
    stacked = convex_kernel._solve(c, a, rel, b, lower, upper, maximize)
    assert [repr(r) for r in stacked] == [nan] * 6


def test_an_infinite_coefficient_fails_its_own_lp():
    # an infinite entry of a constraint matrix fails its LP by name, alone
    # and in a stack, where every other LP keeps its lone result
    inf = np.inf
    for coeffs, rel, bound in (((inf,), "<=", 1.0), ((-inf,), ">=", 1.0), ((inf,), "=", 0.0)):
        for objective in ((1.0,), None):
            lp = LinearProgram(1, objective, (Constraint(coeffs, rel, bound),))
            with pytest.raises(LpNumericalError, match="must not be infinite"):
                lp_solve(lp)
    c, a, rel, b, lower, upper, maximize = _random_stack(np.random.default_rng(9), 4)
    a[2, 0, 0] = -inf
    stacked = convex_kernel._solve(c, a, rel, b, lower, upper, maximize)
    infinite = LpNumericalError("constraint coefficients must not be infinite")
    assert repr(stacked[2]) == repr(infinite)
    assert [repr(r) for r in stacked] == _one_by_one(c, a, rel, b, lower, upper, maximize)
    assert all(isinstance(stacked[i], convex_kernel.LpResult) for i in (0, 1, 3))


def test_infinite_rows_keep_the_stack_whole(monkeypatch):
    # max x + y s.t. x + y <= inf, x - y >= -inf, x <= 3, y <= 3 over a
    # stack of three matrices: both infinite rows hold for every x, and the
    # stack enters the kernel once. With the first row <= -inf instead, it
    # holds for no x, and every LP is infeasible
    inf = np.inf
    c, rel = np.ones(2), np.array([1.0, -1.0, 1.0, 1.0])
    lower, upper = np.zeros(2), np.full(2, inf)
    a = np.array([[[1.0, 1.0], [1.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
                  [[1.0, 1.0], [1.0, -1.0], [1.0, 0.0], [0.0, 2.0]],
                  [[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0], [0.0, 1.0]]])
    entries = []
    solve_stack = convex_kernel._solve_stack
    monkeypatch.setattr(convex_kernel, "_solve_stack",
                        lambda *args, **kw: entries.append(1) or solve_stack(*args, **kw))
    for b, statuses in (([inf, -inf, 3.0, 3.0], ["optimal", "optimal", "unbounded"]),
                        ([-inf, -inf, 3.0, 3.0], ["infeasible"] * 3)):
        b = np.array(b)
        alone = [repr(*convex_kernel._solve(c, matrix, rel, b, lower, upper)) for matrix in a]
        entries.clear()
        stacked = convex_kernel._solve(c, a, rel, b, lower, upper)
        assert len(entries) == 1
        assert [repr(r) for r in stacked] == alone
        assert [r.status for r in stacked] == statuses
    stacked = convex_kernel._solve(c, a, rel, np.array([inf, -inf, 3.0, 3.0]), lower, upper)
    assert stacked[0].point == (3.0, 3.0) and stacked[0].duals[:2] == (0.0, 0.0)
    assert stacked[1].point == (3.0, 1.5)


SQUARE = Polytope([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


@pytest.mark.parametrize("call, error", [
    (lambda: Polytope([[0, 1], [1]]), DegenerateModel),
    (lambda: Polytope([["a", "b"]]), DegenerateModel),
    (lambda: Constraint((1, "a"), "<=", 1), DimensionMismatch),
    (lambda: LinearProgram(1, ("x",), ()), DimensionMismatch),
    (lambda: LinearProgram(1, None, (), bounds=((0.0,),)), DimensionMismatch),
    (lambda: membership(["a", "b"], SQUARE), DimensionMismatch),
    (lambda: convex_weights(["a", "b"], SQUARE), DimensionMismatch),
    (lambda: topk_weight_max(decomposition_program(SQUARE.as_array(), [0.5, 0.5]), ["a"]),
     DimensionMismatch),
    (lambda: normalize(["a"]), InvalidProbVector),
    (lambda: make_preset(None), BadParameter),
    (lambda: make_preset("renyi", "x"), BadParameter),
    (lambda: pair_from_spec(None), BadParameter),
    (lambda: pair_from_spec(5), BadParameter),
    (lambda: Povm(None), InvalidPovm),
    (lambda: entropy_upper_bound(make_preset("shannon"), "a"), BadParameter),
    (lambda: entropy_upper_bound(make_preset("shannon"), 2.5), BadParameter),
    (lambda: lp_solve(LinearProgram(1, (1.0,), (), bounds=(("a", 2.0),))), DimensionMismatch),
    (lambda: decomposition_program([[0, 1], [1]], [0.5, 0.5]), DimensionMismatch),
    (lambda: topk_weight_max(decomposition_program(SQUARE.as_array(), [0.5, 0.5]), [1.5]),
     DimensionMismatch),
    (lambda: perfectly_distinguishable(build_model("simplex", n=3),
                                       [GptState((1.0, 1.0)), GptState((0.0, 1.0))]),
     DimensionMismatch),
    (lambda: LinearProgram(-1, None, ()), DimensionMismatch),
    (lambda: LinearProgram(2.5, None, ()), DimensionMismatch),
    (lambda: LinearProgram("2", None, ()), DimensionMismatch),
    (lambda: LinearProgram(None, None, ()), DimensionMismatch),
    # max inf·x s.t. x <= 1 has no finite optimum to report
    (lambda: LinearProgram(1, (np.inf,), (Constraint((1.0,), "<=", 1.0),)), DimensionMismatch),
    (lambda: LinearProgram(1, (np.nan,), (Constraint((1.0,), "<=", 1.0),)), DimensionMismatch),
], ids=["ragged polytope", "text polytope", "text coefficient", "text objective",
        "short bounds pair", "text membership point", "text weights point", "text subset",
        "text weight", "no preset name", "text renyi parameter", "no pair spec",
        "numeric pair spec", "no povm effects", "text support size",
        "fractional support size", "text variable bound", "ragged decomposition vertices",
        "fractional subset index", "states of another dimension", "negative n_vars",
        "fractional n_vars", "text n_vars", "no n_vars", "infinite objective", "NaN objective"])
def test_library_entry_points_raise_validation_errors(call, error):
    assert issubclass(error, ValidationError)
    with pytest.raises(error):
        call()
