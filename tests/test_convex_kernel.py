from collections import Counter

import numpy as np
import pytest

from convexinfo import Constraint, LinearProgram, Polytope, lp_solve, membership, topk_weight_max
from convexinfo.convex_kernel import RELATIONS, convex_weights, decomposition_program
from convexinfo.errors import DegenerateModel, InfeasibleDecomposition, LpNumericalError, TooLarge

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
