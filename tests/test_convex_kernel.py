import numpy as np
import pytest

from convexinfo import Constraint, LinearProgram, Polytope, lp_solve, membership, topk_weight_max
from convexinfo.convex_kernel import convex_weights, decomposition_program
from convexinfo.errors import DegenerateModel, InfeasibleDecomposition, LpNumericalError, TooLarge

from oracles import scipy_lp_reference


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
