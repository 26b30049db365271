import copy
import itertools
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from convexinfo import (
    JointState,
    ProductSpace,
    build_model,
    classical_collapse_check,
    classify_joint,
    enumerate_frames,
    is_separable,
    make_state,
    max_tensor_member,
    min_tensor_vertices,
    mix_state,
    pr_box,
    product_state,
    separable_witness,
    vertex_state,
)
from convexinfo import convex_kernel
from convexinfo.convex_kernel import FEAS_TOL, decomposition_program, lp_solve
from convexinfo.errors import (
    DimensionMismatch,
    NotAState,
    NotNormalized,
    TooLarge,
    UnsupportedModel,
)
from convexinfo.probvec import TOL
from oracles import scipy_lp_reference

#: Affinely independent points: a classical factor that is not a simplex.
TRIANGLE = [[0.0, 0.0], [2.0, 0.3], [0.4, 1.5]]


@pytest.fixture(scope="module")
def square_pair():
    square = build_model("regular_polygon", n=4)
    return ProductSpace(square, square)


def _random_mixture(ps, rng, terms=4):
    va, vb = ps.factor_a.n_vertices, ps.factor_b.n_vertices
    weights = rng.dirichlet(np.ones(terms))
    table = np.zeros(ps.joint_shape)
    for w in weights:
        a = ps.factor_a.vertex_array()[rng.integers(va)]
        b = ps.factor_b.vertex_array()[rng.integers(vb)]
        table += w * np.outer(a, b)
    return JointState(table)


def test_product_state_factorizes(square_pair, rng):
    ps = square_pair
    for _ in range(10):
        nu_a = mix_state(ps.factor_a, rng.dirichlet(np.ones(4)))
        nu_b = mix_state(ps.factor_b, rng.dirichlet(np.ones(4)))
        omega = product_state(nu_a, nu_b)
        for fa in enumerate_frames(ps.factor_a):
            for ea in fa.effects:
                for fb in enumerate_frames(ps.factor_b):
                    for eb in fb.effects:
                        lhs = omega.evaluate(ea, eb)
                        rhs = (ea.as_array() @ nu_a.as_array()) * \
                              (eb.as_array() @ nu_b.as_array())
                        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_product_of_centers_evaluates_quarter(square_pair):
    ps = square_pair
    center_a = mix_state(ps.factor_a, [0.25] * 4)
    center_b = mix_state(ps.factor_b, [0.25] * 4)
    omega = product_state(center_a, center_b)
    for fa in enumerate_frames(ps.factor_a):
        for fb in enumerate_frames(ps.factor_b):
            for ea in fa.effects:
                for eb in fb.effects:
                    assert omega.evaluate(ea, eb) == pytest.approx(0.25, abs=1e-9)


def test_product_of_uniform_simplex_states():
    seg = build_model("simplex", n=2)
    ps = ProductSpace(seg, seg)
    uniform = mix_state(seg, [0.5, 0.5])
    omega = product_state(uniform, uniform)
    frame = enumerate_frames(seg)[0]
    for ea in frame.effects:
        for eb in frame.effects:
            assert omega.evaluate(ea, eb) == pytest.approx(0.25, abs=1e-12)


def test_min_tensor_vertex_counts(square_pair):
    seg = build_model("simplex", n=2)
    square = square_pair.factor_a
    assert len(min_tensor_vertices(ProductSpace(seg, seg)).vertices) == 4
    assert len(min_tensor_vertices(square_pair).vertices) == 16
    assert len(min_tensor_vertices(ProductSpace(seg, square)).vertices) == 8
    big = build_model("simplex", n=9)
    with pytest.raises(TooLarge):
        min_tensor_vertices(ProductSpace(big, seg))


def test_min_tensor_vertices_equal_the_outer_product_loop(square_pair):
    ps = ProductSpace(square_pair.factor_a, build_model("simplex", n=3))
    loop = [np.outer(a, b).reshape(-1)
            for a in ps.factor_a.vertex_array() for b in ps.factor_b.vertex_array()]
    assert np.array_equal(min_tensor_vertices(ps).as_array(), np.asarray(loop))


def test_max_tensor_member_matches_the_effect_pair_loop(square_pair, rng):
    # no classical factor: the frame-effect pairs define max-tensor membership
    ps = ProductSpace(square_pair.factor_a, build_model("regular_polygon", n=5))

    def effects(space):
        return [np.zeros(space.dim), space.unit()] + [
            e.as_array() for frame in enumerate_frames(space) for e in frame.effects]

    centre = np.outer(ps.factor_a.vertex_array().mean(axis=0),
                      ps.factor_b.vertex_array().mean(axis=0))
    verdicts = []
    for scale in np.linspace(0.0, 0.4, 40):
        table = centre + rng.normal(scale=scale, size=ps.joint_shape)
        table[-1, -1] = 1.0
        loop = all(-TOL <= ea @ table @ eb <= 1.0 + TOL
                   for ea in effects(ps.factor_a) for eb in effects(ps.factor_b))
        verdicts.append(max_tensor_member(ps, JointState(table)))
        assert verdicts[-1] == loop
    assert any(verdicts) and not all(verdicts)


def test_joint_vertex_is_min_tensor_vertex(square_pair):
    ps = square_pair
    omega = product_state(vertex_state(ps.factor_a, 1), vertex_state(ps.factor_b, 3))
    flat = omega.as_array().reshape(-1)
    vertices = np.asarray(min_tensor_vertices(ps).vertices)
    assert any(np.allclose(flat, v, atol=1e-12) for v in vertices)


def test_products_and_mixtures_are_separable(square_pair, rng):
    ps = square_pair
    for _ in range(20):
        omega = _random_mixture(ps, rng, terms=int(rng.integers(1, 6)))
        witness = separable_witness(ps, omega)
        assert witness is not None
        recon = np.zeros(ps.joint_shape)
        va = ps.factor_a.vertex_array()
        vb = ps.factor_b.vertex_array()
        for (a, b), w in witness:
            recon += w * np.outer(va[a], vb[b])
        assert np.max(np.abs(recon - omega.as_array())) <= 1e-8


def test_two_term_mixture_weights_recovered(square_pair):
    ps = square_pair
    va = ps.factor_a.vertex_array()
    vb = ps.factor_b.vertex_array()
    omega = JointState(0.5 * np.outer(va[0], vb[0]) + 0.5 * np.outer(va[2], vb[2]))
    witness = separable_witness(ps, omega)
    assert witness is not None
    weights = {pair: w for pair, w in witness}
    assert weights[(0, 0)] == pytest.approx(0.5, abs=1e-8)
    assert weights[(2, 2)] == pytest.approx(0.5, abs=1e-8)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-8)


def test_pr_box_table(square_pair):
    box = pr_box(square_pair)
    # frozen from the no-signaling conditions on the symmetric frame effects
    assert np.allclose(box.as_array(),
                       [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-9)


def test_pr_box_is_entangled_but_max_consistent(square_pair):
    box = pr_box(square_pair)
    assert not is_separable(square_pair, box)
    assert max_tensor_member(square_pair, box)
    assert classify_joint(square_pair, box) == "entangled"


def test_pr_box_violates_the_product_correlation_bound(square_pair):
    # bilinear witness: correlator combination attains 4 on the box while the
    # enumerated separable maximum is 1 (products of unit-circle vertices)
    ps = square_pair
    frames_a = enumerate_frames(ps.factor_a)
    frames_b = enumerate_frames(ps.factor_b)

    def correlator(omega, fa, fb):
        values = [[omega.evaluate(ea, eb) for eb in fb.effects] for ea in fa.effects]
        return values[0][0] - values[0][1] - values[1][0] + values[1][1]

    def chsh(omega):
        return (correlator(omega, frames_a[0], frames_b[0])
                + correlator(omega, frames_a[0], frames_b[1])
                + correlator(omega, frames_a[1], frames_b[0])
                - correlator(omega, frames_a[1], frames_b[1]))

    separable_bound = max(
        chsh(product_state(vertex_state(ps.factor_a, i), vertex_state(ps.factor_b, j)))
        for i in range(4) for j in range(4))
    assert separable_bound == pytest.approx(1.0, abs=1e-9)
    assert chsh(pr_box(ps)) == pytest.approx(4.0, abs=1e-9)


def test_min_tensor_vertices_pass_max_membership(square_pair):
    ps = square_pair
    for v in min_tensor_vertices(ps).vertices:
        omega = JointState(np.asarray(v).reshape(ps.joint_shape))
        assert max_tensor_member(ps, omega)


def test_negative_frame_product_entry_fails_max_membership(square_pair):
    ps = square_pair
    frames = enumerate_frames(ps.factor_a)
    basis = np.asarray([frames[0].effects[0].as_array(),
                        frames[1].effects[0].as_array(),
                        ps.factor_a.unit()])
    m = np.array([[0.5, 0.5, 0.5], [0.5, -0.05, 0.5], [0.5, 0.5, 1.0]])
    table = np.linalg.solve(basis, np.linalg.solve(basis, m.T).T)
    omega = JointState(table)
    assert not max_tensor_member(ps, omega)
    assert classify_joint(ps, omega) == "not-a-state"


@pytest.mark.parametrize("side", ["a", "b"])
def test_a_marginal_outside_its_factor_fails_max_membership(square_pair, side):
    # (0.9, 0.9) passes the square's frame effects (1 +- x)/2 and (1 +- y)/2,
    # which bound |x|, |y| <= 1, but lies outside the model's |x| + |y| <= 1
    ps = square_pair
    with pytest.raises(NotAState):
        make_state(ps.factor_a, [0.9, 0.9])
    vertex = ps.factor_b.vertex_array()[0]
    table = np.outer([0.9, 0.9, 1.0], vertex)
    omega = JointState(table if side == "a" else table.T)
    frame_effects = np.array([[0.0, 0.0, 0.0], ps.factor_a.unit(), *(
        e.as_array() for frame in enumerate_frames(ps.factor_a) for e in frame.effects)])
    values = frame_effects @ omega.as_array() @ frame_effects.T
    assert values.min() >= -TOL and values.max() <= 1.0 + TOL
    assert not max_tensor_member(ps, omega)
    assert classify_joint(ps, omega) == "not-a-state"


def test_max_tensor_membership_without_a_classical_factor_solves_no_basis(monkeypatch):
    # the marginals are read off each factor's facet effects
    from convexinfo.gpt_models import StateSpace

    def solved(*args):
        raise AssertionError("a basis solve ran")

    monkeypatch.setattr(StateSpace, "_basic_solutions", solved)
    square = build_model("regular_polygon", n=4)
    ps = ProductSpace(square, square)
    box = pr_box(ps)
    assert max_tensor_member(ps, box) and classify_joint(ps, box) == "entangled"
    outside = JointState(np.outer([0.9, 0.9, 1.0], square.vertex_array()[0]))
    assert not max_tensor_member(ps, outside)
    assert classify_joint(ps, outside) == "not-a-state"


def test_effect_rows_are_built_once_and_read_only(monkeypatch):
    # each factor's unit and frame effects are one array built on first use;
    # membership tests read it and list no frames
    from convexinfo import composites

    def listed(space):
        raise AssertionError("the frames were listed")

    pentagon, heptagon = (build_model("regular_polygon", n=n) for n in (5, 7))
    want = [np.array([space.unit(), *(e.as_array() for frame in enumerate_frames(space)
                                      for e in frame.effects)]) for space in (pentagon, heptagon)]
    monkeypatch.setattr(composites, "enumerate_frames", listed)
    ps = ProductSpace(pentagon, heptagon)
    omega = product_state(vertex_state(pentagon, 0), vertex_state(heptagon, 3))
    assert max_tensor_member(ps, omega) and classify_joint(ps, omega) == "separable"
    for space, rows in zip((pentagon, heptagon), want):
        assert space._extreme_effects is space._extreme_effects
        assert np.array_equal(space._extreme_effects, rows)
        assert not space._extreme_effects.flags.writeable


def _earlier_max_tensor_member(ps, table) -> tuple[bool, bool]:
    """Max-tensor membership by its earlier definition: whether every pair of the
    zero, unit and frame effects is in [0, 1] (within ``TOL``), and whether both
    marginals are also states of their factors (``make_state``)."""
    effects = [np.array([np.zeros(space.dim), space.unit(), *(
        e.as_array() for frame in enumerate_frames(space) for e in frame.effects)])
        for space in (ps.factor_a, ps.factor_b)]
    values = effects[0] @ table @ effects[1].T
    if not (values.min() >= -TOL and values.max() <= 1.0 + TOL):
        return False, False
    try:
        make_state(ps.factor_a, table[:-1, -1])
        make_state(ps.factor_b, table[-1, :-1])
    except NotAState:
        return True, False
    return True, True


@pytest.mark.parametrize("pair", [
    ("polygon4", "polygon4"), ("polygon4", "polygon5"), ("polygon5", "polygon7"),
    ("polygon7", "polygon7"), ("custom2d6", "polygon5")], ids="x".join)
def test_max_tensor_verdicts_equal_the_earlier_definition(pair):
    # random tables, and each facet's centroid moved toward the model's centre
    # by eps (outward when eps < 0) times a vertex and the centre of the other
    # factor, on either side
    factors = [build_model("custom_polytope",
                           vertices=np.random.default_rng(4).normal(size=(6, 2)))
               if label == "custom2d6" else _factor(label) for label in pair]
    ps, rng = ProductSpace(*factors), np.random.default_rng(5)
    assert ps._classical is None
    tables = []
    for _ in range(500):
        table = rng.uniform(-1.0, 1.0, size=ps.joint_shape)
        table[-1, -1] = 1.0
        tables.append(table)
    for side, (space, other) in enumerate((factors, factors[::-1])):
        v, w = space.vertex_array(), other.vertex_array()
        for mask in space._facets[1].tolist():
            centroid = v[[i for i in range(len(v)) if mask >> i & 1]].mean(axis=0)
            for eps in (1e-6, 1e-9, 0.0, -1e-9, -1e-6):
                point = centroid + eps * (v.mean(axis=0) - centroid)
                for partner in (w[0], w.mean(axis=0)):
                    table = np.outer(point, partner)
                    tables.append(table if side == 0 else table.T)
    passing_pairs_only = 0
    for table in tables:
        pairs_pass, earlier = _earlier_max_tensor_member(ps, table)
        omega = JointState(table)
        assert max_tensor_member(ps, omega) == earlier
        assert (classify_joint(ps, omega) == "not-a-state") == (not earlier)
        passing_pairs_only += pairs_pass and not earlier
    assert passing_pairs_only > 0


def test_separability_invariant_under_vertex_relabeling(square_pair, rng):
    ps = square_pair
    relabeled = build_model(
        "custom_polytope",
        vertices=[v[:-1] for v in np.asarray(ps.factor_a.vertices)[[2, 0, 3, 1]]])
    ps_perm = ProductSpace(relabeled, ps.factor_b)
    for _ in range(10):
        omega = _random_mixture(ps, rng)
        assert is_separable(ps_perm, omega) == is_separable(ps, omega)
    box = pr_box(ps)
    assert not is_separable(ps_perm, box)


def test_table_of_the_swapped_product_is_rejected():
    # a square x simplex3 state has a 3 x 4 table: the same 12 cells as the
    # 4 x 3 tables of simplex3 x square, but not one of them
    simplex3, square = build_model("simplex", n=3), build_model("regular_polygon", n=4)
    omega = product_state(vertex_state(square, 0), vertex_state(simplex3, 1))
    ps = ProductSpace(simplex3, square)
    for check in (separable_witness, is_separable, max_tensor_member):
        with pytest.raises(DimensionMismatch):
            check(ps, omega)


def test_joint_state_normalization():
    with pytest.raises(NotNormalized):
        JointState(np.zeros((3, 3)))


def test_classical_collapse_simplex_pairs():
    sizes = [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (3, 4)]
    for na, nb in sizes:
        a = build_model("simplex", n=na)
        b = build_model("simplex", n=nb)
        assert classical_collapse_check(a, b), f"simplex({na}) x simplex({nb})"


@pytest.mark.parametrize("dropped", [0, 5, 8])
def test_classical_collapse_fails_when_a_point_mass_matches_no_product(monkeypatch, dropped):
    # with one vertex product left out, the point mass that it was matches
    # none of the others, and every other point mass still matches its own
    products = ProductSpace._products
    monkeypatch.setattr(ProductSpace, "_products", property(
        lambda ps: np.delete(products.func(ps), dropped, axis=0)))
    assert not classical_collapse_check(build_model("simplex", n=3), build_model("simplex", n=3))


def test_classical_collapse_square_pair_fails(square_pair):
    assert not classical_collapse_check(square_pair.factor_a, square_pair.factor_b)


def test_classical_collapse_guards():
    with pytest.raises(TooLarge):
        classical_collapse_check(build_model("simplex", n=5), build_model("simplex", n=4))
    with pytest.raises(UnsupportedModel):
        classical_collapse_check(build_model("simplex", n=2),
                                 build_model("regular_polygon", n=4))


@pytest.mark.parametrize("models, table", [
    (("regular_polygon", 4), [[1e308, 0, 0], [0, 1e308, 0], [0, 0, 1]]),
    # in the first factor's span (the last row sums the others), so the
    # conditional-state LPs see the vast entries
    (("simplex", 3), [[0, 0, 0, 1e308], [1e308, 0, 0, -1e308], [0, 0, 0, 1], [1e308, 0, 0, 1]]),
], ids=("square", "simplex3"))
def test_tables_near_the_largest_float_settle_without_a_warning(models, table):
    # a warning fails the test (pyproject's filterwarnings): the phase-1
    # residual of these LPs overflows
    space = build_model(models[0], n=models[1])
    ps, omega = ProductSpace(space, space), JointState(table)
    assert separable_witness(ps, omega) is None
    assert classify_joint(ps, omega) == "not-a-state"


#: perfbench's reference custom models, by label (custom2d6, custom3d8, ...).
REFERENCE_CUSTOM = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                               / "reference.json").read_text())["custom"]


def _factor(label):
    if label == "triangle":
        return build_model("custom_polytope", vertices=TRIANGLE)
    if label in REFERENCE_CUSTOM:
        return build_model("custom_polytope", vertices=REFERENCE_CUSTOM[label])
    kind = "simplex" if label.startswith("simplex") else "regular_polygon"
    return build_model(kind, n=int(label[7:]))  # simplexN or polygonN


CLASSICAL_PAIRS = (("simplex3", "polygon5"), ("polygon6", "simplex4"), ("simplex3", "simplex4"),
                   ("triangle", "polygon5"))


def _decomposition_verdict(ps, table) -> bool:
    """The LP referee: the decomposition LP over the vertex products, by ``lp_solve``."""
    return lp_solve(decomposition_program(ps._products, table.reshape(-1))).status == "optimal"


@pytest.mark.parametrize("pair", CLASSICAL_PAIRS, ids="x".join)
def test_conditional_states_agree_with_the_decomposition_lp(pair):
    ps = ProductSpace(*map(_factor, pair))
    va, vb = ps.factor_a.vertex_array(), ps.factor_b.vertex_array()
    side = ps._classical[0]
    rng = np.random.default_rng(19)
    verdicts = []
    for k in range(90):
        table = va.T @ rng.dirichlet(np.full(va.shape[0] * vb.shape[0], 0.3)).reshape(
            len(va), len(vb)) @ vb
        if k % 3 == 1:
            # move the classical factor's unit row (or column): for a simplex
            # the table leaves its span
            unit = table[-1, :-1] if side == 0 else table[:-1, -1]
            unit += rng.normal(scale=0.05, size=unit.shape)
        elif k % 3 == 2:
            table += rng.normal(scale=0.5, size=table.shape)  # mostly not a state
        table[-1, -1] = 1.0
        witness = separable_witness(ps, JointState(table))
        verdicts.append(witness is not None)
        assert verdicts[-1] == _decomposition_verdict(ps, table), k
        if witness is not None:
            recon = sum(w * np.outer(va[a], vb[b]) for (a, b), w in witness)
            assert np.abs(recon - table).max() <= 1e-8
            assert all(w > 0 for _, w in witness)
    assert 30 <= sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("pair", CLASSICAL_PAIRS, ids="x".join)
def test_max_tensor_members_of_a_classical_pair_are_separable(pair):
    # a classical factor makes the minimal and maximal tensor sets coincide:
    # a member's conditional states, one per outcome, are states of the other
    # factor scaled by the outcome's probability, here on its boundary too
    ps = ProductSpace(*map(_factor, pair))
    side = ps._classical[0]
    classical, other = (ps.factor_a, ps.factor_b)[::1 if side == 0 else -1]
    vc, vo = classical.vertex_array(), other.vertex_array()
    rng = np.random.default_rng(7)
    outcomes = np.arange(len(vc))
    for k in range(40):
        weights = rng.dirichlet(np.ones(len(vo)), size=len(vc))  # interior points
        if k % 3 == 1:  # points on the edge from vertex j to vertex j + 1
            first, t = rng.integers(len(vo), size=len(vc)), rng.random(len(vc))
            weights = np.zeros_like(weights)
            weights[outcomes, first], weights[outcomes, (first + 1) % len(vo)] = t, 1.0 - t
        elif k % 3 == 2:  # vertices
            weights = np.eye(len(vo))[rng.integers(len(vo), size=len(vc))]
        # some outcomes, never all, get probability 0
        probabilities = rng.dirichlet(np.ones(len(vc)))
        zero = rng.random(len(vc)) < 0.2
        zero[rng.integers(len(vc))] = False
        probabilities[zero] = 0.0
        probabilities /= probabilities.sum()
        table = vc.T @ (probabilities[:, None] * weights) @ vo
        omega = JointState(table if side == 0 else table.T)
        assert max_tensor_member(ps, omega)
        assert classify_joint(ps, omega) == "separable"


def _assert_reconstructs(ps, witness, table):
    va, vb = ps.factor_a.vertex_array(), ps.factor_b.vertex_array()
    assert all(w > TOL for _, w in witness)
    recon = sum(w * np.outer(va[a], vb[b]) for (a, b), w in witness)
    assert np.abs(recon - table).max() <= FEAS_TOL


def test_pairs_without_a_classical_factor_get_checked_cone_weights(rng):
    ps = ProductSpace(build_model("regular_polygon", n=4), build_model("regular_polygon", n=5))
    assert ps._classical is None
    for _ in range(10):
        omega = _random_mixture(ps, rng, terms=3)
        witness = separable_witness(ps, omega)
        assert witness is not None and _decomposition_verdict(ps, omega.as_array())
        _assert_reconstructs(ps, witness, omega.as_array())
    # a vertex product is its own decomposition, with weight exactly 1
    va, vb = ps.factor_a.vertex_array(), ps.factor_b.vertex_array()
    for a, b in itertools.product(range(4), range(5)):
        assert separable_witness(ps, JointState(np.outer(va[a], vb[b]))) == [((a, b), 1.0)]


def test_a_simplex_splits_a_table_into_its_own_rows():
    simplex3, triangle = build_model("simplex", n=3), _factor("triangle")
    polygon, simplex4 = build_model("regular_polygon", n=5), build_model("simplex", n=4)
    side, rows, s, spread, other = ProductSpace(polygon, simplex3)._classical
    assert side == 1 and rows.tolist() == [0, 1, 2]
    assert np.array_equal(s, np.eye(3))
    assert np.array_equal(spread, simplex3.vertex_array().T)
    assert other is polygon
    # both classical: the first factor, whose partner has a single basis
    assert ProductSpace(simplex4, simplex3)._classical[0] == 0
    assert ProductSpace(simplex3, simplex4)._classical[0] == 0
    assert ProductSpace(triangle, polygon)._classical[0] == 0
    ps = ProductSpace(simplex3, polygon)
    assert ps._classical is ps._classical
    for array in ps._classical[1:4]:
        assert not array.flags.writeable


def test_the_factor_cap_holds_with_a_classical_factor():
    ps = ProductSpace(build_model("simplex", n=9), build_model("simplex", n=2))
    omega = JointState(np.outer(ps.factor_a.vertex_array()[0], ps.factor_b.vertex_array()[0]))
    for check in (separable_witness, max_tensor_member, classify_joint):
        with pytest.raises(TooLarge):
            check(ps, omega)


def test_max_tensor_member_keeps_the_factor_cap_without_a_classical_factor():
    # it asks for the classical factor first, which checks the cap
    ps = ProductSpace(build_model("regular_polygon", n=9), build_model("regular_polygon", n=4))
    omega = JointState(np.outer(ps.factor_a.vertex_array()[0], ps.factor_b.vertex_array()[0]))
    with pytest.raises(TooLarge):
        max_tensor_member(ps, omega)


@pytest.mark.parametrize("n", (4, 5, 7))
def test_a_pair_with_a_classical_factor_has_no_entangled_state(n):
    # conditional states at uniform points of the polygon's plane: the frame
    # effects of polygons 4, 5 and 7 do not cut out the polygon, so some of
    # these tables pass every frame-effect pair but lie outside it
    simplex3, polygon = build_model("simplex", n=3), build_model("regular_polygon", n=n)
    ps, rng = ProductSpace(simplex3, polygon), np.random.default_rng(3)
    pair_effects = [np.vstack([np.zeros(space.dim), space.unit()] + [
        e.as_array() for frame in enumerate_frames(space) for e in frame.effects])
        for space in (simplex3, polygon)]
    passing_outside = 0
    for _ in range(300):
        probabilities = rng.dirichlet(np.ones(3))
        points = np.hstack([rng.uniform(-1.2, 1.2, size=(3, 2)), np.ones((3, 1))])
        table = simplex3.vertex_array().T @ (probabilities[:, None] * points)
        table[-1, -1] = 1.0
        verdict = classify_joint(ps, JointState(table))
        assert verdict == ("separable" if _decomposition_verdict(ps, table) else "not-a-state")
        values = pair_effects[0] @ table @ pair_effects[1].T
        passing_outside += verdict == "not-a-state" and values.min() >= -TOL \
            and values.max() <= 1.0 + TOL
    assert passing_outside > 0


def test_a_pair_with_a_classical_factor_enters_no_lp_kernel(monkeypatch):
    def entered(*args):
        raise AssertionError("an LP entered the kernel")

    # frames take LPs, separability none: the factors enumerate theirs first
    square = ProductSpace(_factor("polygon4"), _factor("polygon4"))
    box, pentagon = pr_box(square), _factor("polygon5")
    enumerate_frames(pentagon)
    monkeypatch.setattr(convex_kernel, "_solve_stack", entered)
    rng = np.random.default_rng(5)
    for pair in CLASSICAL_PAIRS:
        ps = ProductSpace(*map(_factor, pair))
        for terms in (1, 3, 6):
            omega = _random_mixture(ps, rng, terms)
            assert separable_witness(ps, omega) is not None
            assert max_tensor_member(ps, omega) and classify_joint(ps, omega) == "separable"
        outside = omega.as_array() + rng.normal(scale=0.5, size=ps.joint_shape)
        outside[-1, -1] = 1.0
        assert classify_joint(ps, JointState(outside)) == "not-a-state"
    # nor does a pair without one: its cone test solves no LP
    for ps in (ProductSpace(square.factor_a, pentagon), square):
        omega = _random_mixture(ps, rng)
        assert is_separable(ps, omega) and classify_joint(ps, omega) == "separable"
    assert classify_joint(square, box) == "entangled"


@pytest.mark.parametrize("pair", CLASSICAL_PAIRS, ids="x".join)
def test_classify_joint_tests_a_classical_pairs_conditional_states_once(pair, monkeypatch):
    from convexinfo import composites
    calls = []
    conditional_weights = composites._conditional_weights

    def counted(*args):
        calls.append(1)
        return conditional_weights(*args)

    monkeypatch.setattr(composites, "_conditional_weights", counted)
    ps, rng = ProductSpace(*map(_factor, pair)), np.random.default_rng(23)
    inside = _random_mixture(ps, rng)
    outside = inside.as_array() + rng.normal(scale=0.5, size=ps.joint_shape)
    outside[-1, -1] = 1.0
    for omega, verdict in ((inside, "separable"), (JointState(outside), "not-a-state")):
        calls.clear()
        assert classify_joint(ps, omega) == verdict
        assert len(calls) == 1


@pytest.mark.parametrize("other", [f"{kind}{n}" for kind in ("simplex", "polygon")
                                   for n in range(3, 9)])
def test_classical_verdicts_near_the_boundary_match_the_decomposition_lp(other):
    # each conditional state is a point of an edge of the other factor (or a
    # vertex), pushed away from its centre or toward it by a small step, so it
    # is a state exactly when no outcome of positive probability is pushed
    # out; one outcome in five gets probability 0
    simplex3, space = _factor("simplex3"), _factor(other)
    vc, vo = simplex3.vertex_array(), space.vertex_array()
    centre = vo.mean(axis=0)
    rng = np.random.default_rng(len(vo) + 10 * other.startswith("simplex"))
    for side in (0, 1):
        ps = ProductSpace(*(simplex3, space)[::1 - 2 * side])
        va, vb = ps.factor_a.vertex_array(), ps.factor_b.vertex_array()
        for _ in range(200):
            weights = np.zeros((3, len(vo)))
            for row in weights:
                edge = rng.choice(len(vo), size=2, replace=False)
                if other.startswith("polygon"):
                    edge[1] = (edge[0] + 1) % len(vo)
                row[edge] = rng.dirichlet(np.ones(2)) if rng.random() < 0.8 else [1.0, 0.0]
            step = rng.choice([-1e-3, -1e-5, 0.0, 1e-5, 1e-3], size=3)
            points = centre + (weights @ vo - centre) * (1.0 + step[:, None])
            probabilities = rng.uniform(0.2, 1.0, size=3)
            probabilities[rng.random(3) < 0.2] = 0.0
            if not probabilities.any():
                probabilities[0] = 1.0
            probabilities /= probabilities.sum()
            table = vc.T @ (probabilities[:, None] * points)
            table = table if side == 0 else table.T
            table[-1, -1] = 1.0
            inside = not ((step > 0) & (probabilities > 0)).any()
            witness = separable_witness(ps, JointState(table))
            assert (witness is not None) == inside == _decomposition_verdict(ps, table)
            if witness is not None:
                recon = sum(w * np.outer(va[a], vb[b]) for (a, b), w in witness)
                assert np.abs(recon - table).max() <= FEAS_TOL


@pytest.mark.parametrize("step", (1e-8, 1e-9))
def test_near_face_tables_of_custom_models_get_checked_weights(step):
    # custom3d8's vertex mean times points of custom2d6's edges moved toward
    # its centre by step: separable tables on which the decomposition LP
    # raised LpNumericalError ("solution violates lower bound")
    ps = ProductSpace(_factor("custom3d8"), _factor("custom2d6"))
    assert ps._classical is None
    va, space = ps.factor_a.vertex_array(), ps.factor_b
    vb = space.vertex_array()
    centre = vb.mean(axis=0)
    edges = [[i for i in range(len(vb)) if mask >> i & 1] for mask in space._facets[1].tolist()]
    assert len(edges) == 6
    for (i, j), t in itertools.product(edges, np.linspace(0.0, 1.0, 6)):
        point = t * vb[i] + (1.0 - t) * vb[j]
        table = np.outer(va.mean(axis=0), point + step * (centre - point))
        witness = separable_witness(ps, JointState(table))
        assert witness is not None
        _assert_reconstructs(ps, witness, table)
        lp = decomposition_program(ps._products, table.reshape(-1))
        assert scipy_lp_reference(lp)[0] == "optimal"


@pytest.mark.parametrize("pair", [("polygon4", "polygon4"), ("polygon7", "polygon7"),
                                  ("polygon8", "polygon8"), ("custom3d8", "custom2d6")],
                         ids="x".join)
def test_cone_verdicts_equal_the_lp_referees(pair):
    # 30 separable tables and 30 random ones (separable ones moved by noise)
    ps = ProductSpace(*map(_factor, pair))
    va, vb = ps.factor_a.vertex_array(), ps.factor_b.vertex_array()
    rng = np.random.default_rng(26)
    verdicts = []
    for k in range(60):
        table = va.T @ rng.dirichlet(np.full(len(va) * len(vb), 0.5)).reshape(
            len(va), len(vb)) @ vb
        if k % 2:
            table += rng.normal(scale=10.0 ** rng.uniform(-3, 0), size=table.shape)
            table[-1, -1] = 1.0
        witness = separable_witness(ps, JointState(table))
        verdicts.append(witness is not None)
        assert verdicts[-1] == _decomposition_verdict(ps, table), k
        if witness is not None:
            _assert_reconstructs(ps, witness, table)
    assert 30 <= sum(verdicts) < len(verdicts)


def test_a_joint_state_keeps_one_read_only_copy(square_pair):
    va, vb = square_pair.factor_a.vertex_array(), square_pair.factor_b.vertex_array()
    source = 0.5 * np.outer(va[0], vb[1]) + 0.5 * np.outer(va[2], vb[3])
    omega = JointState(source)
    source[0, 0] = 5.0  # the caller's array does not reach the state
    table = omega.table
    assert isinstance(table, np.ndarray) and table.dtype == float
    assert not table.flags.writeable and table.flags.c_contiguous
    assert table[0, 0] != 5.0
    out = omega.as_array()
    out[0, 0] = 7.0
    assert out.flags.writeable and omega.table[0, 0] != 7.0
    assert JointState(omega.table.tolist()) == omega
    assert JointState(np.asfortranarray(omega.table)).table.flags.c_contiguous
    # equality and hashing go by value, -0.0 and 0.0 alike
    zero = np.outer(va[0], vb[0])
    negative = zero.copy()
    negative[zero == 0.0] = -0.0
    assert JointState(zero) == JointState(negative)
    assert hash(JointState(zero)) == hash(JointState(negative))
    assert omega != JointState(zero) and omega.__eq__(omega.table) is NotImplemented
    # copies and pickles go through the constructor and stay read-only
    for twin in (copy.copy(omega), copy.deepcopy(omega), pickle.loads(pickle.dumps(omega))):
        assert twin == omega and not twin.table.flags.writeable


def _counting_decisions(monkeypatch) -> list:
    """Wrap both of the pair's deciders; each call appends its name."""
    from convexinfo import composites
    calls = []
    for name in ("_cone_weights", "_conditional_weights"):
        def counted(*args, _name=name, _original=getattr(composites, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(composites, name, counted)
    return calls


@pytest.mark.parametrize("pair, verdict", [(("polygon4", "polygon4"), "entangled"),
                                           (("simplex3", "polygon4"), "not-a-state")],
                         ids=("box-mixture", "classical-not-a-state"))
def test_the_workload_sequence_decides_each_table_once(pair, verdict, monkeypatch):
    # the tensor-separable op: a witness, then max-tensor membership and the
    # verdict when there is none; every step reads the pair's one decision
    ps, rng = ProductSpace(*map(_factor, pair)), np.random.default_rng(33)
    mixture = _random_mixture(ps, rng).as_array()
    if verdict == "entangled":
        table = 0.85 * pr_box(ps).as_array() + 0.15 * mixture
    else:
        table = mixture + rng.normal(scale=0.5, size=ps.joint_shape)
        table[-1, -1] = 1.0
    omega = JointState(table)
    calls = _counting_decisions(monkeypatch)
    assert separable_witness(ps, omega) is None
    assert max_tensor_member(ps, omega) == (verdict == "entangled")
    assert classify_joint(ps, omega) == verdict
    assert is_separable(ps, JointState(table.tolist())) is False
    assert len(calls) == 1


def test_a_repeated_table_gets_an_equal_witness_in_a_new_list(square_pair, monkeypatch):
    rng = np.random.default_rng(34)
    for ps in (ProductSpace(square_pair.factor_a, _factor("polygon5")),
               ProductSpace(_factor("simplex3"), square_pair.factor_b)):
        tables = [_random_mixture(ps, rng).as_array() for _ in range(5)]
        calls = _counting_decisions(monkeypatch)
        first = separable_witness(ps, JointState(tables[0]))
        again = separable_witness(ps, JointState(tables[0].copy()))
        assert again == first and again is not first and len(calls) == 1
        again.clear()  # the caller's list is its own
        assert separable_witness(ps, JointState(tables[0])) == first
        weights = ps._separability(tables[0].tobytes())
        assert not weights.flags.writeable
        # the last 4 tables are kept: the fifth after it decides it again
        for table in tables[1:]:
            assert is_separable(ps, JointState(table))
        assert len(calls) == 5
        assert separable_witness(ps, JointState(tables[0])) == first
        assert len(calls) == 6


def test_a_raising_decision_is_not_kept(square_pair, monkeypatch):
    from convexinfo import composites
    from convexinfo.errors import LpNumericalError
    ps = ProductSpace(square_pair.factor_a, square_pair.factor_b)
    omega = _random_mixture(ps, np.random.default_rng(35))
    cone_weights = composites._cone_weights

    def failing(*args):
        raise LpNumericalError("the cone test found neither weights nor a Farkas ray")

    monkeypatch.setattr(composites, "_cone_weights", failing)
    with pytest.raises(LpNumericalError):
        separable_witness(ps, omega)
    monkeypatch.setattr(composites, "_cone_weights", cone_weights)
    assert separable_witness(ps, omega) is not None


def _append_loop_cone_weights(cone, b):
    """``convex_kernel._cone_weights`` as it was with a growing passive set
    (``np.append``) and fresh arrays on every iteration: the reference that
    the preallocated loop must match bit for bit."""
    from convexinfo.convex_kernel import _RAY_TOL, _passive_weights
    from convexinfo.errors import LpNumericalError
    if np.isnan(b).any():
        raise LpNumericalError("a point must not be NaN")
    if np.isinf(b).any():
        return None
    a = cone.rows
    target = b.copy()
    target[1:] -= cone.centre * b[0]
    scale = np.abs(target).max()
    target *= cone.scales / scale
    atb = a.T @ target
    tol = FEAS_TOL / scale * cone.scales
    w, passive = np.zeros(a.shape[1]), np.zeros(0, int)
    for _ in range(3 * a.shape[1]):
        y = target - a @ w
        if (np.abs(y) <= tol).all():
            break
        cosines = (a.T @ y) / cone.norms
        cosines[passive] = -np.inf
        j = int(cosines.argmax())
        if cosines[j] <= _RAY_TOL * np.sqrt(y @ y):
            break
        passive = np.append(passive, j)
        while True:
            z = _passive_weights(cone.gram, atb, passive)
            if (z > 0.0).all():
                w[:] = 0.0
                w[passive] = z
                break
            current = w[passive]
            ratios = np.divide(current, current - z, out=np.zeros(len(z)), where=current > z)
            ratios[z > 0.0] = np.inf
            first = ratios.argmin()
            current += ratios[first] * (z - current)
            np.maximum(current, 0.0, out=current)
            current[first] = 0.0
            w[passive] = current
            passive = passive[current > 0.0]
    else:
        raise LpNumericalError("the cone test did not settle within its iteration cap")
    if (np.abs(y) <= tol).all():
        for weights in (w / w.sum() * b[0], w * scale):
            if (np.abs(cone.a @ weights - b) <= FEAS_TOL).all():
                return weights
    elif (a.T @ y <= _RAY_TOL * cone.norms * np.sqrt(y @ y)).all() and target @ y > 0.0:
        return None
    raise LpNumericalError("the cone test found neither weights nor a Farkas ray")


def _cone_outcome(weigh, cone, b):
    from convexinfo.errors import LpNumericalError
    try:
        weights = weigh(cone, b)
    except LpNumericalError as exc:
        return f"raises {exc}"
    return None if weights is None else (weights.dtype.str, weights.tobytes())


#: The pairs without a classical factor of the tensor-separable workload.
POLYGON_PAIRS = (("polygon4", "polygon4"), ("polygon5", "polygon5"), ("polygon6", "polygon6"),
                 ("polygon5", "polygon7"), ("polygon7", "polygon7"), ("polygon8", "polygon7"),
                 ("polygon7", "polygon8"), ("polygon8", "polygon8"), ("polygon6", "polygon8"))


@pytest.mark.parametrize("pair", POLYGON_PAIRS, ids="x".join)
def test_cone_weights_match_the_append_loop_bit_for_bit(pair):
    # separable tables, noisy ones (mostly outside), and products of points
    # on a factor's edges moved off the edge by a small step either way
    ps = ProductSpace(*map(_factor, pair))
    va, vb = ps.factor_a.vertex_array(), ps.factor_b.vertex_array()
    rng = np.random.default_rng(len(va) * 10 + len(vb))
    tables = []
    for k in range(40):
        table = va.T @ rng.dirichlet(np.full(len(va) * len(vb), 0.5)).reshape(
            len(va), len(vb)) @ vb
        if k % 2:
            table += rng.normal(scale=10.0 ** rng.uniform(-4, 0), size=table.shape)
            table[-1, -1] = 1.0
        tables.append(table)
    for side, (v, w) in enumerate(((va, vb), (vb, va))):
        centre = v.mean(axis=0)
        for i in range(len(v)):
            t = rng.random()
            edge = t * v[i] + (1.0 - t) * v[(i + 1) % len(v)]
            for step in (-1e-6, -1e-9, 0.0, 1e-9, 1e-6):
                table = np.outer(edge + step * (centre - edge), w[rng.integers(len(w))])
                tables.append(table if side == 0 else table.T)
    outcomes = []
    for table in tables:
        b = np.concatenate(((1.0,), table.reshape(-1)))
        outcome = _cone_outcome(convex_kernel._cone_weights, ps._cone, b)
        assert outcome == _cone_outcome(_append_loop_cone_weights, ps._cone, b)
        outcomes.append(outcome)
    assert any(o is None for o in outcomes) and any(isinstance(o, tuple) for o in outcomes)


def test_a_used_pair_and_its_models_copy_and_pickle(square_pair):
    # their kept tables and decisions stay behind: a copy builds its own
    ps = ProductSpace(square_pair.factor_a, _factor("simplex3"))
    omega = _random_mixture(ps, np.random.default_rng(36))
    witness = separable_witness(ps, omega)
    make_state(ps.factor_a, [0.1, 0.2])
    enumerate_frames(ps.factor_b)
    for twin in (copy.copy(ps), copy.deepcopy(ps), pickle.loads(pickle.dumps(ps))):
        assert twin == ps and "_separability" not in twin.__dict__
        assert separable_witness(twin, omega) == witness
        assert twin.factor_a == ps.factor_a
        # a shallow copy shares the models, and the others rebuild theirs
        assert (twin.factor_a is ps.factor_a) == ("_decompositions" in twin.factor_a.__dict__)


@pytest.mark.parametrize("pair", [pair for pair in CLASSICAL_PAIRS if "polygon5" in pair
                                  or "polygon6" in pair], ids="x".join)
def test_conditional_weights_take_each_states_first_basic_solution(pair):
    # the first feasible basis in combinations order, as np.unique's first
    # index picks it: interior conditional states of a polygon have several
    from convexinfo.composites import _conditional_weights
    ps = ProductSpace(*map(_factor, pair))
    side, rows, s, _, other = classical = ps._classical
    rng, several = np.random.default_rng(37), 0
    for _ in range(30):
        table = _random_mixture(ps, rng, terms=6).as_array()
        conditionals = np.linalg.solve(s, (table.T if side else table)[rows])
        which, solutions = other._basic_solutions(
            np.hstack([conditionals, conditionals[:, -1:]]))
        solved, first = np.unique(which, return_index=True)
        assert len(solved) == len(conditionals)
        weights = _conditional_weights(classical, table)
        assert (weights.T if side else weights).tobytes() == solutions[first].tobytes()
        several += len(which) > len(solved)
    assert several > 0
