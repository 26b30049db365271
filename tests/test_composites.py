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
    max_tensor_member,
    min_tensor_vertices,
    mix_state,
    pr_box,
    product_state,
    separable_witness,
    vertex_state,
)
from convexinfo.errors import DimensionMismatch, NotNormalized, TooLarge, UnsupportedModel
from convexinfo.probvec import TOL


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
    ps = ProductSpace(square_pair.factor_a, build_model("simplex", n=3))

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


def test_classical_collapse_square_pair_fails(square_pair):
    assert not classical_collapse_check(square_pair.factor_a, square_pair.factor_b)


def test_classical_collapse_guards():
    with pytest.raises(TooLarge):
        classical_collapse_check(build_model("simplex", n=5), build_model("simplex", n=4))
    with pytest.raises(UnsupportedModel):
        classical_collapse_check(build_model("simplex", n=2),
                                 build_model("regular_polygon", n=4))
