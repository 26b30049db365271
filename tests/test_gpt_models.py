import numpy as np
import pytest

from convexinfo import (
    build_model,
    enumerate_frames,
    evaluate,
    frame_entropy,
    gpt_models,
    lp_solve,
    make_effect,
    make_preset,
    make_state,
    mix_state,
    model_from_json,
    perfectly_distinguishable,
    restrict_to_frame,
    unit_effect,
    vertex_state,
    zero_effect,
)
from convexinfo.errors import (
    DegenerateModel,
    DimensionMismatch,
    InvalidEffect,
    NotAState,
)

from oracles import loop_reference


def test_build_simplex3(simplex3):
    assert simplex3.n_vertices == 3
    assert simplex3.dim == 4
    assert np.allclose(simplex3.vertex_array()[:, -1], 1.0)


def test_build_square(square):
    expected = {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}
    got = {tuple(np.round(v[:-1], 12)) for v in square.vertex_array()}
    assert {(round(a, 9), round(b, 9)) for a, b in got} == expected


def test_build_custom_quadrilateral(quadrilateral):
    assert quadrilateral.n_vertices == 4
    assert quadrilateral.dim == 3
    assert quadrilateral.vertices[3][:2] == (0.0, -2.0)


def test_build_model_errors():
    with pytest.raises(DegenerateModel):
        build_model("simplex", n=1)
    with pytest.raises(DegenerateModel):
        build_model("custom_polytope", vertices=[(0, 0), (0, 0), (1, 1)])
    with pytest.raises(DegenerateModel):
        build_model("custom_polytope", vertices=[(0, 0), (1, 1), (2, 2)])  # collinear in R^2
    with pytest.raises(DegenerateModel):
        build_model("simplex", n=17)
    with pytest.raises(DegenerateModel):
        build_model("lattice")


def test_make_state_membership(square):
    inside = make_state(square, [0.2, -0.1])
    assert inside.point[-1] == 1.0
    with pytest.raises(NotAState):
        make_state(square, [0.9, 0.9])
    with pytest.raises(DimensionMismatch):
        make_state(square, [0.1, 0.1, 0.1])


@pytest.mark.parametrize("kind, kwargs", [
    ("custom_polytope", {"vertices": [[1, "a"], [0, 1], [1, 1]]}),  # non-numeric
    ("custom_polytope", {"vertices": [[1, 0], [0, 1, 2], [1, 1]]}),  # ragged
    ("custom_polytope", {"vertices": 5}),
    ("regular_polygon", {"n": 2.5}),
    ("simplex", {"n": 3.0}),
    ("simplex", {"n": "4"}),
    ("simplex", {"n": 10**12}),  # over the cap: rejected before anything is built
])
def test_build_model_malformed_input_is_degenerate(kind, kwargs):
    with pytest.raises(DegenerateModel):
        build_model(kind, **kwargs)


@pytest.mark.parametrize("coords, shown", [
    ([float("nan"), 0], "[nan, 0.0] is not finite"),
    ([0.0, float("inf")], "[0.0, inf] is not finite"),
    ([0.9, 0.9], "[0.9, 0.9] is outside the model"),
])
def test_make_state_rejects_non_finite_and_outside_points(square, coords, shown):
    with pytest.raises(NotAState) as err:
        make_state(square, coords)
    assert shown in str(err.value)


def _count_lps(monkeypatch) -> list:
    """Record every LP that gpt_models solves from here on."""
    solved = []

    def counting(lp):
        solved.append(lp)
        return lp_solve(lp)

    monkeypatch.setattr(gpt_models, "lp_solve", counting)
    return solved


# fresh models below: the session fixtures may already hold their frames

def test_second_frame_enumeration_solves_no_lp(monkeypatch):
    pentagon = build_model("regular_polygon", n=5)
    solved = _count_lps(monkeypatch)
    first = enumerate_frames(pentagon)
    assert len(solved) > 0
    before = len(solved)
    assert enumerate_frames(pentagon) == first
    assert len(solved) == before


def test_enumerate_frames_returns_a_fresh_list():
    square = build_model("regular_polygon", n=4)
    frames = enumerate_frames(square)
    expected = list(frames)
    frames.reverse()
    frames.pop()
    assert enumerate_frames(square) == expected


def test_frame_entropy_enumerates_once_per_model(monkeypatch):
    solved = _count_lps(monkeypatch)
    enumerate_frames(build_model("regular_polygon", n=5))
    per_enumeration = len(solved)
    pentagon = build_model("regular_polygon", n=5)
    states = [make_state(pentagon, c) for c in ([0.1, 0.2], [-0.3, 0.1])]
    solved.clear()
    shannon = make_preset("shannon")
    for state in states:
        frame_entropy(shannon, pentagon, state)
    assert len(solved) == per_enumeration


def test_effect_evaluation(square):
    center = make_state(square, [0, 0])
    assert evaluate(unit_effect(square), center) == pytest.approx(1.0, abs=1e-12)
    assert evaluate(zero_effect(square), center) == 0.0
    with pytest.raises(InvalidEffect):
        make_effect(square, (2.0, 0.0, 0.0))


def test_distinguishability_examples(simplex3, square):
    assert perfectly_distinguishable(simplex3, [vertex_state(simplex3, i) for i in range(3)])
    pair = [vertex_state(square, 0), vertex_state(square, 2)]  # (1,0) and (-1,0)
    assert perfectly_distinguishable(square, pair)
    nu = make_state(square, [0.3, 0.2])
    assert not perfectly_distinguishable(square, [nu, nu])


def test_frames_simplex(simplex3, simplex4):
    frames = enumerate_frames(simplex3)
    assert [f.vertex_indices for f in frames] == [(0, 1, 2)]
    frames = enumerate_frames(simplex4)
    assert [f.vertex_indices for f in frames] == [(0, 1, 2, 3)]


FRAME_MODELS = ([("regular_polygon", n) for n in range(3, 13)]
                + [("simplex", n) for n in range(2, 9)]
                + [("custom_polytope", (v, dim)) for v in (5, 7) for dim in (2, 3)])


@pytest.mark.parametrize("kind, n", FRAME_MODELS, ids=[
    f"{kind}-{n}" if kind != "custom_polytope" else f"{kind}-{n[0]}x{n[1]}"
    for kind, n in FRAME_MODELS])
def test_frames_match_the_loop_reference_exactly(kind, n):
    # array-built frame LPs: same vertex sets and bit-identical effect coefficients;
    # on the custom polytopes the LP, not the least-squares guess, supplies witnesses
    if kind == "custom_polytope":
        args = {"vertices": np.random.default_rng(sum(n)).normal(size=n).round(3)}
    else:
        args = {"n": n}

    def listing(lib):
        return [(f.vertex_indices, [e.coeffs for e in f.effects])
                for f in lib.enumerate_frames(lib.build_model(kind, **args))]
    assert listing(gpt_models) == listing(loop_reference)


def test_frames_square(square):
    frames = enumerate_frames(square)
    assert [f.vertex_indices for f in frames] == [(0, 2), (1, 3)]


def test_frames_pentagon_against_subset_oracle(pentagon):
    # oracle: all pairs at graph distance 2 on the polygon are the spanning
    # distinguishable sets; adjacent pairs sit on an edge, triples infeasible
    frames = enumerate_frames(pentagon)
    got = {f.vertex_indices for f in frames}
    expected = {(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)}
    assert got == expected
    assert all(len(f) == 2 for f in frames)


def test_frames_quadrilateral(quadrilateral):
    frames = enumerate_frames(quadrilateral)
    assert [f.vertex_indices for f in frames] == [(0, 1), (2, 3)]


def test_frame_invariants_on_all_fixtures(simplex2, simplex3, square, pentagon, quadrilateral):
    for space in (simplex2, simplex3, square, pentagon, quadrilateral):
        verts = space.vertex_array()
        for frame in enumerate_frames(space):
            total = np.zeros(space.dim)
            for e in frame.effects:
                coeffs = e.as_array()
                values = verts @ coeffs
                assert values.min() >= -1e-9 and values.max() <= 1.0 + 1e-9
                total += coeffs
            assert np.allclose(total, space.unit(), atol=1e-9)
            for i, e in enumerate(frame.effects):
                for j, st in enumerate(frame.states):
                    expected = 1.0 if i == j else 0.0
                    assert evaluate(e, st) == pytest.approx(expected, abs=1e-9)


def test_restrict_to_frame_square_center(square):
    center = make_state(square, [0, 0])
    for frame in enumerate_frames(square):
        p = restrict_to_frame(center, frame)
        assert np.allclose(p.components, [0.5, 0.5], atol=1e-9)


def test_restrict_to_frame_vertex(square):
    frame = enumerate_frames(square)[0]
    p = restrict_to_frame(vertex_state(square, 0), frame)
    assert np.allclose(p.components, [1.0, 0.0], atol=1e-9)


def test_restrict_inverts_simplex_decomposition(simplex3):
    frame = enumerate_frames(simplex3)[0]
    state = mix_state(simplex3, [0.2, 0.3, 0.5])
    p = restrict_to_frame(state, frame)
    assert np.allclose(p.components, [0.2, 0.3, 0.5], atol=1e-9)


def test_restriction_is_valid_probvector(pentagon, rng):
    frames = enumerate_frames(pentagon)
    for _ in range(20):
        state = mix_state(pentagon, rng.dirichlet(np.ones(5)))
        for frame in frames:
            p = restrict_to_frame(state, frame)
            assert abs(sum(p.components) - 1.0) < 1e-12
            assert min(p.components) >= 0.0


def test_distinguishable_subsets_of_frames(square, pentagon, simplex4):
    # any 2-element subset of a distinguishable set stays distinguishable
    for space in (square, pentagon, simplex4):
        for frame in enumerate_frames(space):
            if len(frame) < 2:
                continue
            idx = frame.vertex_indices
            for a in range(len(idx)):
                for b in range(a + 1, len(idx)):
                    states = [vertex_state(space, idx[a]), vertex_state(space, idx[b])]
                    assert perfectly_distinguishable(space, states)


def test_corrupt_frame_raises_incomplete(square):
    from convexinfo.gpt_models import Frame, GptEffect
    good = enumerate_frames(square)[0]
    short = Frame(vertex_indices=good.vertex_indices, states=good.states,
                  effects=(good.effects[0], GptEffect(coeffs=(0.0, 0.0, 0.0))))
    from convexinfo.errors import IncompleteFrame
    with pytest.raises(IncompleteFrame):
        restrict_to_frame(make_state(square, [0.1, 0.1]), short)


def test_model_json_roundtrip(square, quadrilateral):
    for space in (square, quadrilateral):
        doc = space.to_json()
        rebuilt = model_from_json(doc if space.kind == "custom_polytope"
                                  else {"kind": space.kind, "n": space.n_vertices})
        assert np.allclose(rebuilt.vertex_array(), space.vertex_array(), atol=1e-12)
