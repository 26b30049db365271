import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from convexinfo import (
    Constraint,
    Frame,
    GptEffect,
    GptState,
    LinearProgram,
    Polytope,
    ProbVector,
    ProductSpace,
    apply_phi,
    build_model,
    classical_collapse_check,
    classical_entropy,
    classify_joint,
    convex_kernel,
    decomposition_constraints,
    entropy_upper_bound,
    enumerate_frames,
    evaluate,
    frame_entropy,
    generalized_majorizes,
    generalized_spectrum,
    gpt_models,
    is_separable,
    lp_solve,
    majorizes,
    make_effect,
    make_preset,
    make_state,
    max_tensor_member,
    membership,
    mix_state,
    model_from_json,
    pair_from_grid_descriptor,
    perfectly_distinguishable,
    pr_box,
    product_state,
    restrict_to_frame,
    separable_witness,
    sort_desc,
    spectral_entropy,
    topk_weight_max,
    unit_effect,
    vertex_state,
    zero_effect,
)
from convexinfo.composites import min_tensor_vertices
from convexinfo.errors import (
    DegenerateModel,
    DimensionMismatch,
    IncompleteFrame,
    InvalidEffect,
    InvalidEntropicPair,
    InvalidProbVector,
    LpNumericalError,
    NotAState,
)

from oracles import (
    highs_distinguishable,
    highs_facet_cone,
    highs_frames,
    highs_spans,
    loop_reference,
    qhull_facet_masks,
    random_custom_vertex_sets,
)


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


@pytest.mark.parametrize("kind, n", [("regular_polygon", 5), ("simplex", 3)])
def test_basic_solutions_take_points_of_the_cone_and_their_weight_sums(kind, n):
    # a right-hand side is a point of the cone over the model, then its weight
    # sum: p times a state, then p, solves as the state scaled by p
    space = build_model(kind, n=n)
    _, _, _, bases, _ = space._spectrum_bases
    state = mix_state(space, np.random.default_rng(0).dirichlet(np.ones(n))).as_array()
    which, w = space._basic_solutions(np.append(state, 1.0)[None])
    assert len(w) and not which.any()
    for p in (0.3, 1e-6):
        scaled_which, scaled = space._basic_solutions(np.append(p * state, p)[None])
        assert np.array_equal(scaled_which, which)
        assert np.allclose(scaled, p * w, rtol=0, atol=1e-12)
        assert np.allclose(scaled.sum(axis=1), p, rtol=0, atol=1e-12)
    # the apex: every regular basis gives zero weights
    which, w = space._basic_solutions(np.zeros((1, space.dim + 1)))
    assert len(w) == len(bases) and not w.any()
    # a negative weight sum, or a state whose weights must sum to 2, has none
    assert not len(space._basic_solutions(np.append(-0.3 * state, -0.3)[None])[1])
    assert not len(space._basic_solutions(np.append(state, 2.0)[None])[1])


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


def _record_calls(monkeypatch, name) -> list:
    """Record the last argument of every call of gpt_models.<name> from here on."""
    calls = []
    fn = getattr(gpt_models, name)

    def recording(*args):
        calls.append(args[-1])
        return fn(*args)

    monkeypatch.setattr(gpt_models, name, recording)
    return calls


def _count_lps(monkeypatch, entries=None) -> list:
    """Record the arguments (c, a, rel, b, lower, upper) of every LP that
    gpt_models solves from here on, one record per LP of a stacked call; the
    number of LPs of each kernel call goes to ``entries``."""
    calls = []
    solve = gpt_models._solve

    def recording(c, a, rel, b, *bounds, **options):
        stack = np.broadcast_shapes(c.shape[:-1], a.shape[:-2], b.shape[:-1])
        each = [np.broadcast_to(x, stack + x.shape[-k:]) for x, k in ((c, 1), (a, 2), (b, 1))]
        calls.extend((each[0][i], each[1][i], rel, each[2][i], *bounds)
                     for i in np.ndindex(stack))
        if entries is not None:
            entries.append(math.prod(stack))
        return solve(c, a, rel, b, *bounds, **options)

    monkeypatch.setattr(gpt_models, "_solve", recording)
    return calls


def _sets(arg) -> int:
    """How many vertex sets a call took: a stack of point sets or a list of index sets."""
    return len(arg) if isinstance(arg, list) or np.ndim(arg) == 3 else 1


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


@pytest.mark.parametrize("coeffs", [[np.nan, 0.0, 0.0], [0.0, 0.0, np.nan],
                                    [np.inf, 0.0, 0.5]])
def test_an_effect_with_a_nan_or_infinite_coefficient_is_refused(square, coeffs):
    # a NaN value fails no comparison, so the bounds are tested as "holds"
    with pytest.raises(InvalidEffect):
        make_effect(square, coeffs)


@pytest.mark.parametrize("side", ["effect", "state"])
def test_evaluate_refuses_a_nan_effect_or_state(square, side):
    # min(1, max(0, nan)) once returned 0.0
    effect, state = unit_effect(square), make_state(square, [0.1, 0.2])
    if side == "effect":
        effect = GptEffect(coeffs=(np.nan, 0.0, 1.0))
    else:
        state = GptState(point=(np.nan, 0.2, 1.0))
    with pytest.raises(InvalidEffect, match="nan"):
        evaluate(effect, state)


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
FRAME_MODEL_IDS = [f"{kind}-{n}" if kind != "custom_polytope" else f"{kind}-{n[0]}x{n[1]}"
                   for kind, n in FRAME_MODELS]


def _frame_model_args(kind, n) -> dict:
    if kind == "custom_polytope":
        return {"vertices": np.random.default_rng(sum(n)).normal(size=n).round(3)}
    return {"n": n}


@pytest.mark.parametrize("kind, n", FRAME_MODELS, ids=FRAME_MODEL_IDS)
def test_frames_match_the_loop_reference_exactly(kind, n):
    # array-built frame LPs: same vertex sets and bit-identical effect coefficients;
    # on the custom polytopes the LP, not the least-squares guess, supplies witnesses
    args = _frame_model_args(kind, n)

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
    good = enumerate_frames(square)[0]
    short = Frame(vertex_indices=good.vertex_indices, states=good.states,
                  effects=(good.effects[0], GptEffect(coeffs=(0.0, 0.0, 0.0))))
    with pytest.raises(IncompleteFrame):
        restrict_to_frame(make_state(square, [0.1, 0.1]), short)


def test_model_json_roundtrip(square, quadrilateral):
    for space in (square, quadrilateral):
        doc = space.to_json()
        rebuilt = model_from_json(doc if space.kind == "custom_polytope"
                                  else {"kind": space.kind, "n": space.n_vertices})
        assert np.allclose(rebuilt.vertex_array(), space.vertex_array(), atol=1e-12)


# -- frame enumeration: screen LP, witness LPs and clique jump ----------------

def _assert_witnesses(space):
    verts = space.vertex_array()
    for frame in enumerate_frames(space):
        effects = np.array([e.coeffs for e in frame.effects])
        values = effects @ verts.T
        assert values.min() >= -1e-8 and values.max() <= 1.0 + 1e-8
        assert np.allclose(effects.sum(axis=0), space.unit(), atol=1e-9)
        assert np.allclose(values[:, list(frame.vertex_indices)], np.eye(len(frame)), atol=1e-8)


def test_frames_match_highs_or_raise_on_random_custom_models():
    valid, raising = 0, set()
    for t, points in random_custom_vertex_sets():
        try:
            space = build_model("custom_polytope", vertices=points)
        except DegenerateModel:
            continue
        valid += 1
        try:
            frames = enumerate_frames(space)
        except LpNumericalError:
            raising.add(t)
            continue
        assert [f.vertex_indices for f in frames] == highs_frames(space.vertex_array()), t
        _assert_witnesses(space)
    assert valid == 38
    # no model trips the simplex kernel's own check; t = 14 and t = 39 are answered
    assert raising == set()


def test_frames_random_custom_t17_keeps_the_frame_the_witness_lp_misses():
    # 9 points in R^3: the k x d witness LP wrongly finds (4, 5, 7) infeasible,
    # so its witness is the facet cone's checked point
    points = dict(random_custom_vertex_sets())[17]
    space = build_model("custom_polytope", vertices=points)
    verts = space.vertex_array()
    assert gpt_models._distinguishing_effects(space, verts[None, [4, 5, 7]]) == [None]
    frames = [f.vertex_indices for f in enumerate_frames(space)]
    assert frames == highs_frames(verts)
    assert (4, 5, 7) in frames
    _assert_witnesses(space)
    assert perfectly_distinguishable(space, [vertex_state(space, i) for i in (4, 5, 7)])


def _fail_in_place(monkeypatch, caller, place) -> tuple[list, LpNumericalError]:
    """Make each kernel entry from gpt_models.<caller> put an LpNumericalError in
    result ``place``; returns the stack size of each such entry, and the error."""
    solve, entries = gpt_models._solve, []
    error = LpNumericalError("solution violates a <= constraint")

    def failing(*args, **options):
        results = solve(*args, **options)
        if sys._getframe(1).f_code.co_name == caller:
            entries.append(len(results))
            results[place] = error
        return results

    monkeypatch.setattr(gpt_models, "_solve", failing)
    return entries, error


def test_a_failing_witness_lp_leaves_its_frame_the_checked_screen_point(monkeypatch):
    # custom 5 x 2: three frames take witness LPs, in one stack; when the
    # second fails in its place, the stack still enters the kernel once, that
    # frame takes the facet cone's checked point and the others keep their
    # effects bit for bit
    args = _frame_model_args("custom_polytope", (5, 2))
    stacks = _record_calls(monkeypatch, "_distinguishing_effects")
    before = {f.vertex_indices: f.effects
              for f in enumerate_frames(build_model("custom_polytope", **args))}
    (stack,) = stacks
    failing = stack[1]
    entries, _ = _fail_in_place(monkeypatch, "_distinguishing_effects", 1)
    space = build_model("custom_polytope", **args)
    frames = enumerate_frames(space)
    assert entries == [3]
    verts = space.vertex_array()
    assert [f.vertex_indices for f in frames] == highs_frames(verts)
    _assert_witnesses(space)
    (changed,) = [f for f in frames if f.effects != before[f.vertex_indices]]
    assert np.array_equal(verts[list(changed.vertex_indices)], failing)
    assert list(changed.effects) == gpt_models._checked_screen_witness(
        space, failing, gpt_models._screen(space, failing[None])[0])


def test_a_failing_screen_lp_makes_enumeration_raise_it(monkeypatch):
    entries, error = _fail_in_place(monkeypatch, "_screen", 0)
    space = build_model("custom_polytope", **_frame_model_args("custom_polytope", (5, 2)))
    with pytest.raises(LpNumericalError) as raised:
        enumerate_frames(space)
    assert raised.value is error and len(entries) == 1


@pytest.mark.parametrize("kind, n", FRAME_MODELS, ids=FRAME_MODEL_IDS)
def test_screen_agrees_with_the_witness_lp_on_every_tested_set(kind, n, monkeypatch):
    tested = _record_calls(monkeypatch, "_screen")
    space = build_model(kind, **_frame_model_args(kind, n))
    enumerate_frames(space)
    monkeypatch.undo()
    assert tested
    for stack in tested:  # one stack of point sets per call
        for points in stack:
            assert ((gpt_models._screen(space, points[None])[0] is None)
                    == (gpt_models._distinguishing_effects(space, points[None])[0] is None))


def test_cone_screen_matches_highs_and_its_point_is_a_witness():
    # seeded k-sets of random 12-16-point models in R^2-R^7; a feasible cone's
    # point must be a witness: each effect in [0, 1] on every vertex, the
    # effects summing to 1 there, effect i 1 on vertex i and 0 on the others
    rng = np.random.default_rng(8)
    tol = convex_kernel.FEAS_TOL
    verdicts = set()
    for dim, v in zip(range(2, 8), (12, 16, 14, 12, 16, 16)):
        space = build_model("custom_polytope", vertices=rng.normal(size=(v, dim)))
        verts = space.vertex_array()
        for k in (2, 3, 4):
            combos = sorted({tuple(sorted(rng.choice(v, k, replace=False).tolist()))
                             for _ in range(20)})
            found = gpt_models._screen(space, verts[np.array(combos)])
            assert [effects is not None for effects in found] == [
                highs_distinguishable(verts, combo) for combo in combos], (dim, k)
            for combo, effects in zip(combos, found):
                verdicts.add(effects is not None)
                if effects is None:
                    continue
                values = effects @ verts.T
                assert values.min() >= -tol and values.max() <= 1.0 + tol
                assert np.abs(values.sum(axis=0) - 1.0).max() <= tol
                assert np.abs(values[:, list(combo)] - np.eye(k)).max() <= tol
    assert verdicts == {True, False}


def test_perfectly_distinguishable_matches_the_facet_cone_referee():
    # every 2- and 3-subset of the seeded sweep models' vertices
    answers = set()
    for t, points in random_custom_vertex_sets():
        try:
            space = build_model("custom_polytope", vertices=points)
        except DegenerateModel:
            continue
        verts = space.vertex_array()
        for size in (2, 3):
            for combo in itertools.combinations(range(space.n_vertices), size):
                found = perfectly_distinguishable(space, [vertex_state(space, i) for i in combo])
                assert found == highs_facet_cone(verts, verts[list(combo)]), (t, combo)
                answers.add(found)
    assert answers == {True, False}


@pytest.mark.parametrize("n", range(3, 9))
def test_mixed_states_match_the_facet_cone_referee(n):
    # the vertices, the edge midpoints and the centre of a polygon: every pair
    # and every triple with a mixed state
    space = build_model("regular_polygon", n=n)
    verts = space.vertex_array()
    pool = [*verts, *(verts + np.roll(verts, -1, axis=0)) / 2, verts.mean(axis=0)]
    answers = set()
    for size in (2, 3):
        for combo in itertools.combinations(range(len(pool)), size):
            if size == 3 and max(combo) < n:
                continue
            states = [gpt_models.GptState(tuple(pool[i].tolist())) for i in combo]
            found = perfectly_distinguishable(space, states)
            assert found == highs_facet_cone(verts, np.array([pool[i] for i in combo])), combo
            if max(combo) >= n:
                answers.add(found)
    assert answers == {True, False}


def test_screen_verdicts_hold_from_coordinate_scale_1e_minus_6_to_1e6():
    # every pair and triple of 14 points in R^5 and of 16 points in R^7
    for v, dim in ((14, 5), (16, 7)):
        points = np.random.default_rng(dim).normal(size=(v, dim))
        verdicts = {}
        for scale in (1.0, 1e-6, 1e-3, 1e3, 1e6):
            space = build_model("custom_polytope", vertices=scale * points)
            verts = space.vertex_array()
            verdicts[scale] = [effects is not None for size in (2, 3) for effects in
                               gpt_models._screen(space, verts[np.array(list(
                                   itertools.combinations(range(v), size)))])]
        assert set(verdicts[1.0]) == {True, False}
        for scale, found in verdicts.items():
            assert found == verdicts[1.0], (v, dim, scale)


_RAW = [0.1, 0.2, 1.0]  # a state's point as a raw list, not a GptState
_STATE = "expected GptState, got list"
#: Every other entry point that takes a model's state, effect or vertex
#: index, on the square: its call, and what its DimensionMismatch says.
_ENTRY_POINT_CASES = {
    "generalized_spectrum": (lambda sq: generalized_spectrum(sq, _RAW), _STATE),
    "spectral_entropy": (lambda sq: spectral_entropy(make_preset("shannon"), sq, _RAW), _STATE),
    "apply_phi": (lambda sq: apply_phi(sq, _RAW, make_preset("shannon")), _STATE),
    "generalized_majorizes-first": (lambda sq: generalized_majorizes(
        sq, _RAW, make_state(sq, [0.0, 0.0])), _STATE),
    "generalized_majorizes-second": (lambda sq: generalized_majorizes(
        sq, make_state(sq, [0.0, 0.0]), _RAW), _STATE),
    "decomposition_constraints": (lambda sq: decomposition_constraints(sq, _RAW), _STATE),
    "frame_entropy": (lambda sq: frame_entropy(make_preset("shannon"), sq, _RAW), _STATE),
    "restrict_to_frame": (lambda sq: restrict_to_frame(_RAW, enumerate_frames(sq)[0]), _STATE),
    "evaluate-state": (lambda sq: evaluate(unit_effect(sq), _RAW), _STATE),
    "evaluate-effect": (lambda sq: evaluate([0.0, 0.0, 1.0], make_state(sq, [0.0, 0.0])),
                        "expected GptEffect, got list"),
    "vertex_state-minus-1": (lambda sq: vertex_state(sq, -1),
                             "vertex index -1 is out of range for 4 vertices"),
    "vertex_state-n_vertices": (lambda sq: vertex_state(sq, 4), "vertex index 4 is out of range"),
    "vertex_state-99": (lambda sq: vertex_state(sq, 99), "vertex index 99 is out of range"),
    "vertex_state-float": (lambda sq: vertex_state(sq, 1.5), "must be an integer, got 1.5"),
    "vertex_state-string": (lambda sq: vertex_state(sq, "0"), "must be an integer, got '0'"),
    **{f"{check.__name__}-table": (lambda sq, check=check: check(
        ProductSpace(sq, sq), np.outer(_RAW, _RAW).tolist()), "expected JointState, got list")
       for check in (separable_witness, is_separable, max_tensor_member, classify_joint)},
    "lp_solve": (lambda sq: lp_solve({"n_vars": 1}), "expected LinearProgram, got dict"),
}
_VECTOR = "expected ProbVector, got "
#: The entry points that take a ProbVector, given a raw list or array: the
#: call (the square unused), and what its InvalidProbVector says.
_PROB_VECTOR_CASES = {
    "classical_entropy-list": (lambda sq: classical_entropy(make_preset("shannon"), [0.5, 0.5]),
                               _VECTOR + "list"),
    "classical_entropy-array": (lambda sq: classical_entropy(
        make_preset("shannon"), np.array([0.5, 0.5])), _VECTOR + "ndarray"),
    "majorizes-first": (lambda sq: majorizes([0.5, 0.5], ProbVector([1.0])), _VECTOR + "list"),
    "majorizes-second": (lambda sq: majorizes(ProbVector([1.0]), np.array([0.5, 0.5])),
                         _VECTOR + "ndarray"),
    "sort_desc": (lambda sq: sort_desc([0.2, 0.8]), _VECTOR + "list"),
}
#: Entry points whose malformed input once ended in a TypeError, an
#: IndexError or a ValueError: the call, its ValidationError and what it says.
_OTHER_CASES = {
    "Polytope-None": (lambda sq: Polytope(None), DegenerateModel, "rows of numbers"),
    # a frame without effects resolves the state to 0
    "restrict_to_frame-no-effects": (lambda sq: restrict_to_frame(
        vertex_state(sq, 0), Frame((), (), ())), IncompleteFrame,
        r"^frame effects resolve the state to 0\.0, not 1$"),
    "pair_from_grid_descriptor-array": (lambda sq: pair_from_grid_descriptor(
        np.array([0.1, 0.2, 1.0])), InvalidEntropicPair, "malformed pair descriptor"),
    "LinearProgram-constraints": (lambda sq: LinearProgram(1, None, 5), DimensionMismatch,
                                  "iterable of Constraint"),
}
_WRONG = [0, 1]  # a raw list where a model, a pair, an LP or a polytope belongs
_SPACE = "expected StateSpace, got list"
_PAIR = "expected ProductSpace, got list"
#: Entry points given a wrong-typed model, product space, entropic pair, LP
#: skeleton, polytope, state, frame or constraint, which once ended in an
#: AttributeError: the call, its ValidationError and what it says.
_WRONG_TYPE_CASES = {
    "generalized_spectrum-model": (lambda sq: generalized_spectrum(
        _WRONG, make_state(sq, [0.0, 0.0])), DimensionMismatch, _SPACE),
    "make_state-model": (lambda sq: make_state(_WRONG, [0.0, 0.0]), DimensionMismatch, _SPACE),
    "enumerate_frames-model": (lambda sq: enumerate_frames(_WRONG), DimensionMismatch, _SPACE),
    "perfectly_distinguishable-model": (lambda sq: perfectly_distinguishable(
        _WRONG, [vertex_state(sq, 0), vertex_state(sq, 2)]), DimensionMismatch, _SPACE),
    "vertex_state-model": (lambda sq: vertex_state(_WRONG, 0), DimensionMismatch, _SPACE),
    "mix_state-model": (lambda sq: mix_state(_WRONG, [0.5, 0.5]), DimensionMismatch, _SPACE),
    "make_effect-model": (lambda sq: make_effect(_WRONG, [0.0, 1.0]), DimensionMismatch, _SPACE),
    "unit_effect-model": (lambda sq: unit_effect(_WRONG), DimensionMismatch, _SPACE),
    "zero_effect-model": (lambda sq: zero_effect(_WRONG), DimensionMismatch, _SPACE),
    "classical_collapse_check-model": (lambda sq: classical_collapse_check(_WRONG, sq),
                                       DimensionMismatch, _SPACE),
    "ProductSpace-factor": (lambda sq: ProductSpace(sq, _WRONG), DimensionMismatch, _SPACE),
    **{f"{check.__name__}-pair": (lambda sq, check=check: check(_WRONG, product_state(
        vertex_state(sq, 0), vertex_state(sq, 1))), DimensionMismatch, _PAIR)
       for check in (separable_witness, max_tensor_member, classify_joint)},
    "min_tensor_vertices-pair": (lambda sq: min_tensor_vertices(_WRONG), DimensionMismatch, _PAIR),
    "pr_box-pair": (lambda sq: pr_box(_WRONG), DimensionMismatch, _PAIR),
    "classical_entropy-entropic-pair": (lambda sq: classical_entropy(
        "shannon", ProbVector([1.0])), InvalidEntropicPair, "expected EntropicPair, got str"),
    "apply_phi-entropic-pair": (lambda sq: apply_phi(sq, make_state(sq, [0.0, 0.0]), "shannon"),
                                InvalidEntropicPair, "expected EntropicPair, got str"),
    "entropy_upper_bound-entropic-pair": (lambda sq: entropy_upper_bound("shannon", 2),
                                          InvalidEntropicPair, "expected EntropicPair, got str"),
    "topk_weight_max-skeleton": (lambda sq: topk_weight_max(_WRONG, [0]), DimensionMismatch,
                                 "expected LinearProgram, got list"),
    "membership-polytope": (lambda sq: membership([0.5, 1.0], [[0.0, 1.0], [1.0, 1.0]]),
                            DimensionMismatch, "expected Polytope, got list"),
    "product_state-state": (lambda sq: product_state(vertex_state(sq, 0), _RAW),
                            DimensionMismatch, _STATE),
    "restrict_to_frame-frame": (lambda sq: restrict_to_frame(vertex_state(sq, 0), _WRONG),
                                DimensionMismatch, "expected Frame, got list"),
    "restrict_to_frame-effect": (lambda sq: restrict_to_frame(vertex_state(sq, 0), Frame(
        (0,), (vertex_state(sq, 0),), ([0.0, 0.0, 1.0],))), DimensionMismatch,
        "expected GptEffect, got list"),
    "LinearProgram-constraint": (lambda sq: LinearProgram(1, None, ([1.0],)),
                                 DimensionMismatch, "expected Constraint, got list"),
}


@pytest.mark.parametrize("states, error, shown", [
    ([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]], DimensionMismatch, "GptState"),
    (np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]]), DimensionMismatch, "GptState"),
    (5, DimensionMismatch, "GptState"),
    ([(float("nan"), 0.0, 1.0), (-1.0, 0.0, 1.0)], NotAState, "not finite"),
    ([(5.0, 5.0, 1.0), (-1.0, 0.0, 1.0)], NotAState, "outside the model"),
    ([(0.5, 0.0, 2.0), (-1.0, 0.0, 1.0)], NotAState, "homogeneous coordinate"),
    *((name, DimensionMismatch, shown) for name, (_, shown) in _ENTRY_POINT_CASES.items()),
    *((name, InvalidProbVector, shown) for name, (_, shown) in _PROB_VECTOR_CASES.items()),
    *((name, error, shown) for name, (_, error, shown) in _OTHER_CASES.items()),
    *((name, error, shown) for name, (_, error, shown) in _WRONG_TYPE_CASES.items()),
], ids=["lists", "array", "non-iterable", "nan", "outside", "homogeneous-2",
        *_ENTRY_POINT_CASES, *_PROB_VECTOR_CASES, *_OTHER_CASES, *_WRONG_TYPE_CASES])
def test_perfectly_distinguishable_rejects_malformed_states_by_name(square, states, error,
                                                                     shown, capfd):
    # and so does every entry point of _ENTRY_POINT_CASES, _PROB_VECTOR_CASES,
    # _OTHER_CASES and _WRONG_TYPE_CASES (named by a string here): a raw list
    # names the type expected, not an AttributeError, and an index that names
    # no vertex is refused, not read from the end
    if isinstance(states, str):
        call = {**_ENTRY_POINT_CASES, **_PROB_VECTOR_CASES, **_OTHER_CASES,
                **_WRONG_TYPE_CASES}[states][0]
    else:
        if error is NotAState:
            states = [gpt_models.GptState(point) for point in states]
        call = functools.partial(perfectly_distinguishable, states=states)
    with pytest.raises(error, match=shown):
        call(square)
    assert capfd.readouterr().err == ""


def test_spans_from_the_facets_match_the_highs_spans_lp(monkeypatch):
    # every maximal distinguishable set of each model, its coordinates rescaled
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                            / "reference.json").read_text())
    customs = [points for _, points in random_custom_vertex_sets()]
    customs += reference["custom"].values()
    models = [("custom_polytope", {"vertices": points}) for points in customs]
    models += [(kind, _frame_model_args(kind, n)) for kind, n in FRAME_MODELS]
    calls = _record_calls(monkeypatch, "_spans_model")
    answers = set()
    for kind, args in models:
        try:
            space = build_model(kind, **args)
        except DegenerateModel:
            continue
        calls.clear()
        enumerate_frames(space)
        (maximal,) = calls
        for scale in (1e-3, 1.0, 1e3):
            verts = space.vertex_array()
            verts[:, :-1] *= scale
            scaled = gpt_models.StateSpace(space.kind, tuple(map(tuple, verts.tolist())))
            spans = gpt_models._spans_model(scaled, maximal)
            assert spans == [highs_spans(verts, combo) for combo in maximal], (args, scale)
            answers.update(spans)
    assert answers == {True, False}


def _facet_models():
    """(label, model, its points in a full-dimensional chart) for the qhull check."""
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                            / "reference.json").read_text())
    for n in range(3, 17):
        space = build_model("regular_polygon", n=n)
        yield f"polygon{n}", space, space.vertex_array()[:, :-1]
    for n in range(3, 17):
        # the unit vectors of R^n span a hyperplane; without the last coordinate
        # they are a full-dimensional simplex of R^(n - 1)
        space = build_model("simplex", n=n)
        yield f"simplex{n}", space, space.vertex_array()[:, :-2]
    for label, points in reference["custom"].items():
        yield label, build_model("custom_polytope", vertices=points), np.asarray(points)
    for dim in range(3, 8):
        for seed in (1, 2):
            points = np.random.default_rng(seed).normal(size=(16, dim))
            yield f"R{dim}-seed{seed}", build_model("custom_polytope", vertices=points), points


def test_facets_match_qhull():
    tol = gpt_models._FACET_TOL
    for label, space, points in _facet_models():
        effects, masks = space._facets
        assert set(masks.tolist()) == qhull_facet_masks(points), label
        assert len(set(masks.tolist())) == len(masks), label
        values = effects @ space.vertex_array().T
        on = (masks[:, None] >> np.arange(space.n_vertices) & 1).astype(bool)
        # an effect: >= 0 on every vertex, 0 on its facet's and at most 1
        assert values.min() >= -tol, label
        assert np.abs(values[on]).max() <= tol, label
        assert values.max() <= 1.0 + tol, label
        assert (values[~on] > tol).all(), label


def test_facets_are_built_once_and_read_only():
    space = build_model("custom_polytope", vertices=np.random.default_rng(1).normal(size=(16, 4)))
    facets = space._facets
    assert space._facets is facets
    for array in facets:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def _twin_effect_lp(cells, a_eq, b_eq) -> LinearProgram:
    cons = [Constraint(tuple(row), rel, bound) for row, (rel, bound)
            in zip(np.repeat(cells, 2, axis=0),
                   itertools.cycle(((">=", 0.0), ("<=", 1.0))))]
    cons += [Constraint(tuple(row), "=", rhs) for row, rhs in zip(a_eq, b_eq)]
    n = a_eq.shape[1]
    return LinearProgram(n_vars=n, objective=None, constraints=tuple(cons),
                         bounds=((None, None),) * n)


def _twin_cone_lp(space, points) -> LinearProgram:
    # x >= 0 over the facets through all points but one, their effects'
    # values summing to 1 on every vertex; the other facets' columns are 0
    effects, _ = space._facets
    zero = np.abs(points @ effects.T) <= gpt_models._FACET_TOL
    values = np.where(zero.sum(axis=0) >= len(points) - 1, space.vertex_array() @ effects.T, 0.0)
    return LinearProgram(n_vars=len(effects), objective=None,
                         constraints=tuple(Constraint(tuple(row), "=", 1.0) for row in values))


def _twin_witness_lp(space, points) -> LinearProgram:
    cells = np.kron(np.eye(len(points)), space.vertex_array())
    return _twin_effect_lp(cells, *gpt_models._witness_equalities(space, points))


def _twin_decomposition_lp(vertices, point) -> LinearProgram:
    cons = [Constraint(tuple(np.ones(vertices.shape[0])), "=", 1.0)]
    cons += [Constraint(tuple(vertices[:, k]), "=", float(point[k]))
             for k in range(vertices.shape[1])]
    return LinearProgram(n_vars=vertices.shape[0], objective=None, constraints=tuple(cons))


def test_array_built_lps_match_their_linear_program_twins(monkeypatch):
    # every internal LP enters the kernel as arrays; built from Constraints in
    # the same row order and solved by lp_solve, it must give the same result
    results = []
    solve = gpt_models._solve

    def recording(*args, **options):
        found = solve(*args, **options)
        results.extend(found)
        return found

    monkeypatch.setattr(gpt_models, "_solve", recording)

    statuses = set()

    def check(call, twin):
        results.clear()
        call()
        # multipliers included
        assert [repr(r) for r in results] == [repr(lp_solve(twin))]
        statuses.add(results[0].status)

    rng = np.random.default_rng(2024)
    for kind, n in FRAME_MODELS:
        space = build_model(kind, **_frame_model_args(kind, n))
        verts = space.vertex_array()
        for size in (2, 3):
            for combo in itertools.islice(itertools.combinations(range(space.n_vertices),
                                                                 size), 8):
                points = verts[list(combo)]
                check(lambda: gpt_models._screen(space, points[None]),
                      _twin_cone_lp(space, points))
                check(lambda: gpt_models._distinguishing_effects(space, points[None]),
                      _twin_witness_lp(space, points))
    # no frame LP has an objective: each is optimal or infeasible
    assert statuses == {"optimal", "infeasible"}

    polytopes = [rng.normal(size=(v, d)) for v, d in ((4, 2), (6, 3), (9, 4), (12, 5))]
    heptagon = build_model("regular_polygon", n=7)
    polytopes.append(min_tensor_vertices(ProductSpace(heptagon, heptagon)).as_array())
    seen = set()
    for verts in polytopes:
        center = verts.mean(axis=0)
        members = rng.dirichlet(np.ones(len(verts)), size=4) @ verts
        # past the vertex that maximizes a random functional, so outside the hull
        tops = verts[(verts @ rng.normal(size=(verts.shape[1], 3))).argmax(axis=0)]
        outsiders = center + 1.5 * (tops - center)
        for point, member in [*((p, True) for p in members), *((p, False) for p in outsiders)]:
            # the decomposition LP, solved by lp_solve, referees the cone test
            twin = _twin_decomposition_lp(verts, point)
            assert convex_kernel.decomposition_program(verts, point) == twin
            feasible = lp_solve(twin).status == "optimal"
            weights = convex_kernel.convex_weights(point, convex_kernel.Polytope(verts))
            assert (weights is not None) == feasible
            seen.add(feasible == member)
    assert seen == {True}


def test_twelve_gon_frames_cost_cone_screen_lps_only(monkeypatch):
    calls = {name: _record_calls(monkeypatch, name)
             for name in ("_screen", "_distinguishing_effects", "_spans_model")}
    entries = []
    solved = _count_lps(monkeypatch, entries)
    assert len(enumerate_frames(build_model("regular_polygon", n=12))) == 18
    assert {name: sum(map(_sets, made)) for name, made in calls.items()} == {
        "_screen": 66, "_distinguishing_effects": 0, "_spans_model": 18}
    assert len(solved) == 66
    # one stack of cone LPs over all 66 pairs; the spans come from the
    # model's facets
    assert entries == [66]


def test_simplex16_frame_comes_from_one_clique_jump(monkeypatch):
    guesses = _record_calls(monkeypatch, "_least_squares_effects")
    entries = []
    solved = _count_lps(monkeypatch, entries)
    space = build_model("simplex", n=16)
    frames = enumerate_frames(space)
    # one stack of cone LPs for the 120 pairs, one for the 560 triples, then
    # the whole clique; the spans come from the model's facets, and least
    # squares guesses the one frame's witness
    assert entries == [120, 560, 1]
    assert len(solved) == 681
    assert list(map(_sets, guesses)) == [1]
    assert [f.vertex_indices for f in frames] == [tuple(range(16))]
    effects = np.array([e.coeffs for e in frames[0].effects])
    # effect i reads the barycentric coordinate i
    assert np.abs(effects @ space.vertex_array().T - np.eye(16)).max() <= 1e-12


def test_maximal_cliques():
    # a triangle with a tail, and an isolated node
    cliques = gpt_models._maximal_cliques(5, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert cliques == [(0, 1, 2), (2, 3), (4,)]
    assert gpt_models._maximal_cliques(4, []) == [(0,), (1,), (2,), (3,)]


def test_mix_state_takes_a_probability_vector_not_weights_to_normalize(square):
    with pytest.raises(InvalidProbVector, match="sum to 4.0, not 1"):
        mix_state(square, [1, 1, 1, 1])
    # weights within TOL of a sum of 1 are accepted, and rescaled
    near = mix_state(square, [0.25, 0.25, 0.25, 0.25 + 1e-10])
    assert near.point == pytest.approx(mix_state(square, [0.25] * 4).point, abs=1e-9)


def test_perfectly_distinguishable_on_vertices_and_mixed_states(square, pentagon):
    # adjacent square vertices are distinguishable (x/2 - y/2 + 1/2), yet lie on an edge
    assert perfectly_distinguishable(square, [vertex_state(square, 0), vertex_state(square, 1)])
    assert not perfectly_distinguishable(square, [vertex_state(square, 0), make_state(square, [0, 0])])
    assert perfectly_distinguishable(pentagon, [vertex_state(pentagon, 0), vertex_state(pentagon, 2)])
    edge_midpoint = mix_state(pentagon, [0.5, 0.5, 0, 0, 0])
    assert not perfectly_distinguishable(pentagon, [edge_midpoint, vertex_state(pentagon, 1)])
    assert perfectly_distinguishable(pentagon, [edge_midpoint, vertex_state(pentagon, 3)])


def test_every_effect_coefficient_is_a_python_float(square, pentagon):
    reference = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                            / "reference.json").read_text())
    custom = build_model("custom_polytope", vertices=reference["custom"]["custom2d8"])
    effects = [unit_effect(square)]
    for space in (square, pentagon, custom):
        effects += [e for frame in enumerate_frames(space) for e in frame.effects]
    assert all(type(x) is float for e in effects for x in e.coeffs)
