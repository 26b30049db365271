import itertools
import math
from collections import Counter

import numpy as np
import pytest

from convexinfo import (
    DensityMatrix,
    NoMajorant,
    ProbVector,
    SpectralDecomposition,
    apply_phi,
    build_model,
    decomposition_constraints,
    frame_entropy,
    generalized_majorizes,
    generalized_spectrum,
    lp_solve,
    majorizes,
    make_preset,
    make_state,
    mix_state,
    quantum_entropy,
    spectral_entropy,
    topk_weight_max,
    vertex_state,
)
from convexinfo import convex_kernel, gpt_models
from convexinfo.entropic import REGIME_INC_CONCAVE, EntropicPair
from convexinfo.errors import DimensionMismatch, NotAState, SpectrumUndefined
from convexinfo.gpt_models import GptState
from convexinfo.probvec import TOL
from convexinfo.spectra import _package

from oracles import (
    decomposition_grid_samples,
    decomposition_polytope_vertices,
    certifies_no_majorant,
    prefix_profile,
    robin_hood_pair,
    shannon_entropy,
)

LN2 = math.log(2)

#: quadrilateral state with no majorant: the level-1 supremum is reached only
#: at one end of the decomposition family, the level-2 supremum only at the
#: other (frozen from the hand analysis of the constraint system).
NO_MAJORANT_COORDS = (0.4, 0.25)


def _identity_pair():
    return EntropicPair(h=lambda x: x - 1.0, phi=lambda p: p,
                        regime=REGIME_INC_CONCAVE, name="identity")


def _grid_samples(space, state, step=1e-2):
    return decomposition_grid_samples(space.vertex_array(), state.as_array(), step=step)


def test_decomposition_constraints_simplex_unique(simplex3):
    state = mix_state(simplex3, [0.2, 0.3, 0.5])
    skeleton = decomposition_constraints(simplex3, state)
    result = lp_solve(skeleton)
    assert result.status == "optimal"
    assert np.allclose(result.point, [0.2, 0.3, 0.5], atol=1e-9)


def test_decomposition_constraints_square_family(square):
    center = make_state(square, [0, 0])
    samples = _grid_samples(square, center)
    # opposite pairs carry equal weight in every decomposition of the center
    assert np.allclose(samples[:, 0], samples[:, 2], atol=1e-9)
    assert np.allclose(samples[:, 1], samples[:, 3], atol=1e-9)
    assert np.allclose(samples[:, 0] + samples[:, 1], 0.5, atol=1e-9)


def test_decomposition_constraints_vertex(square):
    skeleton = decomposition_constraints(square, vertex_state(square, 1))
    result = lp_solve(skeleton)
    assert np.allclose(result.point, [0, 1, 0, 0], atol=1e-9)


def test_decomposition_constraints_rejects_outside_points(square):
    from convexinfo.gpt_models import GptState
    with pytest.raises(NotAState):
        decomposition_constraints(square, GptState(point=(0.9, 0.9, 1.0)))


def test_spectrum_simplex_is_sorted_barycentric(simplex3):
    spec = generalized_spectrum(simplex3, mix_state(simplex3, [0.2, 0.3, 0.5]))
    assert spec.weights.components == (0.5, 0.3, 0.2)
    assert spec.support_indices == (2, 1, 0)


def test_spectrum_square_center(square):
    spec = generalized_spectrum(square, make_state(square, [0, 0]))
    assert np.allclose(spec.weights.components, (0.5, 0.5), atol=1e-9)
    assert spec.support_indices in ((0, 2), (2, 0))


def test_spectrum_quadrilateral_origin(quadrilateral):
    spec = generalized_spectrum(quadrilateral, make_state(quadrilateral, [0, 0]))
    assert np.allclose(spec.weights.components, (2.0 / 3.0, 1.0 / 3.0), atol=1e-8)
    assert set(spec.support_indices) == {2, 3}
    # the majorant strictly dominates the symmetric decomposition (1/2, 1/2)
    assert majorizes(spec.weights, ProbVector([0.5, 0.5]))
    assert not majorizes(ProbVector([0.5, 0.5]), spec.weights)


def test_spectrum_pentagon_center_against_grid_oracle(pentagon):
    center = make_state(pentagon, [0, 0])
    spec = generalized_spectrum(pentagon, center)
    samples = _grid_samples(pentagon, center)
    if isinstance(spec, NoMajorant):
        assert certifies_no_majorant(samples, spec.best_candidate)
    else:
        profile = prefix_profile(spec.weights.components, 5)
        sample_profiles = np.cumsum(np.sort(samples, axis=1)[:, ::-1], axis=1)
        assert (profile[None, :] >= sample_profiles - 1e-9).all()


def test_no_majorant_on_asymmetric_quadrilateral(quadrilateral):
    state = make_state(quadrilateral, NO_MAJORANT_COORDS)
    spec = generalized_spectrum(quadrilateral, state)
    assert isinstance(spec, NoMajorant)
    # frozen hand values: T = (0.575, 53/60, 1), best candidate at one end
    assert spec.tk[0] == pytest.approx(0.575, abs=1e-9)
    assert spec.tk[1] == pytest.approx(0.575 + 0.25 + 0.0583333333333, abs=1e-9)
    assert spec.gap > 1e-3
    samples = _grid_samples(quadrilateral, state)
    assert certifies_no_majorant(samples, spec.best_candidate)


def test_majorant_soundness_on_fixture_states(square, pentagon, quadrilateral, rng):
    hexagon = build_model("regular_polygon", n=6)
    for space in (square, pentagon, quadrilateral, hexagon):
        for _ in range(4):
            state = mix_state(space, rng.dirichlet(np.ones(space.n_vertices)))
            spec = generalized_spectrum(space, state)
            samples = _grid_samples(space, state)
            sample_profiles = np.cumsum(np.sort(samples, axis=1)[:, ::-1], axis=1)
            if isinstance(spec, NoMajorant):
                assert certifies_no_majorant(samples, spec.best_candidate)
                continue
            profile = prefix_profile(spec.weights.components, space.n_vertices)
            assert (profile[None, :] >= sample_profiles - 1e-9).all()


def test_spectrum_reconstruction(square, pentagon, quadrilateral, rng):
    for space in (square, pentagon, quadrilateral):
        for _ in range(5):
            state = mix_state(space, rng.dirichlet(np.ones(space.n_vertices)))
            spec = generalized_spectrum(space, state)
            if isinstance(spec, NoMajorant):
                continue
            recon = np.zeros(space.dim)
            for w, pure in zip(spec.weights.components, spec.support):
                recon += w * pure.as_array()
            assert np.max(np.abs(recon - state.as_array())) <= 1e-8


def test_classical_degeneration(simplex4, rng):
    shannon = make_preset("shannon")
    for _ in range(10):
        bary = rng.dirichlet(np.ones(4))
        state = mix_state(simplex4, bary)
        spec = generalized_spectrum(simplex4, state)
        assert np.allclose(spec.weights.components, np.sort(bary)[::-1], atol=1e-9)
        value, _ = frame_entropy(shannon, simplex4, state)
        assert value == pytest.approx(spectral_entropy(shannon, simplex4, state), abs=1e-12)


def test_quantum_degeneration_on_segment_model(simplex2, rng):
    shannon = make_preset("shannon")
    for _ in range(10):
        lam = float(rng.uniform(0.05, 0.95))
        rho = DensityMatrix([[lam, 0], [0, 1 - lam]])
        state = mix_state(simplex2, [lam, 1 - lam])
        assert spectral_entropy(shannon, simplex2, state) == pytest.approx(
            quantum_entropy(shannon, rho), abs=1e-9)


def test_generalized_majorizes_examples(square):
    center = make_state(square, [0, 0])
    vertex = vertex_state(square, 0)
    assert generalized_majorizes(square, vertex, center)   # center < vertex
    assert generalized_majorizes(square, center, center)
    assert not generalized_majorizes(square, center, vertex)


def test_generalized_majorizes_undefined_reports_side(quadrilateral):
    good = make_state(quadrilateral, [0, 0])
    bad = make_state(quadrilateral, NO_MAJORANT_COORDS)
    with pytest.raises(SpectrumUndefined) as err:
        generalized_majorizes(quadrilateral, bad, good)
    assert err.value.state == bad
    with pytest.raises(SpectrumUndefined) as err:
        generalized_majorizes(quadrilateral, good, bad)
    assert err.value.state == bad


def test_apply_phi_identity_recovers_decomposition(square):
    center = make_state(square, [0, 0])
    mixture = apply_phi(square, center, _identity_pair())
    spec = generalized_spectrum(square, center)
    assert mixture.coefficients == spec.weights.components
    assert [s.point for s in mixture.states] == [s.point for s in spec.support]


def test_apply_phi_shannon_on_square_center(square):
    shannon = make_preset("shannon")
    mixture = apply_phi(square, make_state(square, [0, 0]), shannon)
    assert np.allclose(mixture.coefficients, [-0.5 * math.log(0.5)] * 2, atol=1e-12)
    assert mixture.unit_total == pytest.approx(LN2, abs=1e-12)


def test_apply_phi_square_map_on_quadrilateral(quadrilateral):
    tsallis2 = make_preset("tsallis", 2)  # phi(p) = p^2
    mixture = apply_phi(quadrilateral, make_state(quadrilateral, [0, 0]), tsallis2)
    assert mixture.unit_total == pytest.approx(4.0 / 9.0 + 1.0 / 9.0, abs=1e-8)


def test_apply_phi_undefined(quadrilateral):
    with pytest.raises(SpectrumUndefined):
        apply_phi(quadrilateral, make_state(quadrilateral, NO_MAJORANT_COORDS),
                  make_preset("shannon"))


def test_spectral_entropy_examples(square, quadrilateral):
    shannon = make_preset("shannon")
    assert spectral_entropy(shannon, square, vertex_state(square, 2)) == 0.0
    assert spectral_entropy(shannon, square, make_state(square, [0, 0])) == \
        pytest.approx(LN2, abs=1e-9)
    assert spectral_entropy(shannon, quadrilateral, make_state(quadrilateral, [0, 0])) == \
        pytest.approx(shannon_entropy([2.0 / 3.0, 1.0 / 3.0]), abs=1e-8)
    assert shannon_entropy([2.0 / 3.0, 1.0 / 3.0]) == pytest.approx(0.636514, abs=1e-6)


def test_frame_entropy_examples(simplex3, square):
    shannon = make_preset("shannon")
    value, frame = frame_entropy(shannon, simplex3, mix_state(simplex3, [0.2, 0.3, 0.5]))
    assert value == pytest.approx(shannon_entropy([0.2, 0.3, 0.5]), abs=1e-12)
    assert value == pytest.approx(1.029653, abs=1e-6)
    assert frame.vertex_indices == (0, 1, 2)

    value, frame = frame_entropy(shannon, square, make_state(square, [0, 0]))
    assert value == pytest.approx(LN2, abs=1e-9)
    assert frame.vertex_indices == (0, 2)  # both frames tie; first enumerated wins

    for preset in (shannon, make_preset("renyi", 2), make_preset("tsallis", 0.5)):
        value, _ = frame_entropy(preset, square, vertex_state(square, 1))
        assert value == pytest.approx(0.0, abs=1e-12)


def test_schur_concavity_transfer_on_simplex(simplex4, rng):
    presets = [make_preset("shannon"), make_preset("renyi", 2), make_preset("renyi", 0.5),
               make_preset("tsallis", 2), make_preset("tsallis", 0.5)]
    for _ in range(10):
        p, q = robin_hood_pair(rng, 4)
        lower = mix_state(simplex4, p)   # p < q
        upper = mix_state(simplex4, q)
        assert generalized_majorizes(simplex4, upper, lower)
        for pair in presets:
            assert spectral_entropy(pair, simplex4, lower) >= \
                spectral_entropy(pair, simplex4, upper) - 1e-9


def test_schur_concavity_transfer_on_square(square, rng):
    presets = [make_preset("shannon"), make_preset("renyi", 2), make_preset("tsallis", 0.5)]
    checked = 0
    for _ in range(30):
        a = mix_state(square, rng.dirichlet(np.ones(4)))
        b = mix_state(square, rng.dirichlet(np.ones(4)))
        try:
            if not generalized_majorizes(square, b, a):
                continue
        except SpectrumUndefined:
            continue
        checked += 1
        for pair in presets:
            assert spectral_entropy(pair, square, a) >= \
                spectral_entropy(pair, square, b) - 1e-9
    assert checked > 0


def test_frame_vs_spectral_ordering_recorded(simplex3, square, rng):
    # fixture-level record of how the two definitions compare: they coincide
    # on simplexes and at the square's center, but on generic square states
    # the frame minimum drops BELOW the spectral value (the fiducial
    # statistics (1+x)/2 can be sharper than any pure decomposition), so the
    # direction is recorded per state, not asserted globally
    shannon = make_preset("shannon")
    for _ in range(10):
        state = mix_state(simplex3, rng.dirichlet(np.ones(3)))
        frame_value, _ = frame_entropy(shannon, simplex3, state)
        assert frame_value == pytest.approx(
            spectral_entropy(shannon, simplex3, state), abs=1e-9)

    center = make_state(square, [0, 0])
    frame_value, _ = frame_entropy(shannon, square, center)
    assert frame_value == pytest.approx(spectral_entropy(shannon, square, center), abs=1e-9)

    # frozen counterexample to frame >= spectral on the square
    state = make_state(square, [0.25, 0.11])
    frame_value, _ = frame_entropy(shannon, square, state)
    spectral_value = spectral_entropy(shannon, square, state)
    assert frame_value == pytest.approx(shannon_entropy([(1 + 0.25) / 2, (1 - 0.25) / 2]),
                                        abs=1e-9)
    assert frame_value < spectral_value

    comparisons = []
    for _ in range(10):
        state = mix_state(square, rng.dirichlet(np.ones(4)))
        frame_value, _ = frame_entropy(shannon, square, state)
        try:
            comparisons.append(frame_value - spectral_entropy(shannon, square, state))
        except SpectrumUndefined:
            continue
    assert comparisons  # recorded, not asserted: sign varies with the state


def test_quadrilateral_frame_vs_spectral_agree_at_origin(quadrilateral):
    # both definitions land on H(2/3, 1/3) for the barycentric origin
    shannon = make_preset("shannon")
    origin = make_state(quadrilateral, [0, 0])
    frame_value, frame = frame_entropy(shannon, quadrilateral, origin)
    assert frame.vertex_indices == (2, 3)
    assert frame_value == pytest.approx(spectral_entropy(shannon, quadrilateral, origin),
                                        abs=1e-9)


# -- vertex enumeration against the LP route and the exact-vertex oracle -------


def _random_custom(rng, n_vertices, dim):
    return build_model("custom_polytope", vertices=rng.normal(size=(n_vertices, dim)).tolist())


def _full_profile(spec, n):
    """T_k for every level k = 1..n: tk padded with ones, or the majorant's profile."""
    if isinstance(spec, NoMajorant):
        return np.concatenate([spec.tk, np.ones(n - len(spec.tk))])
    return prefix_profile(spec.weights.components, n)


def _decomposition(space, spec):
    """Full-length weights of the majorant or of the best candidate."""
    if isinstance(spec, NoMajorant):
        return np.asarray(spec.best_candidate)
    w = np.zeros(space.n_vertices)
    w[list(spec.support_indices)] = spec.weights.components
    return w


def test_spectrum_matches_topk_lps_and_vertex_oracle():
    rng = np.random.default_rng(31)
    verdicts = set()
    for trial in range(12):
        space = _random_custom(rng, int(rng.integers(5, 9)), 2 + trial % 3)
        n = space.n_vertices
        state = mix_state(space, rng.dirichlet(np.ones(n)))
        spec = generalized_spectrum(space, state)
        verdicts.add(isinstance(spec, NoMajorant))

        skeleton = decomposition_constraints(space, state)
        tk = _full_profile(spec, n)
        levels = len(spec.tk) if isinstance(spec, NoMajorant) else n
        for k in range(1, levels + 1):
            lp_best = max(topk_weight_max(skeleton, subset)
                          for subset in itertools.combinations(range(n), k))
            assert tk[k - 1] == pytest.approx(lp_best, abs=1e-9)

        exact = decomposition_polytope_vertices(space.vertex_array(), state.as_array())
        profiles = np.cumsum(np.sort(exact, axis=1)[:, ::-1], axis=1)
        shortfall = (profiles.max(axis=0) - profiles).sum(axis=1).min()
        assert isinstance(spec, NoMajorant) == (shortfall > 1e-8)
    assert verdicts == {True, False}


@pytest.mark.parametrize("dim", [3, 7])
def test_spectrum_at_vertex_cap(dim):
    # 16 vertices in R^7: rank 8, so C(16, 8) = 12870 bases
    rng = np.random.default_rng(100 + dim)
    space = _random_custom(rng, 16, dim)
    for _ in range(2):
        state = mix_state(space, rng.dirichlet(np.full(16, 0.7)))
        spec = generalized_spectrum(space, state)
        w = _decomposition(space, spec)
        assert w.min() >= 0.0
        assert np.max(np.abs(w @ space.vertex_array() - state.as_array())) <= 1e-8
        skeleton = decomposition_constraints(space, state)
        tk = _full_profile(spec, 16)
        for k in range(1, len(tk) + 1):
            for _ in range(20):
                subset = rng.choice(16, size=k, replace=False)
                assert tk[k - 1] >= topk_weight_max(skeleton, subset) - 1e-9


def test_spectrum_invariant_under_rescaling():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(9, 5))
    mixtures = [rng.dirichlet(np.ones(9)) for _ in range(6)]

    def spectra_at(scale):
        space = build_model("custom_polytope", vertices=(scale * base).tolist())
        return [generalized_spectrum(space, mix_state(space, m)) for m in mixtures]

    reference = spectra_at(1.0)
    assert {isinstance(spec, NoMajorant) for spec in reference} == {True, False}
    for scale in (1e-3, 1e3):
        for ref, got in zip(reference, spectra_at(scale)):
            assert type(got) is type(ref)
            assert np.allclose(_full_profile(got, 9), _full_profile(ref, 9), atol=1e-8, rtol=0)


def test_spectrum_rejects_states_outside_the_model(square):
    for point in ((0.9, 0.9, 1.0), (2.0, 0.0, 1.0), (0.0, 0.0, 2.0)):
        with pytest.raises(NotAState):
            generalized_spectrum(square, GptState(point=point))


@pytest.mark.parametrize("kind, n", [("regular_polygon", n) for n in (3, 4, 6, 9, 12)]
                         + [("simplex", n) for n in (2, 5, 8)])
def test_stacked_frame_entropy_matches_the_loop_reference(kind, n, rng, monkeypatch):
    # all frames scored in one array: same values and argmin frame as one frame at a time
    from oracles import loop_reference
    ours, theirs = build_model(kind, n=n), loop_reference.build_model(kind, n=n)
    frames = loop_reference.enumerate_frames(theirs)  # the reference enumerates per call
    monkeypatch.setattr(loop_reference.spectra, "enumerate_frames", lambda space: frames)
    presets = [("shannon", None), ("renyi", 2.0), ("tsallis", 0.5)]
    for weights in rng.dirichlet(np.full(n, 0.5), size=4):
        for name, parameter in presets:
            value, frame = frame_entropy(make_preset(name, parameter), ours,
                                         mix_state(ours, weights))
            want, want_frame = loop_reference.frame_entropy(
                loop_reference.make_preset(name, parameter), theirs,
                loop_reference.mix_state(theirs, weights))
            assert value == pytest.approx(want, rel=0, abs=1e-14)
            assert frame.vertex_indices == want_frame.vertex_indices
    with pytest.raises(DimensionMismatch):
        frame_entropy(make_preset("shannon"), ours, GptState(point=(0.0,) * (ours.dim + 1)))


# -- per-model spectrum bases ---------------------------------------------------


def _per_call_vertices(space, state):
    """Reference: the decomposition polytope's vertices with every basis rebuilt per call."""
    verts, b = space.vertex_array(), np.append(state.as_array(), 1.0)
    a = np.vstack([verts.T, np.ones(len(verts))])
    cut = 1e-10 * np.linalg.norm(a, 2)
    prefix_ranks = [np.linalg.matrix_rank(a[:i + 1], tol=cut) for i in range(len(a))]
    rows = np.flatnonzero(np.diff(prefix_ranks, prepend=0))
    scale = np.linalg.norm(a[rows], axis=1)
    a_r, b_r = a[rows] / scale[:, None], b[rows] / scale
    bases = np.array(list(itertools.combinations(range(a.shape[1]), len(rows))))
    sub = np.transpose(a_r[:, bases], (1, 0, 2))
    ratio = np.abs(np.linalg.det(sub)) / np.prod(np.linalg.norm(sub, axis=1), axis=1)
    bases, sub = bases[ratio > 1e-12], sub[ratio > 1e-12]
    x = np.linalg.solve(sub, np.broadcast_to(b_r, (len(sub), len(rows)))[..., None])[..., 0]
    feasible = x.min(axis=1) >= -1e-9
    w = np.zeros((int(feasible.sum()), a.shape[1]))
    w[np.arange(len(w))[:, None], bases[feasible]] = np.clip(x[feasible], 0.0, None)
    return w[np.abs(w @ a.T - b).max(axis=1) <= 1e-8]


def _cache_sweep_models():
    for n in range(3, 17):
        yield pytest.param(lambda n=n: build_model("regular_polygon", n=n), id=f"polygon{n}")
    for n in range(2, 11):
        yield pytest.param(lambda n=n: build_model("simplex", n=n), id=f"simplex{n}")
    rng = np.random.default_rng(2024)
    for dim in (2, 3, 4):
        base = rng.normal(size=(int(rng.integers(dim + 2, 11)), dim))
        for scale in (1.0, 1e-3, 1e3):
            yield pytest.param(
                lambda v=(scale * base).tolist(): build_model("custom_polytope", vertices=v),
                id=f"custom{dim}d{len(base)}x{scale:g}")


@pytest.mark.parametrize("build", list(_cache_sweep_models()))
def test_warm_bases_give_a_fresh_models_spectra(build):
    warm = build()
    rng = np.random.default_rng(warm.n_vertices * 100 + warm.dim)
    weights = [rng.dirichlet(np.full(warm.n_vertices, 0.7)) for _ in range(5)]
    for w in [np.eye(warm.n_vertices)[0], *weights]:
        fresh = build()
        state = mix_state(fresh, w)
        assert repr(generalized_spectrum(warm, state)) == repr(generalized_spectrum(fresh, state))
        assert np.array_equal(gpt_models._decomposition_vertices(warm, state),
                              _per_call_vertices(warm, state))


def test_package_matches_the_argsort_reference():
    # the kept weights' sum is read from the row's profile, where the
    # reference sums them as numpy scalars in stable argsort order: rows with
    # ties, weights just below and above TOL, and totals that miss 1 by more
    # than TOL (rescaled) give the same decomposition, bit for bit
    def reference(space, weights):
        kept = [int(i) for i in np.argsort(-weights, kind="stable") if weights[i] >= TOL]
        total = sum(weights[i] for i in kept)
        scale = total if abs(total - 1.0) > TOL else 1.0
        return SpectralDecomposition(ProbVector([weights[i] / scale for i in kept]),
                                     tuple(vertex_state(space, i) for i in kept), tuple(kept))

    space, rng, rescaled = build_model("simplex", n=16), np.random.default_rng(30), 0
    for trial in range(3000):
        w = np.zeros(16)
        support = rng.choice(16, int(rng.integers(1, 17)), replace=False)
        w[support] = (rng.integers(1, 4, len(support)) / 8.0 if trial % 3 == 0
                      else rng.dirichlet(np.ones(len(support))))
        w[rng.choice(16, 4, replace=False)] += rng.uniform(0.0, 1.5 * TOL, 4)
        w *= 1.0 + rng.uniform(-5.0, 5.0) * TOL
        profile = np.sort(w)[::-1].cumsum()
        assert repr(_package(space, w, profile)) == repr(reference(space, w)), w.tolist()
        rescaled += abs(w[w >= TOL].sum() - 1.0) > TOL
    assert rescaled > 1000


def test_spectrum_bases_are_built_once_per_model(monkeypatch):
    space = build_model("custom_polytope", vertices=np.random.default_rng(8).normal(
        size=(9, 3)).tolist())
    states = [mix_state(space, w) for w in np.random.default_rng(9).dirichlet(np.ones(9), 20)]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    per_state = []
    for state in states:
        before = len(calls)
        generalized_spectrum(space, state)
        per_state.append(len(calls) - before)
    # one batched SVD takes every prefix rank of the first state's model
    assert per_state == [1] + [0] * 19


def test_a_state_and_its_spectrum_share_one_solve(monkeypatch):
    space = build_model("regular_polygon", n=6)
    generalized_spectrum(space, make_state(space, [0.1, 0.2]))  # builds the bases
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append("solve") or solve(*args))
    for module in (convex_kernel, gpt_models):
        monkeypatch.setattr(module, "_solve", lambda *args: calls.append("lp"))
    for coords in ([0.3, -0.2], [0.0, 0.5]):
        generalized_spectrum(space, make_state(space, coords))
    generalized_majorizes(space, make_state(space, [0.2, 0.1]), make_state(space, [-0.1, 0.1]))
    assert calls == ["solve"] * 4


def test_spectrum_bases_are_read_only(square):
    generalized_spectrum(square, make_state(square, [0.1, 0.2]))
    for array in square._spectrum_bases:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 0


def test_spectrum_rejects_a_state_of_another_dimension(square):
    for point in ((0.0, 1.0), (0.0, 0.0, 0.0, 1.0)):
        with pytest.raises(DimensionMismatch):
            generalized_spectrum(square, GptState(point=point))


# -- membership near the boundary -------------------------------------------------


def _edges(space):
    """Vertex pairs spanning an edge: on a custom model, those whose midpoint
    decomposes over the pair alone (exact oracle)."""
    n, verts = space.n_vertices, space.vertex_array()
    if space.kind == "regular_polygon":
        return [(i, (i + 1) % n) for i in range(n)]
    return [(i, j) for i, j in itertools.combinations(range(n), 2)
            if space.kind == "simplex"
            or decomposition_polytope_vertices(verts, (verts[i] + verts[j]) / 2)[:, [i, j]]
            .sum(axis=1).min() > 1.0 - 1e-9]


def _boundary_models():
    for n in (4, 7, 16):
        yield pytest.param(lambda n=n: build_model("regular_polygon", n=n), id=f"polygon{n}")
    yield pytest.param(lambda: build_model("simplex", n=4), id="simplex4")
    vertices = np.random.default_rng(41).normal(size=(12, 3)).tolist()
    yield pytest.param(lambda: build_model("custom_polytope", vertices=vertices),
                       id="custom3d12")


@pytest.mark.parametrize("build", list(_boundary_models()))
def test_membership_and_spectrum_agree_near_the_boundary(build):
    # points on edges, pushed outward by up to 2e-8: a point make_state accepts
    # has decomposition constraints and a spectrum, never an LP or sum error
    space = build()
    rng = np.random.default_rng(space.n_vertices * 10 + space.dim)
    verts = space.vertex_array()
    edges = _edges(space)
    accepted = Counter()
    for _ in range(12):
        i, j = edges[rng.integers(len(edges))]
        on_edge = (verts[i] + rng.uniform() * (verts[j] - verts[i]))[:-1]
        outward = on_edge - verts[:, :-1].mean(axis=0)
        outward /= np.linalg.norm(outward)
        for offset in (-1e-9, 0.0, 2e-9, 5e-9, 9e-9, 2e-8):
            try:
                state = make_state(space, on_edge + offset * outward)
            except NotAState:
                continue
            accepted[offset] += 1
            decomposition_constraints(space, state)
            spec = generalized_spectrum(space, state)
            assert isinstance(spec, (SpectralDecomposition, NoMajorant))
    assert accepted[-1e-9] == 12 and accepted[2e-8] == 0


def test_frame_entropy_reads_one_witness_per_frame(square):
    # frame (0, 2) also has the witness e0 = (1/2, 1/2, 1/2), e1 = u - e0,
    # whose outcomes have lower entropy than the value in use
    shannon = make_preset("shannon")
    state = make_state(square, [0.3, 0.4])
    value, frame = frame_entropy(shannon, square, state)
    assert value == 0.6108643020548938
    assert frame.vertex_indices == (1, 3)
    e0 = np.array([0.5, 0.5, 0.5])
    # make_effect checks [0, 1] on every vertex; e0 is 1 on vertex 0 and 0 on vertex 2
    witness = [gpt_models.make_effect(square, e) for e in (e0, square.unit() - e0)]
    assert [gpt_models.evaluate(e, vertex_state(square, i)) for e in witness
            for i in (0, 2)] == pytest.approx([1, 0, 0, 1], abs=1e-12)
    other = [gpt_models.evaluate(e, state) for e in witness]
    assert other == pytest.approx([0.85, 0.15], abs=1e-12)
    assert shannon_entropy(other) == pytest.approx(0.4227, abs=1e-4)
    assert shannon_entropy(other) < value
