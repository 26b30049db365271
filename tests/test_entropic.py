import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexinfo
from convexinfo import (
    ProbVector,
    classical_entropy,
    entropy_upper_bound,
    make_preset,
    pair_from_grid_descriptor,
    pair_from_spec,
)
from convexinfo.entropic import REGIME_DEC_CONVEX, REGIME_INC_CONCAVE, EntropicPair
from convexinfo.errors import BadParameter, InvalidEntropicPair

from oracles import renyi_entropy, robin_hood_pair, shannon_entropy, tsallis_entropy

PRESETS = [
    ("shannon", None),
    ("renyi", 0.5),
    ("renyi", 2.0),
    ("tsallis", 0.5),
    ("tsallis", 2.0),
]


def _preset(name, parameter):
    return make_preset(name, parameter)


def test_shannon_anchor_values():
    sh = make_preset("shannon")
    assert abs(sh.h(sh.phi(1.0))) == 0.0
    assert classical_entropy(sh, ProbVector([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-12)


def test_preset_regimes():
    assert make_preset("renyi", 2).regime == REGIME_DEC_CONVEX
    assert make_preset("tsallis", 0.5).regime == REGIME_INC_CONCAVE
    assert make_preset("shannon").regime == REGIME_INC_CONCAVE


def test_bad_parameters():
    for name in ("renyi", "tsallis"):
        with pytest.raises(BadParameter):
            make_preset(name, 1.0)
        with pytest.raises(BadParameter):
            make_preset(name, 0.0)
        with pytest.raises(BadParameter):
            make_preset(name, -0.3)
    with pytest.raises(BadParameter):
        make_preset("hartley")


def test_point_mass_entropy_is_exactly_zero():
    point = ProbVector([1.0, 0.0, 0.0])
    for name, parameter in PRESETS:
        assert classical_entropy(_preset(name, parameter), point) == 0.0


def test_tsallis2_uniform_binary():
    assert classical_entropy(make_preset("tsallis", 2), ProbVector([0.5, 0.5])) == \
        pytest.approx(0.5, abs=1e-12)


def test_upper_bound_examples():
    sh = make_preset("shannon")
    assert entropy_upper_bound(sh, 2) == pytest.approx(math.log(2), abs=1e-12)
    assert entropy_upper_bound(sh, 1) == pytest.approx(0.0, abs=1e-12)
    assert entropy_upper_bound(make_preset("renyi", 2), 4) == \
        pytest.approx(math.log(4), abs=1e-12)


def test_matches_closed_forms_on_random_vectors(rng):
    for _ in range(200):
        n = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(n))
        pv = ProbVector(p)
        assert classical_entropy(make_preset("shannon"), pv) == \
            pytest.approx(shannon_entropy(p), abs=1e-12)
        for a in (0.5, 2.0, 3.5):
            assert classical_entropy(make_preset("renyi", a), pv) == \
                pytest.approx(renyi_entropy(p, a), abs=1e-12)
            assert classical_entropy(make_preset("tsallis", a), pv) == \
                pytest.approx(tsallis_entropy(p, a), abs=1e-12)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=150, deadline=None)
def test_schur_concavity_all_presets(n, seed):
    rng = np.random.default_rng(seed)
    p, q = robin_hood_pair(rng, n)
    pv, qv = ProbVector(p), ProbVector(q)
    for name, parameter in PRESETS:
        pair = _preset(name, parameter)
        assert classical_entropy(pair, pv) >= classical_entropy(pair, qv) - 1e-9


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=100, deadline=None)
def test_bounds_hold(n, seed):
    rng = np.random.default_rng(seed)
    pv = ProbVector(rng.dirichlet(np.ones(n)))
    for name, parameter in PRESETS:
        pair = _preset(name, parameter)
        value = classical_entropy(pair, pv)
        assert value >= -1e-9
        assert value <= entropy_upper_bound(pair, n) + 1e-9


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=100, deadline=None)
def test_permutation_invariance(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n))
    perm = rng.permutation(n)
    for name, parameter in PRESETS:
        pair = _preset(name, parameter)
        assert classical_entropy(pair, ProbVector(p)) == \
            pytest.approx(classical_entropy(pair, ProbVector(p[perm])), abs=1e-12)


def test_renyi_limit_continuity(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        pv = ProbVector(rng.dirichlet(np.ones(n)))
        target = classical_entropy(make_preset("shannon"), pv)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            assert abs(classical_entropy(make_preset("renyi", a), pv) - target) <= 1e-3


def test_expansibility_for_presets(rng):
    # appending zero outcomes never changes a preset entropy
    for name, parameter in PRESETS:
        pair = _preset(name, parameter)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            padded = np.concatenate([p, [0.0, 0.0]])
            assert classical_entropy(pair, ProbVector(p)) == \
                pytest.approx(classical_entropy(pair, ProbVector(padded)), abs=1e-12)


def test_pair_from_spec_strings():
    assert pair_from_spec("shannon").name == "shannon"
    assert pair_from_spec("renyi:2.0").parameter == 2.0
    assert pair_from_spec("tsallis:0.5").parameter == 0.5
    with pytest.raises(BadParameter):
        pair_from_spec("renyi:abc")
    with pytest.raises(BadParameter):
        pair_from_spec("shannon:3")
    with pytest.raises(BadParameter):
        pair_from_spec("nope")


def test_presets_are_built_once_per_name_and_parameter():
    pair = make_preset("renyi", 2)
    assert make_preset(" Renyi", 2.0) is pair and pair_from_spec("renyi:2") is pair
    assert make_preset("renyi", np.float64(2.0)) is pair
    assert make_preset("tsallis", 2) is not pair and make_preset("renyi", 0.5) is not pair
    # shannon takes no parameter and ignores one given
    assert make_preset("shannon", 5) is make_preset("shannon") is pair_from_spec("shannon")
    # failures are not cached: each call raises again
    for _ in range(3):
        with pytest.raises(BadParameter):
            make_preset("renyi", 1.0)
        with pytest.raises(BadParameter):
            make_preset("tsallis", float("nan"))


def test_preset_cache_is_bounded(capsys):
    from convexinfo import cli
    from convexinfo.entropic import _PRESET_CACHE, _preset
    code = cli.main(["sweep", "--family", "renyi", "--grid",
                     f"1.5:3:{cli.MAX_GRID_POINTS}", "--p", "0.5,0.5"])
    assert code == 0 and len(capsys.readouterr().out.split()) == cli.MAX_GRID_POINTS + 1
    assert _preset.cache_info().currsize <= _PRESET_CACHE < cli.MAX_GRID_POINTS


def test_invalid_pairs_are_rejected():
    # phi(0) != 0
    with pytest.raises(InvalidEntropicPair):
        EntropicPair(h=lambda x: x - 1.0, phi=lambda p: 1.0, regime=REGIME_INC_CONCAVE)
    # h(phi(1)) != 0
    with pytest.raises(InvalidEntropicPair):
        EntropicPair(h=lambda x: x, phi=lambda p: p, regime=REGIME_INC_CONCAVE)
    # convex phi declared concave
    with pytest.raises(InvalidEntropicPair):
        EntropicPair(h=lambda x: x - 1.0, phi=lambda p: p * p, regime=REGIME_INC_CONCAVE)
    # decreasing h declared increasing
    with pytest.raises(InvalidEntropicPair):
        EntropicPair(h=lambda x: 1.0 - x, phi=lambda p: -p * math.log(p) if p > 0 else 0.0,
                     regime=REGIME_INC_CONCAVE)
    with pytest.raises(InvalidEntropicPair):
        EntropicPair(h=lambda x: x, phi=lambda p: p, regime="whatever")


def test_custom_grid_pair_tracks_shannon():
    xs = np.linspace(0.0, 1.0, 4001)
    phi_y = [-x * math.log(x) if x > 0 else 0.0 for x in xs]
    hx = np.linspace(0.0, math.log(16.0), 4001)
    desc = {
        "regime": REGIME_INC_CONCAVE,
        "phi": {"x": list(xs), "y": phi_y},
        "h": {"x": list(hx), "y": list(hx)},
        "name": "tabulated-shannon",
    }
    pair = pair_from_grid_descriptor(desc)
    pv = ProbVector([0.5, 0.25, 0.25])
    assert classical_entropy(pair, pv) == pytest.approx(shannon_entropy([0.5, 0.25, 0.25]),
                                                        abs=1e-6)


def test_custom_grid_pair_malformed():
    with pytest.raises(InvalidEntropicPair):
        pair_from_grid_descriptor({"regime": REGIME_INC_CONCAVE})
    with pytest.raises(InvalidEntropicPair):
        pair_from_grid_descriptor({"regime": REGIME_INC_CONCAVE,
                                   "phi": {"x": [0.0], "y": [0.0]},
                                   "h": {"x": [0.0, 1.0], "y": [0.0, 1.0]}})


@pytest.mark.parametrize("axis, grid", [("phi.x", [[0.0, 1.0], [0.5, 1.0]]), ("phi.y", 0.0),
                                        ("h.x", [[0.0], [1.0]]), ("h.y", [[0.0, 1.0]])])
def test_custom_grid_pair_rejects_grids_that_are_not_1d(axis, grid):
    # a 2-D grid once ended in np.interp's ValueError, a scalar one in len()'s TypeError
    desc = {"regime": REGIME_INC_CONCAVE, "phi": {"x": [0.0, 1.0], "y": [0.0, 0.0]},
            "h": {"x": [0.0, 1.0], "y": [0.0, 1.0]}}
    name, key = axis.split(".")
    desc[name][key] = grid
    with pytest.raises(InvalidEntropicPair, match=f"grid {axis} must be one-dimensional"):
        pair_from_grid_descriptor(desc)


def _scalar_closed_forms(name, a):
    """(phi, h) of a preset, one float at a time."""
    if name == "shannon":
        return (lambda p: -p * math.log(p) if p > 0 else 0.0), (lambda x: x)
    phi = lambda p: p ** a if p > 0 else 0.0
    if name == "renyi":
        return phi, lambda x: math.log(x) / (1.0 - a)
    return phi, lambda x: (x - 1.0) / (1.0 - a)


def test_array_presets_equal_the_scalar_closed_forms(rng):
    from convexinfo.entropic import N_CAP, _entropies
    for name, parameter in PRESETS:
        pair = _preset(name, parameter)
        phi, h = _scalar_closed_forms(name, parameter)
        for n in range(1, N_CAP + 1):
            p = rng.dirichlet(np.ones(n), size=4)
            p[0, : n // 2] = 0.0  # exact zeros, no warning under -W error
            p[0] /= p[0].sum()
            assert np.allclose(pair.phi(p), [[phi(x) for x in row] for row in p],
                               rtol=0, atol=1e-14)
            totals = [sum(phi(x) for x in row if x >= 1e-9) for row in p]
            assert np.allclose(pair.h(np.array(totals)), [h(t) for t in totals],
                               rtol=0, atol=1e-14)
            assert np.allclose(_entropies(pair, p), [h(t) for t in totals], rtol=0, atol=1e-14)


def test_scalar_only_and_grid_pairs_score_as_the_scalar_loop(rng):
    # the scalar-only callables are lifted once; validation and scores are those
    # of the first release, which called them one float at a time
    from oracles import loop_reference

    xs = np.linspace(0.0, 1.0, 201)
    desc = {"regime": REGIME_INC_CONCAVE,
            "phi": {"x": list(xs), "y": [math.sin(math.pi * x) for x in xs]},
            "h": {"x": [0.0, 4.0], "y": [0.0, 4.0]}}

    def build(lib):
        return [lib.entropic.EntropicPair(h=lambda x: x,
                                          phi=lambda p: -p * math.log(p) if p > 0 else 0.0,
                                          regime=REGIME_INC_CONCAVE),
                lib.entropic.EntropicPair(h=lambda x: math.log(x) / -1.0,
                                          phi=lambda p: p * p if p > 0 else 0.0,
                                          regime=REGIME_DEC_CONVEX),
                lib.pair_from_grid_descriptor(desc)]

    ours, reference = build(convexinfo), build(loop_reference)
    assert [isinstance(pair.phi, np.vectorize) for pair in ours] == [True, True, False]
    for _ in range(20):
        p = rng.dirichlet(np.ones(int(rng.integers(1, 17))))
        for mine, theirs in zip(ours, reference):
            assert classical_entropy(mine, ProbVector(p)) == pytest.approx(
                loop_reference.classical_entropy(theirs, loop_reference.ProbVector(p)),
                rel=0, abs=1e-14)

    wobbly = dict(desc, phi={"x": [0.0, 0.3, 0.6, 1.0], "y": [0.0, 0.1, 0.3, 0.0]})
    for lib, error in ((convexinfo, InvalidEntropicPair),
                       (loop_reference, loop_reference.errors.InvalidEntropicPair)):
        with pytest.raises(error, match="not concave"):
            lib.pair_from_grid_descriptor(wobbly)


def test_a_batch_with_an_all_zero_distribution_is_refused():
    from convexinfo.entropic import _entropies
    from convexinfo.errors import InvalidProbVector
    batch = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
    with pytest.raises(InvalidProbVector, match="sum to 0.0"):
        _entropies(make_preset("shannon"), batch)
    batch[1, 0] = np.nan
    with pytest.raises(InvalidProbVector, match="finite"):
        _entropies(make_preset("shannon"), batch)
