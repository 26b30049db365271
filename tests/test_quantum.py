import math
import re

import numpy as np
import pytest

from convexinfo import (
    DensityMatrix,
    Ensemble,
    JointState,
    Povm,
    ProbVector,
    accessible_info_estimate,
    born_probabilities,
    build_model,
    eigen_spectrum,
    holevo_chi,
    make_effect,
    make_preset,
    make_state,
    mutual_information,
    quantum_entropy,
    quantum_entropy_min_search,
    quantum_majorizes,
)
from convexinfo.errors import (
    BadParameter,
    DimensionMismatch,
    InvalidDensityMatrix,
    InvalidPovm,
    InvalidProbVector,
    NotNormalized,
    TooLarge,
)
from convexinfo.probvec import TOL

from oracles import (
    char_poly_residual,
    random_density_matrix,
    random_isometry_rows,
    random_povm,
    random_unitary,
    renyi_entropy,
    robin_hood_pair,
    shannon_entropy,
    tsallis_entropy,
)

LN2 = math.log(2)

ZERO = DensityMatrix([[1, 0], [0, 0]])
ONE = DensityMatrix([[0, 0], [0, 1]])
PLUS = DensityMatrix([[0.5, 0.5], [0.5, 0.5]])
MIXED = DensityMatrix([[0.5, 0], [0, 0.5]])

Z_PVM = Povm([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
X_PVM = Povm([[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]])


def test_density_matrix_validation():
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrix([[0.5, 0.3], [0.1, 0.5]])  # not Hermitian
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrix([[0.7, 0], [0, 0.7]])  # trace != 1
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrix([[1.5, 0], [0, -0.5]])  # negative eigenvalue
    with pytest.raises(TooLarge):
        DensityMatrix(np.eye(17) / 17.0)


def test_povm_validation():
    with pytest.raises(InvalidPovm):
        Povm([[[1, 0], [0, 0]]])  # does not resolve the identity
    with pytest.raises(InvalidPovm):
        Povm([[[1.5, 0], [0, 0]], [[-0.5, 0], [0, 1]]])  # negative effect
    assert Z_PVM.rank_one
    assert not Povm([np.eye(2) * 0.5, np.eye(2) * 0.5]).rank_one
    with pytest.raises(InvalidPovm):
        Povm([np.eye(2) * 0.5, np.eye(2) * 0.5], rank_one=True)


def test_born_examples():
    assert born_probabilities(ZERO, Z_PVM).components == (1.0, 0.0)
    assert np.allclose(born_probabilities(MIXED, Z_PVM).components, (0.5, 0.5))
    assert np.allclose(born_probabilities(ZERO, X_PVM).components, (0.5, 0.5))
    with pytest.raises(DimensionMismatch):
        born_probabilities(ZERO, Povm([np.eye(3) / 3] * 3, rank_one=False))


def test_eigen_spectrum_examples(rng):
    assert eigen_spectrum(DensityMatrix([[0.7, 0], [0, 0.3]])).components == (0.7, 0.3)
    assert eigen_spectrum(PLUS).components == (1.0, 0.0)
    for _ in range(10):
        u = random_unitary(rng, 2)
        rho = DensityMatrix(u @ np.diag([0.7, 0.3]) @ u.conj().T)
        spectrum = eigen_spectrum(rho)
        assert np.allclose(spectrum.components, (0.7, 0.3), atol=1e-10)
        assert char_poly_residual(rho.as_array(), spectrum.components) < 1e-10


def test_quantum_entropy_examples():
    shannon = make_preset("shannon")
    assert quantum_entropy(shannon, PLUS) == 0.0
    assert quantum_entropy(shannon, MIXED) == pytest.approx(LN2, abs=1e-12)
    mix = DensityMatrix([[0.75, 0.25], [0.25, 0.25]])  # (|0><0| + |+><+|) / 2
    lam = (1 + 1 / math.sqrt(2)) / 2
    expected = shannon_entropy([lam, 1 - lam])
    assert quantum_entropy(shannon, mix) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.41650, abs=1e-4)


def test_unitary_invariance(rng):
    shannon = make_preset("shannon")
    renyi = make_preset("renyi", 2)
    for n in (2, 3, 4):
        rho = random_density_matrix(rng, n)
        u = random_unitary(rng, n)
        rotated = u @ rho @ u.conj().T
        for pair in (shannon, renyi):
            assert quantum_entropy(pair, DensityMatrix(rho)) == pytest.approx(
                quantum_entropy(pair, DensityMatrix(rotated)), abs=1e-9)


def test_min_search_diagonal_qubit():
    shannon = make_preset("shannon")
    rho = DensityMatrix([[0.7, 0], [0, 0.3]])
    value, witness = quantum_entropy_min_search(shannon, rho, budget=500, seed=11)
    assert value == pytest.approx(shannon_entropy([0.7, 0.3]), abs=1e-6)
    assert value == pytest.approx(0.610864, abs=1e-6)
    assert witness.rank_one
    # witness is (close to) the eigenbasis measurement
    probs = born_probabilities(rho, witness)
    assert sorted(probs.components, reverse=True) == pytest.approx([0.7, 0.3], abs=1e-6)


def test_min_search_pure_state():
    for pair in (make_preset("shannon"), make_preset("tsallis", 2)):
        value, witness = quantum_entropy_min_search(pair, PLUS, budget=50, seed=5)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert born_probabilities(PLUS, witness).components[0] == pytest.approx(1.0, abs=1e-9)


def test_three_outcome_povms_on_maximally_mixed(rng):
    # with rho = I/2 the outcome probabilities are Tr(E_i)/2, so the entropy
    # can never drop below ln 2
    shannon = make_preset("shannon")
    from convexinfo import classical_entropy
    for _ in range(50):
        rows = random_isometry_rows(rng, 2, 3)
        effects = [np.outer(r.conj(), r) for r in rows]
        povm = Povm(effects, rank_one=True)
        probs = born_probabilities(MIXED, povm)
        assert classical_entropy(shannon, probs) >= LN2 - 1e-12


def test_min_search_never_below_spectral(rng):
    for seed in range(6):
        n = int(rng.integers(2, 5))
        rho = DensityMatrix(random_density_matrix(rng, n))
        for pair in (make_preset("shannon"), make_preset("renyi", 2), make_preset("tsallis", 2)):
            reference = quantum_entropy(pair, rho)
            value, _ = quantum_entropy_min_search(pair, rho, budget=300, seed=seed)
            assert value >= reference - 1e-9
            assert value == pytest.approx(reference, abs=1e-5)


def test_min_search_budget_cap():
    from convexinfo.quantum import MAX_SEARCH_BUDGET
    rho = DensityMatrix(np.diag([0.7, 0.3]))
    with pytest.raises(TooLarge, match=f"exceeds the cap {MAX_SEARCH_BUDGET}"):
        quantum_entropy_min_search(make_preset("shannon"), rho, budget=MAX_SEARCH_BUDGET + 1)


def test_ragged_matrices_are_rejected():
    with pytest.raises(InvalidDensityMatrix):
        DensityMatrix([[1, 0], [0]])
    with pytest.raises(InvalidPovm):
        Povm([[[1, 0], [0]], [[0, 0], [0, 1]]])


@pytest.mark.parametrize("effect", [[[1, 0], [0]], [[1, 0, 0], [0, 1, 0]]],
                         ids=["ragged", "not-square"])
def test_malformed_effects_are_povm_errors(effect):
    with pytest.raises(InvalidPovm, match="expected a square matrix"):
        Povm([effect])


@pytest.mark.parametrize("budget", [1, 2, 3, 10, 1000])
def test_min_search_scores_only_the_eigenbasis(budget, monkeypatch):
    # one distribution is scored, the eigenbasis's, whatever the budget and
    # seed, and no isometry is drawn
    from convexinfo import quantum
    scored = []
    entropies = quantum._entropies

    def counting(pair, probs):
        scored.append(len(probs))
        return entropies(pair, probs)

    def drawn(*args, **kwargs):
        raise AssertionError("an isometry was drawn")

    monkeypatch.setattr(quantum, "_entropies", counting)
    monkeypatch.setattr(np.linalg, "qr", drawn)
    pair = make_preset("shannon")
    for n in (2, 16):
        rho = random_density_matrix(np.random.default_rng(n), n)
        spectrum = np.linalg.eigvalsh(rho)[::-1]
        for seed in range(5):
            scored.clear()
            value, witness = quantum_entropy_min_search(pair, DensityMatrix(rho),
                                                        budget=budget, seed=seed)
            assert scored == [1]
            effects = np.asarray(witness.effects, complex)
            # effect i projects onto the eigenvector of the i-th largest eigenvalue
            assert np.allclose(effects @ rho, spectrum[:, None, None] * effects, atol=1e-12)
            assert value == pytest.approx(shannon_entropy(spectrum), abs=1e-12)


@pytest.mark.parametrize("n, blocks", [(2, [(1, 2)]), (16, [(1, 16)])])
def test_search_scores_one_stack_per_outcome_count_and_block(monkeypatch, n, blocks):
    # at the default budget, for every preset, the search scores one stack:
    # a single row of n outcomes, the spectrum largest first
    from convexinfo import quantum
    shapes = []
    entropies = quantum._entropies

    def counting(pair, probs):
        shapes.append(np.shape(probs))
        assert np.array_equal(probs[0], np.sort(probs[0])[::-1])
        return entropies(pair, probs)

    monkeypatch.setattr(quantum, "_entropies", counting)
    rho = DensityMatrix(random_density_matrix(np.random.default_rng(n), n))
    for pair in (make_preset("shannon"), make_preset("renyi", 2), make_preset("tsallis", 0.5)):
        shapes.clear()
        quantum_entropy_min_search(pair, rho, budget=1000, seed=n)
        assert shapes == blocks


def test_min_search_rejects_a_negative_seed():
    with pytest.raises(BadParameter, match="seed must be a non-negative integer, got -1"):
        quantum_entropy_min_search(make_preset("shannon"), MIXED, budget=10, seed=-1)


#: Seeds and whether np.random.default_rng takes them.
_SEEDS = {
    "None": (None, True), "zero": (0, True), "2**200": (2**200, True),
    "minus-one": (-1, False), "float": (1.5, False), "True": (True, True),
    "string": ("3", False), "list": ([1, 2], True), "negative-in-list": ([1, -2], False),
    "empty-list": ([], True), "int64": (np.int64(3), True), "float64": (np.float64(3.0), False),
    "0-d-array": (np.array(5), False), "2-d-array": (np.array([[1, 2], [3, 4]]), True),
    "SeedSequence": (np.random.SeedSequence(1), True),
    "Generator": (np.random.default_rng(1), True), "PCG64": (np.random.PCG64(1), True),
    "RandomState": (np.random.RandomState(1), True),
}


@pytest.mark.parametrize("name", _SEEDS)
def test_min_search_takes_exactly_the_seeds_default_rng_takes(name):
    # the seed steers nothing, but it is checked as default_rng would check
    # it, without a generator built
    seed, taken = _SEEDS[name]
    try:
        np.random.default_rng(seed)
    except (TypeError, ValueError):
        assert not taken
    else:
        assert taken
    pair = make_preset("shannon")
    if taken:
        value, _ = quantum_entropy_min_search(pair, MIXED, budget=10, seed=seed)
        assert value == quantum_entropy(pair, MIXED)
    else:
        with pytest.raises(BadParameter, match=re.escape(
                f"seed must be a non-negative integer, got {seed!r}")):
            quantum_entropy_min_search(pair, MIXED, budget=10, seed=seed)


def test_min_search_deterministic():
    rho = DensityMatrix([[0.6, 0.1], [0.1, 0.4]])
    pair = make_preset("shannon")
    a = quantum_entropy_min_search(pair, rho, budget=200, seed=42)
    b = quantum_entropy_min_search(pair, rho, budget=200, seed=42)
    assert a[0] == b[0]
    assert np.array_equal(np.asarray(a[1].effects), np.asarray(b[1].effects))


def test_quantum_majorizes():
    assert quantum_majorizes(ZERO, MIXED)
    assert quantum_majorizes(MIXED, MIXED)
    assert not quantum_majorizes(MIXED, DensityMatrix([[0.7, 0], [0, 0.3]]))
    with pytest.raises(DimensionMismatch):
        quantum_majorizes(ZERO, DensityMatrix(np.eye(3) / 3))


def test_quantum_schur_concavity_on_commuting_lifts(rng):
    shannon = make_preset("shannon")
    for _ in range(20):
        n = int(rng.integers(2, 5))
        p, q = robin_hood_pair(rng, n)
        u = random_unitary(rng, n)
        rho = DensityMatrix(u @ np.diag(p) @ u.conj().T)   # p < q
        sigma = DensityMatrix(u @ np.diag(q) @ u.conj().T)
        assert quantum_majorizes(sigma, rho)
        assert quantum_entropy(shannon, rho) >= quantum_entropy(shannon, sigma) - 1e-9


def test_holevo_examples():
    orthogonal = Ensemble(weights=ProbVector([0.5, 0.5]), states=(ZERO, ONE))
    assert holevo_chi(orthogonal) == pytest.approx(LN2, abs=1e-12)
    single = Ensemble(weights=ProbVector([1.0]), states=(PLUS,))
    assert holevo_chi(single) == pytest.approx(0.0, abs=1e-12)
    zero_plus = Ensemble(weights=ProbVector([0.5, 0.5]), states=(ZERO, PLUS))
    lam = (1 + 1 / math.sqrt(2)) / 2
    assert holevo_chi(zero_plus) == pytest.approx(shannon_entropy([lam, 1 - lam]), abs=1e-12)
    assert holevo_chi(zero_plus) < LN2 - 0.27


def test_mutual_information_examples():
    # independent product table
    joint = np.outer([0.3, 0.7], [0.6, 0.4])
    assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(LN2, abs=1e-12)
    # measuring the {|0>, |+>} ensemble in the computational basis;
    # plug-in oracle: H(X) + H(Y) - H(XY) on rows (1/2, 0), (1/4, 1/4)
    joint = np.array([[0.5, 0.0], [0.25, 0.25]])
    expected = (shannon_entropy([0.5, 0.5]) + shannon_entropy([0.75, 0.25])
                - shannon_entropy([0.5, 0.25, 0.25]))
    assert mutual_information(joint) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.215761, abs=1e-6)
    with pytest.raises(NotNormalized):
        mutual_information([[0.5, 0.2], [0.1, 0.1]])
    with pytest.raises(NotNormalized):
        mutual_information([[0.9, 0.2], [-0.1, 0.0]])


def test_accessible_info_examples():
    orthogonal = Ensemble(weights=ProbVector([0.5, 0.5]), states=(ZERO, ONE))
    assert accessible_info_estimate(orthogonal, Z_PVM) == pytest.approx(LN2, abs=1e-12)
    trivial = Povm([np.eye(2)], rank_one=False)
    assert accessible_info_estimate(orthogonal, trivial) == pytest.approx(0.0, abs=1e-12)
    zero_plus = Ensemble(weights=ProbVector([0.5, 0.5]), states=(ZERO, PLUS))
    value = accessible_info_estimate(zero_plus, Z_PVM)
    assert value == pytest.approx(0.215761, abs=1e-6)
    assert value <= holevo_chi(zero_plus) + 1e-9


def test_holevo_bounds_accessible_info(rng):
    for _ in range(40):
        n = 2
        k = int(rng.integers(2, 4))
        states = tuple(DensityMatrix(random_density_matrix(rng, n)) for _ in range(k))
        ensemble = Ensemble(weights=ProbVector(rng.dirichlet(np.ones(k))), states=states)
        povm = Povm(random_povm(rng, n, int(rng.integers(2, 5))), rank_one=False)
        assert accessible_info_estimate(ensemble, povm) <= holevo_chi(ensemble) + 1e-9


def test_nonorthogonal_pure_ensembles_have_strict_gap(rng):
    shannon = make_preset("shannon")
    for _ in range(20):
        kets = []
        for _ in range(2):
            g = rng.normal(size=2) + 1j * rng.normal(size=2)
            kets.append(g / np.linalg.norm(g))
        overlap = abs(np.vdot(kets[0], kets[1]))
        if overlap < 1e-3 or overlap > 1 - 1e-6:
            continue
        states = tuple(DensityMatrix(np.outer(k, k.conj())) for k in kets)
        weights = ProbVector([0.5, 0.5])
        ensemble = Ensemble(weights=weights, states=states)
        from convexinfo import classical_entropy
        hx = classical_entropy(shannon, weights)
        assert holevo_chi(ensemble) < hx - 1e-6


def test_ensemble_validation():
    with pytest.raises(DimensionMismatch):
        Ensemble(weights=ProbVector([0.5, 0.5]), states=(ZERO,))
    with pytest.raises(DimensionMismatch):
        Ensemble(weights=ProbVector([0.5, 0.5]),
                 states=(ZERO, DensityMatrix(np.eye(3) / 3)))


@pytest.mark.parametrize("weights, states, error, message", [
    ([0.5, 0.5], (ZERO, ONE), InvalidProbVector, "weights must be a ProbVector, got list"),
    (ProbVector([0.5, 0.5]), (ZERO, np.eye(2) / 2), InvalidDensityMatrix,
     "states must be DensityMatrix, got ndarray"),
    (ProbVector([1.0]), ZERO, InvalidDensityMatrix,
     "a sequence of DensityMatrix, got DensityMatrix"),
], ids=["weights-list", "state-array", "states-not-iterable"])
def test_ensemble_rejects_weights_and_states_of_the_wrong_type(weights, states, error, message):
    with pytest.raises(error, match=message):
        holevo_chi(Ensemble(weights=weights, states=states))


def test_ensemble_takes_any_iterable_of_states():
    ensemble = Ensemble(weights=ProbVector([0.5, 0.5]), states=iter([ZERO, ONE]))
    assert ensemble.states == (ZERO, ONE)
    assert holevo_chi(ensemble) == pytest.approx(LN2, abs=1e-12)


@pytest.mark.parametrize("n", [8, 16])
def test_min_search_at_larger_dimensions(n):
    rho = DensityMatrix(random_density_matrix(np.random.default_rng(n), n))
    for pair in (make_preset("shannon"), make_preset("renyi", 2), make_preset("tsallis", 0.5)):
        spectral = quantum_entropy(pair, rho)
        value, witness = quantum_entropy_min_search(pair, rho, budget=1000, seed=n)
        assert spectral - 1e-9 <= value <= spectral + 1e-5
        again = quantum_entropy_min_search(pair, rho, budget=1000, seed=n)
        assert again[0] == value
        assert np.array_equal(np.asarray(again[1].effects), np.asarray(witness.effects))
        assert witness.rank_one and n <= len(witness) <= 2 * n


def _kinked_shannon(points: int):
    """Shannon's phi tabulated on ``points`` knots plus 9e-5 (max(x - 0.4, 0) - 0.6 x),
    a convex knot at 0.4 that keeps phi(0) = phi(1) = 0, as a grid pair with
    its closed-form entropy."""
    from convexinfo import pair_from_grid_descriptor
    x = np.linspace(0.0, 1.0, points)
    y = -x * np.log(np.where(x > 0.0, x, 1.0)) + 9e-5 * (np.maximum(x - 0.4, 0.0) - 0.6 * x)
    pair = pair_from_grid_descriptor({"regime": "h-increasing/phi-concave",
                                      "phi": {"x": x.tolist(), "y": y.tolist()},
                                      "h": {"x": [0.0, 3.0], "y": [0.0, 3.0]}})
    return pair, lambda p: float(np.interp(np.asarray(p, float), x, y).sum())


PRESETS = {"shannon": shannon_entropy,
           "renyi:0.5": lambda p: renyi_entropy(p, 0.5),
           "renyi:2.0": lambda p: renyi_entropy(p, 2.0),
           "renyi:5.0": lambda p: renyi_entropy(p, 5.0),
           "tsallis:0.3": lambda p: tsallis_entropy(p, 0.3),
           "tsallis:2.0": lambda p: tsallis_entropy(p, 2.0),
           "tsallis:3.0": lambda p: tsallis_entropy(p, 3.0)}


@pytest.mark.parametrize("spec", [*PRESETS, "kinked-grid"])
def test_no_sampled_measurement_beats_the_min_search(spec):
    from convexinfo import pair_from_spec
    if spec == "kinked-grid":
        pair, entropy = _kinked_shannon(4001)
    else:
        pair, entropy = pair_from_spec(spec), PRESETS[spec]
    rng = np.random.default_rng(29)
    for n in range(2, 17):
        rho = random_density_matrix(rng, n)
        value, _ = quantum_entropy_min_search(pair, DensityMatrix(rho))
        for _ in range(12):
            rows = random_isometry_rows(rng, n, int(rng.integers(n, 2 * n + 1)))
            probs = np.einsum("ia,ab,ib->i", rows, rho, rows.conj()).real
            assert entropy(np.maximum(probs, 0.0) / probs.sum()) >= value - 1e-12


def _rotated(spectrum, rng):
    """The state with this spectrum in a random basis, and the measurement
    that mixes its first two eigenvectors evenly: its statistics put the
    mean of the first two eigenvalues in both of their places."""
    n = len(spectrum)
    u = random_unitary(rng, n)
    mix = np.eye(n, dtype=complex)
    mix[:2, :2] = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    rows = (u @ mix).conj().T  # bras of the mixed eigenvectors
    return (DensityMatrix(u @ np.diag(spectrum) @ u.conj().T),
            Povm(np.einsum("ia,ib->iab", rows.conj(), rows), rank_one=True))


#: Eigenvalues at the kink at 0.4, d = 2 and 3; the mixing measurement of
#: the second puts 0.4 in both places that straddle it by 5e-6.
KINK_SPECTRA = ([0.4 + 5e-6, 0.6 - 5e-6], [0.4 + 5e-6, 0.4 - 5e-6, 0.2])


def test_a_kinked_grid_pair_on_a_coarse_table_keeps_the_eigenbasis_minimum():
    # on 4001 knots the tabulated Shannon part bends by at least 2.5e-4 at
    # each knot, more than the kink's 9e-5, so the interpolant stays concave
    pair, entropy = _kinked_shannon(4001)
    rng = np.random.default_rng(41)
    for spectrum in KINK_SPECTRA:
        rho, mixing = _rotated(spectrum, rng)
        for seed in range(3):
            value, _ = quantum_entropy_min_search(pair, rho, budget=2000, seed=seed)
            assert value == pytest.approx(entropy(spectrum), abs=1e-12)
        assert entropy(born_probabilities(rho, mixing).components) >= value - 1e-12


def test_a_grid_pair_whose_knot_bends_against_its_regime_can_beat_the_eigenbasis():
    # on 100001 knots the Shannon part bends by only 2.5e-5 at 0.4, so the
    # knot rises by 6.5e-5: the interpolant is not concave there, yet the
    # pair passes construction, and mixing the two eigenvectors that
    # straddle the knot scores the rise times 5e-6 below the returned value
    pair, entropy = _kinked_shannon(100_001)
    rho, mixing = _rotated(KINK_SPECTRA[1], np.random.default_rng(41))
    value, _ = quantum_entropy_min_search(pair, rho)
    beaten = value - entropy(born_probabilities(rho, mixing).components)
    assert beaten == pytest.approx(6.5e-5 * 5e-6, rel=1e-3)


@pytest.mark.parametrize("entry", [complex(math.nan, 0), complex(0, math.nan),
                                   complex(math.inf, 0), complex(0, -math.inf)],
                         ids=["nan-real", "nan-imag", "inf-real", "inf-imag"])
@pytest.mark.parametrize("where", [(0, 0, 0), (1, 0, 1)], ids=["diagonal", "off-diagonal"])
def test_povm_rejects_non_finite_entries(entry, where):
    # every other check asks that a bound holds, so a NaN fails them too
    effects = np.array(Z_PVM.effects)
    effects[where] = entry
    with pytest.raises(InvalidPovm, match="^entries must be finite$"):
        Povm(effects)
    with pytest.raises(InvalidPovm, match="^entries must be finite$"):
        Povm._eigenbasis(np.array([[entry, 0], [0, 1]]))


def test_povm_reports_the_first_offending_effect():
    # stacked checks, same verdict and offending value as checking effect by
    # effect; the reference prints the value as np.float64(...), this a float
    from oracles import loop_reference
    negative = [[-0.5, 0], [0, 1]]
    skew = [[0, 1], [0, 0]]
    fine = [[1, 0], [0, 0]]
    cases = [("-0.5", [fine, negative, skew]), ("Hermitian", [fine, skew, negative]),
             ("identity", [fine, fine])]
    number = r"(?<![\w.])-?\d+\.\d+(?:e-?\d+)?"
    for fragment, effects in cases:
        with pytest.raises(InvalidPovm) as got:
            Povm(effects)
        with pytest.raises(loop_reference.errors.InvalidPovm) as want:
            loop_reference.Povm(effects)
        assert type(got.value).__name__ == type(want.value).__name__
        assert re.findall(number, str(got.value)) == re.findall(number, str(want.value))
        assert fragment in str(got.value) and "np." not in str(got.value)


def test_stacked_born_statistics_match_the_loop_reference(rng):
    from oracles import loop_reference
    for n in (2, 3, 5):
        povm = random_povm(rng, n, n + 2)
        states = [random_density_matrix(rng, n) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        for rho in states:
            got = born_probabilities(DensityMatrix(rho), Povm(povm))
            want = loop_reference.born_probabilities(loop_reference.DensityMatrix(rho),
                                                     loop_reference.Povm(povm))
            assert np.allclose(got.components, want.components, rtol=0, atol=1e-15)
        ensemble = Ensemble(weights=ProbVector(weights),
                            states=tuple(DensityMatrix(s) for s in states))
        reference = loop_reference.Ensemble(
            weights=loop_reference.ProbVector(weights),
            states=tuple(loop_reference.DensityMatrix(s) for s in states))
        assert accessible_info_estimate(ensemble, Povm(povm)) == pytest.approx(
            loop_reference.accessible_info_estimate(reference, loop_reference.Povm(povm)),
            abs=1e-14)


def test_states_and_povms_keep_read_only_copies():
    rho = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
    effects = np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]], complex)
    state, povm = DensityMatrix(rho), Povm(effects)
    for stored, given in ((state.entries, rho), (povm.effects, effects)):
        assert isinstance(stored, np.ndarray) and stored.dtype == complex
        assert not stored.flags.writeable and stored.flags.c_contiguous
        assert np.array_equal(stored, given)
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0
    rho[0, 0], effects[0, 0, 0] = 9.0, 9.0
    assert state.entries[0, 0] == 0.75 and povm.effects[0, 0, 0] == 0.5
    assert born_probabilities(state, povm).components == pytest.approx((0.5, 0.5))
    copy = state.as_array()
    assert copy.flags.writeable and not np.shares_memory(copy, state.entries)
    copy[0, 0] = 9.0
    assert state.entries[0, 0] == 0.75 and state.as_array()[0, 0] == 0.75
    assert state.to_json() == [[[0.75, 0.0], [0.0, 0.25]], [[-0.0, -0.25], [0.25, 0.0]]]
    assert (state.dim, povm.dim, len(povm)) == (2, 2, 2)


def test_copies_and_pickles_keep_read_only_arrays():
    # they are rebuilt through the constructor; a Povm's equality includes rank_one
    import copy
    import pickle
    cases = ((MIXED, ("entries", "_eigenvalues")), (Z_PVM, ("effects",)),
             (Povm(Z_PVM.effects, rank_one=False), ("effects",)))
    for original, arrays in cases:
        for again in (copy.copy(original), copy.deepcopy(original),
                      pickle.loads(pickle.dumps(original))):
            assert again == original
            assert not any(getattr(again, name).flags.writeable for name in arrays)


def test_equality_and_hashing_go_by_value():
    signed_zeros = np.array([[1, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 0]])
    assert DensityMatrix([[1, 0], [0, 0]]) == DensityMatrix(signed_zeros) == ZERO
    assert hash(DensityMatrix(signed_zeros)) == hash(ZERO)
    assert len({ZERO, DensityMatrix([[1, 0], [0, 0]]), DensityMatrix(signed_zeros), ONE}) == 2
    assert ZERO != ONE and ZERO != DensityMatrix(np.eye(3) / 3)
    assert ZERO != Povm([ZERO.entries, ONE.entries])
    flipped = Povm([[[1, -0.0], [-0.0, 0]], [[0, 0], [0, 1]]])
    assert flipped == Z_PVM and hash(flipped) == hash(Z_PVM)
    assert Z_PVM != X_PVM and Z_PVM != Povm(Z_PVM.effects, rank_one=False)
    assert Povm(Z_PVM.effects, rank_one=False) == Povm(Z_PVM.effects, rank_one=False)
    ensemble = Ensemble(weights=ProbVector([0.5, 0.5]), states=(ZERO, ONE))
    assert hash(ensemble) == hash(Ensemble(weights=ProbVector([0.5, 0.5]),
                                           states=(DensityMatrix(signed_zeros), ONE)))


def test_a_built_state_is_eigensolved_once(monkeypatch):
    # validation's eigenvalues serve every later spectrum of the state
    solves = []
    for name in ("eigvalsh", "eigh"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            solves.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rho = DensityMatrix(random_density_matrix(np.random.default_rng(3), 8))
    assert solves == ["eigvalsh"]
    for pair in (make_preset("shannon"), make_preset("renyi", 2), make_preset("tsallis", 0.5)):
        quantum_entropy(pair, rho)
    assert quantum_majorizes(rho, rho) and len(eigen_spectrum(rho)) == 8
    assert solves == ["eigvalsh"]


def test_a_state_and_its_min_search_run_two_eigensolves(monkeypatch):
    # the state's validation and the search's eigenbasis; the witness is
    # checked with no eigensolve of its effects
    solves = []
    for name in ("eigvalsh", "eigh"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            solves.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rho = DensityMatrix(random_density_matrix(np.random.default_rng(3), 8))
    _, witness = quantum_entropy_min_search(make_preset("shannon"), rho)
    assert solves == ["eigvalsh", "eigh"] and witness.rank_one
    Povm(witness.effects, rank_one=True)
    assert solves == ["eigvalsh", "eigh", "eigvalsh"]


def _witness_states():
    """Seeded states of every dimension to 16, and degenerate spectra: the
    maximally mixed state, a pure state and a repeated eigenvalue."""
    rng = np.random.default_rng(28)
    for n in range(1, 17):
        yield from (random_density_matrix(rng, n) for _ in range(3))
        yield np.eye(n) / n
        yield np.diag([1.0] + [0.0] * (n - 1))
        if n > 2:
            yield np.diag([0.4, 0.4] + [0.2 / (n - 2)] * (n - 2))


def test_the_eigenbasis_witness_equals_the_checked_povm():
    import copy
    import pickle
    pair = make_preset("shannon")
    for rho in _witness_states():
        for form in (rho, rho.tolist()):
            _, witness = quantum_entropy_min_search(pair, DensityMatrix(form))
            checked = Povm(witness.effects, rank_one=True)
            assert witness == checked and hash(witness) == hash(checked)
            assert witness.effects.tobytes() == checked.effects.tobytes()
            assert witness.rank_one and Povm(witness.effects).rank_one
            assert witness.effects.dtype == complex and witness.effects.flags.c_contiguous
            assert not witness.effects.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                witness.effects[0, 0, 0] = 0
            for again in (copy.copy(witness), copy.deepcopy(witness),
                          pickle.loads(pickle.dumps(witness))):
                assert again == witness and hash(again) == hash(witness)
                assert not again.effects.flags.writeable


def test_the_gram_check_keeps_the_witness_and_value_bits_of_the_stack_checks(monkeypatch):
    # the same searches with every witness put through the stack checks (a
    # margin past TOL fails the Gram test on every input) give the same
    # value bits, effect bytes and checked POVM; the eigh path never calls
    # the stack checks
    from convexinfo import quantum
    states = [DensityMatrix(rho) for rho in _witness_states()]
    presets = [("shannon",), ("renyi", 2.0), ("tsallis", 0.5)]
    calls = []
    stack_checks = quantum._checked_effects

    def spy(*args, **kwargs):
        calls.append(1)
        return stack_checks(*args, **kwargs)

    def searches():
        return [quantum_entropy_min_search(make_preset(*p), rho) for rho in states
                for p in presets]

    monkeypatch.setattr(quantum, "_checked_effects", spy)
    fast = searches()
    assert not calls
    monkeypatch.setattr(quantum, "_GRAM_MARGIN", 2 * TOL)
    checked = searches()
    assert len(calls) == len(checked) == 3 * len(states)
    assert {rho.dim for rho in states} == set(range(1, 17))
    for (value, witness), (checked_value, checked_witness) in zip(fast, checked):
        assert value.hex() == checked_value.hex()
        assert witness.effects.tobytes() == checked_witness.effects.tobytes()
        assert witness.rank_one and checked_witness.rank_one
        povm = Povm(witness.effects, rank_one=True)
        assert witness == povm and witness.effects.tobytes() == povm.effects.tobytes()


@pytest.mark.parametrize("n", [1, 2, 4, 16])
def test_the_gram_check_keeps_the_stack_checks_verdict_and_message(n):
    # bras whose Gram matrix misses the identity just inside or just outside
    # TOL, on its diagonal (a column scaled) or everywhere (noise): the
    # witness's verdict and message are those of the full stack checks. Half
    # the margin inside TOL takes the stack checks, whose verdict rounding
    # may tip either way
    from convexinfo import quantum
    rng = np.random.default_rng(n)
    bras = random_unitary(rng, n)
    cases = []
    for delta in (quantum._GRAM_MARGIN / 2, 1e-13, 1e-12, 1e-11):
        for miss in (TOL - delta, TOL + delta):
            for sign in (1.0, -1.0):
                scaled = bras.copy()
                scaled[:, -1] *= math.sqrt(1.0 + sign * miss)
                cases.append((scaled, miss < TOL if delta >= 1e-13 else None))
    for size in (2e-10, 4e-10, 6e-10):
        noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        cases.append((bras + size * noise / abs(noise).max(), None))

    def verdict(check):
        try:
            check()
        except InvalidPovm as exc:
            return str(exc)
        return None

    for rows, accepted in cases:
        effects = np.einsum("ia,ib->iab", rows.conj(), rows)
        want = verdict(lambda: quantum._checked_effects(effects, eigensolve=False))
        assert verdict(lambda: Povm._eigenbasis(rows)) == want
        if accepted is not None:
            assert want == (None if accepted else "effects do not sum to the identity")


@pytest.mark.parametrize("broken, message", [
    (lambda vecs: 1.01 * vecs, "^effects do not sum to the identity$"),
    (lambda vecs: np.full_like(vecs, math.nan), "^entries must be finite$"),
], ids=["scaled", "nan"])
def test_a_broken_eigenbasis_fails_the_witness_checks(broken, message, monkeypatch):
    eigh = np.linalg.eigh

    def patched(matrix):
        values, vecs = eigh(matrix)
        return values, broken(vecs)

    monkeypatch.setattr(np.linalg, "eigh", patched)
    rho = DensityMatrix(random_density_matrix(np.random.default_rng(5), 4))
    with pytest.raises(InvalidPovm, match=message):
        quantum_entropy_min_search(make_preset("shannon"), rho)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_every_input_form_gives_the_loop_references_outputs(n):
    # nested lists, C or Fortran order and a strided view are stored alike,
    # so every output comes out in the same bits. The spectrum is the loop
    # reference's own eigvalsh, bit for bit; the reference scores, multiplies
    # and sums in other orders, so its values, witness effects and Born
    # statistics agree to rounding
    from oracles import loop_reference as reference
    rng = np.random.default_rng(n)
    presets = [("shannon",), ("renyi", 2.0), ("tsallis", 0.5)]
    for _ in range(6):
        rho = random_density_matrix(rng, n)
        measured = random_povm(rng, n, n + 1)
        forms = [rho.tolist(), rho, np.asfortranarray(rho),
                 np.kron(rho, np.ones((2, 2)))[::2, ::2]]
        outputs = []
        for form in forms:
            state, povm = DensityMatrix(form), Povm([np.asfortranarray(e) for e in measured])
            searches = [quantum_entropy_min_search(make_preset(*p), state) for p in presets]
            outputs.append((eigen_spectrum(state).components,
                            [quantum_entropy(make_preset(*p), state) for p in presets],
                            [(value, witness.effects.tobytes()) for value, witness in searches],
                            born_probabilities(state, povm).components))
        assert all(output == outputs[0] for output in outputs[1:])
        spectrum, values, searched, born = outputs[0]
        ref_state = reference.DensityMatrix(rho)
        assert spectrum == reference.eigen_spectrum(ref_state).components
        for p, spectral, (value, effects) in zip(presets, values, searched):
            ref_pair = reference.make_preset(*p)
            ref_value, ref_witness = reference.quantum_entropy_min_search(ref_pair, ref_state,
                                                                          budget=1)
            assert spectral == pytest.approx(reference.quantum_entropy(ref_pair, ref_state),
                                             abs=1e-14)
            assert value == pytest.approx(ref_value, abs=1e-14)
            assert np.abs(np.frombuffer(effects, complex).reshape(n, n, n)
                          - np.asarray(ref_witness.effects)).max() <= 1e-15
        ref_born = reference.born_probabilities(ref_state, reference.Povm(measured))
        assert np.abs(np.subtract(born, ref_born.components)).max() <= 1e-14


@pytest.mark.parametrize("call, error", [
    (lambda: DensityMatrix(np.zeros((0, 0))), InvalidDensityMatrix),
    (lambda: Povm([np.zeros((0, 0))]), InvalidPovm),
    (lambda: JointState("abc"), DimensionMismatch),
    (lambda: JointState([[1, 0], [0]]), DimensionMismatch),
    (lambda: JointState(np.zeros((0, 0))), DimensionMismatch),
    (lambda: mutual_information("abc"), NotNormalized),
    (lambda: mutual_information([[1, 0], [0]]), NotNormalized),
    (lambda: mutual_information(np.zeros((0, 0))), NotNormalized),
    (lambda: make_state(build_model("regular_polygon", n=4), ["a", 0]), DimensionMismatch),
    (lambda: make_state(build_model("regular_polygon", n=4), [[0], [0, 1]]), DimensionMismatch),
    (lambda: make_effect(build_model("regular_polygon", n=4), ["a", 0, 0]), DimensionMismatch),
    (lambda: make_effect(build_model("regular_polygon", n=4), [[0], [0, 1], 1]), DimensionMismatch),
    (lambda: quantum_entropy_min_search(make_preset("shannon"), MIXED, budget=2.5), BadParameter),
    (lambda: quantum_entropy_min_search(make_preset("shannon"), MIXED, budget="5"), BadParameter),
], ids=["density-0x0", "povm-0x0", "joint-text", "joint-ragged", "joint-0x0", "mi-text",
        "mi-ragged", "mi-0x0", "state-text", "state-ragged", "effect-text", "effect-ragged",
        "budget-float", "budget-text"])
def test_empty_ragged_or_non_numeric_input_is_a_validation_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_joint_cell_is_not_normalized(cell):
    # both checks ask that their bound holds, so a NaN fails the first; it
    # once reached the entropy and raised InvalidProbVector
    with pytest.raises(NotNormalized):
        mutual_information([[cell, 0.0], [0.0, 0.5]])


def test_negative_joint_probability_prints_a_plain_float():
    with pytest.raises(NotNormalized, match=r"^negative joint probability -0\.1$"):
        mutual_information([[1.1, -0.1], [0.0, 0.0]])



_RAW = np.eye(2) / 2
_POVM = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
_ENSEMBLE = Ensemble(ProbVector([1.0]), [DensityMatrix(_RAW)])
_SHANNON = make_preset("shannon")


@pytest.mark.parametrize("call, error, expected", [
    (lambda raw: born_probabilities(raw, _POVM), InvalidDensityMatrix, "DensityMatrix"),
    (lambda raw: born_probabilities(DensityMatrix(_RAW), raw), InvalidPovm, "Povm"),
    (lambda raw: quantum_entropy(_SHANNON, raw), InvalidDensityMatrix, "DensityMatrix"),
    (lambda raw: quantum_entropy_min_search(_SHANNON, raw), InvalidDensityMatrix,
     "DensityMatrix"),
    (lambda raw: quantum_majorizes(raw, MIXED), InvalidDensityMatrix, "DensityMatrix"),
    (lambda raw: quantum_majorizes(MIXED, raw), InvalidDensityMatrix, "DensityMatrix"),
    (lambda raw: holevo_chi(raw), InvalidDensityMatrix, "Ensemble"),
    (lambda raw: holevo_chi([MIXED]), InvalidDensityMatrix, "Ensemble"),
    (lambda raw: accessible_info_estimate(raw, _POVM), InvalidDensityMatrix, "Ensemble"),
    (lambda raw: accessible_info_estimate(_ENSEMBLE, raw), InvalidPovm, "Povm"),
], ids=["born-state", "born-povm", "entropy", "min-search", "majorizes-sigma",
        "majorizes-rho", "holevo", "holevo-states", "accessible-ensemble", "accessible-povm"])
@pytest.mark.parametrize("raw", [_RAW, _RAW.tolist()], ids=("array", "list"))
def test_quantum_entry_points_name_the_type_they_expect(call, error, expected, raw):
    # a raw array or a list where a validated object belongs
    with pytest.raises(error, match=f"^expected {expected}, got (ndarray|list)$"):
        call(raw)
