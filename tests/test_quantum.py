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
    NotNormalized,
    TooLarge,
)

from oracles import (
    char_poly_residual,
    random_density_matrix,
    random_povm,
    random_unitary,
    robin_hood_pair,
    shannon_entropy,
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
    from convexinfo.quantum import _isometry_rows
    for _ in range(50):
        rows = _isometry_rows(rng, 2, 3)
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


@pytest.mark.parametrize("budget", [1, 2, 3, 10])
def test_min_search_scores_exactly_its_budget(budget, monkeypatch):
    from convexinfo import quantum
    scored = []
    rows_entropies = quantum._rows_entropies

    def counting(pair, rho, rows):
        scored.append(len(rows))
        return rows_entropies(pair, rho, rows)

    monkeypatch.setattr(quantum, "_rows_entropies", counting)
    quantum_entropy_min_search(make_preset("shannon"), MIXED, budget=budget, seed=3)
    assert sum(scored) == budget


def test_min_search_rejects_a_negative_seed():
    with pytest.raises(BadParameter, match="seed must be a non-negative integer, got -1"):
        quantum_entropy_min_search(make_preset("shannon"), MIXED, budget=10, seed=-1)


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


def test_blocked_refinement_equals_the_one_at_a_time_loop(rng, monkeypatch):
    # from a random isometry with one outcome too many the refinement improves
    # many times, so blocks are cut short and re-scored around each new best
    from convexinfo import quantum
    from convexinfo.quantum import _isometry_rows, _refine
    from oracles import refine_one_at_a_time, renyi_entropy, tsallis_entropy
    cases = [(2, make_preset("shannon"), shannon_entropy),
             (3, make_preset("renyi", 2.0), lambda p: renyi_entropy(p, 2.0)),
             (4, make_preset("tsallis", 0.5), lambda p: tsallis_entropy(p, 0.5))]
    steps = 3 * 64 + 7  # three blocks of 64 steps and a last, partial one
    for n, pair, entropy in cases:
        rho = random_density_matrix(rng, n)
        start = _isometry_rows(rng, n, n + 1)
        monkeypatch.setattr(quantum, "_REFINE_CELLS", 64 * start.size)
        probs = np.einsum("ia,ab,ib->i", start, rho, start.conj()).real
        value = entropy(probs / probs.sum())
        seed = int(rng.integers(2**31))
        got_value, got_rows = _refine(pair, rho, start, value, np.random.default_rng(seed), steps)
        want_value, want_rows, improvements = refine_one_at_a_time(
            entropy, rho, start, value, np.random.default_rng(seed), steps)
        assert improvements >= 5
        assert got_value == pytest.approx(want_value, abs=1e-14)
        assert np.allclose(got_rows, want_rows, atol=1e-12)


@pytest.mark.parametrize("n", [2, 5, 16])
def test_stack_scores_equal_each_candidate_scored_alone(n):
    from convexinfo.quantum import _isometry_rows, _rows_entropies
    rng = np.random.default_rng(n)
    rho = random_density_matrix(rng, n)
    for pair in (make_preset("shannon"), make_preset("renyi", 2), make_preset("tsallis", 0.5)):
        for m in range(n, 2 * n + 1):
            stack = _isometry_rows(rng, n, m, (7,))
            alone = [_rows_entropies(pair, rho, rows[None])[0] for rows in stack]
            assert np.array_equal(_rows_entropies(pair, rho, stack), alone)


@pytest.mark.parametrize("n, blocks", [(2, [300]), (16, [64, 64, 64, 64, 44])])
def test_search_scores_one_stack_per_outcome_count_and_block(monkeypatch, n, blocks):
    # nothing beats the eigenbasis, so each stack is scored once: the
    # eigenbasis, one stack per outcome count drawn, then the refinement
    # blocks (300 steps of budget 1000): one block for a qubit, 64-step
    # blocks at the 16 x 16 cap
    from convexinfo import quantum
    sizes = []
    score = quantum._rows_entropies

    def counting(pair, rho_arr, rows):
        sizes.append(len(rows))
        return score(pair, rho_arr, rows)

    monkeypatch.setattr(quantum, "_rows_entropies", counting)
    rho = DensityMatrix(random_density_matrix(np.random.default_rng(n), n))
    quantum_entropy_min_search(make_preset("shannon"), rho, budget=1000, seed=n)
    assert len(sizes) == 1 + (n + 1) + len(blocks)
    assert sizes[0] == 1 and sum(sizes[1:-len(blocks)]) == 699
    assert sizes[-len(blocks):] == blocks


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


def test_negative_joint_probability_prints_a_plain_float():
    with pytest.raises(NotNormalized, match=r"^negative joint probability -0\.1$"):
        mutual_information([[1.1, -0.1], [0.0, 0.0]])
