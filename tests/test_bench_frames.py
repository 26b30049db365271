"""The benchmark harness: its seams name live functions and count what they should, and
its per-op sections time, check and count perfbench's own ops."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from convexinfo import (
    DensityMatrix,
    JointState,
    ProductSpace,
    convex_kernel,
    enumerate_frames,
    generalized_spectrum,
    make_state,
    pair_from_spec,
    quantum_entropy,
    quantum_entropy_min_search,
    separable_witness,
)

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_frames", ROOT / "scripts" / "bench_frames.py")
bench_frames = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_frames)

TABLES = (bench_frames.FRAME_SEAMS, bench_frames.SPECTRA_SEAMS, bench_frames.SEPARABLE_SEAMS,
          bench_frames.QUANTUM_SEAMS)
IDS = ("frames", "spectra", "separable", "quantum")


def _originals(seams) -> dict:
    return {(owner, attribute): getattr(importlib.import_module(owner), attribute)
            for owner, attribute, _ in seams}


def _restored(seams, originals) -> bool:
    return all(now is originals[key] for key, now in _originals(seams).items())


#: Every seam's function before any test wraps it.
ORIGINALS = {key: function for seams in TABLES for key, function in _originals(seams).items()}


@pytest.fixture(scope="module")
def op_records():
    """Each per-op section's records of two counted passes of its workload:
    the first pass's ops are cold, the second's warm."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench_frames, "PASSES", 2)
        return {section: bench_frames.measure_ops(section, True)
                for section in bench_frames.SECTIONS}


@pytest.mark.parametrize("section", bench_frames.SECTIONS)
def test_every_op_of_the_workload_is_timed_checked_and_counted(section, op_records):
    name, seams = bench_frames.SECTIONS[section]
    workload = bench_frames.WORKLOADS[name](0, bench_frames._reference())
    ops = [op for index in range(2) for op in workload.make_pass(index)]
    records = op_records[section]
    assert list(records) == list(dict.fromkeys(op.label for op in ops))
    for label, record in records.items():
        times = record["cold_ms"] + record["warm_ms"]
        assert len(times) == sum(op.label == label for op in ops), label
        assert len(record["cold_ms"]) == 1 and all(map(math.isfinite, times)), label
        assert record["failed"] == 0, label
        assert set(record) == {"cold_ms", "warm_ms", "failed", "cold_counts", "warm_counts"}
    assert _restored(seams, ORIGINALS)


def test_alternated_takes_the_median_of_each_repeats_median(monkeypatch):
    # one slow repeat shows in the runs and moves the median little; the
    # counts come from the first repeat, the only counted one, and failed
    # checks add up
    runs = iter([{"op": {"cold_ms": [5.0], "warm_ms": [1.0, 2.0, 3.0], "failed": 0,
                         "cold_counts": {"solves": 1}}},
                 {"op": {"cold_ms": [9.0], "warm_ms": [10.0, 20.0, 30.0, 40.0, 50.0],
                         "failed": 1, "cold_counts": {"solves": 2}}},
                 {"op": {"cold_ms": [6.0], "warm_ms": [2.0, 3.0, 4.0], "failed": 0,
                         "cold_counts": {"solves": 3}}}])
    calls = []

    def measured(checkout, function, args):
        calls.append((function, args))
        return next(runs)

    monkeypatch.setattr(bench_frames, "_measure_checkout", measured)
    monkeypatch.setattr(bench_frames, "REPEATS", 3)
    doc = bench_frames.alternated({"change": ROOT}, "measure_ops", "quantum")
    assert calls == [("measure_ops", ("quantum", True)), ("measure_ops", ("quantum", False)),
                     ("measure_ops", ("quantum", False))]
    assert doc == {"change": {"op": {
        "cold_ms": 6.0, "cold_ms_runs": [5.0, 9.0, 6.0], "warm_ms": 3.0,
        "warm_ms_runs": [2.0, 30.0, 3.0], "failed": 1, "cold_counts": {"solves": 1}}}}


@pytest.mark.parametrize("seams", TABLES, ids=IDS)
def test_every_seam_names_an_existing_attribute(seams):
    for owner, attribute, _ in seams:
        module = importlib.import_module(owner)
        assert callable(getattr(module, attribute, None)), (owner, attribute)


@pytest.mark.parametrize("label, counts", [
    ("polygon8", {"screen_lps": 28, "witness_lps": 0, "kernel_entries": 1, "guesses": 12}),
    ("custom2d8", {"screen_lps": 28, "witness_lps": 5, "kernel_entries": 2, "guesses": 8}),
])
def test_frame_seams_count_one_cold_enumeration(label, counts):
    # the facet cone decides every pair, and least squares guesses each kept
    # frame's witness once; pivots are not pinned: they follow the kernel's
    # pivot rule
    originals = _originals(bench_frames.FRAME_SEAMS)
    with bench_frames.counting(bench_frames.FRAME_SEAMS) as counted:
        enumerate_frames(bench_frames._build(label))
    assert {key: counted[key] for key in counts} == counts
    assert counted["pivots"] > 0
    assert _restored(bench_frames.FRAME_SEAMS, originals)


def test_pivots_count_alike_alone_and_in_a_stack():
    # a lone LP is a stack of one: three copies of an LP count three times
    # its pivots alone. min x0 + 2 x1 + 3 x2
    # s.t. x0 + x1 + x2 = 1, x0 - x1 >= -0.5, x2 <= 0.8 takes pivots in both phases
    c, a = np.array([1.0, 2.0, 3.0]), np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0, 0, 1.0]])
    rest = np.array([0.0, -1.0, 1.0]), np.array([1.0, -0.5, 0.8]), np.zeros(3), np.full(3, np.inf)
    with bench_frames.counting(bench_frames.FRAME_SEAMS) as alone:
        (result,) = convex_kernel._solve(c, a, *rest, False)
    with bench_frames.counting(bench_frames.FRAME_SEAMS) as stacked:
        assert convex_kernel._solve(c, np.stack([a] * 3), *rest, False) == [result] * 3
    assert result.status == "optimal" and alone["pivots"] > 0
    assert stacked["pivots"] == 3 * alone["pivots"]


@pytest.mark.parametrize("seams", TABLES, ids=IDS)
def test_counting_puts_every_original_back_when_the_block_raises(seams):
    originals = _originals(seams)
    with pytest.raises(RuntimeError, match="inside"):
        with bench_frames.counting(seams):
            assert not any(now is originals[key] for key, now in _originals(seams).items())
            raise RuntimeError("inside")
    assert _restored(seams, originals)
    # a seam that is missing fails before the block, with the others put back
    with pytest.raises(AttributeError):
        with bench_frames.counting((*seams, ("convexinfo.gpt_models", "_missing", None))):
            pass
    assert _restored(seams, originals)


def test_spectra_seams_count_one_rank_call_and_one_solve_per_op():
    # a fresh model's first spectrum op takes every prefix rank in one
    # batched SVD and stacks every regular basis in one solve; a later op
    # only solves
    space = bench_frames._build("custom2d8")
    originals = _originals(bench_frames.SPECTRA_SEAMS)
    counts = []
    for coords in ([0.1, 0.05], [-0.1, 0.1]):
        with bench_frames.counting(bench_frames.SPECTRA_SEAMS) as counted:
            generalized_spectrum(space, make_state(space, coords))
        counts.append(counted)
    systems = len(space._spectrum_bases[3])
    assert counts == [{"ranks": 1, "solves": 1, "systems": systems},
                      {"solves": 1, "systems": systems}]
    assert _restored(bench_frames.SPECTRA_SEAMS, originals)


@pytest.mark.parametrize("pair, cone_tests", [(("simplex7", "polygon8"), 0),
                                              (("polygon8", "polygon8"), 1)],
                         ids=("simplex7xpolygon8", "polygon8xpolygon8"))
def test_separable_seams_count_lps_and_kernel_entries(pair, cone_tests):
    # a classical factor's conditional states go through the other factor's
    # bases; a pair without one makes one cone test over the vertex products,
    # of a few passive-set solves. Neither solves an LP
    factors = [bench_frames._build(label) for label in pair]
    va, vb = (factor.vertex_array() for factor in factors)
    weights = np.random.default_rng(0).dirichlet(np.ones(len(va) * len(vb)))
    omega = JointState(va.T @ weights.reshape(len(va), len(vb)) @ vb)
    originals = _originals(bench_frames.SEPARABLE_SEAMS)
    with bench_frames.counting(bench_frames.SEPARABLE_SEAMS) as counted:
        assert separable_witness(ProductSpace(*factors), omega) is not None
    assert (counted["cone_tests"], counted["lps"], counted["kernel_entries"]) == (cone_tests, 0, 0)
    assert (counted["nnls_iterations"] > 0) == (cone_tests > 0)
    assert _restored(bench_frames.SEPARABLE_SEAMS, originals)


def test_spectrum_ops_make_one_rank_call_cold_and_one_solve_each(op_records):
    # the model's first op builds its bases from one batched SVD; every op
    # solves once
    records = {label: record for label, record in op_records["spectra"].items()
               if label.startswith("spectrum ")}
    assert len(records) == 27
    for label, record in records.items():
        cold, warm = record["cold_counts"], record["warm_counts"]
        assert (cold["ranks"], cold["solves"]) == (1, 1), label
        assert (warm.get("ranks", 0), warm["solves"]) == (0, 1), label


def test_separable_seams_count_one_decision_per_op(op_records):
    # the workload's entangled and not-a-state ops go through a witness,
    # max-tensor membership and the verdict, which share one decision; a
    # warm op solves no LP (a cold one may enumerate a new factor's frames)
    records = {label: record for label, record in op_records["separable"].items()
               if label.split()[1] != "separable"}
    assert len(records) == 7 and next(iter(records)) == "separable entangled polygon4xpolygon4"
    for label, record in records.items():
        assert record["cold_counts"]["decisions"] == record["warm_counts"]["decisions"] == 1, \
            label
        assert record["warm_counts"].get("lps", 0) == 0, label


@pytest.mark.parametrize("n", [1, 2, 16])
def test_quantum_seams_count_the_eigensolves_of_one_qentropy_op(n, op_records):
    # the state's validation and the search's eigenbasis; the witness is
    # checked with no eigensolve, the spectrum reads the eigenvalues the
    # state kept, and the seed is checked with no generator built
    if n == 1:  # no workload has d = 1: its op's calls, made here
        originals = _originals(bench_frames.QUANTUM_SEAMS)
        with bench_frames.counting(bench_frames.QUANTUM_SEAMS) as counted:
            pair, rho = pair_from_spec("renyi:2.0"), DensityMatrix([[1.0]])
            quantum_entropy_min_search(pair, rho, budget=1000, seed=n)
            quantum_entropy(pair, rho)
        assert _restored(bench_frames.QUANTUM_SEAMS, originals)
        counts = [counted]
    else:
        counts = [counted for label, record in op_records["quantum"].items()
                  if label.startswith(f"qentropy d{n} ")
                  for counted in (record["cold_counts"], record["warm_counts"])]
    assert len(counts) in (1, 6)
    assert all(counted == {"eigensolves": 2} for counted in counts)


def test_the_stack_checks_seam_counts_a_holevo_ops_povm_and_no_witness(op_records):
    # the Gram matrix of its bras decides a qentropy op's witness; a holevo
    # op checks the stack of the POVM it measures with, once
    records = op_records["quantum"]
    for label, record in records.items():
        want = 1 if label.startswith("holevo ") else 0
        for counted in (record["cold_counts"], record["warm_counts"]):
            assert counted.get("stack_checks", 0) == want, label
    assert sum(label.startswith("holevo ") for label in records) == 3
    assert sum(label.startswith("qentropy ") for label in records) == 12


def test_the_generators_seam_counts_each_default_rng_call():
    # the seam a checkout that validates the seed with default_rng counts on
    with bench_frames.counting(bench_frames.QUANTUM_SEAMS) as counted:
        np.random.default_rng(0)
        np.random.default_rng([1, 2])
    assert counted == {"generators": 2}


@pytest.mark.parametrize("where", ["export", "subdirectory"])
def test_a_parent_that_is_not_a_checkout_is_refused_before_any_work(where, tmp_path, capsys,
                                                                    monkeypatch):
    # an export (git archive) has no .git, so its commit could not be named;
    # a directory inside a checkout would name the enclosing one's commit
    def measured(*args):
        raise AssertionError("measured a checkout")

    monkeypatch.setattr(bench_frames, "alternated", measured)
    parent = tmp_path if where == "export" else ROOT / "scripts"
    with pytest.raises(SystemExit) as refused:
        bench_frames.main(["--parent", str(parent)])
    assert refused.value.code == 2
    assert "clone or a worktree" in capsys.readouterr().err
