"""The benchmark harness's seams: each names a live function and counts what it should."""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from convexinfo import (
    JointState,
    ProductSpace,
    build_model,
    convex_kernel,
    enumerate_frames,
    separable_witness,
)

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_frames", ROOT / "scripts" / "bench_frames.py")
bench_frames = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_frames)

TABLES = (bench_frames.FRAME_SEAMS, bench_frames.SPECTRA_SEAMS, bench_frames.SEPARABLE_SEAMS,
          bench_frames.SEARCH_SEAMS)
IDS = ("frames", "spectra", "separable", "search")


def _originals(seams) -> dict:
    return {(owner, attribute): getattr(importlib.import_module(owner), attribute)
            for owner, attribute, _ in seams}


def _restored(seams, originals) -> bool:
    return all(now is originals[key] for key, now in _originals(seams).items())


@pytest.mark.parametrize("seams", TABLES, ids=IDS)
def test_every_seam_names_an_existing_attribute(seams):
    for owner, attribute, _ in seams:
        module = importlib.import_module(owner)
        assert callable(getattr(module, attribute, None)), (owner, attribute)


@pytest.mark.parametrize("label, counts", [
    ("polygon8", {"dual_screen_lps": 16, "witness_lps": 0, "kernel_entries": 1, "guesses": 28}),
    ("custom2d8", {"dual_screen_lps": 25, "witness_lps": 5, "kernel_entries": 2, "guesses": 28}),
])
def test_frame_seams_count_one_cold_enumeration(label, counts):
    # pivots are not pinned: they follow the kernel's pivot rule
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    kind, args = bench_frames._model(label, reference)
    originals = _originals(bench_frames.FRAME_SEAMS)
    with bench_frames.counting(bench_frames.FRAME_SEAMS) as counted:
        enumerate_frames(build_model(kind, **args))
    assert {key: counted[key] for key in counts} == counts
    assert counted["pivots"] > 0
    assert _restored(bench_frames.FRAME_SEAMS, originals)


def test_pivots_count_alike_alone_and_in_a_stack():
    # a lone LP pivots on its own 2-D tableau, a stack on its 3-D one: three
    # copies of an LP count three times its pivots alone. min x0 + 2 x1 + 3 x2
    # s.t. x0 + x1 + x2 = 1, x0 - x1 >= -0.5, x2 <= 0.8 takes pivots in both phases
    c, a = np.array([1.0, 2.0, 3.0]), np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0, 0, 1.0]])
    rest = np.array([0.0, -1.0, 1.0]), np.array([1.0, -0.5, 0.8]), np.zeros(3), np.full(3, np.inf)
    with bench_frames.counting(bench_frames.FRAME_SEAMS) as alone:
        (result,) = convex_kernel._solve(c, a, *rest, False)
    with bench_frames.counting(bench_frames.FRAME_SEAMS) as stacked:
        assert convex_kernel._solve(np.stack([c] * 3), np.stack([a] * 3), *rest, False) \
            == [result] * 3
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


@pytest.mark.parametrize("pair, lps", [(("simplex7", "polygon8"), 7),
                                       (("polygon8", "polygon8"), 1)],
                         ids=("simplex7xpolygon8", "polygon8xpolygon8"))
def test_separable_seams_count_lps_and_kernel_entries(pair, lps):
    # a classical factor splits the test into one LP per outcome, all in one
    # kernel entry; a pair without one solves one LP over the vertex products
    factors = [build_model(kind, **args)
               for kind, args in (bench_frames._model(label, {}) for label in pair)]
    va, vb = (factor.vertex_array() for factor in factors)
    weights = np.random.default_rng(0).dirichlet(np.ones(len(va) * len(vb)))
    omega = JointState(va.T @ weights.reshape(len(va), len(vb)) @ vb)
    originals = _originals(bench_frames.SEPARABLE_SEAMS)
    with bench_frames.counting(bench_frames.SEPARABLE_SEAMS) as counted:
        assert separable_witness(ProductSpace(*factors), omega) is not None
    assert (counted["lps"], counted["kernel_entries"]) == (lps, 1)
    assert counted["pivots"] > 0
    assert _restored(bench_frames.SEPARABLE_SEAMS, originals)
