"""Cold frames, spectra, separability, min-searches and perfbench pairs, parent against change.

Run from the repository root (numpy is the only dependency):

    python scripts/bench_frames.py
    python scripts/bench_frames.py --parent ../parent --out BENCH_pr10.json

Each checkout is measured in ``REPEATS`` interpreters, and the checkouts
alternate which goes first on each repeat, so a drift in machine speed
falls on both sides alike. Every repeat builds its model afresh, so it
enumerates the frames cold; ``seconds`` is the median over the repeats. The
models are the cap models, then the seven models whose frames the
``spectrum-ladder`` workload enumerates cold in its first pass (``LADDER``);
``ladder_seconds`` sums their medians. A model whose enumeration raises
``LpNumericalError`` records the message instead.

The ``spectra`` section times the workload's spectrum op, coordinates ->
``make_state`` -> ``generalized_spectrum``, on every model of the
``spectrum-ladder`` workload (``SPECTRUM_LADDER``) at the coordinates of
``STATES`` random mixtures of its vertices. On a freshly built model in
each repeat every op is timed; ``cold_ms`` is the median of the first ops,
``warm_ms`` the median of all later ones. ``make_state_ms`` is the median of
``make_state`` alone at the later coordinates, on a model that has done one
op. ``cold_ranks`` and ``warm_ranks`` count rank calls in the first op and
in each later op (their mean), ``solves`` and ``kernel_entries`` the solve
calls and kernel entries per later op, and ``regular_bases`` the systems
that the first op's solve calls solved: its one solve stacks every regular
basis.

The ``separable`` section times ``separable_witness`` on ``STATES`` random
separable states of every factor pair of the ``tensor-separable`` workload
(``TensorSeparable.SEPARABLE`` in ``perfbench/workloads.py``); ``ms`` is
the median over the states and repeats. ``lps`` and ``kernel_entries`` count
the LPs and kernel entries per call: one decomposition LP over the vertex
products, or with a classical factor one stack of its conditional states'
LPs. ``pivots_per_lp`` counts the pivots per LP, and ``us_per_pivot`` is
the time per pivot of a call.

The ``search`` section times the ``quantum-search`` workload's search op,
``pair_from_spec`` -> ``quantum_entropy_min_search`` at budget 1000, for
each dimension in ``SEARCH_DIMS`` and each pair in ``SEARCH_PAIRS`` on one
random density matrix, ``SEARCHES`` seeds each; ``ms`` is the median over
the seeds and repeats. ``qr_calls``, ``score_calls`` (one per scored stack
of candidates) and ``validations`` (one per pair built) are counts per search.

In the first repeat one more run of each section, not timed, counts the
work: ``counting`` wraps every seam of the section's table (``FRAME_SEAMS``,
``SPECTRA_SEAMS``, ``SEPARABLE_SEAMS``, ``SEARCH_SEAMS``), which names the
function and what one call of it adds to which count, and puts the
originals back after. A seam that the measured checkout lacks is left out
(``present``): a parent that predates the lone LP's pivot function pivots
every LP through ``_pivot``, and one that predates the conditional-state
LPs solves every separability test as one decomposition LP.

``--parent DIR`` measures the checkout in DIR the same way, alternating
with this one. The interpreters that time frames, spectra and searches run with
``MEASURE_ENV``, which the JSON records: OpenBLAS's threaded least squares
sometimes takes a hundred times its usual 2 ms on simplex 10, and one
thread keeps the cold timings steady. It then runs ``perfbench/run.py --seconds 16`` in both
checkouts for seeds 1..PAIRS and the hold-out seed 7919, alternating which
goes first, on every workload in ``WORKLOADS``, and stores each run's metrics.
Each perfbench run gets an empty bytecode cache, so that both checkouts
import alike whatever ``__pycache__`` directories their trees hold.
The JSON goes to ``--out`` or stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 3
PAIRS = 10
HOLD_OUT_SEED = 7919
WORKLOADS = ("spectrum-ladder", "tensor-separable", "quantum-search")
#: The models whose frames spectrum-ladder's first pass enumerates cold.
LADDER = ("polygon6", "polygon8", "polygon12", "simplex4", "simplex6", "custom2d8", "custom3d6")
#: The models whose spectra spectrum-ladder computes.
SPECTRUM_LADDER = (*(f"polygon{n}" for n in (4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16)),
                   *(f"simplex{n}" for n in range(4, 11)),
                   *(f"custom2d{n}" for n in (6, 8, 10, 12, 16)),
                   *(f"custom3d{n}" for n in (6, 8, 10, 16)))
#: States per model in the spectra section.
STATES = 16
#: Dimensions, pairs and seeds per (dimension, pair) of the search section.
SEARCH_DIMS = (2, 4, 8, 16)
SEARCH_PAIRS = ("shannon", "renyi:2.0", "tsallis:0.5")
SEARCHES = 10
#: Environment of the interpreters that time frames, spectra and searches.
MEASURE_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def _model(label: str, reference: dict):
    """(kind, build_model arguments) of a label such as polygon6, simplex4 or custom3d6."""
    if label.startswith("custom"):
        return "custom_polytope", {"vertices": reference["custom"][label]}
    kind = "regular_polygon" if label.startswith("polygon") else "simplex"
    return kind, {"n": int(label[7:])}


def _models(reference: dict):
    for n in (8, 12, 16):
        yield f"polygon{n}", "regular_polygon", {"n": n}
    for n in (8, 10, 16):
        yield f"simplex{n}", "simplex", {"n": n}
    for label in ("custom2d16", "custom3d16"):
        yield label, "custom_polytope", {"vertices": reference["custom"][label]}
    # 16 random points in R^7: the third draw of default_rng(0)
    rng = np.random.default_rng(0)
    rng.normal(size=(16, 2))
    rng.normal(size=(16, 3))
    yield "custom7d16", "custom_polytope", {"vertices": rng.normal(size=(16, 7))}
    # 16 random points in R^6, the first draw of default_rng(2): the second
    # cap model whose witness stacks fail
    yield "custom6d16", "custom_polytope", {
        "vertices": np.random.default_rng(2).normal(size=(16, 6))}
    for label in ("polygon6", "simplex4", "simplex6", "custom2d8", "custom3d6"):
        yield label, *_model(label, reference)


def _once(key: str):
    """What one call adds: 1 to ``key``."""
    return lambda *args, **kwargs: {key: 1}


def _stack(c, a, con_rel, b, *rest):
    """What one kernel entry adds: the LPs of its stack, and the entry."""
    shape = np.broadcast_shapes(np.shape(c)[:-1], np.shape(a)[:-2], np.shape(b)[:-1])
    return {"lps": int(np.prod(shape)), "kernel_entries": 1}


def _pivots(tableau, basis, rows, cols, *rest):
    """What one pivot call adds: one pivot per LP pivoted, of a stack or alone."""
    return {"pivots": np.size(cols)}


#: The seams of each section: (owner, attribute, what one call adds). The
#: frames count least-squares guesses, the dual screen's and the k x d
#: witness LPs where they are built (one per point set), kernel entries (a
#: stack of LPs enters once) and simplex pivots, of stacks and of lone LPs.
PIVOT_SEAMS = (("convexinfo.convex_kernel", "_pivot", _pivots),
               ("convexinfo.convex_kernel", "_pivot_alone", _pivots))
FRAME_SEAMS = (
    ("numpy.linalg", "lstsq", _once("guesses")),
    ("convexinfo.gpt_models", "_screen", lambda space, points: {"dual_screen_lps": len(points)}),
    ("convexinfo.gpt_models", "_distinguishing_effects",
     lambda space, points: {"witness_lps": len(points)}),
    ("convexinfo.gpt_models", "_solve", _once("kernel_entries")),
    *PIVOT_SEAMS,
)
SPECTRA_SEAMS = (
    ("numpy.linalg", "matrix_rank", _once("ranks")),
    ("numpy.linalg", "solve",
     lambda a, b: {"solves": 1, "systems": int(np.prod(np.shape(a)[:-2]))}),
    ("convexinfo.convex_kernel", "_solve", _once("kernel_entries")),
    ("convexinfo.gpt_models", "_solve", _once("kernel_entries")),
)
#: The separability test enters the kernel once, through the decomposition
#: LP or through a stack of conditional-state LPs.
SEPARABLE_SEAMS = (
    ("convexinfo.composites", "_decomposition_lp",
     lambda *args: {"lps": 1, "kernel_entries": 1}),
    ("convexinfo.composites", "_solve", _stack),
    *PIVOT_SEAMS,
)
SEARCH_SEAMS = (
    ("numpy.linalg", "qr", _once("qr_calls")),
    ("convexinfo.quantum", "_rows_entropies", _once("score_calls")),
    ("convexinfo.entropic", "_validate_pair", _once("validations")),
)


@contextlib.contextmanager
def counting(seams):
    """Wrap every seam so that each call adds to the one Counter yielded;
    put every original back after, also when the block raises."""
    counts = Counter()
    originals = []

    def counted(function, adds):
        def call(*args, **kwargs):
            counts.update(adds(*args, **kwargs))
            return function(*args, **kwargs)
        return call

    try:
        for owner, attribute, adds in seams:
            module = importlib.import_module(owner)
            original = getattr(module, attribute)
            originals.append((module, attribute, original))
            setattr(module, attribute, counted(original, adds))
        yield counts
    finally:
        for module, attribute, original in reversed(originals):
            setattr(module, attribute, original)


def present(seams):
    """The seams whose attribute the imported modules have."""
    return [seam for seam in seams if hasattr(importlib.import_module(seam[0]), seam[1])]


def measure(counted: bool) -> dict:
    """One cold enumeration of every cap model with the convexinfo on sys.path,
    and with ``counted`` one more that counts the work."""
    from convexinfo import build_model, enumerate_frames
    from convexinfo.errors import LpNumericalError

    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    results = {}
    for label, kind, args in _models(reference):
        space = build_model(kind, **args)
        start = time.perf_counter()
        try:
            frames = enumerate_frames(space)
        except LpNumericalError as exc:
            results[label] = {"raises": f"LpNumericalError: {exc}"}
            continue
        results[label] = {"seconds": [time.perf_counter() - start], "frames": len(frames)}
        if counted:
            with counting(present(FRAME_SEAMS)) as counts:
                enumerate_frames(build_model(kind, **args))
            results[label].update({key: counts[key] for key in (
                "guesses", "dual_screen_lps", "witness_lps", "kernel_entries", "pivots")})
    return results


def measure_spectra(counted: bool) -> dict:
    """The spectrum op of every spectrum-ladder model with the convexinfo on
    sys.path, on one freshly built model, and with ``counted`` the counts."""
    from convexinfo import build_model, generalized_spectrum, make_state, mix_state

    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    results = {}
    for label in SPECTRUM_LADDER:
        kind, args = _model(label, reference)
        rng = np.random.default_rng(0)
        space = build_model(kind, **args)
        coords = [mix_state(space, rng.dirichlet(np.full(space.n_vertices, 0.7))).coords()
                  for _ in range(STATES)]

        def op(space, c):
            return generalized_spectrum(space, make_state(space, c))

        cold, warm, alone = [], [], []
        space = build_model(kind, **args)
        for k, c in enumerate(coords):
            start = time.perf_counter()
            op(space, c)
            (warm if k else cold).append(1e3 * (time.perf_counter() - start))
        space = build_model(kind, **args)
        op(space, coords[0])
        for c in coords[1:]:
            start = time.perf_counter()
            make_state(space, c)
            alone.append(1e3 * (time.perf_counter() - start))
        results[label] = {"cold_ms": cold, "warm_ms": warm, "make_state_ms": alone}
        if counted:
            space = build_model(kind, **args)
            with counting(SPECTRA_SEAMS) as rest:
                op(space, coords[0])
                first = Counter(rest)
                for c in coords[1:]:
                    op(space, c)
            rest.subtract(first)
            results[label].update({"regular_bases": first["systems"],
                                   "cold_ranks": first["ranks"],
                                   "warm_ranks": rest["ranks"] / (STATES - 1),
                                   "solves": rest["solves"] / (STATES - 1),
                                   "kernel_entries": rest["kernel_entries"] / (STATES - 1)})
    return results


def measure_separable(counted: bool) -> dict:
    """``separable_witness`` on separable states of every tensor-separable
    factor pair with the convexinfo on sys.path, and with ``counted`` the
    LPs, kernel entries and pivots."""
    from convexinfo import JointState, ProductSpace, build_model, separable_witness

    sys.path.append(str(ROOT / "perfbench"))
    from workloads import TensorSeparable

    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    results = {}
    for pair in TensorSeparable.SEPARABLE:
        factors = [build_model(kind, **args)
                   for kind, args in (_model(label, reference) for label in pair)]
        va, vb = (factor.vertex_array() for factor in factors)
        ps, label = ProductSpace(*factors), "x".join(pair)
        rng = np.random.default_rng(0)
        states = [JointState(va.T @ rng.dirichlet(np.full(len(va) * len(vb), 0.5)).reshape(
            len(va), len(vb)) @ vb) for _ in range(STATES)]
        times = []
        for omega in states:
            start = time.perf_counter()
            separable_witness(ps, omega)
            times.append(1e3 * (time.perf_counter() - start))
        results[label] = {"ms": times}
        if counted:
            with counting(present(SEPARABLE_SEAMS)) as counts:
                for omega in states:
                    separable_witness(ps, omega)
            results[label].update({"lps": counts["lps"] / STATES,
                                   "kernel_entries": counts["kernel_entries"] / STATES,
                                   "pivots_per_lp": counts["pivots"] / counts["lps"]})
    return results


def measure_search(counted: bool) -> dict:
    """The search op at every dimension and pair with the convexinfo on
    sys.path, and with ``counted`` the counts per search."""
    from convexinfo import DensityMatrix, pair_from_spec, quantum

    results = {}
    for n in SEARCH_DIMS:
        rng = np.random.default_rng(n)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        for spec in SEARCH_PAIRS:
            def op(seed):
                quantum.quantum_entropy_min_search(pair_from_spec(spec), rho, budget=1000,
                                                   seed=seed)

            times = []
            for seed in range(SEARCHES):
                start = time.perf_counter()
                op(seed)
                times.append(1e3 * (time.perf_counter() - start))
            label = f"d{n} {spec}"
            results[label] = {"ms": times}
            if counted:
                with counting(SEARCH_SEAMS) as counts:
                    for seed in range(SEARCHES):
                        op(seed)
                results[label].update({key: counts[key] / SEARCHES for key in (
                    "qr_calls", "score_calls", "validations")})
    return results


def _measure_checkout(checkout: Path, function: str, counted: bool) -> dict:
    code = (f"import json, sys; sys.path[:0] = [{str(checkout / 'src')!r}, "
            f"{str(ROOT / 'scripts')!r}]; import bench_frames; "
            f"print(json.dumps(bench_frames.{function}({counted})))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, **MEASURE_ENV),
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def alternated(checkouts: dict, function: str) -> dict:
    """``function`` in REPEATS interpreters per checkout, the checkouts taking
    turns at going first; each timed list becomes its median over the
    repeats, and the counts and messages come from the first repeat."""
    runs = {side: [] for side in checkouts}
    for repeat in range(REPEATS):
        for side in list(checkouts)[::1 if repeat % 2 == 0 else -1]:
            runs[side].append(_measure_checkout(checkouts[side], function, repeat == 0))
    return {side: {label: {key: statistics.median(x for run in side_runs for x in run[label][key])
                           if isinstance(value, list) else value
                           for key, value in record.items()}
                   for label, record in side_runs[0].items()}
            for side, side_runs in runs.items()}


def _commit(checkout: Path) -> str:
    """HEAD of the checkout, marked "+changes" when its tree differs from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True).stdout.strip()
    head = git("rev-parse", "HEAD") or "unknown"
    return head + ("+changes" if git("status", "--porcelain", "--untracked-files=no") else "")


def _perfbench(checkout: Path, workload: str, seed: int) -> dict:
    # each run starts from an empty bytecode cache: a working tree's stale
    # __pycache__ (under PYTHONDONTWRITEBYTECODE) would time its imports, and
    # so setup_s, unlike those of a clean checkout
    with tempfile.TemporaryDirectory() as cache:
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                              "--seed", str(seed), "--seconds", "16", "--trace", "0"],
                             cwd=checkout, env=dict(os.environ, PYTHONPYCACHEPREFIX=cache),
                             check=True, capture_output=True, text=True).stdout
    doc = json.loads(out.splitlines()[-1])
    return {"correct": doc["correct"], "metrics": doc["metrics"]}


def pairs(parent: Path) -> dict:
    runs = {}
    for workload in WORKLOADS:
        runs[workload] = []
        for index, seed in enumerate([*range(1, PAIRS + 1), HOLD_OUT_SEED]):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = _perfbench(parent if side == "parent" else ROOT, workload, seed)
                print(f"{workload} seed {seed} {side}: "
                      f"{pair[side]['metrics'].get('ops_per_s')}", file=sys.stderr)
            runs[workload].append(pair)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    checkouts = {"change": ROOT}
    if args.parent is not None:
        checkouts["parent"] = args.parent.resolve()
    doc = {"repeats": REPEATS, "states": STATES, "searches": SEARCHES, "measure_env": MEASURE_ENV,
           "commits": {side: _commit(path) for side, path in checkouts.items()}}
    doc["frames"] = alternated(checkouts, "measure")
    for frames in doc["frames"].values():
        frames["ladder_seconds"] = sum(frames[label]["seconds"] for label in LADDER)
    doc["spectra"] = alternated(checkouts, "measure_spectra")
    doc["separable"] = alternated(checkouts, "measure_separable")
    for side in doc["separable"].values():
        for record in side.values():
            record["us_per_pivot"] = 1e3 * record["ms"] / (record["pivots_per_lp"] * record["lps"])
    doc["search"] = alternated(checkouts, "measure_search")
    if args.parent is not None:
        doc["perfbench"] = pairs(checkouts["parent"])
    text = json.dumps(doc, indent=1)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
