"""Cold frames, spectra, separability and perfbench pairs, parent against change.

Run from the repository root (numpy is the only dependency):

    python scripts/bench_frames.py
    python scripts/bench_frames.py --parent ../parent --out BENCH_pr10.json

Each checkout is measured in ``REPEATS`` interpreters, and the checkouts
alternate which goes first on each repeat, so a drift in machine speed
falls on both sides alike. Every repeat builds its model afresh, so it
enumerates the frames cold, and the first repeat enumerates once more to
count the work. The models are the cap models (``CAP_MODELS``), then the
seven models whose frames the ``spectrum-ladder`` workload enumerates cold in
its first pass (``LADDER``: perfbench warms only the first op of each kind,
polygon4's entropy op); ``ladder_seconds`` sums their medians. A model whose
enumeration raises ``LpNumericalError`` records the message instead.

The ``spectra``, ``separable`` and ``quantum`` sections time perfbench's own
ops (``perfbench/workloads.py``) of the ``spectrum-ladder``,
``tensor-separable`` and ``quantum-search`` workloads (``SECTIONS``): each
interpreter builds the workload at seed 0, as perfbench does, and runs
``PASSES`` of its passes, timing each ``op.run()`` and checking its output,
untimed, with the op's own check. A record per op label keeps ``cold_ms``,
the label's first op (on freshly built models, so a spectrum op builds the
model's bases and a separable op enumerates a new factor's frames), and
``warm_ms``, the later ops; ``failed`` counts the outputs that failed
their check, over all repeats. In the first repeat one more run, not
timed, counts each op under the section's seams: ``cold_counts`` for the
label's first op and ``warm_counts`` the mean over its later ops (a count
that stays 0 is left out). A spectrum op makes one rank call when it builds
the bases (one ``matrix_rank`` per prefix of the rows, or one batched
``svd`` of all prefixes) and one solve, whose ``systems`` are the model's
regular bases. A separable op makes one decision per table
(``decisions``): a cone test over the vertex products (``cone_tests``,
``convex_kernel._cone_weights``: a pair without a classical factor) or the
solve of a classical factor's conditional states
(``composites._conditional_weights``); a checkout that decided a table again
in max-tensor membership or the verdict would count 2 or 3.
``nnls_iterations`` counts the cone test's passive-set solves
(``convex_kernel._passive_weights``), and ``lps`` and ``kernel_entries`` the
LPs and LP-kernel entries (``convex_kernel._solve_stack``), which only a
factor's first frame enumeration makes. ``eigensolves`` counts the
``eigvalsh`` and ``eigh`` calls: a qentropy op makes two, the state's
validation and the search's eigenbasis; a checkout whose min-search checks
its witness with an eigensolve of the effects counts one more.
``stack_checks`` counts the checks of a POVM's whole effect stack
(``quantum._checked_effects``): a holevo op makes one, for the POVM it
measures with, and a qentropy op none, since the Gram matrix of the
witness's bras decides the witness's checks; a checkout that checks the
witness's stack counts one more per qentropy op.
``generators`` counts the ``np.random.default_rng`` calls: a checkout that
validates the search's seed by building a generator counts one.

Each section's timed lists become, per label, the median over the repeats
of each repeat's median, and keep those per-repeat medians, in the order of
the repeats, as ``<key>_runs`` (``seconds_runs``, ``cold_ms_runs``,
``warm_ms_runs``), so that one repeat in a slow phase of the machine shows
as one value there and moves the median little. ``counting`` wraps every
seam of a table (``FRAME_SEAMS``, ``SPECTRA_SEAMS``, ``SEPARABLE_SEAMS``,
``QUANTUM_SEAMS``), which names the function and what one call of it adds
to which count, and puts the originals back after.

``--parent DIR`` measures the checkout in DIR the same way, alternating
with this one. DIR must be the top of a git checkout (a clone or a
worktree), so that the JSON names its commit; an export without ``.git`` is
refused. The measuring interpreters run with ``MEASURE_ENV``, which the
JSON records: OpenBLAS's threaded least squares sometimes takes a hundred
times its usual 2 ms on simplex 10, and one thread keeps the cold timings
steady. It then runs ``perfbench/run.py --seconds 16`` in both checkouts
for seeds 1..PAIRS and the hold-out seed 7919, alternating which goes
first, on every workload of perfbench, and stores each run's metrics.
Each perfbench run gets an empty bytecode cache, so that both checkouts
import alike whatever ``__pycache__`` directories their trees hold.
The JSON goes to ``--out`` or stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
# perfbench's workloads give the models and the traffic; a measuring
# interpreter puts its checkout's src first, and this checkout's src serves
# the interpreter that runs the script
sys.path += [str(ROOT / "perfbench"), str(ROOT / "src")]
import convexinfo as ci  # noqa: E402
from workloads import WORKLOADS, SpectrumLadder, build_model, load_reference  # noqa: E402

REPEATS = 7
PAIRS = 10
HOLD_OUT_SEED = 7919
#: The models whose frames spectrum-ladder's first pass enumerates cold.
LADDER = SpectrumLadder.ENTROPY[1:]


def _random_models() -> dict:
    """The vertices of the cap models that are no perfbench label."""
    # 16 random points in R^7: the third draw of default_rng(0)
    rng = np.random.default_rng(0)
    rng.normal(size=(16, 2))
    rng.normal(size=(16, 3))
    # and in R^6, the first draw of default_rng(2): the second cap model
    # whose witness stacks fail
    return {"custom7d16": rng.normal(size=(16, 7)),
            "custom6d16": np.random.default_rng(2).normal(size=(16, 6))}


RANDOM_MODELS = _random_models()
CAP_MODELS = ("polygon8", "polygon12", "polygon16", "simplex8", "simplex10", "simplex16",
              "custom2d16", "custom3d16", *RANDOM_MODELS)
#: Passes of a workload per interpreter in the per-op sections.
PASSES = 16
#: Environment of the measuring interpreters.
MEASURE_ENV = {"OPENBLAS_NUM_THREADS": "1"}


@functools.cache
def _reference() -> dict:
    """perfbench's ``reference.json``, read once per interpreter."""
    return load_reference()


def _build(label: str) -> ci.StateSpace:
    """A freshly built model of a perfbench label or a random cap model."""
    if label in RANDOM_MODELS:
        return ci.build_model("custom_polytope", vertices=RANDOM_MODELS[label])
    return build_model(label, _reference())


def _once(*keys: str):
    """What one call adds: 1 to each of ``keys``."""
    return lambda *args, **kwargs: dict.fromkeys(keys, 1)


def _pivots(tableau, basis, rows, cols, *rest):
    """What one pivot call adds: one pivot per LP of the stack it pivots."""
    return {"pivots": np.size(cols)}


#: The seams of each section: (owner, attribute, what one call adds). The
#: frames count least-squares guesses (one per kept frame), the facet-cone
#: screen LPs and the k x d witness LPs where they are built (one per point
#: set), kernel entries (a stack of LPs enters once) and simplex pivots: every
#: pivot goes through ``_pivot``, a lone LP's as a stack of one and the
#: phase-1 drive-out's too.
FRAME_SEAMS = (
    ("numpy.linalg", "lstsq", _once("guesses")),
    ("convexinfo.gpt_models", "_screen", lambda space, points: {"screen_lps": len(points)}),
    ("convexinfo.gpt_models", "_distinguishing_effects",
     lambda space, points: {"witness_lps": len(points)}),
    ("convexinfo.gpt_models", "_solve", _once("kernel_entries")),
    ("convexinfo.convex_kernel", "_pivot", _pivots),
)
#: A rank call is one ``matrix_rank`` or one batched ``svd`` of zero-padded
#: prefixes, so that a checkout of either kind counts its own.
SPECTRA_SEAMS = (
    ("numpy.linalg", "matrix_rank", _once("ranks")),
    ("numpy.linalg", "svd", _once("ranks")),
    ("numpy.linalg", "solve",
     lambda a, b: {"solves": 1, "systems": int(np.prod(np.shape(a)[:-2]))}),
)
#: A pair decides a table by one cone test when it has no classical factor,
#: whose Lawson-Hanson iterations each solve one passive set, and else by
#: solving its conditional states; every LP stack would enter the kernel at
#: ``_solve_stack``.
SEPARABLE_SEAMS = (
    ("convexinfo.composites", "_cone_weights", _once("decisions", "cone_tests")),
    ("convexinfo.composites", "_conditional_weights",
     _once("decisions", "conditional_solves")),
    ("convexinfo.convex_kernel", "_passive_weights", _once("nnls_iterations")),
    ("convexinfo.convex_kernel", "_solve_stack",
     lambda c, a, *rest: {"lps": len(a), "kernel_entries": 1}),
)
QUANTUM_SEAMS = (("numpy.linalg", "eigvalsh", _once("eigensolves")),
                 ("numpy.linalg", "eigh", _once("eigensolves")),
                 ("numpy.random", "default_rng", _once("generators")),
                 ("convexinfo.quantum", "_checked_effects", _once("stack_checks")))
#: The per-op sections: each times one perfbench workload's ops and counts
#: them with its seams.
SECTIONS = {"spectra": ("spectrum-ladder", SPECTRA_SEAMS),
            "separable": ("tensor-separable", SEPARABLE_SEAMS),
            "quantum": ("quantum-search", QUANTUM_SEAMS)}


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


def measure(counted: bool) -> dict:
    """One cold enumeration of every cap model with the convexinfo on sys.path,
    and with ``counted`` one more that counts the work."""
    results = {}
    for label in (*CAP_MODELS, *(label for label in LADDER if label not in CAP_MODELS)):
        space = _build(label)
        start = time.perf_counter()
        try:
            frames = ci.enumerate_frames(space)
        except ci.errors.LpNumericalError as exc:
            results[label] = {"raises": f"LpNumericalError: {exc}"}
            continue
        results[label] = {"seconds": [time.perf_counter() - start], "frames": len(frames)}
        if counted:
            with counting(FRAME_SEAMS) as counts:
                ci.enumerate_frames(_build(label))
            results[label].update({key: counts[key] for key in (
                "guesses", "screen_lps", "witness_lps", "kernel_entries", "pivots")})
    return results


def _passes(name: str, seams=()) -> dict:
    """``PASSES`` passes of perfbench's workload ``name`` on freshly built
    models: per op label, each op's ms and its counts under ``seams``, in
    order, and how many of its outputs failed the op's own check (untimed)."""
    workload = WORKLOADS[name](0, _reference())
    records = {}
    for index in range(PASSES):
        for op in workload.make_pass(index):
            with counting(seams) as counts:
                start = time.perf_counter()
                out = op.run()
                ms = 1e3 * (time.perf_counter() - start)
            record = records.setdefault(op.label, {"ms": [], "counts": [], "failed": 0})
            record["ms"].append(ms)
            record["counts"].append(counts)
            record["failed"] += op.check(out) is not None
    return records


def measure_ops(section: str, counted: bool) -> dict:
    """The ops of the section's workload (``SECTIONS``) with the convexinfo on
    sys.path, by op label: the first op's time (``cold_ms``), the later ops'
    (``warm_ms``) and the failed checks, and with ``counted`` the first op's
    counts and the later ops' mean counts from one more run, not timed."""
    name, seams = SECTIONS[section]
    results = {label: {"cold_ms": record["ms"][:1], "warm_ms": record["ms"][1:],
                       "failed": record["failed"]}
               for label, record in _passes(name).items()}
    if counted:
        for label, record in _passes(name, seams).items():
            cold, *warm = record["counts"]
            results[label].update(
                cold_counts=cold, failed=results[label]["failed"] + record["failed"],
                warm_counts={key: n / len(warm) for key, n in sum(warm, Counter()).items()})
    return results


def _measure_checkout(checkout: Path, function: str, args: tuple) -> dict:
    code = (f"import json, sys; sys.path[:0] = [{str(checkout / 'src')!r}, "
            f"{str(ROOT / 'scripts')!r}]; import bench_frames; "
            f"print(json.dumps(bench_frames.{function}(*{args!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, **MEASURE_ENV),
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def alternated(checkouts: dict, function: str, *args) -> dict:
    """``function(*args, counted)`` in REPEATS interpreters per checkout, the
    checkouts taking turns at going first, counted in the first repeat. Each
    timed list becomes the median of the repeats' medians, which it keeps
    as ``<key>_runs`` in the order of the repeats; failed checks add up over
    the repeats, and the counts and messages come from the first."""
    runs = {side: [] for side in checkouts}
    for repeat in range(REPEATS):
        for side in list(checkouts)[::1 if repeat % 2 == 0 else -1]:
            runs[side].append(_measure_checkout(checkouts[side], function,
                                                (*args, repeat == 0)))
    doc = {side: {} for side in runs}
    for side, side_runs in runs.items():
        for label, record in side_runs[0].items():
            doc[side][label] = merged = dict(record)
            for key, value in record.items():
                if isinstance(value, list):
                    medians = [statistics.median(run[label][key]) for run in side_runs]
                    merged.update({key: statistics.median(medians), f"{key}_runs": medians})
            if "failed" in record:
                merged["failed"] = sum(run[label]["failed"] for run in side_runs)
    return doc


def _is_checkout(path: Path) -> bool:
    """Is ``path`` the top of a git working tree?"""
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=path,
                         capture_output=True, text=True).stdout.strip()
    return bool(top) and Path(top).resolve() == path.resolve()


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
        if not (args.parent.is_dir() and _is_checkout(args.parent)):
            parser.error(f"--parent {args.parent} is not the top of a git checkout; "
                         "measure a clone or a worktree of the parent commit")
        checkouts["parent"] = args.parent.resolve()
    doc = {"repeats": REPEATS, "passes": PASSES, "measure_env": MEASURE_ENV,
           "commits": {side: _commit(path) for side, path in checkouts.items()}}
    doc["frames"] = alternated(checkouts, "measure")
    for frames in doc["frames"].values():
        frames["ladder_seconds"] = sum(frames[label]["seconds"] for label in LADDER)
    for section in SECTIONS:
        doc[section] = alternated(checkouts, "measure_ops", section)
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
