"""Cold frames, spectra, separability and perfbench pairs, parent against change.

Run from the repository root (numpy is the only dependency):

    python scripts/bench_frames.py
    python scripts/bench_frames.py --parent ../parent --out BENCH_pr10.json

Each checkout is measured in ``REPEATS`` interpreters, and the checkouts
alternate which goes first on each repeat, so a drift in machine speed
falls on both sides alike. Every repeat builds its model afresh, so it
enumerates the frames cold; ``seconds`` is the median over the repeats, and
``seconds_runs`` keeps each repeat's seconds, in the order of the repeats, to
show their spread. The models are the cap models (``CAP_MODELS``), then the
seven models whose frames the ``spectrum-ladder`` workload enumerates cold in
its first pass (``LADDER``: perfbench warms only the first op of each kind,
polygon4's entropy op); ``ladder_seconds`` sums their medians. A model whose
enumeration raises ``LpNumericalError`` records the message instead.

The ``spectra`` section times the workload's spectrum op, coordinates ->
``make_state`` -> ``generalized_spectrum``, on every model of the
``spectrum-ladder`` workload (``SPECTRUM_LADDER``, from
``SpectrumLadder.SPECTRUM`` in ``perfbench/workloads.py``) at the coordinates of
``STATES`` random mixtures of its vertices. On a freshly built model in
each repeat every op is timed; ``cold_ms`` is the median of the first ops,
``warm_ms`` the median of all later ones, and ``warm_ms_runs`` keeps every
later op's time of every repeat, in the order of the repeats.
``make_state_ms`` is the median of ``make_state`` alone at the later
coordinates, on a model that has done one op. ``cold_ranks`` and ``warm_ranks`` count rank calls in the first op and
in each later op (their mean): one ``matrix_rank`` per prefix of the rows, or
one batched ``svd`` of all prefixes; ``solves`` the solve calls per later op,
and ``regular_bases`` the systems that the first op's solve calls solved:
its one solve stacks every regular basis. No spectrum op enters the LP
kernel, which ``test_a_state_and_its_spectrum_share_one_solve`` pins.

The ``separable`` section times the ``tensor-separable`` workload's
separable op after its ``JointState`` (``separable_op``: a witness, then
max-tensor membership and the verdict when there is none) on ``STATES``
tables per record: random separable states of every factor pair of
``TensorSeparable.SEPARABLE``, labelled by the pair, then the workload's
own entangled and not-a-state tables of ``TensorSeparable.ENTANGLED`` and
``NOT_A_STATE`` (``perfbench/workloads.py``), labelled by the verdict and
the pair. ``ms`` is the median over the tables and repeats, and ``ms_runs``
keeps every table's time of every repeat, in the order of the repeats. Per
op, ``decisions`` counts the pair's decisions on its table: the cone tests
over the vertex products (``cone_tests``, ``convex_kernel._cone_weights``:
a pair without a classical factor) plus the solves of a classical factor's
conditional states (``composites._conditional_weights``); a checkout that
decides a table again in max-tensor membership or the verdict counts 2 or 3.
``nnls_iterations`` counts the cone tests' passive-set solves
(``convex_kernel._passive_weights``); ``lps`` and ``kernel_entries`` count
the LPs and LP-kernel entries (``convex_kernel._solve_stack``), which no
route makes.

The ``quantum`` section times the ``quantum-search`` workload's qentropy op,
``pair_from_spec`` -> ``DensityMatrix`` -> ``quantum_entropy_min_search`` ->
``quantum_entropy``, at every dimension of ``QuantumSearch.QENTROPY_DIMS``
(``perfbench/workloads.py``), with each of its pairs (``PAIR_SPECS``) on
``STATES`` random density matrices given as nested lists, as the workload
gives them; ``ms`` is the median over the ops and repeats, and ``ms_runs``
keeps every op's time of every repeat, in the order of the repeats.
``eigensolves`` counts the ``eigvalsh`` and ``eigh`` calls per op: the
state's validation, the search's eigenbasis and, unless the state keeps its
eigenvalues, the spectrum; a checkout whose min-search checks its witness
with an eigensolve of the effects counts one more. ``generators`` counts the
``np.random.default_rng`` calls per op: a checkout that validates the
search's seed by building a generator counts one.

In the first repeat one more run of each section, not timed, counts the
work: ``counting`` wraps every seam of the section's table (``FRAME_SEAMS``,
``SPECTRA_SEAMS``, ``SEPARABLE_SEAMS``, ``QUANTUM_SEAMS``), which names the
function and what one call of it adds to which count, and puts the
originals back after.

``--parent DIR`` measures the checkout in DIR the same way, alternating
with this one. DIR must be the top of a git checkout (a clone or a
worktree), so that the JSON names its commit; an export without ``.git`` is
refused. The interpreters that time frames and spectra run with
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
from workloads import (  # noqa: E402
    PAIRS as PAIR_SPECS,
    QuantumSearch,
    SpectrumLadder,
    TensorSeparable,
    build_model,
    load_reference,
    random_density,
)

REPEATS = 3
PAIRS = 10
HOLD_OUT_SEED = 7919
WORKLOADS = ("spectrum-ladder", "tensor-separable", "quantum-search")
#: The models whose frames spectrum-ladder's first pass enumerates cold.
LADDER = SpectrumLadder.ENTROPY[1:]
#: The models whose spectra spectrum-ladder computes.
SPECTRUM_LADDER = tuple(label for label, _ in SpectrumLadder.SPECTRUM)


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
#: States per model in the spectra section.
STATES = 16
#: Environment of the interpreters that time frames and spectra.
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


def _once(key: str):
    """What one call adds: 1 to ``key``."""
    return lambda *args, **kwargs: {key: 1}


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
#: A pair without a classical factor makes one cone test, whose Lawson-Hanson
#: iterations each solve one passive set, and a pair with one solves its
#: conditional states; every LP stack would enter the kernel at ``_solve_stack``.
SEPARABLE_SEAMS = (
    ("convexinfo.composites", "_cone_weights", _once("cone_tests")),
    ("convexinfo.composites", "_conditional_weights", _once("conditional_solves")),
    ("convexinfo.convex_kernel", "_passive_weights", _once("nnls_iterations")),
    ("convexinfo.convex_kernel", "_solve_stack",
     lambda c, a, *rest: {"lps": len(a), "kernel_entries": 1}),
)
QUANTUM_SEAMS = (("numpy.linalg", "eigvalsh", _once("eigensolves")),
                 ("numpy.linalg", "eigh", _once("eigensolves")),
                 ("numpy.random", "default_rng", _once("generators")))


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


def measure_spectra(counted: bool) -> dict:
    """The spectrum op of every spectrum-ladder model with the convexinfo on
    sys.path, on one freshly built model, and with ``counted`` the counts."""
    results = {}
    for label in SPECTRUM_LADDER:
        rng = np.random.default_rng(0)
        space = _build(label)
        coords = [ci.mix_state(space, rng.dirichlet(np.full(space.n_vertices, 0.7))).coords()
                  for _ in range(STATES)]

        def op(space, c):
            return ci.generalized_spectrum(space, ci.make_state(space, c))

        cold, warm, alone = [], [], []
        space = _build(label)
        for k, c in enumerate(coords):
            start = time.perf_counter()
            op(space, c)
            (warm if k else cold).append(1e3 * (time.perf_counter() - start))
        space = _build(label)
        op(space, coords[0])
        for c in coords[1:]:
            start = time.perf_counter()
            ci.make_state(space, c)
            alone.append(1e3 * (time.perf_counter() - start))
        results[label] = {"cold_ms": cold, "warm_ms": warm, "make_state_ms": alone}
        if counted:
            space = _build(label)
            with counting(SPECTRA_SEAMS) as rest:
                op(space, coords[0])
                first = Counter(rest)
                for c in coords[1:]:
                    op(space, c)
            rest.subtract(first)
            results[label].update({"regular_bases": first["systems"],
                                   "cold_ranks": first["ranks"],
                                   "warm_ranks": rest["ranks"] / (STATES - 1),
                                   "solves": rest["solves"] / (STATES - 1)})
    return results


def separable_op(ps, omega) -> None:
    """The tensor-separable workload's separable op after its JointState: a
    witness, then max-tensor membership and the verdict when there is none."""
    if ci.separable_witness(ps, omega) is None:
        ci.max_tensor_member(ps, omega)
        ci.classify_joint(ps, omega)


def _separable_ops() -> dict:
    """Per record label, the factor pair and its ``STATES`` tables: random
    separable states of every pair of ``TensorSeparable.SEPARABLE``, then
    the workload's own entangled and not-a-state tables of its other pairs."""
    ops = {}
    for pair in TensorSeparable.SEPARABLE:
        va, vb = (_build(label).vertex_array() for label in pair)
        rng = np.random.default_rng(0)
        ops["x".join(pair)] = pair, [
            va.T @ rng.dirichlet(np.full(len(va) * len(vb), 0.5)).reshape(len(va), len(vb)) @ vb
            for _ in range(STATES)]
    workload = TensorSeparable(0, _reference())
    for verdict, pairs, table in (("entangled", TensorSeparable.ENTANGLED, workload._entangled),
                                  ("not-a-state", TensorSeparable.NOT_A_STATE,
                                   workload._outside)):
        for pair in pairs:
            rng = np.random.default_rng(0)
            ops[f"{verdict} {'x'.join(pair)}"] = pair, [table(rng, pair) for _ in range(STATES)]
    return ops


def measure_separable(counted: bool) -> dict:
    """The separable op (``separable_op``) on every table of ``_separable_ops``
    with the convexinfo on sys.path, and with ``counted`` the decisions, cone
    tests, their iterations, LPs and kernel entries per op."""
    results = {}
    for label, (pair, tables) in _separable_ops().items():
        factors = [_build(m) for m in pair]
        states = [ci.JointState(table) for table in tables]
        ps = ci.ProductSpace(*factors)
        times = []
        for omega in states:
            start = time.perf_counter()
            separable_op(ps, omega)
            times.append(1e3 * (time.perf_counter() - start))
        results[label] = {"ms": times}
        if counted:
            # a checkout from before the cone test has none of its seams,
            # and counts 0 there; a fresh pair has decided no table yet
            seams = [seam for seam in SEPARABLE_SEAMS
                     if hasattr(importlib.import_module(seam[0]), seam[1])]
            ps = ci.ProductSpace(*factors)
            with counting(seams) as counts:
                for omega in states:
                    separable_op(ps, omega)
            counts["decisions"] = counts["cone_tests"] + counts["conditional_solves"]
            results[label].update({key: counts[key] / STATES for key in (
                "decisions", "cone_tests", "nnls_iterations", "lps", "kernel_entries")})
    return results


def qentropy_op(spec: str, entries: list, seed: int) -> float:
    """The quantum-search workload's qentropy op."""
    pair = ci.pair_from_spec(spec)
    rho = ci.DensityMatrix(entries)
    ci.quantum_entropy_min_search(pair, rho, budget=QuantumSearch.BUDGET, seed=seed)
    return ci.quantum_entropy(pair, rho)


def measure_quantum(counted: bool) -> dict:
    """The qentropy op at every dimension of the quantum-search workload with
    the convexinfo on sys.path, and with ``counted`` the eigensolves and
    generators per op."""
    results = {}
    for n in QuantumSearch.QENTROPY_DIMS:
        rng = np.random.default_rng(0)
        states = [random_density(rng, n).tolist() for _ in range(STATES)]
        ops = [(spec, rho, seed) for seed, rho in enumerate(states) for spec in PAIR_SPECS]
        times = []
        for op in ops:
            start = time.perf_counter()
            qentropy_op(*op)
            times.append(1e3 * (time.perf_counter() - start))
        results[f"d{n}"] = {"ms": times}
        if counted:
            with counting(QUANTUM_SEAMS) as counts:
                for op in ops:
                    qentropy_op(*op)
            results[f"d{n}"].update({key: counts[key] / len(ops)
                                     for key in ("eigensolves", "generators")})
    return results


def _measure_checkout(checkout: Path, function: str, counted: bool) -> dict:
    code = (f"import json, sys; sys.path[:0] = [{str(checkout / 'src')!r}, "
            f"{str(ROOT / 'scripts')!r}]; import bench_frames; "
            f"print(json.dumps(bench_frames.{function}({counted})))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, **MEASURE_ENV),
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def alternated(checkouts: dict, function: str, spread: tuple = ()) -> dict:
    """``function`` in REPEATS interpreters per checkout, the checkouts taking
    turns at going first; each timed list becomes its median over the
    repeats, and the counts and messages come from the first repeat. The
    timed lists named in ``spread`` also keep every repeat's values, as
    ``<key>_runs``."""
    runs = {side: [] for side in checkouts}
    for repeat in range(REPEATS):
        for side in list(checkouts)[::1 if repeat % 2 == 0 else -1]:
            runs[side].append(_measure_checkout(checkouts[side], function, repeat == 0))
    doc = {side: {label: {key: statistics.median(x for run in side_runs for x in run[label][key])
                          if isinstance(value, list) else value
                          for key, value in record.items()}
                  for label, record in side_runs[0].items()}
           for side, side_runs in runs.items()}
    for side, side_runs in runs.items():
        for label, record in doc[side].items():
            record.update({f"{key}_runs": [x for run in side_runs for x in run[label][key]]
                           for key in spread if key in record})
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
    doc = {"repeats": REPEATS, "states": STATES, "measure_env": MEASURE_ENV,
           "commits": {side: _commit(path) for side, path in checkouts.items()}}
    doc["frames"] = alternated(checkouts, "measure", spread=("seconds",))
    for frames in doc["frames"].values():
        frames["ladder_seconds"] = sum(frames[label]["seconds"] for label in LADDER)
    doc["spectra"] = alternated(checkouts, "measure_spectra", spread=("warm_ms",))
    doc["separable"] = alternated(checkouts, "measure_separable", spread=("ms",))
    doc["quantum"] = alternated(checkouts, "measure_quantum", spread=("ms",))
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
