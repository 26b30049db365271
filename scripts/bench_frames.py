"""Cold frames, spectra per state, min-searches and perfbench pairs, parent against change.

Run from the repository root (numpy is the only dependency):

    python scripts/bench_frames.py
    python scripts/bench_frames.py --parent ../parent --out BENCH_pr10.json

Each checkout is measured in ``REPEATS`` interpreters, and the checkouts
alternate which goes first on each repeat, so a drift in machine speed
falls on both sides alike. Every repeat builds its model afresh, so it
enumerates the frames cold; ``seconds`` is the median over the repeats. The
models are the cap models, then the seven models whose frames the
``spectrum-ladder`` workload enumerates cold in its first pass (``LADDER``);
``ladder_seconds`` sums their medians. In the first repeat one more run, not
timed, counts the work by wrapping library functions: least-squares guesses
(calls of ``np.linalg.lstsq``), kernel entries (calls of
``gpt_models._solve``), LPs by the library function they were solved for
(``_screen``: dual screen LPs; any other: k x d witness LPs) and simplex
pivots. A kernel entry solves one LP, or one LP per entry of a stack axis
on its ``c``, ``a`` or ``b`` argument; a
call of ``convex_kernel._pivot`` pivots one LP per entry of its column
argument. Both seams exist, with the same meaning, in checkouts that solve
LPs one at a time, so ``--parent`` can count them the same way. A model
whose enumeration raises ``LpNumericalError`` records the message instead.

The ``spectra`` section times the workload's spectrum op, coordinates ->
``make_state`` -> ``generalized_spectrum``, on every model of the
``spectrum-ladder`` workload (``SPECTRUM_LADDER``) at the coordinates of
``STATES`` random mixtures of its vertices. On a freshly built model in
each repeat every op is timed; ``cold_ms`` is the median of the first ops,
``warm_ms`` the median of all later ones. ``make_state_ms`` is the median of
``make_state`` alone at the later coordinates, on a model that has done one
op. In the first repeat one more run, not timed, wraps
``np.linalg.matrix_rank``, ``np.linalg.solve`` and the LP kernel entry
``_solve`` (in ``convex_kernel`` and ``gpt_models``), the seams both
checkouts share: ``cold_ranks`` and
``warm_ranks`` count rank calls in the first op and in each later op (their
mean), ``solves`` and ``kernel_entries`` the solve calls and kernel entries
per later op, and ``regular_bases`` the largest stack one solve call
solved, which is the number of regular bases.

The ``search`` section times the ``quantum-search`` workload's search op,
``pair_from_spec`` -> ``quantum_entropy_min_search`` at budget 1000, for
each dimension in ``SEARCH_DIMS`` and each pair in ``SEARCH_PAIRS`` on one
random density matrix, ``SEARCHES`` seeds each; ``ms`` is the median over
the seeds and repeats. In the first repeat one more run of the same
searches, not timed, wraps ``np.linalg.qr``, ``quantum._rows_entropies``
(one call per scored stack of candidates) and ``entropic._validate_pair``
(one call per pair built): ``qr_calls``, ``score_calls`` and
``validations`` are their counts per search.

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
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

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
    import numpy as np

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


def _counted(convex_kernel, gpt_models, np, enumerate_once) -> Counter:
    """Enumerate once with every counted function wrapped; restore them after."""
    counts = Counter()
    solve, pivot, lstsq = gpt_models._solve, convex_kernel._pivot, np.linalg.lstsq

    def counting_solve(c, a, rel, b, *rest, **options):
        caller = sys._getframe(1)
        while caller is not None and caller.f_code.co_name != "_screen":
            caller = caller.f_back
        stack = np.broadcast_shapes(c.shape[:-1], a.shape[:-2], b.shape[:-1])
        counts["dual_screen_lps" if caller else "witness_lps"] += int(np.prod(stack))
        counts["kernel_entries"] += 1
        return solve(c, a, rel, b, *rest, **options)

    def counting_pivot(tableau, basis, row, col, *rest):
        counts["pivots"] += np.size(col)
        return pivot(tableau, basis, row, col, *rest)

    def counting_lstsq(*args, **kwargs):
        counts["guesses"] += 1
        return lstsq(*args, **kwargs)

    gpt_models._solve, convex_kernel._pivot = counting_solve, counting_pivot
    np.linalg.lstsq = counting_lstsq
    try:
        enumerate_once()
    finally:
        gpt_models._solve, convex_kernel._pivot = solve, pivot
        np.linalg.lstsq = lstsq
    return counts


def measure(counted: bool) -> dict:
    """One cold enumeration of every cap model with the convexinfo on sys.path,
    and with ``counted`` one more that counts the work."""
    import numpy as np

    from convexinfo import build_model, convex_kernel, enumerate_frames, gpt_models
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
            counts = _counted(convex_kernel, gpt_models, np,
                              lambda: enumerate_frames(build_model(kind, **args)))
            results[label].update({key: counts[key] for key in (
                "guesses", "dual_screen_lps", "witness_lps", "kernel_entries", "pivots")})
    return results


def measure_spectra(counted: bool) -> dict:
    """The spectrum op of every spectrum-ladder model with the convexinfo on
    sys.path, on one freshly built model, and with ``counted`` the counts."""
    import numpy as np

    from convexinfo import (build_model, convex_kernel, generalized_spectrum, gpt_models,
                            make_state, mix_state)

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
            first, rest = _counted_spectra(np, (convex_kernel, gpt_models),
                                           lambda c: op(space, c), coords)
            results[label].update({"regular_bases": first["systems"],
                                   "cold_ranks": first["ranks"],
                                   "warm_ranks": rest["ranks"] / (STATES - 1),
                                   "solves": rest["solves"] / (STATES - 1),
                                   "kernel_entries": rest["kernel_entries"] / (STATES - 1)})
    return results


def _counted_spectra(np, modules, op, coords) -> tuple[Counter, Counter]:
    """Counts of the first op and of all later ones, np.linalg and the LP kernel wrapped.

    ``systems`` is the largest stack one ``np.linalg.solve`` call solved.
    """
    counts = Counter()
    rank, solve, kernel = np.linalg.matrix_rank, np.linalg.solve, modules[0]._solve

    def counting_rank(*args, **kwargs):
        counts["ranks"] += 1
        return rank(*args, **kwargs)

    def counting_solve(a, b):
        counts["solves"] += 1
        counts["systems"] = max(counts["systems"], int(np.prod(np.shape(a)[:-2])))
        return solve(a, b)

    def counting_kernel(*args, **options):
        counts["kernel_entries"] += 1
        return kernel(*args, **options)

    np.linalg.matrix_rank, np.linalg.solve = counting_rank, counting_solve
    for module in modules:
        module._solve = counting_kernel
    try:
        op(coords[0])
        first = Counter(counts)
        for c in coords[1:]:
            op(c)
    finally:
        np.linalg.matrix_rank, np.linalg.solve = rank, solve
        for module in modules:
            module._solve = kernel
    counts.subtract(first)
    return first, counts


def measure_search(counted: bool) -> dict:
    """The search op at every dimension and pair with the convexinfo on
    sys.path, and with ``counted`` the counts per search."""
    import numpy as np

    from convexinfo import DensityMatrix, entropic, pair_from_spec, quantum

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
                counts = _counted_search(np, quantum, entropic, op)
                results[label].update({key: counts[key] / SEARCHES for key in (
                    "qr_calls", "score_calls", "validations")})
    return results


def _counted_search(np, quantum, entropic, op) -> Counter:
    """Counts of ``op`` over every seed, the three seams wrapped; restore them after."""
    counts = Counter()
    qr, score, validate = np.linalg.qr, quantum._rows_entropies, entropic._validate_pair

    def counting_qr(*args, **kwargs):
        counts["qr_calls"] += 1
        return qr(*args, **kwargs)

    def counting_score(*args):
        counts["score_calls"] += 1
        return score(*args)

    def counting_validate(*args):
        counts["validations"] += 1
        return validate(*args)

    np.linalg.qr = counting_qr
    quantum._rows_entropies, entropic._validate_pair = counting_score, counting_validate
    try:
        for seed in range(SEARCHES):
            op(seed)
    finally:
        np.linalg.qr = qr
        quantum._rows_entropies, entropic._validate_pair = score, validate
    return counts


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
