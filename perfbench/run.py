"""convexinfo benchmark: one closed loop, one caller, every output checked.

    python3 perfbench/run.py --workload spectrum-ladder --seed 0 --seconds 16 --trace 0

Run from the repository root; the library is imported from ``src/``. With
``--trace 0`` the run measures the end-to-end metrics over a fixed number of
whole passes of the workload: ``--seconds`` over the workload's nominal pass
time, and at least ``MIN_OPS`` ops. Every timed op is paired with the same
op on fixed inputs in ``yardstick``, a frozen copy of the library's first
release, and its time is reported at the yardstick's recorded speed
(``yardstick_times.json``), so that the machine's own speed swings cancel
out. A run that would outlast ``DEADLINE_S`` stops and exits 1 without a
result.
With ``--trace 1`` a fixed set of passes runs once plainly and once with
spans around every public library function, and the run reports the
per-layer metrics. The last line of stdout is one JSON object; the lines
before it are the human-readable report. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fewest ops in a run: the 90th percentile then has ten samples beyond it.
MIN_OPS = 100
#: Setup repetitions in an end-to-end run; setup_s takes their median.
SETUP_REPEATS = 5
#: Pass index whose inputs only warm up; never timed.
WARMUP_PASS = 1_000_000
#: Process age after which no further op starts, to exit well within 180 s.
DEADLINE_S = 150.0
#: Seed and pass index of the yardstick's inputs: the same in every run.
YARDSTICK_SEED = 0
YARDSTICK_PASS = 2_000_000
#: The yardstick's recorded times, written by record_yardstick.py.
YARDSTICK_TIMES = HERE / "yardstick_times.json"

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "setup_s": "s", "ok_frac": "fraction", "peak_rss_mb": "MB"}


def process_age() -> float:
    """Seconds since this process started (clock-tick resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def blas_threads() -> int | None:
    """OpenBLAS's thread count as the loaded library reports it."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    affinity = sorted(os.sched_getaffinity(0))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": blas_threads(),
            "blas_thread_env": {k: os.environ[k] for k in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
            "nproc": len(affinity), "cpu_affinity": affinity, "cpu_count": os.cpu_count(),
            "load": "one benchmark process; its probe interpreters run one at a time"}


class DeadlineReached(Exception):
    """The run would not end in time; it reports nothing."""


def child_env() -> dict:
    """Environment for a child interpreter that imports convexinfo from src/
    (and the yardstick from perfbench/)."""
    path = [str(SRC), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


class Runner:
    """Runs ops in order, times each call and checks each output."""

    def __init__(self, keep_outputs: bool = False):
        self.keep_outputs = keep_outputs
        self.labels: list[str] = []
        self.seconds: list[float] = []
        self.problems: list[str | None] = []
        self.outputs: list = []

    def run(self, ops, tracer=None, yardstick=None) -> list[float]:
        """Runs ops in order; returns the seconds of each ``yardstick`` op.

        With ``yardstick``, a list of ops as long as ``ops``, each op is
        followed at once by the yardstick op at the same position (timed,
        not checked), so that both run at the same machine speed.
        """
        clock = time.perf_counter
        yardstick_s = []
        for i, op in enumerate(ops):
            if process_age() > DEADLINE_S:
                raise DeadlineReached(f"deadline of {DEADLINE_S:.0f} s reached after "
                                      f"{len(self.labels)} ops; no result")
            if tracer is not None:
                tracer.op = len(self.labels)
            out, problem = None, None
            start = clock()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                problem = f"raised {type(exc).__name__}: {exc}"
            elapsed = clock() - start
            if yardstick is not None:
                start = clock()
                yardstick[i].run()
                yardstick_s.append(clock() - start)
            if problem is None:
                try:
                    problem = op.check(out)
                except Exception as exc:  # a malformed output fails its check
                    problem = f"output check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                print(f"FAILED {op.label}: {problem}", file=sys.stderr)
            self.labels.append(op.label)
            self.seconds.append(elapsed)
            self.problems.append(problem)
            if self.keep_outputs:
                self.outputs.append(out)
        return yardstick_s

    @property
    def failed(self) -> int:
        return sum(p is not None for p in self.problems)

    def ok_seconds(self) -> list[float]:
        return [s for s, p in zip(self.seconds, self.problems) if p is None]

    def print_summary(self) -> None:
        groups = defaultdict(list)
        for label, sec in zip(self.labels, self.seconds):
            groups[label].append(sec * 1e3)
        for label, ms in groups.items():
            print(f"  {label:42s} n={len(ms):4d}  median {statistics.median(ms):10.3f} ms")


def set_up(name: str, seed: int, runner: Runner, lib, index: int = 0):
    """Build models and the inputs of pass ``index`` on ``lib``, then warm up.

    The warm-up runs the first op of each kind from a pass never timed.
    """
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[name](seed, load_reference(), lib)
    first = workload.make_pass(index)
    seen, warm = set(), []
    for op in workload.make_pass(WARMUP_PASS):
        kind = op.label.split()[0]
        if kind not in seen:
            seen.add(kind)
            warm.append(op)
    runner.run(warm)
    return workload, first


def timed_setup(name: str, workdir: Path, runner: Runner, lib, seed: int, index: int = 0):
    """Seconds for a fresh interpreter importing ``lib`` (timed from outside,
    so interpreter start counts) plus ``set_up`` in this process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {lib.__name__}"], env=child_env(),
                   cwd=workdir, capture_output=True, timeout=60, check=True)
    workload, first = set_up(name, seed, runner, lib, index)
    return time.perf_counter() - start, workload, first


def measure(args, workdir: Path):
    """End-to-end metrics over whole passes of the workload.

    Each of SETUP_REPEATS set-ups is followed by the same set-up of the
    yardstick; setup_s is the median ratio of the two times, at the
    yardstick's recorded set-up time. Each timed op is followed by the
    yardstick's op at the same position of its pass; the op's latency is
    reported at the yardstick's recorded speed: times the yardstick op's
    recorded time over its time just now.
    """
    import convexinfo
    import yardstick

    with open(YARDSTICK_TIMES, encoding="utf-8") as fh:
        recorded = json.load(fh)["workloads"][args.workload]
    warm = Runner()
    setups, ratios = [], []
    for _ in range(SETUP_REPEATS):
        own, workload, first = timed_setup(args.workload, workdir, warm, convexinfo, args.seed)
        ref, _, ys_pass = timed_setup(args.workload, workdir, warm, yardstick,
                                      YARDSTICK_SEED, YARDSTICK_PASS)
        setups.append(own)
        ratios.append(own / ref)
    if [op.label for op in ys_pass] != recorded["labels"]:
        raise SystemExit("perfbench: the yardstick's pass differs from the one in "
                         f"{YARDSTICK_TIMES.name}; run record_yardstick.py")
    setup_s = recorded["setup_s"] * statistics.median(ratios)
    print(f"setup: {[round(s, 4) for s in setups]} s; over the yardstick's "
          f"{[round(r, 4) for r in ratios]}")

    # The pass count depends on --seconds and the workload only, so that two
    # versions of the program time exactly the same ops.
    n_passes = max(math.ceil(MIN_OPS / len(first)),
                   round(args.seconds / workload.PASS_SECONDS))
    runner = Runner()
    speeds, latencies = [], []
    start = time.perf_counter()
    for index in range(n_passes):
        mark = len(runner.seconds)
        ys_s = runner.run(workload.make_pass(index) if index else first, yardstick=ys_pass)
        speeds.append(sum(ys_s) / sum(recorded["op_s"]))
        latencies += [t * nominal / now for t, nominal, now
                      in zip(runner.seconds[mark:], recorded["op_s"], ys_s)]

    import numpy as np

    ok = [s for s, p in zip(latencies, runner.problems) if p is None]
    lat_ms = np.asarray(ok) * 1e3 if ok else np.zeros(1)
    metrics = {
        "ops_per_s": len(ok) / sum(latencies),
        "op_ms_p50": float(np.percentile(lat_ms, 50)),
        "op_ms_p90": float(np.percentile(lat_ms, 90)),
        "setup_s": setup_s,
        "ok_frac": len(ok) / len(runner.labels),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall_ms = np.asarray(runner.ok_seconds() or [0.0]) * 1e3
    print(f"measured {len(runner.labels)} ops in {n_passes} passes, "
          f"{time.perf_counter() - start:.2f} s; yardstick time over recorded per pass: "
          f"{[round(s, 3) for s in speeds]}; wall clock, not normalised: "
          f"{len(runner.labels) / sum(runner.seconds):.4f} ops/s, "
          f"p50 {np.percentile(wall_ms, 50):.4f} ms, p90 {np.percentile(wall_ms, 90):.4f} ms, "
          f"setup {statistics.median(setups):.4f} s; per op (wall clock):")
    runner.print_summary()
    for name, value in metrics.items():
        print(f"{name:12s} {value:14.6f} {END_TO_END_UNITS[name]}  (samples: "
              f"{len(ok) if name.startswith('op') else len(setups) if name == 'setup_s' else 1})")
    return ({n: (v, END_TO_END_UNITS[n]) for n, v in metrics.items()},
            len(runner.labels), runner.failed + warm.failed)


def cli_probe(cli_ops, workdir: Path, runner: Runner) -> dict:
    """cli.* metrics: bare interpreter, import of convexinfo.cli, cli.main in-process."""

    def child_seconds(code: str, reported: bool) -> float:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=workdir,
                              capture_output=True, text=True, timeout=60, check=True)
        return float(proc.stdout) if reported else time.perf_counter() - start

    interpreter = [child_seconds("pass", False) for _ in range(5)]
    imports = [child_seconds("import time; t = time.perf_counter(); import convexinfo.cli; "
                             "print(time.perf_counter() - t)", True) for _ in range(5)]
    mains = Runner()
    mains.run(cli_ops)
    runner.problems += mains.problems
    runner.labels += mains.labels
    return {"cli.interpreter_ms": 1e3 * statistics.median(interpreter),
            "cli.import_ms": 1e3 * statistics.median(imports),
            "cli.main_ms": 1e3 * statistics.median(mains.seconds)}


def traced(args, workdir: Path):
    """Each op plainly and traced; per-layer metrics from the traced side.

    The traced side ends with one pass of the eight CLI commands through
    cli.main, so that every layer has spans in every workload's traced run
    (a fixed, small addition to each layer's figures).
    """
    import convexinfo
    from spans import Tracer
    from workloads import CliPass, load_reference

    warm = Runner()
    workload, first = set_up(args.workload, args.seed, warm, convexinfo)
    n_passes = math.ceil(MIN_OPS / len(first))
    ops = first + [op for i in range(1, n_passes) for op in workload.make_pass(i)]
    cli_ops = CliPass(args.seed, load_reference(), workdir).make_pass()

    plain = Runner(keep_outputs=True)
    tracer = Tracer()
    spans = Runner(keep_outputs=True)
    # each op runs plainly and traced back to back, so that the machine's own
    # speed swings (seconds to minutes long) touch both sides alike; the side
    # that goes first alternates, so that neither gains from the other's warm-up
    for i, op in enumerate(ops):
        if i % 2:
            plain.run([op])
        with tracer:
            spans.run([op], tracer)
        if not i % 2:
            plain.run([op])
    with tracer:
        spans.run(cli_ops, tracer)
    for i, (a, b) in enumerate(zip(plain.outputs, spans.outputs)):
        if a != b and spans.problems[i] is None:
            spans.problems[i] = "traced output differs from the untraced one"
            print(f"FAILED {spans.labels[i]}: traced output differs", file=sys.stderr)

    metrics = tracer.layer_metrics()
    metrics.update(cli_probe(cli_ops, workdir, warm))
    traced_s = sum(spans.seconds[:len(plain.seconds)])
    metrics["trace.overhead_frac"] = traced_s / sum(plain.seconds) - 1.0

    print(f"traced {len(ops)} ops ({n_passes} passes); median span per op label:")
    for name, label, count, ms in tracer.span_table(spans.labels):
        print(f"  {name:44s} {label:42s} n={count:6d} {ms:10.3f} ms")
    for name, value in metrics.items():
        print(f"{name:50s} {value:16.6f} {layer_unit(name)}")
    return ({n: (v, layer_unit(n)) for n, v in metrics.items()},
            len(spans.labels), spans.failed + plain.failed + warm.failed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["spectrum-ladder", "tensor-separable", "quantum-search"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # on SIGTERM unwind normally: subprocess.run kills its child, and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print("env " + json.dumps(environment()))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        metrics, attempted, failed = (traced if args.trace else measure)(args, workdir)
    except DeadlineReached as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    if not (SRC / "convexinfo" / "__init__.py").is_file():
        print(f"perfbench: no convexinfo sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
