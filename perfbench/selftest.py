"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [workload ...]

For each workload (all three by default) on seed 0 it checks that:

- a traced run is correct, which includes that every op's traced output
  equals its untraced output;
- two traced runs of the same seed report identical per-layer counts
  (``*.calls``, ``*.lp_calls``, ``*.frames_calls``, ``*.lp_cells``, ``*_frac``);
- the metric names printed match ``BENCHMARK.json``.

It also checks in-process that leaving a ``Tracer`` restores every wrapped
name, and that ``run.py`` exits non-zero without printing a result when the
program's sources are missing. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectrum-ladder", "tensor-separable", "quantum-search")
COUNT_SUFFIXES = (".calls", ".lp_calls", ".frames_calls", ".lp_cells", "_frac")


def fail(message: str) -> None:
    print(f"SELFTEST FAILED: {message}")
    sys.exit(1)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        fail(f"run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_wrappers_removed() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import convexinfo.cli  # noqa: F401
    from spans import TARGETS, Tracer

    def snapshot():
        owners = [m for k, m in sys.modules.items() if k.startswith("convexinfo")]
        owners += [getattr(sys.modules[f"convexinfo.{mod}"], attr.split(".")[0])
                   for mod, attr in TARGETS if "." in attr]
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    before = snapshot()
    with Tracer():
        if snapshot() == before:
            fail("entering a Tracer wrapped nothing")
    after = snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed or after.keys() != before.keys():
        fail(f"{len(changed)} names differ after the Tracer exited")
    print("ok   every wrapper removed when tracing ends")


def check_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("quantum-search", 0, cwd=Path(tmp))
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py without the program did not fail cleanly")
    print("ok   run.py fails without printing a result when src/ is missing")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    check_wrappers_removed()
    check_refuses_without_program()
    for workload in sys.argv[1:] or WORKLOADS:
        plain = result(bench(workload, 0))
        if set(plain["metrics"]) != end_to_end:
            fail(f"{workload}: end-to-end names differ from BENCHMARK.json")
        first, second = result(bench(workload, 1)), result(bench(workload, 1))
        for res in (plain, first, second):
            if not res["correct"]:
                fail(f"{workload}: {res['failed']} of {res['attempted']} ops failed")
        if set(first["metrics"]) != per_layer:
            fail(f"{workload}: per-layer names differ from BENCHMARK.json")
        counts = [n for n in per_layer
                  if n.endswith(COUNT_SUFFIXES) and n != "trace.overhead_frac"]
        differ = [n for n in counts
                  if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        if differ:
            fail(f"{workload}: counts differ between two traced runs: {differ}")
        print(f"ok   {workload}: outputs checked, traced = untraced, "
              f"{len(counts)} per-layer counts repeat exactly")


if __name__ == "__main__":
    main()
