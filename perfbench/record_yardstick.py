"""Write yardstick_times.json: the yardstick's own times, the scale of every run.

For each workload, the yardstick (perfbench/yardstick/, a frozen copy of the
library's first release) sets up SETUP_REPEATS times and runs its fixed pass
PASS_REPEATS times; the file holds the median set-up time and the median
time of each op of the pass. run.py reports every time at this speed, so
the numbers only fix the scale: rewrite them only when a workload's op list
changes, and then every earlier figure of that workload is void.

Run from the repository root:  python3 perfbench/record_yardstick.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import yardstick  # noqa: E402
from run import (ROOT, SETUP_REPEATS, YARDSTICK_PASS, YARDSTICK_SEED,  # noqa: E402
                 YARDSTICK_TIMES, Runner, environment, timed_setup)
from workloads import WORKLOADS  # noqa: E402

PASS_REPEATS = 9


def record(name: str, workdir: Path) -> dict:
    runner = Runner()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, _, ys_pass = timed_setup(name, workdir, runner, yardstick,
                                          YARDSTICK_SEED, YARDSTICK_PASS)
        setups.append(seconds)
    for _ in range(PASS_REPEATS):
        runner.run(ys_pass)
    if runner.failed:
        raise SystemExit(f"the yardstick failed {runner.failed} checks on {name}")
    n = len(ys_pass)
    per_op = [statistics.median(runner.seconds[-n * PASS_REPEATS + i::n]) for i in range(n)]
    return {"setup_s": statistics.median(setups), "labels": [op.label for op in ys_pass],
            "op_s": per_op}


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        times = {name: record(name, workdir) for name in WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"about": "Median times of the yardstick's set-up and of each op of its fixed "
                    "pass, per workload; the scale at which run.py reports every time.",
           "environment": environment(), "workloads": times}
    with open(YARDSTICK_TIMES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for name, t in times.items():
        print(f"{name:18s} setup {t['setup_s']:.4f} s, pass {sum(t['op_s']):.4f} s")


if __name__ == "__main__":
    main()
