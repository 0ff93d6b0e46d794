"""Smoke check of the benchmark itself, at toy size (under a minute).

    python3 perfbench/smoke.py

Run from the repository root. It checks that:

- the generator still writes the bytes recorded in `perfbench/inputs.json`;
- every workload, traced and untraced, emits each metric BENCHMARK.json
  lists, with its unit, and passes its own output checks;
- a deliberately corrupted artifact is counted as failed while the run
  still completes and reports;
- the benchmark exits non-zero, printing no result, where there is no
  program source beside it.

Exits 0 when every check holds; otherwise prints what failed and exits 1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_run", "smoke")
WORKLOADS = ("cbow-zipf", "glove-zipf", "cv-eval")


def bench(*args: str, cwd: str = ROOT) -> tuple:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stdout + done.stderr


def main() -> int:
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "inputs.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    shutil.rmtree(SCRATCH, ignore_errors=True)

    for size, seeds in recorded.items():
        for seed, hashes in seeds.items():
            got = gen.generate(int(seed), os.path.join(SCRATCH, f"{size}-{seed}"), size)
            if got != hashes:
                problems.append(f"generator output changed for seed {seed}, {size}")

    for workload in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, log = bench("--workload", workload, "--trace", str(trace),
                                      "--size", "toy")
            where = f"{workload} --trace {trace}"
            before = len(problems)
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, no result\n{log}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{where}: checks failed\n{log}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != want:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(want.items()) ^ set(got.items()))}")
            print(f"{where}: {'ok' if len(problems) == before else 'FAILED'}")

    code, result, log = bench("--workload", "cv-eval", "--trace", "0", "--size", "toy",
                              "--corrupt-rep", "1")
    if code != 0 or result is None or result["correct"] or result["failed"] != 1:
        problems.append(f"corrupted artifact not counted as exactly one failure\n{log}")
    else:
        print(f"corrupted artifact: counted, {result['failed']} of {result['attempted']} failed")

    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result, _ = bench("--workload", "cbow-zipf", "--trace", "0", cwd=bare)
    if code == 0 or result is not None:
        problems.append(f"without program source: exit {code}, result {result}")
    else:
        print(f"without program source: exit {code}, no result")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    for problem in problems:
        print("FAIL:", problem)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
