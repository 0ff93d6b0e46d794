"""The benchmark's own smoke check, kept in the test suite so it cannot rot.

Runs `python3 perfbench/smoke.py` from the repository root (about 20 s):
every workload at toy size, traced and untraced, must report each metric
BENCHMARK.json lists and pass its output checks.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_check_passes():
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
