"""Smoke test of the benchmark: one tiny traced run, with no timing assertions.

The benchmark's tracer wraps library functions by name (``TARGETS`` in
``perfbench/tracer.py``) and fails when one is missing, so a library change
that drops or renames one of them fails here, not only in a full
benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_short_calls_traced_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short-calls", "--size", "tiny",
         "--seconds", "1", "--trace", "1", "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
