"""Smoke tests of the benchmark: tiny runs, with no timing assertions.

The benchmark's tracer wraps library functions by name (``TARGETS`` in
``perfbench/tracer.py``) and fails when one is missing, so a library change
that drops or renames one of them fails here, not only in a full
benchmark run.  ``mc-table`` times the harness's calls through the name
``denoise`` bound in ``pes_denoise.harness``; a harness that stopped calling
it would leave those metrics at 0 without failing.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "tiny",
         "--seconds", "1", "--trace", str(trace), "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result["metrics"]


def test_short_calls_traced_run_is_correct():
    _run("short-calls", 1)


def test_mc_table_run_times_the_harness_calls():
    assert _run("mc-table", 0)["call_ms_p50"]["value"] > 0


def test_mc_table_selects_each_cells_depths_once():
    # Every select_levels call of a table sees a distinct noisy cell.
    assert _run("mc-table", 1)["spectrum.distinct_input_ratio"]["value"] == 1.0
