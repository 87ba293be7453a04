"""Smoke tests of the benchmark: tiny runs, with no timing assertions.

The benchmark's tracer wraps library functions by name (``TARGETS`` in
``perfbench/tracer.py``) and fails when one is missing, so a library change
that drops or renames one of them fails here, not only in a full
benchmark run.  A name that is still bound but no longer called reads 0
without failing, so the traced run also checks that the per-layer metrics
it lights stay above 0.  ``mc-table`` times the harness's calls through
the name ``denoise`` bound in ``pes_denoise.harness``.

The three runs start at once, from one fixture, and each test reads its
run's result.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from pes_denoise.denoise import METHODS

ROOT = Path(__file__).resolve().parent.parent
RUNS = {
    "short-calls traced": ("short-calls", 1),
    "mc-table": ("mc-table", 0),
    "mc-table traced": ("mc-table", 1),
}


@pytest.fixture(scope="module")
def runs() -> dict:
    """run name -> (return code, stdout, stderr) of each tiny run."""
    procs = {
        name: subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "tiny",
             "--seconds", "1", "--trace", str(trace), "--seed", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name, (workload, trace) in RUNS.items()
    }
    results = {}
    try:
        for name, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=170)
            results[name] = (proc.returncode, stdout, stderr)
        return results
    finally:
        for proc in procs.values():
            proc.kill()


def _metrics(runs: dict, name: str) -> dict:
    returncode, stdout, stderr = runs[name]
    assert returncode == 0, stderr[-2000:]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result["metrics"]


def test_short_calls_traced_run_is_correct(runs):
    metrics = _metrics(runs, "short-calls traced")
    lit = [f"denoise.{method}.calls" for method in METHODS] + [
        "transforms.dwt_analysis.self_s",
        "transforms.dwt_synthesis.self_s",
        "projections.soft_threshold.self_s",
        "spectrum.select_levels.calls",
    ]
    assert {name: metrics[name]["value"] for name in lit if not metrics[name]["value"] > 0} == {}


def test_mc_table_run_times_the_harness_calls(runs):
    assert _metrics(runs, "mc-table")["call_ms_p50"]["value"] > 0


def test_mc_table_selects_each_cells_depths_once(runs):
    # Every select_levels call of a table sees a distinct noisy cell.
    assert _metrics(runs, "mc-table traced")["spectrum.distinct_input_ratio"]["value"] == 1.0
