"""Self-test of the benchmark at tiny sizes; it makes no timing assertions.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tr  # noqa: E402

WORKLOADS = ("mc-table", "long-wavelet", "short-calls")


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_no_failures(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("per_layer" if trace else "end_to_end")
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "short-calls", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_wrap_target_is_an_error():
    import pes_denoise  # noqa: F401 - loads the modules the tracer resolves

    with pytest.raises(tr.TraceError):
        tr.resolve("spectrum", "no_such_function")
    with pytest.raises(tr.TraceError):
        tr.resolve("no_such_module", "select_levels")


def test_tracer_restores_every_binding():
    import pes_denoise

    dwt = sys.modules["pes_denoise.denoise"].dwt_analysis
    entry = pes_denoise.denoise
    with tr.Tracer():
        assert sys.modules["pes_denoise.denoise"].dwt_analysis is not dwt
        assert pes_denoise.dwt_analysis is not dwt
        assert pes_denoise.denoise is not entry
    assert sys.modules["pes_denoise.denoise"].dwt_analysis is dwt
    assert pes_denoise.dwt_analysis is dwt
    assert pes_denoise.denoise is entry
