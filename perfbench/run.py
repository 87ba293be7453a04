"""pes-denoise benchmark: end-to-end and per-layer metrics on the numpy path.

    python3 perfbench/run.py --workload {mc-table,long-wavelet,short-calls}
                             --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the repository root; the program is imported from ./src.  With
``--trace 0`` the result carries the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  Human-readable
output goes to standard error; the second-to-last line of standard output
records the environment and the last line is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

Every workload runs in fresh processes started from here, with
PES_DENOISE_THREADS and PES_DENOISE_NUMBA cleared and BLAS held to one
thread, so the harness's own pool is the only parallelism.  See NOTES.md
for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("mc-table", "long-wavelet", "short-calls")
CLEARED_VARS = ("PES_DENOISE_THREADS", "PES_DENOISE_NUMBA")
# Cleared too, so that imports read cached bytecode whatever the caller's shell.
CACHE_VARS = ("PYTHONDONTWRITEBYTECODE",)
ONE_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 9
# Fresh processes timed for each CLI start-up metric.
CLI_REPEATS = 3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_VARS + CACHE_VARS}
    env.update({k: "1" for k in ONE_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[float, str]:
    """Wall seconds from start to exit of a fresh interpreter, and its stdout."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return wall, proc.stdout


def run_worker(mode: str, workload: str, seed: int, size: str, *extra: str) -> tuple[float, dict]:
    wall, stdout = run_child([str(WORKER), mode, workload, str(seed), size, *extra])
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {mode} {workload} printed no result")
    return wall, json.loads(lines[-1])


def median_wall(args: list[str], repeats: int) -> float:
    return statistics.median(run_child(args)[0] for _ in range(repeats))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(backend) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pes_denoise_backend": backend,
        "git_commit": git_commit(),
        # The caller's values; child processes run with both cleared.
        **{var: os.environ.get(var) for var in CLEARED_VARS},
        **{var: "1" for var in ONE_THREAD_VARS},
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def collect(workload: str, seed: int, seconds: int, trace: bool, size: str):
    """(metrics, attempted, failed, backend, extras for the readable report)."""
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            wall, first = run_worker("first", workload, seed, size)
            setups.append(wall)
            attempted += first["attempted"]
            failed += first["failed"]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    _, res = run_worker("trace" if trace else "measure", workload, seed, size, str(seconds))
    attempted += res["attempted"]
    failed += res["failed"]
    extras = res["counts"]
    metrics.update(res["metrics"])
    if trace:
        metrics["cli.cold_start_s"] = {
            "value": median_wall(
                ["-m", "pes_denoise", "denoise", "--signal", "heavy-sine", "--noise", "0.2"],
                CLI_REPEATS,
            ),
            "unit": "s",
        }
        metrics["cli.import_s"] = {
            "value": median_wall(["-c", "import pes_denoise"], CLI_REPEATS),
            "unit": "s",
        }
        metrics["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    else:
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
        extras["failed_frac"] = failed / attempted
    return metrics, attempted, failed, res["backend"], extras


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"), help="tiny: self-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "pes_denoise" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program to measure: {ROOT / 'src' / 'pes_denoise'} is missing\n")
        return 2
    try:
        declared = declared_metrics(bool(args.trace))
        metrics, attempted, failed, backend, extras = collect(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size
        )
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1

    produced = {name: m["unit"] for name, m in metrics.items()}
    if produced != declared:
        sys.stderr.write(
            "error: metrics do not match BENCHMARK.json\n"
            f"  missing or other unit: {sorted(set(declared.items()) - set(produced.items()))}\n"
            f"  not declared: {sorted(set(produced.items()) - set(declared.items()))}\n"
        )
        return 1

    env = environment(backend)
    sys.stderr.write(f"workload={args.workload} seed={args.seed} trace={args.trace} size={args.size}\n")
    for name, m in metrics.items():
        sys.stderr.write(f"  {name:44s} {m['value']:14.6g} {m['unit']}\n")
    for name, value in extras.items():
        sys.stderr.write(f"  {name:44s} {value:14.6g}\n")
    sys.stderr.write(f"  env {json.dumps(env)}\n")
    print(json.dumps({"env": env, **extras}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
