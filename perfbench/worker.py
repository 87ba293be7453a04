"""One workload in a fresh process; run.py starts it and reads its last line.

    worker.py first   WORKLOAD SEED SIZE           the workload's first operation
    worker.py measure WORKLOAD SEED SIZE SECONDS   end-to-end metrics, untraced
    worker.py trace   WORKLOAD SEED SIZE SECONDS   per-layer metrics, traced

A unit is one pass over the call list (single-call workloads) or one table
(mc-table).  The traced run alternates an untraced and a traced unit, so
the tracing overhead compares units run close together in time.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

import pes_denoise as pd  # noqa: E402

if not Path(pd.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"pes_denoise was imported from {pd.__file__}, not from {ROOT / 'src'}")

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# Single-call workloads warm up on this many calls before timing starts.
WARMUP_CALLS = 16


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3 if seconds else 0.0


# ---------------------------------------------------------------------------
# single-call workloads


class SingleCalls:
    def __init__(self, workload: str, seed: int, size: str) -> None:
        block = wl.seed_block(seed)
        refs = wl.load_refs(workload, size, block)
        timed, quality = wl.plan_calls(workload, size, block)
        n = wl.SIZES[size][workload]["n"]
        self.calls = wl.prepare(timed, n, refs["timed"])
        self.quality = wl.prepare(quality, n, refs["quality"])
        self.tally = Tally()

    def first(self) -> None:
        self.run_pass(self.calls[:1])

    def warm_up(self) -> None:
        self.run_pass(self.calls[:WARMUP_CALLS])

    def run_pass(self, items, latencies=None) -> tuple[float, dict[str, list[float]]]:
        """Denoise and check each item, appending each call's latency (None if
        it failed) to ``latencies``. Returns (wall seconds excluding the
        checks, output SNRs by method)."""
        snrs: dict[str, list[float]] = {}
        check_s = 0.0
        start = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            try:
                out = pd.denoise(item.noisy, item.cfg)
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, the run goes on
                sys.stderr.write(f"{item.call}: {type(exc).__name__}: {exc}\n")
                out = None
            t1 = time.perf_counter()
            snr = wl.check_call(item, out)
            self.tally.add(1, snr is None)
            if snr is not None:
                snrs.setdefault(item.call.method, []).append(snr)
            if latencies is not None:
                latencies.append(None if snr is None else t1 - t0)
            check_s += time.perf_counter() - t1
        return time.perf_counter() - start - check_s, snrs

    def measure(self, seconds: float) -> tuple[dict, dict]:
        self.warm_up()
        _, snrs = self.run_pass(self.quality)
        passes: list[list[float | None]] = []
        rates: list[float] = []
        start = time.perf_counter()
        while not rates or time.perf_counter() - start < seconds:
            latencies: list[float | None] = []
            wall, pass_snrs = self.run_pass(self.calls, latencies)
            passes.append(latencies)
            rates.append(len(self.calls) / wall)
            if len(rates) == 1:
                snrs.update(pass_snrs)
        # Each call repeats once per pass. Its median over passes drops the
        # passes that a neighbour on the machine slowed down; the percentiles
        # are then taken over the calls.
        per_call = []
        for column in zip(*passes):
            ok = [t for t in column if t is not None]
            if ok:
                per_call.append(statistics.median(ok))
        metrics = {
            "denoise_calls_per_s": _metric(statistics.median(rates), "calls/s"),
            "call_ms_p50": _metric(_percentile_ms(per_call, 50), "ms"),
            "call_ms_p99": _metric(_percentile_ms(per_call, 99), "ms"),
            **_snr_metrics({m: float(np.mean(v)) for m, v in snrs.items()}),
        }
        samples = sum(t is not None for latencies in passes for t in latencies)
        return metrics, {"latency_samples": samples, "units_timed": len(rates)}

    def run_unit(self) -> float:
        wall, _ = self.run_pass(self.calls)
        return len(self.calls) / wall


# ---------------------------------------------------------------------------
# mc-table


class Table:
    def __init__(self, seed: int, size: str) -> None:
        block = wl.seed_block(seed)
        self.size = size
        self.block = block
        self.spec = wl.table_spec(size, block)
        self.reference = wl.load_refs("mc-table", size, block)
        self.tally = Tally()

    def first(self) -> None:
        report = pd.run_experiment(wl.table_spec(self.size, self.block, first_cell_only=True))
        self.tally.add(1, bool(report.errors) or not report.rows)

    warm_up = first

    def run_table(self):
        """(wall seconds, report) for one table; rows that differ count as failed."""
        rows = len(self.reference.splitlines()) - 1
        start = time.perf_counter()
        try:
            report = pd.run_experiment(self.spec)
        except Exception as exc:  # noqa: BLE001 - a failed table is counted, the run goes on
            sys.stderr.write(f"mc-table: {type(exc).__name__}: {exc}\n")
            self.tally.add(rows, rows)
            return time.perf_counter() - start, None
        wall = time.perf_counter() - start
        wrong = wl.check_table(pd.emit_csv(report), self.reference)
        self.tally.add(rows, min(rows, wrong + len(report.errors)))
        return wall, report

    def measure(self, seconds: float) -> tuple[dict, dict]:
        self.warm_up()
        calls = wl.denoisings_per_table(self.spec)
        rates: list[float] = []
        snrs: dict[str, float] = {}
        with tr.CallTimer() as timer:
            start = time.perf_counter()
            while not rates or time.perf_counter() - start < seconds:
                wall, report = self.run_table()
                rates.append(calls / wall)
                if report is not None and not snrs:
                    snrs = wl.table_snr_by_method(report)
        metrics = {
            "denoise_calls_per_s": _metric(statistics.median(rates), "calls/s"),
            "call_ms_p50": _metric(_percentile_ms(timer.per_signal_s, 50), "ms"),
            "call_ms_p99": _metric(_percentile_ms(timer.per_signal_s, 99), "ms"),
            **_snr_metrics(snrs),
        }
        return metrics, {"latency_samples": len(timer.per_signal_s), "units_timed": len(rates)}

    def run_unit(self) -> float:
        wall, _ = self.run_table()
        return wl.denoisings_per_table(self.spec) / wall


def _snr_metrics(snrs: dict[str, float]) -> dict:
    # A method whose every output failed its check has no SNR; report 0 dB.
    return {f"snr_out_db.{m}": _metric(snrs.get(m, 0.0), "dB") for m in wl.METHODS}


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: tr.Tracer, units: int) -> dict:
    """Counts and times per traced unit; every unit does the same work."""
    spans = tracer.spans()

    def calls(name: str) -> float:
        return len(spans.get(name, ([], 0.0))[0]) / units

    def self_s(name: str) -> float:
        return spans.get(name, ([], 0.0))[1] / units

    def ms_p50(name: str) -> float:
        durations = spans.get(name, ([], 0.0))[0]
        return float(np.median(durations)) * 1e3 if durations else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, dict] = {}
    sl = "spectrum.select_levels"
    m[f"{sl}.calls"] = _metric(calls(sl), "count")
    m[f"{sl}.self_s"] = _metric(self_s(sl), "s")
    distinct = tracer.distinct_inputs / units
    m[f"{sl}.distinct_inputs"] = _metric(distinct, "count")
    m["spectrum.distinct_input_ratio"] = _metric(ratio(distinct, calls(sl)), "ratio")

    pa = "transforms.pyramid_analysis"
    m[f"{pa}.calls"] = _metric(calls(pa), "count")
    m[f"{pa}.self_s"] = _metric(self_s(pa), "s")
    m[f"{pa}.ms_p50"] = _metric(ms_p50(pa), "ms")
    m["transforms.pyramid_synthesis.self_s"] = _metric(self_s("transforms.pyramid_synthesis"), "s")
    m["transforms.fir_mmac_computed"] = _metric(tracer.fir_mmac / units, "Mmac")
    for name in ("transforms.dwt_analysis", "transforms.dwt_synthesis"):
        m[f"{name}.self_s"] = _metric(self_s(name), "s")
        m[f"{name}.ms_p50"] = _metric(ms_p50(name), "ms")

    ep = "projections.project_epigraph_l1"
    ball = "projections.project_l1_ball"
    fast = sum(tracer.fast_path) / units
    m[f"{ep}.calls"] = _metric(calls(ep), "count")
    m[f"{ep}.self_s"] = _metric(self_s(ep), "s")
    m["projections.fast_path_calls"] = _metric(fast, "count")
    m["projections.fast_path_ratio"] = _metric(ratio(fast, calls(ep)), "ratio")
    m[f"{ball}.calls"] = _metric(calls(ball), "count")
    m[f"{ball}.self_s"] = _metric(self_s(ball), "s")
    m["projections.soft_threshold.self_s"] = _metric(self_s("projections.soft_threshold"), "s")

    for method in wl.METHODS:
        m[f"denoise.{method}.calls"] = _metric(calls(f"denoise.{method}"), "count")
        m[f"denoise.{method}.ms_p50"] = _metric(ms_p50(f"denoise.{method}"), "ms")

    for name in ("add_gaussian_noise", "snr_db", "generate_test_signal"):
        m[f"signals.{name}.self_s"] = _metric(self_s(f"signals.{name}"), "s")

    harness_wall = sum(spans.get(tr.HARNESS_SPAN, ([], 0.0))[0]) / units
    busy = tracer.harness_children_busy_s() / units
    m["harness.run_experiment.wall_s"] = _metric(harness_wall, "s")
    m["harness.children_busy_s"] = _metric(busy, "s")
    m["harness.parallelism"] = _metric(ratio(busy, harness_wall), "ratio")
    return m


def trace(runner, seconds: float) -> tuple[dict, dict]:
    runner.warm_up()
    tracer = tr.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.run_unit())
        with tracer:
            traced.append(runner.run_unit())
        tracer.end_unit()
    layers = layer_metrics(tracer, len(traced))
    rate_untraced = statistics.median(untraced)
    rate_traced = statistics.median(traced)
    layers["trace.calls_per_s_untraced"] = _metric(rate_untraced, "calls/s")
    layers["trace.calls_per_s_traced"] = _metric(rate_traced, "calls/s")
    layers["trace.overhead_frac"] = _metric(rate_untraced / rate_traced - 1.0, "ratio")
    return layers, {"traced_units": len(traced)}


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    mode, workload, seed, size = argv[0], argv[1], int(argv[2]), argv[3]
    if workload not in wl.WORKLOADS or size not in wl.SIZES:
        raise SystemExit(f"unknown workload {workload!r} or size {size!r}")
    runner = Table(seed, size) if workload == "mc-table" else SingleCalls(workload, seed, size)
    result: dict = {}
    if mode == "first":
        runner.first()
    elif mode == "measure":
        result["metrics"], result["counts"] = runner.measure(float(argv[4]))
    elif mode == "trace":
        result["metrics"], result["counts"] = trace(runner, float(argv[4]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["attempted"] = runner.tally.attempted
    result["failed"] = runner.tally.failed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # None once the package no longer has a kernel backend switch.
    result["backend"] = getattr(pd, "BACKEND", None)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
