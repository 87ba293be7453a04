"""Write the stored references in refs/ from the current program.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run it only when a change is meant to alter the outputs; the benchmark
counts every output that differs from these references as failed.
"""

from __future__ import annotations

import json
import sys

import pes_denoise as pd
import workloads as wl


def _single_call_block(workload: str, size: str, block: int) -> dict[str, list[float]]:
    timed, quality = wl.plan_calls(workload, size, block)
    n = wl.SIZES[size][workload]["n"]
    entry = {}
    for key, calls in (("timed", timed), ("quality", quality)):
        # Placeholder references; the SNR is computed from the real output.
        items = wl.prepare(calls, n, [0.0] * len(calls))
        entry[key] = [round(wl.snr_db(it.clean, pd.denoise(it.noisy, it.cfg)), 6) for it in items]
    return entry


def _table_block(size: str, block: int) -> str:
    report = pd.run_experiment(wl.table_spec(size, block))
    if report.errors:
        raise RuntimeError(f"reference table has errors: {report.errors}")
    return pd.emit_csv(report)


def main() -> int:
    for workload in wl.WORKLOADS:
        stored = {}
        for size, configs in wl.SIZES.items():
            blocks = []
            for block in range(wl.SEED_BLOCKS):
                if workload == "mc-table":
                    blocks.append(_table_block(size, block))
                else:
                    blocks.append(_single_call_block(workload, size, block))
            stored[size] = {"config": configs[workload], "blocks": blocks}
        with open(wl.refs_path(workload), "w", encoding="utf-8") as fh:
            json.dump(stored, fh, separators=(",", ":"))
            fh.write("\n")
        sys.stderr.write(f"wrote {wl.refs_path(workload)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
