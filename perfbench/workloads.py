"""The three workloads: their inputs, made from the seed, and their output checks.

Every output is checked against a reference stored in ``refs/<workload>.json``
(written by ``make_refs.py``).  The benchmark seed picks one of
``SEED_BLOCKS`` blocks of noise seeds, and the references cover every block,
so any seed gives inputs whose outputs can be checked.

Sizes: ``full`` is what the benchmark measures; ``tiny`` is the same
workload shape at a few calls, for the self-test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pes_denoise as pd
from pes_denoise.harness import DEFAULT_FRACTIONS, DEFAULT_SIGNALS

REFS_DIR = Path(__file__).resolve().parent / "refs"
WORKLOADS = ("mc-table", "long-wavelet", "short-calls")
METHODS = ("pes-wavelet", "pes-pyramid", "universal", "three-sigma")
SEED_BLOCKS = 8
# Output SNRs are stored at 6 decimals; a re-ordered float sum moves them by
# about 1e-10 dB, a changed threshold by far more than this.
SNR_TOL_DB = 1e-5

# mc-table: the harness's default table (6 signals x 3 fractions x 4 methods).
# long-wavelet: `rounds` noise draws of every signal x fraction, each denoised
# by the three wavelet-domain methods; pes-pyramid runs once per input outside
# the timed loop, only to report its SNR.
# short-calls: `rounds` x signals x fractions x 4 methods calls, each on its
# own noise draw, in a shuffled order.
SIZES = {
    "full": {
        "mc-table": {"n": 1024, "trials": 10, "signals": list(DEFAULT_SIGNALS)},
        "long-wavelet": {"n": 16384, "rounds": 4, "signals": list(DEFAULT_SIGNALS)},
        "short-calls": {"n": 256, "rounds": 8, "signals": list(DEFAULT_SIGNALS)},
    },
    "tiny": {
        "mc-table": {"n": 256, "trials": 2, "signals": ["blocks", "heavy-sine"]},
        "long-wavelet": {"n": 2048, "rounds": 1, "signals": ["blocks", "heavy-sine"]},
        "short-calls": {"n": 256, "rounds": 1, "signals": ["blocks", "heavy-sine"]},
    },
}
TIMED_METHODS = {
    "long-wavelet": ("pes-wavelet", "universal", "three-sigma"),
    "short-calls": METHODS,
}


def seed_block(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed % SEED_BLOCKS


def snr_db(clean: np.ndarray, estimate: np.ndarray) -> float:
    """Output SNR in dB, computed here so the check does not trust the library."""
    return 20.0 * math.log10(np.linalg.norm(clean) / np.linalg.norm(clean - estimate))


# ---------------------------------------------------------------------------
# mc-table


def table_spec(size: str, block: int, first_cell_only: bool = False) -> pd.ExperimentSpec:
    cfg = SIZES[size]["mc-table"]
    signals = tuple(cfg["signals"])
    fractions = DEFAULT_FRACTIONS
    trials = cfg["trials"]
    if first_cell_only:
        signals, fractions, trials = signals[:1], fractions[:1], 1
    return pd.ExperimentSpec(
        signals=signals,
        noise_fractions=fractions,
        trials=trials,
        base_seed=block * cfg["trials"],
        n=cfg["n"],
    )


def denoisings_per_table(spec: pd.ExperimentSpec) -> int:
    return len(spec.signals) * len(spec.noise_fractions) * spec.trials * len(spec.methods)


def check_table(csv_text: str, reference: str) -> int:
    """Number of report rows that differ from the reference at 4 decimals."""
    got = csv_text.splitlines()
    want = reference.splitlines()
    if not got or got[0] != want[0]:
        return len(want) - 1
    wrong = sum(1 for g, w in zip(got[1:], want[1:]) if g != w)
    return wrong + abs(len(got) - len(want))


def table_snr_by_method(report: pd.ExperimentReport) -> dict[str, float]:
    """Mean over cells of each method's mean output SNR."""
    by_method: dict[str, list[float]] = {}
    for row in report.rows:
        if math.isfinite(row.mean_output_snr_db):
            by_method.setdefault(row.method, []).append(row.mean_output_snr_db)
    return {method: float(np.mean(values)) for method, values in by_method.items()}


# ---------------------------------------------------------------------------
# single-call workloads


@dataclass(frozen=True)
class Call:
    signal: str
    fraction: float
    noise_seed: int
    method: str


@dataclass(frozen=True)
class Prepared:
    call: Call
    clean: np.ndarray
    noisy: np.ndarray
    cfg: pd.DenoiseConfig
    ref_snr_db: float


def plan_calls(workload: str, size: str, block: int) -> tuple[list[Call], list[Call]]:
    """(timed calls, quality-only calls) in their fixed order for a seed block."""
    cfg = SIZES[size][workload]
    draws = [
        (signal, fraction)
        for _ in range(cfg["rounds"])
        for signal in cfg["signals"]
        for fraction in DEFAULT_FRACTIONS
    ]
    if workload == "long-wavelet":
        base = block * len(draws)
        timed = [
            Call(signal, fraction, base + k, method)
            for k, (signal, fraction) in enumerate(draws)
            for method in TIMED_METHODS[workload]
        ]
        quality = [Call(signal, fraction, base + k, "pes-pyramid") for k, (signal, fraction) in enumerate(draws)]
        return timed, quality
    if workload == "short-calls":
        combos = [(s, f, m) for s, f in draws for m in TIMED_METHODS[workload]]
        base = block * len(combos)
        order = np.random.default_rng(block).permutation(len(combos))
        timed = [Call(combos[i][0], combos[i][1], base + int(i), combos[i][2]) for i in order]
        return timed, []
    raise ValueError(f"{workload!r} is not a single-call workload")


def prepare(calls: list[Call], n: int, refs: list[float]) -> list[Prepared]:
    """Generate the clean and noisy inputs; calls on one noise draw share it."""
    if len(refs) != len(calls):
        raise ValueError(f"{len(refs)} references for {len(calls)} calls")
    cleans: dict[str, np.ndarray] = {}
    noisies: dict[tuple[str, float, int], np.ndarray] = {}
    prepared = []
    for call, ref in zip(calls, refs):
        if call.signal not in cleans:
            cleans[call.signal] = pd.generate_test_signal(call.signal, n)
        key = (call.signal, call.fraction, call.noise_seed)
        if key not in noisies:
            noisies[key] = pd.add_gaussian_noise(
                cleans[call.signal], pd.NoiseSpec(call.fraction, call.noise_seed)
            )
        prepared.append(
            Prepared(call, cleans[call.signal], noisies[key], pd.DenoiseConfig(method=call.method), ref)
        )
    return prepared


def check_call(item: Prepared, out) -> float | None:
    """The output's SNR if it is a finite array of the input's shape matching
    the reference, else None."""
    if not isinstance(out, np.ndarray) or out.shape != item.noisy.shape:
        return None
    if not np.all(np.isfinite(out)):
        return None
    snr = snr_db(item.clean, out)
    if not abs(snr - item.ref_snr_db) <= SNR_TOL_DB:
        return None
    return snr


# ---------------------------------------------------------------------------
# references


def refs_path(workload: str) -> Path:
    return REFS_DIR / f"{workload}.json"


def load_refs(workload: str, size: str, block: int):
    """The stored reference for one block; refuses refs made for another config."""
    with open(refs_path(workload), "r", encoding="utf-8") as fh:
        stored = json.load(fh)
    entry = stored[size]
    if entry["config"] != SIZES[size][workload] or len(entry["blocks"]) != SEED_BLOCKS:
        raise ValueError(f"refs/{workload}.json was made for another {size} configuration")
    return entry["blocks"][block]
