"""Monte-Carlo experiment runner and CSV emission.

Every method in a cell (signal x noise fraction) sees the same noisy
instances, seeded as base_seed + trial, so method comparisons are
paired.  A cell stacks its trials as the rows of one (trials, n) matrix,
row t seeded base_seed + t, and denoises it with one call per method,
so a report is deterministic for a given seed.

Each piece of work is done once: the unit noise is drawn once per
experiment and scaled for each cell (row t is bit for bit
add_gaussian_noise(clean, NoiseSpec(fraction, base_seed + t))), and each
cell's depths come from one select_levels call, which every method given
no explicit depth then clamps on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .denoise import DenoiseConfig, _checked_depth, denoise
from .signals import NoiseSpec, _add_noise, _generator, _unit_noise, generate_test_signal, snr_db
from .spectrum import _is_integer, select_levels
from .transforms import get_filter_bank

DEFAULT_SIGNALS = ("blocks", "heavy-sine", "doppler", "bumps", "piece-regular", "cusp")
DEFAULT_FRACTIONS = (0.10, 0.20, 0.30)
DEFAULT_METHODS = (
    DenoiseConfig(method="pes-pyramid"),
    DenoiseConfig(method="pes-wavelet"),
    DenoiseConfig(method="universal"),
    DenoiseConfig(method="three-sigma"),
)

CSV_HEADER = "signal,fraction,method,input_snr_db,output_snr_db,stddev_db,trials"


@dataclass(frozen=True)
class ExperimentSpec:
    signals: tuple[str, ...] = DEFAULT_SIGNALS
    noise_fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    trials: int = 300
    methods: tuple[DenoiseConfig, ...] = DEFAULT_METHODS
    base_seed: int = 0
    n: int = 1024

    def __post_init__(self) -> None:
        if not _is_integer(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials}")
        if not _is_integer(self.n) or self.n < 16:
            raise ValueError(f"n must be an integer >= 16, got {self.n}")
        if not _is_integer(self.base_seed) or self.base_seed < 0:
            raise ValueError(f"base_seed must be a nonnegative integer, got {self.base_seed}")
        for name in ("signals", "noise_fractions", "methods"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for name in self.signals:
            _generator(name)  # raises ValueError for an unknown signal
        for fraction in self.noise_fractions:
            NoiseSpec(fraction)  # raises ValueError unless the fraction is in (0, 1]
        for cfg in self.methods:
            _checked_depth(cfg, get_filter_bank(cfg.bank), self.n)  # refuses what its cells would
        labels = [cfg.method for cfg in self.methods]
        shared = sorted({label for label in labels if labels.count(label) > 1})
        if shared:
            # Report rows are keyed by method label; two configurations
            # under one label would be indistinguishable and averaged together.
            raise ValueError(
                f"each method may appear once per experiment; repeated: {', '.join(shared)}"
            )


@dataclass(frozen=True)
class ReportRow:
    signal: str
    fraction: float
    method: str
    mean_input_snr_db: float
    mean_output_snr_db: float
    stddev_output_snr_db: float
    trials: int
    excluded: int = 0  # +inf sentinels left out of the means


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]
    errors: tuple[str, ...] = field(default_factory=tuple)


def _summarize(values) -> tuple[float, float, int]:
    """Mean and population stddev with +inf sentinels excluded."""
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    excluded = len(values) - len(finite)
    if not finite.size:
        return math.inf, 0.0, excluded
    return float(np.mean(finite)), float(np.std(finite)), excluded


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    rows: list[ReportRow] = []
    errors: list[str] = []
    unit = np.stack([_unit_noise(spec.base_seed + trial, spec.n) for trial in range(spec.trials)])

    for signal_name in spec.signals:
        clean = generate_test_signal(signal_name, spec.n)
        for fraction in spec.noise_fractions:
            try:
                noisy = _add_noise(clean, fraction, unit)
                input_snrs = snr_db(clean, noisy)
                depths = select_levels(noisy)
                outputs = [snr_db(clean, denoise(noisy, cfg, depths)) for cfg in spec.methods]
            except Exception as exc:  # noqa: BLE001 - cell aborts, error is reported
                errors.append(f"{signal_name}/{fraction:g}: {type(exc).__name__}: {exc}")
                continue

            input_mean = float(np.mean(input_snrs))
            for cfg, snrs in zip(spec.methods, outputs):
                mean_out, std_out, excluded = _summarize(snrs)
                rows.append(
                    ReportRow(
                        signal=signal_name,
                        fraction=fraction,
                        method=cfg.method,
                        mean_input_snr_db=input_mean,
                        mean_output_snr_db=mean_out,
                        stddev_output_snr_db=std_out,
                        trials=spec.trials,
                        excluded=excluded,
                    )
                )
    return ExperimentReport(rows=tuple(rows), errors=tuple(errors))


def emit_csv(report: ExperimentReport) -> str:
    lines = [CSV_HEADER]
    for row in report.rows:
        lines.append(
            f"{row.signal},{row.fraction:.4f},{row.method},"
            f"{row.mean_input_snr_db:.4f},{row.mean_output_snr_db:.4f},"
            f"{row.stddev_output_snr_db:.4f},{row.trials}"
        )
    return "\n".join(lines) + "\n"


def emit_spectrum_csv(omegas: np.ndarray, magnitudes: np.ndarray) -> str:
    lines = ["omega,magnitude"]
    for omega, magnitude in zip(omegas, magnitudes):
        lines.append(f"{repr(float(omega))},{repr(float(magnitude))}")
    return "\n".join(lines) + "\n"


def grand_means(report: ExperimentReport) -> dict[str, float]:
    """Per-method mean of the cell means (finite cells only)."""
    sums: dict[str, list[float]] = {}
    for row in report.rows:
        if math.isfinite(row.mean_output_snr_db):
            sums.setdefault(row.method, []).append(row.mean_output_snr_db)
    return {method: float(np.mean(vals)) for method, vals in sums.items()}
