"""Monte-Carlo experiment runner and CSV emission.

Every method in a cell (signal x noise fraction) sees the same noisy
instances, seeded as base_seed + trial, so method comparisons are
paired and a report is deterministic for a given seed.

The table runs in blocks of whole cells, in spec order: as many cells
as fit their trials * n samples in BLOCK_ELEMENTS, and at least one.
A block stacks its cells' trials as the rows of one matrix, cell by
cell, row t of a cell seeded base_seed + t, and every piece of work is
done once per block:
- the unit noise is drawn once per experiment, and one broadcast
  expression scales it for every cell of the block (each row is bit for
  bit add_gaussian_noise(clean, NoiseSpec(fraction, base_seed + t)));
- one select_levels call gives the rows' depths, which every method
  given no explicit depth then clamps on its own; a spec whose methods
  all have explicit depths makes no such call;
- one denoise call per method, whose output becomes its cells' SNRs
  before the next method runs; one mean and one stddev reduction over
  the block then summarise each method's cells;
- one DWT analysis per filter bank, depth and row chunk: every denoise
  call of the block gets one private record (denoise._Block) that holds
  the depths and keeps, read-only, the analyses made so far, so the DWT
  methods that share a bank and a depth share its analysis.
Each row is denoised as it would be on its own, so the report is the
same for any blocking.  Rows and errors are per cell: a block that
raises reports each of its cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._workspace import BLOCK_ELEMENTS
from .denoise import DenoiseConfig, _Block, _checked_depth, denoise
from .signals import NoiseSpec, _generator, _noise_sigma, _unit_noise, generate_test_signal, snr_db
from .spectrum import MIN_SAMPLES, select_levels
from .transforms import _check_integer, get_filter_bank

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
        _check_integer("trials", self.trials, 1)
        _check_integer("n", self.n, MIN_SAMPLES)
        _check_integer("base_seed", self.base_seed, 0)
        for name in ("signals", "noise_fractions", "methods"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for fraction in self.noise_fractions:
            NoiseSpec(fraction)  # raises ValueError unless the fraction is in (0, 1]
        for cfg in self.methods:
            # Refuses what its cells would; the depth rule takes a Python int.
            _checked_depth(cfg, get_filter_bank(cfg.bank), int(self.n))
        # Report rows are keyed by signal, fraction and method label, so a repeat
        # would run a cell twice, weighting it twice in grand_means, or average two
        # configurations together.  Names of one generator, such as blocks and
        # Blocks, are one signal.
        labels = [cfg.method for cfg in self.methods]
        for noun, values, keys in (
            ("signal", self.signals, [_generator(name) for name in self.signals]),  # refuses unknown
            ("noise fraction", self.noise_fractions, self.noise_fractions),
            ("method", labels, labels),
        ):
            repeated = sorted({str(value) for value, key in zip(values, keys) if keys.count(key) > 1})
            if repeated:
                raise ValueError(
                    f"each {noun} may appear once per experiment; repeated: {', '.join(repeated)}"
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


def _cell_snrs(cleans: list[np.ndarray], rows: np.ndarray, trials: int) -> np.ndarray:
    """(cells, trials): snr_db of rows[c * trials : (c + 1) * trials] against cleans[c]."""
    return np.stack([snr_db(clean, rows[c * trials : (c + 1) * trials]) for c, clean in enumerate(cleans)])


def _cell_summaries(snrs: np.ndarray) -> list[tuple[float, float, int]]:
    """_summarize of each cell's row of snrs: one mean and one stddev over
    every cell when no row holds a +inf sentinel."""
    if not np.isfinite(snrs).all():
        return [_summarize(cell) for cell in snrs]
    means, stds = np.mean(snrs, axis=1).tolist(), np.std(snrs, axis=1).tolist()
    return [(mean, std, 0) for mean, std in zip(means, stds)]


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    rows: list[ReportRow] = []
    errors: list[str] = []
    n, trials = spec.n, spec.trials
    unit = np.stack([_unit_noise(spec.base_seed + trial, n) for trial in range(trials)])
    signals = {name: generate_test_signal(name, n) for name in spec.signals}
    cells = [(name, fraction) for name in spec.signals for fraction in spec.noise_fractions]
    per_block = max(1, BLOCK_ELEMENTS // (trials * n))
    spectrum = any(cfg.levels is None for cfg in spec.methods)

    for start in range(0, len(cells), per_block):
        block = cells[start : start + per_block]
        cleans = [signals[name] for name, _ in block]
        try:
            sigmas = np.array([_noise_sigma(signals[name], fraction) for name, fraction in block])
            noisy = (np.stack(cleans)[:, None] + sigmas[:, None, None] * unit).reshape(-1, n)
            input_snrs = _cell_snrs(cleans, noisy, trials)
            record = _Block(select_levels(noisy) if spectrum else None)
            # Each output lives only until its SNRs are taken.
            outputs = [_cell_snrs(cleans, denoise(noisy, cfg, _block=record), trials) for cfg in spec.methods]
        except Exception as exc:  # noqa: BLE001 - the block aborts, each cell's error is reported
            errors.extend(f"{name}/{fraction:g}: {type(exc).__name__}: {exc}" for name, fraction in block)
            continue

        input_means = np.mean(input_snrs, axis=1).tolist()
        summaries = [_cell_summaries(snrs) for snrs in outputs]
        for c, (name, fraction) in enumerate(block):
            for cfg, summary in zip(spec.methods, summaries):
                mean_out, std_out, excluded = summary[c]
                rows.append(
                    ReportRow(
                        signal=name,
                        fraction=fraction,
                        method=cfg.method,
                        mean_input_snr_db=input_means[c],
                        mean_output_snr_db=mean_out,
                        stddev_output_snr_db=std_out,
                        trials=trials,
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
