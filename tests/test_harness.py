"""Experiment runner: pairing, determinism, aggregation, CSV round-trips."""

import hashlib
import importlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import run_experiment_reference

from pes_denoise import harness, select_levels
from pes_denoise._workspace import BLOCK_ELEMENTS
from pes_denoise.denoise import METHODS, DenoiseConfig, clamp_depth, denoise
from pes_denoise.harness import (
    CSV_HEADER,
    DEFAULT_FRACTIONS,
    DEFAULT_METHODS,
    DEFAULT_SIGNALS,
    ExperimentReport,
    ExperimentSpec,
    ReportRow,
    _cell_summaries,
    _summarize,
    emit_csv,
    emit_spectrum_csv,
    grand_means,
    run_experiment,
)
from pes_denoise.signals import NoiseSpec, add_gaussian_noise, generate_test_signal

SMALL = ExperimentSpec(
    signals=("heavy-sine",),
    noise_fractions=(0.2,),
    trials=5,
    methods=(DenoiseConfig(method="pes-pyramid"), DenoiseConfig(method="three-sigma")),
    base_seed=0,
    n=512,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(noise_fractions=(0.2, 1.5))
    with pytest.raises(ValueError, match="noise fraction must be in"):
        ExperimentSpec(noise_fractions=(True,))
    with pytest.raises(ValueError, match="base_seed must be an integer >= 0"):
        ExperimentSpec(base_seed=-1)
    # Counts must be integers (a bool is not one), refused before any run starts.
    for trials in (2.5, True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            ExperimentSpec(trials=trials)
    for n in (1000.0, 8, True):
        with pytest.raises(ValueError, match="n must be an integer >= 16"):
            ExperimentSpec(n=n)
    with pytest.raises(ValueError, match="base_seed must be an integer >= 0"):
        ExperimentSpec(base_seed=1.5)


@pytest.mark.parametrize("field", ["signals", "noise_fractions", "methods"])
def test_spec_refuses_an_experiment_with_nothing_to_run(field):
    # An empty tuple would give a report with no rows and no errors.
    with pytest.raises(ValueError, match=f"{field} must not be empty"):
        ExperimentSpec(**{field: ()})


def test_spec_refuses_a_length_one_of_its_methods_cannot_run():
    # An odd n would abort every cell, the pyramid's rows included.
    with pytest.raises(ValueError, match="pes-wavelet needs an even signal length, got n=1023"):
        ExperimentSpec(n=1023)
    pyramid = ExperimentSpec(
        signals=("bumps",), noise_fractions=(0.2,), trials=2,
        methods=(DenoiseConfig(method="pes-pyramid"),), n=1023,
    )
    report = run_experiment(pyramid)
    assert report.errors == () and len(report.rows) == 1


def test_spec_refuses_an_unknown_signal_before_any_run():
    with pytest.raises(ValueError) as refused:
        ExperimentSpec(signals=("blocks", "nope"), trials=1, n=64)
    with pytest.raises(ValueError) as generated:
        generate_test_signal("nope", 64)
    assert str(refused.value) == str(generated.value)
    assert str(refused.value).startswith("unknown signal 'nope'")


def test_run_experiment_is_deterministic():
    a = run_experiment(SMALL)
    b = run_experiment(SMALL)
    assert a == b
    assert len(a.rows) == 2 and not a.errors


def test_rows_are_ordered_and_labeled():
    report = run_experiment(SMALL)
    assert [r.method for r in report.rows] == ["pes-pyramid", "three-sigma"]
    row = report.rows[0]
    assert row.signal == "heavy-sine" and row.fraction == 0.2 and row.trials == 5
    # both methods summarize the identical noisy instances
    assert report.rows[0].mean_input_snr_db == report.rows[1].mean_input_snr_db


def _recording(monkeypatch):
    """Record harness.denoise's (x, cfg, _block) and harness.select_levels's
    results, in call order, while both still run."""
    seen, plans = [], []
    denoise, select_levels = harness.denoise, harness.select_levels

    def recording_denoise(x, cfg, *, _block=None):
        seen.append((x, cfg, _block))
        return denoise(x, cfg, _block=_block)

    def recording_select_levels(x):
        plans.append(select_levels(x))
        return plans[-1]

    monkeypatch.setattr(harness, "denoise", recording_denoise)
    monkeypatch.setattr(harness, "select_levels", recording_select_levels)
    return seen, plans


def test_cells_share_one_noise_draw_and_one_depth_plan(monkeypatch):
    # A block of whole cells, in spec order, shares one noisy matrix, one depth
    # plan and one denoise call per method; no row differs from its own draw.
    methods = (
        DenoiseConfig(method="pes-pyramid"),
        DenoiseConfig(method="universal", levels=3),
        DenoiseConfig(method="three-sigma"),
        DenoiseConfig(method="pes-wavelet", bank="haar"),
    )
    seen, plans = _recording(monkeypatch)
    # Every cell in one block; blocks of 3 cells and 1; blocks of one cell, each over BLOCK_ELEMENTS.
    for trials, n in ((4, 256), (40, 512), (70, 1024)):
        spec = ExperimentSpec(
            signals=("heavy-sine", "bumps"), noise_fractions=(0.1, 0.3), trials=trials,
            methods=methods, base_seed=7, n=n,
        )
        seen.clear()
        plans.clear()
        report = run_experiment(spec)
        assert not report.errors and len(report.rows) == 4 * 4
        per_block = max(1, BLOCK_ELEMENTS // (trials * n))
        cells = [(s, f) for s in spec.signals for f in spec.noise_fractions]
        blocks = [cells[i : i + per_block] for i in range(0, len(cells), per_block)]
        assert len(plans) == len(blocks) and len(seen) == len(methods) * len(blocks)
        for b, block in enumerate(blocks):
            calls = seen[b * len(methods) : (b + 1) * len(methods)]
            x = calls[0][0]
            assert [cfg for _, cfg, _ in calls] == list(methods)
            assert x.shape == (len(block) * trials, n)
            assert x.size <= max(BLOCK_ELEMENTS, trials * n)
            for c, (signal, fraction) in enumerate(block):
                clean = generate_test_signal(signal, n)
                for t in range(trials):
                    expected = add_gaussian_noise(clean, NoiseSpec(fraction, spec.base_seed + t))
                    assert np.array_equal(x[c * trials + t], expected)
            assert np.array_equal(plans[b], select_levels(x))
            for y, _, record in calls:
                assert y is x and record is calls[0][2] and record.depths is plans[b]


def test_depths_are_selected_once_per_block_and_only_when_a_method_needs_them(monkeypatch):
    # 6 cells of 40 x 512 samples run in 2 blocks of 3.
    cells = dict(signals=("heavy-sine", "bumps"), noise_fractions=(0.1, 0.2, 0.3), trials=40, n=512)
    explicit = (DenoiseConfig(method="pes-wavelet", levels=3), DenoiseConfig(method="universal", levels=3))
    seen, plans = _recording(monkeypatch)
    report = run_experiment(ExperimentSpec(methods=explicit, **cells))
    assert not report.errors and len(report.rows) == 6 * 2
    assert plans == [] and [record.depths for _, _, record in seen] == [None] * 4
    seen.clear()
    mixed = explicit + (DenoiseConfig(method="three-sigma"),)
    report = run_experiment(ExperimentSpec(methods=mixed, **cells))
    assert not report.errors and len(report.rows) == 6 * 3
    assert len(plans) == 2
    assert [record.depths is plans[i // 3] for i, (_, _, record) in enumerate(seen)] == [True] * 6


_BANKS = ["db4", "haar", "farras"]
_BLOCK_CASES = dict(
    signals=st.lists(st.sampled_from(DEFAULT_SIGNALS), min_size=1, max_size=3, unique=True),
    fractions=st.lists(st.sampled_from(DEFAULT_FRACTIONS), min_size=1, max_size=3, unique=True),
    trials=st.integers(1, 70),
    n=st.sampled_from([64, 256, 1024]),
    methods=st.lists(
        st.tuples(st.sampled_from(METHODS), st.sampled_from(_BANKS), st.sampled_from([None, 2, 3])),
        min_size=1, max_size=4, unique_by=lambda m: m[0],
    ),
    base_seed=st.integers(0, 1000),
)
_ALL_METHODS = [
    ("pes-pyramid", "db4", None),
    ("pes-wavelet", "farras", None),
    ("universal", "haar", 3),
    ("three-sigma", "db4", 2),
]


# Blocks of one cell (70 x 1024 samples), of 6 cells of 10 x 1024, and of every cell.
# The DWT methods of a block share each analysis of one bank, depth and row
# set, so the cases also mix db4 and haar on methods that share one depth
# plan, and put an explicit depth beside automatic ones that pick it too:
# for bumps at 20%, 70 x 1024, universal's explicit chunk of rows 0-63 and
# the automatic depth-5 chunk both start at row 0.
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**_BLOCK_CASES)
@example(signals=["doppler"], fractions=[0.1, 0.3], trials=70, n=1024, methods=_ALL_METHODS, base_seed=0)
@example(
    signals=["blocks", "bumps", "cusp"], fractions=DEFAULT_FRACTIONS, trials=10, n=1024, methods=_ALL_METHODS,
    base_seed=3,
)
@example(signals=["cusp", "blocks"], fractions=[0.2, 0.3], trials=5, n=64, methods=_ALL_METHODS, base_seed=9)
@example(
    signals=["bumps"], fractions=[0.2], trials=70, n=1024, base_seed=0,
    methods=[("universal", "db4", 5), ("pes-wavelet", "db4", None), ("three-sigma", "db4", None)],
)
@example(
    signals=["blocks", "bumps", "piece-regular"], fractions=DEFAULT_FRACTIONS, trials=10, n=1024, base_seed=20,
    methods=[("three-sigma", "haar", 4), ("pes-pyramid", "db4", None), ("universal", "db4", None),
             ("pes-wavelet", "haar", None)],
)
def test_rows_equal_each_cell_run_alone(signals, fractions, trials, n, methods, base_seed):
    spec = ExperimentSpec(
        signals=tuple(signals), noise_fractions=tuple(fractions), trials=trials,
        methods=tuple(DenoiseConfig(m, bank, levels) for m, bank, levels in methods),
        base_seed=base_seed, n=n,
    )
    report = run_experiment(spec)
    assert report.errors == ()
    assert report.rows == run_experiment_reference(spec)


def test_a_block_analyses_each_bank_depth_and_row_chunk_once(monkeypatch):
    # The benchmark's table, over its 8 seed blocks: 6 signals x 3 fractions
    # of 10 trials at n = 1024 in 3 blocks of 6 cells, the default methods.
    # Its three DWT methods share db4 and the block's spectrum plan, so a
    # block makes one analysis per depth (each depth's rows fit one chunk),
    # where one per method made 3 times as many.
    module = importlib.import_module("pes_denoise.denoise")
    dwt_analysis, analyses = module.dwt_analysis, []

    def counting_dwt_analysis(x, bank, levels):
        analyses.append((bank.name, levels, x.shape[0]))
        return dwt_analysis(x, bank, levels)

    monkeypatch.setattr(module, "dwt_analysis", counting_dwt_analysis)
    _, plans = _recording(monkeypatch)
    dwt = [cfg for cfg in DEFAULT_METHODS if cfg.method != "pes-pyramid"]
    total = 0
    for seed_block in range(8):
        spec = ExperimentSpec(trials=10, base_seed=10 * seed_block)
        plans.clear()
        analyses.clear()
        assert not run_experiment(spec).errors and len(plans) == 3
        # One analysis per block, bank and depth, of that depth's rows.
        expected = []
        for plan in plans:
            block = set()
            for cfg in dwt:
                depths = clamp_depth(plan, cfg, spec.n)
                block |= {(cfg.bank, L, int(np.count_nonzero(depths == L))) for L in depths.tolist()}
            expected.extend(block)
        assert sorted(analyses) == sorted(expected)
        total += len(analyses)
    # 12.375 analyses per table, where one per method made 37.125.
    assert total == 8 * 12.375


def test_a_failing_block_reports_each_of_its_cells(monkeypatch):
    # 9 cells of 40 x 512 samples run in 3 blocks of 3; only the second one fails.
    spec = ExperimentSpec(
        signals=("blocks", "heavy-sine", "bumps"), trials=40, n=512,
        methods=(DenoiseConfig(method="pes-pyramid"), DenoiseConfig(method="three-sigma")),
    )
    clean_run = run_experiment(spec)
    blocks = []

    def failing_on_the_second_block(x, cfg, *, _block=None):
        if not blocks or blocks[-1] is not x:
            blocks.append(x)
        if len(blocks) == 2:
            raise FloatingPointError("overflow in the block")
        return denoise(x, cfg, _block=_block)

    monkeypatch.setattr(harness, "denoise", failing_on_the_second_block)
    report = run_experiment(spec)
    assert len(blocks) == 3
    cells = [(s, f) for s in spec.signals for f in spec.noise_fractions]
    failed = cells[3:6]
    assert report.errors == tuple(f"{s}/{f:g}: FloatingPointError: overflow in the block" for s, f in failed)
    assert report.rows == tuple(r for r in clean_run.rows if (r.signal, r.fraction) not in failed)
    assert len(report.rows) == 6 * 2


def test_pyramid_beats_input_snr_by_wide_margin():
    spec = ExperimentSpec(
        signals=("heavy-sine",),
        noise_fractions=(0.2,),
        trials=25,
        methods=(DenoiseConfig(method="pes-pyramid"),),
        n=1024,
    )
    row = run_experiment(spec).rows[0]
    assert row.mean_output_snr_db - row.mean_input_snr_db >= 8.0


def test_methods_sharing_a_label_are_rejected():
    # Report rows are keyed by method label, so two configurations of one
    # method would give rows that cannot be told apart.
    for methods in (
        (DenoiseConfig(method="pes-wavelet"), DenoiseConfig(method="pes-wavelet")),
        (
            DenoiseConfig(method="universal", bank="haar"),
            DenoiseConfig(method="universal", bank="db4"),
        ),
    ):
        with pytest.raises(ValueError, match="repeated"):
            ExperimentSpec(methods=methods)


def test_length_without_a_deep_dwt_reports_every_cell():
    # n = 1000 allows at most a 3-level DWT; the automatic depth is clamped.
    spec = ExperimentSpec(
        signals=("heavy-sine", "blocks"), noise_fractions=(0.2,), trials=3, n=1000
    )
    report = run_experiment(spec)
    assert report.errors == ()
    assert len(report.rows) == 2 * len(spec.methods)


# emit_csv of GOLDEN_SPEC at the commit before trials were denoised as one
# (trials, n) batch per method; the batch must reproduce it byte for byte.
GOLDEN_SPEC = ExperimentSpec(signals=("blocks", "heavy-sine"), trials=3, n=256)
GOLDEN_CSV = """\
signal,fraction,method,input_snr_db,output_snr_db,stddev_db,trials
blocks,0.1000,pes-pyramid,13.7535,13.4855,0.2252,3
blocks,0.1000,pes-wavelet,13.7535,11.9467,0.2106,3
blocks,0.1000,universal,13.7535,12.9703,0.5526,3
blocks,0.1000,three-sigma,13.7535,13.4138,0.5756,3
blocks,0.2000,pes-pyramid,7.7329,9.3334,0.2811,3
blocks,0.2000,pes-wavelet,7.7329,10.0822,0.4600,3
blocks,0.2000,universal,7.7329,9.9896,0.4376,3
blocks,0.2000,three-sigma,7.7329,10.1309,0.3967,3
blocks,0.3000,pes-pyramid,4.2111,7.1035,0.1206,3
blocks,0.3000,pes-wavelet,4.2111,7.9432,0.4975,3
blocks,0.3000,universal,4.2111,7.7193,0.4944,3
blocks,0.3000,three-sigma,4.2111,7.8565,0.5338,3
heavy-sine,0.1000,pes-pyramid,17.9725,24.0234,0.7784,3
heavy-sine,0.1000,pes-wavelet,17.9725,23.6341,0.9897,3
heavy-sine,0.1000,universal,17.9725,23.6790,0.9022,3
heavy-sine,0.1000,three-sigma,17.9725,23.8262,0.8700,3
heavy-sine,0.2000,pes-pyramid,11.9519,21.3112,0.5973,3
heavy-sine,0.2000,pes-wavelet,11.9519,18.8678,0.7781,3
heavy-sine,0.2000,universal,11.9519,18.4885,0.6503,3
heavy-sine,0.2000,three-sigma,11.9519,18.5662,0.5800,3
heavy-sine,0.3000,pes-pyramid,8.4301,19.8740,0.8897,3
heavy-sine,0.3000,pes-wavelet,8.4301,17.6200,1.3428,3
heavy-sine,0.3000,universal,8.4301,17.4201,1.2672,3
heavy-sine,0.3000,three-sigma,8.4301,17.4295,1.2539,3
"""


def test_report_matches_golden_csv():
    assert emit_csv(run_experiment(GOLDEN_SPEC)) == GOLDEN_CSV


def test_the_default_report_keeps_its_sha256():
    # The default 300-trial table, as `python -m pes_denoise experiment`
    # writes it, unchanged since 2b91fae: any change to its printed digits
    # is a change to what the program computes.
    report = emit_csv(run_experiment(ExperimentSpec()))
    digest = "a07c706ed02dcbd69e2b89c0882363871d82320a5955c02f524028284cd4fec5"
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_summarize_excludes_infinite_sentinels():
    mean, std, excluded = _summarize([1.0, math.inf, 3.0])
    assert mean == 2.0 and std == 1.0 and excluded == 1
    mean, std, excluded = _summarize([math.inf, math.inf])
    assert mean == math.inf and std == 0.0 and excluded == 2


def test_cell_summaries_are_each_cells_summary_bit_for_bit():
    # One reduction over every cell when all SNRs are finite, one _summarize per cell otherwise.
    snrs = np.random.default_rng(5).normal(12.0, 3.0, size=(6, 37))
    assert _cell_summaries(snrs) == [_summarize(cell) for cell in snrs]
    snrs[2, 4] = snrs[5, :] = math.inf
    assert _cell_summaries(snrs) == [_summarize(cell) for cell in snrs]
    assert [excluded for _, _, excluded in _cell_summaries(snrs)] == [0, 0, 1, 0, 0, 37]


def test_cell_errors_are_recorded_not_raised(monkeypatch):
    # A cell whose run fails is reported, not raised.
    spec = ExperimentSpec(
        signals=("blocks",),
        noise_fractions=(0.2,),
        trials=2,
        methods=(DenoiseConfig(method="pes-wavelet"),),
        n=512,
    )

    def failing_denoise(x, cfg, *, _block=None):
        raise FloatingPointError("overflow in the cell")

    monkeypatch.setattr(harness, "denoise", failing_denoise)
    report = run_experiment(spec)
    assert report.rows == ()
    assert len(report.errors) == 1
    assert report.errors[0].startswith("blocks/0.2:")
    assert report.errors[0].endswith(": FloatingPointError: overflow in the cell")


def test_spec_refuses_a_depth_its_length_does_not_allow():
    # Every cell would fail, so the spec is refused with denoise's message.
    cfg = DenoiseConfig(method="pes-wavelet", levels=10)
    with pytest.raises(ValueError) as refused:
        ExperimentSpec(methods=(cfg,), n=512)
    with pytest.raises(ValueError) as denoised:
        denoise(generate_test_signal("blocks", 512), cfg)
    assert str(refused.value) == str(denoised.value)
    assert str(refused.value) == "pes-wavelet runs at most 8 levels at n=512, got levels=10"


def test_emit_csv_shapes():
    assert emit_csv(ExperimentReport(rows=())) == CSV_HEADER + "\n"
    row = ReportRow("blocks", 0.1, "universal", 10.123456, 15.98765, 0.5, 7)
    text = emit_csv(ExperimentReport(rows=(row,)))
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[1] == "blocks,0.1000,universal,10.1235,15.9877,0.5000,7"


def test_csv_roundtrip_to_four_decimals():
    report = run_experiment(SMALL)
    lines = emit_csv(report).splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 1 + len(report.rows)
    for line, want in zip(lines[1:], report.rows):
        signal, fraction, method, snr_in, snr_out, std, trials = line.split(",")
        assert signal == want.signal and method == want.method
        assert int(trials) == want.trials
        assert abs(float(fraction) - want.fraction) < 5e-5
        assert abs(float(snr_in) - want.mean_input_snr_db) < 5e-5
        assert abs(float(snr_out) - want.mean_output_snr_db) < 5e-5
        assert abs(float(std) - want.stddev_output_snr_db) < 5e-5


def test_emit_spectrum_csv_roundtrips_floats():
    omegas = np.array([0.0, 0.1234567890123456])
    mags = np.array([1.5, 2.25e-13])
    lines = emit_spectrum_csv(omegas, mags).splitlines()
    assert lines[0] == "omega,magnitude"
    got = [tuple(float(tok) for tok in line.split(",")) for line in lines[1:]]
    assert got == [(0.0, 1.5), (0.1234567890123456, 2.25e-13)]


def test_grand_means_averages_cell_means():
    rows = (
        ReportRow("a", 0.1, "m1", 0.0, 10.0, 0.0, 1),
        ReportRow("b", 0.1, "m1", 0.0, 20.0, 0.0, 1),
        ReportRow("a", 0.1, "m2", 0.0, math.inf, 0.0, 1),
        ReportRow("a", 0.2, "m2", 0.0, 5.0, 0.0, 1),
    )
    means = grand_means(ExperimentReport(rows=rows))
    assert means == {"m1": 15.0, "m2": 5.0}
