"""Denoisers: epigraph-driven shrinkage and the two classic baselines."""

import math
import re
import sys
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pes_denoise.denoise import (
    METHODS,
    DenoiseConfig,
    _Block,
    _epigraph_shrink,
    clamp_depth,
    denoise,
    estimate_sigma,
)
from pes_denoise.harness import ExperimentSpec
from pes_denoise.projections import soft_threshold
from pes_denoise.signals import (
    SIGNAL_NAMES,
    NoiseSpec,
    add_gaussian_noise,
    generate_test_signal,
    snr_db,
)
from pes_denoise.spectrum import MAX_LEVELS, select_levels
from pes_denoise.transforms import BANK_NAMES, dwt_analysis, dwt_synthesis, get_filter_bank

from oracles import deepest_allowed, depth_allowed


def test_estimate_sigma_basics():
    assert estimate_sigma(np.zeros(16)) == 0.0
    rng = np.random.default_rng(51)
    band = rng.normal(size=64)
    assert abs(estimate_sigma(3.0 * band) - 3.0 * estimate_sigma(band)) < 1e-12
    with pytest.raises(ValueError):
        estimate_sigma(np.ones(7))


def test_estimate_sigma_calibrated_on_gaussian():
    rng = np.random.default_rng(52)
    estimates = [estimate_sigma(rng.normal(scale=2.0, size=4096)) for _ in range(100)]
    assert abs(np.mean(estimates) - 2.0) / 2.0 < 0.05


def test_universal_threshold_value():
    # One soft threshold on every band of the orthonormal DWT:
    # sigma-hat * sqrt(2 ln n), with sigma-hat from the finest band.
    n = 1024
    y = add_gaussian_noise(generate_test_signal("doppler", n), NoiseSpec(0.2, seed=2))
    bank = get_filter_bank("db4")
    bands = dwt_analysis(y, bank, 3)
    theta = estimate_sigma(bands.details[0]) * np.sqrt(2.0 * np.log(n))
    shrunk = replace(bands, details=[soft_threshold(d, theta) for d in bands.details])
    out = denoise(y, DenoiseConfig(method="universal", levels=3))
    assert np.array_equal(out, dwt_synthesis(shrunk, bank))


def test_three_sigma_noiseless_blocks_is_identity():
    # finest detail band of a piecewise-constant signal is mostly zero,
    # so the MAD estimate vanishes and nothing is thresholded
    x = generate_test_signal("blocks", 512)
    out = denoise(x, DenoiseConfig(method="three-sigma", levels=3))
    assert np.max(np.abs(out - x)) < 1e-9


def test_three_sigma_recovers_blocks():
    clean = generate_test_signal("blocks", 1024)
    snrs = []
    for seed in range(30):
        y = add_gaussian_noise(clean, NoiseSpec(0.2, seed=seed))
        snrs.append(snr_db(clean, denoise(y, DenoiseConfig(method="three-sigma"))))
    assert abs(np.mean(snrs) - 12.9) < 2.0


def test_three_sigma_shrinks_band_l1_norms():
    y = add_gaussian_noise(generate_test_signal("bumps", 512), NoiseSpec(0.3, seed=3))
    bank = get_filter_bank("db4")
    before = dwt_analysis(y, bank, 3)
    after = dwt_analysis(denoise(y, DenoiseConfig(method="three-sigma", levels=3)), bank, 3)
    for db, da in zip(before.details, after.details):
        assert np.sum(np.abs(da)) <= np.sum(np.abs(db)) + 1e-9


def test_constant_signal_is_fixed_point_of_every_method():
    c = np.full(256, 5.0)
    for method in ("pes-wavelet", "pes-pyramid", "universal", "three-sigma"):
        out = denoise(c, DenoiseConfig(method=method, levels=3))
        assert np.max(np.abs(out - c)) < 1e-9


def test_pes_wavelet_composes_haar_and_epigraph_projection():
    # analysis of [2*sqrt2, 0] * 8 at one Haar level (scaled by 1/sqrt(16))
    # gives a detail band of eight 0.5s; its epigraph projection shrinks
    # each by t = 4/9 to 0.5/9; the denoiser must therefore match a
    # hand-assembled synthesis of that band.
    from dataclasses import replace

    bank = get_filter_bank("haar")
    x = np.tile([2.0 * math.sqrt(2.0), 0.0], 8)
    bands = dwt_analysis(x, bank, 1)
    assert np.max(np.abs(bands.details[0] - 0.5)) < 1e-12
    expected = dwt_synthesis(replace(bands, details=[np.full(8, 0.5 / 9.0)]), bank)
    got = denoise(x, DenoiseConfig(method="pes-wavelet", bank="haar", levels=1))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_pes_pyramid_cusp_quality():
    clean = generate_test_signal("cusp", 1024)
    snrs = []
    for seed in range(20):
        y = add_gaussian_noise(clean, NoiseSpec(0.1, seed=seed))
        snrs.append(snr_db(clean, denoise(y, DenoiseConfig(method="pes-pyramid"))))
    assert np.mean(snrs) >= 27.0


def test_pes_methods_heavy_sine_quality():
    clean = generate_test_signal("heavy-sine", 1024)
    for method in ("pes-pyramid", "pes-wavelet"):
        snrs = []
        for seed in range(20):
            y = add_gaussian_noise(clean, NoiseSpec(0.2, seed=seed))
            snrs.append(snr_db(clean, denoise(y, DenoiseConfig(method=method))))
        assert np.mean(snrs) >= 20.0


def test_pes_paths_never_touch_sigma_estimation(monkeypatch):
    y = add_gaussian_noise(generate_test_signal("doppler", 512), NoiseSpec(0.2, seed=5))
    want_w = denoise(y, DenoiseConfig(method="pes-wavelet", levels=3))
    want_p = denoise(y, DenoiseConfig(method="pes-pyramid", levels=3))

    def poisoned(_band):
        raise RuntimeError("sigma estimation must not be reached")

    # the package re-exports a `denoise` function that shadows the
    # submodule attribute, so fetch the module object explicitly
    module = sys.modules["pes_denoise.denoise"]
    monkeypatch.setattr(module, "estimate_sigma", poisoned)
    assert np.array_equal(denoise(y, DenoiseConfig(method="pes-wavelet", levels=3)), want_w)
    assert np.array_equal(denoise(y, DenoiseConfig(method="pes-pyramid", levels=3)), want_p)
    with pytest.raises(RuntimeError):
        denoise(y, DenoiseConfig(method="universal", levels=3))
    with pytest.raises(RuntimeError):
        denoise(y, DenoiseConfig(method="three-sigma", levels=3))


def test_config_validation():
    with pytest.raises(ValueError):
        DenoiseConfig(method="wiener")
    for levels in (0, 2.5, True):
        with pytest.raises(ValueError, match="levels must be an integer"):
            DenoiseConfig(levels=levels)
    with pytest.raises(ValueError, match="unknown filter bank 'nope'"):
        DenoiseConfig(bank="nope")
    with pytest.raises(ValueError):
        denoise(np.array([]), DenoiseConfig())
    # The thresholds, the pyramid's FIR and the spectrum rule have no knobs.
    for knob in ("gamma", "taps", "alpha", "smooth_window"):
        with pytest.raises(TypeError, match=knob):
            DenoiseConfig(**{knob: 3})


# ---------------------------------------------------------------------------
# input contract


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(method, bad):
    y = add_gaussian_noise(generate_test_signal("blocks", 256), NoiseSpec(0.2, seed=7))
    y[100] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        denoise(y, DenoiseConfig(method=method))
    with pytest.raises(ValueError, match="NaN or infinite"):
        denoise(np.stack([y, np.roll(y, 3)]), DenoiseConfig(method=method))


def test_complex_input_is_rejected():
    # np.asarray(..., dtype=float) would drop the imaginary part with only a warning.
    for x in (np.ones(64) + 1j, np.ones((2, 64), dtype=complex)):
        with pytest.raises(ValueError, match="complex"):
            denoise(x, DenoiseConfig())


@pytest.mark.parametrize("shape", [(), (2, 2, 64), (1, 1, 1, 32)])
def test_only_1d_and_2d_inputs_are_accepted(shape):
    with pytest.raises(ValueError, match="shape"):
        denoise(np.ones(shape), DenoiseConfig())


def test_short_last_axis_is_rejected_by_name():
    with pytest.raises(ValueError, match=re.escape("n >= 16, got shape (15,)")):
        denoise(np.ones(15), DenoiseConfig())
    # (T, n) with many rows but short rows: the message names the shape.
    with pytest.raises(ValueError, match=re.escape("n >= 16, got shape (64, 2)")):
        denoise(np.ones((64, 2)), DenoiseConfig())
    with pytest.raises(ValueError):
        denoise(np.ones((0, 64)), DenoiseConfig())


# ---------------------------------------------------------------------------
# automatic depth is always feasible

_CONTENTS = (
    lambda rng, n: np.cumsum(rng.normal(size=n)),  # a random walk
    lambda rng, n: rng.normal(size=n),  # white noise
    lambda rng, n: np.zeros(n),
    lambda rng, n: np.full(n, -2.5),
)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(16, 600),
    method=st.sampled_from(METHODS),
    bank=st.sampled_from(BANK_NAMES),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=17, method="pes-wavelet", bank="db4", seed=0)
@example(n=17, method="pes-pyramid", bank="db4", seed=0)
def test_automatic_depth_runs_at_every_length_the_method_allows(n, method, bank, seed):
    rng = np.random.default_rng(seed)
    x = np.stack([content(rng, n) for content in _CONTENTS])
    cfg = DenoiseConfig(method=method, bank=bank)
    if n % 2 and method != "pes-pyramid":
        # Refused by denoise's own input check, not from inside the DWT.
        with pytest.raises(ValueError, match=f"^{method} needs an even signal length, got n={n}$"):
            denoise(x, cfg)
        return
    out = denoise(x, cfg)
    assert out.shape == x.shape and np.all(np.isfinite(out))


@pytest.mark.parametrize("method", ["pes-wavelet", "universal", "three-sigma"])
def test_automatic_depth_is_clamped_to_a_feasible_dwt(method):
    # 1000 = 8 * 125: the spectrum asks for 5 levels, a DWT allows 3.
    clean = generate_test_signal("heavy-sine", 1000)
    y = add_gaussian_noise(clean, NoiseSpec(0.2, seed=8))
    assert select_levels(y) == 5
    out = denoise(y, DenoiseConfig(method=method))
    assert np.array_equal(out, denoise(y, DenoiseConfig(method=method, levels=3)))
    assert snr_db(clean, out) > snr_db(clean, y)
    with pytest.raises(ValueError, match=f"^{method} runs at most 3 levels at n=1000, got levels=5$"):
        denoise(y, DenoiseConfig(method=method, levels=5))


@pytest.mark.parametrize("method", ["pes-wavelet", "universal", "three-sigma"])
def test_shortest_signal_gets_a_feasible_depth(method):
    # At n=16 the spectrum picks 6 levels; db4 fits at most 3.
    y = add_gaussian_noise(generate_test_signal("doppler", 16), NoiseSpec(0.2, seed=9))
    out = denoise(y, DenoiseConfig(method=method))
    assert out.shape == (16,) and np.all(np.isfinite(out))
    with pytest.raises(ValueError, match=f"^{method} runs at most 3 levels at n=16, got levels=4$"):
        denoise(y, DenoiseConfig(method=method, levels=4))


def test_explicit_pyramid_depth_must_span_a_dft_bin():
    # 2^(L+1) <= n: at n=1024 an octave pyramid has at most 9 stages.
    y = add_gaussian_noise(generate_test_signal("heavy-sine", 1024), NoiseSpec(0.2, seed=10))
    assert denoise(y, DenoiseConfig(method="pes-pyramid", levels=9)).shape == (1024,)
    with pytest.raises(ValueError, match="^pes-pyramid runs at most 9 levels at n=1024, got levels=12$"):
        denoise(y, DenoiseConfig(method="pes-pyramid", levels=12))


def test_automatic_pyramid_depth_is_clamped():
    # At n=16 the spectrum picks 6 levels; an octave pyramid fits at most 3.
    y = add_gaussian_noise(generate_test_signal("doppler", 16), NoiseSpec(0.2, seed=9))
    assert select_levels(y) == 6
    out = denoise(y, DenoiseConfig(method="pes-pyramid"))
    assert np.array_equal(out, denoise(y, DenoiseConfig(method="pes-pyramid", levels=3)))
    with pytest.raises(ValueError, match="^pes-pyramid runs at most 3 levels at n=16, got levels=4$"):
        denoise(y, DenoiseConfig(method="pes-pyramid", levels=4))


# Any length, and multiples of 64 and powers of 2, where the DWT runs deep.
_LENGTHS = st.one_of(
    st.integers(16, 4096), st.integers(1, 64).map(lambda j: 64 * j), st.integers(4, 12).map(lambda k: 1 << k)
)


@settings(max_examples=200, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    bank=st.sampled_from(BANK_NAMES),
    n=_LENGTHS,
    levels=st.integers(1, 12),
)
@example(method="pes-wavelet", bank="db4", n=512, levels=10)
@example(method="pes-wavelet", bank="farras", n=80, levels=4)  # stage 4 sees 10 samples, the taps
@example(method="three-sigma", bank="farras", n=64, levels=4)  # stage 4 sees 8
@example(method="pes-pyramid", bank="db4", n=1024, levels=10)
@example(method="pes-pyramid", bank="db4", n=1023, levels=8)
def test_one_depth_rule_for_denoise_experiments_and_the_clamp(method, bank, n, levels):
    # The rule as stated (tests/oracles.py): denoise runs an explicit depth, and
    # ExperimentSpec accepts it, exactly where the rule allows it; both refuse
    # the rest with one message; and the automatic depth is clamped to the
    # deepest the rule allows, 0 where it allows none.
    cfg = DenoiseConfig(method=method, bank=bank, levels=levels)
    taps = get_filter_bank(bank).taps
    x = np.random.default_rng(n).normal(size=n)
    spec = partial(ExperimentSpec, signals=("bumps",), noise_fractions=(0.2,), trials=1, n=n)
    if depth_allowed(method, taps, n, levels):
        assert denoise(x, cfg).shape == (n,)
        spec(methods=(cfg,))
    else:
        with pytest.raises(ValueError) as refused:
            denoise(x, cfg)
        with pytest.raises(ValueError) as refused_by_spec:
            spec(methods=(cfg,))
        assert str(refused_by_spec.value) == str(refused.value)
    deepest = deepest_allowed(method, taps, n)
    for L in range(1, MAX_LEVELS + 1):
        assert clamp_depth(L, cfg, n) == min(L, deepest)
    if deepest == 0:
        with pytest.raises(ValueError, match=f"^{method} needs an even signal length, got n={n}$"):
            spec(methods=(replace(cfg, levels=None),))


# ---------------------------------------------------------------------------
# a (T, n) batch is T independent signals

_FRACTIONS = (0.05, 0.1, 0.3, 0.6)
_row = st.tuples(st.sampled_from(SIGNAL_NAMES), st.sampled_from(_FRACTIONS), st.integers(0, 10_000))
# blocks at 10% picks depth 2, bumps at 60% depth 6 and heavy-sine at 30% depth 4 (n=256).
_MIXED = [("blocks", 0.1, 0), ("bumps", 0.6, 0), ("heavy-sine", 0.3, 1)]


def _batch(rows, n=256):
    return np.stack(
        [
            add_gaussian_noise(generate_test_signal(name, n), NoiseSpec(f, seed))
            for name, f, seed in rows
        ]
    )


def test_mixed_batch_spans_several_depths():
    assert len(set(select_levels(_batch(_MIXED)).tolist())) == 3


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(_row, min_size=1, max_size=6), bank=st.sampled_from(BANK_NAMES))
@example(rows=_MIXED, bank="db4")
@example(rows=_MIXED + _MIXED[:1], bank="farras")
def test_batch_rows_equal_single_calls(method, rows, bank):
    x = _batch(rows)
    cfg = DenoiseConfig(method=method, bank=bank)
    out = denoise(x, cfg)
    assert out.shape == x.shape
    for t in range(x.shape[0]):
        assert np.max(np.abs(out[t] - denoise(x[t], cfg))) < 1e-12


@pytest.mark.parametrize("method", METHODS)
def test_given_spectrum_levels_equal_selected_ones(method):
    # The harness selects each block's depths once and hands them to every
    # method in its private record; the output must be the one denoise
    # gives when it selects them.  The record holds select_levels of the rows.
    x = _batch(_MIXED)
    cfg = DenoiseConfig(method=method)
    assert np.array_equal(denoise(x, cfg, _block=_Block(select_levels(x))), denoise(x, cfg))
    row = denoise(x[1], cfg, _block=_Block(select_levels(x[1:2])))
    assert np.array_equal(row, denoise(x[1], cfg))
    # An explicit depth still wins over the given ones.
    explicit = DenoiseConfig(method=method, levels=2)
    assert np.array_equal(denoise(x, explicit, _block=_Block(np.full(3, 6))), denoise(x, explicit))


def test_a_shared_record_gives_each_methods_own_output():
    # Each DWT method given the record reuses the analyses that the methods
    # before it made and shrinks none of them in place: on a second pass,
    # where every analysis is reused, each output is still the one without it.
    x = _batch(_MIXED)
    record = _Block(select_levels(x))
    for cfg in [DenoiseConfig(method, levels=levels) for levels in (None, 3) for method in METHODS] * 2:
        assert np.array_equal(denoise(x, cfg, _block=record), denoise(x, cfg))


def test_a_records_kept_bands_are_read_only():
    # The bands a _Block keeps are read by each of the block's DWT methods,
    # so the record hands them out read-only: a shrink rule that wrote into
    # them would raise, not change a later method's output.
    x, bank = _batch(_MIXED), get_filter_bank("db4")
    record = _Block(None)
    bands, lengths, lowband = record.analysis(x, None, 3, bank)
    assert not bands.flags.writeable and not lowband.flags.writeable
    assert record.analysis(x, None, 3, bank)[0] is bands  # kept, not made again
    with pytest.raises(ValueError, match="read-only"):
        bands[0, 0] = 0.0
    # The epigraph rule shrinks read-only bands into a fresh array, leaves
    # them bit for bit as they were, and gives what it gives in place.
    before = bands.copy()
    shrunk = _epigraph_shrink(bands, lengths, x.shape[-1])
    assert not np.shares_memory(shrunk, bands)
    assert np.array_equal(bands.view(np.uint64), before.view(np.uint64))
    writable = before.copy()
    assert _epigraph_shrink(writable, lengths, x.shape[-1]) is writable
    assert np.array_equal(writable.view(np.uint64), shrunk.view(np.uint64))


