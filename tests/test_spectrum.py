"""Spectral bandwidth estimate and decomposition-depth selection."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pes_denoise.signals import SIGNAL_NAMES, NoiseSpec, add_gaussian_noise, generate_test_signal
from pes_denoise.spectrum import (
    MAX_LEVELS,
    _by_crossing,
    estimate_bandwidth,
    magnitude_spectrum,
    row_median,
    select_levels,
)


def test_magnitude_spectrum_peaks_at_tone_bin():
    n = 64
    x = np.cos(2 * np.pi * 8 * np.arange(n) / n)
    mag = magnitude_spectrum(x)
    assert mag.shape == (n // 2 + 1,)
    assert int(np.argmax(mag)) == 8
    assert np.max(np.abs(magnitude_spectrum(np.zeros(n)))) == 0.0


def test_magnitude_spectrum_parseval():
    rng = np.random.default_rng(41)
    x = rng.normal(size=256)
    mag = magnitude_spectrum(x)
    # rfft keeps half the spectrum: double the shared interior bins
    total = mag[0] ** 2 + mag[-1] ** 2 + 2.0 * np.sum(mag[1:-1] ** 2)
    ref = x.size * np.sum(x**2)
    assert abs(total - ref) / ref < 1e-9


def test_magnitude_spectrum_rejects_short_input():
    with pytest.raises(ValueError):
        magnitude_spectrum(np.ones(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_magnitude_spectrum_rejects_non_finite_input(bad):
    for x in (np.ones(64), np.ones((3, 64))):
        x[..., 5] = bad
        # Refused before the FFT, which would warn on an infinite sample.
        with np.errstate(all="raise"), pytest.raises(ValueError, match="NaN or infinite"):
            magnitude_spectrum(x)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.one_of(
        st.tuples(st.integers(1, 2000)),
        st.tuples(st.integers(1, 5), st.integers(1, 2000)),
    ),
    ties=st.booleans(),
)
@example(seed=0, shape=(3, 1000), ties=True)
@example(seed=1, shape=(1001,), ties=False)
# Here the partition leaves a row's lower middle off rank k/2 - 1.
@example(seed=72, shape=(3, 1000), ties=False)
def test_row_median_equals_np_median_bit_for_bit(seed, shape, ties):
    # Rows long enough that the partition leaves them unsorted; zeros and
    # ties, or signed values of any magnitude.  No -0.0, whose sign the two
    # may round differently.
    rng = np.random.default_rng(seed)
    if ties:
        a = 0.5 * rng.integers(-2, 3, size=shape)
    else:
        a = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300)
    got, want = row_median(a), np.median(a, axis=-1)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def test_select_levels_refuses_complex_input():
    with pytest.raises(ValueError, match="complex"):
        select_levels(np.ones(64) + 1j)


def test_select_levels_refuses_an_overflowing_spectrum():
    # Finite samples whose rfft would overflow are refused by their size,
    # before the FFT.
    with np.errstate(all="raise"), pytest.raises(ValueError, match="samples too large"):
        select_levels(np.full(256, 1e307))


def _row(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, rng.normal())
    clean = generate_test_signal(kind, n)
    return add_gaussian_noise(clean, NoiseSpec(float(rng.uniform(0.01, 1.0)), seed=int(rng.integers(2**32))))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["zero", "constant", *SIGNAL_NAMES]), min_size=1, max_size=5),
    n=st.integers(16, 1100),
    batch=st.booleans(),
)
def test_select_levels_is_the_estimates_depth(seed, kinds, n, batch):
    # Both entry points share one core behind their own checks.
    rng = np.random.default_rng(seed)
    x = np.stack([_row(rng, kind, n) for kind in kinds]) if batch else _row(rng, kinds[0], n)
    got = select_levels(x)
    want = estimate_bandwidth(magnitude_spectrum(x)).levels
    if batch:
        assert isinstance(got, np.ndarray) and got.dtype.kind == "i" and got.shape == (len(kinds),)
        assert np.array_equal(got, want)
    else:
        assert type(got) is int and got == want


def test_depth_hand_cases():
    # m = 513 bins: crossing c reads omega0 = c*pi/512.
    levels = _by_crossing(513)[1]
    assert levels[58] == 3  # pi/8 > omega0 >= pi/16
    assert levels[128] == 1  # strict: pi/4 is NOT > pi/4
    assert levels[1] == 6  # capped at MAX_LEVELS


# With m - 1 = 2^k * j, each cutoff pi/2^L with L <= k lies exactly on bin
# (m - 1)/2^L, between two neighbours in the table.
@settings(max_examples=100, deadline=None)
@given(m=st.integers(9, 2999))
@example(m=17)  # pi/32 and pi/64 lie below the first bin, pi/16
@example(m=193)
@example(m=513)
@example(m=2049)
def test_depth_matches_brute_force(m):
    omega0, levels, degenerate = _by_crossing(m)
    for crossing in range(m + 1):
        w = omega0[crossing]
        brute = max([L for L in range(1, 7) if math.pi / 2**L > w], default=1)
        assert levels[crossing] == (MAX_LEVELS if crossing == 0 else brute)
        assert degenerate[crossing] == (crossing == 0 or math.pi / 2 ** levels[crossing] <= w)


def _half_spectrum(rng: np.random.Generator, kind: str, m: int) -> np.ndarray:
    if kind == "noise":
        return rng.rayleigh(size=m)
    if kind == "ties":  # small integers: zeros and tied bins
        return rng.integers(0, 4, size=m).astype(float)
    if kind == "plateau":
        return np.where(np.arange(m) < rng.integers(1, m), 20.0, 1.0)
    if kind == "nyquist":
        return np.where(np.arange(m) >= m - rng.integers(1, m), 20.0, 1.0)
    return np.full(m, float(kind == "flat"))  # "flat", or "zero"


_KINDS = ["noise", "ties", "plateau", "nyquist", "flat", "zero"]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6),
    m=st.integers(9, 300),
)
def test_batch_estimate_equals_row_by_row(seed, kinds, m):
    rng = np.random.default_rng(seed)
    mag = np.stack([_half_spectrum(rng, kind, m) for kind in kinds])
    batch = estimate_bandwidth(mag)
    for field in ("omega0", "noise_floor", "levels", "degenerate"):
        assert getattr(batch, field).shape == (len(kinds),)
    for t, row in enumerate(mag):
        one = estimate_bandwidth(row)
        assert type(one.omega0) is float and type(one.noise_floor) is float
        assert type(one.levels) is int and type(one.degenerate) is bool
        assert one.omega0 == batch.omega0[t] and one.noise_floor == batch.noise_floor[t]
        assert one.levels == batch.levels[t] and one.degenerate == batch.degenerate[t]


def test_estimate_bandwidth_synthetic_plateau():
    # 513 bins, bins 0..29 at 20, rest at 1.  With the 9-bin window the
    # last smoothed bin seeing a high sample is 33 ((20+8)/9 = 3.11 >= 3
    # = ALPHA times the floor), so the crossing lands at 34.
    mag = np.ones(513)
    mag[:30] = 20.0
    est = estimate_bandwidth(mag)
    assert abs(est.noise_floor - 1.0) < 1e-12
    assert abs(est.omega0 - math.pi * 34 / 512) < 1e-15
    assert est.levels == 3
    assert not est.degenerate


def test_estimate_bandwidth_scale_invariant():
    mag = np.ones(513)
    mag[:30] = 20.0
    a = estimate_bandwidth(mag)
    b = estimate_bandwidth(7.25 * mag)
    assert b.omega0 == a.omega0 and b.levels == a.levels
    assert abs(b.noise_floor - 7.25 * a.noise_floor) < 1e-12


@pytest.mark.parametrize(
    "call, shape",
    [
        (select_levels, (0, 64)),
        (estimate_bandwidth, (0, 40)),
        (magnitude_spectrum, ()),
        (select_levels, ()),
        (estimate_bandwidth, ()),
        (magnitude_spectrum, (2, 0, 64)),
    ],
)
def test_empty_and_0d_input_is_refused_by_its_shape(call, shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        call(np.full(shape, 3.0))


def test_estimate_bandwidth_validation():
    for bad in (np.nan, np.inf):
        mag, x = np.ones((2, 513)), np.ones(64)
        mag[1, 7] = x[5] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            estimate_bandwidth(mag)
        with pytest.raises(ValueError, match="NaN or infinite"):
            select_levels(x)
    with pytest.raises(ValueError, match="half spectrum of shape"):
        estimate_bandwidth(np.ones((2, 3, 513)))


def test_white_noise_is_degenerate_deepest():
    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=1024)
        est = estimate_bandwidth(magnitude_spectrum(x))
        assert est.degenerate
        assert est.levels == 6


def test_flat_spectrum_never_crosses_own_floor():
    # uniform magnitudes sit at the floor, never at 3x the floor
    est = estimate_bandwidth(20.0 * np.ones(513))
    assert est.degenerate and est.levels == 6


def test_content_at_nyquist_is_degenerate_shallow():
    mag = np.ones(513)
    mag[-10:] = 20.0  # strong content touching the last bin
    est = estimate_bandwidth(mag)
    assert est.degenerate and est.levels == 1 and est.omega0 == math.pi


def test_noisy_signals_are_not_degenerate():
    for name in ("blocks", "heavy-sine", "doppler", "bumps", "piece-regular", "cusp"):
        for seed in range(3):
            y = add_gaussian_noise(generate_test_signal(name, 1024), NoiseSpec(0.2, seed=seed))
            est = estimate_bandwidth(magnitude_spectrum(y))
            assert not est.degenerate
            assert math.pi / 2**est.levels > est.omega0


def test_piece_regular_picks_three_levels():
    # smaller rehearsal of the acceptance sweep
    clean = generate_test_signal("piece-regular", 512)
    for frac in (0.1, 0.2, 0.3):
        for seed in range(15):
            y = add_gaussian_noise(clean, NoiseSpec(frac, seed=seed))
            assert select_levels(y) == 3
