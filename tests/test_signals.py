"""Test-signal generators, noise injection, and SNR accounting."""

import math

import numpy as np
import pytest

from pes_denoise.signals import (
    NoiseSpec,
    _noise_sigma,
    add_gaussian_noise,
    generate_test_signal,
    signal_to_csv,
    snr_db,
)

ALL_NAMES = ("blocks", "heavy-sine", "doppler", "bumps", "piece-regular", "cusp")


def test_generators_are_deterministic():
    for name in ALL_NAMES:
        a = generate_test_signal(name, 256)
        b = generate_test_signal(name, 256)
        assert a.shape == (256,) and a.dtype == np.float64
        assert np.array_equal(a, b)


def test_name_normalization_and_validation():
    assert np.array_equal(
        generate_test_signal("Heavy_Sine", 64), generate_test_signal("heavy-sine", 64)
    )
    with pytest.raises(ValueError):
        generate_test_signal("chirp", 64)
    with pytest.raises(ValueError):
        generate_test_signal("blocks", 8)
    for n in (20.5, 64.0, True):
        with pytest.raises(ValueError, match="signal length must be an integer"):
            generate_test_signal("blocks", n)


def test_blocks_has_eleven_jumps():
    v = generate_test_signal("blocks", 2048)
    assert v[0] == 0.0
    assert int(np.count_nonzero(np.diff(v))) == 11


def test_heavy_sine_anchor_values():
    v = generate_test_signal("heavy-sine", 1024)
    assert v[0] == 0.0
    # sinusoid plus two unit drops: range stays within [-6, 6]
    assert np.max(np.abs(v)) <= 6.0  # -6 hit exactly at t=3/8


def test_cusp_minimum_location():
    for n in (512, 1024):
        v = generate_test_signal("cusp", n)
        assert int(np.argmin(v)) == round(0.37 * n)
        assert np.all(v >= 0.0)


def test_doppler_endpoints_and_bumps_positivity():
    d = generate_test_signal("doppler", 512)
    assert d[0] == 0.0
    assert np.max(np.abs(d)) <= 0.5 + 1e-12
    b = generate_test_signal("bumps", 512)
    assert np.all(b >= 0.0) and b.max() > 1.0


def test_piece_regular_frozen_peak():
    v = generate_test_signal("piece-regular", 512)
    assert abs(float(v.max()) - 62.99025060086235) < 1e-9
    assert int(np.argmax(v)) == 449  # inside the late oscillatory burst
    # small lengths still work (ramp half-width shrinks instead of wrapping)
    generate_test_signal("piece-regular", 16)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(amplitude_fraction=0.0, seed=0)
    with pytest.raises(ValueError):
        NoiseSpec(amplitude_fraction=1.5, seed=0)
    with pytest.raises(ValueError):
        NoiseSpec(amplitude_fraction=0.2, seed=-1)
    # A bool is neither a fraction nor a seed, though it compares as 0 or 1.
    for seed in (1.5, True, np.float64(2.0)):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            NoiseSpec(amplitude_fraction=0.2, seed=seed)
    with pytest.raises(ValueError, match="noise fraction must be in"):
        NoiseSpec(amplitude_fraction=True)
    assert NoiseSpec(0.2, seed=np.int64(3)).seed == 3


def test_noise_sigma_uses_signed_peak():
    v = generate_test_signal("heavy-sine", 512)
    assert _noise_sigma(v, 0.2) == 0.2 * np.max(v)
    # all-negative signal falls back to the absolute peak, sigma stays positive
    w = -generate_test_signal("bumps", 512)
    assert _noise_sigma(w, 0.1) == 0.1 * np.max(np.abs(w))


def test_add_noise_deterministic_per_seed():
    v = generate_test_signal("doppler", 256)
    a = add_gaussian_noise(v, NoiseSpec(amplitude_fraction=0.2, seed=7))
    b = add_gaussian_noise(v, NoiseSpec(amplitude_fraction=0.2, seed=7))
    c = add_gaussian_noise(v, NoiseSpec(amplitude_fraction=0.2, seed=8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_add_noise_rejects_flat_zero_signal():
    with pytest.raises(ValueError):
        add_gaussian_noise(np.zeros(64), NoiseSpec(amplitude_fraction=0.2, seed=0))


def test_noise_matches_requested_sigma():
    v = generate_test_signal("heavy-sine", 1024)
    target = _noise_sigma(v, 0.2)
    residuals = np.concatenate(
        [add_gaussian_noise(v, NoiseSpec(amplitude_fraction=0.2, seed=s)) - v for s in range(100)]
    )
    assert abs(residuals.std() - target) / target < 0.05
    assert abs(residuals.mean()) < 0.02 * target


def test_snr_hand_values():
    assert snr_db(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.0
    assert snr_db(np.array([3.0, 4.0]), np.array([3.0, 4.5])) == 20.0
    assert snr_db(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == math.inf


def test_snr_validation_and_monotonicity():
    with pytest.raises(ValueError):
        snr_db(np.ones(4), np.ones(5))
    with pytest.raises(ValueError):
        snr_db(np.zeros(4), np.ones(4))
    ref = generate_test_signal("blocks", 256)
    near = ref + 0.01
    far = ref + 0.1
    assert snr_db(ref, near) > snr_db(ref, far)


def test_signal_csv_roundtrip(tmp_path):
    v = generate_test_signal("piece-regular", 128)
    path = tmp_path / "sig.csv"
    path.write_text(signal_to_csv(v))
    assert np.array_equal(np.array([float(line) for line in path.read_text().splitlines()]), v)
