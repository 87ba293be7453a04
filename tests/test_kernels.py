"""Kernel parity: the vectorized numpy kernels against direct-definition loops.

Each oracle below is the textbook scalar loop for its quantity, written
out index by index; the public functions must agree with it, including
the wrap-around cases (bands shorter than the filter, FIR filters longer
than the signal) and magnitude sequences with zeros and ties.
"""

import math

import numpy as np
import pytest

from pes_denoise.projections import project_l1_ball
from pes_denoise.transforms import (
    BANK_NAMES,
    SubbandSet,
    _design_lowpass,
    dwt_analysis,
    dwt_synthesis,
    get_filter_bank,
)
from pes_denoise.transforms import _dwt_step, _idwt_step

from oracles import lowpass_filter


def dwt_step_loop(x, lo, hi):
    n = len(x)
    a = np.zeros(n // 2)
    d = np.zeros(n // 2)
    for k in range(n // 2):
        for j in range(len(lo)):
            v = x[(2 * k + j) % n]
            a[k] += lo[j] * v
            d[k] += hi[j] * v
    return a, d


def idwt_step_loop(a, d, lo, hi):
    n = 2 * len(a)
    y = np.zeros(n)
    for k in range(len(a)):
        for j in range(len(lo)):
            y[(2 * k + j) % n] += lo[j] * a[k] + hi[j] * d[k]
    return y


def circular_fir_loop(x, h):
    n = len(x)
    delay = (len(h) - 1) // 2
    y = np.zeros(n)
    for k in range(n):
        for j in range(len(h)):
            y[k] += h[j] * x[(k + delay - j) % n]
    return y


def l1_ball_core_loop(mu, d):
    """(rho, theta) of the sorted rule for descending magnitudes mu."""
    cs = 0.0
    rho = 0
    theta = 0.0
    for j in range(len(mu)):
        cs += mu[j]
        t = (cs - d) / (j + 1)
        if mu[j] - t > 0.0:
            rho = j + 1
            theta = t
    return rho, theta


def _lengths(bank):
    # n = taps gives bands of half the filter length, so every output wraps.
    return sorted({max(bank.taps, 2), 2 * bank.taps, 64})


@pytest.mark.parametrize("name", BANK_NAMES)
def test_dwt_analysis_matches_loop(name):
    bank = get_filter_bank(name)
    rng = np.random.default_rng(61)
    for n in _lengths(bank):
        x = rng.normal(size=n)
        bands = dwt_analysis(x, bank, 1)
        a, d = dwt_step_loop(x / math.sqrt(n), bank.analysis_lo, bank.analysis_hi)
        assert np.max(np.abs(bands.lowband - a)) < 1e-12
        assert np.max(np.abs(bands.details[0] - d)) < 1e-12


@pytest.mark.parametrize("name", BANK_NAMES)
def test_dwt_synthesis_matches_loop(name):
    bank = get_filter_bank(name)
    rng = np.random.default_rng(62)
    for n in _lengths(bank):
        a, d = rng.normal(size=n // 2), rng.normal(size=n // 2)
        y = dwt_synthesis(SubbandSet(lowband=a, details=[d]), bank)
        want = idwt_step_loop(a, d, bank.analysis_lo, bank.analysis_hi) * math.sqrt(n)
        assert np.max(np.abs(y - want)) < 1e-12


@pytest.mark.parametrize("name", BANK_NAMES)
def test_batched_steps_match_loops(name):
    # The synthesis step is a gather; the loop is the textbook scatter-add.
    # Bands of 1..3 coefficients wrap the filter around the output several times.
    bank = get_filter_bank(name)
    lo, hi = bank.analysis_lo, bank.analysis_hi
    rng = np.random.default_rng(66)
    for half in sorted({1, 2, 3, bank.taps // 2, 2 * bank.taps, 33}):
        a, d = rng.normal(size=(3, half)), rng.normal(size=(3, half))
        y = _idwt_step(a, d, lo.reshape(-1, 2), hi.reshape(-1, 2))
        assert y.shape == (3, 2 * half)
        x = rng.normal(size=(3, 2 * half))
        low, high = _dwt_step(x, bank.analysis_lo, bank.analysis_hi)
        for t in range(3):
            assert np.max(np.abs(y[t] - idwt_step_loop(a[t], d[t], lo, hi))) < 1e-12
            want_low, want_high = dwt_step_loop(x[t], bank.analysis_lo, bank.analysis_hi)
            assert np.max(np.abs(low[t] - want_low)) < 1e-12
            assert np.max(np.abs(high[t] - want_high)) < 1e-12


def test_lowpass_filter_matches_loop():
    rng = np.random.default_rng(63)
    for n, taps in ((256, 33), (255, 7), (1024, 129)):
        x = rng.normal(size=n)
        h = rng.normal(size=taps)  # asymmetric, so the shift direction matters
        assert np.max(np.abs(lowpass_filter(x, h) - circular_fir_loop(x, h))) < 1e-12
        h = _design_lowpass(np.pi / 4, taps)
        assert np.max(np.abs(lowpass_filter(x, h) - circular_fir_loop(x, h))) < 1e-12
        rows = np.stack([x, -2.0 * x[::-1]])
        got = lowpass_filter(rows, h)
        for row, y in zip(rows, got):
            assert np.max(np.abs(y - circular_fir_loop(row, h))) < 1e-12


@pytest.mark.parametrize("n", [16, 17, 48])
def test_lowpass_filter_wraps_taps_longer_than_signal(n):
    rng = np.random.default_rng(64 + n)
    x = rng.normal(size=n)
    for h in (_design_lowpass(np.pi / 8, 129), rng.normal(size=129)):
        y = lowpass_filter(x, h)
        assert y.shape == (n,)
        assert np.max(np.abs(y - circular_fir_loop(x, h))) < 1e-12


def test_l1_ball_rho_theta_match_loop():
    rng = np.random.default_rng(65)
    bands = [np.array([3.0, -3.0, 1.0, 0.0, 1.0, -1.0]), np.ones(8), np.array([2.0, 0.0, 0.0])]
    for size in (1, 2, 7, 65, 300):
        bands.append(rng.normal(size=size))
        bands.append(rng.integers(-3, 4, size=size).astype(float))  # zeros and ties
    checked = 0
    for w in bands:
        l1 = float(np.sum(np.abs(w)))
        for frac in (0.05, 0.3, 0.5, 0.9, 0.999):
            d = frac * l1
            if d == 0.0:
                continue
            ball = project_l1_ball(w, d)
            rho, theta = l1_ball_core_loop(np.sort(np.abs(w))[::-1], d)
            assert ball.rho == rho
            assert abs(ball.theta - theta) < 1e-12
            checked += 1
    assert checked > 50
