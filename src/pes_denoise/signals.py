"""Test-signal generators, calibrated Gaussian noise, and the SNR metric.

The generators are the classic piecewise test waveforms used throughout
the sparsity/denoising literature (blocks, heavy sine, doppler, bumps,
cusp) plus a tuned piecewise-regular signal whose spectrum has a clean
bandwidth edge, which the level-selection heuristics key off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import MIN_SAMPLES, _samples
from .transforms import _as_real, _check_integer

_BREAKPOINTS = [0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81]
_BLOCK_STEPS = [4, -5, 3, -4, 5, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2]
_BUMP_HEIGHTS = [4, 5, 3, 4, 5, 4.2, 2.1, 4.3, 3.1, 2.1, 4.2]
_BUMP_WIDTHS = [0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005]
_SMOOTH_BUMP_MIN_WIDTH = 0.015  # _smooth_bumps' width floor


def _blocks(n: int) -> np.ndarray:
    t = np.arange(n) / n
    v = np.zeros(n)
    for p, h in zip(_BREAKPOINTS, _BLOCK_STEPS):
        v += h * (t >= p)
    return v


def _bumps(n: int) -> np.ndarray:
    t = np.arange(n) / n
    v = np.zeros(n)
    for p, h, w in zip(_BREAKPOINTS, _BUMP_HEIGHTS, _BUMP_WIDTHS):
        v += h / (1 + np.abs((t - p) / w)) ** 4
    return v


def _heavy_sine(n: int) -> np.ndarray:
    t = np.arange(n) / n
    return 4 * np.sin(4 * np.pi * t) - np.sign(t - 0.3) - np.sign(0.72 - t)


def _doppler(n: int) -> np.ndarray:
    t = np.arange(n) / n
    return np.sqrt(t * (1 - t)) * np.sin(2 * np.pi * 1.05 / (t + 0.05))


def _cusp(n: int) -> np.ndarray:
    t = np.arange(n) / n
    return np.sqrt(np.abs(t - 0.37))


def _smooth_bumps(n: int) -> np.ndarray:
    # Same bump layout as _bumps but with a smooth rational kernel and a
    # width floor, so the spectral tail decays fast enough to expose a
    # crisp bandwidth edge.
    t = np.arange(n) / n
    v = np.zeros(n)
    for p, h, w in zip(_BREAKPOINTS, _BUMP_HEIGHTS, _BUMP_WIDTHS):
        v += h / (1 + ((t - p) / max(w, _SMOOTH_BUMP_MIN_WIDTH)) ** 2) ** 2
    return v


def _piece_regular(n: int) -> np.ndarray:
    """Piecewise-regular test signal.

    Sections: a deep Gaussian well with cosine-smoothed gain steps, an
    inverted smooth-bump stretch, mirrored exponential ramps, and a
    Gabor-like burst near the end.  The burst fixes the usable bandwidth
    so the level chosen from the spectrum is stable across noise draws.
    """
    n7, n5, n3, n2 = n // 7, n // 5, n // 3, n // 2
    t3 = np.arange(1, n3 + 1) / n3
    well = -70 * np.exp(-((t3 - 0.5) ** 2) / (2 * (6 / 40) ** 2))
    t7 = np.arange(1, n7 + 1) / n7
    ramp = -np.exp(4 * t7)

    v = np.zeros(n)
    v[:n3] = well
    gain = np.ones(n3)
    half_width = max(1, min(4, n7 // 2))
    for j, (a, b) in ((n7, (1.0, 0.5)), (n5, (0.5, 1.0))):
        lo, hi = j - half_width, j + half_width
        u = (np.arange(lo, hi) - lo) / (2 * half_width)
        gain[lo:hi] = a + (b - a) * 0.5 * (1 - np.cos(np.pi * u))
        gain[hi:] = b
    v[:n3] *= gain
    v[n3:n2] = (-15 * _smooth_bumps(n))[n3:n2]
    v[n2:n2 + n7] = ramp
    v[n2 + n7:n2 + 2 * n7] = ramp[::-1]

    u = np.arange(n) / n - 0.87
    envelope = np.exp(-(u ** 2) / (2 * 0.08 ** 2))
    v += 40.0 * envelope * (np.cos(2 * np.pi * 17.0 * u) + np.sin(2 * np.pi * 23.0 * u))
    return v


_GENERATORS = {
    "blocks": _blocks,
    "heavy-sine": _heavy_sine,
    "piece-regular": _piece_regular,
    "cusp": _cusp,
    "doppler": _doppler,
    "bumps": _bumps,
}

SIGNAL_NAMES = tuple(_GENERATORS)


def _generator(name: str):
    """The generator of a signal name, or ValueError naming the choices."""
    try:
        return _GENERATORS[name.strip().lower().replace("_", "-")]
    except KeyError:
        raise ValueError(f"unknown signal {name!r}; choose from {', '.join(SIGNAL_NAMES)}") from None


def generate_test_signal(name: str, n: int) -> np.ndarray:
    """Return the named test signal at length n (deterministic)."""
    _check_integer("n", n, MIN_SAMPLES)
    return _generator(name)(n)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level as a fraction of the signal's peak, plus an RNG seed."""

    amplitude_fraction: float
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.amplitude_fraction, bool) or not 0.0 < self.amplitude_fraction <= 1.0:
            raise ValueError(f"noise fraction must be in (0, 1], got {self.amplitude_fraction}")
        _check_integer("seed", self.seed, 0)


def _noise_sigma(v: np.ndarray, amplitude_fraction: float) -> float:
    """Noise standard deviation for a clean signal at the given fraction.

    The scale is the positive peak max(v); for signals without one the
    absolute peak is used so sigma stays positive.
    """
    peak = float(np.max(v))
    if peak <= 0.0:
        peak = float(np.max(np.abs(v)))
    return amplitude_fraction * peak


def _unit_noise(seed: int, n: int) -> np.ndarray:
    """The n standard normal samples (PCG64 ziggurat) that seed draws."""
    return np.random.default_rng(seed).standard_normal(n)


def add_gaussian_noise(v: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Corrupt v with i.i.d. zero-mean Gaussian noise: v + sigma * z, with
    sigma = spec.amplitude_fraction times v's positive peak max(v) (its
    absolute peak when max(v) <= 0) and z the standard normal samples
    (PCG64 ziggurat) that spec.seed draws.  v is one signal (n,) that
    passes the sample rule, _samples."""
    v = _samples(v)
    if v.ndim != 1:
        raise ValueError(f"expected one signal (n,), got shape {v.shape}")
    if not np.any(v):
        raise ValueError("cannot scale noise to an all-zero signal")
    return v + _noise_sigma(v, spec.amplitude_fraction) * _unit_noise(spec.seed, v.shape[0])


def snr_db(reference: np.ndarray, estimate: np.ndarray) -> float | np.ndarray:
    """20*log10(||reference|| / ||reference - estimate||) along the last axis.

    A float for 1-D input.  For a (T, n) estimate, one value per row; the
    reference is then (T, n) or one (n,) signal shared by every row.  An
    exact match gives +inf.
    """
    reference = _as_real(reference)
    estimate = _as_real(estimate)
    if estimate.ndim not in (1, 2) or reference.shape not in (estimate.shape, estimate.shape[-1:]):
        raise ValueError(f"length mismatch: {reference.shape} vs {estimate.shape}")
    # Norms along the last axis, with no temporary of the squares.
    ref_norm = np.sqrt(np.einsum("...i,...i->...", reference, reference))
    if np.any(ref_norm == 0.0):
        raise ValueError("reference signal is identically zero")
    err = reference - estimate
    err_norm = np.sqrt(np.einsum("...i,...i->...", err, err))
    with np.errstate(divide="ignore"):
        snr = 20.0 * np.log10(ref_norm / err_norm)
    return float(snr) if estimate.ndim == 1 else snr


def signal_to_csv(samples: np.ndarray) -> str:
    """One sample per line, full round-trip precision."""
    return "".join(repr(float(s)) + "\n" for s in samples)
