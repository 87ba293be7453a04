"""Bandwidth estimation from the Fourier magnitude and level selection.

The decomposition depth L is chosen so that pi/2^L stays above the
observed signal bandwidth omega0.  The bandwidth is read off the
smoothed magnitude spectrum: the top quarter of the band is treated as
noise-dominated, its median sets the noise floor, and omega0 is the
lowest frequency above which the smoothed magnitude never exceeds
alpha times that floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_ALPHA = 3.0
DEFAULT_SMOOTH_WINDOW = 9
DEFAULT_MAX_LEVELS = 6


@dataclass(frozen=True)
class BandwidthEstimate:
    omega0: float
    noise_floor: float
    levels: int
    degenerate: bool = False


def magnitude_spectrum(x: np.ndarray) -> np.ndarray:
    """|DFT| at bins 0..N/2 along the last axis (real-input half spectrum);
    bin k <-> 2*pi*k/N."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 16:
        raise ValueError(f"need at least 16 samples along the last axis, got {x.shape[-1]}")
    return np.abs(np.fft.rfft(x, axis=-1))


def row_median(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=-1), bit for bit: the mean of the two middle
    order statistics of each row (one and the same for an odd length),
    found by one partition instead of the full median machinery."""
    k = a.shape[-1]
    lo, hi = (k - 1) // 2, k // 2
    part = np.partition(a, sorted({lo, hi}), axis=-1)
    return (part[..., lo] + part[..., hi]) / 2


def _smooth(mag: np.ndarray, window: int) -> np.ndarray:
    """Moving average along each row of a (T, m) array, edges reflected."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"smooth window must be a positive odd integer, got {window}")
    h = window // 2
    if mag.shape[-1] <= h:
        raise ValueError(f"need more than {h} spectrum bins for a {window}-bin window")
    padded = np.concatenate([mag[:, h:0:-1], mag, mag[:, -2:-h - 2:-1]], axis=-1)
    kernel = np.ones(window) / window
    return np.array([np.convolve(row, kernel, mode="valid") for row in padded])


def levels_for_bandwidth(omega0: float, max_levels: int = DEFAULT_MAX_LEVELS) -> int:
    """Largest L in [1, max_levels] with pi/2^L strictly above omega0."""
    if not 0.0 < omega0 < math.pi:
        raise ValueError(f"omega0 must lie in (0, pi), got {omega0}")
    levels = int(math.floor(math.log2(math.pi / omega0)))
    while math.pi / (1 << max(levels, 0)) <= omega0:
        levels -= 1
    return max(1, min(max_levels, levels))


def _estimate_rows(
    mag: np.ndarray, alpha: float, smooth_window: int, max_levels: int
) -> list[BandwidthEstimate]:
    """One estimate per row of a (T, m) half spectrum."""
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    smoothed = _smooth(mag, smooth_window)
    m = smoothed.shape[-1]
    noise_floors = row_median(smoothed[:, (3 * m) // 4:])
    above = smoothed >= alpha * noise_floors[:, None]
    # One past the last bin that clears the floor, 0 when none does.
    crossings = np.where(above.any(axis=-1), m - np.argmax(above[:, ::-1], axis=-1), 0)
    estimates = []
    for crossing, noise_floor in zip(crossings.tolist(), noise_floors.tolist()):
        if crossing == 0:
            # Nothing clears the floor criterion: report the first bin and
            # the deepest decomposition, flagged.
            estimates.append(
                BandwidthEstimate(math.pi / (m - 1), noise_floor, max_levels, degenerate=True)
            )
        elif crossing >= m - 1:
            # Magnitude stays above the floor to the Nyquist bin: no L >= 1
            # can satisfy pi/2^L > omega0.
            estimates.append(BandwidthEstimate(math.pi, noise_floor, 1, degenerate=True))
        else:
            omega0 = math.pi * crossing / (m - 1)
            levels = levels_for_bandwidth(omega0, max_levels)
            degenerate = math.pi / (1 << levels) <= omega0
            estimates.append(BandwidthEstimate(omega0, noise_floor, levels, degenerate))
    return estimates


def estimate_bandwidth(
    mag: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
    smooth_window: int = DEFAULT_SMOOTH_WINDOW,
    max_levels: int = DEFAULT_MAX_LEVELS,
) -> BandwidthEstimate:
    """Bandwidth and depth from one half spectrum (1-D ``mag``)."""
    mag = np.asarray(mag, dtype=float)
    return _estimate_rows(mag[None, :], alpha, smooth_window, max_levels)[0]


def select_levels(
    x: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
    smooth_window: int = DEFAULT_SMOOTH_WINDOW,
    max_levels: int = DEFAULT_MAX_LEVELS,
) -> int | np.ndarray:
    """Decomposition depth for a (noisy) signal, straight from its spectrum.

    An int for a 1-D signal; for a (T, n) array, an int array with one
    depth per row.
    """
    x = np.asarray(x, dtype=float)
    rows = _estimate_rows(
        magnitude_spectrum(np.atleast_2d(x)), alpha, smooth_window, max_levels
    )
    levels = np.array([estimate.levels for estimate in rows])
    return int(levels[0]) if x.ndim == 1 else levels
