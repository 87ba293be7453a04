"""Bandwidth estimation from the Fourier magnitude and level selection.

The decomposition depth L is the largest one, up to MAX_LEVELS, with
pi/2^L strictly above the observed signal bandwidth omega0.  The
bandwidth is read off the magnitude spectrum, smoothed by a moving
average over SMOOTH_WINDOW bins: the top quarter of the band is treated
as noise-dominated, its median sets the noise floor, and omega0 is the
lowest frequency above which the smoothed magnitude never exceeds ALPHA
times that floor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .transforms import _as_real, default_cutoffs

ALPHA = 3.0
SMOOTH_WINDOW = 9
MAX_LEVELS = 6
_CUTOFFS = np.array(default_cutoffs(MAX_LEVELS))  # pi/2^L, L = 1..MAX_LEVELS
_KERNEL = np.ones(SMOOTH_WINDOW) / SMOOTH_WINDOW  # _smooth's moving average
MIN_SAMPLES = 16  # the shortest signal, whose finest DWT band holds estimate_sigma's 8 values
# Length-n samples are refused from max|x| >= _MAX_MASS / n: below it no rfft
# bin (at most n*max|x|) and no band's l1 mass (about 2n*max|x|) overflows.
_MAX_MASS = 2.0**1020


@dataclass(frozen=True)
class BandwidthEstimate:
    """Scalars for one half spectrum; for a (T, m) batch, one array entry per row."""

    omega0: float | np.ndarray
    noise_floor: float | np.ndarray
    levels: int | np.ndarray
    degenerate: bool | np.ndarray = False


def _samples(x) -> np.ndarray:
    """The sample rule: x as a float array if it is real, one signal (n,) or a
    batch (T, n) with T >= 1 and n >= MIN_SAMPLES, and every sample is finite
    and below 2^1020/n in magnitude; ValueError otherwise."""
    x = _as_real(x)
    if x.ndim not in (1, 2) or x.size == 0 or x.shape[-1] < MIN_SAMPLES:
        raise ValueError(
            f"expected one signal (n,) or a batch (T, n) with T >= 1 and n >= {MIN_SAMPLES}, "
            f"got shape {x.shape}"
        )
    n = x.shape[-1]
    peak, bound = np.maximum.reduce(np.abs(x), axis=None), _MAX_MASS / n
    if not peak < bound:
        if not math.isfinite(peak):
            raise ValueError("input contains NaN or infinite samples")
        raise ValueError(
            f"samples too large: max|x| = {peak:.6g} must stay below 2^1020/n = {bound:.6g} "
            f"at n = {n}, or the spectrum and the band sums could overflow"
        )
    return x


def magnitude_spectrum(x: np.ndarray) -> np.ndarray:
    """|DFT| at bins 0..N/2 along the last axis (real-input half spectrum)
    of one signal (N,) or a batch (T, N); bin k <-> 2*pi*k/N.  x must
    pass the sample rule, _samples."""
    return np.abs(np.fft.rfft(_samples(x), axis=-1))


def row_median(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=-1), bit for bit where a holds no -0.0: the middle
    order statistic of each row for an odd length, else the mean of the two
    middle ones.  One partition of a copy puts the upper middle in place,
    and the lower middle is the largest entry below it."""
    k = a.shape[-1]
    part = a.copy()
    part.partition(k // 2, axis=-1)
    upper = part.take(k // 2, axis=-1)
    if k % 2:
        return upper
    return (np.maximum.reduce(part[..., : k // 2], axis=-1) + upper) / 2


def _smooth(mag: np.ndarray) -> np.ndarray:
    """SMOOTH_WINDOW-bin moving average along each row of a (T, m) array,
    edges reflected."""
    h = SMOOTH_WINDOW // 2
    if mag.shape[-1] <= h:
        raise ValueError(f"need more than {h} spectrum bins for a {SMOOTH_WINDOW}-bin window")
    padded = np.concatenate([mag[:, h:0:-1], mag, mag[:, -2:-h - 2:-1]], axis=-1)
    return np.array([np.convolve(row, _KERNEL, mode="valid") for row in padded])


@functools.lru_cache(maxsize=64)
def _by_crossing(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """omega0, depth and degenerate flag of an m-bin half spectrum for each
    crossing 0..m, one past the last bin that clears the floor.  Tabulated
    once per length, since a handful of ufuncs per call dominates at T=1."""
    crossing = np.arange(m + 1)
    omega0 = np.where(crossing >= m - 1, math.pi, math.pi * np.maximum(crossing, 1) / (m - 1))
    # The depth is how many cutoffs lie strictly above omega0, and at least 1.
    depth = np.maximum(1, np.count_nonzero(_CUTOFFS > omega0[:, None], axis=-1))
    levels = np.where(crossing == 0, MAX_LEVELS, depth)
    return omega0, levels, (crossing == 0) | (_CUTOFFS[levels - 1] <= omega0)


def _crossings(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Noise floor and crossing of each row of a half spectrum of shape (m,)
    or (T, m), as (T,) arrays: the crossing is one past the last bin whose
    smoothed magnitude clears ALPHA times the floor, 0 when none does.

    It checks the shape of estimate_bandwidth's spectrum, not its values,
    which estimate_bandwidth checks; select_levels's samples passed
    _samples, whose size bound keeps their spectrum finite.
    """
    if mag.ndim not in (1, 2) or mag.size == 0:
        raise ValueError(
            f"expected a nonempty half spectrum of shape (m,) or (T, m), got shape {mag.shape}"
        )
    smoothed = _smooth(mag[None] if mag.ndim == 1 else mag)
    m = smoothed.shape[-1]
    noise_floor = row_median(smoothed[:, (3 * m) // 4:])
    above = smoothed >= ALPHA * noise_floor[:, None]
    crossing = np.logical_or.reduce(above, axis=-1) * (m - above[:, ::-1].argmax(axis=-1))
    return noise_floor, crossing


def estimate_bandwidth(mag: np.ndarray) -> BandwidthEstimate:
    """Bandwidth and depth from a half spectrum of shape (m,) or (T, m).

    A row where nothing clears the floor gets the first bin and MAX_LEVELS,
    and one that clears it up to the Nyquist bin gets omega0 = pi and depth
    1; both are flagged degenerate, as is any depth not above omega0.
    """
    mag = _as_real(mag)
    if not np.logical_and.reduce(np.isfinite(mag), axis=None):
        raise ValueError("half spectrum contains NaN or infinite values")
    noise_floor, crossing = _crossings(mag)
    omega0, levels, degenerate = (table[crossing] for table in _by_crossing(mag.shape[-1]))
    fields = (omega0, noise_floor, levels, degenerate)
    return BandwidthEstimate(*(field.item() for field in fields) if mag.ndim == 1 else fields)


def select_levels(x: np.ndarray) -> int | np.ndarray:
    """Decomposition depth for a (noisy) signal, straight from its spectrum:
    an int for a 1-D signal, an int array with one per row for a (T, n) array.
    It is estimate_bandwidth(magnitude_spectrum(x)).levels, so x must pass
    the sample rule, _samples."""
    mag = magnitude_spectrum(x)
    levels = _by_crossing(mag.shape[-1])[1][_crossings(mag)[1]]
    return levels.item() if mag.ndim == 1 else levels
