"""Dyadic wavelet analysis/synthesis and the subtractive pyramid.

Every transform works along the last axis, so a (T, n) array is T
signals transformed at once and a 1-D signal is the case T = 1.

Wavelet side: orthonormal two-channel banks applied as periodic
correlation (analysis) and its adjoint (synthesis), which gives exact
perfect reconstruction and Parseval energy bookkeeping.  The input is
divided by sqrt(N) on analysis and the factor is undone on synthesis, so
subband coefficients live in a scale where thresholds are comparable
across signal lengths while the public API stays scale-transparent.

Pyramid side: each stage lowpass-filters the previous lowband with a
zero-phase windowed-sinc FIR and defines the highband by subtraction,
making every stage additive sample-for-sample.  Since the stages are a
cascade of circular filters, every lowband comes from the input's one
rfft times the product of the stage kernel spectra up to that stage.
The analysis (_split_pyramid) and the synthesis (_join_pyramid, the
deepest lowband plus the highbands, coarsest first) are each written
once: pyramid_analysis and pyramid_synthesis run them on fresh arrays,
and denoise on its workspace band stack, each highband in place of its
stage's lowband.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FilterBank:
    name: str
    analysis_lo: np.ndarray
    analysis_hi: np.ndarray

    @property
    def taps(self) -> int:
        return int(self.analysis_lo.shape[0])


def _as_real(x) -> np.ndarray:
    """x as a float array; ValueError for complex x, whose imaginary part a
    float cast would drop.  The test is np.iscomplexobj's, without its
    Python wrapper."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ValueError("input must be real, got complex samples")
    return x.astype(float, copy=False)


def _check_integer(name: str, value, least: int) -> None:
    """ValueError unless value is an integer >= least: an int or a numpy
    integer, not a bool.  numbers.Integral's ABC check would add two
    Python-level calls to each dwt_analysis."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _qmf_highpass(lo: np.ndarray) -> np.ndarray:
    """Quadrature-mirror highpass: hi[k] = (-1)^k * lo[M-1-k]."""
    m = lo.shape[0]
    return np.array([(-1) ** k * lo[m - 1 - k] for k in range(m)])


def _orthonormal_bank(name: str, lo) -> FilterBank:
    lo = np.asarray(lo, dtype=float)
    return FilterBank(name, lo, _qmf_highpass(lo))


_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)

_BANKS = {
    "haar": _orthonormal_bank("haar", [_SQRT2 / 2, _SQRT2 / 2]),
    "db4": _orthonormal_bank(
        "db4",
        [
            (1 + _SQRT3) / (4 * _SQRT2),
            (3 + _SQRT3) / (4 * _SQRT2),
            (3 - _SQRT3) / (4 * _SQRT2),
            (1 - _SQRT3) / (4 * _SQRT2),
        ],
    ),
    # Near-symmetric 10-tap pair; taps entered literally.
    "farras": _orthonormal_bank(
        "farras",
        [
            0.0,
            -0.08838834764832,
            0.08838834764832,
            0.69587998903400,
            0.69587998903400,
            0.08838834764832,
            -0.08838834764832,
            0.01122679215254,
            0.01122679215254,
            0.0,
        ],
    ),
}

BANK_NAMES = tuple(_BANKS)
DEFAULT_BANK = "db4"
DEFAULT_TAPS = 129  # the pyramid's FIR length


def get_filter_bank(name: str) -> FilterBank:
    try:
        return _BANKS[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown filter bank {name!r}; choose from {', '.join(BANK_NAMES)}") from None


@dataclass(frozen=True)
class SubbandSet:
    lowband: np.ndarray
    details: list[np.ndarray]  # finest first; each (..., band length)


@functools.lru_cache(maxsize=64, typed=True)
def feasible_levels(n: int, levels: int, taps: int) -> int:
    """The DWT rule: the largest depth L <= levels that a length-n DWT with
    taps-long filters runs at, 0 when there is none.  2^L must divide n
    (n & -n is the largest power of 2 that does) and stage L must see
    n/2^(L-1) >= taps samples, so every depth below a feasible one is.
    Memoised, so a warm call costs no Python-level call; typed keeps True off 1's entry."""
    _check_integer("n", n, 1)
    _check_integer("levels", levels, 1)
    _check_integer("taps", taps, 1)
    n = int(n)
    return min(int(levels), (n & -n).bit_length() - 1, (n // int(taps)).bit_length())


@functools.lru_cache(maxsize=64)
def _step_indices(half: int, taps: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gather indices of one DWT step with half coefficients per band.

    Analysis: coefficient k reads samples (2k + j) mod 2*half for taps j.
    Synthesis: sample 2p + r reads tap 2i + r of the coefficients
    k = (p - i) mod half, the k with 2k + 2i + r = 2p + r (mod 2*half).
    """
    analysis = (2 * np.arange(half)[:, None] + np.arange(taps)[None, :]) % (2 * half)
    synthesis = (np.arange(half)[:, None] - np.arange(taps // 2)[None, :]) % half
    analysis.flags.writeable = False
    synthesis.flags.writeable = False
    return analysis, synthesis


def _dwt_step(x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """One analysis split along the last axis: correlate with lo/hi and
    keep even phases.

    Periodic boundary: indices wrap modulo the signal length.
    """
    gathered = x.take(_step_indices(x.shape[-1] // 2, lo.shape[0])[0], axis=-1)
    return gathered @ lo, gathered @ hi


def _idwt_step(a: np.ndarray, d: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Adjoint of :func:`_dwt_step`, computed as a gather.  lo and hi are the
    analysis taps reshaped to (taps/2, 2), which dwt_synthesis does once."""
    half = a.shape[-1]
    idx = _step_indices(half, 2 * lo.shape[0])[1]
    y = a.take(idx, axis=-1) @ lo + d.take(idx, axis=-1) @ hi
    return y.reshape(*a.shape[:-1], 2 * half)


def dwt_analysis(x: np.ndarray, bank: FilterBank, levels: int) -> SubbandSet:
    x = _as_real(x)
    n = x.shape[-1]
    taps = bank.taps
    _check_integer("levels", levels, 1)
    if feasible_levels(n, levels, taps) < levels:
        raise ValueError(
            f"a length-{n} DWT with {taps}-tap filters runs depths L with 2^L dividing n and "
            f"n/2^(L-1) >= {taps}, at most {feasible_levels(n, n, taps)} here; got levels={levels}"
        )
    lo, hi = bank.analysis_lo, bank.analysis_hi
    current = x / math.sqrt(n)
    details: list[np.ndarray] = []
    for _ in range(levels):
        current, detail = _dwt_step(current, lo, hi)
        details.append(detail)
    return SubbandSet(lowband=current, details=details)


def dwt_synthesis(bands: SubbandSet, bank: FilterBank) -> np.ndarray:
    """Inverse of dwt_analysis: every bank is orthonormal, so each step's
    adjoint on the analysis taps inverts it.  Each detail band must have
    the shape of the band it is joined with."""
    lo, hi = bank.analysis_lo.reshape(-1, 2), bank.analysis_hi.reshape(-1, 2)
    current = np.asarray(bands.lowband)
    for detail in reversed(bands.details):
        if detail.shape != current.shape:
            raise ValueError(
                f"inconsistent band shapes: lowband {current.shape} vs detail {detail.shape}"
            )
        current = _idwt_step(current, detail, lo, hi)
    return current * math.sqrt(current.shape[-1])


# ---------------------------------------------------------------------------
# pyramid


def _design_lowpass(cutoff: float, taps: int) -> np.ndarray:
    """Hamming-windowed sinc lowpass, DC gain normalized to exactly 1."""
    if taps < 3 or taps % 2 == 0:
        raise ValueError(f"taps must be an odd integer >= 3, got {taps}")
    if not 0.0 < cutoff < np.pi:
        raise ValueError(f"cutoff must lie in (0, pi), got {cutoff}")
    m = np.arange(taps) - (taps - 1) / 2
    h = (cutoff / np.pi) * np.sinc(cutoff * m / np.pi) * np.hamming(taps)
    return h / h.sum()


def _kernel_spectrum(h: np.ndarray, n: int) -> np.ndarray:
    """rfft of the odd-length FIR h folded modulo n with its group delay
    removed, so taps longer than the signal wrap exactly as the circular
    sum does."""
    delay = (h.shape[0] - 1) // 2
    return np.fft.rfft(np.bincount((np.arange(h.shape[0]) - delay) % n, weights=h, minlength=n))


@dataclass(frozen=True)
class PyramidSet:
    lows: np.ndarray  # (L, ..., n): stage k's lowband, finest first
    highs: np.ndarray  # (L, ..., n): stage k's highband, its input minus lows[k]

    @property
    def stages(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(x_lp, x_hp) per stage, as views of lows and highs."""
        return list(zip(self.lows, self.highs))


def default_cutoffs(levels: int) -> list[float]:
    """Octave cutoffs pi/2, pi/4, ..., pi/2^levels, each exact: ldexp scales
    by a power of 2 without forming it, so a deep one underflows to 0
    instead of overflowing 2^levels."""
    _check_integer("levels", levels, 1)
    return np.ldexp(np.pi, -np.arange(1, levels + 1)).tolist()


@functools.lru_cache(maxsize=64, typed=True)
def pyramid_max_levels(n: int) -> int:
    """The pyramid rule, memoised like feasible_levels: the deepest octave
    pyramid at length n, the largest L with 2^(L+1) <= n, so that the last
    cutoff pi/2^L spans a DFT bin; 0 below n = 4, where there is none."""
    _check_integer("n", n, 1)
    return max(0, int(n).bit_length() - 2)


@functools.lru_cache(maxsize=64)
def _cascade_spectra(cutoffs: tuple[float, ...], taps: int, n: int) -> tuple[np.ndarray, ...]:
    """Read-only spectra of the stage cascades: entry k is the product of
    the _design_lowpass(cutoff, taps) kernel spectra of cutoffs[0..k], since
    stage k filters stage k-1's lowband.  Pyramids whose cutoffs share a
    prefix share its arrays.  Raises ValueError unless the cutoffs are one
    or more, strictly decreasing, and the last spans a DFT bin at length n.
    """
    if not cutoffs:
        raise ValueError("need at least one cutoff")
    if any(c2 >= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly decreasing, got {list(cutoffs)}")
    if cutoffs[-1] < 2.0 * np.pi / n:
        raise ValueError(
            f"cutoff {cutoffs[-1]:.6g} is below the DFT bin spacing 2*pi/{n}: "
            f"an octave pyramid at length {n} has at most {pyramid_max_levels(n)} stages"
        )
    spectrum = _kernel_spectrum(_design_lowpass(cutoffs[-1], taps), n)
    shallower = _cascade_spectra(cutoffs[:-1], taps, n) if len(cutoffs) > 1 else ()
    if shallower:
        spectrum *= shallower[-1]
    spectrum.flags.writeable = False
    return (*shallower, spectrum)


def _split_pyramid(
    x: np.ndarray, cascades: tuple, product: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> np.ndarray:
    """Write x's lowband at every stage into lows and its highband into
    highs, and return a copy of the deepest lowband.  x is (..., n), lows and
    highs (L, ..., n), product an (L, ..., n//2 + 1) complex buffer: x's rfft,
    held in the last stage, times each cascade spectrum, then one batched
    irfft.  Highbands are written deepest first, so highs may be lows."""
    spectrum = np.fft.rfft(x, axis=-1, out=product[-1])
    for cascade, stage in zip(cascades, product):
        np.multiply(spectrum, cascade, out=stage)
    np.fft.irfft(product, x.shape[-1], axis=-1, out=lows)
    deepest = lows[-1].copy()
    for k in range(len(lows) - 1, 0, -1):
        np.subtract(lows[k - 1], lows[k], out=highs[k])
    np.subtract(x, lows[0], out=highs[0])
    return deepest


def _join_pyramid(deepest: np.ndarray, highs) -> np.ndarray:
    """deepest plus the highs, one per stage finest first, summed coarsest
    first into deepest."""
    for high in reversed(highs):
        deepest += high
    return deepest


def pyramid_analysis(x: np.ndarray, cutoffs: list[float], taps: int = DEFAULT_TAPS) -> PyramidSet:
    """Lowbands of every stage from one rfft and one batched irfft, and
    highbands by subtraction from the previous stage's lowband."""
    x = _as_real(x)
    n = x.shape[-1]
    cascades = _cascade_spectra(tuple(cutoffs), taps, n)
    lows = np.empty((len(cascades), *x.shape))
    highs = np.empty_like(lows)
    _split_pyramid(x, cascades, np.empty((*lows.shape[:-1], n // 2 + 1), dtype=complex), lows, highs)
    return PyramidSet(lows=lows, highs=highs)


def pyramid_synthesis(
    pyramid: PyramidSet, denoised_highs: np.ndarray | list[np.ndarray]
) -> np.ndarray:
    """Deepest lowband plus the high bands, summed coarsest first.

    denoised_highs holds one high band per stage, finest first, as a list
    or an (L, ..., n) array, and each band has the lowbands' shape.  With
    the original highs this walks the defining subtractions back up stage
    by stage and recovers the input exactly.
    """
    stages = len(pyramid.lows)
    if len(denoised_highs) != stages:
        raise ValueError(f"need one high band per stage: got {len(denoised_highs)} for {stages} stages")
    deepest = pyramid.lows[-1].copy()
    for high in reversed(denoised_highs):
        if np.shape(high) != deepest.shape:
            raise ValueError(f"high band shape {np.shape(high)} is not the lowbands' {deepest.shape}")
    return _join_pyramid(deepest, denoised_highs)
