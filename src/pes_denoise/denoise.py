"""End-to-end denoising pipelines.

Two projection-driven methods (wavelet subbands or pyramid highbands,
each shrunk by the epigraph projection, which derives its own threshold
from the data) and two classical baselines that need a noise estimate
(the universal threshold and the 3-sigma rule).  The lowband / deepest
lowpass component always passes through untouched.

Everything works along the last axis: a (T, n) batch is T signals
denoised at once, each exactly as it would be on its own, and a 1-D
signal is the case T = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._workspace import BLOCK_ELEMENTS, scratch
from .projections import _project, soft_threshold
from .spectrum import MAX_LEVELS, _is_integer, row_median, select_levels
from .transforms import (
    DEFAULT_BANK,
    DEFAULT_TAPS,
    FilterBank,
    SubbandSet,
    _as_real,
    _cascade_spectra,
    _fill_lows,
    default_cutoffs,
    dwt_analysis,
    dwt_synthesis,
    feasible_levels,
    get_filter_bank,
    pyramid_max_levels,
)


@dataclass(frozen=True)
class DenoiseConfig:
    method: str = "pes-wavelet"
    bank: str = DEFAULT_BANK
    levels: int | None = None  # None -> choose from the spectrum

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {', '.join(METHODS)}")
        get_filter_bank(self.bank)  # raises ValueError for an unknown bank
        if self.levels is not None and (not _is_integer(self.levels) or self.levels < 1):
            raise ValueError(f"levels must be an integer >= 1, got {self.levels}")


def estimate_sigma(finest_detail: np.ndarray) -> float | np.ndarray:
    """Robust noise scale: median(|finest detail band|) / 0.6745.

    A float for a 1-D band; one value per row for a (T, K) band.
    """
    band = _as_real(finest_detail)
    if band.shape[-1] < 8:
        raise ValueError(f"need at least 8 coefficients, got {band.shape[-1]}")
    sigma = row_median(np.abs(band)) / 0.6745
    return float(sigma) if band.ndim == 1 else sigma


def clamp_depth(levels: int | np.ndarray, cfg: DenoiseConfig, n: int) -> int | np.ndarray:
    """The depth cfg's method runs at length n when the spectrum asks for
    levels: at most the deepest decomposition the method allows there,
    feasible_levels at the bank's taps for the DWT methods and
    pyramid_max_levels for the pyramid."""
    return np.minimum(levels, _deepest(cfg.method, get_filter_bank(cfg.bank), n))


def _deepest(method: str, bank: FilterBank, n: int) -> int:
    """The deepest decomposition method allows at length n, with bank its filter bank."""
    if method == "pes-pyramid":
        return pyramid_max_levels(n)
    return feasible_levels(n, MAX_LEVELS, bank.taps)


def _wavelet(rows: np.ndarray, levels: int, bank: FilterBank, shrink) -> np.ndarray:
    """DWT of the (T, n) rows, shrink on the detail bands, inverse DWT.

    shrink gets the (T, N) concatenation of the detail bands, finest first.
    """
    bands = dwt_analysis(rows, bank, levels)
    lengths = tuple([band.shape[-1] for band in bands.details])
    shrunk = shrink(np.concatenate(bands.details, axis=-1), lengths, rows.shape[-1])
    details = [shrunk[:, end - length : end] for length, end in zip(lengths, accumulate(lengths))]
    return dwt_synthesis(SubbandSet(bands.lowband, details), bank)


@functools.lru_cache(maxsize=64)
def _octave_cascades(levels: int, n: int) -> tuple[np.ndarray, ...]:
    """The cascade spectra of the default pyramid: levels octave stages at length n."""
    return _cascade_spectra(tuple(default_cutoffs(levels)), DEFAULT_TAPS, n)


def _pyramid(rows: np.ndarray, levels: int, bank: FilterBank, shrink) -> np.ndarray:
    """Pyramid analysis of the (T, n) rows, shrink on every stage's highband,
    synthesis: the arithmetic of pyramid_analysis and pyramid_synthesis,
    inside one band stack from the thread's workspace.  Each stage's
    lowband is overwritten by its highband, and shrink gets every highband
    as one row of an (L*T, n) array.  The pyramid reads no filter bank."""
    n = rows.shape[-1]
    cascades = _octave_cascades(levels, n)
    bands = scratch("bands", (levels, *rows.shape))
    _fill_lows(rows, cascades, scratch("product", (*bands.shape[:-1], n // 2 + 1), complex), bands)
    out = bands[-1].copy()  # the deepest lowband passes through
    # Deepest first, so that no lowband is read after it is overwritten.
    for k in range(levels - 1, 0, -1):
        np.subtract(bands[k - 1], bands[k], out=bands[k])
    np.subtract(rows, bands[0], out=bands[0])
    highs = shrink(bands.reshape(-1, n), (n,), n).reshape(bands.shape)
    for high in highs[::-1]:  # coarsest first, as pyramid_synthesis sums
        out += high
    return out


def _epigraph_shrink(bands: np.ndarray, lengths: tuple[int, ...], n: int) -> np.ndarray:
    """Each band's own threshold, from its epigraph projection, applied in place."""
    return _project(bands, lengths, None, out=bands).w_p


def _universal_shrink(bands: np.ndarray, lengths: tuple[int, ...], n: int) -> np.ndarray:
    """One universal threshold, sigma-hat * sqrt(2 ln n) (Donoho & Johnstone
    1994), across all bands; sigma-hat comes from the finest, in band units."""
    sigma = estimate_sigma(bands[:, : lengths[0]])
    return soft_threshold(bands, (sigma * math.sqrt(2.0 * np.log(n)))[:, None])


def _three_sigma_shrink(bands: np.ndarray, lengths: tuple[int, ...], n: int) -> np.ndarray:
    """Soft threshold 3*sigma-hat in every band, sigma-hat from the finest."""
    return soft_threshold(bands, 3.0 * estimate_sigma(bands[:, : lengths[0]])[:, None])


# Each method is a decomposition of the rows at one depth, with the config's
# filter bank, plus the shrink rule it applies to the bands.  A shrink rule
# gets the (rows, N) bands, their band lengths and the signal length, and
# returns the shrunk bands; it may shrink them in place.
_METHODS = {
    "pes-wavelet": (_wavelet, _epigraph_shrink),
    "pes-pyramid": (_pyramid, _epigraph_shrink),
    "universal": (_wavelet, _universal_shrink),
    "three-sigma": (_wavelet, _three_sigma_shrink),
}
METHODS = tuple(_METHODS)


def _check_length(method: str, n: int) -> None:
    """Raise ValueError unless method runs on signals of length n: a DWT
    halves the length at every level, so it needs an even n."""
    if n % 2 and _METHODS[method][0] is _wavelet:
        raise ValueError(f"{method} needs an even signal length, got n={n}")


def denoise(x: np.ndarray, cfg: DenoiseConfig, spectrum_levels=None) -> np.ndarray:
    """Denoise x along its last axis with the method cfg names.

    x is one signal of shape (n,) or a batch of shape (T, n), with
    n >= 16 (and even for the DWT methods) and every sample real and
    finite.  Each row is denoised on its own, with its own depth and (for
    the baselines) its own sigma-hat; the output has x's shape.

    The depth is cfg.levels when set, else each row's spectrum depth,
    clamped by clamp_depth.  spectrum_levels, when given, are those
    depths as select_levels(x) returns them (an int for 1-D x, a (T,)
    integer array for a batch), so that callers running several methods
    on one x select them once; without it, denoise selects them itself.
    For pes-pyramid an explicit cfg.levels must satisfy 2^(levels+1) <= n.
    """
    x = _as_real(x)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected shape (n,) or (T, n), got {x.ndim}-D input of shape {x.shape}")
    n = x.shape[-1]
    if n < 16:
        raise ValueError(f"need at least 16 samples along the last axis, got {n}")
    _check_length(cfg.method, n)
    if x.shape[0] == 0:
        raise ValueError("cannot denoise a batch with no rows")
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise ValueError("input contains NaN or infinite samples")
    rows = x.reshape(-1, n)
    if spectrum_levels is not None:
        given = np.asarray(spectrum_levels)
        expected = "an integer" if x.ndim == 1 else f"an integer array of shape {x.shape[:-1]}"
        if given.shape != x.shape[:-1] or given.dtype.kind not in "iu":
            raise ValueError(f"spectrum_levels must be {expected}, got {spectrum_levels!r}")
        if not np.logical_and.reduce((given >= 1) & (given <= MAX_LEVELS), axis=None):
            raise ValueError(f"spectrum_levels must lie in [1, {MAX_LEVELS}], got {spectrum_levels!r}")
        spectrum_levels = given.reshape(-1)
    decompose, shrink = _METHODS[cfg.method]
    bank = get_filter_bank(cfg.bank)
    if cfg.levels is not None:
        depths = np.asarray(cfg.levels).repeat(rows.shape[0])  # np.full, without its wrapper
    else:
        if spectrum_levels is None:
            spectrum_levels = select_levels(rows)
        depths = np.minimum(spectrum_levels, _deepest(cfg.method, bank, n))
    # Rows of depth L run in blocks of BLOCK_ELEMENTS band values, so that no method's temporaries
    # grow with a call's rows (see _workspace): a DWT row's bands hold n, the pyramid's L*n.
    groups = sorted(set(depths.tolist()))
    blocks = [max(1, BLOCK_ELEMENTS // (n if decompose is _wavelet else L * n)) for L in groups]
    if len(groups) == 1 and rows.shape[0] <= blocks[0]:
        # One depth and one block: no copies in and out of the blocks.
        return decompose(rows, groups[0], bank, shrink).reshape(x.shape)
    out = np.empty_like(rows)
    for levels, block in zip(groups, blocks):
        picked = np.flatnonzero(depths == levels)
        for index in np.split(picked, range(block, picked.shape[0], block)):
            out[index] = decompose(rows[index], levels, bank, shrink)
    return out.reshape(x.shape)
