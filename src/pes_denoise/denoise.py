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

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._workspace import BLOCK_ELEMENTS, scratch
from .projections import _project, soft_threshold
from .spectrum import MAX_LEVELS, _samples, row_median, select_levels
from .transforms import (
    DEFAULT_BANK,
    DEFAULT_TAPS,
    FilterBank,
    SubbandSet,
    _as_real,
    _cascade_spectra,
    _check_integer,
    _join_pyramid,
    _split_pyramid,
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
        if self.levels is not None:
            _check_integer("levels", self.levels, 1)


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
    levels: levels, lowered to the deepest depth the method runs at n, or
    0 where it runs at none (a DWT method at an odd n).  A DWT runs depth
    L when 2^L divides n and n/2^(L-1) is at least the bank's filter
    length (feasible_levels), the pyramid when 2^(L+1) <= n."""
    return np.minimum(levels, _deepest(cfg.method, get_filter_bank(cfg.bank), n, MAX_LEVELS))


def _deepest(method: str, bank: FilterBank, n: int, levels: int) -> int:
    """The deepest depth up to levels that method runs at length n, with bank
    its filter bank, or 0 when there is none: feasible_levels at the bank's
    taps for a DWT, and the largest L with 2^(L+1) <= n for the pyramid."""
    if method == "pes-pyramid":
        return min(levels, pyramid_max_levels(n))
    return feasible_levels(n, levels, bank.taps)


def _checked_depth(cfg: DenoiseConfig, bank: FilterBank, n: int) -> int:
    """The depth cfg runs at length n with bank, its filter bank: cfg.levels
    when set, else the deepest one that the spectrum's depths are clamped
    to.  Raises ValueError when the method runs at no depth there, or at
    none as deep as cfg.levels."""
    deepest = _deepest(cfg.method, bank, n, cfg.levels or MAX_LEVELS)
    if deepest == 0:
        raise ValueError(f"{cfg.method} needs an even signal length, got n={n}")
    if cfg.levels is not None and deepest < cfg.levels:
        raise ValueError(f"{cfg.method} runs at most {deepest} levels at n={n}, got levels={cfg.levels}")
    return deepest


def _wavelet_analysis(rows: np.ndarray, levels: int, bank: FilterBank):
    """The rows' DWT: the detail bands side by side, finest first, their lengths, the lowband."""
    bands = dwt_analysis(rows, bank, levels)
    lengths = tuple([band.shape[-1] for band in bands.details])
    return np.concatenate(bands.details, axis=-1), lengths, bands.lowband


def _wavelet_synthesis(details: np.ndarray, lengths: tuple, lowband: np.ndarray, bank: FilterBank):
    """Inverse DWT of _wavelet_analysis's three parts."""
    bands = [details[:, end - length : end] for length, end in zip(lengths, accumulate(lengths))]
    return dwt_synthesis(SubbandSet(lowband, bands), bank)


def _pyramid_analysis(rows: np.ndarray, levels: int, bank: FilterBank):
    """pyramid_analysis of the (T, n) rows in the workspace band stack, each
    stage's lowband overwritten by its highband: the (L*T, n) highbands,
    their length n and the deepest lowband.  It reads no filter bank."""
    n = rows.shape[-1]
    cascades = _cascade_spectra(tuple(default_cutoffs(levels)), DEFAULT_TAPS, n)
    bands = scratch("bands", (levels, *rows.shape))
    product = scratch("product", (*bands.shape[:-1], n // 2 + 1), complex)
    deepest = _split_pyramid(rows, cascades, product, bands, bands)
    return bands.reshape(-1, n), (n,), deepest


def _pyramid_synthesis(highs: np.ndarray, lengths: tuple, deepest: np.ndarray, bank: FilterBank):
    """pyramid_synthesis of _pyramid_analysis's three parts."""
    return _join_pyramid(deepest, highs.reshape(-1, *deepest.shape))


def _epigraph_shrink(bands: np.ndarray, lengths: tuple[int, ...], n: int) -> np.ndarray:
    """Each band's own threshold, from its epigraph projection, applied in place."""
    return _project(bands, lengths, None, out=bands).w_p


def _fresh_epigraph_shrink(bands: np.ndarray, lengths: tuple[int, ...], n: int) -> np.ndarray:
    """_epigraph_shrink into a fresh array, for the bands a _Block shares."""
    return _project(bands, lengths, None).w_p


def _universal_shrink(bands: np.ndarray, lengths: tuple[int, ...], n: int) -> np.ndarray:
    """One universal threshold, sigma-hat * sqrt(2 ln n) (Donoho & Johnstone
    1994), across all bands; sigma-hat comes from the finest, in band units."""
    sigma = estimate_sigma(bands[:, : lengths[0]])
    return soft_threshold(bands, (sigma * math.sqrt(2.0 * np.log(n)))[:, None])


def _three_sigma_shrink(bands: np.ndarray, lengths: tuple[int, ...], n: int) -> np.ndarray:
    """Soft threshold 3*sigma-hat in every band, sigma-hat from the finest."""
    return soft_threshold(bands, 3.0 * estimate_sigma(bands[:, : lengths[0]])[:, None])


# Each method is (analysis, shrink rule, synthesis).  The analysis turns the
# (T, n) rows, a depth and a filter bank into (T, N) bands, their lengths and
# the lowband; the shrink rule maps the bands, lengths and n to shrunk bands,
# maybe in place; the synthesis rebuilds the rows from those and the lowband.
_METHODS = {
    "pes-wavelet": (_wavelet_analysis, _epigraph_shrink, _wavelet_synthesis),
    "pes-pyramid": (_pyramid_analysis, _epigraph_shrink, _pyramid_synthesis),
    "universal": (_wavelet_analysis, _universal_shrink, _wavelet_synthesis),
    "three-sigma": (_wavelet_analysis, _three_sigma_shrink, _wavelet_synthesis),
}
METHODS = tuple(_METHODS)


class _Block:
    """The work that the methods of one harness block share.

    depths is select_levels of the block's rows, which the harness takes
    once, or None when every method has an explicit depth.  analysis(rows,
    index, levels, bank) is _wavelet_analysis of rows[index] (of all the
    rows where index is None), made once per bank name, depth and exact
    row set and kept for the block's later DWT methods.  Kept bands are
    shared, so no shrink rule writes into them.  The pyramid's bands are
    views of the thread's workspace, which its next call overwrites, so
    they are never kept.
    """

    def __init__(self, depths: np.ndarray | None) -> None:
        self.depths = depths
        self._analyses: dict = {}

    def analysis(self, rows: np.ndarray, index: np.ndarray | None, levels: int, bank: FilterBank):
        key = (bank.name, levels, None if index is None else index.tobytes())
        kept = self._analyses.get(key)
        if kept is None:
            picked = rows if index is None else rows[index]
            kept = self._analyses[key] = _wavelet_analysis(picked, levels, bank)
        return kept


def denoise(x: np.ndarray, cfg: DenoiseConfig, *, _block: _Block | None = None) -> np.ndarray:
    """Denoise x along its last axis with the method cfg names.

    x is one signal of shape (n,) or a batch of shape (T, n) that passes
    the sample rule, _samples: T >= 1, n >= MIN_SAMPLES (16) and every
    sample real, finite and below 2^1020/n in magnitude.  Each row is
    denoised on its own, with its own depth and (for the baselines) its
    own sigma-hat; the output has x's shape.

    The depth is cfg.levels when set, the only depth a caller gives, else
    each row's spectrum depth, clamped by clamp_depth.  It refuses an n
    the method runs at no depth (an odd n, for a DWT) and a cfg.levels
    deeper than it runs at n: see clamp_depth, whose rule ExperimentSpec
    checks too.

    The harness passes every method of a block of cells the same rows and
    one private _Block record: its spectrum depths, selected once, and
    the DWT analyses that the block's earlier methods made, reused where
    bank, depth and rows match.  The output is the one denoise gives
    without the record.
    """
    x = _samples(x)
    n = x.shape[-1]
    bank = get_filter_bank(cfg.bank)
    deepest = _checked_depth(cfg, bank, n)
    rows = x.reshape(-1, n)
    analysis, shrink, synthesis = _METHODS[cfg.method]
    if cfg.levels is not None:
        depths = np.asarray(deepest).repeat(rows.shape[0])  # np.full, without its wrapper
    else:
        spectrum = select_levels(rows) if _block is None else _block.depths
        depths = np.minimum(spectrum, deepest)
    shared = None if _block is None or analysis is _pyramid_analysis else _block.analysis
    if shared is not None and shrink is _epigraph_shrink:
        shrink = _fresh_epigraph_shrink  # never in place, on bands the block's other methods read
    # Rows of depth L run in blocks of BLOCK_ELEMENTS band values, so that no method's temporaries
    # grow with a call's rows (see _workspace): a DWT row's bands hold n, the pyramid's L*n.
    groups = sorted(set(depths.tolist()))
    blocks = [max(1, BLOCK_ELEMENTS // (n if analysis is _wavelet_analysis else L * n)) for L in groups]
    if len(groups) == 1 and rows.shape[0] <= blocks[0]:
        # One depth and one block: no copies in and out of the blocks.
        if shared is None:
            bands, lengths, lowband = analysis(rows, groups[0], bank)
        else:
            bands, lengths, lowband = shared(rows, None, groups[0], bank)
        return synthesis(shrink(bands, lengths, n), lengths, lowband, bank).reshape(x.shape)
    out = np.empty_like(rows)
    for levels, block in zip(groups, blocks):
        picked = np.flatnonzero(depths == levels)
        for index in np.split(picked, range(block, picked.shape[0], block)):
            if shared is None:
                bands, lengths, lowband = analysis(rows[index], levels, bank)
            else:
                bands, lengths, lowband = shared(rows, index, levels, bank)
            out[index] = synthesis(shrink(bands, lengths, n), lengths, lowband, bank)
    return out.reshape(x.shape)
