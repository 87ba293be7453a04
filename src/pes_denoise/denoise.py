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

from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from ._workspace import scratch
from .projections import _project, soft_threshold
from .spectrum import (
    DEFAULT_ALPHA,
    DEFAULT_SMOOTH_WINDOW,
    MAX_LEVELS,
    check_spectrum_options,
    row_median,
    select_levels,
)
from .transforms import (
    DEFAULT_BANK,
    _block_rows,
    _fill_lows,
    default_cutoffs,
    dwt_analysis,
    dwt_synthesis,
    feasible_levels,
    get_filter_bank,
    pyramid_max_levels,
)

METHODS = ("pes-wavelet", "pes-pyramid", "universal", "three-sigma")
DEFAULT_TAPS = 129


@dataclass(frozen=True)
class DenoiseConfig:
    method: str = "pes-wavelet"
    bank: str = DEFAULT_BANK
    levels: int | None = None  # None -> choose from the spectrum
    gamma: float = 1.0
    taps: int = DEFAULT_TAPS
    strict_paper_mode: bool = False
    alpha: float = DEFAULT_ALPHA
    smooth_window: int = DEFAULT_SMOOTH_WINDOW

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {', '.join(METHODS)}")
        get_filter_bank(self.bank)  # raises ValueError for an unknown bank
        if self.levels is not None and (not isinstance(self.levels, Integral) or self.levels < 1):
            raise ValueError(f"levels must be an integer >= 1, got {self.levels}")
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not isinstance(self.taps, Integral) or self.taps < 3 or self.taps % 2 == 0:
            raise ValueError(f"taps must be an odd integer >= 3, got {self.taps}")
        # Checked here too, since an explicit depth never runs the spectrum.
        check_spectrum_options(self.alpha, self.smooth_window)


def estimate_sigma(finest_detail: np.ndarray) -> float | np.ndarray:
    """Robust noise scale: median(|finest detail band|) / 0.6745.

    A float for a 1-D band; one value per row for a (T, K) band.
    """
    band = np.asarray(finest_detail, dtype=float)
    if band.shape[-1] < 8:
        raise ValueError(f"need at least 8 coefficients, got {band.shape[-1]}")
    sigma = row_median(np.abs(band)) / 0.6745
    return float(sigma) if band.ndim == 1 else sigma


def clamp_depth(levels: int | np.ndarray, cfg: DenoiseConfig, n: int) -> int | np.ndarray:
    """The depth cfg's method runs at length n when the spectrum asks for
    levels: at most the deepest decomposition the method allows there,
    feasible_levels at the bank's taps for the DWT methods and
    pyramid_max_levels for the pyramid."""
    if cfg.method == "pes-pyramid":
        return np.minimum(levels, pyramid_max_levels(n))
    return np.minimum(levels, feasible_levels(n, MAX_LEVELS, get_filter_bank(cfg.bank).taps))


def _by_depth(x: np.ndarray, cfg: DenoiseConfig, spectrum_levels, run) -> np.ndarray:
    """run(rows, levels) over the rows of x, grouped by the depth denoise gives each.

    spectrum_levels is None, or the (T,) spectrum depths of x's rows.
    """
    rows = np.atleast_2d(np.asarray(x, dtype=float))
    if cfg.levels is not None:
        depths = np.full(rows.shape[0], cfg.levels)
    else:
        if spectrum_levels is None:
            spectrum_levels = select_levels(rows, cfg.alpha, cfg.smooth_window)
        depths = clamp_depth(spectrum_levels, cfg, rows.shape[-1])
    groups = sorted(set(depths.tolist()))
    if len(groups) == 1:
        # One depth for every row: no copies in and out of the groups.
        return run(rows, groups[0]).reshape(np.shape(x))
    out = np.empty_like(rows)
    for levels in groups:
        picked = depths == levels
        out[picked] = run(rows[picked], levels)
    return out.reshape(np.shape(x))


def _wavelet(x: np.ndarray, cfg: DenoiseConfig, spectrum_levels, shrink) -> np.ndarray:
    """DWT, shrink(details, lengths, n, cfg) on the detail bands, inverse DWT.

    details is the (T, N) concatenation of the detail bands, finest
    first, with lengths their band lengths; shrink returns its shrunk copy.
    """
    bank = get_filter_bank(cfg.bank)

    def run(rows: np.ndarray, levels: int) -> np.ndarray:
        bands = dwt_analysis(rows, bank, levels)
        lengths = tuple(band.shape[-1] for band in bands.details)
        shrunk = shrink(np.concatenate(bands.details, axis=-1), lengths, rows.shape[-1], cfg)
        details = np.split(shrunk, np.cumsum(lengths)[:-1], axis=-1)
        return dwt_synthesis(replace(bands, details=details), bank)

    return _by_depth(x, cfg, spectrum_levels, run)


def _pyramid(x: np.ndarray, cfg: DenoiseConfig, spectrum_levels) -> np.ndarray:
    """Pyramid analysis, every stage's highband shrunk by projection, synthesis.

    The same arithmetic as pyramid_analysis, project_epigraph_bands and
    pyramid_synthesis, done in blocks of rows inside one band stack from
    the thread's workspace: each stage's lowband is overwritten by its
    highband, which is then shrunk in place.
    """

    def run(rows: np.ndarray, levels: int) -> np.ndarray:
        n = rows.shape[-1]
        cutoffs = default_cutoffs(levels)
        out = np.empty_like(rows)
        block = _block_rows(levels, n)
        for r0 in range(0, rows.shape[0], block):
            x, y = rows[r0:r0 + block], out[r0:r0 + block]
            bands = scratch("bands", (levels, *x.shape))
            _fill_lows(x, cutoffs, cfg.taps, bands)
            y[...] = bands[-1]  # the deepest lowband passes through
            # Deepest first, so that no lowband is read after it is overwritten.
            for k in range(levels - 1, 0, -1):
                np.subtract(bands[k - 1], bands[k], out=bands[k])
            np.subtract(x, bands[0], out=bands[0])
            highs = bands.reshape(-1, n)  # every stage's rows at once
            _project(highs, (n,), cfg.strict_paper_mode, None, out=highs)
            for high in bands[::-1]:  # coarsest first, as pyramid_synthesis sums
                y += high
        return out

    return _by_depth(x, cfg, spectrum_levels, run)


def universal_threshold(
    sigma: float | np.ndarray, n: int, gamma: float = 1.0
) -> float | np.ndarray:
    """gamma * sigma * sqrt(2 ln N / N) with sigma in signal units."""
    return gamma * sigma * np.sqrt(2.0 * np.log(n) / n)


def _epigraph_shrink(
    details: np.ndarray, lengths: tuple[int, ...], n: int, cfg: DenoiseConfig
) -> np.ndarray:
    """Each band's own threshold, from its epigraph projection."""
    return _project(details, lengths, cfg.strict_paper_mode, None).w_p


def _universal_shrink(
    details: np.ndarray, lengths: tuple[int, ...], n: int, cfg: DenoiseConfig
) -> np.ndarray:
    """One universal threshold across all detail bands (needs sigma-hat)."""
    # Band coefficients carry the analysis 1/sqrt(N) scale; the MAD there
    # estimates sigma/sqrt(N), so scale back up to signal units.
    sigma = estimate_sigma(details[:, : lengths[0]]) * np.sqrt(n)
    return soft_threshold(details, universal_threshold(sigma, n, cfg.gamma)[:, None])


def _three_sigma_shrink(
    details: np.ndarray, lengths: tuple[int, ...], n: int, cfg: DenoiseConfig
) -> np.ndarray:
    """Soft threshold 3*sigma-hat in every band, sigma-hat from the finest."""
    return soft_threshold(details, 3.0 * estimate_sigma(details[:, : lengths[0]])[:, None])


# The wavelet-domain methods: one shrink rule each over the same DWT.
_SHRINK = {
    "pes-wavelet": _epigraph_shrink,
    "universal": _universal_shrink,
    "three-sigma": _three_sigma_shrink,
}


def _spectrum_levels_by_row(spectrum_levels, x: np.ndarray) -> np.ndarray:
    """spectrum_levels as one depth per row of x, shape (T,) (1 for 1-D x).

    Raises ValueError unless they are one integer depth in [1, MAX_LEVELS]
    per row: an int for 1-D x, a (T,) array for (T, n)."""
    levels = np.asarray(spectrum_levels)
    expected = "an integer" if x.ndim == 1 else f"an integer array of shape {x.shape[:-1]}"
    if levels.shape != x.shape[:-1] or levels.dtype.kind not in "iu":
        raise ValueError(f"spectrum_levels must be {expected}, got {spectrum_levels!r}")
    if not np.all((levels >= 1) & (levels <= MAX_LEVELS)):
        raise ValueError(f"spectrum_levels must lie in [1, {MAX_LEVELS}], got {spectrum_levels!r}")
    return levels.reshape(-1)


def denoise(x: np.ndarray, cfg: DenoiseConfig, spectrum_levels=None) -> np.ndarray:
    """Denoise x along its last axis with the method cfg names.

    x is one signal of shape (n,) or a batch of shape (T, n), with
    n >= 16 and every sample finite.  Each row is denoised on its own,
    with its own depth and (for the baselines) its own sigma-hat; the
    output has x's shape.

    The depth is cfg.levels when set, else each row's spectrum depth,
    clamped by clamp_depth.  spectrum_levels, when given, are those
    depths as select_levels(x, cfg.alpha, cfg.smooth_window) returns
    them (an int for 1-D x, a (T,) integer array for a batch), so that
    callers running several methods on one x select them once; without
    it, denoise selects them itself.  For pes-pyramid an explicit
    cfg.levels must satisfy 2^(levels+1) <= n.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected shape (n,) or (T, n), got {x.ndim}-D input of shape {x.shape}")
    if x.shape[-1] < 16:
        raise ValueError(f"need at least 16 samples along the last axis, got {x.shape[-1]}")
    if x.shape[0] == 0:
        raise ValueError("cannot denoise a batch with no rows")
    if not np.isfinite(x).all():
        raise ValueError("input contains NaN or infinite samples")
    if spectrum_levels is not None:
        spectrum_levels = _spectrum_levels_by_row(spectrum_levels, x)
    if cfg.method == "pes-pyramid":
        return _pyramid(x, cfg, spectrum_levels)
    return _wavelet(x, cfg, spectrum_levels, _SHRINK[cfg.method])
