"""Dyadic wavelet analysis/synthesis and the subtractive pyramid.

Wavelet side: orthonormal two-channel banks applied as periodic
correlation (analysis) and its adjoint (synthesis), which gives exact
perfect reconstruction and Parseval energy bookkeeping.  The input is
divided by sqrt(N) on analysis and the factor is undone on synthesis, so
subband coefficients live in a scale where thresholds are comparable
across signal lengths while the public API stays scale-transparent.

Pyramid side: each stage lowpass-filters the previous lowband with a
zero-phase windowed-sinc FIR and defines the highband by subtraction,
making every stage additive sample-for-sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FilterBank:
    name: str
    analysis_lo: np.ndarray
    analysis_hi: np.ndarray
    synthesis_lo: np.ndarray
    synthesis_hi: np.ndarray

    @property
    def taps(self) -> int:
        return int(self.analysis_lo.shape[0])


def qmf_highpass(lo: np.ndarray) -> np.ndarray:
    """Quadrature-mirror highpass: hi[k] = (-1)^k * lo[M-1-k]."""
    m = lo.shape[0]
    return np.array([(-1) ** k * lo[m - 1 - k] for k in range(m)])


def _orthonormal_bank(name: str, lo) -> FilterBank:
    lo = np.asarray(lo, dtype=float)
    hi = qmf_highpass(lo)
    # Adjoint synthesis reuses the analysis taps for orthonormal banks.
    return FilterBank(name, lo, hi, lo.copy(), hi.copy())


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


def get_filter_bank(name: str) -> FilterBank:
    try:
        return _BANKS[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown filter bank {name!r}; choose from {', '.join(BANK_NAMES)}") from None


@dataclass(frozen=True)
class SubbandSet:
    lowband: np.ndarray
    details: list[np.ndarray]  # finest first
    levels: int
    original_length: int


def _check_levels(n: int, levels: int, taps: int) -> None:
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if n % (1 << levels) != 0:
        raise ValueError(f"length {n} is not divisible by 2^{levels}")
    if n // (1 << (levels - 1)) < taps:
        raise ValueError(
            f"too many levels: stage {levels} would see {n // (1 << (levels - 1))} "
            f"samples, shorter than the {taps}-tap filters"
        )


def _dwt_step(x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """One analysis split: correlate with lo/hi and keep even phases.

    Periodic boundary: indices wrap modulo len(x).
    """
    n = x.shape[0]
    half = n // 2
    idx = (2 * np.arange(half)[:, None] + np.arange(lo.shape[0])[None, :]) % n
    gathered = x[idx]
    return gathered @ lo, gathered @ hi


def _idwt_step(a: np.ndarray, d: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Adjoint of :func:`_dwt_step`: scatter-add taps back to the grid."""
    half = a.shape[0]
    n = 2 * half
    idx = (2 * np.arange(half)[:, None] + np.arange(lo.shape[0])[None, :]) % n
    y = np.zeros(n)
    np.add.at(y, idx, lo[None, :] * a[:, None] + hi[None, :] * d[:, None])
    return y


def dwt_analysis(x: np.ndarray, bank: FilterBank, levels: int) -> SubbandSet:
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    _check_levels(n, levels, bank.taps)
    lo, hi = bank.analysis_lo, bank.analysis_hi
    current = x / np.sqrt(n)
    details: list[np.ndarray] = []
    for _ in range(levels):
        current, detail = _dwt_step(current, lo, hi)
        details.append(detail)
    return SubbandSet(lowband=current, details=details, levels=levels, original_length=n)


def dwt_synthesis(bands: SubbandSet, bank: FilterBank) -> np.ndarray:
    lo, hi = bank.synthesis_lo, bank.synthesis_hi
    current = np.asarray(bands.lowband)
    for detail in reversed(bands.details):
        if detail.shape[0] != current.shape[0]:
            raise ValueError(
                f"inconsistent band lengths: lowband {current.shape[0]} vs detail {detail.shape[0]}"
            )
        current = _idwt_step(current, detail, lo, hi)
    if current.shape[0] != bands.original_length:
        raise ValueError(
            f"bands reconstruct to length {current.shape[0]}, expected {bands.original_length}"
        )
    return current * np.sqrt(bands.original_length)


# ---------------------------------------------------------------------------
# pyramid


def design_lowpass(cutoff: float, taps: int) -> np.ndarray:
    """Hamming-windowed sinc lowpass, DC gain normalized to exactly 1."""
    if taps < 3 or taps % 2 == 0:
        raise ValueError(f"taps must be an odd integer >= 3, got {taps}")
    if not 0.0 < cutoff < np.pi:
        raise ValueError(f"cutoff must lie in (0, pi), got {cutoff}")
    m = np.arange(taps) - (taps - 1) / 2
    h = (cutoff / np.pi) * np.sinc(cutoff * m / np.pi) * np.hamming(taps)
    return h / h.sum()


def lowpass_filter(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Apply an odd-length FIR circularly with its group delay removed.

    y[k] = sum_j h[j] * x[(k + delay - j) mod n], computed as one rfft
    product.  The taps are first folded modulo n, so a filter longer
    than the signal wraps exactly as the circular sum does.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    n = x.shape[0]
    delay = (h.shape[0] - 1) // 2
    kernel = np.bincount((np.arange(h.shape[0]) - delay) % n, weights=h, minlength=n)
    return np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(kernel), n)


@dataclass(frozen=True)
class PyramidSet:
    stages: list[tuple[np.ndarray, np.ndarray]]  # (x_lp, x_hp) per stage
    cutoffs: list[float] = field(default_factory=list)


def default_cutoffs(levels: int) -> list[float]:
    """Octave cutoffs pi/2, pi/4, ..., pi/2^levels."""
    return [np.pi / (1 << k) for k in range(1, levels + 1)]


def pyramid_analysis(x: np.ndarray, cutoffs: list[float], taps: int = 129) -> PyramidSet:
    x = np.asarray(x, dtype=float)
    if any(c2 >= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly decreasing, got {cutoffs}")
    stages: list[tuple[np.ndarray, np.ndarray]] = []
    current = x
    for cutoff in cutoffs:
        x_lp = lowpass_filter(current, design_lowpass(cutoff, taps))
        x_hp = current - x_lp
        stages.append((x_lp, x_hp))
        current = x_lp
    return PyramidSet(stages=stages, cutoffs=list(cutoffs))


def pyramid_synthesis(pyramid: PyramidSet, denoised_highs: list[np.ndarray]) -> np.ndarray:
    """Deepest lowband plus the high bands, summed coarsest first.

    With the original highs this walks the defining subtractions back up
    stage by stage and recovers the input exactly.
    """
    if len(denoised_highs) != len(pyramid.stages):
        raise ValueError(
            f"need one high band per stage: got {len(denoised_highs)} for {len(pyramid.stages)} stages"
        )
    y = pyramid.stages[-1][0].copy()
    for high in reversed(denoised_highs):
        y = y + high
    return y
