"""Reference computations that the tests check the library against.

These are not part of the package's API: each one restates a quantity
the library computes internally, so a test can compare the two.
"""

import math

import numpy as np

from pes_denoise import (
    SubbandSet,
    default_cutoffs,
    dwt_analysis,
    dwt_synthesis,
    estimate_sigma,
    get_filter_bank,
    project_epigraph_l1,
    pyramid_analysis,
    pyramid_synthesis,
    select_levels,
    soft_threshold,
)
from pes_denoise.denoise import DenoiseConfig, clamp_depth, denoise
from pes_denoise.harness import ExperimentSpec, ReportRow
from pes_denoise.signals import NoiseSpec, add_gaussian_noise, generate_test_signal, snr_db
from pes_denoise.transforms import _kernel_spectrum


def lowpass_filter(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Apply an odd-length FIR circularly along the last axis with its group
    delay removed.

    y[k] = sum_j h[j] * x[(k + delay - j) mod n], computed as one rfft
    product with the kernel spectrum the pyramid uses per stage.
    """
    x = np.asarray(x, dtype=float)
    product = np.fft.rfft(x, axis=-1)
    product *= _kernel_spectrum(np.asarray(h, dtype=float), x.shape[-1])
    return np.fft.irfft(product, x.shape[-1], axis=-1)


def full_sort_rule(
    band: np.ndarray, d: float | None = None
) -> tuple[np.ndarray, float, float, int, bool]:
    """One band's projection by the full-sort rule: (w_p, d, threshold, rho,
    fast_path), as the segmented kernel reports them.

    With d=None, the epigraph projection: the ball size is
    d = l1/(nnz+1), with l1 the band's correctly rounded l1 mass and nnz
    its nonzero count; with a ball size d, the projection onto that l1
    ball.  Either way the sorted rule of Duchi et al. (2008) runs on the
    whole band, sorted: rho is the last j with
    mu_j - (sum_{r<=j} mu_r - d)/j > 0 (1 where none passes), the
    threshold is (sum_{r<=rho} mu_r - d)/rho, and fast_path is
    rho >= nnz, no nonzero entry zeroed.
    """
    mag = np.abs(np.asarray(band, dtype=float))
    mu = np.sort(mag)[::-1]
    cs = np.cumsum(mu)
    nnz = int(np.count_nonzero(mag))
    if d is None:
        d = math.fsum(mag) / (nnz + 1)
    ranks = np.arange(1, mag.shape[0] + 1)
    passing = np.flatnonzero(mu - (cs - d) / ranks > 0)
    rho = int(passing[-1]) + 1 if passing.size else 1
    threshold = (cs[rho - 1] - d) / rho
    w_p = np.sign(band) * np.maximum(mag - threshold, 0.0)
    return w_p, float(d), float(threshold), rho, rho >= nnz


def cone_projection(band: np.ndarray) -> tuple[np.ndarray, float, int]:
    """The exact Euclidean projection of (band, 0) onto the l1 norm cone
    {(u, z) : ||u||_1 <= z}: (u, z, the number of entries kept).

    With the descending magnitudes mu_1 >= ... of a band, the projection
    is (soft(band, z), z) with z = sum_{j<=rho} mu_j / (rho+1) and rho the
    last j with mu_j > sum_{r<=j} mu_r / (j+1), or 0 where none passes:
    an all-zero band keeps no entry and is its own projection.
    """
    mag = np.abs(np.asarray(band, dtype=float))
    mu = np.sort(mag)[::-1]
    z = [math.fsum(mu[:j]) / (j + 1) for j in range(mu.shape[0] + 1)]
    rho = max(j for j in range(mu.shape[0] + 1) if j == 0 or mu[j - 1] > z[j])
    return np.sign(band) * np.maximum(mag - z[rho], 0.0), z[rho], rho


def depth_allowed(method: str, taps: int, n: int, levels: int) -> bool:
    """Whether method runs at depth levels on length-n signals, by the rule
    as stated: a DWT with taps-long filters needs 2^levels to divide n and
    n/2^(levels-1) >= taps, and the octave pyramid needs 2^(levels+1) <= n."""
    if method == "pes-pyramid":
        return 2 ** (levels + 1) <= n
    return n % 2**levels == 0 and n >= taps * 2 ** (levels - 1)


def deepest_allowed(method: str, taps: int, n: int) -> int:
    """The deepest depth depth_allowed admits, 0 when it admits none."""
    return max([L for L in range(1, n.bit_length() + 1) if depth_allowed(method, taps, n, L)], default=0)


def denoise_reference(row: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    """denoise(row, cfg) for one signal, as the paper's three steps in
    public names: decompose at cfg.levels or at the spectrum depth clamped
    to the method's deepest, shrink each band by its epigraph projection
    (or one baseline threshold from the finest band's sigma-hat), and
    reconstruct."""
    n = row.shape[-1]
    levels = cfg.levels or clamp_depth(select_levels(row), cfg, n)
    if cfg.method == "pes-pyramid":
        pyramid = pyramid_analysis(row, default_cutoffs(levels))
        return pyramid_synthesis(pyramid, [project_epigraph_l1(high).w_p for high in pyramid.highs])
    bank = get_filter_bank(cfg.bank)
    bands = dwt_analysis(row, bank, levels)
    if cfg.method == "pes-wavelet":
        details = [project_epigraph_l1(band).w_p for band in bands.details]
    else:
        sigma = estimate_sigma(bands.details[0])
        threshold = sigma * (math.sqrt(2.0 * np.log(n)) if cfg.method == "universal" else 3.0)
        details = [soft_threshold(band, threshold) for band in bands.details]
    return dwt_synthesis(SubbandSet(bands.lowband, details), bank)


def run_experiment_reference(spec: ExperimentSpec) -> tuple[ReportRow, ...]:
    """run_experiment(spec).rows with each cell run alone, in public names:
    the noisy trials from add_gaussian_noise at seeds base_seed + t, one
    public denoise(noisy, cfg) call per method, which selects the depths
    itself, and the mean and population stddev of the finite output
    SNRs."""
    rows = []
    seeds = range(spec.base_seed, spec.base_seed + spec.trials)
    for signal in spec.signals:
        clean = generate_test_signal(signal, spec.n)
        for fraction in spec.noise_fractions:
            noisy = np.stack([add_gaussian_noise(clean, NoiseSpec(fraction, seed)) for seed in seeds])
            input_mean = float(np.mean(snr_db(clean, noisy)))
            for cfg in spec.methods:
                snrs = snr_db(clean, denoise(noisy, cfg))
                finite = snrs[np.isfinite(snrs)]
                summary = (float(np.mean(finite)), float(np.std(finite))) if finite.size else (math.inf, 0.0)
                excluded = snrs.size - finite.size
                rows.append(ReportRow(signal, fraction, cfg.method, input_mean, *summary, len(snrs), excluded))
    return tuple(rows)
