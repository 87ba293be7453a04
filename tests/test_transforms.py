"""Filter banks, wavelet round-trips, and the subtractive pyramid.

Bitwise pyramid checks use offset random signals (10 + N(0,1)): when
sample and lowpass output share a binade the subtraction is exact in
IEEE arithmetic, so additivity and stage-by-stage recovery hold
bit-for-bit.  Zero-mean signals only guarantee the defining subtraction
itself, which is asserted separately.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pes_denoise.projections import soft_threshold
from pes_denoise.transforms import (
    BANK_NAMES,
    SubbandSet,
    _design_lowpass,
    _qmf_highpass,
    default_cutoffs,
    dwt_analysis,
    dwt_synthesis,
    feasible_levels,
    get_filter_bank,
    pyramid_analysis,
    pyramid_max_levels,
    pyramid_synthesis,
)

from oracles import depth_allowed, lowpass_filter

ALL_BANKS = [get_filter_bank(name) for name in BANK_NAMES]


def test_bank_registry():
    assert set(BANK_NAMES) == {"haar", "db4", "farras"}
    assert get_filter_bank("DB4").name == "db4"
    with pytest.raises(ValueError):
        get_filter_bank("sym8")


def test_banks_are_orthonormal():
    for bank in ALL_BANKS:
        lo = bank.analysis_lo
        assert abs(np.dot(lo, lo) - 1.0) < 1e-12
        # shifts by 2 are orthogonal
        for shift in range(2, lo.size, 2):
            assert abs(np.dot(lo[:-shift], lo[shift:])) < 1e-12
        hi = _qmf_highpass(lo)
        assert np.array_equal(bank.analysis_hi, hi)
        assert abs(np.dot(lo, hi)) < 1e-12


def test_haar_constant_has_zero_detail():
    bands = dwt_analysis(np.ones(4), get_filter_bank("haar"), 1)
    assert np.allclose(bands.details[0], 0.0, atol=1e-15)


def test_subband_lengths_bookkeeping():
    x = np.arange(1024, dtype=float)
    bank = get_filter_bank("db4")
    bands = dwt_analysis(x, bank, 3)
    assert [d.size for d in bands.details] == [512, 256, 128]
    assert bands.lowband.size == 128
    assert len(bands.details) == 3
    y = dwt_synthesis(bands, bank)
    assert y.shape == (1024,)
    assert np.linalg.norm(y - x) / np.linalg.norm(x) < 1e-10


def test_roundtrip_all_banks_and_levels():
    rng = np.random.default_rng(21)
    for bank in ALL_BANKS:
        for levels in range(1, 6):
            for _ in range(8):
                x = rng.normal(size=512)
                bands = dwt_analysis(x, bank, levels)
                y = dwt_synthesis(bands, bank)
                assert np.linalg.norm(y - x) / np.linalg.norm(x) < 1e-10


def test_parseval_energy():
    rng = np.random.default_rng(22)
    impulse = np.zeros(256)
    impulse[40] = 1.0
    for bank in ALL_BANKS:
        for x in (impulse, rng.normal(size=256)):
            bands = dwt_analysis(x, bank, 3)
            coeff_energy = np.sum(bands.lowband**2) + sum(np.sum(d**2) for d in bands.details)
            ref = np.sum((x / np.sqrt(x.size)) ** 2)
            assert abs(coeff_energy - ref) / ref < 1e-10


def test_analysis_is_linear():
    rng = np.random.default_rng(23)
    x, y = rng.normal(size=128), rng.normal(size=128)
    bank = get_filter_bank("farras")
    bx = dwt_analysis(x, bank, 2)
    by = dwt_analysis(y, bank, 2)
    bz = dwt_analysis(2.5 * x - 0.5 * y, bank, 2)
    assert np.max(np.abs(bz.lowband - (2.5 * bx.lowband - 0.5 * by.lowband))) < 1e-12
    for dz, dx, dy in zip(bz.details, bx.details, by.details):
        assert np.max(np.abs(dz - (2.5 * dx - 0.5 * dy))) < 1e-12


def test_level_validation():
    bank = get_filter_bank("db4")
    with pytest.raises(ValueError):
        dwt_analysis(np.ones(100), bank, 3)  # 100 not divisible by 8
    with pytest.raises(ValueError):
        dwt_analysis(np.ones(16), bank, 4)  # stage 4 would see 2 samples < 4 taps
    with pytest.raises(ValueError):
        dwt_analysis(np.ones(64), bank, 0)
    dwt_analysis(np.ones(16), bank, 3)  # boundary case: stage 3 sees exactly 4 samples


def test_feasible_levels_is_the_deepest_depth_dwt_analysis_accepts():
    # Both against the rule as stated, in tests/oracles.py.
    for bank in ALL_BANKS:
        for n in range(1, 300):
            allowed = [L for L in range(1, 10) if depth_allowed("pes-wavelet", bank.taps, n, L)]
            for levels in range(1, 10):
                want = max((L for L in allowed if L <= levels), default=0)
                assert feasible_levels(n, levels, bank.taps) == want, (n, levels, bank.name)
                if levels in allowed:
                    dwt_analysis(np.ones(n), bank, levels)
                else:
                    with pytest.raises(ValueError, match=f"at most {allowed[-1] if allowed else 0} here"):
                        dwt_analysis(np.ones(n), bank, levels)


def test_analyses_refuse_complex_input():
    # A float cast would drop the imaginary part with only a warning.
    x = np.ones(64) + 1j
    with pytest.raises(ValueError, match="must be real"):
        dwt_analysis(x, get_filter_bank("db4"), 2)
    with pytest.raises(ValueError, match="must be real"):
        pyramid_analysis(x, default_cutoffs(2))


def test_two_sample_haar_roundtrip():
    # the shortest usable signal still round-trips exactly
    x = np.array([3.0, -1.0])
    bands = dwt_analysis(x, get_filter_bank("haar"), 1)
    assert bands.details[0].size == 1
    assert np.max(np.abs(dwt_synthesis(bands, get_filter_bank("haar")) - x)) < 1e-12


def test_synthesis_zero_bands():
    bank = get_filter_bank("db4")
    bands = dwt_analysis(np.ones(64), bank, 2)
    from dataclasses import replace

    silent = replace(
        bands, lowband=np.zeros_like(bands.lowband), details=[np.zeros_like(d) for d in bands.details]
    )
    assert np.array_equal(dwt_synthesis(silent, bank), np.zeros(64))


def test_constant_survives_detail_zeroing():
    bank = get_filter_bank("haar")
    x = np.full(32, 7.5)
    bands = dwt_analysis(x, bank, 3)
    from dataclasses import replace

    cleaned = replace(bands, details=[np.zeros_like(d) for d in bands.details])
    assert np.max(np.abs(dwt_synthesis(cleaned, bank) - x)) < 1e-12


def test_synthesis_rejects_inconsistent_lengths():
    bank = get_filter_bank("haar")
    bands = dwt_analysis(np.ones(32), bank, 2)
    from dataclasses import replace

    broken = replace(bands, details=[bands.details[0][:4], bands.details[1]])
    with pytest.raises(ValueError):
        dwt_synthesis(broken, bank)
    # One detail row, or a 1-D detail, on a three-row lowband would be
    # broadcast over every row; a 1-D lowband would grow a row axis.
    bands = dwt_analysis(np.random.default_rng(5).normal(size=(3, 64)), bank, 2)
    for details in ([d[:1] for d in bands.details], [d[0] for d in bands.details]):
        with pytest.raises(ValueError, match="inconsistent band shapes"):
            dwt_synthesis(SubbandSet(bands.lowband, details), bank)
    with pytest.raises(ValueError, match="inconsistent band shapes"):
        dwt_synthesis(SubbandSet(bands.lowband[0], [d[:1] for d in bands.details]), bank)


@pytest.mark.parametrize("bank", ALL_BANKS, ids=BANK_NAMES)
def test_batched_roundtrip_and_parseval(bank):
    # A (T, n) array is T signals transformed along the last axis.
    rng = np.random.default_rng(24)
    x = rng.normal(size=(5, 256)) * rng.uniform(0.1, 10.0, size=(5, 1))
    for levels in (1, 3, 5):
        bands = dwt_analysis(x, bank, levels)
        assert bands.lowband.shape == (5, 256 >> levels)
        assert [d.shape for d in bands.details] == [(5, 256 >> k) for k in range(1, levels + 1)]
        y = dwt_synthesis(bands, bank)
        assert np.max(np.abs(y - x) / np.abs(x).max(axis=-1, keepdims=True)) < 1e-12
        energy = np.sum(bands.lowband**2, axis=-1) + sum(np.sum(d**2, axis=-1) for d in bands.details)
        ref = np.sum(x**2, axis=-1) / x.shape[-1]
        assert np.max(np.abs(energy - ref) / ref) < 1e-10
        for t in range(x.shape[0]):
            alone = dwt_analysis(x[t], bank, levels)
            for got, want in zip([bands.lowband, *bands.details], [alone.lowband, *alone.details]):
                assert np.max(np.abs(got[t] - want)) < 1e-12


# n = odd * 2^p, so every depth up to p divides n; the filter length then
# caps the depth at feasible_levels.
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bank=st.sampled_from(ALL_BANKS),
    rows=st.integers(1, 4),
    odd=st.sampled_from([1, 3, 5, 9]),
    p=st.integers(1, 10),
    data=st.data(),
)
def test_roundtrip_and_parseval_at_any_feasible_depth(seed, bank, rows, odd, p, data):
    n = odd << p
    assume(n >= bank.taps)
    levels = data.draw(st.integers(1, feasible_levels(n, n.bit_length(), bank.taps)), "levels")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, n)) * rng.uniform(0.1, 10.0, size=(rows, 1))
    bands = dwt_analysis(x, bank, levels)
    y = dwt_synthesis(bands, bank)
    assert np.max(np.abs(y - x) / np.abs(x).max(axis=-1, keepdims=True)) < 1e-12
    energy = np.sum(bands.lowband**2, axis=-1) + sum(np.sum(d**2, axis=-1) for d in bands.details)
    ref = np.sum(x**2, axis=-1) / n
    assert np.max(np.abs(energy - ref) / ref) < 1e-10


# ---------------------------------------------------------------------------
# pyramid


def test_design_lowpass_dc_gain_and_validation():
    h = _design_lowpass(np.pi / 2, 129)
    assert abs(h.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        _design_lowpass(np.pi / 2, 128)
    with pytest.raises(ValueError):
        _design_lowpass(0.0, 129)
    with pytest.raises(ValueError):
        _design_lowpass(np.pi, 129)


def test_lowpass_passes_dc():
    x = np.full(512, 3.25)
    for taps in (63, 129):
        x_lp = lowpass_filter(x, _design_lowpass(np.pi / 2, taps))
        assert np.linalg.norm(x - x_lp) / np.linalg.norm(x) < 1e-3


def test_lowpass_stopband_attenuation():
    # measure the designed filter's response at the tone frequency, then
    # check the filtered tone is no larger than that response allows
    taps = 129
    n = 1024
    h = _design_lowpass(np.pi / 2, taps)
    omega = 2.0 * np.pi * 461 / n  # on the DFT grid, deep in the stopband (~0.9*pi)
    k = np.arange(taps) - (taps - 1) // 2
    response = abs(np.sum(h * np.exp(-1j * omega * k)))
    tone = np.cos(omega * np.arange(n))
    ratio = np.linalg.norm(lowpass_filter(tone, h)) / np.linalg.norm(tone)
    assert ratio <= response + 1e-12
    assert response < 1e-3


def test_pyramid_definitional_subtraction_any_signal():
    rng = np.random.default_rng(31)
    x = rng.normal(size=512)  # zero-mean on purpose
    pyramid = pyramid_analysis(x, default_cutoffs(3), taps=65)
    current = x
    for x_lp, x_hp in pyramid.stages:
        assert np.array_equal(x_hp, current - x_lp)
        current = x_lp


def test_pyramid_additivity_bitwise_offset_signals():
    rng = np.random.default_rng(32)
    for _ in range(25):
        x = 10.0 + rng.normal(size=256)
        pyramid = pyramid_analysis(x, default_cutoffs(2), taps=65)
        current = x
        for x_lp, x_hp in pyramid.stages:
            assert np.array_equal(x_lp + x_hp, current)
            current = x_lp


def test_pyramid_exact_recovery_bitwise():
    rng = np.random.default_rng(33)
    for _ in range(25):
        x = 10.0 + rng.normal(size=256)
        pyramid = pyramid_analysis(x, default_cutoffs(3), taps=65)
        highs = [hp for _, hp in pyramid.stages]
        assert np.array_equal(pyramid_synthesis(pyramid, highs), x)


def test_pyramid_zero_highs_returns_deepest_lowband():
    rng = np.random.default_rng(34)
    x = rng.normal(size=128)
    pyramid = pyramid_analysis(x, default_cutoffs(2), taps=33)
    out = pyramid_synthesis(pyramid, [np.zeros(128), np.zeros(128)])
    assert np.array_equal(out, pyramid.stages[-1][0])


def test_pyramid_soft_zero_threshold_roundtrip():
    rng = np.random.default_rng(35)
    x = 10.0 + rng.normal(size=128)
    pyramid = pyramid_analysis(x, [np.pi / 2], taps=65)
    out = pyramid_synthesis(pyramid, [soft_threshold(pyramid.stages[0][1], 0.0)])
    assert np.array_equal(out, x)


def test_pyramid_validation():
    x = np.ones(64)
    with pytest.raises(ValueError):
        pyramid_analysis(x, [np.pi / 4, np.pi / 2], taps=33)  # not decreasing
    with pytest.raises(ValueError):
        pyramid_synthesis(pyramid_analysis(x, default_cutoffs(2), taps=33), [np.zeros(64)])
    # One high row, as (1, n) or (n,), on a three-row pyramid would be
    # added to every row.
    pyramid = pyramid_analysis(np.random.default_rng(6).normal(size=(3, 64)), default_cutoffs(2), taps=33)
    highs = pyramid.highs
    for one_row in (highs[:, :1], [high[:1] for high in highs], [high[0] for high in highs]):
        with pytest.raises(ValueError, match="is not the lowbands'"):
            pyramid_synthesis(pyramid, one_row)


@pytest.mark.parametrize("n", [16, 48, 256, 1024])
def test_one_fft_pyramid_equals_stage_cascade(n):
    # Every lowband comes from one rfft times a product of kernel spectra;
    # the reference filters each stage's lowband again, stage by stage.
    rng = np.random.default_rng(36 + n)
    for x in (rng.normal(size=n), 10.0 + rng.normal(size=(3, n))):
        for taps in (33, 129):
            for levels in sorted({1, 3, pyramid_max_levels(n)}):
                cutoffs = default_cutoffs(levels)
                pyramid = pyramid_analysis(x, cutoffs, taps)
                assert pyramid.lows.shape == pyramid.highs.shape == (levels, *x.shape)
                current = x
                for cutoff, (x_lp, x_hp) in zip(cutoffs, pyramid.stages):
                    want = lowpass_filter(current, _design_lowpass(cutoff, taps))
                    assert np.max(np.abs(x_lp - want)) < 1e-12
                    assert np.max(np.abs(x_hp - (current - want))) < 1e-12
                    current = want


def test_pyramid_depth_must_span_a_dft_bin():
    # The last cutoff pi/2^L must be at least the bin spacing 2*pi/n.
    assert pyramid_max_levels(1024) == 9
    for n in (16, 17, 31, 32, 255, 256, 1000, 1024):
        levels = pyramid_max_levels(n)
        assert 2 ** (levels + 1) <= n < 2 ** (levels + 2)
        x = np.ones(n)
        assert len(pyramid_analysis(x, default_cutoffs(levels), taps=33).stages) == levels
        with pytest.raises(ValueError, match="DFT bin spacing"):
            pyramid_analysis(x, default_cutoffs(levels + 1), taps=33)
    with pytest.raises(ValueError, match="at least one cutoff"):
        pyramid_analysis(np.ones(64), [], taps=33)


def test_default_cutoffs_are_octaves():
    assert default_cutoffs(3) == [np.pi / 2, np.pi / 4, np.pi / 8]  # exact: powers of 2
    # The same bits as pi / 2.0^k at every depth a signal can have, and no
    # overflow of 2.0^k far past it: the suite turns a RuntimeWarning into a failure.
    for levels in range(1, 14):
        assert default_cutoffs(levels) == (np.pi / 2.0 ** np.arange(1, levels + 1)).tolist()
    deep = default_cutoffs(2000)
    assert len(deep) == 2000 and deep[:13] == default_cutoffs(13) and deep[-1] == 0.0
    assert all(a > b or a == b == 0.0 for a, b in zip(deep, deep[1:]))
