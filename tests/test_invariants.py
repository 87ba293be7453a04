"""Invariants of denoise, pinned for every method, bank and depth.

Negation and power-of-two scaling commute with every step of every
method: the transforms are linear, the depth does not move, each
threshold scales with the input, and scaling by 2^k rounds nothing.  The
memory layout of the input, and the order of a batch's rows, change
nothing either.  These hold bit for bit.

At an explicit depth two more hold up to rounding: scaling by any
factor, and a circular shift, by any amount for the pyramid and by a
multiple of 2^L for an L-level periodic DWT, which commutes with such a
shift band by band.

Power-of-two scaling holds up to the size bound, max|x| below 2^1020/n,
where every method gives finite outputs; from the bound on, denoise and
select_levels refuse the samples.

Last, denoise is the paper's pipeline: every row of a batch is bit for
bit oracles.denoise_reference, its three steps in public names.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import denoise_reference

from pes_denoise._workspace import _local
from pes_denoise.denoise import METHODS, DenoiseConfig, denoise
from pes_denoise.signals import SIGNAL_NAMES, NoiseSpec, add_gaussian_noise, generate_test_signal
from pes_denoise.spectrum import select_levels
from pes_denoise.transforms import BANK_NAMES

# Each row is a noisy test signal, all zeros or a constant.
_ROW_KINDS = (*SIGNAL_NAMES, "zeros", "constant")


def _rows(kinds: list[str], n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = []
    for kind in kinds:
        if kind == "zeros":
            rows.append(np.zeros(n))
        elif kind == "constant":
            rows.append(np.full(n, rng.uniform(-4.0, 4.0)))
        else:
            fraction = float(rng.choice([0.05, 0.1, 0.3, 0.6]))
            noise = NoiseSpec(fraction, seed=int(rng.integers(1 << 30)))
            rows.append(add_gaussian_noise(generate_test_signal(kind, n), noise))
    return np.stack(rows)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    bits = [np.ascontiguousarray(array).view(np.uint64) for array in (a, b)]
    return a.shape == b.shape and np.array_equal(*bits)


_cases = dict(
    method=st.sampled_from(METHODS),
    bank=st.sampled_from(BANK_NAMES),
    levels=st.sampled_from([None, 1, 2, 3]),
    n=st.sampled_from([128, 256, 1000]),
    kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
_settings = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _zero_and_constant_rows(**more):
    """One example per method of a batch with a zero row and a constant row."""

    def add(test):
        for method in METHODS:
            case = dict(method=method, bank="db4", levels=None, n=256, seed=1, **more)
            test = example(kinds=["zeros", "bumps", "constant"], **case)(test)
        return test

    return add


def _input(kinds, n, seed):
    x = _rows(kinds, n, seed)
    return x[0] if len(kinds) == 1 else x


@_settings
@given(**_cases)
@_zero_and_constant_rows()
def test_negated_input_gives_the_negated_output(method, bank, levels, n, kinds, seed):
    x = _input(kinds, n, seed)
    cfg = DenoiseConfig(method=method, bank=bank, levels=levels)
    # Bit for bit but for the sign of zero: a zero row gives +0.0 either
    # way, where negating its output gives -0.0.  Adding 0.0 maps -0.0 to
    # +0.0 and leaves every other value as it is.
    assert _same_bits(denoise(-x, cfg) + 0.0, -denoise(x, cfg) + 0.0)


@_settings
@given(**_cases, k=st.integers(-8, 8))
@_zero_and_constant_rows(k=-8)
def test_power_of_two_scaling_scales_the_output(method, bank, levels, n, kinds, seed, k):
    x = _input(kinds, n, seed)
    cfg = DenoiseConfig(method=method, bank=bank, levels=levels)
    assert _same_bits(denoise(2.0**k * x, cfg), 2.0**k * denoise(x, cfg))


def _layouts(x: np.ndarray) -> list[np.ndarray]:
    """x's values in other memory layouts: read-only, Fortran-order,
    strided with a step, and strided backwards."""
    read_only = x.copy()
    read_only.flags.writeable = False
    wide = np.zeros((*x.shape[:-1], 3 * x.shape[-1]))
    wide[..., ::3] = x
    backwards = x[..., ::-1].copy()[..., ::-1]
    return [read_only, np.asfortranarray(x), wide[..., ::3], backwards]


@_settings
@given(**_cases)
@_zero_and_constant_rows()
def test_memory_layout_does_not_change_the_output(method, bank, levels, n, kinds, seed):
    x = _input(kinds, n, seed)
    cfg = DenoiseConfig(method=method, bank=bank, levels=levels)
    want = denoise(x, cfg)
    for other in _layouts(x):
        assert _same_bits(denoise(other, cfg), want)
    # One row alone, as (n,) or as (1, n), is that row of the batch.
    rows = np.atleast_2d(x)
    single = denoise(rows[-1], cfg)
    assert _same_bits(denoise(rows[-1:], cfg), single[None, :])
    if x.ndim == 1:
        assert _same_bits(single, want)


@_settings
@given(**_cases)
@_zero_and_constant_rows()
def test_input_is_never_written_and_output_is_its_own(method, bank, levels, n, kinds, seed):
    x = _input(kinds, n, seed)
    cfg = DenoiseConfig(method=method, bank=bank, levels=levels)
    for given_x in (x, *_layouts(x)):
        before = given_x.copy()
        out = denoise(given_x, cfg)
        assert _same_bits(given_x, before)
        assert not np.shares_memory(out, given_x)
        workspace = vars(_local).get("buffers", {}).values()
        assert not any(np.shares_memory(out, buffer) for buffer in workspace)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    method=st.sampled_from(METHODS),
    bank=st.sampled_from(BANK_NAMES),
    levels=st.sampled_from([None, 2]),
    n=st.sampled_from([256, 4096]),
    kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=2, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
# At n = 4096 a DWT row block holds 16 rows, and a pyramid block 2 to 5:
# 18 rows at one depth span two DWT blocks, and the 12 pyramid rows fall
# in five depth groups, with the four rows of depth 6 in two blocks.
@example(
    method="three-sigma", bank="db4", levels=2, n=4096, seed=2,
    kinds=["blocks", "bumps", "zeros", "heavy-sine", "constant", "doppler"] * 3,
)
@example(
    method="pes-pyramid", bank="haar", levels=None, n=4096, seed=3,
    kinds=["bumps", "blocks", "zeros", "cusp", "constant", "heavy-sine"] * 2,
)
def test_permuting_rows_permutes_the_output(method, bank, levels, n, kinds, seed):
    x = _rows(kinds, n, seed)
    cfg = DenoiseConfig(method=method, bank=bank, levels=levels)
    order = np.random.default_rng(seed).permutation(x.shape[0])
    assert _same_bits(denoise(x[order], cfg), denoise(x, cfg)[order])


# The invariants that hold up to rounding fix the depth: the spectrum's
# choice is not pinned to rounding.
_explicit_depth_cases = {**_cases, "levels": st.sampled_from([1, 2, 3])}


def _close(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    """got equals want to tol relative to max|want|."""
    return np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@_settings
@given(**_explicit_depth_cases, k=st.integers(1, 1 << 10))
# One noisy heavy-sine of 512 samples at depth 3, shifted by 8.
@example(method="pes-wavelet", bank="db4", levels=3, n=512, kinds=["heavy-sine"], seed=4, k=1)
@example(method="pes-pyramid", bank="db4", levels=3, n=512, kinds=["heavy-sine"], seed=4, k=8)
def test_circular_shift_shifts_the_output(method, bank, levels, n, kinds, seed, k):
    x = _input(kinds, n, seed)
    cfg = DenoiseConfig(method=method, bank=bank, levels=levels)
    shift = k if method == "pes-pyramid" else k << levels
    want = np.roll(denoise(x, cfg), shift, axis=-1)
    assert _close(denoise(np.roll(x, shift, axis=-1), cfg), want, 1e-12)


@_settings
@given(**_explicit_depth_cases, c=st.sampled_from([3.0, 0.1, 1e-3, 7.7e4]))
@example(
    method="pes-pyramid", bank="db4", levels=2, n=256, seed=1, c=7.7e4,
    kinds=["zeros", "bumps", "constant"],
)
def test_scaling_scales_the_output(method, bank, levels, n, kinds, seed, c):
    x = _input(kinds, n, seed)
    cfg = DenoiseConfig(method=method, bank=bank, levels=levels)
    assert _close(denoise(c * x, cfg), c * denoise(x, cfg), 1e-13)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    method=st.sampled_from(METHODS),
    bank=st.sampled_from(BANK_NAMES),
    levels=st.sampled_from([None, 1, 2]),
    n=st.sampled_from([32, 256, 1000, 1001, 4096]),
    signal=st.sampled_from(SIGNAL_NAMES),
    kinds=st.lists(st.sampled_from(_ROW_KINDS), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(method="pes-pyramid", bank="db4", levels=None, n=1024, signal="doppler", kinds=[], seed=0)
def test_power_of_two_scaling_holds_up_to_the_size_bound(method, bank, levels, n, signal, kinds, seed):
    n -= n % 2 if method != "pes-pyramid" else 0
    x = _rows([signal, *kinds], n, seed)
    cfg = DenoiseConfig(method=method, bank=bank, levels=levels)
    # k is the largest power of two that keeps max|2^k x| below 2^1020/n.
    bound, peak = 2.0**1020 / n, np.max(np.abs(x))
    k = int(np.log2(bound / peak)) + 1
    while peak * 2.0**k >= bound:
        k -= 1
    big = denoise(2.0**k * x, cfg)
    assert np.isfinite(big).all()
    assert _same_bits(big, 2.0**k * denoise(x, cfg))
    assert np.array_equal(select_levels(2.0**k * x), select_levels(x))
    # Refused before any arithmetic could overflow.
    with np.errstate(all="raise"):
        for refuse in (lambda y: denoise(y, cfg), select_levels):
            with pytest.raises(ValueError, match="samples too large"):
                refuse(2.0 ** (k + 1) * x)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", [256, 1000])
def test_the_size_bound_is_max_abs_x_below_2_to_the_1020_over_n(method, n):
    bound = 2.0**1020 / n
    x = _rows(["doppler"], n, 1)[0] * (bound / 16)
    x[5] = -np.nextafter(bound, 0.0)
    assert np.isfinite(denoise(x, DenoiseConfig(method))).all()
    select_levels(x)
    x[5] = -bound
    for refuse in (lambda y: denoise(y, DenoiseConfig(method)), select_levels):
        with pytest.raises(ValueError, match=r"samples too large: max\|x\| = .* must stay below 2\^1020/n"):
            refuse(x)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    method=st.sampled_from(METHODS),
    bank=st.sampled_from(BANK_NAMES),
    levels=st.sampled_from([None, 1, 2, 3]),
    n=st.sampled_from([256, 1000, 1001, 4096]),
    kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
# Automatic depth over mixed rows gives several depth groups.  At
# n = 4096 a DWT row block holds 16 rows and a pyramid block 2 to 16, so
# 40 rows span several blocks.
@example(
    method="pes-pyramid", bank="db4", levels=None, n=4096, seed=5,
    kinds=["zeros", "doppler", "constant", "bumps", "blocks", "cusp", "heavy-sine", "piece-regular"] * 5,
)
@example(
    method="universal", bank="farras", levels=2, n=4096, seed=6,
    kinds=["blocks", "zeros", "doppler", "constant"] * 10,
)
@example(method="three-sigma", bank="haar", levels=None, n=1000, seed=7, kinds=["zeros", "constant", "bumps"])
@example(method="pes-wavelet", bank="db4", levels=None, n=256, seed=8, kinds=list(_ROW_KINDS) * 5)
def test_denoise_is_the_public_pipeline(method, bank, levels, n, kinds, seed):
    # A DWT halves every level, so its methods take the even length below n.
    n -= n % 2 if method != "pes-pyramid" else 0
    x = _rows(kinds, n, seed)
    cfg = DenoiseConfig(method=method, bank=bank, levels=levels)
    assert _same_bits(denoise(x, cfg), np.stack([denoise_reference(row, cfg) for row in x]))
