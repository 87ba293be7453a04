"""The input rules at the public boundary, each written once.

The sample rule (spectrum._samples) admits one real signal (n,) or a
batch (T, n) with T >= 1 and n >= 16 whose samples are finite and below
2^1020/n in magnitude; denoise, select_levels and magnitude_spectrum run
it, and add_gaussian_noise runs it and then takes only one signal.  The
integer rule (transforms._check_integer) refuses a count or seed that is
not an int or numpy integer (a bool is not one) or is below its least
value, with one message; the depth helpers (default_cutoffs,
pyramid_max_levels, feasible_levels) run it too.  ExperimentSpec refuses a
repeated signal, noise fraction or method.  The public decompositions and
estimate_sigma refuse NaN, infinite and 0-d input and keep their own
length rules.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import deepest_allowed

from pes_denoise.denoise import METHODS, DenoiseConfig, clamp_depth, denoise, estimate_sigma
from pes_denoise.harness import ExperimentSpec, run_experiment
from pes_denoise.signals import NoiseSpec, add_gaussian_noise, generate_test_signal
from pes_denoise.spectrum import magnitude_spectrum, select_levels
from pes_denoise.transforms import (
    default_cutoffs,
    dwt_analysis,
    feasible_levels,
    get_filter_bank,
    pyramid_analysis,
    pyramid_max_levels,
)

_KINDS = ("plain", "nan", "inf", "-inf", "at the bound", "under the bound")


def _refusal(call, x) -> str | None:
    """The message of the ValueError that call(x) raises, or None if it returns."""
    try:
        call(x)
    except ValueError as exc:
        return str(exc)
    return None


def _broken(x: np.ndarray) -> str | None:
    """The part of the sample rule, as stated, that x breaks, or None."""
    if x.ndim not in (1, 2) or x.size == 0 or x.shape[-1] < 16:
        return "shape"
    if not np.all(np.isfinite(x)):
        return "finite"
    if not np.max(np.abs(x)) < 2.0**1020 / x.shape[-1]:
        return "size"
    return None


def _message(part: str, x: np.ndarray) -> str:
    """A pattern of the message that refuses x for breaking part of the rule."""
    shape = f"expected one signal (n,) or a batch (T, n) with T >= 1 and n >= 16, got shape {x.shape}"
    return {
        "shape": f"^{re.escape(shape)}$",
        "finite": "^input contains NaN or infinite samples$",
        "size": r"^samples too large: max\|x\| = .* must stay below 2\^1020/n = ",
    }[part]


def _samples_of(shape: tuple[int, ...], kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if x.size == 0 or kind == "plain":
        return x
    spot = int(rng.integers(x.size))
    if kind in ("nan", "inf", "-inf"):
        x.flat[spot] = float(kind)
        return x
    bound = 2.0**1020 / (shape[-1] if shape else 1)
    x = x / np.max(np.abs(x)) * (bound / 8)
    x.flat[spot] = -bound if kind == "at the bound" else -np.nextafter(bound, 0.0)
    return x


_SHAPES = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(0, 3), st.integers(1, 40)),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 40)),
)


@settings(max_examples=300, deadline=None)
@given(shape=_SHAPES, kind=st.sampled_from(_KINDS), seed=st.integers(0, 2**32 - 1))
@example(shape=(2, 3, 64), kind="plain", seed=0)
@example(shape=(0, 20), kind="plain", seed=0)
@example(shape=(), kind="plain", seed=0)
@example(shape=(15,), kind="plain", seed=0)
@example(shape=(16,), kind="plain", seed=0)
@example(shape=(3, 16), kind="nan", seed=1)
@example(shape=(17,), kind="at the bound", seed=2)
@example(shape=(2, 17), kind="under the bound", seed=3)
@example(shape=(3, 40), kind="under the bound", seed=4)
@example(shape=(), kind="at the bound", seed=117)
def test_one_sample_rule_for_denoise_select_levels_and_magnitude_spectrum(shape, kind, seed):
    x = _samples_of(shape, kind, seed)
    broken = _broken(x)
    refusal = _refusal(magnitude_spectrum, x)
    if broken is None:
        assert refusal is None
    else:
        assert re.search(_message(broken, x), refusal)
    assert _refusal(select_levels, x) == refusal
    for method in METHODS:
        got = _refusal(lambda y: denoise(y, DenoiseConfig(method)), x)
        if broken is None and method != "pes-pyramid" and shape[-1] % 2:
            # Admitted samples, at a length where a DWT runs at no depth.
            assert got == f"{method} needs an even signal length, got n={shape[-1]}"
        else:
            assert got == refusal


# The public readers of samples that denoise calls after its own sample rule.
_READERS = {
    "dwt_analysis": lambda x: dwt_analysis(x, get_filter_bank("haar"), 2),
    "pyramid_analysis": lambda x: pyramid_analysis(x, default_cutoffs(2)),
    "estimate_sigma": estimate_sigma,
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_decompositions_and_estimate_sigma_refuse_non_finite_and_0d_input(reader, bad):
    # Each refuses a NaN or infinite sample with the sample rule's message;
    # estimate_sigma's partition used to drop a NaN among ones unseen.
    call = _READERS[reader]
    for shape in [(64,), (3, 64)]:
        x = np.ones(shape)
        x.flat[5] = bad
        with pytest.raises(ValueError, match="^input contains NaN or infinite samples$"):
            call(x)
    with pytest.raises(ValueError, match=re.escape("expected samples along a last axis, got shape ()")):
        call(np.array(bad))
    call(np.ones(64))
    # Their length rules are their own: a 4-sample haar DWT still runs.
    assert dwt_analysis(np.ones(4), get_filter_bank("haar"), 1).details[0].shape == (2,)


def _dwt(levels):
    return dwt_analysis(np.ones(64), get_filter_bank("haar"), levels)


# (the integer's name, its least value, a call that takes it)
_INTEGERS = {
    "DenoiseConfig.levels": ("levels", 1, lambda v: DenoiseConfig(levels=v)),
    "ExperimentSpec.trials": ("trials", 1, lambda v: ExperimentSpec(trials=v)),
    "ExperimentSpec.n": ("n", 16, lambda v: ExperimentSpec(n=v)),
    "ExperimentSpec.base_seed": ("base_seed", 0, lambda v: ExperimentSpec(base_seed=v)),
    "NoiseSpec.seed": ("seed", 0, lambda v: NoiseSpec(0.2, seed=v)),
    "generate_test_signal.n": ("n", 16, lambda v: generate_test_signal("blocks", v)),
    "dwt_analysis.levels": ("levels", 1, _dwt),
    "default_cutoffs.levels": ("levels", 1, default_cutoffs),
    "pyramid_max_levels.n": ("n", 1, pyramid_max_levels),
    "feasible_levels.n": ("n", 1, lambda v: feasible_levels(v, 6, 4)),
    "feasible_levels.levels": ("levels", 1, lambda v: feasible_levels(1024, v, 4)),
    "feasible_levels.taps": ("taps", 1, lambda v: feasible_levels(1024, 6, v)),
    "clamp_depth.n": ("n", 1, lambda v: clamp_depth(6, DenoiseConfig("pes-pyramid"), v)),
}


@pytest.mark.parametrize("field", sorted(_INTEGERS))
def test_every_integer_is_checked_by_one_rule(field):
    name, least, call = _INTEGERS[field]
    call(least)  # first, so that a memoised rule cannot hand its result to True or float(least)
    for bad in (2.5, True, least - 1, np.int64(least - 1), float(least)):
        message = f"{name} must be an integer >= {least}, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)
    call(np.int64(least))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_depth_is_negative_below_four_samples(n):
    # Neither rule has a depth at these lengths but haar's DWT at n = 2, and
    # none of them is below 0.
    assert pyramid_max_levels(n) == 0
    for method in METHODS:
        for bank in ("haar", "db4"):
            cfg = DenoiseConfig(method, bank)
            want = deepest_allowed(method, get_filter_bank(bank).taps, n)
            assert clamp_depth(6, cfg, n) == want == (method != "pes-pyramid" and bank == "haar" and n == 2)


def _spec(**fields) -> ExperimentSpec:
    base = {"signals": ("cusp",), "noise_fractions": (0.1,), "trials": 2, "n": 256}
    return ExperimentSpec(**{**base, **fields})


@pytest.mark.parametrize(
    "field, values, noun, repeated",
    [
        ("signals", ("blocks", "blocks", "cusp"), "signal", "blocks"),
        ("signals", ("blocks", "Blocks"), "signal", "Blocks, blocks"),
        ("signals", ("heavy_sine", "cusp", "Heavy-Sine"), "signal", "Heavy-Sine, heavy_sine"),
        ("noise_fractions", (0.1, 0.2, 0.1), "noise fraction", "0.1"),
        ("noise_fractions", (0.2, np.float64(0.2)), "noise fraction", "0.2"),
        ("methods", (DenoiseConfig("universal", "haar"), DenoiseConfig("universal")), "method", "universal"),
    ],
)
def test_spec_refuses_a_repeated_signal_fraction_or_method(field, values, noun, repeated):
    # A repeated cell would be run twice and weigh twice in grand_means.
    message = f"each {noun} may appear once per experiment; repeated: {repeated}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _spec(**{field: values})


def test_distinct_cells_give_one_row_per_cell_and_method():
    report = run_experiment(_spec(signals=("blocks", "cusp"), noise_fractions=(0.1, 0.2)))
    keys = [(row.signal, row.fraction, row.method) for row in report.rows]
    assert len(keys) == len(set(keys)) == 2 * 2 * 4


@pytest.mark.parametrize("shape", [(), (0,), (15,), (3, 4), (0, 64), (2, 3, 64)])
def test_add_gaussian_noise_refuses_what_the_sample_rule_refuses(shape):
    x = np.ones(shape)
    with pytest.raises(ValueError, match=f"^{re.escape(_refusal(magnitude_spectrum, x))}$"):
        add_gaussian_noise(x, NoiseSpec(0.1))


def test_add_gaussian_noise_takes_one_signal():
    # A batch would get one noise draw, the same for every row.
    batch = np.ones((4, 64)) * np.arange(1, 5)[:, None]
    with pytest.raises(ValueError, match=re.escape("expected one signal (n,), got shape (4, 64)")):
        add_gaussian_noise(batch, NoiseSpec(0.1))
    for bad in (math.nan, math.inf):
        v = generate_test_signal("cusp", 64)
        v[9] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            add_gaussian_noise(v, NoiseSpec(0.1))
    assert add_gaussian_noise(generate_test_signal("cusp", 16), NoiseSpec(0.1)).shape == (16,)


def test_numpy_integers_run_as_ints():
    # The integer rule admits numpy integers, so a spec of them runs as one of ints.
    fields = {"signals": ("cusp", "blocks"), "noise_fractions": (0.1,)}
    ints = ExperimentSpec(**fields, trials=3, n=256, base_seed=2)
    numpy_ints = ExperimentSpec(**fields, trials=np.int64(3), n=np.int64(256), base_seed=np.int64(2))
    assert run_experiment(numpy_ints) == run_experiment(ints)
