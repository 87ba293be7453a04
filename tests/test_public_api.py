"""The package's public surface, pinned.

Adding or removing a public name, or a field of DenoiseConfig or of a
result type, should be a deliberate change to the lists below.
"""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

import pes_denoise
from pes_denoise import DenoiseConfig

PUBLIC_NAMES = [
    "BANK_NAMES",
    "BallProjection",
    "BandwidthEstimate",
    "DEFAULT_BANK",
    "DenoiseConfig",
    "EpigraphProjection",
    "ExperimentReport",
    "ExperimentSpec",
    "FilterBank",
    "NoiseSpec",
    "PyramidSet",
    "ReportRow",
    "SIGNAL_NAMES",
    "SubbandSet",
    "add_gaussian_noise",
    "default_cutoffs",
    "denoise",
    "dwt_analysis",
    "dwt_synthesis",
    "emit_csv",
    "emit_spectrum_csv",
    "estimate_bandwidth",
    "estimate_sigma",
    "generate_test_signal",
    "get_filter_bank",
    "grand_means",
    "magnitude_spectrum",
    "project_epigraph_l1",
    "project_l1_ball",
    "pyramid_analysis",
    "pyramid_max_levels",
    "pyramid_synthesis",
    "run_experiment",
    "select_levels",
    "signal_to_csv",
    "snr_db",
    "soft_threshold",
]


def test_all_is_pinned():
    assert sorted(pes_denoise.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(pes_denoise.__all__)) == len(pes_denoise.__all__)


def test_spectrum_parameters_are_pinned():
    # perfbench/tracer.py binds select_levels's argument `x` by name.
    # The spectrum rule has no knobs.
    assert list(inspect.signature(pes_denoise.select_levels).parameters) == ["x"]
    assert list(inspect.signature(pes_denoise.estimate_bandwidth).parameters) == ["mag"]


def test_denoise_parameters_are_pinned():
    # perfbench/tracer.py binds denoise's argument `cfg` by name.  The
    # harness hands over its block's shared work by a private keyword-only parameter.
    parameters = inspect.signature(pes_denoise.denoise).parameters
    kinds = {name: parameter.kind for name, parameter in parameters.items()}
    assert kinds == {
        "x": inspect.Parameter.POSITIONAL_OR_KEYWORD,
        "cfg": inspect.Parameter.POSITIONAL_OR_KEYWORD,
        "_block": inspect.Parameter.KEYWORD_ONLY,
    }
    with pytest.raises(TypeError):
        pes_denoise.denoise(np.zeros(64), DenoiseConfig(), 3)


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from pes_denoise import *", namespace)
    for name in PUBLIC_NAMES:
        assert getattr(pes_denoise, name) is namespace[name]


def test_denoise_is_the_only_denoising_entry_point():
    # The package attribute `denoise` is the function, so fetch the module.
    module = importlib.import_module("pes_denoise.denoise")
    for name in ("pes_l1_wavelet", "pes_l1_pyramid", "baseline_universal", "baseline_three_sigma"):
        assert not hasattr(pes_denoise, name)
        assert not hasattr(module, name)


def test_config_fields_are_pinned():
    assert [field.name for field in dataclasses.fields(DenoiseConfig)] == [
        "method",
        "bank",
        "levels",
    ]


def test_result_fields_are_pinned():
    # Every bank is orthonormal and synthesis reuses the analysis taps; a
    # band set's depth and length follow from its arrays.
    fields = {
        pes_denoise.FilterBank: ["name", "analysis_lo", "analysis_hi"],
        pes_denoise.SubbandSet: ["lowband", "details"],
        pes_denoise.PyramidSet: ["lows", "highs"],
    }
    for cls, expected in fields.items():
        assert [field.name for field in dataclasses.fields(cls)] == expected, cls.__name__


def test_projection_parameters_are_pinned():
    # One normalisation, nnz+1: no projection takes a mode switch.
    params = {
        "project_epigraph_l1": ["w"],
        "project_l1_ball": ["w", "d"],
        "soft_threshold": ["w", "theta"],
    }
    for name, expected in params.items():
        assert list(inspect.signature(getattr(pes_denoise, name)).parameters) == expected, name


@pytest.mark.parametrize(
    "call",
    [
        pes_denoise.estimate_bandwidth,
        pes_denoise.estimate_sigma,
        lambda z: pes_denoise.snr_db(z, np.ones(64)),
        lambda z: pes_denoise.snr_db(np.ones(64), z),
        lambda z: pes_denoise.add_gaussian_noise(z, pes_denoise.NoiseSpec(0.1)),
    ],
    ids=["estimate_bandwidth", "estimate_sigma", "snr_db-reference", "snr_db-estimate", "add_gaussian_noise"],
)
def test_numeric_entry_points_refuse_complex_input(call):
    # A float cast would drop the imaginary part with only a ComplexWarning.
    with pytest.raises(ValueError, match="complex"):
        call(np.ones(64) + 0.5j)
