"""1-D signal denoising with projection-derived soft thresholds.

The threshold for each subband comes from projecting the band onto the
epigraph of the l1 norm, so no noise-variance estimate is needed.  The
package ships wavelet and pyramid decompositions, two classical
baselines, test-signal generators, and a Monte-Carlo experiment harness
with a CLI (``pes-denoise``).
"""

from .denoise import DenoiseConfig, denoise, estimate_sigma
from .harness import (
    ExperimentReport,
    ExperimentSpec,
    ReportRow,
    emit_csv,
    emit_spectrum_csv,
    grand_means,
    run_experiment,
)
from .projections import (
    BallProjection,
    EpigraphProjection,
    project_epigraph_l1,
    project_l1_ball,
    soft_threshold,
)
from .signals import (
    SIGNAL_NAMES,
    NoiseSpec,
    add_gaussian_noise,
    generate_test_signal,
    signal_to_csv,
    snr_db,
)
from .spectrum import (
    BandwidthEstimate,
    estimate_bandwidth,
    magnitude_spectrum,
    select_levels,
)
from .transforms import (
    BANK_NAMES,
    DEFAULT_BANK,
    FilterBank,
    PyramidSet,
    SubbandSet,
    default_cutoffs,
    dwt_analysis,
    dwt_synthesis,
    get_filter_bank,
    pyramid_analysis,
    pyramid_max_levels,
    pyramid_synthesis,
)

__version__ = "0.1.0"

__all__ = [
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
