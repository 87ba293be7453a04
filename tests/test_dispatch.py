"""A budget on the Python-level calls of one short denoise call.

At n = 256 a call's arithmetic takes a few tens of microseconds, so its
Python-level calls (the package's own functions and numpy's Python
wrappers) set much of its time.  This test counts the "call" events that
sys.setprofile reports for one warm call per method (doppler, 20% noise,
seed 3) and holds each count to a budget, set about 10% above the counts
of the time: 51 (pes-wavelet), 46 (pes-pyramid) and 48 each (universal,
three-sigma).  The counts last measured are 55, 51, 52 and 52, on Python
3.11.7 and numpy 2.4.6: the sample rule runs once in denoise and once in
select_levels, and dwt_analysis checks its levels with the integer rule.

The counts depend on the Python and numpy versions, since numpy's
wrappers differ between releases.  A new wrapper on the per-call path
shows here first; raise a budget only with the count that a change
measured, and say why.
"""

import sys

import pytest

from pes_denoise.denoise import DenoiseConfig, denoise
from pes_denoise.signals import NoiseSpec, add_gaussian_noise, generate_test_signal

BUDGETS = {"pes-wavelet": 56, "pes-pyramid": 51, "universal": 53, "three-sigma": 53}


def _calls(x, cfg) -> int:
    events = 0

    def profile(frame, event, arg):
        nonlocal events
        events += event == "call"

    sys.setprofile(profile)
    try:
        denoise(x, cfg)
    finally:
        sys.setprofile(None)
    return events


@pytest.mark.parametrize("method", sorted(BUDGETS))
def test_a_short_call_stays_within_its_call_budget(method):
    x = add_gaussian_noise(generate_test_signal("doppler", 256), NoiseSpec(0.2, seed=3))
    cfg = DenoiseConfig(method)
    denoise(x, cfg)  # warm the caches and the workspace
    calls = _calls(x, cfg)
    assert calls <= BUDGETS[method], f"{method}: {calls} Python-level calls"
