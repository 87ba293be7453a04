"""The per-thread workspace: outputs never alias it, threads never share
it, its size does not grow with the rows of a call, and a warm pyramid
call faults no memory in."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from pes_denoise import DenoiseConfig, denoise, generate_test_signal
from pes_denoise._workspace import BLOCK_ELEMENTS, _local
from pes_denoise.projections import _project
from pes_denoise.transforms import default_cutoffs, pyramid_analysis

METHODS = ("pes-wavelet", "pes-pyramid", "universal", "three-sigma")


def _batch(seed: int, rows: int, n: int = 1024) -> np.ndarray:
    clean = generate_test_signal("heavy-sine", n)
    return clean + 0.1 * np.random.default_rng(seed).normal(size=(rows, n))


def _in_thread(work):
    """work() run on a fresh thread, so that it starts from an empty workspace."""
    result = []
    thread = threading.Thread(target=lambda: result.append(work()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def test_outputs_do_not_change_when_later_calls_run():
    x = _batch(1, 10)
    outputs = [denoise(x, DenoiseConfig(method=m)) for m in METHODS]
    pyramid = pyramid_analysis(x, default_cutoffs(5))
    bands = _project(pyramid.highs.reshape(-1, x.shape[-1]), (x.shape[-1],), None)
    kept = [array.copy() for array in (*outputs, pyramid.lows, pyramid.highs, bands.w_p)]
    later = _batch(2, 30)
    for method in METHODS:
        denoise(later, DenoiseConfig(method=method, levels=3))
    pyramid_analysis(later, default_cutoffs(6))
    _project(later, (512, 256, 256), None)
    for array, copy in zip((*outputs, pyramid.lows, pyramid.highs, bands.w_p), kept):
        assert np.array_equal(array, copy)
        assert not any(np.shares_memory(array, buffer) for buffer in _local.buffers.values())


def test_threads_match_serial_calls_bit_for_bit():
    inputs = [_batch(seed, 12) for seed in (3, 4, 5)]
    serial = {
        (t, m): denoise(x, DenoiseConfig(method=m)) for t, x in enumerate(inputs) for m in METHODS
    }
    got: dict = {}
    errors: list = []

    def work(t: int) -> None:
        try:
            for _ in range(3):
                for method in METHODS:
                    got[t, method] = denoise(inputs[t], DenoiseConfig(method=method))
                    assert np.array_equal(got[t, method], serial[t, method])
        except Exception as exc:  # noqa: BLE001 - re-raised below, on the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert got.keys() == serial.keys()


@pytest.mark.parametrize("levels", [None, 3, 6])
@pytest.mark.parametrize("method", METHODS)
def test_batch_across_row_blocks_equals_single_calls(method, levels):
    # denoise runs rows of depth L in blocks of 64 // L rows at n = 1024:
    # 300 rows span 15 blocks at depth 3 and 30 at depth 6, and at the
    # spectrum's depths they split into groups of depth 2 and 3.
    x = _batch(6, 300)
    cfg = DenoiseConfig(method=method, levels=levels)
    batch = denoise(x, cfg)
    assert all(np.array_equal(batch[t], denoise(x[t], cfg)) for t in range(x.shape[0]))
    if method == "pes-pyramid" and levels is not None:
        pyramid = pyramid_analysis(x, default_cutoffs(levels))
        one = pyramid_analysis(x[7], default_cutoffs(levels))
        assert np.array_equal(pyramid.lows[:, 7], one.lows)
        assert np.array_equal(pyramid.highs[:, 7], one.highs)


def test_workspace_is_bounded_independently_of_the_rows():
    # Each slot holds one block of rows: at most BLOCK_ELEMENTS doubles, or
    # n/2 + 1 complex values per row of n = 1024 samples.  Unbounded, one
    # depth-6 call on 300 rows would hold 6 * 300 * 1024 doubles per array.
    x = _batch(7, 300)

    def work() -> list[int]:
        for method in METHODS:
            denoise(x, DenoiseConfig(method=method))
        denoise(x, DenoiseConfig(method="pes-pyramid", levels=6))
        return [buffer.nbytes for buffer in _local.buffers.values()]

    sizes = _in_thread(work)
    assert 0 < len(sizes) <= 5
    assert max(sizes) <= 8 * BLOCK_ELEMENTS * 513 // 512


# Run in a fresh interpreter: freeing large arrays raises glibc's adaptive
# mmap threshold, so earlier tests in this process would hide the faults.
_WARM_PYRAMID_FAULTS = """
import resource
import numpy as np
from pes_denoise import DenoiseConfig, denoise, generate_test_signal
noise = np.random.default_rng(8).normal(size=(10, 1024))
x = generate_test_signal("heavy-sine", 1024) + 0.1 * noise
cfg = DenoiseConfig(method="pes-pyramid", levels=6)
for _ in range(5):
    denoise(x, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    denoise(x, cfg)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_warm_pyramid_calls_fault_no_memory_in():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_PYRAMID_FAULTS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    faults = float(proc.stdout.strip())
    assert faults <= 1.0, f"{faults:.1f} minor faults per call"
