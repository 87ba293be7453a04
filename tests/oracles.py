"""Reference computations that the tests check the library against.

These are not part of the package's API: each one restates a quantity
the library computes internally, so a test can compare the two.
"""

import numpy as np

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
