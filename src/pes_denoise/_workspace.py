"""Per-thread scratch memory for the transients of the batched kernels.

The pyramid and the projection kernel need several block-sized arrays
that never leave a call.  Allocated fresh, they are returned to the
operating system when freed and faulted back in by the next call, page by
page.  Each thread instead keeps one grow-only buffer per slot and hands
out views of it.  The views' contents are undefined, and a function that
takes one never returns it or keeps it past its return, so no output
aliases the workspace.

denoise sizes every method's row blocks so that a request holds about
BLOCK_ELEMENTS elements (or one row, where a row is longer): the workspace
is bounded independently of a call's rows.  The harness runs a table in
blocks of whole cells of about as many samples.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# Batched work runs in blocks of about this many elements.  Every block
# repeats its numpy calls, so blocks are large: 2^16 elements hold the
# 40-60 pyramid highband rows of ten 1024-sample signals at once.
BLOCK_ELEMENTS = 1 << 16

_local = threading.local()


def scratch(slot: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An array of shape and dtype over this thread's buffer for slot.

    Its contents are undefined.  A later request for the same slot on the
    same thread reuses the memory, so at most one view of a slot may be in
    use at a time.
    """
    buffers = _local.__dict__.setdefault("buffers", {})
    size = math.prod(shape)
    buffer = buffers.get(slot)
    if buffer is None or buffer.dtype != dtype or buffer.shape[0] < size:
        buffer = buffers[slot] = np.empty(size, dtype=dtype)
    return buffer[:size].reshape(shape)
