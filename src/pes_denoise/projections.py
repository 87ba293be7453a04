"""Convex-geometry core: soft thresholding, l1-ball projection, and the
two-step projection onto the epigraph of the l1 norm.

The epigraph projection is what turns a noisy subband into a denoised
one without any noise-variance estimate: lifting the band w to (w, 0),
projecting onto the boundary hyperplane of the epigraph, and reading off
the implied ball size d gives a data-derived soft threshold.

Every projection runs through one segmented kernel,
:func:`project_epigraph_bands`: the last axis of a (T, N) array
concatenates bands of given lengths, and each (row, band) pair is
projected on its own, all in one call.  The 1-D functions are the case
of one row and one band.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_SIGN_TIE_TOL = 1e-12
# Rows are projected in blocks of about this many elements, so that the
# kernel's few block-sized buffers stay in a 2 MB L2 cache.
_BLOCK_ELEMENTS = 1 << 14


def soft_threshold(w: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """Elementwise shrinkage sign(w) * max(|w| - theta, 0).

    theta is a scalar or broadcasts against w, e.g. one threshold per row
    of a (T, K) array as a (T, 1) column.
    """
    if not np.all(np.asarray(theta) >= 0):
        raise ValueError(f"threshold must be nonnegative, got {theta}")
    w = np.asarray(w, dtype=float)
    return np.sign(w) * np.maximum(np.abs(w) - theta, 0.0)


@dataclass(frozen=True)
class BallProjection:
    w_p: np.ndarray
    theta: float
    d: float
    rho: int


@dataclass(frozen=True)
class EpigraphProjection:
    w_p: np.ndarray
    z_p: float
    d: float
    fast_path: bool


@dataclass(frozen=True)
class BandProjection:
    """Projections of every (row, band) of a (T, N) array.

    w_p has the input's shape; the other fields are (T, B), one value per
    row and band.
    """

    w_p: np.ndarray
    d: np.ndarray  # the derived ball size
    threshold: np.ndarray  # soft threshold applied: t on the fast path, theta otherwise
    fast_path: np.ndarray  # True where no sign flipped
    rho: np.ndarray  # entries the sorted rule keeps; 0 where it did not run


@functools.lru_cache(maxsize=64)
def _layout(lengths: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index arrays of a band layout along the last axis.

    (lengths, starts, band of each position, 1-based rank of each position
    within its band, as floats).
    """
    sizes = np.array(lengths)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    band_of = np.repeat(np.arange(sizes.shape[0]), sizes)
    rank = (np.arange(band_of.shape[0]) - starts[band_of] + 1).astype(float)
    for array in (sizes, starts, band_of, rank):
        array.flags.writeable = False
    return sizes, starts, band_of, rank


def _project(
    w: np.ndarray, lengths: tuple[int, ...], strict_paper_mode: bool, ball: np.ndarray | None
) -> BandProjection:
    """The segmented kernel behind every projection in this module.

    With ball=None each (row, band) gets its epigraph projection; with a
    (T, B) array of positive ball sizes, its projection onto that l1 ball.

    The sorted rule of Duchi et al. 2008 ("Efficient projections onto the
    l1-ball"): with the descending magnitudes mu_1 >= ... of a band,
    rho = max{ j : mu_j - (sum_{r<=j} mu_r - d)/j > 0 } and
    theta = (sum_{r<=rho} mu_r - d)/rho.  The bands are sorted as negated
    magnitudes, so every sum below is the exact negation of the one in
    that formula.
    """
    sizes, starts, band_of, rank = _layout(lengths)
    ends = starts + sizes
    rows, n = w.shape
    result = BandProjection(
        w_p=np.empty_like(w),
        d=np.empty((rows, sizes.shape[0])),
        threshold=np.empty((rows, sizes.shape[0])),
        fast_path=np.empty((rows, sizes.shape[0]), dtype=bool),
        rho=np.empty((rows, sizes.shape[0]), dtype=np.intp),
    )
    block = min(rows, max(1, _BLOCK_ELEMENTS // n))
    buffers = [np.empty((block, n)) for _ in range(4)] + [np.empty((block, n), dtype=bool)]
    bounds = list(zip(starts.tolist(), ends.tolist()))
    for r0 in range(0, rows, block):
        wb = w[r0:r0 + block]
        mag, neg, cs, tmp, flag = (buffer[: wb.shape[0]] for buffer in buffers)
        # Flat index of each block row's first element, for per-band gathers.
        base = np.arange(wb.shape[0])[:, None] * n
        np.abs(wb, out=mag)
        np.negative(mag, out=neg)
        for start, end in bounds:
            neg[:, start:end].sort(axis=-1)  # -mu_1 <= -mu_2 <= ...
            np.add.accumulate(neg[:, start:end], axis=-1, out=cs[:, start:end])
        if ball is None:
            np.less(neg, 0.0, out=flag)
            nnz = np.add.reduceat(flag, starts, axis=-1, dtype=np.intp)
            l1 = -cs.reshape(-1)[base + (ends - 1)]
            t = l1 / ((sizes if strict_paper_mode else nnz) + 1)
            d = l1 - nnz * t
            # w_p = sign(w) * (|w| - t) on the boundary hyperplane, so a
            # nonzero entry's sign flips where t exceeds its magnitude; the
            # smallest nonzero magnitude of a band sits at its rank nnz.
            smallest = -neg.reshape(-1)[base + starts + np.maximum(nnz, 1) - 1]
            fast = (t - smallest <= _SIGN_TIE_TOL) | (nnz == 0)
        else:
            d = ball[r0:r0 + block]
            t = np.zeros_like(d)
            fast = np.zeros(d.shape, dtype=bool)
        threshold, rho = t, np.zeros(d.shape, dtype=np.intp)
        if not fast.all():
            d.take(band_of, axis=-1, out=tmp, mode="clip")
            np.add(cs, tmp, out=tmp)
            np.divide(tmp, rank, out=tmp)
            np.subtract(tmp, neg, out=tmp)  # mu_j - (sum_{r<=j} mu_r - d)/j
            np.greater(tmp, 0.0, out=flag)
            np.multiply(flag, rank, out=tmp)
            # The last j that passes; j = 1 always does where the rule
            # applies (d > 0).  The clamp keeps the gather in range on
            # fast-path bands, whose theta is discarded.
            kept = np.maximum(np.maximum.reduceat(tmp, starts, axis=-1).astype(np.intp), 1)
            theta = -(cs.reshape(-1)[base + starts + kept - 1] + d) / kept
            threshold = np.where(fast, t, theta)
            rho = np.where(fast, 0, kept)
        threshold.take(band_of, axis=-1, out=tmp, mode="clip")
        np.subtract(mag, tmp, out=tmp)
        np.maximum(tmp, 0.0, out=tmp)
        np.copysign(tmp, wb, out=result.w_p[r0:r0 + block])  # soft(w, threshold)
        result.d[r0:r0 + block] = d
        result.threshold[r0:r0 + block] = threshold
        result.fast_path[r0:r0 + block] = fast
        result.rho[r0:r0 + block] = rho
    return result


def project_epigraph_bands(
    w: np.ndarray, lengths: tuple[int, ...] | None = None, strict_paper_mode: bool = False
) -> BandProjection:
    """Epigraph projection of every (row, band) of a (T, N) array.

    The last axis concatenates bands of the given lengths (one band of
    length N by default); each (row, band) pair is projected as
    :func:`project_epigraph_l1` projects a 1-D band.  An all-zero band has
    nothing to threshold and passes through unchanged on the fast path.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"expected a (T, N) array, got shape {w.shape}")
    lengths = (w.shape[-1],) if lengths is None else tuple(int(k) for k in lengths)
    if min(lengths, default=0) < 1 or sum(lengths) != w.shape[-1]:
        raise ValueError(
            f"band lengths {lengths} do not tile the last axis of length {w.shape[-1]}"
        )
    return _project(w, lengths, strict_paper_mode, None)


def _as_band(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"expected a 1-D band, got shape {w.shape}")
    return w


def project_l1_ball(w: np.ndarray, d: float) -> BallProjection:
    """Euclidean projection onto {u : sum |u[n]| <= d} (sorted variant).

    Interior points return unchanged with theta = 0.  Outside the ball,
    the threshold comes from the sorted rule (see :func:`_project`), then
    w_p = soft(w, theta).
    """
    if not d >= 0:
        raise ValueError(f"ball size must be nonnegative, got {d}")
    w = _as_band(w)
    mag = np.abs(w)
    if float(np.sum(mag)) <= d:
        return BallProjection(w_p=w.copy(), theta=0.0, d=float(d), rho=0)
    if d == 0.0:
        # The rule's rho is undefined here; the smallest threshold that
        # empties the ball is the max magnitude.
        return BallProjection(w_p=np.zeros_like(w), theta=float(np.max(mag)), d=0.0, rho=0)
    result = _project(w[None, :], (w.shape[0],), False, np.array([[float(d)]]))
    theta, rho = float(result.threshold[0, 0]), int(result.rho[0, 0])
    return BallProjection(w_p=result.w_p[0], theta=theta, d=float(d), rho=rho)


def project_epigraph_l1(w: np.ndarray, strict_paper_mode: bool = False) -> EpigraphProjection:
    """Project the lifted point (w, 0) onto the epigraph of the l1 norm.

    Step 1 projects onto the boundary hyperplane sum(sign(w)*u) - z = 0:
    the displacement is t along the normal (sign(w), -1), with
    t = sum(sign(w)*w) / M and M the squared normal norm.  Step 2 keeps
    that point when no component's sign flipped; otherwise it falls back
    to the l1-ball projection at the derived size d.

    M counts only nonzero entries (+1) by default, which is the exact
    squared norm since sign(0) = 0; strict_paper_mode uses len(w)+1
    regardless, for reproducing results that assumed no zero entries.
    """
    w = _as_band(w)
    if not np.any(w):
        raise ValueError("epigraph projection undefined for an all-zero band")
    result = project_epigraph_bands(w[None, :], None, strict_paper_mode)
    w_p = result.w_p[0]
    fast_path = bool(result.fast_path[0, 0])
    z_p = float(result.threshold[0, 0]) if fast_path else float(np.abs(w_p).sum())
    return EpigraphProjection(w_p=w_p, z_p=z_p, d=float(result.d[0, 0]), fast_path=fast_path)
