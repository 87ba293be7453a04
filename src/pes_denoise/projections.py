"""Convex-geometry core: soft thresholding, l1-ball projection, and the
projection onto the epigraph of the l1 norm.

The epigraph projection is what turns a noisy subband into a denoised
one without any noise-variance estimate: the epigraph step derives d,
the ball size implied by projecting the lifted band (w, 0) onto the
boundary hyperplane of the epigraph, and the ball projection at d
applies it, as a data-derived soft threshold.

Every projection runs through one segmented kernel, :func:`_project`:
the last axis of a (T, N) array concatenates bands of given lengths, and
each (row, band) pair is projected on its own, all in one call.  An
all-zero band takes the same rule as any other: it has no candidate to
sort, and its threshold is 0, so it is its own projection.  The public
1-D functions are the case of one row and one band, and refuse NaN and
infinite entries; denoise, which has checked its own input, calls the
kernel directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._workspace import scratch
from .transforms import _as_real

# Rounding margin of the candidate floor, per entry of a band and per unit
# of its l1 mass: an upper bound on the error of the sorted rule's test
# (see _sorted_rule).
_FLOOR_MARGIN = 4 * np.finfo(float).eps


def soft_threshold(w: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """Elementwise shrinkage sign(w) * max(|w| - theta, 0), with -0.0 kept.

    theta is a scalar or broadcasts against w, e.g. one threshold per row
    of a (T, K) array as a (T, 1) column.
    """
    if not np.logical_and.reduce(np.asarray(theta) >= 0, axis=None):
        raise ValueError(f"threshold must be nonnegative, got {theta}")
    w = _as_real(w)
    out = np.empty(np.broadcast(w, theta).shape)
    return _soft(np.abs(w, out=out), theta, w, out)


def _soft(mag: np.ndarray, threshold, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """copysign(max(mag - threshold, 0), w) into out, with mag = |w| overwritten."""
    np.subtract(mag, threshold, out=mag)
    np.maximum(mag, 0.0, out=mag)
    return np.copysign(mag, w, out=out)


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
    threshold: np.ndarray  # soft threshold applied: the sorted rule's theta at d
    fast_path: np.ndarray  # True where no nonzero entry was zeroed (rho >= nnz)
    rho: np.ndarray  # entries the sorted rule keeps


@functools.lru_cache(maxsize=64)
def _layout(lengths: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Read-only arrays of a band layout along the last axis: (lengths,
    starts, each band's rounding margin per unit of l1 mass, each entry's
    band)."""
    sizes = np.array(lengths)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    margin = _FLOOR_MARGIN * sizes
    band = np.repeat(np.arange(sizes.shape[0]), sizes)
    for array in (sizes, starts, margin, band):
        array.flags.writeable = False
    return sizes, starts, margin, band


def _per_entry(values: np.ndarray, band: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(rows, B) values of each (row, band) at every entry of its band: the
    (rows, 1) column itself where there is one band, which broadcasts, or
    written into out, a (rows, N) buffer."""
    if values.shape[-1] == 1:
        return values
    return values.take(band, axis=-1, out=out, mode="clip")


def _sorted_rule(
    mag: np.ndarray,
    l1: np.ndarray,
    d: np.ndarray,
    layout: tuple[np.ndarray, ...],
    flag: np.ndarray,
    spread: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(theta, rho) of the sorted rule at ball sizes d, for every (row, band)
    of a block of magnitudes, as (T, B) arrays.  flag and spread are
    boolean and float work buffers of mag's shape.

    The sorted rule of Duchi et al. 2008 ("Efficient projections onto the
    l1-ball"): with the descending magnitudes mu_1 >= ... of a band,
    rho = max{ j : mu_j - (sum_{r<=j} mu_r - d)/j > 0 } and
    theta = (sum_{r<=rho} mu_r - d)/rho, with rho = 1 where no j passes.

    Only a band's candidates are sorted.  Where mu_1 - mu_j >= d,
    sum_{r<=j} (mu_r - mu_j) >= d and the test fails at j, so every entry
    the rule keeps is at least mu_1 - d (in the spirit of Condat 2016,
    "Fast projection onto the simplex and the l1 ball").  The floor is
    lowered by margin * l1, more than the rounding error of the test, so
    that no j the rule passes in floating point is left out.  The
    candidates are every entry strictly above the floor, ties included, so
    they are the top of the band's sorted order, and their cumulative sums
    are bit for bit those of the whole sorted band: theta and rho are
    exactly the full-sort rule's for the same d.  An all-zero band has no
    candidate, and gets the full-sort rule's theta = 0 and rho = 1.
    """
    _, starts, margin, band = layout
    floor = np.maximum.reduceat(mag, starts, axis=-1) - (d + margin * l1)
    np.greater(mag, _per_entry(floor, band, spread), out=flag)
    counts = np.add.reduceat(flag, starts, axis=-1, dtype=np.intp).reshape(-1, 1)
    # One row per (row, band): its candidates, then -inf, which no test
    # passes at.  A band with no candidate gets one column: q = -inf there,
    # and theta 0 once floored, or NaN from a NaN floor (non-finite input),
    # a threshold as meaningless as such input makes every other one.
    ranks = np.arange(1, max(np.maximum.reduce(counts, axis=None), 1) + 1)
    mu = np.empty((counts.shape[0], ranks.shape[0]))
    mu.fill(-np.inf)
    mu[ranks <= counts] = mag[flag]  # both row-major, so each band's candidates fill its row
    mu.sort(axis=-1)
    mu = mu[:, ::-1]  # mu_1 >= mu_2 >= ... >= mu_c, then the padding
    q = (np.add.accumulate(mu, axis=-1) - d.reshape(-1, 1)) / ranks  # (sum_{r<=j} mu_r - d)/j
    kept = np.maximum(np.maximum.reduce((mu > q) * ranks, axis=-1), 1)  # the last j that passes
    theta = np.maximum(q[np.arange(kept.shape[0]), kept - 1], 0.0)
    return theta.reshape(l1.shape), kept.reshape(l1.shape)


def _project(
    w: np.ndarray,
    lengths: tuple[int, ...],
    ball: np.ndarray | None,
    out: np.ndarray | None = None,
) -> BandProjection:
    """The segmented kernel behind every projection in this module.

    With a (T, B) array of positive ball sizes, each (row, band) gets its
    projection onto that l1 ball; with ball=None, its epigraph projection,
    which is the ball projection at the derived size d.  The projected
    bands are written into out, a fresh array by default; out may be w
    itself.  w is not checked: non-finite entries give meaningless numbers
    for their own (row, band) only.

    Each band's l1 mass and smallest magnitude come from reductions in
    index order, and its nonzero count from one more only where some band
    has a zero entry.  The sorted rule sorts only each band's candidates
    (see _sorted_rule).  The work buffers, of w's shape, come from the
    thread's workspace; denoise hands the kernel one block of rows at a time.
    """
    layout = _layout(lengths)
    sizes, starts, _, band = layout
    mag = np.abs(w, out=scratch("mag", w.shape))
    tmp = scratch("tmp", w.shape)
    flag = scratch("flag", w.shape, bool)
    l1 = np.add.reduceat(mag, starts, axis=-1)
    nnz = sizes
    if not np.logical_and.reduce(np.minimum.reduceat(mag, starts, axis=-1), axis=None):
        np.not_equal(mag, 0.0, out=flag)
        nnz = np.add.reduceat(flag, starts, axis=-1, dtype=np.intp)
    # The epigraph step: (w, 0) reaches the boundary hyperplane after a step
    # of t = l1/(nnz+1) along the normal (sign(w), -1), of squared norm nnz+1,
    # and the implied ball size l1 - nnz*t is t, taken so that it does not cancel.
    d = l1 / (nnz + 1) if ball is None else ball
    theta, rho = _sorted_rule(mag, l1, d, layout, flag, tmp)
    w_p = _soft(mag, _per_entry(theta, band, tmp), w, np.empty_like(w) if out is None else out)
    return BandProjection(w_p=w_p, d=d, threshold=theta, fast_path=rho >= nnz, rho=rho)


def _as_band(w: np.ndarray) -> np.ndarray:
    w = _as_real(w)
    if not np.isfinite(w).all():
        raise ValueError("input contains NaN or infinite entries")
    if w.ndim != 1:
        raise ValueError(f"expected a 1-D band, got shape {w.shape}")
    return w


def project_l1_ball(w: np.ndarray, d: float) -> BallProjection:
    """Euclidean projection onto {u : sum |u[n]| <= d} (sorted variant).

    Interior points return unchanged with theta = 0.  Outside the ball,
    the threshold comes from the sorted rule (see :func:`_sorted_rule`), then
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
    result = _project(w[None, :], (w.shape[0],), np.array([[float(d)]]))
    theta, rho = float(result.threshold[0, 0]), int(result.rho[0, 0])
    return BallProjection(w_p=result.w_p[0], theta=theta, d=float(d), rho=rho)


def project_epigraph_l1(w: np.ndarray) -> EpigraphProjection:
    """Project the lifted point (w, 0) onto the epigraph of the l1 norm.

    The epigraph step projects onto the boundary hyperplane
    sum(sign(w)*u) - z = 0: the displacement is t along the normal
    (sign(w), -1), with t = sum(sign(w)*w) / M and M = nnz+1 the squared
    normal norm, since sign(0) = 0, and the implied ball size is d = t.
    The l1-ball projection at d then gives w_p.  Where it zeroes no
    nonzero entry (fast_path), that is the hyperplane point, and z_p is
    its threshold; elsewhere z_p is the l1 mass of w_p.  An all-zero band
    is its own projection, with z_p = d = 0 on the fast path.
    """
    w = _as_band(w)
    result = _project(w[None, :], (w.shape[0],), None)
    w_p = result.w_p[0]
    fast_path = bool(result.fast_path[0, 0])
    z_p = float(result.threshold[0, 0]) if fast_path else float(np.abs(w_p).sum())
    return EpigraphProjection(w_p=w_p, z_p=z_p, d=float(result.d[0, 0]), fast_path=fast_path)
