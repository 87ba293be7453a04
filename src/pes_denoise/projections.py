"""Convex-geometry core: soft thresholding, l1-ball projection, and the
two-step projection onto the epigraph of the l1 norm.

The epigraph projection is what turns a noisy subband into a denoised
one without any noise-variance estimate: lifting the band w to (w, 0),
projecting onto the boundary hyperplane of the epigraph, and reading off
the implied ball size d gives a data-derived soft threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SIGN_TIE_TOL = 1e-12


def soft_threshold(w: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """Elementwise shrinkage sign(w) * max(|w| - theta, 0).

    theta is a scalar or broadcasts against w, e.g. one threshold per row
    of a (T, K) array as a (T, 1) column.
    """
    if np.any(np.asarray(theta) < 0):
        raise ValueError(f"threshold must be nonnegative, got {theta}")
    w = np.asarray(w, dtype=float)
    return np.sign(w) * np.maximum(np.abs(w) - theta, 0.0)


def l1_ball_max_size(w: np.ndarray) -> float:
    """The band's own l1 mass; projections are informative below it."""
    return float(np.sum(np.abs(w)))


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


def _as_band(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"expected a 1-D band, got shape {w.shape}")
    return w


def _sorted_rule(mag: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, rho) per row of a (T, K) magnitude array whose l1 mass
    exceeds its ball size d > 0 (Duchi et al. 2008, "Efficient projections
    onto the l1-ball").

    With the descending magnitudes mu_1 >= ... of a row,
    rho = max{ j : mu_j - (sum_{r<=j} mu_r - d)/j > 0 } and
    theta = (sum_{r<=rho} mu_r - d)/rho.
    """
    mu = np.sort(mag, axis=-1)[:, ::-1]
    cs = mu.cumsum(axis=-1)
    keep = mu - (cs - d[:, None]) / np.arange(1, mu.shape[-1] + 1) > 0.0
    # The last True of each row; j = 1 always holds since d > 0.
    rho = mu.shape[-1] - keep[:, ::-1].argmax(axis=-1)
    theta = (cs[np.arange(rho.shape[0]), rho - 1] - d) / rho
    return theta, rho


def project_l1_ball(w: np.ndarray, d: float) -> BallProjection:
    """Euclidean projection onto {u : sum |u[n]| <= d} (sorted variant).

    Interior points return unchanged with theta = 0.  Outside the ball,
    the threshold comes from the sorted rule (see :func:`_sorted_rule`),
    then w_p = soft(w, theta).
    """
    if d < 0:
        raise ValueError(f"ball size must be nonnegative, got {d}")
    w = _as_band(w)
    mag = np.abs(w)
    if float(np.sum(mag)) <= d:
        return BallProjection(w_p=w.copy(), theta=0.0, d=float(d), rho=0)
    if d == 0.0:
        # The rule's rho is undefined here; the smallest threshold that
        # empties the ball is the max magnitude.
        return BallProjection(w_p=np.zeros_like(w), theta=float(np.max(mag)), d=0.0, rho=0)
    theta, rho = _sorted_rule(mag[None, :], np.array([float(d)]))
    theta = float(theta[0])
    return BallProjection(w_p=soft_threshold(w, theta), theta=theta, d=float(d), rho=int(rho[0]))


def project_epigraph_rows(
    w: np.ndarray, strict_paper_mode: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise epigraph projection of a (T, K) array.

    Returns (w_p, z_p, d, fast_path) with one z_p, d and fast_path per
    row, each as in :func:`project_epigraph_l1`.  Only the rows whose
    signs flip take the sorted l1-ball rule.  An all-zero row has nothing
    to threshold and passes through unchanged on the fast path.
    """
    mag = np.abs(w)
    s = np.sign(w)
    nonzero = w != 0
    m = (w.shape[-1] + 1) if strict_paper_mode else (nonzero.sum(axis=-1) + 1)
    t = mag.sum(axis=-1) / m
    w_p = w - t[:, None] * s
    d = (s * w_p).sum(axis=-1)
    # w_p = sign(w) * (|w| - t) exactly, so a nonzero entry's sign flips
    # where t - |w| > 0; flips within the tie tolerance do not count.
    flipped = ((t[:, None] - mag > _SIGN_TIE_TOL) & nonzero).any(axis=-1)
    z_p = t
    if flipped.any():
        mag_f = mag[flipped]
        theta, _ = _sorted_rule(mag_f, d[flipped])
        ball = s[flipped] * np.maximum(mag_f - theta[:, None], 0.0)  # soft(w, theta)
        w_p[flipped] = ball
        z_p[flipped] = np.abs(ball).sum(axis=-1)
    return w_p, z_p, d, ~flipped


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
    w_p, z_p, d, fast_path = project_epigraph_rows(w[None, :], strict_paper_mode)
    return EpigraphProjection(
        w_p=w_p[0], z_p=float(z_p[0]), d=float(d[0]), fast_path=bool(fast_path[0])
    )
