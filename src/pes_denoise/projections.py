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


def soft_threshold(w: np.ndarray, theta: float) -> np.ndarray:
    """Elementwise shrinkage sign(w) * max(|w| - theta, 0)."""
    if theta < 0:
        raise ValueError(f"threshold must be nonnegative, got {theta}")
    w = np.asarray(w, dtype=float)
    if theta == 0.0:
        return w.copy()
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


def project_l1_ball(w: np.ndarray, d: float) -> BallProjection:
    """Euclidean projection onto {u : sum |u[n]| <= d} (sorted variant).

    Interior points return unchanged with theta = 0.  Outside the ball,
    the threshold follows from the descending magnitudes mu_1 >= ... by
    rho = max{ j : mu_j - (sum_{r<=j} mu_r - d)/j > 0 } and
    theta = (sum_{r<=rho} mu_r - d)/rho, then w_p = soft(w, theta).
    """
    if d < 0:
        raise ValueError(f"ball size must be nonnegative, got {d}")
    w = np.asarray(w, dtype=float)
    l1 = float(np.sum(np.abs(w)))
    if l1 <= d:
        return BallProjection(w_p=w.copy(), theta=0.0, d=float(d), rho=0)
    if d == 0.0:
        # Algorithm's rho is undefined here; the smallest threshold that
        # empties the ball is the max magnitude.
        return BallProjection(w_p=np.zeros_like(w), theta=float(np.max(np.abs(w))), d=0.0, rho=0)
    mu = np.sort(np.abs(w))[::-1]
    cs = np.cumsum(mu)
    keep = mu - (cs - d) / np.arange(1, mu.shape[0] + 1) > 0.0
    rho = int(np.flatnonzero(keep)[-1]) + 1
    theta = float((cs[rho - 1] - d) / rho)
    return BallProjection(w_p=soft_threshold(w, theta), theta=theta, d=float(d), rho=rho)


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
    w = np.asarray(w, dtype=float)
    if not np.any(w):
        raise ValueError("epigraph projection undefined for an all-zero band")
    s = np.sign(w)
    d_max = float(np.sum(s * w))
    nnz = int(np.count_nonzero(w))
    m = (w.shape[0] + 1) if strict_paper_mode else (nnz + 1)
    t = d_max / m
    w_p = w - t * s
    z_p = t
    d = float(np.sum(s * w_p))
    flipped = (np.sign(w_p) != s) & (w != 0) & (np.abs(w_p) > _SIGN_TIE_TOL)
    if not flipped.any():
        return EpigraphProjection(w_p=w_p, z_p=z_p, d=d, fast_path=True)
    ball = project_l1_ball(w, d)
    return EpigraphProjection(w_p=ball.w_p, z_p=float(np.sum(np.abs(ball.w_p))), d=d, fast_path=False)
