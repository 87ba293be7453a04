"""Projection core: hand cases frozen first, then independent oracles.

The l1-ball projection is cross-checked against a bisection on the
threshold (shrink until the l1 mass hits the ball size).  The epigraph
fast path is cross-checked against a bisection on mu solving
||soft(w, mu)||_1 = mu, which is the exact projection height.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect

from oracles import cone_projection, full_sort_rule
from pes_denoise._workspace import BLOCK_ELEMENTS
from pes_denoise.projections import (
    _project,
    project_epigraph_l1,
    project_l1_ball,
    soft_threshold,
)


def ball_oracle(w: np.ndarray, d: float) -> np.ndarray:
    """Bisection on theta: ||soft(w, theta)||_1 is continuous, nonincreasing."""
    l1 = np.abs(w).sum()
    if l1 <= d:
        return w.copy()
    if d == 0.0:
        return np.zeros_like(w)
    theta = bisect(lambda t: np.abs(soft_threshold(w, t)).sum() - d, 0.0, np.abs(w).max(), xtol=1e-12)
    return soft_threshold(w, theta)


def epigraph_oracle(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact epigraph projection of (w, 0): mu solves ||soft(w, mu)||_1 = mu."""
    d_max = float(np.abs(w).sum())
    mu = bisect(lambda m: np.abs(soft_threshold(w, m)).sum() - m, 0.0, d_max, xtol=1e-13)
    return soft_threshold(w, mu), mu


# ---------------------------------------------------------------------------
# soft threshold


def test_soft_threshold_hand_case():
    out = soft_threshold(np.array([3.0, -1.0, 0.5]), 1.0)
    assert np.allclose(out, [2.0, 0.0, 0.0], atol=1e-15)


def test_soft_threshold_zero_is_identity():
    w = np.array([0.3, -2.0, 0.0, 7.25])
    assert np.array_equal(soft_threshold(w, 0.0), w)


def test_soft_threshold_full_shrinkage():
    w = np.array([0.5, -1.5, 1.0])
    assert np.array_equal(soft_threshold(w, 1.5), np.zeros(3))


def test_soft_threshold_broadcasts_and_keeps_negative_zero():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 9))
    theta = rng.uniform(0.0, 1.0, size=(4, 1))
    want = np.sign(w) * np.maximum(np.abs(w) - theta, 0.0)
    assert np.array_equal(soft_threshold(w, theta), want)
    # one (K,) band against a (T, 1) column of thresholds gives (T, K)
    assert np.array_equal(soft_threshold(w[0], theta), soft_threshold(np.tile(w[0], (4, 1)), theta))
    signs = np.signbit(soft_threshold(np.array([-0.0, 0.0, -0.25]), 0.5))
    assert signs.tolist() == [True, False, True]


def test_soft_threshold_rejects_negative():
    with pytest.raises(ValueError):
        soft_threshold(np.array([1.0]), -0.1)
    with pytest.raises(ValueError):
        soft_threshold(np.array([1.0, -2.0]), np.nan)
    with pytest.raises(ValueError):
        soft_threshold(np.ones((2, 3)), np.array([[0.5], [np.nan]]))


# ---------------------------------------------------------------------------
# l1-ball projection


def test_ball_hand_case():
    result = project_l1_ball(np.array([2.0, 1.0]), 2.0)
    assert np.allclose(result.w_p, [1.5, 0.5], atol=1e-12)
    assert abs(result.theta - 0.5) < 1e-12
    assert result.rho == 2
    assert result.d == 2.0


def test_ball_interior_point_unchanged():
    w = np.array([0.5, -0.25, 0.1])
    result = project_l1_ball(w, 2.0)
    assert np.array_equal(result.w_p, w)
    assert result.theta == 0.0
    assert result.rho == 0


def test_ball_degenerate_zero_size():
    w = np.array([3.0, -4.0, 1.0])
    result = project_l1_ball(w, 0.0)
    assert np.array_equal(result.w_p, np.zeros(3))
    assert result.theta == 4.0
    assert result.rho == 0


def test_ball_negative_size_rejected():
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0]), -1.0)
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0, -2.0]), np.nan)


def test_ball_matches_bisection_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        k = int(rng.integers(1, 65))
        w = rng.uniform(-10, 10, k)
        d = float(rng.uniform(0, 1.5 * np.abs(w).sum()))
        result = project_l1_ball(w, d)
        worst = max(worst, float(np.max(np.abs(result.w_p - ball_oracle(w, d)))))
        assert abs(np.abs(result.w_p).sum() - min(d, np.abs(w).sum())) < 1e-9
    assert worst < 1e-9


def test_ball_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = rng.normal(size=int(rng.integers(2, 40)))
        d = float(rng.uniform(0, np.abs(w).sum()))
        once = project_l1_ball(w, d).w_p
        twice = project_l1_ball(once, d).w_p
        assert np.max(np.abs(once - twice)) < 1e-12


def test_ball_nonexpansive():
    rng = np.random.default_rng(6)
    for _ in range(50):
        k = int(rng.integers(2, 40))
        a, b = rng.normal(size=k), rng.normal(size=k)
        d = float(rng.uniform(0.1, 3.0))
        pa = project_l1_ball(a, d).w_p
        pb = project_l1_ball(b, d).w_p
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9


# Pairs of bands with zeros and ties: small integers, scaled.
_tied_pairs = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(pairs=_tied_pairs, scale=st.sampled_from([1e-3, 1.0, 7.5]), frac=st.floats(0.0, 1.2))
@example(pairs=[(3, 0), (-3, 0), (1, 0), (0, 2)], scale=1.0, frac=0.5)
def test_ball_idempotent_and_nonexpansive_with_zeros_and_ties(pairs, scale, frac):
    a = scale * np.array([u for u, _ in pairs], dtype=float)
    b = scale * np.array([v for _, v in pairs], dtype=float)
    d = frac * float(np.abs(a).sum())
    pa, pb = project_l1_ball(a, d).w_p, project_l1_ball(b, d).w_p
    tol = 1e-12 * max(scale, 1.0)
    assert np.abs(pa).sum() <= d + tol
    assert np.max(np.abs(project_l1_ball(pa, d).w_p - pa)) <= tol
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + tol


@settings(max_examples=200, deadline=None)
@given(pairs=_tied_pairs, scale=st.sampled_from([1e-3, 1.0, 7.5]), frac=st.floats(0.0, 1.2))
@example(pairs=[(3, 0), (-3, 0), (1, 0), (0, 2)], scale=1.0, frac=0.5)
def test_ball_matches_bisection_oracle_with_zeros_and_ties(pairs, scale, frac):
    # The oracle bisects the threshold, as acceptance criterion 1 does.
    w = scale * np.array([u for u, _ in pairs], dtype=float)
    d = frac * float(np.abs(w).sum())
    got = project_l1_ball(w, d).w_p
    assert np.max(np.abs(got - ball_oracle(w, d))) <= 1e-9 * max(scale, 1.0)


def test_ball_invariants_shrinkage_and_signs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = rng.uniform(-5, 5, int(rng.integers(1, 30)))
        d = float(rng.uniform(0, 1.2 * np.abs(w).sum()))
        result = project_l1_ball(w, d)
        assert np.abs(result.w_p).sum() <= d + 1e-9 * max(1.0, d)
        assert np.all(result.w_p * w >= 0)
        assert np.all(np.abs(result.w_p) <= np.abs(w) + 1e-15)


def test_ball_optimality_spot_check():
    # No random feasible point may sit closer to w than the projection.
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(1, 17))
        w = rng.uniform(-10, 10, k)
        d = float(rng.uniform(0, 1.2 * np.abs(w).sum()))
        w_p = project_l1_ball(w, d).w_p
        base = np.linalg.norm(w_p - w)
        g = rng.normal(size=(2000, k))
        u = g * (d * rng.uniform(0, 1, (2000, 1))) / np.abs(g).sum(axis=1, keepdims=True)
        assert np.min(np.linalg.norm(u - w, axis=1)) >= base - 1e-9


# ---------------------------------------------------------------------------
# epigraph projection


def test_epigraph_hand_case():
    result = project_epigraph_l1(np.array([1.0, 1.0]))
    assert np.max(np.abs(result.w_p - np.array([1 / 3, 1 / 3]))) < 1e-12
    assert abs(result.z_p - 2 / 3) < 1e-12
    assert abs(result.d - 2 / 3) < 1e-12
    assert result.fast_path is True


def test_epigraph_uniform_closed_form():
    for k in (1, 2, 5, 17):
        c = 0.75
        result = project_epigraph_l1(np.full(k, c))
        assert np.max(np.abs(result.w_p - c / (k + 1))) < 1e-12
        assert abs(result.z_p - k * c / (k + 1)) < 1e-12
        assert result.fast_path


@pytest.mark.parametrize("k", [1, 4, 21845])
def test_epigraph_of_an_all_zero_band_is_the_band(k):
    # (0, 0) lies in the epigraph, so it is its own projection.
    result = project_epigraph_l1(np.zeros(k))
    assert np.array_equal(result.w_p, np.zeros(k))
    assert (result.z_p, result.d, result.fast_path) == (0.0, 0.0, True)


def test_epigraph_fast_path_geometry():
    # On the fast path the lifted point lands on the boundary hyperplane
    # and the displacement is along the hyperplane normal (sign(w), -1).
    rng = np.random.default_rng(9)
    for k in (1, 2, 3, 8, 33):
        signs = rng.choice([-1.0, 1.0], k)
        # spread must shrink with k: the hyperplane step removes about
        # mean/(k+1) of headroom, so +-0.1/k keeps every entry sign-consistent
        w = signs * (1.0 + (0.1 / k) * rng.uniform(-1.0, 1.0, k))
        result = project_epigraph_l1(w)
        assert result.fast_path
        assert abs(np.sum(np.sign(w) * result.w_p) - result.z_p) < 1e-9
        assert np.max(np.abs(result.w_p - w + result.z_p * np.sign(w))) < 1e-9
        assert 0.0 < result.d < np.abs(w).sum()


def test_epigraph_fast_path_matches_exact_oracle():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(200):
        k = int(rng.integers(1, 65))
        signs = rng.choice([-1.0, 1.0], k)
        w = signs * (1.0 + (0.1 / k) * rng.uniform(-1, 1, k))
        result = project_epigraph_l1(w)
        if not result.fast_path:
            continue
        oracle_w, oracle_mu = epigraph_oracle(w)
        assert np.max(np.abs(result.w_p - oracle_w)) < 1e-9
        assert abs(result.z_p - oracle_mu) < 1e-9
        checked += 1
    assert checked > 150  # the construction keeps signs consistent


def test_epigraph_fallback_branch():
    result = project_epigraph_l1(np.array([10.0, 0.01]))
    d_max = 10.01
    assert result.fast_path is False
    assert abs(result.d - d_max / 3) < 1e-12
    assert 0.0 < result.d < d_max
    assert abs(np.abs(result.w_p).sum() - result.d) < 1e-9
    assert abs(result.z_p - np.abs(result.w_p).sum()) < 1e-12


def test_epigraph_fallback_never_beats_exact_projection():
    # The fallback is a procedure, not the exact epigraph projection; the
    # one thing it cannot do is land closer to (w, 0) than the true
    # minimizer.  The measured gap is reported on failure.
    rng = np.random.default_rng(12)
    for _ in range(100):
        k = int(rng.integers(2, 40))
        w = rng.normal(size=k) * rng.uniform(0.1, 10)
        result = project_epigraph_l1(w)
        oracle_w, oracle_mu = epigraph_oracle(w)
        exact = np.sqrt(np.linalg.norm(oracle_w - w) ** 2 + oracle_mu**2)
        got = np.sqrt(np.linalg.norm(result.w_p - w) ** 2 + result.z_p**2)
        assert got >= exact - 1e-9, f"fallback distance {got} undercuts exact {exact}"
        if result.fast_path:
            assert got <= exact + 1e-9


def test_epigraph_zero_entries():
    w = np.array([1.0, 0.0, 1.0])
    result = project_epigraph_l1(w)
    # normalized by nnz+1 = 3, the squared norm of the normal (sign(w), -1)
    assert np.max(np.abs(result.w_p - np.array([1 / 3, 0.0, 1 / 3]))) < 1e-12
    assert abs(result.z_p - 2 / 3) < 1e-12
    assert result.w_p[1] == 0.0


def test_epigraph_rows_are_independent():
    # One (T, K) call equals T single-band calls, whichever branch each row
    # takes; an all-zero row passes through unchanged.
    rng = np.random.default_rng(13)
    w = rng.normal(size=(6, 40))
    w[1] = 0.0
    w[2] = np.sign(w[2]) * (1.0 + 0.001 * rng.uniform(size=40))  # no sign flips
    w[3, ::3] = 0.0
    w[4] = rng.integers(-2, 3, size=40)  # zeros and ties
    rows = _project(w, (w.shape[-1],), None)
    w_p, d, fast_path = rows.w_p, rows.d[:, 0], rows.fast_path[:, 0]
    assert fast_path[2] and not fast_path[0]
    assert fast_path[1] and np.array_equal(w_p[1], np.zeros(40)) and rows.threshold[1, 0] == 0.0
    for t in range(w.shape[0]):
        one = project_epigraph_l1(w[t])
        assert np.max(np.abs(w_p[t] - one.w_p)) < 1e-12
        assert abs(d[t] - one.d) < 1e-12
        assert fast_path[t] == one.fast_path
        if one.fast_path:  # z_p is t there; elsewhere it is the l1 mass of w_p
            assert abs(rows.threshold[t, 0] - one.z_p) < 1e-12


# ---------------------------------------------------------------------------
# the segmented kernel: every (row, band) of a (T, N) array in one call


def _band(rng: np.random.Generator, kind: str, k: int) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=k) * rng.uniform(0.1, 10.0)
    if kind == "ties":
        return rng.integers(-3, 4, size=k).astype(float)  # zeros and ties
    if kind == "zeros":
        band = rng.normal(size=k)
        band[rng.uniform(size=k) < 0.5] = 0.0
        return band
    if kind == "no-flip":
        return rng.choice([-1.0, 1.0], k) * (1.0 + (0.1 / k) * rng.uniform(-1.0, 1.0, k))
    if kind == "tied":  # every nonzero entry tied, so every one is a candidate
        return rng.choice([-1.0, 0.0, 1.0], k) * rng.uniform(0.1, 10.0)
    return np.zeros(k)


_KINDS = ("normal", "ties", "zeros", "no-flip", "all-zero")
# Long bands: a seventh or a third of the elements of a row block that
# denoise hands the kernel, so that 6 or 2 such rows fill one.
_SEVENTH, _THIRD = BLOCK_ELEMENTS // 7, BLOCK_ELEMENTS // 3


def _rows_of_bands(seed, lengths, long_band, rows, kinds):
    rng = np.random.default_rng(seed)
    if long_band:
        lengths = [*lengths, long_band]
        rng.shuffle(lengths)
    w = np.stack(
        [np.concatenate([_band(rng, rng.choice(kinds), k) for k in lengths]) for _ in range(rows)]
    )
    return w, lengths


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    long_band=st.sampled_from([0, _SEVENTH, _THIRD]),
    rows=st.integers(1, 12),
)
@example(seed=3, lengths=[3, 1], long_band=_THIRD, rows=12)
@example(seed=4, lengths=[1, 2], long_band=_SEVENTH, rows=8)
def test_segmented_kernel_equals_band_by_band(seed, lengths, long_band, rows):
    w, lengths = _rows_of_bands(seed, lengths, long_band, rows, _KINDS)
    got = _project(w, tuple(lengths), None)
    assert got.w_p.shape == w.shape
    assert got.d.shape == got.threshold.shape == got.fast_path.shape == (rows, len(lengths))
    ends = np.cumsum(lengths)
    for t in range(rows):
        for b, (start, end) in enumerate(zip(ends - lengths, ends)):
            band = w[t, start:end]
            one = project_epigraph_l1(band)
            assert np.max(np.abs(got.w_p[t, start:end] - one.w_p)) < 1e-12
            assert abs(got.d[t, b] - one.d) < 1e-12
            assert got.fast_path[t, b] == one.fast_path
            # The reported threshold is the one the output was shrunk by.
            assert np.max(np.abs(soft_threshold(band, got.threshold[t, b]) - one.w_p)) < 1e-12
            if one.fast_path:
                assert abs(got.threshold[t, b] - one.z_p) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    long_band=st.sampled_from([0, _THIRD]),
    rows=st.integers(1, 5),
)
@example(seed=5, lengths=[7, 1], long_band=_THIRD, rows=5)
@example(seed=6, lengths=[40], long_band=_THIRD, rows=3)
def test_segmented_kernel_matches_the_full_sort_oracle(seed, lengths, long_band, rows):
    # The kernel sorts only each band's candidates; the oracle sorts it all.
    w, lengths = _rows_of_bands(seed, lengths, long_band, rows, (*_KINDS, "tied"))
    got = _project(w, tuple(lengths), None)
    ends = np.cumsum(lengths)
    for t in range(rows):
        for b, (start, end) in enumerate(zip(ends - lengths, ends)):
            band = w[t, start:end]
            w_p, d, threshold, rho, fast_path = full_sort_rule(band)
            # The kernel's l1 mass is not correctly rounded, so the
            # rounding error of every derived number scales with l1.
            tol = 1e-12 * max(1.0, float(np.abs(band).sum()))
            assert np.max(np.abs(got.w_p[t, start:end] - w_p)) <= tol
            assert abs(got.d[t, b] - d) <= tol
            assert abs(got.threshold[t, b] - threshold) <= tol
            assert got.rho[t, b] == rho
            assert got.fast_path[t, b] == fast_path


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 60),
    kind=st.sampled_from(["normal", "ties", "zeros", "no-flip", "tied"]),
    frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    below_ulp=st.booleans(),
)
@example(seed=0, k=9, kind="tied", frac=0.5, below_ulp=True)
def test_ball_projection_matches_the_full_sort_oracle(seed, k, kind, frac, below_ulp):
    band = _band(np.random.default_rng(seed), kind, k)
    l1 = float(np.abs(band).sum())
    assume(l1 > 0.0)
    # Below one ulp of the largest magnitude, mu_1 - d rounds to mu_1.
    d = 0.3 * float(np.spacing(np.abs(band).max())) if below_ulp else frac * l1
    assume(d > 0.0)  # d = 0 has no rule; project_l1_ball returns zeros there
    got = project_l1_ball(band, d)
    w_p, _, theta, rho, _ = full_sort_rule(band, d=d)
    assert np.max(np.abs(got.w_p - w_p)) <= 1e-12
    assert abs(got.theta - theta) <= 1e-12
    assert got.rho == rho


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 60),
    kind=st.sampled_from(["normal", "ties", "zeros", "no-flip", "tied"]),
)
@example(seed=0, k=8, kind="no-flip")
def test_epigraph_is_the_ball_projection_at_its_derived_size(seed, k, kind):
    # One rule: the epigraph step only derives d, and the l1-ball
    # projection at d gives the output, whether or not any entry is zeroed.
    band = _band(np.random.default_rng(seed), kind, k)
    assume(band.any())
    got = project_epigraph_l1(band)
    ball = project_l1_ball(band, got.d)
    assert np.array_equal(got.w_p.view(np.uint64), ball.w_p.view(np.uint64))
    assert got.fast_path == bool(got.w_p[band != 0].all())


def _traced_peak(w: np.ndarray) -> int:
    """Peak bytes tracemalloc sees allocated by one warm epigraph-mode _project call."""
    out = np.empty_like(w)
    _project(w, (w.shape[-1],), None, out=out)  # the workspace buffers now exist
    tracemalloc.start()
    try:
        _project(w, (w.shape[-1],), None, out=out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_all_zero_band_is_not_sorted():
    # An all-zero band has no candidate, so it allocates no more than a
    # noisy band, whose few candidates near its largest entry are sorted.
    # Sorting all of its 2^16 zeros took about 2 MB.
    shape = (1, 2**16)
    zero, noisy = np.zeros(shape), np.random.default_rng(22).normal(size=shape)
    assert _traced_peak(zero) <= _traced_peak(noisy) + 4096


def test_non_finite_rows_do_not_stop_the_block():
    # The kernel does not check its input (denoise already has).  A row
    # with an infinite or NaN entry gets a meaningless projection, alone in
    # its block or beside rows that still get theirs.
    w = np.array([[np.inf, 1.0, -2.0, 0.5], [np.nan, 1.0, -2.0, 0.5], [3.0, -1.0, 0.5, 0.25]])
    with np.errstate(invalid="ignore"):
        alone = [_project(w[t:t + 1], (4,), None) for t in (0, 1)]
        got = _project(w, (4,), None)
    one = project_epigraph_l1(w[2])
    assert not np.isfinite([alone[0].d[0, 0], alone[1].d[0, 0], *got.d[:2, 0]]).any()
    assert np.array_equal(got.w_p[2], one.w_p) and got.d[2, 0] == one.d


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_public_projections_refuse_non_finite_input(bad):
    band = np.array([bad, 1.0, -2.0, 0.5])
    with pytest.raises(ValueError, match="NaN or infinite"):
        project_l1_ball(band, 1.0)
    with pytest.raises(ValueError, match="NaN or infinite"):
        project_epigraph_l1(band)


def test_public_projections_refuse_complex_input():
    # np.asarray(..., dtype=float) would drop the imaginary part with only a warning.
    with pytest.raises(ValueError, match="complex"):
        project_l1_ball(np.array([1.0, -2.0, 0.5]) + 1j, 1.0)
    with pytest.raises(ValueError, match="must be real"):
        soft_threshold(np.array([1.0, -2.0, 0.5]) + 1j, 0.5)


def test_derived_ball_size_does_not_cancel():
    # 7,000 tied nonzero entries in a 21,845-entry band: d = l1 - nnz*t
    # came out about 1.6e-12 away from l1/(nnz+1), its rounding error
    # scaling with l1 rather than with d.
    rng = np.random.default_rng(21845)
    band = np.zeros(21845)
    band[rng.choice(band.shape[0], 7000, replace=False)] = 0.78873
    band *= rng.choice([-1.0, 1.0], band.shape[0])
    l1, nnz = math.fsum(np.abs(band)), 7000
    want = l1 / (nnz + 1)
    got = project_epigraph_l1(band).d
    assert abs(got - want) <= 4 * np.spacing(want)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 200),
    spread=st.floats(0.0, 2.0),
    zeros=st.floats(0.0, 0.9),
    scale=st.floats(1e-3, 1e3),
)
@example(seed=0, k=1, spread=0.0, zeros=0.0, scale=1.0)
@example(seed=0, k=5, spread=0.0, zeros=1.0, scale=1.0)  # an all-zero band
def test_fast_path_is_the_exact_cone_projection(seed, k, spread, zeros, scale):
    # Where no nonzero entry is zeroed, the epigraph projection is the
    # exact Euclidean projection of (w, 0) onto the cone
    # {(u, z) : ||u||_1 <= z}, zeros and all; spread/k near 1/k separates
    # the fast bands from the others.
    rng = np.random.default_rng(seed)
    band = rng.choice([-scale, scale], k) * (1.0 + (spread / k) * rng.uniform(0.0, 1.0, k))
    band[rng.uniform(size=k) < zeros] = 0.0
    got = project_epigraph_l1(band)
    assume(got.fast_path)
    w_p, z, kept = cone_projection(band)
    assert kept == np.count_nonzero(band)  # the cone keeps every nonzero entry too
    tol = 1e-12 * max(1.0, float(np.abs(band).sum()))
    assert np.max(np.abs(got.w_p - w_p)) <= tol
    assert abs(got.z_p - z) <= tol
