"""Sampling, codebooks, distortion estimates, anchors, ball masses."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from carpetq.partition import enumerate_lambda_k
from carpetq.quantizer import (
    Codebook, DISTANCE_FLOOR, SampleCloud, ball_bound_check, diameter_log,
    draw_cloud, lambda_codebook, log_distortion, nearest_distances,
    r_k_diagnostic, uniform_digits,
)
from carpetq.words import ell
from oracles import sample_digit_matrix, square_geometry, word_at


@pytest.fixture(scope="module")
def cloud_a(carpet_a):
    return draw_cloud(carpet_a, 120_000, depth=40, seed=0x5EED)


def test_draw_cloud_deterministic(carpet_a, cloud_a):
    again = draw_cloud(carpet_a, 120_000, depth=40, seed=0x5EED, threads=8)
    assert np.array_equal(cloud_a.points, again.points)
    other = draw_cloud(carpet_a, 120_000, depth=40, seed=7)
    assert not np.array_equal(cloud_a.points, other.points)


def test_draw_cloud_validation(carpet_a):
    with pytest.raises(ValueError):
        draw_cloud(carpet_a, 0)
    with pytest.raises(ValueError):
        draw_cloud(carpet_a, 10, depth=8)


def test_cloud_in_unit_square(cloud_a):
    assert cloud_a.points.shape == (120_000, 2)
    assert cloud_a.points.min() >= 0.0
    assert cloud_a.points.max() <= 1.0


def test_cloud_marginals(carpet_a, cloud_a):
    # Maps with i = 0 carry mass 2/3, so two thirds of the cloud lands
    # in the left half strip.
    left = float(np.mean(cloud_a.points[:, 0] < 0.5))
    se = math.sqrt((2 / 3) * (1 / 3) / cloud_a.size)
    assert abs(left - 2 / 3) < 4 * se
    # Columns: j = 0 has mass 1/3; its strip is y < 1/3.
    bottom = float(np.mean(cloud_a.points[:, 1] < 1 / 3))
    se_b = math.sqrt((1 / 3) * (2 / 3) / cloud_a.size)
    assert abs(bottom - 1 / 3) < 4 * se_b


def test_lambda_codebook_centers(cache_a, carpet_a):
    part = cache_a.partition(2)
    book = lambda_codebook(part)
    assert book.card == part.phi_k
    for idx in (0, 1, 60, 188):
        sq = square_geometry(carpet_a, word_at(part, idx))
        assert book.points[idx, 0] == pytest.approx(
            float(sq.x_low + sq.width / 2), abs=1e-15)
        assert book.points[idx, 1] == pytest.approx(
            float(sq.y_low + sq.height / 2), abs=1e-15)


def test_log_distortion_hand_value():
    cloud = SampleCloud(points=np.array([[0.0, 0.0], [1.0, 0.0]]),
                        seed=0)
    book = Codebook(points=np.array([[0.5, 0.0]]))
    est = log_distortion(cloud, book)
    assert est.estimate == pytest.approx(math.log(0.5), abs=1e-15)
    assert est.floored == 0 and est.unreached == 0
    assert est.stderr == pytest.approx(0.0, abs=1e-15)


def test_log_distortion_floors_zero_distance():
    cloud = SampleCloud(points=np.array([[0.25, 0.25], [0.5, 0.5]]),
                        seed=0)
    book = Codebook(points=np.array([[0.25, 0.25]]))
    est = log_distortion(cloud, book)
    assert est.floored == 1
    assert math.isfinite(est.estimate)
    assert est.estimate <= math.log(DISTANCE_FLOOR) / 2 + 1.0


def test_log_distortion_workers_identical(cloud_a, cache_a):
    book = lambda_codebook(cache_a.partition(2))
    one = log_distortion(cloud_a, book, workers=1)
    many = log_distortion(cloud_a, book, workers=4)
    assert one == many


def test_diameter_log(carpet_a):
    # Length 5 words: 3 pairs, so width 4^-3 and height 3^-5.
    expect = math.log(math.hypot(4.0 ** -3, 3.0 ** -5))
    assert diameter_log(carpet_a, 5) == pytest.approx(expect, abs=1e-15)


def test_r_k_diagnostic_anchors(cache_a, carpet_a, cloud_a):
    gap_cap = math.log(math.sqrt(carpet_a.n ** 2 + 1))
    for k in (2, 3):
        diag = r_k_diagnostic(cache_a.partition(k), cloud_a)
        assert diag.lower_anchor < diag.upper_anchor
        assert diag.anchor_gap <= gap_cap + 1e-12
        assert diag.e_hat_est <= diag.upper_anchor + 3 * diag.stderr
        assert diag.floored == 0
        expect_r = math.log(diag.phi_k) / carpet_a.s0 + diag.e_hat_est
        assert diag.r_k == pytest.approx(expect_r, abs=1e-12)


def test_r_k_lower_anchor_exact(cache_a, carpet_a):
    part = cache_a.partition(2)
    diag = r_k_diagnostic(part, draw_cloud(carpet_a, 1000, seed=1))
    expect = -math.log(3) * float(part.mass_len_total)
    assert diag.lower_anchor == pytest.approx(expect, abs=1e-12)


def test_two_seeds_agree(carpet_a, cache_a):
    book = lambda_codebook(cache_a.partition(3))
    e1 = log_distortion(draw_cloud(carpet_a, 60_000, seed=101), book)
    e2 = log_distortion(draw_cloud(carpet_a, 60_000, seed=202), book)
    combined = math.hypot(e1.stderr, e2.stderr)
    assert abs(e1.estimate - e2.estimate) < 6 * combined


def test_ball_bound_carpet_a(carpet_a, cloud_a):
    radii = [3.0 ** (-e) for e in range(2, 9)]
    report = ball_bound_check(carpet_a, cloud_a, centers=50, radii=radii)
    assert not report.skipped
    assert report.ok
    assert report.max_ratio < 1.0
    assert report.exponent == pytest.approx(0.369070246428542563, abs=1e-14)


def test_ball_bound_skips_full_column(carpet_b):
    cloud = draw_cloud(carpet_b, 5_000, seed=9)
    report = ball_bound_check(carpet_b, cloud, centers=10,
                              radii=[1 / 9, 1 / 27])
    assert report.skipped and report.ok
    assert "column" in report.reason


def test_ball_bound_validates_centers(carpet_a, cloud_a):
    with pytest.raises(ValueError):
        ball_bound_check(carpet_a, cloud_a, centers=0, radii=[0.1])
    with pytest.raises(ValueError):
        ball_bound_check(carpet_a, cloud_a, centers=cloud_a.size + 1,
                         radii=[0.1])


# -- oracles for the sampling and query kernels ---------------------------

def _searchsorted_digits(u, cum):
    # The digit formula the comparison kernel replaced.
    idx = np.searchsorted(cum, u, side="right")
    np.minimum(idx, len(cum) - 1, out=idx)
    return idx.astype(np.uint8)


def _searchsorted_cloud(params, size, depth, seed):
    # The sampler before the per-block kernel: the whole digit matrix by
    # searchsorted, then the points in blocks of 32768 rows.
    cum = np.cumsum(np.array([float(w) for w in params.spec.weights]))
    mat = np.empty((size, depth), dtype=np.uint8)
    for s, lo in enumerate(range(0, size, 1 << 15)):
        hi = min(lo + (1 << 15), size)
        u = np.random.default_rng([seed, s]).random((hi - lo, depth))
        mat[lo:hi] = _searchsorted_digits(u, cum)
    xi = np.array([i for i, _ in params.spec.digits], dtype=np.float64)
    yj = np.array([j for _, j in params.spec.digits], dtype=np.float64)
    xw = np.power(float(params.n), -np.arange(1, depth + 1, dtype=np.float64))
    yw = np.power(float(params.m), -np.arange(1, depth + 1, dtype=np.float64))
    pts = np.empty((size, 2), dtype=np.float64)
    for lo in range(0, size, 1 << 15):
        block = mat[lo:lo + (1 << 15)]
        pts[lo:lo + (1 << 15), 0] = xi[block] @ xw
        pts[lo:lo + (1 << 15), 1] = yj[block] @ yw
    return mat, pts


def _widened_centers(partition):
    # lambda_codebook before it widened only the digits it reads.
    params = partition.params
    n, m = float(params.n), float(params.m)
    pts = np.empty((partition.phi_k, 2), dtype=np.float64)
    for h, (rows, _, _) in partition.blocks.items():
        l = ell(params, h)
        grid = rows.astype(np.float64)
        iw = np.power(n, -np.arange(1, l + 1, dtype=np.float64))
        ydig = np.concatenate([grid[:, 1:2 * l:2], grid[:, 2 * l:]], axis=1)
        yweights = np.power(m, -np.arange(1, h + 1, dtype=np.float64))
        out = slice(partition.offsets[h], partition.offsets[h] + len(rows))
        pts[out, 0] = grid[:, 0:2 * l:2] @ iw + 0.5 * n ** (-l)
        pts[out, 1] = ydig @ yweights + 0.5 * m ** (-float(h))
    return pts


@pytest.mark.parametrize("name", ["a", "d", "e"])
def test_uniform_digits_match_searchsorted(request, name):
    params = request.getfixturevalue(f"carpet_{name}")
    cum = np.cumsum(np.array([float(w) for w in params.spec.weights]))
    # Every cumulative weight exactly, its float neighbours, both ends.
    edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
                            [0.0, np.nextafter(1.0, 0.0)]])
    u = np.concatenate([np.random.default_rng(5).random(40_000), edges])
    got = uniform_digits(u, cum)
    assert got.dtype == np.uint8
    assert np.array_equal(got, _searchsorted_digits(u, cum))
    assert set(np.unique(got)) == set(range(len(cum)))


@pytest.mark.parametrize("name", ["a", "d", "e"])
def test_sampling_matches_searchsorted_formula(request, name):
    params = request.getfixturevalue(f"carpet_{name}")
    mat, pts = _searchsorted_cloud(params, 70_000, 24, seed=31)
    assert np.array_equal(sample_digit_matrix(params, 70_000, 24, 31), mat)
    for threads in (1, 2):
        cloud = draw_cloud(params, 70_000, depth=24, seed=31, threads=threads)
        assert cloud.points.tobytes() == pts.tobytes()


def test_cloud_order_is_permutation(cloud_a):
    order = cloud_a.order
    assert np.array_equal(np.sort(order), np.arange(cloud_a.size))
    assert cloud_a.order is order


@pytest.mark.parametrize("name,levels", [
    ("a", range(2, 6)), ("d", range(2, 5)), ("e", range(2, 5)),
])
def test_bounded_ordered_distances_match_plain_query(request, name, levels):
    params = request.getfixturevalue(f"carpet_{name}")
    cloud = draw_cloud(params, 60_000, seed=77)
    for k in levels:
        book = lambda_codebook(enumerate_lambda_k(params, k))
        plain, _ = cKDTree(book.points).query(cloud.points, k=1)
        dist, unreached = nearest_distances(cloud, book)
        assert unreached == 0
        assert math.isfinite(book.reach) and plain.max() <= book.reach
        assert dist.tobytes() == plain.tobytes()


def test_short_reach_counted_and_distances_exact(cache_a, cloud_a):
    book = lambda_codebook(cache_a.partition(3))
    short = Codebook(points=book.points, reach=book.reach / 4)
    plain, _ = cKDTree(book.points).query(cloud_a.points, k=1)
    dist, unreached = nearest_distances(cloud_a, short)
    assert unreached == int(np.count_nonzero(plain >= short.reach)) > 0
    assert dist.tobytes() == plain.tobytes()
    assert log_distortion(cloud_a, short).unreached == unreached


def test_external_codebook_reach_unbounded():
    book = Codebook(points=np.zeros((1, 2)))
    assert book.reach == math.inf


@pytest.mark.parametrize("name,levels", [
    ("a", range(1, 7)), ("c", range(1, 5)), ("d", range(1, 6)),
    ("e", range(1, 7)),
])
def test_lambda_codebook_matches_full_widening(request, name, levels):
    params = request.getfixturevalue(f"carpet_{name}")
    for k in levels:
        part = enumerate_lambda_k(params, k)
        book = lambda_codebook(part)
        assert book.points.tobytes() == _widened_centers(part).tobytes()
        half = max(math.exp(diameter_log(params, h)) for h in part.blocks) / 2
        assert book.reach == pytest.approx(half, rel=2e-9) and book.reach > half
