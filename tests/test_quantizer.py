"""Sampling, codebooks, distortion estimates, anchors, ball masses."""

import math

import numpy as np
import pytest

from carpetq.quantizer import (
    Codebook, DISTANCE_FLOOR, SampleCloud, ball_bound_check, diameter_log,
    draw_cloud, lambda_codebook, log_distortion, r_k_diagnostic,
)
from carpetq.words import square_geometry


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
    assert book.origin == "lambda-centers"
    for idx in (0, 1, 60, 188):
        sq = square_geometry(carpet_a, part.word_at(idx))
        assert book.points[idx, 0] == pytest.approx(
            float(sq.x_low + sq.width / 2), abs=1e-15)
        assert book.points[idx, 1] == pytest.approx(
            float(sq.y_low + sq.height / 2), abs=1e-15)


def test_log_distortion_hand_value():
    cloud = SampleCloud(points=np.array([[0.0, 0.0], [1.0, 0.0]]),
                        seed=0, depth=40)
    book = Codebook(points=np.array([[0.5, 0.0]]), origin="external")
    est = log_distortion(cloud, book)
    assert est.estimate == pytest.approx(math.log(0.5), abs=1e-15)
    assert est.floored == 0 and est.count == 2
    assert est.stderr == pytest.approx(0.0, abs=1e-15)


def test_log_distortion_floors_zero_distance():
    cloud = SampleCloud(points=np.array([[0.25, 0.25], [0.5, 0.5]]),
                        seed=0, depth=40)
    book = Codebook(points=np.array([[0.25, 0.25]]), origin="external")
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
