"""Sampling, located cells, distortion estimates, anchors, ball bounds."""

import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carpetq
from carpetq import CarpetSpec, derive_params, quantizer
from carpetq.partition import (
    EnumerationCapError, enumerate_lambda_k, stopped_statistics,
)
from carpetq.quantizer import (
    _CHUNK, _SHARD_ROWS, _SLICE, DISTANCE_FLOOR, MAX_DEPTH, MIN_TAIL,
    LevelTally,
    SampleCloud, _ExactSums, ball_bound_check, diameter_log, draw_cloud, locate,
    r_k_diagnostic, tally, uniform_digits,
)
from carpetq.words import ell
from oracles import (
    brute_locate, key_rows, lambda_codebook, located, nearest_distances,
    nearest_log_distortion, own_cell_log_distances, sample_digit_matrix,
    sample_points, square_geometry, traced_peak, two_pass_diagnostics,
    word_at,
)


@pytest.fixture(scope="module")
def cloud_a(carpet_a):
    return draw_cloud(carpet_a, 120_000, seed=0x5EED)


def _diagnose(level, cloud):
    # One level's diagnostics, located on its own.
    return r_k_diagnostic(level, tally([level], cloud)[0])


def _drawn(cloud, depth):
    # The cloud's first ``depth`` digits as one (size, depth) matrix, in
    # row order.
    return np.concatenate([digits.T for digits in cloud.chunks(depth)])


def _walk_depth(levels):
    # The digits locate draws a sample for ``levels``.
    return max(level.xi_max for level in levels) + MIN_TAIL


def _assert_logs_exact(params, logs, digits, lengths):
    # Each log distance against the exact big-integer one: within
    # 2^-50 of its cell's diagonal over the distance (the offsets are
    # read to within a few units in the last place of the cell), plus
    # 2^-50 of the log itself, a few units in its last place; -inf only
    # at an exact centre.
    exact = np.array(own_cell_log_distances(params, digits, lengths))
    centre = np.isneginf(exact)
    assert np.array_equal(np.isneginf(logs), centre)
    diagonal = np.array([diameter_log(params, h) for h in lengths])
    err = np.abs(logs[~centre] - exact[~centre])
    tol = (2.0 ** -50 * np.exp(diagonal[~centre] - exact[~centre])
           + 2.0 ** -50 * np.abs(exact[~centre]))
    assert np.all(err <= tol)


def test_draw_cloud_deterministic(carpet_a, cloud_a):
    again = draw_cloud(carpet_a, 120_000, seed=0x5EED)
    assert again == cloud_a
    assert np.array_equal(_drawn(cloud_a, 40), _drawn(again, 40))
    other = draw_cloud(carpet_a, 120_000, seed=7)
    assert not np.array_equal(_drawn(cloud_a, 40), _drawn(other, 40))


def test_draw_cloud_validation(carpet_a):
    # The cloud is its carpet, size and seed: how deep it is drawn is
    # up to the walk that reads it.
    with pytest.raises(ValueError):
        draw_cloud(carpet_a, 0)
    # A size that is not an int is refused when the cloud is made, not
    # when a walk first reads it; True is not a one-sample cloud.
    for size in (1e3, 1000.0, "1000", True, False):
        with pytest.raises(ValueError, match="int size"):
            draw_cloud(carpet_a, size)
    # So is a seed: 1.5 and True would draw seed 1's cloud, and -1 would
    # fail only when a walk seeds its first block.
    for seed in (1.5, True, "7"):
        with pytest.raises(ValueError, match="int seed"):
            draw_cloud(carpet_a, 10, seed=seed)
    with pytest.raises(ValueError, match="seed >= 0, got -1"):
        draw_cloud(carpet_a, 10, seed=-1)
    assert draw_cloud(carpet_a, 10, seed=0).seed == 0
    with pytest.raises(TypeError, match="depth"):
        draw_cloud(carpet_a, 10, depth=40)
    with pytest.raises(TypeError, match="threads"):
        draw_cloud(carpet_a, 10, threads=2)


@pytest.mark.parametrize("size,depth", [
    (120_000, 40), (70_001, 136), (40_000, 937), (5, MAX_DEPTH)])
def test_cloud_chunks_bounded(carpet_a, size, depth):
    # The cloud holds no sample; its chunks run over the rows in order,
    # each one sampling block, digit-major, as deep as asked.
    cloud = draw_cloud(carpet_a, size, seed=3)
    assert [f.name for f in dataclasses.fields(cloud)] == [
        "spec", "size", "seed"]
    row = 0
    for digits in cloud.chunks(depth):
        assert digits.dtype == np.uint8 and digits.flags.c_contiguous
        assert digits.shape == (depth, min(_SHARD_ROWS, size - row))
        row += digits.shape[1]
    assert row == size


def test_deeper_cloud_extends_every_sample(carpet_a, carpet_d):
    # Each block is drawn place by place, so at one seed a deeper read
    # holds the same samples with more digits, and a deeper level walked
    # beside the others leaves their lengths as they were.
    for params, ks, deepest in ((carpet_a, range(2, 6), 7),
                                (carpet_d, (2,), 3)):
        cloud = draw_cloud(params, 70_001, seed=8)
        assert np.array_equal(_drawn(cloud, 60)[:, :40], _drawn(cloud, 40))
        levels = [stopped_statistics(params, k) for k in ks]
        deep = located(levels + [stopped_statistics(params, deepest)], cloud)
        assert np.array_equal(deep[0][:-1], located(levels, cloud)[0])


def test_cloud_in_unit_square(carpet_a, cloud_a):
    # Every drawn digit indexes a map, so every sample is a point of the
    # carpet, in the unit square.
    assert _drawn(cloud_a, 40).max() < len(carpet_a.spec.digits)
    pts = sample_points(carpet_a, 120_000, 40, 0x5EED)
    assert pts.shape == (120_000, 2)
    assert pts.min() >= 0.0 and pts.max() <= 1.0


def test_cloud_marginals(carpet_a, cloud_a):
    # Maps with i = 0 carry mass 2/3, so two thirds of the cloud lands
    # in the left half strip.
    cells = np.array(carpet_a.spec.digits)[_drawn(cloud_a, 1)[:, 0]]
    left = float(np.mean(cells[:, 0] < 2))
    se = math.sqrt((2 / 3) * (1 / 3) / cloud_a.size)
    assert abs(left - 2 / 3) < 4 * se
    # Columns: j = 0 has mass 1/3; its strip is y < 1/3.
    bottom = float(np.mean(cells[:, 1] == 0))
    se_b = math.sqrt((1 / 3) * (2 / 3) / cloud_a.size)
    assert abs(bottom - 1 / 3) < 4 * se_b


def test_lambda_codebook_centers(cache_a, carpet_a):
    part = cache_a.partition(2)
    book = lambda_codebook(part)
    assert len(book) == part.phi_k
    for idx in (0, 1, 60, 188):
        sq = square_geometry(carpet_a, word_at(part, idx))
        assert book[idx, 0] == pytest.approx(
            float(sq.x_low + sq.width / 2), abs=1e-15)
        assert book[idx, 1] == pytest.approx(
            float(sq.y_low + sq.height / 2), abs=1e-15)


@dataclasses.dataclass(frozen=True)
class _RowCloud(SampleCloud):
    # A cloud of explicit map-index rows, at least as deep as the walk.
    rows: np.ndarray = None

    def chunks(self, depth):
        assert depth <= self.rows.shape[1]
        yield np.ascontiguousarray(self.rows.T[:depth])


def _expand(frac, base, count):
    # The first ``count`` base-``base`` digits of ``frac`` in [0, 1).
    digits = []
    for _ in range(count):
        frac *= base
        digits.append(int(frac))
        frac -= int(frac)
    return digits


@pytest.fixture(scope="module")
def carpet_even():
    # Every cell of even coordinates on an 8 x 4 grid: the digits after
    # a word's cell may be any even ones, so they place a sample at a
    # chosen offset, exactly on power-of-two bases.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return derive_params(CarpetSpec.of(8, 4, {
            (i, j): "1/8" for i in range(0, 8, 2) for j in (0, 2)}))


def _hand_cloud(part, idx, offsets):
    # Samples in the cell of word ``idx`` at the given offsets from its
    # centre, in cell sides: rows of a cloud of the level's carpet, whose
    # digits after the word's place the sample.  Also the word's length
    # and its cell's sides.
    params = part.params
    n, m, depth = params.n, params.m, 60
    word = word_at(part, idx)
    h, l = len(word), len(word.pairs)
    index = {cell: i for i, cell in enumerate(params.spec.digits)}
    rows = []
    for fx, fy in offsets:
        xs = list(word.x_digits()) + _expand(Fraction(1, 2) + fx, n, depth - l)
        ys = list(word.y_digits()) + _expand(Fraction(1, 2) + fy, m, depth - h)
        rows.append([index[cell] for cell in zip(xs, ys)])
    cloud = _RowCloud(spec=params.spec, size=len(rows), seed=0,
                      rows=np.array(rows, dtype=np.uint8))
    return cloud, h, float(n) ** -l, float(m) ** -h


def test_log_distortion_hand_value(carpet_even):
    part = enumerate_lambda_k(carpet_even, 2)
    cloud, h, sx, sy = _hand_cloud(part, 7, [(Fraction(1, 4), Fraction(1, 8)),
                                             (Fraction(-1, 4), Fraction(1, 8))])
    assert h > len(word_at(part, 7).pairs)
    assert located([part], cloud)[0].tolist() == [[h, h]]
    est = _diagnose(part, cloud)
    assert est.e_hat_est == pytest.approx(math.log(math.hypot(sx / 4, sy / 8)),
                                          abs=1e-15)
    assert est.floored == 0
    assert est.stderr == pytest.approx(0.0, abs=1e-15)


def test_log_distortion_floors_zero_distance(carpet_even):
    part = enumerate_lambda_k(carpet_even, 2)
    cloud, _, sx, sy = _hand_cloud(part, 7, [(0, 0), (Fraction(1, 4),
                                                      Fraction(1, 8))])
    assert located([part], cloud)[1].tolist() == [
        [-math.inf, pytest.approx(math.log(math.hypot(sx / 4, sy / 8)),
                                  rel=1e-15)]]
    est = _diagnose(part, cloud)
    assert est.floored == 1
    assert math.isfinite(est.e_hat_est)
    assert est.e_hat_est <= math.log(DISTANCE_FLOOR) / 2 + 1.0


def test_diameter_log(carpet_a):
    # Length 5 words: 3 pairs, so width 4^-3 and height 3^-5.
    expect = math.log(math.hypot(4.0 ** -3, 3.0 ** -5))
    assert diameter_log(carpet_a, 5) == pytest.approx(expect, abs=1e-15)


def test_r_k_diagnostic_anchors(cache_a, carpet_a, cloud_a):
    gap_cap = math.log(math.sqrt(carpet_a.n ** 2 + 1))
    for k in (2, 3):
        diag = _diagnose(cache_a.partition(k), cloud_a)
        assert diag.lower_anchor < diag.upper_anchor
        assert diag.anchor_gap <= gap_cap + 1e-12
        assert diag.e_hat_est <= diag.upper_anchor + 3 * diag.stderr
        assert diag.floored == 0
        expect_r = math.log(diag.phi_k) / carpet_a.s0 + diag.e_hat_est
        assert diag.r_k == pytest.approx(expect_r, abs=1e-12)


def test_stray_lengths_band(carpet_a):
    # Carpet A at k = 2 puts mass 5/9 on length 5 and 4/9 on length 6.
    # Of 9,000 samples, 5,000 are expected at length 5, with a binomial
    # sd of 47.1, so the band is 5,000 +- 297.8; a length the level lacks
    # is allowed 15 samples.
    stats = stopped_statistics(carpet_a, 2)
    assert [float(Fraction(s, 3 ** h)) * 9 for h, s in
            stats.length_nu_sums.items()] == pytest.approx([5, 4])

    def stray(at5, at6, at7=0):
        # The stray lengths of a tally with these samples per length.
        level_tally = LevelTally(np.zeros(8, np.int64))
        level_tally.add(np.repeat([5, 6, 7], [at5, at6, at7]),
                        np.full(9000, -1.0))
        return r_k_diagnostic(stats, level_tally).stray_lengths

    assert stray(5297, 3703) == ()
    assert [h for h, _, _ in stray(5298, 3702)] == [5, 6]
    assert stray(5000, 3985, 15) == ()
    assert stray(5000, 3984, 16) == ((7, 16, 0.0),)


def test_r_k_lower_anchor_exact(cache_a, carpet_a):
    part = cache_a.partition(2)
    diag = _diagnose(part, draw_cloud(carpet_a, 1000, seed=1))
    expect = -math.log(3) * float(part.mass_len_total)
    assert diag.lower_anchor == pytest.approx(expect, abs=1e-12)


def test_two_seeds_agree(carpet_a, cache_a):
    part = cache_a.partition(3)
    e1 = _diagnose(part, draw_cloud(carpet_a, 60_000, seed=101))
    e2 = _diagnose(part, draw_cloud(carpet_a, 60_000, seed=202))
    combined = math.hypot(e1.stderr, e2.stderr)
    assert abs(e1.e_hat_est - e2.e_hat_est) < 6 * combined


def test_ball_bound_carpet_a(carpet_a):
    # Band h's ratio is 9 (p_max / q_max)^ell(h) / (C q_max), and
    # ell(2) = 1 on carpet A, so the worst band is 6.75 / C.
    report = ball_bound_check(carpet_a)
    assert not report.skipped
    assert report.ok
    assert report.max_ratio == pytest.approx(6.75 / carpet_a.c_ball,
                                             rel=1e-15)
    assert report.exponent == pytest.approx(0.369070246428542563, abs=1e-14)


def test_ball_bound_names_failing_bands(carpet_a):
    # With C at a hundredth of its value, bands 2 and 3 (ratios 2.75 and
    # 1.38) fail and band 4 (0.69) and the smaller radii hold.
    c = carpet_a.c_ball / 100
    report = ball_bound_check(dataclasses.replace(carpet_a, c_ball=c))
    assert not report.ok and report.coefficient == c
    assert report.failures == (
        (2, Fraction(2), c * float(Fraction(2, 3) ** 3)),
        (3, Fraction(2, 3), c * float(Fraction(2, 3) ** 4)),
    )
    assert report.max_ratio == pytest.approx(675 / carpet_a.c_ball,
                                             rel=1e-15)


def test_ball_bound_skips_full_column(carpet_b):
    report = ball_bound_check(carpet_b)
    assert report.skipped and report.ok
    assert "column" in report.reason


# -- oracles for the sampling kernel and the located cells ----------------

def _searchsorted_digits(u, cum):
    # The digit formula the comparison kernel replaced.
    idx = np.searchsorted(cum, u, side="right")
    np.minimum(idx, len(cum) - 1, out=idx)
    return idx


def _searchsorted_matrix(params, size, depth, seed):
    # The whole digit matrix by searchsorted, each block of 2^15 rows
    # drawn place by place: all of its first digits, then its second.
    cum = np.cumsum(np.array([float(w) for w in params.spec.weights]))
    mat = np.empty((size, depth), dtype=np.uint16)
    for s, lo in enumerate(range(0, size, 1 << 15)):
        hi = min(lo + (1 << 15), size)
        u = np.random.default_rng([seed, s]).random((depth, hi - lo))
        mat[lo:hi] = _searchsorted_digits(u, cum).T
    return mat


def _widened_centers(partition):
    # lambda_codebook before it widened only the digits it reads.
    params = partition.params
    n, m = float(params.n), float(params.m)
    pts = np.empty((partition.phi_k, 2), dtype=np.float64)
    for h, (keys, _, _) in partition.blocks.items():
        l = ell(params, h)
        rows = key_rows(params, h, keys)
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


@pytest.mark.parametrize("name", ["a", "d", "e", "wide"])
def test_sampling_matches_searchsorted_formula(request, name):
    # The odd size leaves a partial block.  The 400-map carpet's digits
    # pass 255, so
    # they are uint16; its 399 comparisons a digit keep its cloud small.
    params = request.getfixturevalue(f"carpet_{name}")
    size = 2_001 if name == "wide" else 70_001
    for depth in (24, 70, 136):
        mat = _searchsorted_matrix(params, size, depth, seed=31)
        assert np.array_equal(
            sample_digit_matrix(params, size, depth, 31), mat)
        assert np.array_equal(
            _drawn(draw_cloud(params, size, seed=31), depth), mat)


@pytest.mark.parametrize("name,levels,depth", [
    ("a", range(2, 5), 40), ("d", range(2, 5), 60), ("e", range(2, 5), 40),
    ("b", range(1, 5), 40), ("c", range(1, 5), 40), ("many", (1,), 40),
    ("wide", (1,), 40),
])
def test_located_word_matches_brute_force(request, name, levels, depth):
    # One walk locates every level.  Carpet D at k = 4 has lengths up to
    # 39, whose cells (X, Y) span more than 64 bits together; carpet B
    # has a full-mass column, carpet C is square (n = m), the 20-map
    # carpet's move indices run past 255, and the 400-map carpet's map
    # indices do.  The digits are the searchsorted formula's, drawn
    # apart from the cloud, ``depth`` of them, past the walk's.  Each log
    # distance is held to the exact one, read from the walk's digits.
    params = request.getfixturevalue(f"carpet_{name}")
    cloud = draw_cloud(params, 1500, seed=5)
    digits = _searchsorted_matrix(params, 1500, depth, 5)
    parts = [enumerate_lambda_k(params, k) for k in levels]
    walk = _walk_depth(parts)
    assert walk <= depth
    found, dists = located(parts, cloud)
    assert found.dtype == np.uint8 and found.shape == (len(parts), 1500)
    assert dists.shape == found.shape
    for part, row, logs in zip(parts, found, dists):
        assert row.tolist() == brute_locate(params, part,
                                            digits[:, :part.xi_max])
        _assert_logs_exact(params, logs, digits[:, :walk], row.tolist())


_cells = st.lists(
    st.tuples(st.sampled_from([0, 2, 4]), st.sampled_from([0, 2])),
    min_size=2, max_size=4, unique=True)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(5, 7), m=st.integers(3, 4), cells=_cells,
       raw=st.lists(st.integers(1, 2), min_size=4, max_size=4),
       seed=st.integers(0, 1000))
def test_random_carpet_located_word_matches_brute_force(n, m, cells, raw,
                                                        seed):
    cells = [(i, j) for i, j in cells if i < n and j < m]
    if len(cells) < 2:
        return
    total = sum(raw[: len(cells)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        params = derive_params(CarpetSpec.of(
            n, m, {c: f"{w}/{total}" for c, w in zip(cells, raw)}))
    cloud = draw_cloud(params, 400, seed=seed)
    parts = [enumerate_lambda_k(params, k) for k in (3, 1, 2)]
    digits = sample_digit_matrix(params, 400, parts[0].xi_max, seed)
    for part, row in zip(parts, located(parts, cloud)[0]):
        assert row.tolist() == brute_locate(params, part,
                                            digits[:, :part.xi_max])


@pytest.mark.parametrize("name,levels", [
    ("a", range(2, 6)), ("d", range(2, 5)), ("e", range(2, 5)),
])
def test_own_cell_distance_at_least_nearest(request, name, levels):
    # Every centre is a candidate for the nearest one, so no sample is
    # nearer its own centre than its nearest; the two sides round
    # differently, by far less than 1e-15 on the unit square.  The points
    # are cut after the digits the walk reads.
    params = request.getfixturevalue(f"carpet_{name}")
    cloud = draw_cloud(params, 20_000, seed=77)
    parts = [enumerate_lambda_k(params, k) for k in levels]
    pts = sample_points(params, 20_000, _walk_depth(parts), 77)
    for part, own, level_tally in zip(parts, located(parts, cloud)[1],
                                      tally(parts, cloud)):
        assert len(own) == cloud.size
        centres = lambda_codebook(part)
        assert np.all(np.exp(own) >= nearest_distances(pts, centres) - 1e-15)
        est = r_k_diagnostic(part, level_tally)
        voronoi, _, floored = nearest_log_distortion(pts, centres,
                                                     DISTANCE_FLOOR)
        assert est.e_hat_est >= voronoi - 1e-12
        assert est.floored == floored == 0


def test_stderr_is_sample_std(cache_e, carpet_e):
    cloud = draw_cloud(carpet_e, 3 * _CHUNK + 11, seed=3)
    part = cache_e.partition(3)
    logs = located([part], cloud)[1][0]
    est = _diagnose(part, cloud)
    assert est.e_hat_est == math.fsum(logs) / len(logs)
    assert est.stderr == pytest.approx(
        np.std(logs, ddof=1) / math.sqrt(len(logs)), rel=1e-12)


def test_shallow_cloud_refused(carpet_d, carpet_skewed, monkeypatch):
    # The walk draws each sample 20 digits past the deepest level's
    # longest words: 59 for carpet D at k = 4, whose words reach length
    # 39.  The skewed carpet's k = 2 words reach length 1,833, deeper
    # than a sample's 1,074 digits can go: the walk is refused before any
    # chunk is drawn.
    depths = []
    chunks = SampleCloud.chunks

    def counted(cloud, depth):
        depths.append(depth)
        return chunks(cloud, depth)

    monkeypatch.setattr(SampleCloud, "chunks", counted)
    part = enumerate_lambda_k(carpet_d, 4)
    assert located([part], draw_cloud(carpet_d, 100))[0].all()
    assert depths == [59]
    levels = [stopped_statistics(carpet_skewed, k) for k in (1, 2)]
    with pytest.raises(EnumerationCapError, match=(
            "k=2: words of length 1833 need 1853 digits a sample, "
            "more than 1074")):
        located(levels, draw_cloud(carpet_skewed, 100))
    assert depths == [59]
    # A word's cell is read from its digits however wide the grid: on a
    # 200 x 200 grid k = 5 has words of length 10, 80 decimal digits of
    # cell indices.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        wide = derive_params(CarpetSpec.of(
            200, 200, {(0, 0): "1/2", (199, 199): "1/2"}))
    deep = enumerate_lambda_k(wide, 5)
    found, _ = located([deep], draw_cloud(wide, 100, seed=2))
    assert found[0].tolist() == brute_locate(
        wide, deep, sample_digit_matrix(wide, 100, deep.xi_max, 2))
    with pytest.raises(ValueError, match="another carpet"):
        located([deep], draw_cloud(carpet_d, 100))


def test_lengths_past_255():
    # With D's cells at 49/50 and 1/50 the k = 1 words run from length 3
    # to 388, so the lengths are uint16: a uint8 count would wrap past
    # 255.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        params = derive_params(CarpetSpec.of(
            4, 2, {(0, 0): "49/50", (2, 1): "1/50"}))
    part = enumerate_lambda_k(params, 1)
    assert (part.xi_min, part.xi_max) == (3, 388)
    found, dists = located([part], draw_cloud(params, 2000, seed=9))
    assert found.dtype == np.uint16
    assert found.max() > 255
    digits = sample_digit_matrix(params, 2000, 408, 9)
    assert found[0].tolist() == brute_locate(params, part,
                                             digits[:, :388])
    _assert_logs_exact(params, dists[0], digits, found[0].tolist())


def test_skewed_carpet_located_against_brute_force(carpet_skewed):
    # The skewed carpet's k = 1 words run to length 917, whose cells are
    # 2^-916 by 2^-917: their squared sides underflow, but the log
    # distance factors out the wider side, so every sample is located
    # and measured, and held to the exact log distance.
    part = enumerate_lambda_k(carpet_skewed, 1)
    assert part.xi_max == 917
    found, logs = located([part], draw_cloud(carpet_skewed, 600, seed=4))
    digits = sample_digit_matrix(carpet_skewed, 600, 937, 4)
    assert found[0].tolist() == brute_locate(carpet_skewed, part,
                                             digits[:, :917])
    assert found.max() > 511
    _assert_logs_exact(carpet_skewed, logs[0], digits, found[0].tolist())


def test_levels_walk_as_if_alone(carpet_d):
    # A level's lengths do not depend on the levels walked beside it, in
    # any order, repeated or not: each stops on its own threshold.  Its
    # log distances read every digit drawn, 20 past the deepest level's
    # longest words, so they follow the deepest level in their last bits:
    # each is held to the exact distance at the walk's depth, and a level
    # walked with none deeper matches its walk alone bit for bit.
    cloud = draw_cloud(carpet_d, 2000, seed=11)
    stats = {k: stopped_statistics(carpet_d, k) for k in (2, 3, 4)}
    alone = {k: located([s], cloud) for k, s in stats.items()}
    digits = sample_digit_matrix(carpet_d, 2000, 59, 11)
    for ks in ((2, 3, 4), (4, 2, 3), (3, 3, 2)):
        walk = _walk_depth([stats[k] for k in ks])
        found, dists = located([stats[k] for k in ks], cloud)
        for k, row, dist in zip(ks, found, dists):
            assert np.array_equal(row, alone[k][0][0])
            _assert_logs_exact(carpet_d, dist, digits[:, :walk],
                               row.tolist())
            if k == max(ks):
                assert np.array_equal(dist, alone[k][1][0])


def test_locate_refuses_no_levels(cloud_a):
    with pytest.raises(ValueError, match="at least one level"):
        located([], cloud_a)


def test_locate_refuses_levels_of_two_carpets(carpet_a, carpet_b, cloud_a):
    # Carpets A and B share their 4 x 3 grid.  The walk follows one
    # carpet's rule, which would give the other's level wrong
    # thresholds.
    levels = [stopped_statistics(carpet_a, 2), stopped_statistics(carpet_b, 2)]
    with pytest.raises(ValueError, match="more than one carpet"):
        located(levels, cloud_a)
    with pytest.raises(ValueError, match="more than one carpet"):
        located(levels[::-1], cloud_a)
    # Nor may the cloud be another carpet's: B has no cell (0, 2) or
    # (2, 2), so A's map indices would read as wrong moves of B's rule.
    with pytest.raises(ValueError, match="another carpet"):
        located(levels[1:], cloud_a)


@pytest.mark.parametrize("name,levels", [
    ("a", range(1, 7)), ("c", range(1, 5)), ("d", range(1, 6)),
    ("e", range(1, 7)),
])
def test_lambda_codebook_matches_full_widening(request, name, levels):
    params = request.getfixturevalue(f"carpet_{name}")
    for k in levels:
        part = enumerate_lambda_k(params, k)
        book = lambda_codebook(part)
        assert book.tobytes() == _widened_centers(part).tobytes()


# -- oracles for the chunked draw and the exact sum ------------------------

_DRAW_DIGESTS = """
import hashlib, json, sys
import numpy as np
from carpetq import CarpetSpec, derive_params, stopped_statistics
from carpetq.quantizer import draw_cloud, locate
out = {}
for name, (n, m, cells, ks) in json.loads(sys.argv[1]).items():
    params = derive_params(CarpetSpec.of(n, m, {
        (i, j): p for i, j, p in cells}))
    levels = [stopped_statistics(params, k) for k in ks]
    cloud = draw_cloud(params, 300_001, seed=0x5EED)
    for walked in (levels, levels[:1]):
        chunks = list(locate(walked, cloud))
        found, dists = (np.concatenate([c[i] for c in chunks], axis=1)
                        for i in (0, 1))
        out[f"{name}{len(walked)}"] = hashlib.sha256(
            found.tobytes() + dists.tobytes()).hexdigest()
print(json.dumps(out))
"""

# (n, m, maps, levels): walked together, and the first level alone.
_DRAW_CARPETS = {
    "A": (4, 3, [(0, 0, "1/3"), (0, 2, "1/3"), (2, 2, "1/3")], [2, 3, 4]),
    "D": (4, 2, [(0, 0, "3/4"), (2, 1, "1/4")], [1, 2]),
    "E": (5, 3, [(0, 0, "1/6"), (2, 0, "1/3"), (1, 2, "1/4"), (4, 2, "1/4")],
          [2, 3]),
}


def test_cloud_independent_of_openblas_threads():
    # An odd size and two walks leave partial chunks and blocks.  With
    # no thread count set, importing carpetq loads OpenBLAS with one
    # thread, so the pool a user chose is compared with one thread.  No
    # BLAS product reaches the lengths or distances, so they agree.
    src = Path(carpetq.__file__).resolve().parents[1]
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", _DRAW_DIGESTS,
             json.dumps(_DRAW_CARPETS)],
            cwd=src, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(json.loads(done.stdout))
    assert len(digests[0]) == 6
    assert digests[0] == digests[1]


# Imports the modules named on the command line in order, then prints the
# process's thread count and whether os.environ is what it was before.
_THREADS_AFTER = """
import importlib, json, os, sys
before = dict(os.environ)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps([len(os.listdir("/proc/self/task")),
                  dict(os.environ) == before]))
"""


def _openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:          # numpy before 1.26 prints only
        return False
    return "openblas" in config["Build Dependencies"]["blas"]["name"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or not _openblas(),
                    reason="needs /proc/self/task and numpy on OpenBLAS")
def test_import_loads_openblas_single_threaded():
    # With no thread count chosen, importing carpetq loads OpenBLAS with
    # no helper thread and leaves os.environ as it was.  A count the user
    # set, or a numpy loaded first, keeps the pool numpy alone would get.
    src = Path(carpetq.__file__).resolve().parents[1]
    unset = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}

    def threads(chosen, *modules):
        done = subprocess.run(
            [sys.executable, "-c", _THREADS_AFTER, *modules], cwd=src,
            env={**unset, **chosen}, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
        count, environ_kept = json.loads(done.stdout)
        assert environ_kept
        return count

    assert threads({}, "carpetq") == 1
    assert threads({}, "numpy", "carpetq") == threads({}, "numpy")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        chosen = {name: "2"}
        assert threads(chosen, "carpetq") == threads(chosen, "numpy")


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


_spread = st.builds(math.ldexp, st.integers(-(2 ** 53), 2 ** 53),
                    st.integers(-1074, 940))
_finite = st.floats(min_value=-1e300, max_value=1e300)
_subnormal = st.floats(min_value=-2.0 ** -1022, max_value=2.0 ** -1022)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(_finite, _spread, _subnormal),
                       min_size=1, max_size=40),
       size=st.sampled_from([None, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                             2 * _CHUNK + 7]))
@example(values=[-0.0], size=None)
@example(values=[1.0, -1.0], size=None)
@example(values=[1e300, 1.0, -1e300], size=None)
@example(values=[2.0 ** -1074], size=3)
def test_exact_sum_is_fsum(values, size):
    # Sizes at the chunk edges repeat the drawn values, which are added
    # a chunk at a time, then all at once.  The sum of squares is exact,
    # and so, rounded once, is the sample variance (checked over the
    # distinct values, each with its multiplicity).
    arr = np.array(values, dtype=np.float64)
    if size is not None:
        arr = np.resize(arr, size)
    chunked, whole = _ExactSums(), _ExactSums()
    for lo in range(0, len(arr), _CHUNK):
        chunked.add(arr[lo:lo + _CHUNK])
    whole.add(arr)
    seen = {Fraction(v): times
            for v, times in collections.Counter(arr.tolist()).items()}
    for sums in (chunked, whole):
        assert sums.count == len(arr)
        assert _same_float(sums.rounded(), math.fsum(arr))
        assert Fraction(sums.squares, 1 << 2252) == sum(
            times * v ** 2 for v, times in seen.items())
    if len(arr) > 1:
        mean = sum(times * v for v, times in seen.items()) / len(arr)
        variance = sum(times * (v - mean) ** 2
                       for v, times in seen.items()) / (len(arr) - 1)
        # A variance past the float range (values near 1e300) has no
        # float to round to.
        if variance < 2 ** 1000:
            assert _same_float(chunked.sample_variance(), float(variance))


def _sums_match_fractions(values: np.ndarray) -> bool:
    """Whether one ``_ExactSums.add`` of ``values`` gives the exact sum
    and sum of squares, as ``Fraction`` sums over the distinct values."""
    sums = _ExactSums()
    sums.add(values)
    seen = collections.Counter(values.tolist())
    return (Fraction(sums.total, 1 << 1126)
            == sum(times * Fraction(v) for v, times in seen.items())
            and Fraction(sums.squares, 1 << 2252)
            == sum(times * Fraction(v) ** 2 for v, times in seen.items()))


def _window_edges(low: int) -> np.ndarray:
    """A ``_CHUNK``-sized batch of |q| = 2^53 - 1, both signs, at both
    ends of the window of binary exponents from ``low``: half of it
    positive at the top end, where the limbs b' and c are largest, a
    quarter negative there, and an eighth of each sign at the bottom."""
    edge = 1 - 2.0 ** -53               # frexp mantissa of q = 2^53 - 1
    top = low + quantizer._WINDOW - 1
    pattern = [math.ldexp(edge, top)] * 4 + [-math.ldexp(edge, top)] * 2 \
        + [math.ldexp(edge, low), -math.ldexp(edge, low)]
    values = np.resize(np.array(pattern), _CHUNK)
    assert np.ptp(np.frexp(values)[1]) == quantizer._WINDOW - 1
    return values


@pytest.mark.parametrize("width", [quantizer._WINDOW, 7])
@pytest.mark.parametrize("low", [-1000, 0, 900])
def test_exact_sum_worst_case_window(monkeypatch, width, low):
    # The largest limbs at the top of the window.  At width 7, the
    # widest the bound allows, the b' b' and c c dots of the full batch
    # pass 2^62, half the int64 range.
    monkeypatch.setattr(quantizer, "_WINDOW", width)
    assert _sums_match_fractions(_window_edges(low))


def test_exact_sum_window_past_bound_wraps(monkeypatch):
    # One binary exponent more per window and the c c dot of the same
    # batch passes 2^63: the int64 sum wraps and the total is wrong.
    monkeypatch.setattr(quantizer, "_WINDOW", 8)
    assert not _sums_match_fractions(_window_edges(0))


def test_exact_sum_spans_two_windows():
    # The floor's log (binary exponent 10) and the largest log distance
    # (-0.35, exponent -1) meet two windows in one batch, with logs of
    # every exponent between them.
    rng = np.random.default_rng(7)
    values = np.resize(np.concatenate((
        [math.log(DISTANCE_FLOOR), -0.35],
        -np.exp(rng.uniform(math.log(0.35), math.log(690), 998)))), _CHUNK)
    exps = np.frexp(values)[1]
    assert (exps.min(), exps.max()) == (-1, 10)
    assert _sums_match_fractions(values)


def test_tally_memory_flat(carpet_a, carpet_d, carpet_skewed):
    # The pass over the levels k = 2..5 holds one block's digits, one
    # slice's walk and log distances and per level a few running sums
    # and a count per length, so its peak does not grow with the cloud.
    # A temporary of even one byte per sample would add 300,000 bytes to
    # the larger cloud's peak, twice the allowance.
    levels = [stopped_statistics(carpet_a, k) for k in range(2, 6)]
    peaks = [traced_peak(tally, levels, draw_cloud(carpet_a, size, seed=5))[1]
             for size in (100_000, 400_000)]
    assert peaks[1] < peaks[0] + 150_000 and peaks[1] < 5_000_000
    # The walk's and the log distances' scratch is sized by the slice, not
    # the block: D's eleven levels at 136 digits a sample read 10.4 MB,
    # and 16.2 MB when a whole block is walked at once (A above: 3.8 MB
    # against 6.4 MB).
    levels = [stopped_statistics(carpet_d, k) for k in range(2, 13)]
    cloud = draw_cloud(carpet_d, 100_000, seed=5)
    assert traced_peak(tally, levels, cloud)[1] < 12_500_000
    # At 937 digits a sample the digit block is the pass's memory: over
    # two full blocks, one block must be gone before the next is drawn,
    # so no slice of it outlives its block.
    level = stopped_statistics(carpet_skewed, 1)
    block = (level.xi_max + MIN_TAIL) * _SHARD_ROWS
    assert block == 937 * 32_768
    cloud = draw_cloud(carpet_skewed, 2 * _SHARD_ROWS, seed=5)
    assert traced_peak(tally, [level], cloud)[1] < 1.5 * block


def test_locate_yields_slices(carpet_a, cloud_a):
    # One (lengths, logs) per slice of at most _SLICE samples, in order:
    # the slices tile each block of the cloud, the last block's ending in
    # a short one, so their rows sum to the cloud's size.
    assert _SLICE < _SHARD_ROWS
    levels = [stopped_statistics(carpet_a, k) for k in (2, 3)]
    rows = [min(_SLICE, len(digits[0]) - lo) for digits in cloud_a.chunks(1)
            for lo in range(0, len(digits[0]), _SLICE)]
    assert rows[-1] < _SLICE and sum(rows) == cloud_a.size
    got = []
    for found, logs in locate(levels, cloud_a):
        assert found.shape == logs.shape == (2, found.shape[1])
        got.append(found.shape[1])
    assert got == rows


@pytest.mark.parametrize("name,levels", [
    ("a", range(2, 6)), ("d", range(2, 7)), ("skewed", (1,)),
])
def test_locate_slices_match_whole_blocks(request, monkeypatch, name, levels):
    # Every sample is walked and measured on its own column, so the
    # slices joined equal the whole blocks walked and measured at once,
    # bit for bit, up to a cloud that ends in the middle of a slice.
    params = request.getfixturevalue(f"carpet_{name}")
    stats = [stopped_statistics(params, k) for k in levels]
    cloud = draw_cloud(params, 70_001, seed=3)
    assert cloud.size % _SHARD_ROWS % _SLICE
    sliced = located(stats, cloud)
    monkeypatch.setattr(quantizer, "_SLICE", _SHARD_ROWS)
    whole = located(stats, cloud)
    for got, want in zip(sliced, whole, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:grid factor")
@pytest.mark.parametrize("name,levels,size,seed", [
    ("a", range(2, 6), 70_001, 3), ("d", range(2, 7), 70_001, 3),
    ("e", range(2, 6), 70_001, 3), ("skewed", (1,), 100_000, 0x5EED),
])
def test_streamed_diagnostics_match_two_pass(request, name, levels, size,
                                             seed):
    # The streamed sums against the whole-row estimate: the mean and all
    # that follows from it bit for bit, the standard error, whose exact
    # variance differs from the two-pass one by its roundings only, to
    # 1e-12, and the per-length counts against the whole rows' lengths.
    # The skewed carpet's heavy map makes long runs of zero digits, which
    # put samples within 2^-53 of a cell side of their centres; read
    # from the first digit after the cell, none of their offsets is 0.
    params = request.getfixturevalue(f"carpet_{name}")
    stats = [stopped_statistics(params, k) for k in levels]
    cloud = draw_cloud(params, size, seed=seed)
    found, logs = located(stats, cloud)
    for level, level_tally, lengths, row in zip(stats, tally(stats, cloud),
                                                found, logs):
        got = r_k_diagnostic(level, level_tally)
        want = two_pass_diagnostics(level, row)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-12)
        assert got == dataclasses.replace(want, stderr=got.stderr)
        assert np.array_equal(level_tally.counts, np.bincount(
            lengths, minlength=len(level_tally.counts)))
    if name == "skewed":
        assert got.floored == 0
