"""Sampling, located cells, distortion estimates, anchors, ball bounds."""

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
from carpetq.partition import enumerate_lambda_k
from carpetq.quantizer import (
    _CHUNK, DISTANCE_FLOOR, MAX_DEPTH, SampleCloud, ShallowCloudError,
    _CellTable, _exact_sum, _slot_bits, ball_bound_check, diameter_log,
    draw_cloud, locate, r_k_diagnostic, uniform_digits,
)
from carpetq.words import ell
from oracles import (
    brute_locate, flat_predecessor, key_rows, lambda_codebook,
    nearest_distances, nearest_log_distortion, sample_digit_matrix,
    square_geometry, traced_peak, word_at, word_mass,
)


@pytest.fixture(scope="module")
def cloud_a(carpet_a):
    return draw_cloud(carpet_a, 120_000, depth=40, seed=0x5EED)


def test_draw_cloud_deterministic(carpet_a, cloud_a):
    again = draw_cloud(carpet_a, 120_000, depth=40, seed=0x5EED)
    assert np.array_equal(cloud_a.prefix, again.prefix)
    assert np.array_equal(cloud_a.suffix, again.suffix)
    assert np.array_equal(cloud_a.points, again.points)
    other = draw_cloud(carpet_a, 120_000, depth=40, seed=7)
    assert not np.array_equal(cloud_a.prefix, other.prefix)


def test_draw_cloud_validation(carpet_a):
    with pytest.raises(ValueError):
        draw_cloud(carpet_a, 0)
    with pytest.raises(ValueError):
        draw_cloud(carpet_a, 10, depth=8)
    with pytest.raises(ValueError, match="depth"):
        draw_cloud(carpet_a, 10, depth=MAX_DEPTH + 1)
    with pytest.raises(TypeError, match="threads"):
        draw_cloud(carpet_a, 10, threads=2)


def test_cloud_in_unit_square(cloud_a):
    assert cloud_a.points.shape == (120_000, 2)
    assert cloud_a.points.min() >= 0.0
    assert cloud_a.points.max() <= 1.0
    assert cloud_a.suffix.min() >= 0.0 and cloud_a.suffix.max() < 1.0


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
    assert len(book) == part.phi_k
    for idx in (0, 1, 60, 188):
        sq = square_geometry(carpet_a, word_at(part, idx))
        assert book[idx, 0] == pytest.approx(
            float(sq.x_low + sq.width / 2), abs=1e-15)
        assert book[idx, 1] == pytest.approx(
            float(sq.y_low + sq.height / 2), abs=1e-15)


def _places(base):
    # Digits in a packed prefix: the largest S with base^S < 2^63.
    return max(s for s in range(64) if base ** s < 2 ** 63)


def _hand_cloud(part, idx, quarters):
    # Samples in the cell of word ``idx`` at the given offsets from its
    # centre, in quarter cell sides; exact on power-of-two bases.
    params = part.params
    n, m = params.n, params.m
    word = word_at(part, idx)
    h, l = len(word), len(word.pairs)
    x = y = 0
    for i in word.x_digits():
        x = x * n + i
    for j in word.y_digits():
        y = y * m + j
    dx, dy = n ** (_places(n) - l), m ** (_places(m) - h)
    prefix = np.array([[x * dx + dx // 2 + qx * dx // 4 for qx, _ in quarters],
                       [y * dy + dy // 2 + qy * dy // 4 for _, qy in quarters]],
                      dtype=np.uint64)
    cloud = SampleCloud(prefix=prefix, suffix=np.zeros(prefix.shape),
                        bases=(n, m), depth=60, seed=0)
    return cloud, h, float(n) ** -l / 4, float(m) ** -h / 4


def test_log_distortion_hand_value(cache_d):
    part = cache_d.partition(2)
    cloud, h, qx, qy = _hand_cloud(part, 7, [(1, 1), (-1, -1)])
    assert locate(part, cloud)[0].tolist() == [h, h]
    est = r_k_diagnostic(part, cloud)
    assert est.e_hat_est == pytest.approx(math.log(math.hypot(qx, qy)),
                                          abs=1e-15)
    assert est.floored == 0 and est.unlocated == 0
    assert est.stderr == pytest.approx(0.0, abs=1e-15)


def test_log_distortion_floors_zero_distance(cache_d):
    part = cache_d.partition(2)
    cloud, _, qx, qy = _hand_cloud(part, 7, [(0, 0), (1, -1)])
    assert locate(part, cloud)[1].tolist() == [
        0.0, pytest.approx(math.hypot(qx, qy), rel=1e-15)]
    est = r_k_diagnostic(part, cloud)
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
    part = cache_a.partition(3)
    e1 = r_k_diagnostic(part, draw_cloud(carpet_a, 60_000, seed=101))
    e2 = r_k_diagnostic(part, draw_cloud(carpet_a, 60_000, seed=202))
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


def _packed(digits, base, depth):
    # The prefix by integer Horner steps over the first S digits (zero
    # past depth), and the suffix by float Horner steps from the last.
    places = _places(base)
    prefix = np.zeros(len(digits), dtype=np.uint64)
    for t in range(places):
        prefix *= np.uint64(base)
        if t < depth:
            prefix += digits[:, t].astype(np.uint64)
    suffix = np.zeros(len(digits))
    for t in range(depth - 1, places - 1, -1):
        suffix = (suffix + digits[:, t]) / base
    return prefix, suffix


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


@pytest.mark.parametrize("name", ["a", "d", "e"])
def test_sampling_matches_searchsorted_formula(request, name):
    # Depth 24 leaves the prefixes short of their places; depth 70 fills
    # them and leaves a suffix on every axis.
    params = request.getfixturevalue(f"carpet_{name}")
    cells = np.array(params.spec.digits, dtype=np.uint8)
    for depth in (24, 70):
        mat, pts = _searchsorted_cloud(params, 70_000, depth, seed=31)
        assert np.array_equal(
            sample_digit_matrix(params, 70_000, depth, 31), mat)
        packed = [_packed(cells[mat, axis], base, depth)
                  for axis, base in enumerate((params.n, params.m))]
        cloud = draw_cloud(params, 70_000, depth=depth, seed=31)
        for axis, (prefix, suffix) in enumerate(packed):
            assert np.array_equal(cloud.prefix[axis], prefix)
            assert np.allclose(cloud.suffix[axis], suffix,
                               rtol=0, atol=1e-15)
        assert np.allclose(cloud.points, pts, rtol=0, atol=1e-15)


@pytest.mark.parametrize("name,levels,depth", [
    ("a", range(2, 5), 40), ("d", range(2, 5), 60), ("e", range(2, 5), 40),
])
def test_located_word_matches_brute_force(request, name, levels, depth):
    # Carpet D at k = 4 has lengths up to 39, whose cells (X, Y) span
    # more than 64 bits together.
    params = request.getfixturevalue(f"carpet_{name}")
    cloud = draw_cloud(params, 1500, depth=depth, seed=5)
    digits = sample_digit_matrix(params, 1500, depth, 5)
    for k in levels:
        part = enumerate_lambda_k(params, k)
        assert locate(part, cloud)[0].tolist() == brute_locate(
            params, part, digits[:, :part.xi_max])


@pytest.mark.parametrize("name,k,depth", [("a", 3, 40), ("e", 3, 40),
                                           ("d", 4, 70)])
def test_located_word_matches_brute_force_in_long_slots(
        request, monkeypatch, name, k, depth):
    # Eight slots per length put up to thousands of cells in a slot, so
    # nearly every lookup walks past the first probe.  Carpet D at k = 4
    # has cells up to 4^19 * 2^39, wider than 64 bits.
    params = request.getfixturevalue(f"carpet_{name}")
    monkeypatch.setattr(quantizer, "_slot_bits", lambda count: 3)
    part = enumerate_lambda_k(params, k)
    cloud = draw_cloud(params, 300, depth=depth, seed=13)
    digits = sample_digit_matrix(params, 300, depth, 13)
    assert locate(part, cloud)[0].tolist() == brute_locate(
        params, part, digits[:, :part.xi_max])


def test_slot_bits_bound():
    # Fewer than four slots per word, and at least two per word.
    for count in range(1, 5000):
        slots = 1 << _slot_bits(count)
        assert 2 * count <= slots < 4 * count
    assert _slot_bits(0) == 1


_near = st.sampled_from([0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1,
                         2 ** 64 - 2, 2 ** 64 - 1])
_index = st.one_of(_near, st.integers(0, 2 ** 64 - 1), st.integers(0, 9))
_pairs = st.lists(st.tuples(_index, _index), max_size=40)


@settings(max_examples=300, deadline=None)
@given(cells=_pairs, extra=_pairs, bits=st.sampled_from([None, 1, 2, 3]))
@example(cells=[], extra=[(0, 0)], bits=None)
@example(cells=[(2 ** 64 - 1, 2 ** 63)], extra=[(0, 0)], bits=None)
@example(cells=[(5, 7), (2 ** 63, 1)], extra=[(0, 0), (5, 7)], bits=1)
def test_cell_table_membership(cells, extra, bits):
    # Queries: every cell (twice when the cells repeat), the extra pairs,
    # and (0, 0).  (0, 0) hashes to slot 0: when that slot is empty its
    # first probe reads another slot's cell, or in an empty table the
    # padding cell, which is (0, 0) itself.
    def array(values):
        return np.array(values, dtype=np.uint64).reshape(-1)

    with pytest.MonkeyPatch.context() as patch:
        if bits is not None:
            patch.setattr(quantizer, "_slot_bits", lambda count: bits)
        table = _CellTable(array([x for x, _ in cells]),
                           array([y for _, y in cells]))
    queries = cells + extra + [(0, 0)]
    got = table.contains(array([x for x, _ in queries]),
                         array([y for _, y in queries]))
    assert got.tolist() == [q in set(cells) for q in queries]
    if bits is None:
        assert len(table.start) - 1 <= 4 * max(len(cells), 1)


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
    cloud = draw_cloud(params, 400, depth=40, seed=seed)
    digits = sample_digit_matrix(params, 400, 40, seed)
    for k in (1, 2, 3):
        part = enumerate_lambda_k(params, k)
        found, _ = locate(part, cloud)
        assert found.all()
        assert found.tolist() == brute_locate(params, part,
                                              digits[:, :part.xi_max])


def _in_square(cloud, params, word):
    # The samples whose points lie inside ``word``'s rectangle.
    sq = square_geometry(params, word)
    x, y = cloud.points.T
    return ((x > float(sq.x_low)) & (x < float(sq.x_high()))
            & (y > float(sq.y_low)) & (y < float(sq.y_high())))


def test_unlocated_samples_counted(cache_a, carpet_a, cloud_a, tamper):
    # Without two of its words the level leaves their samples unlocated;
    # with one word's parent square added, the samples in that square
    # lie in words of two lengths.
    part = cache_a.partition(3)
    first = part.offsets[part.xi_max]
    holes = [first, first + 5]
    in_holes = (_in_square(cloud_a, carpet_a, word_at(part, holes[0]))
                | _in_square(cloud_a, carpet_a, word_at(part, holes[1])))
    assert in_holes.any()
    found, whole = locate(part, cloud_a)
    assert (found[in_holes] == part.xi_max).all()
    # The other samples keep their cells, and their distances close up
    # over the gaps: with the holes' samples spread over every chunk,
    # and with all of them in the first, before chunks with no gap.
    dropped = tamper(part, drop=holes)
    found, dist = locate(dropped, cloud_a)
    assert np.array_equal(found == 0, in_holes)
    assert np.array_equal(dist, whole[~in_holes])
    first_holes = np.argsort(~in_holes, kind="stable")
    moved = SampleCloud(prefix=cloud_a.prefix[:, first_holes],
                        suffix=cloud_a.suffix[:, first_holes],
                        bases=cloud_a.bases, depth=cloud_a.depth, seed=0)
    _, dist = locate(dropped, moved)
    assert np.array_equal(dist, whole[first_holes][in_holes.sum():])
    assert r_k_diagnostic(dropped, cloud_a).unlocated == in_holes.sum()
    parent = flat_predecessor(carpet_a, word_at(part, first))
    twice = tamper(part, add=[(parent, word_mass(carpet_a, parent))])
    in_parent = _in_square(cloud_a, carpet_a, parent)
    assert in_parent.sum() > in_holes.sum() / 2
    assert np.array_equal(locate(twice, cloud_a)[0] == 0, in_parent)


@pytest.mark.parametrize("name,levels", [
    ("a", range(2, 6)), ("d", range(2, 5)), ("e", range(2, 5)),
])
def test_own_cell_distance_at_least_nearest(request, name, levels):
    # Every centre is a candidate for the nearest one, so no sample is
    # nearer its own centre than its nearest; the two sides round
    # differently, by far less than 1e-15 on the unit square.  Carpet D's
    # words reach length 39 at k = 4, so its cloud is drawn deeper.
    params = request.getfixturevalue(f"carpet_{name}")
    cloud = draw_cloud(params, 20_000, depth=60 if name == "d" else 40,
                       seed=77)
    pts = cloud.points
    for k in levels:
        part = enumerate_lambda_k(params, k)
        _, own = locate(part, cloud)
        assert len(own) == cloud.size
        centres = lambda_codebook(part)
        assert np.all(own >= nearest_distances(pts, centres) - 1e-15)
        est = r_k_diagnostic(part, cloud)
        voronoi, _, floored = nearest_log_distortion(pts, centres,
                                                     DISTANCE_FLOOR)
        assert est.e_hat_est >= voronoi - 1e-12
        assert est.floored == floored == 0


def test_stderr_is_sample_std(cache_e, carpet_e):
    cloud = draw_cloud(carpet_e, 3 * _CHUNK + 11, seed=3)
    part = cache_e.partition(3)
    logs = np.log(locate(part, cloud)[1])
    est = r_k_diagnostic(part, cloud)
    assert est.e_hat_est == math.fsum(logs) / len(logs)
    assert est.stderr == pytest.approx(
        np.std(logs, ddof=1) / math.sqrt(len(logs)), rel=1e-12)


def test_shallow_cloud_refused(carpet_d):
    # Carpet D at k = 4 has words of length 39: a depth-40 cloud would
    # leave one digit past them.
    part = enumerate_lambda_k(carpet_d, 4)
    with pytest.raises(ShallowCloudError, match="at least 59, got 40"):
        locate(part, draw_cloud(carpet_d, 100, depth=40))
    assert locate(part, draw_cloud(carpet_d, 100, depth=59))[0].all()
    # On a 200 x 200 grid a prefix holds 8 digits; k = 5 has words of
    # length 10.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        wide = derive_params(CarpetSpec.of(
            200, 200, {(0, 0): "1/2", (199, 199): "1/2"}))
    deep = enumerate_lambda_k(wide, 5)
    with pytest.raises(ShallowCloudError, match="packed prefix"):
        locate(deep, draw_cloud(wide, 100, depth=40))
    with pytest.raises(ValueError, match="bases"):
        locate(deep, draw_cloud(carpet_d, 100, depth=40))


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
from carpetq import CarpetSpec, derive_params
from carpetq.quantizer import draw_cloud
out = {}
for name, (n, m, cells) in json.loads(sys.argv[1]).items():
    params = derive_params(CarpetSpec.of(n, m, {
        (i, j): p for i, j, p in cells}))
    for depth in (40, 64):
        cloud = draw_cloud(params, 300_001, depth=depth, seed=0x5EED)
        out[f"{name}{depth}"] = hashlib.sha256(
            cloud.prefix.tobytes() + cloud.suffix.tobytes()).hexdigest()
print(json.dumps(out))
"""

_DRAW_CARPETS = {
    "A": (4, 3, [(0, 0, "1/3"), (0, 2, "1/3"), (2, 2, "1/3")]),
    "D": (4, 2, [(0, 0, "3/4"), (2, 1, "1/4")]),
    "E": (5, 3, [(0, 0, "1/6"), (2, 0, "1/3"), (1, 2, "1/4"), (4, 2, "1/4")]),
}


def test_cloud_independent_of_openblas_threads():
    # An odd size and two depths leave partial chunks and blocks.  With
    # no thread count set, importing carpetq loads OpenBLAS with one
    # thread, so the pool a user chose is compared with one thread.
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
    # Sizes at the chunk edges repeat the drawn values.
    arr = np.array(values, dtype=np.float64)
    if size is not None:
        arr = np.resize(arr, size)
    assert _same_float(_exact_sum(arr), math.fsum(arr))


def test_quantize_allocation_peaks(cache_a, carpet_a):
    # Above the cloud, the own-cell pass at A k = 4 stays under the 0.71
    # of two separate passes, location then distances (measured 0.56).
    cloud = draw_cloud(carpet_a, 200_000, seed=5)
    cloud_bytes = cloud.prefix.nbytes + cloud.suffix.nbytes
    _, peak = traced_peak(r_k_diagnostic, cache_a.partition(4), cloud)
    assert peak < 0.71 * cloud_bytes
