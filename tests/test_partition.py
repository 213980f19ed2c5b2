"""Stopping-set enumeration: exactness, aggregates, samplers, checks."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetq import CarpetSpec, derive_params
from carpetq.coding import (
    build_antichain, naive_comparable_pairs, raw_coding_antichain,
    verify_maximal_antichain,
)
from carpetq.partition import (
    EnumerationCapError, check_phi_growth,
    check_square_disjointness, enumerate_lambda_k, local_dimension_estimate,
    partition_stats, sample_address, sample_digit_matrix, squares_overlap,
    stopped_statistics,
)
from carpetq.quantizer import lambda_codebook
from carpetq.words import (
    carpet_children, flat_predecessor, make_word,
    square_geometry, word_mass,
)

# Word counts confirmed by two independent routes (direct enumeration
# and the memoized aggregate walk).
PHI_A = {1: 18, 2: 189, 3: 1701, 4: 10935, 5: 118098, 6: 1062882,
         7: 8857350, 8: 79716150}


@pytest.fixture(scope="module")
def carpet_skewed():
    # Carpet D's cells with weights 99/100 and 1/100: at k = 1 the
    # heavy branch runs 917 digits deep before it stops.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return derive_params(CarpetSpec.of(
            4, 2, {(0, 0): "99/100", (2, 1): "1/100"}))


def _brute_lambda_k(params, k):
    """Reference stopping set: plain BFS with Fraction masses."""
    eta_k = params.eta ** k
    if params.theta == 1.0:
        level = [make_word(params, [d], []) for d in params.spec.digits]
    else:
        level = [make_word(params, [], [j]) for j in params.gy]
    out = {}
    while level:
        nxt = []
        for w in level:
            mass = word_mass(params, w)
            if mass < eta_k:
                parent = flat_predecessor(params, w) if len(w) > 1 else None
                if parent is None or word_mass(params, parent) >= eta_k:
                    out[(w.pairs, w.tail)] = mass
            else:
                nxt.extend(carpet_children(params, w))
        level = nxt
    return out


def test_lambda_1_carpet_a(cache_a):
    part = cache_a.partition(1)
    assert part.phi_k == 18
    assert part.xi_min == part.xi_max == 3
    assert part.mass_total == 1
    lengths = {len(w) for w, _ in part.iter_words()}
    assert lengths == {3}


def test_phi_frozen_counts(carpet_a, cache_a):
    for k in (1, 2, 3, 4, 5):
        assert cache_a.partition(k).phi_k == PHI_A[k]
    for k in range(1, 9):
        assert stopped_statistics(carpet_a, k).phi_k == PHI_A[k]


def test_exact_invariants(cache_a):
    for k in (1, 2, 3, 4):
        part = cache_a.partition(k)
        stats = partition_stats(part)
        assert stats.ok
        assert part.mass_total == 1
        total = sum((m for _, m in part.iter_words()), Fraction(0))
        assert total == 1


def test_xi_windows_carpet_a(cache_a):
    for k in (2, 3, 4):
        part = cache_a.partition(k)
        assert (part.xi_min, part.xi_max) == (2 * k + 1, 2 * k + 2)


def test_membership_definition(cache_a, carpet_a):
    # Every emitted word sits strictly below the threshold, its parent
    # at or above it.
    eta_k = carpet_a.eta ** 2
    for w, mass in cache_a.partition(2).iter_words():
        assert mass < eta_k
        assert word_mass(carpet_a, flat_predecessor(carpet_a, w)) >= eta_k


@pytest.mark.parametrize("k", [1, 2, 3])
def test_brute_force_membership(cache_a, carpet_a, k):
    brute = _brute_lambda_k(carpet_a, k)
    part = cache_a.partition(k)
    got = {(w.pairs, w.tail): m for w, m in part.iter_words()}
    assert got == brute


def test_brute_force_membership_other_carpets(carpet_c, carpet_d):
    for params in (carpet_c, carpet_d):
        for k in (1, 2):
            brute = _brute_lambda_k(params, k)
            part = enumerate_lambda_k(params, k)
            got = {(w.pairs, w.tail): m for w, m in part.iter_words()}
            assert got == brute


def test_cap_enforced(carpet_a):
    with pytest.raises(EnumerationCapError):
        enumerate_lambda_k(carpet_a, 3, cap=100)


def test_recursion_limit_left_unchanged(carpet_skewed):
    limit = sys.getrecursionlimit()
    with pytest.raises(EnumerationCapError):
        enumerate_lambda_k(carpet_skewed, 1, cap=100)
    assert sys.getrecursionlimit() == limit
    stats = stopped_statistics(carpet_skewed, 1)
    assert (stats.phi_k, stats.xi_min, stats.xi_max) == (106_489, 3, 917)
    assert stats.mass_total == 1
    assert sys.getrecursionlimit() == limit


def test_dp_frozen_carpet_d(carpet_d):
    # Beyond what the enumerator collects; k = 6 was cross-checked
    # against the earlier memoized recursive DP.
    for k, phi, xi in ((6, 30_706_712, (13, 58)),
                       (10, 1_936_311_929_094, (21, 97))):
        stats = stopped_statistics(carpet_d, k)
        assert stats.phi_k == phi
        assert (stats.xi_min, stats.xi_max) == xi
        assert stats.mass_total == 1
    assert stopped_statistics(carpet_d, 20).mass_total == 1


def test_dp_matches_enumeration(carpet_a, carpet_b, carpet_c, carpet_d):
    for params in (carpet_a, carpet_b, carpet_c, carpet_d):
        for k in (1, 2, 3, 4):
            part = enumerate_lambda_k(params, k)
            stats = stopped_statistics(params, k)
            assert stats.phi_k == part.phi_k
            assert stats.mass_total == part.mass_total == 1
            assert stats.mass_len_total == part.mass_len_total
            assert stats.xi_min == part.xi_min
            assert stats.xi_max == part.xi_max
            assert stats.entropy_sum == pytest.approx(
                part.entropy_sum, abs=1e-9)


def test_store_aggregates_recount(carpet_a, carpet_c, carpet_d):
    # Every aggregate the word store derives equals a recount over its
    # words, and codebook row i is the centre of word i.
    for params in (carpet_a, carpet_c, carpet_d):
        L = params.denom_lcm
        for k in (1, 2, 3):
            part = enumerate_lambda_k(params, k)
            counts, nu_sums = {}, {}
            mass_total = mass_len_total = Fraction(0)
            for w, mass in part.iter_words():
                h = len(w)
                assert mass == word_mass(params, w)
                counts[h] = counts.get(h, 0) + 1
                nu_sums[h] = nu_sums.get(h, 0) + mass * L ** h
                mass_total += mass
                mass_len_total += h * mass
            assert part.phi_k == sum(counts.values()) == len(part)
            assert (part.xi_min, part.xi_max) == (min(counts), max(counts))
            assert part.length_counts == counts
            assert part.length_nu_sums == nu_sums
            assert list(part.length_counts) == sorted(counts)
            assert part.mass_total == mass_total
            assert part.mass_len_total == mass_len_total
            book = lambda_codebook(part)
            for idx in range(part.phi_k):
                sq = square_geometry(params, part.word_at(idx))
                assert part.mass_at(idx) == sq.mass
                assert book.points[idx, 0] == pytest.approx(
                    float(sq.x_low + sq.width / 2), abs=1e-15)
                assert book.points[idx, 1] == pytest.approx(
                    float(sq.y_low + sq.height / 2), abs=1e-15)


def test_phi_growth(carpet_a):
    stats = [stopped_statistics(carpet_a, k) for k in range(1, 9)]
    for earlier, later in zip(stats, stats[1:]):
        assert check_phi_growth(earlier, later)
    with pytest.raises(ValueError):
        check_phi_growth(stats[0], stats[3])


def test_disjointness_clean(cache_a, cache_d):
    for cache, ks in ((cache_a, (1, 2, 3)), (cache_d, (2,))):
        for k in ks:
            report = check_square_disjointness(cache.partition(k))
            assert report.ok
            assert report.checked == cache.partition(k).phi_k


def test_disjointness_brute_agreement(cache_a, carpet_a):
    part = cache_a.partition(2)
    squares = [square_geometry(carpet_a, w) for w, _ in part.iter_words()]
    brute = [
        (a, b)
        for a in range(len(squares))
        for b in range(a + 1, len(squares))
        if squares_overlap(squares[a], squares[b])
    ]
    assert brute == []
    assert check_square_disjointness(part).ok


def test_disjointness_detects_duplicate(carpet_a, tamper):
    part = enumerate_lambda_k(carpet_a, 1)
    part = tamper(part, drop=[1], add=[(part.word_at(0), part.mass_at(0))])
    report = check_square_disjointness(part)
    assert not report.ok
    assert len(report.violations) >= 1


def test_disjointness_detects_nesting(carpet_a, tamper):
    part = enumerate_lambda_k(carpet_a, 1)
    child = part.word_at(0)
    parent = flat_predecessor(carpet_a, child)
    part = tamper(part, drop=[1],
                  add=[(parent, word_mass(carpet_a, parent))])
    report = check_square_disjointness(part)
    assert not report.ok


def test_squares_overlap_oracle(carpet_a):
    w = make_word(carpet_a, [(0, 0), (2, 2)], [2])
    sq = square_geometry(carpet_a, w)
    assert squares_overlap(sq, sq)
    pred_sq = square_geometry(carpet_a, flat_predecessor(carpet_a, w))
    assert squares_overlap(sq, pred_sq)
    other = square_geometry(carpet_a, make_word(carpet_a, [(0, 2), (2, 2)], [2]))
    assert not squares_overlap(sq, other)


def test_sample_digit_matrix_deterministic(carpet_a):
    m1 = sample_digit_matrix(carpet_a, 70_000, 25, seed=11, threads=1)
    m2 = sample_digit_matrix(carpet_a, 70_000, 25, seed=11, threads=8)
    assert m1.dtype == np.uint8 and m1.shape == (70_000, 25)
    assert np.array_equal(m1, m2)
    m3 = sample_digit_matrix(carpet_a, 70_000, 25, seed=12)
    assert not np.array_equal(m1, m3)


def test_sample_digit_matrix_marginals(carpet_a):
    mat = sample_digit_matrix(carpet_a, 90_000, 8, seed=5)
    counts = np.bincount(mat.ravel(), minlength=3)
    total = mat.size
    for idx in range(3):
        p = 1.0 / 3.0
        se = math.sqrt(p * (1 - p) / total)
        assert abs(counts[idx] / total - p) < 4 * se


def test_sample_address_in_square(carpet_a):
    word, (x, y) = sample_address(carpet_a, depth=12, seed=3)
    assert len(word) == 12
    sq = square_geometry(carpet_a, word)
    assert float(sq.x_low) <= x <= float(sq.x_high())
    assert float(sq.y_low) <= y <= float(sq.y_high())


def test_local_dimension_estimate(carpet_a):
    from carpetq.sequences import compute_d_k
    est = local_dimension_estimate(carpet_a, k=24, samples=60_000, seed=2)
    d = compute_d_k(carpet_a, 24)
    assert abs(est.mean - d) <= 4 * est.stderr
    assert est.samples == 60_000


_cells = st.lists(
    st.tuples(st.sampled_from([0, 2, 4]), st.sampled_from([0, 2])),
    min_size=2, max_size=4, unique=True)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 7), m=st.integers(3, 4), cells=_cells,
       raw=st.lists(st.integers(1, 2), min_size=4, max_size=4))
def test_random_carpet_dp_equals_enumeration(n, m, cells, raw):
    cells = [(i, j) for i, j in cells if i < n and j < m]
    if len(cells) < 2:
        return
    total = sum(raw[: len(cells)])
    spec = CarpetSpec.of(
        n, m, {c: f"{w}/{total}" for c, w in zip(cells, raw)})
    params = derive_params(spec)
    for k in (1, 2):
        part = enumerate_lambda_k(params, k)
        stats = stopped_statistics(params, k)
        assert part.mass_total == 1
        assert stats.phi_k == part.phi_k
        assert stats.mass_len_total == part.mass_len_total
        assert (stats.xi_min, stats.xi_max) == (part.xi_min, part.xi_max)
        assert stats.mass_total == part.mass_total
        assert stats.entropy_sum == pytest.approx(part.entropy_sum, abs=1e-9)
        assert check_square_disjointness(part).ok


def _overlap_pairs(params, part):
    # All-pairs oracle: the squares_overlap comparison, on integer
    # corners over the finest grid, for every pair of squares.
    squares = [square_geometry(params, w) for w, _ in part.iter_words()]
    dx = max(sq.width.denominator for sq in squares)
    dy = max(sq.height.denominator for sq in squares)
    x0, x1, y0, y1 = np.array(
        [[int(sq.x_low * dx), int(sq.x_high() * dx),
          int(sq.y_low * dy), int(sq.y_high() * dy)] for sq in squares],
        dtype=np.int64).T
    pairs = []
    for a in range(len(squares)):
        rest = slice(a + 1, None)
        hit = ((np.maximum(x0[a], x0[rest]) < np.minimum(x1[a], x1[rest]))
               & (np.maximum(y0[a], y0[rest]) < np.minimum(y1[a], y1[rest])))
        pairs.extend((a, a + 1 + b) for b in np.flatnonzero(hit).tolist())
    assert all(squares_overlap(squares[a], squares[b]) for a, b in pairs)
    return pairs


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 7), m=st.integers(3, 4),
       cells=st.lists(st.tuples(st.sampled_from([0, 2, 4]),
                                st.sampled_from([0, 2])),
                      min_size=2, max_size=3, unique=True),
       raw=st.lists(st.integers(1, 2), min_size=3, max_size=3),
       picks=st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)))
def test_random_carpet_row_kernels_match_oracles(tamper, n, m, cells, raw,
                                                 picks):
    total = sum(raw[: len(cells)])
    params = derive_params(CarpetSpec.of(
        n, m, {c: f"{w}/{total}" for c, w in zip(cells, raw)}))
    for k in (1, 2):
        part = enumerate_lambda_k(params, k)
        assert check_square_disjointness(part).violations == ()
        assert _overlap_pairs(params, part) == []
        # Two more copies of one word and two of another's parent square,
        # so lookups meet runs of equal rows on both sides.
        dup, child = (pick % part.phi_k for pick in picks)
        add = [(part.word_at(dup), part.mass_at(dup))]
        if len(part.word_at(child)) > 1:
            parent = flat_predecessor(params, part.word_at(child))
            add.append((parent, word_mass(params, parent)))
        bad = tamper(part, add=2 * add)
        assert list(check_square_disjointness(bad).violations) \
            == _overlap_pairs(params, bad)

        raw_chain = raw_coding_antichain(part)
        words = [raw_chain.word_at(idx) for idx in range(raw_chain.size)]
        assert list(verify_maximal_antichain(raw_chain).comparable_pairs) \
            == naive_comparable_pairs(words)
        for chain in (raw_chain, build_antichain(part)):
            for rows, _ in chain.blocks.values():
                encodings = list(map(bytes, rows))
                assert encodings == sorted(encodings)
