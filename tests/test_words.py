"""Word mechanics: lengths, predecessors, children, masses, geometry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetq.words import (
    CarpetWord, WordColumns, WordError, carpet_children, decode_word, ell,
    encode_word, flat_predecessor, make_word, square_geometry,
    word_from_digits, word_mass,
)


def _ell_brute(n, m, k):
    l = 0
    while n ** (l + 1) <= m ** k:
        l += 1
    return l


def test_ell_values_carpet_a(carpet_a):
    expected = {1: 0, 2: 1, 3: 2, 4: 3, 5: 3, 6: 4, 7: 5, 8: 6, 9: 7,
                10: 7, 11: 8}
    for k, l in expected.items():
        assert ell(carpet_a, k) == l


def test_ell_exact_power_boundaries(carpet_d):
    # n = 4, m = 2: n^l = m^k exactly at even k, and the definition
    # takes the inequality as non-strict.
    for k in range(1, 41):
        assert ell(carpet_d, k) == k // 2


def test_ell_square_grid(carpet_c):
    for k in range(1, 51):
        assert ell(carpet_c, k) == k


def test_ell_matches_brute_force(carpet_a, carpet_b, carpet_c, carpet_d):
    for p in (carpet_a, carpet_b, carpet_c, carpet_d):
        for k in range(1, 120):
            assert ell(p, k) == _ell_brute(p.n, p.m, k)


def test_make_word_shape_enforced(carpet_a):
    w = make_word(carpet_a, [(0, 0), (2, 2)], [2])
    assert w.pairs == ((0, 0), (2, 2)) and w.tail == (2,)
    with pytest.raises(WordError):
        make_word(carpet_a, [(0, 0)], [2, 2])          # needs 2 pairs at h=3
    with pytest.raises(WordError):
        make_word(carpet_a, [(0, 0), (2, 2), (0, 2)], [])
    with pytest.raises(WordError):
        make_word(carpet_a, [], [])


def test_make_word_digit_membership(carpet_a):
    with pytest.raises(WordError):
        make_word(carpet_a, [(1, 1), (0, 0)], [2])     # (1,1) not a map
    with pytest.raises(WordError):
        make_word(carpet_a, [(0, 0), (2, 2)], [1])     # column 1 empty


def test_flat_predecessor_demotes_pair(carpet_a):
    w = make_word(carpet_a, [(0, 0), (2, 2)], [2])
    pred = flat_predecessor(carpet_a, w)
    assert pred == make_word(carpet_a, [(0, 0)], [2])
    # Length 6 -> 5 drops a pair as well (ell: 4 -> 3), demoting j.
    w6 = make_word(carpet_a, [(0, 0), (2, 2), (0, 2), (2, 2)], [0, 0])
    pred5 = flat_predecessor(carpet_a, w6)
    assert pred5 == make_word(carpet_a, [(0, 0), (2, 2), (0, 2)], [2, 0])


def test_flat_predecessor_tail_only(carpet_a):
    # Length 10 -> 9 keeps the pair count (ell plateau at 7).
    pairs = [(0, 0)] * 7
    w = make_word(carpet_a, pairs, [2, 0, 2])
    pred = flat_predecessor(carpet_a, w)
    assert pred == make_word(carpet_a, pairs, [2, 0])


def test_flat_predecessor_square_grid(carpet_c):
    # theta = 1: words are all pairs and the tail stays empty.
    w = make_word(carpet_c, [(0, 0), (2, 2)], [])
    pred = flat_predecessor(carpet_c, w)
    assert pred == make_word(carpet_c, [(0, 0)], [])
    assert len(pred) == 1
    with pytest.raises(WordError):
        flat_predecessor(carpet_c, pred)


def test_word_from_digits(carpet_a):
    address = [(0, 0), (2, 2), (0, 2), (2, 2)]
    w = word_from_digits(carpet_a, address, 3)
    assert w == make_word(carpet_a, [(0, 0), (2, 2)], [2])
    with pytest.raises(WordError):
        word_from_digits(carpet_a, address, 5)


def test_children_invert_predecessor(carpet_a, carpet_c, carpet_d):
    for params in (carpet_a, carpet_c, carpet_d):
        seeds = [make_word(params, [p], []) if ell(params, 1) == 1
                 else make_word(params, [], [params.gy[0]])
                 for p in [params.spec.digits[0]]]
        frontier = seeds
        for _ in range(4):
            nxt = []
            for w in frontier:
                kids = carpet_children(params, w)
                assert len(set(kids)) == len(kids)
                for c in kids:
                    assert flat_predecessor(params, c) == w
                    nxt.append(c)
            frontier = nxt


def test_children_masses_sum(carpet_a, carpet_d):
    for params in (carpet_a, carpet_d):
        w = make_word(params, [], [params.gy[0]])
        for _ in range(5):
            kids = carpet_children(params, w)
            total = sum((word_mass(params, c) for c in kids), Fraction(0))
            assert total == word_mass(params, w)
            w = kids[0]


def test_word_mass_values(carpet_a, carpet_c):
    w = make_word(carpet_a, [(0, 0)], [2])
    assert word_mass(carpet_a, w) == Fraction(2, 9)    # p(0,0) * q(2)
    w2 = make_word(carpet_c, [(0, 0), (2, 2)], [])
    assert word_mass(carpet_c, w2) == Fraction(1, 4)


def test_square_geometry_example(carpet_a):
    w = make_word(carpet_a, [(0, 0)], [2])
    sq = square_geometry(carpet_a, w)
    assert sq.x_low == Fraction(0) and sq.width == Fraction(1, 4)
    assert sq.y_low == Fraction(2, 9) and sq.height == Fraction(1, 9)
    w2 = make_word(carpet_a, [(2, 2)], [0])
    sq2 = square_geometry(carpet_a, w2)
    assert sq2.x_low == Fraction(2, 4)
    assert sq2.y_low == Fraction(2, 3)      # j digits 2 then 0


def test_square_aspect_comparable(carpet_a, carpet_d):
    # Width n^-ell and height m^-h satisfy 1 <= width/height < n.
    for params in (carpet_a, carpet_d):
        w = make_word(params, [], [params.gy[0]])
        for _ in range(8):
            sq = square_geometry(params, w)
            ratio = sq.width / sq.height
            assert 1 <= ratio < params.n
            w = carpet_children(params, w)[0]


def test_encode_decode_round_trip(carpet_a):
    w = make_word(carpet_a, [(0, 0), (2, 2)], [0])
    data = encode_word(w)
    assert decode_word(carpet_a, data, len(w)) == w


def test_word_columns_rejects_malformed_blocks(carpet_a):
    # Length-2 words of carpet A hold one pair and one tail digit.
    rows = np.array([[0, 0, 2], [0, 2, 0]], dtype=np.uint8)
    store = WordColumns(carpet_a, {2: (rows, [1, 2])})
    assert store.word_at(1) == CarpetWord(((0, 2),), (0,))
    assert store.mass_at(1) == Fraction(2, 9)
    for block in [
        ([encode_word(store.word_at(0))], [1]),       # bytes, not rows
        (rows.astype(np.int64), [1, 2]),                # wrong dtype
        (rows[:, :2].copy(), [1, 2]),                   # wrong width
        (rows, [1]),                                    # one mass short
        (rows[::-1], [1, 2]),                           # not C-contiguous
        (rows[0], [1]),                                 # not a matrix
    ]:
        with pytest.raises(WordError):
            WordColumns(carpet_a, {2: block})


@settings(max_examples=80, deadline=None)
@given(steps=st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=12),
       pick=st.integers(0, 3))
def test_random_descent_round_trips(carpet_a, carpet_c, carpet_d, steps, pick):
    params = (carpet_a, carpet_c, carpet_d)[pick % 3]
    w = make_word(params, [], [params.gy[0]]) if ell(params, 1) == 0 \
        else make_word(params, [params.spec.digits[0]], [])
    for s in steps:
        kids = carpet_children(params, w)
        w = kids[s % len(kids)]
    assert decode_word(params, encode_word(w), len(w)) == w
    assert word_mass(params, w) > 0
    pred = flat_predecessor(params, w)
    assert w in carpet_children(params, pred)
    ratio = word_mass(params, w) / word_mass(params, pred)
    assert params.eta <= ratio <= params.q_max
