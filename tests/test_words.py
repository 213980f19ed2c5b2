"""Word mechanics: lengths, predecessors, children, masses, geometry."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetq import words as words_mod
from carpetq.coding import (
    _ancestor_columns, build_antichain, verify_maximal_antichain,
)
from carpetq.partition import (
    _overlap_columns, check_square_disjointness, enumerate_lambda_k,
)
from carpetq.words import (
    RowIndex, WordColumns, WordError, cut_keys, ell, row_keys,
)
from oracles import (
    CarpetWord, carpet_children, decode_word, encode_word, flat_predecessor,
    make_word, mass_at, raw_coding_antichain, square_geometry, store_rows,
    word_at, word_from_digits, word_mass,
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
    ids = np.array([0, 1], dtype=np.uint8)
    store = WordColumns(carpet_a, {2: (rows, ids, [1, 2])})
    assert word_at(store, 1) == CarpetWord(((0, 2),), (0,))
    assert mass_at(store, 1) == Fraction(2, 9)
    for block in [
        ([encode_word(word_at(store, 0))], ids[:1], [1]),  # bytes, not rows
        (rows.astype(np.int64), ids, [1, 2]),           # wrong dtype
        (rows[:, :2].copy(), ids, [1, 2]),              # wrong width
        (rows, ids, [1]),                               # id at table length
        (rows, np.array([0, 5], np.uint8), [1, 2]),     # id past the table
        (rows, ids.astype(np.int8), [1, 2]),            # signed ids
        (rows, ids[:1], [1, 2]),                        # one id short
        (rows, [0, 1], [1, 2]),                         # ids not an array
        (rows[::-1], ids, [1, 2]),                      # not C-contiguous
        (rows[0], ids[:1], [1]),                        # not a matrix
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


def _random_rows(params, pairs, lone, picks):
    # One uint8 row per pick: ``pairs`` cells of G, then ``lone`` occupied
    # column digits, each chosen by an index into its sorted set.
    cells, cols = sorted(params.spec.digits), list(params.gy)
    out = np.empty((len(picks), 2 * pairs + lone), dtype=np.uint8)
    for t, pick in enumerate(picks):
        for c in range(pairs):
            out[t, 2 * c:2 * c + 2] = cells[pick[c] % len(cells)]
        for c in range(lone):
            out[t, 2 * pairs + c] = cols[pick[pairs + c] % len(cols)]
    return out


def _mixed_radix(params, row, pairs):
    # The key's integer by definition: ranks in sorted G, then in gy.
    cells, cols = sorted(params.spec.digits), list(params.gy)
    value = 0
    for c in range(pairs):
        value = value * len(cells) + cells.index(tuple(row[2 * c:2 * c + 2]))
    for j in row[2 * pairs:]:
        value = value * len(cols) + cols.index(j)
    return value


def _oracle_index(rows):
    # Row bytes -> the indices of the rows that spell them, ascending.
    index = {}
    for t, row in enumerate(rows):
        index.setdefault(row.tobytes(), []).append(t)
    return index


@settings(max_examples=60, deadline=None)
@given(pick=st.integers(0, 2),
       layout=st.sampled_from(["full", "stem", "wide"]),
       h=st.integers(2, 12), extra=st.integers(0, 3),
       pool=st.lists(st.lists(st.integers(0, 255), min_size=80, max_size=80),
                     min_size=1, max_size=6),
       draws=st.lists(st.integers(0, 5), min_size=1, max_size=30))
def test_row_keys_sort_and_look_up_as_bytes(carpet_a, carpet_d, carpet_e,
                                             pick, layout, h, extra, pool,
                                             draws):
    # Rows drawn with repeats from a small pool, in the layout of a whole
    # word, of a family stem (one pair fewer, its column digit kept) or
    # wider than 64 bits.
    params = (carpet_a, carpet_d, carpet_e)[pick]
    l = ell(params, h)
    pairs, lone = {
        "full": (l, h - l),
        "stem": (l - 1, h - l + 1),
        "wide": (64 // int(np.log2(len(params.spec.digits))) + 1 + extra,
                 extra),
    }[layout]
    rows = _random_rows(params, pairs, lone,
                        [pool[d % len(pool)] for d in draws])
    keys = row_keys(params, rows, pairs)
    if layout == "wide":
        assert keys.dtype.kind == "V" and keys.dtype.itemsize in (16, 24)
    else:
        assert keys.dtype == np.uint64
        assert keys.tolist() == [_mixed_radix(params, row, pairs)
                                 for row in rows]
    assert np.argsort(keys, kind="stable").tolist() \
        == sorted(range(len(rows)), key=lambda t: rows[t].tobytes())

    index, oracle = RowIndex(keys), _oracle_index(rows)
    assert sorted(index.duplicates()) == sorted(
        (a, b) for run in oracle.values()
        for x, a in enumerate(run) for b in run[x + 1:])
    # Queries: a fresh row set of the same layout.
    queries = _random_rows(params, pairs, lone,
                           [pool[(d + 1) % len(pool)] for d in draws])
    query_keys = row_keys(params, queries, pairs)
    hits = [oracle.get(q.tobytes(), []) for q in queries]
    assert index.contains(query_keys).tolist() == [bool(r) for r in hits]
    found, at = index.matches(query_keys)
    assert list(zip(found.tolist(), at.tolist())) \
        == [(q, t) for q, run in enumerate(hits) for t in run]

    # One digit outside its set: a cell off G, or a column off gy, inside
    # the grid (1) or past it (255).
    bad = rows.copy()
    col = draws[0] % bad.shape[1]
    off = 1 if 1 not in params.gy else 255
    if col < 2 * pairs:
        bad[0, col - col % 2:col - col % 2 + 2] = (off, off)
    else:
        bad[0, col] = off
    with pytest.raises(WordError):
        row_keys(params, bad, pairs)
    bad[0] = 255
    with pytest.raises(WordError):
        row_keys(params, bad, pairs)


@settings(max_examples=40, deadline=None)
@given(pick=st.integers(0, 2), h=st.integers(3, 12), cut=st.integers(1, 11),
       pool=st.lists(st.lists(st.integers(0, 255), min_size=30, max_size=30),
                     min_size=1, max_size=5),
       draws=st.lists(st.integers(0, 4), min_size=1, max_size=20))
def test_cut_keys_look_up_as_bytes(carpet_a, carpet_d, carpet_e, pick, h, cut,
                                   pool, draws):
    # Longer rows cut down to their blockwise ancestor and to their
    # overlap candidate at a shorter length, packed in one pass, and
    # looked up among rows of that length.  Every other indexed row is a
    # cut of a query row, so hits occur.
    params = (carpet_a, carpet_d, carpet_e)[pick]
    hp = 1 + cut % (h - 1)
    l, lp = ell(params, h), ell(params, hp)
    longer = _random_rows(params, l, h - l,
                          [pool[d % len(pool)] for d in draws])
    cuts = [(_ancestor_columns(params, h, hp), lp),
            (_overlap_columns(params, h, hp), lp)]
    [(_, queries)] = cut_keys(params, longer, l, cuts)
    for (cols, _), keys in zip(cuts, queries):
        short = _random_rows(params, lp, hp - lp,
                             [pool[(d + 1) % len(pool)] for d in draws])
        short[::2] = longer[::2][:, cols]
        index = RowIndex(row_keys(params, short, lp))
        oracle = _oracle_index(short)
        assert keys.tolist() == row_keys(params, longer[:, cols], lp).tolist()
        hits = [oracle.get(q[cols].tobytes(), []) for q in longer]
        assert index.contains(keys).tolist() == [bool(r) for r in hits]
        found, at = index.matches(keys)
        assert list(zip(found.tolist(), at.tolist())) \
            == [(q, t) for q, run in enumerate(hits) for t in run]


@pytest.mark.parametrize("carpet,k", [("a", 2), ("a", 3), ("d", 2)])
def test_lookup_chunks_change_nothing(request, monkeypatch, carpet, k):
    # Five rows a chunk: every packing and lookup spans several chunks.
    # The raw antichain has comparable pairs, so matches are found in
    # many chunks.
    params = request.getfixturevalue(f"carpet_{carpet}")
    part = enumerate_lambda_k(params, k)

    def run():
        chain = build_antichain(part)
        return (check_square_disjointness(part), store_rows(chain),
                chain.stage_logs, verify_maximal_antichain(chain),
                verify_maximal_antichain(raw_coding_antichain(part)))

    whole = run()
    monkeypatch.setattr(words_mod, "_CHUNK", 5)
    assert run() == whole
    assert whole[-1].comparable_pairs
