"""Word mechanics: lengths, predecessors, children, masses, geometry."""

import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetq import CarpetSpec, derive_params
from carpetq import words as words_mod
from carpetq.coding import build_antichain, verify_maximal_antichain
from carpetq.partition import check_square_disjointness, enumerate_lambda_k
from carpetq.words import (
    KeySet, WordColumns, WordError, block_predecessor, class_entropy, ell,
    entropy_terms, family_stems, key_dtype, key_space, member,
    stem_columns, step, swap_tail,
)
from oracles import (
    CarpetWord, RowIndex, carpet_children, coding_predecessor, decode_key,
    decode_word, encode_word, flat_predecessor, key_dtype_of,
    key_rows, keys_of, make_word, mass_at, raw_coding_antichain,
    square_geometry, store_rows, swap_tail as swap_word_tail,
    walks_agree, word_at, word_entropy, word_from_digits, word_mass,
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


def test_word_columns_rejects_malformed_blocks(carpet_a, carpet_d):
    # Length-2 words of carpet A hold one pair and one tail digit.
    pair = [CarpetWord(((0, 0),), (2,)), CarpetWord(((0, 2),), (0,))]
    keys = keys_of(carpet_a, 2, pair)
    ids = np.array([0, 1], dtype=np.uint8)
    store = WordColumns(carpet_a, {2: (keys, ids, [1, 2])})
    assert keys.dtype == np.uint64 and keys.tolist() == [1, 2]
    assert word_at(store, 1) == CarpetWord(((0, 2),), (0,))
    assert mass_at(store, 1) == Fraction(2, 9)
    space = key_space(carpet_a, 2)
    for block in [
        ([encode_word(pair[0])], ids[:1], [1]),         # bytes, not keys
        (key_rows(carpet_a, 2, keys), ids, [1, 2]),     # byte rows
        (keys.astype(np.int64), ids, [1, 2]),           # signed keys
        (keys.astype(object), ids, [1, 2]),             # object where uint64 fits
        (np.array([1, space], np.uint64), ids, [1, 2]),  # key past the space
        (keys, ids, [1]),                               # id at table length
        (keys, np.array([0, 5], np.uint8), [1, 2]),     # id past the table
        (keys, ids.astype(np.int8), [1, 2]),            # signed ids
        (keys, ids[:1], [1, 2]),                        # one id short
        (keys, [0, 1], [1, 2]),                         # ids not an array
        (keys[:, None], ids[:, None], [1, 2]),          # not a vector
    ]:
        with pytest.raises(WordError):
            WordColumns(carpet_a, {2: block})
    # Carpet D's length-65 keys span 2^65: Python ints in an object array.
    assert key_space(carpet_d, 65) == 2 ** 65
    wide = np.array([0, 2 ** 65 - 1], dtype=object)
    assert len(WordColumns(carpet_d, {65: (wide, ids, [1, 2])})) == 2
    for keys in [
        wide.astype(np.float64),                        # not ints
        np.array([0, 2 ** 65], dtype=object),           # key past the space
        np.array([-1, 0], dtype=object),                # negative key
        np.array([0, np.uint64(1)], dtype=object),      # a numpy scalar
        np.array([0, 1.0], dtype=object),               # a float
    ]:
        with pytest.raises(WordError):
            WordColumns(carpet_d, {65: (keys, ids, [1, 2])})


def test_key_dtype_follows_the_64_bit_bound(carpet_a, carpet_b, carpet_c,
                                            carpet_d, carpet_e):
    # uint64 exactly while the key space is at most 2^64: carpet D's
    # radices are both 2, so the bound falls between lengths 64 and 65.
    assert key_dtype(carpet_d, 64) == np.uint64
    assert key_dtype(carpet_d, 65) == object
    for params in (carpet_a, carpet_b, carpet_c, carpet_d, carpet_e):
        cells = len(params.spec.digits)
        cols = len(params.gy)
        for h in range(0, 130):
            l = ell(params, h)
            assert key_space(params, h) == cells ** l * cols ** (h - l)
            assert key_dtype(params, h) == key_dtype_of(params, h)


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


def _random_words(params, h, picks):
    # One length-h word per pick: ell(h) cells of G, then occupied
    # column digits, each chosen by an index into its sorted set.
    cells, cols, l = sorted(params.spec.digits), list(params.gy), ell(params, h)
    return [CarpetWord(
        tuple(cells[pick[c % len(pick)] % len(cells)] for c in range(l)),
        tuple(cols[pick[c % len(pick)] % len(cols)] for c in range(l, h)))
        for pick in picks]


def _position(params, h, w):
    # A length-h word's move from its flat predecessor, as its position
    # in its group: the rank of its last cell without a tail, else the
    # rank of its last tail digit, plus, where ell rises, the rank of its
    # new cell's x digit in that column times |gy|.
    if ell(params, h) == h:
        return sorted(params.spec.digits).index(w.pairs[-1])
    col = params.gy.index(w.tail[-1])
    if ell(params, h) == ell(params, h - 1):
        return col
    i, j = w.pairs[-1]
    return params.gx[j].index(i) * len(params.gy) + col


def _carpet(data, carpets):
    # One of carpets A, D and E, or a random carpet.
    pick = data.draw(st.integers(0, 3))
    if pick < 3:
        return carpets[pick]
    # Even digits keep the cells apart, as the separation check needs.
    n = data.draw(st.integers(3, 9))
    m = data.draw(st.integers(2, min(n, 5)))
    cells = data.draw(st.lists(
        st.tuples(st.sampled_from(range(0, n, 2)),
                  st.sampled_from(range(0, m, 2))),
        min_size=2, max_size=6, unique=True))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return derive_params(CarpetSpec.of(
            n, m, {c: f"1/{len(cells)}" for c in cells}))


_pool = st.lists(st.lists(st.integers(0, 255), min_size=1, max_size=8),
                 min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), h=st.integers(1, 90), pool=_pool,
       draws=st.lists(st.integers(0, 5), min_size=1, max_size=30))
def test_keys_sort_and_look_up_as_bytes(carpet_a, carpet_d, carpet_e, data,
                                        h, pool, draws):
    # Words drawn with repeats from a small pool; lengths past 40 or so
    # have object keys.
    params = _carpet(data, (carpet_a, carpet_d, carpet_e))
    batch = _random_words(params, h, [pool[d % len(pool)] for d in draws])
    keys = keys_of(params, h, batch)
    assert keys.dtype == key_dtype(params, h)
    rows = key_rows(params, h, keys)
    assert [bytes(row) for row in rows] == [encode_word(w) for w in batch]
    assert [decode_key(params, key, h) for key in keys.tolist()] == batch
    assert np.argsort(keys, kind="stable").tolist() \
        == sorted(range(len(batch)), key=lambda t: rows[t].tobytes())

    oracle = {}
    for t, row in enumerate(rows):
        oracle.setdefault(row.tobytes(), []).append(t)
    index = RowIndex(keys)
    equal = sorted((a, b) for run in oracle.values()
                   for x, a in enumerate(run) for b in run[x + 1:])
    assert sorted(index.duplicates()) == equal
    # A one-length store pairs exactly its equal keys.
    store = WordColumns(params, {h: (keys, np.zeros(len(keys), np.uint8),
                                     [1])})
    assert store.matching_pairs(block_predecessor) == tuple(equal)
    # Queries: a fresh word set of the same length.
    queries = _random_words(params, h,
                            [pool[(d + 1) % len(pool)] for d in draws])
    hits = [oracle.get(encode_word(q), []) for q in queries]
    query_keys = keys_of(params, h, queries)
    found, at = index.matches(query_keys)
    assert list(zip(found.tolist(), at.tolist())) \
        == [(q, t) for q, run in enumerate(hits) for t in run]


def _check_key_moves(params, h, batch, picks):
    # The enumerator's step, both predecessors, and the family stem and
    # swap, on the keys of length-h words ``batch``, against the same
    # moves on words; each swap's new x digit is chosen by a pick.
    keys = keys_of(params, h, batch)
    l = ell(params, h)
    cells, cols = sorted(params.spec.digits), list(params.gy)

    def same(got, want_h, want):
        assert got.dtype == key_dtype(params, want_h)
        assert got.tolist() == keys_of(params, want_h, want).tolist()

    flat = [flat_predecessor(params, w) for w in batch]
    same(words_mod.flat_predecessor(params, h, keys), h - 1, flat)
    same(block_predecessor(params, h, keys), h - 1,
         [coding_predecessor(params, w) for w in batch])
    # The step from the flat predecessor back to each word, at the
    # word's position in its group of moves.
    grown = step(params, h, keys_of(params, h - 1, flat),
                 np.array([_position(params, h, w) for w in batch]))
    same(grown, h, batch)
    for w in batch:
        assert w in carpet_children(params, flat_predecessor(params, w))
    if l and h > l:
        stems, x = family_stems(params, h, keys)
        j_l, j_t = stem_columns(params, h, stems)
        assert x.dtype == j_l.dtype == j_t.dtype == np.uint8
        assert list(zip(x.tolist(), j_l.tolist(), j_t.tolist())) \
            == [(w.pairs[-1][0], w.pairs[-1][1], w.tail[-1]) for w in batch]
        want = []
        for w in batch:
            stem = 0
            for pair in w.pairs[:-1]:
                stem = stem * len(cells) + cells.index(pair)
            for j in (w.pairs[-1][1],) + w.tail:
                stem = stem * len(cols) + cols.index(j)
            want.append(stem)
        assert stems.tolist() == want
        xs = [params.gx[w.tail[-1]][d % len(params.gx[w.tail[-1]])]
              for w, d in zip(batch, picks)]
        same(swap_tail(params, h, stems, np.array(xs, np.uint8)), h,
             [swap_word_tail(params, w, x) for w, x in zip(batch, xs)])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), h=st.integers(2, 90), pool=_pool,
       draws=st.lists(st.integers(0, 5), min_size=1, max_size=20))
def test_key_steps_match_word_oracles(carpet_a, carpet_d, carpet_e, data, h,
                                      pool, draws):
    params = _carpet(data, (carpet_a, carpet_d, carpet_e))
    batch = _random_words(params, h, [pool[d % len(pool)] for d in draws])
    _check_key_moves(params, h, batch, draws)


@pytest.mark.parametrize("h", [64, 65, 66])
def test_key_moves_at_the_top_of_the_uint64_range(carpet_d, h):
    # Carpet D's length-h key space is 2^h: length 64 is the last with
    # uint64 keys, 65 the first with object keys, and 66 the first object
    # length where ell rises, so its step splits object keys.  The
    # smallest and largest keys and random ones, whose splits a remainder
    # rounded through a float or cut to fewer bits would get wrong.
    space = key_space(carpet_d, h)
    assert space == 2 ** h
    assert key_dtype(carpet_d, h) == (np.uint64 if h == 64 else object)
    rng = random.Random(h)
    keys = [0, space - 1] + [rng.randrange(space) for _ in range(30)]
    batch = [decode_key(carpet_d, key, h) for key in keys]
    _check_key_moves(carpet_d, h, batch,
                     [rng.randrange(4) for _ in batch])


def _walks_agree(part, chain):
    # On a partition, its repaired antichain and the unrepaired one,
    # which has comparable pairs.
    return all(walks_agree(store)
               for store in (part, chain, raw_coding_antichain(part)))


@pytest.mark.parametrize("carpet,k", [("a", 2), ("a", 3), ("d", 2)])
def test_lookup_chunks_change_nothing(request, monkeypatch, carpet, k):
    # Five rows a chunk: every packing and lookup spans several chunks,
    # and the pooled walk still lists the per-word walk's pairs.  The raw
    # antichain has comparable pairs, so matches are found in many chunks.
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
    assert _walks_agree(part, build_antichain(part))


@pytest.mark.parametrize("carpet,k", [
    ("a", 1), ("a", 2), ("a", 3), ("a", 4), ("a", 5), ("b", 3), ("b", 4),
    ("c", 3), ("c", 4), ("d", 1), ("d", 2), ("d", 3), ("d", 4), ("e", 2),
    ("e", 3)])
def test_walk_matches_per_word_oracle(request, carpet, k):
    cache = request.getfixturevalue(f"cache_{carpet}")
    assert _walks_agree(cache.partition(k), cache.antichain(k))


@pytest.mark.parametrize("carpet,k", [("a", 3), ("d", 3), ("e", 2)])
def test_walk_matches_oracle_object_keys(request, monkeypatch, carpet, k):
    # A 0-bit bound gives every length object keys.
    monkeypatch.setattr(words_mod, "_KEY_BITS", 0)
    part = enumerate_lambda_k(request.getfixturevalue(f"carpet_{carpet}"), k)
    chain = build_antichain(part)
    assert all(keys.dtype == object for keys, _, _ in chain.blocks.values())
    assert _walks_agree(part, chain)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), L=st.integers(2, 36), h=st.integers(1, 60),
       classes=st.integers(1, 40), size=st.integers(0, 600))
def test_class_entropy_is_fsum_of_word_terms(data, L, h, classes, size):
    # A random mass table of one length and random class ids: the count
    # per class times its term, summed exactly and rounded once, has the
    # bits of math.fsum over the words' own terms.
    nus = data.draw(st.lists(st.integers(1, L ** h), min_size=classes,
                             max_size=classes))
    ids = np.array(data.draw(st.lists(st.integers(0, classes - 1),
                                      min_size=size, max_size=size)),
                   dtype=np.uint8)
    terms = entropy_terms(nus, h, L)
    got = float(class_entropy(
        np.bincount(ids, minlength=classes).tolist(), terms))
    assert got.hex() == word_entropy(terms, ids.tolist()).hex()


def _square3():
    # Three cells on a 5 x 5 grid, one per column: a length-h key space
    # of 3^h, one slot past a multiple of 8 at h = 2 and h = 4.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return derive_params(CarpetSpec.of(
            5, 5, {(0, 0): "1/3", (2, 2): "1/3", (4, 4): "1/3"}))


def _assert_key_set(params, h, chunks, ascending=()):
    # A KeySet gathered from ``chunks``, each sorted as it is added, and
    # the ascending distinct ``ascending`` run, against np.unique and the
    # binary-search ``member``; returns whether it is a table.
    gathered = [np.array(c, dtype=key_dtype(params, h)) for c in chunks]
    run = np.unique(np.array(ascending, dtype=key_dtype(params, h)))
    every = np.concatenate(gathered + [run])
    ks = KeySet(params, h, len(every))
    for keys in gathered:
        ks.add(keys)
    ks.add(run, ascending=True)
    want = np.unique(every)
    assert ks.repeats == (len(want) < len(every))
    got = ks.keys()
    assert got.dtype == key_dtype(params, h)
    assert got.tolist() == want.tolist()
    space = key_space(params, h)
    query = np.array(sorted({0, space - 1, *every.tolist(),
                             *(min(key + 1, space - 1)
                               for key in every.tolist())}),
                     dtype=key_dtype(params, h))
    assert ks.member(query).tolist() == member(want, query).tolist()
    return ks.dense


_KEY_SET_CASES = [("d", 3), ("d", 5), ("d", 6), ("d", 65), ("a", 4),
                  ("square", 2), ("square", 4)]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), case=st.sampled_from(_KEY_SET_CASES))
def test_key_set_matches_unique(carpet_a, carpet_d, data, case):
    # Keys of one length, in up to three chunks and one ascending run,
    # on lengths whose sets are tables or sorted runs by the number of
    # keys drawn; the key space's ends are drawn often.
    name, h = case
    params = {"a": carpet_a, "d": carpet_d, "square": _square3()}[name]
    top = key_space(params, h) - 1
    key = st.one_of(st.sampled_from([0, top]), st.integers(0, top))
    chunks = data.draw(st.lists(st.lists(key, max_size=12), max_size=3))
    ascending = data.draw(st.lists(key, max_size=6))
    _assert_key_set(params, h, chunks, ascending)


def test_key_set_representations(carpet_d):
    # A table while the key space is at most 8 slots per key gathered,
    # and only uint64 keys; each case against np.unique.
    square = _square3()
    top = key_space(carpet_d, 5) - 1
    # Empty input, and a single key.
    assert not _assert_key_set(carpet_d, 5, [])
    assert _assert_key_set(carpet_d, 3, [[7]])
    assert not _assert_key_set(carpet_d, 5, [[top]])
    # Space 32 = 8 x 4 keys takes the table, 3 keys the sorted run.
    assert _assert_key_set(carpet_d, 5, [[0, top], [0]], [top])
    assert not _assert_key_set(carpet_d, 5, [[0, top, top]])
    # Space 9 = 8 x 1 + 1 and 81 = 8 x 10 + 1 take the sorted run; 11
    # keys take the table.
    assert not _assert_key_set(square, 2, [[8]])
    assert not _assert_key_set(square, 4, [list(range(71, 81))])
    assert _assert_key_set(square, 4, [list(range(70, 81))])
    assert _assert_key_set(square, 4, [[0] * 11])
    # Object keys never take the table.
    assert key_dtype(carpet_d, 65) == object
    assert not _assert_key_set(carpet_d, 65, [[0, 2 ** 65 - 1] * 8])


# Per certificate, the lengths at which each walk's key sets are tables
# (every other length it walks takes sorted runs): carpet A at k = 6,
# whose lengths hold 236,196 and 826,686 words in key spaces of 472,392
# and 1,417,176, and carpet D at k = 4, whose key spaces are 2^h.
_DENSE_LENGTHS = {
    ("a", 6): {
        "disjointness": {"ancestors": [13], "clashes": [13, 14]},
        "repair": {"covered": [13, 14]},
        "verify": {"ancestors": [13], "clashes": [13, 14]},
    },
    ("d", 4): {
        "disjointness": {"ancestors": list(range(9, 18)),
                         "clashes": [12, 16]},
        "repair": {"ancestors": list(range(10, 19)), "covered": [12, 16]},
        "verify": {"ancestors": list(range(9, 18)), "clashes": [12, 16]},
    },
}


@pytest.mark.parametrize("carpet,k", list(_DENSE_LENGTHS))
def test_key_set_lengths_frozen(request, key_sets, carpet, k):
    # A change to the table rule or to the key layout moves these.
    cache = request.getfixturevalue(f"cache_{carpet}")
    part, chain = cache.partition(k), cache.antichain(k)
    got = {}
    for name, run in [
            ("disjointness", lambda: check_square_disjointness(part)),
            ("repair", lambda: build_antichain(part)),
            ("verify", lambda: verify_maximal_antichain(chain))]:
        key_sets.clear()
        run()
        walked = {}
        for walk, h, dense in key_sets:
            walked.setdefault(walk, [])
            if dense:
                walked[walk].append(h)
        got[name] = {walk: sorted(hs) for walk, hs in walked.items() if hs}
    assert got == _DENSE_LENGTHS[carpet, k]
