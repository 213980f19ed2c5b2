"""Blockwise coding order, replacement stages, antichain certification."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetq import CarpetSpec, derive_params
from carpetq.coding import (
    AntichainCollisionError, AntichainInvariantError, build_antichain,
    verify_maximal_antichain, xi_sequence,
)
from carpetq.partition import enumerate_lambda_k
from carpetq import words as words_mod
from carpetq.words import WordError, block_predecessor, ell
from oracles import (
    CarpetWord, build_antichain_by_family, carpet_children,
    coding_predecessor, comparable, flat_predecessor, is_descendant,
    make_word, naive_comparable_pairs, raw_coding_antichain, replay_stages,
    store_rows, swap_tail, traced_peak, word_at, word_at_threshold,
    word_mass, words,
)


def test_l_map_round_trip(cache_a, carpet_a):
    # The map L into the coding space keeps every digit: each stopping
    # word is already a valid coding word, with the same product mass.
    for k in (1, 2, 3):
        for w, mass in words(cache_a.partition(k)):
            assert make_word(carpet_a, w.pairs, w.tail) == w
            assert word_mass(carpet_a, w) == mass


def test_lambda_mass_product_form(carpet_a):
    w = CarpetWord(pairs=((0, 0), (2, 2)), tail=(2, 0))
    expect = (Fraction(1, 3) * Fraction(1, 3)
              * Fraction(2, 3) * Fraction(1, 3))
    assert word_mass(carpet_a, w) == expect


def test_make_coding_word_shape(carpet_a):
    w = make_word(carpet_a, [(0, 0), (2, 2)], [0])
    assert w.pairs == ((0, 0), (2, 2))
    with pytest.raises(WordError):
        make_word(carpet_a, [(0, 0)], [0, 0])   # h=3 needs 2 pairs
    with pytest.raises(WordError):
        make_word(carpet_a, [(1, 0), (0, 0)], [0])
    with pytest.raises(WordError):
        make_word(carpet_a, [], [])


def test_coding_predecessor_prefers_tail(carpet_a):
    # 5 -> 4 keeps ell (3 = 3): the tail shortens, pairs stay.
    w = make_word(carpet_a, [(0, 0), (2, 2), (0, 2)], [2, 0])
    pred = coding_predecessor(carpet_a, w)
    assert pred == CarpetWord(w.pairs, (2,))
    # 4 -> 3 drops ell (3 -> 2): the last pair goes, tail unchanged.
    pred2 = coding_predecessor(carpet_a, pred)
    assert pred2 == CarpetWord(((0, 0), (2, 2)), (2,))
    one = make_word(carpet_a, [], [0])
    with pytest.raises(WordError):
        coding_predecessor(carpet_a, one)


def test_coding_vs_flat_predecessor_on_plateau(carpet_a):
    # Lengths 9 and 10 share ell = 7, where both notions coincide.
    pairs = tuple([(0, 0)] * 7)
    w10 = make_word(carpet_a, pairs, [2, 0, 2])
    flat = make_word(carpet_a, pairs, [2, 0])
    assert coding_predecessor(carpet_a, w10) == flat
    assert flat_predecessor(carpet_a, w10) == flat


def test_descend_and_compare(carpet_a):
    a = CarpetWord(((0, 0),), (2,))
    b = CarpetWord(((0, 0), (2, 2)), (2, 0))
    c = CarpetWord(((0, 2), (2, 2)), (2, 0))
    assert is_descendant(a, b) and not is_descendant(b, a)
    assert comparable(a, b) and comparable(b, a)
    assert not comparable(b, c)
    assert is_descendant(a, a)


def test_naive_comparable_pairs_refuses_large():
    words = [CarpetWord((), (0,) * (h + 1)) for h in range(3)] * 4000
    with pytest.raises(ValueError):
        naive_comparable_pairs(words)


def test_xi_sequence_single_and_double(cache_a):
    assert xi_sequence(cache_a.partition(2)) == (5, 6)
    assert xi_sequence(cache_a.partition(3)) == (7, 8)
    # ell plateaus across the k=4 window, so the ladder has one rung.
    assert xi_sequence(cache_a.partition(4)) == (9,)


def test_xi_sequence_many_stages(cache_d):
    ladder = xi_sequence(cache_d.partition(2))
    assert ladder[0] == cache_d.partition(2).xi_min
    assert all(b > a for a, b in zip(ladder, ladder[1:]))
    params = cache_d.params
    assert len(ladder) == (ell(params, cache_d.partition(2).xi_max)
                           - ell(params, cache_d.partition(2).xi_min) + 1)


def test_swap_tail_example(carpet_a):
    w = CarpetWord(((0, 0), (2, 2)), (2, 0))
    swapped = swap_tail(carpet_a, w, 0)
    assert swapped == CarpetWord(((0, 0), (0, 0)), (2, 2))
    assert word_mass(carpet_a, swapped) == Fraction(4, 81)
    family = [CarpetWord(((0, 0), (i, 2)), (2, 0)) for i in (0, 2)]
    fam_mass = sum((word_mass(carpet_a, f) for f in family), Fraction(0))
    assert fam_mass == Fraction(4, 81)


def test_swap_tail_validates_digits(carpet_a):
    w = CarpetWord(((0, 0), (2, 2)), (2, 0))
    with pytest.raises(WordError):
        swap_tail(carpet_a, w, 2)      # column 0 holds no i=2 map
    with pytest.raises(WordError):
        swap_tail(carpet_a, CarpetWord(((0, 0),), ()), 0)


def test_raw_coding_order_violations(cache_a):
    raw = raw_coding_antichain(cache_a.partition(2))
    pairs = naive_comparable_pairs(w for w, _ in words(raw))
    assert len(pairs) == 54
    report = verify_maximal_antichain(raw)
    assert len(report.comparable_pairs) == 54
    assert not report.ok
    assert report.mass_exact          # mass is fine, the order is not


def test_raw_equals_built_when_single_stage(cache_a):
    # One ladder rung means no replacements; the built antichain is the
    # raw image, word for word.
    raw = raw_coding_antichain(cache_a.partition(4))
    built = cache_a.antichain(4)
    assert built.stage_logs == ()
    assert raw.size == built.size
    assert {h: sorted(zip(keys.tolist(), map(nus.__getitem__, ids)))
            for h, (keys, ids, nus) in raw.blocks.items()} \
        == {h: sorted(zip(keys.tolist(), map(nus.__getitem__, ids)))
            for h, (keys, ids, nus) in built.blocks.items()}
    assert verify_maximal_antichain(built).ok


@pytest.mark.parametrize("k,size,base", [(2, 162, 189), (3, 1458, 1701)])
def test_antichain_frozen_sizes(cache_a, k, size, base):
    chain = cache_a.antichain(k)
    assert chain.base_size == base
    assert chain.size == size


def test_antichain_certified(cache_a, cache_d):
    for cache, ks in ((cache_a, (1, 2, 3, 4)), (cache_d, (2, 3))):
        for k in ks:
            chain = cache.antichain(k)
            report = verify_maximal_antichain(chain)
            assert report.ok
            assert report.mass_exact
            assert report.comparable_pairs == ()
            assert report.below_threshold


def test_word_at_threshold_fails_certificate(cache_a, cache_d):
    # One word raised to eta^k, its mass taken from a class of its
    # length: the mass stays exactly 1 and no pair is comparable, so the
    # antichain is maximal, but the level's certificate fails.
    for cache, k in ((cache_a, 2), (cache_d, 3)):
        faulty = word_at_threshold(cache.partition(k), cache.antichain(k))
        report = verify_maximal_antichain(faulty)
        assert report.mass_exact and report.comparable_pairs == ()
        assert report.maximal
        assert not report.below_threshold and not report.ok


def test_antichain_exact_mass_and_identity(cache_a, cache_d):
    for cache, k in ((cache_a, 2), (cache_a, 3), (cache_d, 3)):
        chain = cache.antichain(k)
        assert chain.mass_total == 1
        total = sum((m for _, m in words(chain)), Fraction(0))
        assert total == 1
        # Length-weighted mass is preserved exactly by every swap.
        assert chain.mass_len_total == cache.partition(k).mass_len_total


def test_antichain_incomparability_naive(cache_a, carpet_a):
    chain = cache_a.antichain(2)
    pairs = words(chain)
    assert naive_comparable_pairs(w for w, _ in pairs) == []
    eta_k = carpet_a.eta ** 2
    for w, mass in pairs:
        assert mass < eta_k


def test_stage_accounting(cache_a, cache_d):
    for cache, k in ((cache_a, 2), (cache_a, 3), (cache_d, 2), (cache_d, 3)):
        chain = cache.antichain(k)
        size = chain.base_size
        shift = 0.0
        for log in chain.stage_logs:
            size -= log.removed_count
            size += log.inserted_count
            shift += log.inserted_entropy - log.removed_entropy
            if log.removed_count:
                assert log.removed_mass > 0
                assert log.family_count > 0
            else:
                assert log.removed_mass == 0
            assert log.max_family_gap <= cache.params.c1 + 1e-12
        assert size == chain.size
        assert shift == pytest.approx(
            chain.entropy_sum - chain.base_entropy_sum, abs=1e-9)


# Per level: the stage count and the sha256 of one line per stage,
# "stage:target:removed_mass:removed_entropy:inserted_entropy:gap" with
# the floats as float.hex.  The CLI tables carry only the gap and the
# removed mass, so these pin the stage logs' entropy sums.
STAGE_LOG_DIGESTS = {
    ("a", 2): (1, "9551a850c663a128d63a9d5ff0d7e0f137c1d8a97aeacfdde8ebbf75a02cb9ad"),
    ("a", 3): (1, "7ef0351783c1105cea5d44868c9fc7945ebfd09071c479bb34abc87c84db2247"),
    ("a", 4): (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("a", 5): (1, "a92c0aac5dad09f0e012c364ad10b8603e6ffe410ffa26524d3eef0a232196dd"),
    ("d", 2): (8, "3365d228db9e4d76ef96c94e0acf8ce19395858193a04bd0ba70cd0e70450c5e"),
    ("d", 3): (11, "6b402eb03cf538e049e6022a42c34ccbef81314b8eafaed897370f11e2d109b1"),
    ("d", 4): (15, "c34c2ecbb9fdb0b732d5e4bd38a9958ed177c7b2ed3896069fa7623080a3bb22"),
}


@pytest.mark.parametrize("carpet,k", sorted(STAGE_LOG_DIGESTS))
def test_stage_logs_frozen(request, carpet, k):
    chain = request.getfixturevalue(f"cache_{carpet}").antichain(k)
    lines = [f"{log.stage}:{log.target_length}:{log.removed_mass}:"
             f"{log.removed_entropy.hex()}:{log.inserted_entropy.hex()}:"
             f"{log.max_family_gap.hex()}" for log in chain.stage_logs]
    assert (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()) \
        == STAGE_LOG_DIGESTS[carpet, k]


def _log_fields(log):
    # A stage log with its floats as float.hex: equal means bit-identical.
    return [v.hex() if isinstance(v, float) else v
            for v in vars(log).values()]


@pytest.mark.parametrize("carpet,k", [("a", 2), ("a", 3), ("a", 4), ("a", 5),
                                      ("d", 2), ("d", 3), ("d", 4),
                                      ("e", 2), ("e", 3), ("e", 4)])
def test_family_pass_matches_per_family_oracle(request, carpet, k):
    # One run of the checks per family signature builds what one run per
    # family builds: the same keys, ids and mass tables, and stage logs
    # equal to the last bit.
    cache = request.getfixturevalue(f"cache_{carpet}")
    chain = cache.antichain(k)
    oracle = build_antichain_by_family(cache.partition(k))
    assert list(chain.blocks) == list(oracle.blocks)
    for h, (keys, ids, nus) in chain.blocks.items():
        o_keys, o_ids, o_nus = oracle.blocks[h]
        assert keys.dtype == o_keys.dtype and np.array_equal(keys, o_keys)
        assert ids.dtype == o_ids.dtype and np.array_equal(ids, o_ids)
        assert nus == o_nus
    assert [_log_fields(log) for log in chain.stage_logs] \
        == [_log_fields(log) for log in oracle.stage_logs]


def test_stage_replay_matches_build(cache_a, cache_d):
    # The word-level replay of every stage builds the same blocks, with
    # the logged family and word counts and removed mass.  On the 4x3
    # carpet with cells (1, 0), (1, 2), (3, 2), some target words have
    # their only surviving ancestor two or more lengths down, so their
    # flags depend on covered pool keys, not on the length below alone.
    levels = [(cache.partition(k), cache.antichain(k))
              for cache, k in ((cache_a, 2), (cache_a, 3), (cache_d, 2),
                               (cache_d, 3))]
    skew = derive_params(CarpetSpec.of(
        4, 3, {(1, 0): "4/15", (1, 2): "2/15", (3, 2): "9/15"}))
    for k in (1, 2):
        part = enumerate_lambda_k(skew, k)
        levels.append((part, build_antichain(part)))
    for part, chain in levels:
        params = part.params
        stages, blocks = replay_stages(part)
        assert any(stages)
        assert store_rows(chain) == blocks
        assert len(stages) == len(chain.stage_logs)
        for log, families in zip(chain.stage_logs, stages):
            assert log.family_count == len(families)
            assert log.removed_count == sum(len(r) for r, _ in families)
            assert log.inserted_count == sum(len(i) for _, i in families)
            removed_mass = Fraction(0)
            for removed, inserted in families:
                r_mass = sum((word_mass(params, w) for w in removed),
                             Fraction(0))
                i_mass = sum((word_mass(params, w) for w in inserted),
                             Fraction(0))
                assert r_mass == i_mass         # per-family mass identity
                assert len(set(inserted)) == len(inserted)
                removed_mass += r_mass
            assert log.removed_mass == removed_mass


def test_delta_within_per_mass_budget(cache_a):
    from carpetq.sequences import delta_k
    chain = cache_a.antichain(2)
    removed = sum((log.removed_mass for log in chain.stage_logs),
                  Fraction(0))
    assert removed == Fraction(4, 27)
    assert delta_k(chain) <= cache_a.params.c1 * float(removed) + 1e-12


def test_multi_stage_ladder_carpet_d(cache_d):
    chain = cache_d.antichain(3)
    assert len(chain.stage_logs) >= 5
    assert verify_maximal_antichain(chain).ok
    # Singleton columns make each swap mass-preserving per word, so the
    # entropy sums agree exactly.
    assert chain.entropy_sum == pytest.approx(chain.base_entropy_sum,
                                              abs=1e-12)


def _store_bytes(store):
    return sum(keys.nbytes + ids.nbytes for keys, ids, _ in
               store.blocks.values())


@pytest.mark.parametrize("carpet,k", [("a", 5), ("d", 4)])
def test_lookup_layers_allocation_peaks(request, carpet, k):
    # Above the store it reads, the antichain build allocates at most
    # 2.5 times the store's key and id bytes: the ancestor pools of the
    # lengths not yet passed, the covered keys of one length, the
    # replaced block and bounded chunks.  A matching_pairs scan allocates at most
    # 1.5 times: one length's sorted keys, the pools of two lengths and
    # bounded chunks.  Measured: build 1.46 (A k = 5) and 1.54 (D k = 4),
    # 1.73 and 1.74 with a sorted copy of every shorter length's keys
    # held instead; scans 0.56-0.86 (0.97-1.25 with every length's
    # sorted keys held at once).  Keeping an 8-byte permutation beside
    # each length's sorted keys reads 3.22-4.33 and 1.85-2.12.
    part = enumerate_lambda_k(request.getfixturevalue(f"carpet_{carpet}"), k)
    chain, peak = traced_peak(build_antichain, part)
    assert peak < 2.5 * _store_bytes(part)
    for store, predecessor in ((part, words_mod.flat_predecessor),
                               (chain, block_predecessor)):
        _, peak = traced_peak(store.matching_pairs, predecessor)
        assert peak < 1.5 * _store_bytes(store)


def _stage_family(part, siblings):
    """The first replacement family of ``part`` with ``siblings`` removed
    words: (removed words, inserted words, index of every word)."""
    stages, _ = replay_stages(part)
    removed, inserted = next(fam for families in stages for fam in families
                             if len(fam[0]) == siblings)
    index = {w: idx for idx, (w, _) in enumerate(words(part))}
    return removed, inserted, index


def _tampered_family(params, removed, case):
    """(word to drop, (word, mass) to add) that makes a two-sibling family
    fail as ``case`` names."""
    rep, other = sorted(removed, key=lambda w: w.pairs[-1][0])
    (i, j_l), j_t = rep.pairs[-1], rep.tail[-1]
    # The least mass the family can factor: its stem's scaled mass is 1.
    weight = dict(zip(params.spec.digits, params.spec.weights))
    least = (weight[i, j_l] * params.q[j_t]
             / params.denom_lcm ** (len(rep) - 2))
    return {
        "drop-sibling": (other, []),
        "inflate-rep": (rep, [(rep, 1000 * word_mass(params, rep))]),
        "shrink-rep": (rep, [(rep, least)]),
        "double-sibling": (other, [(other, 2 * word_mass(params, other))]),
    }[case]


TAMPER_MESSAGES = {
    "drop-sibling": "family over column 2 is missing siblings",
    "inflate-rep": "inserted word at or above the stopping threshold",
    "shrink-rep": "inserted word's predecessor below the threshold",
    "double-sibling": "family mass not conserved",
}


@pytest.mark.parametrize("case,message", TAMPER_MESSAGES.items())
def test_build_rejects_tampered_family(cache_a, tamper, case, message):
    # A two-sibling family of carpet A's k = 2 stage, with one word
    # dropped or one mass changed.
    part = cache_a.partition(2)
    removed, _, index = _stage_family(part, siblings=2)
    drop, add = _tampered_family(cache_a.params, removed, case)
    with pytest.raises(AntichainInvariantError, match=message):
        build_antichain(tamper(part, drop=[index[drop]], add=add))


@pytest.mark.parametrize("first,last", [("drop-sibling", "inflate-rep"),
                                        ("inflate-rep", "drop-sibling")])
def test_build_rejects_first_failing_family(cache_a, tamper, first, last):
    # The first and last families of carpet A's k = 2 stage fail in two
    # ways, so their signatures differ; the family first in sorted order
    # decides the message, whichever way it fails.
    params = cache_a.params
    part = cache_a.partition(2)
    (families,) = replay_stages(part)[0]
    index = {w: idx for idx, (w, _) in enumerate(words(part))}
    drops, adds = [], []
    for (removed, _), case in ((families[0], first), (families[-1], last)):
        drop, add = _tampered_family(params, removed, case)
        drops.append(index[drop])
        adds.extend(add)
    with pytest.raises(AntichainInvariantError,
                       match=TAMPER_MESSAGES[first]):
        build_antichain(tamper(part, drop=drops, add=adds))


@pytest.mark.parametrize("case", ["inflate-rep", "shrink-rep",
                                  "double-sibling"])
def test_build_rejects_late_family(cache_a, tamper, case):
    # Only the last family of carpet A's k = 2 stage gets a wrong mass,
    # so it fails after every family before it has passed.  With the
    # other sibling's mass doubled, its members' x digits come in the
    # same order as theirs, and only its mass classes tell its signature
    # apart.
    part = cache_a.partition(2)
    (families,) = replay_stages(part)[0]
    index = {w: idx for idx, (w, _) in enumerate(words(part))}
    drop, add = _tampered_family(cache_a.params, families[-1][0], case)
    with pytest.raises(AntichainInvariantError,
                       match=TAMPER_MESSAGES[case]):
        build_antichain(tamper(part, drop=[index[drop]], add=add))


def test_build_rejects_unfactorable_family(cache_d, tamper):
    # Carpet D's scaled factors include 3, so adding 1 to a scaled mass
    # breaks the family's factorization.
    params = cache_d.params
    part = cache_d.partition(2)
    (rep,), _, index = _stage_family(part, siblings=1)
    bumped = word_mass(params, rep) + Fraction(
        1, params.denom_lcm ** len(rep))
    with pytest.raises(AntichainInvariantError,
                       match="family mass not factorable"):
        build_antichain(tamper(part, drop=[index[rep]], add=[(rep, bumped)]))


def test_build_rejects_collision(cache_a, tamper):
    # An extra survivor equal to a word the stage will insert.
    params = cache_a.params
    part = cache_a.partition(2)
    _, (new, *_), _ = _stage_family(part, siblings=2)
    with pytest.raises(AntichainCollisionError,
                       match="replacement collision at length 6"):
        build_antichain(tamper(part, add=[(new, word_mass(params, new))]))


def test_build_rejects_empty_tail(cache_c, tamper):
    # Square grids have no tail digits, so a nesting there has no swap.
    params = cache_c.params
    part = cache_c.partition(1)
    parent = flat_predecessor(params, word_at(part, 0))
    with pytest.raises(AntichainInvariantError,
                       match="replacement family with an empty tail"):
        build_antichain(tamper(part, add=[(parent, word_mass(params, parent))]))


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=10),
       pick=st.integers(0, 2))
def test_random_words_round_trip_coding(carpet_a, carpet_c, carpet_d,
                                        steps, pick):
    params = (carpet_a, carpet_c, carpet_d)[pick]
    w = make_word(params, [], [params.gy[0]]) if ell(params, 1) == 0 \
        else make_word(params, [params.spec.digits[0]], [])
    for s in steps:
        kids = carpet_children(params, w)
        w = kids[s % len(kids)]
    assert make_word(params, w.pairs, w.tail) == w
    if len(w) > 1:
        pred = coding_predecessor(params, w)
        assert is_descendant(pred, w)
        assert comparable(w, pred) and comparable(pred, w)
        assert word_mass(params, pred) > word_mass(params, w)
