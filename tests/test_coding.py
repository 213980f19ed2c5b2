"""Blockwise coding order, replacement stages, antichain certification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetq.coding import (
    AntichainCollisionError, AntichainInvariantError, build_antichain,
    coding_predecessor, comparable, is_descendant, naive_comparable_pairs, raw_coding_antichain, swap_tail,
    verify_maximal_antichain, xi_sequence,
)
from carpetq.words import (
    CarpetWord, WordError, carpet_children, ell, flat_predecessor, make_word,
    word_mass,
)


def test_l_map_round_trip(cache_a, carpet_a):
    # The map L into the coding space keeps every digit: each stopping
    # word is already a valid coding word, with the same product mass.
    for k in (1, 2, 3):
        for w, mass in cache_a.partition(k).iter_words():
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
    words = [raw.word_at(idx) for idx in range(raw.size)]
    pairs = naive_comparable_pairs(words)
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
    assert {h: sorted(zip(map(bytes, rows), nus))
            for h, (rows, nus) in raw.blocks.items()} \
        == {h: sorted(zip(map(bytes, rows), nus))
            for h, (rows, nus) in built.blocks.items()}
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


def test_antichain_exact_mass_and_identity(cache_a, cache_d):
    for cache, k in ((cache_a, 2), (cache_a, 3), (cache_d, 3)):
        chain = cache.antichain(k)
        assert chain.mass_total == 1
        total = sum((m for _, m in chain.iter_words()), Fraction(0))
        assert total == 1
        # Length-weighted mass is preserved exactly by every swap.
        assert chain.mass_len_total == chain.base_mass_len_total


def test_antichain_incomparability_naive(cache_a, carpet_a):
    chain = cache_a.antichain(2)
    words = [chain.word_at(idx) for idx in range(chain.size)]
    assert naive_comparable_pairs(words) == []
    eta_k = carpet_a.eta ** 2
    for w, mass in chain.iter_words():
        assert mass < eta_k


def test_stage_accounting(cache_a, cache_d):
    for cache, k in ((cache_a, 2), (cache_a, 3), (cache_d, 2), (cache_d, 3)):
        chain = cache.antichain(k)
        size = chain.base_size
        shift = 0.0
        for log in chain.stage_logs:
            size -= log.removed_count
            size += log.inserted_count
            shift += log.entropy_shift
            if log.removed_count:
                assert log.removed_mass > 0
                assert log.family_count > 0
            else:
                assert log.removed_mass == 0
            assert log.max_family_gap <= cache.params.c1 + 1e-12
        assert size == chain.size
        assert shift == pytest.approx(
            chain.entropy_sum - chain.base_entropy_sum, abs=1e-9)


def test_stage_words_kept_for_small_k(cache_a):
    chain = cache_a.antichain(2)
    assert chain.stage_logs
    for log in chain.stage_logs:
        assert log.families is not None
        for removed, inserted in log.families:
            r_mass = sum((word_mass(cache_a.params, w) for w in removed),
                         Fraction(0))
            i_mass = sum((word_mass(cache_a.params, w) for w in inserted),
                         Fraction(0))
            assert r_mass == i_mass         # per-family mass identity
            assert len(set(inserted)) == len(inserted)


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


def _stage_family(part, siblings):
    """The first replacement family of ``part`` with ``siblings`` removed
    words: (removed words, inserted words, index of every word)."""
    logs = build_antichain(part, keep_stage_words=True).stage_logs
    removed, inserted = next(fam for log in logs for fam in log.families
                             if len(fam[0]) == siblings)
    index = {w: idx for idx, (w, _) in enumerate(part.iter_words())}
    return removed, inserted, index


@pytest.mark.parametrize("case,message", [
    ("drop-sibling", "family over column 2 is missing siblings"),
    ("inflate-rep", "inserted word at or above the stopping threshold"),
    ("shrink-rep", "inserted word's predecessor below the threshold"),
    ("double-sibling", "family mass not conserved"),
])
def test_build_rejects_tampered_family(cache_a, tamper, case, message):
    # A two-sibling family of carpet A's k = 2 stage, with one word
    # dropped or one mass changed.
    params = cache_a.params
    part = cache_a.partition(2)
    removed, _, index = _stage_family(part, siblings=2)
    rep, other = sorted(removed, key=lambda w: w.pairs[-1][0])
    (i, j_l), j_t = rep.pairs[-1], rep.tail[-1]
    # The least mass the family can factor: its stem's scaled mass is 1.
    least = (params.prob(i, j_l) * params.q[j_t]
             / params.denom_lcm ** (len(rep) - 2))
    drop, add = {
        "drop-sibling": (other, []),
        "inflate-rep": (rep, [(rep, 1000 * word_mass(params, rep))]),
        "shrink-rep": (rep, [(rep, least)]),
        "double-sibling": (other, [(other, 2 * word_mass(params, other))]),
    }[case]
    with pytest.raises(AntichainInvariantError, match=message):
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
    parent = flat_predecessor(params, part.word_at(0))
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
