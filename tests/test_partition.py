"""Stopping-set enumeration: exactness, aggregates, samplers, checks."""

import dataclasses
import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetq import CarpetSpec, derive_params, partition
from carpetq import words as words_mod
from carpetq.coding import build_antichain, verify_maximal_antichain
from carpetq.partition import (
    EnumerationCapError, check_square_disjointness, enumerate_lambda_k,
    partition_stats, stopped_statistics, stopping_rule,
)
from carpetq.words import block_predecessor, ell, entropy_terms
from oracles import (
    carpet_children, check_phi_growth, coding_predecessor, flat_predecessor,
    key_rows, lambda_codebook, make_word, mass_at, naive_comparable_pairs,
    raw_coding_antichain, sample_digit_matrix, square_geometry,
    squares_overlap, walks_agree, word_at, word_entropy, word_mass, words,
)

# Word counts confirmed by two independent routes (direct enumeration
# and the memoized aggregate walk).
PHI_A = {1: 18, 2: 189, 3: 1701, 4: 10935, 5: 118098, 6: 1062882,
         7: 8857350, 8: 79716150}


# sha256 of every block of the collected partition, in length order
# (length, word count, the keys decoded to byte rows, masses as hex),
# and the entropy sum's float.hex.  Word order within a length is pinned
# too: codebook rows, violation indices and the walk order inside an
# antichain family all follow it.
WALK_DIGESTS = {
    ("a", 1): ("e5fda47ccdef09e926669ceef36140c3b7b7471e7a0b526fc1df38f7d40cc457",
                "-0x1.6ab7f382f2592p+1"),
    ("a", 2): ("0c5c929a147a9cbc814414941390ed9dbd34068e743a5e41e01a5075bea3688d",
                "-0x1.4a3a960040c25p+2"),
    ("a", 3): ("f04a59069797598a528739a991df7d84d0164da31f9f622b91b330013d34fbd4",
                "-0x1.d6d9e9d5a8da8p+2"),
    ("a", 4): ("aaddf5f6f9aaab09ba2fba98604f6c3d3066716aad05f9202257f0ad57980b5c",
                "-0x1.27e0f2d5fcd16p+3"),
    ("a", 5): ("4dc70025896edd107d3b5e9de6ee6123d62f13aa9e43c70a8a220d0615a265d9",
                "-0x1.7294fc3912a38p+3"),
    ("a", 6): ("1a221572406ea8b62690fffdf649b8dc972eb76faa8c0e54ae1f5c9905d15cfa",
                "-0x1.b8e4a623c6af5p+3"),
    ("b", 1): ("b35baf6d41bcc08c908152eb005735f618a12f406e13e68fc54e8ac4b2ba8a47",
                "-0x1.62e42fefa39efp+0"),
    ("b", 2): ("b97edb1acf0f18a0703f94572e237456e37fa39977babda3f1c804ae25f54d5b",
                "-0x1.0a2b23f3bab74p+1"),
    ("b", 3): ("b34280fcc9c1ceabe6f428ed42f627551aac9c5b35be237e5a4ee56098c5fa26",
                "-0x1.62e42fefa39f1p+1"),
    ("b", 4): ("291f9ec15315c60205e80509cb4cce59499ed994353a3a502242bb01a2b1fbe9",
                "-0x1.bb9d3beb8c86dp+1"),
    ("b", 5): ("9bd4626bc541ac50721628db04c4c5d5ec809cbf598e05bd301e779d02ffbea8",
                "-0x1.0a2b23f3bab75p+2"),
    ("c", 1): ("5cefa983ff2d6da48748c8ee6400f7342f16aa06c3d08f96ac8bae445534a577",
                "-0x1.0a2b23f3bab74p+1"),
    ("c", 2): ("397169217b56613d709372d794dada651e071d7ec0464b731cac69bc94c8fe86",
                "-0x1.bb9d3beb8c86bp+1"),
    ("c", 3): ("da5111c56cb42be8267a78f0037328b42b0b6804c62aadbf50e125dd50b5cc58",
                "-0x1.3687a9f1af2b2p+2"),
    ("c", 4): ("7c9e0ed8a52cd00fa03bd59c0ddb29b69daa827e199a4f9eb6fe1ad02006d185",
                "-0x1.8f40b5ed9812dp+2"),
    ("d", 1): ("ced8b563a944e03d57f4a63bb70ecbc0d912e4d213e7c2fa65a7e073b4a5ee8a",
                "-0x1.9a6351597e365p+1"),
    ("d", 2): ("d41995afc91adc3bc2bf05c3e2a6c381eda94e19d90ba2bcdd5d50b8ca1c615a",
                "-0x1.7e903bd7ebc90p+2"),
    ("d", 3): ("329db52a9975c5d8e45eb28bbcac3ea0166bc57d809090db245afe87acfbd02a",
                "-0x1.192a5f8a0de5fp+3"),
    ("d", 4): ("0d9c2e4be5e90e679e88df2b909c0666274932923d363e761ebd134267ee4629",
                "-0x1.730203be4287cp+3"),
    ("d", 5): ("6f6b25803dbee77074959c8bd0b9b078608e0b6625be1046803c5b84a924f012",
                "-0x1.cc4b220ce153fp+3"),
    ("e", 1): ("5ab8493b9a0f6d8302320d97908e2874046aacaf7f3a707bd64a07f13323dc47",
                "-0x1.b45d7bc7c5c74p+1"),
    ("e", 2): ("6fd19d187c3c9b624e0b372adfe2d31ea984e753825566f88a4c6877f6c01c27",
                "-0x1.6f2899ac39cf0p+2"),
    ("e", 3): ("f187e0c4f0b0527be5e2c31b8870b8d06b32a2ab466aeb0bed1ef45679fbb399",
                "-0x1.0738b55d86452p+3"),
    ("e", 4): ("445b1fd4eb3df51ce89846425e9484ee78e8756bbed08ef069819849ff7ca935",
                "-0x1.51c2327f0a7f6p+3"),
    ("e", 5): ("4e22dc4d97d9bc1952d38f436b622eef8a53c14d7e86514f4d3539b7e6f07e68",
                "-0x1.a5b5e67b5d2d9p+3"),
    ("skewed", 1): ("cbb6a2b947b46872c0982a0173030f1a76da82b572011474199484656b2bbffc",
                     "-0x1.5c742bc065c25p+3"),
    # 8,174 words whose move positions run past 255.
    ("many", 1): ("9a23cc13c2c9a266d614d713b5604f1045e858bf3eb6ded6b15f9a041fec5ba3",
                  "-0x1.0eb47003d3a27p+3"),
    # 160,000 words of 400 maps, with no tail.
    ("wide", 1): ("20037473375bb4a04f31c43a5094fbaa5c4b8baa83784f84da6fc211edaa478e",
                  "-0x1.7f7427b73e394p+3"),
}


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
    lengths = {len(w) for w, _ in words(part)}
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
        total = sum((m for _, m in words(part)), Fraction(0))
        assert total == 1


def test_ratio_bounds_read_the_rule_moves(cache_a, monkeypatch):
    # The ratio check reads the moves the stopping rule multiplies by,
    # so one of carpet A's rising moves scaled by 50, past q_max, fails it.
    level = cache_a.partition(3)
    real = partition._moves

    def inflated(params):
        moves = real(params)
        factor, divisor, digit = moves[True][0][0]
        moves[True][0][0] = (50 * factor, divisor, digit)
        return moves

    monkeypatch.setattr(partition, "_moves", inflated)
    assert not partition_stats(level).ratio_bounds_ok
    monkeypatch.undo()
    assert partition_stats(level).ratio_bounds_ok


def test_xi_windows_carpet_a(cache_a):
    for k in (2, 3, 4):
        part = cache_a.partition(k)
        assert (part.xi_min, part.xi_max) == (2 * k + 1, 2 * k + 2)


def test_membership_definition(cache_a, carpet_a):
    # Every emitted word sits strictly below the threshold, its parent
    # at or above it.
    eta_k = carpet_a.eta ** 2
    for w, mass in words(cache_a.partition(2)):
        assert mass < eta_k
        assert word_mass(carpet_a, flat_predecessor(carpet_a, w)) >= eta_k


@pytest.mark.parametrize("k", [1, 2, 3])
def test_brute_force_membership(cache_a, carpet_a, k):
    brute = _brute_lambda_k(carpet_a, k)
    part = cache_a.partition(k)
    got = {(w.pairs, w.tail): m for w, m in words(part)}
    assert got == brute


def test_brute_force_membership_other_carpets(carpet_c, carpet_d):
    for params in (carpet_c, carpet_d):
        for k in (1, 2):
            brute = _brute_lambda_k(params, k)
            part = enumerate_lambda_k(params, k)
            got = {(w.pairs, w.tail): m for w, m in words(part)}
            assert got == brute


def test_cap_enforced(carpet_a):
    with pytest.raises(EnumerationCapError):
        enumerate_lambda_k(carpet_a, 3, cap=100)


@pytest.mark.parametrize("build", [enumerate_lambda_k, stopped_statistics])
def test_level_below_one_rejected(carpet_a, build):
    with pytest.raises(ValueError, match="need k >= 1, got 0"):
        build(carpet_a, 0)


@pytest.mark.parametrize("k", [5.0, True, "3", 0])
def test_rule_checks_its_levels(carpet_a, k):
    # The rule checks its levels when it is called, before its first
    # table: at k = 5.0 its cut would be 0, so no class would ever stop.
    with pytest.raises(ValueError, match=f"need k >= 1, got {k!r}"):
        stopping_rule(carpet_a, [2, k])
    for build in (enumerate_lambda_k, stopped_statistics):
        with pytest.raises(ValueError, match=f"need k >= 1, got {k!r}"):
            build(carpet_a, k)


@pytest.mark.parametrize("carpet,ks", [
    ("a", [2, 4]), ("d", [3]), ("e", [2, 3]), ("skewed", [1]),
])
def test_rule_tables_hold_live_rows(request, carpet, ks):
    # Each table has one row per live class of the length before (the
    # empty word's one row first), and a class is live exactly while it
    # is above some level, until no class is.  Each class's moves split
    # into its stopping and its live positions, each ascending, and each
    # names the class its table entry does.
    params = request.getfixturevalue(f"carpet_{carpet}")
    live = 1
    for _, table, groups, fans, ways, above, nus in stopping_rule(
            params, ks)[1]:
        assert table.shape[0] == len(groups) == len(fans) == live
        live = len(above) - len(nus)
        assert above[:live].all() and not above[live:].any()
        stops, goes = ways()
        for c, fan in enumerate(fans.tolist()):
            split = []
            for (counts, ends, positions, classes), base in (
                    (stops, live), (goes, 0)):
                assert ends.tolist() == np.cumsum(counts).tolist()
                at = slice(ends[c] - counts[c], ends[c])
                split.append(positions[at].tolist())
                assert (classes[at] + base).tolist() \
                    == table[c, positions[at]].tolist()
            assert split == [[p for p in range(fan) if table[c, p] >= live],
                             [p for p in range(fan) if table[c, p] < live]]
    assert live == 0


@pytest.mark.parametrize("carpet,k", [("a", 3), ("skewed", 1)])
def test_cap_exact(request, carpet, k):
    # The cap trips exactly when the level has more words than the cap.
    params = request.getfixturevalue(f"carpet_{carpet}")
    phi = enumerate_lambda_k(params, k).phi_k
    assert enumerate_lambda_k(params, k, cap=phi).phi_k == phi
    with pytest.raises(EnumerationCapError):
        enumerate_lambda_k(params, k, cap=phi - 1)


def _blocks_digest(part):
    digest = hashlib.sha256()
    for h, (keys, ids, nus) in part.blocks.items():
        digest.update(f"{h}:{len(ids)}:".encode())
        digest.update(key_rows(part.params, h, keys).tobytes())
        digest.update(",".join(hex(nus[c]) for c in ids).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("carpet,k", sorted(WALK_DIGESTS))
def test_walk_order_frozen(request, carpet, k):
    params = request.getfixturevalue(f"carpet_{carpet}")
    part = enumerate_lambda_k(params, k)
    assert (_blocks_digest(part), part.entropy_sum.hex()) \
        == WALK_DIGESTS[carpet, k]


@pytest.mark.parametrize("carpet,k", [("a", 4), ("b", 5), ("c", 3), ("d", 3)])
def test_walk_chunks_change_nothing(request, monkeypatch, carpet, k):
    # Five parents a chunk: every length with more spans several chunks.
    monkeypatch.setattr(partition, "_CHUNK", 5)
    params = request.getfixturevalue(f"carpet_{carpet}")
    part = enumerate_lambda_k(params, k)
    assert (_blocks_digest(part), part.entropy_sum.hex()) \
        == WALK_DIGESTS[carpet, k]


@pytest.mark.parametrize("carpet,k", [("a", 2), ("a", 3), ("a", 4),
                                      ("d", 2), ("d", 3), ("d", 4)])
def test_object_keys_change_nothing(request, monkeypatch, carpet, k):
    # A 0-bit bound gives every length object keys (Python ints), as
    # words past 64 bits get them; each layer must read them as it reads
    # uint64 keys.
    params = request.getfixturevalue(f"carpet_{carpet}")

    def run():
        part = enumerate_lambda_k(params, k)
        chain = build_antichain(part)
        return ((_blocks_digest(part), part.entropy_sum.hex()),
                check_square_disjointness(part),
                {h: (keys.tolist(), ids.tolist(), nus)
                 for h, (keys, ids, nus) in chain.blocks.items()},
                chain.stage_logs, verify_maximal_antichain(chain),
                {keys.dtype for keys, _, _ in chain.blocks.values()})

    whole = run()
    monkeypatch.setattr(words_mod, "_KEY_BITS", 0)
    forced = run()
    assert whole[0] == WALK_DIGESTS[carpet, k]
    assert whole[-1] == {np.dtype(np.uint64)}
    assert forced[-1] == {np.dtype(object)}
    assert forced[:-1] == whole[:-1]


def test_recursion_limit_left_unchanged(carpet_skewed):
    limit = sys.getrecursionlimit()
    with pytest.raises(EnumerationCapError):
        enumerate_lambda_k(carpet_skewed, 1, cap=100)
    assert sys.getrecursionlimit() == limit
    stats = stopped_statistics(carpet_skewed, 1)
    assert (stats.phi_k, stats.xi_min, stats.xi_max) == (106_489, 3, 917)
    assert stats.mass_total == 1
    assert sys.getrecursionlimit() == limit


# sha256 of repr() of the skewed carpet's blockwise pairs on its k = 1
# partition, as the per-word walk listed them.
SKEWED_BLOCK_PAIRS = \
    "baad1f486478e858d230a56fd92a3572a664f44feb8102fb4281515e96d45792"


def test_skewed_certificates_frozen(carpet_skewed):
    # 106,489 words over lengths 3-917: the per-word walk took about 20 s
    # for each of these calls.
    part = enumerate_lambda_k(carpet_skewed, 1)
    report = check_square_disjointness(part)
    assert (report.checked, report.violations) == (106_489, ())
    pairs = part.matching_pairs(block_predecessor)
    assert len(pairs) == 52_898
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() \
        == SKEWED_BLOCK_PAIRS


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


# (phi_k, xi_min, xi_max, entropy_sum.hex()) of the aggregate program,
# frozen when its states were keyed by exact scaled masses: keying them
# by the stopping rule's mass classes moves no bit.
DP_PINS = {
    ("a", 1): (18, 3, 3, "-0x1.6ab7f382f2593p+1"),
    ("a", 2): (189, 5, 6, "-0x1.4a3a960040c26p+2"),
    ("a", 3): (1701, 7, 8, "-0x1.d6d9e9d5a8daap+2"),
    ("a", 4): (10935, 9, 10, "-0x1.27e0f2d5fcd18p+3"),
    ("a", 5): (118098, 11, 12, "-0x1.7294fc3912a36p+3"),
    ("a", 6): (1062882, 13, 14, "-0x1.b8e4a623c6af8p+3"),
    ("a", 7): (8857350, 15, 17, "-0x1.fcef53c5eeb9bp+3"),
    ("a", 20): (26777994749097954291, 41, 47, "-0x1.6510dd9451d86p+5"),
    ("a", 25): (1622768712478541685571077, 51, 59, "-0x1.bd24816edfb03p+5"),
    ("d", 1): (27, 3, 10, "-0x1.9a6351597e362p+1"),
    ("d", 2): (432, 5, 20, "-0x1.7e903bd7ebc8bp+2"),
    ("d", 3): (7168, 7, 29, "-0x1.192a5f8a0de5cp+3"),
    ("d", 4): (118805, 9, 39, "-0x1.730203be42876p+3"),
    ("d", 5): (1936048, 11, 49, "-0x1.cc4b220ce1536p+3"),
    ("d", 6): (30706712, 13, 58, "-0x1.1257ea9596568p+4"),
    ("d", 10): (1936311929094, 21, 97, "-0x1.c33008b8e5b08p+4"),
    ("d", 20): (2160605437091242566905989, 41, 193, "-0x1.bf83957e0bfb9p+5"),
    ("d", 30): (2400480473180407597954243412202590995, 61, 290, "-0x1.4eb3b204d4f74p+6"),
    ("e", 1): (32, 3, 3, "-0x1.b45d7bc7c5c78p+1"),
    ("e", 2): (340, 5, 6, "-0x1.6f2899ac39cf1p+2"),
    ("e", 3): (4132, 6, 8, "-0x1.0738b55d86452p+3"),
    ("e", 4): (41160, 8, 11, "-0x1.51c2327f0a7fap+3"),
    ("e", 5): (576968, 9, 14, "-0x1.a5b5e67b5d2e4p+3"),
    ("e", 8): (883467456, 15, 21, "-0x1.483f51c6b1890p+4"),
    ("e", 10): (124751453376, 18, 26, "-0x1.976721b1cb83bp+4"),
}


@pytest.mark.parametrize("carpet,k", sorted(DP_PINS))
def test_dp_bits_frozen(request, carpet, k):
    stats = stopped_statistics(request.getfixturevalue(f"carpet_{carpet}"), k)
    assert (stats.phi_k, stats.xi_min, stats.xi_max,
            stats.entropy_sum.hex()) == DP_PINS[carpet, k]


@pytest.mark.parametrize("carpet,k,states", [
    ("a", 20, 4881), ("d", 10, 1022), ("e", 8, 17344),
])
def test_dp_state_count_frozen(request, monkeypatch, carpet, k, states):
    # The state bound trips at the same level as when the states were
    # keyed by exact scaled masses: the state count is unchanged.
    params = request.getfixturevalue(f"carpet_{carpet}")
    monkeypatch.setattr(partition, "MAX_DP_STATES", states)
    stopped_statistics(params, k)
    monkeypatch.setattr(partition, "MAX_DP_STATES", states - 1)
    with pytest.raises(EnumerationCapError, match=f"{states - 1} states"):
        stopped_statistics(params, k)


def test_dp_matches_enumeration(carpet_a, carpet_b, carpet_c, carpet_d,
                                carpet_e):
    for params, ks in ((carpet_a, (1, 2, 3, 4)), (carpet_b, (1, 2, 3, 4)),
                       (carpet_c, (1, 2, 3, 4)), (carpet_d, (1, 2, 3, 4)),
                       (carpet_e, (1, 2, 3))):
        for k in ks:
            part = enumerate_lambda_k(params, k)
            stats = stopped_statistics(params, k)
            assert stats.length_counts == part.length_counts
            assert stats.length_nu_sums == part.length_nu_sums
            assert stats.phi_k == part.phi_k
            assert stats.mass_total == part.mass_total == 1
            assert stats.mass_len_total == part.mass_len_total
            assert stats.xi_min == part.xi_min
            assert stats.xi_max == part.xi_max
            assert stats.entropy_sum == pytest.approx(
                part.entropy_sum, abs=1e-9)


def _assert_every_class_holds_a_word(params, part):
    # The rule for [k] runs exactly xi_max lengths, and each class it
    # makes holds a word.  Each stored word's flat prefixes are walked
    # down the rule's tables by the positions of their own moves, read
    # from the word's digits: each position lies in its class's group,
    # the walk passes only live classes and ends in the word's stored
    # class, and together the words pass or end in every class.
    rule = list(stopping_rule(params, [part.k])[1])
    assert len(rule) == part.xi_max
    c = len(params.gy)
    col = np.zeros(params.m, dtype=np.intp)
    col[list(params.gy)] = np.arange(c)
    # The rank of x digit i in column j, and of the cell (i, j).
    xrank = np.zeros((params.n, params.m), dtype=np.intp)
    cell = np.zeros((params.n, params.m), dtype=np.intp)
    for r, (i, j) in enumerate(params.spec.digits):
        xrank[i, j], cell[i, j] = params.gx[j].index(i), r
    seen = [np.zeros(len(above), dtype=bool) for *_, above, _ in rule]
    blocks = list(part.blocks.items())
    while blocks:
        # Words of consecutive lengths walk together, shortest first, in
        # bands of about 2^22 digits.
        band = 1
        while band < len(blocks) and blocks[band][0] * sum(
                len(ids) for _, (_, ids, _) in blocks[:band + 1]) <= 1 << 22:
            band += 1
        band, blocks = blocks[:band], blocks[band:]
        top = band[-1][0]
        ends = np.repeat([h for h, _ in band], [len(b[1]) for _, b in band])
        ids = np.concatenate([b[1] for _, b in band])
        xs = np.zeros((len(ids), ell(params, top)), dtype=np.uint8)
        ys = np.zeros((len(ids), top), dtype=np.uint8)
        at = 0
        for size, (keys, _, _) in band:
            rows, l = key_rows(params, size, keys), ell(params, size)
            xs[at:at + len(keys), :l] = rows[:, 0:2 * l:2]
            ys[at:at + len(keys), :l] = rows[:, 1:2 * l:2]
            ys[at:at + len(keys), l:size] = rows[:, 2 * l:]
            at += len(keys)
        cls = np.zeros(len(ids), dtype=np.intp)
        for h, (rises, table, _, fans, _, above, nus) in enumerate(
                rule[:top], 1):
            a = ell(params, h) - 1        # the cell a rising move adds
            if not rises:
                pos = col[ys[:, h - 1]]
            elif a == h - 1:
                pos = cell[xs[:, a], ys[:, a]]
            else:
                pos = xrank[xs[:, a], ys[:, a]] * c + col[ys[:, h - 1]]
            assert (pos < fans[cls]).all()
            cls = table[cls, pos]
            seen[h - 1][cls] = True
            live = len(above) - len(nus)
            # The words of length h lead; they stop, and the rest walk on.
            done = np.searchsorted(ends, h, side="right")
            assert np.array_equal(cls[:done] - live, ids[:done])
            assert (cls[done:] < live).all()
            cls, ends, ids = cls[done:], ends[done:], ids[done:]
            xs, ys = xs[done:], ys[done:]
    assert all(map(np.all, seen))


@pytest.mark.parametrize("carpet,ks", [
    ("a", range(1, 7)), ("c", range(1, 5)), ("d", range(1, 5)),
    ("e", range(1, 5)), ("skewed", (1,)),
])
def test_every_rule_class_holds_a_word(request, carpet, ks):
    params = request.getfixturevalue(f"carpet_{carpet}")
    for k in ks:
        _assert_every_class_holds_a_word(params, enumerate_lambda_k(params, k))


def test_stopped_totals_follow_profile(carpet_a):
    # The count, window and mass sums are read from the profile, so a
    # replaced profile carries no stale total.
    stats = stopped_statistics(carpet_a, 2)
    L, h = carpet_a.denom_lcm, stats.xi_min
    assert stats.mass_total == 1
    sums = {g: s for g, s in stats.length_nu_sums.items() if g != h}
    dropped = dataclasses.replace(stats, length_nu_sums=sums)
    assert dropped.mass_total == 1 - Fraction(
        stats.length_nu_sums[h], L ** h)
    assert dropped.mass_len_total == stats.mass_len_total - h * Fraction(
        stats.length_nu_sums[h], L ** h)
    counts = {g: c for g, c in stats.length_counts.items() if g != h}
    short = dataclasses.replace(stats, length_counts=counts)
    assert (short.phi_k, short.xi_min, short.xi_max) == (
        stats.phi_k - stats.length_counts[h], h + 1, stats.xi_max)


def test_store_aggregates_recount(carpet_a, carpet_c, carpet_d,
                                  carpet_skewed):
    # Every aggregate the word store derives equals a recount over its
    # words, and codebook row i is the centre of word i.  Masses are
    # recounted per word in integers and summed per length as fractions;
    # entropy terms are read per word by class id and summed per length,
    # then over lengths, with math.fsum.
    # The skewed carpet's 106,489 words span 915 lengths with
    # denominators up to 100^917, so its exact per-word checks (3 ms a
    # word) run on every 499th word.
    for params, ks, stride in ((carpet_a, (1, 2, 3), 1),
                               (carpet_c, (1, 2, 3), 1),
                               (carpet_d, (1, 2, 3), 1),
                               (carpet_skewed, (1,), 499)):
        L = params.denom_lcm
        for k in ks:
            part = enumerate_lambda_k(params, k)
            counts, nu_sums, entropies = {}, {}, {}
            for h, (_, ids, nus) in part.blocks.items():
                counts[h] = len(ids)
                nu_sums[h] = sum(map(nus.__getitem__, ids.tolist()))
                terms = entropy_terms(nus, h, L)
                entropies[h] = word_entropy(terms, ids.tolist())
            masses = {h: Fraction(s, L ** h) for h, s in nu_sums.items()}
            assert part.phi_k == sum(counts.values()) == len(part)
            assert (part.xi_min, part.xi_max) == (min(counts), max(counts))
            assert part.length_counts == counts
            assert part.length_nu_sums == nu_sums
            assert list(part.length_counts) == sorted(counts)
            assert part.mass_total == sum(masses.values(), Fraction(0))
            assert part.mass_len_total == sum(
                (h * mass for h, mass in masses.items()), Fraction(0))
            assert part.entropy_sum == math.fsum(entropies.values())
            book = lambda_codebook(part)
            for idx in range(0, part.phi_k, stride):
                w = word_at(part, idx)
                assert 0 <= idx - part.offsets[len(w)] < counts[len(w)]
                sq = square_geometry(params, w)
                assert mass_at(part, idx) == sq.mass
                assert book[idx, 0] == pytest.approx(
                    float(sq.x_low + sq.width / 2), abs=1e-15)
                assert book[idx, 1] == pytest.approx(
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
    squares = [square_geometry(carpet_a, w) for w, _ in words(part)]
    brute = [
        (a, b)
        for a in range(len(squares))
        for b in range(a + 1, len(squares))
        if squares_overlap(squares[a], squares[b])
    ]
    assert brute == []
    assert check_square_disjointness(part).ok


@pytest.mark.parametrize("carpet,k,length,dense", [
    pytest.param("a", 1, 3, True, id="a-table"),
    pytest.param("d", 2, 12, False, id="d-sorted"),
])
def test_disjointness_detects_duplicate(request, tamper, key_sets, carpet, k,
                                        length, dense):
    # A copy of a word, at a length whose keys are a table (A) or a
    # sorted run (D), pairs with that word and nothing else.
    part = request.getfixturevalue(f"cache_{carpet}").partition(k)
    at = part.offsets[length]
    bad = tamper(part, drop=[at + 1], add=[(word_at(part, at),
                                            mass_at(part, at))])
    last = bad.offsets[length] + bad.length_counts[length] - 1
    assert check_square_disjointness(bad).violations == ((at, last),)
    assert [d for walk, h, d in key_sets
            if walk == "clashes" and h == length] == [dense]


def test_disjointness_detects_nesting(carpet_a, tamper):
    part = enumerate_lambda_k(carpet_a, 1)
    child = word_at(part, 0)
    parent = flat_predecessor(carpet_a, child)
    part = tamper(part, drop=[1],
                  add=[(parent, word_mass(carpet_a, parent))])
    report = check_square_disjointness(part)
    assert not report.ok


def _index(store, word):
    return [w for w, _ in words(store)].index(word)


def test_disjointness_detects_ancestor_across_empty_length(cache_d, tamper):
    # A word's flat ancestor two lengths up, planted at an occupied
    # length, with the length between emptied: the walk carries the
    # longer words' ancestors through a length with no words.
    params, part = cache_d.params, cache_d.partition(2)
    h = part.l_max
    child = word_at(part, part.offsets[h])
    anc = flat_predecessor(params, flat_predecessor(params, child))
    between = range(part.offsets[h - 1],
                    part.offsets[h - 1] + part.length_counts[h - 1])
    bad = tamper(part, drop=between, add=[(anc, word_mass(params, anc))])
    assert h - 1 not in bad.blocks and h - 2 in bad.blocks
    violations = check_square_disjointness(bad).violations
    assert (_index(bad, anc), _index(bad, child)) in violations
    assert list(violations) == _overlap_pairs(params, bad)


def test_verify_detects_blockwise_only_ancestor(cache_d, tamper):
    # A word's blockwise predecessor that is not its flat one, planted in
    # a certified antichain: verify pairs them, disjointness does not.
    params, chain = cache_d.params, cache_d.antichain(2)
    child = next(w for w, _ in words(chain)
                 if coding_predecessor(params, w) != flat_predecessor(params, w))
    anc = coding_predecessor(params, child)
    bad = tamper(chain, add=[(anc, word_mass(params, anc))])
    pair = (_index(bad, anc), _index(bad, child))
    comparable = verify_maximal_antichain(
        raw_coding_antichain(bad)).comparable_pairs
    assert pair in comparable
    assert list(comparable) == naive_comparable_pairs(w for w, _ in words(bad))
    assert pair not in bad.matching_pairs(words_mod.flat_predecessor)


def test_disjointness_counts_equal_ancestors(cache_d, tamper):
    # Two copies of one flat ancestor of several words: each copy pairs
    # with every word below it, and the copies with each other.
    params, part = cache_d.params, cache_d.partition(2)
    child = word_at(part, part.offsets[12])
    anc = flat_predecessor(params, flat_predecessor(params, child))
    below = 0
    for w, _ in words(part):
        while len(w) > len(anc):
            w = flat_predecessor(params, w)
        below += w == anc
    assert below > 1
    bad = tamper(part, add=2 * [(anc, word_mass(params, anc))])
    violations = check_square_disjointness(bad).violations
    assert len(violations) == 1 + 2 * below
    assert list(violations) == _overlap_pairs(params, bad)


def test_squares_overlap_oracle(carpet_a):
    w = make_word(carpet_a, [(0, 0), (2, 2)], [2])
    sq = square_geometry(carpet_a, w)
    assert squares_overlap(sq, sq)
    pred_sq = square_geometry(carpet_a, flat_predecessor(carpet_a, w))
    assert squares_overlap(sq, pred_sq)
    other = square_geometry(carpet_a, make_word(carpet_a, [(0, 2), (2, 2)], [2]))
    assert not squares_overlap(sq, other)


def test_sample_digit_matrix_deterministic(carpet_a):
    m1 = sample_digit_matrix(carpet_a, 70_000, 25, seed=11)
    m2 = sample_digit_matrix(carpet_a, 70_000, 25, seed=11)
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
        # Columns with unequal x-digit counts give the walk's promotion
        # steps a fan-out that varies from word to word.
        got = {(w.pairs, w.tail): mass for w, mass in words(part)}
        assert len(got) == part.phi_k
        assert got == _brute_lambda_k(params, k)
        stats = stopped_statistics(params, k)
        assert part.mass_total == 1
        assert stats.length_counts == part.length_counts
        assert stats.length_nu_sums == part.length_nu_sums
        assert stats.phi_k == part.phi_k
        assert stats.mass_len_total == part.mass_len_total
        assert (stats.xi_min, stats.xi_max) == (part.xi_min, part.xi_max)
        assert stats.mass_total == part.mass_total
        assert stats.entropy_sum == pytest.approx(part.entropy_sum, abs=1e-9)
        assert check_square_disjointness(part).ok
        assert partition_stats(part).ratio_bounds_ok
        _assert_every_class_holds_a_word(params, part)


def _overlap_pairs(params, part):
    # All-pairs oracle: the squares_overlap comparison, on integer
    # corners over the finest grid, for every pair of squares.
    squares = [square_geometry(params, w) for w, _ in words(part)]
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
        add = [(word_at(part, dup), mass_at(part, dup))]
        if len(word_at(part, child)) > 1:
            parent = flat_predecessor(params, word_at(part, child))
            add.append((parent, word_mass(params, parent)))
        bad = tamper(part, add=2 * add)
        assert list(check_square_disjointness(bad).violations) \
            == _overlap_pairs(params, bad)

        raw_chain = raw_coding_antichain(part)
        assert list(verify_maximal_antichain(raw_chain).comparable_pairs) \
            == naive_comparable_pairs(w for w, _ in words(raw_chain))
        built = build_antichain(part)
        assert all(walks_agree(store)
                   for store in (part, bad, raw_chain, built))
        for h, block in part.blocks.items():
            assert raw_chain.blocks[h][0] is block[0]
            if h not in built.xi_stages[1:]:
                assert built.blocks[h][0] is block[0]
        for chain in (raw_chain, built):
            L = chain.params.denom_lcm
            assert chain.entropy_sum == math.fsum(
                entropy_terms([nus[c]], h, L)[0]
                for h, (_, ids, nus) in chain.blocks.items()
                for c in ids.tolist())
