"""Word-level oracles: the tuple word type and the slow checks built on it.

The library stores words only as integer keys (see ``carpetq.words``).
Here a word is a ``CarpetWord`` of digit-pair and tail tuples with an
exact ``Fraction`` mass and exact rectangle, and a store's keys decode
to byte rows of its digits, so the tests can check the key kernels
against an independent and plainly correct route.  The samples'
points, which the library never forms, and the KD-tree nearest-centre
estimator live here too: the library's own-cell distances must never
fall below the estimator's distances; so do the sampled ball
masses, which must sit below the library's exact ball certificate; the
whole-row estimate the streamed sums are held to; and a ``tracemalloc``
peak probe.  Nothing in the library or the command
line reaches this module.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from carpetq.coding import (
    Antichain, AntichainCollisionError, AntichainInvariantError, StageLog,
    xi_sequence,
)
from carpetq.measure import DerivedParams
from carpetq.quantizer import (
    _SHARD_ROWS, DISTANCE_FLOOR, QuantDiagnostics, diameter_log, locate,
    uniform_digits,
)
from carpetq import words as key_words
from carpetq.words import WordError, class_counts, ell, entropy_terms, member


@dataclass(frozen=True)
class CarpetWord:
    """A validated word: ``pairs`` in G, ``tail`` of column digits."""

    pairs: tuple[tuple[int, int], ...]
    tail: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.pairs) + len(self.tail)

    def y_digits(self) -> tuple[int, ...]:
        return tuple(j for _, j in self.pairs) + self.tail

    def x_digits(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.pairs)


def make_word(
    params: DerivedParams,
    pairs: Sequence[tuple[int, int]],
    tail: Sequence[int],
) -> CarpetWord:
    """Build a word, enforcing the pair/tail split and digit membership."""
    pairs = tuple((int(i), int(j)) for i, j in pairs)
    tail = tuple(int(j) for j in tail)
    k = len(pairs) + len(tail)
    if k < 1:
        raise WordError("word must have length >= 1")
    want = ell(params, k)
    if len(pairs) != want:
        raise WordError(
            f"length-{k} word needs exactly {want} leading pairs, got {len(pairs)}")
    digits = set(params.spec.digits)
    for p in pairs:
        if p not in digits:
            raise WordError(f"pair {p} not a digit cell")
    for j in tail:
        if j not in params.gx:
            raise WordError(f"tail digit {j} not an occupied column")
    return CarpetWord(pairs, tail)


def word_from_digits(params: DerivedParams, address: Sequence[tuple[int, int]],
                     k: int) -> CarpetWord:
    """Level-k word of a point with the given (i, j) digit address.

    The first ell(k) address pairs are kept whole; pairs ell(k)+1..k
    contribute only their column digit.
    """
    if not 1 <= k <= len(address):
        raise WordError(f"need 1 <= k <= len(address), got k={k}")
    l = ell(params, k)
    return make_word(params, address[:l], [j for _, j in address[l:k]])


def flat_predecessor(params: DerivedParams, word: CarpetWord) -> CarpetWord:
    """The length k-1 word whose square contains this word's square.

    Drops the last column digit; when the pair count shrinks too, the
    last pair is demoted to a bare column digit at the front of the
    tail.
    """
    k = len(word)
    if k < 2:
        raise WordError("length-1 words have no predecessor")
    if ell(params, k - 1) == ell(params, k):
        return CarpetWord(word.pairs, word.tail[:-1])
    (i, j) = word.pairs[-1]
    return CarpetWord(word.pairs[:-1], ((j,) + word.tail)[:-1])


def carpet_children(params: DerivedParams, word: CarpetWord) -> tuple[CarpetWord, ...]:
    """All length k+1 words whose flat predecessor is ``word``.

    Deterministic order: promoted x-digit ascending (when the pair
    count grows), then appended column digit ascending.
    """
    k = len(word)
    out = []
    if ell(params, k + 1) == ell(params, k):
        for j in params.gy:
            out.append(CarpetWord(word.pairs, word.tail + (j,)))
    else:
        if word.tail:
            jstar = word.tail[0]
            rest = word.tail[1:]
            for i in params.gx[jstar]:
                for j in params.gy:
                    out.append(CarpetWord(word.pairs + ((i, jstar),), rest + (j,)))
        else:
            # theta = 1: children append one full pair
            for (i, j) in params.spec.digits:
                out.append(CarpetWord(word.pairs + ((i, j),), ()))
    return tuple(out)


def word_mass(params: DerivedParams, word: CarpetWord) -> Fraction:
    """Exact measure of the word's square: prod p over pairs, prod q over tail."""
    weight = dict(zip(params.spec.digits, params.spec.weights))
    factors = ([weight[ij] for ij in word.pairs]
               + [params.q[j] for j in word.tail])
    return Fraction(math.prod(f.numerator for f in factors),
                    math.prod(f.denominator for f in factors))


@dataclass(frozen=True)
class ApproxSquare:
    """Axis-aligned rectangle [x_low, x_low+width] x [y_low, y_low+height]."""

    word: CarpetWord
    x_low: Fraction
    y_low: Fraction
    width: Fraction
    height: Fraction
    diameter: float
    mass: Fraction

    def x_high(self) -> Fraction:
        return self.x_low + self.width

    def y_high(self) -> Fraction:
        return self.y_low + self.height


def square_geometry(params: DerivedParams, word: CarpetWord) -> ApproxSquare:
    """Exact geometry of the approximate square addressed by ``word``."""
    n, m = params.n, params.m
    k = len(word)
    l = len(word.pairs)
    x_low = Fraction(0)
    for t, i in enumerate(word.x_digits(), start=1):
        x_low += Fraction(i, n ** t)
    y_low = Fraction(0)
    for t, j in enumerate(word.y_digits(), start=1):
        y_low += Fraction(j, m ** t)
    width = Fraction(1, n ** l)
    height = Fraction(1, m ** k)
    diameter = math.hypot(float(width), float(height))
    return ApproxSquare(
        word=word, x_low=x_low, y_low=y_low, width=width, height=height,
        diameter=diameter, mass=word_mass(params, word),
    )


def squares_overlap(a: ApproxSquare, b: ApproxSquare) -> bool:
    """Exact interior-overlap test for two approximate squares."""
    return (max(a.x_low, b.x_low) < min(a.x_high(), b.x_high())
            and max(a.y_low, b.y_low) < min(a.y_high(), b.y_high()))


# The row encoding of the word stores: the interleaved pair digits
# i1, j1, ..., iL, jL followed by the tail digits.

def encode_word(word: CarpetWord) -> bytes:
    flat = bytearray()
    for (i, j) in word.pairs:
        flat.append(i)
        flat.append(j)
    flat.extend(word.tail)
    return bytes(flat)


def decode_word(params: DerivedParams, data: bytes, k: int) -> CarpetWord:
    l = ell(params, k)
    if len(data) != k + l:
        raise WordError(f"encoded length {len(data)} does not match k={k} (want {k + l})")
    pairs = tuple(zip(data[0:2 * l:2], data[1:2 * l:2]))
    tail = tuple(data[2 * l:])
    return CarpetWord(pairs, tail)


# -- the key encoding ---------------------------------------------------------
# A key reads a word as a mixed-radix integer, first digit most
# significant: per pair its rank in the sorted digit set G, then per tail
# digit its rank in the sorted occupied columns gy.

def _radices(params: DerivedParams) -> tuple[list, list]:
    cells = sorted(params.spec.digits)
    return cells, sorted({j for _, j in cells})


def key_dtype_of(params: DerivedParams, h: int) -> np.dtype:
    """uint64 when every length-h key fits in 64 bits, else object."""
    cells, cols = _radices(params)
    l = ell(params, h)
    fits = len(cells) ** l * len(cols) ** (h - l) <= 2 ** 64
    return np.dtype(np.uint64 if fits else object)


def encode_key(params: DerivedParams, word: CarpetWord) -> int:
    cells, cols = _radices(params)
    key = 0
    for pair in word.pairs:
        key = key * len(cells) + cells.index(pair)
    for j in word.tail:
        key = key * len(cols) + cols.index(j)
    return key


def decode_key(params: DerivedParams, key: int, h: int) -> CarpetWord:
    cells, cols = _radices(params)
    l = ell(params, h)
    tail, pairs = [], []
    for _ in range(h - l):
        key, r = divmod(key, len(cols))
        tail.append(cols[r])
    for _ in range(l):
        key, r = divmod(key, len(cells))
        pairs.append(cells[r])
    if key:
        raise WordError(f"key too large for length {h}")
    return CarpetWord(tuple(reversed(pairs)), tuple(reversed(tail)))


def keys_of(params: DerivedParams, h: int, words) -> np.ndarray:
    """The keys of length-h ``words``, in the store's dtype."""
    return np.array([encode_key(params, w) for w in words],
                    dtype=key_dtype_of(params, h))


def _digit_matrix(values: np.ndarray, radix: int, count: int) -> np.ndarray:
    # (count, len(values)) base-radix digits, most significant first.
    # Values wider than 64 bits are first cut into 64-bit chunks of
    # ``places`` digits each.
    if radix == 1 or not count:
        return np.zeros((count, len(values)), dtype=np.uint8)
    places = 1
    while radix ** (places + 1) <= 2 ** 64:
        places += 1
    chunks = -(-count // places)
    places = -(-count // chunks)
    parts = np.empty((chunks, len(values)), dtype=np.uint64)
    for c in range(chunks - 1, 0, -1):
        parts[c] = values % radix ** places
        values = values // radix ** places
    parts[0] = values
    out = np.empty((chunks * places, len(values)),
                   dtype=np.min_scalar_type(radix - 1))
    shift = radix.bit_length() - 1
    for p in range(places - 1, -1, -1):
        # A power-of-two radix by mask and shift, which run far faster.
        if radix == 1 << shift:
            out[p::places] = parts & np.uint64(radix - 1)
            parts >>= np.uint64(shift)
        else:
            out[p::places] = parts % radix
            parts //= radix
    return out[chunks * places - count:]


def key_rows(params: DerivedParams, h: int, keys: np.ndarray) -> np.ndarray:
    """The byte rows of length-h ``keys``: the interleaved pair digits
    i1, j1, ..., iL, jL, then the tail digits, one uint8 row per key."""
    cells, cols = _radices(params)
    cells = np.array(cells, dtype=np.uint8)
    l = ell(params, h)
    span = len(cols) ** (h - l)
    head = _digit_matrix(keys // span, len(cells), l)
    out = np.empty((h + l, len(keys)), dtype=np.uint8)
    out[0:2 * l:2] = cells[:, 0].take(head)
    out[1:2 * l:2] = cells[:, 1].take(head)
    out[2 * l:] = np.array(cols, dtype=np.uint8).take(
        _digit_matrix(keys % span, len(cols), h - l))
    return np.ascontiguousarray(out.T)


# -- reading a key store word by word ------------------------------------------

def _locate(store, idx: int) -> tuple[int, int]:
    # (length, position in its block) of word ``idx``.
    if not 0 <= idx < len(store):
        raise IndexError(f"word index {idx} out of range")
    h = max(h for h, start in store.offsets.items() if start <= idx)
    return h, idx - store.offsets[h]


def word_at(store, idx: int) -> CarpetWord:
    """Word ``idx`` of a key store, decoded."""
    h, pos = _locate(store, idx)
    return decode_key(store.params, int(store.blocks[h][0][pos]), h)


def mass_at(store, idx: int) -> Fraction:
    """Exact mass of word ``idx`` of a key store."""
    h, pos = _locate(store, idx)
    _, ids, nus = store.blocks[h]
    return Fraction(nus[ids[pos]], store.params.denom_lcm ** h)


def words(store) -> list[tuple[CarpetWord, Fraction]]:
    """Every (word, exact mass) of a key store, in word index order."""
    L = store.params.denom_lcm
    out = []
    for h, (keys, ids, nus) in store.blocks.items():
        masses = [Fraction(nu, L ** h) for nu in nus]
        out.extend((decode_key(store.params, key, h), masses[c])
                   for key, c in zip(keys.tolist(), ids.tolist()))
    return out


def store_rows(store) -> dict[int, dict[bytes, int]]:
    """Each length's words as {row bytes: scaled mass nu}, mass = nu / L^h.
    Fails on a repeated row, which a dict would hide."""
    out = {}
    for h, (keys, ids, nus) in store.blocks.items():
        rows = key_rows(store.params, h, keys)
        out[h] = dict(zip(map(bytes, rows), map(nus.__getitem__, ids.tolist())))
        assert len(out[h]) == len(ids), f"repeated row at length {h}"
    return out


# -- the blockwise coding order ----------------------------------------------

def coding_predecessor(params: DerivedParams, w: CarpetWord) -> CarpetWord:
    """Blockwise parent: drop the last tail digit, or the last pair when
    ``ell`` stepped."""
    total = len(w)
    if total < 2:
        raise WordError("length-1 words have no predecessor")
    if ell(params, total) == ell(params, total - 1):
        return CarpetWord(w.pairs, w.tail[:-1])
    return CarpetWord(w.pairs[:-1], w.tail)


def is_descendant(a: CarpetWord, b: CarpetWord) -> bool:
    """True iff both blocks of ``a`` are prefixes of those of ``b``."""
    return (len(a.pairs) <= len(b.pairs)
            and len(a.tail) <= len(b.tail)
            and a.pairs == b.pairs[:len(a.pairs)]
            and a.tail == b.tail[:len(a.tail)])


def comparable(a: CarpetWord, b: CarpetWord) -> bool:
    return is_descendant(a, b) or is_descendant(b, a)


def naive_comparable_pairs(words) -> list[tuple[int, int]]:
    """All-pairs blockwise comparability scan; a slow oracle for small sets."""
    words = list(words)
    if len(words) > 10_000:
        raise ValueError("all-pairs scan refused above 10^4 words")
    hits = []
    for x in range(len(words)):
        for y in range(x + 1, len(words)):
            if comparable(words[x], words[y]):
                hits.append((x, y))
    return hits


# -- the per-word walk -----------------------------------------------------------

class RowIndex:
    """One length's keys, sorted once for exact lookups.

    ``keys`` is the store's own array, in store order; ``sorted`` holds
    the same keys ascending.  The store positions of the sorted keys come
    from a stable argsort, made only once a query matches or two keys
    are equal, so equal keys keep their store order.  Query keys must be
    of the same length and dtype.
    """

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self.sorted = np.sort(keys, kind="stable")
        self._order: Optional[np.ndarray] = None

    def _positions(self) -> np.ndarray:
        if self._order is None:
            self._order = np.argsort(self.keys, kind="stable")
        return self._order

    def matches(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(query index, key index) for every query and every key equal
        to it."""
        found = np.flatnonzero(member(self.sorted, keys))
        if not len(found):
            return found, found
        lo = np.searchsorted(self.sorted, keys[found])
        counts = np.searchsorted(self.sorted, keys[found], side="right") - lo
        starts = np.cumsum(counts) - counts
        at = np.arange(counts.sum()) + np.repeat(lo - starts, counts)
        return np.repeat(found, counts), self._positions()[at]

    def duplicates(self) -> list[tuple[int, int]]:
        """Every pair (a, b), a < b, of equal keys."""
        same = (self.sorted[1:] == self.sorted[:-1]).view(np.int8)
        if not same.any():
            return []
        edges = np.diff(same, prepend=np.int8(0), append=np.int8(0))
        order = self._positions()
        pairs = []
        for start, stop in zip(np.flatnonzero(edges == 1).tolist(),
                               (np.flatnonzero(edges == -1) + 1).tolist()):
            run = sorted(order[start:stop].tolist())
            pairs.extend(itertools.combinations(run, 2))
        return pairs


def walk_matching_pairs(store, predecessor: Callable
                        ) -> tuple[tuple[int, int], ...]:
    """``WordColumns.matching_pairs`` by the per-word walk: every word is
    walked down by ``predecessor`` one length at a time, and looked up at
    each shorter occupied length by binary search in that length's
    ``RowIndex``; equal keys within a length pair too.  Its cost is words
    times the length window."""
    indexes: dict[int, RowIndex] = {}
    pairs: list[tuple[int, int]] = []
    for h, (keys, _, _) in store.blocks.items():
        base = store.offsets[h]
        query = keys
        for hp in range(h - 1, store.l_min - 1, -1):
            query = predecessor(store.params, hp + 1, query)
            if hp in indexes:
                found, anc = indexes[hp].matches(query)
                pairs.extend(zip((anc + store.offsets[hp]).tolist(),
                                 (found + base).tolist()))
        index = indexes[h] = RowIndex(keys)
        pairs.extend((base + a, base + b) for a, b in index.duplicates())
    return tuple(sorted(pairs))


def walks_agree(store) -> bool:
    """Whether ``store.matching_pairs`` lists the per-word walk's pairs,
    for the flat and for the blockwise predecessor."""
    return all(store.matching_pairs(predecessor)
               == walk_matching_pairs(store, predecessor)
               for predecessor in (key_words.flat_predecessor,
                                   key_words.block_predecessor))


def swap_tail(params: DerivedParams, w: CarpetWord, i: int) -> CarpetWord:
    """Interchange the last pair's column digit with the last tail digit.

    The last pair (i_l, j_l) becomes (i, j_t) where j_t is the final
    tail digit, and the final tail digit becomes j_l.  Total length and
    block lengths are unchanged, so the result is again a valid word;
    its mass differs only through the swapped pair weight.
    """
    if not w.pairs or not w.tail:
        raise WordError("swap needs both a pair block and a tail")
    j_l = w.pairs[-1][1]
    j_t = w.tail[-1]
    if i not in params.gx[j_t]:
        raise WordError(f"digit {i} does not occupy column {j_t}")
    return CarpetWord(w.pairs[:-1] + ((i, j_t),), w.tail[:-1] + (j_l,))


def raw_coding_antichain(partition) -> Antichain:
    """The stopping set reinterpreted blockwise, with no replacements.

    This is the construction's starting point.  It conserves mass but
    may contain nested pairs under the blockwise order; feed it to
    ``verify_maximal_antichain`` to surface them.
    """
    return Antichain(partition, partition.blocks,
                     xi_stages=(partition.xi_min,), stage_logs=())


def replay_stages(partition):
    """``build_antichain``'s stages replayed on decoded words.

    At each ladder length after the first, a family is a set of
    target-length words that have a blockwise ancestor (reached by
    ``coding_predecessor`` steps) among the current shorter words and
    agree in everything but the last pair's x digit.  The family is
    replaced by ``swap_tail`` of its smallest-x member, once per x digit
    of the new column.  Returns each stage's families as (removed words,
    inserted words) in sorted order, and the resulting store as
    ``store_rows`` gives it.
    """
    params = partition.params
    L = params.denom_lcm
    blocks = store_rows(partition)
    stages = []
    for target in xi_sequence(partition)[1:]:
        lo = min(blocks)
        families: dict[tuple, list[CarpetWord]] = {}
        for data in blocks.get(target, {}):
            w = a = decode_word(params, data, target)
            while len(a) > lo:
                a = coding_predecessor(params, a)
                if encode_word(a) in blocks.get(len(a), {}):
                    key = (w.pairs[:-1], w.pairs[-1][1], w.tail)
                    families.setdefault(key, []).append(w)
                    break
        stage = []
        for key in sorted(families):
            removed = families[key]
            rep = min(removed, key=lambda w: w.pairs[-1][0])
            inserted = [swap_tail(params, rep, i)
                        for i in params.gx[rep.tail[-1]]]
            stage.append((tuple(removed), tuple(inserted)))
            for w in removed:
                del blocks[target][encode_word(w)]
        for _, inserted in stage:
            for w in inserted:
                data = encode_word(w)
                assert data not in blocks[target], "replacement collision"
                nu = word_mass(params, w) * L ** target
                assert nu.denominator == 1
                blocks[target][data] = int(nu)
        stages.append(stage)
    return stages, blocks


def ancestor_columns(params: DerivedParams, h: int, hp: int) -> list[int]:
    """Columns of a length-h byte row that spell its blockwise ancestor
    at length hp <= h: the first ell(hp) pairs and the first
    hp - ell(hp) tail digits."""
    l, lp = ell(params, h), ell(params, hp)
    return list(range(2 * lp)) + list(range(2 * l, 2 * l + hp - lp))


def build_antichain_by_family(partition) -> Antichain:
    """``build_antichain`` with one pass of the exact checks per family.

    Each length's keys are decoded to byte rows; ancestors are found in
    sets of row bytes and families by a stable sort of their stem bytes; each family then runs the completeness,
    factorability, threshold, predecessor and conservation checks and
    the entropy gap on its own, in sorted family order with walk order
    inside.  The library runs them once per distinct family signature;
    this is the loop it must agree with, block for block and bit for bit.
    """
    params = partition.params
    L = params.denom_lcm
    a, b = params.scaled
    gx = {j: list(params.gx[j]) for j in params.gy}
    eta_k = params.eta ** partition.k
    eta_num_k, eta_den_k = eta_k.numerator, eta_k.denominator
    blocks = dict(partition.blocks)
    xi_stages = xi_sequence(partition)
    stage_logs = []
    for pos, target in enumerate(xi_stages[1:], start=2):
        split = 2 * ell(params, target)
        width = target + split // 2
        keys, ids, nus = blocks.get(
            target, (np.empty(0, key_dtype_of(params, target)),
                     np.empty(0, np.uint8), []))
        rows = key_rows(params, target, keys)
        flags = np.zeros(len(ids), dtype=bool)
        for h in blocks:
            if h < target:
                shorter = set(map(bytes, key_rows(params, h, blocks[h][0])))
                cols = ancestor_columns(params, target, h)
                flags |= [bytes(row[cols]) in shorter for row in rows]
        flagged = np.flatnonzero(flags)
        if not len(flagged):
            stage_logs.append(StageLog(
                stage=pos, target_length=target, family_count=0,
                removed_count=0, inserted_count=0,
                removed_mass=Fraction(0), removed_entropy=0.0,
                inserted_entropy=0.0, max_family_gap=0.0))
            continue
        if split == width:
            raise AntichainInvariantError(
                "replacement family with an empty tail")
        stem_cols = [c for c in range(width) if c != split - 2]
        stems = [bytes(rows[t, stem_cols]) for t in flagged.tolist()]
        order = sorted(range(len(flagged)), key=stems.__getitem__)
        fam_rows = rows[flagged[order]]
        fam_ids = ids[flagged[order]].tolist()
        stems = [stems[t] for t in order]
        starts = [t for t in range(len(stems))
                  if t == 0 or stems[t] != stems[t - 1]]
        ends = starts[1:] + [len(stems)]

        removed_nu = 0
        max_gap = 0.0
        h_scale = L ** target
        bound = eta_num_k * h_scale
        table = list(nus)
        class_of = {nu: c for c, nu in enumerate(table)}
        terms = entropy_terms(table, target, L)
        ins_src, ins_x, ins_ids = [], [], []
        for s, e in zip(starts, ends):
            xs = fam_rows[s:e, split - 2].tolist()
            j_l, j_t = int(fam_rows[s, split - 1]), int(fam_rows[s, -1])
            if sorted(xs) != gx[j_l]:
                raise AntichainInvariantError(
                    f"family over column {j_l} is missing siblings")
            rep_i = min(xs)
            stem_nu, rem = divmod(table[fam_ids[s + xs.index(rep_i)]],
                                  a[(rep_i, j_l)] * b[j_t])
            if rem:
                raise AntichainInvariantError("family mass not factorable")
            fam_nu = 0
            fam_removed_e = 0.0
            for c in fam_ids[s:e]:
                fam_nu += table[c]
                fam_removed_e += terms[c]
            removed_nu += fam_nu
            fam_g_nu = 0
            fam_inserted_e = 0.0
            for i in gx[j_t]:
                fa = a[(i, j_t)]
                nu_g = stem_nu * fa * b[j_l]
                if nu_g * eta_den_k >= bound:
                    raise AntichainInvariantError(
                        "inserted word at or above the stopping threshold")
                if nu_g // fa * eta_den_k * L < bound:
                    raise AntichainInvariantError(
                        "inserted word's predecessor below the threshold")
                fam_g_nu += nu_g
                c = class_of.setdefault(nu_g, len(table))
                if c == len(table):
                    table.append(nu_g)
                    terms += entropy_terms([nu_g], target, L)
                fam_inserted_e += terms[c]
                ins_src.append(s)
                ins_x.append(i)
                ins_ids.append(c)
            if fam_g_nu != fam_nu:
                raise AntichainInvariantError("family mass not conserved")
            gap = abs(fam_inserted_e - fam_removed_e) / (fam_nu / h_scale)
            max_gap = max(max_gap, gap)

        inserted = fam_rows[ins_src]
        j_l_col = inserted[:, split - 1].copy()
        inserted[:, split - 2] = ins_x
        inserted[:, split - 1] = inserted[:, -1]
        inserted[:, -1] = j_l_col
        keep = np.flatnonzero(~flags)
        survivors = set(map(bytes, rows[keep]))
        new = list(map(bytes, inserted))
        if len(set(new)) < len(new) or survivors.intersection(new):
            raise AntichainCollisionError(
                f"replacement collision at length {target}")
        blocks[target] = (
            np.concatenate([keys[keep], keys_of(
                params, target,
                [decode_word(params, data, target) for data in new])]),
            np.append(ids[keep], ins_ids).astype(
                np.min_scalar_type(len(table))),
            table)
        stage_logs.append(StageLog(
            stage=pos,
            target_length=target,
            family_count=len(starts),
            removed_count=len(flagged),
            inserted_count=len(ins_ids),
            removed_mass=Fraction(removed_nu, h_scale),
            removed_entropy=word_entropy(terms, fam_ids),
            inserted_entropy=word_entropy(terms, ins_ids),
            max_family_gap=max_gap,
        ))
    return Antichain(partition, blocks, xi_stages=xi_stages,
                     stage_logs=tuple(stage_logs))


def word_entropy(terms: Sequence[float], ids) -> float:
    """``math.fsum`` of every word's own mass * log(mass) term,
    ``terms[id]``: the per-word oracle for class-count entropy sums."""
    return math.fsum(map(terms.__getitem__, ids))


def check_phi_growth(earlier, later) -> bool:
    """phi_k <= phi_{k+1} <= eta^-2 phi_k, exactly."""
    if later.k != earlier.k + 1:
        raise ValueError("growth check needs consecutive levels")
    eta = earlier.params.eta
    return (earlier.phi_k <= later.phi_k
            and Fraction(later.phi_k) <= Fraction(earlier.phi_k) * (1 / eta) ** 2)


# -- sampling ------------------------------------------------------------------

def sample_digit_matrix(params: DerivedParams, count: int, depth: int,
                        seed: int) -> np.ndarray:
    """The map-index digit matrix of shape (count, depth) that
    ``draw_cloud``'s chunks hold, in one array: rows in blocks of
    ``_SHARD_ROWS``, block b drawn by the generator seeded by (seed, b)
    place by place, all of its first digits, then all of its second."""
    cum = np.cumsum([float(w) for w in params.spec.weights])
    out = np.empty((count, depth), dtype=np.min_scalar_type(len(cum) - 1))
    for block, lo in enumerate(range(0, count, _SHARD_ROWS)):
        hi = min(lo + _SHARD_ROWS, count)
        u = np.random.default_rng([int(seed), block]).random((depth, hi - lo))
        out[lo:hi] = uniform_digits(u, cum).T
    return out


def sample_points(params: DerivedParams, count: int, depth: int,
                  seed: int) -> np.ndarray:
    """The samples of ``sample_digit_matrix`` as a (count, 2) float64
    array of points in [0, 1]^2, by float Horner steps from the last
    digit on each axis."""
    cells = np.array(params.spec.digits, dtype=np.float64)
    mat = sample_digit_matrix(params, count, depth, seed)
    pts = np.zeros((count, 2))
    for t in range(depth - 1, -1, -1):
        pts += cells.take(mat[:, t], axis=0)
        pts /= (params.n, params.m)
    return pts


def own_cell_log_distances(params: DerivedParams, digits: np.ndarray,
                           lengths) -> list[float]:
    """The log distance from each sample (a map-index digit row) to the
    centre of its cell of the given length, -inf at the centre.  The
    squared distance is an exact fraction of big integers, scaled by a
    power of two into (1/2, 2) and rounded once, so no cell is too small
    and the log is good to a few units in its last place.  A length-h
    cell holds the first ell(h) x digits and the first h y digits; the
    digits after them place the sample in it."""
    cells = params.spec.digits
    out = []
    for row, h in zip(digits.tolist(), lengths):
        square = Fraction(0)
        for axis, (base, places) in enumerate(
                ((params.n, ell(params, h)), (params.m, h))):
            tail = 0
            for d in row[places:]:
                tail = tail * base + cells[d][axis]
            # (tail / base^(depth - places) - 1/2) / base^places
            square += Fraction(2 * tail - base ** (len(row) - places),
                               2 * base ** len(row)) ** 2
        if not square:
            out.append(-math.inf)
            continue
        # square = r 2^e with r in (1/2, 2), rounded once to a float.
        e = square.numerator.bit_length() - square.denominator.bit_length()
        out.append((math.log(square / Fraction(2) ** e)
                    + e * math.log(2)) / 2)
    return out


# -- the nearest-centre estimator ----------------------------------------------

def lambda_codebook(partition) -> np.ndarray:
    """One point per stopping word, the center of its rectangle; row i
    is word i of the partition."""
    params = partition.params
    n = float(params.n)
    m = float(params.m)
    pts = np.empty((partition.phi_k, 2), dtype=np.float64)
    for h, (keys, _, _) in partition.blocks.items():
        rows = key_rows(params, h, keys)
        l = ell(params, h)
        iw = np.power(n, -np.arange(1, l + 1, dtype=np.float64))
        yweights = np.power(m, -np.arange(1, h + 1, dtype=np.float64))
        out = slice(partition.offsets[h], partition.offsets[h] + len(rows))
        pts[out, 0] = (rows[:, :2 * l].astype(np.float64)[:, ::2] @ iw
                       + 0.5 * n ** (-l))
        ydig = np.concatenate([rows[:, 1:2 * l:2], rows[:, 2 * l:]], axis=1)
        pts[out, 1] = (ydig.astype(np.float64) @ yweights
                       + 0.5 * m ** (-float(h)))
    return pts


def nearest_distances(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearest centre, by a KD-tree."""
    return cKDTree(centres).query(points, k=1)[0]


def nearest_log_distortion(points: np.ndarray, centres: np.ndarray,
                           floor: float) -> tuple[float, float, int]:
    """Mean log distance from the points to their nearest centres, its
    standard error, and the number of distances below ``floor``, which
    are clamped at it."""
    dist = nearest_distances(points, centres)
    floored = int(np.count_nonzero(dist < floor))
    logs = np.log(np.maximum(dist, floor))
    sd = float(np.std(logs, ddof=1)) if len(logs) > 1 else 0.0
    return (math.fsum(logs) / len(logs), sd / math.sqrt(len(logs)),
            floored)


def brute_locate(params: DerivedParams, store, digits: np.ndarray
                 ) -> list[int]:
    """The stopping length of each sample, given its map-index digit row
    (``sample_digit_matrix``): the one length h whose word spelled by
    the sample's first h digits is a row of ``store``; 0 when there is
    none or more than one.  That word's row is the interleaved digits of
    the sample's first ell(h) cells, then its y digits up to place h."""
    rows = store_rows(store)
    cells = params.spec.digits
    ells = {h: ell(params, h) for h in rows}
    found = []
    for row in digits.tolist():
        pairs = bytes(v for d in row for v in cells[d])
        ys = bytes(cells[d][1] for d in row)
        hits = [h for h, l in ells.items()
                if pairs[:2 * l] + ys[l:h] in rows[h]]
        found.append(hits[0] if len(hits) == 1 else 0)
    return found


# -- whole rows and the two-pass estimate -------------------------------------

def located(levels, cloud) -> tuple[np.ndarray, np.ndarray]:
    """``locate``'s chunks joined into whole rows: the (levels, size)
    stopping lengths and log distances of every sample."""
    chunks = list(locate(levels, cloud))
    return (np.concatenate([found for found, _ in chunks], axis=1),
            np.concatenate([logs for _, logs in chunks], axis=1))


def two_pass_diagnostics(level, logs: np.ndarray) -> QuantDiagnostics:
    """One level's diagnostics from its whole row of log distances, as
    the library formed them before it streamed its sums: the anchors as
    float sums over the exact per-length masses, the logs clamped at
    log ``DISTANCE_FLOOR``, their mean from their correctly rounded sum,
    then the standard error from the correctly rounded sum of their
    squared deviations from that mean, fl((x - mean)^2).  No length is
    stray: the rows it is checked on are drawn from the measure."""
    params = level.params
    L = params.denom_lcm
    log_m = math.log(params.spec.m)
    lower = 0.0
    upper = 0.0
    for h, nu_sum in level.length_nu_sums.items():
        mass_h = float(Fraction(nu_sum, L ** h))
        lower += mass_h * (-h * log_m)
        upper += mass_h * diameter_log(params, h)
    size = len(logs)
    clamped = np.nan_to_num(logs, neginf=math.log(DISTANCE_FLOOR))
    est = math.fsum(clamped) / size
    sd = (math.sqrt(math.fsum(np.square(clamped - est)) / (size - 1))
          if size > 1 else 0.0)
    return QuantDiagnostics(
        k=level.k, phi_k=level.phi_k, lower_anchor=lower,
        upper_anchor=upper, e_hat_est=est, stderr=sd / math.sqrt(size),
        r_k=math.log(level.phi_k) / params.s0 + est,
        floored=int(np.count_nonzero(np.isneginf(logs))),
        stray_lengths=(), cloud_size=size)


# -- the whole-cloud ball masses ---------------------------------------------

_SLAB_PAD = 2.0 ** -40      # slab widening, far above the rounding of dx


def whole_cloud_ball_check(points: np.ndarray, m: int) -> np.ndarray:
    """The sampled ball masses: the share of the ``points`` within
    radius m^-h of each of the first 100, as a (100, 7) array whose
    column h - 2 holds h = 2, ..., 8.  By one sweep over all points
    sorted by x: each centre's slab within the widest radius, and within
    it each radius's sub-slab, found by binary search and widened by far
    more than the rounding of dx, and in it the points whose squared
    distance is at most r^2 counted, as a KD-tree's ball query counts
    them."""
    centers = 100
    radii = [float(m) ** -h for h in range(2, 9)]
    by_x = np.argsort(points[:, 0])
    xs = points[by_x, 0]
    ys = points[by_x, 1]
    widest = max(radii)
    counts = np.zeros((centers, len(radii)), dtype=np.int64)
    for i, (px, py) in enumerate(points[:centers].tolist()):
        lo, hi = np.searchsorted(
            xs, [px - widest - _SLAB_PAD, px + widest + _SLAB_PAD]).tolist()
        d2 = (xs[lo:hi] - px) ** 2 + (ys[lo:hi] - py) ** 2
        for j, r in enumerate(radii):
            a, b = np.searchsorted(
                xs[lo:hi], [px - r - _SLAB_PAD, px + r + _SLAB_PAD]).tolist()
            counts[i, j] = np.count_nonzero(d2[a:b] <= r * r)
    return counts / len(points)


# -- a faulty antichain ---------------------------------------------------------

def word_at_threshold(partition, chain: Antichain) -> Antichain:
    """``chain`` rebuilt with the first word of its most populous length
    raised to a mass at or above eta^k, the raise taken evenly from the
    other words of that length's most populous class, so the total mass
    stays exactly 1 and the keys, hence the order, stay as they were:
    the store's only fault is a word too heavy for its level."""
    params = chain.params
    L = params.denom_lcm
    h = max(chain.blocks, key=lambda h: len(chain.blocks[h][1]))
    keys, ids, nus = chain.blocks[h]
    ids, nus = ids.astype(np.uint32), list(nus)
    counts = class_counts(ids[1:], len(nus))
    donor = max(range(len(nus)), key=counts.__getitem__)
    # The first word takes a class of its own, up by ``step`` from each
    # donor word.
    need = math.ceil(params.eta ** chain.k * L ** h) - nus[ids[0]]
    step = -(-need // counts[donor])
    assert 0 < step < nus[donor]
    nus.append(nus[ids[0]] + counts[donor] * step)
    nus[donor] -= step
    ids[0] = len(nus) - 1
    return Antichain(partition, {**chain.blocks, h: (keys, ids, nus)},
                     xi_stages=chain.xi_stages, stage_logs=chain.stage_logs)


# -- allocation peaks ----------------------------------------------------------

def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the traced allocation peak above what was
    live before the call, in bytes)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
