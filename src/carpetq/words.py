"""Symbolic addresses over a carpet's digit set, stored as byte rows.

A length-k word is ell(k) full (i, j) pairs followed by k - ell(k)
bare column digits j, where ell(k) is the largest l with

    n^l <= m^k,

i.e. floor(k log m / log n).  The pair prefix and column tail encode
one level-k approximate square: x is resolved to scale n^-ell(k) and
y to scale m^-k, so the square is geometrically balanced (width over
height between 1 and n).  A word is stored as one uint8 row of
k + ell(k) digits: the interleaved pair digits i1, j1, ..., iL, jL,
then the tail digits.  The split point 2 * ell(k) is recoverable from
the row length alone.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .measure import CarpetSpec, DerivedParams

__all__ = [
    "WordError",
    "ell",
    "entropy_terms",
    "cut_keys",
    "row_keys",
    "RowIndex",
    "WordColumns",
]


class WordError(ValueError):
    pass


@lru_cache(maxsize=None)
def _ell_exact(n: int, m: int, k: int) -> int:
    # Integer-power comparison; the float seed is only a starting guess.
    if k <= 0:
        return 0
    l = int(k * math.log(m) / math.log(n))
    while n ** (l + 1) <= m ** k:
        l += 1
    while l > 0 and n ** l > m ** k:
        l -= 1
    return l


def ell(params: DerivedParams, k: int) -> int:
    """Number of leading (i, j) pairs in a length-k word.

    Computed by exact integer comparison of n^l against m^k, never by
    rounding k * theta.
    """
    return _ell_exact(params.n, params.m, k)


_CHUNK = 1 << 12            # rows packed at once: bounds the lookup scratch
_WORD_BITS = 53             # key bits one float64 dot product packs exactly


@lru_cache(maxsize=None)
def _digit_ranks(spec: CarpetSpec) -> tuple[np.ndarray, np.ndarray]:
    # Rank of each cell (i, j) in the sorted digit set G, at i + 256 j,
    # and of each occupied column j in sorted gy, at j; -1 elsewhere.
    # Each table ends in a -1 that ``np.take(..., mode="clip")`` returns
    # for any larger index, so a digit off the grid reads -1 too.  The
    # ranks keep the digits' byte order.
    cells = sorted(spec.digits)
    pair = np.full(256 * (spec.m - 1) + spec.n + 1, -1.0)
    pair[[i + 256 * j for i, j in cells]] = np.arange(len(cells))
    cols = sorted({j for _, j in cells})
    col = np.full(spec.m + 1, -1.0)
    col[cols] = np.arange(len(cols))
    return pair, col


def _word_weights(radices: list[int]) -> tuple[list[int], list[int], int]:
    # Mixed-radix digits split, first to last, into key words of at most
    # _WORD_BITS bits: each digit's word and weight (the product of the
    # radices after it in its word), and the word count.
    word_of, word, size = [], 0, 1
    for radix in radices:
        if size * radix > 1 << _WORD_BITS:
            word, size = word + 1, 1
        word_of.append(word)
        size *= radix
    weight = [1] * len(radices)
    for t in range(len(radices) - 2, -1, -1):
        if word_of[t] == word_of[t + 1]:
            weight[t] = weight[t + 1] * radices[t + 1]
    return word_of, weight, word + 1


def cut_keys(params: DerivedParams, rows: np.ndarray, pairs: int,
             cuts: Sequence[tuple[Sequence[int], int]]
             ) -> Iterator[tuple[int, list[np.ndarray]]]:
    """Sort keys of ``rows`` cut down to each of ``cuts``, a chunk at a time.

    ``rows`` is a uint8 matrix whose first ``pairs`` column pairs (i, j)
    are cells of the carpet's digit set G and whose other columns are
    occupied column digits.  A cut ``(cols, cut_pairs)`` spells a row
    from the columns ``cols``, in order: ``cut_pairs`` whole pairs of
    the row, then lone column digits (a pair's j or a tail digit).  Its
    key reads that row as a mixed-radix number, first column most
    significant: a pair is the digit of its rank in sorted G (base
    |G|), a lone digit that of its rank in sorted gy (base |gy|).  So
    keys compare as the cut rows' bytes do, at log2 |G| bits a pair and
    log2 |gy| bits a lone digit.  A cut of at most 53 bits, as every
    row of every reference level is, gets ``uint64`` keys; a wider one
    packs into big-endian 64-bit words of up to 53 bits each, a key
    viewed as their bytes.  A pair outside G, or a lone digit outside gy
    that a cut reads, raises ``WordError``.

    Yields, for the ``_CHUNK`` rows from row ``lo`` on, ``lo`` and one
    key array per cut.  A chunk's ranks are looked up once for all cuts.
    """
    pair_rank, col_rank = _digit_ranks(params.spec)
    lone = sorted({c for cols, cut_pairs in cuts
                   for c in cols[2 * cut_pairs:]})
    at = {c: t for t, c in enumerate(lone)}
    # Each cut's key words, and per word the weight of every rank.
    spans, places, words = [], [], 0
    for cols, cut_pairs in cuts:
        word_of, weight, count = _word_weights(
            [len(params.spec.digits)] * cut_pairs
            + [len(params.gy)] * (len(cols) - 2 * cut_pairs))
        spans.append((words, words + count))
        places += [(words + w, cols[2 * t] // 2 if t < cut_pairs
                    else pairs + at[cols[cut_pairs + t]], wt)
                   for t, (w, wt) in enumerate(zip(word_of, weight))]
        words += count
    weights = np.zeros((words, pairs + len(lone)))
    for word, place, weight in places:
        weights[word, place] += weight
    cell_w, lone_w = weights[:, :pairs].copy(), weights[:, pairs:].copy()
    for lo in range(0, max(len(rows), 1), _CHUNK):
        chunk = np.ascontiguousarray(rows[lo:lo + _CHUNK])
        cells = np.take(pair_rank, chunk[:, :2 * pairs].view("<u2"),
                        mode="clip")
        digits = np.take(col_rank, chunk[:, lone], mode="clip")
        if min(cells.min(initial=0), digits.min(initial=0)) < 0:
            raise WordError("row digit outside the carpet's cells or "
                            "occupied columns")
        # One float64 dot product per key word, exact below 2^53.  Not one
        # matrix product for all words: OpenBLAS runs that on two threads,
        # which doubled the CPU time of the lookups on carpet D.
        packed = np.empty((len(chunk), len(weights)))
        for w in range(len(weights)):
            packed[:, w] = cells @ cell_w[w] + digits @ lone_w[w]
        yield lo, [packed[:, a].astype(np.uint64) if b == a + 1 else
                   packed[:, a:b].astype(">u8").view(
                       np.dtype((np.void, 8 * (b - a)))).ravel()
                   for a, b in spans]


def row_keys(params: DerivedParams, rows: np.ndarray,
             pairs: int) -> np.ndarray:
    """The ``cut_keys`` of whole rows: ``pairs`` cells, then column digits."""
    keys = None
    for lo, (chunk,) in cut_keys(params, rows, pairs,
                                 [(range(rows.shape[1]), pairs)]):
        if keys is None:
            keys = np.empty(len(rows), chunk.dtype)
        keys[lo:lo + len(chunk)] = chunk
    return keys


class RowIndex:
    """Sort keys of one matrix's rows, sorted once for exact lookups.

    ``order`` is the stable sort of the rows by their keys: equal rows
    keep their input order, and with ``row_keys`` the sorted rows come
    out in ``sorted(bytes)`` order.  Query keys must come from the same
    layout as the indexed ones.
    """

    def __init__(self, keys: np.ndarray):
        # Timsort: rows in walk order come in long sorted runs.
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    def _first(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Sorted position of each key's first equal row, and whether
        # there is one.
        pos = np.searchsorted(self.keys, keys)
        hit = self.keys[np.minimum(pos, len(self.keys) - 1)] == keys
        return pos, hit

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Whether each key equals some row."""
        return self._first(keys)[1]

    def matches(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(key index, row index) for every key and every row equal to it."""
        pos, hit = self._first(keys)
        found = np.flatnonzero(hit)
        lo = pos[found]
        counts = np.searchsorted(self.keys, keys[found], side="right") - lo
        starts = np.cumsum(counts) - counts
        at = np.arange(counts.sum()) + np.repeat(lo - starts, counts)
        return np.repeat(found, counts), self.order[at]

    def duplicates(self) -> list[tuple[int, int]]:
        """Every pair (a, b), a < b, of equal rows."""
        same = (self.keys[1:] == self.keys[:-1]).view(np.int8)
        edges = np.diff(same, prepend=np.int8(0), append=np.int8(0))
        pairs = []
        for start, stop in zip(np.flatnonzero(edges == 1).tolist(),
                               (np.flatnonzero(edges == -1) + 1).tolist()):
            run = sorted(self.order[start:stop].tolist())
            pairs.extend(itertools.combinations(run, 2))
        return pairs


def entropy_terms(nus: Sequence[int], h: int, L: int) -> list[float]:
    """mass * log(mass) per scaled mass nu of a length-h table, mass = nu / L^h."""
    log_masses = [math.log(nu) - h * math.log(L) for nu in nus]
    return [math.exp(log_mass) * log_mass for log_mass in log_masses]


class WordColumns:
    """A word store keyed by word length.

    ``blocks`` maps each occupied length h, in ascending order, to a
    triple ``(rows, ids, nus)``: a C-contiguous uint8 matrix holding one
    row of h + ell(h) digits per word, an unsigned class
    id per row, and a table of the length's exact scaled masses (Python
    ints; an entry may have no word): word t has mass nus[ids[t]] / L^h.
    Word indices run in this length-major order; ``offsets[h]`` is the
    index of the first length-h word.  The counts, the length window,
    the exact mass aggregates and each length's exact sum of
    mass * log(mass) (class count times ``entropy_terms``, as a
    fraction) are derived once, here, so no consumer regroups words by
    length.
    """

    def __init__(self, params: DerivedParams,
                 blocks: dict[int, tuple[np.ndarray, np.ndarray, list[int]]]):
        L = params.denom_lcm
        for h, (rows, ids, nus) in blocks.items():
            width = h + ell(params, h)
            if not (isinstance(rows, np.ndarray) and rows.dtype == np.uint8
                    and isinstance(ids, np.ndarray) and ids.dtype.kind == "u"
                    and rows.shape == ids.shape + (width,)
                    and rows.flags.c_contiguous and (ids < len(nus)).all()):
                raise WordError(
                    f"length-{h} block needs C-contiguous uint8 rows of width "
                    f"{width}, each with an unsigned class id below {len(nus)}")
        self.params = params
        self.blocks = {h: b for h, b in sorted(blocks.items()) if len(b[1])}
        self.length_counts = {h: len(b[1]) for h, b in self.blocks.items()}
        counts = {h: np.bincount(b[1]).tolist() for h, b in self.blocks.items()}
        self.length_nu_sums = {
            h: sum(c * nu for c, nu in zip(counts[h], nus))
            for h, (_, _, nus) in self.blocks.items()}
        self.length_entropy_sums = {
            h: sum(c * Fraction(t)
                   for c, t in zip(counts[h], entropy_terms(nus, h, L)))
            for h, (_, _, nus) in self.blocks.items()}
        self.offsets: dict[int, int] = {}
        self.size = 0
        for h, count in self.length_counts.items():
            self.offsets[h] = self.size
            self.size += count
        self.l_min = min(self.blocks, default=0)
        self.l_max = max(self.blocks, default=0)
        # Exact sums over the common denominator L^l_max: no gcd per length.
        scaled = {h: s * L ** (self.l_max - h)
                  for h, s in self.length_nu_sums.items()}
        self.mass_total = Fraction(sum(scaled.values()), L ** self.l_max)
        self.mass_len_total = Fraction(
            sum(h * s for h, s in scaled.items()), L ** self.l_max)

    def __len__(self) -> int:
        return self.size

    def matching_pairs(self, columns: Callable[[int, int], list[int]]
                       ) -> tuple[tuple[int, int], ...]:
        """Sorted index pairs (a, b), a < b, of words whose rows match.

        A length-h word b matches a word a of length hp < h when b's row
        cut down to ``columns(h, hp)`` equals a's row, and a word of its
        own length when the two rows are equal.  Each length's rows are
        packed once, a chunk at a time, into their own keys and those of
        their cuts to every shorter length; each length's own keys are
        sorted once, and every cut-down row is one binary search.
        """
        indexes: dict[int, RowIndex] = {}
        pairs: list[tuple[int, int]] = []
        for h, (rows, _, _) in self.blocks.items():
            base, l = self.offsets[h], ell(self.params, h)
            cuts = [(range(rows.shape[1]), l)] + [
                (columns(h, hp), ell(self.params, hp)) for hp in indexes]
            keys = None
            for lo, (own, *cut) in cut_keys(self.params, rows, l, cuts):
                if keys is None:
                    keys = np.empty(len(rows), own.dtype)
                keys[lo:lo + len(own)] = own
                for (hp, shorter), query in zip(indexes.items(), cut):
                    found, anc = shorter.matches(query)
                    pairs.extend(zip((anc + self.offsets[hp]).tolist(),
                                     (found + base + lo).tolist()))
            index = indexes[h] = RowIndex(keys)
            pairs.extend((base + a, base + b) for a, b in index.duplicates())
        return tuple(sorted(pairs))
