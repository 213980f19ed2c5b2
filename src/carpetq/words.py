"""Symbolic addresses over a carpet's digit set.

A length-k word is ell(k) full (i, j) pairs followed by k - ell(k)
bare column digits j, where ell(k) is the largest l with

    n^l <= m^k,

i.e. floor(k log m / log n).  The pair prefix and column tail encode
one level-k approximate square: x is resolved to scale n^-ell(k) and
y to scale m^-k, so the square is geometrically balanced (width over
height between 1 and n).  Mass and geometry are exact rationals; the
diameter alone is a float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .measure import DerivedParams

__all__ = [
    "CarpetWord",
    "ApproxSquare",
    "WordError",
    "ell",
    "make_word",
    "word_from_digits",
    "flat_predecessor",
    "carpet_children",
    "word_mass",
    "square_geometry",
    "encode_word",
    "decode_word",
    "entropy_terms",
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
    mass = Fraction(1)
    for (i, j) in word.pairs:
        mass *= params.prob(i, j)
    for j in word.tail:
        mass *= params.q[j]
    return mass


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


# Compact byte encoding used by the word stores: the interleaved pair
# digits i1, j1, ..., iL, jL followed by the tail digits.  The split
# point is 2 * ell(k), recoverable from the word length alone.

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


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One ``np.void`` key per row of a uint8 matrix.

    Keys compare as the rows' bytes do, so sorting them sorts the rows
    like their ``encode_word`` bytes.
    """
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


class RowIndex:
    """The rows of one uint8 matrix, sorted once for exact row lookups.

    ``order`` is the stable sort of the rows by their bytes: equal rows
    keep their input order, and the sorted rows come out in
    ``sorted(bytes)`` order.
    """

    def __init__(self, rows: np.ndarray):
        keys = row_keys(rows)
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
        edges = np.diff(np.concatenate(([0], same, [0])))
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
    ``encode_word`` row of h + ell(h) digits per word, an unsigned class
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

    def word_at(self, idx: int) -> CarpetWord:
        h, pos = self._locate(idx)
        return decode_word(self.params, self.blocks[h][0][pos].tobytes(), h)

    def mass_at(self, idx: int) -> Fraction:
        h, pos = self._locate(idx)
        return self._class_masses[h][self.blocks[h][1][pos]]

    def iter_words(self) -> Iterator[tuple[CarpetWord, Fraction]]:
        for h, (rows, ids, _) in self.blocks.items():
            masses = self._class_masses[h]
            for row, c in zip(rows, ids.tolist()):
                yield decode_word(self.params, row.tobytes(), h), masses[c]

    @cached_property
    def _class_masses(self) -> dict[int, list[Fraction]]:
        # Each length's mass table as exact fractions, one per class.
        L = self.params.denom_lcm
        return {h: [Fraction(nu, L ** h) for nu in nus]
                for h, (_, _, nus) in self.blocks.items()}

    def matching_pairs(self, columns: Callable[[int, int], list[int]]
                       ) -> tuple[tuple[int, int], ...]:
        """Sorted index pairs (a, b), a < b, of words whose rows match.

        A length-h word b matches a word a of length hp < h when b's row
        cut down to ``columns(h, hp)`` equals a's row, and a word of its
        own length when the two rows are equal.  Each length's rows are
        sorted once; every cut-down row is one binary search.
        """
        indexes: dict[int, RowIndex] = {}
        pairs: list[tuple[int, int]] = []
        for h, (rows, _, _) in self.blocks.items():
            base = self.offsets[h]
            for hp, shorter in indexes.items():
                found, anc = shorter.matches(row_keys(rows[:, columns(h, hp)]))
                pairs.extend(zip((anc + self.offsets[hp]).tolist(),
                                 (found + base).tolist()))
            index = indexes[h] = RowIndex(rows)
            pairs.extend((base + a, base + b) for a, b in index.duplicates())
        return tuple(sorted(pairs))

    def _locate(self, idx: int) -> tuple[int, int]:
        # (length, position in its block) of word ``idx``.
        if not 0 <= idx < self.size:
            raise IndexError(f"word index {idx} out of range")
        h = next(h for h, start in reversed(self.offsets.items())
                 if idx >= start)
        return h, idx - self.offsets[h]
