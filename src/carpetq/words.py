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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

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


# Compact byte encoding used by the enumerators: the interleaved pair
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
    pairs = tuple((data[2 * t], data[2 * t + 1]) for t in range(l))
    tail = tuple(data[2 * l:])
    return CarpetWord(pairs, tail)


class WordColumns:
    """A word store keyed by word length.

    ``blocks`` maps each occupied length h, in ascending order, to two
    parallel lists: ``encode_word`` bytes and scaled integer masses nu
    with mass = nu / L^h.  Word indices run in this length-major order;
    ``offsets[h]`` is the index of the first length-h word.  The counts,
    the length window and the exact mass aggregates are derived once,
    here, so no consumer regroups words by length.
    """

    def __init__(self, params: DerivedParams,
                 blocks: dict[int, tuple[list[bytes], list[int]]]):
        L = params.denom_lcm
        self.params = params
        self.blocks = {h: blocks[h] for h in sorted(blocks) if blocks[h][0]}
        self.length_counts = {h: len(encs)
                              for h, (encs, _) in self.blocks.items()}
        self.length_nu_sums = {h: sum(nus)
                               for h, (_, nus) in self.blocks.items()}
        self.offsets: dict[int, int] = {}
        self.size = 0
        for h, count in self.length_counts.items():
            self.offsets[h] = self.size
            self.size += count
        self.l_min = min(self.blocks, default=0)
        self.l_max = max(self.blocks, default=0)
        masses = [(h, Fraction(s, L ** h))
                  for h, s in self.length_nu_sums.items()]
        self.mass_total = sum((mass for _, mass in masses), Fraction(0))
        self.mass_len_total = sum((h * mass for h, mass in masses),
                                  Fraction(0))

    def __len__(self) -> int:
        return self.size

    def word_at(self, idx: int) -> CarpetWord:
        h, pos = self._locate(idx)
        return decode_word(self.params, self.blocks[h][0][pos], h)

    def mass_at(self, idx: int) -> Fraction:
        h, pos = self._locate(idx)
        return Fraction(self.blocks[h][1][pos], self.params.denom_lcm ** h)

    def iter_words(self) -> Iterator[tuple[CarpetWord, Fraction]]:
        L = self.params.denom_lcm
        for h, (encs, nus) in self.blocks.items():
            scale = L ** h
            for enc, nu in zip(encs, nus):
                yield decode_word(self.params, enc, h), Fraction(nu, scale)

    def _locate(self, idx: int) -> tuple[int, int]:
        # (length, position in its block) of word ``idx``.
        if not 0 <= idx < self.size:
            raise IndexError(f"word index {idx} out of range")
        h = next(h for h, start in reversed(self.offsets.items())
                 if idx >= start)
        return h, idx - self.offsets[h]
