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
from typing import Callable, Sequence

import numpy as np

from .measure import DerivedParams

__all__ = [
    "WordError",
    "ell",
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


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One ``np.void`` key per row of a uint8 matrix.

    Keys compare as the rows' bytes do, so sorting them sorts the rows
    by their digits, first column most significant.
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
