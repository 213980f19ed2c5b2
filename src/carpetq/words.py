"""Symbolic addresses over a carpet's digit set, stored as integer keys.

A length-k word is ell(k) full (i, j) cells followed by k - ell(k)
bare column digits j, where ell(k) is the largest l with

    n^l <= m^k,

i.e. floor(k log m / log n).  The cell prefix and column tail encode
one level-k approximate square: x is resolved to scale n^-ell(k) and
y to scale m^-k, so the square is geometrically balanced (width over
height between 1 and n).  A word is stored as one integer key, first
digit most significant: per cell its rank in the sorted digit set G,
then per tail digit its rank in the sorted occupied columns gy.  Keys
of one length compare as the digit strings i1, j1, ..., iL, jL, tail
do.  They are ``uint64`` while |G|^ell(k) |gy|^(k - ell(k)) <= 2^64,
else Python ints in an ``object`` array.  Only this module reads the
layout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .measure import DerivedParams

__all__ = [
    "WordError", "ell", "entropy_terms", "key_space", "key_dtype", "spread",
    "family_stems", "stem_columns", "flat_predecessor",
    "block_predecessor", "swap_tail", "member", "KeySet",
    "predecessor_member", "class_counts", "class_entropy", "mass_sums",
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


_KEY_BITS = 64              # a length's keys are uint64 while they fit here
_CHUNK = 1 << 14            # keys split or walked at once: bounds the scratch
_SLOTS = 8                  # a key set's table slots a key: a uint64's bytes
_UINT64, _OBJECT = np.dtype(np.uint64), np.dtype(object)


class _Layout(NamedTuple):
    g: int                  # |G|, the radix of a cell
    c: int                  # |gy|, the radix of a tail digit
    cells: np.ndarray       # (g, 2) intp: the cell (i, j) of each rank
    cols: np.ndarray        # intp: the column digit of each rank
    cell_rank: np.ndarray   # uint64: the rank of cell (i, j), at i + n j
    col_rank: np.ndarray    # uint64: the rank of column j, at j
    promote: np.ndarray     # uint64: the rank of cell (gx[j][r], j), at
                            # (rank of column j, r)


def _layout(params: DerivedParams) -> _Layout:
    # Cached by the grid and its cells: the layout reads no weight, and
    # hashing a spec hashes each of its Fraction weights.
    spec = params.spec
    return _grid_layout(spec.n, spec.m, spec.digits)


@lru_cache(maxsize=None)
def _grid_layout(n: int, m: int,
                 digits: tuple[tuple[int, int], ...]) -> _Layout:
    cells = np.array(sorted(digits), dtype=np.intp)
    cols = np.flatnonzero(np.bincount(cells[:, 1]))
    cell_rank = np.zeros(n * m, dtype=np.uint64)
    cell_rank[cells[:, 0] + n * cells[:, 1]] = np.arange(len(cells))
    col_rank = np.zeros(m, dtype=np.uint64)
    col_rank[cols] = np.arange(len(cols))
    promote = np.zeros((len(cols), len(cells)), dtype=np.uint64)
    for s, j in enumerate(cols.tolist()):
        column = np.flatnonzero(cells[:, 1] == j)
        promote[s, :len(column)] = column
    return _Layout(len(cells), len(cols), cells, cols, cell_rank, col_rank,
                   promote)


def key_space(params: DerivedParams, h: int) -> int:
    """The number of length-h keys: |G|^ell(h) * |gy|^(h - ell(h))."""
    lay = _layout(params)
    return _space(lay.g, lay.c, h, ell(params, h))


@lru_cache(maxsize=None)
def _space(g: int, c: int, h: int, l: int) -> int:
    return g ** l * c ** (h - l)


def key_dtype(params: DerivedParams, h: int) -> np.dtype:
    """``uint64`` while every length-h key fits in 64 bits, else
    ``object`` (Python ints)."""
    return _dtype(key_space(params, h))


def _dtype(space: int) -> np.dtype:
    # The dtype of keys below ``space``.
    return _UINT64 if space <= 1 << _KEY_BITS else _OBJECT


def _cast(params: DerivedParams, h: int, keys: np.ndarray) -> np.ndarray:
    dtype = key_dtype(params, h)
    return keys if keys.dtype == dtype else keys.astype(dtype)


def _divmod(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    # (x // d, x % d).  Fixed-width arrays never go through numpy's %:
    # floor division by a scalar runs through libdivide, but the
    # remainder does one hardware divide per element, five to seven
    # times slower, so it is formed in place as x - (x // d) d.
    # Python-int keys take Python's own // and %, which beat multiplying
    # and subtracting them.
    if x.dtype == object:
        return x // d, x % d
    q = x // d
    r = q * d
    np.subtract(x, r, out=r)
    return q, r


def _mod(x: np.ndarray, d: int) -> np.ndarray:
    # x % d, by ``_divmod`` on a fixed-width array.
    return x % d if x.dtype == object else _divmod(x, d)[1]


def _ranks(r: np.ndarray) -> np.ndarray:
    # Remainders as indices: a uint64 one, below its small divisor, is
    # read in place as int64.
    return r.view(np.int64) if r.dtype == np.uint64 else r.astype(np.intp)


def spread(params: DerivedParams, h: int, keys: np.ndarray) -> tuple:
    """The keys of length-h words from the length h - 1 ``keys`` of their
    flat predecessors, split once per predecessor: ``(bases, rows,
    moves)``, so the word at position p of predecessor t's group of
    moves (see ``partition._moves``) has key ``bases[t] + moves[rows[t]
    + p]``, or ``bases[t] + moves[p]`` where ``rows`` is None.  Where ell
    keeps its value at h, a word appends the column of rank p in gy to
    its predecessor's tail.  Where it rises, the predecessor's top tail
    digit j leaves the tail for a new last cell (gx[j][p // |gy|], j),
    and the column of rank ``p % |gy|`` is appended; a predecessor
    without a tail (n = m) appends the cell of rank p.  Only that middle
    case, a promotion, has ``rows``."""
    lay = _layout(params)
    keys = _cast(params, h, keys)
    t = h - 1 - ell(params, h - 1)
    rises = ell(params, h) + t > h - 1
    if not (rises and t):
        radix = lay.g if rises else lay.c
        return keys * radix, None, np.arange(radix, dtype=keys.dtype)
    below = lay.c ** (t - 1)            # the span of the tail under its top
    head, rest = _divmod(keys, below)
    head, top = _divmod(head, lay.c)
    # What each move adds under the head, by top digit and position: the
    # new cell, then the tail below the top digit, then the new column.
    moves = (lay.promote.astype(keys.dtype)[:, :, None] * (below * lay.c)
             + np.arange(lay.c, dtype=keys.dtype)).reshape(lay.c, -1)
    return ((head * (lay.g * below) + rest) * lay.c,
            _ranks(top) * moves.shape[1], moves.ravel())


def _split(params: DerivedParams, h: int, keys: np.ndarray) -> tuple:
    # Length-h keys as the cells before the last, the last cell's rank,
    # the tail, and the tail's span |gy|^(h - ell(h)).
    g, c = _layout(params)[:2]
    span = c ** (h - ell(params, h))
    head, tail = _divmod(keys, span)
    head, last = _divmod(head, g)
    return head, _ranks(last), tail, span


def _stems(params: DerivedParams, h: int, keys: np.ndarray) -> tuple:
    # The family stems of length-h keys, and each key's last cell rank.
    head, last, tail, span = _split(params, h, keys)
    lay = _layout(params)
    head *= lay.c
    head += lay.col_rank[lay.cells[:, 1]][last]
    head *= span
    head += tail
    return head, last


def family_stems(params: DerivedParams, h: int,
                 keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys of length-h words less their last cell's x digit, and that
    x digit as ``uint8``.  A stem holds the cells before the last cell,
    its column, then the tail, read in the key layout, so stems sort as
    those digit strings do.  Splits a ``_CHUNK`` of keys at a time,
    which bounds its scratch."""
    stems = np.empty_like(keys)
    xs = np.empty(len(keys), np.uint8)
    x_of = _layout(params).cells[:, 0].astype(np.uint8)
    for lo in range(0, len(keys), _CHUNK):
        stem, last = _stems(params, h, keys[lo:lo + _CHUNK])
        stems[lo:lo + _CHUNK] = stem
        xs[lo:lo + _CHUNK] = x_of[last]
    return stems, xs


def stem_columns(params: DerivedParams, h: int,
                 stems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last cell's column and the last tail digit of each length-h
    family stem, as ``uint8``."""
    lay = _layout(params)
    span = lay.c ** (h - ell(params, h))
    cols = lay.cols.astype(np.uint8)
    return (cols[_ranks(_mod(stems // span, lay.c))],
            cols[_ranks(_mod(stems, lay.c))])


def block_predecessor(params: DerivedParams, h: int,
                      keys: np.ndarray) -> np.ndarray:
    """The key of each length-h word's blockwise predecessor: the last
    tail digit goes, or where ell falls at h - 1 the last cell."""
    g, c = _layout(params)[:2]
    l = ell(params, h)
    if ell(params, h - 1) == l:
        return _cast(params, h - 1, keys // c)
    span = c ** (h - l)
    return _cast(params, h - 1, keys // (g * span) * span + _mod(keys, span))


def flat_predecessor(params: DerivedParams, h: int,
                     keys: np.ndarray) -> np.ndarray:
    """The key of each length-h word's flat predecessor, the length h - 1
    word whose square contains its square: where ell falls at h - 1 its
    last cell becomes a column digit on top of the tail."""
    if ell(params, h - 1) == ell(params, h) or ell(params, h) == h:
        return block_predecessor(params, h, keys)
    return _cast(params, h - 1,
                 _stems(params, h, keys)[0] // _layout(params).c)


def swap_tail(params: DerivedParams, h: int, stems: np.ndarray,
              xs: np.ndarray) -> np.ndarray:
    """The length-h keys of family stems with the last cell's column
    digit and the last tail digit interchanged, and the last cell's x
    digit set to ``xs``.  Builds a ``_CHUNK`` of keys at a time, which
    bounds its scratch."""
    lay = _layout(params)
    span = lay.c ** (h - ell(params, h))
    out = np.empty_like(stems)
    for lo in range(0, len(stems), _CHUNK):
        # A stem is the cells before the last, the last cell's column
        # j_l, then the tail, which ends in j_t.
        keys, tail = _divmod(stems[lo:lo + _CHUNK], span)
        keys, j_l = _divmod(keys, lay.c)
        tail, j_t = _divmod(tail, lay.c)
        keys *= lay.g
        keys += lay.cell_rank[xs[lo:lo + _CHUNK]
                              + params.n * lay.cols[_ranks(j_t)]]
        keys *= span // lay.c
        keys += tail
        keys *= lay.c
        keys += j_l
        out[lo:lo + _CHUNK] = keys
    return out


def member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each key occurs in ``sorted_keys``, an ascending array of
    keys of the same length and dtype; all False when it is empty."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    return sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == keys


class KeySet:
    """The distinct keys of one length h, gathered from key arrays.

    ``size`` is the number of keys that will be gathered.  While the
    length's keys are ``uint64`` and ``key_space(params, h)`` is at most
    ``_SLOTS`` slots per key gathered, the set is a bool table over the
    key space (``dense``), no more bytes than a sorted ``uint64`` copy
    of the keys: adding keys is one index assignment and a lookup one
    ``take``, which needs no bounds mask, since every length-h key is
    below the key space.  Otherwise it holds ascending runs of distinct
    keys, one per array added, and a lookup is a binary search in each run.
    """

    __slots__ = ("dtype", "dense", "_table", "_runs", "_gathered")

    def __init__(self, params: DerivedParams, h: int, size: int):
        space = key_space(params, h)
        self.dtype = _dtype(space)
        self.dense = self.dtype == np.uint64 and space <= _SLOTS * size
        self._table = np.zeros(space, dtype=bool) if self.dense else None
        self._runs: list[np.ndarray] = []
        self._gathered = 0

    def add(self, keys: np.ndarray, ascending: bool = False) -> None:
        """Gather length-h keys.  Off the table, each array becomes a
        run: sorted and its repeats dropped, or taken as it is when it
        is already ``ascending`` and distinct."""
        self._gathered += len(keys)
        if self.dense:
            self._table[keys.view(np.int64)] = True
        elif len(keys):
            # The default sort: faster than timsort on keys in walk
            # order, and it needs no buffer beside the copy.
            self._runs.append(keys if ascending
                              else _distinct(np.sort(keys)))

    def _run(self) -> np.ndarray:
        # The runs as one: sorted as one, a merge of sorted runs for the
        # stable sort, and their repeats dropped.
        if len(self._runs) > 1:
            run = np.concatenate(self._runs)
            self._runs = []
            run.sort(kind="stable")
            self._runs = [_distinct(run)]
        return self._runs[0] if self._runs else np.empty(0, self.dtype)

    @property
    def repeats(self) -> bool:
        """Whether some key was gathered more than once."""
        return (np.count_nonzero(self._table) if self.dense
                else len(self._run())) < self._gathered

    def keys(self) -> np.ndarray:
        """The distinct keys, ascending."""
        if self.dense:
            return np.flatnonzero(self._table).view(np.uint64)
        return self._run()

    def member(self, query: np.ndarray) -> np.ndarray:
        """Whether each length-h key of ``query`` is in the set."""
        if self.dense:
            return self._table.take(query.view(np.int64))
        if len(self._runs) == 1:
            return member(self._runs[0], query)
        found = np.zeros(len(query), dtype=bool)
        for run in self._runs:
            found |= member(run, query)
        return found


def predecessor_member(params: DerivedParams, h: int, keys: np.ndarray,
                       covered: KeySet) -> np.ndarray:
    """Whether each length-h key's blockwise predecessor is in the key
    set ``covered`` of length h - 1, a ``_CHUNK`` of keys at a time."""
    found = np.empty(len(keys), dtype=bool)
    for lo in range(0, len(keys), _CHUNK):
        found[lo:lo + _CHUNK] = covered.member(
            block_predecessor(params, h, keys[lo:lo + _CHUNK]))
    return found


def _distinct(sorted_keys: np.ndarray) -> np.ndarray:
    # An ascending key array less its repeats.
    if len(sorted_keys) < 2:
        return sorted_keys
    keep = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=keep[1:])
    return sorted_keys[keep]


def _equal_pairs(sorted_keys: np.ndarray,
                 keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (key index, sorted index) for every key and every entry of the
    # ascending ``sorted_keys`` equal to it.
    lo = np.searchsorted(sorted_keys, keys)
    counts = np.searchsorted(sorted_keys, keys, side="right") - lo
    starts = np.cumsum(counts) - counts
    at = np.arange(counts.sum()) + np.repeat(lo - starts, counts)
    return np.repeat(np.arange(len(keys)), counts), at


def entropy_terms(nus: Sequence[int], h: int, L: int) -> list[float]:
    """mass * log(mass) per scaled mass nu of a length-h table, mass = nu / L^h."""
    log_masses = [math.log(nu) - h * math.log(L) for nu in nus]
    return [math.exp(log_mass) * log_mass for log_mass in log_masses]


def class_counts(ids: np.ndarray, size: int) -> list[int]:
    """The word count of each of ``size`` classes.  ``bincount`` widens
    ids to ``intp``, so they are counted a ``_CHUNK`` at a time."""
    counts = np.zeros(size, dtype=np.int64)
    for lo in range(0, len(ids), _CHUNK):
        counts += np.bincount(ids[lo:lo + _CHUNK], minlength=size)
    return counts.tolist()


def class_entropy(counts: Sequence[int], terms: Sequence[float]) -> Fraction:
    """The exact sum of mass * log(mass) over words: per class, its word
    count times its ``entropy_terms`` term, as a fraction.  Rounded once,
    it equals ``math.fsum`` of the per-word terms."""
    return sum((c * Fraction(t) for c, t in zip(counts, terms) if c),
               Fraction(0))


def mass_sums(L: int, nu_sums: dict[int, int]) -> tuple[Fraction, Fraction]:
    """The exact total mass and mass-weighted length of a per-length
    profile, mass_h = nu_sums[h] / L^h: summed over the common
    denominator L^h_max, with no gcd per length."""
    top = max(nu_sums, default=0)
    scaled = {h: s * L ** (top - h) for h, s in nu_sums.items()}
    return (Fraction(sum(scaled.values()), L ** top),
            Fraction(sum(h * s for h, s in scaled.items()), L ** top))


class WordColumns:
    """A word store keyed by word length.

    ``blocks`` maps each occupied length h, in ascending order, to a
    triple ``(keys, ids, nus)``: one key per word, of ``key_dtype`` and
    below ``key_space``, an unsigned class id per word, and a table of
    the length's exact scaled masses (Python ints; an entry may have no
    word): word t has mass nus[ids[t]] / L^h.  Word indices run in this
    length-major order; ``offsets[h]`` is the index of the first
    length-h word.  The counts, the length window, the exact mass
    aggregates and each length's exact sum of mass * log(mass) (class
    count times ``entropy_terms``, as a fraction) are derived once,
    here, so no consumer regroups words by length.
    """

    def __init__(self, params: DerivedParams,
                 blocks: dict[int, tuple[np.ndarray, np.ndarray, list[int]]]):
        L = params.denom_lcm
        for h, (keys, ids, nus) in blocks.items():
            dtype, space = key_dtype(params, h), key_space(params, h)
            if not (isinstance(keys, np.ndarray) and keys.dtype == dtype
                    and isinstance(ids, np.ndarray) and ids.dtype.kind == "u"
                    and keys.shape == ids.shape == (len(ids),)
                    and (ids < len(nus)).all()
                    and (dtype != object
                         or all(type(key) is int for key in keys.tolist()))
                    and (not len(keys) or 0 <= int(keys.min())
                         and int(keys.max()) < space)):
                raise WordError(
                    f"length-{h} block needs {dtype} keys below {space}, each "
                    f"with an unsigned class id below {len(nus)}")
        self.params = params
        self.blocks = {h: b for h, b in sorted(blocks.items()) if len(b[1])}
        self.length_counts = {h: len(b[1]) for h, b in self.blocks.items()}
        counts = {h: class_counts(ids, len(nus))
                  for h, (_, ids, nus) in self.blocks.items()}
        self.length_nu_sums = {
            h: sum(c * nu for c, nu in zip(counts[h], nus))
            for h, (_, _, nus) in self.blocks.items()}
        self.length_entropy_sums = {
            h: class_entropy(counts[h], entropy_terms(nus, h, L))
            for h, (_, _, nus) in self.blocks.items()}
        self.offsets: dict[int, int] = {}
        self.size = 0
        for h, count in self.length_counts.items():
            self.offsets[h] = self.size
            self.size += count
        self.l_min = min(self.blocks, default=0)
        self.l_max = max(self.blocks, default=0)
        self.mass_total, self.mass_len_total = mass_sums(L,
                                                         self.length_nu_sums)

    def __len__(self) -> int:
        return self.size

    def matching_pairs(self, predecessor: Callable
                       ) -> tuple[tuple[int, int], ...]:
        """Sorted index pairs (a, b), a < b, of words that match.

        A length-h word b matches a word a of length hp < h when walking
        b down by ``predecessor``, one step per length, reaches a's key
        at hp, and a word of its own length when the two keys are
        equal.  All words are walked down together, one length at a
        time (``ancestors``), so the work is about the size of the
        ancestor tree, not words times the length window.  At each
        length a ``KeySet`` of its own keys finds equal keys and the
        longer words' ancestors among them; it is dropped before the
        next length.  Only once some key has matched is the walk run
        again, its pools kept, to list the pairs (``_listed_pairs``).
        """
        if not any(self._clashes(h, pool)
                   for h, pool in self.ancestors(predecessor, self.l_min)):
            return ()
        return self._listed_pairs(
            predecessor, dict(self.ancestors(predecessor, self.l_min)))

    def ancestors(self, predecessor: Callable, stop: int
                  ) -> Iterator[tuple[int, np.ndarray]]:
        """(h, pool) for h from l_max down to ``stop``: the distinct
        length-h keys that the longer words reach, ascending.  The pool
        one length down is the ``KeySet`` of one predecessor step of this
        pool and of the length's own keys, gathered a _CHUNK at a time;
        only its keys outlive the step."""
        params = self.params
        pool = np.empty(0, key_dtype(params, self.l_max))
        for h in range(self.l_max, stop - 1, -1):
            yield h, pool
            if h == stop:
                return
            own = self.blocks.get(h, (pool[:0],))[0]
            found = KeySet(params, h - 1, len(pool) + len(own))
            for keys in (pool, own):
                for lo in range(0, len(keys), _CHUNK):
                    found.add(predecessor(params, h, keys[lo:lo + _CHUNK]))
            pool = found.keys()
            del found

    def _clashes(self, h: int, pool: np.ndarray) -> bool:
        # Whether two length-h keys are equal or one is in ``pool``.
        keys = self.blocks.get(h, (pool[:0],))[0]
        own = KeySet(self.params, h, len(keys))
        own.add(keys)
        return own.repeats or any(
            own.member(pool[lo:lo + _CHUNK]).any()
            for lo in range(0, len(pool), _CHUNK))

    def _below(self, predecessor: Callable, h: int, keys: np.ndarray,
               marks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (key index, mark index) for every length-h key and every entry
        # of the ascending ``marks`` equal to its predecessor.
        found, at = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        for lo in range(0, len(keys), _CHUNK):
            q, a = _equal_pairs(
                marks, predecessor(self.params, h, keys[lo:lo + _CHUNK]))
            found.append(q + lo)
            at.append(a)
        return np.concatenate(found), np.concatenate(at)

    def _listed_pairs(self, predecessor: Callable,
                      pools: dict[int, np.ndarray]
                      ) -> tuple[tuple[int, int], ...]:
        # The pairs, walking up from l_min with each length's pool from
        # ``ancestors``.  ``marks`` holds, ascending, every pool key of
        # the length below that walks down to a shorter word's key or is
        # one, once per such word, whose index is in ``marked``: a word of
        # the next length pairs with the marked words of its predecessor.
        pairs: list[tuple[int, int]] = []
        marks = pools[self.l_min][:0]
        marked = np.empty(0, np.intp)
        for h in range(self.l_min, self.l_max + 1):
            pool, base = pools[h], self.offsets.get(h, 0)
            keys = self.blocks.get(h, (pool[:0],))[0]
            b, at = self._below(predecessor, h, keys, marks)
            pairs.extend(zip(marked[at].tolist(), (b + base).tolist()))
            # Equal keys within the length.
            order = np.argsort(keys, kind="stable")
            b, at = _equal_pairs(keys[order], keys)
            a = order[at]
            pairs.extend(zip((a[a < b] + base).tolist(),
                             (b[a < b] + base).tolist()))
            # Marks for the next length: pool keys with a marked
            # predecessor, and this length's words that are in the pool.
            e, at = self._below(predecessor, h, pool, marks)
            own = np.flatnonzero(member(pool, keys))
            marks = np.concatenate((pool[e], keys[own]))
            marked = np.concatenate((marked[at], own + base))
            order = np.argsort(marks, kind="stable")
            marks, marked = marks[order], marked[order]
        return tuple(sorted(pairs))
