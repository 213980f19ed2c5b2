"""Stopping-time partitions of the carpet address space.

For a threshold ratio eta = p_min * q_min, the level-k partition
collects every word sigma whose mass first drops below eta^k:

    mass(flat_predecessor(sigma)) >= eta^k > mass(sigma),

where the flat predecessor of a length-h word is the length h - 1 word
whose square contains its square.  Each address ray crosses this
frontier exactly once, so the collected squares tile the carpet and
their masses sum to one exactly.  The enumerator walks the
flat-predecessor tree one length at a time; every prune and emit
decision is an exact integer comparison on scaled masses
nu = mass * L^len (L the common weight denominator), so the boundary
case mass == eta^k needs no padding and is decided strictly.  The same
moves give, with no word enumerated, the aggregate program's profile
and the rule as tables over a sample's digits (``stopping_rule``).

The construction is well defined for every k >= 1 even though the
asymptotic statements about it kick in only for k >= 1/theta.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measure import DerivedParams
from .words import (
    WordColumns, ell, flat_predecessor, key_dtype, mass_sums, step,
)

__all__ = [
    "DEFAULT_CAP",
    "MAX_DP_STATES",
    "EnumerationCapError",
    "PartitionLambdaK",
    "PartitionStats",
    "StoppedStats",
    "DisjointnessReport",
    "enumerate_lambda_k",
    "stopped_statistics",
    "stopping_rule",
    "partition_stats",
    "check_square_disjointness",
]

DEFAULT_CAP = 10_000_000
MAX_DP_STATES = 1_000_000

_CHUNK = 1 << 12            # parents expanded at once: bounds the walk's scratch


class EnumerationCapError(RuntimeError):
    """A work guard tripped: the enumerator's word cap, the DP's state
    bound or the most digits a quantize sample holds."""


def _moves(params: DerivedParams) -> dict:
    """The integer transitions of the stopping rule, by group and position.

    ``moves[rises][g]`` lists, by position, group g's moves of a step that
    does (``rises``) or does not grow the pair count, each as (factor,
    divisor, digit): the child's scaled mass is nu * factor / divisor and
    it appends the column ``digit`` to its tail.  ``[False][0]`` appends
    the column of each rank in gy.  Where the count rises, group g
    promotes the pending column j = gy[g] into a cell (i, j) and appends
    a column jj, at position rank(i in gx[j]) |gy| + rank(jj).  Words
    without a tail (theta = 1) have one such group, which appends the
    cell of each rank in the digit set.
    """
    a, b = params.scaled
    if ell(params, 1) == 1:
        rise = [[(w, 1, j) for (_, j), w in a.items()]]
    else:
        rise = [[(a[i, j] * b[jj], b[j], jj)
                 for i in params.gx[j] for jj in params.gy]
                for j in params.gy]
    return {False: [[(b[j], 1, j) for j in params.gy]], True: rise}


class PartitionLambdaK(WordColumns):
    """One collected stopping-time partition.

    Words are stored per length as integer keys, class ids and a table
    of scaled integer masses nu, with mass = nu / L^length.  The word
    count ``phi_k`` and the length window ``[xi_min, xi_max]`` are the
    store's size and length window.  The entropy sum rounds each
    length's exact sum once, then adds the lengths with ``math.fsum``.
    """

    def __init__(self, params: DerivedParams, k: int, blocks: dict):
        super().__init__(params, blocks)
        self.k = k
        self.phi_k, self.xi_min, self.xi_max = self.size, self.l_min, self.l_max
        self.entropy_sum = math.fsum(map(float,
                                         self.length_entropy_sums.values()))


def enumerate_lambda_k(
    params: DerivedParams,
    k: int,
    *,
    cap: int = DEFAULT_CAP,
) -> PartitionLambdaK:
    """Collect the level-k partition with exact per-word masses.

    The walk is breadth first, one word length at a time, down the
    tables of ``stopping_rule``: a parent of class c takes positions
    0, ..., fan - 1 of its group's moves, its child's class is
    ``table[c, position]``, and the child stops where that class is
    stopped, with the rule's stopped masses as the stored mass table.
    Children come in parent order, then position order: the tree's
    depth-first order, in which each length's words are stored.  Raises
    ``EnumerationCapError`` when the level has more than ``cap`` words,
    before building the length that would pass the cap;
    ``stopped_statistics`` aggregates levels too large to collect.
    """
    blocks: dict[int, tuple[np.ndarray, np.ndarray, list[int]]] = {}
    # The empty word, at length 0; its children are the roots.
    keys = np.zeros(1, dtype=np.uint64)
    cls = np.zeros(1, dtype=np.intp)
    emitted = 0
    for h, (rises, table, _, fans, above, nus) in enumerate(
            stopping_rule(params, [k])[1], 1):
        live = len(above) - len(nus)
        fan = fans[cls]
        children = int(fan.sum())
        # Every child is a word or has one below it.
        if emitted + children > cap:
            raise EnumerationCapError(
                f"enumeration exceeded cap of {cap} words")

        # Each class's stopped children, times its parents, size the
        # length's arrays exactly.
        halts = ((table >= live)
                 & (np.arange(table.shape[1]) < fans[:, None])).sum(axis=1)
        stopping = int(np.bincount(cls, minlength=len(fans)) @ halts)

        dtype = key_dtype(params, h)
        done = np.empty(stopping, dtype=dtype)
        done_ids = np.empty(stopping, dtype=np.min_scalar_type(len(nus)))
        walk = np.empty(children - stopping, dtype=dtype)
        walk_cls = np.empty(len(walk), dtype=np.intp)
        walked = doned = 0
        for lo in range(0, len(keys), _CHUNK):
            f = fan[lo:lo + _CHUNK]
            parent = np.repeat(np.arange(lo, lo + len(f)), f)
            position = np.arange(len(parent)) - np.repeat(np.cumsum(f) - f, f)
            child = table[cls[parent], position]
            grown = step(params, h, keys[parent], position)
            stopped = child >= live
            sel = np.flatnonzero(stopped)
            span = slice(doned, doned + len(sel))
            done[span] = grown[sel]
            done_ids[span] = child[sel] - live
            doned += len(sel)
            sel = np.flatnonzero(~stopped)
            span = slice(walked, walked + len(sel))
            walk[span] = grown[sel]
            walk_cls[span] = child[sel]
            walked += len(sel)

        # An empty block is dropped by the store.
        emitted += stopping
        blocks[h] = (done, done_ids, nus)
        cls, keys = walk_cls, walk
    return PartitionLambdaK(params, k, blocks)


@dataclass(frozen=True)
class StoppedStats:
    """Exact aggregates of a partition, computed without materializing it:
    the per-length profile ``length_counts`` and ``length_nu_sums``, as on
    ``WordColumns``, and the count, window and mass sums derived from it."""

    params: DerivedParams
    k: int
    entropy_sum: float
    length_counts: dict[int, int]
    length_nu_sums: dict[int, int]

    @property
    def phi_k(self) -> int:
        return sum(self.length_counts.values())

    @property
    def xi_min(self) -> int:
        return min(self.length_counts)

    @property
    def xi_max(self) -> int:
        return max(self.length_counts)

    @property
    def mass_total(self) -> Fraction:
        return mass_sums(self.params.denom_lcm, self.length_nu_sums)[0]

    @property
    def mass_len_total(self) -> Fraction:
        return mass_sums(self.params.denom_lcm, self.length_nu_sums)[1]


def stopped_statistics(params: DerivedParams, k: int) -> StoppedStats:
    """Aggregate the level-k partition by dynamic programming over the
    classes of ``stopping_rule``.

    The words of a live class have identical futures, so a forward pass
    down the rule's tables counts each live class's words, and adds up
    the words, and their exact nus, that stop at each length: the
    profile.  A backward pass, deepest first, folds each live class's
    R1, the sum of r ln r over its stopped descendants of relative mass
    r, from its children in position order; it is the only float
    arithmetic.  (Those r add up to exactly 1.)  Agrees with the
    enumerator wherever both run (see tests).  Raises
    ``EnumerationCapError`` past ``MAX_DP_STATES`` live classes.
    """
    L = params.denom_lcm
    # Per step, group and position: the move's relative mass f and
    # log f, both 0 past the group's moves.
    rel, logs = {}, {}
    for rises, groups in _moves(params).items():
        pad = max(map(len, groups))
        rel[rises], logs[rises] = (np.array(
            [[fn(factor / (divisor * L)) for factor, divisor, _ in group]
             + [0.0] * (pad - len(group)) for group in groups])
            for fn in (float, math.log))
    tables = []
    counts = [1]                        # the empty word
    length_counts, nu_sums = {}, {}     # the profile
    states = 0
    for h, (rises, table, groups, fans, above, nus) in enumerate(
            stopping_rule(params, [k])[1], 1):
        live = len(above) - len(nus)
        states += live
        if states > MAX_DP_STATES:
            raise EnumerationCapError(
                f"stopped_statistics exceeded {MAX_DP_STATES} states")
        words = [0] * len(above)
        for count, row, fan in zip(counts, table.tolist(), fans.tolist()):
            for child in row[:fan]:
                words[child] += count
        if nus:
            length_counts[h] = sum(words[live:])
            nu_sums[h] = sum(w * nu for w, nu in zip(words[live:], nus))
        counts = words[:live]
        tables.append((rises, table, groups, len(above)))

    # R1 of each live class, from the deepest length up; a stopped child
    # adds r ln r = f ln f.  The loop ends at the roots, the moves of the
    # empty word's one row, whose terms are added exactly (a position
    # past the group's moves adds 0).
    below = np.zeros(0)
    for rises, table, groups, size in reversed(tables):
        r = np.zeros(size)
        r[:len(below)] = below
        f, log_f = rel[rises][groups], logs[rises][groups]
        below = np.zeros(len(table))
        for p in range(table.shape[1]):
            below += f[:, p] * (r[table[:, p]] + log_f[:, p])
    return StoppedStats(
        params, k,
        math.fsum((f[0] * r[table[0]] + f[0] * log_f[0]).tolist()),
        length_counts, nu_sums)


def stopping_rule(params: DerivedParams, ks) -> tuple:
    """The stopping rule of the levels ``ks`` as ``(picks, rule)``, the
    only code that steps a class's exact mass or compares it with eta^k:
    the enumerator, the aggregate program and ``locate`` walk its tables.

    A class of length h is live while its exact scaled mass nu is at or
    above some level's eta^k.  A live class is keyed by nu and its
    pending tail columns, each kept as the first column whose ordered
    promotion factors it shares, so the words of a live class have
    identical futures; a stopped class is keyed by nu alone.  A class is
    made only by a move that a word of its parent class makes, so each
    class holds a word or a live prefix of one, and the rule ends at the
    deepest level's longest word.

    ``rule`` yields ``(rises, table, groups, fans, above, nus)`` for
    h = 1, 2, ... while some class is live.  Live class c of length
    h - 1 takes the ``fans[c]`` moves of group ``groups[c]`` of
    ``_moves``: its first pending column's where ell rises at h, else
    the step's only group.  ``table[c, p]`` (``intp``, a row per live
    class of length h - 1, as are ``groups`` and ``fans``) is the class
    after the move at position p of that group; entries past a group's
    moves are 0.  Classes of length h number the live ones first:
    ``above[c]`` is the number of levels whose eta^k class c is
    still at or above, the deepest ones, and ``nus[c - live]`` is the
    exact scaled mass of stopped class c.

    A sample's digits pick each position: ``picks[False][b]`` is the
    position of map index b at a length that keeps ell, and
    ``picks[True][a, b]`` that of map index b where ell rises and
    promotes the cell of map index a (``intp``).  Raises ``ValueError``,
    before any table is built, unless each k is an ``int`` (not a
    ``bool``) of at least 1.
    """
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ValueError(f"need k >= 1, got {k!r}")
    L = params.denom_lcm
    moves = _moves(params)
    c = len(params.gy)
    rank = {j: r for r, j in enumerate(params.gy)}
    tails = ell(params, 1) == 0
    cells = params.spec.digits
    ys = np.array([rank[j] for _, j in cells], dtype=np.intp)
    xs = np.array([params.gx[j].index(i) for i, j in cells], dtype=np.intp)
    # Without a tail, map index a appends its own cell, of rank a.
    picks = {False: ys, True: np.add.outer(xs * c, ys) if tails
             else np.add.outer(np.arange(len(cells)), 0 * ys)}
    # A pending column is kept as the rank of the first column whose
    # ordered promotion factors it shares; words without a tail keep 0.
    first: dict = {}
    canon = [first.setdefault(tuple(Fraction(factor, divisor)
                                    for factor, divisor, _ in group), g)
             for g, group in enumerate(moves[True])] if tails else [0] * c
    width = {rises: max(map(len, groups)) for rises, groups in moves.items()}
    fans = {rises: np.array(list(map(len, groups)), dtype=np.intp)
            for rises, groups in moves.items()}
    # nu / L^h >= eta^k exactly when nu * scale >= cut * L^h, with the
    # integer cut = eta^k * scale; ``bars`` holds the cuts times L^h.
    scale = params.eta.denominator ** max(ks)
    cuts = sorted(int(params.eta ** k * scale) for k in ks)

    def rule():
        # A live class is (nu, its pending columns as one number, read as
        # digits base |gy|, the first most significant); the empty word's
        # is (1, 0).
        live, h, bars = [(1, 0)], 0, cuts
        while live:
            h += 1
            bars = [bar * L for bar in bars]
            rises = ell(params, h) > ell(params, h - 1)
            # Where ell rises, the first pending column is promoted.
            span = c ** (h - 2 - ell(params, h - 1)) if rises and tails else 0
            groups, pad = moves[rises], width[rises]
            # Each distinct (nu, group) is stepped once: per position, its
            # child's nu, the number of levels the child is above and the
            # pending column it appends.  Live children are numbered by
            # key, stopped ones by nu, each in order of first appearance.
            stepped, ups, ids, stops = {}, {}, {}, {}
            kids, heads = [], []
            for nu, queue in live:
                g, queue = divmod(queue, span) if span else (0, queue)
                heads.append(g)
                out = stepped.get((nu, g))
                if out is None:
                    out = stepped[nu, g] = []
                    for factor, divisor, digit in groups[g]:
                        child = nu * factor // divisor
                        ups[child] = up = bisect.bisect_right(
                            bars, child * scale)
                        out.append((child, up, canon[rank[digit]]))
                # A stopped child is entered as ~(its number).
                kids.extend(ids.setdefault((child, queue * c + d), len(ids))
                            if up else ~stops.setdefault(child, len(stops))
                            for child, up, d in out)
                kids.extend([0] * (pad - len(out)))
            # Stopped classes are numbered after the live ones.
            kids = np.array(kids, dtype=np.intp).reshape(len(live), pad)
            table = np.where(kids < 0, len(ids) + ~kids, kids)
            live, nus = list(ids), list(stops)
            heads = np.array(heads, dtype=np.intp)
            yield rises, table, heads, fans[rises][heads], np.array(
                [ups[nu] for nu, _ in live] + [0] * len(nus),
                dtype=np.min_scalar_type(len(cuts))), nus

    return picks, rule()


@dataclass(frozen=True)
class PartitionStats:
    """Exact bound checks for one partition level."""

    k: int
    phi_k: int
    xi_min: int
    xi_max: int
    mass_exact: bool          # total mass == 1
    phi_window_ok: bool       # phi * eta^(k+1) <= 1 < phi * eta^k
    xi_window_ok: bool        # p_min^xi_min < eta^k <= q_max^(xi_max - 1)
    ratio_bounds_ok: bool     # every parent-to-word mass ratio in [eta, q_max]

    @property
    def ok(self) -> bool:
        return (self.mass_exact and self.phi_window_ok
                and self.xi_window_ok and self.ratio_bounds_ok)


def _ratio_bounds_hold(params: DerivedParams) -> bool:
    # Every step multiplies a word's mass by the factor of one of the
    # rule's finitely many moves; checking each move once covers every
    # word of every level exactly.
    L = params.denom_lcm
    return all(params.eta <= Fraction(factor, divisor * L) <= params.q_max
               for groups in _moves(params).values()
               for group in groups for factor, divisor, _ in group)


def partition_stats(partition) -> PartitionStats:
    """Exact invariant checks; accepts a collected partition or StoppedStats."""
    params = partition.params
    k = partition.k
    eta = params.eta
    eta_k = eta ** k
    phi = partition.phi_k
    return PartitionStats(
        k=k,
        phi_k=phi,
        xi_min=partition.xi_min,
        xi_max=partition.xi_max,
        mass_exact=partition.mass_total == 1,
        phi_window_ok=(phi * eta ** (k + 1) <= 1 < phi * eta_k),
        xi_window_ok=(
            params.p_min ** partition.xi_min < eta_k
            and eta_k <= params.q_max ** (partition.xi_max - 1)
        ),
        ratio_bounds_ok=_ratio_bounds_hold(params),
    )


@dataclass(frozen=True)
class DisjointnessReport:
    checked: int
    violations: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_square_disjointness(partition: PartitionLambdaK) -> DisjointnessReport:
    """Verify that all square interiors are pairwise disjoint, exactly.

    Grid-aligned intervals nest if and only if their digit strings are
    prefix-comparable, so interior intersection is equivalent to
    simultaneous x- and y-digit prefix nesting; no interval arithmetic
    beyond digit comparison is needed.  A length-h word can overlap a
    shorter word of length h' only if that word is its unique candidate
    (y[:h'], x[:ell(h')]), its flat predecessor at h', and a word of
    its own length only if the two are equal.  So the check is one
    level-synchronous walk (``WordColumns.matching_pairs``): all words go
    down together, one flat step per length for the distinct ancestors,
    which are looked up in a ``KeySet`` of each length's keys.
    Violations are sorted index pairs (a, b) with a < b.
    """
    return DisjointnessReport(
        checked=partition.phi_k,
        violations=partition.matching_pairs(flat_predecessor))
