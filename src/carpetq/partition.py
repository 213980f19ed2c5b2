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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .measure import DerivedParams
from .words import (
    WordColumns, ell, flat_predecessor, key_dtype, mass_sums, pending, step,
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
    """A work guard tripped: the enumerator's word cap or the DP's state bound."""


class _Move(NamedTuple):
    """One step from a length-h word to a child of length h + 1.

    The child is the parent with the cell of x digit ``x`` (if any)
    appended to its cells and ``digit`` appended to its tail.  The move
    is open to parents whose first pending tail digit is ``pending``
    (to any if None).  Its scaled mass is nu * factor / divisor.
    """

    pending: int | None
    x: int | None
    digit: int
    factor: int
    divisor: int


def _moves(params: DerivedParams) -> dict:
    """The integer transitions of the stopping rule, in its move order.

    ``moves[rises]`` lists the moves of a step that does (``rises``) or
    does not grow the pair count, by ascending ``pending`` digit:
    ``[False]`` appends a column digit; ``[True]`` promotes the pending
    digit j into a pair (i, j) and appends a column digit, or, for words
    without a tail (theta = 1), appends a whole pair.  The roots are the
    moves of the empty word.
    """
    a, b = params.scaled
    if ell(params, 1) == 1:
        rise = [_Move(None, i, j, w, 1) for (i, j), w in a.items()]
    else:
        rise = [_Move(j, i, jj, a[i, j] * b[jj], b[j])
                for j in params.gy for i in params.gx[j] for jj in params.gy]
    return {False: [_Move(None, None, j, b[j], 1) for j in params.gy],
            True: rise}


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
    tables of ``stopping_rule``: a child's mass class is the entry for
    its parent's class and its move, it stops where that class is above
    no level, and the rule's class list is the stored mass table.
    Children come in parent order, then move order: the tree's
    depth-first order, in which each length's words are stored.  Raises
    ``EnumerationCapError`` when the level has more than ``cap`` words,
    before building the length that would pass the cap;
    ``stopped_statistics`` aggregates levels too large to collect.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    promoting, m = ell(params, 1) == 0, params.m
    # Per step: each move's pending column digit (0 if unkeyed), one-hot,
    # each digit's first move and move count, and each move's x and digit.
    steps = {}
    for rises, moves in _moves(params).items():
        group = np.eye(m, dtype=np.intp)[[mv.pending or 0 for mv in moves]]
        size = group.sum(axis=0)
        steps[rises] = (group, np.cumsum(size) - size, size,
                        np.array([mv.x or 0 for mv in moves], dtype=np.intp),
                        np.array([mv.digit for mv in moves], dtype=np.intp))

    blocks: dict[int, tuple[np.ndarray, np.ndarray, list[int]]] = {}
    # The empty word, at length 0; its children are the roots.
    keys = np.zeros(1, dtype=np.uint64)
    cls = np.zeros(1, dtype=np.intp)
    emitted = 0
    for h, (rises, table, above, nus) in enumerate(
            stopping_rule(params, [k])[1], 1):
        if not len(keys):
            break
        group, first, size, xs, digits = steps[rises]
        # Each parent's pending column digit (0 if nothing is pending).
        tops = (pending(params, h - 1, keys) if rises and promoting
                else np.zeros(len(keys), dtype=np.intp))
        fan = size[tops]
        children = int(fan.sum())
        # Every child is a word or has one below it.
        if emitted + children > cap:
            raise EnumerationCapError(
                f"enumeration exceeded cap of {cap} words")

        # The stopped children of each class and pending digit, times
        # the parents of that kind, size the length's arrays exactly.
        stops = above == 0
        halts = stops[table] @ group
        stopping = int(np.bincount(cls * m + tops, minlength=halts.size)
                       @ halts.ravel())

        dtype = key_dtype(params, h)
        done = np.empty(stopping, dtype=dtype)
        done_ids = np.empty(stopping, dtype=np.min_scalar_type(len(nus)))
        live = np.empty(children - stopping, dtype=dtype)
        live_cls = np.empty(len(live), dtype=np.intp)
        lived = doned = 0
        for lo in range(0, len(keys), _CHUNK):
            f = fan[lo:lo + _CHUNK]
            parent = np.repeat(np.arange(lo, lo + len(f)), f)
            move = np.arange(len(parent)) + np.repeat(
                first[tops[lo:lo + _CHUNK]] - np.cumsum(f) + f, f)
            child = table[cls[parent], move]
            grown = step(params, h, keys[parent], xs[move], digits[move])
            stopped = stops[child]
            sel = np.flatnonzero(stopped)
            span = slice(doned, doned + len(sel))
            done[span] = grown[sel]
            done_ids[span] = child[sel]
            doned += len(sel)
            sel = np.flatnonzero(~stopped)
            span = slice(lived, lived + len(sel))
            live[span] = grown[sel]
            live_cls[span] = child[sel]
            lived += len(sel)

        # An empty block is dropped by the store.  Live classes come
        # first, so they number the next length's table rows.
        emitted += stopping
        blocks[h] = (done, done_ids, nus)
        cls, keys = live_cls, live
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
    """Aggregate the level-k partition by dynamic programming.

    Subtrees of the walk coincide whenever the current length, the mass
    class of ``stopping_rule`` and the pending tail columns (each as the
    first column with its promotion factors) coincide.  A forward pass
    down the rule's tables collects each length's live states with their
    word counts, and adds up the words, and their exact nus, that stop
    at each length: the profile.  A backward pass, deepest first, folds
    each state's R1, the sum of r ln r over its stopped descendants of
    relative mass r, from its children; it is the only float arithmetic.
    (Those r add up to exactly 1.)  Agrees with the enumerator wherever
    both run (see tests).  Raises ``EnumerationCapError`` past
    ``MAX_DP_STATES`` states.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    L = params.denom_lcm
    moves = _moves(params)
    paired = ell(params, 1) == 1
    # Columns whose ordered promotion factors agree have identical
    # futures; each maps to the first column of its class.
    first: dict = {}
    canon = {j: first.setdefault(tuple(
        Fraction(mv.factor, mv.divisor) for mv in moves[True]
        if mv.pending == j), j) for j in params.gy}
    # Per step and pending column, each move's (index in the rule's
    # tables, relative mass as a float, its log, appended tail).
    steps: dict = {False: {}, True: {}}
    for rises, flat in moves.items():
        for index, mv in enumerate(flat):
            f = float(Fraction(mv.factor, mv.divisor * L))
            steps[rises].setdefault(mv.pending, []).append(
                (index, f, math.log(f), () if paired else (canon[mv.digit],)))
    # The rule's (rises, table, above, nus) into length h + 1, by h,
    # read as far as the states reach.
    rule = ((rises, table.tolist(), above.tolist(), nus)
            for rises, table, above, nus in stopping_rule(params, [k])[1])
    tables = [next(rule)]

    def expand(h: int, c: int, queue: tuple) -> list:
        # Each move from a length-h state, with its child's class and its
        # child state, or None if the child stops.
        rises, table, above, _ = tables[h]
        if rises and queue:
            base, opts = queue[1:], steps[True][queue[0]]
        else:
            base, opts = queue, steps[rises][None]
        return [(move, child,
                 (child, base + move[3]) if above[child] else None)
                for move in opts for child in [table[c][move[0]]]]

    # The roots are the moves of the empty word, at length 0; none stops,
    # since its mass is at least eta >= eta^k.
    roots = [(move, state) for move, _, state in expand(0, 0, ())]
    levels: list[dict] = []
    frontier = Counter(root for _, root in roots)
    counts, nu_sums = {}, {}            # the profile
    while frontier:
        levels.append(frontier)
        if sum(map(len, levels)) > MAX_DP_STATES:
            raise EnumerationCapError(
                f"stopped_statistics exceeded {MAX_DP_STATES} states")
        h, frontier = len(levels), Counter()
        tables.append(next(rule))
        nus = tables[h][3]
        for (c, queue), count in levels[-1].items():
            for _, child, state in expand(h, c, queue):
                if state is None:
                    counts[h + 1] = counts.get(h + 1, 0) + count
                    nu_sums[h + 1] = nu_sums.get(h + 1, 0) + count * nus[child]
                else:
                    frontier[state] += count

    # rel[state]: its R1; a stopped child adds r ln r = f ln f.
    rel: dict = {}
    while levels:
        h, below, rel = len(levels), rel, {}
        for state in levels.pop():
            rel[state] = 0.0
            for (_, f, log_f, _), _, child in expand(h, *state):
                rel[state] += f * (below.get(child, 0.0) + log_f)

    return StoppedStats(
        params, k,
        math.fsum(move[1] * rel[root] + move[1] * move[2]
                  for move, root in roots),
        counts, nu_sums)


def stopping_rule(params: DerivedParams, ks) -> tuple:
    """The stopping rule of the levels ``ks`` as ``(picks, rule)``, the
    only code that steps a class's exact mass or compares it with eta^k:
    the enumerator, the aggregate program and ``locate`` walk its tables.

    A sample's digits pick each move of ``_moves``: ``picks[False][b]``
    is the index of the move that map index b makes at a length that
    keeps ell, and ``picks[True][a, b]`` that of map index b where ell
    rises and promotes the cell of map index a (``intp``).  ``rule`` yields
    ``(rises, table, above, nus)`` for h = 1, 2, ... while some class is
    live.  Class c of length h has the exact scaled mass ``nus[c]``, and
    ``above[c]`` is the number of levels whose eta^k it is still at or
    above, the deepest ones; live classes come first.  ``table[c, move]``
    (``intp``, a row per class of length h - 1) is the class after
    ``move``.  A pair whose division is not exact is one no word takes
    (a move for another pending column): its entry is 0 and it makes no
    class, so every nu is positive.  Rows of classes above no level are 0.
    """
    L = params.denom_lcm
    moves = _moves(params)
    # A rising move is keyed by the cell it promotes and its new y digit;
    # one with no pending digit (theta = 1) promotes its own cell.
    keep = {mv.digit: i for i, mv in enumerate(moves[False])}
    rise = {(mv.x, mv.digit if mv.pending is None else mv.pending, mv.digit): i
            for i, mv in enumerate(moves[True])}
    cells = params.spec.digits
    picks = {False: np.array([keep[y] for _, y in cells], dtype=np.intp),
             True: np.array([[rise.get((a, b, y), 0) for _, y in cells]
                             for a, b in cells], dtype=np.intp)}
    # nu / L^h >= eta^k exactly when nu * scale >= cut * L^h, with the
    # integer cut = eta^k * scale; ``bars`` holds the cuts times L^h.
    scale = params.eta.denominator ** max(ks)
    cuts = sorted(int(params.eta ** k * scale) for k in ks)

    def rule():
        nus, live, h, bars = [1], 1, 0, cuts    # the empty word's class
        while live:
            h += 1
            bars = [bar * L for bar in bars]
            rises = ell(params, h) > ell(params, h - 1)
            # Each live class's child by move: the index of its exact nu
            # in order of first appearance, or -1.
            ids: dict = {}
            kids = [ids.setdefault(child, len(ids)) if not rest else -1
                    for nu in nus[:live] for mv in moves[rises]
                    for child, rest in [divmod(nu * mv.factor, mv.divisor)]]
            above = [bisect.bisect_right(bars, nu * scale) for nu in ids]
            order = sorted(range(len(ids)), key=lambda c: not above[c])
            # Renumbered live first; -1 reads the last 0.
            renumber = [0] * (len(ids) + 1)
            for new, c in enumerate(order):
                renumber[c] = new
            # The live rows lead the table, in ``kids``' order.
            table = np.zeros((len(nus), len(moves[rises])), dtype=np.intp)
            table.flat[:len(kids)] = [renumber[c] for c in kids]
            children = list(ids)
            nus = [children[c] for c in order]
            live = sum(map(bool, above))
            yield rises, table, np.array(
                [above[c] for c in order],
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
    # Single-step mass ratios come from a finite factor set; checking
    # the set once covers every word of every level exactly.
    eta, q_max = params.eta, params.q_max
    for j in params.gy:
        if not eta <= params.q[j] <= q_max:
            return False
        for i in params.gx[j]:
            ratio = params.prob(i, j) / params.q[j]
            for j2 in params.gy:
                if not eta <= ratio * params.q[j2] <= q_max:
                    return False
    if ell(params, 1) == 1:  # theta = 1 steps append whole pairs
        for ij, w in zip(params.spec.digits, params.spec.weights):
            if not eta <= w <= q_max:
                return False
    return True


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
    which are looked up in each length's sorted keys.  Violations are
    sorted index pairs (a, b) with a < b.
    """
    return DisjointnessReport(
        checked=partition.phi_k,
        violations=partition.matching_pairs(flat_predecessor))
