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

import itertools
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
    appended to its cells and ``digit`` appended to its tail.  Its
    scaled mass is nu * factor // divisor, an exact division.
    """

    x: int | None
    digit: int
    factor: int
    divisor: int


def _moves(params: DerivedParams) -> dict:
    """The integer transitions shared by the enumerator and the DP.

    ``moves[rises][pending]`` lists, in walk order, the moves of a step
    that does (``rises``) or does not grow the pair count, keyed by the
    word's first pending tail digit where that decides them:
    ``[False][None]`` appends a column digit; ``[True][j]`` promotes the
    pending digit j into a pair (i, j) and appends a column digit;
    ``[True][None]``, for words without a tail (theta = 1), appends a
    whole pair.  The roots are the moves of the empty word.
    """
    a, b = params.scaled
    if ell(params, 1) == 1:
        rise = {None: [_Move(i, j, w, 1) for (i, j), w in a.items()]}
    else:
        rise = {j: [_Move(i, jj, a[i, j] * b[jj], b[j])
                    for i in params.gx[j] for jj in params.gy]
                for j in params.gy}
    return {False: {None: [_Move(None, j, b[j], 1) for j in params.gy]},
            True: rise}


def _class_step(nus: list[int], moves: list[_Move], pairs) -> tuple:
    """The classes one length down, one per distinct exact child nu of
    the (class, move index) ``pairs`` in order of first appearance: a
    (class, move) table of them, 0 where no pair is given, and their nus."""
    class_of = np.zeros((len(nus), len(moves)), dtype=np.intp)
    ids: dict[int, int] = {}
    for c, m in pairs:
        class_of[c, m] = ids.setdefault(
            nus[c] * moves[m].factor // moves[m].divisor, len(ids))
    return class_of, list(ids)


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

    The walk is breadth first, one word length at a time.  Each live
    word carries a mass class, an index into its length's list of
    distinct exact nu, so the stop test runs once per class, and the
    class list is the stored mass table.  Children come in parent order,
    then move order: the tree's depth-first order, in which each length's
    words are stored.  Raises ``EnumerationCapError`` when the level has
    more than ``cap`` words, before building the length that would pass
    the cap; ``stopped_statistics`` aggregates levels too large to
    collect.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    L = params.denom_lcm
    eta_k = params.eta ** k
    promoting = ell(params, 1) == 0
    # Per step: the moves (grouped by pending digit, ascending), each
    # digit's first move and move count (at 0 if unkeyed), x and digits.
    steps = {}
    for rises, groups in _moves(params).items():
        moves = [mv for group in groups.values() for mv in group]
        size = np.zeros(256, dtype=np.intp)
        for j, group in groups.items():
            size[j or 0] = len(group)
        steps[rises] = (moves, np.cumsum(size) - size, size,
                        np.array([mv.x or 0 for mv in moves], dtype=np.intp),
                        np.array([mv.digit for mv in moves], dtype=np.intp))

    blocks: dict[int, tuple[np.ndarray, np.ndarray, list[int]]] = {}
    # The empty word, at length 0; its children are the roots.
    keys = np.zeros(1, dtype=np.uint64)
    cls = np.zeros(1, dtype=np.intp)
    nus = [1]
    emitted = h = 0
    while len(keys):
        h += 1
        rises = ell(params, h) > ell(params, h - 1)
        rhs = eta_k.numerator * L ** h
        moves, first, size, xs, digits = steps[rises]
        # Each parent's pending column digit (0 if nothing is pending).
        tops = (pending(params, h - 1, keys) if rises and promoting
                else np.zeros(len(keys), dtype=np.intp))
        fan = size[tops]
        children = int(fan.sum())
        # Every child is a word or has one below it.
        if emitted + children > cap:
            raise EnumerationCapError(
                f"enumeration exceeded cap of {cap} words")

        # This length's mass classes: one per distinct exact nu over the
        # (parent class, move) pairs that occur.  Counting the stopped
        # children sizes the length's arrays exactly.
        kinds = np.bincount(cls * 256 + tops)
        occur = [divmod(kind, 256) for kind in np.flatnonzero(kinds).tolist()]
        class_of, nus = _class_step(nus, moves, [
            (c, m) for c, j in occur for m in range(first[j], first[j] + size[j])])
        stops = np.array([nu * eta_k.denominator < rhs for nu in nus])
        stopping = sum(
            int(kinds[c * 256 + j])
            * int(stops[class_of[c, first[j]:first[j] + size[j]]].sum())
            for c, j in occur)

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
            child = class_of[cls[parent], move]
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

        # An empty block is dropped by the store.
        emitted += stopping
        blocks[h] = (done, done_ids, nus)
        # The next length's classes: the live ones, renumbered in order.
        nus = [nu for nu, stop in zip(nus, stops.tolist()) if not stop]
        cls = (np.cumsum(~stops) - 1)[live_cls]
        keys = live
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

    Subtrees of the walk coincide whenever the current length, the scaled
    mass nu and the pending tail columns (each as the first column with
    its promotion factors) coincide.  A forward pass collects each
    length's live states with their word counts, and adds up the words,
    and their exact nus, that stop at each length: the profile.  A
    backward pass, deepest first, folds each state's R1, the sum of
    r ln r over its stopped descendants of relative mass r, from its
    children; it is the only float arithmetic.  (Those r add up to
    exactly 1.)  Agrees with the enumerator wherever both run (see
    tests).  Raises ``EnumerationCapError`` past ``MAX_DP_STATES`` states.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    L = params.denom_lcm
    eta_k = params.eta ** k
    moves = _moves(params)
    paired = ell(params, 1) == 1
    # Columns whose ordered promotion factors agree have identical
    # futures; each maps to the first column of its class.
    first: dict = {}
    canon = {j: first.setdefault(
        tuple(Fraction(mv.factor, mv.divisor) for mv in group), j)
        for j, group in moves[True].items()}

    def step(move: _Move) -> tuple:
        # (factor, divisor, relative mass as a float, its log, appended
        # tail) of one move.
        f = float(Fraction(move.factor, move.divisor * L))
        tail = () if paired else (canon[move.digit],)
        return move.factor, move.divisor, f, math.log(f), tail

    steps = {rises: {j: [step(mv) for mv in group]
                     for j, group in groups.items()}
             for rises, groups in moves.items()}
    scaled = [eta_k.numerator * L]      # eta^k * L^(h + 1), by h

    def expand(h: int, nu: int, queue: tuple) -> list:
        # Each move from a length-h state, with its child's nu and its
        # child state, or None if the child stops.
        rises = ell(params, h + 1) > ell(params, h)
        if rises and queue:
            base, opts = queue[1:], steps[True][queue[0]]
        else:
            base, opts = queue, steps[rises][None]
        return [(move, child, (child, base + move[4])
                 if child * eta_k.denominator >= scaled[h] else None)
                for move in opts for child in [nu * move[0] // move[1]]]

    # The roots are the moves of the empty word, at length 0; none stops,
    # since its mass is at least eta >= eta^k.
    roots = [(move, state) for move, _, state in expand(0, 1, ())]
    levels: list[dict] = []
    frontier = Counter(root for _, root in roots)
    counts, nu_sums = {}, {}            # the profile
    while frontier:
        levels.append(frontier)
        if sum(map(len, levels)) > MAX_DP_STATES:
            raise EnumerationCapError(
                f"stopped_statistics exceeded {MAX_DP_STATES} states")
        h, frontier = len(levels), Counter()
        scaled.append(scaled[-1] * L)
        for (nu, queue), count in levels[-1].items():
            for _, child_nu, child in expand(h, nu, queue):
                if child is None:
                    counts[h + 1] = counts.get(h + 1, 0) + count
                    nu_sums[h + 1] = nu_sums.get(h + 1, 0) + count * child_nu
                else:
                    frontier[child] += count

    # rel[state]: its R1; a stopped child adds r ln r = f ln f.
    rel: dict = {}
    while levels:
        h, below, rel = len(levels), rel, {}
        for nu, queue in levels.pop():
            rel[nu, queue] = 0.0
            for (_, _, f, log_f, _), _, child in expand(h, nu, queue):
                rel[nu, queue] += f * (below.get(child, 0.0) + log_f)

    return StoppedStats(
        params, k,
        math.fsum(move[2] * rel[root] + move[2] * move[3]
                  for move, root in roots),
        counts, nu_sums)


def stopping_rule(params: DerivedParams, ks, depth: int) -> tuple:
    """The stopping rule of the levels ``ks`` as ``(codes, steps)``,
    tables over a sample's digits for lengths 1 to ``depth``.

    A sample's digits pick each move of ``_moves``: ``codes[rises]``
    maps y_h, or where ell rises to l the triple (x_l, y_l, y_h) as
    (x_l m + y_l) m + y_h, to the move's index.  ``steps[h - 1]`` is
    ``(rises, table, above)``: with a class a distinct exact nu, as in
    ``enumerate_lambda_k``, ``table[c, move]`` is the class at length h
    after ``move`` from class c, and ``above[c]`` the number of levels
    whose eta^k class c is still at or above, the deepest ones.  Live
    classes come first; the rows of classes above no level are 0.  A
    pair that no word takes (a move for another pending column) yields
    a class no word reaches: a table entry, never a wrong length.
    Class ids are sized by ``np.min_scalar_type``.
    """
    L, m = params.denom_lcm, params.m
    flat = {rises: [(j, mv) for j, group in groups.items() for mv in group]
            for rises, groups in _moves(params).items()}
    codes = {}
    for rises, moves in flat.items():
        codes[rises] = np.zeros(params.n * m * m if rises else m,
                                dtype=np.min_scalar_type(len(moves)))
        for index, (j, mv) in enumerate(moves):
            y_l = mv.digit if j is None else j
            codes[rises][(mv.x * m + y_l) * m + mv.digit if rises
                         else mv.digit] = index
    etas = [params.eta ** k for k in ks]
    nus, live, steps = [1], 1, []     # the empty word's class
    for h in range(1, depth + 1):
        if not live:
            break
        rises = ell(params, h) > ell(params, h - 1)
        moves = [mv for _, mv in flat[rises]]
        class_of, children = _class_step(
            nus, moves, itertools.product(range(live), range(len(moves))))
        above = np.array([sum(nu * eta.denominator >= eta.numerator * L ** h
                              for eta in etas) for nu in children])
        order = np.argsort(above == 0, kind="stable")
        renumber = np.argsort(order)
        steps.append((rises, renumber[class_of].astype(
            np.min_scalar_type(len(children))),
            above[order].astype(np.min_scalar_type(len(etas)))))
        nus = [children[c] for c in order.tolist()]
        live = int(np.count_nonzero(above))
    return codes, steps


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
