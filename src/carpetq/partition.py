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
case mass == eta^k needs no padding and is decided strictly.

The construction is well defined for every k >= 1 even though the
asymptotic statements about it kick in only for k >= 1/theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .measure import DerivedParams
from .words import (
    WordColumns, ell, flat_predecessor, key_dtype, pending, step,
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
    "partition_stats",
    "check_square_disjointness",
]

DEFAULT_CAP = 10_000_000
MAX_DP_STATES = 1_000_000
_STOPPED = (1, 0.0, 0, 1, 0, 0)

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
        class_of = np.zeros((len(nus), len(moves)), dtype=np.intp)
        ids: dict[int, int] = {}
        stops = []
        stopping = 0
        for kind in np.flatnonzero(kinds).tolist():
            c, j = divmod(kind, 256)
            for m in range(first[j], first[j] + size[j]):
                nu = nus[c] * moves[m].factor // moves[m].divisor
                if nu not in ids:
                    ids[nu] = len(ids)
                    stops.append(nu * eta_k.denominator < rhs)
                class_of[c, m] = ids[nu]
                stopping += int(kinds[kind]) * stops[ids[nu]]
        nus, stops = list(ids), np.array(stops)

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
    """Exact aggregates of a partition, computed without materializing it."""

    params: DerivedParams
    k: int
    phi_k: int
    xi_min: int
    xi_max: int
    mass_total: Fraction
    mass_len_total: Fraction
    entropy_sum: float


def stopped_statistics(params: DerivedParams, k: int) -> StoppedStats:
    """Aggregate the level-k partition by dynamic programming.

    Subtrees of the walk coincide whenever the current length, the
    mass-to-threshold ratio, and the pending tail columns (each as the
    first column with its promotion factors) coincide, and all emitted
    quantities scale linearly with the subtree root mass.  A forward
    pass collects the live states of each length; a backward pass,
    deepest first, folds each state's stopped descendants from its
    children.  Counts and masses are exact; only entropy terms are
    floats.  Agrees with the enumerator wherever both run (see tests).
    Raises ``EnumerationCapError`` past ``MAX_DP_STATES`` states.
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
        # (factor, its float, its log, appended tail) of one move.
        f = Fraction(move.factor, move.divisor * L)
        tail = () if paired else (canon[move.digit],)
        return f, float(f), math.log(float(f)), tail

    steps = {rises: {j: [step(mv) for mv in group]
                     for j, group in groups.items()}
             for rises, groups in moves.items()}

    def expand(h: int, ratio: Fraction, queue: tuple) -> list:
        # Each transition with its child state, or None if the child stops.
        rises = ell(params, h + 1) > ell(params, h)
        if rises and queue:
            base, opts = queue[1:], steps[True][queue[0]]
        else:
            base, opts = queue, steps[rises][None]
        return [(move, (r, base + move[3]) if (r := ratio * move[0]) >= 1
                 else None) for move in opts]

    inv_eta_k = 1 / eta_k
    roots = [(f, tail) for f, _, _, tail in steps[paired][None]]
    # No root stops: its mass is at least eta >= eta^k.
    levels: list[dict] = []
    frontier = {(mass * inv_eta_k, queue): None for mass, queue in roots}
    while frontier:
        levels.append(frontier)
        if sum(map(len, levels)) > MAX_DP_STATES:
            raise EnumerationCapError(
                f"stopped_statistics exceeded {MAX_DP_STATES} states")
        frontier = {child: None for state in frontier
                    for _, child in expand(len(levels), *state) if child}

    # rel[state]: aggregates over the state's stopped descendants tau,
    # scaled by 1/mass: (R0 exact sum of relative masses, R1 = sum r ln r,
    # RL = exact sum r * reldepth, count, min reldepth, max reldepth).
    # A stopped child counts as _STOPPED, which repeats the float
    # operations of a separate leaf case bit for bit.
    rel: dict = {}
    while levels:
        h, below, rel = len(levels), rel, {}
        for state in levels.pop():
            r0, r1, rl, cnt = Fraction(0), 0.0, Fraction(0), 0
            dmin, dmax = math.inf, 0
            for (f, ff, lf, _), child in expand(h, *state):
                s0, s1, sl, sc, sdmin, sdmax = (
                    _STOPPED if child is None else below[child])
                r0 += f * s0
                r1 += ff * (s1 + lf * float(s0))
                rl += f * (sl + s0)
                cnt += sc
                dmin = min(dmin, sdmin + 1)
                dmax = max(dmax, sdmax + 1)
            rel[state] = (r0, r1, rl, cnt, dmin, dmax)

    # The absolute length of a stopped word is 1 + its depth below the
    # root.
    mass_total = Fraction(0)
    mass_len_total = Fraction(0)
    entropy = []
    phi = 0
    xi_min, xi_max = math.inf, 0
    for mass, queue in roots:
        mf = float(mass)
        r0, r1, rl, cnt, dmin, dmax = rel[(mass * inv_eta_k, queue)]
        mass_total += mass * r0
        mass_len_total += mass * (rl + r0)
        entropy.append(mf * r1 + mf * math.log(mf) * float(r0))
        phi += cnt
        xi_min = min(xi_min, 1 + dmin)
        xi_max = max(xi_max, 1 + dmax)

    return StoppedStats(
        params=params,
        k=k,
        phi_k=phi,
        xi_min=xi_min,
        xi_max=xi_max,
        mass_total=mass_total,
        mass_len_total=mass_len_total,
        entropy_sum=math.fsum(entropy),
    )


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
