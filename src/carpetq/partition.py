"""Stopping-time partitions of the carpet address space.

For a threshold ratio eta = p_min * q_min, the level-k partition
collects every word sigma whose mass first drops below eta^k:

    mass(flat_predecessor(sigma)) >= eta^k > mass(sigma).

Each address ray crosses this frontier exactly once, so the collected
squares tile the carpet and their masses sum to one exactly.  The
enumerator walks the flat-predecessor tree depth first; every prune
and emit decision is an exact integer comparison on scaled masses
nu = mass * L^len (L the common weight denominator), so the boundary
case mass == eta^k needs no padding and is decided strictly.

The construction is well defined for every k >= 1 even though the
asymptotic statements about it kick in only for k >= 1/theta.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measure import DerivedParams
from .summation import KahanSum
from .words import CarpetWord, WordColumns, ell, word_from_digits

__all__ = [
    "DEFAULT_CAP",
    "MAX_DP_STATES",
    "EnumerationCapError",
    "PartitionLambdaK",
    "PartitionStats",
    "StoppedStats",
    "DisjointnessReport",
    "LocalDimEstimate",
    "enumerate_lambda_k",
    "stopped_statistics",
    "partition_stats",
    "check_phi_growth",
    "check_square_disjointness",
    "squares_overlap",
    "sample_digit_matrix",
    "sample_address",
    "local_dimension_estimate",
]

DEFAULT_CAP = 10_000_000
MAX_DP_STATES = 1_000_000
_STOPPED = (1, 0.0, 0, 1, 0, 0)

_SHARD_ROWS = 1 << 15


class EnumerationCapError(RuntimeError):
    """A work guard tripped: the enumerator's word cap or the DP's state bound."""


class _Tables:
    """Integer factor tables shared by the enumerator and the DP."""

    def __init__(self, params: DerivedParams, k: int):
        spec = params.spec
        L = params.denom_lcm
        self.L = L
        self.k = k
        self.a = {ij: int(w * L) for ij, w in zip(spec.digits, spec.weights)}
        self.b = {j: int(params.q[j] * L) for j in params.gy}
        self.appends = [(j, self.b[j]) for j in params.gy]
        self.promotions = {
            j: [(i, self.a[(i, j)]) for i in params.gx[j]] for j in params.gy
        }
        self.pair_roots = [(ij, self.a[ij]) for ij in spec.digits]
        self.promote_fracs = {
            j: [(Fraction(aa * bb, self.b[j] * L), jj)
                for _, aa in self.promotions[j] for jj, bb in self.appends]
            for j in params.gy
        }
        # Columns whose ordered promotion factors agree have identical
        # futures in the DP; each maps to the first column of its class.
        first: dict = {}
        self.canon = {j: first.setdefault(tuple(f for f, _ in fracs), j)
                      for j, fracs in self.promote_fracs.items()}
        eta = params.eta
        self.eta_den_k = eta.denominator ** k
        eta_num_k = eta.numerator ** k

        # Safe depth bound: the largest possible mass at length h is
        # p_max^ell(h) * q_max^(h - ell(h)); the walk cannot go deeper
        # than the first h where even that is below eta^k.
        h = 1
        top = Fraction(1)
        threshold = eta ** k
        while True:
            l_prev = ell(params, h - 1)
            l_now = ell(params, h)
            top *= params.p_max if l_now > l_prev else params.q_max
            if top < threshold:
                break
            h += 1
            if h > 10_000_000:
                raise RuntimeError("depth bound search runaway; spec degenerate")
        self.h_max = h
        self.emit_rhs = [eta_num_k * L ** hh for hh in range(h + 2)]
        self.rises = [
            ell(params, hh + 1) == ell(params, hh) + 1 for hh in range(h + 2)
        ]


def _walk(params: DerivedParams, tables: _Tables, cap: int
          ) -> PartitionLambdaK:
    """Depth-first walk from every root, in root order.

    Each word joins the block of its length in walk order.  Entropy
    terms are summed per root and then merged per length in root order.
    """
    L = tables.L
    log_l = math.log(L)
    eta_den_k = tables.eta_den_k
    rhs = tables.emit_rhs
    rises = tables.rises
    appends = tables.appends
    promotions = tables.promotions
    pair_roots = tables.pair_roots
    b = tables.b

    blocks: dict[int, tuple[list[bytes], list[int]]] = {}
    entropy: dict[int, KahanSum] = {}
    root_entropy: dict[int, KahanSum] = {}
    emitted = 0
    buf = bytearray()

    def emit(h: int, nu: int) -> None:
        nonlocal emitted
        block = blocks.get(h)
        if block is None:
            block = blocks[h] = ([], [])
        block[0].append(bytes(buf))
        block[1].append(nu)
        log_mass = math.log(nu) - h * log_l
        acc = root_entropy.get(h)
        if acc is None:
            acc = root_entropy[h] = KahanSum()
        acc.add(math.exp(log_mass) * log_mass)
        emitted += 1
        if emitted > cap:
            raise EnumerationCapError(f"enumeration exceeded cap of {cap} words")

    def go(h: int, nu: int, twol: int) -> None:
        if rises[h]:
            if twol == len(buf):
                # no pending tail digit: the whole step appends one pair
                for (i, j), fa in pair_roots:
                    nu2 = nu * fa
                    buf.extend((i, j))
                    if nu2 * eta_den_k < rhs[h + 1]:
                        emit(h + 1, nu2)
                    else:
                        go(h + 1, nu2, twol + 2)
                    del buf[-2:]
                return
            jstar = buf[twol]
            divisor = b[jstar]
            for i, fa in promotions[jstar]:
                base = nu * fa // divisor
                buf.insert(twol, i)
                for j, fb in appends:
                    nu2 = base * fb
                    buf.append(j)
                    if nu2 * eta_den_k < rhs[h + 1]:
                        emit(h + 1, nu2)
                    else:
                        go(h + 1, nu2, twol + 2)
                    buf.pop()
                del buf[twol]
        else:
            for j, fb in appends:
                nu2 = nu * fb
                buf.append(j)
                if nu2 * eta_den_k < rhs[h + 1]:
                    emit(h + 1, nu2)
                else:
                    go(h + 1, nu2, twol)
                buf.pop()

    for tag, nu0 in _roots(params, tables):
        if isinstance(tag, tuple):
            buf[:] = tag
            twol0 = 2
        else:
            buf[:] = (tag,)
            twol0 = 0
        # No root stops: its mass is at least eta >= eta^k.
        go(1, nu0, twol0)
        for h, acc in root_entropy.items():
            tgt = entropy.get(h)
            if tgt is None:
                tgt = entropy[h] = KahanSum()
            tgt.merge(acc)
        root_entropy.clear()
    return PartitionLambdaK(
        params, tables.k, blocks,
        entropy_sum=math.fsum(acc.total for acc in entropy.values()))


class PartitionLambdaK(WordColumns):
    """One collected stopping-time partition.

    Words are stored per length: byte-encoded digits and scaled integer
    masses nu with mass = nu / L^length.  The word count ``phi_k`` and
    the length window ``[xi_min, xi_max]`` are the store's size and
    length window; the entropy sum is accumulated during the walk.
    """

    def __init__(self, params: DerivedParams, k: int, blocks: dict, *,
                 entropy_sum: float):
        super().__init__(params, blocks)
        self.k = k
        self.eta_k: Fraction = params.eta ** k
        self.phi_k, self.xi_min, self.xi_max = self.size, self.l_min, self.l_max
        self.entropy_sum = entropy_sum


def _roots(params: DerivedParams, tables: _Tables):
    if ell(params, 1) == 1:
        return [(ij, nu) for ij, nu in tables.pair_roots]
    return [(j, nu) for j, nu in tables.appends]


def enumerate_lambda_k(
    params: DerivedParams,
    k: int,
    *,
    cap: int = DEFAULT_CAP,
) -> PartitionLambdaK:
    """Collect the level-k partition with exact per-word masses.

    Raises ``EnumerationCapError`` once more than ``cap`` words are
    emitted.  Levels too large to collect are aggregated by
    ``stopped_statistics`` instead.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    tables = _Tables(params, k)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, tables.h_max + 500))
    try:
        return _walk(params, tables, cap)
    finally:
        sys.setrecursionlimit(limit)


@dataclass(frozen=True)
class StoppedStats:
    """Exact aggregates of a partition, computed without materializing it."""

    params: DerivedParams
    k: int
    eta_k: Fraction
    phi_k: int
    xi_min: int
    xi_max: int
    mass_total: Fraction
    mass_len_total: Fraction
    entropy_sum: float


def stopped_statistics(params: DerivedParams, k: int) -> StoppedStats:
    """Aggregate the level-k partition by dynamic programming.

    Subtrees of the walk coincide whenever the current length, the
    mass-to-threshold ratio, and the pending tail columns (as
    ``_Tables.canon`` representatives) coincide, and all emitted
    quantities scale linearly with the subtree root mass.  A forward
    pass collects the live states of each length; a backward pass,
    deepest first, folds each state's stopped descendants from its
    children.  Counts and masses are exact; only entropy terms are
    floats.  Agrees with the enumerator wherever both run (see tests).
    Raises ``EnumerationCapError`` past ``MAX_DP_STATES`` states.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    tables = _Tables(params, k)
    L = tables.L
    eta_k = params.eta ** k
    rises = tables.rises
    canon = tables.canon

    def moves(fracs):
        # (factor, its float, its log, appended tail) per transition.
        return [(f, float(f), math.log(float(f)), tail) for f, tail in fracs]

    append_moves = moves((Fraction(bb, L), (canon[j],))
                         for j, bb in tables.appends)
    promote_moves = {j: moves((f, (canon[jj],)) for f, jj in fracs)
                     for j, fracs in tables.promote_fracs.items()}
    # Empty queue means every step appends a whole pair (square grids).
    pair_moves = moves((Fraction(aa, L), ()) for _, aa in tables.pair_roots)

    def expand(h: int, ratio: Fraction, queue: tuple) -> list:
        # Each transition with its child state, or None if the child stops.
        if not rises[h]:
            base, opts = queue, append_moves
        elif queue:
            base, opts = queue[1:], promote_moves[queue[0]]
        else:
            base, opts = queue, pair_moves
        return [(move, (r, base + move[3]) if (r := ratio * move[0]) >= 1
                 else None) for move in opts]

    inv_eta_k = 1 / eta_k
    roots = [(Fraction(nu0, L), () if isinstance(tag, tuple) else (canon[tag],))
             for tag, nu0 in _roots(params, tables)]
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
    entropy = KahanSum()
    phi = 0
    xi_min, xi_max = math.inf, 0
    for mass, queue in roots:
        mf = float(mass)
        r0, r1, rl, cnt, dmin, dmax = rel[(mass * inv_eta_k, queue)]
        mass_total += mass * r0
        mass_len_total += mass * (rl + r0)
        entropy.add(mf * r1 + mf * math.log(mf) * float(r0))
        phi += cnt
        xi_min = min(xi_min, 1 + dmin)
        xi_max = max(xi_max, 1 + dmax)

    return StoppedStats(
        params=params,
        k=k,
        eta_k=eta_k,
        phi_k=phi,
        xi_min=xi_min,
        xi_max=xi_max,
        mass_total=mass_total,
        mass_len_total=mass_len_total,
        entropy_sum=entropy.total,
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


def check_phi_growth(earlier, later) -> bool:
    """phi_k <= phi_{k+1} <= eta^-2 phi_k, exactly."""
    if later.k != earlier.k + 1:
        raise ValueError("growth check needs consecutive levels")
    eta = earlier.params.eta
    return (earlier.phi_k <= later.phi_k
            and Fraction(later.phi_k) <= Fraction(earlier.phi_k) * (1 / eta) ** 2)


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
    beyond digit comparison is needed.  Sorting by y-digits makes each
    word's y-ancestors a contiguous stack, and candidate x-strings per
    ancestor group live in one hash set, so the scan is near-linear.
    """
    params = partition.params
    items = []
    for h, (encs, _) in partition.blocks.items():
        split = 2 * ell(params, h)
        items.extend((enc[1:split:2] + enc[split:], enc[0:split:2], idx)
                     for idx, enc in enumerate(encs, partition.offsets[h]))
    items.sort()

    violations: list[tuple[int, int]] = []
    # Stack of groups (y, xlen, {x digits -> idx}); every group below the
    # top holds a proper prefix of the y above it after popping.
    stack: list[tuple[bytes, int, dict]] = []
    for y, x, idx in items:
        while stack and not y.startswith(stack[-1][0]):
            stack.pop()
        merged = False
        for gy, gxlen, gxmap in stack:
            if gy == y:
                other = gxmap.get(x)
                if other is not None:
                    violations.append((other, idx))  # identical word
                else:
                    gxmap[x] = idx
                merged = True
            else:
                other = gxmap.get(x[:gxlen])
                if other is not None:
                    violations.append((other, idx))
        if not merged:
            stack.append((y, len(x), {x: idx}))
    return DisjointnessReport(checked=partition.phi_k, violations=tuple(violations))


def squares_overlap(a, b) -> bool:
    """Exact interior-overlap test for two approximate squares (oracle path)."""
    return (max(a.x_low, b.x_low) < min(a.x_high(), b.x_high())
            and max(a.y_low, b.y_low) < min(a.y_high(), b.y_high()))


def sample_digit_matrix(
    params: DerivedParams, count: int, depth: int, seed: int, threads: int = 1
) -> np.ndarray:
    """Draw an i.i.d. digit-index matrix of shape (count, depth).

    Sampling is sharded in fixed row blocks with per-shard generators
    seeded by (seed, shard); the result is byte-identical for any
    thread count.
    """
    probs = np.array([float(w) for w in params.spec.weights])
    cum = np.cumsum(probs)
    card = len(probs)
    out = np.empty((count, depth), dtype=np.uint8)

    shards = [(s, lo, min(lo + _SHARD_ROWS, count))
              for s, lo in enumerate(range(0, count, _SHARD_ROWS))]

    def fill(shard):
        s, lo, hi = shard
        rng = np.random.default_rng([int(seed), s])
        u = rng.random((hi - lo, depth))
        idx = np.searchsorted(cum, u, side="right")
        np.minimum(idx, card - 1, out=idx)
        out[lo:hi] = idx.astype(np.uint8)

    if threads <= 1 or len(shards) <= 1:
        for shard in shards:
            fill(shard)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, shards))
    return out


def sample_address(
    params: DerivedParams, depth: int, seed: int
) -> tuple[CarpetWord, tuple[float, float]]:
    """One random address: the depth-long word and the sampled point."""
    idx = sample_digit_matrix(params, 1, depth, seed)[0]
    digits = params.spec.digits
    address = [digits[t] for t in idx]
    word = word_from_digits(params, address, depth)
    x = math.fsum(i / params.n ** t for t, (i, _) in enumerate(address, start=1))
    y = math.fsum(j / params.m ** t for t, (_, j) in enumerate(address, start=1))
    return word, (x, y)


@dataclass(frozen=True)
class LocalDimEstimate:
    k: int
    samples: int
    mean: float
    std: float
    stderr: float


def local_dimension_estimate(
    params: DerivedParams, k: int, samples: int, seed: int, threads: int = 1
) -> LocalDimEstimate:
    """Monte Carlo mean of log mass(word(x, k)) / (-k log m).

    The level-k word of a sampled address keeps the first ell(k) digit
    pairs whole and only the column digit beyond, so its log mass is a
    sum of per-digit table lookups.
    """
    if k < 1 or samples < 1:
        raise ValueError("need k >= 1 and samples >= 1")
    idx = sample_digit_matrix(params, samples, k, seed, threads=threads)
    log_p = np.array([math.log(w) for w in params.spec.weights])
    log_q = np.array([math.log(params.q[j]) for _, j in params.spec.digits])
    l = ell(params, k)
    log_mass = log_p[idx[:, :l]].sum(axis=1) + log_q[idx[:, l:]].sum(axis=1)
    vals = log_mass / (-k * math.log(params.m))
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1)) if samples > 1 else 0.0
    return LocalDimEstimate(
        k=k, samples=samples, mean=mean, std=std,
        stderr=std / math.sqrt(samples),
    )
