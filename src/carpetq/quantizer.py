"""Geometric-mean quantization diagnostics.

The normalized error R_k = s0^{-1} log phi_k + e_hat couples the word
count of a stopping level with the mean log-distance from a sample of
the measure to a set of centres of that cardinality.  Boundedness of R_k
over k is the numerical signature that the quantization dimension for
the geometric mean error (r = 0) exists and equals s0.  Everything here estimates e_hat by Monte
Carlo against the level's rectangle centres and brackets it with exact
anchor sums, because the empirical log objective is unbounded below on
atoms and cannot certify anything on its own.

Each sample is measured against the centre of its own stopping
rectangle, found exactly from its digits by one walk for all levels,
with no level's words enumerated, and its offset from that centre is
read from its digits after the cell.  By Graf and Luschgy's
cellwise decomposition of the geometric mean error, that own-cell error
is an upper bound on the error of the nearest-centre (Voronoi)
assignment to the same centres.  The cloud is held as its seed: one
pass draws its digits a chunk at a time, locates and measures them,
and drops them.

The small-ball bound mu(B(x, eps)) <= C eps^t, which the lower estimate
of the error rests on, is certified without samples: per band of radii,
by the exact mass of the heaviest approximate squares a ball can meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measure import CarpetSpec, DerivedParams
from .partition import stopping_rule
from .words import ell


__all__ = [
    "SampleCloud",
    "QuantDiagnostics",
    "BallBoundReport",
    "ShallowCloudError",
    "DISTANCE_FLOOR",
    "MAX_DEPTH",
    "MIN_TAIL",
    "uniform_digits",
    "draw_cloud",
    "check_depth",
    "locate",
    "diameter_log",
    "r_k_diagnostic",
    "ball_bound_check",
]


DISTANCE_FLOOR = 1e-300     # clamp for an exactly zero own-cell distance

MAX_DEPTH = 1074            # most digits drawn per sample
MIN_TAIL = 20               # cloud digits a located cell must leave unread

_SHARD_ROWS = 1 << 15       # rows per sampling block, one generator each
_CHUNK_DIGITS = 1 << 22     # most digits per walked chunk
_DRAW_SIZE = 1 << 17        # most uniforms drawn at once
_CHUNK = 1 << 15            # values per exact-sum batch


class ShallowCloudError(ValueError):
    """A level's words are too deep for the cloud to locate its samples."""


@dataclass(frozen=True)
class SampleCloud:
    """Monte Carlo draw from the carpet measure, reproducible by seed.

    The cloud holds no sample: ``chunks`` draws the samples' digits
    anew on each call, ``depth`` digits a sample, each the index of a
    map of ``spec`` chosen by its weight.  Digits past ``depth`` are
    zero.
    """

    spec: CarpetSpec
    size: int
    depth: int
    seed: int

    @property
    def bases(self) -> tuple[int, int]:
        return self.spec.n, self.spec.m

    def chunks(self):
        """Yield (first row, digits) for consecutive row ranges of the
        cloud, ``digits`` their (depth, rows) ``uint8`` map indices,
        digit-major, so one place's digits are one contiguous row.

        Rows are drawn in fixed blocks of ``_SHARD_ROWS``, each by its
        own generator seeded by (seed, block), so every call gives the
        same digits.  Each block is split evenly into chunks of at most
        ``_CHUNK_DIGITS`` digits, and a chunk's uniforms are drawn at
        most ``_DRAW_SIZE`` at a time, in the generator's row order.
        """
        cum = np.cumsum([float(w) for w in self.spec.weights])
        per_block = -(-_SHARD_ROWS * self.depth // _CHUNK_DIGITS)
        step = -(-_SHARD_ROWS // per_block)
        draw = max(1, _DRAW_SIZE // self.depth)
        for lo in range(0, self.size, _SHARD_ROWS):
            end = min(lo + _SHARD_ROWS, self.size)
            rng = np.random.default_rng([int(self.seed), lo // _SHARD_ROWS])
            for a in range(lo, end, step):
                digits = np.empty((self.depth, min(step, end - a)),
                                  dtype=np.uint8)
                for b in range(0, digits.shape[1], draw):
                    u = rng.random((min(draw, digits.shape[1] - b),
                                    self.depth))
                    digits[:, b:b + len(u)] = uniform_digits(u, cum).T
                yield a, digits


def uniform_digits(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """The uint8 digit index of each uniform in ``u`` under the cumulative
    map weights ``cum``: the number of entries of ``cum[:-1]`` that are
    <= u.  That is ``searchsorted(cum, u, "right")`` clamped to the last
    map, counted by comparisons straight into the uint8 result."""
    digits = np.zeros(u.shape, dtype=np.uint8)
    for cut in cum[:-1]:
        digits += u >= cut
    return digits


def draw_cloud(params: DerivedParams, size: int, depth: int = 40,
               seed: int = 0x5EED) -> SampleCloud:
    """Sample the measure by ``depth`` i.i.d. digits drawn from the map
    weights: a cloud of ``size`` samples, drawn a chunk at a time by
    whatever walks it (``SampleCloud.chunks``), so no cloud-sized array
    ever exists.  A depth outside [``MIN_TAIL``, ``MAX_DEPTH``] is
    refused.
    """
    if size < 1:
        raise ValueError(f"need size >= 1, got {size}")
    if not MIN_TAIL <= depth <= MAX_DEPTH:
        raise ValueError(
            f"need {MIN_TAIL} <= depth <= {MAX_DEPTH}, got {depth}")
    return SampleCloud(spec=params.spec, size=size, depth=depth, seed=seed)


def check_depth(params: DerivedParams, xi_max: int, depth: int) -> None:
    """Raise ``ShallowCloudError`` unless a cloud of ``depth`` digits can
    measure words up to length ``xi_max``: the larger side of their cells
    must be at least 2^-511, so that its square is a normal float and a
    squared offset does not underflow to zero, and the cloud must leave
    at least ``MIN_TAIL`` drawn digits after them, or their samples'
    offsets would be cut short."""
    if min(params.n ** ell(params, xi_max), params.m ** xi_max) > 1 << 511:
        raise ShallowCloudError(
            f"words of length {xi_max} have cells below 2^-511 a side, "
            f"whose squared offsets underflow")
    if depth < xi_max + MIN_TAIL:
        raise ShallowCloudError(
            f"words of length {xi_max} need a cloud depth of at least "
            f"{xi_max + MIN_TAIL}, got {depth}")


def locate(levels, cloud: SampleCloud) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's stopping length at each of ``levels``, the
    ``StoppedStats`` (or collected partitions) of one carpet, and its
    distance from the centre of its stopping cell there: two
    (len(levels), size) arrays, the lengths' dtype the
    ``np.min_scalar_type`` of the longest.

    One pass over the cloud's chunks serves every level.  The walk reads
    each sample's y digit at each length h, and where ell rises to l
    also its digit at place l, the cell it promotes; two small tables
    turn those map indices into ``stopping_rule``'s move, the move turns
    the mass class into the next, and the class gives the number of
    levels it is still above.  Level i stops at the first length where
    that number is at most the number of deeper levels.  A sample that
    has stopped at every level walks on from class 0, its number kept
    at 0.  The chunk's distances follow (``_distances``) before the
    next chunk is drawn.  Raises ``ShallowCloudError`` when the levels'
    longest words are too deep for the cloud, and ``ValueError`` when a
    sample is still above a level's threshold past them.
    """
    params = levels[0].params
    n, m = params.n, params.m
    if cloud.bases != (n, m):
        raise ValueError(f"cloud drawn for bases {cloud.bases}, carpet has "
                         f"({n}, {m})")
    depth = max(level.xi_max for level in levels)
    check_depth(params, depth, cloud.depth)
    ks = [level.k for level in levels]
    codes, steps = stopping_rule(params, ks, depth)
    # numpy gathers by intp indices several times faster than by smaller
    # ones, and by one flat index array faster than by two.
    steps = [(rises, table.astype(np.intp), above)
             for rises, table, above in steps]
    deeper = [sum(j > k for j in ks) for k in ks]
    # Per map index, its x and y digit.  The move of a step that keeps
    # ell is that of its y digit b; of one that promotes the cell a, at
    # a * maps + b.
    xd, yd = np.array(cloud.spec.digits, dtype=np.intp).T
    maps = np.intp(len(xd))
    moves = {False: codes[False].astype(np.intp)[yd],
             True: codes[True].astype(np.intp)[
                 ((xd * m + yd) * m)[:, None] + yd].ravel()}
    ells = [ell(params, h) for h in range(depth + 1)]
    dtype = np.min_scalar_type(depth)
    # Per axis: digit values, base, and each length's cell digit count.
    axes = ((xd.astype(np.float64), n, np.array(ells, dtype=dtype)),
            (yd.astype(np.float64), m, np.arange(depth + 1, dtype=dtype)))
    lengths = np.ones((len(ks), cloud.size), dtype=dtype)
    distances = np.empty((len(ks), cloud.size))
    for lo, digits in cloud.chunks():
        span = slice(lo, lo + digits.shape[1])
        found = lengths[:, span]
        cls = np.zeros(digits.shape[1], dtype=np.intp)
        live = np.full(digits.shape[1], len(ks), dtype=steps[0][2].dtype)
        for h, (rises, table, above) in enumerate(steps, 1):
            code = digits[h - 1].astype(np.intp)
            if rises:
                code += np.multiply(digits[ells[h] - 1], maps, dtype=np.intp)
            cls = table.take(cls * np.intp(table.shape[1])
                             + moves[rises].take(code))
            np.minimum(above.take(cls), live, out=live)
            if not live.any():
                break
            for row, r in zip(found, deeper):
                row += live > r
        else:
            raise ValueError(f"samples still above a level's threshold "
                             f"past its longest words, at length {depth}")
        distances[:, span] = _distances(found, digits, axes)
    return lengths, distances


def _distances(found: np.ndarray, digits: np.ndarray, axes) -> np.ndarray:
    """The distance from each sample of a chunk to the centre of its cell
    at each level, given the chunk's (levels, rows) stopping lengths
    ``found``, its digit-major ``digits`` and ``locate``'s ``axes``.

    The offset is read in cell-local coordinates from the digits after
    the cell.  Per axis, one backward Horner pass from the last drawn
    digit, T_c = (d_{c+1} + T_{c+1}) / base, gives each sample's
    position T_c in [0, 1) within its cell of c digits, for every c in
    turn, and each (level, sample) entry, sorted by length, takes the
    T_c of its own cell.  The distance is the root of the two offsets'
    squares, (T_c - 1/2) times the cell's side on each axis, so its
    precision does not depend on the depth of the cell while the squares
    are normal floats; ``check_depth`` refuses cells below 2^-511 a
    side, whose squares are not.
    """
    rows = found.shape[1]
    flat = found.ravel()
    order = np.argsort(flat, kind="stable")
    # start[h]: the sorted entries shorter than h.  Per axis, those whose
    # cell has c digits lie at edges[c]:edges[c + 1].
    start = np.concatenate(([0], np.cumsum(np.bincount(
        flat, minlength=len(axes[0][2])))))
    edges = [start[np.searchsorted(cells, np.arange(len(digits) + 1))]
             for _, _, cells in axes]
    pos = np.zeros((len(axes), rows))
    total = np.zeros(len(flat))
    # The shortest word's x cell is the shallowest cell read.
    for c in range(len(digits) - 1, int(axes[0][2][flat.min()]) - 1, -1):
        place = digits[c].astype(np.intp)
        for (values, base, _), edge, at in zip(axes, edges, pos):
            at += values.take(place)
            at /= base
            a, b = edge[c], edge[c + 1]
            if a < b:
                entries = order[a:b]
                off = at.take(entries % rows)
                off -= 0.5
                off *= float(base) ** -c
                off *= off
                total[entries] += off
    return np.sqrt(total, out=total).reshape(found.shape)


def _exact_sum(chunks) -> float:
    """The correctly rounded sum of the finite float64 values in
    ``chunks``, arrays of at most ``_CHUNK`` values each: the float
    ``math.fsum`` returns.

    Each value is q * 2^(e - 53) with q = frexp mantissa * 2^53, an
    integer below 2^53 in magnitude.  Per chunk, the high and low 26-bit
    parts of q are added per exponent e by ``bincount``; every bin stays
    below 2^53, so its float sum is exact.  The bins are added up as
    Python integers and rounded once by integer true division.
    """
    # frexp exponents run from -1073 (2^-1074) to 1024; bin b holds
    # exponent b - 1073, so its values are q * 2^(b - 1126).
    high = np.zeros(2098, dtype=np.int64)
    low = np.zeros(2098, dtype=np.int64)
    for values in chunks:
        mant, exp = np.frexp(values)
        q = np.ldexp(mant, 53).astype(np.int64)
        exp += 1073
        high += np.bincount(exp, weights=q >> 26, minlength=2098).astype(
            np.int64)
        low += np.bincount(exp, weights=q & ((1 << 26) - 1),
                           minlength=2098).astype(np.int64)
    total = 0
    for b in np.flatnonzero(high | low).tolist():
        total += ((int(high[b]) << 26) + int(low[b])) << b
    return total / (1 << 1126)


def diameter_log(params: DerivedParams, h: int) -> float:
    """log of the rectangle diameter shared by all length-h words."""
    l = ell(params, h)
    return math.log(math.hypot(float(params.n) ** (-l),
                               float(params.m) ** (-h)))


@dataclass(frozen=True)
class QuantDiagnostics:
    """One level's normalized-error snapshot.

    The anchors are exact sums over the stopping words: resolution mass
    below, diameter mass above.  Their gap is capped by log sqrt(n^2+1)
    per word, so a Monte Carlo estimate landing between them (up to an
    additive constant below and sampling noise above) behaves like the
    true distortion exponent.
    """

    k: int
    phi_k: int
    lower_anchor: float       # sum of mu * log m^-|word|
    upper_anchor: float       # sum of mu * log diam(word)
    e_hat_est: float
    stderr: float
    r_k: float                # s0^-1 log phi_k + e_hat_est
    floored: int              # zero distances clamped at DISTANCE_FLOOR
    cloud_size: int
    seed: int

    @property
    def anchor_gap(self) -> float:
        return self.upper_anchor - self.lower_anchor


def r_k_diagnostic(level, cloud: SampleCloud,
                   distances: np.ndarray) -> QuantDiagnostics:
    """Exact anchors plus a Monte Carlo own-cell distortion estimate for
    one level, given its ``StoppedStats`` (or collected partition) and
    its row of ``locate``'s distances.  The anchors are float sums over
    the level's exact per-length masses; the estimate is the mean log
    distance from the samples to their own cells' centres, with an
    exactly zero distance clamped at ``DISTANCE_FLOOR`` and counted.
    The logs, then their squared deviations from the mean, formed a
    chunk at a time, are added by an exact sum, rounded once, the float
    ``math.fsum`` gives.
    """
    params = level.params
    L = params.denom_lcm
    log_m = math.log(params.spec.m)
    lower = 0.0
    upper = 0.0
    for h, nu_sum in level.length_nu_sums.items():
        mass_h = float(Fraction(nu_sum, L ** h))
        lower += mass_h * (-h * log_m)
        upper += mass_h * diameter_log(params, h)
    size = len(distances)

    def logs():
        for lo in range(0, size, _CHUNK):
            yield np.log(np.maximum(distances[lo:lo + _CHUNK],
                                    DISTANCE_FLOOR))

    est = _exact_sum(logs()) / size
    sd = (math.sqrt(_exact_sum(np.square(x - est) for x in logs())
                    / (size - 1)) if size > 1 else 0.0)
    return QuantDiagnostics(
        k=level.k,
        phi_k=level.phi_k,
        lower_anchor=lower,
        upper_anchor=upper,
        e_hat_est=est,
        stderr=sd / math.sqrt(size),
        r_k=math.log(level.phi_k) / params.s0 + est,
        floored=int(np.count_nonzero(distances < DISTANCE_FLOOR)),
        cloud_size=cloud.size,
        seed=cloud.seed,
    )


@dataclass(frozen=True)
class BallBoundReport:
    """Certificate of the power-law mass bound for small balls."""

    skipped: bool
    reason: str
    exponent: float
    coefficient: float
    failures: tuple[tuple[int, Fraction, float], ...]  # (h, mass, threshold)
    max_ratio: float          # worst band's mass bound / threshold

    @property
    def ok(self) -> bool:
        return self.skipped or not self.failures


def ball_bound_check(params: DerivedParams) -> BallBoundReport:
    """Certify mu(B(x, eps)) <= C eps^t for every centre x and every
    radius eps <= m^-2, from exact masses, with no sample.

    Here t = -log q_max / log m and C = ``params.c_ball``.  In band h,
    m^-(h+1) < eps <= m^-h, a closed ball meets at most 3 x 3 of the
    half-open level-h approximate squares that tile the unit square
    (rows of height m^-h, columns of width n^-ell(h) >= m^-h), each of
    mass at most p_max^ell(h) q_max^(h - ell(h)), while eps^t >
    q_max^(h+1).  So band h holds when 9 times that mass is at most the
    threshold C q_max^(h+1); bands 2..8 are checked, and each failing
    one is reported as (h, mass bound, threshold).  Since p_max <= q_max,
    the ratio 9 (p_max / q_max)^ell(h) / (C q_max) never rises with h,
    so band 8 also covers every smaller radius.  A full-mass column
    makes t zero and the bound empty; such a carpet is skipped.
    """
    if params.ball_exponent == 0.0:
        return BallBoundReport(
            skipped=True,
            reason="a full-mass column makes the ball exponent zero",
            exponent=0.0, coefficient=params.c_ball,
            failures=(), max_ratio=0.0)
    c = params.c_ball
    failures = []
    max_ratio = 0.0
    for h in range(2, 9):
        l = ell(params, h)
        mass = 9 * params.p_max ** l * params.q_max ** (h - l)
        threshold = c * float(params.q_max ** (h + 1))
        max_ratio = max(max_ratio, float(mass) / threshold)
        if mass > threshold:
            failures.append((h, mass, threshold))
    return BallBoundReport(
        skipped=False,
        reason="",
        exponent=params.ball_exponent,
        coefficient=c,
        failures=tuple(failures),
        max_ratio=max_ratio,
    )
