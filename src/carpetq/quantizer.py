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
rectangle, found exactly from its digits.  By Graf and Luschgy's
cellwise decomposition of the geometric mean error, that own-cell error
is an upper bound on the error of the nearest-centre (Voronoi)
assignment to the same centres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measure import DerivedParams
from .partition import PartitionLambdaK
from .words import cell_indices, ell


__all__ = [
    "SampleCloud",
    "DistortionEstimate",
    "QuantDiagnostics",
    "BallBoundReport",
    "ShallowCloudError",
    "DISTANCE_FLOOR",
    "MAX_DEPTH",
    "MIN_TAIL",
    "uniform_digits",
    "draw_cloud",
    "locate",
    "log_distortion",
    "diameter_log",
    "r_k_diagnostic",
    "ball_bound_check",
]


DISTANCE_FLOOR = 1e-300     # clamp for an exactly zero own-cell distance

MAX_DEPTH = 1074            # digit weights past this are 0.0 for n, m >= 2
MIN_TAIL = 20               # cloud digits a located cell must leave unread

_SHARD_ROWS = 1 << 15       # rows per sampling block, one generator each
_GEMV_SIZE = 1 << 17        # most digit entries per matrix-vector product
_CHUNK = 1 << 15            # cloud rows per location or sum batch
_BALL_ROWS = 1 << 15        # cloud rows per ball-count chunk
_SLAB_PAD = 2.0 ** -40      # slab widening, far above the rounding of dx


def _places(base: int, limit: int = 1 << 63) -> int:
    """The largest S with base^S < limit: by default the digits of a
    packed prefix."""
    places = 0
    while base ** (places + 1) < limit:
        places += 1
    return places


class ShallowCloudError(ValueError):
    """A level's words are too deep for the cloud to locate its samples."""


@dataclass(frozen=True)
class SampleCloud:
    """Monte Carlo draw from the carpet measure, reproducible by seed.

    Each sample is held as its digit expansion on both axes: ``prefix``
    row 0 is the base-n integer of the first S_x x digits, row 1 the
    base-m integer of the first S_y y digits, with S the largest count
    whose base^S is below 2^63 (31 for base 4, 39 for base 3, 62 for
    base 2); ``suffix`` holds the later digits of the ``depth`` drawn as
    a fraction in [0, 1), so x = (prefix + suffix) * n^-S_x.  Digits
    past ``depth`` are zero.
    """

    prefix: np.ndarray        # (2, size) uint64
    suffix: np.ndarray        # (2, size) float64 in [0, 1)
    bases: tuple[int, int]    # (n, m)
    depth: int
    seed: int

    @property
    def size(self) -> int:
        return int(self.prefix.shape[1])

    def coordinate(self, axis: int, rows: slice = slice(None)) -> np.ndarray:
        """Axis ``axis`` (0 for x, 1 for y) of the samples in ``rows``,
        all by default, as a new float64 array in [0, 1]."""
        base = self.bases[axis]
        out = self.prefix[axis, rows].astype(np.float64)
        out += self.suffix[axis, rows]
        out *= float(base) ** -_places(base)
        return out

    @property
    def points(self) -> np.ndarray:
        """The samples as a new (size, 2) float64 array in [0, 1]^2."""
        return np.stack([self.coordinate(0), self.coordinate(1)], axis=1)


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
    weights.

    Rows are drawn in fixed blocks, each with its own generator seeded
    by (seed, block).  Each block is drawn and packed in row chunks, so
    the (size, depth) digit matrix never exists.  Per axis, a chunk's
    prefix is two float64 matrix-vector products over the digit values,
    each exact because its every partial sum is an integer below 2^53,
    joined as integers; its suffix is one more product.  A chunk is a
    whole number of 64-row groups of at most 2^17 digits, small enough
    that OpenBLAS computes its products on the calling thread, so no
    helper thread spins between them and the suffixes do not depend on
    OpenBLAS's thread count.  Digit weights past ``MAX_DEPTH`` are 0.0,
    so a deeper draw is refused.
    """
    if size < 1:
        raise ValueError(f"need size >= 1, got {size}")
    if not MIN_TAIL <= depth <= MAX_DEPTH:
        raise ValueError(
            f"need {MIN_TAIL} <= depth <= {MAX_DEPTH}, got {depth}")
    digits = params.spec.digits
    cum = np.cumsum([float(w) for w in params.spec.weights])
    # Per axis: digit values, then the column ranges and weights of the
    # prefix's high and low parts and of the suffix, and the integer
    # factors joining the parts.
    axes = []
    for axis, base in enumerate((params.n, params.m)):
        places = _places(base)
        kept = min(places, depth)
        # The most digits whose value a float64 product sums exactly.
        high = min(kept, _places(base, (1 << 53) + 1))
        axes.append((
            np.array([d[axis] for d in digits], dtype=np.float64),
            high, kept, places,
            np.power(float(base), np.arange(high - 1, -1, -1.0)),
            np.power(float(base), np.arange(kept - high - 1, -1, -1.0)),
            np.power(float(base), -np.arange(1.0, depth - places + 1)),
            np.uint64(base ** (kept - high)), np.uint64(base ** (places - kept)),
        ))
    step = max(64, _GEMV_SIZE // depth // 64 * 64)
    prefix = np.empty((2, size), dtype=np.uint64)
    suffix = np.zeros((2, size), dtype=np.float64)
    for lo in range(0, size, _SHARD_ROWS):
        end = min(lo + _SHARD_ROWS, size)
        rng = np.random.default_rng([int(seed), lo // _SHARD_ROWS])
        for a in range(lo, end, step):
            b = min(a + step, end)
            idx = uniform_digits(rng.random((b - a, depth)), cum).astype(
                np.intp)
            for axis, (vals, high, kept, places, hw, lw, sw, join, pad) in (
                    enumerate(axes)):
                v = vals.take(idx)
                top = (v[:, :high] @ hw).astype(np.uint64) * join
                if kept > high:
                    top += (v[:, high:kept] @ lw).astype(np.uint64)
                prefix[axis, a:b] = top * pad
                if depth > places:
                    suffix[axis, a:b] = v[:, places:] @ sw
    return SampleCloud(prefix=prefix, suffix=suffix,
                       bases=(params.n, params.m), depth=depth, seed=seed)


def _check_depth(params: DerivedParams, xi_max: int, depth: int) -> None:
    """Raise ``ShallowCloudError`` unless a cloud of ``depth`` digits can
    locate words up to length ``xi_max``: every such word must sit inside
    the packed prefixes and leave at least ``MIN_TAIL`` drawn digits
    after it, or its samples' offsets would be cut short."""
    if ell(params, xi_max) > _places(params.n) or xi_max > _places(params.m):
        raise ShallowCloudError(
            f"words of length {xi_max} are deeper than the packed prefix of "
            f"{_places(params.n)} x digits and {_places(params.m)} y digits")
    if depth < xi_max + MIN_TAIL:
        raise ShallowCloudError(
            f"words of length {xi_max} need a cloud depth of at least "
            f"{xi_max + MIN_TAIL}, got {depth}")


_HASH = np.uint64(0x9E3779B97F4A7C15)   # 2^64 / golden ratio, odd


def _slot_bits(count: int) -> int:
    """log2 of a cell table's slot count for ``count`` words: the
    smallest power of two of at least 2 * count slots, so fewer than 4
    per word, and at least 2."""
    return max(1, (2 * count - 1).bit_length())


class _CellTable:
    """The cells (X, Y) of one word length, hashed for exact membership.

    A cell's slot is the top ``_slot_bits`` bits of a fixed
    multiplicative hash of its two ``uint64`` indices.  The cells are
    held in slot order, a stable argsort of their slots, and
    ``start[b]:start[b + 1]`` are the cells of slot b; one padding cell
    at the end keeps ``start[b]`` a valid position for an empty last
    slot.  The hash only decides where to look: a query is a member when
    it equals a cell of its slot in both indices.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        bits = _slot_bits(len(x))
        self.shift = np.uint64(64 - bits)
        slot = self.slots(x, y)
        order = np.argsort(slot, kind="stable")
        self.x = np.append(x[order], np.uint64(0))
        self.y = np.append(y[order], np.uint64(0))
        # 32-bit positions halve the cache lines the lookups touch.
        self.start = np.zeros((1 << bits) + 1, dtype=np.int32
                              if len(x) < 1 << 31 else np.int64)
        np.cumsum(np.bincount(slot, minlength=1 << bits), out=self.start[1:])

    def slots(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        mixed = x * _HASH
        mixed ^= y
        mixed *= _HASH
        mixed >>= self.shift
        return mixed.view(np.int64)

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Whether each query (``x``, ``y``) is a cell of the table."""
        slot = self.slots(x, y)
        # Gathers by int32 positions convert them on every call.
        pos = self.start.take(slot).astype(np.intp)
        end = self.start[1:].take(slot)
        del slot
        hit = self.x.take(pos) == x
        hit &= self.y.take(pos) == y
        hit &= pos < end
        # The first probe decides every query whose slot holds at most
        # one cell; the rest walk their slots a cell at a time.
        rest = np.flatnonzero(~hit & (end - pos > 1))
        while len(rest):
            pos_r = pos[rest] + 1
            pos[rest] = pos_r
            found = ((self.x.take(pos_r) == x[rest])
                     & (self.y.take(pos_r) == y[rest]))
            hit[rest[found]] = True
            rest = rest[~found & (end[rest] - pos_r > 1)]
        return hit


def _squared_offset(prefix: np.ndarray, suffix: np.ndarray, cell: np.ndarray,
                    rows: np.ndarray, div: np.uint64, side: float
                    ) -> np.ndarray:
    """The squared offsets, on one axis, of the samples ``rows`` from the
    centres of their cells: ``cell`` is each sample's cell index, the
    floor quotient of its ``prefix`` by ``div``, and ``side`` the cells'
    side."""
    quot = cell.take(rows)
    quot *= div
    rest = prefix.take(rows)
    rest -= quot
    del quot
    # A remainder is below div < 2^63, so its int64 view is the same
    # integer, and numpy converts int64 to float64 far faster than uint64.
    off = rest.view(np.int64).astype(np.float64)
    del rest
    off += suffix.take(rows)
    off /= float(div)
    off -= 0.5
    off *= side
    off *= off
    return off


def _own_cells(prefix: np.ndarray, suffix: np.ndarray, axes,
               table: _CellTable, dist: np.ndarray) -> np.ndarray:
    """The rows of a chunk's samples that lie in a cell of ``table``;
    their squared distances from those cells' centres are written to
    ``dist``.  The chunk's digits are ``prefix`` and ``suffix``, and
    ``axes`` holds per axis the divisor down to the cells' digits and the
    cells' side.  Its temporaries die with the call, so a chunk holds
    those of one length at a time."""
    cells = [p // d for p, (d, _) in zip(prefix, axes)]
    hit = table.contains(*cells)
    rows = np.flatnonzero(hit)
    x, y = (_squared_offset(p, s, c, rows, *axis)
            for p, s, c, axis in zip(prefix, suffix, cells, axes))
    x += y
    dist[rows] = x
    return rows


def locate(partition: PartitionLambdaK,
           cloud: SampleCloud) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's stopping word, and its distance to that word's centre.

    Returns the length of each sample's word, as a uint8 array, 0 for a
    sample that lies in no word of the partition or in more than one;
    and the distance from each located sample (length nonzero), samples
    first to last, to the centre of its own cell.

    A length-h word is the cell of x index X < n^ell(h) and y index
    Y < m^h that its digits spell; a sample lies in it when X and Y are
    the integers of its first ell(h) x and h y digits, the floor
    quotients P // d of its prefixes P by d = base^(S - digits).  Each
    length's cells, decoded from its keys, are put in a hashed
    ``_CellTable`` once, and every sample is looked up at every length
    by comparing both indices exactly.  The offset from the centre is
    read in cell-local coordinates from the remainder P - X * d: on each
    axis it is (P - X * d + suffix) / d - 1/2 cell sides, so it keeps
    full float precision at any cell depth.  The distance is the root of
    the two offsets' squares, each scaled by its cell side.  Raises
    ``ShallowCloudError`` when the level's longest words are too deep
    for the cloud.
    """
    params = partition.params
    if cloud.bases != (params.n, params.m):
        raise ValueError(f"cloud drawn for bases {cloud.bases}, carpet has "
                         f"({params.n}, {params.m})")
    _check_depth(params, partition.xi_max, cloud.depth)
    n, m = params.n, params.m
    sx, sy = _places(n), _places(m)
    # Per length: its divisors down to the cell's digits and the cell's
    # sides on both axes, and its cells.
    tables = []
    for h, (keys, _, _) in partition.blocks.items():
        l = ell(params, h)
        tables.append((h, ((np.uint64(n ** (sx - l)), float(n) ** -l),
                           (np.uint64(m ** (sy - h)), float(m) ** -h)),
                       _CellTable(*cell_indices(params, h, keys))))
    found = np.zeros(cloud.size, dtype=np.uint8)
    # A chunk's distances are written over its own rows of ``out``, then
    # those of its located samples moved down after the ones before.
    out = np.empty(cloud.size)
    done = 0
    for lo in range(0, cloud.size, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        prefix, suffix = cloud.prefix[:, rows], cloud.suffix[:, rows]
        at, dist = found[rows], out[rows]
        hits = np.zeros(len(at), dtype=np.uint8)
        for h, axes, table in tables:
            inside = _own_cells(prefix, suffix, axes, table, dist)
            hits[inside] += 1
            at[inside] = h
        at[hits != 1] = 0
        located = np.count_nonzero(at)
        if located < len(at) or done < lo:
            out[done:done + located] = dist[at != 0]
        np.sqrt(out[done:done + located], out=out[done:done + located])
        done += located
    return found, out[:done]


@dataclass(frozen=True)
class DistortionEstimate:
    """Monte Carlo mean of the log own-cell distance."""

    estimate: float
    stderr: float
    floored: int              # zero distances clamped at DISTANCE_FLOOR
    unlocated: int            # samples in no stopping word, or in several


def log_distortion(partition: PartitionLambdaK,
                   cloud: SampleCloud) -> DistortionEstimate:
    """Mean log distance from the located samples to their own cells'
    centres (``locate``).

    An exactly zero distance is clamped at ``DISTANCE_FLOOR`` and
    counted.  The logs are added by an exact sum, rounded once, the
    float ``math.fsum`` gives; their squared deviations from that mean
    are formed in place, a chunk at a time, and added the same way.
    Unlocated samples are left out and counted.
    """
    _, logs = locate(partition, cloud)
    done = len(logs)
    if not done:
        raise ValueError("no sample of the cloud lies in exactly one word "
                         "of the partition")
    floored = int(np.count_nonzero(logs < DISTANCE_FLOOR))
    np.log(np.maximum(logs, DISTANCE_FLOOR, out=logs), out=logs)
    est = _exact_sum(logs) / done
    for lo in range(0, done, _CHUNK):
        dev = logs[lo:lo + _CHUNK]
        dev -= est
        dev *= dev
    sd = math.sqrt(_exact_sum(logs) / (done - 1)) if done > 1 else 0.0
    return DistortionEstimate(
        estimate=est,
        stderr=sd / math.sqrt(done),
        floored=floored,
        unlocated=cloud.size - done,
    )


def _exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of finite float64 ``values``: the float
    ``math.fsum`` returns, computed in bounded chunks.

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
    for lo in range(0, len(values), _CHUNK):
        mant, exp = np.frexp(values[lo:lo + _CHUNK])
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
    floored: int
    cloud_size: int
    seed: int
    unlocated: int            # samples in no stopping word, or in several

    @property
    def anchor_gap(self) -> float:
        return self.upper_anchor - self.lower_anchor


def r_k_diagnostic(partition: PartitionLambdaK,
                   cloud: SampleCloud) -> QuantDiagnostics:
    """Exact anchors plus a Monte Carlo own-cell distortion estimate for
    level k."""
    params = partition.params
    L = params.denom_lcm
    log_m = math.log(params.spec.m)
    lower = 0.0
    upper = 0.0
    for h, nu_sum in partition.length_nu_sums.items():
        mass_h = float(Fraction(nu_sum, L ** h))
        lower += mass_h * (-h * log_m)
        upper += mass_h * diameter_log(params, h)
    est = log_distortion(partition, cloud)
    r_k = math.log(partition.phi_k) / params.s0 + est.estimate
    return QuantDiagnostics(
        k=partition.k,
        phi_k=partition.phi_k,
        lower_anchor=lower,
        upper_anchor=upper,
        e_hat_est=est.estimate,
        stderr=est.stderr,
        r_k=r_k,
        floored=est.floored,
        cloud_size=cloud.size,
        seed=cloud.seed,
        unlocated=est.unlocated,
    )


@dataclass(frozen=True)
class BallBoundReport:
    """Empirical check of the power-law mass bound for small balls."""

    skipped: bool
    reason: str
    exponent: float
    coefficient: float
    failures: tuple[tuple[int, float, float, float], ...]
    max_ratio: float          # worst observed mass / threshold

    @property
    def ok(self) -> bool:
        return self.skipped or not self.failures


def _ball_counts(xs: np.ndarray, ys: np.ndarray, pivots: np.ndarray,
                 radii) -> np.ndarray:
    """The number of points (``xs``, ``ys``), sorted by x, within each
    radius of each pivot, as a (len(pivots), len(radii)) array: the
    points whose squared distance dx^2 + dy^2 is at most r^2, counted as
    a KD-tree's ball query counts them.

    A sweep: each pivot's slab of x within the widest radius is a
    contiguous run whose squared distances are computed once; a narrower
    radius is a sub-run of it.  For points in the unit square the slabs
    are widened by far more than the rounding of dx, so only the exact
    test decides.
    """
    radii = [float(r) for r in radii]
    squares = [r * r for r in radii]
    # Every pivot's slab ends at once: column 0 for the widest radius,
    # column j + 1 for radius j.
    half = np.array([max(radii, default=0.0)] + radii)
    x0 = pivots[:, :1]
    starts = np.searchsorted(xs, x0 - half - _SLAB_PAD).tolist()
    stops = np.searchsorted(xs, x0 + half + _SLAB_PAD).tolist()
    counts = np.zeros((len(pivots), len(radii)), dtype=np.int64)
    for i, (px, py) in enumerate(pivots.tolist()):
        (lo, *a), (hi, *b) = starts[i], stops[i]
        d2 = xs[lo:hi] - px
        d2 *= d2
        dy = ys[lo:hi] - py
        dy *= dy
        d2 += dy
        for j, r2 in enumerate(squares):
            counts[i, j] = np.count_nonzero(d2[a[j] - lo:b[j] - lo] <= r2)
    return counts


def _sorted_by_x(cloud: SampleCloud, rows: slice
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The x and the y of the samples in ``rows``, both ordered by x."""
    x = cloud.coordinate(0, rows)
    by_x = np.argsort(x)
    xs = x[by_x]
    # The sorted y go into x's buffer; every index is in range, and
    # mode "clip" writes there directly, where "raise" buffers a copy.
    return xs, cloud.coordinate(1, rows).take(by_x, out=x, mode="clip")


def _cloud_ball_counts(cloud: SampleCloud, pivots: np.ndarray,
                       radii) -> np.ndarray:
    """``_ball_counts`` over the whole cloud, a chunk of ``_BALL_ROWS``
    rows at a time: each chunk's points are sorted by x and swept on
    their own, and the chunks' counts added.  Every point lies in one
    chunk and is tested as in one sweep over the whole cloud, so the
    counts are the same, while only chunk-sized arrays are made."""
    counts = np.zeros((len(pivots), len(radii)), dtype=np.int64)
    for lo in range(0, cloud.size, _BALL_ROWS):
        xs, ys = _sorted_by_x(cloud, slice(lo, lo + _BALL_ROWS))
        counts += _ball_counts(xs, ys, pivots, radii)
        del xs, ys      # before the next chunk's are made
    return counts


def ball_bound_check(params: DerivedParams, cloud: SampleCloud,
                     centers: int, radii) -> BallBoundReport:
    """Test empirical ball masses against C * eps^t at sampled centers.

    The centers are the cloud's first ``centers`` points, and ``radii``
    at least one finite radius >= 0.  The exponent t is
    -log q_max / log m, which degenerates to zero for single-column-mass
    carpets; those are reported as skipped because the bound carries no
    content there.  Thresholds include a three sigma binomial allowance
    plus one sample of slack.
    """
    radii = tuple(float(r) for r in radii)
    if centers < 1 or centers > cloud.size:
        raise ValueError("centers must be in [1, cloud size]")
    if not radii:
        raise ValueError("need at least one radius")
    if not all(0.0 <= r < math.inf for r in radii):
        raise ValueError(f"radii must be finite and >= 0, got {radii}")
    if params.ball_exponent == 0.0:
        return BallBoundReport(
            skipped=True,
            reason="a full-mass column makes the ball exponent zero",
            exponent=0.0, coefficient=params.c_ball,
            failures=(), max_ratio=0.0)
    t = params.ball_exponent
    c = params.c_ball
    n_pts = cloud.size
    pivots = np.stack([cloud.coordinate(0, slice(centers)),
                       cloud.coordinate(1, slice(centers))], axis=1)
    counts = _cloud_ball_counts(cloud, pivots, radii)
    failures = []
    max_ratio = 0.0
    for col, eps in enumerate(radii):
        frac = counts[:, col].astype(np.float64) / n_pts
        se = np.sqrt(np.maximum(frac * (1.0 - frac), 0.0) / n_pts)
        threshold = c * eps ** t + 3.0 * se + 1.0 / n_pts
        ratio = frac / threshold
        worst = int(np.argmax(ratio))
        max_ratio = max(max_ratio, float(ratio[worst]))
        bad = np.nonzero(frac > threshold)[0]
        for ci in bad:
            failures.append(
                (int(ci), eps, float(frac[ci]), float(threshold[ci])))
    return BallBoundReport(
        skipped=False,
        reason="",
        exponent=t,
        coefficient=c,
        failures=tuple(failures),
        max_ratio=max_ratio,
    )
