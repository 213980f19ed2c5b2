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
folds each level's lengths and log distances into exact running sums,
and drops them, so no array is sized by the cloud.

The small-ball bound mu(B(x, eps)) <= C eps^t, which the lower estimate
of the error rests on, is certified without samples: per band of radii,
by the exact mass of the heaviest approximate squares a ball can meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .measure import CarpetSpec, DerivedParams
from .partition import EnumerationCapError, stopping_rule
from .words import ell


__all__ = [
    "SampleCloud",
    "QuantDiagnostics",
    "LevelTally",
    "BallBoundReport",
    "DISTANCE_FLOOR",
    "MAX_DEPTH",
    "MIN_TAIL",
    "uniform_digits",
    "draw_cloud",
    "locate",
    "tally",
    "diameter_log",
    "r_k_diagnostic",
    "ball_bound_check",
]


DISTANCE_FLOOR = 1e-300     # clamp for an exactly zero own-cell distance

MAX_DEPTH = 1074            # most digits drawn per sample
MIN_TAIL = 20               # digits drawn past the deepest level's longest words

_SHARD_ROWS = 1 << 15       # rows per sampling block, one generator each
_CHUNK = 1 << 15            # values per exact-sum batch
_WINDOW = 6                 # binary exponents per int64 exact-sum window
_LOW18 = (1 << 18) - 1


@dataclass(frozen=True)
class SampleCloud:
    """Monte Carlo draw from the carpet measure, reproducible by seed.

    The cloud holds no sample: ``chunks`` draws the samples' digits
    anew on each call, as many a sample as its reader asks for, each the
    index of a map of ``spec`` chosen by its weight.
    """

    spec: CarpetSpec
    size: int
    seed: int

    def chunks(self, depth: int):
        """Yield the digits of consecutive blocks of ``_SHARD_ROWS`` rows
        of the cloud, each block's first ``depth`` places as a (depth,
        rows) array of map indices (typed as by ``uniform_digits``),
        digit-major, so one place's digits are one contiguous row.

        Each block is drawn by its own generator seeded by (seed, block),
        place by place: one uniform per row for the first digit, then
        one for the second, and so on.  So every call gives the same
        digits, and a deeper read at the same seed extends every sample
        of a shallower one.
        """
        cum = np.cumsum([float(w) for w in self.spec.weights])
        for lo in range(0, self.size, _SHARD_ROWS):
            rng = np.random.default_rng([int(self.seed), lo // _SHARD_ROWS])
            rows = min(_SHARD_ROWS, self.size - lo)
            digits = np.empty((depth, rows),
                              dtype=np.min_scalar_type(len(cum) - 1))
            for place in digits:
                place[:] = uniform_digits(rng.random(rows), cum)
            yield digits


def uniform_digits(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """The digit index of each uniform in ``u`` under the cumulative map
    weights ``cum``: the number of entries of ``cum[:-1]`` that are
    <= u.  That is ``searchsorted(cum, u, "right")`` clamped to the last
    map, counted by comparisons straight into the result, of the
    smallest unsigned type that holds the last index."""
    digits = np.zeros(u.shape, dtype=np.min_scalar_type(len(cum) - 1))
    for cut in cum[:-1]:
        digits += u >= cut
    return digits


def draw_cloud(params: DerivedParams, size: int,
               seed: int = 0x5EED) -> SampleCloud:
    """Sample the measure by i.i.d. digits drawn from the map weights: a
    cloud of ``size`` samples, drawn a chunk at a time, as deep as
    whatever walks it asks (``SampleCloud.chunks``), so no cloud-sized
    array ever exists.
    """
    if size < 1:
        raise ValueError(f"need size >= 1, got {size}")
    return SampleCloud(spec=params.spec, size=size, seed=seed)


def locate(levels, cloud: SampleCloud):
    """For each chunk of the cloud, in order, (lengths, logs): each of
    the chunk's samples' stopping length at each of ``levels``, the
    ``StoppedStats`` (or collected partitions) of one carpet, and the
    log of its distance from the centre of its stopping cell there, two
    (len(levels), rows) arrays, the lengths' dtype the
    ``np.min_scalar_type`` of the longest.  A generator: each chunk is
    drawn, walked and measured when it is asked for, and nothing it
    yields is sized by the cloud.

    One walk over each chunk serves every level.  It reads each sample's
    digit at each length h, and where ell rises to l also its digit at
    place l, the cell it promotes; ``stopping_rule`` turns those map
    indices into the position of its move among its class's, the
    position turns the class into the next, and the class gives the
    number of levels it is still above.  Level i
    stops at the first length where that number is at most the number of
    deeper levels.  A sample that has stopped at every level walks on
    from class 0, its number kept at 0.  The rule ends at the deepest
    level's longest words, where no class is live, so every sample
    stops at every level.

    Every sample is drawn ``MIN_TAIL`` digits past those words, and the
    chunk's log distances read them all (``_log_distances``): a level's
    distances follow the deepest level walked beside it in their last
    bits.  Raises ``EnumerationCapError``, before any chunk is drawn,
    when that depth passes ``MAX_DEPTH``, and ``ValueError`` when
    ``levels`` is empty or mixes carpets, or when the cloud was drawn
    for another carpet.
    """
    if not levels:
        raise ValueError("need at least one level")
    params = levels[0].params
    if any(level.params.spec != params.spec for level in levels):
        raise ValueError("levels of more than one carpet")
    if cloud.spec != params.spec:
        raise ValueError("cloud drawn for another carpet")
    n, m = params.n, params.m
    ks = [level.k for level in levels]
    picks, rule = stopping_rule(params, ks)
    steps = list(rule)
    longest = len(steps)
    if longest + MIN_TAIL > MAX_DEPTH:
        raise EnumerationCapError(
            f"level k={max(ks)}: words of length {longest} need "
            f"{longest + MIN_TAIL} digits a sample, more than {MAX_DEPTH}")
    deeper = [sum(j > k for j in ks) for k in ks]
    maps = np.intp(len(picks[False]))
    ells = [ell(params, h) for h in range(longest + 1)]
    dtype = np.min_scalar_type(longest)
    # Per axis: each map's digit and the base; per length h: ell(h), and
    # its cells' height m^-h over their width n^-ell(h), in (1/n, 1].
    xd, yd = np.array(params.spec.digits, dtype=np.float64).T
    axes = ((xd, n), (yd, m))
    cells = (np.array(ells, dtype=dtype),
             [n ** l / m ** h for h, l in enumerate(ells)])
    for digits in cloud.chunks(longest + MIN_TAIL):
        rows = digits.shape[1]
        found = np.ones((len(ks), rows), dtype=dtype)
        cls = np.zeros(rows, dtype=np.intp)
        live = np.full(rows, len(ks), dtype=steps[0][3].dtype)
        for h, (rises, table, _, above, _) in enumerate(steps, 1):
            code = digits[h - 1].astype(np.intp)
            if rises:
                code += np.multiply(digits[ells[h] - 1], maps, dtype=np.intp)
            cls = table.take(cls * np.intp(table.shape[1])
                             + picks[rises].take(code))
            np.minimum(above.take(cls), live, out=live)
            if not live.any():
                break
            for row, r in zip(found, deeper):
                row += live > r
        yield found, _log_distances(found, digits, axes, cells)


def _log_distances(found: np.ndarray, digits: np.ndarray, axes,
                   cells) -> np.ndarray:
    """The log distance from each sample of a chunk to the centre of its
    cell at each level, given the chunk's (levels, rows) stopping lengths
    ``found``, its digit-major ``digits`` and ``locate``'s ``axes`` and
    ``cells``.

    The offset is read in cell-local coordinates from the digits after
    the cell.  Per axis, one backward Horner pass from the last drawn
    digit, T_c = (d_{c+1} + T_{c+1}) / base, gives each sample's
    position T_c in [0, 1) within its cell of c digits, for every c in
    turn, and each (level, sample) entry, sorted by length, takes its
    offset T_c - 1/2 on each axis as (d_{c+1} - base/2 + T_{c+1}) / base
    from the first digit after its cell.  Its first difference is exact,
    so on an even base a sample near its cell's centre (d_{c+1} =
    base/2) keeps an offset far below the float spacing at 1/2.  Since
    n >= m, a length-h cell's wider side is its width n^-ell(h), so the
    log distance is -ell(h) log n + log hypot(x offset, y offset times
    the cell's height over its width).  The y cell of h digits is read
    first, at c = h >= ell(h).  Both terms of the hypot are at most 1/2
    and the ratio is above 1/n, so no cell is too small to measure.  A
    sample whose offsets both read as zero has the log distance -inf.
    """
    (xd, n), (yd, m) = axes
    ells, aspect = cells
    rows = found.shape[1]
    flat = found.ravel()
    order = np.argsort(flat, kind="stable")
    # The sorted entries of length h lie at ends[h]:ends[h + 1], and
    # those whose x cell has c digits at xends[c]:xends[c + 1].
    ends = np.concatenate(([0], np.cumsum(np.bincount(
        flat, minlength=len(digits) + 1))))
    xends = ends[np.searchsorted(ells, np.arange(len(digits) + 1))]
    at_x, at_y = np.zeros(rows), np.zeros(rows)
    out = np.empty(len(flat))
    # The shortest word's x cell is the shallowest cell read.
    for c in range(len(digits) - 1, int(ells[flat.min()]) - 1, -1):
        digit = yd.take(digits[c])
        entries = order[ends[c]:ends[c + 1]]
        if len(entries):
            cols = entries % rows
            off = digit.take(cols) - m / 2        # exact
            off += at_y.take(cols)
            off /= m
            off *= aspect[c]
            out[entries] = off
        at_y += digit
        at_y /= m
        digit = xd.take(digits[c])
        entries = order[xends[c]:xends[c + 1]]
        if len(entries):
            cols = entries % rows
            off = digit.take(cols) - n / 2
            off += at_x.take(cols)
            off /= n
            np.hypot(off, out.take(entries), out=off)
            with np.errstate(divide="ignore"):
                np.log(off, out=off)
            off -= c * math.log(n)
            out[entries] = off
        at_x += digit
        at_x /= n
    return out.reshape(found.shape)


class _ExactSums:
    """Running exact sums of finite float64 values and of their squares.

    Each value is q * 2^(e - 53) with q = frexp mantissa * 2^53, an
    integer below 2^53 in magnitude, and e >= -1073; with b = e + 1073,
    it is q * 2^(b - 1126) and its square q^2 * 2^(2b - 2252).  A batch
    of at most ``_CHUNK`` = 2^15 values is cut into windows of
    ``_WINDOW`` consecutive e from its least.  In a window, each limb of
    q = a 2^36 + b' 2^18 + c (|a| <= 2^17; b', c < 2^18) is multiplied by
    2^(e - the window's least e), so it stays below 2^(17 + _WINDOW) in
    magnitude, and a sum of 2^15 products of two such limbs below
    2^(49 + 2 _WINDOW) <= 2^63 while _WINDOW <= 7: the limbs' int64 sums
    and their six int64 dot products are exact.  They are shifted into
    ``total`` and ``squares``, Python integers that hold the sums times
    2^1126 and 2^2252, so nothing is rounded until a result is read, and
    the order of the values does not matter.  A batch within one window
    takes no mask; quantize's clamped logs lie in [-690.8, -0.35], so
    their e lie in [-1, 10] and meet at most two windows.
    """

    def __init__(self):
        self.count = 0
        self.total = 0
        self.squares = 0

    def add(self, values: np.ndarray) -> None:
        self.count += len(values)
        for lo in range(0, len(values), _CHUNK):
            mant, exp = np.frexp(values[lo:lo + _CHUNK])
            q = np.ldexp(mant, 53, out=mant).astype(np.int64)
            least = int(exp.min())
            exp -= least
            if exp.max() < _WINDOW:
                self._add_window(q, exp, least)
                continue
            window, shift = np.divmod(exp, _WINDOW)
            for w in np.flatnonzero(np.bincount(window)).tolist():
                inside = window == w
                self._add_window(q[inside], shift[inside],
                                 least + w * _WINDOW)

    def _add_window(self, q: np.ndarray, shift: np.ndarray,
                    e: int) -> None:
        """Add the values q * 2^(e + shift - 53), by int64 limb sums
        and dots; each shift is in [0, ``_WINDOW``)."""
        scale = np.left_shift(1, shift, dtype=np.int64)
        a = q >> 36
        a *= scale
        b = q >> 18
        b &= _LOW18
        b *= scale
        c = q & _LOW18
        c *= scale
        at = e + 1073
        self.total += ((int(a.sum()) << 36) + (int(b.sum()) << 18)
                       + int(c.sum())) << at
        self.squares += (
            (int(a @ a) << 72) + (int(a @ b) << 55)
            + (((int(a @ c) << 1) + int(b @ b)) << 36)
            + (int(b @ c) << 19) + int(c @ c)) << 2 * at

    def rounded(self) -> float:
        """The sum, correctly rounded: the float ``math.fsum`` gives."""
        return self.total / (1 << 1126)

    def sample_variance(self) -> float:
        """(sum of squares - sum^2 / count) / (count - 1), computed
        exactly and rounded once; it needs two values or more."""
        n = self.count
        return ((n * self.squares - self.total ** 2)
                / ((n * (n - 1)) << 2252))


@dataclass
class LevelTally:
    """One level's running sums over a cloud, folded in a chunk at a
    time by ``tally``: the samples stopping at each length, the exact
    sums of their log distances (clamped) and of their squares, and the
    number of zero distances clamped at ``DISTANCE_FLOOR``."""

    counts: np.ndarray        # samples per stopping length, int64
    sums: _ExactSums = field(default_factory=_ExactSums)
    floored: int = 0

    def add(self, lengths: np.ndarray, logs: np.ndarray) -> None:
        """Fold in one chunk's row of ``locate``'s lengths and logs."""
        self.counts += np.bincount(lengths, minlength=len(self.counts))
        self.floored += int(np.count_nonzero(np.isneginf(logs)))
        self.sums.add(np.nan_to_num(logs, neginf=math.log(DISTANCE_FLOOR)))


def tally(levels, cloud: SampleCloud) -> list[LevelTally]:
    """One ``LevelTally`` per level of ``levels``, in order, from one pass
    over ``locate``'s chunks of ``cloud``: each chunk is folded in and
    dropped before the next is drawn, so no array here is sized by the
    cloud.  Raises what ``locate`` raises."""
    top = max((level.xi_max for level in levels), default=0) + 1
    tallies = [LevelTally(np.zeros(top, dtype=np.int64)) for _ in levels]
    for lengths, logs in locate(levels, cloud):
        for level_tally, found, row in zip(tallies, lengths, logs):
            level_tally.add(found, row)
    return tallies


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
                   level_tally: LevelTally) -> QuantDiagnostics:
    """Exact anchors plus a Monte Carlo own-cell distortion estimate for
    one level, given its ``StoppedStats`` (or collected partition) and
    its ``LevelTally`` from ``tally``.  The anchors are float sums over
    the level's exact per-length masses; the estimate is the mean log
    distance from the samples to their own cells' centres, with the log
    of a zero distance (-inf) clamped at that of ``DISTANCE_FLOOR``.
    The mean is the exact sum of the logs rounded once, the float
    ``math.fsum`` gives, over the sample count; the standard error is
    the square root of the exact sample variance, rounded once, over
    the square root of the count.
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
    sums = level_tally.sums
    size = sums.count
    est = sums.rounded() / size
    sd = math.sqrt(sums.sample_variance()) if size > 1 else 0.0
    return QuantDiagnostics(
        k=level.k,
        phi_k=level.phi_k,
        lower_anchor=lower,
        upper_anchor=upper,
        e_hat_est=est,
        stderr=sd / math.sqrt(size),
        r_k=math.log(level.phi_k) / params.s0 + est,
        floored=level_tally.floored,
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
