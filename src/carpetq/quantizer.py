"""Geometric-mean quantization diagnostics.

The normalized error R_k = s0^{-1} log phi_k + e_hat couples the word
count of a stopping level with the mean log-distance from a sample of
the measure to a codebook of that cardinality.  Boundedness of R_k over
k is the numerical signature that the quantization dimension of order
zero exists and equals s0.  Everything here estimates e_hat by Monte
Carlo against fixed codebooks and brackets it with exact anchor sums,
because the empirical log objective is unbounded below on atoms and
cannot certify anything on its own.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .measure import DerivedParams
from .partition import PartitionLambdaK
from .words import ell


__all__ = [
    "SampleCloud",
    "Codebook",
    "DistortionEstimate",
    "QuantDiagnostics",
    "BallBoundReport",
    "DISTANCE_FLOOR",
    "uniform_digits",
    "draw_cloud",
    "lambda_codebook",
    "nearest_distances",
    "log_distortion",
    "diameter_log",
    "r_k_diagnostic",
    "ball_bound_check",
]


DISTANCE_FLOOR = 1e-300

_SHARD_ROWS = 1 << 15       # rows per sampling block, one generator each
_CHUNK = 1 << 16            # cloud rows per Morton-code or query batch
_MORTON_BITS = 10           # grid cells per axis: 2^10


@dataclass(frozen=True)
class SampleCloud:
    """Monte Carlo draw from the carpet measure, reproducible by seed."""

    points: np.ndarray        # (size, 2) float64 in [0,1]^2
    seed: int

    @property
    def size(self) -> int:
        return int(self.points.shape[0])

    @cached_property
    def order(self) -> np.ndarray:
        """A permutation of the rows in Morton (Z-curve) order of their
        cells on a 2^10 x 2^10 grid over the unit square.  Queries taken
        in this order visit the KD-tree with locality; it changes no
        result.  Computed once per cloud."""
        v = np.arange(1 << _MORTON_BITS, dtype=np.uint32)
        spread = np.zeros_like(v)
        for bit in range(_MORTON_BITS):
            spread |= ((v >> bit) & 1) << (2 * bit)
        top = (1 << _MORTON_BITS) - 1
        codes = np.empty(self.size, dtype=np.uint32)
        for lo in range(0, self.size, _CHUNK):
            cells = np.clip(self.points[lo:lo + _CHUNK] * (1 << _MORTON_BITS),
                            0, top).astype(np.uint32)
            codes[lo:lo + _CHUNK] = (spread[cells[:, 0]]
                                     | (spread[cells[:, 1]] << 1))
        return np.argsort(codes, kind="stable")


@dataclass(frozen=True)
class Codebook:
    """Finite point set targets for nearest-distance queries.

    ``reach`` bounds the distance from any point of the measure's support
    to its nearest code point, so queries search no farther; inf when
    nothing is known.
    """

    points: np.ndarray        # (card, 2) float64
    reach: float = math.inf

    @property
    def card(self) -> int:
        return int(self.points.shape[0])


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
               seed: int = 0x5EED, threads: int = 1) -> SampleCloud:
    """Sample points by truncated digit series.

    Digit columns are drawn i.i.d. from the map weights; the point is
    the image of the digit string under the base-(n, m) series, cut
    after ``depth`` digits.  The cut moves a point by up to n^-depth in
    x and m^-depth in y.  At the default depth 40 that is 3^-40 (about
    8e-20) for m = 3, far below float resolution, but 2^-40 (about
    9e-13) for m = 2.  That is not small against the cells of a skewed
    m = 2 carpet: the 4x2 carpet with weights 3/4 | 1/4 has cells 2^-39
    high at k = 4 and 2^-49 at k = 5.  There a truncated point can land
    exactly on a centre, and its floored distance biases the estimate.

    Rows are drawn in fixed blocks, each with its own generator seeded
    by (seed, block), so the cloud is byte-identical for any thread
    count; with threads > 1, blocks run concurrently.  Each block
    becomes points as soon as it is drawn, so the (size, depth) digit
    matrix never exists.
    """
    if size < 1:
        raise ValueError(f"need size >= 1, got {size}")
    if depth < 20:
        raise ValueError(f"need depth >= 20, got {depth}")
    digits = params.spec.digits
    cum = np.cumsum([float(w) for w in params.spec.weights])
    xi = np.array([i for i, _ in digits], dtype=np.float64)
    yj = np.array([j for _, j in digits], dtype=np.float64)
    xw = np.power(float(params.n), -np.arange(1, depth + 1, dtype=np.float64))
    yw = np.power(float(params.m), -np.arange(1, depth + 1, dtype=np.float64))
    pts = np.empty((size, 2), dtype=np.float64)

    def fill(lo: int) -> None:
        hi = min(lo + _SHARD_ROWS, size)
        rng = np.random.default_rng([int(seed), lo // _SHARD_ROWS])
        idx = uniform_digits(rng.random((hi - lo, depth)), cum)
        pts[lo:hi, 0] = xi[idx] @ xw
        pts[lo:hi, 1] = yj[idx] @ yw

    starts = range(0, size, _SHARD_ROWS)
    if threads <= 1 or len(starts) <= 1:
        for lo in starts:
            fill(lo)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, starts))
    return SampleCloud(points=pts, seed=seed)


def lambda_codebook(partition: PartitionLambdaK) -> Codebook:
    """One point per stopping word, the center of its rectangle; row i
    is word i of the partition.

    Every point of the carpet lies in its own stopping rectangle, so its
    center is within half that rectangle's diagonal: the reach is half
    the level's largest diagonal, widened by a relative 1e-9 for
    rounding.
    """
    params = partition.params
    n = float(params.n)
    m = float(params.m)
    pts = np.empty((partition.phi_k, 2), dtype=np.float64)
    for h, (rows, _, _) in partition.blocks.items():
        l = ell(params, h)
        iw = np.power(n, -np.arange(1, l + 1, dtype=np.float64))
        yweights = np.power(m, -np.arange(1, h + 1, dtype=np.float64))
        out = slice(partition.offsets[h], partition.offsets[h] + len(rows))
        # Widen only the digits read, from uint8, one axis at a time.  The
        # x operand stays a strided view: a contiguous copy, or row chunks
        # of the product, would move the last bit of some centers.
        pts[out, 0] = (rows[:, :2 * l].astype(np.float64)[:, ::2] @ iw
                       + 0.5 * n ** (-l))
        ydig = np.concatenate([rows[:, 1:2 * l:2], rows[:, 2 * l:]], axis=1)
        pts[out, 1] = (ydig.astype(np.float64) @ yweights
                       + 0.5 * m ** (-float(h)))
    reach = 0.5 * max(_diameter(params, h) for h in partition.blocks)
    return Codebook(points=pts, reach=reach * (1 + 1e-9))


@dataclass(frozen=True)
class DistortionEstimate:
    """Monte Carlo mean of log nearest-distance, with floor accounting."""

    estimate: float
    stderr: float
    floored: int              # samples clamped at the distance floor
    unreached: int            # samples with no code point within the reach


def nearest_distances(cloud: SampleCloud, codebook: Codebook,
                      workers: int = 1) -> tuple[np.ndarray, int]:
    """Distance from each cloud point, in row order, to its nearest code
    point, and the number of points with no code point within the
    codebook's reach.

    The queries search no farther than the reach and run over the cloud
    in its Morton order; neither changes a distance.  A point beyond the
    reach disproves it; such points are queried again without a bound,
    so every distance is exact either way.
    """
    from scipy.spatial import cKDTree
    tree = cKDTree(codebook.points)
    dist = np.empty(cloud.size, dtype=np.float64)
    for lo in range(0, cloud.size, _CHUNK):
        rows = cloud.order[lo:lo + _CHUNK]
        dist[rows], _ = tree.query(
            np.take(cloud.points, rows, axis=0), k=1,
            distance_upper_bound=codebook.reach, workers=workers)
    missed = np.flatnonzero(dist == math.inf)
    if missed.size:
        dist[missed], _ = tree.query(
            np.take(cloud.points, missed, axis=0), k=1, workers=workers)
    return dist, int(missed.size)


def log_distortion(cloud: SampleCloud, codebook: Codebook,
                   workers: int = 1) -> DistortionEstimate:
    """Mean log distance from cloud points to their nearest code point.

    Distances are exact nearest-neighbor values; zero distances are
    clamped at a floor so the mean stays finite, and every clamped
    sample is counted in the result.  The reduction is a full-precision
    sum in fixed order, so the estimate does not depend on ``workers``.
    Samples beyond the codebook's reach are counted as unreached.
    """
    if cloud.size < 1 or codebook.card < 1:
        raise ValueError("need a nonempty cloud and codebook")
    dist, unreached = nearest_distances(cloud, codebook, workers=workers)
    floored = int(np.count_nonzero(dist < DISTANCE_FLOOR))
    logs = np.log(np.maximum(dist, DISTANCE_FLOOR, out=dist), out=dist)
    est = math.fsum(logs) / cloud.size
    sd = float(np.std(logs, ddof=1)) if cloud.size > 1 else 0.0
    return DistortionEstimate(
        estimate=est,
        stderr=sd / math.sqrt(cloud.size),
        floored=floored,
        unreached=unreached,
    )


def _diameter(params: DerivedParams, h: int) -> float:
    l = ell(params, h)
    return math.hypot(float(params.n) ** (-l), float(params.m) ** (-h))


def diameter_log(params: DerivedParams, h: int) -> float:
    """log of the rectangle diameter shared by all length-h words."""
    return math.log(_diameter(params, h))


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
    unreached: int            # samples beyond the codebook's reach

    @property
    def anchor_gap(self) -> float:
        return self.upper_anchor - self.lower_anchor


def r_k_diagnostic(partition: PartitionLambdaK, cloud: SampleCloud,
                   workers: int = 1) -> QuantDiagnostics:
    """Exact anchors plus a Monte Carlo distortion estimate for level k."""
    params = partition.params
    L = params.denom_lcm
    log_m = math.log(params.spec.m)
    lower = 0.0
    upper = 0.0
    for h, nu_sum in partition.length_nu_sums.items():
        mass_h = float(Fraction(nu_sum, L ** h))
        lower += mass_h * (-h * log_m)
        upper += mass_h * diameter_log(params, h)
    est = log_distortion(cloud, lambda_codebook(partition), workers=workers)
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
        unreached=est.unreached,
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


def ball_bound_check(params: DerivedParams, cloud: SampleCloud,
                     centers: int, radii, workers: int = 1
                     ) -> BallBoundReport:
    """Test empirical ball masses against C * eps^t at sampled centers.

    The exponent t is -log q_max / log m, which degenerates to zero for
    single-column-mass carpets; those are reported as skipped because
    the bound carries no content there.  Thresholds include a three
    sigma binomial allowance plus one sample of slack.
    """
    radii = tuple(float(r) for r in radii)
    if params.ball_exponent == 0.0:
        return BallBoundReport(
            skipped=True,
            reason="a full-mass column makes the ball exponent zero",
            exponent=0.0, coefficient=params.c_ball,
            failures=(), max_ratio=0.0)
    if centers < 1 or centers > cloud.size:
        raise ValueError("centers must be in [1, cloud size]")
    t = params.ball_exponent
    c = params.c_ball
    n_pts = cloud.size
    from scipy.spatial import cKDTree
    tree = cKDTree(cloud.points)
    pivots = cloud.points[:centers]
    failures = []
    max_ratio = 0.0
    for eps in radii:
        counts = tree.query_ball_point(
            pivots, r=eps, return_length=True, workers=workers)
        frac = np.asarray(counts, dtype=np.float64) / n_pts
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
