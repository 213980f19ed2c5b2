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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .measure import DerivedParams
from .partition import PartitionLambdaK, sample_digit_matrix
from .words import ell


__all__ = [
    "SampleCloud",
    "Codebook",
    "DistortionEstimate",
    "QuantDiagnostics",
    "BallBoundReport",
    "DISTANCE_FLOOR",
    "draw_cloud",
    "lambda_codebook",
    "log_distortion",
    "refine_codebook",
    "diameter_log",
    "r_k_diagnostic",
    "ball_bound_check",
]


DISTANCE_FLOOR = 1e-300

_CHUNK = 1 << 15


@dataclass(frozen=True)
class SampleCloud:
    """Monte Carlo draw from the carpet measure, reproducible by seed."""

    points: np.ndarray        # (size, 2) float64 in [0,1]^2
    seed: int
    depth: int

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class Codebook:
    """Finite point set targets for nearest-distance queries."""

    points: np.ndarray        # (card, 2) float64
    origin: str               # "lambda-centers" | "refined" | "external"

    @property
    def card(self) -> int:
        return int(self.points.shape[0])


def draw_cloud(params: DerivedParams, size: int, depth: int = 40,
               seed: int = 0x5EED, threads: int = 1) -> SampleCloud:
    """Sample points by truncated digit series.

    Digit columns are drawn i.i.d. from the map weights; the point is
    the image of the digit string under the base-(n, m) series.  Beyond
    depth 40 the truncation error is far below float resolution.
    """
    if size < 1:
        raise ValueError(f"need size >= 1, got {size}")
    if depth < 20:
        raise ValueError(f"need depth >= 20, got {depth}")
    digits = params.spec.digits
    xi = np.array([i for i, _ in digits], dtype=np.float64)
    yj = np.array([j for _, j in digits], dtype=np.float64)
    xw = np.power(float(params.n), -np.arange(1, depth + 1, dtype=np.float64))
    yw = np.power(float(params.m), -np.arange(1, depth + 1, dtype=np.float64))
    mat = sample_digit_matrix(params, size, depth, seed, threads=threads)
    pts = np.empty((size, 2), dtype=np.float64)
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        block = mat[lo:hi]
        pts[lo:hi, 0] = xi[block] @ xw
        pts[lo:hi, 1] = yj[block] @ yw
    return SampleCloud(points=pts, seed=seed, depth=depth)


def lambda_codebook(partition: PartitionLambdaK) -> Codebook:
    """One point per stopping word, the center of its rectangle; row i
    is word i of the partition."""
    params = partition.params
    n = float(params.n)
    m = float(params.m)
    pts = np.empty((partition.phi_k, 2), dtype=np.float64)
    for h, (rows, _) in partition.blocks.items():
        l = ell(params, h)
        grid = rows.astype(np.float64)
        iw = np.power(n, -np.arange(1, l + 1, dtype=np.float64))
        ydig = np.concatenate([grid[:, 1:2 * l:2], grid[:, 2 * l:]], axis=1)
        yweights = np.power(m, -np.arange(1, h + 1, dtype=np.float64))
        out = slice(partition.offsets[h], partition.offsets[h] + len(rows))
        pts[out, 0] = grid[:, 0:2 * l:2] @ iw + 0.5 * n ** (-l)
        pts[out, 1] = ydig @ yweights + 0.5 * m ** (-float(h))
    return Codebook(points=pts, origin="lambda-centers")


@dataclass(frozen=True)
class DistortionEstimate:
    """Monte Carlo mean of log nearest-distance, with floor accounting."""

    estimate: float
    stderr: float
    floored: int              # samples clamped at the distance floor
    count: int


def log_distortion(cloud: SampleCloud, codebook: Codebook,
                   workers: int = 1) -> DistortionEstimate:
    """Mean log distance from cloud points to their nearest code point.

    Distances are exact nearest-neighbor values; zero distances are
    clamped at a floor so the mean stays finite, and every clamped
    sample is counted in the result.  The reduction is a full-precision
    sum in fixed order, so the estimate does not depend on ``workers``.
    """
    if cloud.size < 1 or codebook.card < 1:
        raise ValueError("need a nonempty cloud and codebook")
    from scipy.spatial import cKDTree
    tree = cKDTree(codebook.points)
    dist, _ = tree.query(cloud.points, k=1, workers=workers)
    floored = int(np.count_nonzero(dist < DISTANCE_FLOOR))
    logs = np.log(np.maximum(dist, DISTANCE_FLOOR))
    est = math.fsum(logs) / cloud.size
    sd = float(np.std(logs, ddof=1)) if cloud.size > 1 else 0.0
    return DistortionEstimate(
        estimate=est,
        stderr=sd / math.sqrt(cloud.size),
        floored=floored,
        count=cloud.size,
    )


def refine_codebook(params: DerivedParams, cloud: SampleCloud,
                    codebook: Codebook, k: int, iters: int,
                    workers: int = 1) -> Codebook:
    """Local search on code points, keeping the best iterate.

    Each pass assigns cloud points to nearest centers and moves every
    center to the inverse-square-distance weighted mean of its cell,
    with distances floored at the cell scale m^-(k+5).  The floored log
    objective is evaluated after every pass and the best-scoring point
    set is returned; monotone improvement is not guaranteed, since the
    unfloored objective diverges on atoms.  Exploration aid only: no
    certification rests on it.
    """
    if iters < 0:
        raise ValueError(f"need iters >= 0, got {iters}")
    pts = codebook.points.copy()
    if iters == 0:
        return Codebook(points=pts, origin="refined")
    from scipy.spatial import cKDTree
    cell_floor = float(params.m) ** (-(k + 5))
    best = pts.copy()
    best_obj = log_distortion(cloud, Codebook(pts, "refined"),
                              workers=workers).estimate
    cloud_pts = cloud.points
    for _ in range(iters):
        tree = cKDTree(pts)
        _, owner = tree.query(cloud_pts, k=1, workers=workers)
        order = np.argsort(owner, kind="stable")
        sorted_pts = cloud_pts[order]
        bounds = np.searchsorted(owner[order], np.arange(pts.shape[0] + 1))
        for c in range(pts.shape[0]):
            cell = sorted_pts[bounds[c]:bounds[c + 1]]
            if cell.shape[0] == 0:
                continue
            diff = cell - pts[c]
            d2 = np.maximum(np.einsum("ij,ij->i", diff, diff),
                            cell_floor * cell_floor)
            w = 1.0 / d2
            pts[c] = (cell * w[:, None]).sum(axis=0) / w.sum()
        obj = log_distortion(cloud, Codebook(pts, "refined"),
                             workers=workers).estimate
        if obj < best_obj:
            best_obj = obj
            best = pts.copy()
    return Codebook(points=best, origin="refined")


def diameter_log(params: DerivedParams, h: int) -> float:
    """log of the rectangle diameter shared by all length-h words."""
    l = ell(params, h)
    return math.log(math.hypot(
        float(params.n) ** (-l), float(params.m) ** (-h)))


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
    )


@dataclass(frozen=True)
class BallBoundReport:
    """Empirical check of the power-law mass bound for small balls."""

    skipped: bool
    reason: str
    exponent: float
    coefficient: float
    centers: int
    radii: tuple[float, ...]
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
            centers=0, radii=radii, failures=(), max_ratio=0.0)
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
    for r_idx, eps in enumerate(radii):
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
        centers=centers,
        radii=radii,
        failures=tuple(failures),
        max_ratio=max_ratio,
    )
