"""Acceptance gate: eight checks, one test function per criterion.

Each function prints a single PASS line when it completes (visible with
-s or in the verbose test listing) and asserts everything it states.
The heavy shared inputs (levels 5 and 6 of Carpet A, the million-point
cloud) are built once per module.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import cKDTree

from carpetq.coding import build_antichain, verify_maximal_antichain
from carpetq.partition import (
    check_square_disjointness, enumerate_lambda_k, partition_stats,
    stopped_statistics,
)
from carpetq.quantizer import (
    ball_bound_check, draw_cloud, r_k_diagnostic, tally,
)
from carpetq.sequences import compute_d_k, compute_s_k, d_k_bound, delta_k, \
    s_k_bound
from carpetq.words import ell
from conftest import run_commands
from oracles import (
    flat_predecessor, replay_stages, sample_points, store_rows,
    whole_cloud_ball_check, word_mass, words,
)


def _announce(num, detail):
    print(f"[criterion {num}] PASS: {detail}")


@pytest.fixture(scope="module")
def parts_a(carpet_a, cache_a):
    parts = {k: cache_a.partition(k) for k in (2, 3, 4)}
    for k in (5, 6):
        parts[k] = enumerate_lambda_k(carpet_a, k)
    return parts


@pytest.fixture(scope="module")
def chains_a(parts_a):
    return {k: build_antichain(parts_a[k]) for k in (2, 3, 4, 5, 6)}


@pytest.fixture(scope="module")
def cloud_m(carpet_a):
    return draw_cloud(carpet_a, 1_000_000, seed=0x5EED)


def _ls_slope(xs, ys):
    n = len(xs)
    xb = sum(xs) / n
    yb = sum(ys) / n
    sxx = sum((x - xb) ** 2 for x in xs)
    slope = sum((x - xb) * (y - yb) for x, y in zip(xs, ys)) / sxx
    resid = [y - (yb + slope * (x - xb)) for x, y in zip(xs, ys)]
    se = math.sqrt(sum(r * r for r in resid) / (n - 2) / sxx)
    return slope, se


def test_criterion_1_dimension_formula(carpet_a, carpet_b, carpet_c):
    import mpmath as mp
    mp.mp.dps = 50

    def oracle(params):
        lm = mp.log(params.spec.m)
        theta = lm / mp.log(params.spec.n)
        hp = -mp.fsum(mp.mpf(w.numerator) / w.denominator
                      * mp.log(mp.mpf(w.numerator) / w.denominator)
                      for w in params.spec.weights)
        hq = -mp.fsum(mp.mpf(q.numerator) / q.denominator
                      * mp.log(mp.mpf(q.numerator) / q.denominator)
                      for q in params.q.values())
        return float((theta * hp + (1 - theta) * hq) / lm)

    reference = {id(p): oracle(p) for p in (carpet_a, carpet_b, carpet_c)}
    start = time.perf_counter()
    values = [p.s0 for p in (carpet_a, carpet_b, carpet_c)]
    elapsed = time.perf_counter() - start
    for p, s0 in zip((carpet_a, carpet_b, carpet_c), values):
        assert abs(s0 - reference[id(p)]) <= 1e-12
    assert abs(carpet_b.s0 - 0.5) <= 1e-15
    assert abs(carpet_c.s0 - math.log(2) / math.log(3)) <= 1e-15
    assert elapsed < 1e-3
    _announce(1, f"s0 matches 50-digit oracle to 1e-12 on three carpets "
                 f"(evaluation {elapsed * 1e6:.0f} us)")


def test_criterion_2_partition_exactness(carpet_a, parts_a):
    start = time.monotonic()
    eta, q_max = carpet_a.eta, carpet_a.q_max
    for k in range(2, 7):
        part = parts_a[k]
        eta_k = eta ** k
        assert part.mass_total == 1
        assert part.phi_k * eta ** (k + 1) <= 1 < part.phi_k * eta_k
        assert carpet_a.p_min ** part.xi_min < eta_k
        assert eta_k <= q_max ** (part.xi_max - 1)
        assert check_square_disjointness(part).ok
        assert partition_stats(part).ratio_bounds_ok
        if k <= 4:
            for w, mass in words(part):
                ratio = mass / word_mass(carpet_a,
                                         flat_predecessor(carpet_a, w))
                assert eta <= ratio <= q_max
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _announce(2, f"levels 2..6 exact (phi_6 = {parts_a[6].phi_k}, "
                 f"{elapsed:.1f}s)")


def test_criterion_3_d_k_bound(carpet_a, carpet_c):
    from itertools import product
    from carpetq.words import ell

    def brute_u(params, k):
        l = ell(params, k)
        total = 0.0
        for weights in product(params.spec.weights, repeat=l):
            base = Fraction(1)
            for w in weights:
                base *= w
            for tail in product(params.gy, repeat=k - l):
                mass = base
                for j in tail:
                    mass *= params.q[j]
                total += float(mass) * math.log(mass)
        return total

    start = time.monotonic()
    for params in (carpet_a, carpet_c):
        for k in range(1, 201):
            gap = params.s0 - compute_d_k(params, k)
            assert -1e-12 <= gap <= d_k_bound(params, k) + 1e-12
        log_m = math.log(params.spec.m)
        for k in (1, 2, 3, 4):
            closed = compute_d_k(params, k)
            brute = brute_u(params, k) / (-k * log_m)
            assert abs(closed - brute) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _announce(3, f"0 <= s0 - d_k <= 2Hp/(k log m) for k = 1..200 and "
                 f"closed form = brute force to 1e-12 ({elapsed:.2f}s)")


def test_criterion_4_antichain_certification(carpet_a, parts_a, chains_a):
    start = time.monotonic()
    c1 = 8 * math.log(3)
    for k in range(2, 7):
        chain = chains_a[k]
        report = verify_maximal_antichain(chain)
        assert report.ok                      # incomparable, mass 1 exact
        assert report.mass_exact
        assert chain.mass_total == 1
        assert chain.mass_len_total == parts_a[k].mass_len_total
        assert report.below_threshold
        # The stages replayed word by word build the same antichain.
        stages, blocks = replay_stages(parts_a[k])
        assert store_rows(chain) == blocks
        for families in stages:
            for removed, inserted in families:
                r = sum((word_mass(carpet_a, w) for w in removed),
                        Fraction(0))
                i = sum((word_mass(carpet_a, w) for w in inserted),
                        Fraction(0))
                assert r == i                # per-family identity, exact
        assert delta_k(chain) <= c1 + 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _announce(4, f"antichains certified for k = 2..6, delta_k <= 8 log 3 "
                 f"({elapsed:.1f}s)")


def test_criterion_5_s_k_convergence(carpet_a, parts_a):
    log_m = math.log(3)
    ys = []
    for k in range(2, 9):
        if k <= 6:
            stats = parts_a[k]
        else:
            stats = stopped_statistics(carpet_a, k)
        s = compute_s_k(stats)
        gap = abs(s - carpet_a.s0)
        assert gap <= s_k_bound(carpet_a, stats.xi_min)
        assert s_k_bound(carpet_a, stats.xi_min) == pytest.approx(
            (carpet_a.c1 + 2 * carpet_a.entropy_p) / (stats.xi_min * log_m),
            abs=1e-12)
        ys.append(k * gap)
    slope, se = _ls_slope(list(range(2, 9)), ys)
    assert slope <= 3 * se
    _announce(5, f"|s_k - s0| within (C1 + 2Hp)/(xi log m) for k = 2..8; "
                 f"trend slope {slope:.4f} <= 3 x {se:.4f}")


def test_criterion_6_quantization_sandwich(carpet_a, parts_a, cloud_m):
    start = time.monotonic()
    gap_cap = math.log(math.sqrt(17))
    r_values = []
    levels = [parts_a[k] for k in range(2, 7)]
    for level, level_tally in zip(levels, tally(levels, cloud_m)):
        diag = r_k_diagnostic(level, cloud_m, level_tally)
        assert diag.e_hat_est <= diag.upper_anchor + 3 * diag.stderr
        assert 0 < diag.anchor_gap <= gap_cap + 1e-12
        r_values.append(diag.r_k)
    slope, se = _ls_slope(list(range(2, 7)), r_values)
    assert abs(slope) < 3 * se
    elapsed = time.monotonic() - start
    assert elapsed < 600
    _announce(6, f"distortion within anchors for k = 2..6 at 10^6 samples; "
                 f"R_k drift |{slope:.4f}| < 3 x {se:.4f} ({elapsed:.1f}s)")


def test_criterion_7_ball_bound(carpet_a, carpet_b, carpet_d, carpet_e):
    # The certificate holds on every band; the sampled masses at the
    # cloud's first 100 points and radii m^-2..m^-8 sit below each band's
    # certified mass bound, up to a three sigma binomial allowance and
    # one sample.  The masses come from a KD-tree and from the sweep
    # oracle, which must agree.  A single heaviest square is no bound:
    # on carpet D some sampled ball outweighs it, so the check can fail.
    worst = {}
    for name, params in (("A", carpet_a), ("D", carpet_d), ("E", carpet_e)):
        report = ball_bound_check(params)
        assert not report.skipped and report.ok and report.max_ratio < 1
        points = sample_points(params, 1_000_000, 40, 0x5EED)
        swept = whole_cloud_ball_check(points, params.m)
        tree = cKDTree(points)
        worst[name] = 0.0
        for col, h in enumerate(range(2, 9)):
            counts = tree.query_ball_point(
                points[:100], r=float(params.m) ** -h, return_length=True)
            frac = counts / len(points)
            assert frac.tolist() == swept[:, col].tolist()
            l = ell(params, h)
            square = float(params.p_max ** l * params.q_max ** (h - l))
            sigma = np.sqrt(frac * (1 - frac) / len(points))
            assert np.all(frac <= 9 * square + 3 * sigma + 1 / len(points))
            worst[name] = max(worst[name], float(np.max(frac)) / square)
        del tree, points
    assert worst["D"] > 1

    skipped = ball_bound_check(carpet_b)
    assert skipped.skipped and skipped.ok and skipped.reason
    _announce(7, f"mass bound certified on every band, sampled masses "
                 f"below it at 100 centers x 7 radii (worst over one square "
                 f"{max(worst.values()):.2f}); degenerate carpet skipped "
                 f"with reason")


def test_criterion_8_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "n": 4, "m": 3,
        "maps": [
            {"i": 0, "j": 0, "p": "1/3"},
            {"i": 0, "j": 2, "p": "1/3"},
            {"i": 2, "j": 2, "p": "1/3"},
        ],
        "k_min": 2, "k_max": 4,
        "cloud_size": 150_000, "seed": 24301,
        "outputs": ["csv"],
    }))
    runs = [run_commands(cfg_path, tmp_path / f"h{seed}",
                         ("partition", "sequences", "quantize"), seed)
            for seed in (0, 12345)]
    assert {"partition.csv", "sequences.csv", "quantize.csv"} <= set(runs[0])
    assert runs[0] == runs[1]
    _announce(8, "CSV outputs and stdout byte-identical across two "
                 "processes with different PYTHONHASHSEED values")
