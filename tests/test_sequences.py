"""Entropy-ratio sequences and their explicit error bounds."""

import dataclasses
import math
from fractions import Fraction
from itertools import product

import pytest

from carpetq.partition import stopped_statistics
from carpetq.sequences import (
    compute_d_k, compute_s_k, compute_t, compute_u_k, d_k_bound, delta_k,
    s_k_bound, sequence_point, t_bound,
)
from carpetq.words import ell

# Frozen independently computed values for Carpet A.
D2_A = 0.789690082142847520967
S_VALUES_A = {
    5: 0.897830513091,
    6: 0.912701543531,
    7: 0.899929279301,
    8: 0.910995120088,
}


def _brute_u_k(params, k):
    """Direct length-k entropy: sum mu log mu over the full digit grid."""
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


def test_u_k_closed_form_matches_brute(carpet_a, carpet_c):
    for params in (carpet_a, carpet_c):
        for k in (1, 2, 3, 4):
            assert abs(compute_u_k(params, k)
                       - _brute_u_k(params, k)) <= 1e-12


def test_d_2_frozen(carpet_a):
    assert compute_d_k(carpet_a, 2) == pytest.approx(D2_A, abs=1e-14)


def test_d_k_bounds_long_range(carpet_a, carpet_c):
    for params in (carpet_a, carpet_c):
        for k in range(1, 201):
            gap = params.s0 - compute_d_k(params, k)
            assert -1e-12 <= gap <= d_k_bound(params, k) + 1e-12


def test_d_k_constant_on_square_grid(carpet_c):
    # theta = 1 leaves no column term, so d_k is s0 for every k.
    for k in range(1, 60):
        assert abs(compute_d_k(carpet_c, k) - carpet_c.s0) <= 1e-12


def test_bound_values(carpet_a):
    # With Hp = log 3 and C1 = 8 log 3, the constants cancel the log m.
    assert d_k_bound(carpet_a, 3) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert t_bound(carpet_a, 5) == pytest.approx(0.4, abs=1e-14)
    assert s_k_bound(carpet_a, 5) == pytest.approx(2.0, abs=1e-14)


def test_s_k_within_bound(carpet_a, cache_a):
    for k in (1, 2, 3, 4):
        part = cache_a.partition(k)
        s = compute_s_k(part)
        assert abs(s - carpet_a.s0) <= s_k_bound(carpet_a, part.xi_min)


def test_s_k_enumeration_vs_aggregates(carpet_a):
    for k in (2, 3, 4):
        from carpetq.partition import enumerate_lambda_k
        s_enum = compute_s_k(enumerate_lambda_k(carpet_a, k))
        s_dp = compute_s_k(stopped_statistics(carpet_a, k))
        assert s_enum == pytest.approx(s_dp, abs=1e-9)


def test_s_k_frozen_tail(carpet_a):
    for k, val in S_VALUES_A.items():
        s = compute_s_k(stopped_statistics(carpet_a, k))
        assert s == pytest.approx(val, abs=1e-9)


def test_s_k_constant_on_square_grid(carpet_c):
    # Every stopping word of Carpet C has length exactly 2k+1, so the
    # ratio collapses to s0 with no error term.
    for k in range(1, 9):
        s = compute_s_k(stopped_statistics(carpet_c, k))
        assert abs(s - carpet_c.s0) <= 1e-12


def test_t_within_d_range(carpet_a, cache_a):
    # The antichain ratio is a mass-weighted mix of level ratios, so it
    # lies between the extreme d_h over its length range.
    for k in (2, 3):
        chain = cache_a.antichain(k)
        t = compute_t(chain)
        d_vals = [compute_d_k(carpet_a, h)
                  for h in range(chain.l_min, chain.l_max + 1)]
        assert min(d_vals) - 1e-12 <= t <= max(d_vals) + 1e-12
        assert abs(t - carpet_a.s0) <= t_bound(carpet_a, chain.l_min)


@pytest.mark.parametrize("carpet,k", [
    *(("d", k) for k in range(1, 6)), *(("e", k) for k in range(2, 6))])
def test_t_within_bound(request, carpet, k):
    # |t_k - s0| <= t_bound at l_min on the skewed and the three-weight
    # carpets, whose antichains need repair stages.
    params = request.getfixturevalue(f"carpet_{carpet}")
    chain = request.getfixturevalue(f"cache_{carpet}").antichain(k)
    assert abs(compute_t(chain) - params.s0) <= t_bound(params, chain.l_min)


def test_sequence_point_gates_t_k(carpet_a, cache_a):
    # The row's pass reads t_k against t_bound at the antichain's
    # shortest length: just inside the bound it passes, just outside it
    # fails.
    chain = cache_a.antichain(3)
    point = sequence_point(carpet_a, 3, stats=cache_a.partition(3),
                           antichain=chain)
    assert point.bound_tk == t_bound(carpet_a, chain.l_min)
    for sign in (1, -1):
        near = point.s0 + sign * point.bound_tk
        assert dataclasses.replace(point, t_k=near).within_bounds
        assert not dataclasses.replace(
            point, t_k=near + sign * 1e-9).within_bounds


def test_t_equals_d_on_single_length(carpet_c, cache_c):
    # All words share one length on the square grid; t must equal d_h.
    chain = cache_c.antichain(2)
    assert chain.l_min == chain.l_max
    t = compute_t(chain)
    assert t == pytest.approx(compute_d_k(carpet_c, chain.l_min), abs=1e-12)


def test_delta_routes_agree(cache_a):
    for k in (2, 3, 4):
        chain = cache_a.antichain(k)
        shift = sum(log.inserted_entropy - log.removed_entropy
                    for log in chain.stage_logs)
        assert delta_k(chain) == pytest.approx(abs(shift), abs=1e-9)


def test_delta_budget(cache_a, carpet_a):
    for k in (2, 3):
        chain = cache_a.antichain(k)
        removed = sum((log.removed_mass for log in chain.stage_logs),
                      Fraction(0))
        assert delta_k(chain) <= carpet_a.c1 * float(removed) + 1e-12
        assert delta_k(chain) <= carpet_a.c1


def test_delta_zero_cases(cache_a, cache_d):
    # Both antichains move no entropy; the antichain rounds its exact
    # total once and the partition rounds each length first, so only
    # rounding ulps separate them.
    assert delta_k(cache_a.antichain(4)) <= 1e-12   # no replacements ran
    assert delta_k(cache_d.antichain(3)) <= 1e-12   # swaps preserve mass


def test_sequence_point_assembly(carpet_a, cache_a):
    point = sequence_point(carpet_a, 3, stats=cache_a.partition(3),
                           antichain=cache_a.antichain(3))
    assert point.k == 3 and point.phi_k == 1701
    assert (point.xi_min, point.xi_max) == (7, 8)
    assert point.t_k is not None
    assert point.s0 == carpet_a.s0
    assert point.within_bounds


def test_sequence_point_without_antichain(carpet_a):
    point = sequence_point(carpet_a, 7, stats=stopped_statistics(carpet_a, 7))
    assert point.t_k is None and point.bound_tk is None
    assert point.phi_k == 8857350
    assert point.within_bounds


def test_sequence_point_k_mismatch(carpet_a, cache_a):
    with pytest.raises(ValueError, match="stats are for level 3, not 4"):
        sequence_point(carpet_a, 4, stats=cache_a.partition(3))
    with pytest.raises(ValueError, match="antichain is for level 2, not 3"):
        sequence_point(carpet_a, 3, stats=cache_a.partition(3),
                       antichain=cache_a.antichain(2))


def test_sequence_points_all_carpets(carpet_a, carpet_b, carpet_c, carpet_d):
    for params in (carpet_a, carpet_b, carpet_c, carpet_d):
        for k in (2, 3, 4):
            stats = stopped_statistics(params, k)
            assert sequence_point(params, k, stats=stats).within_bounds


def test_u_k_rejects_nonpositive(carpet_a):
    with pytest.raises(ValueError):
        compute_u_k(carpet_a, 0)
