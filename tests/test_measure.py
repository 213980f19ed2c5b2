"""Derived-constant oracles and spec validation behavior."""

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpetq import CarpetSpec, InvalidSpecError, derive_params, validate_spec
from carpetq.measure import check_separation


# Reference values computed independently with 50-digit arithmetic and
# frozen here; comparisons are at float precision.
S0_A = 0.912713497619028375267
THETA_A = 0.792481250360578090727
HP_A = 1.098612288668109691395          # log 3
HQ_A = 0.636514168294812818450
C1_A = 8.788898309344877531162          # 8 log 3
BALL_T_A = 0.369070246428542562901
C_BALL_A = 245.352346489682156649
S0_C = 0.630929753571457437100          # log 2 / log 3
S0_D = 0.811278124459132863910


def test_carpet_a_constants(carpet_a):
    p = carpet_a
    assert p.s0 == pytest.approx(S0_A, abs=1e-14)
    assert p.theta == pytest.approx(THETA_A, abs=1e-15)
    assert p.k0 == pytest.approx(1.0 / THETA_A, abs=1e-12)
    assert p.entropy_p == pytest.approx(HP_A, abs=1e-14)
    assert p.entropy_q == pytest.approx(HQ_A, abs=1e-14)
    assert p.c1 == pytest.approx(C1_A, abs=1e-12)
    assert p.ball_exponent == pytest.approx(BALL_T_A, abs=1e-14)
    assert p.c_ball == pytest.approx(C_BALL_A, abs=1e-10)


def test_carpet_a_exact_fields(carpet_a):
    p = carpet_a
    assert p.eta == Fraction(1, 9)
    assert p.denom_lcm == 3
    assert p.p_min == p.p_max == Fraction(1, 3)
    assert p.q == {0: Fraction(1, 3), 2: Fraction(2, 3)}
    assert p.q_min == Fraction(1, 3) and p.q_max == Fraction(2, 3)
    assert p.gy == (0, 2)
    assert p.gx == {0: (0,), 2: (0, 2)}
    assert p.spec.weights[p.spec.digits.index((2, 2))] == Fraction(1, 3)
    assert p.scaled == ({(0, 0): 1, (0, 2): 1, (2, 2): 1}, {0: 1, 2: 2})


def test_carpet_b_degenerate_column(carpet_b):
    p = carpet_b
    assert p.s0 == pytest.approx(0.5, abs=1e-15)
    assert p.q == {0: Fraction(1)}
    assert p.q_min == p.q_max == 1
    assert p.eta == Fraction(1, 2)
    assert p.ball_exponent == 0.0
    assert p.entropy_q == pytest.approx(0.0, abs=1e-15)


def test_carpet_c_square_grid(carpet_c):
    p = carpet_c
    assert p.theta == 1.0
    assert p.k0 == 1.0
    assert p.s0 == pytest.approx(S0_C, abs=1e-14)
    assert p.s0 == pytest.approx(math.log(2) / math.log(3), abs=1e-15)
    assert p.eta == Fraction(1, 4)


def test_carpet_d_skewed(carpet_d):
    p = carpet_d
    assert p.theta == pytest.approx(0.5, abs=1e-15)
    assert p.s0 == pytest.approx(S0_D, abs=1e-14)
    assert p.eta == Fraction(1, 16)
    assert p.denom_lcm == 4
    assert p.q == {0: Fraction(3, 4), 1: Fraction(1, 4)}


def test_s0_dual_form_agreement(carpet_a, carpet_b, carpet_c, carpet_d):
    # s0 * log m = theta * Hp + (1 - theta) * Hq can be regrouped as
    # Hp / log n + Hq * (1 / log m - 1 / log n); both must agree.
    for p in (carpet_a, carpet_b, carpet_c, carpet_d):
        log_n = math.log(p.n)
        log_m = math.log(p.m)
        alt = p.entropy_p / log_n + p.entropy_q * (1 / log_m - 1 / log_n)
        assert abs(p.s0 - alt) <= 1e-12


def test_weight_sum_rejected():
    spec = CarpetSpec.of(4, 3, {(0, 0): "1/3", (2, 2): "1/3"})
    report = validate_spec(spec)
    assert not report.ok
    assert any(c.name == "weight-sum" for c in report.failures())
    with pytest.raises(InvalidSpecError):
        derive_params(spec)


def test_float_weight_rejected():
    with pytest.raises(InvalidSpecError):
        CarpetSpec.of(4, 3, {(0, 0): 0.5, (2, 2): 0.5})


def test_separation_violation_detected():
    spec = CarpetSpec.of(4, 3, {(0, 0): "1/2", (1, 0): "1/2"})
    assert not check_separation(spec)
    report = validate_spec(spec)
    assert any(c.name == "separation" and not c.ok for c in report.checks)
    with pytest.raises(InvalidSpecError):
        derive_params(spec)


def test_diagonal_touching_cells_rejected():
    spec = CarpetSpec.of(4, 3, {(0, 0): "1/2", (1, 1): "1/2"})
    assert not check_separation(spec)


def test_n_less_than_m_rejected():
    spec = CarpetSpec.of(3, 4, {(0, 0): "1/2", (2, 2): "1/2"})
    report = validate_spec(spec)
    assert any(c.name == "grid" and not c.ok for c in report.checks)


def test_single_cell_rejected():
    spec = CarpetSpec.of(4, 3, {(0, 0): "1"})
    report = validate_spec(spec)
    assert any(c.name == "digit-cells" and not c.ok for c in report.checks)


def test_out_of_range_cell_rejected():
    spec = CarpetSpec.of(4, 3, {(0, 0): "1/2", (2, 5): "1/2"})
    report = validate_spec(spec)
    assert not report.ok


def test_duplicate_cells_rejected():
    spec = CarpetSpec(4, 3, ((0, 0), (0, 0)),
                      (Fraction(1, 2), Fraction(1, 2)))
    report = validate_spec(spec)
    assert any(c.name == "digit-cells" and not c.ok for c in report.checks)


def test_small_grid_warns():
    with pytest.warns(UserWarning, match="min\\(n, m\\)"):
        validate_spec(CarpetSpec.of(4, 2, {(0, 0): "3/4", (2, 1): "1/4"}))


def test_valid_spec_does_not_warn(carpet_a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_spec(carpet_a.spec)
    assert report.ok


# Cells on the even sublattice are automatically Chebyshev-separated.
_cells = st.lists(
    st.tuples(st.sampled_from([0, 2, 4]), st.sampled_from([0, 2])),
    min_size=2, max_size=6, unique=True)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(5, 9), m=st.integers(3, 5), cells=_cells,
       raw=st.lists(st.integers(1, 9), min_size=6, max_size=6))
def test_random_carpets_derive_consistently(n, m, cells, raw):
    if m > n:
        n, m = m, n
    cells = [(i, j) for i, j in cells if i < n and j < m]
    if len(cells) < 2:
        return
    total = sum(raw[: len(cells)])
    table = {cell: Fraction(w, total)
             for cell, w in zip(cells, raw)}
    spec = CarpetSpec.of(n, m, {c: str(f) for c, f in table.items()})
    p = derive_params(spec)
    assert 0.0 < p.s0 <= math.log(len(cells)) / math.log(m) + 1e-12
    assert 0.0 < p.theta <= 1.0
    assert p.eta == p.p_min * p.q_min
    assert sum(p.q.values()) == 1
    for w in spec.weights:
        assert (w * p.denom_lcm).denominator == 1
    for qv in p.q.values():
        assert (qv * p.denom_lcm).denominator == 1
    log_n, log_m = math.log(n), math.log(m)
    alt = p.entropy_p / log_n + p.entropy_q * (1 / log_m - 1 / log_n)
    assert abs(p.s0 - alt) <= 1e-12
