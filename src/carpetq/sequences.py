"""Entropy sequences along levels, with their explicit error bounds.

Three running quantities attach to each level k: the fixed-length
entropy ratio d_k (closed form), the antichain ratio t_k, and the
stopping-set ratio s_k.  All three converge to the carpet's quantization
dimension s0 at speed 1/k, with constants spelled out below so every
computed value can be certified against its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .coding import Antichain
from .measure import DerivedParams
from .words import ell


__all__ = [
    "SequencePoint",
    "compute_u_k",
    "compute_d_k",
    "d_k_bound",
    "compute_t",
    "t_bound",
    "compute_s_k",
    "s_k_bound",
    "delta_k",
    "sequence_point",
]


def compute_u_k(params: DerivedParams, k: int) -> float:
    """Entropy of the full product layer at level k, closed form."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    lk = ell(params, k)
    return -(lk * params.entropy_p + (k - lk) * params.entropy_q)


def compute_d_k(params: DerivedParams, k: int) -> float:
    """Fixed-length entropy ratio; approaches s0 from below."""
    return compute_u_k(params, k) / (-k * math.log(params.spec.m))


def d_k_bound(params: DerivedParams, k: int) -> float:
    """Right-hand side of 0 <= s0 - d_k <= 2 Hp / (k log m)."""
    return 2.0 * params.entropy_p / (k * math.log(params.spec.m))


def _ratio(entropy_sum: float, mass_len_total: Fraction, m: int) -> float:
    denom = -math.log(m) * float(mass_len_total)
    return entropy_sum / denom


def compute_t(antichain: Antichain) -> float:
    """Entropy-to-resolution ratio over an antichain's words."""
    return _ratio(antichain.entropy_sum, antichain.mass_len_total,
                  antichain.params.spec.m)


def t_bound(params: DerivedParams, l_min: int) -> float:
    """|t - s0| bound for an antichain with shortest word length l_min.

    The telescoping argument pins t between the d values over the
    antichain's length range, each within 2 Hp / (h log m) of s0.
    """
    return 2.0 * params.entropy_p / (l_min * math.log(params.spec.m))


def compute_s_k(stats) -> float:
    """Stopping-set entropy ratio from exact aggregates.

    Accepts a collected partition or the memoized aggregate form; both
    carry a float entropy sum and an exact mass-weighted length.
    """
    return _ratio(stats.entropy_sum, stats.mass_len_total,
                  stats.params.spec.m)


def s_k_bound(params: DerivedParams, xi_min: int) -> float:
    """Right-hand side of |s_k - s0| <= (C1 + 2 Hp) / (xi_min log m).

    C1 budgets the entropy moved by the replacement stages; the 2 Hp
    term covers the antichain ratio's own distance to s0.
    """
    return ((params.c1 + 2.0 * params.entropy_p)
            / (xi_min * math.log(params.spec.m)))


def delta_k(antichain: Antichain) -> float:
    """Total entropy moved by the replacement stages, |end - start|.

    Bounded by C1 times the replaced mass, hence by C1 outright; the
    per-family version of the bound is tracked in the stage logs.
    """
    return abs(antichain.entropy_sum - antichain.base_entropy_sum)


@dataclass(frozen=True)
class SequencePoint:
    """One row of the convergence table for a single level."""

    k: int
    phi_k: int
    xi_min: int
    xi_max: int
    d_k: float
    t_k: Optional[float]
    s_k: float
    s0: float
    bound_dk: float
    bound_sk: float
    bound_tk: Optional[float]     # with t_k: t_bound at the antichain's l_min

    @property
    def within_bounds(self) -> bool:
        d_ok = -1e-12 <= self.s0 - self.d_k <= self.bound_dk + 1e-12
        s_ok = abs(self.s_k - self.s0) <= self.bound_sk + 1e-12
        t_ok = (self.t_k is None
                or abs(self.t_k - self.s0) <= self.bound_tk + 1e-12)
        return d_ok and s_ok and t_ok


def sequence_point(params: DerivedParams, k: int, *,
                   stats, antichain: Optional[Antichain] = None
                   ) -> SequencePoint:
    """Assemble the convergence row for level k.

    ``stats`` may be a collected partition or its aggregates from
    ``stopped_statistics``.  ``t_k`` is filled only when an antichain is
    supplied, since building one requires the collected word list.
    """
    if stats.k != k:
        raise ValueError(f"stats are for level {stats.k}, not {k}")
    t_k = bound_tk = None
    if antichain is not None:
        if antichain.k != k:
            raise ValueError(f"antichain is for level {antichain.k}, not {k}")
        t_k = compute_t(antichain)
        bound_tk = t_bound(params, antichain.l_min)
    return SequencePoint(
        k=k,
        phi_k=stats.phi_k,
        xi_min=stats.xi_min,
        xi_max=stats.xi_max,
        d_k=compute_d_k(params, k),
        t_k=t_k,
        s_k=compute_s_k(stats),
        s0=params.s0,
        bound_dk=d_k_bound(params, k),
        bound_sk=s_k_bound(params, stats.xi_min),
        bound_tk=bound_tk,
    )
