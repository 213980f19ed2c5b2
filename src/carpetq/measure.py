"""Carpet measure specifications and their derived constants.

A spec fixes grid factors n >= m >= 2, a digit set G of cells
(i, j) with 0 <= i < n and 0 <= j < m, and rational weights p_ij
summing to one.  The associated self-affine measure is the unique
fixed point of

    mu = sum_{(i,j) in G} p_ij . mu o f_ij^{-1},

where f_ij(x, y) = ((x + i)/n, (y + j)/m).  Everything downstream
(word masses, stopping-time partitions, antichain replacements)
consumes the :class:`DerivedParams` produced here, so all rational
quantities are kept exact and all logarithms are natural.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = [
    "CarpetSpec",
    "CheckResult",
    "ValidationReport",
    "InvalidSpecError",
    "DerivedParams",
    "validate_spec",
    "check_separation",
    "derive_params",
]

RationalLike = Union[Fraction, int, str]


class InvalidSpecError(ValueError):
    """A spec invariant failed.  ``invariant`` names the violated check."""

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {detail}")


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, float):
        raise InvalidSpecError(
            "weight-rational", f"weights must be exact rationals, got float {value!r}"
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidSpecError("weight-rational", f"cannot parse weight {value!r}: {exc}")


@dataclass(frozen=True)
class CarpetSpec:
    """Grid factors plus weighted digit cells, order-normalized.

    ``digits`` and ``weights`` are aligned tuples; use :meth:`of` to
    build one from any mapping or (i, j, weight) iterable.
    """

    n: int
    m: int
    digits: tuple[tuple[int, int], ...]
    weights: tuple[Fraction, ...]

    @classmethod
    def of(
        cls,
        n: int,
        m: int,
        cells: Union[Mapping[tuple[int, int], RationalLike],
                     Iterable[tuple[int, int, RationalLike]]],
    ) -> "CarpetSpec":
        if isinstance(cells, Mapping):
            items = [(ij, w) for ij, w in cells.items()]
        else:
            items = [((i, j), w) for i, j, w in cells]
        items.sort(key=lambda t: t[0])
        digits = tuple((int(i), int(j)) for (i, j), _ in items)
        weights = tuple(_as_fraction(w) for _, w in items)
        return cls(int(n), int(m), digits, weights)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)


def check_separation(spec: CarpetSpec) -> bool:
    """Whether distinct cells are Chebyshev-distance >= 2 apart.

    This keeps the images f_ij([0,1]^2) pairwise disjoint with a gap
    proportional to their size, which the ball-mass bound relies on.
    """
    return not _separation_violations(spec)


def _separation_violations(spec: CarpetSpec) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    out = []
    for a in range(len(spec.digits)):
        i1, j1 = spec.digits[a]
        for b in range(a + 1, len(spec.digits)):
            i2, j2 = spec.digits[b]
            if max(abs(i1 - i2), abs(j1 - j2)) < 2:
                out.append((spec.digits[a], spec.digits[b]))
    return out


def validate_spec(spec: CarpetSpec) -> ValidationReport:
    """Check every spec invariant; never raises.

    A warning (not a failure) is emitted when min(n, m) < 3: the
    asymptotic guarantees are stated for factors >= 3, but every
    construction here is well defined from 2 up.
    """
    checks = []

    grid_ok = (
        isinstance(spec.n, int)
        and isinstance(spec.m, int)
        and 2 <= spec.m <= spec.n <= 255
    )
    checks.append(CheckResult(
        "grid", grid_ok,
        f"need 2 <= m <= n <= 255, got n={spec.n} m={spec.m}",
    ))

    cells_ok = len(spec.digits) >= 2 and len(set(spec.digits)) == len(spec.digits)
    in_range = grid_ok and all(
        0 <= i < spec.n and 0 <= j < spec.m for i, j in spec.digits
    )
    checks.append(CheckResult(
        "digit-cells", cells_ok and (in_range or not grid_ok),
        f"need >= 2 distinct cells inside the grid, got {spec.digits}",
    ))
    if grid_ok and cells_ok and not in_range:
        checks.append(CheckResult(
            "digit-range", False,
            f"cells out of range for n={spec.n} m={spec.m}: {spec.digits}",
        ))

    positive = all(w > 0 for w in spec.weights)
    checks.append(CheckResult(
        "weight-positive", positive, f"weights must be > 0, got {spec.weights}"))
    total = sum(spec.weights, Fraction(0))
    checks.append(CheckResult(
        "weight-sum", total == 1, f"weights must sum to 1 exactly, got {total}"))

    violations = _separation_violations(spec) if grid_ok else []
    checks.append(CheckResult(
        "separation", not violations,
        f"cells closer than 2 in Chebyshev distance: {violations}" if violations else "",
    ))

    report = ValidationReport(tuple(checks))
    if report.ok and min(spec.n, spec.m) < 3:
        warnings.warn(
            f"grid factor min(n, m) = {min(spec.n, spec.m)} < 3: asymptotic "
            "rate guarantees are only stated for factors >= 3",
            UserWarning,
            stacklevel=2,
        )
    return report


def ensure_valid(spec: CarpetSpec) -> None:
    report = validate_spec(spec)
    if not report.ok:
        first = report.failures()[0]
        raise InvalidSpecError(first.name, first.detail)


@dataclass(frozen=True)
class DerivedParams:
    """Exact and floating constants derived from a validated spec.

    Rational fields (column sums q_j, extremes, eta, the common
    denominator scale) are exact Fractions; entropies, the dimension
    s0 and the ball-mass constants are floats.
    """

    spec: CarpetSpec
    theta: float              # log m / log n, in (0, 1]
    k0: float                 # 1 / theta
    gy: tuple[int, ...]       # occupied columns j, ascending
    gx: Mapping[int, tuple[int, ...]]   # column j -> occupied i's, ascending
    q: Mapping[int, Fraction]           # column mass q_j = sum_i p_ij
    p_min: Fraction
    p_max: Fraction
    q_min: Fraction
    q_max: Fraction
    eta: Fraction             # p_min * q_min, the stopping ratio
    denom_lcm: int            # L with p_ij * L and q_j * L all integers
    s0: float                 # Hausdorff dimension of the measure
    entropy_p: float          # sum p log(1/p)
    entropy_q: float          # sum q log(1/q)
    c1: float                 # -2 q_max^2 log p_min / q_min^2, per-stage
                              # entropy budget
    ball_exponent: float      # -log q_max / log m (0 when q_max = 1)
    c_ball: float

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def m(self) -> int:
        return self.spec.m

    def prob(self, i: int, j: int) -> Fraction:
        return self._pmap[(i, j)]

    def __post_init__(self):
        pmap = dict(zip(self.spec.digits, self.spec.weights))
        object.__setattr__(self, "_pmap", pmap)
        # p_ij * L and q_j * L as ints: the walk's and the repair's weights.
        L = self.denom_lcm
        object.__setattr__(self, "_scaled", (
            {ij: int(w * L) for ij, w in pmap.items()},
            {j: int(qj * L) for j, qj in self.q.items()}))


def derive_params(spec: CarpetSpec) -> DerivedParams:
    """Validate ``spec`` and compute all derived constants.

    Raises :class:`InvalidSpecError` on the first failed invariant.
    """
    ensure_valid(spec)
    n, m = spec.n, spec.m

    pmap = dict(zip(spec.digits, spec.weights))
    gy = tuple(sorted({j for _, j in spec.digits}))
    gx = {j: tuple(sorted(i for i, jj in spec.digits if jj == j)) for j in gy}
    q = {j: sum(pmap[(i, j)] for i in gx[j]) for j in gy}

    p_min = min(pmap.values())
    p_max = max(pmap.values())
    q_min = min(q.values())
    q_max = max(q.values())
    eta = p_min * q_min

    denom_lcm = math.lcm(*(w.denominator for w in pmap.values()),
                         *(v.denominator for v in q.values()))

    log_n = math.log(n)
    log_m = math.log(m)
    theta = log_m / log_n
    sum_p_log = math.fsum(float(w) * math.log(w) for w in pmap.values())
    sum_q_log = math.fsum(float(v) * math.log(v) for v in q.values())
    s0 = -(theta * sum_p_log + (1.0 - theta) * sum_q_log) / log_m

    q_max_f = float(q_max)
    root = math.sqrt(n * n + 1)
    ball_exponent = -math.log(q_max_f) / log_m
    eps0 = root / m
    d0 = 4.0 * math.pi * (n * n + 1)
    d_ball = d0 * q_max_f ** ((math.log(root) - log_m) / log_m)
    c_ball = 2.0 ** ball_exponent * max(d_ball, eps0 ** (-ball_exponent))

    c0 = -2.0 * q_max_f * q_max_f * math.log(float(p_min))

    return DerivedParams(
        spec=spec,
        theta=theta,
        k0=1.0 / theta,
        gy=gy,
        gx=gx,
        q=q,
        p_min=p_min,
        p_max=p_max,
        q_min=q_min,
        q_max=q_max,
        eta=eta,
        denom_lcm=denom_lcm,
        s0=s0,
        entropy_p=-sum_p_log,
        entropy_q=-sum_q_log,
        c1=c0 / float(q_min) ** 2,
        ball_exponent=ball_exponent,
        c_ball=c_ball,
    )
