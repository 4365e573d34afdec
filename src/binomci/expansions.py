"""Asymptotic expansions of the exact interval and its expected size.

Closed-form approximations to the Clopper-Pearson bounds (second and third
order), to the expected two-sided length and the expected one-sided distance
to the true proportion, and to the excess length over the approximate
comparison methods.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError
from .methods import (
    ApproxFamily,
    ConfidenceLevel,
    IntervalEstimate,
    MethodSpec,
    Observation,
    Side,
    _check_member,
)
from .special import _check_n, _check_p


class ExpansionOrder(Enum):
    SECOND_ORDER = 2
    THIRD_ORDER = 3


@dataclass(frozen=True)
class ExpansionTerms:
    """Per-order coefficients of an expansion in powers of n^(-1/2).

    value = zeroth + t_half * n^(-1/2) + t_one / n + t_threehalf * n^(-3/2).
    Keeping the coefficients separate lets each order be tested against its
    printed form.
    """

    t_half: float
    t_one: float
    t_threehalf: float
    n: int
    zeroth: float = 0.0
    value: float = 0.0

    def __post_init__(self):
        rn = math.sqrt(self.n)
        assembled = (
            self.zeroth
            + self.t_half / rn
            + self.t_one / self.n
            + self.t_threehalf / (rn * self.n)
        )
        object.__setattr__(self, "value", assembled)


def _third_order_bracket(ph: float, z: float, tilt: float, c: float) -> float:
    """The n^(-3/2) bracket of either CP bound (c = 11) or of the expected
    upper distance (c = 6.5); `tilt` is the side's own term."""
    qh = 1.0 - ph
    return (
        -53.0 / 36.0
        + tilt
        + (z * z + c) / (36.0 * ph * qh)
        - 13.0 * z * z / 36.0
    )


def _length_coeff(pq: float, z: float, c: float) -> float:
    """n^(-3/2) coefficient of the CP length at pq = p(1 - p): c = 2 for the
    realized length, c = -2.5 for its expectation."""
    z2 = z * z  # 13 * pq * z * z would round differently
    return (z / 18.0) / math.sqrt(pq) * (z2 + c - 17.0 * pq - 13.0 * pq * z2)


def cp_bound_expansion(
    obs: Observation,
    level: ConfidenceLevel,
    side: Side = Side.TWO_SIDED,
    order: ExpansionOrder = ExpansionOrder.SECOND_ORDER,
) -> IntervalEstimate:
    """Closed-form approximation to the Clopper-Pearson bounds.

    Valid for interior observations only (1 <= x <= n-1); the endpoints have
    exact closed forms instead, so this fails loudly there.  One-sided bounds
    substitute the one-sided normal quantile.
    """
    _check_member(order, ExpansionOrder, "order")
    x, n = obs.x, obs.n
    if not (1 <= x <= n - 1):
        raise DomainError(
            f"bound expansion is undefined at x in {{0, n}}, got x={x}, n={n}"
        )
    z = level.z_half if side is Side.TWO_SIDED else level.z_full
    ph = x / n
    qh = 1.0 - ph
    s = math.sqrt(ph * qh)
    rn = math.sqrt(n)
    z2 = z * z
    p_lo = ph - z * s / rn + (2.0 * (0.5 - ph) * z2 - (1.0 + ph)) / (3.0 * n)
    p_hi = ph + z * s / rn + (2.0 * (0.5 - ph) * z2 + 1.0 + qh) / (3.0 * n)
    if order is ExpansionOrder.THIRD_ORDER:
        scale = z * s / (n * rn)
        p_lo -= scale * _third_order_bracket(ph, z, -(0.5 - ph) / ph, 11.0)
        p_hi += scale * _third_order_bracket(ph, z, (0.5 - ph) / qh, 11.0)
    spec = MethodSpec.clopper_pearson(side)
    if side is Side.TWO_SIDED:
        return IntervalEstimate(p_lo, p_hi, spec, level)
    if side is Side.UPPER:
        return IntervalEstimate(0.0, p_hi, spec, level)
    return IntervalEstimate(p_lo, 1.0, spec, level)


def expected_length_expansion(n: int, p: float, level: ConfidenceLevel) -> ExpansionTerms:
    """Expansion of the expected two-sided Clopper-Pearson length at fixed p."""
    _check_p(p, "expected_length_expansion")
    _check_n(n)
    z = level.z_half
    pq = p * (1.0 - p)
    return ExpansionTerms(
        t_half=2.0 * z * math.sqrt(pq),
        t_one=1.0,
        t_threehalf=_length_coeff(pq, z, -2.5),
        n=n,
    )


def expected_distance_expansion(n: int, p: float, level: ConfidenceLevel) -> ExpansionTerms:
    """Expansion of the expected distance from the upper CP bound to p."""
    _check_p(p, "expected_distance_expansion")
    _check_n(n)
    z = level.z_full
    q = 1.0 - p
    s = z * math.sqrt(p * q)
    return ExpansionTerms(
        t_half=s,
        t_one=(2.0 * (0.5 - p) * (z * z) + 1.0 + q) / 3.0,
        t_threehalf=s * _third_order_bracket(p, z, (0.5 - p) / q, 6.5),
        n=n,
    )


# CP's expected-width expansion of each side: its two-sided length, its upper bound's distance to p
_WIDTH_EXPANSION = {
    Side.TWO_SIDED: expected_length_expansion, Side.UPPER: expected_distance_expansion
}


def length_correction_coeff(p: float, z: float) -> float:
    """n^(-3/2) coefficient of the realized length before taking expectations."""
    _check_p(p, "length_correction_coeff")
    return _length_coeff(p * (1.0 - p), z, 2.0)


def excess_length(
    vs: ApproxFamily,
    n: int,
    p: float,
    level: ConfidenceLevel,
    order: ExpansionOrder = ExpansionOrder.SECOND_ORDER,
) -> float:
    """Asymptotic excess of the expected CP length over an approximate interval.

    The leading excess is 1/n for every comparison family.  The third-order
    refinement for Wilson and Agresti-Coull subtracts their printed n^(-3/2)
    corrections; the Jeffreys comparison has no n^(-3/2) term.
    """
    _check_member(vs, ApproxFamily, "vs")
    _check_member(order, ExpansionOrder, "order")
    _check_p(p, "excess_length")
    _check_n(n)
    base = 1.0 / n
    if order is ExpansionOrder.SECOND_ORDER or vs is ApproxFamily.JEFFREYS:
        return base
    z = level.z_half
    pq = p * (1.0 - p)
    z2 = z * z
    shrink = 26.0 * pq / 9.0 - 2.0 / 9.0
    if vs is ApproxFamily.WILSON:
        bracket = 9.0 * z * (z + shrink * shrink) + 34.0 * pq * (1.0 - 2.0 * z2) - 4.0
    else:
        bracket = 9.0 * z * (2.0 * z + shrink * shrink) + pq * (34.0 - 108.0 * z2) - 4.0
    return base - (z / (36.0 * math.sqrt(pq))) * bracket / (n * math.sqrt(n))


def excess_distance_one_sided(n: int) -> float:
    """Leading excess of the expected CP upper-bound distance over approximate bounds."""
    _check_n(n)
    return 1.0 / (2.0 * n)
