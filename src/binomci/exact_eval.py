"""Exact enumeration engine: expected widths, coverage and calibration.

Expected interval width and bound distance by full enumeration over the
success count, pointwise and minimum coverage over probability grids, the
closed-form mean coverage under a uniform pseudo-prior, and calibration of
the nominal level against a coverage criterion.

Endpoint arrays and mean coverage run the continued-fraction and Halley
steps of :mod:`binomci.special` (each written once there) under its numpy
namespace, in the compacting lane loops below.  Coverage scans add up the
binomial pmf over each grid point's covering range instead: one saddle-point
pmf (Loader 2000) at the range's largest term, then a ratio walk, so that
scans with hundreds of thousands of grid points stay cheap; they run in this
process.  All reductions are performed in ascending-p order with ties broken
toward the smallest p.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CalibrationError, ConvergenceError, DomainError
from .methods import ConfidenceLevel, Family, MethodSpec, Side, _endpoints
from .special import (
    _BETACF_MAXIT as _CF_MAXIT,
    _QUANTILE_MAXIT,
    VECTOR,
    _halley_round,
    _inc_beta_front,
    _inc_beta_value,
    _lentz_round,
    _lentz_start,
    _log_beta,
    _log_gamma,
    _quantile_seed,
)


# ---------------------------------------------------------------------------
# lane drivers of the special-function kernel (its steps are in binomci.special)

def _retire(out, lanes, done, *state):
    """Once at most half the lanes still iterate, put the values of state[0] at
    out[lanes] (the first time, keep state[0] itself as out) and drop the
    converged lanes from every state array; copying stays O(lanes) in all."""
    active = ~done
    if 2 * np.count_nonzero(active) > done.size:
        return (out, lanes, done, *state)
    if out is None:
        out, lanes = state[0], np.flatnonzero(active)
    else:
        out[lanes] = state[0]
        lanes = lanes[active]
    return (out, lanes, done[active], *(v[active] for v in state))


def _betacf_vec(a, b, x):
    out = lanes = None
    qab, qap, qam, d = _lentz_start(VECTOR, a, b, x)
    c = 1.0
    h = d
    done = np.zeros(x.shape, dtype=bool)
    for m in range(1, _CF_MAXIT + 1):
        h_next, c, d, converged = _lentz_round(VECTOR, m, a, b, x, qab, qap, qam, c, d, h)
        h = np.where(done, h, h_next)
        done |= converged
        del h_next, converged  # free this round's temporaries before _retire copies
        out, lanes, done, h, a, b, x, c, d, qab, qap, qam = _retire(
            out, lanes, done, h, a, b, x, c, d, qab, qap, qam
        )
        if not done.size:
            return out
    i = np.argmin(done)  # the first lane still iterating
    raise ConvergenceError(
        f"vector continued fraction did not converge for a={a[i]}, b={b[i]}, x={x[i]}"
    )


def _betainc_vec(x, a, b, lgb=None) -> np.ndarray:
    """Vectorized regularized incomplete beta I_x(a, b).

    lgb, if given, is ln B(a, b) already computed by the caller.
    """
    x, a, b = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )
    out = np.empty(x.shape, dtype=float)
    at_zero = x <= 0.0
    at_one = x >= 1.0
    interior = ~(at_zero | at_one)
    out[at_zero] = 0.0
    out[at_one] = 1.0
    if interior.any():
        xi = x[interior]
        ai = a[interior]
        bi = b[interior]
        lgb = _log_beta(VECTOR, ai, bi) if lgb is None else lgb[interior]
        with np.errstate(all="ignore"):
            front, direct, fa, fb, fx = _inc_beta_front(VECTOR, xi, ai, bi, lgb)
            del xi, ai, bi, lgb  # not needed while the fraction runs
            out[interior] = _inc_beta_value(VECTOR, front, direct, _betacf_vec(fa, fb, fx), fa)
    return out


def _solve_beta_quantile_vec(q, a, b):
    out = lanes = None
    lgb = _log_beta(VECTOR, a, b)
    with np.errstate(all="ignore"):
        x = _quantile_seed(VECTOR, q, a, b)
    lo = np.zeros_like(x)
    hi = np.ones_like(x)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_QUANTILE_MAXIT):
        err = _betainc_vec(x, a, b, lgb) - q
        done |= err == 0.0
        with np.errstate(all="ignore"):
            xn, lo, hi, stop = _halley_round(VECTOR, x, err, a, b, lgb, lo, hi)
        x = np.where(done, x, xn)
        done |= stop
        del err, xn, stop  # before _retire
        out, lanes, done, x, q, a, b, lgb, lo, hi = _retire(
            out, lanes, done, x, q, a, b, lgb, lo, hi
        )
        if not done.size:
            return out
    i = np.argmin(done)  # the first lane still iterating
    raise ConvergenceError(
        f"vector beta_quantile did not converge for q={q[i]}, a={a[i]}, b={b[i]}"
    )


def _beta_quantile_vec(q, a, b) -> np.ndarray:
    """Vectorized beta quantile, mirrored per-lane like the scalar routine."""
    q, a, b = np.broadcast_arrays(
        np.asarray(q, dtype=float), np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )
    with np.errstate(all="ignore"):
        swap = _quantile_seed(VECTOR, q, a, b) > 0.5
    qq = np.where(swap, 1.0 - q, q)
    aa = np.where(swap, b, a)
    bb = np.where(swap, a, b)
    w = _solve_beta_quantile_vec(qq, aa, bb)
    return np.where(swap, 1.0 - w, w)


def _log_pmf_all(n: int, p: float, lf: np.ndarray) -> np.ndarray:
    """log P(X = x) for x = 0..n under Binomial(n, p), 0 < p < 1.

    lf[k] = ln k! for k = 0..n at least; a longer table is sliced.
    """
    x = np.arange(n + 1, dtype=float)
    log_coeff = lf[n] - lf[: n + 1] - lf[n::-1]
    return log_coeff + x * math.log(p) + (n - x) * math.log1p(-p)


# ln k! - ln(sqrt(2 pi k) (k / e)^k) for k = 0..15 (0 at k = 0 by convention)
_STIRLERR = np.array([
    0.0,
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr_vec(k: np.ndarray) -> np.ndarray:
    """Stirling-formula error of ln k!: the table up to 15, the asymptotic series above."""
    kb = np.maximum(k, 16.0)
    kk = kb * kb
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / kb
    return np.where(k <= 15.0, _STIRLERR[np.minimum(k, 15.0).astype(np.intp)], series)


def _bd0_vec(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x ln(x / m) + m - x for x, m > 0, by a series where x is within 10 % of m."""
    d = x - m
    v = d / (x + m)
    direct = x * np.log(x / m) + m - x
    # x ln(x/m) + m - x = d v + 2 x sum_j v^(2j+1) / (2j + 1) with |v| < 0.1
    # there, so the ninth term is below 1e-17 of the sum
    s = d * v
    term = 2.0 * x * v
    v2 = v * v
    for j in range(1, 10):
        term = term * v2
        s = s + term / (2 * j + 1)
    return np.where(np.abs(d) < 0.1 * (x + m), s, direct)


def _binom_pmf_vec(k: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """P(X = k) under Binomial(n, p) for integer 0 <= k <= n and 0 < p < 1.

    Loader's (2000) saddle-point form: exp(stirlerr(n) - stirlerr(k) -
    stirlerr(n - k) - bd0(k, n p) - bd0(n - k, n q)) / sqrt(2 pi k (n - k) / n),
    which has no cancellation between ln-gamma values; q^n = exp(n log1p(-p))
    at k = 0 and p^n at k = n.  (The log form of the square root,
    log1p(-k / n), loses n eps relative at k = n - 1.)
    """
    k, p = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(p, dtype=float))
    out = np.empty(k.shape)
    lo = k == 0.0
    hi = k == n
    out[lo] = np.exp(n * np.log1p(-p[lo]))
    out[hi] = np.exp(n * np.log(p[hi]))
    mid = ~(lo | hi)
    k, p = k[mid], p[mid]
    lc = (
        _stirlerr_vec(float(n)) - _stirlerr_vec(k) - _stirlerr_vec(n - k)
        - _bd0_vec(k, n * p) - _bd0_vec(n - k, n * (1.0 - p))
    )
    out[mid] = np.exp(lc) * np.sqrt(n / (2.0 * math.pi * k * (n - k)))
    return out


def _walk_sum(term, num, r, steps, n):
    """Sum of the terms a ratio walk adds after `term`, per lane: `steps`
    steps, step j multiplying the term by (num - j) / (n + 1 - num + j) * r.

    Lanes are sorted by step count, so the lanes still walking at step j are
    a prefix; each lane goes through the same operations as it would alone.
    """
    steps = steps.astype(np.intp)
    order = np.argsort(-steps)
    live = steps.size - np.cumsum(np.bincount(steps))  # live[j] = #lanes with steps > j
    term, num, r = term[order], num[order], r[order]
    acc = np.zeros(term.size)
    for j, k in enumerate(live[:-1]):
        term[:k] *= (num[:k] - j) * r[:k] / ((n + 1.0 + j) - num[:k])
        acc[:k] += term[:k]
    out = np.empty(acc.size)
    out[order] = acc
    return out


# ---------------------------------------------------------------------------
# grid and report types

@dataclass(frozen=True)
class PGrid:
    """Equidistant probability grid with both endpoints included."""

    lo: float
    hi: float
    points: int

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi < 1.0):
            raise DomainError(f"need 0 < lo < hi < 1, got [{self.lo}, {self.hi}]")
        if not isinstance(self.points, numbers.Integral):
            raise DomainError(f"grid points must be an integer, got {self.points!r}")
        if self.points < 2:
            raise DomainError(f"need at least 2 grid points, got {self.points}")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class MinCoverage:
    """Criterion: minimum coverage over a grid (plus endpoint refinements)."""

    grid: PGrid


@dataclass(frozen=True)
class MeanCoverage:
    """Criterion: mean coverage under the uniform pseudo-prior."""


@dataclass
class CoverageReport:
    min_coverage: float
    argmin_p: float
    mean_coverage: float
    grid: PGrid
    grid_min_coverage: float
    grid_argmin_p: float
    per_point: list[tuple[float, float]] | None = None


# ---------------------------------------------------------------------------
# interval endpoint arrays

def _bounds_for_x(method: MethodSpec, n, level: ConfidenceLevel, x: np.ndarray):
    """The family table's (L, U) for the success counts x, solved by the vector kernel."""
    return _endpoints(method, n, level, x, _beta_quantile_vec)


@lru_cache(maxsize=1024)
def _bounds_arrays(method: MethodSpec, n: int, level: ConfidenceLevel):
    """(L, U) endpoint arrays over x = 0..n, nondecreasing in x."""
    L, U = _bounds_for_x(method, n, level, np.arange(n + 1, dtype=float))
    if np.any(np.diff(L) < 0.0) or np.any(np.diff(U) < 0.0):
        raise RuntimeError(
            f"endpoint arrays are not monotone for {method} at n={n}, alpha={level.alpha}"
        )
    L.setflags(write=False)
    U.setflags(write=False)
    return L, U


# ---------------------------------------------------------------------------
# coverage

def _coverage_values(p: np.ndarray, L: np.ndarray, U: np.ndarray, n: int) -> np.ndarray:
    """Coverage at each p: mass of the contiguous covering range of x.

    The covering set {x : L(x) <= p <= U(x)} is located by binary search over
    the monotone endpoint arrays, and its binomial mass is summed term by
    term.  The sum starts at the window's largest term, s = floor((n + 1) p)
    clipped into the window, evaluated by `_binom_pmf_vec`, and walks up and
    down from s with the ratio pmf(k + 1) / pmf(k) = (n - k) / (k + 1) * p / q.
    """
    x_hi = np.searchsorted(L, p, side="right") - 1
    x_lo = np.searchsorted(U, p, side="left")
    out = np.zeros(p.shape)
    idx = np.flatnonzero(x_lo <= x_hi)
    pc = p[idx]
    qc = 1.0 - pc
    lo = x_lo[idx]
    hi = x_hi[idx]
    s = np.clip(np.floor((n + 1.0) * pc), lo, hi)
    top = _binom_pmf_vec(s, n, pc)
    # the walk down from s is the walk up from n - s under Binomial(n, q)
    up = _walk_sum(top, n - s, pc / qc, hi - s, n)
    down = _walk_sum(top, s, qc / pc, s - lo, n)
    out[idx] = np.clip(top + up + down, 0.0, 1.0)
    return out


# The scans of _min_scan call coverage through this name, which the
# benchmark's tracer wraps; coverage_probability calls _coverage_values.
_coverage_over = _coverage_values


def coverage_probability(
    method: MethodSpec, n: int, p: float, level: ConfidenceLevel
) -> float:
    """P(L(X) <= p <= U(X)) under Binomial(n, p), with closed endpoints."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"coverage_probability requires 0 < p < 1, got p={p}")
    L, U = _bounds_arrays(method, n, level)
    return float(_coverage_values(np.array([p]), L, U, n)[0])


def mean_coverage(method: MethodSpec, n: int, level: ConfidenceLevel) -> float:
    """Mean coverage under the uniform pseudo-prior, in closed form.

    Integrating the coverage indicator in p gives
    sum_x [I_U(x)(x+1, n-x+1) - I_L(x)(x+1, n-x+1)] / (n+1), no quadrature.
    """
    L, U = _bounds_arrays(method, n, level)
    x = np.arange(n + 1, dtype=float)
    a = x + 1.0
    b = n - x + 1.0
    terms = _betainc_vec(np.clip(U, 0.0, 1.0), a, b) - _betainc_vec(np.clip(L, 0.0, 1.0), a, b)
    return float(np.sum(terms) / (n + 1.0))


_REFINE_EPS = 1e-12


def min_coverage(
    method: MethodSpec,
    n: int,
    level: ConfidenceLevel,
    grid: PGrid,
    keep_per_point: bool = False,
    workers: int = 1,
) -> CoverageReport:
    """Minimum coverage over the grid, refined at realized interval endpoints.

    A pure grid scan can miss the sawtooth infimum, so every realized
    endpoint e inside [lo, hi] is also probed at e and e * (1 +/- 1e-12),
    capturing both one-sided limits.  The reduction runs in ascending-p
    order and breaks ties toward the smallest p; the grid-only minimum is
    reported alongside for comparison.  `workers` is accepted and ignored:
    the scan runs in this process.
    """
    grid_p, grid_cov, min_p, min_cov = _min_scan(method, n, level, grid)
    i_grid = int(np.argmin(grid_cov))
    return CoverageReport(
        min_coverage=min_cov,
        argmin_p=min_p,
        mean_coverage=mean_coverage(method, n, level),
        grid=grid,
        grid_min_coverage=float(grid_cov[i_grid]),
        grid_argmin_p=float(grid_p[i_grid]),
        per_point=list(zip(grid_p.tolist(), grid_cov.tolist())) if keep_per_point else None,
    )


def _min_scan(method, n, level, grid):
    """min_coverage's scan without the mean: (grid p, grid coverage, argmin p, min)."""
    L, U = _bounds_arrays(method, n, level)
    grid_p = grid.values()
    grid_cov = _coverage_over(grid_p, L, U, n)

    ends = np.concatenate([L, U])
    ends = ends[(ends >= grid.lo) & (ends <= grid.hi)]
    probes = np.concatenate([ends * (1.0 - _REFINE_EPS), ends, ends * (1.0 + _REFINE_EPS)])
    probes = np.clip(probes, grid.lo, grid.hi)
    probe_cov = _coverage_over(probes, L, U, n) if probes.size else np.empty(0)

    p_all = np.concatenate([grid_p, probes])
    cov_all = np.concatenate([grid_cov, probe_cov])
    order = np.argsort(p_all, kind="stable")
    i_min = order[int(np.argmin(cov_all[order]))]
    return grid_p, grid_cov, float(p_all[i_min]), float(cov_all[i_min])


# ---------------------------------------------------------------------------
# expected width / distance

_PMF_FLOOR = math.log(1e-17)


def expected_width_exact(
    method: MethodSpec, n: int, p: float, level: ConfidenceLevel
) -> float:
    """Expectation over X of the interval width, by enumeration over x.

    Two-sided: E(U - L).  Upper: E(U - p).  Lower: E(p - L).  For the
    quantile-based families, endpoints are only solved where the pmf exceeds
    1e-17; the skipped tail mass contributes below 1e-14 to a width bounded
    by 1, far inside the n * 1e-10 accumulation tolerance.
    """
    return expected_widths_batch(method, [n], p, level)[0]


def expected_widths_batch(
    method: MethodSpec, ns: list[int], p: float, level: ConfidenceLevel
) -> list[float]:
    """expected_width_exact for several sample sizes in one vectorized pass.

    The endpoints for all candidate n are solved in one run of the vector
    kernels, which keeps exact sample-size searches cheap.  Each value is
    bit for bit the one a batch of one gives.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"expected width requires 0 < p < 1, got p={p}")
    if not ns:
        return []
    quantile = method.family in (Family.CLOPPER_PEARSON, Family.BETA_PRIOR)
    lf = _log_gamma(VECTOR, np.arange(max(ns) + 1, dtype=float) + 1.0)  # lf[k] = ln k!
    pmfs = []
    xs = []
    for n in ns:
        if n < 1:
            raise DomainError(f"need n >= 1, got {n}")
        log_pmf = _log_pmf_all(n, p, lf)
        x = np.nonzero(log_pmf > _PMF_FLOOR)[0] if quantile else np.arange(n + 1)
        pmfs.append(np.exp(log_pmf[x]))
        xs.append(x.astype(float))
    n_all = np.concatenate([np.full(x.size, float(n)) for x, n in zip(xs, ns)])
    L_all, U_all = _bounds_for_x(method, n_all, level, np.concatenate(xs))
    offsets = np.cumsum([0] + [x.size for x in xs])
    values = []
    for pmf, start, stop in zip(pmfs, offsets[:-1], offsets[1:]):
        L, U = L_all[start:stop], U_all[start:stop]
        if method.side is Side.TWO_SIDED:
            width = U - L
        elif method.side is Side.UPPER:
            width = U - p
        else:
            width = p - L
        values.append(float(np.dot(pmf, width)))
    return values


# ---------------------------------------------------------------------------
# calibration

def _criterion_value(method, n, criterion, gamma):
    level = ConfidenceLevel(gamma)
    if isinstance(criterion, MinCoverage):
        return _min_scan(method, n, level, criterion.grid)[3]
    if isinstance(criterion, MeanCoverage):
        return mean_coverage(method, n, level)
    raise DomainError(f"unknown calibration criterion {criterion!r}")


_GAMMA_LO = 1e-6
_GAMMA_HI = 0.5
_GAMMA_TOL = 1e-5


def calibrate_alpha(
    method: MethodSpec,
    n: int,
    level: ConfidenceLevel,
    criterion: MinCoverage | MeanCoverage,
    workers: int = 1,
) -> ConfidenceLevel:
    """Nominal level gamma at which the coverage criterion hits 1 - alpha.

    Minimum-coverage criterion: the largest gamma whose minimum coverage is
    still at least 1 - alpha (bisection plus a local descending rescan when
    the sawtooth breaks monotonicity).  Mean-coverage criterion: the gamma
    whose mean coverage equals 1 - alpha within 1e-5.  `workers` is
    accepted and ignored, as in min_coverage.
    """
    target = 1.0 - level.alpha

    def crit(gamma: float) -> float:
        return _criterion_value(method, n, criterion, gamma)

    if isinstance(criterion, MeanCoverage):
        lo, hi = _GAMMA_LO, _GAMMA_HI
        f_lo = crit(lo) - target
        f_hi = crit(hi) - target
        if f_lo < 0.0 or f_hi > 0.0:
            raise CalibrationError(
                f"mean coverage cannot reach {target} for gamma in ({lo}, {hi})"
            )
        while hi - lo > 1e-7:
            mid = 0.5 * (lo + hi)
            if crit(mid) - target >= 0.0:
                lo = mid
            else:
                hi = mid
        gamma = 0.5 * (lo + hi)
        if abs(crit(gamma) - target) > _GAMMA_TOL:
            raise CalibrationError("mean-coverage calibration did not meet tolerance")
        return ConfidenceLevel(gamma)

    def passes(gamma: float) -> bool:
        return crit(gamma) >= target - 1e-9

    if not passes(_GAMMA_LO):
        raise CalibrationError(
            f"minimum coverage stays below {target} even at gamma={_GAMMA_LO}"
        )
    # Calibration only ever decreases the nominal alpha; a method whose
    # minimum coverage already meets the target is left untouched.
    if passes(level.alpha):
        return ConfidenceLevel(level.alpha)
    lo, hi = _GAMMA_LO, level.alpha
    while hi - lo > _GAMMA_TOL:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    gamma = lo
    # Sawtooth minima are not perfectly monotone in gamma.  Verify the
    # bracketing witness; if gamma + 1e-3 unexpectedly still passes, rescan
    # downward on a 1e-4 lattice from just above the wobble zone and keep
    # the largest passing value.
    probe = gamma + 1e-3
    if probe < level.alpha and passes(probe):
        g = min(level.alpha, gamma + 0.02)
        while g > gamma and not passes(g):
            g -= 1e-4
        gamma = max(gamma, g)
    return ConfidenceLevel(gamma)
