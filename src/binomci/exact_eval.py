"""Exact enumeration engine: expected widths, coverage and calibration.

Expected interval width and bound distance by full enumeration over the
success count, pointwise and minimum coverage over probability grids, the
closed-form mean coverage under a uniform pseudo-prior, and calibration of
the nominal level against a coverage criterion.

Grid scans evaluate the same continued-fraction and Newton kernels as
:mod:`binomci.special`, vectorized over numpy arrays so that scans with
hundreds of thousands of grid points stay cheap.  All reductions are
performed in ascending-p order with ties broken toward the smallest p, and
parallel runs are required to reproduce the sequential result bit for bit.
"""
from __future__ import annotations

import math
import multiprocessing
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CalibrationError, ConvergenceError, DomainError
from .methods import ConfidenceLevel, Family, MethodSpec, Side, _endpoints
from .special import (
    _BETACF_EPS as _CF_EPS,
    _BETACF_FPMIN as _FPMIN,
    _BETACF_MAXIT as _CF_MAXIT,
    _HALF_LOG_TWO_PI,
    _LANCZOS_C,
    _LANCZOS_G,
    _QUANTILE_MAXIT,
)


# ---------------------------------------------------------------------------
# vectorized special-function kernel (same algorithms as binomci.special)

def _log_gamma_vec(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    s = np.full_like(x, _LANCZOS_C[0])
    for k in range(1, 15):
        s += _LANCZOS_C[k] / (x + (k - 1.0))
    t = x + (_LANCZOS_G - 0.5)
    return _HALF_LOG_TWO_PI + (x - 0.5) * np.log(t) - t + np.log(s)


def _log_beta_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _log_gamma_vec(a) + _log_gamma_vec(b) - _log_gamma_vec(a + b)


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
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
    d = 1.0 / d
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2.0 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        h_mid = h * d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        delta = d * c
        h = np.where(done, h, h_mid * delta)
        done |= np.abs(delta - 1.0) < _CF_EPS
        del aa, h_mid, delta  # free this round's temporaries before _retire copies
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

    lgb, if given, is _log_beta_vec(a, b) already computed by the caller.
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
        lgb = _log_beta_vec(ai, bi) if lgb is None else lgb[interior]
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            log_front = ai * np.log(xi) + bi * np.log1p(-xi) - lgb
            front = np.exp(log_front)
            swap = ~(xi < (ai + 1.0) / (ai + bi + 2.0))
            aa = np.where(swap, bi, ai)
            bb = np.where(swap, ai, bi)
            xx = np.where(swap, 1.0 - xi, xi)
            del xi, ai, bi, lgb, log_front  # not needed while the fraction runs
            res = front * _betacf_vec(aa, bb, xx) / aa
        out[interior] = np.where(swap, 1.0 - res, res)
    return out


def _quantile_seed_vec(q, a, b):
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        # both-shapes-at-least-one branch
        pp = np.where(q < 0.5, q, 1.0 - q)
        t = np.sqrt(-2.0 * np.log(pp))
        w = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
        w = np.where(q < 0.5, -w, w)
        al = (w * w - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        ww = w * np.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
            al + 5.0 / 6.0 - 2.0 / (3.0 * h)
        )
        x_big = a / (a + b * np.exp(2.0 * ww))
        # small-shape branch
        lna = np.log(a / (a + b))
        lnb = np.log(b / (a + b))
        tt = np.exp(a * lna) / a
        uu = np.exp(b * lnb) / b
        ws = tt + uu
        x_small = np.where(
            q < tt / ws,
            (a * ws * q) ** (1.0 / a),
            1.0 - (b * ws * (1.0 - q)) ** (1.0 / b),
        )
        x = np.where((a >= 1.0) & (b >= 1.0), x_big, x_small)
    x = np.where(x <= 0.0, 1e-300, x)
    x = np.where(x >= 1.0, 1.0 - 1e-16, x)
    return x


def _solve_beta_quantile_vec(q, a, b):
    out = lanes = None
    lgb = _log_beta_vec(a, b)
    x = _quantile_seed_vec(q, a, b)
    lo = np.zeros_like(x)
    hi = np.ones_like(x)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_QUANTILE_MAXIT):
        err = _betainc_vec(x, a, b, lgb) - q
        done |= err == 0.0
        pos = err > 0.0
        upd = ~done
        hi = np.where(upd & pos, x, hi)
        lo = np.where(upd & ~pos, x, lo)
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            log_pdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - lgb
            newton = x - err * np.exp(-log_pdf)
        # a step that rounds to zero is convergence, although x sits on the
        # bracket edge this round has just moved to it
        inside = ((newton > lo) & (newton < hi)) | (newton == x)
        ok = (log_pdf > -700.0) & inside & np.isfinite(newton)
        xn = np.where(ok, newton, 0.5 * (lo + hi))
        dx = np.abs(xn - x)
        x = np.where(done, x, xn)
        done |= (dx <= 1e-15 * x + 1e-18) | ((hi - lo) <= 1e-15 * lo)
        del err, pos, upd, log_pdf, newton, inside, ok, xn, dx  # before _retire and next solve
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
    swap = _quantile_seed_vec(q, a, b) > 0.5
    qq = np.where(swap, 1.0 - q, q)
    aa = np.where(swap, b, a)
    bb = np.where(swap, a, b)
    w = _solve_beta_quantile_vec(qq, aa, bb)
    return np.where(swap, 1.0 - w, w)


def _log_pmf_all(n: int, p: float) -> np.ndarray:
    """log P(X = x) for x = 0..n under Binomial(n, p), 0 < p < 1."""
    x = np.arange(n + 1, dtype=float)
    lf = _log_gamma_vec(np.arange(n + 2, dtype=float) + 1.0)  # lf[k] = ln k!
    log_coeff = lf[n] - lf[: n + 1] - lf[n::-1]
    return log_coeff + x * math.log(p) + (n - x) * math.log1p(-p)


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
    the monotone endpoint arrays, then evaluated with two beta-tail calls.
    """
    x_hi = np.searchsorted(L, p, side="right") - 1
    x_lo = np.searchsorted(U, p, side="left")
    covered = x_lo <= x_hi
    xh = np.where(covered, x_hi, 0)
    xl = np.where(covered, x_lo, 0)
    cdf_hi = np.where(
        xh >= n, 1.0, 1.0 - _betainc_vec(p, xh + 1.0, np.maximum(n - xh, 1).astype(float))
    )
    cdf_lo = np.where(
        xl <= 0, 0.0, 1.0 - _betainc_vec(p, np.maximum(xl, 1).astype(float), n - xl + 1.0)
    )
    return np.where(covered, np.clip(cdf_hi - cdf_lo, 0.0, 1.0), 0.0)


def _coverage_chunk_worker(args):
    p, L, U, n = args
    return _coverage_values(p, L, U, n)


def _coverage_over(p: np.ndarray, L, U, n: int, workers: int = 1) -> np.ndarray:
    if workers == 0:
        workers = multiprocessing.cpu_count()
    if workers <= 1 or p.size < 4096:
        return _coverage_values(p, L, U, n)
    chunks = np.array_split(p, workers)
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers) as pool:
        parts = pool.map(_coverage_chunk_worker, [(c, L, U, n) for c in chunks])
    return np.concatenate(parts)


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
    reported alongside for comparison.
    """
    L, U = _bounds_arrays(method, n, level)
    grid_p = grid.values()
    grid_cov = _coverage_over(grid_p, L, U, n, workers)
    i_grid = int(np.argmin(grid_cov))

    ends = np.concatenate([L, U])
    ends = ends[(ends >= grid.lo) & (ends <= grid.hi)]
    probes = np.concatenate([ends * (1.0 - _REFINE_EPS), ends, ends * (1.0 + _REFINE_EPS)])
    probes = np.clip(probes, grid.lo, grid.hi)
    probe_cov = (
        _coverage_over(probes, L, U, n, workers) if probes.size else np.empty(0)
    )

    p_all = np.concatenate([grid_p, probes])
    cov_all = np.concatenate([grid_cov, probe_cov])
    order = np.argsort(p_all, kind="stable")
    i_min = order[int(np.argmin(cov_all[order]))]

    report = CoverageReport(
        min_coverage=float(cov_all[i_min]),
        argmin_p=float(p_all[i_min]),
        mean_coverage=mean_coverage(method, n, level),
        grid=grid,
        grid_min_coverage=float(grid_cov[i_grid]),
        grid_argmin_p=float(grid_p[i_grid]),
        per_point=list(zip(grid_p.tolist(), grid_cov.tolist())) if keep_per_point else None,
    )
    return report


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
    pmfs = []
    xs = []
    for n in ns:
        if n < 1:
            raise DomainError(f"need n >= 1, got {n}")
        log_pmf = _log_pmf_all(n, p)
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

def _criterion_value(method, n, criterion, gamma, workers):
    level = ConfidenceLevel(gamma)
    if isinstance(criterion, MinCoverage):
        return min_coverage(method, n, level, criterion.grid, workers=workers).min_coverage
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
    whose mean coverage equals 1 - alpha within 1e-5.
    """
    target = 1.0 - level.alpha

    def crit(gamma: float) -> float:
        return _criterion_value(method, n, criterion, gamma, workers)

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
