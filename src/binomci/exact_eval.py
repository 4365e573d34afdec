"""Exact enumeration engine: expected widths, coverage and calibration.

Expected interval width and bound distance by full enumeration over the
success count, pointwise coverage and its exact minimum over a p range, the
closed-form mean coverage under a uniform pseudo-prior, and calibration of
the nominal level against a coverage criterion.

Endpoint arrays and mean coverage run the steps of :mod:`binomci.special` (each
written once there) under its numpy namespace, and hand the last few lanes of a
fraction or a Halley solve to its float loops; endpoint arrays run the family
table of :mod:`binomci.methods` under it too, whose `quantiles` op hands both
ends' lanes to one quantile call.  The drivers below own only broadcasting,
the x in {0, 1} masks, errstate and the lane loops.
Coverage scans add up the binomial pmf over each grid point's covering range
instead: one saddle-point pmf (Loader 2000) at the range's largest term, then
a ratio walk, so that scans with hundreds of thousands of grid points stay
cheap; they run in this process.  Expected widths weight x by the same ratio
walk, from the mode, normalized by its sum (see _support).  The minimum
coverage is a one-sided limit at an endpoint (see _exact_min); the minimum
over a grid is read beside each endpoint (see _grid_candidates), on a large
grid only where the limits beside them do not rule it out (_grid_coverage).
Each is reported at the smallest p whose coverage ties with it, within a
relative 1e-9, so mirror minima do not flip.  An endpoint-cache entry holds a
key's (L, U) and, once asked for, its mean coverage, which goes with the arrays.
"""
from __future__ import annotations

import functools
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

from . import special
from .errors import CalibrationError, ConvergenceError, DomainError
from .methods import ConfidenceLevel, Family, MethodSpec, Side, _endpoints
from .special import (
    _BETACF_MAXIT as _CF_MAXIT,
    _QUANTILE_MAXIT,
    VECTOR,
    _bfrac_from,
    _bfrac_round,
    _bfrac_start,
    _bfrac_terms,
    _binom_pmf_inner,
    _check_n,
    _density_integral,
    _halley_round,
    _inc_beta,
    _is_count,
    _quantile_start,
    _solve_beta_quantile,
)


# ---------------------------------------------------------------------------
# lane drivers of the special-function kernel (its steps are in binomci.special)
_FLOAT_LANES = 16  # a vector term costs 14-16 us at 1 to 64 lanes, a float term about 1 us
_BLOCK_TERMS, _BLOCK_VALUES = 8, 4096  # most terms in a fraction block, most values in one of 2+

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


def _betacf_vec(a, b, x, y):
    """The continued fraction of _inc_beta over lanes, a block of k terms at a
    time: their coefficients as (k, lanes) rows in one pass, k at most
    _BLOCK_TERMS and k * lanes at most _BLOCK_VALUES where k > 1, then the
    recurrence row by row, then converged lanes dropped (_retire).  Once at
    most _FLOAT_LANES are left, or the budget is spent, each lane left finishes
    in special's float loop from its next term: the steps use only + - * / abs,
    comparisons and where, which numpy and floats round alike, on exact n."""
    out = lanes = None
    ab, c, yp1, an, bn, r = _bfrac_start(VECTOR, a, b, x, y)
    done = np.zeros(x.shape, dtype=bool)
    m = 0  # terms run
    while m < _CF_MAXIT:
        k = max(1, min(_BLOCK_TERMS, _BLOCK_VALUES // max(done.size, 1), _CF_MAXIT - m))
        # one term takes n as one value, which numpy broadcasts faster than a (1, 1) column
        n = np.arange(m + 1.0, m + k + 1.0)[:, None] if k > 1 else np.array([m + 1.0])
        alpha, beta = _bfrac_terms(VECTOR, n, a, b, x, ab, c, yp1)
        if k == 1:
            alpha, beta = alpha[None], beta[None]
        for j in range(k):
            an, bn, r_next, converged = _bfrac_round(VECTOR, alpha[j], beta[j], an, bn, r)
            r = np.where(done, r, r_next)
            done |= converged
        m += k
        # alpha, beta live to the next block: freed here, the heap trims and refaults at 8k lanes
        del r_next, converged  # free this round's temporaries before _retire copies
        out, lanes, done, r, a, b, x, ab, c, yp1, an, bn = _retire(
            out, lanes, done, r, a, b, x, ab, c, yp1, an, bn
        )
        if done.size - np.count_nonzero(done) <= _FLOAT_LANES:
            break
    terms = range(m + 1, _CF_MAXIT + 1)
    for i in np.flatnonzero(~done):
        r[i] = _bfrac_from(terms, *(float(v[i]) for v in (a, b, x, ab, c, yp1, an, bn, r)))
    done[:] = True  # so that _retire puts r at out[lanes], or keeps r as out
    return _retire(out, lanes, done, r)[0]


def _betainc_vec(x, a, b, lgb=None) -> np.ndarray:
    """I_x(a, b) over lanes; lgb, if given, is ln B(a, b) already computed."""
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
        with np.errstate(all="ignore"):
            out[interior] = _inc_beta(
                VECTOR, x[interior], a[interior], b[interior],
                None if lgb is None else lgb[interior], _betacf_vec,
            )
    return out


def _solve_beta_quantile_vec(q, a, b, lgb, x, lo, hi):
    """The Halley loop over lanes from x in [lo, hi], lgb = ln B(a, b), handing
    its last ones to special's float loop by _betacf_vec's rule: each resumes
    from its (x, lo, hi), its carried err or None, and rounds left.  As in
    that loop, a lane's err = I_x - q comes from the continued fraction in
    round 1 and after a far step, and from the density's integral over a near
    one added to the err before (_density_integral): a lane runs the fraction
    about once."""
    out = lanes = None
    done = np.zeros(x.shape, dtype=bool)
    near = np.zeros(x.shape, dtype=bool)  # no err is carried into round 1
    err = np.empty(x.shape)
    for m in range(_QUANTILE_MAXIT):
        err = _on_lanes(~(near | done), err, _fraction_err, x, a, b, lgb, q)
        done |= err == 0.0
        xn, lo, hi, stop, near = _halley_round(VECTOR, x, err, a, b, lgb, lo, hi)
        xn = np.where(done, x, xn)
        done |= stop
        del stop  # before _retire
        out, lanes, done, xn, x, err, near, q, a, b, lgb, lo, hi = _retire(
            out, lanes, done, xn, x, err, near, q, a, b, lgb, lo, hi
        )
        err = _on_lanes(
            near & ~done, err,
            lambda x, xn, a, b, lgb, err: err + _density_integral(VECTOR, x, xn, a, b, lgb),
            x, xn, a, b, lgb, err,
        )
        x = xn
        if done.size - np.count_nonzero(done) <= _FLOAT_LANES:
            break
    rounds = range(m + 1, _QUANTILE_MAXIT)
    for i in np.flatnonzero(~done):
        x[i] = _solve_beta_quantile(
            rounds, *(float(v[i]) for v in (q, a, b, lgb, x, lo, hi)), float(err[i]) if near[i] else None
        )
    done[:] = True  # so that _retire puts x at out[lanes], or keeps x as out
    return _retire(out, lanes, done, x)[0]


def _fraction_err(x, a, b, lgb, q):
    """I_x(a, b) - q by the continued fraction: over lanes, or over floats by
    special.reg_inc_beta (looked up there, where the benchmark's tracer wraps
    it) where there are _FLOAT_LANES or fewer, which is then faster (28
    against 169 us for one lane, 330 against 380 for 16, n = 400)."""
    if x.size > _FLOAT_LANES:
        return _betainc_vec(x, a, b, lgb) - q
    return np.array([special.reg_inc_beta(*v) for v in zip(*(w.tolist() for w in (x, a, b, lgb)))]) - q


def _on_lanes(mask, out, step, *lanes):
    """out with step(*lanes) at the lanes where mask holds: the whole arrays
    where it holds on every lane, out itself where on none."""
    if mask.all():
        return step(*lanes)
    if mask.any():
        out[mask] = step(*(v[mask] for v in lanes))
    return out


def _beta_quantile_vec(q, a, b) -> np.ndarray:
    """Vectorized beta quantile, mirrored per-lane like the scalar routine."""
    q, a, b = np.broadcast_arrays(
        np.asarray(q, dtype=float), np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )
    with np.errstate(all="ignore"):
        swap, *start = _quantile_start(VECTOR, q, a, b)
        w = _solve_beta_quantile_vec(*start)
    return np.where(swap, 1.0 - w, w)


def _binom_pmf_vec(k: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """P(X = k) under Binomial(n, p) for integer 0 <= k <= n and 0 < p < 1:
    the kernel's saddle-point step (Loader 2000) for 0 < k < n,
    q^n = exp(n log1p(-p)) at k = 0 and p^n at k = n."""
    k, p = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(p, dtype=float))
    out = np.empty(k.shape)
    lo = k == 0.0
    hi = k == n
    out[lo] = np.exp(n * np.log1p(-p[lo]))
    out[hi] = np.exp(n * np.log(p[hi]))
    mid = ~(lo | hi)
    out[mid] = _binom_pmf_inner(VECTOR, k[mid], float(n), p[mid])
    return out


def _walk_sum(term, num, r, steps, n):
    """Sum of the terms a ratio walk adds after `term`, and its last term, per
    lane: step j of `steps` multiplies it by (num - j) / (n + 1 - num + j) * r.

    Lanes are sorted by step count, so the lanes still walking at step j are
    a prefix; each lane goes through the same operations as it would alone.
    Each step works in place, in two buffers allocated once.
    """
    steps = steps.astype(np.intp)
    order = np.argsort(-steps)
    live = steps.size - np.cumsum(np.bincount(steps))  # live[j] = #lanes with steps > j
    term, num, r = term[order], num[order], r[order]
    acc = np.zeros(term.size)
    ratio = np.empty(term.size)
    denom = np.empty(term.size)
    for j, k in enumerate(live[:-1]):
        t, a, f, d = term[:k], acc[:k], ratio[:k], denom[:k]
        np.subtract(num[:k], j, out=f)
        np.multiply(f, r[:k], out=f)
        np.subtract(n + 1.0 + j, num[:k], out=d)
        np.divide(f, d, out=f)
        np.multiply(t, f, out=t)
        np.add(a, t, out=a)
    ratio[order], denom[order] = acc, term  # the step buffers hold the results
    return ratio, denom


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
        if not _is_count(self.points):
            raise DomainError(f"grid points must be an integer, got {self.points!r}")
        if self.points < 2:
            raise DomainError(f"need at least 2 grid points, got {self.points}")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class MinCoverage:
    """Criterion: exact minimum coverage over [grid.lo, grid.hi]; only lo and hi are read."""

    grid: PGrid


@dataclass(frozen=True)
class MeanCoverage:
    """Criterion: mean coverage under the uniform pseudo-prior."""


@dataclass
class CoverageReport:
    min_coverage: float
    argmin_p: float
    mean_coverage: float
    grid_min_coverage: float
    grid_argmin_p: float


# ---------------------------------------------------------------------------
# interval endpoint arrays

def _bounds_for_x(method: MethodSpec, n, level: ConfidenceLevel, x: np.ndarray):
    """The family table's (L, U) for the success counts x, run over VECTOR
    with the vector quantile kernel; n is broadcast to x's lanes."""
    x, n = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(n, dtype=float))
    return _endpoints(VECTOR, method, n, level, x, _beta_quantile_vec)


# Total bytes of endpoint arrays the cache below holds: (L, U) for about
# 2.1 million x, e.g. 8,000 entries at n = 250 or 13 at n = 154,055; an
# entry also holds its mean coverage once asked for, dropped with (L, U).  A
# repeated key of the benchmark's workloads is read again after at most
# 1.7 MB of other entries (an analysis-session round), so none is evicted.
_BOUNDS_CACHE_BYTES = 32 * 2**20

_CacheInfo = namedtuple("CacheInfo", "hits misses entries bytes")


class _ByteBoundedLRU:
    """Least-recently-used cache of a function's array tuples, keyed by its
    positional arguments and bounded by the arrays' total bytes.

    A value added past _BOUNDS_CACHE_BYTES evicts the least recently used
    values until the rest fit; a value larger than the bound is returned but
    not held.  cache_info() counts hits and misses as lru_cache's does, and
    gives the entries and bytes held; cache_clear() empties it.
    """

    def __init__(self, fn):
        functools.update_wrapper(self, fn)
        self._held = OrderedDict()
        self._bytes = self._hits = self._misses = 0

    def __call__(self, *key):
        value = self._held.get(key)
        if value is not None:
            self._hits += 1
            self._held.move_to_end(key)
            return value
        self._misses += 1
        value = self.__wrapped__(*key)
        self._held[key] = value
        self._bytes += sum(a.nbytes for a in value)
        while self._bytes > _BOUNDS_CACHE_BYTES:
            self._bytes -= sum(a.nbytes for a in self._held.popitem(last=False)[1])
        return value

    def __contains__(self, key) -> bool:
        """Whether the value of these arguments is held; counts no hit or miss."""
        return key in self._held

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, len(self._held), self._bytes)

    def cache_clear(self) -> None:
        self._held.clear()
        self._bytes = self._hits = self._misses = 0


class _Bounds(tuple):
    """(L, U) over x = 0..n, with their mean coverage computed on first read."""

    @functools.cached_property
    def mean_coverage(self) -> float:
        """The closed form of mean_coverage, both tails in one lane batch."""
        L, U = self
        n = L.size - 1
        a = np.arange(1.0, n + 2.0)  # x + 1, and n - x + 1 reversed
        inc = _betainc_vec(np.array([U, L]), a, a[::-1])
        return float(np.sum(inc[0] - inc[1]) / (n + 1.0))


@_ByteBoundedLRU
def _bounds_arrays(method: MethodSpec, n: int, level: ConfidenceLevel):
    """(L, U) endpoint arrays over x = 0..n, nondecreasing in x, as a _Bounds."""
    _check_n(n)  # a bad key raises here, on a miss, so it is never held
    L, U = _bounds_for_x(method, n, level, np.arange(n + 1, dtype=float))
    if np.any(np.diff(L) < 0.0) or np.any(np.diff(U) < 0.0):
        raise ConvergenceError(
            f"endpoint arrays are not monotone for {method} at n={n}, alpha={level.alpha}"
        )
    L.setflags(write=False)
    U.setflags(write=False)
    return _Bounds((L, U))


# The cache itself, for membership tests: the benchmark's tracer replaces the
# name _bounds_arrays, through which every read goes, with a plain wrapper.
_held_bounds = _bounds_arrays


# ---------------------------------------------------------------------------
# coverage

# Grid points per block of a coverage scan.  A block's lane-sized
# temporaries (64 KB each) stay in cache while the ratio walk runs: a
# 200,000-point Jeffreys scan at n = 2000, 99 %, took 0.21 s in one block,
# 0.16 s in blocks of 2,048 and 0.10 s in blocks of 8,192 to 25,000 points
# (2-CPU machine, numpy 2.4.6), with the same bits.
_SCAN_BLOCK = 8192


def _coverage_values(p: np.ndarray, L: np.ndarray, U: np.ndarray, n: int) -> np.ndarray:
    """Coverage C(p) and its one-sided limits C(p-), C(p+) at each p, as rows.

    The covering range {x : L(x) <= p <= U(x)} is located by binary search
    over the monotone endpoint arrays and summed by _window_sum, in blocks of
    _SCAN_BLOCK points; each point goes through the same operations in any
    block.  The endpoints are closed, so C(p-) drops the x with L(x) = p and
    C(p+) those with U(x) = p: one is the walk's last term at the range's top
    or bottom, and a run of several is summed without."""
    out = np.zeros((3, p.size))
    for start in range(0, p.size, _SCAN_BLOCK):
        block = slice(start, start + _SCAN_BLOCK)
        out[:, block] = _coverage_block(p[block], L, U, n)
    return out


def _coverage_block(p, L, U, n):
    """_coverage_values over one block of p.

    x_hi enters at p where L(x_hi) = p and x_lo leaves where U(x_lo) = p, read
    by gathers; clipping guards x_hi = -1 and x_lo = n + 1, where L(0) > p and
    U(n) < p.  Only where a second neighbour also has its endpoint at p does
    a run need the counting searches for its narrowed windows."""
    x_lo = np.searchsorted(U, p, side="left")  # the first x with U(x) >= p
    x_hi = np.searchsorted(L, p, side="right") - 1  # the last x with L(x) <= p
    out = _window_sum(p, x_lo, x_hi, n)  # C(p), pmf(x_hi), pmf(x_lo)
    out[1] = out[0] - np.where(L.take(x_hi, mode="clip") == p, out[1], 0.0)
    out[2] = out[0] - np.where(U.take(x_lo, mode="clip") == p, out[2], 0.0)
    runs = np.flatnonzero(
        (x_hi > 0) & (L.take(x_hi - 1, mode="clip") == p)
        | (x_lo < n) & (U.take(x_lo + 1, mode="clip") == p)
    )
    if runs.size:
        p, x_lo, x_hi = p[runs], x_lo[runs], x_hi[runs]
        out[1, runs] = _window_sum(p, x_lo, np.searchsorted(L, p, side="left") - 1, n)[0]
        out[2, runs] = _window_sum(p, np.searchsorted(U, p, side="right"), x_hi, n)[0]
    return out


def _window_sum(p, lo, hi, n):
    """P(lo <= X <= hi) under Binomial(n, p) and the walk's pmf at hi and at lo,
    as rows (0 where lo > hi): `_binom_pmf_vec` at the largest term, s =
    floor((n + 1) p) clipped into [lo, hi], then the walk up and down from s
    with the ratio pmf(k + 1) / pmf(k) = (n - k) / (k + 1) * p / q."""
    idx = np.flatnonzero(lo <= hi)
    pc, qc = p[idx], 1.0 - p[idx]
    lo, hi = lo[idx], hi[idx]
    s = np.clip(np.floor((n + 1.0) * pc), lo, hi)
    top = _binom_pmf_vec(s, n, pc)
    # the walk down from s is the walk up from n - s under Binomial(n, q);
    # both walks are one lane batch, up in the first half, down in the second
    walks, last = _walk_sum(
        np.tile(top, 2),
        np.concatenate([n - s, s]),
        np.concatenate([pc / qc, qc / pc]),
        np.concatenate([hi - s, s - lo]),
        n,
    )
    out = np.zeros((3, p.size))
    out[0, idx] = np.clip(top + walks[: idx.size] + walks[idx.size :], 0.0, 1.0)
    out[1:, idx] = last.reshape(2, idx.size)
    return out


# _exact_min scans through this name, which the benchmark's tracer wraps
_coverage_over = _coverage_values


def coverage_probability(method: MethodSpec, n: int, p, level: ConfidenceLevel):
    """P(L(X) <= p <= U(X)) under Binomial(n, p), with closed endpoints: a
    float for a float p, and an array of p's shape for an array."""
    p = np.asarray(p, dtype=float)
    bad = p[~((p > 0.0) & (p < 1.0))]
    if bad.size:
        raise DomainError(f"coverage_probability requires 0 < p < 1, got p={bad[0]}")
    L, U = _bounds_arrays(method, n, level)
    cov = _coverage_values(p.ravel(), L, U, n)[0].reshape(p.shape)
    return float(cov) if p.ndim == 0 else cov


def mean_coverage(method: MethodSpec, n: int, level: ConfidenceLevel) -> float:
    """Mean coverage under the uniform pseudo-prior, in closed form.

    Integrating the coverage indicator in p gives
    sum_x [I_U(x)(x+1, n-x+1) - I_L(x)(x+1, n-x+1)] / (n+1), no quadrature.
    Both tails are one lane batch of the vector kernel, which pays its
    per-round numpy overhead once; each lane goes through the same
    operations as when evaluated alone, so the batch does not move a result.
    It is computed once per endpoint-cache entry and held with (L, U): a
    held key never computes it again, and it is dropped with the arrays.
    """
    return _bounds_arrays(method, n, level).mean_coverage


def min_coverage(
    method: MethodSpec,
    n: int,
    level: ConfidenceLevel,
    grid: PGrid,
    workers: int = 1,
) -> CoverageReport:
    """Exact minimum coverage over [grid.lo, grid.hi] (see _exact_min).

    argmin_p is the endpoint (or lo or hi) the infimum is approached at from
    one side, so coverage_probability(argmin_p) may be above min_coverage.
    grid_min_coverage and grid_argmin_p are read at the grid points beside
    each realized endpoint (see _grid_candidates): in the same scan where
    they are few, else those the limits beside them leave (_grid_coverage).
    Both argmins are the smallest p whose coverage is within a relative 1e-9
    of the minimum (see _argmin_p).  mean_coverage is the one held with
    (L, U), computed once per key.  `workers` is accepted and ignored.
    """
    L, U = _bounds_arrays(method, n, level)
    grid_p = grid.values()
    cand_p = grid_p[_grid_candidates(grid_p, L, U)]
    also = cand_p if cand_p.size <= _ONE_SCAN_CANDIDATES else cand_p[:0]
    min_p, min_cov, probes, cand_cov = _exact_min(L, U, n, grid.lo, grid.hi, also)
    if also.size < cand_p.size:
        cand_cov = _grid_coverage(cand_p, L, U, n, *probes)
    return CoverageReport(
        min_coverage=min_cov,
        argmin_p=min_p,
        mean_coverage=mean_coverage(method, n, level),
        grid_min_coverage=float(cand_cov.min()),
        grid_argmin_p=_argmin_p(cand_p, cand_cov),
    )


def _grid_candidates(grid_p, L, U):
    """Mask of the grid points that can hold the grid's minimum coverage:
    both ends of the grid, and for each realized endpoint e the last grid
    point below e, one equal to e and the first one above e.  Between
    consecutive endpoints the coverage rises, then falls (see _exact_min), so
    over one piece's grid points it is smallest at the first or the last.
    Where it is 1 up to rounding, an inner point can read a few ulps lower.
    That is 7,100 of 20,001 points at n = 2000, so _grid_coverage bounds them.
    A mask, not np.unique of the indices: 0.13 against 1.4 ms at 200,000.
    """
    ends = np.concatenate([L, U])
    left = np.searchsorted(grid_p, ends, side="left")  # the first point >= e
    right = np.searchsorted(grid_p, ends, side="right")  # the first point > e
    idx = np.concatenate([[0, grid_p.size - 1], left - 1, left, right])
    keep = np.zeros(grid_p.size, dtype=bool)
    keep[np.clip(idx, 0, grid_p.size - 1)] = True
    return keep


def _exact_min(L, U, n, lo, hi, also=()):
    """(argmin p, minimum) of the coverage over [lo, hi], with no grid; the
    probes lo < endpoints in (lo, hi) < hi with their C(p), C(p-), C(p+); and
    the coverage at the points `also`: all from one scan.

    Between consecutive realized endpoints the covering range [a, b] of x is
    fixed, and P(a <= X <= b) rises, then falls in p (H. Wang 2007, Statist.
    Sinica 17, 361-368).  So the infimum is C(lo+), C(hi-) or a one-sided
    limit C(e-), C(e+) at an endpoint e in (lo, hi); C(p) is at least both.
    """
    ends = np.concatenate([L, U])
    inner = np.sort(ends[(ends > lo) & (ends < hi)])
    probes = np.concatenate([[lo], inner, [hi], also])
    rows = _coverage_over(probes, L, U, n)
    k = inner.size + 2
    probes, (cov, left, right) = probes[:k], rows[:, :k]
    left[0], right[-1] = right[0], left[-1]  # [lo, hi] holds only one side of lo and hi
    limits = np.minimum(left, right)
    return _argmin_p(probes, limits), float(limits.min()), (probes, cov, left, right), rows[0, k:]


# Above this many grid candidates a report bounds them (_grid_coverage): a second
# scan costs 0.3-0.4 ms, a candidate in the first about 0.5 us.  Best of 31 cached
# 20,001-point reports, one scan / two (2-CPU machine, numpy 2.4.6): 0.76/0.83 ms
# at 964 candidates (n = 250), 0.96/0.96 at 1,346, 1.21/1.09 at 1,922 (n = 500).
_ONE_SCAN_CANDIDATES, _FIRST_CANDIDATES = 1350, 16  # 2,001 points: at most 1,017 to n = 300


def _grid_coverage(cand_p, L, U, n, p, cov, left, right):
    """The coverage at each grid candidate that can hold or tie the grid's
    minimum, inf at the others, from _exact_min's probes p and rows.  One on
    a probe takes its C(p).  On a piece e_i < g < e_i+1, C(g) is at least
    min(C(e_i+), C(e_i+1-)); times 1 - _TIE_RTOL that bounds the computed
    C(g), within 1.3e-14 of scipy at n = 10^5 and a few ulps below 1 where C
    is 1.  The _FIRST_CANDIDATES lowest bounds are evaluated, then each within
    _TIE_RTOL of the lowest coverage found, until none is left."""
    i = np.searchsorted(p, cand_p)  # p[i - 1] < g <= p[i]; g = lo has i = 0
    on = p[i] == cand_p
    got = np.where(on, cov[i], np.inf)
    bound = np.where(on, np.inf, np.minimum(right[i - 1], left[i]) * (1.0 - _TIE_RTOL))
    todo = np.argpartition(bound, min(_FIRST_CANDIDATES, bound.size - 1))[:_FIRST_CANDIDATES]
    while todo.size:
        got[todo] = _coverage_over(cand_p[todo], L, U, n)[0]
        bound[todo] = np.inf
        low = got.min()
        todo = np.flatnonzero(bound <= low + _TIE_RTOL * low)
    return got


# Relative gap below which two coverages tie for the minimum.  The coverage
# of the symmetric families (CP, Jeffreys, Wilson, Agresti-Coull, Wald
# two-sided) is the same at p and 1 - p, but the two mirror minima differ by
# rounding, by up to 4.6e-15 relative over 246 scans (see README); the
# nearest coverage away from a minimum's mirror pair was 1.4e-7 above it.
_TIE_RTOL = 1e-9


def _argmin_p(p: np.ndarray, cov: np.ndarray) -> float:
    """The smallest p whose coverage ties for the minimum within _TIE_RTOL, so
    that a symmetric family reports the same mirror minimum, p <= 1/2."""
    low = cov.min()
    return float(p[cov <= low + _TIE_RTOL * low].min())


# ---------------------------------------------------------------------------
# expected width / distance

def _support(method: MethodSpec, n: int, p: float):
    """(x, pmf): the success counts an expected width sums over, and their pmf.

    The pmf is 1 at the mode s = floor((n + 1) p), then cumulative products
    of pmf(k + 1) / pmf(k) = (n - k) p / ((k + 1) q) up and of its reciprocal
    down: no factor is above about 1, so a tail underflows to 0 and nothing
    overflows, and the sum normalizes it.  p and q stay apart in each factor,
    so the rounding of p / q does not repeat down the walk.  x are the counts
    whose pmf exceeds 1e-17 for the quantile-based families, and every x for
    the closed forms.
    """
    s = min(int((n + 1) * p), n)
    num = np.arange(n, 0.0, -1.0) * p  # pmf(k + 1) / pmf(k) = num[k] / den[k]
    den = np.arange(1.0, n + 1.0) * (1.0 - p)
    pmf = np.empty(n + 1)
    pmf[s] = 1.0
    np.cumprod(num[s:] / den[s:], out=pmf[s + 1 :])
    np.cumprod(den[:s][::-1] / num[:s][::-1], out=pmf[:s][::-1])
    pmf /= pmf.sum()
    if method.family in (Family.CLOPPER_PEARSON, Family.BETA_PRIOR):
        x = np.flatnonzero(pmf > 1e-17)
    else:
        x = np.arange(n + 1)
    return x, pmf[x]


def _expected_width(side: Side, p: float, pmf, L, U) -> float:
    """sum over x of pmf * (U - L), (U - p) or (p - L), as the side asks."""
    if side is Side.TWO_SIDED:
        width = U - L
    elif side is Side.UPPER:
        width = U - p
    else:
        width = p - L
    return float(np.dot(pmf, width))


def _check_p(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise DomainError(f"expected width requires 0 < p < 1, got p={p}")


def expected_width_exact(
    method: MethodSpec, n: int, p: float, level: ConfidenceLevel
) -> float:
    """Expectation over X of the interval width, by enumeration over x.

    Two-sided: E(U - L).  Upper: E(U - p).  Lower: E(p - L).  For the
    quantile-based families, endpoints are only read where the pmf exceeds
    1e-17; the skipped tail mass contributes below 1e-14 to a width bounded
    by 1, far inside the n * 1e-10 accumulation tolerance.

    The endpoints are read from the cached arrays of (method, n, level),
    so that a sweep over p solves them once, when those x cover at least
    half of 0..n or the arrays are already held.  Otherwise (a single p at
    large n, or far in a tail) only the x read are solved.  Lanes do not
    depend on their batch, so both give the same bits, and the bits of
    expected_widths_batch.
    """
    _check_p(p)
    _check_n(n)
    x, pmf = _support(method, n, p)
    if 2 * x.size >= n + 1 or (method, n, level) in _held_bounds:
        L, U = _bounds_arrays(method, n, level)
        L, U = L[x], U[x]
    else:
        L, U = _bounds_for_x(method, n, level, x.astype(float))
    return _expected_width(method.side, p, pmf, L, U)


def expected_widths_batch(
    method: MethodSpec, ns: list[int], p: float, level: ConfidenceLevel
) -> list[float]:
    """expected_width_exact for several sample sizes in one vectorized pass.

    The endpoints for all candidate n are solved in one run of the vector
    kernels, only where each n's pmf reaches, which keeps exact sample-size
    searches cheap: their sizes rarely repeat, so the endpoint cache would
    only add the lanes no width reads.
    """
    _check_p(p)
    if not ns:
        return []
    for n in ns:
        _check_n(n)
    supports = [_support(method, n, p) for n in ns]
    n_all = np.concatenate([np.full(x.size, float(n)) for (x, _), n in zip(supports, ns)])
    L_all, U_all = _bounds_for_x(
        method, n_all, level, np.concatenate([x for x, _ in supports]).astype(float)
    )
    offsets = np.cumsum([0] + [x.size for x, _ in supports])
    return [
        _expected_width(method.side, p, pmf, L_all[start:stop], U_all[start:stop])
        for (_, pmf), start, stop in zip(supports, offsets[:-1], offsets[1:])
    ]


# ---------------------------------------------------------------------------
# calibration

def _criterion_value(method, n, criterion, gamma):
    """The criterion's coverage at nominal level gamma."""
    level = ConfidenceLevel(gamma)
    if isinstance(criterion, MeanCoverage):
        return mean_coverage(method, n, level)
    L, U = _bounds_arrays(method, n, level)
    return _exact_min(L, U, n, criterion.grid.lo, criterion.grid.hi)[1]


_GAMMA_LO = 1e-6
_GAMMA_HI = 0.5
_GAMMA_TOL = 1e-5


def calibrate_alpha(
    method: MethodSpec,
    n: int,
    level: ConfidenceLevel,
    criterion: MinCoverage | MeanCoverage,
) -> ConfidenceLevel:
    """Nominal level gamma at which the coverage criterion hits 1 - alpha.

    Intervals nest in alpha, so both criteria fall in gamma, and one
    bracketed root loop finds where f(gamma) = criterion - target changes
    sign.  Mean-coverage criterion: target 1 - alpha on (1e-6, 0.5), the
    gamma with |f| <= 1e-10 (or in a bracket at most 1e-12 wide).
    Minimum-coverage criterion: target 1 - alpha - 1e-9 on (1e-6, alpha),
    the bracket's passing end once it is at most 1e-5 wide, i.e. the largest
    gamma, within 1e-5, whose exact minimum coverage over [lo, hi] is still
    at least 1 - alpha; calibration never raises alpha, so a method that
    passes at alpha is returned as it is.
    """
    mean = isinstance(criterion, MeanCoverage)
    lo = _GAMMA_LO
    if mean:
        what = "mean coverage"
        hi, target, f_tol, width = _GAMMA_HI, 1.0 - level.alpha, 1e-10, 1e-12
    elif isinstance(criterion, MinCoverage):
        what = f"minimum coverage over [{criterion.grid.lo}, {criterion.grid.hi}]"
        hi, target, f_tol, width = level.alpha, 1.0 - level.alpha - 1e-9, 0.0, _GAMMA_TOL
    else:
        raise DomainError(f"unknown calibration criterion {criterion!r}")
    where = f"{what} of {method} at n={n}, gamma in ({lo}, {hi})"
    f_lo = _criterion_value(method, n, criterion, lo) - target
    f_hi = _criterion_value(method, n, criterion, hi) - target
    if f_lo < 0.0 or (mean and f_hi > 0.0):
        raise CalibrationError(f"{where}: cannot reach {target}")
    if f_hi >= 0.0 and not mean:
        return level
    # Illinois regula falsi (Dowell & Jarratt 1971, BIT 11, 168-174): when
    # one end is kept twice in a row its f is halved, so the bracket
    # closes from both sides; at most 60 evaluations, the ends included
    gamma, f = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
    evals, moved = 2, None
    while abs(f) > f_tol and hi - lo > width and evals < 60:
        gamma = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        f = _criterion_value(method, n, criterion, gamma) - target
        evals += 1
        if f >= 0.0:  # gamma passes
            if moved == "lo":
                f_hi *= 0.5
            lo, f_lo, moved = gamma, f, "lo"
        else:
            if moved == "hi":
                f_lo *= 0.5
            hi, f_hi, moved = gamma, f, "hi"
    if abs(f) > f_tol and hi - lo > width:
        raise CalibrationError(
            f"{where}: missed {target} by {f} at gamma={gamma} after {evals} evaluations"
        )
    return ConfidenceLevel(gamma if mean else lo)
