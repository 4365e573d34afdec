"""Independent reference values for every benchmark op, and the checks.

The references use scipy's beta, binomial and normal functions, never the
kernels of ``binomci``.  They run after the timed region.  Interval
endpoints follow the textbook definition of each method; expected widths
and coverage enumerate the binomial distribution; closed-form sample sizes,
costs and expansions are written out again from their formulas.

Tolerances (``TOL``) are absolute plus relative to the reference value.  Each
check also records the largest error it saw, so that accuracy loss inside a
tolerance (for example at n near 10^6) still shows in every result.
"""
from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
from scipy import special as sc
from scipy import stats

# name: (relative, absolute)
TOL = {
    "endpoint": (1e-8, 1e-15),   # interval endpoints, n up to 10^6
    "width": (1e-8, 1e-15),      # exact expected width or distance
    "coverage": (0.0, 1e-8),     # min, grid-min and mean coverage
    "formula": (1e-9, 1e-9),     # closed forms: expansions, sample sizes, costs
    "calibrated_mean": (0.0, 1e-5),  # |mean coverage at gamma - (1 - alpha)|
    "calibrated_min": (0.0, 1e-9),   # min coverage at gamma >= 1 - alpha - tol
}
REFINE_EPS = 1e-12  # endpoint probes of a min-coverage scan, as documented


# ---------------------------------------------------------------------------
# reference quantities

def z_values(alpha: float) -> tuple[float, float]:
    return float(sc.ndtri(1.0 - alpha / 2.0)), float(sc.ndtri(1.0 - alpha))


def _prior(method: str) -> tuple[float, float] | None:
    if method == "jeffreys":
        return 0.5, 0.5
    if method.startswith("beta:"):
        a, b = method[5:].split(",")
        return float(a), float(b)
    return None


def bounds(method: str, side: str, n: int, alpha: float, x=None):
    """Reference (L, U) arrays over x (default 0..n)."""
    x = np.arange(n + 1, dtype=float) if x is None else np.asarray(x, dtype=float)
    z_half, z_full = z_values(alpha)
    zeros = np.zeros_like(x)
    ones = np.ones_like(x)
    prior = _prior(method)
    if method == "cp":
        q_lo = alpha / 2.0 if side == "two-sided" else alpha
        q_hi = 1.0 - q_lo
        with np.errstate(invalid="ignore", divide="ignore"):
            L = np.where(x > 0, sc.betaincinv(np.maximum(x, 1.0), n - x + 1.0, q_lo), 0.0)
            U = np.where(x < n, sc.betaincinv(x + 1.0, np.maximum(n - x, 1.0), q_hi), 1.0)
        L = np.where(x == n, q_lo ** (1.0 / n), L)
        U = np.where(x == 0, 1.0 - q_lo ** (1.0 / n), U)
    elif prior is not None:
        a = x + prior[0]
        b = n - x + prior[1]
        q_lo = alpha / 2.0 if side == "two-sided" else alpha
        L = sc.betaincinv(a, b, q_lo)
        U = sc.betaincinv(a, b, 1.0 - q_lo)
    elif method == "wald":
        ph = x / n
        se = np.sqrt(ph * (1.0 - ph) / n)
        z = z_half if side == "two-sided" else z_full
        L = np.clip(ph - z * se, 0.0, 1.0)
        U = np.clip(ph + z * se, 0.0, 1.0)
    elif method == "wilson":
        z2 = z_half * z_half
        ph = x / n
        center = (x + z2 / 2.0) / (n + z2)
        hw = z_half / (n + z2) * np.sqrt(ph * (1.0 - ph) * n + z2 / 4.0)
        L, U = center - hw, center + hw
    elif method == "ac":
        z2 = z_half * z_half
        nt = n + z2
        pt = (x + z2 / 2.0) / nt
        hw = z_half * np.sqrt(pt * (1.0 - pt) / nt)
        L, U = np.clip(pt - hw, 0.0, 1.0), np.clip(pt + hw, 0.0, 1.0)
    else:
        raise ValueError(f"unknown method {method!r}")
    if side == "upper":
        L = zeros
    elif side == "lower":
        U = ones
    return L, U


def expected_width(method: str, side: str, n: int, p: float, alpha: float) -> float:
    x = np.arange(n + 1, dtype=float)
    pmf = stats.binom.pmf(x, n, p)
    L, U = bounds(method, side, n, alpha, x)
    w = U - L if side == "two-sided" else (U - p if side == "upper" else p - L)
    return float(np.dot(pmf, w))


def coverage(p: np.ndarray, L: np.ndarray, U: np.ndarray, n: int) -> np.ndarray:
    """P(L(X) <= p <= U(X)) for X ~ Binomial(n, p), at each p."""
    p = np.asarray(p, dtype=float)
    if np.all(np.diff(L) >= 0.0) and np.all(np.diff(U) >= 0.0):
        x_hi = np.searchsorted(L, p, side="right") - 1
        x_lo = np.searchsorted(U, p, side="left")
        cov = stats.binom.cdf(x_hi, n, p) - stats.binom.cdf(x_lo - 1, n, p)
        return np.where(x_lo <= x_hi, np.clip(cov, 0.0, 1.0), 0.0)
    x = np.arange(n + 1, dtype=float)
    inside = (L[None, :] <= p[:, None]) & (p[:, None] <= U[None, :])
    return np.sum(np.where(inside, stats.binom.pmf(x[None, :], n, p[:, None]), 0.0), axis=1)


def mean_coverage(L: np.ndarray, U: np.ndarray, n: int) -> float:
    """Integral of the coverage over p in (0, 1), term by term in x."""
    x = np.arange(n + 1, dtype=float)
    a, b = x + 1.0, n - x + 1.0
    terms = sc.betainc(a, b, np.clip(U, 0.0, 1.0)) - sc.betainc(a, b, np.clip(L, 0.0, 1.0))
    return float(np.sum(terms) / (n + 1.0))


def min_coverage(method: str, n: int, alpha: float, lo: float, hi: float, points: int):
    """(min over grid and endpoint probes, min over the grid, mean coverage)."""
    L, U = bounds(method, "two-sided", n, alpha)
    grid = np.linspace(lo, hi, points)
    grid_cov = coverage(grid, L, U, n)
    ends = np.concatenate([L, U])
    ends = ends[(ends >= lo) & (ends <= hi)]
    probes = np.clip(
        np.concatenate([ends * (1.0 - REFINE_EPS), ends, ends * (1.0 + REFINE_EPS)]), lo, hi
    )
    probe_min = float(np.min(coverage(probes, L, U, n))) if probes.size else 1.0
    grid_min = float(np.min(grid_cov))
    return min(grid_min, probe_min), grid_min, mean_coverage(L, U, n)


def expansion(side: str, n: int, p: float, alpha: float) -> float:
    """Second-order expansions of the expected CP length (two-sided) and of
    the expected distance from the upper CP bound to p (upper)."""
    z_half, z_full = z_values(alpha)
    pq = p * (1.0 - p)
    rn = math.sqrt(n)
    if side == "two-sided":
        z, z2 = z_half, z_half * z_half
        t3 = (z / 18.0) / math.sqrt(pq) * (z2 - 2.5 - 17.0 * pq - 13.0 * pq * z2)
        return 2.0 * z * math.sqrt(pq) / rn + 1.0 / n + t3 / (rn * n)
    z, z2 = z_full, z_full * z_full
    t1 = (2.0 * (0.5 - p) * z2 + 2.0 - p) / 3.0
    t3 = z * math.sqrt(pq) * (
        -53.0 / 36.0 + (0.5 - p) / (1.0 - p) + (z2 + 6.5) / (36.0 * pq) - 13.0 * z2 / 36.0
    )
    return z * math.sqrt(pq) / rn + t1 / n + t3 / (rn * n)


def _n_two_sided(z: float, m2: float, d: float) -> float:
    return (2.0 * z * z * m2 + 2.0 * z * math.sqrt(z * z * m2 * m2 + d * m2) + d) / (d * d)


def _n_upper(z: float, p0: float, d: float) -> float:
    pq = p0 * (1.0 - p0)
    c = 2.0 * (0.5 - p0) * z * z + 2.0 - p0
    root = (z * math.sqrt(pq) + math.sqrt(z * z * pq + 4.0 * d * c / 3.0)) / (2.0 * d)
    return root * root


def _prior_moment(a: float, b: float) -> float:
    return math.exp(sc.gammaln(a + 0.5) + sc.gammaln(b + 0.5) - math.log(a + b)
                    - sc.gammaln(a) - sc.gammaln(b))


def _n_upper_prior(z: float, a: float, b: float, d: float) -> float:
    g = sc.gammaln
    c_half = z * math.exp(g(2.5 - a) + g(2.5 - b) - g(5.0 - a - b))
    c_one = ((2.0 + z * z) / 3.0 * math.exp(g(2.0 - a) + g(2.0 - b) - g(4.0 - a - b))
             - (2.0 * z * z + 1.0) / 3.0 * math.exp(g(3.0 - a) + g(2.0 - b) - g(5.0 - a - b)))
    u = d / c_half if c_one == 0.0 else (
        (-c_half + math.sqrt(c_half * c_half + 4.0 * c_one * d)) / (2.0 * c_one))
    return 1.0 / (u * u)


def sample_size(side: str, d: float, alpha: float, p0: float | None,
                prior: tuple[float, float] | None) -> float:
    """Unrounded closed-form CP sample size for a target expected length d."""
    z_half, z_full = z_values(alpha)
    if side == "two-sided":
        m2 = p0 * (1.0 - p0) if prior is None else _prior_moment(*prior) ** 2
        return _n_two_sided(z_half, m2, d)
    if prior is None:
        return _n_upper(z_full, p0, d)
    return _n_upper_prior(z_full, prior[0], prior[1], d)


def cost(vs: str, d: float, p0: float, alpha: float) -> float:
    """Extra observations the exact method needs (derived-algebra forms)."""
    z_half, z_full = z_values(alpha)
    pq = p0 * (1.0 - p0)
    z2 = z_half * z_half
    if vs == "one-sided":
        return _n_upper(z_full, p0, d) - z_full * z_full * pq / (d * d)
    if vs.startswith("adjusted:"):
        z_g = float(sc.ndtri(1.0 - float(vs[9:]) / 2.0))
        return (d + 2.0 * pq * (z2 - 2.0 * z_g * z_g)
                + 2.0 * z_half * math.sqrt(z2 * pq * pq + d * pq)) / (d * d)
    n_cp = _n_two_sided(z_half, pq, d)
    if vs == "jeffreys":
        return n_cp - 4.0 * z2 * pq / (d * d)
    if vs == "wilson":
        return n_cp - z2 * (pq + d * d / 2.0 + math.sqrt(pq * pq + d * d * (p0 - 0.5) ** 2)) * 2.0 / (d * d)
    return n_cp - (4.0 * z2 * pq / (d * d) - z2)


# ---------------------------------------------------------------------------
# checks

def _argmap(argv) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)
            if argv[i].startswith("--")}


def _keyvals(text: str) -> dict[str, float]:
    out = {}
    for line in text.strip().splitlines():
        k, v = line.split()
        out[k] = float(v)
    return out


class Checker:
    """Checks op outputs against the references and keeps the largest errors."""

    def __init__(self):
        self.max_err: dict[str, float] = defaultdict(float)

    def close(self, tol: str, got: float, ref: float) -> bool:
        rel, abs_ = TOL[tol]
        err = abs(got - ref)
        allowed = rel * abs(ref) + abs_
        self._note(f"{tol}.max_abs_err", err)
        self._note(f"{tol}.max_share_of_tol", err / allowed)
        return err <= allowed

    def _note(self, name: str, value: float) -> None:
        self.max_err[name] = max(self.max_err[name], value)

    def check(self, op, out) -> bool:
        return getattr(self, "_" + op.kind)(op.args, out)

    # interactive (CLI) ops: args is argv, out is stdout

    def _interval(self, argv, out):
        a = _argmap(argv)
        n, x = int(a["n"]), int(a["x"])
        L, U = bounds(a["method"], a.get("side", "two-sided"), n, float(a["alpha"]), [x])
        kv = _keyvals(out)
        return all([self.close("endpoint", kv["lower"], float(L[0])),
                    self.close("endpoint", kv["upper"], float(U[0]))])

    def _length_exact(self, argv, out):
        a = _argmap(argv)
        ref = expected_width(a["method"], a["side"], int(a["n"]), float(a["p"]), float(a["alpha"]))
        return self.close("width", float(out), ref)

    def _length_expansion(self, argv, out):
        a = _argmap(argv)
        ref = expansion(a["side"], int(a["n"]), float(a["p"]), float(a["alpha"]))
        return self.close("formula", float(out), ref)

    def _coverage_mean(self, argv, out):
        a = _argmap(argv)
        n = int(a["n"])
        L, U = bounds(a["method"], "two-sided", n, float(a["alpha"]))
        return self.close("coverage", _keyvals(out)["mean_coverage"], mean_coverage(L, U, n))

    def _coverage_min(self, argv, out):
        a = _argmap(argv)
        ref = min_coverage(a["method"], int(a["n"]), float(a["alpha"]), float(a["lo"]),
                           float(a["hi"]), int(a["points"]))
        kv = _keyvals(out)
        got = (kv["min_coverage"], kv["grid_min_coverage"], kv["mean_coverage"])
        return all([self.close("coverage", g, r) for g, r in zip(got, ref)])

    def _sample_size_formula(self, argv, out):
        a = _argmap(argv)
        prior = tuple(float(v) for v in a["prior"].split(",")) if "prior" in a else None
        p0 = float(a["p0"]) if "p0" in a else None
        ref = sample_size(a["side"], float(a["d"]), float(a["alpha"]), p0, prior)
        kv = _keyvals(out)
        ok = self.close("formula", kv["n_unrounded"], ref)
        # n is the ceiling; allow either side only when ref sits on an integer
        n_ok = int(kv["n"]) == math.ceil(ref) or abs(ref - round(ref)) <= 1e-9 * ref
        return ok and n_ok

    def _cost(self, argv, out):
        a = _argmap(argv)
        ref = cost(a["vs"], float(a["d"]), float(a["p0"]), float(a["alpha"]))
        return self.close("formula", float(out), ref)

    # library ops

    def _exact_n(self, args, out):
        method, side, d, p0, alpha = args
        n, achieved = out
        ref = expected_width(method, side, n, p0, alpha)
        return self.close("width", achieved, ref) and achieved <= d and ref <= d

    def _min_coverage(self, args, out):
        method, n, alpha, lo, hi, points, _ = args
        ref = min_coverage(method, n, alpha, lo, hi, points)
        got = (out[0], out[2], out[4])
        return all([self.close("coverage", g, r) for g, r in zip(got, ref)])

    def _expected_width(self, args, out):
        method, side, n, p, alpha = args
        return self.close("width", out, expected_width(method, side, n, p, alpha))

    def _mean_coverage(self, args, out):
        method, n, alpha = args
        L, U = bounds(method, "two-sided", n, alpha)
        return self.close("coverage", out, mean_coverage(L, U, n))

    def _calibrate(self, args, gamma):
        method, n, alpha, criterion, points = args
        target = 1.0 - alpha
        if criterion == "mean":
            L, U = bounds(method, "two-sided", n, gamma)
            return self.close("calibrated_mean", mean_coverage(L, U, n), target)
        def ref_min(g):
            return min_coverage(method, n, g, 0.01, 0.99, points)[0]

        tol = TOL["calibrated_min"][1]
        safe = ref_min(gamma) >= target - tol
        self._note("calibrated_min.max_shortfall", target - ref_min(gamma))
        # the bisection stops within 1e-5 of a failing level, a rescan within 1e-4
        above = min(alpha, gamma + 1e-4)
        largest = gamma >= alpha or ref_min(above) < target - tol
        return safe and largest
