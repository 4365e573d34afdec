"""Seeded op lists for the benchmark workloads, and the code that runs one op.

An op is a plain tuple of numbers and strings, so that the same seed always
gives the same list and a list can be compared or printed.  Ops run through
the public ``binomci`` API only: ``binomci.cli.run`` and the names the
package exports.  Each name is looked up at call time, so that a traced run
can wrap it.

Every list is built from rounds, and a round holds the same cells (op kind
and method) every time.  Each cell draws its sizes (n, p, ...) from its own
evenly spread sequence, so that any prefix of the list has close to the same
mix of kinds and sizes.  A run measures a prefix, so the mix, and with it
the metrics, varies little from seed to seed.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from typing import NamedTuple

import binomci
import binomci.cli

WORKLOADS = ("interactive", "planning", "tables")

# Ops a run may use at most; far above what a run completes at the seed.
MAX_OPS = {"interactive": 10000, "planning": 1080, "tables": 4000}

# The smallest number of ops a run measures, even if that takes longer than
# the run's seconds: with 100 ops, p90 has ten samples beyond it.  The
# light interactive ops need more, so that each cell's sizes cover their
# range evenly and p90 sits still.
MIN_OPS = {"interactive": 2000, "planning": 100, "tables": 100}

COVERAGE_NS = (50, 100, 250, 500, 1000, 2000)
COVERAGE_RANGES = ((0.01, 0.99), (0.1, 0.9))
FIGURE_ALPHA = 0.05
MEAN_ALPHA = 0.1
SCAN_ALPHA = 0.01
FIGURE_POINTS = 20001
SCAN_POINTS = 200000
CALIBRATE_POINTS = 2001
SWEEP_NS = (20, 50, 100)


class Op(NamedTuple):
    kind: str
    key: tuple  # (method, side, n, alpha), or the query itself
    args: tuple


class _Draws:
    """Evenly spread points (u, v) in [0, 1)^2, one sequence per cell.

    The R2 sequence (Roberts, 2018) from a seeded start: any prefix of a
    cell's points covers the square evenly, and another seed starts
    elsewhere.  Everything else (alpha, priors, order) comes from the rng.
    """

    A1, A2 = 0.7548776662466927, 0.5698402909980532

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._state: dict = {}

    def __call__(self, *cell) -> tuple[float, float]:
        if cell not in self._state:
            self._state[cell] = (self.rng.random(), self.rng.random())
        u, v = self._state[cell]
        u, v = (u + self.A1) % 1.0, (v + self.A2) % 1.0
        self._state[cell] = (u, v)
        return u, v


# ---------------------------------------------------------------------------
# method names shared by all workloads

def method_spec(method: str, side: str = "two-sided"):
    """MethodSpec for a method name as the CLI spells it."""
    s = binomci.Side(side)
    if method == "cp":
        return binomci.MethodSpec.clopper_pearson(s)
    if method == "wald":
        return binomci.MethodSpec.wald(s)
    if method == "wilson":
        return binomci.MethodSpec.wilson()
    if method == "ac":
        return binomci.MethodSpec.agresti_coull()
    if method == "jeffreys":
        return binomci.MethodSpec.jeffreys(s)
    if method.startswith("beta:"):
        a, b = (float(v) for v in method[5:].split(","))
        return binomci.MethodSpec.beta_prior(binomci.BetaParams(a, b), s)
    raise ValueError(f"unknown method {method!r}")


def _spread(groups: list[list[Op]], rng: random.Random) -> list[Op]:
    """Merge the groups so that each is spread evenly over the result."""
    placed = []
    for g in groups:
        for i, op in enumerate(g):
            placed.append(((i + rng.random()) / len(g), len(placed), op))
    placed.sort()
    return [op for _, _, op in placed]


# ---------------------------------------------------------------------------
# interactive: light CLI queries, no repeated (method, side, n, alpha) key

_INTERVAL_METHODS = [
    ("cp", "two-sided"), ("cp", "upper"), ("cp", "lower"),
    ("wald", "two-sided"), ("wald", "upper"), ("wald", "lower"),
    ("wilson", "two-sided"), ("ac", "two-sided"),
    ("jeffreys", "two-sided"), ("jeffreys", "upper"), ("jeffreys", "lower"),
    ("beta", "two-sided"), ("beta", "upper"), ("beta", "lower"),
]
_LENGTH_METHODS = [
    ("cp", "two-sided"), ("cp", "upper"), ("cp", "lower"),
    ("jeffreys", "two-sided"), ("jeffreys", "upper"),
    ("wald", "two-sided"), ("wilson", "two-sided"), ("ac", "two-sided"),
]
_COVERAGE_METHODS = ["cp", "jeffreys", "wilson", "ac", "wald"]
_SIZE_QUERIES = [("two-sided", "p0"), ("upper", "p0"), ("two-sided", "prior"),
                 ("upper", "prior")]
_COST_VS = ["jeffreys", "wilson", "ac", "one-sided", "adjusted"]


def _fmt(v: float) -> str:
    return repr(float(v))


def _interactive_round(rng: random.Random, draw: _Draws) -> list[Op]:
    def alpha() -> float:
        return 0.005 * 40.0 ** rng.random()  # log-uniform in [0.005, 0.2]

    intervals = []
    for method, side in _INTERVAL_METHODS * 2:
        u, v = draw("interval", method, side)
        n = max(1, round(10.0 ** (6.0 * u)))
        x = 0 if v < 0.08 else n if v < 0.16 else round((v - 0.16) / 0.84 * n)
        if method == "beta":
            method = f"beta:{rng.uniform(0.2, 3.0):.2f},{rng.uniform(0.2, 3.0):.2f}"
        a = alpha()
        argv = ("interval", "--method", method, "--x", str(x), "--n", str(n),
                "--alpha", _fmt(a), "--side", side)
        intervals.append(Op("interval", (method, side, n, a), argv))

    exact = []
    for method, side in _LENGTH_METHODS:
        u, v = draw("length_exact", method, side)
        n, a = round(20.0 * 25.0 ** u), alpha()
        argv = ("expected-length", "--method", method, "--n", str(n),
                "--p", _fmt(0.01 + 0.98 * v), "--alpha", _fmt(a), "--side", side,
                "--mode", "exact")
        exact.append(Op("length_exact", (method, side, n, a), argv))

    expansion = []
    for side in ("two-sided", "upper") * 3:
        u, v = draw("length_expansion", side)
        n, a = round(10.0 ** (1.0 + 5.0 * u)), alpha()
        argv = ("expected-length", "--method", "cp", "--n", str(n),
                "--p", _fmt(0.01 + 0.98 * v), "--alpha", _fmt(a), "--side", side,
                "--mode", "expansion")
        expansion.append(Op("length_expansion", ("cp", side, n, a), argv))

    mean_cov = []
    min_cov = []
    for method in _COVERAGE_METHODS:
        u, _ = draw("coverage_mean", method)
        n, a = round(20.0 * 15.0 ** u), alpha()
        argv = ("coverage", "--method", method, "--n", str(n), "--alpha", _fmt(a),
                "--criterion", "mean")
        mean_cov.append(Op("coverage_mean", (method, "two-sided", n, a), argv))
        u, v = draw("coverage_min", method)
        n, a = round(20.0 * 15.0 ** u), alpha()
        lo, hi = COVERAGE_RANGES[v < 0.5]
        argv = ("coverage", "--method", method, "--n", str(n), "--alpha", _fmt(a),
                "--lo", _fmt(lo), "--hi", _fmt(hi), "--points", "2001")
        min_cov.append(Op("coverage_min", (method, "two-sided", n, a), argv))

    # One-sided queries keep p0 <= 0.5: see "What stays out" in README.md.
    # Prior shapes stay in [0.2, 1.5]: the one-sided prior formula has poles
    # at 2, and near them a large d is rightly refused as unattainable.
    sizes = []
    for side, guess in _SIZE_QUERIES:
        u, v = draw("sample_size_formula", side, guess)
        d, a = 0.005 * 40.0 ** u, alpha()
        argv = ("sample-size", "--method", "cp", "--d", _fmt(d), "--alpha", _fmt(a),
                "--side", side, "--mode", "formula")
        if guess == "p0":
            p0 = 0.02 + (0.96 if side == "two-sided" else 0.48) * v
            argv += ("--p0", _fmt(p0))
        else:
            p0 = f"{0.2 + 1.3 * v:.2f},{rng.uniform(0.2, 1.5):.2f}"
            argv += ("--prior", p0)
        sizes.append(Op("sample_size_formula", (side, d, p0, a), argv))

    costs = []
    for vs in _COST_VS:
        u, v = draw("cost", vs)
        d, a = 0.005 * 40.0 ** u, alpha()
        p0 = 0.02 + (0.48 if vs == "one-sided" else 0.96) * v
        if vs == "adjusted":
            vs = f"adjusted:{_fmt(rng.uniform(0.01, 0.1))}"
        argv = ("cost", "--vs", vs, "--d", _fmt(d), "--p0", _fmt(p0), "--alpha", _fmt(a))
        costs.append(Op("cost", (vs, d, p0, a), argv))

    return _spread([intervals, exact, expansion, mean_cov, min_cov, sizes, costs], rng)


# ---------------------------------------------------------------------------
# planning: exact smallest-n searches

PLANNING_METHODS = (("cp", "two-sided"), ("cp", "upper"), ("jeffreys", "two-sided"))
PLANNING_ALPHAS = (0.01, 0.05, 0.1)


def _planning_round(rng: random.Random, draw: _Draws, index: int) -> list[Op]:
    """Nine searches, one per (method, alpha).

    The target d comes from the first-order sample-size formula at a drawn
    n and p0.  In every second round one search, taking the (method, alpha)
    pairs in turn, draws n log-uniform in [1000, 2600]; all others draw n
    log-uniform in [100, 600].  p0 is log-uniform in [0.02, 0.5].
    """
    cells = [(m, s, a) for m, s in PLANNING_METHODS for a in PLANNING_ALPHAS]
    large = cells[(index // 2) % len(cells)] if index % 2 == 0 else None
    ops = []
    for method, side, alpha in cells:
        if (method, side, alpha) == large:
            u, v = draw("large")
            n_target = 1000.0 * 2.6 ** u
        else:
            u, v = draw(method, side, alpha)
            n_target = 100.0 * 6.0 ** u
        p0 = 0.02 * 25.0 ** v
        level = binomci.ConfidenceLevel(alpha)
        z = level.z_half if side == "two-sided" else level.z_full
        scale = 2.0 if side == "two-sided" else 1.0
        d = scale * z * math.sqrt(p0 * (1.0 - p0) / n_target) + 1.0 / n_target
        ops.append(Op("exact_n", (method, side, alpha, p0, d), (method, side, d, p0, alpha)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# tables: one analysis session rebuilding the paper's tables

TABLE_METHODS = ("jeffreys", "wilson", "ac", "cp")
_CALIBRATIONS = (("jeffreys", "min"), ("wilson", "min"), ("jeffreys", "mean"), ("ac", "mean"))
_SWEEP_METHODS = (("cp", "two-sided"), ("cp", "upper"), ("jeffreys", "two-sided"),
                  ("wilson", "two-sided"))


def _tables_round(rng: random.Random, draw: _Draws, index: int) -> list[Op]:
    a = FIGURE_ALPHA
    figure = [
        Op("min_coverage", (m, "two-sided", n, a), (m, n, a, lo, hi, FIGURE_POINTS, 1))
        for m in TABLE_METHODS for n in COVERAGE_NS for lo, hi in COVERAGE_RANGES
    ]
    rng.shuffle(figure)
    scans = []
    for k in range(2):
        # families rotate over rounds; workers alternate 1, 2
        m = TABLE_METHODS[(2 * index + k) % len(TABLE_METHODS)]
        n = COVERAGE_NS[-1]
        scans.append(Op("min_coverage", (m, "two-sided", n, SCAN_ALPHA),
                        (m, n, SCAN_ALPHA, 0.01, 0.99, SCAN_POINTS, 1 + k)))
    sweeps = []
    for m, side in _SWEEP_METHODS:
        for n in SWEEP_NS:
            for _ in range(10):
                p = 0.002 + 0.996 * draw("sweep", m, side, n)[0]
                sweeps.append(Op("expected_width", (m, side, n, a), (m, side, n, p, a)))
    # Scans and mean coverage use levels of their own: which of two ops that
    # share a key pays for its endpoints depends on their order, and a
    # scan or mean op paying in place of a figure op moves the percentiles.
    means = [Op("mean_coverage", (m, "two-sided", n, MEAN_ALPHA), (m, n, MEAN_ALPHA))
             for m in TABLE_METHODS for n in COVERAGE_NS]
    rng.shuffle(means)
    calibrations = []
    for m, criterion in _CALIBRATIONS:
        n = 180 + round(40 * draw("calibrate", m, criterion)[0])
        calibrations.append(Op("calibrate", (m, "two-sided", n, a),
                               (m, n, a, criterion, CALIBRATE_POINTS)))
    return _spread([figure, scans, sweeps, means, calibrations], rng)


# ---------------------------------------------------------------------------

def generate_rounds(workload: str, seed: int, max_ops: int | None = None) -> list[list[Op]]:
    """The op list of a workload for a seed, in rounds; the same seed gives
    the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    draw = _Draws(rng)
    limit = MAX_OPS[workload] if max_ops is None else max_ops
    rounds: list[list[Op]] = []
    total = 0
    while total < limit:
        if workload == "interactive":
            rounds.append(_interactive_round(rng, draw))
        elif workload == "planning":
            rounds.append(_planning_round(rng, draw, len(rounds)))
        else:
            rounds.append(_tables_round(rng, draw, len(rounds)))
        total += len(rounds[-1])
    return rounds


def generate(workload: str, seed: int, max_ops: int | None = None) -> list[Op]:
    """generate_rounds as one flat list."""
    return [op for r in generate_rounds(workload, seed, max_ops) for op in r]


def warmup_ops(workload: str) -> list[Op]:
    """A few ops on keys no timed op uses: alpha 0.25 never occurs in a list."""
    a = 0.25
    if workload == "interactive":
        return [
            Op("interval", ("cp", "two-sided", 40, a),
               ("interval", "--method", "cp", "--x", "7", "--n", "40", "--alpha", "0.25")),
            Op("length_exact", ("jeffreys", "two-sided", 30, a),
               ("expected-length", "--method", "jeffreys", "--n", "30", "--p", "0.3",
                "--alpha", "0.25")),
            Op("coverage_min", ("wilson", "two-sided", 30, a),
               ("coverage", "--method", "wilson", "--n", "30", "--alpha", "0.25",
                "--points", "201")),
        ]
    if workload == "planning":
        return [Op("exact_n", ("cp", "two-sided", a, 0.3, 0.4), ("cp", "two-sided", 0.4, 0.3, a))]
    return [
        Op("min_coverage", ("cp", "two-sided", 30, a), ("cp", 30, a, 0.01, 0.99, 201, 1)),
        Op("expected_width", ("cp", "two-sided", 30, a), ("cp", "two-sided", 30, 0.3, a)),
        Op("mean_coverage", ("wilson", "two-sided", 30, a), ("wilson", 30, a)),
    ]


def run_op(op: Op):
    """Run one op and return its output; raises on a failed op."""
    kind, _, args = op
    if kind in _CLI_KINDS:
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = binomci.cli.run(list(args))
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()
    if kind == "exact_n":
        method, side, d, p0, alpha = args
        res = binomci.exact_n(method_spec(method, side), d, p0, binomci.ConfidenceLevel(alpha))
        return (res.n, res.achieved)
    if kind == "min_coverage":
        method, n, alpha, lo, hi, points, workers = args
        rep = binomci.min_coverage(
            method_spec(method), n, binomci.ConfidenceLevel(alpha),
            binomci.PGrid(lo, hi, points), workers=workers,
        )
        return (rep.min_coverage, rep.argmin_p, rep.grid_min_coverage, rep.grid_argmin_p,
                rep.mean_coverage)
    if kind == "expected_width":
        method, side, n, p, alpha = args
        return binomci.expected_width_exact(
            method_spec(method, side), n, p, binomci.ConfidenceLevel(alpha)
        )
    if kind == "mean_coverage":
        method, n, alpha = args
        return binomci.mean_coverage(method_spec(method), n, binomci.ConfidenceLevel(alpha))
    if kind == "calibrate":
        method, n, alpha, criterion, points = args
        crit = (binomci.MinCoverage(binomci.PGrid(0.01, 0.99, points))
                if criterion == "min" else binomci.MeanCoverage())
        return binomci.calibrate_alpha(
            method_spec(method), n, binomci.ConfidenceLevel(alpha), crit
        ).alpha
    raise ValueError(f"unknown op kind {kind!r}")


_CLI_KINDS = {"interval", "length_exact", "length_expansion", "coverage_mean", "coverage_min",
              "sample_size_formula", "cost"}
