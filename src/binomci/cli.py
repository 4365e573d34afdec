"""Command-line front end.

Subcommands compute intervals and bounds, exact or expanded expected
lengths, coverage reports, sample sizes, cost-of-exactness comparisons,
nominal-level calibration, and figure-reproduction CSV tables.  Results go
to standard output (or the CSV file), diagnostics to standard error.
Exit codes: 0 success, 2 usage error, 1 computation error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import sys

from . import exact_eval, expansions, sample_size
from .errors import BinomciError, DomainError, UnsupportedSideError
from .methods import (
    ApproxFamily,
    ConfidenceLevel,
    Family,
    MethodSpec,
    Observation,
    Side,
    interval,
)
from .sample_size import FormulaMode, SampleSizeQuery
from .special import BetaParams


class UsageError(Exception):
    """Invalid flag combination detected after parsing."""


def _fmt(v: float) -> str:
    return f"{v:.10g}"


_METHODS = {
    "cp": MethodSpec.clopper_pearson,
    "wald": MethodSpec.wald,
    "wilson": lambda side: MethodSpec(Family.WILSON, side),
    "ac": lambda side: MethodSpec(Family.AGRESTI_COULL, side),
    "jeffreys": MethodSpec.jeffreys,
}


def _parse_beta(text: str, flag: str) -> BetaParams:
    """Beta shapes written "a,b"; anything else, or shapes BetaParams refuses,
    is a UsageError naming flag."""
    try:
        a, b = map(float, text.split(","))
        return BetaParams(a, b)
    except DomainError as exc:  # a ValueError too: caught first
        raise UsageError(f"{flag}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{flag} needs two numbers, got {text!r}") from exc


def _parse_method(text: str, side: Side) -> MethodSpec:
    name = text.strip().lower()
    if name.startswith("beta:"):
        prior = _parse_beta(name[5:], "--method beta:a,b")
        return MethodSpec.beta_prior(prior, side)
    if name not in _METHODS:
        raise UsageError(
            f"unknown --method {text!r}; expected cp|wald|wilson|ac|beta:a,b|jeffreys"
        )
    try:
        return _METHODS[name](side)
    except UnsupportedSideError as exc:
        raise UsageError(f"--method {name} defines no one-sided bound; drop --side") from exc


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "alpha" in names:
        p.add_argument("--alpha", type=float, required=True, help="nominal error rate in (0,1)")
    if "side" in names:
        p.add_argument(
            "--side",
            default="two-sided",
            choices=["two-sided", "upper", "lower"],
            help="interval sidedness (default two-sided)",
        )
    if "range" in names:  # no parser default: see _p_range
        p.add_argument("--lo", type=float, help="lower end of p (default 0.01)")
        p.add_argument("--hi", type=float, help="upper end of p (default 0.99)")
    if "points" in names:
        p.add_argument("--points", type=int, help="grid points (default 20001)")


_RANGE_DEFAULTS = {"lo": 0.01, "hi": 0.99, "points": 20001}
_NO_P_RANGE = {"mean": "--criterion mean scans no p grid"}  # --criterion -> why


def _p_range(args, *names: str, unread: str = "") -> None:
    """Fill in the defaults of the p-range options `names` (of lo, hi, points,
    dump).  Where the command reads no p range, `unread` says why, and giving
    one of them is a usage error that names the option."""
    for name in names:
        value = getattr(args, name)
        if unread and value not in (None, False):
            raise UsageError(f"{unread}; drop --{name}")
        if value is None:
            setattr(args, name, _RANGE_DEFAULTS[name])


def _formula(args, applies: bool, scope: str) -> FormulaMode:
    """The --formula mode, derived by default; where no printed form exists
    (`applies` false), giving --formula is a usage error that names it."""
    if args.formula is not None and not applies:
        raise UsageError(f"--formula applies only to {scope}; drop --formula")
    return FormulaMode(args.formula or "derived")


@functools.cache  # parse_args writes only to a fresh namespace, so run() reuses it
def _build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="binomci",
        description="Exact and approximate binomial confidence methods",
    )
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interval", help="compute a confidence interval or bound")
    p.add_argument("--method", required=True)
    p.add_argument("--x", type=int, required=True, help="success count")
    p.add_argument("--n", type=int, required=True, help="trial count")
    _add_common(p, "alpha", "side")

    p = sub.add_parser("expected-length", help="expected width or bound distance")
    p.add_argument("--method", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True, help="true proportion")
    _add_common(p, "alpha", "side")
    p.add_argument("--mode", default="exact", choices=["exact", "expansion"])

    p = sub.add_parser("coverage", help="coverage report over a probability grid")
    p.add_argument("--method", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, "alpha", "range", "points")
    p.add_argument("--criterion", default="min", choices=["min", "mean"])
    p.add_argument("--dump", action="store_true", help="also dump per-point coverage CSV")

    p = sub.add_parser("sample-size", help="required n for a target expected length")
    p.add_argument("--method", default="cp", help="only cp is supported")
    p.add_argument("--d", type=float, required=True, help="target expected length/distance")
    _add_common(p, "alpha", "side")
    p.add_argument("--p0", type=float, help="point guess for p")
    p.add_argument("--prior", help="Beta prior as a,b")
    p.add_argument("--mode", default="formula", choices=["formula", "exact"])
    p.add_argument("--formula", choices=["derived", "paper"])  # no parser default: see _formula

    p = sub.add_parser("cost", help="extra observations required by the exact method")
    p.add_argument(
        "--vs",
        required=True,
        help="jeffreys|wilson|ac|one-sided|adjusted:gamma",
    )
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--p0", type=float, required=True)
    _add_common(p, "alpha")
    p.add_argument("--formula", choices=["derived", "paper"])  # no parser default: see _formula

    p = sub.add_parser("calibrate", help="nominal level hitting a coverage criterion")
    p.add_argument("--method", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, "alpha", "range")
    p.add_argument("--criterion", required=True, choices=["min", "mean"])

    p = sub.add_parser("figure", help="write a figure-reproduction CSV table")
    p.add_argument("--id", required=True, choices=list(_FIGURES))
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--force", action="store_true", help="overwrite an existing file")
    _add_common(p, "range")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--d", type=float, default=0.05, help="target length (figure 2)")
    p.add_argument(
        "--n-list", default="20,50,100", help="comma-separated n values (figures 1/4)"
    )
    p.add_argument(
        "--coverage-n-list",
        default="50,100,250,500,1000,2000",
        help="comma-separated n values for the coverage figure",
    )
    p.add_argument("--formula", default="paper", choices=["derived", "paper"])
    return root


def _cmd_interval(args) -> int:
    spec = _parse_method(args.method, Side(args.side))
    est = interval(spec, Observation(args.x, args.n), ConfidenceLevel(args.alpha))
    print(f"lower {_fmt(est.lower)}")
    print(f"upper {_fmt(est.upper)}")
    return 0


def _cmd_expected_length(args) -> int:
    side = Side(args.side)
    level = ConfidenceLevel(args.alpha)
    if args.mode == "exact":
        spec = _parse_method(args.method, side)
        value = exact_eval.expected_width_exact(spec, args.n, args.p, level)
    else:
        if args.method.strip().lower() != "cp":
            raise UsageError("--mode expansion is defined for --method cp only")
        if side not in expansions._WIDTH_EXPANSION:
            raise UsageError("--mode expansion supports --side two-sided or upper")
        value = expansions._WIDTH_EXPANSION[side](args.n, args.p, level).value
    print(_fmt(value))
    return 0


def _cmd_coverage(args) -> int:
    _p_range(args, "lo", "hi", "points", "dump", unread=_NO_P_RANGE.get(args.criterion, ""))
    spec = _parse_method(args.method, Side.TWO_SIDED)
    level = ConfidenceLevel(args.alpha)
    if args.criterion == "mean":
        print(f"mean_coverage {_fmt(exact_eval.mean_coverage(spec, args.n, level))}")
        return 0
    grid = exact_eval.PGrid(args.lo, args.hi, args.points)
    report = exact_eval.min_coverage(spec, args.n, level, grid)
    print(f"min_coverage {_fmt(report.min_coverage)}")
    print(f"argmin_p {_fmt(report.argmin_p)}")
    print(f"grid_min_coverage {_fmt(report.grid_min_coverage)}")
    print(f"mean_coverage {_fmt(report.mean_coverage)}")
    if args.dump:
        grid_p = grid.values()
        cov = exact_eval.coverage_probability(spec, args.n, grid_p, level)
        print("p,coverage")
        for p, c in zip(grid_p.tolist(), cov.tolist()):
            print(f"{_fmt(p)},{_fmt(c)}")
    return 0


def _cmd_sample_size(args) -> int:
    if args.method.strip().lower() != "cp":
        raise UsageError("sample-size supports --method cp only")
    side = Side(args.side)
    if side is Side.LOWER:
        raise UsageError("sample-size supports --side two-sided or upper, not --side lower")
    level = ConfidenceLevel(args.alpha)
    if (args.p0 is None) == (args.prior is None):
        raise UsageError("give exactly one of --p0 and --prior")
    upper_formula = side is Side.UPPER and args.p0 is not None and args.mode == "formula"
    mode = _formula(args, upper_formula, "--side upper with --p0 and --mode formula")
    prior = None
    if args.prior is not None:
        prior = _parse_beta(args.prior, "--prior a,b")
    query = SampleSizeQuery(args.d, level, side, args.p0, prior)
    if args.mode == "exact":
        if args.p0 is None:
            raise UsageError("--mode exact needs a point guess --p0")
        result = sample_size.exact_n(
            MethodSpec.clopper_pearson(side), args.d, args.p0, level
        )
        print(f"n {result.n}")
        print(f"achieved {_fmt(result.achieved)}")
        return 0
    if side is Side.TWO_SIDED:
        result = (
            sample_size.cp_n_two_sided(query)
            if prior is None
            else sample_size.cp_n_two_sided_prior(query)
        )
    else:
        result = (
            sample_size.cp_n_one_sided(query, mode)
            if prior is None
            else sample_size.cp_n_one_sided_prior(query)
        )
    print(f"n {result.n}")
    print(f"n_unrounded {_fmt(result.n_unrounded)}")
    return 0


def _cmd_cost(args) -> int:
    level = ConfidenceLevel(args.alpha)
    vs = args.vs.strip().lower()
    mode = _formula(args, not vs.startswith("adjusted:"), "--vs jeffreys|wilson|ac|one-sided")
    if vs == "one-sided":
        value = sample_size.n_plus_one_sided(args.d, args.p0, level, mode)
    elif vs.startswith("adjusted:"):
        try:
            gamma = float(vs.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"--vs adjusted:gamma needs a number, got {args.vs!r}") from exc
        value = sample_size.n_plus_adjusted(args.d, args.p0, level, gamma)
    else:
        try:
            fam = ApproxFamily(vs)
        except ValueError:
            raise UsageError(
                f"unknown --vs {args.vs!r}; expected jeffreys|wilson|ac|one-sided|adjusted:gamma"
            )
        value = sample_size.n_plus_two_sided(fam, args.d, args.p0, level, mode)
    print(_fmt(value))
    return 0


def _cmd_calibrate(args) -> int:
    _p_range(args, "lo", "hi", unread=_NO_P_RANGE.get(args.criterion, ""))
    spec = _parse_method(args.method, Side.TWO_SIDED)
    level = ConfidenceLevel(args.alpha)
    if args.criterion == "min":
        criterion = exact_eval.MinCoverage(exact_eval.PGrid(args.lo, args.hi, 2))
    else:
        criterion = exact_eval.MeanCoverage()
    calibrated = exact_eval.calibrate_alpha(spec, args.n, level, criterion)
    print(f"gamma {_fmt(calibrated.alpha)}")
    return 0


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad n list {text!r}") from exc
    if not values:
        raise UsageError(f"bad n list {text!r}")
    return values


def _width_figure_rows(args, level, side):
    """Figures 1 and 4: exact expected length or distance beside its expansion."""
    spec, expansion = MethodSpec.clopper_pearson(side), expansions._WIDTH_EXPANSION[side]
    rows = []
    for n in _parse_n_list(args.n_list):
        for p in exact_eval.PGrid(0.002, 0.998, 499).values():
            p = float(p)
            exact = exact_eval.expected_width_exact(spec, n, p, level)
            rows.append([n, p, exact, expansion(n, p, level).value])
    return ["n", "p", "exact", "expansion"], rows


def _figure_2_rows(args, level, mode):
    rows = []
    for alpha in (0.01, 0.05, 0.1):
        lvl = ConfidenceLevel(alpha)
        for p0 in exact_eval.PGrid(0.002, 0.998, 499).values():
            q = SampleSizeQuery(args.d, lvl, Side.TWO_SIDED, float(p0))
            rows.append([alpha, float(p0), sample_size.cp_n_two_sided(q).n])
    return ["alpha", "p0", "n"], rows


def _figure_3_rows(args, level, mode):
    rows = []
    for fam in (ApproxFamily.JEFFREYS, ApproxFamily.WILSON, ApproxFamily.AGRESTI_COULL):
        for p0 in (0.1, 0.3, 0.5):
            for d in exact_eval.PGrid(0.01, 0.15, 141).values():
                n_plus = sample_size.n_plus_two_sided(fam, float(d), p0, level, mode)
                rows.append([fam.value, p0, float(d), n_plus])
    return ["vs", "p0", "d", "n_plus"], rows


def _figure_5_rows(args, level, mode):
    rows = []
    for alpha in (0.01, 0.05, 0.1):
        lvl = ConfidenceLevel(alpha)
        for d in exact_eval.PGrid(0.005, 0.1, 96).values():
            q = SampleSizeQuery(float(d), lvl, Side.UPPER, 0.5)
            rows.append([f"p0=0.5,alpha={alpha}", float(d), sample_size.cp_n_one_sided(q).n])
    for label, prior in (
        ("jeffreys-prior", BetaParams(0.5, 0.5)),
        ("uniform-prior", BetaParams(1.0, 1.0)),
        ("beta(0.5,1)-prior", BetaParams(0.5, 1.0)),
    ):
        for d in exact_eval.PGrid(0.005, 0.1, 96).values():
            q = SampleSizeQuery(float(d), level, Side.UPPER, prior=prior)
            rows.append([label, float(d), sample_size.cp_n_one_sided_prior(q).n])
    return ["series", "d", "n"], rows


def _figure_6_rows(args, level, mode):
    rows = []
    for p0 in (0.3, 0.4, 0.5):
        for d in exact_eval.PGrid(0.01, 0.15, 141).values():
            rows.append([p0, float(d), sample_size.n_plus_one_sided(float(d), p0, level, mode)])
    return ["p0", "d", "n_plus"], rows


def _coverage_figure_rows(args, level, mode):
    """The exact minimum coverage and its argmin, which read no p grid and
    no mean coverage."""
    rows = []
    for name, spec in (
        ("jeffreys", MethodSpec.jeffreys()),
        ("wilson", MethodSpec.wilson()),
        ("ac", MethodSpec.agresti_coull()),
        ("cp", MethodSpec.clopper_pearson()),
    ):
        for lo, hi in ((args.lo, args.hi), (0.1, 0.9)):
            grid = exact_eval.PGrid(lo, hi, 2)  # checks 0 < lo < hi < 1
            for n in _parse_n_list(args.coverage_n_list):
                L, U = exact_eval._bounds_arrays(spec, n, level)
                argmin_p, min_cov, _ = exact_eval._exact_min(L, U, n, grid.lo, grid.hi)
                rows.append([name, lo, hi, n, min_cov, argmin_p])
    return ["method", "lo", "hi", "n", "min_coverage", "argmin_p"], rows


# figure id -> builder(args, level, formula mode) of its (header, rows)
_FIGURES = {
    "1": lambda args, level, mode: _width_figure_rows(args, level, Side.TWO_SIDED),
    "2": _figure_2_rows,
    "3": _figure_3_rows,
    "4": lambda args, level, mode: _width_figure_rows(args, level, Side.UPPER),
    "5": _figure_5_rows,
    "6": _figure_6_rows,
    "coverage": _coverage_figure_rows,
}


def _cmd_figure(args) -> int:
    unread = "" if args.id == "coverage" else f"--id {args.id} reads no p range"
    _p_range(args, "lo", "hi", unread=unread)
    header, rows = _FIGURES[args.id](args, ConfidenceLevel(args.alpha), FormulaMode(args.formula))
    mode = "w" if args.force else "x"
    try:
        handle = open(args.out, mode, newline="")
    except FileExistsError:
        raise UsageError(f"refusing to overwrite {args.out}; pass --force")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror}")
    with handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    print(f"wrote {args.out} ({len(rows)} rows)", file=sys.stderr)
    return 0


_COMMANDS = {
    "interval": _cmd_interval,
    "expected-length": _cmd_expected_length,
    "coverage": _cmd_coverage,
    "sample-size": _cmd_sample_size,
    "cost": _cmd_cost,
    "calibrate": _cmd_calibrate,
    "figure": _cmd_figure,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BinomciError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
