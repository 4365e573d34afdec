import csv
import os
import subprocess
import sys

import pytest

from binomci import cli
from binomci.cli import _fmt, _parse_method, run
from binomci.exact_eval import MinCoverage, PGrid, calibrate_alpha
from binomci.expansions import expected_distance_expansion
from binomci.methods import ConfidenceLevel, MethodSpec, Side
from binomci.special import BetaParams


def invoke(argv, capsys):
    """(exit code, stdout, stderr) of run(argv), an argparse exit included."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_keyvals(out):
    pairs = {}
    for line in out.strip().splitlines():
        if "," in line and " " not in line:
            break
        key, value = line.split(None, 1)
        pairs[key] = value
    return pairs


class TestInterval:
    def test_cp_zero_successes(self, capsys):
        code, out, _ = invoke(
            ["interval", "--method", "cp", "--x", "0", "--n", "10", "--alpha", "0.05"],
            capsys,
        )
        assert code == 0
        vals = parse_keyvals(out)
        assert float(vals["lower"]) == 0.0
        assert float(vals["upper"]) == pytest.approx(1 - 0.025**0.1, abs=1e-9)

    def test_beta_prior_syntax(self, capsys):
        code, out, _ = invoke(
            ["interval", "--method", "beta:1,1", "--x", "2", "--n", "20",
             "--alpha", "0.05", "--side", "upper"],
            capsys,
        )
        assert code == 0
        assert float(parse_keyvals(out)["upper"]) == pytest.approx(0.2705517, abs=1e-6)

    def test_one_sided_wilson_is_usage_error(self, capsys):
        code, _, err = invoke(
            ["interval", "--method", "wilson", "--x", "2", "--n", "20",
             "--alpha", "0.05", "--side", "upper"],
            capsys,
        )
        assert code == 2
        assert "side" in err

    def test_invalid_observation_is_computation_error(self, capsys):
        code, _, err = invoke(
            ["interval", "--method", "cp", "--x", "11", "--n", "10", "--alpha", "0.05"],
            capsys,
        )
        assert code == 1
        assert "error" in err

    def test_alpha_too_small_names_alpha(self, capsys):
        code, _, err = invoke(
            ["interval", "--method", "cp", "--x", "3", "--n", "10", "--alpha", "1e-17"],
            capsys,
        )
        assert code == 1
        assert "alpha=1e-17" in err and "normal_quantile" not in err

    def test_gamma_too_small_names_gamma(self, capsys):
        code, _, err = invoke(
            ["cost", "--vs", "adjusted:1e-17", "--d", "0.04", "--p0", "0.5", "--alpha", "0.05"],
            capsys,
        )
        assert code == 1
        assert "gamma=1e-17" in err and "normal_quantile" not in err

    def test_unknown_method_lists_valid_names(self, capsys):
        code, _, err = invoke(
            ["interval", "--method", "nope", "--x", "1", "--n", "10", "--alpha", "0.05"],
            capsys,
        )
        assert code == 2
        assert "cp|wald|wilson|ac|beta:a,b|jeffreys" in err

    @pytest.mark.parametrize(
        "method, reason",
        [("beta:-1,1", "beta parameter a must be positive, got -1.0"),
         ("beta:nan,1", "beta parameter a must be positive, got nan"),
         ("beta:1,0", "beta parameter b must be positive, got 0.0"),
         ("beta:1", "needs two numbers"),
         ("beta:1,x", "needs two numbers"),
         ("beta:1,2,3", "needs two numbers")],
    )
    def test_bad_beta_shapes_name_the_reason(self, capsys, method, reason):
        # a refused shape used to say "needs two numbers" too
        code, out, err = invoke(
            ["interval", "--method", method, "--x", "1", "--n", "10", "--alpha", "0.05"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "--method beta:a,b" in err and reason in err


@pytest.mark.parametrize(
    "spec",
    [MethodSpec.clopper_pearson(), MethodSpec.clopper_pearson(Side.UPPER),
     MethodSpec.wald(Side.LOWER), MethodSpec.wilson(), MethodSpec.agresti_coull(),
     MethodSpec.jeffreys(), MethodSpec.jeffreys(Side.UPPER),
     MethodSpec.beta_prior(BetaParams(1, 1)),
     MethodSpec.beta_prior(BetaParams(1.0 / 3.0, 2.0), Side.LOWER)],
    ids=str,
)
def test_method_prints_its_cli_spelling(spec):
    method, *side = str(spec).split()
    assert _parse_method(method, Side(*side) if side else Side.TWO_SIDED) == spec


class TestExpectedLength:
    def test_exact_and_expansion_agree_roughly(self, capsys):
        _, out_exact, _ = invoke(
            ["expected-length", "--method", "cp", "--n", "100", "--p", "0.5",
             "--alpha", "0.05", "--mode", "exact"],
            capsys,
        )
        _, out_exp, _ = invoke(
            ["expected-length", "--method", "cp", "--n", "100", "--p", "0.5",
             "--alpha", "0.05", "--mode", "expansion"],
            capsys,
        )
        assert abs(float(out_exact) - float(out_exp)) < 0.01

    def test_upper_expansion_prints_the_expected_distance(self, capsys):
        code, out, _ = invoke(
            ["expected-length", "--method", "cp", "--n", "100", "--p", "0.3",
             "--alpha", "0.05", "--side", "upper", "--mode", "expansion"],
            capsys,
        )
        value = expected_distance_expansion(100, 0.3, ConfidenceLevel(0.05)).value
        assert code == 0 and out.strip() == _fmt(value) == "0.08393777387"


class TestSampleSize:
    def test_formula_mode_prints_331(self, capsys):
        code, out, _ = invoke(
            ["sample-size", "--method", "cp", "--d", "0.05", "--p0", "0.05",
             "--alpha", "0.05", "--mode", "formula"],
            capsys,
        )
        assert code == 0
        assert parse_keyvals(out)["n"] == "331"

    def test_exact_mode_prints_329(self, capsys):
        code, out, _ = invoke(
            ["sample-size", "--method", "cp", "--d", "0.05", "--p0", "0.05",
             "--alpha", "0.05", "--mode", "exact"],
            capsys,
        )
        assert code == 0
        vals = parse_keyvals(out)
        assert vals["n"] == "329"
        assert float(vals["achieved"]) <= 0.05

    def test_prior_flag(self, capsys):
        code, out, _ = invoke(
            ["sample-size", "--method", "cp", "--d", "0.02", "--prior", "0.5,0.5",
             "--alpha", "0.05", "--side", "upper"],
            capsys,
        )
        assert code == 0
        assert parse_keyvals(out)["n"] == "208"

    def test_two_sided_prior(self, capsys):
        code, out, _ = invoke(
            ["sample-size", "--method", "cp", "--d", "0.05", "--prior", "0.5,0.5",
             "--alpha", "0.05"],
            capsys,
        )
        assert code == 0
        assert parse_keyvals(out) == {"n": "663", "n_unrounded": "662.1497544"}

    @pytest.mark.parametrize(
        "prior, reason",
        [("0,1", "beta parameter a must be positive, got 0.0"),
         ("1,-inf", "beta parameter b must be positive, got -inf"),
         ("0.5", "needs two numbers")],
    )
    def test_bad_prior_names_the_reason(self, capsys, prior, reason):
        code, out, err = invoke(
            ["sample-size", "--method", "cp", "--d", "0.02", "--prior", prior,
             "--alpha", "0.05", "--side", "upper"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "--prior" in err and reason in err

    def test_prior_with_vanishing_n_inverse_coefficient(self, capsys):
        # this prior's one-sided n^(-1) coefficient is 2.5e-14 at alpha .05
        code, out, _ = invoke(
            ["sample-size", "--method", "cp", "--d", "0.02", "--prior",
             "1.7241029864823263,1.9", "--alpha", "0.05", "--side", "upper"],
            capsys,
        )
        assert code == 0
        vals = parse_keyvals(out)
        assert vals["n"] == "26997"
        assert vals["n_unrounded"] == "26996.9302"

    def test_both_guesses_rejected(self, capsys):
        code, _, err = invoke(
            ["sample-size", "--method", "cp", "--d", "0.05", "--p0", "0.5",
             "--prior", "1,1", "--alpha", "0.05"],
            capsys,
        )
        assert code == 2
        assert "p0" in err

    def test_lower_side_is_usage_error(self, capsys):
        code, out, err = invoke(
            ["sample-size", "--method", "cp", "--d", "0.05", "--p0", "0.3",
             "--alpha", "0.05", "--side", "lower"],
            capsys,
        )
        assert code == 2 and out == "" and "--side lower" in err and "Side." not in err

    def test_unattainable_one_sided_target_is_computation_error(self, capsys):
        for argv in (
            ["sample-size", "--method", "cp", "--side", "upper", "--p0", "0.9",
             "--d", "0.2", "--alpha", "0.05"],
            ["cost", "--vs", "one-sided", "--p0", "0.9", "--d", "0.2", "--alpha", "0.05"],
        ):
            code, out, err = invoke(argv, capsys)
            assert code == 1
            assert out == ""
            assert "unattainable" in err

    def test_one_sided_paper_formula(self, capsys):
        code, out, _ = invoke(
            ["sample-size", "--method", "cp", "--d", "0.02", "--p0", "0.5", "--alpha", "0.05",
             "--side", "upper", "--formula", "paper"],
            capsys,
        )
        assert code == 0
        assert float(parse_keyvals(out)["n_unrounded"]) == pytest.approx(26690.45, abs=0.5)


# queries with no printed form; each runs without --formula
FORMULA_WITHOUT_PRINTED_FORM = [
    ["sample-size", "--d", "0.05", "--p0", "0.3", "--alpha", "0.05"],
    ["sample-size", "--d", "0.02", "--prior", "0.5,0.5", "--alpha", "0.05", "--side", "upper"],
    ["sample-size", "--d", "0.05", "--p0", "0.3", "--alpha", "0.05", "--side", "upper",
     "--mode", "exact"],
    ["cost", "--vs", "adjusted:0.04", "--d", "0.04", "--p0", "0.5", "--alpha", "0.05"],
]


@pytest.mark.parametrize("formula", ["derived", "paper"])
@pytest.mark.parametrize(
    "argv", FORMULA_WITHOUT_PRINTED_FORM, ids=["two-sided", "prior", "exact", "adjusted"]
)
def test_formula_without_printed_form_is_usage_error(argv, formula, capsys):
    code, out, err = invoke(argv + ["--formula", formula], capsys)
    assert code == 2 and out == "" and "--formula" in err
    assert invoke(argv, capsys)[0] == 0


# command-handler checks: each is a usage error whose message says why
USAGE_ERRORS = {
    "expansion-lower": (
        ["expected-length", "--method", "cp", "--n", "100", "--p", "0.3", "--alpha", "0.05",
         "--mode", "expansion", "--side", "lower"],
        "--mode expansion supports --side two-sided or upper",
    ),
    "expansion-wilson": (
        ["expected-length", "--method", "wilson", "--n", "100", "--p", "0.3", "--alpha", "0.05",
         "--mode", "expansion"],
        "--mode expansion is defined for --method cp only",
    ),
    "sample-size-wald": (
        ["sample-size", "--method", "wald", "--d", "0.05", "--p0", "0.3", "--alpha", "0.05"],
        "sample-size supports --method cp only",
    ),
    "exact-without-p0": (
        ["sample-size", "--d", "0.05", "--prior", "0.5,0.5", "--alpha", "0.05",
         "--mode", "exact"],
        "--mode exact needs a point guess --p0",
    ),
    "cost-bogus": (
        ["cost", "--vs", "bogus", "--d", "0.05", "--p0", "0.5", "--alpha", "0.05"],
        "unknown --vs 'bogus'",
    ),
    "cost-adjusted-x": (
        ["cost", "--vs", "adjusted:x", "--d", "0.05", "--p0", "0.5", "--alpha", "0.05"],
        "--vs adjusted:gamma needs a number, got 'adjusted:x'",
    ),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_names_its_reason(argv, message, capsys):
    code, out, err = invoke(argv, capsys)
    assert code == 2 and out == "" and message in err


class TestCost:
    def test_jeffreys_cost(self, capsys):
        code, out, _ = invoke(
            ["cost", "--vs", "jeffreys", "--d", "0.05", "--p0", "0.5", "--alpha", "0.05"],
            capsys,
        )
        assert code == 0
        assert float(out) == pytest.approx(39.746, abs=0.001)

    def test_adjusted_cost(self, capsys):
        code, out, _ = invoke(
            ["cost", "--vs", "adjusted:0.04", "--d", "0.04", "--p0", "0.5",
             "--alpha", "0.05"],
            capsys,
        )
        assert code == 0
        assert float(out) == pytest.approx(-185.52, abs=0.01)

    def test_one_sided_paper_mode(self, capsys):
        code, out, _ = invoke(
            ["cost", "--vs", "one-sided", "--d", "0.05", "--p0", "0.5",
             "--alpha", "0.05", "--formula", "paper"],
            capsys,
        )
        assert code == 0
        assert float(out) == pytest.approx(80.441, abs=0.001)


class TestCoverageAndCalibrate:
    def test_min_coverage_report(self, capsys):
        code, out, _ = invoke(
            ["coverage", "--method", "wilson", "--n", "100", "--alpha", "0.05",
             "--lo", "0.05", "--hi", "0.95", "--points", "2001"],
            capsys,
        )
        assert code == 0
        vals = parse_keyvals(out)
        assert 0.8 < float(vals["min_coverage"]) < 0.96
        assert "argmin_p" in vals and "mean_coverage" in vals

    def test_dump_emits_per_point_rows(self, capsys):
        code, out, _ = invoke(
            ["coverage", "--method", "cp", "--n", "10", "--alpha", "0.05",
             "--lo", "0.2", "--hi", "0.8", "--points", "11", "--dump"],
            capsys,
        )
        assert code == 0
        assert "p,coverage" in out
        rows = out.split("p,coverage\n", 1)[1].strip().splitlines()
        assert len(rows) == 11

    @pytest.mark.parametrize(
        "method, n, alpha, lo, hi, points",
        [("wilson", 100, 0.05, 0.05, 0.95, 2001), ("cp", 3, 0.001, 0.1, 0.9, 1001),
         ("jeffreys", 2000, 0.05, 0.01, 0.99, 20001)],
    )
    def test_dump_prints_the_same_report(self, capsys, method, n, alpha, lo, hi, points):
        argv = ["coverage", "--method", method, "--n", str(n), "--alpha", str(alpha),
                "--lo", str(lo), "--hi", str(hi), "--points", str(points)]
        code, plain, _ = invoke(argv, capsys)
        code_dump, dumped, _ = invoke(argv + ["--dump"], capsys)
        assert code == code_dump == 0
        report = parse_keyvals(plain)
        assert list(report) == ["min_coverage", "argmin_p", "grid_min_coverage", "mean_coverage"]
        assert parse_keyvals(dumped) == report

    def test_mean_criterion(self, capsys):
        code, out, _ = invoke(
            ["coverage", "--method", "cp", "--n", "25", "--alpha", "0.05",
             "--criterion", "mean"],
            capsys,
        )
        assert code == 0
        assert 0.95 < float(parse_keyvals(out)["mean_coverage"]) < 1.0

    def test_calibrate_mean(self, capsys):
        code, out, _ = invoke(
            ["calibrate", "--method", "cp", "--n", "50", "--alpha", "0.05",
             "--criterion", "mean"],
            capsys,
        )
        assert code == 0
        assert float(parse_keyvals(out)["gamma"]) > 0.05

    def test_calibrate_min_reads_only_the_range(self, capsys):
        code, out, _ = invoke(
            ["calibrate", "--method", "jeffreys", "--n", "100", "--alpha", "0.05",
             "--criterion", "min"],
            capsys,
        )
        assert code == 0
        want = calibrate_alpha(
            MethodSpec.jeffreys(), 100, ConfidenceLevel(0.05), MinCoverage(PGrid(0.01, 0.99, 4001))
        )
        assert out == f"gamma {_fmt(want.alpha)}\n"

    def test_calibration_error_names_the_method_as_the_cli_does(self, capsys):
        code, out, err = invoke(
            ["calibrate", "--method", "wald", "--n", "10", "--alpha", "0.05",
             "--lo", "0.001", "--hi", "0.999", "--criterion", "min"],
            capsys,
        )
        assert code == 1 and out == ""
        assert "of wald at n=10" in err and "MethodSpec(" not in err

    @pytest.mark.parametrize(
        "command, option",
        [("calibrate", ["--lo", "0.5"]), ("calibrate", ["--hi", "0.4"]),
         ("coverage", ["--lo", "0.5"]), ("coverage", ["--hi", "0.4"]),
         ("coverage", ["--points", "3"]), ("coverage", ["--dump"])],
    )
    def test_mean_criterion_rejects_range_options(self, capsys, command, option):
        code, out, err = invoke(
            [command, "--method", "cp", "--n", "50", "--alpha", "0.05",
             "--criterion", "mean", *option],
            capsys,
        )
        assert code == 2 and out == "" and option[0] in err

    def test_calibrate_has_no_points_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["calibrate", "--method", "jeffreys", "--n", "100", "--alpha", "0.05",
                 "--criterion", "min", "--points", "11"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("option", [["--points", "11"], ["--full-grid"]])
    def test_figure_has_no_grid_options(self, tmp_path, capsys, option):
        # the coverage figure's exact minimum and argmin read no p grid
        with pytest.raises(SystemExit) as exc:
            run(["figure", "--id", "coverage", "--out", str(tmp_path / "cov.csv"), *option])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fid", ["1", "2", "3", "4", "5", "6"])
    @pytest.mark.parametrize("option", [["--lo", "0.2"], ["--hi", "0.8"]])
    def test_figures_without_p_range_reject_it(self, tmp_path, capsys, fid, option):
        # only the coverage figure reads --lo/--hi; the others wrote the same
        # CSV with or without them
        target = tmp_path / "fig.csv"
        code, out, err = invoke(["figure", "--id", fid, "--out", str(target), *option], capsys)
        assert code == 2 and out == "" and option[0] in err and f"--id {fid}" in err
        assert not target.exists()

    def test_coverage_figure_reads_its_p_range(self, tmp_path, capsys):
        rows = {}
        for name, option in (("default", []), ("given", ["--lo", "0.01", "--hi", "0.99"]),
                             ("moved", ["--lo", "0.2"])):
            target = tmp_path / f"{name}.csv"
            argv = ["figure", "--id", "coverage", "--out", str(target),
                    "--coverage-n-list", "30", *option]
            assert invoke(argv, capsys)[0] == 0
            rows[name] = target.read_bytes()
        assert rows["default"] == rows["given"]
        assert b"cp,0.2,0.99,30," in rows["moved"]

    @pytest.mark.parametrize("n, criterion", [("0", "min"), ("-3", "mean")])
    def test_coverage_bad_n_is_computation_error(self, capsys, n, criterion):
        code, out, err = invoke(
            ["coverage", "--method", "cp", "--n", n, "--alpha", "0.05", "--criterion", criterion],
            capsys,
        )
        assert code == 1 and out == "" and "integer n >= 1" in err

    def test_threads_env_reproduces_sequential(self, capsys, monkeypatch):
        args = ["coverage", "--method", "jeffreys", "--n", "60", "--alpha", "0.05",
                "--lo", "0.05", "--hi", "0.95", "--points", "5000"]
        monkeypatch.delenv("BINOMCI_THREADS", raising=False)
        _, out_seq, _ = invoke(args, capsys)
        monkeypatch.setenv("BINOMCI_THREADS", "2")
        _, out_par, _ = invoke(args, capsys)
        assert out_seq == out_par


class TestFigures:
    def test_expected_length_figure_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["figure", "--id", "1", "--n-list", "20", "--out"]
        assert invoke(base + [str(out1)], capsys)[0] == 0
        assert invoke(base + [str(out2)], capsys)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "p", "exact", "expansion"]
        assert len(rows) == 1 + 499

    @pytest.mark.parametrize("n_list", [",", "a"])
    def test_bad_n_list_is_usage_error(self, tmp_path, capsys, n_list):
        target = tmp_path / "fig1.csv"
        code, out, err = invoke(
            ["figure", "--id", "1", "--n-list", n_list, "--out", str(target)], capsys
        )
        assert code == 2 and out == "" and f"bad n list {n_list!r}" in err
        assert not target.exists()

    def test_exclusive_create_and_force(self, tmp_path, capsys):
        target = tmp_path / "fig.csv"
        base = ["figure", "--id", "3", "--out", str(target)]
        assert invoke(base, capsys)[0] == 0
        assert invoke(base, capsys)[0] == 2
        assert invoke(base + ["--force"], capsys)[0] == 0

    def test_sample_size_figure_columns(self, tmp_path, capsys):
        target = tmp_path / "fig2.csv"
        assert invoke(["figure", "--id", "2", "--out", str(target)], capsys)[0] == 0
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "p0", "n"]
        assert len(rows) == 1 + 3 * 499

    def test_one_sided_figures(self, tmp_path, capsys):
        for fid, header in (
            ("4", ["n", "p", "exact", "expansion"]),
            ("5", ["series", "d", "n"]),
            ("6", ["p0", "d", "n_plus"]),
        ):
            target = tmp_path / f"fig{fid}.csv"
            args = ["figure", "--id", fid, "--out", str(target)]
            if fid == "4":
                args += ["--n-list", "20"]
            assert invoke(args, capsys)[0] == 0
            with open(target, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == header
            assert len(rows) > 10

    def test_coverage_figure_reproduces_ordering(self, tmp_path, capsys):
        target = tmp_path / "cov.csv"
        code, _, _ = invoke(
            ["figure", "--id", "coverage", "--out", str(target),
             "--coverage-n-list", "250"],
            capsys,
        )
        assert code == 0
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "lo", "hi", "n", "min_coverage", "argmin_p"]
        mins = {
            row[0]: float(row[4])
            for row in rows[1:]
            if row[1] == "0.01" and row[2] == "0.99"
        }
        assert mins["jeffreys"] < mins["wilson"] < mins["ac"] < mins["cp"]

    def test_floats_use_ten_significant_digits(self, tmp_path, capsys):
        target = tmp_path / "fig6.csv"
        assert invoke(["figure", "--id", "6", "--out", str(target)], capsys)[0] == 0
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:5]:
            mantissa = row[2].replace("-", "").replace(".", "").lstrip("0")
            assert len(mantissa) <= 10


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_sequence_matches_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "cov.csv"
        sequence = [
            ["interval", "--method", "cp", "--x", "3", "--n", "20", "--alpha", "0.05"],
            ["interval", "--method", "jeffreys", "--x", "3", "--n", "20", "--alpha", "0.1",
             "--side", "upper"],
            ["expected-length", "--method", "cp", "--n", "40", "--p", "0.3", "--alpha", "0.05",
             "--mode", "expansion"],
            ["interval", "--method", "cp", "--x", "3", "--n", "20", "--alpha", "0.05",
             "--bogus"],
            ["expected-length", "--method", "wilson", "--n", "40", "--p", "0.3",
             "--alpha", "0.05"],
            ["coverage", "--method", "cp", "--n", "30", "--alpha", "0.05",
             "--criterion", "mean"],
            ["coverage", "--method", "cp", "--n", "30", "--alpha", "0.05"],
            ["coverage", "--method", "cp", "--n", "30", "--alpha", "0.05", "--points", "7",
             "--dump"],
            ["sample-size", "--d", "0.05", "--p0", "0.3", "--alpha", "0.05"],
            ["sample-size", "--d", "0.05", "--p0", "0.3", "--alpha", "0.05", "--side", "lower"],
            ["cost", "--vs", "wilson", "--d", "0.05", "--p0", "0.3", "--alpha", "0.05"],
            ["calibrate", "--method", "cp", "--n", "20", "--alpha", "0.05",
             "--criterion", "min"],
            ["figure", "--id", "coverage", "--out", str(target), "--coverage-n-list", "20",
             "--force"],
            ["calibrate", "--method", "cp", "--n", "20", "--alpha", "0.05", "--criterion", "mean",
             "--lo", "0.2"],
        ]

        def results():
            seen = []
            for argv in sequence:
                seen.append(invoke(argv, capsys))
                if argv[0] == "figure":
                    seen.append(target.read_bytes())
            return seen

        reused = results()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = results()
        assert reused == fresh
        codes = [r[0] for r in reused if isinstance(r, tuple)]
        assert codes == [0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2]
        # plain coverage after --criterion mean still gets _p_range's defaults
        assert reused[6][1].count("\n") == 4
        # the coverage figure's rows read --lo/--hi from _p_range's defaults
        assert b"cp,0.01,0.99,20," in reused[13]

    def test_help_wraps_to_columns_set_after_build(self, capsys, monkeypatch):
        cli._build_parser()
        widths = {}
        for columns in (60, 120):
            monkeypatch.setenv("COLUMNS", str(columns))
            code, out, _ = invoke(["coverage", "--help"], capsys)
            assert code == 0
            widths[columns] = max(len(line) for line in out.splitlines())
        assert widths[60] <= 58 < widths[120] <= 118


IMPORT_PROBE = """
import sys
before = set(sys.modules)
import binomci, binomci.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_import_needs_only_numpy_and_the_standard_library():
    # scipy and mpmath are test-time oracles: the runtime must not reach them
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["binomci", "numpy"]
