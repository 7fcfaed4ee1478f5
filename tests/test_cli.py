import json
import math
import os
import stat

import numpy as np
import pytest

from trivml import verify
from trivml.cli import main
from trivml.errors import QuadratureError, TalbotDivergenceError
from trivml.series import LambdaTriple, MLParams, SeriesControl, eval_trivariate, eval_univariate
from trivml.solver import IVPSpec, solve


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestEval:
    def test_triple_exponential_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--delta", "1", "--eta", "1", "--u", "1", "--v", "1", "--w", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "alpha" and header[-1] == "shells"
        row = dict(zip(header, rows[0]))
        assert float(row["value_re"]) == pytest.approx(math.exp(3.0), rel=1e-12)
        assert float(row["value_im"]) == 0.0

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_rejected(self, capsys, tol):
        # an infinite rel_tol would stop the series after a few shells
        # (8.5 for e^3) and still report convergence
        code, out, err = run_cli(
            capsys, "eval", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--delta", "1", "--eta", "1", "--u", "1", "--v", "1", "--w", "1", "--tol", tol,
        )
        assert code == 2 and out == "" and err.startswith("error: rel_tol")

    @pytest.mark.parametrize("u", ["nan", "1,inf"])
    def test_non_finite_argument_exit_2(self, capsys, u):
        code, out, err = run_cli(
            capsys, "eval", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--delta", "1", "--eta", "1", "--u", u, "--v", "0", "--w", "0",
        )
        assert code == 2 and out == "" and err.startswith("error: series argument must be finite")

    def test_huge_shell_budget(self, capsys):
        # the budget bounds the walk but sizes no table: same row, exit 0
        argv = ["eval", "--alpha", "0.9", "--beta", "0.8", "--gamma", "0.7", "--delta", "1.2",
                "--eta", "1.1", "--u", "0.5", "--v", "0.3", "--w", "0.2"]
        code, out, err = run_cli(capsys, *argv, "--max-shell", "10000000000")
        assert code == 0 and err == ""
        assert out == run_cli(capsys, *argv)[1]

    def test_unit_value_for_zero_arguments(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--alpha", "0.8", "--beta", "0.7", "--gamma", "0.3",
            "--delta", "1", "--eta", "2.2", "--u", "0", "--v", "0", "--w", "0",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][11]) == 1.0

    def test_round_trip_printed_precision(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--alpha", "0.9", "--beta", "1.2", "--gamma", "0.6",
            "--delta", "1.4", "--eta", "1.3", "--u", "0.4,0.3", "--v", "-0.2", "--w", "0.25",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        ref = eval_trivariate(
            MLParams(0.9, 1.2, 0.6, 1.4, 1.3), 0.4 + 0.3j, complex(-0.2), complex(0.25)
        ).value
        assert float(row["value_re"]) == complex(ref).real  # 17 digits round-trip exactly
        assert float(row["value_im"]) == complex(ref).imag

    def test_validation_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--alpha", "0", "--beta", "1", "--gamma", "1",
            "--delta", "1", "--eta", "1", "--u", "1", "--v", "1", "--w", "1",
        )
        assert code == 2 and "error" in err

    def test_non_convergence_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--delta", "1", "--eta", "1", "--u", "30", "--v", "0", "--w", "0",
            "--max-shell", "5",
        )
        assert code == 3 and "not converged" in err
        assert out.startswith("alpha")  # the partial row is still reported

    def test_series_ending_at_the_budget_exit_0(self, capsys):
        # (-2)_q vanishes from q = 3 on: shells 0-2, all within the budget, are the whole series
        code, out, _ = run_cli(
            capsys, "eval", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--delta", "1", "--eta", "-2", "--u", "0.5", "--v", "0.3", "--w", "0.2",
            "--max-shell", "2",
        )
        header, [row] = parse_csv(out)
        row = dict(zip(header, row))
        assert code == 0 and float(row["value_re"]) == -0.5 and float(row["abs_err"]) == 0.0


class TestEvalUnivariate:
    def test_single_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval-univariate", "--alpha", "0.9", "--beta", "0.7", "--gamma", "0.5",
            "--delta", "1.3", "--eta", "1.0", "--lambda1", "0.5", "--lambda2", "-0.4",
            "--lambda3", "0.3", "--r", "0.8",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        ref = eval_univariate(
            MLParams(0.9, 0.7, 0.5, 1.3, 1.0), LambdaTriple(0.5, -0.4, 0.3), 0.8
        ).value
        assert float(row["value"]) == pytest.approx(ref, rel=1e-14)

    UNIV = ["eval-univariate", "--beta", "0.7", "--gamma", "0.5", "--delta", "1.3", "--eta", "1.0",
            "--lambda1", "0.5", "--lambda2", "-0.4", "--lambda3", "0.3"]

    @pytest.mark.parametrize("r", ["nan", "inf"])
    def test_non_finite_abscissa_exit_2(self, capsys, r):
        code, out, err = run_cli(capsys, *self.UNIV, "--alpha", "0.9", "--r", r)
        assert code == 2 and out == "" and err.startswith("error: univariate form requires a finite r")

    def test_argument_outside_double_range_exit_3(self, capsys):
        # 1e300 ** 1.5 is past the double range
        code, out, err = run_cli(capsys, *self.UNIV, "--alpha", "1.5", "--r", "1e300")
        assert code == 3 and out == ""
        assert err.startswith("error: univariate arguments at r=1e+300 overflow")
        assert "params=MLParams(alpha=1.5" in err


class TestSolve:
    def test_constant_solution(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--alpha", "0.8", "--beta", "0.6", "--gamma", "0.4",
            "--lambda1", "0", "--lambda2", "0", "--lambda3", "0", "--y0", "7",
            "--t-max", "1", "--n-points", "8", "--out", str(out_file),
        )
        assert code == 0
        header, rows = parse_csv(out_file.read_text())
        assert header == ["r", "y", "backend", "abs_err"]
        assert len(rows) == 9
        assert all(float(row[1]) == 7.0 for row in rows)
        assert all(row[2] == "series" for row in rows)

    def test_matches_library_solve(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--alpha", "0.9", "--beta", "0.5", "--gamma", "0.3",
            "--lambda1", "-0.7", "--lambda2", "-0.4", "--lambda3", "-0.6", "--y0", "1.5",
            "--t-max", "1", "--n-points", "4", "--out", str(out_file),
        )
        assert code == 0
        _, rows = parse_csv(out_file.read_text())
        spec = IVPSpec(0.9, 0.5, 0.3, -0.7, -0.4, -0.6, 1.5)
        trace = solve(spec, None, np.linspace(0.0, 1.0, 5), SeriesControl())
        for row, ref in zip(rows, trace.values):
            assert float(row[1]) == ref  # printed at full precision

    def test_oracle_backend(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--alpha", "0.9", "--beta", "0.5", "--gamma", "0.3",
            "--lambda1", "-0.7", "--lambda2", "-0.4", "--lambda3", "-0.6", "--y0", "1.5",
            "--t-max", "1", "--n-points", "4", "--oracle", "h=0.001", "--out", str(out_file),
        )
        assert code == 0
        _, rows = parse_csv(out_file.read_text())
        assert all(row[2] == "oracle" for row in rows)
        assert float(rows[0][1]) == 1.5

    def test_forcing_file(self, capsys, tmp_path):
        forcing = tmp_path / "g.csv"
        forcing.write_text("r,g\n0.0,1.0\n0.5,1.0\n1.0,1.0\n")
        out_file = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--alpha", "0.8", "--beta", "0.6", "--gamma", "0.4",
            "--lambda1", "0", "--lambda2", "0", "--lambda3", "0", "--y0", "0",
            "--t-max", "1", "--n-points", "4", "--forcing", str(forcing),
            "--out", str(out_file),
        )
        assert code == 0
        _, rows = parse_csv(out_file.read_text())
        # unit forcing, no lambdas: y(r) = r^0.8/Gamma(1.8)
        assert float(rows[-1][1]) == pytest.approx(1.0 / math.gamma(1.8), rel=1e-9)

    def test_missing_forcing_file_exit_4(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        code, _, err = run_cli(
            capsys, "solve", "--alpha", "0.8", "--beta", "0.6", "--gamma", "0.4",
            "--lambda1", "0", "--lambda2", "0", "--lambda3", "0", "--y0", "0",
            "--t-max", "1", "--n-points", "4", "--forcing", str(tmp_path / "nope.csv"),
            "--out", str(out_file),
        )
        assert code == 4
        assert not out_file.exists()  # no partial output

    @pytest.mark.parametrize("row", ["0.5,nan", "nan,1.0", "0.5,inf"])
    def test_non_finite_forcing_row_exit_2(self, capsys, tmp_path, row):
        # a non-finite sample would give NaN rows with finite abs_err and exit 0
        forcing = tmp_path / "g.csv"
        forcing.write_text(f"r,g\n0.0,1.0\n{row}\n1.0,1.0\n")
        out_file = tmp_path / "trace.csv"
        code, _, err = run_cli(
            capsys, "solve", "--alpha", "0.8", "--beta", "0.6", "--gamma", "0.4",
            "--lambda1", "0", "--lambda2", "0", "--lambda3", "0", "--y0", "0",
            "--t-max", "1", "--n-points", "4", "--forcing", str(forcing),
            "--out", str(out_file),
        )
        assert code == 2 and "must be finite" in err
        assert not out_file.exists()

    def test_bad_forcing_header_exit_4(self, capsys, tmp_path):
        forcing = tmp_path / "g.csv"
        forcing.write_text("time,value\n0.0,1.0\n1.0,1.0\n")
        code, _, _ = run_cli(
            capsys, "solve", "--alpha", "0.8", "--beta", "0.6", "--gamma", "0.4",
            "--lambda1", "0", "--lambda2", "0", "--lambda3", "0", "--y0", "0",
            "--t-max", "1", "--n-points", "4", "--forcing", str(forcing),
        )
        assert code == 4

    def test_singular_l1_step_exit_2(self, capsys, tmp_path):
        # lambda1 equals the sum of the three L1 leading coefficients at h = 0.5
        out_file = tmp_path / "trace.csv"
        code, _, err = run_cli(
            capsys, "solve", "--alpha", "0.9", "--beta", "0.5", "--gamma", "0.3",
            "--lambda1", "3.460925599591151", "--lambda2", "-0.4", "--lambda3", "-0.6",
            "--y0", "1", "--t-max", "1", "--n-points", "4", "--oracle", "h=0.5",
            "--out", str(out_file),
        )
        assert code == 2 and err.startswith("error:")
        assert not out_file.exists()

    def test_out_file_mode_follows_umask(self, capsys, tmp_path):
        out = tmp_path / "y.csv"
        old = os.umask(0o022)
        try:
            code, _, _ = run_cli(
                capsys, "solve", "--alpha", "0.9", "--beta", "0.6", "--gamma", "0.3",
                "--lambda1", "0", "--lambda2", "0", "--lambda3", "0", "--y0", "1.5",
                "--t-max", "1", "--n-points", "4", "--out", str(out),
            )
        finally:
            os.umask(old)
        assert code == 0 and stat.S_IMODE(out.stat().st_mode) == 0o644

    @pytest.mark.parametrize("oracle", [[], ["--oracle", "h=0.1"]])
    @pytest.mark.parametrize("t_max", ["inf", "nan"])
    def test_non_finite_t_max_exit_2(self, capsys, t_max, oracle):
        # rejected before a grid is built on it: no linspace warning, and a
        # message that names t_max
        code, out, err = run_cli(
            capsys, "solve", "--alpha", "0.9", "--beta", "0.5", "--gamma", "0.3",
            "--lambda1", "-0.7", "--lambda2", "-0.4", "--lambda3", "-0.6", "--y0", "1.5",
            "--t-max", t_max, "--n-points", "4", *oracle,
        )
        assert (code, out, err) == (2, "", "error: need n_points >= 1 and 0 < t_max < inf\n")

    def test_invalid_spec_exit_2_no_partial_file(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "solve", "--alpha", "0.4", "--beta", "0.6", "--gamma", "0.3",
            "--lambda1", "0", "--lambda2", "0", "--lambda3", "0", "--y0", "1",
            "--t-max", "1", "--n-points", "4", "--out", str(out_file),
        )
        assert code == 2
        assert not out_file.exists()


class TestVerify:
    def test_whole_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 15 and all(line.startswith("PASS ") for line in lines)

    def test_single_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "exp-reduction")
        assert code == 0
        assert out.startswith("PASS exp-reduction")

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "exp-reduction", "--tol", "1e-30")
        assert code == 1
        assert out.startswith("FAIL")

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "no-such-check")
        assert code == 2
        assert err == f"error: unknown check 'no-such-check'; known: {', '.join(verify.all_check_names())}\n"

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1e-3"])
    def test_invalid_tolerance_override_rejected(self, capsys, tol):
        code, out, err = run_cli(capsys, "verify", "--only", "pascal-tetrahedron", "--tol", tol)
        assert code == 2 and out == "" and err.startswith("error: tolerance override")

    def test_zero_tolerance_override_allowed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "pascal-tetrahedron", "--tol", "0")
        assert code == 0 and out.startswith("PASS pascal-tetrahedron")

    def test_max_shell_is_not_a_verify_option(self, capsys, tmp_path):
        # the checks run at their own shell budget, so the flag would do nothing
        with pytest.raises(SystemExit) as info:
            main(["verify", "--only", "exp-reduction", "--max-shell", "1"])
        assert info.value.code == 2
        assert "unrecognized arguments: --max-shell 1" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_shell": 5}))
        code, out, err = run_cli(capsys, "verify", "--only", "exp-reduction", "--config", str(cfg))
        assert code == 2 and out == "" and err == "error: config option 'max_shell' is not recognized\n"

    @pytest.mark.parametrize("exc", [TalbotDivergenceError, QuadratureError])
    def test_node_doubling_failure_exit_3(self, capsys, monkeypatch, exc):
        def diverge(rng):
            raise exc("node doubling moved the result")

        _, tol, needs_rng = verify._CHECKS["laplace-duality"]
        monkeypatch.setitem(verify._CHECKS, "laplace-duality", (diverge, tol, needs_rng))
        code, _, err = run_cli(capsys, "verify", "--only", "laplace-duality")
        assert code == 3 and err.startswith("error: node doubling")


class TestTable:
    def test_family_rows(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys, "table", "--alpha", "0.25", "--beta", "0.75", "--gamma", "1.5",
            "--delta", "1.5", "--eta", "1,1.5", "--t-max", "1", "--n-points", "4",
            "--out", str(out_file),
        )
        assert code == 0
        header, rows = parse_csv(out_file.read_text())
        assert header == ["family", "alpha", "beta", "gamma", "delta", "eta", "r", "value"]
        families = {row[0] for row in rows}
        assert families == {"trivariate", "bivariate", "prabhakar", "two-param"}
        # two eta values, 5 abscissae, 4 families
        assert len(rows) == 2 * 5 * 4

    def test_single_point_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--alpha", "0.9", "--beta", "1.1", "--gamma", "0.7",
            "--delta", "1.2", "--eta", "1.0", "--t-max", "0.5", "--n-points", "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2 * 4

    def test_w_slot_zero_reduction(self, capsys):
        # with the w slot zeroed and gamma equal to delta (as in the
        # comparison-table parameter set) the three-variable rows collapse
        # onto the two-variable ones digit for digit
        code, out, _ = run_cli(
            capsys, "table", "--alpha", "0.9", "--beta", "1.1", "--gamma", "1.2",
            "--delta", "1.2", "--eta", "1.3", "--w", "0", "--t-max", "1", "--n-points", "3",
        )
        assert code == 0
        _, rows = parse_csv(out)
        triv = {row[6]: row[7] for row in rows if row[0] == "trivariate"}
        biv = {row[6]: row[7] for row in rows if row[0] == "bivariate"}
        assert triv == biv  # identical printed columns

    @pytest.mark.parametrize("flag", ["alpha", "beta", "gamma", "delta", "eta"])
    def test_negative_comma_list_as_separate_argument(self, capsys, flag):
        # "--eta -3,1" must read -3,1 as the flag's value, as "--eta=-3,1" does
        sweep = {"alpha": "0.9", "beta": "1.1", "gamma": "0.7", "delta": "1.2", "eta": "1"}
        rest = [a for name, value in sweep.items() if name != flag for a in (f"--{name}", value)]
        rest += ["--t-max", "0.5", "--n-points", "1"]
        code, out, err = run_cli(capsys, "table", f"--{flag}", "-3,1", *rest)
        assert (code, out, err) == run_cli(capsys, "table", f"--{flag}=-3,1", *rest)
        if flag in ("alpha", "beta", "gamma"):
            assert code == 2 and "must be strictly positive" in err  # a value, not a missing one
        else:
            assert code == 0
            _, rows = parse_csv(out)
            assert {float(row[list(sweep).index(flag) + 1]) for row in rows} == {-3.0, 1.0}

    def test_argument_outside_double_range_exit_3(self, capsys):
        # finite --u and --t-max whose product overflows: a finite input
        # whose series argument leaves the double range
        code, out, err = run_cli(
            capsys, "table", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta", "1",
            "--eta", "1", "--t-max", "1e300", "--n-points", "1", "--u", "1e10",
        )
        assert code == 3 and out == ""
        assert err == "error: table argument --u 1e+10 times r=1e+300 leaves the double range\n"

    def test_bad_ranges_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "table", "--alpha", "abc", "--beta", "1", "--gamma", "1",
            "--delta", "1", "--eta", "1", "--t-max", "1", "--n-points", "2",
        )
        assert code == 2

    def test_unconverged_rows_are_nan_exit_3(self, capsys):
        # at --max-shell 3 only r = 0 converges; E(5, 5, 5) = e^15 must not
        # be printed as the partial sum 691
        code, out, err = run_cli(
            capsys, "table", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta", "1",
            "--eta", "1", "--t-max", "5", "--n-points", "2", "--max-shell", "3",
        )
        assert code == 3 and err == "one or more points did not converge\n"
        header, rows = parse_csv(out)
        assert header == ["family", "alpha", "beta", "gamma", "delta", "eta", "r", "value"]
        assert len(rows) == 3 * 4 and all(len(row) == 8 for row in rows)
        values = {(row[0], float(row[6])): float(row[7]) for row in rows}
        assert all(values[family, 0.0] == 1.0 for family in ("trivariate", "bivariate", "prabhakar", "two-param"))
        assert all(math.isnan(value) for (_, r), value in values.items() if r > 0.0)

    @pytest.mark.parametrize("t_max", ["inf", "-inf", "nan"])
    def test_non_finite_t_max_exit_2(self, capsys, t_max):
        code, out, err = run_cli(
            capsys, "table", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta", "1",
            "--eta", "1", f"--t-max={t_max}", "--n-points", "2",
        )
        assert (code, out, err) == (2, "", "error: need nonempty sweep lists, n_points >= 1 and 0 < t_max < inf\n")


class TestConfig:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "alpha": 1.0, "beta": 1.0, "gamma": 1.0, "delta": 1.0, "eta": 1.0,
            "u": "1", "v": "1", "w": "1",
        }))
        code, out, _ = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][11]) == pytest.approx(math.exp(3.0), rel=1e-12)

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "alpha": 1.0, "beta": 1.0, "gamma": 1.0, "delta": 1.0, "eta": 1.0,
            "u": "1", "v": "1", "w": "1",
        }))
        code, out, _ = run_cli(capsys, "eval", "--config", str(cfg), "--u", "0", "--v", "0", "--w", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][11]) == 1.0

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 2

    TABLE = ["table", "--alpha", "0.9", "--beta", "1.1", "--gamma", "0.7", "--delta", "1",
             "--eta", "1", "--t-max", "1", "--n-points", "2"]

    def test_config_values_convert_like_their_flags(self, capsys, tmp_path):
        # a JSON number for a table scale and a JSON string for a float flag
        # give what the same text on the command line gives
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u": 2, "w": "0.5"}))
        code, out, _ = run_cli(capsys, *self.TABLE, "--config", str(cfg))
        assert code == 0
        assert out == run_cli(capsys, *self.TABLE, "--u", "2", "--w", "0.5")[1]
        cfg.write_text(json.dumps({"r": "0.5"}))
        univ = ["eval-univariate", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta", "1",
                "--eta", "1", "--lambda1", "1", "--lambda2", "0", "--lambda3", "0"]
        code, out, _ = run_cli(capsys, *univ, "--config", str(cfg))
        assert code == 0
        assert out == run_cli(capsys, *univ, "--r", "0.5")[1]

    @pytest.mark.parametrize("values", [{"r": "half"}, {"r": [0.5]}, {"out": True}, {"max_shell": 2.5}])
    def test_config_value_rejected_like_its_flag(self, capsys, tmp_path, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code, _, err = run_cli(capsys, "eval-univariate", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: config option")
