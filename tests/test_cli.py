import json
import math

import numpy as np
import pytest

from ntglab import cli
from ntglab.cli import EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, EXIT_USAGE, RunConfig, main
from ntglab.numint import EstimateWithError
from ntglab.risk import risk_difference_closed


class TestRunConfig:
    def test_defaults_embed(self):
        config = RunConfig(seed=7, mc_n=5000)
        d = config.to_dict()
        assert d == {"seed": 7, "mc_n": 5000}

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(seed=-1, mc_n=5000)
        with pytest.raises(ValueError):
            RunConfig(seed=2 ** 64, mc_n=5000)
        with pytest.raises(ValueError):
            RunConfig(seed=0, mc_n=999)


class TestVerify:
    def test_reports_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["verify", "--seed", "5", "--mc-n", "2000",
                     "--output", str(a)]) == EXIT_OK
        assert main(["verify", "--seed", "5", "--mc-n", "2000",
                     "--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_report_structure(self, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", "--seed", "3", "--mc-n", "2000", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["schema"] == "ntg-lab/3"
        assert payload["command"] == "verify"
        assert payload["config"]["seed"] == 3
        assert payload["pass"] is True
        names = {c["check_name"] for c in payload["checks"]}
        assert "conjugacy_bayes_rule" in names
        assert "q_equals_K_times_p" in names
        for check in payload["checks"]:
            assert set(check) == {"check_name", "expected", "observed",
                                  "error", "pass"}

    def test_injected_failure_exits_nonzero(self, tmp_path, monkeypatch):
        def broken(seed, mc_n):
            return [{"check_name": "x", "expected": 0.0, "observed": 1.0,
                     "error": 1.0, "pass": False}]

        monkeypatch.setattr(cli.verify, "run_all", broken)
        out = tmp_path / "f.json"
        code = main(["verify", "--seed", "0", "--mc-n", "2000",
                     "--output", str(out)])
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out.read_text())["pass"] is False

    @pytest.mark.parametrize("error", [0.0, math.nan])
    def test_smoments_without_standard_error_fails(self, monkeypatch, error):
        def degenerate(p, m, eps, n, seed):
            return EstimateWithError(1.0, error, n, "monte_carlo"), 1.0

        monkeypatch.setattr(cli.verify, "lemma_smoments_check", degenerate)
        assert cli.verify.check_lemma_smoments(0, 1000)["pass"] is False

    def test_seed_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NTGLAB_SEED", "99")
        out = tmp_path / "e.json"
        assert main(["verify", "--mc-n", "2000", "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["config"]["seed"] == 99


class TestRiskDiff:
    def test_kappa_zero_is_exact(self, tmp_path):
        out = tmp_path / "rd.json"
        code = main([
            "risk-diff", "--p", "2", "--m", "2", "--c", "2.0", "--kappa", "0",
            "--mc-n", "10000", "--seed", "1", "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        row = payload["rows"][0]
        assert row["closed"] == 0.0
        assert row["mc"] == 0.0
        assert payload["max_abs_z"] == 0.0

    def test_seed_env_is_read_per_call(self, tmp_path, monkeypatch):
        # The parser is built once per process; each call reads NTGLAB_SEED
        # afresh, and an explicit --seed still wins.
        argv = ["risk-diff", "--p", "2", "--m", "2", "--c", "2.0", "--kappa", "0",
                "--mc-n", "1000", "--output"]
        seeds = []
        for env, extra in (("11", []), ("12", []), ("13", ["--seed", "4"])):
            monkeypatch.setenv("NTGLAB_SEED", env)
            out = tmp_path / f"rd{env}.json"
            assert main(argv + [str(out)] + extra) == EXIT_OK
            seeds.append(json.loads(out.read_text())["config"]["seed"])
        assert seeds == [11, 12, 4]

    @pytest.mark.parametrize("error", [0.0, math.nan])
    def test_missing_standard_error_fails(self, tmp_path, monkeypatch, error):
        # Only the kappa = 0 short-circuit may report a zero error.
        def degenerate(ctx, n, seed):
            return EstimateWithError(risk_difference_closed(ctx), error, n, "monte_carlo")

        monkeypatch.setattr(cli, "risk_difference_mc", degenerate)
        out = tmp_path / "rd.json"
        code = main([
            "risk-diff", "--p", "2", "--m", "2", "--c", "2.0", "--kappa", "1",
            "--mc-n", "10000", "--output", str(out),
        ])
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out.read_text())["pass"] is False

    def test_kappa_zero_wrong_value_fails(self, tmp_path, monkeypatch):
        # A zero error passes at kappa = 0 only when the estimate is exactly 0.
        def wrong(ctx, n, seed):
            return EstimateWithError(1e-3, 0.0, n, "monte_carlo")

        monkeypatch.setattr(cli, "risk_difference_mc", wrong)
        out = tmp_path / "rd.json"
        code = main([
            "risk-diff", "--p", "2", "--m", "2", "--c", "2.0", "--kappa", "0",
            "--mc-n", "10000", "--output", str(out),
        ])
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out.read_text())["pass"] is False

    def test_closed_vs_mc_with_sweep(self, tmp_path):
        out = tmp_path / "rd.json"
        code = main([
            "risk-diff", "--p", "2", "--m", "2", "--c", "2.0", "--kappa", "1",
            "--eps-sweep", "--mc-n", "100000", "--seed", "2",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert [r["eps"] for r in payload["rows"]] == [0.5, 1.0, 2.0]
        for row in payload["rows"]:
            assert row["closed"] == pytest.approx(1.0 / 6.0, abs=1e-12)
            assert abs(row["z"]) <= 4.0
        # Common draws make the estimate eps-independent bit for bit.
        values = {r["mc"] for r in payload["rows"]}
        assert len(values) == 1

    def test_level_resolves_c(self, tmp_path):
        out = tmp_path / "rd.json"
        code = main([
            "risk-diff", "--p", "1", "--m", "3", "--level", "0.9",
            "--kappa", "0.5", "--mc-n", "50000", "--seed", "4",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        from ntglab.risk import default_c

        assert payload["context"]["c"] == default_c(1, 3, 0.9)


class TestBlyth:
    def test_csv_round_trips_exactly(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main([
            "blyth", "--p", "2", "--m", "2", "--c", "2.0",
            "--kappa-grid", "0.2,0.1,0.05", "--output", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kappa,K,delta_closed,K_times_delta"
        from ntglab.risk import blyth_scaling

        rows = blyth_scaling(2, 2, 2.0, 1.0, [0.2, 0.1, 0.05])
        assert len(lines) == 4
        for line, row in zip(lines[1:], rows):
            parsed = [float(tok) for tok in line.split(",")]
            # repr round-trips doubles losslessly.
            assert parsed == [row[0], row[1], row[2], row[3]]

    def test_overflowing_K_is_usage_error(self, capsys):
        # Gamma(m/2) in K leaves the double range from about m = 344.
        assert main(["blyth", "--p", "2", "--m", "400"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: K overflows at p=2, m=400, eps=1.0\n"

    def test_overflowing_K_with_finite_gamma_is_usage_error(self, capsys):
        # At m = 343 Gamma(m/2) is still finite but K is not.
        assert main(["blyth", "--p", "2", "--m", "343"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: K overflows at p=2, m=343, eps=1.0\n"

    def test_bad_grid_is_usage_error(self, capsys):
        for grid in (",", "0.1,-0.2", "abc", "0.2,nan", "0.2,inf"):
            assert main(["blyth", "--p", "2", "--m", "2", "--c", "1.0",
                         "--kappa-grid", grid]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and err.count("\n") == 1


class TestRegress:
    def _csv(self, tmp_path):
        path = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        z = rng.normal(size=20)
        y = 2.0 * z + rng.standard_normal(20)
        lines = ["z,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(z, y)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_json_report(self, tmp_path):
        out = tmp_path / "fit.json"
        code = main([
            "regress", "--csv", self._csv(tmp_path), "--response", "y",
            "--coef-count", "1", "--json", "--output", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["schema"] == "ntg-lab/3"
        assert payload["m"] == 19
        lo, hi = payload["interval"]
        assert lo < payload["beta_hat"][0] < hi
        assert payload["beta_hat"][0] == pytest.approx(2.0, abs=0.5)

    def test_text_output(self, tmp_path, capsys):
        code = main([
            "regress", "--csv", self._csv(tmp_path), "--response", "y",
            "--coef-count", "1",
        ])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "beta_hat:" in text
        assert "interval" in text

    @pytest.mark.parametrize("argv,label", [
        (["--coef-count", "1"], "99.99999% interval for coefficient 1: ["),
        (["--coef-count", "2", "--intercept"], "99.99999% ellipse: center="),
    ], ids=["interval", "ellipse"])
    def test_text_label_keeps_the_level(self, tmp_path, capsys, argv, label):
        # Six significant digits would round the level to "100%".
        code = main(["regress", "--csv", self._csv(tmp_path), "--response", "y",
                     "--level", "0.9999999", *argv])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[2].startswith(label)

    def test_missing_file(self, tmp_path):
        assert main([
            "regress", "--csv", str(tmp_path / "nope.csv"), "--response", "y",
        ]) == EXIT_IO

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,y\n1,x\n", encoding="utf-8")
        assert main([
            "regress", "--csv", str(bad), "--response", "y",
        ]) == EXIT_IO

    def test_invalid_level_is_usage_error(self, tmp_path):
        assert main([
            "regress", "--csv", self._csv(tmp_path), "--response", "y",
            "--level", "1.5",
        ]) == EXIT_USAGE

    @pytest.mark.parametrize("text,argv,says", [
        ("z,y\n1,2\nnan,3\n4,5\n", [], "row 3, column 'z': non-numeric"),
        ("z,y\n1,2\n3,5\n", ["--intercept"], "cannot fit --coef-count 1: need n > d"),
        ("z1,z2,y\n1,2,1\n2,4,3\n3,6,2\n4,8,5\n", [], "cannot fit --coef-count 1: design"),
        ("z,y\n1,2\n2,3\n3,5\n", ["--coef-count", "2"], "cannot fit --coef-count 2: need 1"),
    ], ids=["nan_cell", "too_few_rows", "rank_deficient", "more_coefs_than_columns"])
    def test_data_it_cannot_fit(self, tmp_path, capsys, text, argv, says):
        # One error line naming the file, and the option where the fit
        # fails, with the exit code of a malformed file; no traceback.
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["regress", "--csv", str(path), "--response", "y", *argv]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {says}") and err.count("\n") == 1

    def test_non_utf8_file_is_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("z,y\n1,2\n2,3\n3,\xe9\n".encode("latin-1"))
        assert main(["regress", "--csv", str(path), "--response", "y"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text") and err.count("\n") == 1

    def test_unsupported_dimension(self, tmp_path):
        assert main([
            "regress", "--csv", self._csv(tmp_path), "--response", "y",
            "--coef-count", "3",
        ]) == EXIT_USAGE


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_option(self):
        assert main(["risk-diff", "--p", "2"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["risk-diff", "--p", "2", "--m", "3", "--kappa", "0.5", "--eps", "-1"],
        ["risk-diff", "--p", "2", "--m", "3", "--kappa", "0.5", "--eps", "nan"],
        ["risk-diff", "--p", "2", "--m", "3", "--kappa", "-1"],
        ["risk-diff", "--p", "2", "--m", "3", "--kappa", "0.5", "--c", "-2"],
        ["risk-diff", "--p", "2", "--m", "3", "--kappa", "0.5", "--level", "1.5"],
        ["risk-diff", "--p", "0", "--m", "3", "--kappa", "0.5"],
        ["risk-diff", "--p", "2", "--m", "3", "--kappa", "0.5", "--mc-n", "10"],
        ["verify", "--mc-n", "10"],
        ["blyth", "--p", "2", "--m", "3", "--eps", "-1"],
        ["risk-diff", "--p", "2", "--m", "3", "--kappa", "0.5", "--eps", "-1", "--eps-sweep"],
        ["risk-diff", "--p", "2", "--m", "3", "--kappa", "0.5", "--eps", "nan", "--eps-sweep"],
    ])
    def test_invalid_number_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_error_inside_a_computation_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("inside the sweep")

        monkeypatch.setattr(cli, "risk_difference_mc", broken)
        with pytest.raises(ValueError, match="inside the sweep"):
            main(["risk-diff", "--p", "2", "--m", "3", "--kappa", "0.5", "--mc-n", "1000"])
