"""CLI tests: subcommands, config file parsing, exit codes."""

import json
import math

import numpy as np
import pytest

import semibvm.experiments
import semibvm.posterior
from semibvm import cli
from semibvm.experiments import ExperimentConfig, cell_seed, make_components
from semibvm.gp_prior import NumericsError, prior_covariance


SMALL_CONFIG = """
# compact scan for tests
grid_size = 15
n_ladder = 30, 60
seeds = 3
master_seed = 7
"""


# every subcommand, with arguments that keep it small
COMMANDS = [
    ["kernel"],
    ["sample", "--n", "20"],
    ["posterior", "--n", "40"],
    ["bvm-scan"],
    ["coverage", "--replications", "2"],
    ["baseline", "--n", "100"],
    ["diagnostics", "--n", "30"],
]


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scan.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


class TestConfigParsing:
    def test_values_and_comments(self, config_path):
        values = cli.parse_config_file(config_path)
        assert values == {
            "grid_size": 15,
            "n_ladder": (30, 60),
            "seeds": 3,
            "master_seed": 7,
        }

    def test_inf_sentinel(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("theta_prior_var = inf\n")
        assert cli.parse_config_file(str(path))["theta_prior_var"] == math.inf

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("bandwidth = 3\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config_file(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("grid_size = fifty\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config_file("/does/not/exist.cfg")


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bandwidth = 3\n")
        assert cli.main(["bvm-scan", "--config", str(path)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("level = 2.0\n")
        assert cli.main(["posterior", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_nonpositive_theta_prior_var_exits_2(self, tmp_path, capsys):
        # kernel never reads theta_prior_var; the config is rejected anyway
        path = tmp_path / "bad.cfg"
        path.write_text("theta_prior_var = 0\n")
        out = tmp_path / "cov.csv"
        assert cli.main(["kernel", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert "theta_prior_var" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    @pytest.mark.parametrize("command", ["bvm-scan", "coverage"])
    def test_nonpositive_jobs_exits_2_before_any_work(
        self, command, jobs, config_path, tmp_path, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started despite --jobs < 1")

        monkeypatch.setattr(cli, "run_bvm_scan", no_work)
        monkeypatch.setattr(cli, "run_coverage", no_work)
        out = tmp_path / "r.json"
        argv = [command, "--config", config_path, "--jobs", jobs, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["posterior", "diagnostics"])
    def test_nonpositive_n_exits_2_before_any_work(self, command, monkeypatch, capsys):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("work started despite --n < 1")

        monkeypatch.setattr(semibvm.experiments, "sample_dataset", spy)
        monkeypatch.setattr(semibvm.experiments, "kl_neighborhood_stats", spy)
        assert cli.main([command, "--n", "0"]) == cli.EXIT_CONFIG
        assert "need n >= 1" in capsys.readouterr().err
        assert calls == []

    def test_numeric_failure_exits_3(self, monkeypatch, capsys):
        def boom(cfg):
            raise NumericsError("cell n=50 rep=0 seed=123: Cholesky failed")

        monkeypatch.setattr(cli, "run_bvm_scan", boom)
        assert cli.main(["bvm-scan"]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure" in err and "n=50" in err

    @pytest.mark.parametrize(
        "corrupt, expected",
        [
            ({1: "indefinite"}, (1, "not positive definite")),
            ({2: "nan"}, (2, "not finite")),
            ({2: "indefinite", 1: "nan"}, (1, "not finite")),
            ({0: "small theta pivot"}, (0, "theta posterior precision")),
        ],
    )
    @pytest.mark.parametrize("command", [["bvm-scan"], ["coverage", "--replications", "3"]])
    def test_failing_replication_in_a_batch_is_named(
        self, command, corrupt, expected, config_path, tmp_path, monkeypatch, capsys
    ):
        # the three replications at n = 60 share one stacked factorisation;
        # the first broken system is reported by its own cell
        original = semibvm.posterior._systems

        def corrupted(u, v, y, spec, prior_precision):
            factor, systems = original(u, v, y, spec, prior_precision)
            if u.shape[1] == 60:
                m = spec.grid_size
                for row, kind in corrupt.items():
                    if kind == "indefinite":
                        systems[row, m, m] = -1.0
                    elif kind == "nan":
                        systems[row, 0, 0] = np.nan
                    else:  # a positive theta pivot whose square underflows to 0
                        systems[row, m, :m] = 0.0
                        systems[row, m, m] = 5e-324
                        systems[row, m + 1, m] = 0.0
            return factor, systems

        monkeypatch.setattr(semibvm.posterior, "_systems", corrupted)
        out = tmp_path / "r.json"
        assert cli.main([*command, "--config", config_path, "--out", str(out)]) == cli.EXIT_NUMERIC
        rep, message = expected
        err = capsys.readouterr().err
        assert f"cell n=60 rep={rep} seed={cell_seed(7, 60, rep)}: " in err
        assert message in err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert not out.exists()

    def test_success_exit_0(self, config_path, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main(["bvm-scan", "--config", config_path, "--out", str(out)])
        assert code == cli.EXIT_OK
        assert out.exists()


class TestSubcommands:
    def test_kernel_csv_matches_library(self, config_path, tmp_path):
        out = tmp_path / "cov.csv"
        assert cli.main(["kernel", "--config", config_path, "--out", str(out)]) == 0
        loaded = np.loadtxt(out, delimiter=",")
        _, _, spec = make_components(ExperimentConfig(grid_size=15))
        np.testing.assert_array_equal(loaded, prior_covariance(spec).matrix)

    def test_sample_deterministic_csv(self, config_path, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cli.main(["sample", "--config", config_path, "--n", "20", "--out", str(out_a)])
        cli.main(["sample", "--config", config_path, "--n", "20", "--out", str(out_b)])
        assert out_a.read_text() == out_b.read_text()
        header = out_a.read_text().splitlines()[0]
        assert header == "u,v,y,e"
        assert len(out_a.read_text().strip().splitlines()) == 21

    def test_posterior_json_fields(self, config_path, tmp_path):
        out = tmp_path / "post.json"
        code = cli.main(
            ["posterior", "--config", config_path, "--n", "40", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("theta_mean", "theta_variance", "tv_gap", "delta_n", "n"):
            assert key in payload
        assert payload["n"] == 40

    def test_scan_report_schema(self, config_path, tmp_path):
        out = tmp_path / "scan.json"
        cli.main(["bvm-scan", "--config", config_path, "--out", str(out)])
        payload = json.loads(out.read_text())
        assert set(payload) == {"kind", "config", "rows", "aggregates"}
        assert len(payload["rows"]) == 6
        row = payload["rows"][0]
        for key in (
            "n",
            "delta_n",
            "info_tilde",
            "localized_post_mean",
            "localized_post_var",
            "tv_gap",
            "seed",
            "rep",
        ):
            assert key in row

    def test_scan_csv_format(self, config_path, tmp_path):
        out = tmp_path / "scan.csv"
        cli.main(
            [
                "bvm-scan",
                "--config",
                config_path,
                "--out",
                str(out),
                "--format",
                "csv",
            ]
        )
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 7

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_stdout_bytes_equal_out_file(self, command, config_path, tmp_path, capsysbinary):
        out = tmp_path / "o.txt"
        assert cli.main([*command, "--config", config_path, "--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert cli.main([*command, "--config", config_path]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_output_path_in_config(self, command, config_path, tmp_path, capsysbinary):
        # output_path in the config file, no --out: that file gets the
        # bytes --out would, and nothing goes to stdout
        out = tmp_path / "o.txt"
        path = tmp_path / "out.cfg"
        path.write_text(SMALL_CONFIG + f"output_path = {out}\n")
        assert cli.main([*command, "--config", str(path)]) == 0
        assert capsysbinary.readouterr().out == b""
        written = out.read_bytes()
        out.unlink()
        assert cli.main([*command, "--config", config_path, "--out", str(out)]) == 0
        assert out.read_bytes() == written

    @pytest.mark.parametrize(
        "command, rows", [(["bvm-scan"], 6), (["coverage", "--replications", "2"], 4)]
    )
    def test_csv_format_on_stdout(self, command, rows, config_path, tmp_path, capsysbinary):
        out = tmp_path / "r.csv"
        argv = [*command, "--config", config_path, "--format", "csv"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert cli.main(argv) == 0
        printed = capsysbinary.readouterr().out
        assert printed == out.read_bytes()
        lines = printed.decode().splitlines()
        assert len(lines) == 1 + rows
        assert lines[0].split(",")[:2] in (["rep", "seed"], ["n", "rep"])

    def test_coverage_small(self, config_path, tmp_path):
        out = tmp_path / "cov.json"
        code = cli.main(
            [
                "coverage",
                "--config",
                config_path,
                "--replications",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["aggregates"][0]["replications"] == 10
        assert 0.0 <= payload["aggregates"][0]["coverage"] <= 1.0

    def test_baseline_stdout(self, capsys):
        code = cli.main(["baseline", "--n", "100", "--prior-var", "50"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 100
        assert 0.0 <= payload["tv_gap"] <= 1.0

    def test_diagnostics_json(self, config_path, tmp_path):
        out = tmp_path / "diag.json"
        code = cli.main(
            ["diagnostics", "--config", config_path, "--n", "30", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("kl_neighborhood", "domination", "lan_remainder", "hellinger_bound"):
            assert key in payload

    @pytest.mark.parametrize("command", [["bvm-scan"], ["coverage", "--replications", "3"]])
    def test_jobs_flag_is_ignored_with_one_warning(self, command, config_path, capsysbinary):
        assert cli.main([*command, "--config", config_path]) == 0
        plain = capsysbinary.readouterr()
        assert cli.main([*command, "--config", config_path, "--jobs", "2"]) == 0
        flagged = capsysbinary.readouterr()
        assert flagged.out == plain.out
        assert plain.err == b""
        lines = flagged.err.decode().splitlines()
        assert len(lines) == 1 and "--jobs" in lines[0] and "ignored" in lines[0]
