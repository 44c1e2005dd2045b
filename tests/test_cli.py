"""CLI tests: subcommands, parser parity, config file parsing, exit codes."""

import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semibvm
import semibvm.experiments
import semibvm.gp_prior
import semibvm.model
import semibvm.posterior
from semibvm import cli
from semibvm.experiments import ExperimentConfig, cell_seed
from semibvm.gp_prior import NumericsError, prior_covariance


SMALL_CONFIG = """
# compact scan for tests
grid_size = 15
n_ladder = 30, 60
seeds = 3
master_seed = 7
"""


# a value other than the default for every ExperimentConfig field
NON_DEFAULT = {
    "sigma_w": 0.6,
    "theta0": -2.5,
    "eta0_family": "cosine",
    "eta0_amplitude": 1.25,
    "k": 2,
    "grid_size": 17,
    "scale": 1.5,
    "theta_prior_var": 4.0,
    "n_ladder": (30, 60),
    "seeds": 7,
    "level": 0.9,
    "master_seed": 12345,
}

README = Path(__file__).resolve().parents[1] / "README.md"

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


@pytest.fixture
def no_work(monkeypatch):
    """The calls that reach any subcommand's work, each of which fails
    the test: nothing is drawn, no prior is built and no baseline runs."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("work started")

    for module, name in (
        (semibvm.model, "_sample_rows"),
        (semibvm.experiments, "_sample_rows"),
        (semibvm.gp_prior, "prior_covariance"),
        (cli, "prior_covariance"),
        (cli, "run_parametric_baseline"),
    ):
        monkeypatch.setattr(module, name, spy)
    semibvm.gp_prior.prior_factor.cache_clear()
    return calls


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

    def test_every_field_round_trips(self, tmp_path):
        fields = dataclasses.fields(ExperimentConfig)
        assert [f.name for f in fields] == list(NON_DEFAULT)
        for f in fields:
            assert NON_DEFAULT[f.name] != f.default, f.name
        text = "".join(
            f"{key} = {', '.join(map(str, value)) if key == 'n_ladder' else value}\n"
            for key, value in NON_DEFAULT.items()
        )
        path = tmp_path / "c.cfg"
        path.write_text(text)
        parsed = cli.parse_config_file(str(path))
        assert parsed == NON_DEFAULT
        assert ExperimentConfig(**parsed) == ExperimentConfig(**NON_DEFAULT)

    @pytest.mark.parametrize("text", ["inf", "Infinity"])
    def test_flat_prior_spellings(self, text, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(f"theta_prior_var = {text}\n")
        parsed = cli.parse_config_file(str(path))
        assert ExperimentConfig(**parsed).theta_prior_var == math.inf

    @pytest.mark.parametrize(
        "text, message",
        [("bandwidth = 3", "unknown key 'bandwidth'"), ("n_ladder = 30, x", "bad value for")],
    )
    def test_errors_name_the_line(self, text, message, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(f"# header\n{text}\n")
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(str(path))}:2: {message}"):
            cli.parse_config_file(str(path))

    def test_key_given_twice_names_both_lines(self, tmp_path):
        # the later value silently won: seeds = 3 then seeds = 2 ran 2 seeds
        path = tmp_path / "c.cfg"
        path.write_text("seeds = 3\n# again\nseeds = 2\n")
        message = f"{path}:3: key 'seeds' given twice, first on line 1"
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(message)}$"):
            cli.parse_config_file(str(path))

    def test_readme_block_documents_every_key(self, tmp_path):
        # README's '### Config file' block lists ExperimentConfig's fields,
        # in order, and is itself a valid config file
        section = README.read_text().split("### Config file", 1)[1]
        block = section.split("```\n", 2)[1]
        keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
        assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        ExperimentConfig(**cli.parse_config_file(str(path)))


# argv that the parser alone answers: help, usage and errors
PARSE_ONLY = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["--seed", "3", "bvm-scan"],
    *([name, "-h"] for name in cli._COMMANDS),
    ["bvm-scan", "--bogus"],
    ["bvm-scan", "kernel"],
    ["coverage", "--replications", "x"],
    ["coverage", "--rep", "x"],
    ["kernel", "--n", "5"],
    ["kernel", "--format", "csv"],
    ["bvm-scan", "--format", "xml"],
    ["baseline", "--prior-var", "nope"],
]

# the launches of PARSE_ONLY with arguments their subcommand does not
# take, which the full parser reports against itself: argv -> the extras
UNRECOGNIZED = {
    "bvm-scan --bogus": "--bogus",
    "bvm-scan kernel": "kernel",
    "kernel --n 5": "--n 5",
    "kernel --format csv": "--format csv",
}


def _break_system(systems: np.ndarray, row: int, kind: str) -> None:
    """Make system `row` of an assembled (z, theta, y) stack fail: an
    indefinite theta block, a NaN, or a positive theta pivot whose square
    underflows to 0."""
    r = systems.shape[1] - 2
    if kind == "indefinite":
        systems[row, r, r] = -1.0
    elif kind == "nan":
        systems[row, 0, 0] = np.nan
    else:
        systems[row, r, :r] = 0.0
        systems[row, r, r] = 5e-324
        systems[row, r + 1, r] = 0.0


def _outcome(call, argv, capsys):
    """(stdout, stderr, exit code) of call(argv)."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


class TestParser:
    @pytest.mark.parametrize("argv", PARSE_ONLY, ids=lambda argv: " ".join(argv) or "no-args")
    def test_main_matches_the_full_parser(self, argv, capsys):
        # what a launch prints and its exit code are those of the parser
        # with every subcommand, but for arguments the named subcommand
        # does not take: main reports them against that subcommand, with
        # its usage, the first paragraph of its help
        full = _outcome(cli.build_parser().parse_args, argv, capsys)
        assert full[2] in (0, 2) and full[0] + full[1]
        extra = UNRECOGNIZED.get(" ".join(argv))
        if extra is None:
            assert _outcome(cli.main, argv, capsys) == full
            return
        assert full[1].endswith(f"\nsemibvm: error: unrecognized arguments: {extra}\n")
        usage = _outcome(cli.build_parser().parse_args, [argv[0], "-h"], capsys)[0].split("\n\n")[0]
        error = f"semibvm {argv[0]}: error: unrecognized arguments: {extra}"
        assert _outcome(cli.main, argv, capsys) == ("", f"{usage}\n{error}\n", 2)

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_a_command_builds_its_own_parser_alone(
        self, command, config_path, tmp_path, monkeypatch
    ):
        # a launch naming a subcommand builds that one's parser, standalone
        # and named after it, and no other; the full parser builds them all
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs["prog"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        out = tmp_path / "o.txt"
        assert cli.main([*command, "--config", config_path, "--out", str(out)]) == 0
        assert built == [f"semibvm {command[0]}"]
        built.clear()
        cli.build_parser()
        assert built == ["semibvm", *(f"semibvm {name}" for name in cli._COMMANDS)]

    def test_readme_lists_every_subcommand(self):
        # README's "Subcommands" bullets are the _COMMANDS table: each
        # name, its help text and its extra flags with their defaults
        def flag(name, keywords):
            return f"`{name}`" + (f", default {keywords['default']}" if "default" in keywords else "")

        expected = []
        for name, (help_text, extra) in cli._COMMANDS.items():
            flags = "; ".join(flag(*argument) for argument in extra)
            expected.append(f"* `{name}` - {help_text}" + (f" ({flags})" if flags else ""))
        section = README.read_text().split("Subcommands:\n", 1)[1]
        bullets = section.lstrip("\n").split("\n\n", 1)[0].splitlines()
        assert bullets == expected, "\n".join(expected)


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

    @pytest.mark.parametrize("tau2, theta0", [("1e-20", "1"), ("1e-300", "1"), ("1e-300", "1e30")])
    def test_tiny_theta_prior_var_scans_to_a_gap_near_one(self, tau2, theta0, tmp_path):
        # the posterior collapses on theta = 0, far from N(delta_n, 1/I):
        # the scan read 5e-7 at 1e-20 and exited 2 ("tv_gap must lie in
        # [0, 1]") at 1e-300; at theta0 = 1e30 the localized mean's square
        # over the variances overflows
        path = tmp_path / "tiny.cfg"
        path.write_text(f"theta_prior_var = {tau2}\ntheta0 = {theta0}\nn_ladder = 50\nseeds = 3\n")
        out = tmp_path / "scan.json"
        assert cli.main(["bvm-scan", "--config", str(path), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 3
        assert all(row["tv_gap"] > 0.999 for row in rows)

    def test_baseline_huge_prior_var_runs(self, capsys):
        # n * prior_var overflowed and exited 2 ("variance must be strictly positive")
        assert cli.main(["baseline", "--n", "10", "--prior-var", "1e308"]) == 0
        assert json.loads(capsys.readouterr().out)["tv_gap"] <= 1e-14

    @pytest.mark.parametrize(
        "line, message",
        [
            # 1/sigma_w^2 overflows: the gaps read 0.0 where they are 1
            ("sigma_w = 1e-160", "sigma_w must have a finite 1/sigma_w^2, got 1e-160"),
            # sigma_w^2 underflows to 0: exit 2 only after the first posteriors
            ("sigma_w = 1e-300", "sigma_w must have a finite 1/sigma_w^2, got 1e-300"),
            # 1/tau^2 overflows: exit 3 at the first cell
            (
                "theta_prior_var = 1e-320",
                "theta_prior_var must be positive with a finite reciprocal (inf allowed), "
                "got 1e-320",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["bvm-scan", "coverage", "posterior"])
    def test_field_without_finite_reciprocal_exits_2_before_any_posterior(
        self, command, line, message, tmp_path, monkeypatch, capsys
    ):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a posterior was computed")

        monkeypatch.setattr(semibvm.experiments, "theta_posteriors", spy)
        monkeypatch.setattr(semibvm.experiments, "theta_posterior", spy)
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG + line + "\n")
        out = tmp_path / "r.json"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert calls == []
        assert not out.exists()

    def test_baseline_prior_var_without_finite_precision_exits_2_before_any_posterior(
        self, monkeypatch, capsys
    ):
        # 1/prior_var overflowed to a zero posterior variance, and the gap
        # rejected it with a message that names no field
        def spy(*args, **kwargs):
            raise AssertionError("a posterior was compared")

        monkeypatch.setattr(semibvm.experiments, "bvm_gap", spy)
        assert cli.main(["baseline", "--n", "5", "--prior-var", "1e-310"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: prior_var must be positive with a finite reciprocal "
            "(inf allowed), got 1e-310\n"
        )

    @pytest.mark.parametrize(
        "command, line",
        [
            ("bvm-scan", "sigma_w = 1e-150"),
            ("coverage", "sigma_w = 1e-150"),
            ("bvm-scan", "theta_prior_var = 1e-300"),
            ("posterior", "theta_prior_var = 1e-300"),
            ("bvm-scan", "theta_prior_var = inf"),
            ("posterior", "theta_prior_var = inf"),
        ],
    )
    def test_smallest_values_with_finite_reciprocals_run(self, command, line, tmp_path):
        path = tmp_path / "edge.cfg"
        path.write_text(SMALL_CONFIG + line + "\n")
        out = tmp_path / "r.json"
        argv = [command, "--config", str(path), "--out", str(out)]
        assert cli.main(argv + (["--replications", "2"] if command == "coverage" else [])) == 0
        assert out.exists()

    @pytest.mark.parametrize("prior_var", ["1e-300", "inf"])
    def test_baseline_prior_var_with_finite_precision_runs(self, prior_var, capsys):
        assert cli.main(["baseline", "--n", "5", "--prior-var", prior_var]) == 0
        assert 0.0 <= json.loads(capsys.readouterr().out)["tv_gap"] <= 1.0

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

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(5 + 2**64)])
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_master_seed_outside_64_bits_exits_2_before_any_work(
        self, command, seed, config_path, tmp_path, monkeypatch, capsys
    ):
        # the cell seeds fold master_seed mod 2^64: 5 + 2^64 ran the cells of 5
        def no_work(*args, **kwargs):
            raise AssertionError("work started despite a master seed outside 64 bits")

        for name in ("cell_seed", "prior_covariance", "sample_dataset"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "r.json"
        assert cli.main([command, "--config", config_path, "--seed", seed, "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: master_seed must lie in [0, 18446744073709551615], got {seed}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "theta0 = nan",
            "theta0 = inf",
            "scale = inf",
            "scale = 1e200",
            "scale = 1e154",  # a finite square, but scale^2 * c_1(1, 1) overflows K
        ],
    )
    @pytest.mark.parametrize("command", ["bvm-scan", "coverage", "kernel"])
    def test_nonfinite_config_exits_2_before_any_work(
        self, command, line, tmp_path, monkeypatch, capsys
    ):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("work started despite a non-finite config")

        monkeypatch.setattr(semibvm.experiments, "_sample_rows", spy)
        monkeypatch.setattr(cli, "prior_covariance", spy)
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG + line + "\n")
        out = tmp_path / "r.json"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            (f.name, value)
            for f in dataclasses.fields(ExperimentConfig)
            if cli._HINTS[f.name] is float
            for value in ("nan", "inf", "-inf")
            if (f.name, value) != ("theta_prior_var", "inf")  # the flat prior
        ],
    )
    @pytest.mark.parametrize("command", ["bvm-scan", "coverage"])
    def test_nonfinite_real_key_exits_2_naming_it_before_any_cell(
        self, command, key, value, tmp_path, monkeypatch, capsys
    ):
        # eta0_amplitude = nan was blamed on the nuisance ("values must be
        # finite"), and inf raised numpy's RuntimeWarning first
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a cell ran despite a non-finite config value")

        monkeypatch.setattr(semibvm.experiments, "_sample_rows", spy)
        monkeypatch.setattr(semibvm.experiments, "theta_posteriors", spy)
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG + f"{key} = {value}\n")
        out = tmp_path / "r.json"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        if key == "theta_prior_var":
            message = f"theta_prior_var must be positive with a finite reciprocal (inf allowed), got {value}"
        else:
            message = f"{key} must be finite, got {value}"
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_overflowing_integration_order_exits_2_with_one_line(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # (k!)^2 overflows a float from k = 99; the config is refused before
        # any prior, dataset or posterior is built
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("work started despite k >= 99")

        monkeypatch.setattr(semibvm.experiments, "_sample_rows", spy)
        monkeypatch.setattr(semibvm.experiments, "sample_dataset", spy)
        monkeypatch.setattr(cli, "prior_covariance", spy)
        monkeypatch.setattr(cli, "sample_dataset", spy)
        monkeypatch.setattr(cli, "run_parametric_baseline", spy)
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG + "k = 200\n")
        out = tmp_path / "r.json"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: integration order k must lie in [0, 98], got 200\n"
        )
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("line", ["theta0 = 1e308", "theta0 = -1e308"])
    @pytest.mark.parametrize("command", ["bvm-scan", "coverage", "sample", "posterior", "diagnostics"])
    def test_overflowing_y_exits_3_before_any_posterior(
        self, command, line, tmp_path, monkeypatch, capsys
    ):
        # the config is valid; its simulated y overflows, a numeric failure
        # naming the cell (or the dataset's n and seed), and no posterior is
        # computed.  A RuntimeWarning would fail this test: the suite turns
        # warnings into errors
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a posterior was computed from a non-finite y")

        monkeypatch.setattr(semibvm.experiments, "theta_posteriors", spy)
        monkeypatch.setattr(semibvm.experiments, "theta_posterior", spy)
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG + line + "\n")
        out = tmp_path / "r.out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        if command in ("bvm-scan", "coverage"):
            assert re.fullmatch(
                r"numeric failure: cell n=30 rep=(\d+) seed=(\d+): simulated y is not finite\n", err
            )
            rep, seed = map(int, re.findall(r"\d+", err)[1:3])
            assert seed == cell_seed(7, 30, rep)
        else:
            seed = cell_seed(7, 30, 0)
            assert err == f"numeric failure: dataset n=30 seed={seed}: simulated y is not finite\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "scale = 8e153",  # K is finite, the products of S overflow
            "theta0 = 1e200",  # y is finite, y'y overflows
        ],
    )
    @pytest.mark.parametrize("command", ["bvm-scan", "coverage"])
    def test_overflowing_system_exits_3_with_one_line(
        self, command, line, tmp_path, capsys
    ):
        # one stderr line and no RuntimeWarning, which the suite makes an error
        path = tmp_path / "big.cfg"
        path.write_text(SMALL_CONFIG + line + "\n")
        out = tmp_path / "r.json"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: cell n=30 rep=0 ")
        assert err.endswith("whitened posterior precision is not finite\n")
        assert err.count("\n") == 1
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
        assert "n must be >= 1, got 0" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_posterior_mean_in_a_chunk_exits_3(self, value, tmp_path, monkeypatch, capsys):
        # the scan's one check per chunk names the cell; nothing is written
        solve = semibvm.experiments.theta_posteriors

        def solved(data, spec, theta_prior_var):
            means, variances = solve(data, spec, theta_prior_var)
            if data.n == 60:
                means[1] = value
            return means, variances

        monkeypatch.setattr(semibvm.experiments, "theta_posteriors", solved)
        path = tmp_path / "small.cfg"
        path.write_text(SMALL_CONFIG)
        out = tmp_path / "r.json"
        assert cli.main(["bvm-scan", "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: cell n=60 rep=1 seed={cell_seed(7, 60, 1)}: ")
        assert err.endswith("must be finite, the variance > 0\n") and err.count("\n") == 1
        assert not out.exists()

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
        statistics, assemble = semibvm.posterior._statistics, semibvm.posterior._assemble
        sizes = []

        def recorded(data, grid_size):
            sizes.append(data.n)
            return statistics(data, grid_size)

        def corrupted(stats, factor, prior_precision):
            systems = assemble(stats, factor, prior_precision)
            if sizes[-1] == 60:
                for row, kind in corrupt.items():
                    _break_system(systems, row, kind)
            return systems

        monkeypatch.setattr(semibvm.posterior, "_statistics", recorded)
        monkeypatch.setattr(semibvm.posterior, "_assemble", corrupted)
        out = tmp_path / "r.json"
        assert cli.main([*command, "--config", config_path, "--out", str(out)]) == cli.EXIT_NUMERIC
        rep, message = expected
        err = capsys.readouterr().err
        assert f"cell n=60 rep={rep} seed={cell_seed(7, 60, rep)}: " in err
        assert message in err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("indefinite", "not positive definite"),
            ("nan", "not finite"),
            ("small theta pivot", "theta posterior precision"),
        ],
    )
    @pytest.mark.parametrize(
        "command, row, rep",
        [
            (["bvm-scan"], 0, 2),  # sub-stacks [0, 1], [2]
            (["coverage", "--replications", "4"], 1, 3),  # sub-stacks [0, 1], [2, 3]
        ],
    )
    def test_failing_system_in_a_later_sub_stack_is_named(
        self, command, row, rep, kind, message, config_path, tmp_path, monkeypatch, capsys
    ):
        # a budget of two (r+2)^2 systems: the n = 60 chunk is factorised in
        # sub-stacks of two, and a failure in the second is named by its
        # own replication, not by its row in the sub-stack
        monkeypatch.setattr(semibvm.model, "_BATCH_BUDGET", 2 * (15 + 2) ** 2)
        statistics, assemble = semibvm.posterior._statistics, semibvm.posterior._assemble
        sizes, stacks = [], []

        def recorded(data, grid_size):
            sizes.append(data.n)
            return statistics(data, grid_size)

        def corrupted(stats, factor, prior_precision):
            systems = assemble(stats, factor, prior_precision)
            if sizes[-1] == 60:
                stacks.append(len(systems))
                if len(stacks) == 2:
                    _break_system(systems, row, kind)
            return systems

        monkeypatch.setattr(semibvm.posterior, "_statistics", recorded)
        monkeypatch.setattr(semibvm.posterior, "_assemble", corrupted)
        out = tmp_path / "r.json"
        assert cli.main([*command, "--config", config_path, "--out", str(out)]) == cli.EXIT_NUMERIC
        assert stacks == [2, row + 1]
        err = capsys.readouterr().err
        assert f"cell n=60 rep={rep} seed={cell_seed(7, 60, rep)}: " in err
        assert message in err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["directory", "missing directory"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_unwritable_destination_exits_2_before_any_work(
        self, command, kind, config_path, tmp_path, no_work, capsys
    ):
        # the destination is checked, not opened, before any work: nothing
        # is drawn, no prior is built, and nothing is created
        if kind == "directory":
            path, message = tmp_path, f"output path {tmp_path} is a directory"
        else:
            path = tmp_path / "absent" / "o.txt"
            message = f"output path {path}: no directory {path.parent}"
        assert cli.main([*command, "--config", config_path, "--out", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert no_work == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.cfg"]

    @pytest.mark.parametrize(
        "line, message",
        [
            # the destination and the format are launch flags, not config keys
            ("output_path = o.txt", "unknown key 'output_path'"),
            ("format = csv", "unknown key 'format'"),
            # SMALL_CONFIG gives seeds on its line 5
            ("seeds = 2", "key 'seeds' given twice, first on line 5"),
        ],
    )
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_rejected_config_key_exits_2_before_any_work(
        self, command, line, message, tmp_path, no_work, capsys
    ):
        config = tmp_path / "scan.cfg"
        config.write_text(SMALL_CONFIG + line + "\n")
        out = tmp_path / "o.txt"
        assert cli.main([*command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {config}:7: {message}\n"
        assert no_work == []
        assert not out.exists()

    @pytest.mark.parametrize("ladder", ["30,,60", "30,60,", ",30"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_ladder_with_an_empty_entry_exits_2_before_any_work(
        self, command, ladder, tmp_path, no_work, capsys
    ):
        # empty entries were dropped: n_ladder = 30,,60, ran as (30, 60)
        config = tmp_path / "scan.cfg"
        config.write_text(f"grid_size = 15\nseeds = 2\nn_ladder = {ladder}\n")
        out = tmp_path / "o.txt"
        assert cli.main([*command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {config}:3: bad value for 'n_ladder': "
            "invalid literal for int() with base 10: ''\n"
        )
        assert no_work == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("grid_size = 1", "grid_size must be >= 2, got 1"),
            ("scale = 0", "scale must be > 0, got 0.0"),
            ("sigma_w = 2", "sigma_w must lie in (0, 1], got 2.0"),
        ],
    )
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_bad_model_object_value_exits_2_before_any_work(
        self, command, line, message, tmp_path, no_work, capsys
    ):
        # the config's law and prior spec check these when the config is built
        config = tmp_path / "scan.cfg"
        config.write_text(f"n_ladder = 30\nseeds = 2\n{line}\n")
        out = tmp_path / "o.txt"
        assert cli.main([*command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert no_work == []
        assert not out.exists()

    # one value per ExperimentConfig field that parses but is out of range
    BAD_VALUES = {
        "sigma_w": "2",
        "theta0": "nan",
        "eta0_family": "bogus",
        "eta0_amplitude": "inf",
        "k": "99",
        "grid_size": "1",
        "scale": "0",
        "theta_prior_var": "0",
        "n_ladder": "60, 30",
        "seeds": "0",
        "level": "1",
        "master_seed": "-1",
    }

    def test_bad_values_cover_every_config_field(self):
        assert list(self.BAD_VALUES) == [f.name for f in dataclasses.fields(ExperimentConfig)]

    @pytest.mark.parametrize("key", list(BAD_VALUES))
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_every_config_error_names_its_key(self, command, key, tmp_path, no_work, capsys):
        # the message's subject is the key the config file wrote, not the
        # name of a field of a model object built from it
        config = tmp_path / "scan.cfg"
        config.write_text(f"{key} = {self.BAD_VALUES[key]}\n")
        out = tmp_path / "o.txt"
        assert cli.main([*command, "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.fullmatch(rf"config error: (?:[a-z]+ )*{key} must [^\n]+\n", err), err
        assert no_work == []
        assert not out.exists()

    @pytest.mark.parametrize("command", [["coverage", "--replications", "3"], ["posterior"]])
    def test_largest_level_below_one_gives_finite_bounds(self, command, tmp_path):
        # (1 + level)/2 rounded to 1 here, and the quantile exited 2 with
        # "p must be in the range 0.0 < p < 1.0" (coverage after its first chunk)
        config = tmp_path / "scan.cfg"
        config.write_text("level = 0.9999999999999999\nn_ladder = 30\nseeds = 2\ngrid_size = 15\n")
        out = tmp_path / "r.json"
        assert cli.main([*command, "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        if command[0] == "coverage":
            bounds = [(row["lo"], row["hi"]) for row in report["rows"]]
        else:
            bounds = [(report["interval_lo"], report["interval_hi"])]
        assert len(bounds) == {"coverage": 3, "posterior": 1}[command[0]]
        assert all(math.isfinite(lo) and math.isfinite(hi) and lo < hi for lo, hi in bounds)

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_destination_failing_after_the_work_exits_2_without_a_traceback(
        self, command, config_path, tmp_path, monkeypatch, capsys
    ):
        # the output directory goes away while the work runs: opening the
        # output then fails, which exits 2 and names the path
        folder = tmp_path / "reports"
        folder.mkdir()
        out = folder / "o.txt"
        seed_of = cli.cell_seed

        def remove_folder(*args):
            folder.rmdir()
            return seed_of(*args)

        monkeypatch.setattr(cli, "cell_seed", remove_folder)
        assert cli.main([*command, "--config", config_path, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: [Errno 2] No such file or directory: {str(out)!r}\n"

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
        spec = ExperimentConfig(grid_size=15).spec
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

    @pytest.mark.parametrize("theta0", ["1", "1e10", "1e14", "1e200"])
    def test_diagnostics_lan_identity_at_any_theta0(self, theta0, tmp_path):
        # the remainder is read off the drawn w, not from y
        config = tmp_path / "theta0.txt"
        config.write_text(f"theta0 = {theta0}\n")
        out = tmp_path / "diag.json"
        code = cli.main(["diagnostics", "--config", str(config), "--n", "50", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["lan_remainder"]["identity_residual"] < 1e-10

    def test_scan_centering_reads_the_drawn_w_at_tiny_sigma_w(self, tmp_path):
        # u = m(v) + sigma_w z rounds to m(v) here, so u - m(v) would read 0;
        # reference: sum e sigma_w z / (sigma_w^2 sqrt(n)) from each cell's stream
        sigma_w = 1e-100
        config = tmp_path / "tiny.txt"
        config.write_text(f"sigma_w = {sigma_w}\nn_ladder = 50, 200\nseeds = 4\n")
        out = tmp_path / "scan.json"
        assert cli.main(["bvm-scan", "--config", str(config), "--seed", "10070179", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 8
        for row in rows:
            n = row["n"]
            assert row["seed"] == cell_seed(10070179, n, row["rep"])
            rng = np.random.default_rng(row["seed"])
            rng.uniform(0.0, 1.0, n)
            z = rng.standard_normal(n)
            e = rng.standard_normal(n)
            reference = float(np.sum(e * (sigma_w * z))) / (sigma_w**2 * math.sqrt(n))
            assert abs(reference) > 1e98
            assert row["delta_n"] == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_diagnostics_remainder_reads_the_drawn_w_at_tiny_sigma_w(self, tmp_path):
        # the deficit (mean W^2 - sigma_w^2)/2 is of order sigma_w^2 = 1e-200,
        # far below the rounding of u or of the score term
        sigma_w = 1e-100
        config = tmp_path / "tiny.txt"
        config.write_text(f"sigma_w = {sigma_w}\n")
        out = tmp_path / "diag.json"
        argv = ["diagnostics", "--config", str(config), "--n", "200", "--seed", "10070179", "--out", str(out)]
        assert cli.main(argv) == 0
        lan = json.loads(out.read_text())["lan_remainder"]
        rng = np.random.default_rng(cell_seed(10070179, 200, 0))
        rng.uniform(0.0, 1.0, 200)
        w = sigma_w * rng.standard_normal(200)
        reference = 0.5 * (float(np.mean(w**2)) - sigma_w**2)
        assert abs(reference) > 1e-203
        assert lan["remainder"] == pytest.approx(reference, rel=1e-12, abs=0.0)
        assert lan["identity_residual"] <= 1e-12 * abs(lan["identity_value"])

    def test_posterior_information_reads_the_drawn_w_at_tiny_sigma_w(self, tmp_path):
        # mean (u - m(v))^2 cancels to 0.0 here; the drawn W keeps it
        sigma_w = 1e-100
        config = tmp_path / "tiny.txt"
        config.write_text(f"sigma_w = {sigma_w}\n")
        out = tmp_path / "posterior.json"
        argv = ["posterior", "--config", str(config), "--n", "200", "--seed", "10070179", "--out", str(out)]
        assert cli.main(argv) == 0
        payload = json.loads(out.read_text())
        rng = np.random.default_rng(cell_seed(10070179, 200, 0))
        rng.uniform(0.0, 1.0, 200)
        reference = float(np.mean((sigma_w * rng.standard_normal(200)) ** 2))
        assert reference > 1e-201
        assert payload["empirical_information"] == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_diagnostics_hellinger_at_any_theta0(self, tmp_path):
        # the theta shift 2/sqrt(n) is not rounded away as |theta0| grows
        values = []
        for theta0 in ("1", "1e14", "1e200"):
            config = tmp_path / "theta0.txt"
            config.write_text(f"theta0 = {theta0}\n")
            out = tmp_path / "diag.json"
            argv = ["diagnostics", "--config", str(config), "--n", "50", "--out", str(out)]
            assert cli.main(argv) == 0
            values.append(json.loads(out.read_text())["hellinger_bound"]["hellinger_sq"])
        assert values[0] > 0.0
        assert values == pytest.approx([values[0]] * 3, rel=1e-12, abs=0.0)

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


# runs the CLI in a fresh interpreter and prints its exit code and peak
# RSS in KiB.  VmHWM is the high-water mark of the interpreter's own
# address space; getrusage's ru_maxrss would also carry the spawning test
# process's mark across exec, and that process is larger than either run.
_PEAK_RSS = """
import sys
from semibvm import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, peak)
"""


def _peak_rss_kib(argv, out):
    src = str(Path(semibvm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv, "--out", str(out)],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    code, peak = map(int, done.stdout.split())
    assert code == 0
    return peak


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux /proc")
def test_diagnostics_peak_memory_stays_near_coverage(tmp_path):
    # the domination row draws its replications in budget-sized chunks, so
    # diagnostics holds no (reps, n) block: its peak RSS is the
    # interpreter's and numpy's, as for a small coverage run
    diagnostics = _peak_rss_kib(["diagnostics", "--n", "800"], tmp_path / "diag.json")
    coverage = _peak_rss_kib(["coverage", "--replications", "4"], tmp_path / "cov.json")
    assert diagnostics - coverage <= 5 * 1024, (diagnostics, coverage)


# the subcommands whose report is rows, which --format writes as CSV or JSON
ROW_REPORTS = ("bvm-scan", "coverage")


class TestFormatFlag:
    """--format is a flag of bvm-scan and coverage alone, default json."""

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_only_the_row_reports_offer_it(self, name, capsys):
        out, _, code = _outcome(cli.main, [name, "-h"], capsys)
        assert code == 0
        assert ("--format" in out) == (name in ROW_REPORTS)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "command",
        [command for command in COMMANDS if command[0] not in ROW_REPORTS],
        ids=lambda command: command[0],
    )
    def test_elsewhere_it_exits_2_before_any_work(
        self, command, fmt, config_path, tmp_path, no_work, capsys
    ):
        out = tmp_path / "o.txt"
        argv = [*command, "--config", config_path, "--out", str(out), "--format", fmt]
        _, err, code = _outcome(cli.main, argv, capsys)
        assert code == cli.EXIT_CONFIG
        assert err.endswith(f"error: unrecognized arguments: --format {fmt}\n")
        assert no_work == []
        assert not out.exists()

    @pytest.mark.parametrize("command", [["bvm-scan"], ["coverage", "--replications", "2"]])
    def test_json_is_the_default(self, command, config_path, tmp_path):
        plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
        assert cli.main([*command, "--config", config_path, "--out", str(plain)]) == 0
        argv = [*command, "--config", config_path, "--out", str(flagged), "--format", "json"]
        assert cli.main(argv) == 0
        assert flagged.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
def test_json_output_is_indent_2_byte_for_byte(command, config_path, tmp_path):
    # every JSON report is json.dumps(..., indent=2) of its own content
    out = tmp_path / "o.txt"
    assert cli.main([*command, "--config", config_path, "--out", str(out)]) == 0
    if command[0] not in ("kernel", "sample"):  # the two CSV writers
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_closed_pipe_exits_141_without_a_traceback(tmp_path):
    # the reader takes one line of a 20000-row sample and closes the pipe
    config = tmp_path / "big.cfg"
    config.write_text("n_ladder = 20000\n")
    src = str(Path(semibvm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "semibvm.cli", "sample", "--config", str(config)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"u,v,y,e\r\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == cli.EXIT_PIPE == 141
    assert err == b""
