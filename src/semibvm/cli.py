"""Command-line interface.

Subcommands: kernel, sample, posterior, bvm-scan, coverage, baseline,
diagnostics, listed once with their help text and extra flags in
``_COMMANDS``.  Common flags: --config (key = value text file mirroring
the experiment config), --seed (overrides the config's master_seed),
--out (the output path; standard output when absent) and the deprecated
--jobs, which is checked (>= 1) and otherwise ignored: replications run
as stacked batches in one process.  bvm-scan and coverage also take
--format csv|json (default json); kernel and sample write CSV, and
posterior, baseline and diagnostics JSON.

A launch whose first argument names a subcommand is parsed by that
subcommand's parser alone, built standalone as ``semibvm <name>``, so a
flag it does not take is reported against it; any other launch (help, a
typo, an option placed first) builds the full parser with them all.  A
subcommand's help and its errors on a flag's value are the same bytes
either way.

Exit codes: 0 success, 2 config error (including a malformed value such
as an empty n_ladder entry, --jobs < 1, a flag the subcommand does not
take and an output path that cannot be written),
3 numeric failure (the offending cell is printed to standard error), 141
standard output closed before the report was written, e.g. by
``| head -1``: 128 + SIGPIPE, as a shell reports a C tool killed by the
signal.  The output is then dropped without a traceback.

BLAS threads: importing this module sets ``OPENBLAS_NUM_THREADS=1``
before numpy loads, unless numpy is already loaded or the caller has set
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``.
The CLI's linear algebra is one Cholesky of an (m+2)x(m+2) system per
dataset, m a few hundred at most, where a second BLAS thread never pays:
OpenBLAS's worker spins after start-up and can stall small calls.  One
thread also makes a report's bits independent of the machine's core
count.  A caller who wants BLAS threads sets the variable OpenBLAS reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing

# before the first import that loads numpy (see the module docstring)
if "numpy" not in sys.modules and not any(
    var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .experiments import (  # noqa: E402
    ExperimentConfig,
    _json_text,
    _opened,
    cell_seed,
    covariance_to_csv,
    dataset_to_csv,
    run_bvm_scan,
    run_coverage,
    run_diagnostics_suite,
    run_parametric_baseline,
    run_posterior_snapshot,
)
from .gp_prior import prior_covariance  # noqa: E402
from .model import NumericsError, _check_integer, sample_dataset  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141


class ConfigError(ValueError):
    pass


def _int_list(value: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty entry, as in '30,,60', is a bad value."""
    return tuple(int(tok) for tok in value.split(","))


# each key's parser, by the type its ExperimentConfig field declares;
# float() reads 'inf' and 'Infinity' as math.inf
_PARSERS = {int: int, float: float, str: str, tuple[int, ...]: _int_list}
_HINTS = typing.get_type_hints(ExperimentConfig)
_KEY_PARSERS = {f.name: _PARSERS[_HINTS[f.name]] for f in dataclasses.fields(ExperimentConfig)}


def parse_config_file(path: str) -> dict:
    """Parse a key = value config file; '#' starts a comment, and a key
    may be given once."""
    values: dict = {}
    first_line: dict[str, int] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} given twice, first on line {first_line[key]}"
            )
        first_line[key] = lineno
        try:
            values[key] = _KEY_PARSERS[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = parse_config_file(args.config) if args.config else {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    try:
        return ExperimentConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _check_destination(path: str | None) -> None:
    """Checked, not opened: the output waits for the work."""
    if path and os.path.isdir(path):
        raise ConfigError(f"output path {path} is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"output path {path}: no directory {os.path.dirname(path)}")


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """The common flags, then the extra ones of `command`."""
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output path")
    parser.add_argument(
        "--jobs", type=int, default=1, help="deprecated and ignored (must be >= 1)"
    )
    for flag, keywords in _COMMANDS[command][1]:
        parser.add_argument(flag, **keywords)


# the --n of the commands that size one dataset
_N = ("--n", {"type": int, "help": "sample size (default: first ladder entry)"})
# the --format of the commands whose report is rows, as CSV or JSON
_FORMAT = ("--format", {"choices": ("csv", "json"), "default": "json", "help": "report format"})

# every subcommand: name -> (help text, extra arguments as (flag, keywords))
_COMMANDS = {
    "kernel": ("dump the prior covariance matrix as CSV", ()),
    "sample": ("simulate a dataset and write CSV (u,v,y,e)", (_N,)),
    "posterior": ("one-shot posterior diagnostics as JSON", (_N,)),
    "bvm-scan": ("gap scan over the n ladder", (_FORMAT,)),
    "coverage": (
        "credible-interval coverage study",
        (("--replications", {"type": int, "default": 1000}), _FORMAT),
    ),
    "baseline": (
        "normal location-model reference gap",
        (
            ("--n", {"type": int, "default": 1000}),
            ("--prior-var", {"type": float, "default": 100.0}),
        ),
    ),
    "diagnostics": ("KL/domination/expansion suite as JSON", (_N,)),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with every subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="semibvm",
        description="Posterior-normality experiments for partial linear regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"semibvm {argv[0]}")
        _add_flags(parser, argv[0])
        args = parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:
        args = build_parser().parse_args(argv)
    try:  # the checks' ConfigError is a ValueError: exit 2 before any work
        cfg = load_config(args)
        _check_destination(args.out)
        _check_integer("--jobs", args.jobs, 1)
        if args.jobs > 1:
            print(
                "warning: --jobs is deprecated and ignored; replications run as "
                "stacked batches in one process",
                file=sys.stderr,
            )
        n = getattr(args, "n", None)  # kernel, bvm-scan and coverage take no --n
        n = cfg.n_ladder[0] if n is None else n
        seed = cell_seed(cfg.master_seed, n, 0)
        dest = args.out or sys.stdout
        if args.command == "kernel":
            covariance_to_csv(prior_covariance(cfg.spec), dest)
        elif args.command == "sample":
            dataset_to_csv(sample_dataset(cfg.law, cfg.truth, n, seed), dest)
        elif args.command == "bvm-scan":
            run_bvm_scan(cfg).write(dest, args.format)
        elif args.command == "coverage":
            run_coverage(cfg, args.replications).write(dest, args.format)
        else:  # posterior, baseline, diagnostics: one JSON object
            if args.command == "posterior":
                payload = run_posterior_snapshot(cfg, n, seed)
            elif args.command == "baseline":
                diag = run_parametric_baseline(n, cfg.theta0, args.prior_var, seed)
                payload = dataclasses.asdict(diag)
            else:
                payload = run_diagnostics_suite(cfg, n, seed)
            with _opened(dest) as fh:
                fh.write(_json_text(payload) + "\n")
        if dest is sys.stdout:
            sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # Python's documented recipe: the rest of the output goes to
        # devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # OSError: the output, opened after the work
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
