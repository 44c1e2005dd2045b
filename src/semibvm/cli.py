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

A launch whose first argument names a subcommand builds only that
subcommand's parser; any other launch (help, a typo, an option placed
first) builds them all.  Help, usage and error text are the same bytes
either way.

Exit codes: 0 success, 2 config error (including --jobs < 1, a flag the
subcommand does not take and an output path that cannot be written),
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
    make_components,
    run_bvm_scan,
    run_coverage,
    run_diagnostics_suite,
    run_parametric_baseline,
    run_posterior_snapshot,
)
from .gp_prior import NumericsError, prior_covariance  # noqa: E402
from .model import _check_integer, sample_dataset  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141


class ConfigError(ValueError):
    pass


def _int_list(value: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in value.split(",") if tok.strip())


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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output path")
    parser.add_argument(
        "--jobs", type=int, default=1, help="deprecated and ignored (must be >= 1)"
    )


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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The top-level parser with every subcommand's parser, or, given a
    `command` of ``_COMMANDS``, with that one's alone."""
    parser = argparse.ArgumentParser(
        prog="semibvm",
        description="Posterior-normality experiments for partial linear regression",
    )
    # usage lists every name either way; the full parser keeps the default
    # metavar, which words its errors as "argument command: ..."
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, extra = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        for flag, keywords in extra:
            p.add_argument(flag, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
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
            _, _, spec = make_components(cfg)
            covariance_to_csv(prior_covariance(spec), dest)
        elif args.command == "sample":
            law, truth, _ = make_components(cfg)
            dataset_to_csv(sample_dataset(law, truth, n, seed), dest)
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
