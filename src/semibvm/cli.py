"""Command-line interface.

Subcommands: kernel, sample, posterior, bvm-scan, coverage, baseline,
diagnostics.  Common flags: --config (key = value text file mirroring the
experiment config), --seed, --out, --format, and the deprecated --jobs,
which is checked (>= 1) and otherwise ignored: replications run as
stacked batches in one process.

Exit codes: 0 success, 2 config error (including --jobs < 1), 3 numeric
failure (the offending cell is printed to standard error).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing

from .experiments import (
    ExperimentConfig,
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
from .gp_prior import NumericsError, prior_covariance
from .model import sample_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


def _int_list(value: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in value.split(",") if tok.strip())


# each key's parser, by the type its ExperimentConfig field declares;
# float() reads 'inf' and 'Infinity' as math.inf
_PARSERS = {int: int, float: float, str: str, str | None: str, tuple[int, ...]: _int_list}
_HINTS = typing.get_type_hints(ExperimentConfig)
_KEY_PARSERS = {f.name: _PARSERS[_HINTS[f.name]] for f in dataclasses.fields(ExperimentConfig)}


def parse_config_file(path: str) -> dict:
    """Parse a key = value config file; '#' starts a comment."""
    values: dict = {}
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
        try:
            values[key] = _KEY_PARSERS[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = parse_config_file(args.config) if args.config else {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out is not None:
        overrides["output_path"] = args.out
    if args.format is not None:
        overrides["format"] = args.format
    try:
        return ExperimentConfig(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--format", choices=("csv", "json"), help="report format")
    parser.add_argument(
        "--jobs", type=int, default=1, help="deprecated and ignored (must be >= 1)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semibvm",
        description="Posterior-normality experiments for partial linear regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="dump the prior covariance matrix as CSV")
    _add_common(p)

    p = sub.add_parser("sample", help="simulate a dataset and write CSV (u,v,y,e)")
    _add_common(p)
    p.add_argument("--n", type=int, help="sample size (default: first ladder entry)")

    p = sub.add_parser("posterior", help="one-shot posterior diagnostics as JSON")
    _add_common(p)
    p.add_argument("--n", type=int, help="sample size (default: first ladder entry)")

    p = sub.add_parser("bvm-scan", help="gap scan over the n ladder")
    _add_common(p)

    p = sub.add_parser("coverage", help="credible-interval coverage study")
    _add_common(p)
    p.add_argument("--replications", type=int, default=1000)

    p = sub.add_parser("baseline", help="normal location-model reference gap")
    _add_common(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--prior-var", type=float, default=100.0)

    p = sub.add_parser("diagnostics", help="KL/domination/expansion suite as JSON")
    _add_common(p)
    p.add_argument("--n", type=int, help="sample size (default: first ladder entry)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.jobs < 1:
        print(f"config error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_CONFIG
    if args.jobs > 1:
        print(
            "warning: --jobs is deprecated and ignored; replications run as "
            "stacked batches in one process",
            file=sys.stderr,
        )

    n = getattr(args, "n", None)  # kernel, bvm-scan and coverage take no --n
    n = cfg.n_ladder[0] if n is None else n
    seed = cell_seed(cfg.master_seed, n, 0)
    dest = cfg.output_path or sys.stdout
    try:
        if args.command == "kernel":
            _, _, spec = make_components(cfg)
            covariance_to_csv(prior_covariance(spec), dest)
        elif args.command == "sample":
            law, truth, _ = make_components(cfg)
            dataset_to_csv(sample_dataset(law, truth, n, seed), dest)
        elif args.command == "bvm-scan":
            run_bvm_scan(cfg).write(dest, cfg.format)
        elif args.command == "coverage":
            run_coverage(cfg, args.replications).write(dest, cfg.format)
        else:  # posterior, baseline, diagnostics: one JSON object
            if args.command == "posterior":
                payload = run_posterior_snapshot(cfg, n, seed)
            elif args.command == "baseline":
                diag = run_parametric_baseline(n, cfg.theta0, args.prior_var, seed)
                payload = dataclasses.asdict(diag)
            else:
                payload = run_diagnostics_suite(cfg, n, seed)
            with _opened(dest) as fh:
                fh.write(json.dumps(payload, indent=2) + "\n")
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
