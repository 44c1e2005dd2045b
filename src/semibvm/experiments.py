"""Experiment harness: convergence scans, coverage studies, baselines, I/O.

A config is the experiment: :class:`ExperimentConfig` builds the model
objects its fields imply (the covariate law ``law``, the true model point
``truth`` and the prior spec ``spec``) once, when it is built, and
carries them as read-only attributes; building them is part of its
validation.  Every runner, and every chunk of cells, reads them there.

Reports are figure-ready data, not figures.  Every replication cell
(n, rep) derives its own 64-bit seed from the master seed through a
documented splitmix64 fold (see :func:`cell_seed`) and draws its dataset
from its own generator, so any single cell can be recomputed in
isolation and reports are bit-reproducible on one numpy/OpenBLAS build
at one BLAS thread count: the CLI's default of one thread (see
:mod:`semibvm.cli`) makes them independent of the machine's core count.

Scans and coverage studies solve the replications of one n in chunks,
in one process.  The seeds of one n's cells are folded from one shared
(master, n) prefix (:func:`_cell_seeds`), and the PCG64 state each cell's
generator starts in, exactly the state default_rng(seed) starts in, is
computed for all of them in one vectorised pass
(:func:`semibvm.model._pcg64_states`), in groups of at most
``_SEED_GROUP`` cells unless one chunk is larger.  A chunk's datasets
are stacked as rows, their sufficient statistics gathered by offset
bincounts, and their posterior systems assembled by two stacked GEMMs
and factorised by stacked Cholesky calls, in sub-stacks (see
:func:`semibvm.posterior.theta_posteriors`).  Only the generator runs
per cell, one Generator re-stated at each cell's state; u and y are
formed once for the whole chunk.  Chunks and sub-stacks are sized by
the one stack rule, ``semibvm.model._stack_rows``, whose budget comment
states each stage's rows.  A row does not depend on which other cells
share its chunk, sub-stack or seeding group, so the reports are the same
for any budget or group size.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import statistics
from dataclasses import asdict, dataclass, field
from typing import TextIO

import numpy as np

from .asymptotics import (
    BvmDiagnostics,
    _hellinger_sq,
    bvm_gap,
    delta_n,
    estimate_un_per_zeta,
    kl_neighborhood_stats,
    lan_remainder,
)
from .gp_prior import GpPriorSpec, NumericsError, PriorCovariance
from .model import (
    _MASK64,
    CovariateLaw,
    Dataset,
    ModelPoint,
    NuisanceFunction,
    _check_integer,
    _check_real,
    _pcg64_states,
    _sample_rows,
    _stack_rows,
    empirical_information,
    make_covariate_law,
    sample_dataset,
    uniform_grid,
)
from .posterior import (
    MarginalThetaPosterior,
    StackNumericsError,
    _prior_precision,
    credible_bounds,
    credible_interval,
    theta_posterior,
    theta_posteriors,
)

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "splitmix64",
    "cell_seed",
    "run_bvm_scan",
    "run_coverage",
    "run_parametric_baseline",
    "run_posterior_snapshot",
    "run_diagnostics_suite",
    "covariance_to_csv",
    "dataset_to_csv",
]

# eta0 families: name -> (amplitude, grid) -> values on the grid
_ETA0_FAMILIES = {
    "sine": lambda amp, grid: amp * np.sin(2.0 * np.pi * grid),
    "cosine": lambda amp, grid: amp * np.cos(2.0 * np.pi * grid),
    "constant": lambda amp, grid: np.full(grid.size, amp),
    "zero": lambda amp, grid: np.zeros(grid.size),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a scan needs; mirrors the key = value config file.

    The twelve fields are the config: they alone are echoed in reports
    and compared and hashed.  ``law``, ``truth`` and ``spec`` are built
    from them with the config and are not fields.
    """

    sigma_w: float = 0.8
    theta0: float = 1.0
    eta0_family: str = "sine"
    eta0_amplitude: float = 0.5
    k: int = 1
    grid_size: int = 50
    scale: float = 3.0
    theta_prior_var: float = 10.0
    n_ladder: tuple[int, ...] = (50, 200, 800)
    seeds: int = 100
    level: float = 0.95
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.eta0_family not in _ETA0_FAMILIES:
            raise ValueError(
                f"eta0_family must be one of {tuple(_ETA0_FAMILIES)}, "
                f"got {self.eta0_family!r}"
            )
        ladder = tuple(_check_integer("n_ladder entry", n, 1) for n in self.n_ladder)
        if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("n_ladder must be nonempty and strictly increasing")
        object.__setattr__(self, "n_ladder", ladder)
        _check_integer("seeds", self.seeds, 1)
        _check_real("level", self.level, gt=0, lt=1)
        _check_integer("master_seed", self.master_seed, 0, _MASK64)
        _check_real("theta0", self.theta0)
        _check_real("eta0_amplitude", self.eta0_amplitude)
        _prior_precision(self.theta_prior_var)
        # built once here: the law and the prior spec check their own fields
        _ = self.law, self.spec, self.truth

    @functools.cached_property
    def law(self) -> CovariateLaw:
        """The covariate law of sigma_w."""
        return make_covariate_law(self.sigma_w)

    @functools.cached_property
    def spec(self) -> GpPriorSpec:
        """The nuisance prior of k, grid_size and scale."""
        return GpPriorSpec(k=self.k, grid_size=self.grid_size, scale=self.scale)

    @functools.cached_property
    def truth(self) -> ModelPoint:
        """The true model point (theta0, eta0), eta0 on the prior's grid."""
        eta0 = _ETA0_FAMILIES[self.eta0_family](self.eta0_amplitude, uniform_grid(self.grid_size))
        return ModelPoint(theta=self.theta0, eta=NuisanceFunction(eta0))


def splitmix64(x: int) -> int:
    """One splitmix64 step (Steele et al. mixing constants) on a Python
    int in [0, 2^64), arithmetic mod 2^64 by masks."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def cell_seed(master_seed: int, n: int, rep: int) -> int:
    """Seed for replication cell (n, rep): fold the three 64-bit words
    through splitmix64, state = splitmix64(state XOR word)."""
    state = 0
    for word in (master_seed, n, rep):
        state = splitmix64((state ^ (word & _MASK64)) & _MASK64)
    return state


def _cell_seeds(master_seed: int, n: int, reps: range) -> list[int]:
    """cell_seed(master_seed, n, rep) for every rep: the (master, n)
    folds are shared, and the last fold runs per rep in Python ints."""
    prefix = splitmix64(splitmix64(master_seed & _MASK64) ^ (n & _MASK64))
    return [splitmix64(prefix ^ (rep & _MASK64)) for rep in reps]


@dataclass
class RunReport:
    """Serializable experiment output: config echo, per-cell rows, aggregates."""

    kind: str
    config: dict
    rows: list[dict] = field(default_factory=list)
    aggregates: list[dict] = field(default_factory=list)

    def to_json_text(self) -> str:
        """The report as :func:`_json_text`, json.dumps(..., indent=2) byte
        for byte, of the instance's fields in their order."""
        return _json_text(vars(self))

    def write(self, dest: str | TextIO, fmt: str = "json") -> None:
        """JSON text, or the rows as CSV, to a path or a text stream."""
        if fmt not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        with _opened(dest) as fh:
            if fmt == "json":
                fh.write(self.to_json_text() + "\n")
                return
            writer = csv.writer(fh)
            header = list(self.rows[0].keys()) if self.rows else []
            writer.writerow(header)
            for row in self.rows:
                writer.writerow([row[key] for key in header])


# the C encoder's separators for a list of flat rows at depth 1 of a
# payload: one row item per line at six spaces; _json_text indents the
# row boundaries and the two ends itself
_ROW_ITEM = ",\n      "
_ROW_BREAK = "}" + _ROW_ITEM + "{"


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2), byte for byte, with json's C
    encoder doing the work for the lists of rows.

    indent=2 drops json to its pure-Python encoder.  A value of a
    str-keyed payload that is a nonempty list of nonempty dicts is
    encoded by the C encoder with one row item per line at its indent,
    and the row boundaries and the two ends are indented in one pass.
    The boundary "},\n      {" cannot occur inside a row: the separator
    holds a raw newline, which the encoder never emits inside a string,
    and the rows are flat, since their text holds no bracket and no brace
    but each row's opening one.  A row list that holds a list, dict or
    tuple (or a bracket or brace inside a string), and any other value,
    is json.dumps(value, indent=2) with its lines indented; any other
    payload is json.dumps(payload, indent=2).
    """
    if not (isinstance(payload, dict) and payload and all(type(k) is str for k in payload)):
        return json.dumps(payload, indent=2)
    items = []
    for key, value in payload.items():
        text = None
        if (
            isinstance(value, list)
            and value
            and all(isinstance(row, dict) and row for row in value)
        ):
            body = json.dumps(value, separators=(_ROW_ITEM, ": "))[2:-2]
            if "[" not in body and body.count("{") == len(value) - 1:
                rows = body.replace(_ROW_BREAK, "\n    },\n    {\n      ")
                text = "[\n    {\n      " + rows + "\n    }\n  ]"
        if text is None:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def _opened(dest: str | TextIO):
    """A text stream as it is, or a path opened for writing; either way
    the same bytes go out (newline="" keeps csv's line ends as written)."""
    if hasattr(dest, "write"):
        return contextlib.nullcontext(dest)
    return open(dest, "w", newline="")


def _config_dict(cfg: ExperimentConfig) -> dict:
    """Every field, with the ladder as a JSON list."""
    return {**asdict(cfg), "n_ladder": list(cfg.n_ladder)}


_Batch = tuple[ExperimentConfig, int, range, list[int], list[tuple[int, int]]]

# Largest group of one n's cells whose seeds are folded and whose
# generator states are computed in one pass, unless one chunk is larger:
# a group is a whole number of chunks.  One pass costs a fixed 50-80 us,
# about default_rng's cost for a 10-cell chunk, which is why states are
# computed per group and not per chunk, and less than a third of
# default_rng's cost from 100 cells on.  The cap bounds a group's
# (8, group) uint32 hash arrays at 32 KiB and its Python-int states at
# about 150 KiB.
_SEED_GROUP = 1024


def _batches(cfg: ExperimentConfig, replications: int):
    """The (cfg, n, reps, seeds, states) chunks that cover every cell, in
    (n, rep) order, each of the replications that
    ``semibvm.model._stack_rows`` gives rows of 2 max(n, m) doubles, with
    their seeds and PCG64 states (see :func:`semibvm.model._pcg64_states`),
    computed once per group of chunks of one n.  A chunk reads the model
    objects off its config."""
    for n in cfg.n_ladder:
        size = _stack_rows(2 * max(n, cfg.grid_size))
        group = max(1, _SEED_GROUP // size) * size
        for first in range(0, replications, group):
            cells = range(first, min(first + group, replications))
            seeds = _cell_seeds(cfg.master_seed, n, cells)
            states = _pcg64_states(seeds)
            for start in range(0, len(cells), size):
                part = slice(start, start + size)
                yield cfg, n, cells[part], seeds[part], states[part]


def _solve_batch(batch: _Batch):
    """Datasets and theta marginals of one chunk's cells.  A failing cell
    is named by its n, rep and seed."""
    cfg, n, reps, seeds, states = batch
    data = _sample_rows(cfg.law, cfg.truth, n, states)
    try:
        means, variances = theta_posteriors(data, cfg.spec, cfg.theta_prior_var)
    except StackNumericsError as exc:
        rep, seed = reps[exc.index], seeds[exc.index]
        raise NumericsError(f"cell n={n} rep={rep} seed={seed}: {exc}") from exc
    return data, means, variances


def _bvm_cell(batch: _Batch) -> list[dict]:
    """Gap rows of one chunk of cells; a row is the same whatever else
    is in its chunk."""
    cfg, n, reps, seeds, _ = batch
    data, means, variances = _solve_batch(batch)
    deltas = delta_n(data, cfg.law)
    rows = []
    for rep, seed, mean, variance, delta in zip(reps, seeds, means, variances, deltas):
        mp = MarginalThetaPosterior(mean=float(mean), variance=float(variance))
        diag = bvm_gap(mp, float(delta), cfg.law.efficient_info, n, cfg.theta0)
        rows.append({"rep": rep, "seed": seed, **vars(diag)})  # the fields, not a deep copy
    return rows


def _run_cells(worker, batches) -> list[dict]:
    """Every chunk's rows, in order, in this process."""
    return [row for batch in batches for row in worker(batch)]


def _iqr(values: list[float]) -> float:
    """Interquartile range by numpy's default (linear) percentile rule."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def run_bvm_scan(cfg: ExperimentConfig) -> RunReport:
    """Convergence scan: per-cell gap diagnostics plus per-n medians."""
    rows = _run_cells(_bvm_cell, _batches(cfg, cfg.seeds))
    aggregates = []
    for n in cfg.n_ladder:
        gaps = [r["tv_gap"] for r in rows if r["n"] == n]
        variances = [r["localized_post_var"] for r in rows if r["n"] == n]
        aggregates.append(
            {
                "n": n,
                "median_tv_gap": statistics.median(gaps),
                "iqr_tv_gap": _iqr(gaps),
                "median_localized_post_var": statistics.median(variances),
                "iqr_localized_post_var": _iqr(variances),
            }
        )
    return RunReport(kind="bvm_scan", config=_config_dict(cfg), rows=rows, aggregates=aggregates)


def _coverage_cell(batch: _Batch) -> list[dict]:
    """Credible-interval rows of one chunk of cells."""
    cfg, n, reps, seeds, _ = batch
    _, means, variances = _solve_batch(batch)
    lo, hi = credible_bounds(means, np.sqrt(variances), cfg.level)
    covered = (lo <= cfg.theta0) & (cfg.theta0 <= hi)
    return [
        {"n": n, "rep": rep, "seed": seed, "lo": a, "hi": b, "covered": c}
        for rep, seed, a, b, c in zip(reps, seeds, lo.tolist(), hi.tolist(), covered.tolist())
    ]


def run_coverage(cfg: ExperimentConfig, replications: int) -> RunReport:
    """Frequentist coverage of the level-credible interval, per ladder n."""
    _check_integer("replications", replications, 1)
    rows = _run_cells(_coverage_cell, _batches(cfg, replications))
    aggregates = []
    for n in cfg.n_ladder:
        hits = np.array([r["covered"] for r in rows if r["n"] == n], dtype=float)
        coverage = float(hits.mean())
        aggregates.append(
            {
                "n": n,
                "replications": int(hits.size),
                "coverage": coverage,
                "binomial_se": math.sqrt(coverage * (1.0 - coverage) / hits.size),
            }
        )
    return RunReport(kind="coverage", config=_config_dict(cfg), rows=rows, aggregates=aggregates)


def run_parametric_baseline(
    n: int, theta0: float, prior_var: float, seed: int
) -> BvmDiagnostics:
    """Normal location model N(theta, 1) with conjugate N(0, prior_var) prior.

    The exact posterior N(n xbar tau^2/(n tau^2 + 1), tau^2/(n tau^2 + 1))
    is compared in total variation against N(xbar, 1/n), the sampling
    limit centered on the best-regular estimator xbar.  `prior_var =
    math.inf` selects the flat limit, where the gap is exactly zero.
    `seed` must lie in [0, 2^64).
    """
    n = _check_integer("n", n, 1)
    seed = _check_integer("seed", seed, 0, _MASK64)
    theta0 = _check_real("theta0", theta0)
    _prior_precision(prior_var, "prior_var")
    rng = np.random.default_rng(seed)
    xbar = float(np.mean(theta0 + rng.standard_normal(n)))
    if math.isinf(prior_var):
        post_mean, post_var = xbar, 1.0 / n
    else:  # 1 / (n + 1/tau^2): no n tau^2 to overflow
        post_var = 1.0 / (n + 1.0 / prior_var)
        post_mean = n * xbar * post_var
    mp = MarginalThetaPosterior(mean=post_mean, variance=post_var)
    return bvm_gap(mp, math.sqrt(n) * (xbar - theta0), 1.0, n, theta0)


def run_posterior_snapshot(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    """One simulated dataset, its exact posterior and gap diagnostics."""
    n = _check_integer("n", n, 1)
    ds = sample_dataset(cfg.law, cfg.truth, n, seed)
    mp = theta_posterior(ds, cfg.spec, cfg.theta_prior_var)
    lo, hi = credible_interval(mp, cfg.level)
    diag = bvm_gap(mp, delta_n(ds, cfg.law), cfg.law.efficient_info, n, cfg.theta0)
    return {
        "n": n,
        "seed": seed,
        "theta_mean": mp.mean,
        "theta_variance": mp.variance,
        "level": cfg.level,
        "interval_lo": lo,
        "interval_hi": hi,
        "empirical_information": empirical_information(ds, cfg.law),
        **asdict(diag),
    }


def run_diagnostics_suite(
    cfg: ExperimentConfig, n: int, seed: int, mc_draws: int = 20_000, un_reps: int = 2000
) -> dict:
    """KL-neighborhood, domination and expansion-remainder diagnostics.

    Probe nuisance perturbations are fixed small multiples of smooth
    waves; the report carries every estimate together with the bound or
    reference value it is judged against.  The KL-neighborhood moments
    are exact, and so is the h=1 domination row: a fixed direction's
    likelihood ratio has expectation exactly 1, reported with standard
    error 0, and the Hellinger row is exact: only the plug-in row (`un_reps`
    replications) is Monte Carlo.  `mc_draws` sizes nothing; it is kept
    until the benchmark harness stops passing it.  `seed` must lie in
    [0, 2^64).
    """
    n = _check_integer("n", n, 1)
    seed = _check_integer("seed", seed, 0, _MASK64)
    _check_integer("mc_draws", mc_draws, 1)
    un_reps = _check_integer("un_reps", un_reps, 1)
    law, truth = cfg.law, cfg.truth
    grid = truth.eta.grid
    probes = {
        "0.1*cos(2pi v)": 0.1 * np.cos(2.0 * np.pi * grid),
        "0.2*sin(4pi v)": 0.2 * np.sin(4.0 * np.pi * grid),
    }

    kl_rows = []
    for label, delta_vals in probes.items():
        eta = NuisanceFunction(truth.eta.values + delta_vals)
        first, second = kl_neighborhood_stats(eta, truth)
        sup = float(np.max(np.abs(delta_vals)))
        bound_scale = max(eta.sup_norm(), truth.eta.sup_norm())
        kl_rows.append(
            {
                "probe": label,
                "neg_mean_log_ratio": first,
                "mean_sq_log_ratio": second,
                "bound": (0.5 + bound_scale**2) * sup**2,
            }
        )

    # two translations, zero and 0.1 cos(2 pi v); the values do not enter
    estimates, errors = estimate_un_per_zeta(law, 2, n=n, mc_reps=un_reps, seed=seed)
    ones = np.ones(2)
    un_rows = [
        {
            "h": h_label,
            "estimates": est.tolist(),
            "standard_errors": err.tolist(),
            "max": float(est.max()),
        }
        for h_label, est, err in (("h=1", ones, 0.0 * ones), ("plugin", estimates, errors))
    ]

    ds = sample_dataset(law, truth, n, seed)
    remainder = lan_remainder(ds, 1.0, law)
    identity_value = 0.5 * (empirical_information(ds, law) - law.efficient_info)

    # H^2 of theta0 + m_shift/sqrt(n) from theta0, from the increment itself:
    # (theta0 + increment) - theta0 rounds it away as |theta0| grows
    m_shift = 2.0
    hell_sq = float(_hellinger_sq(m_shift / math.sqrt(n), truth.eta.values, truth.eta.values, law))
    bound = m_shift**2 / (2.0 * n) + m_shift**3 / (6.0 * n**2) * law.fourth_moment_u

    return {
        "n": n,
        "seed": seed,
        "kl_neighborhood": kl_rows,
        "domination": un_rows,
        "lan_remainder": {
            "h": 1.0,
            "remainder": remainder,
            "identity_value": identity_value,
            "identity_residual": abs(remainder - identity_value),
        },
        "hellinger_bound": {
            "theta_shift": m_shift,
            "hellinger_sq": hell_sq,
            "bound": bound,
        },
    }


def covariance_to_csv(cov: PriorCovariance, dest: str | TextIO) -> None:
    """Full covariance matrix, row-major, one row per CSV line, to a path
    or a text stream."""
    with _opened(dest) as fh:
        writer = csv.writer(fh)
        for row in cov.matrix:
            writer.writerow([repr(float(x)) for x in row])


def dataset_to_csv(ds: Dataset, dest: str | TextIO) -> None:
    """Columns u, v, y, e (e blank when the dataset has no provenance), to
    a path or a text stream."""
    with _opened(dest) as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "y", "e"])
        e = ds.e if ds.e is not None else [""] * ds.n
        for row in zip(ds.u, ds.v, ds.y, e):
            writer.writerow([repr(float(x)) if x != "" else "" for x in row])
