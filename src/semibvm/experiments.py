"""Experiment harness: convergence scans, coverage studies, baselines, I/O.

Reports are figure-ready data, not figures.  Every replication cell
(n, rep) derives its own 64-bit seed from the master seed through a
documented splitmix64 fold (see :func:`cell_seed`) and draws its dataset
from its own generator, so any single cell can be recomputed in
isolation and reports are bit-reproducible.

Scans and coverage studies solve the replications of one n in batches,
in one process: the batch's datasets are stacked as rows, their
sufficient statistics gathered by offset bincounts and their posterior
systems factorised by one stacked Cholesky call (see
:func:`semibvm.posterior.theta_posteriors`).  A row does not depend on
which other cells share its batch, and a batch's size is bounded by a
fixed working-set budget, so the reports are the same for any batching.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import statistics
from dataclasses import asdict, dataclass, field
from typing import TextIO

import numpy as np

from .asymptotics import (
    BvmDiagnostics,
    bvm_gap,
    delta_n,
    estimate_un_per_zeta,
    hellinger_distance,
    kl_neighborhood_stats,
    lan_remainder,
    tv_normals,
)
from .gp_prior import GpPriorSpec, NumericsError, PriorCovariance
from .model import (
    CovariateLaw,
    Dataset,
    ModelPoint,
    NuisanceFunction,
    empirical_information,
    make_covariate_law,
    sample_dataset,
    sample_datasets,
    uniform_grid,
)
from .posterior import (
    MarginalThetaPosterior,
    StackNumericsError,
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
    "make_components",
    "run_bvm_scan",
    "run_coverage",
    "run_parametric_baseline",
    "run_posterior_snapshot",
    "run_diagnostics_suite",
    "covariance_to_csv",
    "dataset_to_csv",
]

_ETA0_FAMILIES = ("sine", "cosine", "constant", "zero")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a scan needs; mirrors the key = value config file."""

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
    output_path: str | None = None
    format: str = "json"

    def __post_init__(self) -> None:
        if self.eta0_family not in _ETA0_FAMILIES:
            raise ValueError(
                f"eta0_family must be one of {_ETA0_FAMILIES}, got {self.eta0_family!r}"
            )
        ladder = tuple(int(n) for n in self.n_ladder)
        if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("n_ladder must be nonempty and strictly increasing")
        if any(n < 1 for n in ladder):
            raise ValueError("n_ladder entries must be >= 1")
        object.__setattr__(self, "n_ladder", ladder)
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if not (0.0 < self.level < 1.0):
            raise ValueError("level must lie in (0, 1)")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        if not self.theta_prior_var > 0.0:
            raise ValueError("theta_prior_var must be positive (inf allowed)")
        make_components(self)  # the law and the prior spec check their own fields


def _eta0_values(cfg: ExperimentConfig, grid: np.ndarray) -> np.ndarray:
    amp = cfg.eta0_amplitude
    if cfg.eta0_family == "sine":
        return amp * np.sin(2.0 * np.pi * grid)
    if cfg.eta0_family == "cosine":
        return amp * np.cos(2.0 * np.pi * grid)
    if cfg.eta0_family == "constant":
        return np.full(grid.size, amp)
    return np.zeros(grid.size)


def make_components(
    cfg: ExperimentConfig,
) -> tuple[CovariateLaw, ModelPoint, GpPriorSpec]:
    """Law, true model point and prior spec implied by a config."""
    law = make_covariate_law(cfg.sigma_w)
    spec = GpPriorSpec(k=cfg.k, grid_size=cfg.grid_size, scale=cfg.scale)
    grid = uniform_grid(cfg.grid_size)
    truth = ModelPoint(theta=cfg.theta0, eta=NuisanceFunction(_eta0_values(cfg, grid)))
    return law, truth, spec


_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step (Steele et al. mixing constants)."""
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


@dataclass
class RunReport:
    """Serializable experiment output: config echo, per-cell rows, aggregates."""

    kind: str
    config: dict
    rows: list[dict] = field(default_factory=list)
    aggregates: list[dict] = field(default_factory=list)

    def to_json_text(self) -> str:
        payload = {
            "kind": self.kind,
            "config": self.config,
            "rows": self.rows,
            "aggregates": self.aggregates,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json_text(cls, text: str) -> "RunReport":
        payload = json.loads(text)
        return cls(
            kind=payload["kind"],
            config=payload["config"],
            rows=payload["rows"],
            aggregates=payload["aggregates"],
        )

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


def _opened(dest: str | TextIO):
    """A text stream as it is, or a path opened for writing; either way
    the same bytes go out (newline="" keeps csv's line ends as written)."""
    if hasattr(dest, "write"):
        return contextlib.nullcontext(dest)
    return open(dest, "w", newline="")


def _config_dict(cfg: ExperimentConfig) -> dict:
    """Every field but output_path: a report is the same bytes wherever it goes."""
    out = asdict(cfg)
    del out["output_path"]
    out["n_ladder"] = list(cfg.n_ladder)
    return out


_Components = tuple[CovariateLaw, ModelPoint, GpPriorSpec]
_Batch = tuple[ExperimentConfig, _Components, int, range]

# Working-set budget of one batch, in doubles: a batch at sample size n
# on an m-point grid holds n data points and one (m+2)^2 system per
# replication, so it takes max(1, budget // (n + (m+2)^2)) replications:
# 4-5 on the default config, enough to spread the per-call overhead.  One
# batch per n instead (100 default replications) raised the peak RSS of a
# coverage run by 8 MiB.
_BATCH_BUDGET = 2**14


def _batches(cfg: ExperimentConfig, components: _Components, replications: int):
    """The (cfg, components, n, reps) batches that cover every cell, in
    (n, rep) order."""
    for n in cfg.n_ladder:
        size = max(1, _BATCH_BUDGET // (n + (cfg.grid_size + 2) ** 2))
        for start in range(0, replications, size):
            yield cfg, components, n, range(start, min(start + size, replications))


def _solve_batch(batch: _Batch):
    """Seeds, datasets and theta marginals of one batch's cells.  A
    failing cell is named by its n, rep and seed."""
    cfg, (law, truth, spec), n, reps = batch
    seeds = [cell_seed(cfg.master_seed, n, rep) for rep in reps]
    data = sample_datasets(law, truth, n, seeds)
    try:
        means, variances = theta_posteriors(data.u, data.v, data.y, spec, cfg.theta_prior_var)
    except StackNumericsError as exc:
        rep, seed = reps[exc.index], seeds[exc.index]
        raise NumericsError(f"cell n={n} rep={rep} seed={seed}: {exc}") from exc
    return seeds, data, means, variances


def _bvm_cell(batch: _Batch) -> list[dict]:
    """Gap rows of one batch of cells; a row is the same whatever else
    is in its batch."""
    cfg, (law, truth, _), n, reps = batch
    seeds, data, means, variances = _solve_batch(batch)
    deltas = delta_n(data, law, truth)
    rows = []
    for rep, seed, mean, variance, delta in zip(reps, seeds, means, variances, deltas):
        mp = MarginalThetaPosterior(mean=float(mean), variance=float(variance))
        diag = bvm_gap(mp, float(delta), law.efficient_info, n, cfg.theta0)
        rows.append({"rep": rep, "seed": seed, **asdict(diag)})
    return rows


def _run_cells(worker, batches) -> list[dict]:
    """Every batch's rows, in order, in this process."""
    return [row for batch in batches for row in worker(batch)]


def _iqr(values: list[float]) -> float:
    """Interquartile range by numpy's default (linear) percentile rule."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def run_bvm_scan(cfg: ExperimentConfig) -> RunReport:
    """Convergence scan: per-cell gap diagnostics plus per-n medians."""
    rows = _run_cells(_bvm_cell, _batches(cfg, make_components(cfg), cfg.seeds))
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
    """Credible-interval rows of one batch of cells."""
    cfg, _, n, reps = batch
    seeds, _, means, variances = _solve_batch(batch)
    lo, hi = credible_bounds(means, np.sqrt(variances), cfg.level)
    covered = (lo <= cfg.theta0) & (cfg.theta0 <= hi)
    return [
        {"n": n, "rep": rep, "seed": seed, "lo": a, "hi": b, "covered": c}
        for rep, seed, a, b, c in zip(reps, seeds, lo.tolist(), hi.tolist(), covered.tolist())
    ]


def run_coverage(cfg: ExperimentConfig, replications: int) -> RunReport:
    """Frequentist coverage of the level-credible interval, per ladder n."""
    if replications < 1:
        raise ValueError("replications must be >= 1")
    rows = _run_cells(_coverage_cell, _batches(cfg, make_components(cfg), replications))
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
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not prior_var > 0.0:
        raise ValueError("prior_var must be positive (math.inf allowed)")
    rng = np.random.default_rng(seed)
    xbar = float(np.mean(theta0 + rng.standard_normal(n)))
    if math.isinf(prior_var):
        post_mean, post_var = xbar, 1.0 / n
    else:
        post_mean = n * xbar * prior_var / (n * prior_var + 1.0)
        post_var = prior_var / (n * prior_var + 1.0)
    loc_mean = math.sqrt(n) * (post_mean - theta0)
    loc_var = n * post_var
    delta = math.sqrt(n) * (xbar - theta0)
    gap = tv_normals(loc_mean, loc_var, delta, 1.0)
    return BvmDiagnostics(
        n=n,
        delta_n=delta,
        info_tilde=1.0,
        localized_post_mean=loc_mean,
        localized_post_var=loc_var,
        tv_gap=gap,
    )


def run_posterior_snapshot(cfg: ExperimentConfig, n: int, seed: int) -> dict:
    """One simulated dataset, its exact posterior and gap diagnostics."""
    if n < 1:
        raise ValueError("need n >= 1")
    law, truth, spec = make_components(cfg)
    ds = sample_dataset(law, truth, n, seed)
    mp = theta_posterior(ds, spec, cfg.theta_prior_var)
    lo, hi = credible_interval(mp, cfg.level)
    diag = bvm_gap(mp, delta_n(ds, law, truth), law.efficient_info, n, cfg.theta0)
    return {
        "n": n,
        "seed": seed,
        "theta_mean": mp.mean,
        "theta_variance": mp.variance,
        "level": cfg.level,
        "interval_lo": lo,
        "interval_hi": hi,
        "empirical_information": empirical_information(ds, law),
        **asdict(diag),
    }


def run_diagnostics_suite(
    cfg: ExperimentConfig, n: int, seed: int, mc_draws: int = 20_000, un_reps: int = 2000
) -> dict:
    """KL-neighborhood, domination and expansion-remainder diagnostics.

    Probe nuisance perturbations are fixed small multiples of smooth
    waves; the report carries every estimate together with the bound or
    reference value it is judged against.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    law, truth, _ = make_components(cfg)
    grid = truth.eta.grid
    zeta = NuisanceFunction(0.1 * np.cos(2.0 * np.pi * grid))
    probes = {
        "0.1*cos(2pi v)": zeta.values,
        "0.2*sin(4pi v)": 0.2 * np.sin(4.0 * np.pi * grid),
    }

    kl_rows = []
    for label, delta_vals in probes.items():
        eta = NuisanceFunction(truth.eta.values + delta_vals)
        first, second = kl_neighborhood_stats(eta, truth, law, mc_draws, seed)
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

    zeta_set = [NuisanceFunction.zero(grid.size), zeta]
    un_rows = []
    for h_label, h in (("h=1", 1.0), ("plugin", None)):
        estimates, errors = estimate_un_per_zeta(
            law, truth, zeta_set, rho=0.5, h=h, n=n, mc_reps=un_reps, seed=seed
        )
        un_rows.append(
            {
                "h": h_label,
                "estimates": estimates.tolist(),
                "standard_errors": errors.tolist(),
                "max": float(estimates.max()),
            }
        )

    ds = sample_dataset(law, truth, n, seed)
    remainder = lan_remainder(ds, 1.0, zeta, truth, law)
    identity_value = 0.5 * (empirical_information(ds, law) - law.efficient_info)

    m_shift = 2.0
    shifted = ModelPoint(truth.theta + m_shift / math.sqrt(n), truth.eta)
    hell = hellinger_distance(shifted, truth, law, mc_draws, seed)
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
            "hellinger_sq": hell**2,
            "bound": bound,
        },
    }


def covariance_to_csv(cov: PriorCovariance | np.ndarray, dest: str | TextIO) -> None:
    """Full covariance matrix, row-major, one row per CSV line, to a path
    or a text stream."""
    matrix = cov.matrix if isinstance(cov, PriorCovariance) else np.asarray(cov)
    with _opened(dest) as fh:
        writer = csv.writer(fh)
        for row in matrix:
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
