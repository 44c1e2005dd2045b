"""Correctness oracle for the reports the benchmark's launches write.

The oracle shares no numerics with the program.  It regenerates each
checked cell's data with the program's own ``sample_dataset`` (the data are
part of the seed contract) and then solves for the theta marginal itself:

* the prior covariance K comes from a cancellation-free form of the
  integrated-Brownian-motion kernel (all terms positive),
* K = L L' is factorised by a symmetric eigendecomposition, so a
  numerically singular K needs no jitter,
* the posterior is solved in whitened coordinates eta = L z, with
  B = I + L' W'W L (all eigenvalues >= 1); no K^-1 is formed,
* W'W, W'u and W'y come from bincounts over the interpolation indices.

Scan rows are also checked for the documented splitmix64 seed, the score
centering delta_n and the TV gap, against the closed form from the two
density crossings.  Diagnostics suites are checked against the bounds and
identities their report carries.

Tolerances are set far above float64 round-off and far below any
statistically visible error: on the default config the program and the
oracle agree to about 1e-12.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from semibvm.experiments import ExperimentConfig
from semibvm.model import ModelPoint, NuisanceFunction, make_covariate_law, sample_dataset

VAR_REL_TOL = 1e-6  # |var / var_oracle - 1|
MEAN_SD_TOL = 1e-6  # |mean - mean_oracle| / sd_oracle
TV_ABS_TOL = 1e-7  # the program's quadrature promises 1e-8
DELTA_TOL = 1e-9  # relative to max(1, |delta_n|)
LAN_TOL = 1e-9  # relative to max(1, |identity_value|)
SE_MULTIPLE = 5.0  # Monte Carlo checks: false-alarm chance below 1e-6 per check

_MASK64 = (1 << 64) - 1


def documented_cell_seed(master: int, n: int, rep: int) -> int:
    """The seed contract: state = splitmix64(state XOR word) over (master, n, rep)."""
    state = 0
    for word in (master, n, rep):
        x = ((state ^ (word & _MASK64)) + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = x ^ (x >> 31)
    return state


def kibm_covariance(k: int, m: int, scale: float) -> np.ndarray:
    """scale^2 c_k on the uniform m-grid.

    For s <= t the integral part is sum_j C(k,j) (t-s)^(k-j) s^(k+j+1) /
    (k+j+1) / (k!)^2, a sum of nonnegative terms.
    """
    grid = np.linspace(0.0, 1.0, m)
    s = np.minimum.outer(grid, grid)
    t = np.maximum.outer(grid, grid)
    poly = sum((s * t) ** i / math.factorial(i) ** 2 for i in range(k + 1))
    integral = sum(
        math.comb(k, j) * (t - s) ** (k - j) * s ** (k + j + 1) / (k + j + 1) for j in range(k + 1)
    )
    return scale**2 * (poly + integral / math.factorial(k) ** 2)


def tv_normals_closed(m1: float, v1: float, m2: float, v2: float) -> float:
    """TV between N(m1, v1) and N(m2, v2) from the CDFs at the density crossings."""
    if abs(v1 - v2) <= 1e-14 * max(v1, v2):
        sd = math.sqrt(0.5 * (v1 + v2))
        return float(2.0 * norm.cdf(abs(m1 - m2) / (2.0 * sd)) - 1.0)
    a = 0.5 * (1.0 / v2 - 1.0 / v1)
    b = m1 / v1 - m2 / v2
    c = 0.5 * (m2**2 / v2 - m1**2 / v1) - 0.5 * math.log(v1 / v2)
    disc = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    lo, hi = sorted(((-b - disc) / (2.0 * a), (-b + disc) / (2.0 * a)))

    def mass(mean: float, var: float) -> float:
        sd = math.sqrt(var)
        za, zb = (lo - mean) / sd, (hi - mean) / sd
        # difference of upper tails keeps precision when both points are far right
        return float(norm.sf(za) - norm.sf(zb)) if za > 0.0 else float(norm.cdf(zb) - norm.cdf(za))

    return min(abs(mass(m1, v1) - mass(m2, v2)), 1.0)


class Oracle:
    """Independent answers for one run of the CLI on the given config-file keys."""

    def __init__(self, config: dict) -> None:
        cfg = ExperimentConfig(**config)
        self.theta0 = cfg.theta0
        self.level = cfg.level
        self.tau2 = cfg.theta_prior_var
        self.master = cfg.master_seed
        self.ladder = cfg.n_ladder
        self.law = make_covariate_law(cfg.sigma_w)
        m = cfg.grid_size
        grid = np.linspace(0.0, 1.0, m)
        amp = cfg.eta0_amplitude
        eta0 = {
            "sine": amp * np.sin(2.0 * np.pi * grid),
            "cosine": amp * np.cos(2.0 * np.pi * grid),
            "constant": np.full(m, amp),
            "zero": np.zeros(m),
        }[cfg.eta0_family]
        self.truth = ModelPoint(theta=self.theta0, eta=NuisanceFunction(eta0))
        lam, q = np.linalg.eigh(kibm_covariance(cfg.k, m, cfg.scale))
        self.factor = q * np.sqrt(np.clip(lam, 0.0, None))
        self.m = m

    def data(self, n: int, seed: int):
        return sample_dataset(self.law, self.truth, n, seed)

    def theta_posterior(self, u: np.ndarray, v: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """(mean, variance) of the theta marginal by the whitened solve."""
        m, L = self.m, self.factor
        x = v * (m - 1)
        idx = np.minimum(np.floor(x).astype(np.int64), m - 2)
        w1 = x - idx
        w0 = 1.0 - w1
        gram = np.diag(np.bincount(idx, w0 * w0, m) + np.bincount(idx + 1, w1 * w1, m))
        off = np.bincount(idx, w0 * w1, m - 1)
        gram[np.arange(m - 1), np.arange(1, m)] = off
        gram[np.arange(1, m), np.arange(m - 1)] = off
        wu = np.bincount(idx, w0 * u, m) + np.bincount(idx + 1, w1 * u, m)
        wy = np.bincount(idx, w0 * y, m) + np.bincount(idx + 1, w1 * y, m)
        b_factor = cho_factor(np.eye(m) + L.T @ gram @ L, lower=True)
        a = L.T @ wu
        solved_a = cho_solve(b_factor, a)
        prior_precision = 0.0 if math.isinf(self.tau2) else 1.0 / self.tau2
        precision = float(u @ u) + prior_precision - float(a @ solved_a)
        mean = (float(u @ y) - float(solved_a @ (L.T @ wy))) / precision
        return mean, 1.0 / precision

    def delta_n(self, ds) -> float:
        info = self.law.efficient_info
        return float(np.sum(ds.e * (ds.u - self.law.cond_mean(ds.v)))) / (info * math.sqrt(ds.n))

    def _posterior_off(self, mean: float, var: float, ds) -> str | None:
        mean_o, var_o = self.theta_posterior(ds.u, ds.v, ds.y)
        var_err = var / var_o - 1.0
        mean_err = (mean - mean_o) / math.sqrt(var_o)
        if abs(var_err) > VAR_REL_TOL or abs(mean_err) > MEAN_SD_TOL:
            return f"variance off by {var_err:+.3e} (relative), mean off by {mean_err:+.3e} sd"
        return None

    def _missing_cells(self, rows: list[dict], reps: int, problems: list[str]) -> int:
        """Count cells missing from or duplicated in the rows; each counts as wrong."""
        expected = {(n, r) for n in self.ladder for r in range(reps)}
        seen = [(int(row["n"]), int(row["rep"])) for row in rows]
        bad = len(expected - set(seen)) + len(seen) - len(set(seen))
        if bad:
            problems.append(f"{bad} cells missing or duplicated")
        return bad

    def check_scan(self, report: dict, seeds: int) -> tuple[int, int, list[str]]:
        """(cells checked, cells wrong, problems) for a bvm_scan report."""
        rows = report["rows"]
        problems: list[str] = []
        missing = self._missing_cells(rows, seeds, problems)
        wrong = 0
        info = self.law.efficient_info
        for row in rows:
            n, seed = int(row["n"]), int(row["seed"])
            faults = []
            if seed != documented_cell_seed(self.master, n, int(row["rep"])):
                faults.append("seed breaks the splitmix64 contract")
            ds = self.data(n, seed)
            if abs(row["delta_n"] - self.delta_n(ds)) > DELTA_TOL * max(1.0, abs(row["delta_n"])):
                faults.append("delta_n differs")
            if row["info_tilde"] != info:
                faults.append("info_tilde differs")
            mean = self.theta0 + row["localized_post_mean"] / math.sqrt(n)
            off = self._posterior_off(mean, row["localized_post_var"] / n, ds)
            if off:
                faults.append(off)
            tv = tv_normals_closed(
                row["localized_post_mean"], row["localized_post_var"], row["delta_n"], 1.0 / row["info_tilde"]
            )
            if abs(row["tv_gap"] - tv) > TV_ABS_TOL:
                faults.append(f"tv_gap off by {row['tv_gap'] - tv:+.3e}")
            if faults:
                wrong += 1
                problems.append(f"n={n} rep={row['rep']}: " + "; ".join(faults))
        return len(rows) + missing, wrong + missing, problems

    def check_coverage(self, report: dict, replications: int) -> tuple[int, int, list[str]]:
        """(cells checked, cells wrong, problems) for a coverage report."""
        rows = report["rows"]
        problems: list[str] = []
        missing = self._missing_cells(rows, replications, problems)
        wrong = 0
        z = float(norm.ppf(0.5 * (1.0 + self.level)))
        for row in rows:
            n, seed = int(row["n"]), int(row["seed"])
            lo, hi = row["lo"], row["hi"]
            faults = []
            if seed != documented_cell_seed(self.master, n, int(row["rep"])):
                faults.append("seed breaks the splitmix64 contract")
            if row["covered"] != (lo <= self.theta0 <= hi):
                faults.append("covered flag disagrees with the interval")
            off = self._posterior_off(0.5 * (lo + hi), ((hi - lo) / (2.0 * z)) ** 2, self.data(n, seed))
            if off:
                faults.append(off)
            if faults:
                wrong += 1
                problems.append(f"n={n} rep={row['rep']}: " + "; ".join(faults))
        return len(rows) + missing, wrong + missing, problems

    def check_diagnostics(self, report: dict, n: int) -> tuple[int, int, list[str]]:
        """(checks made, checks failed, problems) for a diagnostics report."""
        checks: list[tuple[str, bool]] = [
            ("n echoes the request", report["n"] == n),
            ("seed follows the contract", report["seed"] == documented_cell_seed(self.master, n, 0)),
        ]
        for row in report["kl_neighborhood"]:
            checks.append((f"{row['probe']}: -E log r <= bound", row["neg_mean_log_ratio"] <= row["bound"]))
            checks.append((f"{row['probe']}: E (log r)^2 <= bound", row["mean_sq_log_ratio"] <= row["bound"]))
        for row in report["domination"]:
            est = np.asarray(row["estimates"], dtype=float)
            se = np.asarray(row["standard_errors"], dtype=float)
            ok = bool(np.all(np.isfinite(est)) and np.all(est > 0.0) and row["max"] == est.max())
            checks.append((f"{row['h']}: estimates finite, positive, max consistent", ok))
            if row["h"] == "h=1":
                # a fixed direction has likelihood-ratio expectation exactly 1
                ok = bool(np.all(np.abs(est - 1.0) <= SE_MULTIPLE * se))
                checks.append((f"h=1: estimates within {SE_MULTIPLE:g} SE of 1", ok))
        lan = report["lan_remainder"]
        residual = abs(lan["remainder"] - lan["identity_value"])
        checks.append(
            (
                "LAN remainder equals its identity",
                residual <= LAN_TOL * max(1.0, abs(lan["identity_value"]))
                and abs(lan["identity_residual"] - residual) <= 1e-15 + 1e-12 * residual,
            )
        )
        hell = report["hellinger_bound"]
        checks.append(("Hellinger^2 within its bound", 0.0 <= hell["hellinger_sq"] <= hell["bound"]))
        problems = [label for label, ok in checks if not ok]
        return len(checks), len(problems), problems
