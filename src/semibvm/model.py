"""Partial linear regression model: data generation, densities and scores.

The observation model is a triplet (U, V, Y) with

    Y = theta * U + eta(V) + e,        e ~ N(0, 1) independent of (U, V),

where theta is the scalar parameter of interest and eta is an unknown
regression function on [0, 1].  The covariate pair is fixed to the family

    V ~ Uniform[0, 1],   U = a * cos(2 pi V) + sigma_w * Z,   Z ~ N(0, 1),

standardised so that E[U] = 0 and E[U^2] = 1.  Under this family the
conditional mean m(v) = E[U | V = v] = a cos(2 pi v) is known in closed
form, which makes every efficiency quantity analytic: the efficient score
is e * (U - m(V)) and the efficient information is sigma_w^2.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401  numpy 2 imports it on first access; load it with the module

__all__ = [
    "CovariateLaw",
    "NuisanceFunction",
    "ModelPoint",
    "Dataset",
    "DatasetStack",
    "make_covariate_law",
    "sample_dataset",
    "sample_datasets",
    "log_density_ratio",
    "efficient_score",
    "efficient_information",
    "empirical_information",
    "uniform_grid",
    "interpolation_index",
    "interpolate",
    "interpolation_weights",
]


def uniform_grid(grid_size: int) -> np.ndarray:
    """Uniform grid j/(m-1), j = 0..m-1, on [0, 1]."""
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    return np.linspace(0.0, 1.0, grid_size)


def interpolation_index(v, grid_size: int):
    """(idx, t), each of v's shape: the cell of the uniform grid j/(m-1)
    holding each point v in [0, 1], idx = min(floor(v (m-1)), m-2) in
    closed form (v = 1 falls in the last cell), and its offset
    t = v (m-1) - idx in [0, 1]."""
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    v = np.asarray(v, dtype=float)
    if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):
        raise ValueError("interpolation points must lie in [0, 1]")
    x = v * (grid_size - 1)
    idx = np.minimum(x.astype(np.intp), grid_size - 2)
    return idx, x - idx


def interpolate(values: np.ndarray, v):
    """Linear interpolation at the points v of grid values along the last
    axis of `values`: shape values.shape[:-1] + v.shape."""
    idx, t = interpolation_index(v, values.shape[-1])
    return (1.0 - t) * values[..., idx] + t * values[..., idx + 1]


def interpolation_weights(v: np.ndarray, grid_size: int) -> np.ndarray:
    """(n, grid_size) matrix W, at most two nonzeros a row, with W @ values
    the :func:`interpolate` of the grid values at the n points v."""
    return interpolate(np.eye(grid_size), np.atleast_1d(v)).T


@dataclass(frozen=True)
class CovariateLaw:
    """Joint law of (U, V) with known conditional mean m(v) = a cos(2 pi v).

    Standardisation a^2/2 + sigma_w^2 = 1 is enforced, so E[U^2] = 1.
    Construct through :func:`make_covariate_law`.
    """

    cond_mean_amplitude: float
    residual_sd: float

    def __post_init__(self) -> None:
        if not (0.0 < self.residual_sd <= 1.0):
            raise ValueError(
                f"residual_sd must lie in (0, 1], got {self.residual_sd}"
            )
        if abs(self.cond_mean_amplitude**2 / 2.0 + self.residual_sd**2 - 1.0) > 1e-12:
            raise ValueError("law is not standardised to E[U^2] = 1")

    def cond_mean(self, v: np.ndarray | float) -> np.ndarray | float:
        """m(v) = E[U | V = v]."""
        return self.cond_mean_amplitude * np.cos(2.0 * np.pi * np.asarray(v))

    def sample_covariates(self, n: int, rng: np.random.Generator):
        """Draw n i.i.d. pairs (u, v)."""
        v = rng.uniform(0.0, 1.0, size=n)
        z = rng.standard_normal(n)
        u = self.cond_mean(v) + self.residual_sd * z
        return u, v

    @property
    def efficient_info(self) -> float:
        """E[(U - m(V))^2] = sigma_w^2."""
        return self.residual_sd**2

    @property
    def fourth_moment_u(self) -> float:
        """E[U^4], analytic: (3/8) a^4 + 3 a^2 sigma_w^2 + 3 sigma_w^4."""
        a2 = self.cond_mean_amplitude**2
        s2 = self.residual_sd**2
        return 0.375 * a2 * a2 + 3.0 * a2 * s2 + 3.0 * s2 * s2

    @property
    def abs_mean_cond_mean(self) -> float:
        """E|m(V)| = 2 a / pi."""
        return 2.0 * self.cond_mean_amplitude / math.pi


def make_covariate_law(residual_sd: float) -> CovariateLaw:
    """Build the standardised covariate law from the residual scale.

    residual_sd = 1 gives U independent of V (amplitude 0); values
    outside (0, 1] are rejected because either the efficient information
    would vanish or no standardising amplitude exists.
    """
    if residual_sd <= 0.0:
        raise ValueError("residual_sd must be positive (information would vanish)")
    if residual_sd > 1.0:
        raise ValueError("residual_sd must be <= 1 to allow E[U^2] = 1")
    amplitude = math.sqrt(2.0 * (1.0 - residual_sd**2))
    return CovariateLaw(cond_mean_amplitude=amplitude, residual_sd=residual_sd)


@dataclass(frozen=True)
class NuisanceFunction:
    """Regression function on [0, 1]: grid values with linear interpolation."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("values must be a 1-d array of length >= 2")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, f, grid_size: int) -> "NuisanceFunction":
        grid = uniform_grid(grid_size)
        return cls(np.asarray([f(t) for t in grid], dtype=float))

    @classmethod
    def zero(cls, grid_size: int) -> "NuisanceFunction":
        return cls(np.zeros(grid_size))

    @property
    def grid_size(self) -> int:
        return self.values.size

    @property
    def grid(self) -> np.ndarray:
        return uniform_grid(self.values.size)

    def __call__(self, v):
        return interpolate(self.values, v)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class ModelPoint:
    """A model point (theta, eta).  Noise standard deviation is fixed at 1."""

    theta: float
    eta: NuisanceFunction


@dataclass(frozen=True)
class Dataset:
    """n observed triplets; e keeps the true noise when simulated."""

    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    e: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        for name in ("u", "v", "y") + (() if self.e is None else ("e",)):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} entries must be finite")
            object.__setattr__(self, name, arr)
        if not (self.u.shape == self.v.shape == self.y.shape) or self.u.ndim != 1:
            raise ValueError("u, v, y must be 1-d arrays of equal length")
        if self.e is not None and self.e.shape != self.u.shape:
            raise ValueError("e must match the length of u, v, y")
        if self.v.size and (self.v.min() < 0.0 or self.v.max() > 1.0):
            raise ValueError("v entries must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class DatasetStack:
    """Simulated datasets of one size n, as the rows of (r, n) arrays."""

    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    e: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[1]

    def __getitem__(self, row: int) -> Dataset:
        return Dataset(u=self.u[row], v=self.v[row], y=self.y[row], e=self.e[row])


def sample_datasets(
    law: CovariateLaw, truth: ModelPoint, n: int, seeds: Sequence[int]
) -> DatasetStack:
    """Simulate one dataset of n i.i.d. triplets per seed, stacked as rows.

    Row i is fully determined by seeds[i] (draw order: v, z, e), whatever
    the other seeds are.  The realised noise is kept for score-based
    diagnostics.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    u, v, e = (np.empty((len(seeds), n)) for _ in range(3))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        u[row], v[row] = law.sample_covariates(n, rng)
        e[row] = rng.standard_normal(n)
    return DatasetStack(u=u, v=v, y=truth.theta * u + truth.eta(v) + e, e=e)


def sample_dataset(
    law: CovariateLaw, truth: ModelPoint, n: int, seed: int
) -> Dataset:
    """Simulate n i.i.d. triplets from the model at `truth`: row 0 of
    :func:`sample_datasets` for the one seed."""
    return sample_datasets(law, truth, n, [seed])[0]


def log_density_ratio(x, p: ModelPoint, p_ref: ModelPoint):
    """log p_{theta,eta}(x) - log p_{theta_ref,eta_ref}(x) for x = (u, v, y).

    Gaussian noise with unit variance, so only the squared residuals
    survive: -(y - theta u - eta(v))^2/2 + (y - theta_ref u - eta_ref(v))^2/2.
    Accepts scalars or arrays.
    """
    u, v, y = (np.asarray(c, dtype=float) for c in x)
    r = y - p.theta * u - p.eta(v)
    r_ref = y - p_ref.theta * u - p_ref.eta(v)
    return -0.5 * r**2 + 0.5 * r_ref**2


def efficient_score(x, law: CovariateLaw, truth: ModelPoint):
    """(y - theta0 u - eta0(v)) * (u - m(v)) for x = (u, v, y)."""
    u, v, y = (np.asarray(c, dtype=float) for c in x)
    resid = y - truth.theta * u - truth.eta(v)
    return resid * (u - law.cond_mean(v))


def efficient_information(law: CovariateLaw) -> float:
    """Analytic efficient information sigma_w^2."""
    return law.efficient_info


def empirical_information(ds: Dataset, law: CovariateLaw) -> float:
    """Sample analogue (1/n) sum (u_i - m(v_i))^2."""
    if ds.n == 0:
        raise ValueError("empirical information needs at least one observation")
    w = ds.u - law.cond_mean(ds.v)
    return float(np.mean(w**2))
