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
import operator
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


def _check_integer(name: str, value) -> int:
    """operator.index(value), or ValueError naming `name` (2.0 included)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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

    sigma_w = residual_sd is the law's one free number: the amplitude
    a = sqrt(2 (1 - sigma_w^2)) follows from the standardisation
    a^2/2 + sigma_w^2 = 1, so E[U^2] = 1.
    """

    residual_sd: float

    def __post_init__(self) -> None:
        sd = self.residual_sd
        if not (0.0 < sd <= 1.0):  # a NaN fails too
            reason = (
                "must be <= 1 to allow E[U^2] = 1"
                if sd > 1.0
                else "must be positive (information would vanish)"
            )
            raise ValueError(f"residual_sd {reason}, got {sd}")
        info = self.efficient_info  # below sd of about 2^-512, 1/info overflows
        if not (info > 0.0 and 1.0 / info < math.inf):
            raise ValueError(f"residual_sd must have a finite 1/residual_sd^2, got {sd}")

    @property
    def cond_mean_amplitude(self) -> float:
        """a = sqrt(2 (1 - sigma_w^2))."""
        return math.sqrt(2.0 * (1.0 - self.residual_sd**2))

    def cond_mean(self, v: np.ndarray | float) -> np.ndarray | float:
        """m(v) = E[U | V = v]."""
        return self.cond_mean_amplitude * np.cos(2.0 * np.pi * np.asarray(v))

    def covariate_u(self, v: np.ndarray, z: np.ndarray) -> np.ndarray:
        """u = m(v) + sigma_w z, the covariate U of the uniform draws v and
        the standard normals z."""
        return self.cond_mean(v) + self.residual_sd * z

    def sample_covariates(self, n: int, rng: np.random.Generator):
        """Draw n i.i.d. pairs (u, v): v ~ Uniform[0, 1] first, then the
        n normals z of :meth:`covariate_u`."""
        v = rng.uniform(0.0, 1.0, size=n)
        return self.covariate_u(v, rng.standard_normal(n)), v

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
    return CovariateLaw(residual_sd=residual_sd)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class ModelPoint:
    """A model point (theta, eta).  Noise standard deviation is fixed at 1."""

    theta: float
    eta: NuisanceFunction


def _store_finite(obj, names: Sequence[str]) -> None:
    """Store each named field of a frozen dataclass as a float array;
    ValueError names the first with a non-finite entry."""
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} entries must be finite")
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class Dataset:
    """n observed triplets; a simulated one keeps its provenance, the
    drawn noise e and covariate residual w = u - m(v), both or neither."""

    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    e: np.ndarray | None = field(default=None)
    w: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        if (self.e is None) != (self.w is None):
            raise ValueError("e and w must be given together")
        _store_finite(self, ("u", "v", "y") + (() if self.e is None else ("e", "w")))
        if not (self.u.shape == self.v.shape == self.y.shape) or self.u.ndim != 1:
            raise ValueError("u, v, y must be 1-d arrays of equal length")
        if self.e is not None and not (self.e.shape == self.w.shape == self.u.shape):
            raise ValueError("e and w must match the length of u, v, y")
        if self.v.size and (self.v.min() < 0.0 or self.v.max() > 1.0):
            raise ValueError("v entries must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.u.size


@dataclass(frozen=True, eq=False)
class DatasetStack:
    """Simulated datasets of one size n, as the rows of (r, n) arrays,
    each with its provenance e and w."""

    u: np.ndarray
    v: np.ndarray
    y: np.ndarray
    e: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        _store_finite(self, ("u", "v", "y", "e", "w"))

    @property
    def n(self) -> int:
        return self.u.shape[1]

    def __getitem__(self, row: int) -> Dataset:
        return Dataset(u=self.u[row], v=self.v[row], y=self.y[row], e=self.e[row], w=self.w[row])


def sample_datasets(
    law: CovariateLaw, truth: ModelPoint, n: int, seeds: Sequence[int]
) -> DatasetStack:
    """Simulate one dataset of n i.i.d. triplets per seed, stacked as rows.

    Row i is fully determined by seeds[i], whatever the other seeds are:
    default_rng(seeds[i]) draws n uniforms v, then n normals z, then the
    n noises e; w = sigma_w z and u = m(v) + w, bit for bit
    :meth:`CovariateLaw.covariate_u`, and y = theta u + eta(v) + e.  Per
    row only the generator runs; w, u and y are formed once for the whole
    stack.  The drawn e and w are kept for score-based diagnostics: u - m(v)
    loses w's digits to m(v) as sigma_w shrinks.
    """
    if _check_integer("n", n) < 0:
        raise ValueError("n must be >= 0")
    v, w, e = (np.empty((len(seeds), n)) for _ in range(3))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.random(out=v[row])  # uniform(0, 1) bit for bit: 0 + 1 x = x
        rng.standard_normal(out=w[row])  # z, scaled to w below
        rng.standard_normal(out=e[row])
    w *= law.residual_sd
    u = law.cond_mean(v) + w
    with np.errstate(over="ignore"):  # DatasetStack rejects an overflowed y
        y = truth.theta * u + truth.eta(v) + e
    return DatasetStack(u=u, v=v, y=y, e=e, w=w)


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
