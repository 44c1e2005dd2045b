"""Gaussian nuisance prior: random polynomial start plus k-fold integrated
Brownian motion, discretised to a covariance matrix on a uniform grid.

The process is

    eta(t) = sum_{i=0}^{k} Z_i t^i / i!  +  (I_{0+}^k W)(t),

with W standard Brownian motion on [0, 1] and Z_i i.i.d. standard normal,
independent of W.  Its covariance function is

    c_k(s, t) = sum_{i=0}^{k} (s t)^i / (i!)^2
                + int_0^{min(s,t)} (s-x)^k (t-x)^k / (k!)^2 dx,

which this module evaluates in closed form, as O(k) nonnegative terms in
which no digit cancels; the scalar kernel and the grid covariance share
that one elementwise evaluation.  The discretised covariance
K is factorised once per spec by :func:`prior_factor`: a plain Cholesky
where K is numerically positive definite, else an exact eigen square
root, so every posterior runs on K itself and never on K plus a jitter.
Sample paths have smoothness k + 1/2.  A spec is the unrestricted prior
and nothing else; a Hoelder-ball restriction (sup norm plus Hoelder
seminorm below a bound) is a keyword of :func:`sample_prior_path`, which
applies it by rejection, so no posterior can be handed a ball it ignores.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    _MASK64,
    NuisanceFunction,
    _check_integer,
    _check_real,
    _store_finite,
    uniform_grid,
)

__all__ = [
    "GpPriorSpec",
    "PriorCovariance",
    "NumericsError",
    "kibm_kernel",
    "prior_covariance",
    "prior_factor",
    "sample_prior_path",
    "holder_seminorm",
]


class NumericsError(RuntimeError):
    """A posterior precision is not finite and positive definite."""


# c_k divides by (k!)^2 as a float: 98!^2 is about 9e307, 99!^2 overflows
_MAX_ORDER = 98


@dataclass(frozen=True)
class GpPriorSpec:
    """Prior configuration: integration order, grid and scale, the values
    that determine K.

    `scale` multiplies the standard deviation of the process; it must be
    positive with K's largest entry, scale^2 * c_k(1, 1), finite and
    nonzero.
    """

    k: int = 1
    grid_size: int = 50
    scale: float = 3.0

    def __post_init__(self) -> None:
        _check_integer("integration order k", self.k, 0, _MAX_ORDER)
        _check_integer("grid_size", self.grid_size, 2)
        scale = _check_real("scale", self.scale, gt=0)
        if not 0.0 < scale * scale * kibm_kernel(1.0, 1.0, self.k) < math.inf:
            raise ValueError(
                "scale must be positive with K's largest entry, scale^2 * c_k(1, 1), "
                f"finite and nonzero, got {self.scale}"
            )


@dataclass(frozen=True, eq=False)
class PriorCovariance:
    """Symmetric covariance matrix on the grid.

    Positive semidefiniteness is checked where the matrix is factorised,
    once per spec, by :func:`prior_factor`.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        _store_finite(self, ("matrix",))  # first: np.allclose takes inf as close to inf
        matrix = self.matrix.copy()
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if not np.allclose(matrix, matrix.T, atol=1e-12, rtol=0.0):
            raise ValueError("covariance must be symmetric to 1e-12")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)


def _kibm(s, t, k: int):
    """c_k(s, t) elementwise on broadcast arrays, as sums of nonnegative
    terms: with lo = min(s, t) and hi = max(s, t), x -> lo - x turns the
    integral part into

        sum_j C(k,j) (hi - lo)^(k-j) lo^(k+j+1) / (k+j+1) / (k!)^2,

    so no digit cancels at any order.  min, max and s t commute, so
    c_k(s, t) and c_k(t, s) take the same steps and agree bit for bit.
    """
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    st, gap = s * t, hi - lo
    poly = sum(st**i / math.factorial(i) ** 2 for i in range(k + 1))
    integral = sum(
        math.comb(k, j) * gap ** (k - j) * lo ** (k + j + 1) / (k + j + 1) for j in range(k + 1)
    )
    return poly + integral / math.factorial(k) ** 2


def kibm_kernel(s: float, t: float, k: int) -> float:
    """Covariance c_k(s, t) of the randomly-started k-fold integrated BM,
    in the closed form of :func:`_kibm`."""
    s, t = _check_real("s", s, ge=0, le=1), _check_real("t", t, ge=0, le=1)
    k = _check_integer("integration order k", k, 0, _MAX_ORDER)
    return float(_kibm(s, t, k))


def prior_covariance(spec: GpPriorSpec) -> PriorCovariance:
    """scale^2 * c_k(g_i, g_j) on the uniform grid, exactly symmetric."""
    grid = uniform_grid(spec.grid_size)
    return PriorCovariance(matrix=spec.scale**2 * _kibm(grid[:, None], grid[None, :], spec.k))


@functools.lru_cache(maxsize=8)
def prior_factor(spec: GpPriorSpec) -> np.ndarray:
    """Read-only square root L of K, K = L L': the one place the prior is
    factorised, cached per spec so every caller shares one array.

    L is the lower Cholesky factor when a plain Cholesky succeeds, which
    proves K positive definite.  Otherwise (k >= 3, or a fine grid at
    k = 2, where K is singular to rounding) L = Q diag(sqrt(max(lam, 0)))
    from the eigendecomposition K = Q diag(lam) Q', which reproduces K to
    rounding with no jitter; ValueError if K is not PSD to
    -1e-10 * trace.
    """
    matrix = prior_covariance(spec).matrix
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        lam, vectors = np.linalg.eigh(matrix)
        if lam[0] < -1e-10 * np.trace(matrix):
            raise ValueError(f"covariance is not PSD (min eigenvalue {lam[0]:g})") from None
        factor = vectors * np.sqrt(np.maximum(lam, 0.0))
    factor.flags.writeable = False
    return factor


def holder_seminorm(eta: NuisanceFunction, alpha: float) -> float:
    """Discrete Hoelder seminorm: max over grid pairs of |d eta| / |d t|^alpha.

    Converges to the continuum seminorm from below as the grid refines.
    """
    alpha = _check_real("alpha", alpha, gt=0, le=1)
    grid = eta.grid
    values = eta.values
    dt = np.abs(grid[:, None] - grid[None, :])
    dv = np.abs(values[:, None] - values[None, :])
    off = ~np.eye(grid.size, dtype=bool)
    return float(np.max(dv[off] / dt[off] ** alpha))


def sample_prior_path(
    spec: GpPriorSpec,
    seed: int,
    max_attempts: int = 100_000,
    *,
    ball: tuple[float, float] | None = None,
) -> NuisanceFunction:
    """Draw one path from the discretised prior, restricted to a Hoelder
    ball when `ball` = (alpha, bound) is given.

    Deterministic in `seed`, which must lie in [0, 2^64).  With a ball,
    draws are rejected until sup norm + alpha-seminorm < bound (bound > 0,
    alpha in (0, 1]); exceeding `max_attempts` raises ValueError (bound
    too small for the chosen order and exponent).
    """
    seed = _check_integer("seed", seed, 0, _MASK64)
    max_attempts = _check_integer("max_attempts", max_attempts, 1)
    if ball is not None:
        alpha, bound = ball
        alpha, bound = _check_real("alpha", alpha, gt=0, le=1), _check_real("bound", bound, gt=0)
    factor = prior_factor(spec)
    rng = np.random.default_rng(seed)
    if ball is None:
        return NuisanceFunction(factor @ rng.standard_normal(spec.grid_size))
    for _ in range(max_attempts):
        path = NuisanceFunction(factor @ rng.standard_normal(spec.grid_size))
        if path.sup_norm() + holder_seminorm(path, alpha) < bound:
            return path
    raise ValueError(
        f"rejection sampler exceeded {max_attempts} attempts; "
        f"ball bound={bound} is too small for k={spec.k}, "
        f"alpha={alpha}, scale={spec.scale}"
    )
