"""Posterior computation for the discretised partial linear model.

With the nuisance represented by its values on a uniform grid (entering
the likelihood through linear-interpolation weights), the model is a
finite Bayesian linear regression with unit noise variance:

    y_i = theta * u_i + w(v_i)' eta_grid + e_i.

A Gaussian N(0, tau^2) prior on theta (tau^2 = inf supported as a flat
limit) and the Gaussian process prior on eta_grid keep the joint
posterior exactly Gaussian.  A blocked Gibbs sampler over theta and
eta_grid provides the Monte Carlo cross-check for the closed form.

Every solve works in whitened coordinates eta_grid = L z, K = L L' the
cached prior factor, so the z-precision B = I + L'W'WL has every
eigenvalue >= 1 and is factorised without jitter; K is never inverted.
The data enter only through sufficient statistics gathered in O(n) from
the two interpolation indices of each point: u'u, u'y, W'u, W'y and the
tridiagonal W'W.  No n x m design is formed.  Every caller starts from
that one system: :func:`theta_posterior` reads the theta marginal off
one Cholesky factor of B bordered by the theta and y rows, the joint
factorises the (theta, z) precision assembled from it, and the Gibbs
sampler and the conditional nuisance draws factorise B once per call.

The theta marginal, the credible interval and the ball mass need numpy
and the standard library only; SciPy's triangular inverse is imported by
the joint, Gibbs and conditional-mass paths when they first run.

A Hoelder-ball restriction on the prior destroys conjugacy and is NOT
propagated here; :func:`conditioned_theta_marginal` gives a
rejection-reweighted estimate of its effect for diagnostic use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .gp_prior import (
    GpPriorSpec,
    NumericsError,
    cholesky_with_jitter,
    prior_covariance,
    prior_factor,
)
from .model import CovariateLaw, Dataset, ModelPoint, interpolation_index

__all__ = [
    "JointGaussianPosterior",
    "MarginalThetaPosterior",
    "GibbsChain",
    "theta_posterior",
    "conjugate_joint_posterior",
    "marginal_theta",
    "sample_joint_posterior",
    "gibbs_chain",
    "credible_interval",
    "posterior_mass_h_ball",
    "conditional_nuisance_mass",
    "conditioned_theta_marginal",
    "effective_sample_size",
]


@dataclass(frozen=True)
class JointGaussianPosterior:
    """Exact Gaussian posterior over (theta, eta-grid-values).

    Coordinate 0 is theta; the remaining coordinates are the grid values
    of the nuisance.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean and covariance dimensions are inconsistent")
        scale = max(1.0, float(np.abs(cov).max()))
        if not np.allclose(cov, cov.T, atol=1e-10 * scale, rtol=0.0):
            raise ValueError("covariance must be symmetric to 1e-10")
        cov = 0.5 * (cov + cov.T)
        cholesky_with_jitter(cov)  # must be factorisable
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def grid_size(self) -> int:
        return self.mean.size - 1


@dataclass(frozen=True)
class MarginalThetaPosterior:
    """Normal marginal posterior of theta."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not self.variance > 0.0:
            raise ValueError("variance must be strictly positive")

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class GibbsChain:
    """Blocked Gibbs output: one (theta, eta-values) state per iteration."""

    thetas: np.ndarray
    etas: np.ndarray
    iterations: int
    burn_in: int
    seed: int

    def __post_init__(self) -> None:
        if not (self.iterations > self.burn_in >= 0):
            raise ValueError("need iterations > burn_in >= 0")
        if self.thetas.shape != (self.iterations,):
            raise ValueError("thetas length must equal iterations")
        if self.etas.shape[0] != self.iterations:
            raise ValueError("etas row count must equal iterations")

    @property
    def theta_draws(self) -> np.ndarray:
        """Post-burn-in theta samples."""
        return self.thetas[self.burn_in :]

    @property
    def eta_draws(self) -> np.ndarray:
        return self.etas[self.burn_in :]


def _cholesky(precision: np.ndarray) -> np.ndarray:
    try:
        chol = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:
        raise NumericsError("whitened posterior precision is not positive definite") from exc
    if not np.isfinite(chol).all():  # np.linalg.cholesky lets NaN through
        raise NumericsError("whitened posterior precision is not finite")
    return chol


def _inverse_lower(chol: np.ndarray) -> np.ndarray:
    from scipy.linalg.lapack import dtrtri

    inverse, info = dtrtri(chol, lower=1)
    if info != 0:
        raise NumericsError("whitened posterior factor is singular")
    return inverse


def _normal_cdf(x: float) -> float:
    """Standard normal CDF; erfc keeps the lower tail's relative precision."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _prior_precision(theta_prior_var: float) -> float:
    if not theta_prior_var > 0.0:
        raise ValueError("theta_prior_var must be positive (math.inf allowed)")
    return 0.0 if math.isinf(theta_prior_var) else 1.0 / theta_prior_var


def _sufficient_statistics(ds: Dataset, grid_size: int):
    """(diag, off, W'u, W'y): W'W is tridiagonal with diagonal `diag` and
    off-diagonal `off`.  Each point loads two neighbouring grid nodes, so
    every statistic is a bincount over the two indices: O(n), no n x m
    array."""
    idx, t = interpolation_index(ds.v, grid_size)
    s = 1.0 - t

    def scatter(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return np.bincount(idx, left, minlength=grid_size) + np.bincount(
            idx + 1, right, minlength=grid_size
        )

    off = np.bincount(idx, s * t, minlength=grid_size - 1)
    return scatter(s * s, t * t), off, scatter(s * ds.u, t * ds.u), scatter(s * ds.y, t * ds.y)


class _Whitened(NamedTuple):
    """The data reduced to the whitened coordinates z = L^{-1} eta."""

    factor: np.ndarray  # prior factor L, K = L L'
    precision: np.ndarray  # B = I + L'W'WL, the z-precision given theta
    wu: np.ndarray  # W'u
    load_u: np.ndarray  # L'W'u
    load_y: np.ndarray  # L'W'y
    uu: float
    uy: float


def _whiten(ds: Dataset, spec: GpPriorSpec) -> _Whitened:
    factor = prior_factor(spec)
    diag, off, wu, wy = _sufficient_statistics(ds, spec.grid_size)
    loaded = diag[:, None] * factor  # (W'W) L from the three diagonals of W'W
    loaded[:-1] += off[:, None] * factor[1:]
    loaded[1:] += off[:, None] * factor[:-1]
    precision = factor.T @ loaded
    precision.flat[:: spec.grid_size + 1] += 1.0
    return _Whitened(
        factor=factor,
        precision=precision,
        wu=wu,
        load_u=factor.T @ wu,
        load_y=factor.T @ wy,
        uu=float(ds.u @ ds.u),
        uy=float(ds.u @ ds.y),
    )


def _nuisance_conditional(system: _Whitened):
    """draw(theta, normals) -> eta | theta, data for normals of shape (m,)
    or (draws, m).  z | theta ~ N(B^{-1} L'W'(y - theta u), B^{-1}) with
    B^{-1} = C^{-T} C^{-1}, so both mean pieces and the noise map are
    computed once."""
    inv_chol = _inverse_lower(_cholesky(system.precision))
    mean_y = inv_chol.T @ (inv_chol @ system.load_y)
    mean_u = inv_chol.T @ (inv_chol @ system.load_u)

    def draw(theta: float, normals: np.ndarray) -> np.ndarray:
        z = mean_y - theta * mean_u + normals @ inv_chol
        return z @ system.factor.T

    return draw


def theta_posterior(
    ds: Dataset, spec: GpPriorSpec, theta_prior_var: float = 10.0
) -> MarginalThetaPosterior:
    """Exact marginal posterior of theta, without the joint.

    Same prior as :func:`conjugate_joint_posterior`.  The nuisance is
    eliminated by one Cholesky factorisation of the bordered matrix

        [[B,        L'W'u,          L'W'y  ],
         [(L'W'u)', u'u + 1/tau^2,  u'y    ],
         [(L'W'y)', u'y,            y'y + 1]]

    with B = I + L'W'WL.  Its theta pivot s is the square root of the
    Schur complement of B, so the precision is s^2; the theta entry r of
    the y row is (u'y - g'h) / s with g, h the solves of B's factor
    against L'W'u and L'W'y, so the mean is r / s.  The + 1 keeps the
    last pivot >= 1 and changes no other entry.  NumericsError if the
    precision is not positive (e.g. a flat theta prior with u = 0).
    """
    prior_precision = _prior_precision(theta_prior_var)
    if ds.n == 0:
        if math.isinf(theta_prior_var):
            raise ValueError("flat theta prior with no data is improper")
        return MarginalThetaPosterior(mean=0.0, variance=float(theta_prior_var))
    system = _whiten(ds, spec)
    m = spec.grid_size
    bordered = np.empty((m + 2, m + 2))
    bordered[:m, :m] = system.precision
    bordered[:m, m] = bordered[m, :m] = system.load_u
    bordered[:m, m + 1] = bordered[m + 1, :m] = system.load_y
    bordered[m, m] = system.uu + prior_precision
    bordered[m, m + 1] = bordered[m + 1, m] = system.uy
    bordered[m + 1, m + 1] = float(ds.y @ ds.y) + 1.0
    chol = _cholesky(bordered)
    pivot = float(chol[m, m])
    return MarginalThetaPosterior(
        mean=float(chol[m + 1, m]) / pivot, variance=1.0 / pivot**2
    )


def conjugate_joint_posterior(
    ds: Dataset, spec: GpPriorSpec, theta_prior_var: float = 10.0
) -> JointGaussianPosterior:
    """Exact joint posterior for (theta, eta-grid-values).

    Prior: theta ~ N(0, theta_prior_var) independent of eta_grid ~
    N(0, scale^2 K).  `theta_prior_var = math.inf` selects the flat
    limit (zero prior precision on theta).  With no data the posterior
    is the prior.  The (theta, z) precision [[u'u + 1/tau^2, (L'W'u)'],
    [L'W'u, B]] is factorised, inverted as a triangle and mapped back by
    block_diag(1, L); NumericsError if it is singular (e.g. a flat theta
    prior with u = 0).
    """
    prior_precision = _prior_precision(theta_prior_var)
    m = spec.grid_size
    if ds.n == 0:
        if math.isinf(theta_prior_var):
            raise ValueError("flat theta prior with no data is improper")
        cov = np.zeros((m + 1, m + 1))
        cov[0, 0] = theta_prior_var
        cov[1:, 1:] = prior_covariance(spec).matrix
        return JointGaussianPosterior(mean=np.zeros(m + 1), covariance=cov)

    system = _whiten(ds, spec)
    precision = np.empty((m + 1, m + 1))
    precision[0, 0] = system.uu + prior_precision
    precision[0, 1:] = precision[1:, 0] = system.load_u
    precision[1:, 1:] = system.precision
    inv_chol = _inverse_lower(_cholesky(precision))
    latent_mean = inv_chol.T @ (inv_chol @ np.concatenate([[system.uy], system.load_y]))
    root = inv_chol.copy()  # C^{-1} block_diag(1, L')
    root[:, 1:] = inv_chol[:, 1:] @ system.factor.T
    mean = np.concatenate([latent_mean[:1], system.factor @ latent_mean[1:]])
    return JointGaussianPosterior(mean=mean, covariance=root.T @ root)


def marginal_theta(jp: JointGaussianPosterior) -> MarginalThetaPosterior:
    """Coordinate-0 marginal of the joint Gaussian posterior."""
    return MarginalThetaPosterior(
        mean=float(jp.mean[0]), variance=float(jp.covariance[0, 0])
    )


def sample_joint_posterior(
    jp: JointGaussianPosterior, size: int, seed: int
) -> np.ndarray:
    """Exact draws from the joint posterior, shape (size, dim)."""
    factor = cholesky_with_jitter(jp.covariance)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((size, jp.mean.size))
    return jp.mean[None, :] + z @ factor.T


def gibbs_chain(
    ds: Dataset,
    spec: GpPriorSpec,
    theta_prior_var: float,
    iterations: int,
    burn_in: int,
    seed: int,
) -> GibbsChain:
    """Blocked Gibbs sampler alternating exact conditional draws.

    theta | eta, data is univariate normal with mean (u'y - (W'u)'eta) /
    precision, O(m) per step; eta | theta, data is multivariate normal
    with a theta-independent precision, so its factor is computed once.
    Deterministic in `seed`.
    """
    if not (iterations > burn_in >= 0):
        raise ValueError("need iterations > burn_in >= 0")
    prior_precision = _prior_precision(theta_prior_var)
    m = spec.grid_size
    system = _whiten(ds, spec)
    draw_eta = _nuisance_conditional(system)

    theta_precision = system.uu + prior_precision
    if not theta_precision > 0.0:
        raise NumericsError("theta conditional has zero precision")
    theta_sd = 1.0 / math.sqrt(theta_precision)

    rng = np.random.default_rng(seed)
    thetas = np.empty(iterations)
    etas = np.empty((iterations, m))
    eta = np.zeros(m)
    for it in range(iterations):
        theta_mean = (system.uy - system.wu @ eta) / theta_precision
        theta = theta_mean + theta_sd * rng.standard_normal()
        eta = draw_eta(theta, rng.standard_normal(m))
        thetas[it] = theta
        etas[it] = eta
    return GibbsChain(
        thetas=thetas, etas=etas, iterations=iterations, burn_in=burn_in, seed=seed
    )


def credible_interval(mp: MarginalThetaPosterior, level: float) -> tuple[float, float]:
    """Equal-tailed interval mean +- z_{(1+level)/2} * sd."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    return (mp.mean - z * mp.sd, mp.mean + z * mp.sd)


def posterior_mass_h_ball(
    mp: MarginalThetaPosterior, theta0: float, M_n: float, n: int
) -> float:
    """Posterior mass of {|sqrt(n)(theta - theta0)| <= M_n}."""
    if M_n < 0.0:
        raise ValueError("M_n must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    half = M_n / math.sqrt(n)
    lo = (theta0 - half - mp.mean) / mp.sd
    hi = (theta0 + half - mp.mean) / mp.sd
    return _normal_cdf(hi) - _normal_cdf(lo)


def conditional_nuisance_mass(
    ds: Dataset,
    spec: GpPriorSpec,
    theta_fixed: float,
    truth: ModelPoint,
    law: CovariateLaw,
    rho: float,
    draws: int,
    seed: int,
    hellinger_draws: int = 4000,
) -> float:
    """Posterior mass outside the Hellinger ball around the KL-optimal curve.

    Samples the exact Gaussian conditional posterior of the nuisance
    given theta = theta_fixed, and returns the fraction of draws whose
    Hellinger distance to the KL-minimising nuisance at theta_fixed is
    >= rho.  Distances use one covariate Monte Carlo sample shared by
    all draws, so the result is deterministic in `seed`.
    """
    from .asymptotics import hellinger_from_shift, least_favorable_eta

    if not rho > 0.0:
        raise ValueError("rho must be positive")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = np.random.default_rng(seed)
    _, v_shared = law.sample_covariates(hellinger_draws, rng)

    draw_eta = _nuisance_conditional(_whiten(ds, spec))
    eta_draws = draw_eta(theta_fixed, rng.standard_normal((draws, spec.grid_size)))

    idx, t = interpolation_index(v_shared, spec.grid_size)
    eta_shared = (1.0 - t) * eta_draws[:, idx] + t * eta_draws[:, idx + 1]
    target = least_favorable_eta(theta_fixed, truth, law)
    shift = eta_shared - target(v_shared)[None, :]
    distances = hellinger_from_shift(shift)
    return float(np.mean(distances >= rho))


def conditioned_theta_marginal(
    jp: JointGaussianPosterior, spec: GpPriorSpec, draws: int, seed: int
) -> tuple[float, float, float]:
    """Theta marginal under the Hoelder-ball-restricted prior, by rejection.

    The restricted-prior posterior equals the unrestricted posterior
    conditioned on the ball event, so joint draws are filtered on
    sup norm + seminorm < holder_bound.  Returns (mean, variance,
    acceptance fraction).  Diagnostic only; no equivalence with the
    unrestricted marginal is asserted.
    """
    from .gp_prior import _ball_norm

    if not spec.conditioned:
        raise ValueError("spec carries no Hoelder ball to condition on")
    if draws < 2:
        raise ValueError("need draws >= 2")
    samples = sample_joint_posterior(jp, draws, seed)
    keep = np.array(
        [_ball_norm(row[1:], spec.holder_alpha) < spec.holder_bound for row in samples]
    )
    if keep.sum() < 2:
        raise ValueError("fewer than 2 draws landed in the Hoelder ball")
    kept = samples[keep, 0]
    return float(kept.mean()), float(kept.var(ddof=1)), float(keep.mean())


def effective_sample_size(x: np.ndarray) -> float:
    """ESS from the autocorrelation sum truncated at the first negative lag."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        return float(n)
    centered = x - x.mean()
    var = centered @ centered / n
    if var == 0.0:
        return float(n)
    fft = np.fft.fft(centered, n=2 * n)
    acf = np.fft.ifft(fft * np.conj(fft)).real[:n] / (n * var)
    tau = 1.0
    for lag in range(1, n):
        if acf[lag] < 0.0:
            break
        tau += 2.0 * acf[lag]
    return n / tau
