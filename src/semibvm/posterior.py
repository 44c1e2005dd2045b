"""Posterior computation for the discretised partial linear model.

With the nuisance represented by its values on a uniform grid j/(m-1),
the model is a finite Bayesian linear regression with unit noise
variance:

    y_i = theta * u_i + w(v_i)' eta_grid + e_i.

w(v) is the one interpolation rule of :mod:`semibvm.model`, which the
simulator shares: 1 - t and t on the nodes of the cell min(floor(v (m-1)),
m-2), found in closed form, with t = v (m-1) - cell.

A Gaussian N(0, tau^2) prior on theta (tau^2 = inf supported as a flat
limit) and the Gaussian process prior on eta_grid keep the joint
posterior exactly Gaussian.  A blocked Gibbs sampler over theta and
eta_grid provides the Monte Carlo cross-check for the closed form.

Every posterior is a view of one linear system S, written only by
:func:`_assemble` from the sufficient statistics of :func:`_statistics`
(u'u, u'y, y'y, W'u, W'y and the tridiagonal W'W, gathered in O(n) from
the two interpolation indices of each point; no n x m design) and any
m x r square root L of K = L L'.  Each public function takes the cached
:func:`semibvm.gp_prior.prior_factor` of its spec once and sizes all
below from it.  In whitened coordinates eta_grid = L z, S is the
(r+2)x(r+2) matrix ordered (z, theta, y); its z block B = I + L'W'WL has
every eigenvalue >= 1 and is factorised without jitter, and K is never
inverted.  A stack's z blocks are built by two stacked GEMMs, L' times
((W'W) L) with W'W written as a dense tridiagonal m x m array, so the
assembly is BLAS-3 work rather than elementwise passes over m x r
arrays.  :func:`theta_posteriors` gathers the statistics of many
equal-size datasets at once and reads their theta marginals off the
pivots of stacked chol(S), assembled and factorised in sub-stacks, and
:func:`theta_posterior` is its stack of one.  :func:`_solve` factorises
a single dataset's S: the joint reads its mean and covariance root off
that chol(S), and the Gibbs sampler and the conditional nuisance draws
read z | theta off it.  An empty dataset takes the same path, as S =
diag(I, 1/tau^2, 1) is the prior's system.  The package needs numpy and
the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

# prior_covariance is bound here, uncalled, for perfbench's tracer
from .gp_prior import GpPriorSpec, NumericsError, prior_covariance, prior_factor  # noqa: F401
from .model import (
    _MASK64,
    CovariateLaw,
    Dataset,
    ModelPoint,
    _check_integer,
    _check_real,
    _stack_rows,
    _store_finite,
    interpolation_index,
)

__all__ = [
    "JointGaussianPosterior",
    "MarginalThetaPosterior",
    "GibbsChain",
    "theta_posterior",
    "theta_posteriors",
    "conjugate_joint_posterior",
    "gibbs_chain",
    "credible_interval",
    "credible_bounds",
    "posterior_mass_h_ball",
    "conditional_nuisance_mass",
    "effective_sample_size",
]


@dataclass(frozen=True, eq=False)
class JointGaussianPosterior:
    """Exact Gaussian posterior over (theta, eta-grid-values), held as its
    mean and the square root the engine built.

    Coordinate 0 is theta; the remaining coordinates are the grid values
    of the nuisance.  `root` has one row per coordinate of the engine's
    (z, theta) order, z the prior factor's columns, and covariance =
    root' root; mean + z root, z standard normal, is an exact draw.
    """

    mean: np.ndarray
    root: np.ndarray

    def __post_init__(self) -> None:
        _store_finite(self, ("mean", "root"))
        mean, root = self.mean, self.root
        if mean.ndim != 1 or root.ndim != 2 or root.shape[1] != mean.size:
            raise ValueError("mean and root dimensions are inconsistent")

    @property
    def covariance(self) -> np.ndarray:
        """root' root, symmetrised; computed on each read."""
        cov = self.root.T @ self.root
        return 0.5 * (cov + cov.T)


@dataclass(frozen=True)
class MarginalThetaPosterior:
    """Normal marginal posterior of theta."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        _check_real("mean", self.mean)
        _check_real("variance", self.variance, gt=0)

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True, eq=False)
class GibbsChain:
    """Blocked Gibbs output: one (theta, eta-values) state per iteration."""

    thetas: np.ndarray
    etas: np.ndarray
    iterations: int
    burn_in: int
    seed: int

    def __post_init__(self) -> None:
        _check_integer("burn_in", self.burn_in, 0)
        _check_integer("iterations", self.iterations, self.burn_in + 1)
        if self.thetas.shape != (self.iterations,):
            raise ValueError("thetas length must equal iterations")
        if self.etas.shape[0] != self.iterations:
            raise ValueError("etas row count must equal iterations")

    @property
    def theta_draws(self) -> np.ndarray:
        """Post-burn-in theta samples."""
        return self.thetas[self.burn_in :]


class StackNumericsError(NumericsError):
    """A NumericsError raised for one system of a stack; `index` is its
    position in the stack."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


def _cholesky_stack(systems: np.ndarray) -> np.ndarray:
    """Factors of a stack of systems in one np.linalg.cholesky call.  If
    any fails, each is factorised alone to name the first that does, as
    StackNumericsError; a single system is a stack of one."""
    try:
        chol = np.linalg.cholesky(systems)
        if np.isfinite(chol).all():
            return chol
    except np.linalg.LinAlgError:
        pass
    for index, system in enumerate(systems):
        try:
            if np.isfinite(np.linalg.cholesky(system)).all():
                continue
        except np.linalg.LinAlgError as exc:
            if np.isfinite(system).all():
                raise StackNumericsError(
                    index, "whitened posterior precision is not positive definite"
                ) from exc
        # a non-finite system, or a factor np.linalg.cholesky let NaN into
        raise StackNumericsError(index, "whitened posterior precision is not finite")
    raise NumericsError("stacked Cholesky failed on no single system")


def _inverse_lower(chol: np.ndarray) -> np.ndarray:
    """Inverse of a lower Cholesky factor; the LU inverse's rounding above
    the diagonal is cut off, so the result is exactly lower triangular."""
    return np.tril(np.linalg.inv(chol))


def _normal_cdf(x: float) -> float:
    """Standard normal CDF; erfc keeps the lower tail's relative precision."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _normal_mass(a: float, b: float) -> float:
    """Standard normal mass of [a, b], a <= b: an interval right of 0
    takes Phi(-a) - Phi(-b), so its upper tail keeps its precision."""
    if a > 0.0:
        return _normal_cdf(-a) - _normal_cdf(-b)
    return _normal_cdf(b) - _normal_cdf(a)


def _prior_precision(variance: float, name: str = "theta_prior_var") -> float:
    """1/variance of a theta prior: 0 for the flat limit variance = inf;
    ValueError naming `name` unless variance > 0 and 1/variance is finite."""
    if not (variance > 0.0 and 1.0 / variance < math.inf):  # a NaN fails too
        raise ValueError(
            f"{name} must be positive with a finite reciprocal (inf allowed), got {variance}"
        )
    return 1.0 / variance


def _theta_precision(theta_prior_var: float, n: int) -> float:
    """:func:`_prior_precision` for datasets of n points; ValueError if a
    flat prior and no data make the posterior improper."""
    if _prior_precision(theta_prior_var) == 0.0 and n == 0:
        raise ValueError("flat theta prior with no data is improper")
    return 1.0 / theta_prior_var


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i for each row i of two (rows, n) arrays, whatever the others."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


@np.errstate(over="ignore", invalid="ignore")  # _cholesky_stack names a non-finite S
def _statistics(data: Dataset, grid_size: int):
    """(diag, off, W'u, W'y, u'u, u'y, y'y) of the datasets in the rows of
    the (rows, n) stack `data`, one row each: W'W is tridiagonal with diagonal
    `diag` and off-diagonal `off`.  Each point loads two neighbouring grid
    nodes, so the W statistics of every row come from one bincount per
    weight, node j of row i in bin i*m + j: O(rows n), no n x m array.  Each
    bin sums its row's points in order, and the dot products run row by
    row, so a row's statistics do not depend on the other rows."""
    u, y = data.u, data.y
    rows, m = u.shape[0], grid_size
    idx, t = interpolation_index(data.v, m)
    s = 1.0 - t
    left = (idx + m * np.arange(rows)[:, None]).ravel()
    right = left + 1

    def gather(bins: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.bincount(bins, weights.ravel(), minlength=rows * m).reshape(rows, m)

    def scatter(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return gather(left, a) + gather(right, b)

    return (
        scatter(s * s, t * t),
        gather(left, s * t)[:, :-1],
        scatter(s * u, t * u),
        scatter(s * y, t * y),
        _row_dots(u, u),
        _row_dots(u, y),
        _row_dots(y, y),
    )


@np.errstate(over="ignore", invalid="ignore")  # _cholesky_stack names a non-finite S
def _assemble(stats: tuple, factor: np.ndarray, prior_precision: float) -> np.ndarray:
    """One posterior system per dataset of `stats` (from
    :func:`_statistics`), stacked (rows, r+2, r+2) and ordered (z, theta,
    y), for any m x r square root L of K = L L':

        S = [[B,        L'W'u,                 L'W'y  ],
             [(L'W'u)', u'u + prior_precision, u'y    ],
             [(L'W'y)', u'y,                   y'y + 1]],

    with B = I + L'W'WL the precision of z given theta, eta = L z.  In
    chol(S) the leading (r+1) block D factorises the (z, theta) precision,
    the theta pivot sits at index r, and the y row is D^{-1} times its
    right-hand side (L'W'y, u'y); the + 1 keeps the last pivot >= 1 and
    changes no other entry.

    The z blocks of the stack are two stacked GEMMs: the three diagonals
    of each W'W are written into a zeroed (rows, m, m) array through
    strided views of its flattened rows, and L'((W'W) L) goes straight
    into S; the identity is added through a strided view of S's
    diagonal.  Every product, the matvecs L'W'u and L'W'y included, is
    taken system by system, so each system is the same whatever else is
    in the stack.
    """
    diag, off, wu, wy, uu, uy, yy = stats
    rows, m = diag.shape
    r = factor.shape[1]
    gram = np.zeros((rows, m, m))  # W'W, tridiagonal
    flat = gram.reshape(rows, m * m)
    flat[:, :: m + 1] = diag
    flat[:, 1 :: m + 1] = off
    flat[:, m :: m + 1] = off
    systems = np.empty((rows, r + 2, r + 2))
    np.matmul(factor.T, gram @ factor, out=systems[:, :r, :r])
    systems.reshape(rows, (r + 2) ** 2)[:, : r * (r + 3) : r + 3] += 1.0
    for col, w in ((r, wu), (r + 1, wy)):
        systems[:, :r, col] = systems[:, col, :r] = (factor.T @ w[:, :, None])[:, :, 0]
    systems[:, r, r] = uu + prior_precision
    systems[:, r, r + 1] = systems[:, r + 1, r] = uy
    systems[:, r + 1, r + 1] = yy + 1.0
    return systems


def _solve(ds: Dataset, spec: GpPriorSpec, theta_prior_var: float):
    """(L, S, chol(S)) of one dataset: the prior factor of `spec`, the
    system of :func:`_assemble` and its factor, a stack of one."""
    prior_precision = _theta_precision(theta_prior_var, ds.n)
    factor = prior_factor(spec)
    stats = _statistics(ds[None], factor.shape[0])
    systems = _assemble(stats, factor, prior_precision)
    return factor, systems[0], _cholesky_stack(systems)[0]


def _nuisance_conditional(chol: np.ndarray, r: int):
    """draw(theta, normals) -> z | theta, data for normals of shape (r,)
    or (draws, r).  z | theta ~ N(B^{-1} (L'W'y - theta L'W'u), B^{-1})
    with B = C C', C = chol[:r, :r]; rows r and r+1 of chol(S) hold
    (C^{-1} L'W'u)' and (C^{-1} L'W'y)', so each mean piece is its row
    times C^{-1}."""
    inv_chol = _inverse_lower(chol[:r, :r])
    mean_u, mean_y = chol[r : r + 2, :r] @ inv_chol

    def draw(theta: float, normals: np.ndarray) -> np.ndarray:
        return mean_y - theta * mean_u + normals @ inv_chol

    return draw


def theta_posterior(
    ds: Dataset, spec: GpPriorSpec, theta_prior_var: float = 10.0
) -> MarginalThetaPosterior:
    """Exact marginal posterior of theta, without the joint.

    Same prior as :func:`conjugate_joint_posterior`.  The nuisance is
    eliminated by one Cholesky factorisation of the system S of
    :func:`_assemble`.  Its theta pivot s is the square root of the Schur
    complement of B, so the precision is s^2; the theta entry c of the y
    row is (u'y - g'h) / s with g, h the solves of B's factor against
    L'W'u and L'W'y, so the mean is c / s.  An empty dataset takes the
    same path: S = diag(I, 1/tau^2, 1) returns the prior N(0, tau^2).
    ValueError for a flat theta prior with no data; NumericsError if the
    precision is not positive (e.g. a flat theta prior with u = 0).
    """
    (mean,), (variance,) = theta_posteriors(ds[None], spec, theta_prior_var)
    return MarginalThetaPosterior(mean=float(mean), variance=float(variance))


def theta_posteriors(
    data: Dataset, spec: GpPriorSpec, theta_prior_var: float
) -> tuple[np.ndarray, np.ndarray]:
    """Theta marginal means and variances of the datasets in the rows of
    the (rows, n) stack `data`.  The statistics of every row are
    gathered at once; the systems are assembled and factorised by one
    np.linalg.cholesky call per sub-stack (see ``model._stack_rows``).
    Row i's result does not depend on the other rows.  StackNumericsError
    names, by its row, the first failing system or theta precision of the
    first sub-stack with one.
    """
    prior_precision = _theta_precision(theta_prior_var, data.n)
    factor = prior_factor(spec)
    m, r = factor.shape
    stats = _statistics(data, m)
    rows = data.u.shape[0]
    size = _stack_rows((r + 2) ** 2)
    means, variances = np.empty(rows), np.empty(rows)
    for start in range(0, rows, size):
        part = slice(start, start + size)
        try:
            chol = _cholesky_stack(_assemble([s[part] for s in stats], factor, prior_precision))
        except StackNumericsError as exc:
            exc.index += start
            raise
        pivot = chol[:, r, r]
        with np.errstate(over="ignore", divide="ignore"):  # checked just below
            variance = 1.0 / pivot**2
        bad = np.flatnonzero(~(np.isfinite(variance) & (variance > 0.0)))
        if bad.size:
            raise StackNumericsError(
                start + int(bad[0]), "theta posterior precision is not finite and positive"
            )
        means[part], variances[part] = chol[:, r + 1, r] / pivot, variance
    return means, variances


def conjugate_joint_posterior(
    ds: Dataset, spec: GpPriorSpec, theta_prior_var: float = 10.0
) -> JointGaussianPosterior:
    """Exact joint posterior for (theta, eta-grid-values).

    Prior: theta ~ N(0, theta_prior_var) independent of eta_grid ~
    N(0, scale^2 K).  `theta_prior_var = math.inf` selects the flat
    limit (zero prior precision on theta).  The posterior is read off
    the factor of the system S of :func:`_assemble`: with D its leading
    (z, theta) block and R = D^{-1}, the (z, theta) mean is R' times the
    y row and R is the root, its columns mapped to (theta, eta) through
    eta = L z, so the covariance is R'R.  An empty dataset takes the same
    path: S = diag(I, 1/tau^2, 1) gives the prior, with root rows (L', 0)
    and (0, tau).  ValueError for a flat theta prior with no data;
    NumericsError if S is not positive definite (e.g. a flat theta prior
    with u = 0).
    """
    factor, _, chol = _solve(ds, spec, theta_prior_var)
    m, r = factor.shape
    inv_chol = _inverse_lower(chol[: r + 1, : r + 1])
    latent_mean = inv_chol.T @ chol[r + 1, : r + 1]  # (z, theta)
    root = np.empty((r + 1, m + 1))  # R with its columns mapped to (theta, eta)
    root[:, 0] = inv_chol[:, r]
    root[:, 1:] = inv_chol[:, :r] @ factor.T
    mean = np.concatenate([latent_mean[r:], factor @ latent_mean[:r]])
    return JointGaussianPosterior(mean=mean, root=root)


def gibbs_chain(
    ds: Dataset,
    spec: GpPriorSpec,
    theta_prior_var: float,
    iterations: int,
    burn_in: int,
    seed: int,
) -> GibbsChain:
    """Blocked Gibbs sampler alternating exact conditional draws.

    The chain runs in z, eta = L z, on the system S of :func:`_solve`:
    theta | z, data is univariate normal with mean (u'y - (L'W'u)'z) /
    precision, O(r) per step; z | theta, data is multivariate normal with
    the theta-independent precision B, read off chol(S) once.  The states
    map to eta with one matmul at the end.  Needs burn_in >= 0 and
    iterations >= burn_in + 1.  Deterministic in `seed`, which must lie
    in [0, 2^64); ValueError for a flat prior with no data; NumericsError
    if S is not positive definite (e.g. flat prior, u = 0).
    """
    burn_in = _check_integer("burn_in", burn_in, 0)
    iterations = _check_integer("iterations", iterations, burn_in + 1)
    seed = _check_integer("seed", seed, 0, _MASK64)
    factor, system, chol = _solve(ds, spec, theta_prior_var)
    r = factor.shape[1]
    draw_z = _nuisance_conditional(chol, r)

    theta_precision = float(system[r, r])  # > 0, as chol(S) exists
    theta_sd = 1.0 / math.sqrt(theta_precision)
    load_u, uy = system[r, :r], float(system[r, r + 1])

    rng = np.random.default_rng(seed)
    thetas = np.empty(iterations)
    zs = np.empty((iterations, r))
    z = np.zeros(r)
    for it in range(iterations):
        theta_mean = (uy - load_u @ z) / theta_precision
        theta = theta_mean + theta_sd * rng.standard_normal()
        z = draw_z(theta, rng.standard_normal(r))
        thetas[it] = theta
        zs[it] = z
    return GibbsChain(
        thetas=thetas, etas=zs @ factor.T, iterations=iterations, burn_in=burn_in, seed=seed
    )


def credible_interval(mp: MarginalThetaPosterior, level: float) -> tuple[float, float]:
    """Equal-tailed interval mean +- z_{(1+level)/2} * sd."""
    return credible_bounds(mp.mean, mp.sd, level)


def credible_bounds(mean, sd, level: float):
    """(mean - z sd, mean + z sd) with z = z_{(1+level)/2}, for floats or
    arrays of means and standard deviations; one check of each covers a
    whole array."""
    level = _check_real("level", level, gt=0, lt=1)
    if not np.isfinite(mean).all():
        raise ValueError("mean must be finite")
    if not (np.isfinite(sd) & np.greater(sd, 0.0)).all():
        raise ValueError("sd must be finite and > 0")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    return (mean - z * sd, mean + z * sd)


def posterior_mass_h_ball(
    mp: MarginalThetaPosterior, theta0: float, M_n: float, n: int
) -> float:
    """Posterior mass of {|sqrt(n)(theta - theta0)| <= M_n}."""
    M_n, theta0 = _check_real("M_n", M_n, ge=0), _check_real("theta0", theta0)
    half = M_n / math.sqrt(_check_integer("n", n, 1))
    lo = (theta0 - half - mp.mean) / mp.sd
    hi = (theta0 + half - mp.mean) / mp.sd
    return _normal_mass(lo, hi)


def conditional_nuisance_mass(
    ds: Dataset,
    spec: GpPriorSpec,
    theta_fixed: float,
    truth: ModelPoint,
    law: CovariateLaw,
    rho: float,
    draws: int,
    seed: int,
) -> float:
    """Posterior mass outside the Hellinger ball around the KL-optimal curve.

    Samples the exact Gaussian conditional posterior of the nuisance
    given theta = theta_fixed, and returns the fraction of draws whose
    Hellinger distance to the KL-minimising nuisance at theta_fixed is
    >= rho.  The distances are exact, so `seed`, which must lie in
    [0, 2^64), drives only the draws.
    """
    from .asymptotics import _hellinger_sq, least_favorable_eta

    theta_fixed, rho = _check_real("theta_fixed", theta_fixed), _check_real("rho", rho, gt=0)
    draws = _check_integer("draws", draws, 1)
    seed = _check_integer("seed", seed, 0, _MASK64)
    rng = np.random.default_rng(seed)
    # z | theta reads chol(S)[:r+2, :r], which never reads S[r, r]; a unit
    # theta precision (variance 1) keeps S positive definite even at u = 0
    factor, _, chol = _solve(ds, spec, 1.0)
    r = factor.shape[1]
    draw_z = _nuisance_conditional(chol, r)
    eta_draws = draw_z(theta_fixed, rng.standard_normal((draws, r))) @ factor.T

    target = least_favorable_eta(theta_fixed, truth, law)
    distances = np.sqrt(_hellinger_sq(0.0, eta_draws, target.values, law))
    return float(np.mean(distances >= rho))


def effective_sample_size(x: np.ndarray) -> float:
    """ESS from the autocorrelation sum truncated at the first negative lag."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x entries must be finite")
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
