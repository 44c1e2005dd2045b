"""Computable diagnostics for the efficiency theory of the model.

Everything here reduces to one of two evaluation strategies, stated in
each docstring: analytic reduction (the expectation over (U, V) collapses
to a closed form) or seeded Monte Carlo over the covariate law with a
reported/derivable standard error.

Central quantities:

* the score-based centering  delta = I^{-1} n^{-1/2} sum e_i (u_i - m(v_i)),
* the total-variation gap between the localized marginal posterior and
  its normal limit N(delta, 1/I),
* Kullback-Leibler and Hellinger geometry of nuisance perturbations,
* the KL-minimising nuisance curve eta*(theta) = eta0 - (theta-theta0) m
  and the KL-minimising theta for a fixed nuisance,
* the exact quadratic expansion of the nuisance-integrated likelihood in
  the local parameter h = sqrt(n)(theta - theta0),
* a likelihood-ratio domination statistic over a finite set of nuisance
  translations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gp_prior import GpPriorSpec
from .model import (
    CovariateLaw,
    Dataset,
    DatasetStack,
    ModelPoint,
    NuisanceFunction,
    log_density_ratio,
    sample_dataset,
)
from .posterior import MarginalThetaPosterior, _normal_cdf, _row_dots, theta_posterior

__all__ = [
    "BvmDiagnostics",
    "LanCoefficients",
    "delta_n",
    "tv_normals",
    "bvm_gap",
    "kl_divergence",
    "least_favorable_eta",
    "misspecified_theta_star",
    "lan_remainder",
    "hellinger_distance",
    "hellinger_from_shift",
    "kl_neighborhood_stats",
    "integral_lan_coefficients",
    "estimate_un_per_zeta",
]


@dataclass(frozen=True)
class BvmDiagnostics:
    """Per-(n, seed) record of the posterior against its normal limit."""

    n: int
    delta_n: float
    info_tilde: float
    localized_post_mean: float
    localized_post_var: float
    tv_gap: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.tv_gap <= 1.0):
            raise ValueError("tv_gap must lie in [0, 1]")
        if not self.localized_post_var > 0.0:
            raise ValueError("localized_post_var must be positive")


@dataclass(frozen=True)
class LanCoefficients:
    """Expansion log s_n(h)/s_n(0) = linear * h + quadratic * h^2.

    The integrated likelihood of the conjugate model is exactly
    log-quadratic in h, so the quadratic coefficient is nonpositive.
    """

    linear: float
    quadratic: float

    def __post_init__(self) -> None:
        if self.quadratic > 0.0:
            raise ValueError("quadratic coefficient must be <= 0")


def delta_n(
    ds: Dataset | DatasetStack, law: CovariateLaw, truth: ModelPoint
) -> float | np.ndarray:
    """Score-based centering: I^{-1} n^{-1/2} sum e_i (u_i - m(v_i)).

    Uses the stored true residuals, so the dataset must carry simulation
    provenance.  For a DatasetStack, one value per row.
    """
    if ds.n < 1:
        raise ValueError("need n >= 1")
    if ds.e is None:
        raise ValueError("dataset lacks stored residuals")
    info = law.efficient_info
    score_sum = np.sum(ds.e * (ds.u - law.cond_mean(ds.v)), axis=-1)
    delta = score_sum / (info * math.sqrt(ds.n))
    return float(delta) if delta.ndim == 0 else delta


def _crossings(m1: float, v1: float, m2: float, v2: float) -> tuple[float, float]:
    # roots of log phi1 - log phi2 = 0; two real roots whenever v1 != v2
    a = 0.5 * (1.0 / v2 - 1.0 / v1)
    b = m1 / v1 - m2 / v2
    c = 0.5 * (m2**2 / v2 - m1**2 / v1) - 0.5 * math.log(v1 / v2)
    disc = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    r1 = (-b - disc) / (2.0 * a)
    r2 = (-b + disc) / (2.0 * a)
    return (r1, r2) if r1 <= r2 else (r2, r1)


def tv_normals(m1: float, v1: float, m2: float, v2: float) -> float:
    """Total-variation distance between N(m1, v1) and N(m2, v2), closed form.

    Equal variances: 2 Phi(|m1 - m2| / (2 sigma)) - 1.  Otherwise the
    densities cross at two points lo < hi, one density dominates on
    (lo, hi) and the other outside it, so the distance is the difference
    of the two masses of (lo, hi).  Upper-tail masses use Phi(-x) so
    that far-right intervals keep their precision.
    """
    if not (v1 > 0.0 and v2 > 0.0):
        raise ValueError("variances must be positive")
    if abs(v1 - v2) <= 1e-14 * max(v1, v2):
        sigma = math.sqrt(0.5 * (v1 + v2))
        return 2.0 * _normal_cdf(abs(m1 - m2) / (2.0 * sigma)) - 1.0
    lo, hi = _crossings(m1, v1, m2, v2)

    def mass(mean: float, var: float) -> float:
        a, b = (lo - mean) / math.sqrt(var), (hi - mean) / math.sqrt(var)
        if a > 0.0:
            return _normal_cdf(-a) - _normal_cdf(-b)
        return _normal_cdf(b) - _normal_cdf(a)

    return float(min(abs(mass(m1, v1) - mass(m2, v2)), 1.0))


def bvm_gap(
    mp: MarginalThetaPosterior, delta: float, info: float, n: int, theta0: float
) -> BvmDiagnostics:
    """TV gap between the localized posterior and N(delta, 1/info).

    Localization h = sqrt(n)(theta - theta0) maps the marginal posterior
    to N(sqrt(n)(mean - theta0), n * variance); TV is invariant under
    that affine map, so the gap can be read in either coordinate system.
    """
    if not info > 0.0:
        raise ValueError("info must be positive")
    loc_mean = math.sqrt(n) * (mp.mean - theta0)
    loc_var = n * mp.variance
    gap = tv_normals(loc_mean, loc_var, delta, 1.0 / info)
    return BvmDiagnostics(
        n=n,
        delta_n=delta,
        info_tilde=info,
        localized_post_mean=loc_mean,
        localized_post_var=loc_var,
        tv_gap=gap,
    )


def kl_divergence(
    p: ModelPoint, truth: ModelPoint, law: CovariateLaw, mc_draws: int, seed: int
) -> float:
    """KL divergence of p from the truth, as a covariate expectation.

    Equals (1/2) E[((theta - theta0) U + (eta - eta0)(V))^2]; estimated
    by seeded Monte Carlo over (U, V).  Standard error is
    sd(half-square)/sqrt(mc_draws).
    """
    shift = _mean_shift(p, truth, law, mc_draws, seed)
    return float(np.mean(0.5 * shift**2))


def _mean_shift(
    p1: ModelPoint, p2: ModelPoint, law: CovariateLaw, mc_draws: int, seed: int
) -> np.ndarray:
    """(theta1 - theta2) U + (eta1 - eta2)(V) at mc_draws seeded (U, V) draws."""
    if mc_draws < 1:
        raise ValueError("mc_draws must be >= 1")
    u, v = law.sample_covariates(mc_draws, np.random.default_rng(seed))
    return (p1.theta - p2.theta) * u + (p1.eta(v) - p2.eta(v))


def least_favorable_eta(
    theta: float, truth: ModelPoint, law: CovariateLaw
) -> NuisanceFunction:
    """KL-minimising nuisance at theta: eta0 - (theta - theta0) m, on eta0's grid."""
    grid = truth.eta.grid
    values = truth.eta.values - (theta - truth.theta) * law.cond_mean(grid)
    return NuisanceFunction(values)


def misspecified_theta_star(
    eta: NuisanceFunction, truth: ModelPoint, law: CovariateLaw
) -> float:
    """KL-minimising theta for a fixed nuisance.

    theta0 - E[m(V) (eta - eta0)(V)], using E[U^2] = 1 and the tower
    rule.  The difference D = eta - eta0 is linear between the merged
    grid nodes of both nuisances, so the V-expectation is exact: on
    [x0, x1] of width h, int cos(w v) D(v) dv = D0 c0 + D1 c1 with
    w = 2 pi, c1 = sin(w x1)/w + q, c0 = -sin(w x0)/w - q and
    q = (cos(w x1) - cos(w x0)) / (w^2 h), taken as
    -2 sin(w (x0 + x1)/2) sin(w h/2) / (w^2 h) to avoid cancellation.
    """
    nodes = np.union1d(eta.grid, truth.eta.grid)
    diff = eta(nodes) - truth.eta(nodes)
    x0, x1 = nodes[:-1], nodes[1:]
    width = x1 - x0
    omega = 2.0 * math.pi
    q = -2.0 * np.sin(0.5 * omega * (x0 + x1)) * np.sin(0.5 * omega * width)
    q /= omega**2 * width
    c0 = -np.sin(omega * x0) / omega - q
    c1 = np.sin(omega * x1) / omega + q
    value = law.cond_mean_amplitude * float(diff[:-1] @ c0 + diff[1:] @ c1)
    return truth.theta - value


def lan_remainder(
    ds: Dataset,
    h: float,
    zeta: NuisanceFunction,
    truth: ModelPoint,
    law: CovariateLaw,
) -> float:
    """Gap between the idealized quadratic expansion and the exact log ratio.

    Along the submodel theta -> (theta, eta*(theta) + zeta), the exact
    log-likelihood ratio at h and its quadratic approximation
    h n^{-1/2} sum g_zeta(x_i) - h^2 I / 2 differ by exactly
    (h^2 / 2) ((1/n) sum (u_i - m(v_i))^2 - I); the signed value returned
    here is that quadratic deficit (expansion minus log ratio).
    """
    n = ds.n
    if n < 1:
        raise ValueError("need n >= 1")
    rootn = math.sqrt(n)
    theta_n = truth.theta + h / rootn
    mv = law.cond_mean(ds.v)
    eta0_v = truth.eta(ds.v)
    zeta_v = zeta(ds.v)

    r_ref = ds.y - truth.theta * ds.u - (eta0_v + zeta_v)
    r_pert = ds.y - theta_n * ds.u - (eta0_v - (h / rootn) * mv + zeta_v)
    log_ratio = float(np.sum(-0.5 * r_pert**2 + 0.5 * r_ref**2))

    score_sum = float(np.sum(r_ref * (ds.u - mv)))
    expansion = (h / rootn) * score_sum - 0.5 * h * h * law.efficient_info
    return expansion - log_ratio


def hellinger_from_shift(shift: np.ndarray) -> np.ndarray:
    """Hellinger distance from per-covariate mean shifts (last axis = MC)."""
    affinity = np.mean(np.exp(-np.asarray(shift) ** 2 / 8.0), axis=-1)
    return np.sqrt(np.maximum(1.0 - affinity, 0.0))


def hellinger_distance(
    p1: ModelPoint, p2: ModelPoint, law: CovariateLaw, mc_draws: int, seed: int
) -> float:
    """Hellinger distance between two model points.

    sqrt(1 - E exp(-D^2 / 8)) with D = (theta1 - theta2) U +
    (eta1 - eta2)(V); the covariate expectation is seeded Monte Carlo.
    """
    return float(hellinger_from_shift(_mean_shift(p1, p2, law, mc_draws, seed)))


def kl_neighborhood_stats(
    eta: NuisanceFunction,
    truth: ModelPoint,
    law: CovariateLaw,
    mc_draws: int,
    seed: int,
) -> tuple[float, float]:
    """First two moments of the log-likelihood ratio at theta0.

    Returns Monte Carlo estimates of (-E0 log r, E0 (log r)^2) for
    r = p_{theta0, eta} / p_{theta0, eta0}, the two statistics whose
    smallness places eta in a KL-type neighborhood of eta0.
    """
    if mc_draws < 1:
        raise ValueError("mc_draws must be >= 1")
    ds = sample_dataset(law, truth, mc_draws, seed)
    log_ratio = log_density_ratio((ds.u, ds.v, ds.y), ModelPoint(truth.theta, eta), truth)
    return float(-np.mean(log_ratio)), float(np.mean(log_ratio**2))


def integral_lan_coefficients(
    ds: Dataset, spec: GpPriorSpec, theta0: float
) -> LanCoefficients:
    """Exact expansion of the nuisance-integrated likelihood in h.

    Integrating the Gaussian nuisance prior out of the likelihood leaves
    y | theta ~ N(theta u, S) with S = scale^2 W K W' + I_n, so

        log s_n(h)/s_n(0) = h n^{-1/2} u' S^{-1} (y - theta0 u)
                            - h^2 (2n)^{-1} u' S^{-1} u

    holds without remainder.  Both are read off the flat-prior theta
    marginal N(mean, var), u' S^{-1} u = 1/var and u' S^{-1} (y - theta0 u)
    = (mean - theta0)/var, so the n x n matrix S is never built.
    """
    n = ds.n
    if n < 1:
        raise ValueError("need n >= 1")
    mp = theta_posterior(ds, spec, math.inf)
    linear = (mp.mean - theta0) / mp.variance / math.sqrt(n)
    quadratic = -1.0 / (2.0 * n * mp.variance)
    return LanCoefficients(linear=linear, quadratic=quadratic)


def estimate_un_per_zeta(
    law: CovariateLaw,
    truth: ModelPoint,
    zeta_set: list[NuisanceFunction],
    rho: float,
    h: float | None,
    n: int,
    mc_reps: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-translation domination estimates with standard errors.

    For each nuisance translation zeta the expectation, under data from
    the zeta-translated truth, of the n-fold likelihood ratio between
    the h-perturbed and unperturbed submodel points is estimated over
    `mc_reps` independent replications (each zeta gets its own seeded
    substream).  `h = None` uses the per-replication plug-in
    least-squares direction clamped to |h| <= 2.  The expectation equals
    1 exactly for deterministic h.  Callers are responsible for probe
    translations staying within Hellinger radius `rho` of the truth.

    At the translated truth the residual is the drawn noise e, so with
    w = u - m(v) and s = h / sqrt(n) a replication's log ratio
    sum[-(e - s w)^2/2 + e^2/2] is s (w.e) - s^2 (w.w)/2, and its
    plug-in direction is sqrt(n) (u.e)/(u.u): four row dots.  Only `law`,
    `h`, `n`, `mc_reps`, `seed` and len(zeta_set) enter the estimates;
    the values of `truth` and of the translations, and `rho`, do not.
    """
    if mc_reps < 1:
        raise ValueError("mc_reps must be >= 1")
    if n < 1:
        raise ValueError("need n >= 1")
    if not zeta_set:
        raise ValueError("zeta_set must be nonempty")
    rootn = math.sqrt(n)
    estimates = np.empty(len(zeta_set))
    errors = np.empty(len(zeta_set))
    for j in range(len(zeta_set)):
        rng = np.random.default_rng([seed, j])
        u, v = law.sample_covariates(mc_reps * n, rng)
        e = rng.standard_normal(mc_reps * n)
        u, v, e = (a.reshape(mc_reps, n) for a in (u, v, e))
        w = u - law.cond_mean(v)
        if h is None:  # least-squares direction sqrt(n) (u.e)/(u.u), clamped
            uu = _row_dots(u, u)
            h_rep = np.divide(rootn * _row_dots(u, e), uu, out=np.zeros(mc_reps), where=uu != 0.0)
            h_rep = np.clip(h_rep, -2.0, 2.0)
        else:
            h_rep = np.full(mc_reps, float(h))
        shift = h_rep / rootn
        ratios = np.exp(shift * _row_dots(w, e) - 0.5 * shift**2 * _row_dots(w, w))
        estimates[j] = ratios.mean()
        errors[j] = ratios.std(ddof=1) / math.sqrt(mc_reps) if mc_reps > 1 else np.inf
    return estimates, errors
