"""Computable diagnostics for the efficiency theory of the model.

Everything here reduces to one of two evaluation strategies, stated in
each docstring: analytic reduction (the expectation over (U, V) collapses
to a closed form) or seeded Monte Carlo over the covariate law with a
reported/derivable standard error.  The KL divergence, the two KL
neighbourhood moments and the misspecified theta* are exact: each is an
integral over V of a nuisance difference that is linear between grid
nodes (see :func:`_difference_integrals`), and the Hellinger distance is
exact to rounding (:func:`_hellinger_sq`).  Plug-in domination is Monte Carlo.

Central quantities:

* the score-based centering  delta = I^{-1} n^{-1/2} sum e_i w_i, from the
  drawn noise e and covariate residual w = u - m(v) a simulated dataset keeps,
* the total-variation gap between the localized marginal posterior and
  its normal limit N(delta, 1/I),
* Kullback-Leibler and Hellinger geometry of nuisance perturbations,
* the KL-minimising nuisance curve eta*(theta) = eta0 - (theta-theta0) m
  and the KL-minimising theta for a fixed nuisance,
* the exact quadratic expansion of the nuisance-integrated likelihood in
  the local parameter h = sqrt(n)(theta - theta0),
* a likelihood-ratio domination statistic over a number of nuisance
  translations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gp_prior import GpPriorSpec
from .model import (
    _MASK64,
    CovariateLaw,
    Dataset,
    ModelPoint,
    NuisanceFunction,
    _check_integer,
    _check_real,
    _draws,
    _stack_rows,
    interpolate,
    uniform_grid,
)
from .posterior import MarginalThetaPosterior, _normal_mass, _row_dots, theta_posterior

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
        _check_real("tv_gap", self.tv_gap, ge=0, le=1)
        _check_real("localized_post_var", self.localized_post_var, gt=0)


@dataclass(frozen=True)
class LanCoefficients:
    """Expansion log s_n(h)/s_n(0) = linear * h + quadratic * h^2.

    The integrated likelihood of the conjugate model is exactly
    log-quadratic in h, so the quadratic coefficient is nonpositive.
    """

    linear: float
    quadratic: float

    def __post_init__(self) -> None:
        _check_real("quadratic", self.quadratic, le=0)


def delta_n(ds: Dataset, law: CovariateLaw) -> float | np.ndarray:
    """Score-based centering: I^{-1} n^{-1/2} sum e_i w_i, w = u - m(v).

    Reads the drawn noise e and covariate residual w that a simulated
    dataset carries, so w keeps every digit at any sigma_w (u - m(v)
    would cancel them away).  For a stack of datasets, one value per row.
    """
    _check_integer("n", ds.n, 1)
    if ds.e is None:
        raise ValueError("dataset lacks stored residuals")
    delta = np.sum(ds.e * ds.w, axis=-1) / (law.efficient_info * math.sqrt(ds.n))
    return float(delta) if delta.ndim == 0 else delta


def _crossings(delta: float, v: float, w: float) -> tuple[float, float]:
    """Offsets x - m, in increasing order, of the two points where the
    densities of N(m, v) and N(m - delta, w) cross, v != w.

    In d = x - m, log phi_v - log phi_w = a d^2 + b d + c with a =
    (1/w - 1/v)/2, b = delta/w and c = delta^2/(2w) - log(v/w)/2, whose
    discriminant b^2 - 4ac is delta^2/(v w) + (1/w - 1/v) log(v/w): two
    nonnegative terms, the second positive, so no digit cancels and the
    roots are real.  q/a and c/q never subtract near-equal terms either,
    so each root keeps its precision as a -> 0 or c -> 0.
    """
    a = 0.5 * (1.0 / w - 1.0 / v)
    b = delta / w
    c = 0.5 * (delta * b - math.log(v / w))
    disc = delta * delta / (v * w) + 2.0 * a * math.log(v / w)
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    r1, r2 = q / a, c / q
    return (r1, r2) if r1 <= r2 else (r2, r1)


def tv_normals(m1: float, v1: float, m2: float, v2: float) -> float:
    """Total-variation distance between N(m1, v1) and N(m2, v2), closed form.

    Equal variances: 2 Phi(|m1 - m2| / (2 sigma)) - 1, taken as one erf
    so that it keeps its relative precision as the gap shrinks to 0.
    Otherwise the densities cross at two points lo < hi, one density
    dominates on (lo, hi) and the other outside it, so the distance is the
    difference of the two masses of (lo, hi).  The crossings are found as
    offsets d from the narrower normal's mean (:func:`_crossings`), and
    the wider normal's offsets are d + (difference of the means), so each
    mass is read from offsets to its own mean: a narrow normal whose
    crossings lie within rounding of its mean still sees them at their
    true standardised distance.  Both masses share the two points, where
    the distance is stationary, so an error in the points moves it only
    to second order.  Each mass is :func:`semibvm.posterior._normal_mass`,
    so far-right intervals keep their precision.
    """
    m1, m2 = _check_real("m1", m1), _check_real("m2", m2)
    v1, v2 = _check_real("v1", v1, gt=0), _check_real("v2", v2, gt=0)
    if v1 > v2:  # the distance is symmetric; N(m1, v1) is the narrower
        m1, v1, m2, v2 = m2, v2, m1, v1
    if v2 - v1 <= 1e-14 * v2:
        sigma = math.sqrt(0.5 * (v1 + v2))
        return math.erf(abs(m1 - m2) / (2.0 * math.sqrt(2.0) * sigma))
    # 1 - TV is at most the Bhattacharyya coefficient, itself at most
    # sqrt(2) (v1 / v2)^(1/4) exp(-z^2 / 8) with z = (m1 - m2) / sqrt(v2);
    # where that is below 2^-54, TV rounds to 1.  Past this line z^2 < 303
    # and v1 / v2 > 2^-219, so nothing below overflows or underflows
    z = (m1 - m2) / math.sqrt(v2)
    if 0.25 * (math.log(v1) - math.log(v2)) - 0.125 * z * z < -54.5 * math.log(2.0):
        return 1.0
    # the distance is scale-free: x -> x / 2^e moves the larger variance
    # into [1/2, 2).  A power of two scales every step of _crossings
    # exactly, so a rescaled pair gives the same bits
    e = math.frexp(v2)[1] // 2
    delta = math.ldexp(m1 - m2, -e)
    v1, v2 = math.ldexp(v1, -2 * e), math.ldexp(v2, -2 * e)
    lo, hi = _crossings(delta, v1, v2)
    s1, s2 = math.sqrt(v1), math.sqrt(v2)
    narrow = _normal_mass(lo / s1, hi / s1)
    wide = _normal_mass((lo + delta) / s2, (hi + delta) / s2)
    return float(min(abs(narrow - wide), 1.0))


def bvm_gap(
    mp: MarginalThetaPosterior, delta: float, info: float, n: int, theta0: float
) -> BvmDiagnostics:
    """TV gap between the localized posterior and N(delta, 1/info).

    Localization h = sqrt(n)(theta - theta0) maps the marginal posterior
    to N(sqrt(n)(mean - theta0), n * variance); TV is invariant under
    that affine map, so the gap can be read in either coordinate system.
    """
    n = _check_integer("n", n, 1)
    delta, info = _check_real("delta", delta), _check_real("info", info, gt=0)
    theta0 = _check_real("theta0", theta0)
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


def _difference_integrals(
    eta: NuisanceFunction, eta0: NuisanceFunction
) -> tuple[float, float, float]:
    """Exact (int D^2, int D^4, int cos(2 pi v) D(v)) over [0, 1], D = eta - eta0.

    D is linear between the merged grid nodes of both nuisances, so each
    integral is a sum of closed forms over the cells.  On [x0, x1] of
    width h with end values D0, D1: int D^2 = h (D0^2 + D0 D1 + D1^2)/3,
    int D^4 = h (D0^4 + D0^3 D1 + D0^2 D1^2 + D0 D1^3 + D1^4)/5, and
    int cos(w v) D(v) dv = D0 c0 + D1 c1 with w = 2 pi,
    c1 = sin(w x1)/w + q, c0 = -sin(w x0)/w - q and
    q = (cos(w x1) - cos(w x0)) / (w^2 h), taken as
    -2 sin(w (x0 + x1)/2) sin(w h/2) / (w^2 h) to avoid cancellation.
    """
    nodes = np.union1d(eta.grid, eta0.grid)
    diff = eta(nodes) - eta0(nodes)
    x0, x1 = nodes[:-1], nodes[1:]
    width = x1 - x0
    omega = 2.0 * math.pi
    q = -2.0 * np.sin(0.5 * omega * (x0 + x1)) * np.sin(0.5 * omega * width)
    q /= omega**2 * width
    c0 = -np.sin(omega * x0) / omega - q
    c1 = np.sin(omega * x1) / omega + q
    d0, d1 = diff[:-1], diff[1:]
    cos_integral = float(d0 @ c0 + d1 @ c1)
    sq0, sq1, cross = d0 * d0, d1 * d1, d0 * d1
    sq_integral = float(width @ (sq0 + cross + sq1)) / 3.0
    fourth_integral = float(width @ (sq0 * sq0 + cross * (sq0 + sq1) + sq0 * sq1 + sq1 * sq1)) / 5.0
    return sq_integral, fourth_integral, cos_integral


def kl_divergence(p: ModelPoint, truth: ModelPoint, law: CovariateLaw) -> float:
    """KL divergence of p from the truth, exact.

    (1/2) E[(dtheta U + D(V))^2] with dtheta = theta - theta0 and
    D = eta - eta0.  E[U^2] = 1 and the tower rule E[U D(V)] =
    a int cos(2 pi v) D(v) dv reduce it to
    (1/2) [dtheta^2 + 2 dtheta a int cos(2 pi v) D(v) dv + int D^2],
    whose integrals :func:`_difference_integrals` gives exactly.
    """
    sq_integral, _, cos_integral = _difference_integrals(p.eta, truth.eta)
    dtheta = p.theta - truth.theta
    cross = 2.0 * dtheta * law.cond_mean_amplitude * cos_integral
    return 0.5 * (dtheta * dtheta + cross + sq_integral)


def least_favorable_eta(
    theta: float, truth: ModelPoint, law: CovariateLaw
) -> NuisanceFunction:
    """KL-minimising nuisance at theta: eta0 - (theta - theta0) m, on eta0's grid."""
    theta, grid = _check_real("theta", theta), truth.eta.grid
    values = truth.eta.values - (theta - truth.theta) * law.cond_mean(grid)
    return NuisanceFunction(values)


def misspecified_theta_star(
    eta: NuisanceFunction, truth: ModelPoint, law: CovariateLaw
) -> float:
    """KL-minimising theta for a fixed nuisance.

    theta0 - E[m(V) (eta - eta0)(V)], using E[U^2] = 1 and the tower
    rule; the V-expectation a int cos(2 pi v) D(v) dv is exact (see
    :func:`_difference_integrals`).
    """
    _, _, cos_integral = _difference_integrals(eta, truth.eta)
    return truth.theta - law.cond_mean_amplitude * cos_integral


def lan_remainder(ds: Dataset, h: float, law: CovariateLaw) -> float:
    """Gap between the idealized quadratic expansion and the exact log ratio.

    Along the submodel theta -> (theta, eta*(theta) + zeta), data have
    residual r at h = 0 and r - s w at h, with s = h / sqrt(n) and
    w = u - m(v): r = e when they are drawn at the translated truth
    (theta0, eta0 + zeta), r = e - zeta(v) when drawn at the truth.  The
    exact log ratio sum[-(r - s w)^2/2 + r^2/2] = s (r.w) - s^2 (w.w)/2
    and the quadratic approximation s (r.w) - h^2 I / 2 share their score
    term, so the signed value returned here (expansion minus log ratio) is
    exactly the quadratic deficit (h^2 / 2) ((w.w)/n - I): neither zeta
    nor theta0 enters it.  It is taken from the drawn w of the dataset's
    provenance, coefficient by coefficient: subtracting the two sides as
    numbers would cancel the score term, of order sigma_w, against a
    deficit of order sigma_w^2.
    """
    _check_integer("n", ds.n, 1)
    h = _check_real("h", h)
    if ds.e is None:
        raise ValueError("dataset lacks stored residuals")
    return 0.5 * h * h * (float(ds.w @ ds.w) / ds.n - law.efficient_info)


@functools.cache
def _gauss_legendre():
    from numpy.polynomial.legendre import leggauss  # on first use, not at start-up
    return leggauss(16)


def _hellinger_sq(dtheta: float, values: np.ndarray, values0: np.ndarray, law: CovariateLaw):
    """Exact H^2 between (theta0 + dtheta, eta) and (theta0, eta0); eta's
    grid values lie on the last axis of `values` (leading axes are kept).

    H^2 = 1 - E exp(-S^2/8), S = dtheta U + D(V), D = eta - eta0.  Given V,
    S ~ N(mu, s^2) with mu = dtheta m(V) + D(V), s = dtheta sigma_w, so
    H^2 = (1 - g) + g int -expm1(-mu^2/(8 + 2 s^2)), g = (1 + s^2/4)^(-1/2),
    and 1 - g = -expm1(-log1p(s^2/4)/2): no term cancels.  A 16-point
    Gauss-Legendre rule is exact to rounding on each cell between the merged
    nodes of both grids and of 64 panels (which split a 2-node grid's cell).
    """
    edges = functools.reduce(np.union1d, map(uniform_grid, (values.shape[-1], len(values0), 65)))
    rule_x, rule_w = _gauss_legendre()
    half = 0.5 * np.diff(edges)[:, None]
    v = edges[:-1, None] + half * (rule_x + 1.0)
    mu = dtheta * law.cond_mean(v) + (interpolate(values, v) - interpolate(values0, v))
    s2 = (dtheta * law.residual_sd) ** 2
    gap = -math.expm1(-0.5 * math.log1p(0.25 * s2))
    terms = -np.expm1(-mu * mu / (8.0 + 2.0 * s2)) * (half * rule_w)
    # one sum per row, so a value does not depend on the stack it sits in
    tail = np.array([row.sum() for row in terms.reshape(-1, v.size)])
    return gap + (1.0 - gap) * tail.reshape(values.shape[:-1])


def hellinger_distance(p1: ModelPoint, p2: ModelPoint, law: CovariateLaw) -> float:
    """Hellinger distance between two model points, exact (see :func:`_hellinger_sq`)."""
    return math.sqrt(float(_hellinger_sq(p1.theta - p2.theta, p1.eta.values, p2.eta.values, law)))


def kl_neighborhood_stats(eta: NuisanceFunction, truth: ModelPoint) -> tuple[float, float]:
    """First two moments of the log-likelihood ratio at theta0, exact.

    Returns (-E0 log r, E0 (log r)^2) for r = p_{theta0, eta} /
    p_{theta0, eta0}, the two statistics whose smallness places eta in a
    KL-type neighborhood of eta0.  Under the truth the residual is the
    noise e, so log r = e D(V) - D(V)^2/2 with D = eta - eta0, and
    E e = 0, E e^2 = 1 give (int D^2 / 2, int D^2 + int D^4 / 4); the
    integrals are exact (see :func:`_difference_integrals`).
    """
    sq_integral, fourth_integral, _ = _difference_integrals(eta, truth.eta)
    return 0.5 * sq_integral, sq_integral + 0.25 * fourth_integral


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
    n = _check_integer("n", ds.n, 1)
    theta0 = _check_real("theta0", theta0)
    mp = theta_posterior(ds, spec, math.inf)
    linear = (mp.mean - theta0) / mp.variance / math.sqrt(n)
    quadratic = -1.0 / (2.0 * n * mp.variance)
    return LanCoefficients(linear=linear, quadratic=quadratic)


def estimate_un_per_zeta(
    law: CovariateLaw,
    translations: int,
    n: int,
    mc_reps: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-translation domination estimates with standard errors.

    For each of `translations` nuisance translations zeta the expectation,
    under data from the zeta-translated truth, of the n-fold likelihood
    ratio between the h-perturbed and unperturbed submodel points is
    estimated over `mc_reps` independent replications (each translation
    gets its own seeded substream), giving arrays of shape
    (translations,).  h is each replication's plug-in least-squares
    direction, clamped to |h| <= 2.

    At the translated truth the residual is the drawn noise e, so with
    w = u - m(v) = sigma_w z and s = h / sqrt(n) a replication's log ratio
    sum[-(e - s w)^2/2 + e^2/2] is s (w.e) - s^2 (w.w)/2, and its plug-in
    direction is sqrt(n) (u.e)/(u.u): four row dots.  Neither the truth
    nor the translation zeta enters, so only their number is taken.
    Translation j draws its replications one after another from
    default_rng([seed, j]), each in the order of
    :func:`semibvm.model.sample_datasets` (v, z, e), in chunks of rows of
    2n doubles sized by ``semibvm.model._stack_rows``, of which only each
    replication's ratio is kept; the estimates do not depend on the chunk
    size.  `seed` must lie in [0, 2^64).
    """
    mc_reps = _check_integer("mc_reps", mc_reps, 1)
    n = _check_integer("n", n, 1)
    translations = _check_integer("translations", translations, 1)
    seed = _check_integer("seed", seed, 0, _MASK64)
    rootn = math.sqrt(n)
    size = _stack_rows(2 * n)
    estimates = np.empty(translations)
    errors = np.empty(translations)
    ratios = np.empty(mc_reps)
    for j in range(translations):
        rng = np.random.default_rng([seed, j])
        for start in range(0, mc_reps, size):
            part = ratios[start : start + size]
            u, _, w, e = _draws(law, rng, n, part.size)
            uu = _row_dots(u, u)
            h = np.divide(rootn * _row_dots(u, e), uu, out=np.zeros(part.size), where=uu != 0.0)
            shift = np.clip(h, -2.0, 2.0) / rootn
            part[:] = np.exp(shift * _row_dots(w, e) - 0.5 * shift**2 * _row_dots(w, w))
        estimates[j] = ratios.mean()
        errors[j] = ratios.std(ddof=1) / math.sqrt(mc_reps) if mc_reps > 1 else np.inf
    return estimates, errors
