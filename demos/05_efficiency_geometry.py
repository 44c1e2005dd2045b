"""Tour the efficiency geometry behind the convergence result.

Four ingredients make the normal limit work, and each is computable
here: (1) the KL-minimising nuisance curve through the truth, whose
scores are the efficient ones; (2) the quadratic expansion of the
nuisance-integrated likelihood in the local parameter; (3) domination
of likelihood ratios along translated versions of that curve; and
(4) contraction of the conditional nuisance posterior around the curve.
"""

import math

import numpy as np

from semibvm import (
    ExperimentConfig,
    NuisanceFunction,
    ModelPoint,
    conditional_nuisance_mass,
    estimate_un_per_zeta,
    hellinger_distance,
    integral_lan_coefficients,
    kl_divergence,
    lan_remainder,
    least_favorable_eta,
    misspecified_theta_star,
    posterior_mass_h_ball,
    sample_dataset,
    theta_posterior,
)
from semibvm.experiments import cell_seed

# the default config and the model objects it builds: covariate law,
# true model point and nuisance prior
cfg = ExperimentConfig()
law, truth, spec = cfg.law, cfg.truth, cfg.spec
grid = truth.eta.grid

# (1) the least-favorable curve: moving theta while re-optimising eta
# costs (information/2) per squared step, plus a grid term
# (dtheta^2/2) int (m - m_h)^2 because the curve moves eta0 by the grid
# interpolant m_h of m.  The KL divergence is exact, with no draws.
v_fine = np.linspace(0.0, 1.0, 100_001)
m_h = NuisanceFunction(np.asarray(law.cond_mean(grid)))
grid_gap = np.trapezoid((law.cond_mean(v_fine) - m_h(v_fine)) ** 2, v_fine)
print("KL cost of moving theta with the nuisance re-optimised:")
for dtheta in (0.25, 0.5, 1.0):
    star = least_favorable_eta(truth.theta + dtheta, truth, law)
    kl = kl_divergence(ModelPoint(truth.theta + dtheta, star), truth, law)
    half_info = 0.5 * law.efficient_info * dtheta**2
    print(f"  dtheta = {dtheta:4.2f}:  KL = {kl:.8f}   (I/2 dtheta^2 = {half_info:.8f},"
          f" grid term = {0.5 * dtheta**2 * grid_gap:.2e})")

# Fixing a wrong nuisance instead biases the best theta.
eta_bad = NuisanceFunction(truth.eta.values + 0.5 * np.asarray(law.cond_mean(grid)))
print(f"\nKL-minimising theta at a tilted nuisance: "
      f"{misspecified_theta_star(eta_bad, truth, law):.4f}  (truth {truth.theta})")

# (2) integrated-likelihood expansion: exactly quadratic in h here, with
# curvature approaching the efficient information.
ds = sample_dataset(law, truth, 800, seed=5)
coeffs = integral_lan_coefficients(ds, spec, truth.theta)
print("\nintegrated-likelihood expansion at n = 800:")
print(f"  linear coefficient    = {coeffs.linear:+.4f}")
print(f"  -2 * quadratic        = {-2 * coeffs.quadratic:.4f}   (information 0.64)")
rem = lan_remainder(ds, 1.0, law)
print(f"  pointwise remainder   = {rem:+.5f} at h = 1 (an O(1/sqrt(n)) quantity)")

# (3) domination: along translated curves the likelihood ratio at each
# replication's plug-in direction h (|h| <= 2) has a bounded expectation
# (a fixed h would give exactly 1).  Data drawn at the translated truth
# have the noise as residual, so the translation does not enter the
# statistic: each probe differs only by its own seeded substream.
est, se = estimate_un_per_zeta(law, 2, n=100, mc_reps=5000, seed=2)
print("\ndomination statistic per probe translation (plug-in h):")
for e_, s_ in zip(est, se):
    print(f"  estimate {e_:.4f} +- {s_:.4f}")

# (4) contraction: conditional nuisance mass outside a Hellinger ball
# around the curve drains as n grows; the theta marginal piles onto
# sqrt(n)-neighbourhoods of the truth.
print("\nconditional nuisance mass outside a 0.06-ball, and theta-ball mass:")
for n in (100, 400, 1600):
    seed = cell_seed(9, n, 0)
    ds_n = sample_dataset(law, truth, n, seed)
    outside = conditional_nuisance_mass(
        ds_n, spec, truth.theta + 1.0 / math.sqrt(n), truth, law, rho=0.06, draws=200, seed=seed + 1
    )
    mp = theta_posterior(ds_n, spec, cfg.theta_prior_var)
    inside = posterior_mass_h_ball(mp, truth.theta, math.log(n), n)
    print(f"  n = {n:>5}:  nuisance mass outside = {outside:.3f},"
          f"  theta mass inside log(n)-ball = {inside:.4f}")

# Hellinger scale of a local theta shift, for calibration.
p_local = ModelPoint(truth.theta + 2.0 / math.sqrt(100), truth.eta)
print(f"\nHellinger distance of a 2/sqrt(100) theta shift: "
      f"{hellinger_distance(p_local, truth, law):.4f}")
