"""Fit the posterior two ways: exact conjugate algebra and blocked Gibbs.

On the grid, the model is a finite Gaussian linear regression, so the
joint posterior over (theta, eta-values) is available in closed form.
The blocked Gibbs sampler alternates the two exact conditionals and
must land on the same theta marginal; this script shows the agreement
and the usual MCMC bookkeeping (burn-in, effective sample size).
"""

from statistics import NormalDist

import numpy as np

from semibvm import (
    GpPriorSpec,
    ModelPoint,
    NuisanceFunction,
    conjugate_joint_posterior,
    credible_interval,
    gibbs_chain,
    make_covariate_law,
    sample_dataset,
    theta_posterior,
)
from semibvm.posterior import effective_sample_size

law = make_covariate_law(0.8)
truth = ModelPoint(
    theta=1.0,
    eta=NuisanceFunction.from_callable(lambda v: 0.5 * np.sin(2 * np.pi * v), 50),
)
spec = GpPriorSpec(k=1, grid_size=50, scale=3.0)
ds = sample_dataset(law, truth, n=300, seed=42)

jp = conjugate_joint_posterior(ds, spec, theta_prior_var=10.0)
mp = theta_posterior(ds, spec, theta_prior_var=10.0)  # the joint's theta coordinate
lo, hi = credible_interval(mp, 0.95)
print("exact conjugate posterior, n = 300:")
print(f"  theta mean      = {mp.mean:.4f}   (truth {truth.theta})")
print(f"  theta sd        = {mp.sd:.4f}")
print(f"  95% interval    = [{lo:.4f}, {hi:.4f}]")
print(f"  covers truth    = {lo <= truth.theta <= hi}")

# The nuisance posterior mean tracks eta0 on the grid.
eta_post = jp.mean[1:]
eta_true = truth.eta.values
print(f"  max |eta error| = {np.max(np.abs(eta_post - eta_true)):.3f}")

chain = gibbs_chain(ds, spec, 10.0, iterations=12_000, burn_in=2_000, seed=7)
draws = chain.theta_draws
ess = effective_sample_size(draws)
print("\nblocked Gibbs, 10000 post-burn-in draws:")
print(f"  theta mean      = {draws.mean():.4f}")
print(f"  theta sd        = {draws.std(ddof=1):.4f}")
print(f"  ESS             = {ess:.0f}")
print(f"  mean gap        = {abs(draws.mean() - mp.mean):.5f}"
      f"  ({abs(draws.mean() - mp.mean) / (draws.std(ddof=1) / np.sqrt(ess)):.2f} adjusted SEs)")
print(f"  variance ratio  = {draws.var(ddof=1) / mp.variance:.3f}  (target 1)")

# Quantile-level agreement.
print("\nquantiles (Gibbs vs exact):")
exact = NormalDist(mp.mean, mp.sd)
for q in (0.05, 0.25, 0.5, 0.75, 0.95):
    exact_q = exact.inv_cdf(q)
    print(f"  q={q:4.2f}:  {np.quantile(draws, q):+.4f}  vs  {exact_q:+.4f}")
