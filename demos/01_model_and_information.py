"""Walk through the data-generating process and its efficiency quantities.

The model is Y = theta * U + eta(V) + e with standard normal noise.  The
covariate pair is standardised so E[U] = 0 and E[U^2] = 1, with a known
conditional mean m(v) = E[U | V = v].  Whatever part of U is predictable
from V carries no information about theta once eta is unknown; only the
residual U - m(V) does.  The efficient information is therefore
sigma_w^2, the variance of that residual.
"""

import numpy as np

from semibvm import (
    ModelPoint,
    NuisanceFunction,
    efficient_score,
    empirical_information,
    make_covariate_law,
    sample_dataset,
)

law = make_covariate_law(residual_sd=0.8)
print("covariate law: U = a cos(2 pi V) + sigma_w Z")
print(f"  amplitude a        = {law.cond_mean_amplitude:.6f}")
print(f"  residual sd        = {law.residual_sd}")
print(f"  efficient info     = {law.efficient_info:.4f}  (= sigma_w^2)")
print(f"  E U^4 (analytic)   = {law.fourth_moment_u:.4f}")

truth = ModelPoint(
    theta=1.0,
    eta=NuisanceFunction.from_callable(lambda v: 0.5 * np.sin(2 * np.pi * v), 50),
)

# One large sample: the empirical moments line up with the design targets.
ds = sample_dataset(law, truth, n=100_000, seed=1)
print("\nsimulated sample, n = 100000:")
print(f"  mean U     = {ds.u.mean():+.4f}   (target 0)")
print(f"  mean U^2   = {(ds.u**2).mean():.4f}   (target 1)")
print(f"  empirical information = {empirical_information(ds, law):.4f}"
      f"   (target {law.efficient_info:.4f})")

# The efficient score e (U - m(V)) is centred with variance = information.
scores = efficient_score((ds.u, ds.v, ds.y), law, truth)
print("\nefficient score over the sample:")
print(f"  mean       = {scores.mean():+.5f}   (target 0)")
print(f"  variance   = {scores.var(ddof=1):.4f}   (target {law.efficient_info:.4f})")

# Shrinking the residual sd toward 0 starves the model of information:
# U becomes a function of V and theta is no longer identifiable apart
# from eta.  The constructor rejects the degenerate endpoint.
print("\ninformation across residual scales:")
for sd in (1.0, 0.8, 0.5, 0.25):
    print(f"  sigma_w = {sd:4.2f}  ->  information {make_covariate_law(sd).efficient_info:.4f}")
