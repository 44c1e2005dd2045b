"""Sample the nuisance prior: integrated Brownian motion with random start.

The prior on the regression function is a degree-k random polynomial
plus a k-fold integrated Brownian motion, discretised to a grid.  Higher
k gives smoother paths.  The sampler's `ball` keyword restricts the
draws to a Hoelder ball: by rejection, it keeps only paths whose sup norm
plus Hoelder seminorm stays under a bound.
"""

import numpy as np

from semibvm import (
    GpPriorSpec,
    holder_seminorm,
    kibm_kernel,
    prior_covariance,
    sample_prior_path,
)

print("kernel values c_k(s, t):")
for k in (0, 1, 2):
    row = [kibm_kernel(s, t, k) for s, t in ((0.0, 0.5), (0.5, 0.5), (1.0, 1.0))]
    print(f"  k={k}:  c(0,.5)={row[0]:.4f}  c(.5,.5)={row[1]:.4f}  c(1,1)={row[2]:.4f}")

spec = GpPriorSpec(k=1, grid_size=50, scale=1.0)
cov = prior_covariance(spec)
print(f"\ncovariance matrix on a {spec.grid_size}-point grid:")
print(f"  trace        = {np.trace(cov.matrix):.3f}")
print(f"  eigenvalues  = {np.linalg.eigvalsh(cov.matrix)[-3:]} (top three)")
print(f"  min eigval   = {np.linalg.eigvalsh(cov.matrix).min():.3e}  (near-singular is normal)")

# A few unrestricted draws, summarised by range and roughness.
print("\nunrestricted draws (k = 1, scale = 1):")
for seed in range(4):
    path = sample_prior_path(spec, seed)
    print(
        f"  seed {seed}:  range [{path.values.min():+.2f}, {path.values.max():+.2f}]"
        f"  |.|_0.6 seminorm = {holder_seminorm(path, 0.6):.2f}"
    )

# Restricting to a Hoelder ball: every accepted path obeys the bound.
ball = (0.6, 6.0)  # (alpha, bound)
print("\nrejection-restricted draws (sup + seminorm < 6):")
accepted = 0
for seed in range(200):
    try:
        path = sample_prior_path(spec, seed, max_attempts=1, ball=ball)
        accepted += 1
    except ValueError:
        continue
print(f"  single-attempt acceptance rate ~ {accepted / 200:.2f}")
path = sample_prior_path(spec, 11, ball=ball)
print(
    f"  one accepted path: sup = {path.sup_norm():.2f}, "
    f"seminorm = {holder_seminorm(path, 0.6):.2f}, "
    f"sum = {path.sup_norm() + holder_seminorm(path, 0.6):.2f} < 6"
)

# Smoothness rises with k: the Lipschitz-scale seminorm falls.
print("\nroughness by integration order (same seed):")
for k in (0, 1, 2, 3):
    path = sample_prior_path(GpPriorSpec(k=k, grid_size=50, scale=1.0), 5)
    print(f"  k={k}:  |.|_1.0 seminorm = {holder_seminorm(path, 1.0):8.2f}")
