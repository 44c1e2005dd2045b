"""Simulation lab for marginal-posterior normality in partial linear regression.

The package provides the data-generating model, the integrated Brownian
motion nuisance prior, exact and MCMC posteriors, the efficiency
diagnostics (total-variation gaps, KL/Hellinger geometry, likelihood
expansions) and an experiment harness with a CLI.

The exported names load lazily (PEP 562): ``import semibvm`` imports no
submodule and so no numpy, which leaves :mod:`semibvm.cli` free to choose
the process's BLAS thread count before numpy loads.  Each lookup of an
exported name reads it off its submodule afresh and nothing is stored
here, so the package namespace never holds a second binding of a
submodule's function.
"""

import importlib

__version__ = "0.1.0"

# every exported name -> the submodule that defines it
_EXPORTS = {
    "BvmDiagnostics": "asymptotics",
    "LanCoefficients": "asymptotics",
    "bvm_gap": "asymptotics",
    "delta_n": "asymptotics",
    "estimate_un_per_zeta": "asymptotics",
    "hellinger_distance": "asymptotics",
    "integral_lan_coefficients": "asymptotics",
    "kl_divergence": "asymptotics",
    "kl_neighborhood_stats": "asymptotics",
    "lan_remainder": "asymptotics",
    "least_favorable_eta": "asymptotics",
    "misspecified_theta_star": "asymptotics",
    "tv_normals": "asymptotics",
    "ExperimentConfig": "experiments",
    "RunReport": "experiments",
    "cell_seed": "experiments",
    "run_bvm_scan": "experiments",
    "run_coverage": "experiments",
    "run_parametric_baseline": "experiments",
    "GpPriorSpec": "gp_prior",
    "NumericsError": "gp_prior",
    "PriorCovariance": "gp_prior",
    "holder_seminorm": "gp_prior",
    "kibm_kernel": "gp_prior",
    "prior_covariance": "gp_prior",
    "sample_prior_path": "gp_prior",
    "CovariateLaw": "model",
    "Dataset": "model",
    "ModelPoint": "model",
    "NuisanceFunction": "model",
    "efficient_score": "model",
    "empirical_information": "model",
    "make_covariate_law": "model",
    "sample_dataset": "model",
    "GibbsChain": "posterior",
    "JointGaussianPosterior": "posterior",
    "MarginalThetaPosterior": "posterior",
    "conditional_nuisance_mass": "posterior",
    "conjugate_joint_posterior": "posterior",
    "credible_interval": "posterior",
    "gibbs_chain": "posterior",
    "posterior_mass_h_ball": "posterior",
    "theta_posterior": "posterior",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        submodule = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{submodule}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
