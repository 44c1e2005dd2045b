"""Simulation lab for marginal-posterior normality in partial linear regression.

The package provides the data-generating model, the integrated Brownian
motion nuisance prior, exact and MCMC posteriors, the efficiency
diagnostics (total-variation gaps, KL/Hellinger geometry, likelihood
expansions) and an experiment harness with a CLI.
"""

from .asymptotics import (
    BvmDiagnostics,
    LanCoefficients,
    bvm_gap,
    delta_n,
    estimate_un_per_zeta,
    hellinger_distance,
    integral_lan_coefficients,
    kl_divergence,
    kl_neighborhood_stats,
    lan_remainder,
    least_favorable_eta,
    misspecified_theta_star,
    tv_normals,
)
from .experiments import (
    ExperimentConfig,
    RunReport,
    cell_seed,
    run_bvm_scan,
    run_coverage,
    run_parametric_baseline,
)
from .gp_prior import (
    GpPriorSpec,
    NumericsError,
    PriorCovariance,
    holder_seminorm,
    kibm_kernel,
    prior_covariance,
    sample_prior_path,
)
from .model import (
    CovariateLaw,
    Dataset,
    ModelPoint,
    NuisanceFunction,
    efficient_information,
    efficient_score,
    empirical_information,
    log_density_ratio,
    make_covariate_law,
    sample_dataset,
)
from .posterior import (
    GibbsChain,
    JointGaussianPosterior,
    MarginalThetaPosterior,
    conditional_nuisance_mass,
    conjugate_joint_posterior,
    credible_interval,
    gibbs_chain,
    posterior_mass_h_ball,
    theta_posterior,
)

__all__ = [
    "BvmDiagnostics",
    "LanCoefficients",
    "bvm_gap",
    "delta_n",
    "estimate_un_per_zeta",
    "hellinger_distance",
    "integral_lan_coefficients",
    "kl_divergence",
    "kl_neighborhood_stats",
    "lan_remainder",
    "least_favorable_eta",
    "misspecified_theta_star",
    "tv_normals",
    "ExperimentConfig",
    "RunReport",
    "cell_seed",
    "run_bvm_scan",
    "run_coverage",
    "run_parametric_baseline",
    "GpPriorSpec",
    "NumericsError",
    "PriorCovariance",
    "holder_seminorm",
    "kibm_kernel",
    "prior_covariance",
    "sample_prior_path",
    "CovariateLaw",
    "Dataset",
    "ModelPoint",
    "NuisanceFunction",
    "efficient_information",
    "efficient_score",
    "empirical_information",
    "log_density_ratio",
    "make_covariate_law",
    "sample_dataset",
    "GibbsChain",
    "JointGaussianPosterior",
    "MarginalThetaPosterior",
    "conditional_nuisance_mass",
    "conjugate_joint_posterior",
    "credible_interval",
    "gibbs_chain",
    "posterior_mass_h_ball",
    "theta_posterior",
]

__version__ = "0.1.0"
