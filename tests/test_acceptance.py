"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines as they are produced.  Every tolerance is fixed here; nothing is
calibrated at run time.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from semibvm.asymptotics import (
    hellinger_distance,
    integral_lan_coefficients,
    kl_divergence,
    lan_remainder,
    least_favorable_eta,
    misspecified_theta_star,
)
from semibvm.experiments import (
    ExperimentConfig,
    cell_seed,
    run_bvm_scan,
    run_coverage,
    run_parametric_baseline,
)
from semibvm.gp_prior import (
    GpPriorSpec,
    kibm_kernel,
    prior_covariance,
)
from semibvm.model import (
    ModelPoint,
    NuisanceFunction,
    empirical_information,
    interpolation_weights,
    make_covariate_law,
    sample_dataset,
    sample_datasets,
    uniform_grid,
)
from semibvm.posterior import (
    effective_sample_size,
    gibbs_chain,
    posterior_mass_h_ball,
    theta_posterior,
)

DEFAULT = ExperimentConfig()  # sigma_w .8, theta0 1, eta0 .5 sine, k 1, m 50, tau2 10
INFO = 0.64  # analytic efficient information at sigma_w = 0.8


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def default_scan():
    start = time.perf_counter()
    report = run_bvm_scan(DEFAULT)
    report.elapsed_seconds = time.perf_counter() - start
    return report


def test_01_gap_decreases_along_ladder(default_scan):
    medians = {a["n"]: a["median_tv_gap"] for a in default_scan.aggregates}
    ladder = list(DEFAULT.n_ladder)
    decreasing = all(
        medians[a] > medians[b] for a, b in zip(ladder, ladder[1:])
    )
    tail_ok = medians[800] < 0.15
    fast = default_scan.elapsed_seconds < 300.0
    detail = (
        "medians "
        + " > ".join(f"{medians[n]:.4f}" for n in ladder)
        + f", tail<0.15: {tail_ok}, {default_scan.elapsed_seconds:.1f}s"
    )
    _verdict(1, "tv gap strictly decreasing, small at n=800", decreasing and tail_ok and fast, detail)


def test_02_posterior_spread_efficiency(default_scan):
    rows = [r for r in default_scan.rows if r["n"] == 800]
    assert len(rows) == DEFAULT.seeds
    rel_errors = [abs(r["localized_post_var"] - 1.0 / INFO) * INFO for r in rows]
    med = float(np.median(rel_errors))
    _verdict(2, "n*variance near 1/information at n=800", med < 0.15, f"median rel err {med:.4f} < 0.15")


def test_03_coverage_at_nominal_level():
    cfg = ExperimentConfig(n_ladder=(500,), level=0.95, master_seed=0)
    report = run_coverage(cfg, replications=1000)
    coverage = report.aggregates[0]["coverage"]
    ok = 0.93 <= coverage <= 0.97
    _verdict(3, "95% interval coverage at n=500", ok, f"coverage {coverage:.3f} in [0.93, 0.97]")


def test_04_gibbs_agrees_with_conjugate():
    rng = np.random.default_rng(20260810)
    failures = []
    for trial in range(10):
        sigma_w = rng.uniform(0.6, 0.95)
        grid_size = int(rng.integers(12, 28))
        cfg_law = make_covariate_law(sigma_w)
        truth = ModelPoint(
            theta=rng.uniform(-1.0, 2.0),
            eta=NuisanceFunction.from_callable(
                lambda v, a=rng.uniform(0.2, 0.8): a * math.sin(2 * math.pi * v),
                grid_size,
            ),
        )
        spec = GpPriorSpec(
            k=int(rng.integers(0, 3)), grid_size=grid_size, scale=rng.uniform(1.0, 4.0)
        )
        tau2 = rng.uniform(5.0, 50.0)
        n = int(rng.integers(80, 300))
        ds = sample_dataset(cfg_law, truth, n, seed=int(rng.integers(2**31)))
        mp = theta_posterior(ds, spec, tau2)
        chain = gibbs_chain(
            ds, spec, tau2, iterations=11_000, burn_in=1_000, seed=int(rng.integers(2**31))
        )
        draws = chain.theta_draws
        ess = effective_sample_size(draws)
        se = draws.std(ddof=1) / math.sqrt(ess)
        mean_ok = abs(draws.mean() - mp.mean) < 3 * se
        ratio = draws.var(ddof=1) / mp.variance
        var_ok = 0.9 < ratio < 1.1
        if not (mean_ok and var_ok):
            failures.append((trial, abs(draws.mean() - mp.mean) / se, ratio))
    _verdict(
        4,
        "theta marginal: Gibbs vs closed form, 10 configs",
        not failures,
        f"{10 - len(failures)}/10 within 3 adjusted SE and variance ratio in [0.9, 1.1]",
    )


def test_05_kernel_against_quadrature():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        s, t = rng.uniform(0.0, 1.0, size=2)
        k = int(rng.integers(0, 4))
        poly = sum((s * t) ** i / math.factorial(i) ** 2 for i in range(k + 1))
        integral, _ = quad(
            lambda x: (s - x) ** k * (t - x) ** k, 0.0, min(s, t), epsabs=1e-13, epsrel=1e-13
        )
        reference = poly + integral / math.factorial(k) ** 2
        rel = abs(kibm_kernel(s, t, k) - reference) / max(abs(reference), 1.0)
        worst = max(worst, rel)
    corner_ok = abs(kibm_kernel(1.0, 1.0, 1) - 7.0 / 3.0) < 1e-10
    _verdict(
        5,
        "kernel matches quadrature",
        worst < 1e-8 and corner_ok,
        f"worst rel err {worst:.2e} < 1e-8, c_1(1,1)=7/3 within 1e-10: {corner_ok}",
    )


def test_06_lan_remainder_identity_and_trend():
    # the remainder does not depend on the nuisance translation; the exact
    # log ratio at three translations is checked in test_asymptotics.py
    law, truth = DEFAULT.law, DEFAULT.truth
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(9):
        n = int(rng.integers(20, 1200))
        h = float(rng.uniform(-2.0, 2.0))
        ds = sample_dataset(law, truth, n, seed=int(rng.integers(2**31)))
        rem = lan_remainder(ds, h, law)
        identity = 0.5 * h * h * (empirical_information(ds, law) - INFO)
        worst = max(worst, abs(rem - identity))
    identity_ok = worst < 1e-10

    medians = []
    for n in (100, 400, 1600):
        values = [
            abs(lan_remainder(sample_dataset(law, truth, n, cell_seed(6, n, r)), 1.0, law))
            for r in range(50)
        ]
        medians.append(float(np.median(values)))
    trend_ok = medians[0] > medians[1] > medians[2]
    _verdict(
        6,
        "expansion remainder identity and decay",
        identity_ok and trend_ok,
        f"max identity residual {worst:.2e} < 1e-10, medians {medians[0]:.4f} > {medians[1]:.4f} > {medians[2]:.4f}",
    )


def test_07_least_favorable_recovery():
    law, truth = DEFAULT.law, DEFAULT.truth
    covariates = sample_dataset(law, truth, 150_000, 7)
    u, v = covariates.u, covariates.v
    b1 = np.asarray(law.cond_mean(v))
    b2 = np.cos(4 * math.pi * v)
    b3 = np.ones_like(v)
    grid_c = np.linspace(-0.75, 0.75, 7)
    step = grid_c[1] - grid_c[0]
    all_ok = True
    details = []
    for dtheta in (-0.5, 0.5):
        base = dtheta * u
        best, best_c = np.inf, None
        for c1 in grid_c:
            for c2 in grid_c:
                for c3 in grid_c:
                    val = 0.5 * np.mean((base + c1 * b1 + c2 * b2 + c3 * b3) ** 2)
                    if val < best:
                        best, best_c = val, (c1, c2, c3)
        grid_ok = (
            abs(best_c[0] + dtheta) <= step + 1e-12
            and abs(best_c[1]) <= step + 1e-12
            and abs(best_c[2]) <= step + 1e-12
        )
        theta = truth.theta + dtheta
        star = least_favorable_eta(theta, truth, law)
        est = kl_divergence(ModelPoint(theta, star), truth, law)
        target = 0.5 * dtheta**2 * INFO
        value_ok = abs(est - target) < 1e-5  # grid interpolation of m
        all_ok = all_ok and grid_ok and value_ok
        coeffs = ", ".join(f"{c:+.2f}" for c in best_c)
        details.append(f"dtheta={dtheta}: argmin ({coeffs}), KL err {abs(est - target):.2e}")
    _verdict(7, "KL-minimising nuisance recovered", all_ok, "; ".join(details))


def test_08_integral_expansion():
    law, truth = DEFAULT.law, DEFAULT.truth
    spec = GpPriorSpec(k=1, grid_size=30, scale=2.0)
    truth30 = ModelPoint(
        theta=truth.theta,
        eta=NuisanceFunction.from_callable(lambda v: 0.5 * math.sin(2 * math.pi * v), 30),
    )
    ds = sample_dataset(law, truth30, 4, seed=88)
    coeffs = integral_lan_coefficients(ds, spec, truth30.theta)
    factor = np.linalg.cholesky(prior_covariance(spec).matrix)
    rng = np.random.default_rng(888)
    paths = rng.standard_normal((150_000, 30)) @ factor.T
    eta_at_v = paths @ interpolation_weights(ds.v, 30).T
    mc_ok = True
    mc_details = []
    for h in (-1.0, 1.0):
        theta_h = truth30.theta + h / math.sqrt(ds.n)
        lw_h = -0.5 * np.sum((ds.y[None, :] - theta_h * ds.u[None, :] - eta_at_v) ** 2, axis=1)
        lw_0 = -0.5 * np.sum((ds.y[None, :] - truth30.theta * ds.u[None, :] - eta_at_v) ** 2, axis=1)
        cap = max(lw_h.max(), lw_0.max())
        a = np.exp(lw_h - cap)
        b = np.exp(lw_0 - cap)
        log_ratio = math.log(a.mean() / b.mean())
        cov_ab = float(np.cov(a, b)[0, 1])
        se = math.sqrt(
            a.var(ddof=1) / a.mean() ** 2
            + b.var(ddof=1) / b.mean() ** 2
            - 2 * cov_ab / (a.mean() * b.mean())
        ) / math.sqrt(paths.shape[0])
        predicted = coeffs.linear * h + coeffs.quadratic * h * h
        gap = abs(log_ratio - predicted)
        mc_ok = mc_ok and gap < 4 * se
        mc_details.append(f"h={h:+.0f}: |gap| {gap:.4f} vs 4SE {4 * se:.4f}")

    truth50, spec50 = DEFAULT.truth, DEFAULT.spec
    curvature = []
    for rep in range(50):
        ds800 = sample_dataset(law, truth50, 800, cell_seed(8, 800, rep))
        curvature.append(-2.0 * integral_lan_coefficients(ds800, spec50, truth50.theta).quadratic)
    med = float(np.median(curvature))
    curvature_ok = abs(med - INFO) < 0.15 * INFO
    _verdict(
        8,
        "integrated-likelihood expansion",
        mc_ok and curvature_ok,
        "; ".join(mc_details) + f"; median curvature {med:.4f} within 0.15*I of {INFO}",
    )


def test_09_domination_statistic_normalised():
    # a fixed direction h = 1: at the (translated) truth the residual is the
    # drawn noise e, so a dataset's likelihood ratio is exp(s e.w - s^2 w.w / 2)
    # with s = 1/sqrt(n), whatever the translation, and its expectation is 1
    law, truth = DEFAULT.law, DEFAULT.truth
    ok = True
    details = []
    for n in (10, 100):
        data = sample_datasets(law, truth, n, [cell_seed(9, n, r) for r in range(10_000)])
        s = 1.0 / math.sqrt(n)
        ratios = np.exp(s * np.sum(data.e * data.w, axis=1) - 0.5 * s * s * np.sum(data.w**2, axis=1))
        est, se = ratios.mean(), ratios.std(ddof=1) / math.sqrt(ratios.size)
        ok = ok and abs(est - 1.0) < 4 * se
        details.append(f"n={n}: |est-1| {abs(est - 1.0):.4f} vs 4SE {4 * se:.4f}")
    _verdict(9, "likelihood-ratio expectation is 1", ok, "; ".join(details))


def test_10_local_hellinger_bound():
    law, truth = DEFAULT.law, DEFAULT.truth
    m_shift = 2.0
    ok = True
    details = []
    for n in (10, 100):
        p = ModelPoint(truth.theta + m_shift / math.sqrt(n), truth.eta)
        h = hellinger_distance(p, truth, law)
        bound = m_shift**2 / (2 * n) + m_shift**3 / (6 * n**2) * law.fourth_moment_u
        ok = ok and h**2 <= bound
        details.append(f"n={n}: H^2 {h**2:.5f} <= {bound:.5f}")
    _verdict(10, "theta-shift Hellinger bound", ok, "; ".join(details))


def test_11_root_n_concentration():
    law, truth, spec = DEFAULT.law, DEFAULT.truth, DEFAULT.spec
    n = 800
    radius = math.log(n)
    masses = []
    for rep in range(50):
        ds = sample_dataset(law, truth, n, cell_seed(11, n, rep))
        mp = theta_posterior(ds, spec, DEFAULT.theta_prior_var)
        masses.append(posterior_mass_h_ball(mp, truth.theta, radius, n))
    med = float(np.median(masses))
    _verdict(11, "posterior mass inside log(n)-ball", med >= 0.95, f"median mass {med:.6f} >= 0.95")


def test_12_location_model_baseline():
    gap_1000 = run_parametric_baseline(1000, 1.0, 100.0, seed=12).tv_gap
    point_ok = gap_1000 < 0.01
    medians = []
    for n in (10, 100, 1000):
        gaps = [
            run_parametric_baseline(n, 1.0, 100.0, seed=cell_seed(12, n, r)).tv_gap
            for r in range(50)
        ]
        medians.append(float(np.median(gaps)))
    trend_ok = medians[0] >= medians[1] >= medians[2] and medians[0] > medians[2]
    _verdict(
        12,
        "location-model reference gap",
        point_ok and trend_ok,
        f"gap(1000) {gap_1000:.5f} < 0.01, medians {medians[0]:.4f} >= {medians[1]:.4f} >= {medians[2]:.4f}",
    )


def test_13_misspecification_bias():
    law, truth = DEFAULT.law, DEFAULT.truth
    rng = np.random.default_rng(13)
    bound_ok = True
    worst_excess = -np.inf
    for _ in range(20):
        bump = rng.normal(scale=rng.uniform(0.05, 1.5), size=truth.eta.values.size)
        eta = NuisanceFunction(truth.eta.values + bump)
        star = misspecified_theta_star(eta, truth, law)
        # sup|eta - eta0| E|m(V)|, E|m(V)| = 2 a / pi
        cap = float(np.max(np.abs(bump))) * 2.0 * law.cond_mean_amplitude / math.pi + 1e-9
        excess = abs(star - truth.theta) - cap
        worst_excess = max(worst_excess, excess)
        bound_ok = bound_ok and excess <= 0.0

    grid = truth.eta.grid
    eta = NuisanceFunction(truth.eta.values - 0.4 * np.asarray(law.cond_mean(grid)) + 0.2)
    star = misspecified_theta_star(eta, truth, law)
    covariates = sample_dataset(law, truth, 200_000, 131)
    u, v = covariates.u, covariates.v
    shift_eta = eta(v) - truth.eta(v)
    thetas = np.arange(truth.theta - 1.0, truth.theta + 1.0 + 1e-9, 0.02)
    kls = [0.5 * np.mean(((t - truth.theta) * u + shift_eta) ** 2) for t in thetas]
    brute = float(thetas[int(np.argmin(kls))])
    brute_ok = abs(brute - star) <= 0.02 + 1e-9
    _verdict(
        13,
        "fixed-nuisance KL-minimiser bias",
        bound_ok and brute_ok,
        f"worst bound excess {worst_excess:.2e} <= 0, |brute - closed| {abs(brute - star):.4f} <= 0.02",
    )
