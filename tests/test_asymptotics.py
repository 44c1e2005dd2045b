"""Diagnostics tests: TV gaps, KL/Hellinger geometry, expansions, domination."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from semibvm.asymptotics import (
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
from semibvm.gp_prior import GpPriorSpec, prior_covariance
from semibvm.model import (
    Dataset,
    ModelPoint,
    NuisanceFunction,
    empirical_information,
    interpolation_weights,
    make_covariate_law,
    sample_dataset,
    uniform_grid,
)
from semibvm.posterior import MarginalThetaPosterior


def _truth(grid_size=41, theta=1.0, amplitude=0.5):
    eta = NuisanceFunction.from_callable(
        lambda v: amplitude * math.sin(2 * math.pi * v), grid_size
    )
    return ModelPoint(theta=theta, eta=eta)


def tv_by_cdf_crossings(m1, v1, m2, v2):
    """Independent TV evaluation from the two density crossing points."""
    if v1 == v2:
        return 2 * norm.cdf(abs(m1 - m2) / (2 * math.sqrt(v1))) - 1
    a = 0.5 * (1.0 / v2 - 1.0 / v1)
    b = m1 / v1 - m2 / v2
    c = 0.5 * (m2**2 / v2 - m1**2 / v1) - 0.5 * math.log(v1 / v2)
    disc = math.sqrt(b * b - 4 * a * c)
    roots = sorted(((-b - disc) / (2 * a), (-b + disc) / (2 * a)))
    diff = lambda x: norm.cdf(x, m1, math.sqrt(v1)) - norm.cdf(x, m2, math.sqrt(v2))
    d1, d2 = diff(roots[0]), diff(roots[1])
    return 0.5 * (abs(d1) + abs(d2 - d1) + abs(d2))


def tv_by_quadrature(m1, v1, m2, v2):
    """Independent TV evaluation: half the integral of |phi1 - phi2|.

    Breakpoints at each mean +- {0, 1, 5} sd only, so no crossing point
    is shared with the closed form; the 40-sd window loses < 1e-300.
    """
    s1, s2 = math.sqrt(v1), math.sqrt(v2)
    lo = min(m1 - 40 * s1, m2 - 40 * s2)
    hi = max(m1 + 40 * s1, m2 + 40 * s2)
    points = sorted(
        {m + k * sd for m, sd in ((m1, s1), (m2, s2)) for k in (-5, -1, 0, 1, 5)}
    )
    value, _ = quad(
        lambda x: abs(norm.pdf(x, m1, s1) - norm.pdf(x, m2, s2)),
        lo,
        hi,
        points=[x for x in points if lo < x < hi],
        limit=500,
        epsabs=1e-13,
    )
    return 0.5 * value


class TestDeltaN:
    def test_zero_residuals(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        v = np.array([0.1, 0.4, 0.9])
        u = np.asarray(law.cond_mean(v)) + 0.3
        y = truth.theta * u + truth.eta(v)
        ds = Dataset(u=u, v=v, y=y, e=np.zeros(3))
        assert delta_n(ds, law, truth) == 0.0

    def test_cancellation(self):
        # alternating residuals with equal projections cancel exactly
        law = make_covariate_law(1.0)  # m = 0, information 1
        truth = ModelPoint(theta=0.0, eta=NuisanceFunction.zero(4))
        u = np.ones(4)
        v = np.full(4, 0.5)
        e = np.array([1.0, -1.0, 1.0, -1.0])
        ds = Dataset(u=u, v=v, y=u * 0.0 + e, e=e)
        assert delta_n(ds, law, truth) == 0.0

    def test_arithmetic(self):
        law = make_covariate_law(1.0)
        truth = ModelPoint(theta=0.0, eta=NuisanceFunction.zero(4))
        u = np.ones(2)
        v = np.full(2, 0.5)
        e = np.ones(2)
        ds = Dataset(u=u, v=v, y=e.copy(), e=e)
        assert delta_n(ds, law, truth) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_missing_provenance_rejected(self):
        law = make_covariate_law(0.8)
        ds = Dataset(u=np.ones(3), v=np.full(3, 0.2), y=np.ones(3))
        with pytest.raises(ValueError):
            delta_n(ds, law, _truth())


class TestTvNormals:
    def test_identical_is_zero(self):
        assert tv_normals(0.3, 1.7, 0.3, 1.7) == 0.0

    def test_unit_shift_against_quadrature(self):
        # equal-variance closed form against direct integration
        target, _ = quad(
            lambda x: abs(norm.pdf(x, 0, 1) - norm.pdf(x, 1, 1)), -12, 13, limit=300
        )
        assert tv_normals(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.5 * target, abs=1e-8)
        assert tv_normals(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.382925, abs=1e-6)

    @pytest.mark.parametrize(
        "params",
        [
            (0.0, 1.0, 1.0, 2.0),
            (0.3, 0.5, -0.2, 1.7),
            (2.0, 0.01, 2.1, 0.02),
            (0.0, 1.0, 0.0, 1.0001),
            (-5.0, 4.0, 6.0, 0.25),
        ],
    )
    def test_unequal_variances_against_crossing_formula(self, params):
        # closed form against CDF differences at the density crossings,
        # and against direct integration that shares no crossing formula
        assert tv_normals(*params) == pytest.approx(
            tv_by_cdf_crossings(*params), abs=1e-8
        )
        assert tv_normals(*params) == pytest.approx(tv_by_quadrature(*params), abs=1e-8)

    def test_symmetry(self):
        assert tv_normals(0.1, 0.8, -0.7, 2.5) == pytest.approx(
            tv_normals(-0.7, 2.5, 0.1, 0.8), abs=1e-10
        )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            m = rng.normal(size=3)
            v = rng.uniform(0.2, 3.0, size=3)
            d01 = tv_normals(m[0], v[0], m[1], v[1])
            d12 = tv_normals(m[1], v[1], m[2], v[2])
            d02 = tv_normals(m[0], v[0], m[2], v[2])
            assert d02 <= d01 + d12 + 1e-6

    def test_bounded_by_one(self):
        assert tv_normals(-50.0, 0.01, 50.0, 0.01) <= 1.0

    def test_far_separated_narrow_normals(self):
        # spikes thousands of sd apart have disjoint mass
        for params in ((-50.0, 0.01, 50.0, 0.02), (0.0, 1e-4, 30.0, 2e-4)):
            assert tv_normals(*params) == pytest.approx(1.0, abs=1e-10)
            assert tv_normals(*params) == pytest.approx(
                tv_by_cdf_crossings(*params), abs=1e-8
            )

    def test_variance_validation(self):
        with pytest.raises(ValueError):
            tv_normals(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            tv_normals(0.0, 1.0, 0.0, -2.0)


class TestBvmGap:
    def test_exact_limit_has_zero_gap(self):
        n, theta0, info, delta = 400, 1.0, 0.64, 0.37
        mp = MarginalThetaPosterior(
            mean=theta0 + delta / math.sqrt(n), variance=1.0 / (n * info)
        )
        diag = bvm_gap(mp, delta, info, n, theta0)
        assert diag.tv_gap == pytest.approx(0.0, abs=1e-12)
        assert diag.localized_post_mean == pytest.approx(delta, abs=1e-10)
        assert diag.localized_post_var == pytest.approx(1.0 / info, abs=1e-12)

    def test_affine_invariance(self):
        # the same gap computed without localizing
        n, theta0, info, delta = 250, 0.4, 0.5, -0.8
        mp = MarginalThetaPosterior(mean=0.55, variance=0.011)
        diag = bvm_gap(mp, delta, info, n, theta0)
        unlocalized = tv_normals(
            mp.mean, mp.variance, theta0 + delta / math.sqrt(n), 1.0 / (info * n)
        )
        assert diag.tv_gap == pytest.approx(unlocalized, abs=1e-8)

    def test_info_validation(self):
        mp = MarginalThetaPosterior(mean=0.0, variance=1.0)
        with pytest.raises(ValueError):
            bvm_gap(mp, 0.0, 0.0, 10, 0.0)

    def test_diagnostics_validation(self):
        with pytest.raises(ValueError):
            BvmDiagnostics(
                n=5,
                delta_n=0.0,
                info_tilde=1.0,
                localized_post_mean=0.0,
                localized_post_var=1.0,
                tv_gap=1.5,
            )


class TestKlDivergence:
    def test_same_point_is_zero(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        assert kl_divergence(truth, truth, law, 1000, 1) == 0.0

    def test_theta_shift_value(self):
        # eta = eta0, theta - theta0 = 0.5: KL = 0.125 E U^2 = 0.125
        law = make_covariate_law(0.8)
        truth = _truth()
        p = ModelPoint(theta=truth.theta + 0.5, eta=truth.eta)
        draws = 150_000
        est = kl_divergence(p, truth, law, draws, seed=5)
        # X = (0.5 U)^2 / 2; Var X = (E U^4 - 1)/64
        se = math.sqrt((law.fourth_moment_u - 1.0) / 64.0 / draws)
        assert abs(est - 0.125) < 3 * se

    def test_matches_log_ratio_expectation(self):
        # independent estimator: -mean log density ratio over simulated data
        law = make_covariate_law(0.7)
        truth = _truth()
        p = ModelPoint(
            theta=truth.theta + 0.3,
            eta=NuisanceFunction(truth.eta.values + 0.2),
        )
        draws = 120_000
        est_covariate = kl_divergence(p, truth, law, draws, seed=11)

        ds = sample_dataset(law, truth, draws, seed=12)
        from semibvm.model import log_density_ratio

        neg_log = -log_density_ratio((ds.u, ds.v, ds.y), p, truth)
        est_data = float(neg_log.mean())
        se_data = neg_log.std(ddof=1) / math.sqrt(draws)

        rng = np.random.default_rng(11)
        u, v = law.sample_covariates(draws, rng)
        halves = 0.5 * ((p.theta - truth.theta) * u + (p.eta(v) - truth.eta(v))) ** 2
        se_cov = halves.std(ddof=1) / math.sqrt(draws)
        assert abs(est_covariate - est_data) < 4 * math.hypot(se_cov, se_data)

    def test_nonnegative_up_to_mc_error(self):
        law = make_covariate_law(0.9)
        truth = _truth()
        rng = np.random.default_rng(19)
        for _ in range(5):
            p = ModelPoint(
                theta=truth.theta + rng.normal(scale=0.3),
                eta=NuisanceFunction(truth.eta.values + rng.normal(scale=0.2, size=41)),
            )
            assert kl_divergence(p, truth, law, 20_000, seed=int(rng.integers(1e6))) >= 0.0


class TestLeastFavorableEta:
    def test_at_truth(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        np.testing.assert_array_equal(
            least_favorable_eta(truth.theta, truth, law).values, truth.eta.values
        )

    def test_independent_covariates(self):
        # m = 0 makes the curve flat in theta
        law = make_covariate_law(1.0)
        truth = _truth()
        np.testing.assert_array_equal(
            least_favorable_eta(truth.theta + 2.0, truth, law).values,
            truth.eta.values,
        )

    def test_closed_form_values(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        theta = truth.theta - 0.5
        star = least_favorable_eta(theta, truth, law)
        expected = truth.eta.values + 0.5 * np.asarray(law.cond_mean(truth.eta.grid))
        np.testing.assert_allclose(star.values, expected, atol=1e-14)

    @pytest.mark.parametrize("dtheta", [-0.5, 0.5])
    def test_brute_force_grid_minimisation(self, dtheta):
        # search eta0 + c1 m + c2 cos(4 pi .) + c3 over a coefficient grid
        # with one shared covariate sample; KL is minimised at
        # (c1, c2, c3) = (-dtheta, 0, 0) up to one grid step
        law = make_covariate_law(0.8)
        truth = _truth()
        theta = truth.theta + dtheta
        rng = np.random.default_rng(23)
        u, v = law.sample_covariates(150_000, rng)
        base = dtheta * u
        b1 = np.asarray(law.cond_mean(v))
        b2 = np.cos(4 * math.pi * v)
        b3 = np.ones_like(v)
        grid_c = np.linspace(-0.75, 0.75, 7)
        best, best_c = np.inf, None
        for c1 in grid_c:
            for c2 in grid_c:
                for c3 in grid_c:
                    val = 0.5 * np.mean((base + c1 * b1 + c2 * b2 + c3 * b3) ** 2)
                    if val < best:
                        best, best_c = val, (c1, c2, c3)
        step = grid_c[1] - grid_c[0]
        assert abs(best_c[0] - (-dtheta)) <= step + 1e-12
        assert abs(best_c[1]) <= step + 1e-12
        assert abs(best_c[2]) <= step + 1e-12

        # KL at the closed-form minimiser equals dtheta^2 I / 2
        star = least_favorable_eta(theta, truth, law)
        p_star = ModelPoint(theta=theta, eta=star)
        draws = 150_000
        est = kl_divergence(p_star, truth, law, draws, seed=29)
        target = 0.5 * dtheta**2 * law.efficient_info
        se = 0.125 * math.sqrt(2.0) * law.efficient_info / math.sqrt(draws)
        assert abs(est - target) < 3 * se + 1e-5  # 1e-5 covers grid interpolation

    def test_minimises_against_perturbations(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        theta = truth.theta + 0.4
        star = least_favorable_eta(theta, truth, law)
        kl_star = kl_divergence(ModelPoint(theta, star), truth, law, 60_000, seed=31)
        rng = np.random.default_rng(37)
        for _ in range(6):
            bump = rng.normal(scale=0.15, size=star.values.size)
            perturbed = ModelPoint(theta, NuisanceFunction(star.values + bump))
            kl_pert = kl_divergence(perturbed, truth, law, 60_000, seed=31)
            assert kl_pert >= kl_star - 1e-4


class TestMisspecifiedThetaStar:
    @pytest.mark.parametrize("sizes", [(50, 50), (37, 50), (50, 201), (7, 13), (200, 199)])
    def test_closed_form_against_quadrature(self, sizes):
        eta_size, truth_size = sizes
        law = make_covariate_law(0.6)
        truth = _truth(grid_size=truth_size)
        eta = NuisanceFunction(np.random.default_rng(eta_size).normal(size=eta_size))
        nodes = np.union1d(eta.grid, truth.eta.grid)[1:-1]
        value, _ = quad(
            lambda v: law.cond_mean(v) * (eta(v) - truth.eta(v)),
            0.0,
            1.0,
            points=nodes,
            limit=2 * nodes.size + 60,
            epsabs=1e-14,
            epsrel=1e-14,
        )
        star = misspecified_theta_star(eta, truth, law)
        assert star == pytest.approx(truth.theta - value, rel=0.0, abs=1e-12)

    def test_at_truth(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        assert misspecified_theta_star(truth.eta, truth, law) == pytest.approx(
            truth.theta, abs=1e-10
        )

    def test_constant_shift_integrates_away(self):
        # cosine integrates to zero against a constant
        law = make_covariate_law(0.8)
        truth = _truth()
        eta = NuisanceFunction(truth.eta.values + 0.7)
        assert misspecified_theta_star(eta, truth, law) == pytest.approx(
            truth.theta, abs=1e-9
        )

    def test_projection_value(self):
        # eta - eta0 = 0.3 m + 0.1 pulls theta* by -0.3 E[m^2] = -0.3 a^2/2
        law = make_covariate_law(0.8)
        truth = _truth()
        grid = truth.eta.grid
        eta = NuisanceFunction(
            truth.eta.values + 0.3 * np.asarray(law.cond_mean(grid)) + 0.1
        )
        expected = truth.theta - 0.3 * law.cond_mean_amplitude**2 / 2.0
        assert misspecified_theta_star(eta, truth, law) == pytest.approx(
            expected, abs=2e-3  # grid interpolation of the cosine
        )

    def test_brute_force_theta_grid(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        grid = truth.eta.grid
        eta = NuisanceFunction(
            truth.eta.values - 0.4 * np.asarray(law.cond_mean(grid)) + 0.2
        )
        star = misspecified_theta_star(eta, truth, law)
        rng = np.random.default_rng(41)
        u, v = law.sample_covariates(200_000, rng)
        shift_eta = eta(v) - truth.eta(v)
        thetas = np.arange(truth.theta - 1.0, truth.theta + 1.0 + 1e-9, 0.02)
        kls = [
            0.5 * np.mean(((t - truth.theta) * u + shift_eta) ** 2) for t in thetas
        ]
        brute = thetas[int(np.argmin(kls))]
        assert abs(brute - star) <= 0.02 + 1e-9

    def test_bias_bound_for_random_nuisances(self):
        # |theta* - theta0| <= sup|eta - eta0| E|m(V)| + 1e-9
        law = make_covariate_law(0.8)
        truth = _truth()
        rng = np.random.default_rng(43)
        for _ in range(20):
            bump = rng.normal(scale=rng.uniform(0.05, 1.5), size=truth.eta.values.size)
            eta = NuisanceFunction(truth.eta.values + bump)
            star = misspecified_theta_star(eta, truth, law)
            sup = float(np.max(np.abs(bump)))
            assert abs(star - truth.theta) <= sup * law.abs_mean_cond_mean + 1e-9


class TestLanRemainder:
    def test_zero_at_origin(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        ds = sample_dataset(law, truth, 60, 3)
        zeta = NuisanceFunction(0.2 * np.cos(2 * math.pi * uniform_grid(41)))
        assert lan_remainder(ds, 0.0, zeta, truth, law) == 0.0

    @pytest.mark.parametrize("h", [-1.5, 0.7, 2.0])
    @pytest.mark.parametrize("n", [50, 400])
    def test_quadratic_deficit_identity(self, h, n):
        # remainder == h^2/2 * ((1/n) sum w_i^2 - sigma_w^2) exactly
        law = make_covariate_law(0.8)
        truth = _truth()
        ds = sample_dataset(law, truth, n, seed=1000 + n)
        zeta = NuisanceFunction(0.3 * np.sin(4 * math.pi * uniform_grid(41)))
        rem = lan_remainder(ds, h, zeta, truth, law)
        identity = 0.5 * h * h * (empirical_information(ds, law) - law.efficient_info)
        assert rem == pytest.approx(identity, abs=1e-10)

    def test_median_magnitude_shrinks_with_n(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        zeta = NuisanceFunction.zero(41)
        medians = []
        for n in (100, 400, 1600):
            values = [
                abs(lan_remainder(sample_dataset(law, truth, n, 5000 + r), 1.0, zeta, truth, law))
                for r in range(50)
            ]
            medians.append(float(np.median(values)))
        assert medians[0] > medians[1] > medians[2]


class TestHellinger:
    def test_same_point_is_zero(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        assert hellinger_distance(truth, truth, law, 500, 1) == 0.0

    def test_constant_nuisance_shift_closed_form(self):
        # covariate-free shift: H = sqrt(1 - exp(-c^2/8)) exactly
        law = make_covariate_law(0.8)
        truth = _truth()
        c = 0.9
        p = ModelPoint(truth.theta, NuisanceFunction(truth.eta.values + c))
        expected = math.sqrt(1.0 - math.exp(-c * c / 8.0))
        assert hellinger_distance(p, truth, law, 2000, 7) == pytest.approx(
            expected, abs=1e-12
        )

    def test_symmetry(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        p = ModelPoint(truth.theta + 0.4, NuisanceFunction(truth.eta.values - 0.3))
        assert hellinger_distance(p, truth, law, 5000, 3) == pytest.approx(
            hellinger_distance(truth, p, law, 5000, 3), abs=1e-14
        )

    @pytest.mark.parametrize("n", [10, 100])
    def test_local_shift_upper_bound(self, n):
        # H^2 for the theta shift M/sqrt(n) stays under
        # M^2/(2n) E U^2 + M^3/(6 n^2) E U^4 plus 4 MC standard errors
        law = make_covariate_law(0.8)
        truth = _truth()
        m_shift = 2.0
        p = ModelPoint(truth.theta + m_shift / math.sqrt(n), truth.eta)
        draws = 200_000
        h = hellinger_distance(p, truth, law, draws, seed=50 + n)
        rng = np.random.default_rng(50 + n)
        u, v = law.sample_covariates(draws, rng)
        affinity_terms = np.exp(-((m_shift / math.sqrt(n) * u) ** 2) / 8.0)
        se = affinity_terms.std(ddof=1) / math.sqrt(draws)
        bound = m_shift**2 / (2 * n) + m_shift**3 / (6 * n**2) * law.fourth_moment_u
        assert h**2 <= bound + 4 * se

    def test_squared_distance_below_kl(self):
        # H(eta1, eta2)^2 <= KL between the same points, up to MC error
        law = make_covariate_law(0.8)
        truth = _truth()
        rng = np.random.default_rng(59)
        for trial in range(5):
            eta1 = NuisanceFunction(truth.eta.values + rng.normal(scale=0.3, size=41))
            eta2 = NuisanceFunction(truth.eta.values + rng.normal(scale=0.3, size=41))
            p1 = ModelPoint(truth.theta, eta1)
            p2 = ModelPoint(truth.theta, eta2)
            draws = 60_000
            h = hellinger_distance(p1, p2, law, draws, seed=trial)
            kl = kl_divergence(p1, ModelPoint(truth.theta, eta2), law, draws, seed=trial)
            u, v = law.sample_covariates(draws, np.random.default_rng(trial))
            shift = eta1(v) - eta2(v)
            se_h = np.exp(-(shift**2) / 8.0).std(ddof=1) / math.sqrt(draws)
            se_kl = (0.5 * shift**2).std(ddof=1) / math.sqrt(draws)
            assert h**2 <= kl + 4 * (se_h + se_kl)


class TestKlNeighborhoodStats:
    def test_at_truth(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        first, second = kl_neighborhood_stats(truth.eta, truth, law, 1000, 1)
        assert first == 0.0
        assert second == 0.0

    def test_first_moment_matches_quadrature(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        eta = NuisanceFunction(
            truth.eta.values + 0.3 * np.cos(2 * math.pi * truth.eta.grid)
        )
        draws = 150_000
        first, _ = kl_neighborhood_stats(eta, truth, law, draws, seed=61)
        fine = np.linspace(0.0, 1.0, 40_001)
        target = 0.5 * np.trapezoid((eta(fine) - truth.eta(fine)) ** 2, fine)
        sup = float(np.max(np.abs(eta.values - truth.eta.values)))
        se = math.sqrt(sup**2 + sup**4 / 4.0) / math.sqrt(draws)
        assert abs(first - target) < 3 * se

    def test_both_moments_under_class_bound(self):
        # small smooth perturbations inside a sup-norm-D class
        law = make_covariate_law(0.8)
        truth = _truth()
        grid = truth.eta.grid
        for kind, delta in (
            ("cos", 0.2 * np.cos(2 * math.pi * grid)),
            ("sin", 0.3 * np.sin(4 * math.pi * grid)),
            ("mix", 0.1 * np.cos(2 * math.pi * grid) + 0.1 * np.sin(6 * math.pi * grid)),
        ):
            eta = NuisanceFunction(truth.eta.values + delta)
            first, second = kl_neighborhood_stats(eta, truth, law, 120_000, seed=67)
            class_bound = max(eta.sup_norm(), truth.eta.sup_norm())
            sup = float(np.max(np.abs(delta)))
            cap = (0.5 + class_bound**2) * sup**2
            margin = 3 * math.sqrt(sup**2 + sup**4 / 4.0) / math.sqrt(120_000)
            assert first <= cap + margin, kind
            assert second <= cap + margin, kind


class TestIntegralLanCoefficients:
    def test_quadratic_nonpositive_and_zero_at_origin(self):
        law = make_covariate_law(0.8)
        truth = _truth(grid_size=25)
        spec = GpPriorSpec(k=1, grid_size=25, scale=2.0)
        ds = sample_dataset(law, truth, 40, 71)
        coeffs = integral_lan_coefficients(ds, spec, truth.theta)
        assert coeffs.quadratic <= 0.0
        assert coeffs.linear * 0.0 + coeffs.quadratic * 0.0**2 == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LanCoefficients(linear=0.0, quadratic=0.1)

    @pytest.mark.parametrize("h", [-1.0, 1.0])
    def test_small_n_against_prior_monte_carlo(self, h):
        # brute-force nuisance-prior integration of the likelihood ratio
        law = make_covariate_law(0.8)
        truth = _truth(grid_size=30)
        spec = GpPriorSpec(k=1, grid_size=30, scale=2.0)
        ds = sample_dataset(law, truth, 4, seed=73)
        coeffs = integral_lan_coefficients(ds, spec, truth.theta)

        n_draws = 150_000
        factor = np.linalg.cholesky(prior_covariance(spec).matrix)
        rng = np.random.default_rng(79)
        paths = rng.standard_normal((n_draws, spec.grid_size)) @ factor.T
        weights = interpolation_weights(ds.v, spec.grid_size)
        eta_at_v = paths @ weights.T
        theta_h = truth.theta + h / math.sqrt(ds.n)

        def log_weights(theta):
            resid = ds.y[None, :] - theta * ds.u[None, :] - eta_at_v
            return -0.5 * np.sum(resid**2, axis=1)

        lw_h = log_weights(theta_h)
        lw_0 = log_weights(truth.theta)
        cap = max(lw_h.max(), lw_0.max())
        a = np.exp(lw_h - cap)
        b = np.exp(lw_0 - cap)
        log_ratio = math.log(a.mean() / b.mean())
        cov_ab = float(np.cov(a, b)[0, 1])
        se = math.sqrt(
            a.var(ddof=1) / a.mean() ** 2
            + b.var(ddof=1) / b.mean() ** 2
            - 2 * cov_ab / (a.mean() * b.mean())
        ) / math.sqrt(n_draws)
        predicted = coeffs.linear * h + coeffs.quadratic * h * h
        assert abs(log_ratio - predicted) < 4 * se

    def test_curvature_approaches_information(self):
        # -2 * quadratic concentrates near sigma_w^2 as n grows
        law = make_covariate_law(0.8)
        truth = _truth(grid_size=30)
        spec = GpPriorSpec(k=1, grid_size=30, scale=3.0)
        values = []
        for rep in range(20):
            ds = sample_dataset(law, truth, 400, 8000 + rep)
            values.append(-2.0 * integral_lan_coefficients(ds, spec, truth.theta).quadratic)
        med = float(np.median(values))
        assert abs(med - law.efficient_info) < 0.15 * law.efficient_info


class TestEstimateUn:
    def _zetas(self, grid_size=21):
        grid = uniform_grid(grid_size)
        return [
            NuisanceFunction.zero(grid_size),
            NuisanceFunction(0.1 * np.cos(2 * math.pi * grid)),
        ]

    def test_unit_expectation_for_fixed_h(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        estimates, errors = estimate_un_per_zeta(
            law, truth, self._zetas(), rho=0.5, h=1.0, n=50, mc_reps=6000, seed=83
        )
        for est, se in zip(estimates, errors):
            assert abs(est - 1.0) < 4 * se

    def test_singleton_probe_reduces_to_single_expectation(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        # each translation draws from its own substream, so a probe's
        # estimate does not depend on the probes listed after it
        zetas = self._zetas()
        single, _ = estimate_un_per_zeta(
            law, truth, zetas[:1], rho=0.5, h=1.0, n=30, mc_reps=2000, seed=89
        )
        estimates, _ = estimate_un_per_zeta(
            law, truth, zetas, rho=0.5, h=1.0, n=30, mc_reps=2000, seed=89
        )
        assert single[0] == estimates[0]

    def test_plugin_direction_finite_with_errors(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        estimates, errors = estimate_un_per_zeta(
            law, truth, self._zetas(), rho=0.5, h=None, n=50, mc_reps=4000, seed=97
        )
        assert np.all(np.isfinite(estimates))
        assert np.all(np.isfinite(errors))
        assert np.all(estimates > 0.0)

    def test_plugin_direction_equals_per_replication_loop(self):
        # reference: each replication on its own from the same draws, its
        # residual the noise e, its plug-in direction sqrt(n) (u.e)/(u.u)
        # clamped to [-2, 2] and its log ratio s (w.e) - s^2 (w.w)/2
        law = make_covariate_law(0.8)
        truth = _truth()
        reps, seed = 300, 103
        zetas = self._zetas()
        for n in (3, 40, 800, 1000):
            estimates, _ = estimate_un_per_zeta(law, truth, zetas, 0.5, None, n, reps, seed)
            for j in range(len(zetas)):
                rng = np.random.default_rng([seed, j])
                u, v = law.sample_covariates(reps * n, rng)
                e = rng.standard_normal(reps * n)
                u, v, e = (a.reshape(reps, n) for a in (u, v, e))
                w = u - law.cond_mean(v)
                ratios = np.empty(reps)
                for i in range(reps):
                    h = math.sqrt(n) * float(u[i] @ e[i]) / float(u[i] @ u[i])
                    shift = max(-2.0, min(2.0, h)) / math.sqrt(n)
                    we, ww = float(w[i] @ e[i]), float(w[i] @ w[i])
                    ratios[i] = np.exp(shift * we - 0.5 * shift**2 * ww)
                assert estimates[j] == ratios.mean()

    @pytest.mark.parametrize("sigma_w", [0.3, 0.8, 1.0])
    @pytest.mark.parametrize("grid_size", [2, 21, 200])
    @pytest.mark.parametrize("n", [1, 40, 800])
    @pytest.mark.parametrize("h", [None, 1.0, -2.0])
    def test_matches_rebuilt_residual_reference(self, sigma_w, grid_size, n, h):
        # reference: y rebuilt at the translated truth and the residual
        # subtracted back out of it, summed term by term
        law = make_covariate_law(sigma_w)
        truth = _truth(grid_size=grid_size, theta=-1.5, amplitude=3.0)
        grid = uniform_grid(grid_size)
        zetas = [NuisanceFunction.zero(grid_size), NuisanceFunction(2.0 * np.cos(2 * math.pi * grid))]
        reps, seed = 50, 109
        estimates, errors = estimate_un_per_zeta(law, truth, zetas, 0.5, h, n, reps, seed)
        rootn = math.sqrt(n)
        for j, zeta in enumerate(zetas):
            rng = np.random.default_rng([seed, j])
            u, v = law.sample_covariates(reps * n, rng)
            e = rng.standard_normal(reps * n)
            u, v, e = (a.reshape(reps, n) for a in (u, v, e))
            y = truth.theta * u + truth.eta(v) + zeta(v) + e
            r = y - truth.theta * u - truth.eta(v) - zeta(v)
            w = u - law.cond_mean(v)
            if h is None:
                h_rep = np.clip(rootn * np.sum(u * r, axis=1) / np.sum(u * u, axis=1), -2.0, 2.0)
            else:
                h_rep = np.full(reps, h)
            shift = h_rep[:, None] / rootn
            ratios = np.exp(np.sum(-0.5 * (r - shift * w) ** 2 + 0.5 * r**2, axis=1))
            assert estimates[j] == pytest.approx(ratios.mean(), rel=1e-12, abs=0.0)
            se = ratios.std(ddof=1) / math.sqrt(reps)
            assert errors[j] == pytest.approx(se, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("h", [None, 1.0])
    def test_reads_only_the_drawn_noise(self, h, monkeypatch):
        # the residual at the translated truth is the noise, so neither
        # the truth's nor the translations' values enter, and no nuisance
        # is evaluated
        def no_evaluation(self, v):
            raise AssertionError("a nuisance function was evaluated")

        monkeypatch.setattr(NuisanceFunction, "__call__", no_evaluation)
        law = make_covariate_law(0.8)
        other_truth = _truth(grid_size=7, theta=-3.0, amplitude=2.5)
        other_zetas = [NuisanceFunction(np.full(7, 1.5)), NuisanceFunction(np.linspace(-2, 2, 7))]
        a = estimate_un_per_zeta(law, _truth(), self._zetas(), 0.5, h, 40, 300, seed=107)
        b = estimate_un_per_zeta(law, other_truth, other_zetas, 0.1, h, 40, 300, seed=107)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_seed_determinism(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        a = estimate_un_per_zeta(law, truth, self._zetas(), 0.5, 1.0, 20, 500, seed=101)
        b = estimate_un_per_zeta(law, truth, self._zetas(), 0.5, 1.0, 20, 500, seed=101)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_empty_probe_set_rejected(self):
        law = make_covariate_law(0.8)
        with pytest.raises(ValueError):
            estimate_un_per_zeta(law, _truth(), [], 0.5, 1.0, 10, 100, seed=1)
