"""Model-layer tests: covariate law, sampling, densities, scores."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from semibvm.model import (
    CovariateLaw,
    Dataset,
    ModelPoint,
    NuisanceFunction,
    efficient_information,
    efficient_score,
    empirical_information,
    interpolate,
    interpolation_index,
    interpolation_weights,
    log_density_ratio,
    make_covariate_law,
    sample_dataset,
    uniform_grid,
)

N_MC = 100_000


def _truth(grid_size: int = 40, theta: float = 1.0) -> ModelPoint:
    eta = NuisanceFunction.from_callable(lambda v: 0.5 * math.sin(2 * math.pi * v), grid_size)
    return ModelPoint(theta=theta, eta=eta)


class TestMakeCovariateLaw:
    def test_independent_case(self):
        law = make_covariate_law(1.0)
        assert law.cond_mean_amplitude == 0.0
        assert law.efficient_info == 1.0
        assert np.all(law.cond_mean(np.linspace(0, 1, 7)) == 0.0)

    def test_degenerate_residual_rejected(self):
        with pytest.raises(ValueError):
            make_covariate_law(0.0)
        with pytest.raises(ValueError):
            make_covariate_law(-0.3)

    def test_unstandardisable_rejected(self):
        with pytest.raises(ValueError):
            make_covariate_law(1.2)

    def test_amplitude_standardisation(self):
        law = make_covariate_law(0.8)
        assert law.cond_mean_amplitude == pytest.approx(math.sqrt(0.72), abs=1e-15)

    def test_second_moment_monte_carlo(self):
        # E U^2 = 1 within 3 MC standard errors at 1e5 draws
        law = make_covariate_law(0.8)
        rng = np.random.default_rng(101)
        u, _ = law.sample_covariates(N_MC, rng)
        u2 = u**2
        se = u2.std(ddof=1) / math.sqrt(N_MC)
        assert abs(u2.mean() - 1.0) < 3 * se

    @pytest.mark.parametrize("sigma_w", [0.3, 0.5, 0.8, 0.95, 1.0])
    def test_standardisation_across_laws(self, sigma_w):
        law = make_covariate_law(sigma_w)
        rng = np.random.default_rng(7)
        u, _ = law.sample_covariates(N_MC, rng)
        se_mean = u.std(ddof=1) / math.sqrt(N_MC)
        se_second = (u**2).std(ddof=1) / math.sqrt(N_MC)
        assert abs(u.mean()) < 3 * se_mean
        assert abs((u**2).mean() - 1.0) < 3 * se_second

    def test_fourth_moment_analytic(self):
        law = make_covariate_law(0.8)
        rng = np.random.default_rng(5)
        u, _ = law.sample_covariates(N_MC, rng)
        u4 = u**4
        se = u4.std(ddof=1) / math.sqrt(N_MC)
        assert abs(u4.mean() - law.fourth_moment_u) < 4 * se

    def test_abs_cond_mean_analytic(self):
        # E|a cos(2 pi V)| = 2 a / pi
        law = make_covariate_law(0.6)
        v = np.linspace(0.0, 1.0, 200_001)
        quad = np.trapezoid(np.abs(law.cond_mean(v)), v)
        assert quad == pytest.approx(law.abs_mean_cond_mean, abs=1e-6)


class TestSampleDataset:
    def test_empty(self):
        law = make_covariate_law(0.8)
        ds = sample_dataset(law, _truth(), 0, 1)
        assert ds.n == 0
        assert ds.e is not None and ds.e.size == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            sample_dataset(make_covariate_law(0.8), _truth(), -1, 1)

    def test_seed_determinism(self):
        law = make_covariate_law(0.8)
        a = sample_dataset(law, _truth(), 500, 42)
        b = sample_dataset(law, _truth(), 500, 42)
        for name in ("u", "v", "y", "e"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_seed_sensitivity(self):
        law = make_covariate_law(0.8)
        a = sample_dataset(law, _truth(), 50, 1)
        b = sample_dataset(law, _truth(), 50, 2)
        assert not np.array_equal(a.u, b.u)

    def test_large_sample_moments(self):
        law = make_covariate_law(0.8)
        ds = sample_dataset(law, _truth(), N_MC, 11)
        assert abs(ds.u.mean()) < 0.02
        assert abs((ds.u**2).mean() - 1.0) < 0.02

    def test_regression_identity(self):
        # y - theta u - eta(v) reproduces the stored noise exactly
        law = make_covariate_law(0.7)
        truth = _truth()
        ds = sample_dataset(law, truth, 300, 3)
        np.testing.assert_allclose(
            ds.y - truth.theta * ds.u - truth.eta(ds.v), ds.e, atol=1e-12
        )

    def test_v_range_validated(self):
        with pytest.raises(ValueError):
            Dataset(u=np.ones(2), v=np.array([0.5, 1.5]), y=np.ones(2))

    @pytest.mark.parametrize("name", ["u", "v", "y", "e"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entries_rejected(self, name, bad):
        fields = {key: np.full(3, 0.5) for key in ("u", "v", "y", "e")}
        fields[name][1] = bad
        with pytest.raises(ValueError, match=f"{name} entries must be finite"):
            Dataset(**fields)


class TestLogDensityRatio:
    def test_same_point_is_zero(self):
        p = _truth()
        x = (0.3, 0.6, 1.1)
        assert log_density_ratio(x, p, p) == 0.0

    def test_zero_reference_residual(self):
        # y placed exactly on the reference regression surface
        p_ref = _truth(theta=0.8)
        p = ModelPoint(theta=1.3, eta=NuisanceFunction(p_ref.eta.values + 0.25))
        u, v = 0.7, 0.35
        y = p_ref.theta * u + p_ref.eta(v)
        shift = (p_ref.theta - p.theta) * u + (p_ref.eta(v) - p.eta(v))
        expected = -0.5 * shift**2
        assert log_density_ratio((u, v, y), p, p_ref) == pytest.approx(expected, abs=1e-14)

    def test_matches_gaussian_logpdf_difference(self):
        rng = np.random.default_rng(17)
        p = _truth(theta=1.2)
        p_ref = ModelPoint(theta=0.4, eta=NuisanceFunction(0.3 * np.cos(2 * np.pi * uniform_grid(40))))
        for _ in range(25):
            u, v, y = rng.normal(), rng.uniform(), rng.normal(scale=2.0)
            direct = norm.logpdf(y, loc=p.theta * u + p.eta(v)) - norm.logpdf(
                y, loc=p_ref.theta * u + p_ref.eta(v)
            )
            assert log_density_ratio((u, v, y), p, p_ref) == pytest.approx(direct, abs=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(23)
        p = _truth(theta=0.9)
        p_ref = _truth(theta=1.4)
        x = (rng.normal(), rng.uniform(), rng.normal())
        assert log_density_ratio(x, p, p_ref) == pytest.approx(
            -log_density_ratio(x, p_ref, p), abs=1e-14
        )


class TestEfficientScore:
    def test_zero_residual(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        u, v = 0.4, 0.2
        y = truth.theta * u + truth.eta(v)
        assert efficient_score((u, v, y), law, truth) == pytest.approx(0.0, abs=1e-14)

    def test_zero_projection_residual(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        v = 0.15
        u = float(law.cond_mean(v))
        y = truth.theta * u + truth.eta(v) + 2.7
        assert efficient_score((u, v, y), law, truth) == pytest.approx(0.0, abs=1e-14)

    def test_arithmetic(self):
        # residual 2, projection residual 0.5 -> score 1
        law = make_covariate_law(1.0)  # m = 0, so u - m(v) = u
        truth = ModelPoint(theta=0.0, eta=NuisanceFunction.zero(5))
        x = (0.5, 0.3, 2.0)
        assert efficient_score(x, law, truth) == pytest.approx(1.0, abs=1e-14)

    def test_mean_zero_and_variance_matches_information(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        ds = sample_dataset(law, truth, N_MC, 29)
        scores = efficient_score((ds.u, ds.v, ds.y), law, truth)
        se_mean = scores.std(ddof=1) / math.sqrt(N_MC)
        assert abs(scores.mean()) < 3 * se_mean
        sq = scores**2
        se_var = sq.std(ddof=1) / math.sqrt(N_MC)
        assert abs(sq.mean() - law.efficient_info) < 3 * se_var


class TestInformation:
    def test_independent_case(self):
        assert efficient_information(make_covariate_law(1.0)) == 1.0

    def test_analytic_value(self):
        assert efficient_information(make_covariate_law(0.8)) == pytest.approx(0.64)

    def test_monte_carlo_agreement(self):
        law = make_covariate_law(0.8)
        rng = np.random.default_rng(31)
        u, v = law.sample_covariates(N_MC, rng)
        w2 = (u - law.cond_mean(v)) ** 2
        se = w2.std(ddof=1) / math.sqrt(N_MC)
        assert abs(w2.mean() - 0.64) < 3 * se

    def test_empirical_information_clt_band(self):
        # sd(W^2) = sqrt(2) sigma_w^2 since W | V is centred normal
        law = make_covariate_law(0.8)
        n = 10_000
        ds = sample_dataset(law, _truth(), n, 37)
        band = 3 * math.sqrt(2) * law.efficient_info / math.sqrt(n)
        assert abs(empirical_information(ds, law) - law.efficient_info) < band

    def test_empirical_information_empty_rejected(self):
        law = make_covariate_law(0.8)
        ds = sample_dataset(law, _truth(), 0, 1)
        with pytest.raises(ValueError):
            empirical_information(ds, law)


class TestNuisanceFunction:
    def test_grid_values_exact(self):
        values = np.array([0.0, 1.0, -2.0, 0.5])
        eta = NuisanceFunction(values)
        np.testing.assert_array_equal(eta(eta.grid), values)

    def test_linear_interpolation_midpoint(self):
        eta = NuisanceFunction(np.array([0.0, 2.0]))
        assert eta(0.25) == pytest.approx(0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            NuisanceFunction(np.array([0.0, np.nan, 1.0]))

    def test_values_immutable(self):
        eta = NuisanceFunction(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            eta.values[0] = 5.0

    def test_sup_norm(self):
        eta = NuisanceFunction(np.array([0.5, -1.5, 0.25]))
        assert eta.sup_norm() == 1.5


class TestInterpolationWeights:
    def test_reproduces_interp(self):
        rng = np.random.default_rng(41)
        values = rng.normal(size=13)
        eta = NuisanceFunction(values)
        v = rng.uniform(0, 1, size=200)
        np.testing.assert_allclose(
            interpolation_weights(v, 13) @ values, eta(v), atol=1e-13
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(43)
        weights = interpolation_weights(rng.uniform(0, 1, 50), 9)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            interpolation_weights(np.array([1.2]), 5)


class TestInterpolationIndex:
    @pytest.mark.parametrize("grid_size", [2, 3, 7, 50, 200, 1001])
    def test_floor_rule_on_random_points_nodes_and_one(self, grid_size):
        # cell min(floor(v (m-1)), m-2), offset v (m-1) - cell, exactly
        rng = np.random.default_rng(grid_size)
        v = np.concatenate([rng.uniform(0, 1, 500), uniform_grid(grid_size), [1.0]])
        x = v * (grid_size - 1)
        cell = np.minimum(np.floor(x).astype(np.int64), grid_size - 2)
        idx, t = interpolation_index(v, grid_size)
        np.testing.assert_array_equal(idx, cell)
        np.testing.assert_array_equal(t, x - cell)

    def test_keeps_the_shape_of_v(self):
        idx, t = interpolation_index(0.3, 5)
        assert np.ndim(idx) == 0 and np.ndim(t) == 0
        assert (int(idx), float(t)) == (1, pytest.approx(0.2))
        assert np.ndim(NuisanceFunction(np.array([0.0, 2.0]))(0.25)) == 0
        idx, t = interpolation_index(np.full((3, 4), 0.5), 5)
        assert idx.shape == t.shape == (3, 4)

    def test_agrees_with_np_interp(self):
        rng = np.random.default_rng(47)
        values = rng.normal(size=(3, 17))
        v = rng.uniform(0, 1, size=(4, 25))
        expected = np.stack([np.interp(v, uniform_grid(17), row) for row in values])
        np.testing.assert_allclose(interpolate(values, v), expected, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("point", [-1e-12, 1.0 + 1e-12, np.nan])
    def test_nuisance_rejects_points_outside_unit_interval(self, point):
        eta = NuisanceFunction(np.array([0.0, 1.0, 0.5]))
        with pytest.raises(ValueError):
            eta(np.array([0.5, point]))
        with pytest.raises(ValueError):
            eta(point)

    def test_grid_of_one_node_rejected(self):
        with pytest.raises(ValueError):
            interpolation_index(np.array([0.5]), 1)
