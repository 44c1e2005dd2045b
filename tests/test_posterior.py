"""Posterior tests: conjugate closed form, Gibbs cross-check, intervals, masses."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import brentq
from scipy.special import erfinv, ndtr
from scipy.stats import kstest

import semibvm.asymptotics
from semibvm.asymptotics import (
    hellinger_distance,
    integral_lan_coefficients,
    least_favorable_eta,
    tv_normals,
)
from semibvm.experiments import ExperimentConfig, cell_seed
from semibvm.gp_prior import (
    GpPriorSpec,
    NumericsError,
    PriorCovariance,
    prior_covariance,
    prior_factor,
    sample_prior_path,
)
import semibvm.model
from semibvm.model import (
    Dataset,
    ModelPoint,
    NuisanceFunction,
    interpolate,
    interpolation_weights,
    make_covariate_law,
    sample_dataset,
    sample_datasets,
)
import semibvm.posterior
from semibvm.posterior import (
    GibbsChain,
    JointGaussianPosterior,
    MarginalThetaPosterior,
    _assemble,
    _interval_z,
    _inverse_lower,
    _normal_cdf,
    _nuisance_conditional,
    _solve,
    _statistics,
    conditional_nuisance_mass,
    conjugate_joint_posterior,
    credible_bounds,
    credible_interval,
    effective_sample_size,
    gibbs_chain,
    posterior_mass_h_ball,
    theta_posterior,
    theta_posteriors,
)


def _setup(n=150, seed=9, grid_size=25, scale=2.0, sigma_w=0.8):
    law = make_covariate_law(sigma_w)
    eta0 = NuisanceFunction.from_callable(
        lambda v: 0.5 * math.sin(2 * math.pi * v), grid_size
    )
    truth = ModelPoint(theta=1.0, eta=eta0)
    spec = GpPriorSpec(k=1, grid_size=grid_size, scale=scale)
    ds = sample_dataset(law, truth, n, seed)
    return law, truth, spec, ds


def _std_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def joint_theta(jp):
    """The joint's coordinate 0: theta's marginal mean and variance."""
    return MarginalThetaPosterior(mean=float(jp.mean[0]), variance=float(jp.covariance[0, 0]))


def eigen_theta_marginal(ds, spec, tau2):
    """Reference theta marginal: K = L L' by eigendecomposition, whitened solve.

    Eigenvalues are clipped at zero, so a numerically singular K needs
    no jitter; theta is eliminated through the Schur complement of
    B = I + L'W'WL.
    """
    lam, q = np.linalg.eigh(prior_covariance(spec).matrix)
    factor = q * np.sqrt(np.clip(lam, 0.0, None))
    loaded = interpolation_weights(ds.v, spec.grid_size) @ factor
    b = np.eye(spec.grid_size) + loaded.T @ loaded
    a = loaded.T @ ds.u
    solved = np.linalg.solve(b, a)
    precision = ds.u @ ds.u + (0.0 if math.isinf(tau2) else 1.0 / tau2) - a @ solved
    mean = (ds.u @ ds.y - solved @ (loaded.T @ ds.y)) / precision
    return mean, 1.0 / precision


def mpmath_theta_marginal(ds, spec, tau2, digits=50):
    """Reference theta marginal in 50-digit arithmetic via y ~ N(theta u, S).

    S = W K W' + I with K from the cancellation-free kernel form
    sum_j C(k,j) (t-s)^(k-j) s^(k+j+1) / (k+j+1) / (k!)^2 for s <= t.
    """
    k, m = spec.k, spec.grid_size
    with mpmath.workdps(digits):
        grid = [mpmath.mpf(j) / (m - 1) for j in range(m)]

        def kernel(s, t):
            s, t = min(s, t), max(s, t)
            poly = sum((s * t) ** i / mpmath.factorial(i) ** 2 for i in range(k + 1))
            integral = sum(
                mpmath.binomial(k, j) * (t - s) ** (k - j) * s ** (k + j + 1) / (k + j + 1)
                for j in range(k + 1)
            )
            return mpmath.mpf(spec.scale) ** 2 * (poly + integral / mpmath.factorial(k) ** 2)

        cov = mpmath.matrix([[kernel(s, t) for t in grid] for s in grid])
        w = mpmath.matrix(interpolation_weights(ds.v, m).tolist())
        s_mat = w * cov * w.T + mpmath.eye(ds.n)
        u = mpmath.matrix(ds.u.tolist())
        y = mpmath.matrix(ds.y.tolist())
        solved_u = mpmath.lu_solve(s_mat, u)
        precision = (u.T * solved_u)[0] + (0 if math.isinf(tau2) else 1 / mpmath.mpf(tau2))
        mean = (y.T * solved_u)[0] / precision
        return float(mean), float(1 / precision)


def test_array_holding_records_compare_and_hash_by_identity():
    # a generated __eq__ compared arrays (and raised on any two distinct
    # instances) and the generated __hash__ raised "unhashable"; these
    # records hold arrays, so equality is identity
    law, truth, spec, ds = _setup(n=20)
    stack = sample_datasets(law, truth, 20, [1, 2])
    jp = conjugate_joint_posterior(ds, spec, 10.0)
    records = [
        (truth.eta, NuisanceFunction(truth.eta.values)),
        (truth, ModelPoint(theta=truth.theta, eta=truth.eta)),
        (ds, Dataset(u=ds.u, v=ds.v, y=ds.y, e=ds.e, w=ds.w)),
        (stack, Dataset(u=stack.u, v=stack.v, y=stack.y, e=stack.e, w=stack.w)),
        (prior_covariance(spec), PriorCovariance(prior_covariance(spec).matrix)),
        (jp, JointGaussianPosterior(mean=jp.mean, root=jp.root)),
        (
            gibbs_chain(ds, spec, 10.0, 3, 1, seed=0),
            GibbsChain(thetas=np.zeros(3), etas=np.zeros((3, 25)), iterations=3, burn_in=1, seed=0),
        ),
    ]
    for record, twin in records:
        assert record == record and hash(record) == hash(record)
        assert record != twin and not (record == twin)
        assert len({record, twin}) == 2
    # records of scalars keep value equality; a spec keys prior_factor's cache
    assert GpPriorSpec(k=2, grid_size=9) == GpPriorSpec(k=2, grid_size=9)
    assert hash(GpPriorSpec(k=2, grid_size=9)) == hash(GpPriorSpec(k=2, grid_size=9))
    assert MarginalThetaPosterior(0.5, 2.0) == MarginalThetaPosterior(0.5, 2.0)


class TestConjugatePosterior:
    def test_no_data_returns_prior(self):
        # the engine's S = diag(I, 1/tau^2, 1): tau^2 back to 2 ulp
        _, _, spec, _ = _setup()
        empty = Dataset(u=np.array([]), v=np.array([]), y=np.array([]))
        jp = conjugate_joint_posterior(empty, spec, theta_prior_var=7.0)
        np.testing.assert_array_equal(jp.mean, np.zeros(spec.grid_size + 1))
        assert abs(jp.covariance[0, 0] - 7.0) <= 2.0 * np.spacing(7.0)
        np.testing.assert_allclose(
            jp.covariance[1:, 1:], prior_covariance(spec).matrix, atol=1e-12
        )
        assert np.all(jp.covariance[0, 1:] == 0.0)

    def test_pinned_nuisance_limit_matches_scalar_bayes(self):
        # scale -> 0 pins eta at 0; one observation u=1, y=2, tau^2=1
        # gives the textbook posterior N(1, 1/2)
        spec = GpPriorSpec(k=1, grid_size=10, scale=1e-6)
        ds = Dataset(u=np.array([1.0]), v=np.array([0.5]), y=np.array([2.0]))
        mp = joint_theta(conjugate_joint_posterior(ds, spec, theta_prior_var=1.0))
        assert mp.mean == pytest.approx(1.0, abs=1e-5)
        assert mp.variance == pytest.approx(0.5, abs=1e-5)

    def test_flat_prior_limit(self):
        # tau^2 = inf drops the theta prior precision entirely
        law, truth, spec, ds = _setup()
        flat = joint_theta(conjugate_joint_posterior(ds, spec, math.inf))
        tight = joint_theta(conjugate_joint_posterior(ds, spec, 1e12))
        assert flat.mean == pytest.approx(tight.mean, rel=1e-6)
        assert flat.variance == pytest.approx(tight.variance, rel=1e-6)

    def test_flat_prior_without_data_rejected(self):
        _, _, spec, _ = _setup()
        empty = Dataset(u=np.array([]), v=np.array([]), y=np.array([]))
        with pytest.raises(ValueError):
            conjugate_joint_posterior(empty, spec, math.inf)

    def test_invalid_prior_var_rejected(self):
        _, _, spec, ds = _setup()
        with pytest.raises(ValueError):
            conjugate_joint_posterior(ds, spec, 0.0)

    def test_posterior_dominated_by_prior(self):
        # prior covariance minus posterior covariance is PSD up to rounding
        _, _, spec, ds = _setup()
        tau2 = 10.0
        jp = conjugate_joint_posterior(ds, spec, tau2)
        prior = np.zeros_like(jp.covariance)
        prior[0, 0] = tau2
        prior[1:, 1:] = prior_covariance(spec).matrix
        gap = prior - jp.covariance
        assert np.linalg.eigvalsh(gap).min() >= -1e-8 * np.trace(prior)

    def test_more_data_never_widens_theta(self):
        law, truth, spec, _ = _setup()
        full = sample_dataset(law, truth, 400, 21)
        for k in (50, 100, 200):
            sub = Dataset(u=full.u[:k], v=full.v[:k], y=full.y[:k])
            dbl = Dataset(u=full.u[: 2 * k], v=full.v[: 2 * k], y=full.y[: 2 * k])
            var_k = joint_theta(conjugate_joint_posterior(sub, spec, 10.0)).variance
            var_2k = joint_theta(conjugate_joint_posterior(dbl, spec, 10.0)).variance
            assert var_2k <= var_k + 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mean", "root"])
    def test_record_rejects_nonfinite_entries(self, field, bad):
        # JointGaussianPosterior(mean=[nan], root=[[inf]]) built, and its
        # covariance read [[inf]]
        arrays = {"mean": np.zeros(2), "root": np.eye(2)}
        arrays[field][-1] = bad
        with pytest.raises(ValueError, match=f"^{field} entries must be finite$"):
            JointGaussianPosterior(**arrays)


class TestWhitenedEngine:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("grid_size", [50, 200])
    def test_theta_marginal_against_eigen_solve(self, k, grid_size):
        cfg = ExperimentConfig(k=k, grid_size=grid_size)
        law, truth, spec = cfg.law, cfg.truth, cfg.spec
        ds = sample_dataset(law, truth, 200, cell_seed(0, 200, k))
        for tau2 in (cfg.theta_prior_var, math.inf):
            mean, var = eigen_theta_marginal(ds, spec, tau2)
            for mp in (
                joint_theta(conjugate_joint_posterior(ds, spec, tau2)),
                theta_posterior(ds, spec, tau2),
            ):
                assert abs(mp.variance / var - 1.0) < 1e-8
                assert abs(mp.mean - mean) / math.sqrt(var) < 1e-8

    @pytest.mark.parametrize("k, grid_size", [(2, 8), (3, 50), (4, 30)])
    def test_theta_marginal_against_50_digit_solve(self, k, grid_size):
        # K at k = 3 and 4 is singular to rounding: the prior factor is
        # its eigen square root, and the marginal still holds to 1e-12
        law = make_covariate_law(0.8)
        truth = ModelPoint(theta=1.0, eta=NuisanceFunction(np.zeros(8)))
        spec = GpPriorSpec(k=k, grid_size=grid_size, scale=3.0)
        ds = sample_dataset(law, truth, 12, seed=5)
        for tau2 in (10.0, math.inf):
            mean, var = mpmath_theta_marginal(ds, spec, tau2)
            for mp in (
                joint_theta(conjugate_joint_posterior(ds, spec, tau2)),
                theta_posterior(ds, spec, tau2),
            ):
                assert mp.variance == pytest.approx(var, rel=1e-12)
                assert mp.mean == pytest.approx(mean, abs=1e-12 * math.sqrt(var))

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_joint_against_observation_space_solve(self, k):
        # Gaussian conditioning on y = [u, W] x + e with x ~ N(0, P),
        # P = block_diag(tau^2, K): an n x n solve that never inverts K
        cfg = ExperimentConfig(k=k, grid_size=25)
        law, truth, spec = cfg.law, cfg.truth, cfg.spec
        ds = sample_dataset(law, truth, 60, cell_seed(5, 60, k))
        prior = np.zeros((26, 26))
        prior[0, 0] = 10.0
        prior[1:, 1:] = prior_covariance(spec).matrix
        design = np.column_stack([ds.u, interpolation_weights(ds.v, 25)])
        gain = np.linalg.solve(design @ prior @ design.T + np.eye(ds.n), design @ prior).T
        jp = conjugate_joint_posterior(ds, spec, 10.0)
        scale = np.abs(prior).max()
        np.testing.assert_allclose(jp.mean, gain @ ds.y, rtol=0.0, atol=1e-9 * scale)
        np.testing.assert_allclose(
            jp.covariance, prior - gain @ design @ prior, rtol=0.0, atol=1e-9 * scale
        )

    def test_flat_prior_without_theta_information_raises(self):
        _, _, spec, ds = _setup(n=30)
        blind = Dataset(u=np.zeros(ds.n), v=ds.v, y=ds.y)
        # the single-system joint posterior and the stacked marginal share
        # one Cholesky error path and its messages
        message = "whitened posterior precision is not positive definite"
        with pytest.raises(NumericsError, match=message):
            conjugate_joint_posterior(blind, spec, math.inf)
        with pytest.raises(NumericsError, match=message):
            theta_posterior(blind, spec, math.inf)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda empty, spec: theta_posterior(empty, spec, math.inf),
            lambda empty, spec: theta_posteriors(empty[None], spec, math.inf),
            lambda empty, spec: conjugate_joint_posterior(empty, spec, math.inf),
            lambda empty, spec: gibbs_chain(empty, spec, math.inf, 10, 2, 1),
        ],
        ids=["theta_posterior", "theta_posteriors", "conjugate_joint_posterior", "gibbs_chain"],
    )
    def test_flat_prior_without_data_is_one_value_error(self, entry):
        # every entry point that turns theta_prior_var into the engine's
        # precision raises the one improper-prior error, before any system
        # is factorised; a proper prior on no data still gives the prior
        _, _, spec, _ = _setup()
        empty = Dataset(u=np.array([]), v=np.array([]), y=np.array([]))
        with pytest.raises(ValueError, match="^flat theta prior with no data is improper$"):
            entry(empty, spec)
        chain = gibbs_chain(empty, spec, 4.0, 200, 0, 3)
        assert chain.thetas.shape == (200,) and np.isfinite(chain.thetas).all()
        means, variances = theta_posteriors(empty[None], spec, 4.0)
        assert means.tolist() == [0.0] and variances.tolist() == [4.0]

    def test_lan_coefficients_against_marginal_covariance(self):
        # the n x n form: y | theta ~ N(theta u, S), S = W K W' + I
        law, truth, spec, ds = _setup(n=60)
        weights = interpolation_weights(ds.v, spec.grid_size)
        s_mat = weights @ prior_covariance(spec).matrix @ weights.T + np.eye(ds.n)
        solved_u = np.linalg.solve(s_mat, ds.u)
        linear = solved_u @ (ds.y - truth.theta * ds.u) / math.sqrt(ds.n)
        quadratic = -(solved_u @ ds.u) / (2.0 * ds.n)
        coeffs = integral_lan_coefficients(ds, spec, truth.theta)
        assert coeffs.linear == pytest.approx(linear, rel=1e-10, abs=1e-10)
        assert coeffs.quadratic == pytest.approx(quadratic, rel=1e-10)

    def test_prior_factor_is_one_read_only_array_per_spec(self):
        spec = GpPriorSpec(k=2, grid_size=30, scale=1.5)
        factor = prior_factor(spec)
        assert prior_factor(GpPriorSpec(k=2, grid_size=30, scale=1.5)) is factor
        assert prior_factor(GpPriorSpec(k=2, grid_size=30, scale=2.5)) is not factor
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0, 0] = 1.0

    @pytest.mark.parametrize("k", [1, 3])
    def test_prior_draws_use_the_prior_factor(self, k):
        spec = GpPriorSpec(k=k, grid_size=40, scale=2.0)
        z = np.random.default_rng(17).standard_normal(spec.grid_size)
        np.testing.assert_array_equal(sample_prior_path(spec, 17).values, prior_factor(spec) @ z)


def _dense_gibbs_reference(ds, spec, tau2, iterations, seed):
    """Blocked Gibbs through the dense design, as the whitened sampler was
    before the sufficient statistics: same random stream, other rounding."""
    factor = prior_factor(spec)
    weights = interpolation_weights(ds.v, spec.grid_size)
    loaded = weights @ factor
    b_mat = np.eye(spec.grid_size) + loaded.T @ loaded
    chol = np.linalg.cholesky(b_mat)
    theta_precision = ds.u @ ds.u + 1.0 / tau2
    rng = np.random.default_rng(seed)
    thetas, eta = [], np.zeros(spec.grid_size)
    for _ in range(iterations):
        theta = ds.u @ (ds.y - weights @ eta) / theta_precision
        theta += rng.standard_normal() / math.sqrt(theta_precision)
        z_mean = np.linalg.solve(b_mat, loaded.T @ (ds.y - theta * ds.u))
        z = z_mean + np.linalg.solve(chol.T, rng.standard_normal(spec.grid_size))
        eta = factor @ z
        thetas.append(theta)
    return np.array(thetas)


class TestSufficientStatisticEngine:
    def test_statistics_match_dense_design(self):
        law, truth, spec, ds = _setup(n=300, grid_size=17)
        v = np.concatenate([[0.0, 1.0, 0.0, 1.0], ds.v])  # v = 1 clips the index
        rng = np.random.default_rng(3)
        data = Dataset(u=rng.standard_normal(v.size), v=v, y=rng.standard_normal(v.size))
        stats = _statistics(data[None], spec.grid_size)
        diag, off, wu, wy, uu, uy, yy = (stat[0] for stat in stats)
        weights = interpolation_weights(data.v, spec.grid_size)
        tridiagonal = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        np.testing.assert_allclose(tridiagonal, weights.T @ weights, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(wu, weights.T @ data.u, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(wy, weights.T @ data.y, rtol=0.0, atol=1e-12)
        assert (uu, uy, yy) == (data.u @ data.u, data.u @ data.y, data.y @ data.y)

    def test_stacked_systems_equal_each_system_alone(self):
        # offset bins and row-by-row products: a row's system is bit for
        # bit the one it gets in a stack of one
        _, _, spec, _ = _setup(grid_size=17)
        rng = np.random.default_rng(5)
        u, y = rng.standard_normal((2, 6, 90))
        v = rng.uniform(0.0, 1.0, (6, 90))
        v[2, :2] = (0.0, 1.0)
        factor, m = prior_factor(spec), spec.grid_size
        data = Dataset(u=u, v=v, y=y)
        stacked = _assemble(_statistics(data, m), factor, 0.1)
        for row in range(6):
            stats = _statistics(data[row : row + 1], m)
            np.testing.assert_array_equal(stacked[row], _assemble(stats, factor, 0.1)[0])

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("grid_size", [2, 3, 50, 200])
    def test_assemble_against_dense_reference(self, k, grid_size):
        # S = lift' [W u y]'[W u y] lift + diag(1, ..., 1, p, 1) with the
        # dense n x m interpolation matrix W and lift = blockdiag(L, 1, 1)
        rng = np.random.default_rng(10 * k + grid_size)
        rows, n, precision = 3, 120, 0.1
        u, y = rng.standard_normal((2, rows, n))
        v = rng.uniform(0.0, 1.0, (rows, n))
        v[1, :3] = (0.0, 1.0, 0.5)
        factor = prior_factor(GpPriorSpec(k=k, grid_size=grid_size, scale=2.0))
        m, r = factor.shape
        systems = _assemble(_statistics(Dataset(u=u, v=v, y=y), m), factor, precision)
        lift = np.zeros((m + 2, r + 2))
        lift[:m, :r] = factor
        lift[m, r] = lift[m + 1, r + 1] = 1.0
        ridge = np.ones(r + 2)
        ridge[r] = precision
        assert systems.shape == (rows, r + 2, r + 2)
        for row in range(rows):
            design = np.column_stack([interpolate(np.eye(m), v[row]).T, u[row], y[row]])
            dense = lift.T @ (design.T @ design) @ lift + np.diag(ridge)
            scale = np.abs(dense).max()
            np.testing.assert_allclose(systems[row], dense, rtol=0.0, atol=1e-13 * scale)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("grid_size", [50, 200])
    def test_engine_depends_on_k_only(self, k, grid_size, monkeypatch):
        # any square root of K gives the same posterior: L P for a signed
        # permutation P, and [L, 0] with one column more than the grid
        cfg = ExperimentConfig(k=k, grid_size=grid_size)
        law, truth, spec = cfg.law, cfg.truth, cfg.spec
        data = sample_datasets(law, truth, 400, [cell_seed(6, 400, rep) for rep in range(3)])
        ds = data[0]
        factor = prior_factor(spec)
        # two systems per sub-stack for r = m and r = m + 1: row 2 is alone
        monkeypatch.setattr(semibvm.model, "_BATCH_BUDGET", 2 * (grid_size + 3) ** 2)
        means, variances = theta_posteriors(data, spec, 10.0)
        jp = conjugate_joint_posterior(ds, spec, 10.0)
        rng = np.random.default_rng(k)
        signs = rng.choice([-1.0, 1.0], grid_size)
        for other in (
            factor[:, rng.permutation(grid_size)] * signs,
            np.hstack([factor, np.zeros((grid_size, 1))]),
        ):
            monkeypatch.setattr(semibvm.posterior, "prior_factor", lambda _: other)
            other_means, other_variances = theta_posteriors(data, spec, 10.0)
            np.testing.assert_allclose(other_variances, variances, rtol=1e-12, atol=0.0)
            assert np.all(np.abs(other_means - means) <= 1e-12 * np.sqrt(variances))
            other_jp = conjugate_joint_posterior(ds, spec, 10.0)
            assert other_jp.root.shape == (other.shape[1] + 1, grid_size + 1)
            scale = np.abs(jp.covariance).max()
            assert np.abs(other_jp.covariance - jp.covariance).max() <= 1e-12 * scale
            assert np.abs(other_jp.mean - jp.mean).max() <= 1e-12 * np.abs(jp.mean).max()

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("grid_size", [50, 200])
    def test_theta_posterior_matches_joint_marginal(self, k, grid_size):
        cfg = ExperimentConfig(k=k, grid_size=grid_size)
        law, truth, spec = cfg.law, cfg.truth, cfg.spec
        for n in (0, 200, 2000):
            ds = sample_dataset(law, truth, n, cell_seed(2, n, k))
            for tau2 in (10.0, math.inf):
                if n == 0 and math.isinf(tau2):
                    continue
                jp = conjugate_joint_posterior(ds, spec, tau2)
                joint = joint_theta(jp)
                mp = theta_posterior(ds, spec, tau2)
                assert mp.variance == pytest.approx(joint.variance, rel=1e-10)
                assert abs(mp.mean - joint.mean) <= 1e-10 * mp.sd
                if n == 0:  # the prior's root in the engine's (z, theta) rows
                    factor = prior_factor(spec)
                    r = factor.shape[1]
                    root = np.zeros((r + 1, grid_size + 1))
                    root[:r, 1:] = factor.T
                    root[r, 0] = 1.0 / math.sqrt(1.0 / tau2)
                    np.testing.assert_array_equal(jp.root, root)
                    assert abs(jp.covariance[0, 0] - tau2) <= 2.0 * np.spacing(tau2)
                    matrix = prior_covariance(spec).matrix
                    gap = np.linalg.norm(jp.covariance[1:, 1:] - matrix)
                    assert gap <= 2e-14 * np.linalg.norm(matrix)
                else:
                    scale = np.abs(jp.covariance).max()
                    gap = np.abs(jp.root.T @ jp.root - jp.covariance).max()
                    assert gap <= 1e-12 * scale

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("grid_size", [50, 200])
    def test_inverse_lower_against_triangular_solve(self, k, grid_size):
        cfg = ExperimentConfig(k=k, grid_size=grid_size)
        law, truth, spec = cfg.law, cfg.truth, cfg.spec
        identity = np.eye(grid_size)
        for n in (200, 20_000):
            ds = sample_dataset(law, truth, n, cell_seed(4, n, k))
            stats = _statistics(ds[None], grid_size)
            system = _assemble(stats, prior_factor(spec), 0.1)[0]
            chol = np.linalg.cholesky(system[:grid_size, :grid_size])
            reference = solve_triangular(chol, identity, lower=True)
            inverse = _inverse_lower(chol)
            np.testing.assert_array_equal(inverse, np.tril(inverse))
            assert np.abs(inverse - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_no_data_is_the_theta_prior(self):
        _, _, spec, _ = _setup()
        empty = Dataset(u=np.array([]), v=np.array([]), y=np.array([]))
        # S = diag(I, 1/tau^2, 1) gives 1 / sqrt(1/tau^2)^2: four roundings,
        # 2 ulp at these tau^2 and at most 3 over a log-uniform sweep
        for tau2 in (7.0, 10.0, 1e-300, 1e300):
            mp = theta_posterior(empty, spec, tau2)
            assert mp.mean == 0.0
            assert abs(mp.variance - tau2) <= 2.0 * np.spacing(tau2)
        for tau2 in 10.0 ** np.random.default_rng(0).uniform(-300.0, 300.0, 200):
            mp = theta_posterior(empty, spec, tau2)
            assert mp.mean == 0.0
            assert abs(mp.variance - tau2) <= 3.0 * np.spacing(tau2)

    def test_flat_prior_without_data_rejected(self):
        _, _, spec, _ = _setup()
        empty = Dataset(u=np.array([]), v=np.array([]), y=np.array([]))
        with pytest.raises(ValueError):
            theta_posterior(empty, spec, math.inf)

    # at 1e-320 and 5e-324, 1/tau^2 overflows: the system was assembled with
    # an inf pivot and failed as a numeric error instead
    @pytest.mark.parametrize("tau2", [0.0, -1.0, math.nan, 1e-320, 5e-324])
    def test_invalid_prior_var_rejected(self, tau2):
        _, _, spec, ds = _setup(n=30)
        with pytest.raises(ValueError, match="theta_prior_var"):
            theta_posterior(ds, spec, tau2)

    def test_indefinite_nuisance_precision_raises(self, monkeypatch):
        # B = I + L'W'WL is positive definite for any real data; a W'W with
        # a negative diagonal stands in for a precision that lost it
        _, _, spec, ds = _setup(n=30)
        m = spec.grid_size
        broken = (
            np.full((1, m), -1e6),
            np.zeros((1, m - 1)),
            np.ones((1, m)),
            np.ones((1, m)),
            *np.ones((3, 1)),
        )
        monkeypatch.setattr(semibvm.posterior, "_statistics", lambda *_: broken)
        for call in (theta_posterior, conjugate_joint_posterior):
            with pytest.raises(NumericsError, match="not positive definite"):
                call(ds, spec, 10.0)

    def test_non_finite_nuisance_precision_raises(self, monkeypatch):
        _, _, spec, ds = _setup(n=30)
        nan_factor = np.full((spec.grid_size, spec.grid_size), np.nan)
        monkeypatch.setattr(semibvm.posterior, "prior_factor", lambda _: nan_factor)
        for call in (theta_posterior, conjugate_joint_posterior):
            with pytest.raises(NumericsError, match="not finite"):
                call(ds, spec, 10.0)

    def test_gibbs_differs_from_dense_sampler_only_by_rounding(self):
        _, _, spec, ds = _setup(n=120, grid_size=20)
        chain = gibbs_chain(ds, spec, 10.0, iterations=300, burn_in=50, seed=13)
        reference = _dense_gibbs_reference(ds, spec, 10.0, iterations=300, seed=13)
        np.testing.assert_allclose(chain.thetas, reference, rtol=0.0, atol=1e-9)


class TestOneSolve:
    def test_each_single_dataset_view_factorises_one_system(self, monkeypatch):
        # the joint, the Gibbs chain and the conditional nuisance draws each
        # factorise the full (r+2)x(r+2) system once, and nothing else
        law, truth, spec, ds = _setup(n=60, grid_size=12)
        r = prior_factor(spec).shape[1]
        real = semibvm.posterior._cholesky_stack
        shapes = []

        def spy(systems):
            shapes.append(systems.shape)
            return real(systems)

        monkeypatch.setattr(semibvm.posterior, "_cholesky_stack", spy)
        views = {
            "joint": lambda: conjugate_joint_posterior(ds, spec, 10.0),
            "gibbs": lambda: gibbs_chain(ds, spec, 10.0, iterations=5, burn_in=1, seed=2),
            "conditional": lambda: conditional_nuisance_mass(
                ds, spec, 1.0, truth, law, rho=0.1, draws=5, seed=3
            ),
        }
        for name, view in views.items():
            shapes.clear()
            view()
            assert shapes == [(1, r + 2, r + 2)], name

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("grid_size", [12, 50, 200])
    def test_nuisance_conditional_against_cho_solve(self, k, grid_size):
        # z | theta ~ N(B^{-1} (L'W'y - theta L'W'u), B^{-1}), read off
        # chol(S), against scipy's solves with S's own B block.  The draw
        # is affine in theta and in the normals, and a power-of-two scale
        # s keeps each piece's precision when it is taken back out
        cfg = ExperimentConfig(k=k, grid_size=grid_size)
        law, truth, spec = cfg.law, cfg.truth, cfg.spec
        ds = sample_dataset(law, truth, 800, cell_seed(6, 800, k))
        factor, system, chol = _solve(ds, spec, 1.0)
        r = factor.shape[1]
        b_factor = cho_factor(system[:r, :r], lower=True)
        references = (*cho_solve(b_factor, system[:r, r:]).T, cho_solve(b_factor, np.eye(r)))
        draw, s = _nuisance_conditional(chol, r), 2.0**40
        mean_y = draw(0.0, np.zeros(r))
        noise = (draw(0.0, s * np.eye(r)) - mean_y) / s
        pieces = ((draw(-s, np.zeros(r)) - mean_y) / s, mean_y, noise.T @ noise)
        for piece, reference in zip(pieces, references):
            scale = np.abs(reference).max()
            np.testing.assert_allclose(piece, reference, rtol=0.0, atol=1e-12 * scale)


class TestEngineProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(0, 4),
        grid_size=st.integers(2, 80),
        n=st.integers(0, 300),
        tau2=st.sampled_from([0.5, 10.0, math.inf]),
    )
    def test_engine_invariants(self, k, grid_size, n, tau2):
        assume(n > 0 or not math.isinf(tau2))  # flat prior, no data: improper
        cfg = ExperimentConfig(k=k, grid_size=grid_size)
        law, truth, spec = cfg.law, cfg.truth, cfg.spec
        ds = sample_dataset(law, truth, n, cell_seed(9, n, k))
        matrix = prior_covariance(spec).matrix
        factor = prior_factor(spec)
        assert np.abs(factor @ factor.T - matrix).max() <= 2e-13 * np.abs(matrix).max()
        mp = theta_posterior(ds, spec, tau2)
        assert mp.variance > 0.0
        jp = conjugate_joint_posterior(ds, spec, tau2)
        scale = np.abs(jp.covariance).max()
        assert np.abs(jp.root.T @ jp.root - jp.covariance).max() <= 1e-12 * scale
        joint = joint_theta(jp)
        assert abs(mp.variance / joint.variance - 1.0) <= 1e-10
        assert abs(mp.mean - joint.mean) <= 1e-10 * mp.sd


class TestMarginalTheta:
    def test_matches_exact_joint_samples(self):
        _, _, spec, ds = _setup()
        jp = conjugate_joint_posterior(ds, spec, 10.0)
        mp = theta_posterior(ds, spec, 10.0)
        z = np.random.default_rng(77).standard_normal((10_000, jp.root.shape[0]))
        draws = jp.mean[0] + z @ jp.root[:, 0]
        se_mean = mp.sd / math.sqrt(draws.size)
        assert abs(draws.mean() - mp.mean) < 4 * se_mean
        se_var = mp.variance * math.sqrt(2.0 / (draws.size - 1))
        assert abs(draws.var(ddof=1) - mp.variance) < 4 * se_var

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError, match=r"^variance must be > 0, got 0\.0$"):
            MarginalThetaPosterior(mean=0.0, variance=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_fields_rejected(self, bad):
        # a non-finite mean was accepted, and so was an infinite variance
        with pytest.raises(ValueError, match=f"^mean must be finite, got {bad}$"):
            MarginalThetaPosterior(mean=bad, variance=1.0)
        with pytest.raises(ValueError, match=f"^variance must be finite, got {bad}$"):
            MarginalThetaPosterior(mean=0.0, variance=bad)


class TestGibbs:
    def test_seed_determinism(self):
        _, _, spec, ds = _setup(n=60, grid_size=12)
        a = gibbs_chain(ds, spec, 10.0, iterations=200, burn_in=50, seed=5)
        b = gibbs_chain(ds, spec, 10.0, iterations=200, burn_in=50, seed=5)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        np.testing.assert_array_equal(a.etas, b.etas)

    def test_chain_shape_and_burn_in(self):
        _, _, spec, ds = _setup(n=40, grid_size=10)
        chain = gibbs_chain(ds, spec, 10.0, iterations=150, burn_in=30, seed=2)
        assert chain.thetas.shape == (150,)
        assert chain.etas.shape == (150, 10)
        assert chain.theta_draws.shape == (120,)

    def test_invalid_iteration_split(self):
        _, _, spec, ds = _setup(n=40, grid_size=10)
        with pytest.raises(ValueError, match="^iterations must be >= 11, got 10$"):
            gibbs_chain(ds, spec, 10.0, iterations=10, burn_in=10, seed=1)
        with pytest.raises(ValueError, match="^burn_in must be >= 0, got -1$"):
            gibbs_chain(ds, spec, 10.0, iterations=10, burn_in=-1, seed=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["thetas", "etas"])
    def test_chain_rejects_nonfinite_draws(self, name, bad):
        # stored as float arrays and checked before the shape checks, so a
        # non-finite draw is named even where a shape is also wrong
        fields = {"thetas": np.array([0.5, 1.0]), "etas": np.zeros((2, 3))}
        fields[name][(1,) * fields[name].ndim] = bad
        with pytest.raises(ValueError, match=f"^{name} entries must be finite$"):
            GibbsChain(**fields, iterations=2, burn_in=0, seed=0)
        with pytest.raises(ValueError, match=f"^{name} entries must be finite$"):
            GibbsChain(**fields, iterations=3, burn_in=0, seed=0)
        fields[name][(1,) * fields[name].ndim] = 0.0
        chain = GibbsChain(**fields, iterations=2, burn_in=0, seed=0)
        assert chain.thetas.dtype == chain.etas.dtype == np.float64
        chain = GibbsChain(thetas=[0.5, 1], etas=[[0], [1]], iterations=2, burn_in=0, seed=0)
        assert chain.thetas.dtype == chain.etas.dtype == np.float64

    def test_matches_conjugate_marginal(self):
        _, _, spec, ds = _setup(n=120, grid_size=20)
        mp = joint_theta(conjugate_joint_posterior(ds, spec, 10.0))
        chain = gibbs_chain(ds, spec, 10.0, iterations=6000, burn_in=1000, seed=13)
        draws = chain.theta_draws
        ess = effective_sample_size(draws)
        se = draws.std(ddof=1) / math.sqrt(ess)
        assert abs(draws.mean() - mp.mean) < 3 * se
        assert 0.9 < draws.var(ddof=1) / mp.variance < 1.1

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(0, 4),
        grid_size=st.integers(2, 40),
        n=st.integers(1, 200),
        tau2=st.sampled_from([0.5, 10.0, math.inf]),
    )
    def test_chain_moments_match_exact_marginal(self, k, grid_size, n, tau2):
        # Monte Carlo errors of the post-burn-in mean and variance from the
        # chain's ESS: sd/sqrt(ESS) and var*sqrt(2/ESS) (normal draws); the
        # chain must land within 5 of them of the exact theta marginal
        cfg = ExperimentConfig(k=k, grid_size=grid_size)
        law, truth, spec = cfg.law, cfg.truth, cfg.spec
        ds = sample_dataset(law, truth, n, cell_seed(11, n, k))
        mp = theta_posterior(ds, spec, tau2)
        chain = gibbs_chain(ds, spec, tau2, iterations=2200, burn_in=200, seed=grid_size)
        draws = chain.theta_draws
        ess = effective_sample_size(draws)
        assert abs(draws.mean() - mp.mean) <= 5.0 * mp.sd / math.sqrt(ess)
        assert abs(draws.var(ddof=1) - mp.variance) <= 5.0 * mp.variance * math.sqrt(2.0 / ess)

    def test_pinned_nuisance_limit_ks(self):
        # scale -> 0 reduces theta-draws to the known-nuisance posterior;
        # KS statistic below the 1% critical value at 5000 draws
        law = make_covariate_law(0.8)
        truth = ModelPoint(theta=1.0, eta=NuisanceFunction(np.zeros(15)))
        spec = GpPriorSpec(k=1, grid_size=15, scale=1e-6)
        ds = sample_dataset(law, truth, 80, 31)
        tau2 = 10.0
        chain = gibbs_chain(ds, spec, tau2, iterations=5500, burn_in=500, seed=3)
        precision = 1.0 / tau2 + ds.u @ ds.u
        mean = (ds.u @ ds.y) / precision
        sd = 1.0 / math.sqrt(precision)
        stat = kstest(chain.theta_draws, "norm", args=(mean, sd)).statistic
        assert stat < 1.628 / math.sqrt(chain.theta_draws.size)


class TestCredibleInterval:
    def test_symmetry(self):
        mp = MarginalThetaPosterior(mean=1.7, variance=0.3)
        lo, hi = credible_interval(mp, 0.9)
        assert (lo + hi) / 2.0 == pytest.approx(mp.mean, abs=1e-12)

    def test_normal_quantile_value(self):
        # z found by root-finding on the erf-based CDF, not scipy.ppf
        mp = MarginalThetaPosterior(mean=0.0, variance=1.0)
        lo, hi = credible_interval(mp, 0.95)
        z = brentq(lambda x: _std_normal_cdf(x) - 0.975, 0.0, 10.0, xtol=1e-12)
        assert z == pytest.approx(1.959964, abs=1e-6)
        assert hi == pytest.approx(z, abs=1e-6)
        assert lo == pytest.approx(-z, abs=1e-6)

    def test_nested_levels(self):
        mp = MarginalThetaPosterior(mean=-0.4, variance=2.0)
        lo50, hi50 = credible_interval(mp, 0.5)
        lo95, hi95 = credible_interval(mp, 0.95)
        assert lo95 < lo50 < hi50 < hi95

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.2, 1.4, math.nan, math.inf])
    def test_level_validation(self, level):
        mp = MarginalThetaPosterior(mean=0.0, variance=1.0)
        with pytest.raises(ValueError, match="^level must "):
            credible_interval(mp, level)

    @pytest.mark.parametrize("shape", ["float", "array"])
    @pytest.mark.parametrize(
        "mean, sd, message",
        [(bad, 1.0, "mean must be finite") for bad in (math.nan, math.inf, -math.inf)]
        + [
            (0.0, bad, "sd must be finite and > 0")
            for bad in (math.nan, math.inf, -math.inf, -1.0, 0.0)
        ],
    )
    def test_bounds_reject_a_bad_mean_or_sd(self, mean, sd, message, shape):
        # NaN gave (nan, nan), sd = inf (-inf, inf) and sd = -1 an inverted
        # interval; an array is checked whole, so a bad last entry counts
        if shape == "array":
            mean, sd = np.array([0.5, mean]), np.array([2.0, sd])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            credible_bounds(mean, sd, 0.95)


# levels from the smallest subnormal to the largest double below 1: the
# erf branch's subnormal, tiny and moderate levels, both sides of the
# branch point 1/2, and the erfc branch's tail out to 2^-53
INTERVAL_LEVELS = [
    5e-324,
    1e-320,
    2.0**-1022,
    1e-300,
    1e-100,
    1e-12,
    1e-6,
    0.1,
    0.3,
    0.5 - 2.0**-54,
    0.5,
    0.5 + 2.0**-53,
    0.6827,
    0.9,
    0.95,
    0.99,
    1.0 - 1e-6,
    1.0 - 1e-12,
    1.0 - 2.0**-52,
    1.0 - 2.0**-53,
]


def _interval_z_ulps(level: float) -> float:
    """Distance of _interval_z(level) from the 50-digit root, in ulps of the root."""
    with mpmath.workdps(50):
        exact = mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(level))
        return float(abs(mpmath.mpf(_interval_z(level)) - exact) / math.ulp(float(exact)))


class TestIntervalZ:
    """The interval's z, erf(z/sqrt(2)) = level, against mpmath at 50 digits."""

    @pytest.mark.parametrize("level", INTERVAL_LEVELS)
    def test_within_4_ulp_of_the_exact_root(self, level):
        assert _interval_z(level) > 0.0
        assert _interval_z_ulps(level) <= 4.0

    @given(st.floats(min_value=5e-324, max_value=1.0 - 2.0**-53))
    @settings(max_examples=300, deadline=None)
    def test_within_4_ulp_on_any_level(self, level):
        assert _interval_z_ulps(level) <= 4.0

    def test_increases_with_the_level(self):
        zs = [_interval_z(level) for level in INTERVAL_LEVELS]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    @pytest.mark.parametrize("level", [1e-300, 1.0 - 2.0**-53])
    def test_edge_levels_give_finite_nonempty_bounds(self, level):
        # (1 + level)/2 rounded these to 1/2 (z = 0) and to 1 (inv_cdf
        # raised); the bounds now come from level itself
        lo, hi = credible_bounds(np.array([0.0, -3.0]), np.array([1.0, 2.0]), level)
        assert np.isfinite(lo).all() and np.isfinite(hi).all()
        z = _interval_z(level)
        assert lo.tolist() == [-z, -3.0 - 2.0 * z]
        assert hi.tolist() == [z, -3.0 + 2.0 * z]
        assert lo[0] < hi[0]


class TestPosteriorMassHBall:
    def test_zero_radius(self):
        mp = MarginalThetaPosterior(mean=0.3, variance=1.0)
        assert posterior_mass_h_ball(mp, 0.0, 0.0, 100) == 0.0

    def test_full_mass_limit(self):
        mp = MarginalThetaPosterior(mean=0.3, variance=1.0)
        assert posterior_mass_h_ball(mp, 0.0, 1e6, 100) == pytest.approx(1.0, abs=1e-12)

    def test_calibrated_mass(self):
        # centred posterior, radius 1.959964 sd -> mass 0.95
        n = 400
        mp = MarginalThetaPosterior(mean=2.0, variance=0.09)
        radius = 1.959964 * mp.sd * math.sqrt(n)
        assert posterior_mass_h_ball(mp, 2.0, radius, n) == pytest.approx(0.95, abs=1e-6)

    def test_monotone_in_radius(self):
        mp = MarginalThetaPosterior(mean=0.7, variance=0.5)
        radii = np.linspace(0.0, 20.0, 40)
        masses = [posterior_mass_h_ball(mp, 0.0, r, 50) for r in radii]
        assert all(b >= a for a, b in zip(masses, masses[1:]))

    def test_validation(self):
        mp = MarginalThetaPosterior(mean=0.0, variance=1.0)
        with pytest.raises(ValueError):
            posterior_mass_h_ball(mp, 0.0, -1.0, 10)
        with pytest.raises(ValueError):
            posterior_mass_h_ball(mp, 0.0, 1.0, 0)
        with pytest.raises(ValueError, match=r"^M_n must be >= 0, got -1\.0$"):
            posterior_mass_h_ball(mp, 1.0, -1.0, 5)
        with pytest.raises(ValueError, match="^M_n must be finite, got nan$"):
            posterior_mass_h_ball(mp, 1.0, math.nan, 5)
        with pytest.raises(ValueError, match="n must be an integer"):
            posterior_mass_h_ball(mp, 0.0, 1.0, 2.5)
        # nan returned nan and inf returned 0.0
        with pytest.raises(ValueError, match="^theta0 must be finite, got nan$"):
            posterior_mass_h_ball(mp, math.nan, 1.0, 5)
        with pytest.raises(ValueError, match="^theta0 must be finite, got inf$"):
            posterior_mass_h_ball(mp, math.inf, 1.0, 5)

    def test_far_tails_keep_their_precision(self):
        # N(0, 1) with M_n = n = 1: the mass of [theta0 - 1, theta0 + 1],
        # exact at 40 digits from the lower tail (the mass is even in
        # theta0).  Phi(hi) - Phi(lo) lost the upper one: 0.0 at theta0 =
        # 10 and 7 % off at 9
        mp = MarginalThetaPosterior(mean=0.0, variance=1.0)
        for theta0 in (-20.0, -10.0, -9.0, 9.0, 10.0, 20.0):
            with mpmath.workdps(40):
                far = abs(theta0)
                exact = float(mpmath.ncdf(1 - far) - mpmath.ncdf(-1 - far))
            assert posterior_mass_h_ball(mp, theta0, 1.0, 1) == pytest.approx(exact, rel=1e-13, abs=0.0)


class TestNormalFunctionsAgainstScipy:
    """The stdlib normal CDF and quantile against scipy.special references."""

    def test_credible_interval_quantile(self):
        mp = MarginalThetaPosterior(mean=0.3, variance=2.0)
        for level in (1e-6, 0.5, 0.9, 0.95, 0.99, 1.0 - 1e-12):
            # from level itself: ndtri((1 + level)/2) reads a rounded
            # argument, 1.5e-5 off in z at 1 - 1e-12
            z = math.sqrt(2.0) * erfinv(level)
            lo, hi = credible_interval(mp, level)
            assert lo == pytest.approx(0.3 - z * mp.sd, rel=1e-14, abs=1e-15)
            assert hi == pytest.approx(0.3 + z * mp.sd, rel=1e-14, abs=1e-15)

    def test_cdf_out_to_the_tails(self):
        x = np.linspace(-37.0, 37.0, 7401)
        ours = np.array([_normal_cdf(float(xi)) for xi in x])
        # Phi has condition number about x^2 in the lower tail, so one
        # rounding of x / sqrt(2) alone moves Phi(-37) by ~2e-13 relative
        np.testing.assert_allclose(ours, ndtr(x), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("centre", [-37.0, -20.0, -3.0, 0.0, 3.0, 20.0, 37.0])
    def test_ball_mass_including_tails(self, centre):
        mp = MarginalThetaPosterior(mean=0.0, variance=1.0)
        for half in (1e-3, 0.5, 2.0):
            # n = 1 makes the ball [centre - half, centre + half] in sd units
            reference = ndtr(centre + half) - ndtr(centre - half)
            mass = posterior_mass_h_ball(mp, centre, half, 1)
            assert mass == pytest.approx(reference, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "m1, v1, m2, v2",
        [
            (0.0, 1.0, 0.0, 1.0),
            (0.0, 1.0, 0.4, 1.0),
            (0.0, 1.0, 1e-3, 1.0),
            (0.0, 1.0, 0.2, 1.3),
            (1.5, 0.8, -0.7, 2.5),
            (0.0, 1.0, 0.0, 1e-4),
            (37.0, 1.0, 36.5, 1.05),
            (-37.0, 1.0, -36.5, 1.05),
        ],
    )
    def test_tv_normals(self, m1, v1, m2, v2):
        if v1 == v2:
            reference = 2.0 * ndtr(abs(m1 - m2) / (2.0 * math.sqrt(v1))) - 1.0
        else:
            a = 0.5 * (1.0 / v2 - 1.0 / v1)
            b = m1 / v1 - m2 / v2
            c = 0.5 * (m2**2 / v2 - m1**2 / v1) - 0.5 * math.log(v1 / v2)
            disc = math.sqrt(b * b - 4.0 * a * c)
            lo, hi = sorted(((-b - disc) / (2.0 * a), (-b + disc) / (2.0 * a)))

            def mass(mean, var):
                x, y = (lo - mean) / math.sqrt(var), (hi - mean) / math.sqrt(var)
                return ndtr(-x) - ndtr(-y) if x > 0.0 else ndtr(y) - ndtr(x)

            reference = abs(mass(m1, v1) - mass(m2, v2))
        assert tv_normals(m1, v1, m2, v2) == pytest.approx(reference, rel=1e-12, abs=1e-15)


class TestConditionalNuisanceMass:
    def test_huge_radius_gives_zero(self):
        law, truth, spec, ds = _setup(n=80, grid_size=15)
        mass = conditional_nuisance_mass(
            ds, spec, 1.05, truth, law, rho=50.0, draws=50, seed=4
        )
        assert mass == 0.0

    def test_seed_determinism(self):
        law, truth, spec, ds = _setup(n=80, grid_size=15)
        a = conditional_nuisance_mass(ds, spec, 1.1, truth, law, 0.1, 100, seed=6)
        b = conditional_nuisance_mass(ds, spec, 1.1, truth, law, 0.1, 100, seed=6)
        assert a == b

    def test_counts_draws_by_their_hellinger_distance(self, monkeypatch):
        # the mass is the fraction of its nuisance draws whose scalar
        # hellinger_distance to the KL-optimal nuisance is >= rho; rho sits
        # halfway between two sorted distances, so rounding cannot tip it
        law, truth, spec, ds = _setup(n=80, grid_size=15)
        real = semibvm.asymptotics._hellinger_sq
        stacks = []

        def spy(dtheta, values, values0, law):
            stacks.append(values)
            return real(dtheta, values, values0, law)

        monkeypatch.setattr(semibvm.asymptotics, "_hellinger_sq", spy)
        conditional_nuisance_mass(ds, spec, 1.1, truth, law, 1.0, 40, seed=6)
        monkeypatch.undo()
        target = ModelPoint(1.1, least_favorable_eta(1.1, truth, law))
        distances = sorted(
            hellinger_distance(ModelPoint(1.1, NuisanceFunction(row)), target, law)
            for row in stacks[0]
        )
        for rank in (5, 20, 33):
            rho = 0.5 * (distances[rank - 1] + distances[rank])
            mass = conditional_nuisance_mass(ds, spec, 1.1, truth, law, rho, 40, seed=6)
            assert mass == (40 - rank) / 40

    def test_validation(self):
        law, truth, spec, ds = _setup(n=40, grid_size=10)
        with pytest.raises(ValueError, match=r"^rho must be > 0, got 0\.0$"):
            conditional_nuisance_mass(ds, spec, 1.0, truth, law, 0.0, 10, seed=1)
        with pytest.raises(ValueError):
            conditional_nuisance_mass(ds, spec, 1.0, truth, law, 0.1, 0, seed=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_reals_are_named(self, bad):
        # a non-finite theta_fixed was blamed on the nuisance ("values must
        # be finite"), and rho = inf read a mass of 0
        law, truth, spec, ds = _setup(n=40, grid_size=10)
        with pytest.raises(ValueError, match=f"^theta_fixed must be finite, got {bad}$"):
            conditional_nuisance_mass(ds, spec, bad, truth, law, 0.1, 10, seed=1)
        with pytest.raises(ValueError, match=f"^rho must be finite, got {bad}$"):
            conditional_nuisance_mass(ds, spec, 1.0, truth, law, bad, 10, seed=1)

    def test_mass_decreases_along_n_ladder(self):
        # outside-ball mass at fixed radius drains as n grows; the fixed
        # theta tracks a local perturbation theta0 + 1/sqrt(n).  At a
        # radius of 0.2 the posterior is already fully concentrated on
        # this ladder (every mass 0), so the strict trend is read off at
        # 0.06 where the start of the ladder is still diffuse.
        cfg = ExperimentConfig(grid_size=40)
        law, truth, spec = cfg.law, cfg.truth, cfg.spec

        def median_mass(n, rho, seeds):
            masses = []
            for rep in range(seeds):
                seed = cell_seed(1, n, rep)
                ds = sample_dataset(law, truth, n, seed)
                masses.append(
                    conditional_nuisance_mass(
                        ds,
                        spec,
                        truth.theta + 1.0 / math.sqrt(n),
                        truth,
                        law,
                        rho=rho,
                        draws=150,
                        seed=seed + 1,
                    )
                )
            return float(np.median(masses))

        medians = [median_mass(n, 0.06, seeds=20) for n in (100, 400, 1600)]
        assert medians[0] > medians[1] > medians[2] or (
            medians[0] > medians[1] and medians[2] == 0.0
        )
        assert median_mass(400, 0.2, seeds=8) == 0.0


class TestEffectiveSampleSize:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_draw_rejected(self, bad):
        # a NaN draw returned nan
        x = np.random.default_rng(59).standard_normal(100)
        x[17] = bad
        with pytest.raises(ValueError, match="^x entries must be finite$"):
            effective_sample_size(x)

    def test_iid_close_to_n(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal(20_000)
        assert effective_sample_size(x) > 0.8 * x.size

    def test_correlated_is_smaller(self):
        rng = np.random.default_rng(57)
        eps = rng.standard_normal(20_000)
        x = np.empty_like(eps)
        x[0] = eps[0]
        for i in range(1, eps.size):  # AR(1), rho 0.9 -> ESS ~ n/19
            x[i] = 0.9 * x[i - 1] + eps[i]
        ess = effective_sample_size(x)
        assert ess < 0.15 * x.size
