"""Diagnostics tests: TV gaps, KL/Hellinger geometry, expansions, domination."""

import bisect
import math
import re

import mpmath
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from semibvm.asymptotics import (
    BvmDiagnostics,
    LanCoefficients,
    _difference_integrals,
    _hellinger_sq,
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
from semibvm import asymptotics, model
from semibvm.experiments import ExperimentConfig
from semibvm.gp_prior import GpPriorSpec, prior_covariance
from semibvm.model import (
    _BATCH_BUDGET,
    CovariateLaw,
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


def log_density_ratio(x, p: ModelPoint, p_ref: ModelPoint):
    """log p_{theta,eta}(x) - log p_{theta_ref,eta_ref}(x) for x = (u, v, y).

    Gaussian noise with unit variance, so only the squared residuals
    survive: -(y - theta u - eta(v))^2/2 + (y - theta_ref u - eta_ref(v))^2/2.
    Accepts scalars or arrays; each eta is called at v, so any function of
    v serves as well as a grid nuisance.
    """
    u, v, y = (np.asarray(c, dtype=float) for c in x)
    r = y - p.theta * u - p.eta(v)
    r_ref = y - p_ref.theta * u - p_ref.eta(v)
    return -0.5 * r**2 + 0.5 * r_ref**2


def _truth(grid_size=41, theta=1.0, amplitude=0.5):
    eta = NuisanceFunction.from_callable(
        lambda v: amplitude * math.sin(2 * math.pi * v), grid_size
    )
    return ModelPoint(theta=theta, eta=eta)


# (k, grid_size) configs whose truth grids the exact integrals are checked on
EXACT_CASES = [(0, 50), (1, 50), (2, 200), (3, 20), (4, 101)]


def _mp_interpolant(values):
    """The grid interpolant of `values` on uniform_grid, evaluated in mpmath."""
    grid = [mpmath.mpf(float(x)) for x in uniform_grid(len(values))]
    vals = [mpmath.mpf(float(x)) for x in values]

    def f(v):
        i = min(max(bisect.bisect_right(grid, v) - 1, 0), len(grid) - 2)
        t = (v - grid[i]) / (grid[i + 1] - grid[i])
        return (1 - t) * vals[i] + t * vals[i + 1]

    return f


def _mp_integral(f, nodes):
    """60-digit Gauss-Legendre quadrature of f over [0, 1], cell by cell
    between `nodes`, so each piece is smooth."""
    with mpmath.workdps(60):
        cells = [mpmath.mpf(float(x)) for x in nodes]
        return sum(
            mpmath.quad(f, [a, b], method="gauss-legendre") for a, b in zip(cells[:-1], cells[1:])
        )


def _mp_difference_integrals(eta, eta0):
    """(int D^2, int D^4, int cos(2 pi v) D(v)) by quadrature, D = eta - eta0."""
    f, f0 = _mp_interpolant(eta.values), _mp_interpolant(eta0.values)
    nodes = np.union1d(eta.grid, eta0.grid)
    with mpmath.workdps(60):
        return (
            _mp_integral(lambda v: (f(v) - f0(v)) ** 2, nodes),
            _mp_integral(lambda v: (f(v) - f0(v)) ** 4, nodes),
            _mp_integral(lambda v: mpmath.cos(2 * mpmath.pi * v) * (f(v) - f0(v)), nodes),
        )


def _assert_exact_integrals(eta, eta0):
    got = _difference_integrals(eta, eta0)
    sq, fourth, cos = _mp_difference_integrals(eta, eta0)
    assert abs(got[0] - sq) <= 1e-12 * sq
    assert abs(got[1] - fourth) <= 1e-12 * fourth
    # |int cos D| <= ||D||_2 / sqrt(2), and it vanishes for odd D about 1/2,
    # so its error is measured against ||D||_2
    assert abs(got[2] - cos) <= 1e-12 * max(abs(cos), mpmath.sqrt(sq))


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
        w = np.full(3, 0.3)
        u = np.asarray(law.cond_mean(v)) + w
        y = truth.theta * u + truth.eta(v)
        ds = Dataset(u=u, v=v, y=y, e=np.zeros(3), w=w)
        assert delta_n(ds, law) == 0.0

    def test_cancellation(self):
        # alternating residuals with equal projections cancel exactly
        law = make_covariate_law(1.0)  # m = 0, information 1
        u = np.ones(4)
        v = np.full(4, 0.5)
        e = np.array([1.0, -1.0, 1.0, -1.0])
        ds = Dataset(u=u, v=v, y=u * 0.0 + e, e=e, w=u)
        assert delta_n(ds, law) == 0.0

    def test_arithmetic(self):
        law = make_covariate_law(1.0)
        u = np.ones(2)
        v = np.full(2, 0.5)
        e = np.ones(2)
        ds = Dataset(u=u, v=v, y=e.copy(), e=e, w=u)
        assert delta_n(ds, law) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_missing_provenance_rejected(self):
        law = make_covariate_law(0.8)
        ds = Dataset(u=np.ones(3), v=np.full(3, 0.2), y=np.ones(3))
        with pytest.raises(ValueError):
            delta_n(ds, law)


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

    def test_equal_variances_small_gaps_against_mpmath(self):
        # 2 Phi(x) - 1 in doubles lost 11 % at a gap of 1e-15; erf keeps
        # the relative precision all the way down
        errors = []
        for var in (1.0, 0.3, 2.5):
            for gap in np.logspace(-15, 0, 31):
                for m1, m2 in ((0.0, gap), (gap, 0.0), (1.0, 1.0 + gap)):
                    with mpmath.workdps(60):
                        x = abs(mpmath.mpf(m1) - mpmath.mpf(m2)) / (2 * mpmath.sqrt(var))
                        reference = 2 * mpmath.ncdf(x) - 1
                    got = tv_normals(m1, var, m2, var)
                    errors.append(float(abs(got - reference) / reference))
        assert max(errors) <= 1e-15

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

    def test_near_equal_variances_against_mpmath(self):
        # the finite density crossing comes from the stable root form, so
        # the gap keeps full precision as the variance ratio approaches 1
        # (the textbook form was off by 2.4e-5 at 1 + 2e-14)
        def reference(m1, v1, m2, v2):
            with mpmath.workdps(60):
                m1, v1, m2, v2 = (mpmath.mpf(x) for x in (m1, v1, m2, v2))
                a = (1 / v2 - 1 / v1) / 2
                b = m1 / v1 - m2 / v2
                c = (m2**2 / v2 - m1**2 / v1) / 2 - mpmath.log(v1 / v2) / 2
                disc = mpmath.sqrt(b * b - 4 * a * c)
                lo, hi = sorted(((-b - disc) / (2 * a), (-b + disc) / (2 * a)))

                def mass(mean, var):
                    sd = mpmath.sqrt(var)
                    return mpmath.ncdf(hi, mean, sd) - mpmath.ncdf(lo, mean, sd)

                return float(abs(mass(m1, v1) - mass(m2, v2)))

        errors = []
        for ratio in (1 + 2e-14, 1 + 1e-13, 1 + 1e-12, 1 + 1e-10, 1 + 1e-6, 1.01, 1.5, 4.0):
            for gap in (0.0, 1e-3, 0.1, 1.0, 3.0, 8.0):
                for sign in (1.0, -1.0):
                    for params in ((sign * gap, 1.0, 0.0, ratio), (0.0, ratio, sign * gap, 1.0)):
                        errors.append(abs(tv_normals(*params) - reference(*params)))
        # near the float maximum with equal m/v (b = 0), 4ac underflows
        # unless the pair is first brought to unit scale
        for var in (1e297, 1e300, 1.7e308):
            for ratio in (1 + 3e-14, 1 + 1e-13, 1 + 1e-12, 1 + 1e-6):
                for slope in (0.0, 1e-300, -1e-300):
                    params = (slope * var, var, slope * var / ratio, var / ratio)
                    errors.append(abs(tv_normals(*params) - reference(*params)))
        assert max(errors) <= 1e-15
        assert tv_normals(3.0, 1.0, 0.0, 1.0 + 2e-14) == pytest.approx(0.8663855975, abs=1e-10)

    def test_extreme_variance_ratios_against_mpmath(self):
        # each normal's mass comes from the crossings' offsets from its own
        # mean: a narrow normal's crossings used to round onto its mean
        # (0.5 at a ratio of 1e-80, NaN at 1e-200), and b^2 - 4ac to cancel
        # (0.0 at 1e-20).  The reference carries enough digits for b^2 - 4ac
        def reference(m1, v1, m2, v2):
            digits = 40 + 2 * round(abs(math.log10(v1 / v2)))
            with mpmath.workdps(digits):
                m1, v1, m2, v2 = (mpmath.mpf(x) for x in (m1, v1, m2, v2))
                a = (1 / v2 - 1 / v1) / 2
                b = m1 / v1 - m2 / v2
                c = (m2**2 / v2 - m1**2 / v1) / 2 - mpmath.log(v1 / v2) / 2
                disc = mpmath.sqrt(b * b - 4 * a * c)
                lo, hi = sorted(((-b - disc) / (2 * a), (-b + disc) / (2 * a)))

                def mass(mean, var):
                    sd = mpmath.sqrt(var)
                    return mpmath.ncdf(hi, mean, sd) - mpmath.ncdf(lo, mean, sd)

                return float(abs(mass(m1, v1) - mass(m2, v2)))

        assert tv_normals(0.3, 1e-20, 0.1, 1.5625) == pytest.approx(0.99999999956, abs=1e-11)
        errors = []
        for exponent in (-300, -200, -80, -20, -5, -1, 1, 5, 20, 80, 200, 300):
            for wide in (1.5625, 1e4):
                for gap in (0.0, 1e-3, 0.3, 1.0, 5.0, 40.0):
                    for m1 in (0.0, -7.0):
                        v1 = wide * 10.0**exponent
                        m2 = m1 - gap * math.sqrt(max(v1, wide))
                        params = (m1, v1, m2, wide)
                        got = tv_normals(*params)
                        assert 0.0 <= got <= 1.0, params
                        errors.append(abs(got - reference(*params)))
        assert max(errors) <= 1e-15

    def test_beyond_float_range_stays_in_unit_interval(self):
        # variance ratios and mean gaps whose squares overflow: the
        # Bhattacharyya bound sends them to 1 before anything overflows
        for params in (
            (0.0, 1e-300, 0.0, 1e300),
            (1e300, 1e-300, -1e300, 1e300),
            (0.0, 1e-300, 1e10, 1.0),
            (1.7e308, 1.0, -1.7e308, 2.0),
            (0.0, 5e-324, 0.0, 1.0),
        ):
            assert tv_normals(*params) == 1.0, params
            assert tv_normals(params[2], params[3], params[0], params[1]) == 1.0, params

    def test_variance_validation(self):
        with pytest.raises(ValueError):
            tv_normals(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            tv_normals(0.0, 1.0, 0.0, -2.0)
        # inf - 1 <= 1e-14 inf once sent (1, inf) down the equal-variance
        # branch, which read 0.0 where the true distance is 1
        for v1, v2 in ((1.0, math.inf), (math.inf, 1.0), (math.inf, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                tv_normals(0.0, v1, 0.0, v2)
        with pytest.raises(ValueError, match=r"^v1 must be > 0, got 0\.0$"):
            tv_normals(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"^v2 must be > 0, got -2\.0$"):
            tv_normals(0.0, 1.0, 0.0, -2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_means_rejected(self, bad):
        # both returned nan
        with pytest.raises(ValueError, match=f"^m1 must be finite, got {bad}$"):
            tv_normals(bad, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError, match=f"^m2 must be finite, got {bad}$"):
            tv_normals(0.0, 1.0, bad, 2.0)


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

    @pytest.mark.parametrize(
        "n, message",
        [
            (2.5, "n must be an integer, got 2.5"),  # read the gap at sqrt(2.5)
            (0, "n must be >= 1, got 0"),  # blamed the variances
            (-3, "n must be >= 1, got -3"),
        ],
    )
    def test_n_follows_the_integer_rule(self, n, message):
        mp = MarginalThetaPosterior(mean=0.0, variance=1.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bvm_gap(mp, 0.0, 1.0, n, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["delta", "info", "theta0"])
    def test_nonfinite_inputs_are_named(self, name, bad):
        # a NaN delta or theta0 was blamed on tv_gap
        mp = MarginalThetaPosterior(mean=0.0, variance=1.0)
        args = {"delta": 0.0, "info": 1.0, "theta0": 0.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
            bvm_gap(mp, args["delta"], args["info"], 10, args["theta0"])

    def test_diagnostics_validation(self):
        fields = dict(
            n=5, delta_n=0.0, info_tilde=1.0, localized_post_mean=0.0, localized_post_var=1.0
        )
        for field, value, message in [
            ("tv_gap", 1.5, "tv_gap must lie in [0, 1], got 1.5"),
            ("tv_gap", math.nan, "tv_gap must be finite, got nan"),
            ("localized_post_var", 0.0, "localized_post_var must be > 0, got 0.0"),
            ("localized_post_var", math.inf, "localized_post_var must be finite, got inf"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                BvmDiagnostics(**{**fields, "tv_gap": 0.5, field: value})


class TestDifferenceIntegrals:
    @pytest.mark.parametrize("k, grid_size", EXACT_CASES)
    @pytest.mark.parametrize("probe", ["cos", "sin"])
    def test_suite_probes_against_quadrature(self, k, grid_size, probe):
        truth = ExperimentConfig(k=k, grid_size=grid_size).truth
        grid = truth.eta.grid
        delta = 0.1 * np.cos(2 * np.pi * grid) if probe == "cos" else 0.2 * np.sin(4 * np.pi * grid)
        _assert_exact_integrals(NuisanceFunction(truth.eta.values + delta), truth.eta)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        case=st.sampled_from(EXACT_CASES),
        size=st.integers(2, 40),
        values=st.lists(st.floats(-3.0, 3.0), min_size=40, max_size=40),
    )
    def test_nuisance_on_another_grid_against_quadrature(self, case, size, values):
        k, grid_size = case
        truth = ExperimentConfig(k=k, grid_size=grid_size).truth
        eta = NuisanceFunction(np.asarray(values[:size]))
        if eta.sup_norm() > 0.0:
            _assert_exact_integrals(eta, truth.eta)

    def test_zero_difference_is_zero(self):
        truth = _truth()
        assert _difference_integrals(truth.eta, truth.eta) == (0.0, 0.0, 0.0)


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


class TestKlDivergence:
    def test_same_point_is_zero(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        assert kl_divergence(truth, truth, law) == 0.0

    def test_theta_shift_value(self):
        # eta = eta0, theta - theta0 = 0.5: KL = 0.125 E U^2 = 0.125
        law = make_covariate_law(0.8)
        truth = _truth()
        p = ModelPoint(theta=truth.theta + 0.5, eta=truth.eta)
        assert kl_divergence(p, truth, law) == 0.125

    def test_matches_log_ratio_expectation(self):
        # independent estimator: -mean log density ratio over simulated data
        law = make_covariate_law(0.7)
        truth = _truth()
        p = ModelPoint(
            theta=truth.theta + 0.3,
            eta=NuisanceFunction(truth.eta.values + 0.2),
        )
        draws = 120_000
        ds = sample_dataset(law, truth, draws, seed=12)
        neg_log = -log_density_ratio((ds.u, ds.v, ds.y), p, truth)
        se_data = neg_log.std(ddof=1) / math.sqrt(draws)
        assert abs(kl_divergence(p, truth, law) - float(neg_log.mean())) < 4 * se_data

    def test_nonnegative_up_to_mc_error(self):
        # exact now, so nonnegative without any allowance
        law = make_covariate_law(0.9)
        truth = _truth()
        rng = np.random.default_rng(19)
        for _ in range(5):
            p = ModelPoint(
                theta=truth.theta + rng.normal(scale=0.3),
                eta=NuisanceFunction(truth.eta.values + rng.normal(scale=0.2, size=41)),
            )
            assert kl_divergence(p, truth, law) >= 0.0

    @pytest.mark.parametrize("k, grid_size", EXACT_CASES)
    @pytest.mark.parametrize("sigma_w", [0.3, 0.8])
    def test_least_favorable_curve_value(self, k, grid_size, sigma_w):
        # along eta* = eta0 - dtheta m_h, with m_h the grid interpolant of m:
        # KL = dtheta^2/2 (sigma_w^2 + int (m - m_h)^2)
        cfg = ExperimentConfig(sigma_w=sigma_w, k=k, grid_size=grid_size)
        law, truth = cfg.law, cfg.truth
        amplitude = mpmath.mpf(law.cond_mean_amplitude)
        m_h = _mp_interpolant(law.cond_mean(truth.eta.grid))
        gap = _mp_integral(
            lambda v: (amplitude * mpmath.cos(2 * mpmath.pi * v) - m_h(v)) ** 2, truth.eta.grid
        )
        for dtheta in (-0.5, 0.25, 2.0):
            star = least_favorable_eta(truth.theta + dtheta, truth, law)
            expected = 0.5 * dtheta**2 * (mpmath.mpf(sigma_w) ** 2 + gap)
            got = kl_divergence(ModelPoint(truth.theta + dtheta, star), truth, law)
            assert abs(got - expected) <= 1e-12 * expected


class TestLeastFavorableEta:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_theta_rejected(self, bad):
        # was blamed on the nuisance: "values must be finite"
        with pytest.raises(ValueError, match=f"^theta must be finite, got {bad}$"):
            least_favorable_eta(bad, _truth(), make_covariate_law(0.8))

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
        covariates = sample_dataset(law, truth, 150_000, 23)
        u, v = covariates.u, covariates.v
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
        est = kl_divergence(ModelPoint(theta=theta, eta=star), truth, law)
        target = 0.5 * dtheta**2 * law.efficient_info
        assert abs(est - target) < 1e-5  # 1e-5 covers grid interpolation

    def test_minimises_against_perturbations(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        theta = truth.theta + 0.4
        star = least_favorable_eta(theta, truth, law)
        kl_star = kl_divergence(ModelPoint(theta, star), truth, law)
        rng = np.random.default_rng(37)
        for _ in range(6):
            bump = rng.normal(scale=0.15, size=star.values.size)
            perturbed = ModelPoint(theta, NuisanceFunction(star.values + bump))
            assert kl_divergence(perturbed, truth, law) > kl_star


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

    @pytest.mark.parametrize("k, grid_size", EXACT_CASES)
    @pytest.mark.parametrize("eta_size", [2, 37, 50])
    def test_bits_of_the_direct_cell_form(self, k, grid_size, eta_size):
        # theta0 - a (D0 . c0 + D1 . c1) with the cell coefficients of
        # _difference_integrals written out in place: the same bits
        cfg = ExperimentConfig(k=k, grid_size=grid_size)
        law, truth = cfg.law, cfg.truth
        eta = NuisanceFunction(np.random.default_rng(eta_size).normal(size=eta_size))
        nodes = np.union1d(eta.grid, truth.eta.grid)
        diff = eta(nodes) - truth.eta(nodes)
        x0, x1 = nodes[:-1], nodes[1:]
        width = x1 - x0
        omega = 2.0 * math.pi
        q = -2.0 * np.sin(0.5 * omega * (x0 + x1)) * np.sin(0.5 * omega * width)
        q /= omega**2 * width
        c0 = -np.sin(omega * x0) / omega - q
        c1 = np.sin(omega * x1) / omega + q
        value = law.cond_mean_amplitude * float(diff[:-1] @ c0 + diff[1:] @ c1)
        assert misspecified_theta_star(eta, truth, law) == truth.theta - value

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
        covariates = sample_dataset(law, truth, 200_000, 41)
        u, v = covariates.u, covariates.v
        shift_eta = eta(v) - truth.eta(v)
        thetas = np.arange(truth.theta - 1.0, truth.theta + 1.0 + 1e-9, 0.02)
        kls = [
            0.5 * np.mean(((t - truth.theta) * u + shift_eta) ** 2) for t in thetas
        ]
        brute = thetas[int(np.argmin(kls))]
        assert abs(brute - star) <= 0.02 + 1e-9

    def test_bias_bound_for_random_nuisances(self):
        # |theta* - theta0| <= sup|eta - eta0| E|m(V)| + 1e-9, E|m(V)| = 2 a / pi
        law = make_covariate_law(0.8)
        truth = _truth()
        rng = np.random.default_rng(43)
        for _ in range(20):
            bump = rng.normal(scale=rng.uniform(0.05, 1.5), size=truth.eta.values.size)
            eta = NuisanceFunction(truth.eta.values + bump)
            star = misspecified_theta_star(eta, truth, law)
            sup = float(np.max(np.abs(bump)))
            assert abs(star - truth.theta) <= sup * 2.0 * law.cond_mean_amplitude / math.pi + 1e-9


class TestLanRemainder:
    def test_zero_at_origin(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        ds = sample_dataset(law, truth, 60, 3)
        assert lan_remainder(ds, 0.0, law) == 0.0

    @pytest.mark.parametrize("h", [-1.5, 0.7, 2.0])
    @pytest.mark.parametrize("n", [50, 400])
    def test_quadratic_deficit_identity(self, h, n):
        # remainder == h^2/2 * ((1/n) sum w_i^2 - sigma_w^2) exactly
        law = make_covariate_law(0.8)
        truth = _truth()
        ds = sample_dataset(law, truth, n, seed=1000 + n)
        rem = lan_remainder(ds, h, law)
        identity = 0.5 * h * h * (empirical_information(ds, law) - law.efficient_info)
        assert rem == pytest.approx(identity, abs=1e-10)

    @pytest.mark.parametrize(
        "zeta",
        [
            lambda v: 0.0 * v,
            lambda v: 0.25 * np.cos(2 * math.pi * v),
            lambda v: 0.4 * np.sin(4 * math.pi * v),
        ],
        ids=["zero", "0.25cos(2pi v)", "0.4sin(4pi v)"],
    )
    def test_equals_expansion_minus_exact_log_ratio(self, zeta):
        # reference: data drawn at the translated truth (theta0, eta0 + zeta);
        # the exact log ratio between the submodel points at h and at 0,
        # (theta0 + s, eta0 + zeta - s m) and (theta0, eta0 + zeta) with
        # s = h / sqrt(n), subtracted from the expansion s (e.w) - h^2 I / 2.
        # The sums of squares cancel the score term, of order 1, so the two
        # sides agree to some n ulps (below 1e-14 here), well inside 1e-11
        cfg = ExperimentConfig()
        law, truth = cfg.law, cfg.truth
        eta = NuisanceFunction(truth.eta.values + zeta(truth.eta.grid))
        at_zero = ModelPoint(truth.theta, eta)
        for n, h, seed in ((40, -1.5, 61), (400, 0.7, 62), (1200, 2.0, 63)):
            ds = sample_dataset(law, at_zero, n, seed)
            s = h / math.sqrt(n)
            at_h = ModelPoint(truth.theta + s, lambda v: eta(v) - s * law.cond_mean(v))
            log_ratio = float(np.sum(log_density_ratio((ds.u, ds.v, ds.y), at_h, at_zero)))
            expansion = s * float(ds.e @ ds.w) - 0.5 * h * h * law.efficient_info
            assert abs(expansion - log_ratio - lan_remainder(ds, h, law)) < 1e-11

    def test_needs_the_stored_noise(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        ds = sample_dataset(law, truth, 30, 4)
        bare = Dataset(u=ds.u, v=ds.v, y=ds.y)
        with pytest.raises(ValueError, match="stored residuals"):
            lan_remainder(bare, 1.0, law)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_h_rejected(self, bad):
        # returned nan
        law = make_covariate_law(0.8)
        ds = sample_dataset(law, _truth(), 30, 4)
        with pytest.raises(ValueError, match=f"^h must be finite, got {bad}$"):
            lan_remainder(ds, bad, law)

    @pytest.mark.parametrize("theta0", [1.0, 1e10, 1e14, 1e200])
    def test_identity_holds_at_any_theta0(self, theta0):
        # the deficit is read off the drawn w, so no theta0 u term cancels
        law = make_covariate_law(0.8)
        truth = _truth(theta=theta0)
        ds = sample_dataset(law, truth, 50, 7)
        rem = lan_remainder(ds, 1.0, law)
        identity = 0.5 * (empirical_information(ds, law) - law.efficient_info)
        assert abs(rem - identity) < 1e-10

    def test_median_magnitude_shrinks_with_n(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        medians = []
        for n in (100, 400, 1600):
            values = [
                abs(lan_remainder(sample_dataset(law, truth, n, 5000 + r), 1.0, law))
                for r in range(50)
            ]
            medians.append(float(np.median(values)))
        assert medians[0] > medians[1] > medians[2]


# the exact Hellinger helper is checked on every combination of these
# covariate laws, grid pairs and theta shifts
HELLINGER_SIGMA_W = (0.05, 0.3, 0.8, 1.0)
HELLINGER_GRIDS = [(2, 2), (2, 7), (50, 50), (41, 13), (333, 50)]
HELLINGER_DTHETA = (0.0, 1e-3, 0.1, 1.0, 5.0)


def _mp_hellinger_sq(values, values0, laws, dthetas):
    """{(law, dtheta): H^2} by 60-digit quadrature in V of the normal
    U-expectation (1 + s^2/4)^(-1/2) exp(-mu^2 / (8 + 2 s^2)).

    A 12-node Gauss-Legendre rule runs on each cell between the merged
    nodes of both grids and of 48 equal panels, where the integrand is
    smooth; the nodes, cos(2 pi v) and D(v) are formed once and shared by
    every (law, dtheta).
    """
    with mpmath.workdps(60):
        rule = GaussLegendre(mpmath.mp).calc_nodes(3, mpmath.mp.prec)  # 3 * 2^2 nodes
        edges = np.union1d(np.union1d(uniform_grid(len(values)), uniform_grid(len(values0))), uniform_grid(49))
        cells = [mpmath.mpf(float(x)) for x in edges]
        points, weights = [], []
        for a, b in zip(cells[:-1], cells[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            points += [mid + half * x for x, _ in rule]
            weights += [half * w for _, w in rule]
        f, f0 = _mp_interpolant(values), _mp_interpolant(values0)
        diff = [f(v) - f0(v) for v in points]
        cos = [mpmath.cos(2 * mpmath.pi * v) for v in points]
        table = {}
        for law in laws:
            amplitude = mpmath.sqrt(2 * (1 - mpmath.mpf(law.residual_sd) ** 2))
            for dtheta in dthetas:
                shift = mpmath.mpf(dtheta)
                s2 = (shift * mpmath.mpf(law.residual_sd)) ** 2
                affinity = mpmath.fsum(
                    w * mpmath.exp(-((shift * amplitude * c + d) ** 2) / (8 + 2 * s2))
                    for w, c, d in zip(weights, cos, diff)
                )
                table[law, dtheta] = 1 - affinity / mpmath.sqrt(1 + s2 / 4)
        return table


class TestHellingerSq:
    @pytest.mark.parametrize("sizes", HELLINGER_GRIDS)
    def test_against_quadrature(self, sizes):
        # small random nuisances, so H^2 runs from 1e-5 (D alone) to 0.77
        rng = np.random.default_rng(sizes)
        values, values0 = (0.01 * rng.standard_normal(size) for size in sizes)
        laws = [make_covariate_law(sigma_w) for sigma_w in HELLINGER_SIGMA_W]
        table = _mp_hellinger_sq(values, values0, laws, HELLINGER_DTHETA)
        for (law, dtheta), exact in table.items():
            got = float(_hellinger_sq(dtheta, values, values0, law))
            assert abs(got - exact) <= 1e-12 * exact, (law.residual_sd, dtheta)

    def test_leading_axes_match_rows(self):
        # one call on a stack gives each row's own value, bit for bit
        law = make_covariate_law(0.3)
        rng = np.random.default_rng(83)
        stack = rng.normal(scale=0.5, size=(3, 2, 41))
        values0 = rng.normal(scale=0.5, size=13)
        got = _hellinger_sq(0.4, stack, values0, law)
        assert got.shape == (3, 2)
        for index in np.ndindex(3, 2):
            assert got[index] == _hellinger_sq(0.4, stack[index], values0, law)

    def test_matches_covariate_monte_carlo(self):
        # independent of the U-expectation's closed form: 1 - E exp(-S^2/8)
        # over drawn (U, V), within 4 Monte Carlo standard errors
        law = make_covariate_law(0.6)
        truth = _truth()
        p = ModelPoint(truth.theta + 0.7, NuisanceFunction(0.4 * np.cos(6 * math.pi * uniform_grid(13))))
        draws = 200_000
        covariates = sample_dataset(law, truth, draws, 89)
        u, v = covariates.u, covariates.v
        terms = np.exp(-((0.7 * u + p.eta(v) - truth.eta(v)) ** 2) / 8.0)
        se = terms.std(ddof=1) / math.sqrt(draws)
        assert abs(hellinger_distance(p, truth, law) ** 2 - (1.0 - terms.mean())) < 4 * se


class TestHellinger:
    def test_same_point_is_zero(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        assert hellinger_distance(truth, truth, law) == 0.0

    def test_constant_nuisance_shift_closed_form(self):
        # covariate-free shift: H = sqrt(1 - exp(-c^2/8)) exactly
        law = make_covariate_law(0.8)
        truth = _truth()
        c = 0.9
        p = ModelPoint(truth.theta, NuisanceFunction(truth.eta.values + c))
        expected = math.sqrt(-math.expm1(-c * c / 8.0))
        assert hellinger_distance(p, truth, law) == pytest.approx(expected, rel=1e-14)

    def test_symmetry(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        p = ModelPoint(truth.theta + 0.4, NuisanceFunction(truth.eta.values - 0.3))
        assert hellinger_distance(p, truth, law) == hellinger_distance(truth, p, law)

    @pytest.mark.parametrize("n", [10, 100])
    def test_local_shift_upper_bound(self, n):
        # H^2 for the theta shift M/sqrt(n) stays under
        # M^2/(2n) E U^2 + M^3/(6 n^2) E U^4
        law = make_covariate_law(0.8)
        truth = _truth()
        m_shift = 2.0
        p = ModelPoint(truth.theta + m_shift / math.sqrt(n), truth.eta)
        bound = m_shift**2 / (2 * n) + m_shift**3 / (6 * n**2) * law.fourth_moment_u
        assert hellinger_distance(p, truth, law) ** 2 <= bound

    def test_squared_distance_below_kl(self):
        # H(eta1, eta2)^2 <= KL between the same points, both exact
        law = make_covariate_law(0.8)
        truth = _truth()
        rng = np.random.default_rng(59)
        for _ in range(5):
            eta1 = NuisanceFunction(truth.eta.values + rng.normal(scale=0.3, size=41))
            eta2 = NuisanceFunction(truth.eta.values + rng.normal(scale=0.3, size=41))
            p1 = ModelPoint(truth.theta, eta1)
            p2 = ModelPoint(truth.theta, eta2)
            assert hellinger_distance(p1, p2, law) ** 2 <= kl_divergence(p1, p2, law)


class TestKlNeighborhoodStats:
    def test_at_truth(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        first, second = kl_neighborhood_stats(truth.eta, truth)
        assert first == 0.0
        assert second == 0.0

    def test_first_moment_matches_quadrature(self):
        law = make_covariate_law(0.8)
        truth = _truth()
        eta = NuisanceFunction(
            truth.eta.values + 0.3 * np.cos(2 * math.pi * truth.eta.grid)
        )
        first, _ = kl_neighborhood_stats(eta, truth)
        fine = np.linspace(0.0, 1.0, 40_001)
        target = 0.5 * np.trapezoid((eta(fine) - truth.eta(fine)) ** 2, fine)
        assert first == pytest.approx(target, rel=1e-8)  # the trapezoid rule is off by 4e-9

    def test_moments_match_simulated_log_ratios(self):
        # independent estimator: both moments of the log density ratio over
        # data simulated at the truth, within 4 Monte Carlo standard errors
        law = make_covariate_law(0.8)
        truth = _truth()
        eta = NuisanceFunction(truth.eta.values + 0.3 * np.sin(4 * math.pi * truth.eta.grid))
        draws = 120_000
        ds = sample_dataset(law, truth, draws, seed=61)
        log_ratio = log_density_ratio((ds.u, ds.v, ds.y), ModelPoint(truth.theta, eta), truth)
        first, second = kl_neighborhood_stats(eta, truth)
        for exact, terms in ((first, -log_ratio), (second, log_ratio**2)):
            se = terms.std(ddof=1) / math.sqrt(draws)
            assert abs(exact - terms.mean()) < 4 * se

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
            first, second = kl_neighborhood_stats(eta, truth)
            class_bound = max(eta.sup_norm(), truth.eta.sup_norm())
            sup = float(np.max(np.abs(delta)))
            cap = (0.5 + class_bound**2) * sup**2
            assert first <= cap, kind
            assert second <= cap, kind


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
        with pytest.raises(ValueError, match="^quadratic must be finite, got nan$"):
            LanCoefficients(linear=0.0, quadratic=math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_theta0_rejected(self, bad):
        # gave linear=nan
        law = make_covariate_law(0.8)
        ds = sample_dataset(law, _truth(grid_size=25), 40, 71)
        spec = GpPriorSpec(k=1, grid_size=25, scale=2.0)
        with pytest.raises(ValueError, match=f"^theta0 must be finite, got {bad}$"):
            integral_lan_coefficients(ds, spec, bad)

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
    def test_singleton_probe_reduces_to_single_expectation(self):
        law = make_covariate_law(0.8)
        # each translation draws from its own substream, so a probe's
        # estimate does not depend on the probes counted after it
        single, _ = estimate_un_per_zeta(law, 1, n=30, mc_reps=2000, seed=89)
        estimates, _ = estimate_un_per_zeta(law, 2, n=30, mc_reps=2000, seed=89)
        assert single[0] == estimates[0]

    def test_plugin_direction_finite_with_errors(self):
        law = make_covariate_law(0.8)
        estimates, errors = estimate_un_per_zeta(law, 2, n=50, mc_reps=4000, seed=97)
        assert np.all(np.isfinite(estimates))
        assert np.all(np.isfinite(errors))
        assert np.all(estimates > 0.0)

    def test_plugin_direction_equals_per_replication_loop(self):
        # reference: each replication on its own, drawn after the one before
        # from its translation's generator (v, then z, then e), its residual
        # the noise e, its plug-in direction sqrt(n) (u.e)/(u.u) clamped to
        # [-2, 2] and its log ratio s (w.e) - s^2 (w.w)/2, w = sigma_w z
        law = make_covariate_law(0.8)
        reps, seed = 300, 103
        for n in (3, 40, 800, 1000):
            estimates, _ = estimate_un_per_zeta(law, 2, n, reps, seed)
            for j in range(2):
                rng = np.random.default_rng([seed, j])
                ratios = np.empty(reps)
                for i in range(reps):
                    v = rng.uniform(0.0, 1.0, n)
                    w = law.residual_sd * rng.standard_normal(n)
                    e = rng.standard_normal(n)
                    u = law.cond_mean(v) + w
                    h = math.sqrt(n) * float(u @ e) / float(u @ u)
                    shift = max(-2.0, min(2.0, h)) / math.sqrt(n)
                    ratios[i] = np.exp(shift * float(w @ e) - 0.5 * shift**2 * float(w @ w))
                assert estimates[j] == ratios.mean()

    def test_chunk_size_does_not_move_the_estimates(self, monkeypatch):
        # one replication per chunk, the default chunks and larger ones
        # give the same bits; no drawn array exceeds half the budget
        law = make_covariate_law(0.6)
        draws = asymptotics._draws
        shapes = []

        def recorded(law, rng, n, rows, states=None):
            shapes.append((rows, n))
            return draws(law, rng, n, rows, states)

        monkeypatch.setattr(asymptotics, "_draws", recorded)
        for n in (1, 40, 800):
            reference = estimate_un_per_zeta(law, 2, n, 301, 211)
            assert max(rows * n for rows, _ in shapes) <= _BATCH_BUDGET // 2
            assert sum(rows for rows, _ in shapes) == 301 * 2
            for budget in (1, 2**16):
                shapes.clear()
                monkeypatch.setattr(model, "_BATCH_BUDGET", budget)
                estimates, errors = estimate_un_per_zeta(law, 2, n, 301, 211)
                assert np.array_equal(estimates, reference[0])
                assert np.array_equal(errors, reference[1])
                assert max(rows for rows, _ in shapes) == max(1, min(301, budget // (2 * n)))
            shapes.clear()
            monkeypatch.setattr(model, "_BATCH_BUDGET", _BATCH_BUDGET)

    @pytest.mark.parametrize("sigma_w", [0.3, 0.8, 1.0])
    @pytest.mark.parametrize("grid_size", [2, 21, 200])
    @pytest.mark.parametrize("n", [1, 40, 800])
    @pytest.mark.parametrize("theta0", [-1.5, 0.0, 2.5])
    def test_matches_rebuilt_residual_reference(self, sigma_w, grid_size, n, theta0):
        # reference: y rebuilt at the translated truth and the residual
        # subtracted back out of it, summed term by term; replication i of
        # translation j draws its n uniforms, n normals and n noises after
        # replication i - 1 from default_rng([seed, j])
        law = make_covariate_law(sigma_w)
        truth = _truth(grid_size=grid_size, theta=theta0, amplitude=3.0)
        grid = uniform_grid(grid_size)
        zetas = [NuisanceFunction(np.zeros(grid_size)), NuisanceFunction(2.0 * np.cos(2 * math.pi * grid))]
        reps, seed = 50, 109
        estimates, errors = estimate_un_per_zeta(law, len(zetas), n, reps, seed)
        rootn = math.sqrt(n)
        for j, zeta in enumerate(zetas):
            rng = np.random.default_rng([seed, j])
            v, z, e = np.empty((3, reps, n))
            for i in range(reps):
                v[i] = rng.uniform(0.0, 1.0, n)
                z[i] = rng.standard_normal(n)
                e[i] = rng.standard_normal(n)
            u = law.cond_mean(v) + sigma_w * z
            y = truth.theta * u + truth.eta(v) + zeta(v) + e
            r = y - truth.theta * u - truth.eta(v) - zeta(v)
            w = u - law.cond_mean(v)
            h_rep = np.clip(rootn * np.sum(u * r, axis=1) / np.sum(u * u, axis=1), -2.0, 2.0)
            shift = h_rep[:, None] / rootn
            ratios = np.exp(np.sum(-0.5 * (r - shift * w) ** 2 + 0.5 * r**2, axis=1))
            assert estimates[j] == pytest.approx(ratios.mean(), rel=1e-12, abs=0.0)
            se = ratios.std(ddof=1) / math.sqrt(reps)
            assert errors[j] == pytest.approx(se, rel=1e-12, abs=0.0)

    def test_evaluates_no_nuisance(self, monkeypatch):
        # the residual at the translated truth is the drawn noise, so no
        # nuisance function is evaluated
        def no_evaluation(self, v):
            raise AssertionError("a nuisance function was evaluated")

        monkeypatch.setattr(NuisanceFunction, "__call__", no_evaluation)
        estimates, errors = estimate_un_per_zeta(make_covariate_law(0.8), 2, 40, 300, seed=107)
        assert np.isfinite(estimates).all() and np.isfinite(errors).all()

    def test_forms_m_once_per_drawn_point(self):
        # m(v) is formed once per chunk of replications, for u alone
        law = make_covariate_law(0.8)
        calls = []
        cond_mean = CovariateLaw.cond_mean

        def counting(self, v):
            calls.append(np.size(v))
            return cond_mean(self, v)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CovariateLaw, "cond_mean", counting)
            estimates, errors = estimate_un_per_zeta(law, 2, 40, 300, 113)
        size = _BATCH_BUDGET // (2 * 40)
        assert calls == [40 * size, 40 * (300 - size)] * 2
        assert estimates.shape == errors.shape == (2,)

    def test_seed_determinism(self):
        law = make_covariate_law(0.8)
        a = estimate_un_per_zeta(law, 2, 20, 500, seed=101)
        b = estimate_un_per_zeta(law, 2, 20, 500, seed=101)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("translations", [0, -2])
    def test_empty_probe_set_rejected(self, translations):
        law = make_covariate_law(0.8)
        with pytest.raises(ValueError, match=f"translations must be >= 1, got {translations}"):
            estimate_un_per_zeta(law, translations, 10, 100, seed=1)
