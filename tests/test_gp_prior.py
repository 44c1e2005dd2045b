"""Prior tests: kernel against quadrature and exact rational arithmetic,
covariance, path sampling, seminorm."""

import functools
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from semibvm.gp_prior import (
    GpPriorSpec,
    holder_seminorm,
    kibm_kernel,
    prior_covariance,
    prior_factor,
    sample_prior_path,
)
from semibvm.model import NuisanceFunction, uniform_grid


def kernel_quadrature(s: float, t: float, k: int) -> float:
    """Independent kernel evaluation: polynomial sum + adaptive quadrature."""
    poly = sum((s * t) ** i / math.factorial(i) ** 2 for i in range(k + 1))
    integral, _ = quad(
        lambda x: (s - x) ** k * (t - x) ** k, 0.0, min(s, t), epsabs=1e-13, epsrel=1e-13
    )
    return poly + integral / math.factorial(k) ** 2


@functools.lru_cache(maxsize=None)
def _alternating_weights(k: int) -> tuple[int, list[int]]:
    """(q, [q w_b]): w_b = sum_a C(k,a) (-1)^a / (a+b+1), q a common denominator."""
    weights = [
        sum(Fraction((-1) ** a * math.comb(k, a), a + b + 1) for a in range(k + 1))
        for b in range(k + 1)
    ]
    q = math.lcm(*(w.denominator for w in weights))
    return q, [int(w * q) for w in weights]


def kernel_exact(s: float, t: float, k: int) -> float:
    """c_k(s, t) in exact rational arithmetic on the float inputs, rounded once.

    Independent of the program's nonnegative form: (s-x)^k (t-x)^k is
    expanded binomially and integrated term by term over [0, lo],

        sum_{a,b} C(k,a) C(k,b) (-1)^(a+b) lo^(k-a) hi^(k-b) lo^(a+b+1) / (a+b+1),

    with lo = min(s, t), hi = max(s, t); the sum over a is the weight w_b
    of lo^(k+b+1) hi^(k-b).  The inputs are dyadic, lo = L/D and hi = H/D,
    so every sum is an integer sum over one common denominator.
    """
    den = max(Fraction(s).denominator, Fraction(t).denominator)
    lo, hi = sorted(int(Fraction(x) * den) for x in (s, t))
    fact = math.factorial(k)
    q, weights = _alternating_weights(k)
    poly = sum(
        (lo * hi) ** i * den ** (2 * (k - i)) * (fact // math.factorial(i)) ** 2
        for i in range(k + 1)
    )
    integral = sum(
        math.comb(k, b) * (-1) ** b * lo ** (k + b + 1) * hi ** (k - b) * weights[b]
        for b in range(k + 1)
    )
    return float(Fraction(poly * q * den + integral, q * den ** (2 * k + 1) * fact**2))


def _reference_points() -> list[tuple[float, float]]:
    """Every pair of nodes of a 7-point grid (its diagonal included), and
    pairs 0, 1 and 8 ulp, 1e-9 and 1e-6 apart around four points."""
    grid = [float(x) for x in uniform_grid(7)]
    points = [(s, t) for s in grid for t in grid]
    for s in (1e-3, 0.3, 0.5, 1.0 - 1e-9):
        for t in (s, math.nextafter(s, 1.0), s + 8 * math.ulp(s), s + 1e-9, s + 1e-6):
            points += [(s, min(t, 1.0)), (min(t, 1.0), s)]
        points.append((s, s - 1e-6))
    return points


class TestKernel:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    def test_left_edge_is_one(self, t, k):
        assert kibm_kernel(0.0, t, k) == pytest.approx(1.0, abs=1e-14)

    def test_order_zero_value(self):
        assert kibm_kernel(0.3, 0.7, 0) == pytest.approx(kernel_quadrature(0.3, 0.7, 0), abs=1e-12)
        assert kibm_kernel(0.3, 0.7, 0) == pytest.approx(1.3, abs=1e-12)

    def test_order_one_corner_value(self):
        assert kibm_kernel(1.0, 1.0, 1) == pytest.approx(7.0 / 3.0, abs=1e-10)
        assert kibm_kernel(1.0, 1.0, 1) == pytest.approx(kernel_quadrature(1.0, 1.0, 1), abs=1e-12)

    def test_random_triples_against_quadrature(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            s, t = rng.uniform(0, 1, size=2)
            k = int(rng.integers(0, 4))
            exact = kibm_kernel(s, t, k)
            reference = kernel_quadrature(s, t, k)
            assert abs(exact - reference) < 1e-8 * max(abs(reference), 1.0)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 10, 30, 98])
    def test_against_exact_rational_arithmetic(self, k):
        # every term of the closed form is nonnegative, so no digit
        # cancels at any order the CLI accepts
        for s, t in _reference_points():
            exact = kernel_exact(s, t, k)
            assert abs(kibm_kernel(s, t, k) - exact) <= 2 * math.ulp(exact), (s, t)

    def test_exact_reference_against_quadrature(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            s, t = (float(x) for x in rng.uniform(0, 1, size=2))
            k = int(rng.integers(0, 5))
            assert kernel_exact(s, t, k) == pytest.approx(kernel_quadrature(s, t, k), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            s, t = rng.uniform(0, 1, size=2)
            k = int(rng.integers(0, 4))
            assert kibm_kernel(s, t, k) == kibm_kernel(t, s, k)

    def test_corner_closed_form_per_order(self):
        # c_k(1,1) = 1 + sum_{i=1}^k 1/(i!)^2 + 1/((2k+1) (k!)^2).  The
        # sequence peaks at k = 1 (2, 7/3, 2.3, ...), so no monotonicity
        # in k is asserted, only the identity against quadrature.
        values = [kibm_kernel(1.0, 1.0, k) for k in range(5)]
        for k, val in enumerate(values):
            closed = (
                1.0
                + sum(1.0 / math.factorial(i) ** 2 for i in range(1, k + 1))
                + 1.0 / ((2 * k + 1) * math.factorial(k) ** 2)
            )
            assert val == pytest.approx(closed, abs=1e-12)
            assert val == pytest.approx(kernel_quadrature(1.0, 1.0, k), abs=1e-10)
        assert values[1] == max(values)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            kibm_kernel(-0.1, 0.5, 1)
        with pytest.raises(ValueError):
            kibm_kernel(0.5, 1.1, 1)
        with pytest.raises(ValueError):
            kibm_kernel(0.5, 0.5, -1)

    @pytest.mark.parametrize("k", [99, 200])
    def test_order_whose_factorial_square_overflows_is_rejected(self, k):
        # c_k divides a float by (k!)^2, which overflows a float from k = 99
        message = rf"integration order k must lie in \[0, 98\], got {k}"
        with pytest.raises(ValueError, match=message):
            kibm_kernel(0.5, 0.5, k)
        with pytest.raises(ValueError, match=message):
            GpPriorSpec(k=k)

    @pytest.mark.parametrize(
        "k", [2.0, 1.5, np.float64(2.0)], ids=["float", "fraction", "numpy-float"]
    )
    def test_non_integer_order_is_rejected(self, k):
        message = re.escape(f"integration order k must be an integer, got {k!r}")
        with pytest.raises(ValueError, match=message):
            GpPriorSpec(k=k)
        with pytest.raises(ValueError, match=message):
            kibm_kernel(0.5, 0.5, k)

    def test_numpy_integer_order_is_accepted(self):
        spec = GpPriorSpec(k=np.int64(2), grid_size=5)
        np.testing.assert_array_equal(
            prior_covariance(spec).matrix,
            prior_covariance(GpPriorSpec(k=2, grid_size=5)).matrix,
        )

    def test_largest_order_is_accepted(self):
        assert math.isfinite(kibm_kernel(1.0, 1.0, 98))
        assert GpPriorSpec(k=98).k == 98


class TestPriorCovariance:
    def test_two_point_order_zero(self):
        spec = GpPriorSpec(k=0, grid_size=2, scale=1.0)
        cov = prior_covariance(spec)
        np.testing.assert_allclose(cov.matrix, [[1.0, 1.0], [1.0, 2.0]], atol=1e-14)

    def test_grid_size_one_disallowed(self):
        with pytest.raises(ValueError):
            GpPriorSpec(k=0, grid_size=1, scale=1.0)

    def test_non_integer_grid_size_is_rejected(self):
        with pytest.raises(ValueError, match=re.escape("grid_size must be an integer, got 2.5")):
            GpPriorSpec(k=0, grid_size=2.5)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_exact_symmetry(self, k):
        cov = prior_covariance(GpPriorSpec(k=k, grid_size=17, scale=2.0))
        np.testing.assert_array_equal(cov.matrix, cov.matrix.T)

    def test_positive_semidefinite(self):
        cov = prior_covariance(GpPriorSpec(k=1, grid_size=50, scale=1.0))
        eigenvalues = np.linalg.eigvalsh(cov.matrix)
        assert eigenvalues.min() >= -1e-10 * np.trace(cov.matrix)

    def test_scale_is_variance_multiplier(self):
        base = prior_covariance(GpPriorSpec(k=1, grid_size=9, scale=1.0))
        scaled = prior_covariance(GpPriorSpec(k=1, grid_size=9, scale=2.0))
        np.testing.assert_allclose(scaled.matrix, 4.0 * base.matrix, atol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_scale_whose_covariance_overflows_rejected(self, k):
        # K's largest entry is scale^2 c_k(1, 1): just below the scale that
        # overflows it K is finite, just above the spec is rejected
        edge = math.sqrt(sys.float_info.max / kibm_kernel(1.0, 1.0, k))
        matrix = prior_covariance(GpPriorSpec(k=k, grid_size=7, scale=0.999 * edge)).matrix
        assert np.isfinite(matrix).all()
        assert matrix.max() == matrix[-1, -1]
        with pytest.raises(ValueError, match="largest entry"):
            GpPriorSpec(k=k, grid_size=7, scale=1.001 * edge)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("grid_size", [2, 17, 60])
    def test_every_entry_matches_kernel(self, k, grid_size):
        # 2 ulp in c_k, one rounding each in scale^2, its product and the
        # rounded reference
        spec = GpPriorSpec(k=k, grid_size=grid_size, scale=1.5)
        matrix = prior_covariance(spec).matrix
        grid = [float(x) for x in uniform_grid(grid_size)]
        expected = np.array(
            [[spec.scale**2 * kernel_exact(s, t, k) for t in grid] for s in grid]
        )
        np.testing.assert_allclose(matrix, expected, rtol=4 * np.finfo(float).eps, atol=0.0)
        np.testing.assert_array_equal(matrix, matrix.T)

    def test_asymmetric_matrix_rejected(self):
        from semibvm.gp_prior import PriorCovariance

        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            PriorCovariance(matrix=bad)

    def test_non_psd_matrix_rejected_where_it_is_factorised(self, monkeypatch):
        # construction checks shape and symmetry only; prior_factor, the
        # one place K is factorised, checks PSD once per spec
        from semibvm import gp_prior

        bad = gp_prior.PriorCovariance(matrix=np.array([[1.0, 0.0], [0.0, -1.0]]))
        monkeypatch.setattr(gp_prior, "prior_covariance", lambda spec: bad)
        gp_prior.prior_factor.cache_clear()
        with pytest.raises(ValueError, match="not PSD"):
            gp_prior.prior_factor(GpPriorSpec(k=0, grid_size=2, scale=1.234))

    @pytest.mark.parametrize("k", [0, 3])
    def test_eigendecomposition_only_when_plain_cholesky_fails(self, k, monkeypatch):
        # k = 0 factorises plainly; K at k = 3 on 50 nodes is singular to
        # rounding and takes the eigen square root
        from semibvm import gp_prior

        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        gp_prior.prior_factor.cache_clear()
        prior_factor(GpPriorSpec(k=k, grid_size=50, scale=1.234))
        assert len(calls) == (1 if k == 3 else 0)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("grid_size", [50, 200, 400])
    def test_factor_reproduces_the_covariance(self, k, grid_size):
        # no jitter: L L' is K to rounding at every order, the orders
        # whose K needs the eigen square root included
        spec = GpPriorSpec(k=k, grid_size=grid_size, scale=3.0)
        matrix = prior_covariance(spec).matrix
        factor = prior_factor(spec)
        assert np.abs(factor @ factor.T - matrix).max() <= 2e-13 * np.abs(matrix).max()


class TestSamplePriorPath:
    def test_seed_determinism(self):
        spec = GpPriorSpec(k=1, grid_size=25, scale=1.0)
        a = sample_prior_path(spec, 5)
        b = sample_prior_path(spec, 5)
        np.testing.assert_array_equal(a.values, b.values)
        c = sample_prior_path(spec, 6)
        assert not np.array_equal(a.values, c.values)

    def test_pointwise_variance_matches_kernel(self):
        spec = GpPriorSpec(k=1, grid_size=12, scale=1.5)
        draws = 10_000
        grid = uniform_grid(12)
        samples = np.array([sample_prior_path(spec, seed).values for seed in range(draws)])
        idx = 8
        target = spec.scale**2 * kibm_kernel(grid[idx], grid[idx], spec.k)
        observed = samples[:, idx].var(ddof=1)
        se = target * math.sqrt(2.0 / (draws - 1))
        assert abs(observed - target) < 4 * se

    def test_empirical_covariance_entrywise(self):
        spec = GpPriorSpec(k=1, grid_size=8, scale=1.0)
        draws = 10_000
        samples = np.array([sample_prior_path(spec, 10_000 + seed).values for seed in range(draws)])
        empirical = np.cov(samples, rowvar=False)
        target = prior_covariance(spec).matrix
        se = np.sqrt(
            (np.outer(np.diag(target), np.diag(target)) + target**2) / draws
        )
        assert np.all(np.abs(empirical - target) < 5 * se)

    def test_conditioned_paths_inside_ball(self):
        spec = GpPriorSpec(k=1, grid_size=30, scale=1.0, holder_alpha=0.6, holder_bound=10.0)
        for seed in range(25):
            path = sample_prior_path(spec, seed)
            assert holder_seminorm(path, 0.6) < 10.0
            assert path.sup_norm() + holder_seminorm(path, 0.6) < 10.0

    def test_conditioned_determinism(self):
        spec = GpPriorSpec(k=1, grid_size=20, scale=1.0, holder_alpha=0.6, holder_bound=8.0)
        a = sample_prior_path(spec, 3)
        b = sample_prior_path(spec, 3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_attempt_cap_raises(self):
        spec = GpPriorSpec(k=1, grid_size=20, scale=1.0, holder_alpha=0.6, holder_bound=0.01)
        with pytest.raises(ValueError, match="attempts"):
            sample_prior_path(spec, 1, max_attempts=20)

    def test_ball_requires_alpha(self):
        with pytest.raises(ValueError):
            GpPriorSpec(k=1, grid_size=10, scale=1.0, holder_bound=5.0)
        # and the reverse: an alpha without a bound would restrict nothing
        with pytest.raises(ValueError, match="together"):
            GpPriorSpec(k=1, grid_size=10, scale=1.0, holder_alpha=0.6)


class TestHolderSeminorm:
    def test_constant_is_zero(self):
        eta = NuisanceFunction(np.full(17, 3.2))
        assert holder_seminorm(eta, 0.7) == 0.0

    def test_identity_lipschitz(self):
        eta = NuisanceFunction(uniform_grid(33))
        assert holder_seminorm(eta, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_on_fine_grid(self):
        # exhaustive pairwise maximum, computed independently
        grid = uniform_grid(101)
        eta = NuisanceFunction(np.sqrt(grid))
        best = 0.0
        for i in range(101):
            for j in range(i + 1, 101):
                ratio = abs(eta.values[i] - eta.values[j]) / abs(grid[i] - grid[j]) ** 0.5
                best = max(best, ratio)
        assert best == pytest.approx(1.0, abs=1e-12)
        assert holder_seminorm(eta, 0.5) == pytest.approx(best, abs=1e-12)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(71)
        values = rng.normal(size=20)
        eta = NuisanceFunction(values)
        scaled = NuisanceFunction(-2.5 * values)
        assert holder_seminorm(scaled, 0.6) == pytest.approx(
            2.5 * holder_seminorm(eta, 0.6), abs=1e-12
        )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            a = rng.normal(size=15)
            b = rng.normal(size=15)
            lhs = holder_seminorm(NuisanceFunction(a + b), 0.8)
            rhs = holder_seminorm(NuisanceFunction(a), 0.8) + holder_seminorm(
                NuisanceFunction(b), 0.8
            )
            assert lhs <= rhs + 1e-12

    def test_alpha_validation(self):
        eta = NuisanceFunction(np.zeros(5))
        with pytest.raises(ValueError):
            holder_seminorm(eta, 0.0)
        with pytest.raises(ValueError):
            holder_seminorm(eta, 1.5)
