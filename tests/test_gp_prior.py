"""Prior tests: kernel against quadrature and exact rational arithmetic,
covariance, path sampling, seminorm."""

import dataclasses
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", ["one", "diagonal", "non-square"])
    def test_nonfinite_entry_rejected_before_shape_and_symmetry(self, bad, shape):
        # [[inf]] was accepted and [[nan]] blamed on the symmetry, since
        # np.allclose takes inf as close to inf; a non-square matrix holding
        # one is named by its entry too
        from semibvm.gp_prior import PriorCovariance

        matrix = {
            "one": [[bad]],
            "diagonal": [[1.0, 0.0], [0.0, bad]],
            "non-square": [[1.0, bad, 0.0], [bad, 1.0, 0.0]],
        }[shape]
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            PriorCovariance(matrix=matrix)

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
        spec = GpPriorSpec(k=1, grid_size=30, scale=1.0)
        for seed in range(25):
            path = sample_prior_path(spec, seed, ball=(0.6, 10.0))
            assert holder_seminorm(path, 0.6) < 10.0
            assert path.sup_norm() + holder_seminorm(path, 0.6) < 10.0

    def test_conditioned_determinism(self):
        spec = GpPriorSpec(k=1, grid_size=20, scale=1.0)
        a = sample_prior_path(spec, 3, ball=(0.6, 8.0))
        b = sample_prior_path(spec, 3, ball=(0.6, 8.0))
        np.testing.assert_array_equal(a.values, b.values)

    def test_attempt_cap_raises(self):
        spec = GpPriorSpec(k=1, grid_size=20, scale=1.0)
        with pytest.raises(ValueError, match="attempts"):
            sample_prior_path(spec, 1, max_attempts=20, ball=(0.6, 0.01))
        # a cap of 2.5 reached range() and 0 read as a cap exceeded
        with pytest.raises(ValueError, match=r"^max_attempts must be an integer, got 2\.5$"):
            sample_prior_path(spec, 1, max_attempts=2.5, ball=(0.6, 8.0))
        with pytest.raises(ValueError, match="^max_attempts must be >= 1, got 0$"):
            sample_prior_path(spec, 1, max_attempts=0, ball=(0.6, 8.0))

    def test_ball_requires_alpha(self):
        # the ball is (alpha, bound): alpha in (0, 1] and bound > 0, both
        # finite; it is checked before any draw
        spec = GpPriorSpec(k=1, grid_size=10, scale=1.0)
        for ball, message in [
            ((0.6, 0.0), "bound must be > 0, got 0.0"),
            ((0.6, -5.0), "bound must be > 0, got -5.0"),
            ((0.0, 5.0), "alpha must lie in (0, 1], got 0.0"),
            ((1.5, 5.0), "alpha must lie in (0, 1], got 1.5"),
            ((math.nan, 5.0), "alpha must be finite, got nan"),
            ((0.6, math.nan), "bound must be finite, got nan"),
            ((0.6, math.inf), "bound must be finite, got inf"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sample_prior_path(spec, 1, ball=ball)
        assert sample_prior_path(spec, 1, ball=(1.0, 1e6)).values.size == 10

    def test_draws_equal_the_reference_paths(self):
        spec = GpPriorSpec(k=1, grid_size=50, scale=1.0)
        for seed in range(4):
            np.testing.assert_array_equal(
                sample_prior_path(spec, seed).values, _REFERENCE_PATHS[seed]
            )
        np.testing.assert_array_equal(
            sample_prior_path(spec, 11, ball=(0.6, 6.0)).values, _REFERENCE_PATHS["ball"]
        )


class TestGpPriorSpec:
    def test_fields_are_the_values_that_determine_the_covariance(self):
        assert [f.name for f in dataclasses.fields(GpPriorSpec)] == ["k", "grid_size", "scale"]
        with pytest.raises(TypeError):
            GpPriorSpec(holder_bound=1.0)

    def test_equal_specs_share_one_cached_factor(self):
        prior_factor.cache_clear()
        a = prior_factor(GpPriorSpec(k=2, grid_size=23, scale=1.5))
        b = prior_factor(GpPriorSpec(k=2, grid_size=23, scale=1.5))
        assert a is b
        assert prior_factor.cache_info().misses == 1


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


# sample_prior_path(GpPriorSpec(k=1, grid_size=50, scale=1.0), seed) as drawn
# while the Hoelder ball was a field of the spec: seeds 0..3 unrestricted and
# seed 11 restricted to alpha 0.6, bound 6.  Moving the ball to the sampler's
# `ball` keyword changed no seeded draw
_REFERENCE_PATHS = {
    0: [
        0.1257302210933933, 0.12302504888988508, 0.12183459192722436, 0.1212671945963617,
        0.11953237645020008, 0.11829902612864933, 0.12028680235536625, 0.125255647520607,
        0.1291898666213739, 0.12978086938797104, 0.1281591138676442, 0.1262483769490134,
        0.11901705474774855, 0.10985018630540155, 0.09768374030396104, 0.08306594439571398,
        0.0667455542418448, 0.049362559058811206, 0.03273116935845351, 0.01875048560473272,
        0.005116556677213689, -0.005454593270406302, -0.016713366510105757, -0.027573728446962438,
        -0.03614013328262297, -0.04393373673327787, -0.053378979349680944, -0.0654016615095516,
        -0.07904469489355131, -0.0924634321504266, -0.10806796547923345, -0.12477549881304988,
        -0.14197801991551529, -0.15803505046608832, -0.17326528675427116, -0.18754614569590317,
        -0.20311143401441253, -0.21937757741544997, -0.2339209471270638, -0.24454739112165058,
        -0.2571487463218186, -0.2670447890335872, -0.27291346084473567, -0.2761564247314334,
        -0.27830994224841465, -0.2810223433401309, -0.28057566291022035, -0.2747233760203817,
        -0.2635207802461284, -0.24818430725504084,
    ],
    1: [
        0.345584192064786, 0.3624088456643761, 0.38007659815165595, 0.39493756191262064,
        0.41107962040443763, 0.4288057621110378, 0.4455722736746829, 0.4633441553751096,
        0.48231234577059023, 0.5021814638589419, 0.5222971517000689, 0.5436874321490147,
        0.5637211849661121, 0.5829266168322331, 0.6009231203134598, 0.6199995401734222,
        0.6395362484708393, 0.6584249710582292, 0.6753356319980224, 0.6911731797443751,
        0.7068709911032907, 0.721940112918894, 0.7398149321292908, 0.7608018396690621,
        0.7761751012830125, 0.7855345033587511, 0.7933282090090897, 0.8000434751043461,
        0.8069898653574044, 0.8145675806334884, 0.8271488302895735, 0.8384779775133344,
        0.8482537564636325, 0.862493925633339, 0.8794796545901157, 0.8983884331638868,
        0.9165238523579095, 0.9305530959404547, 0.9439520072092116, 0.9577047556935437,
        0.9687025634823139, 0.9773732170802618, 0.9854572763888871, 0.9913246396769302,
        0.9963839779237511, 1.0016023196750958, 1.006961314245424, 1.0111780948671618,
        1.0164481767255102, 1.024133170971906,
    ],
    2: [
        0.18905338179353307, 0.1783488209008527, 0.16662523147673935, 0.14902861894532737,
        0.1340702118054782, 0.12285129307691334, 0.11158903507028103, 0.10190552976131496,
        0.09334537263442957, 0.08368504205627078, 0.07593126134699005, 0.0680656907942698,
        0.0592527046225077, 0.048415709365506765, 0.03813677187035355, 0.027910046957553225,
        0.018876011942093096, 0.008781804334251075, -0.0013948740229389744, -0.01354505813160467,
        -0.024310161170585487, -0.03412447391732354, -0.04306284023808393, -0.05085364940985193,
        -0.06071562366317618, -0.06939953031956336, -0.07287184517042816, -0.07884435365061254,
        -0.0898028314120825, -0.10528693822190555, -0.11976337910731061, -0.1334254292518316,
        -0.1445286960462996, -0.15330647060462615, -0.16115497297849768, -0.16822063895978534,
        -0.17550164477122254, -0.18089035215357152, -0.18834160079781737, -0.19745887462769574,
        -0.2062774587393581, -0.21080427941649327, -0.2159789975272618, -0.22410583933830563,
        -0.23419268964395434, -0.24239789477725693, -0.25054628266394274, -0.25579432927161505,
        -0.26453202606966747, -0.2718285389323337,
    ],
    3: [
        2.0409191213851825, 1.9885855900378602, 1.9370701019518175, 1.8844949389254395,
        1.8305298237891205, 1.7757901372088334, 1.7162729733332092, 1.6549779895329855,
        1.5915506876038175, 1.5352310418173942, 1.4814778820732797, 1.4270530115006632,
        1.371764105805326, 1.3147658281906063, 1.2549298077, 1.1935451150172967,
        1.1330278053677034, 1.0722589089737968, 1.0135452550406665, 0.9549622695018313,
        0.8963119654728768, 0.8412309824835829, 0.7883557766225158, 0.7346547194802506,
        0.6802219773585287, 0.6269194402195091, 0.5783993585223313, 0.5304515490438537,
        0.48177759917490226, 0.43525825516534233, 0.3873181673428481, 0.33816115962679905,
        0.290853681945602, 0.24542436768661302, 0.2005630398365481, 0.15729889681755882,
        0.10794469089566694, 0.05919636915444748, 0.008870728357255109, -0.04588288846690847,
        -0.10102891044307194, -0.1543938181474036, -0.2083497884775234, -0.2650548111188251,
        -0.3223629454613901, -0.37977626832477585, -0.43399013490584926, -0.4856194535607412,
        -0.5363426396444121, -0.5843903868572721,
    ],
    "ball": [
        0.03419276725318417, 0.06203694466037099, 0.09288935406810736, 0.1232947634263106,
        0.15270126241599502, 0.1807115586493716, 0.2097069317618231, 0.2389244057740582,
        0.2698246853482985, 0.2969374907706253, 0.3265141807461805, 0.35683430239059294,
        0.38865943585587254, 0.420589742538634, 0.4515642315083656, 0.4833700047721635,
        0.5173569442436887, 0.5513861867390663, 0.5849393410212658, 0.6199750198666774,
        0.6534319498561209, 0.6828705672196392, 0.712284360918618, 0.7403996441151235,
        0.7636862622815244, 0.7839179545030417, 0.8025729343329473, 0.8181962403601302,
        0.8296527169177581, 0.8402739182967294, 0.8529807775827777, 0.8657043879081586,
        0.8765745804350281, 0.887871871253084, 0.9010555317825497, 0.9139912589630917,
        0.9279945262518252, 0.9447312973580597, 0.9616347277197923, 0.9765400982496513,
        0.991743624236515, 1.0077305332723778, 1.026396506092878, 1.0427857720388416,
        1.0568623221609532, 1.0686040130888868, 1.0758422057298866, 1.0823027754456627,
        1.090054846104156, 1.0964333681538199,
    ],
}
