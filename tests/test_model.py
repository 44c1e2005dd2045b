"""Model-layer tests: covariate law, sampling, scores."""

import ast
import math
import pathlib
import re

import numpy as np
import pytest

import semibvm
from semibvm.model import (
    _MASK64,
    CovariateLaw,
    Dataset,
    ModelPoint,
    NuisanceFunction,
    _check_integer,
    _check_real,
    _draws,
    _pcg64_states,
    efficient_score,
    empirical_information,
    interpolate,
    interpolation_index,
    interpolation_weights,
    make_covariate_law,
    sample_dataset,
    sample_datasets,
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

    @pytest.mark.parametrize("sd", [1e-160, 2.0**-512, 1e-300, 5e-324])
    def test_residual_sd_without_finite_information_reciprocal_rejected(self, sd):
        # 1/sigma_w^2 overflows (or sigma_w^2 underflows to 0), so the
        # sampling variance 1/I~ of every gap would be infinite
        with pytest.raises(ValueError, match="residual_sd"):
            make_covariate_law(sd)

    def test_unstandardisable_rejected(self):
        with pytest.raises(ValueError):
            make_covariate_law(1.2)

    @pytest.mark.parametrize(
        "sd, message",
        [
            (0.0, "residual_sd must lie in (0, 1], got 0.0"),
            (1.2, "residual_sd must lie in (0, 1], got 1.2"),
            (math.nan, "residual_sd must be finite, got nan"),
            (math.inf, "residual_sd must be finite, got inf"),
        ],
    )
    def test_residual_sd_follows_the_real_rule(self, sd, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_covariate_law(sd)

    def test_amplitude_standardisation(self):
        law = make_covariate_law(0.8)
        assert law.cond_mean_amplitude == pytest.approx(math.sqrt(0.72), abs=1e-15)

    def test_residual_sd_is_the_only_field(self):
        # the amplitude is derived from sigma_w, never passed beside it
        assert CovariateLaw(residual_sd=0.8) == make_covariate_law(0.8)
        with pytest.raises(TypeError):
            CovariateLaw(cond_mean_amplitude=math.sqrt(0.72), residual_sd=0.8)

    def test_second_moment_monte_carlo(self):
        # E U^2 = 1 within 3 MC standard errors at 1e5 draws
        law = make_covariate_law(0.8)
        u = sample_dataset(law, _truth(), N_MC, 101).u
        u2 = u**2
        se = u2.std(ddof=1) / math.sqrt(N_MC)
        assert abs(u2.mean() - 1.0) < 3 * se

    @pytest.mark.parametrize("sigma_w", [0.3, 0.5, 0.8, 0.95, 1.0])
    def test_standardisation_across_laws(self, sigma_w):
        law = make_covariate_law(sigma_w)
        u = sample_dataset(law, _truth(), N_MC, 7).u
        se_mean = u.std(ddof=1) / math.sqrt(N_MC)
        se_second = (u**2).std(ddof=1) / math.sqrt(N_MC)
        assert abs(u.mean()) < 3 * se_mean
        assert abs((u**2).mean() - 1.0) < 3 * se_second

    def test_fourth_moment_analytic(self):
        law = make_covariate_law(0.8)
        u = sample_dataset(law, _truth(), N_MC, 5).u
        u4 = u**4
        se = u4.std(ddof=1) / math.sqrt(N_MC)
        assert abs(u4.mean() - law.fourth_moment_u) < 4 * se

    def test_abs_cond_mean_analytic(self):
        # E|a cos(2 pi V)| = 2 a / pi
        law = make_covariate_law(0.6)
        v = np.linspace(0.0, 1.0, 200_001)
        quad = np.trapezoid(np.abs(law.cond_mean(v)), v)
        assert quad == pytest.approx(2.0 * law.cond_mean_amplitude / math.pi, abs=1e-6)


class TestModelPoint:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_theta_rejected(self, bad):
        # was accepted; the simulator then failed with "y entries must be finite"
        with pytest.raises(ValueError, match=f"^theta must be finite, got {bad}$"):
            ModelPoint(theta=bad, eta=NuisanceFunction(np.zeros(5)))


class TestSampleDataset:
    def test_empty(self):
        law = make_covariate_law(0.8)
        ds = sample_dataset(law, _truth(), 0, 1)
        assert ds.n == 0
        assert ds.e is not None and ds.e.size == 0
        assert ds.w is not None and ds.w.size == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            sample_dataset(make_covariate_law(0.8), _truth(), -1, 1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    def test_non_integer_n_rejected(self, n):
        # numpy's empty() used to raise a TypeError, or truncate
        with pytest.raises(ValueError, match="^n must be an integer"):
            sample_datasets(make_covariate_law(0.8), _truth(), n, [1])

    def test_seed_determinism(self):
        law = make_covariate_law(0.8)
        a = sample_dataset(law, _truth(), 500, 42)
        b = sample_dataset(law, _truth(), 500, 42)
        for name in ("u", "v", "y", "e", "w"):
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

    @pytest.mark.parametrize("name", ["u", "v", "y", "e", "w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entries_rejected(self, name, bad):
        fields = {key: np.full(3, 0.5) for key in ("u", "v", "y", "e", "w")}
        fields[name][1] = bad
        with pytest.raises(ValueError, match=f"{name} entries must be finite"):
            Dataset(**fields)

    @pytest.mark.parametrize("name", ["u", "v", "y", "e", "w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stack_nonfinite_entries_rejected(self, name, bad):
        fields = {key: np.full((2, 3), 0.5) for key in ("u", "v", "y", "e", "w")}
        fields[name][1, 2] = bad
        with pytest.raises(ValueError, match=f"{name} entries must be finite"):
            Dataset(**fields)

    @pytest.mark.parametrize("given", ["e", "w"])
    def test_provenance_comes_in_pairs(self, given):
        fields = {key: np.full(3, 0.5) for key in ("u", "v", "y", given)}
        with pytest.raises(ValueError, match="e and w must be given together"):
            Dataset(**fields)

    @pytest.mark.parametrize("name", ["e", "w"])
    @pytest.mark.parametrize("shape", [(4,), (1, 3)])
    def test_provenance_shape_checked(self, name, shape):
        fields = {key: np.full(3, 0.5) for key in ("u", "v", "y", "e", "w")}
        fields[name] = np.full(shape, 0.5)
        with pytest.raises(ValueError, match="e and w must match the shape"):
            Dataset(**fields)

    @pytest.mark.parametrize("name", ["u", "v", "y"])
    @pytest.mark.parametrize("shape", [(2, 4), (3, 3), (6,)])
    def test_stack_of_unequal_shapes_rejected(self, name, shape):
        fields = {key: np.full((2, 3), 0.5) for key in ("u", "v", "y")}
        fields[name] = np.full(shape, 0.5)
        with pytest.raises(ValueError, match="u, v, y must be arrays of one shape"):
            Dataset(**fields)

    def test_scalar_fields_rejected(self):
        with pytest.raises(ValueError, match="u, v, y must be arrays of one shape"):
            Dataset(u=0.5, v=0.5, y=0.5)

    def test_stack_rows_carry_their_provenance(self):
        rng = np.random.default_rng(19)
        fields = {key: rng.uniform(0.0, 1.0, (3, 5)) for key in ("u", "v", "y", "e", "w")}
        stack = Dataset(**fields)
        assert stack.n == 5
        for row in range(3):
            ds = stack[row]
            assert ds.n == 5 and ds.u.shape == (5,)
            for name, values in fields.items():
                assert np.array_equal(getattr(ds, name), values[row]), name
        one = stack[1][None]
        assert one.n == 5
        for name, values in fields.items():
            assert np.array_equal(getattr(one, name), values[1:2]), name
        bare = Dataset(u=fields["u"], v=fields["v"], y=fields["y"])[2]
        assert bare.e is None and bare.w is None
        assert np.array_equal(bare.v, fields["v"][2])

    @pytest.mark.parametrize("n", [0, 1, 7, 800])
    def test_rows_follow_the_seed_contract(self, n):
        # reference: default_rng(seed) draws uniform(0, 1, n), then n normals
        # z and n noises e; w = sigma_w z, u = m(v) + w and y = theta u + eta(v) + e
        law, truth = make_covariate_law(0.6), _truth(grid_size=23, theta=-1.3)
        seeds = [0, 1, 2**64 - 1, 1]  # a repeated seed repeats its row
        data = sample_datasets(law, truth, n, seeds)
        for row, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            v = rng.uniform(0.0, 1.0, n)
            z = rng.standard_normal(n)
            e = rng.standard_normal(n)
            u = law.cond_mean(v) + law.residual_sd * z
            y = truth.theta * u + truth.eta(v) + e
            alone = sample_dataset(law, truth, n, seed)
            for name, reference in (("u", u), ("v", v), ("y", y), ("e", e), ("w", law.residual_sd * z)):
                assert np.array_equal(getattr(data, name)[row], reference), name
                assert np.array_equal(getattr(data[row], name), reference), name
                assert np.array_equal(getattr(alone, name), reference), name

    def test_overflowing_y_rejected_without_a_warning(self):
        # theta u overflows for |u| > 1.8; warnings are errors in this suite
        with pytest.raises(ValueError, match="y entries must be finite"):
            sample_datasets(make_covariate_law(0.8), _truth(theta=1e308), 50, [1, 2])


class TestCheckInteger:
    """The one rule for a count, size or seed: an integer in a range."""

    def test_bounds_are_inclusive(self):
        assert _check_integer("x", 3, 3, 5) == 3
        assert _check_integer("x", 5, 3, 5) == 5
        assert _check_integer("x", 0, 0) == 0
        for value in (2, 6):
            with pytest.raises(ValueError, match=rf"^x must lie in \[3, 5\], got {value}$"):
                _check_integer("x", value, 3, 5)

    def test_open_ends(self):
        assert _check_integer("x", -(10**30), None, None) == -(10**30)
        assert _check_integer("x", 10**30, 1) == 10**30
        assert _check_integer("x", 10**30, 1, None) == 10**30

    def test_numpy_integers_are_accepted_as_ints(self):
        for value in (np.int64(-7), np.uint8(7), np.uint64(_MASK64)):
            out = _check_integer("x", value, -7, _MASK64)
            assert type(out) is int and out == int(value)

    @pytest.mark.parametrize("value", [2.0, "3", None, np.float64(1.0)])
    def test_non_integers_are_rejected(self, value):
        # also where the range check alone would pass or fail otherwise
        message = f"x must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _check_integer("x", value, 0)

    def test_one_wording_per_failure(self):
        cases = [
            (("n", 0, 1), "n must be >= 1, got 0"),
            (("n", -1, 0), "n must be >= 0, got -1"),
            (("seed", -1, 0, _MASK64), "seed must lie in [0, 18446744073709551615], got -1"),
            (("seed", 2**64, 0, _MASK64), "seed must lie in [0, 18446744073709551615], got 18446744073709551616"),
            (("seeds", 2.5, 1), "seeds must be an integer, got 2.5"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError) as info:
                _check_integer(*args)
            assert str(info.value) == message

    def test_the_rule_has_one_home(self):
        # no call's result is compared by hand, _check_order stays gone, and
        # operator.index is called in model._check_integer alone
        for path in sorted(pathlib.Path(semibvm.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            homes = [
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_check_integer"
            ]
            assert homes == [] or path.name == "model.py"
            inside = [node for home in homes for node in ast.walk(home) if _is_operator_index(node)]
            assert [node for node in ast.walk(tree) if _is_operator_index(node)] == inside, path.name
            for node in ast.walk(tree):
                where = f"{path.name}:{getattr(node, 'lineno', '?')}"
                if isinstance(node, ast.Compare):
                    for operand in (node.left, *node.comparators):
                        assert not (
                            isinstance(operand, ast.Call) and _called_name(operand) == "_check_integer"
                        ), f"{where} compares a _check_integer result"
                for field in ("id", "attr", "name", "asname"):
                    assert getattr(node, field, None) != "_check_order", where


class TestCheckReal:
    """The one rule for a real input: a finite float within bounds."""

    def test_returns_the_float(self):
        for value in (0.25, 3, np.float64(-1.5), np.float32(0.5), np.int64(7), 10**300):
            out = _check_real("x", value)
            assert type(out) is float and out == float(value)

    def test_ends_are_inclusive_or_exclusive_as_given(self):
        assert _check_real("x", 0.0, ge=0, le=1) == 0.0
        assert _check_real("x", 1.0, ge=0, le=1) == 1.0
        assert _check_real("x", 1e-300, gt=0) == 1e-300
        assert _check_real("x", -1e300, lt=0) == -1e300
        cases = [
            ({"gt": 0}, 0.0, "x must be > 0, got 0.0"),
            ({"ge": 0}, -1e-300, "x must be >= 0, got -1e-300"),
            ({"lt": 1}, 1.0, "x must be < 1, got 1.0"),
            ({"le": 0}, 0.5, "x must be <= 0, got 0.5"),
            ({"gt": 0, "lt": 1}, 1.0, "x must lie in (0, 1), got 1.0"),
            ({"gt": 0, "le": 1}, 0.0, "x must lie in (0, 1], got 0.0"),
            ({"ge": 0, "le": 1}, 1.5, "x must lie in [0, 1], got 1.5"),
            ({"ge": 0.5, "lt": 2}, 0.25, "x must lie in [0.5, 2), got 0.25"),
        ]
        for bounds, value, message in cases:
            with pytest.raises(ValueError) as info:
                _check_real("x", value, **bounds)
            assert str(info.value) == message

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan"), 10**400])
    def test_nonfinite_values_are_rejected_before_the_bounds(self, value):
        for bounds in ({}, {"gt": 0}, {"ge": 0, "le": 1}):
            with pytest.raises(ValueError, match=f"^x must be finite, got {re.escape(str(value))}$"):
                _check_real("x", value, **bounds)

    @pytest.mark.parametrize("value", ["0.5", None, [0.5], 1j])
    def test_non_reals_are_rejected(self, value):
        message = f"x must be a real number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _check_real("x", value)

    # every scalar real input checked by the rule, by module and by the
    # function or class that takes it
    CHECKED = {
        "model.py": {"CovariateLaw": {"residual_sd"}, "ModelPoint": {"theta"}},
        "gp_prior.py": {
            "GpPriorSpec": {"scale"},
            "kibm_kernel": {"s", "t"},
            "holder_seminorm": {"alpha"},
            "sample_prior_path": {"alpha", "bound"},
        },
        "posterior.py": {
            "MarginalThetaPosterior": {"mean", "variance"},
            "credible_bounds": {"level"},
            "posterior_mass_h_ball": {"M_n", "theta0"},
            "conditional_nuisance_mass": {"rho", "theta_fixed"},
        },
        "asymptotics.py": {
            "BvmDiagnostics": {"tv_gap", "localized_post_var"},
            "LanCoefficients": {"quadratic"},
            "tv_normals": {"m1", "v1", "m2", "v2"},
            "bvm_gap": {"delta", "info", "theta0"},
            "least_favorable_eta": {"theta"},
            "lan_remainder": {"h"},
            "integral_lan_coefficients": {"theta0"},
        },
        "experiments.py": {
            "ExperimentConfig": {"level", "theta0", "eta0_amplitude"},
            "run_parametric_baseline": {"theta0"},
        },
    }

    def test_the_rule_has_one_home(self):
        # math.isfinite is called in model._check_real alone, each input
        # above goes through a call of it, and no such input is compared
        # with a number by hand in the function or class that takes it
        for path in sorted(pathlib.Path(semibvm.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            scopes = {
                node.name: node
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            }
            home = [scopes["_check_real"]] if path.name == "model.py" else []
            inside = [node for scope in home for node in ast.walk(scope) if _is_math_isfinite(node)]
            assert [node for node in ast.walk(tree) if _is_math_isfinite(node)] == inside, path.name
            assert inside or path.name != "model.py"
            for name, inputs in self.CHECKED.get(path.name, {}).items():
                calls = [
                    node
                    for node in ast.walk(scopes[name])
                    if isinstance(node, ast.Call) and _called_name(node) == "_check_real"
                ]
                assert {call.args[0].value for call in calls} == inputs, f"{path.name}:{name}"
                for node in ast.walk(scopes[name]):
                    if isinstance(node, ast.Compare):
                        operands = [node.left, *node.comparators]
                        assert not (
                            any(isinstance(op, ast.Constant) for op in operands)
                            and any(_bare_name(op) in inputs for op in operands)
                        ), f"{path.name}:{node.lineno} compares {inputs} by hand"


def _bare_name(node: ast.AST) -> str | None:
    """x or obj.x as the name x; None for any other expression."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _is_math_isfinite(node: ast.AST) -> bool:
    """math.isfinite(...), or isfinite(...) as `from math import isfinite` binds it."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "isfinite" and isinstance(func.value, ast.Name) and func.value.id == "math"
    return isinstance(func, ast.Name) and func.id == "isfinite"


def _called_name(call: ast.Call) -> str | None:
    """The name a call's function is looked up by: f(...) or obj.f(...)."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_operator_index(node: ast.AST) -> bool:
    """operator.index(...), or index(...) as `from operator import index` binds it."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "index" and isinstance(func.value, ast.Name) and func.value.id == "operator"
    return isinstance(func, ast.Name) and func.id == "index"


class TestGeneratorStates:
    """_pcg64_states against numpy's own seeding, and the re-stated generator."""

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    @staticmethod
    def _reference(seed):
        state = np.random.default_rng(seed).bit_generator.state
        assert state["has_uint32"] == 0 and state["uinteger"] == 0
        return state["state"]["state"], state["state"]["inc"]

    def test_states_equal_default_rng_on_edge_and_random_seeds(self):
        # every 32-bit word boundary, and 2000 seeds over the whole 64-bit
        # range; warnings are errors in this suite, so no operand promotes
        # or overflows with a warning under either numpy's rules
        random = np.random.default_rng(20261020).integers(0, 2**64, 2000, dtype=np.uint64, endpoint=False)
        small = [int(x) >> 32 for x in random[:200]]  # one-word seeds
        seeds = self.EDGE_SEEDS + [int(x) for x in random] + small
        assert _pcg64_states(seeds) == [self._reference(seed) for seed in seeds]

    def test_a_seed_does_not_depend_on_its_batch(self):
        seeds = self.EDGE_SEEDS[::-1] + [7, 7]
        states = _pcg64_states(seeds)
        assert states == [_pcg64_states([seed])[0] for seed in seeds]
        assert _pcg64_states(np.array(seeds, dtype=np.uint64)) == states
        assert _pcg64_states([]) == []

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seeds_outside_64_bits_are_rejected(self, seed):
        message = rf"seed must lie in \[0, 18446744073709551615\], got {seed}"
        with pytest.raises(ValueError, match=message):
            _pcg64_states([3, seed])
        with pytest.raises(ValueError, match=message):
            sample_dataset(make_covariate_law(0.8), _truth(), 5, seed)

    def test_non_integer_seed_is_rejected(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            _pcg64_states([1.0])

    def test_restated_generator_draws_the_bits_of_a_fresh_one(self):
        # one generator re-stated row after row, each row left mid-stream
        # and with a cached half word (a uint32 draw), gives every draw a
        # fresh default_rng(seed) gives
        seeds = [5, 2**64 - 1, 0, 5, 123456789012345]
        rng = np.random.default_rng(99)
        for seed, (state, inc) in zip(seeds, _pcg64_states(seeds)):
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            fresh = np.random.default_rng(seed)
            assert rng.bit_generator.state == fresh.bit_generator.state
            assert np.array_equal(rng.random(7), fresh.random(7))
            assert np.array_equal(rng.standard_normal(9), fresh.standard_normal(9))
            assert rng.integers(0, 2**32, dtype=np.uint32) == fresh.integers(0, 2**32, dtype=np.uint32)
            assert rng.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("n", [0, 1, 33])
    def test_draws_restate_per_row_or_continue_one_stream(self, n):
        law, seeds = make_covariate_law(0.7), [11, 12, 11]
        restated = _draws(law, np.random.default_rng(0), n, 3, _pcg64_states(seeds))
        continued = _draws(law, np.random.default_rng(11), n, 2)
        stream = np.random.default_rng(11)
        for row, seed in enumerate(seeds):
            fresh = np.random.default_rng(seed)
            v = fresh.random(n)
            z = fresh.standard_normal(n)
            e = fresh.standard_normal(n)
            for got, want in zip(restated, (law.cond_mean(v) + 0.7 * z, v, 0.7 * z, e)):
                assert np.array_equal(got[row], want)
        for row in range(2):
            v = stream.random(n)
            z = stream.standard_normal(n)
            e = stream.standard_normal(n)
            for got, want in zip(continued, (law.cond_mean(v) + 0.7 * z, v, 0.7 * z, e)):
                assert np.array_equal(got[row], want)


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
        truth = ModelPoint(theta=0.0, eta=NuisanceFunction(np.zeros(5)))
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
    def test_analytic_value(self):
        assert make_covariate_law(0.8).efficient_info == pytest.approx(0.64)

    def test_monte_carlo_agreement(self):
        law = make_covariate_law(0.8)
        ds = sample_dataset(law, _truth(), N_MC, 31)
        u, v = ds.u, ds.v
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

    def test_empirical_information_reads_the_drawn_w(self):
        # u = m(v) + sigma_w z rounds to m(v) at sigma_w = 1e-100, so the
        # mean of (u - m(v))^2 read 0.0; the drawn w keeps it
        sigma_w = 1e-100
        law = make_covariate_law(sigma_w)
        ds = sample_dataset(law, _truth(), 200, 10070179)
        rng = np.random.default_rng(10070179)
        rng.uniform(0.0, 1.0, 200)
        reference = float(np.mean((sigma_w * rng.standard_normal(200)) ** 2))
        assert reference > 1e-201
        assert empirical_information(ds, law) == pytest.approx(reference, rel=1e-12, abs=0.0)
        # without the provenance it falls back on u - m(v)
        bare = Dataset(u=ds.u, v=ds.v, y=ds.y)
        assert empirical_information(bare, law) == float(np.mean((ds.u - law.cond_mean(ds.v)) ** 2))

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

    @pytest.mark.parametrize(
        "size, message",
        [(2.5, "grid_size must be an integer, got 2.5"), (1, "grid_size must be >= 2, got 1")],
    )
    def test_from_callable_checks_its_size_first(self, size, message):
        # the size goes through _check_integer before any grid is built
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NuisanceFunction.from_callable(math.sin, size)


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

    @pytest.mark.parametrize(
        "size, message",
        [(2.5, "grid_size must be an integer, got 2.5"), (1, "grid_size must be >= 2, got 1")],
    )
    def test_size_is_checked_first(self, size, message):
        # 2.5 raised numpy's TypeError from np.eye
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            interpolation_weights(np.array([0.5]), size)


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
