"""Harness tests: seed derivation, reports, scans, coverage, baseline."""

import dataclasses
import inspect
import json
import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semibvm import asymptotics, experiments, model, posterior
from semibvm.asymptotics import bvm_gap, delta_n, estimate_un_per_zeta
from semibvm.experiments import (
    ExperimentConfig,
    RunReport,
    _bvm_cell,
    _cell_seeds,
    _coverage_cell,
    cell_seed,
    covariance_to_csv,
    dataset_to_csv,
    run_bvm_scan,
    run_coverage,
    run_diagnostics_suite,
    run_parametric_baseline,
    run_posterior_snapshot,
    splitmix64,
)
from semibvm.gp_prior import GpPriorSpec, prior_covariance, sample_prior_path
from semibvm.model import CovariateLaw, ModelPoint, _pcg64_states, sample_dataset
from semibvm.posterior import (
    conditional_nuisance_mass,
    credible_interval,
    gibbs_chain,
    theta_posterior,
)

SMALL = ExperimentConfig(n_ladder=(30, 60), seeds=4, grid_size=15, master_seed=7)
_LAW, _TRUTH, _SPEC = SMALL.law, SMALL.truth, SMALL.spec
_DS = sample_dataset(_LAW, _TRUTH, 30, 1)

# every public function that draws from a seed of its own: name -> (a
# small call at `seed`, the default_rng arguments it seeds with);
# run_diagnostics_suite's 0 is the generator its dataset re-states
_SEEDED = {
    "gibbs_chain": (lambda seed: gibbs_chain(_DS, _SPEC, 10.0, 3, 1, seed), lambda s: [s]),
    "conditional_nuisance_mass": (
        lambda seed: conditional_nuisance_mass(_DS, _SPEC, 1.0, _TRUTH, _LAW, 0.1, 3, seed),
        lambda s: [s],
    ),
    "sample_prior_path": (lambda seed: sample_prior_path(_SPEC, seed), lambda s: [s]),
    "run_parametric_baseline": (lambda seed: run_parametric_baseline(5, 1.0, 10.0, seed), lambda s: [s]),
    "estimate_un_per_zeta": (
        lambda seed: estimate_un_per_zeta(_LAW, 2, 5, 3, seed),
        lambda s: [[s, 0], [s, 1]],
    ),
    "run_diagnostics_suite": (
        lambda seed: run_diagnostics_suite(SMALL, 5, seed, un_reps=3),
        lambda s: [[s, 0], [s, 1], 0],
    ),
}


def _one_cell(cfg, n, rep):
    """The chunk of the one cell (n, rep), seeded on its own."""
    seeds = _cell_seeds(cfg.master_seed, n, range(rep, rep + 1))
    return cfg, n, range(rep, rep + 1), seeds, _pcg64_states(seeds)


class TestSeedDerivation:
    def test_splitmix_reference_values(self):
        # reference stream from the published splitmix64 algorithm,
        # seed 1234567: successive outputs of the state increments
        assert splitmix64(1234567) == 6457827717110365317
        assert splitmix64(0) == 16294208416658607535

    def test_cell_seed_is_64_bit_and_stable(self):
        s = cell_seed(7, 50, 3)
        assert 0 <= s < 2**64
        assert s == cell_seed(7, 50, 3)

    def test_cells_distinct(self):
        seeds = {cell_seed(0, n, r) for n in (50, 200, 800) for r in range(100)}
        assert len(seeds) == 300

    def test_master_seed_moves_all_cells(self):
        assert cell_seed(0, 50, 0) != cell_seed(1, 50, 0)

    @pytest.mark.parametrize("master", [0, 1, -1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 50, 2**63])
    def test_chunk_seeds_equal_cell_seed(self, master, n):
        # the shared (master, n) prefix folds each rep as cell_seed does,
        # masked to 64 bits for negative and oversized words
        seeds = _cell_seeds(master, n, range(1000))
        assert seeds == [cell_seed(master, n, rep) for rep in range(1000)]
        assert all(type(seed) is int for seed in seeds)
        assert _cell_seeds(master, n, range(997, 1000)) == seeds[997:]


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.n_ladder == (50, 200, 800)
        assert cfg.seeds == 100

    def test_ladder_must_increase(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_ladder=(100, 100))
        with pytest.raises(ValueError):
            ExperimentConfig(n_ladder=(200, 100))
        with pytest.raises(ValueError):
            ExperimentConfig(n_ladder=())

    def test_non_integer_ladder_entry_is_rejected(self):
        with pytest.raises(ValueError, match="n_ladder entry must be an integer, got 50.7"):
            ExperimentConfig(n_ladder=(50.7,))

    def test_non_integer_seeds_are_rejected(self):
        with pytest.raises(ValueError, match="seeds must be an integer, got 2.5"):
            ExperimentConfig(seeds=2.5)

    @pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
    def test_master_seed_outside_64_bits_is_rejected(self, seed):
        # cell_seed masks its words, so 5 + 2^64 drew the rows of 5 and -1
        # those of 2^64 - 1, while each report echoed the seed it was given
        with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 18446744073709551615\], got "):
            ExperimentConfig(master_seed=seed)

    def test_master_seed_range_ends_are_accepted(self):
        for seed in (0, 2**64 - 1):
            assert ExperimentConfig(master_seed=seed).master_seed == seed

    def test_non_integer_master_seed_is_rejected(self):
        with pytest.raises(ValueError, match="master_seed must be an integer, got 2.5"):
            ExperimentConfig(master_seed=2.5)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(level=1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(eta0_family="wavelet")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", -1),
            ("sigma_w", 2.0),
            ("sigma_w", 0.0),
            ("grid_size", 1),
            ("scale", -1.0),
            ("theta_prior_var", 0.0),
            ("theta_prior_var", -3.0),
            ("theta0", math.nan),
            ("theta0", math.inf),
            ("scale", math.inf),
            ("scale", 1e200),  # its square overflows
            ("scale", 1e-200),  # its square underflows: the zero prior
            ("sigma_w", math.nan),
            ("sigma_w", 1e-160),  # 1/sigma_w^2 overflows
            ("sigma_w", 1e-300),  # sigma_w^2 underflows to 0
            ("theta_prior_var", 1e-320),  # 1/theta_prior_var overflows
        ],
    )
    def test_bad_model_field_rejected_up_front(self, field, value):
        # rejected when the config is built, before any cell runs
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_eta0_amplitude_is_named(self, bad):
        # was blamed on the nuisance ("values must be finite"), after
        # numpy's RuntimeWarning for inf
        with pytest.raises(ValueError, match=f"^eta0_amplitude must be finite, got {bad}$"):
            ExperimentConfig(eta0_amplitude=bad)

    def test_flat_theta_prior_accepted(self):
        assert ExperimentConfig(theta_prior_var=math.inf).theta_prior_var == math.inf

    def test_eta0_families(self):
        for family, value_at_quarter in (
            ("sine", 0.5),
            ("cosine", 0.0),
            ("constant", 0.5),
            ("zero", 0.0),
        ):
            cfg = ExperimentConfig(eta0_family=family, eta0_amplitude=0.5, grid_size=41)
            assert cfg.truth.eta(0.25) == pytest.approx(value_at_quarter, abs=1e-12)


class TestConfigModelObjects:
    """A config builds its covariate law, truth and prior spec once, when
    it is built, and carries them as read-only attributes, not fields."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda cfg: run_bvm_scan(cfg),
            lambda cfg: run_coverage(cfg, 3),
            lambda cfg: run_posterior_snapshot(cfg, 30, 1),
        ],
        ids=["bvm_scan", "coverage", "posterior_snapshot"],
    )
    def test_a_config_and_its_run_build_each_object_once(self, run, monkeypatch):
        built = []
        for cls in (CovariateLaw, GpPriorSpec, ModelPoint):
            def counted(self, check=cls.__post_init__):
                built.append(type(self).__name__)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        cfg = ExperimentConfig(n_ladder=(30, 60), seeds=2, grid_size=15)
        assert sorted(built) == ["CovariateLaw", "GpPriorSpec", "ModelPoint"]
        run(cfg)
        assert sorted(built) == ["CovariateLaw", "GpPriorSpec", "ModelPoint"]

    def test_replace_builds_the_objects_of_the_new_values(self):
        cfg = ExperimentConfig()
        new = dataclasses.replace(cfg, k=3, sigma_w=0.5, grid_size=20, theta0=-1.0)
        assert new.spec.k == 3
        assert new.spec == GpPriorSpec(k=3, grid_size=20, scale=cfg.scale)
        assert new.law.residual_sd == 0.5
        assert (new.truth.theta, new.truth.eta.values.size) == (-1.0, 20)
        assert (cfg.spec.k, cfg.law.residual_sd, cfg.truth.theta) == (1, 0.8, 1.0)

    def test_equality_and_hash_read_the_twelve_fields_alone(self):
        a, b = ExperimentConfig(), ExperimentConfig()
        # each config builds its own nuisance, which compares by identity
        assert a.truth is not b.truth and a.truth.eta != b.truth.eta
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != dataclasses.replace(a, k=2)
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert len(names) == 12 and not {"law", "spec", "truth"} & set(names)
        assert list(experiments._config_dict(a)) == names

    @pytest.mark.parametrize("name", ["law", "spec", "truth"])
    def test_the_objects_are_read_only(self, name):
        cfg = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(cfg, name)


class TestBvmScan:
    def test_shape_and_ranges(self):
        report = run_bvm_scan(SMALL)
        assert len(report.rows) == 2 * 4
        assert all(0.0 <= row["tv_gap"] <= 1.0 for row in report.rows)
        assert [agg["n"] for agg in report.aggregates] == [30, 60]

    def test_bit_identical_rerun(self):
        a = run_bvm_scan(SMALL)
        b = run_bvm_scan(SMALL)
        assert a.to_json_text() == b.to_json_text()

    def test_single_cell_reproduces_row(self):
        report = run_bvm_scan(SMALL)
        row = report.rows[5]
        again = _bvm_cell(_one_cell(SMALL, row["n"], row["rep"]))
        assert again == [row]

    def test_rows_record_seeds(self):
        report = run_bvm_scan(SMALL)
        for row in report.rows:
            assert row["seed"] == cell_seed(SMALL.master_seed, row["n"], row["rep"])

    @pytest.mark.parametrize("group", [1, 3, 10**6])
    @pytest.mark.parametrize("budget", [1, 700, 10**6])
    def test_report_does_not_depend_on_batch_size(self, budget, group, monkeypatch):
        # budget 1: one replication per batch; 10**6: one batch per n.
        # seeding group 1: every chunk seeded on its own; 10**6: one
        # seeding pass per n
        scan, coverage = run_bvm_scan(SMALL), run_coverage(SMALL, 5)
        monkeypatch.setattr(model, "_BATCH_BUDGET", budget)
        monkeypatch.setattr(experiments, "_SEED_GROUP", group)
        assert run_bvm_scan(SMALL).to_json_text() == scan.to_json_text()
        assert run_coverage(SMALL, 5).to_json_text() == coverage.to_json_text()

    @pytest.mark.parametrize("seeds", [1, 2, 5, 6])
    def test_aggregates_match_numpy_linear_percentiles(self, seeds):
        cfg = ExperimentConfig(n_ladder=(30,), seeds=seeds, grid_size=15, master_seed=7)
        report = run_bvm_scan(cfg)
        (agg,) = report.aggregates
        for key in ("tv_gap", "localized_post_var"):
            values = np.array([row[key] for row in report.rows])
            q1, q3 = np.percentile(values, [25.0, 75.0])
            assert agg[f"median_{key}"] == pytest.approx(np.median(values), rel=1e-15)
            assert agg[f"iqr_{key}"] == pytest.approx(q3 - q1, rel=1e-12, abs=1e-15)

    def test_runs_take_no_jobs_argument(self):
        # replications run as stacked batches in one process; the process
        # pool and its jobs keyword are gone
        assert list(inspect.signature(run_bvm_scan).parameters) == ["cfg"]
        assert list(inspect.signature(run_coverage).parameters) == ["cfg", "replications"]
        with pytest.raises(TypeError):
            run_bvm_scan(SMALL, jobs=2)

    def test_single_n_row_count(self):
        cfg = ExperimentConfig(n_ladder=(50,), seeds=100, grid_size=12)
        report = run_bvm_scan(cfg)
        assert len(report.rows) == 100


class TestBatchedCells:
    """Rows solved in stacked batches against the per-cell reference."""

    def test_single_coverage_cell_reproduces_row(self):
        report = run_coverage(SMALL, 4)
        row = report.rows[6]
        assert _coverage_cell(_one_cell(SMALL, row["n"], row["rep"])) == [row]

    @pytest.mark.parametrize(
        "group, passes",
        [
            # one seeding pass per n; groups of whole chunks of at most 5
            # cells, 3 at n = 10, 4 at n = 20 and 5 at n = 60; a chunk per
            # group, whatever its size
            (1024, [7, 7, 7]),
            (5, [3, 3, 1, 4, 3, 5, 2]),
            (1, [3, 3, 1, 2, 2, 2, 1, *[1] * 7]),
        ],
    )
    def test_batches_cover_every_cell_in_order(self, group, passes, monkeypatch):
        # a chunk takes budget // 2 max(n, m) replications (at least one):
        # 3 at n = 10, where the grid of 15 nodes is the wider row, 2 at
        # n = 20 and 1 at n = 60.  Seeds are folded and seeded once per
        # group of whole chunks of one n, at most `group` cells unless a
        # chunk is larger; each chunk carries its cells' seeds and states
        cfg = ExperimentConfig(n_ladder=(10, 20, 60), grid_size=15, master_seed=5)
        seeded = []

        def states_of(seeds):
            seeded.append(len(seeds))
            return _pcg64_states(seeds)

        monkeypatch.setattr(model, "_BATCH_BUDGET", 100)
        monkeypatch.setattr(experiments, "_SEED_GROUP", group)
        monkeypatch.setattr(experiments, "_pcg64_states", states_of)
        batches = list(experiments._batches(cfg, 7))
        assert seeded == passes
        for _, n, reps, seeds, states in batches:
            assert seeds == [cell_seed(5, n, rep) for rep in reps]
            assert states == _pcg64_states(seeds)
        assert [(n, list(reps)) for _, n, reps, _, _ in batches] == [
            (10, [0, 1, 2]),
            (10, [3, 4, 5]),
            (10, [6]),
            (20, [0, 1]),
            (20, [2, 3]),
            (20, [4, 5]),
            (20, [6]),
            *((60, [rep]) for rep in range(7)),
        ]

    def test_stacks_stay_within_their_budget(self, monkeypatch):
        # no sampled (rows, n) array and no (rows, m) statistic exceeds
        # budget // 2 doubles, also at n = 2 below the grid of 4, and no
        # assembled stack exceeds budget // (r+2)^2 systems; all three
        # bounds are reached, so the sizes are the largest the budget allows
        budget, r = 200, 4
        cfg = ExperimentConfig(n_ladder=(2, 10, 30), grid_size=r, seeds=50, master_seed=3)
        sample, statistics = experiments._sample_rows, posterior._statistics
        assemble = posterior._assemble
        samples, gathered, stacks = [], [], []

        def sampled(*args):
            data = sample(*args)
            samples.append(data.u.size)
            return data

        def statistics_of(data, grid_size):
            stats = statistics(data, grid_size)
            gathered.append(max(a.size for a in stats[:4]))  # diag, off, W'u, W'y
            return stats

        def assembled(stats, factor, prior_precision):
            stacks.append(stats[0].shape[0])
            return assemble(stats, factor, prior_precision)

        reference = run_bvm_scan(cfg).to_json_text(), run_coverage(cfg, 50).to_json_text()
        monkeypatch.setattr(model, "_BATCH_BUDGET", budget)
        monkeypatch.setattr(experiments, "_sample_rows", sampled)
        monkeypatch.setattr(posterior, "_statistics", statistics_of)
        monkeypatch.setattr(posterior, "_assemble", assembled)
        report = run_bvm_scan(cfg), run_coverage(cfg, 50)
        assert tuple(rep.to_json_text() for rep in report) == reference
        assert max(samples) == max(gathered) == budget // 2
        assert max(stacks) == budget // (r + 2) ** 2 == 5
        assert sum(samples) == 2 * 50 * (2 + 10 + 30) and sum(stacks) == 2 * 3 * 50

    def test_one_budget_sizes_every_stage(self, monkeypatch):
        # model._BATCH_BUDGET, patched alone, moves all three stacks: the
        # data chunk (2 max(n, m) doubles a replication: 360 // 24), the
        # posterior sub-stack ((r+2)^2 a system: 360 // 36) and the
        # domination chunk (2n a replication: 360 // 60 at n = 30)
        budget, r = 360, 4
        cfg = ExperimentConfig(n_ladder=(12,), grid_size=r, master_seed=3)
        sample, assemble, draws = experiments._sample_rows, posterior._assemble, asymptotics._draws
        chunks, stacks, drawn = [], [], []

        def sampled(law, truth, n, states):
            chunks.append(len(states))
            return sample(law, truth, n, states)

        def assembled(stats, factor, prior_precision):
            stacks.append(stats[0].shape[0])
            return assemble(stats, factor, prior_precision)

        def recorded(law, rng, n, rows, states=None):
            drawn.append(rows)
            return draws(law, rng, n, rows, states)

        monkeypatch.setattr(experiments, "_sample_rows", sampled)
        monkeypatch.setattr(posterior, "_assemble", assembled)
        monkeypatch.setattr(asymptotics, "_draws", recorded)
        monkeypatch.setattr(model, "_BATCH_BUDGET", budget)
        run_coverage(cfg, 30)
        estimate_un_per_zeta(_LAW, 1, 30, 30, 5)
        assert chunks == [15, 15]
        assert stacks == [10, 5, 10, 5]
        assert drawn == [6] * 5

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(0, 4),
        grid_size=st.integers(2, 80),
        theta_prior_var=st.sampled_from([0.5, 10.0, math.inf]),
        sub=st.integers(1, 3),
        per_chunk=st.integers(2, 3),
        stacks=st.integers(1, 6),
        extra=st.integers(-1, 1),
        free_n=st.none() | st.integers(1, 400),
    )
    @example(k=0, grid_size=2, theta_prior_var=10.0, sub=3, per_chunk=3, stacks=2, extra=1, free_n=None)
    @example(k=1, grid_size=2, theta_prior_var=10.0, sub=1, per_chunk=2, stacks=3, extra=0, free_n=1)
    @example(k=2, grid_size=80, theta_prior_var=math.inf, sub=2, per_chunk=2, stacks=2, extra=1, free_n=1)
    @example(k=3, grid_size=60, theta_prior_var=0.5, sub=1, per_chunk=2, stacks=4, extra=-1, free_n=25)
    def test_rows_equal_per_cell_reference(
        self, k, grid_size, theta_prior_var, sub, per_chunk, stacks, extra, free_n
    ):
        # the budget gives `sub` systems per sub-stack, and the replication
        # count lands one below, on or one above a sub-stack boundary.
        # free_n None: n = ceil((r+2)^2 / (2 per_chunk)) >= m makes a chunk
        # exactly `per_chunk` sub-stacks, so the count also lands inside a
        # chunk or on a chunk boundary.  Otherwise n is drawn freely, down
        # to 1 and below the grid (empty bins), and a chunk holds whatever
        # budget // 2 max(n, m) gives
        systems = (grid_size + 2) ** 2
        if free_n is None:
            n = -(-systems // (2 * per_chunk))
            budget = 2 * n * sub * per_chunk
            assert budget // (2 * max(n, grid_size)) == sub * per_chunk
        else:
            n, budget = free_n, sub * systems
        assert budget // systems == sub
        replications = max(1, sub * stacks + extra)
        cfg = ExperimentConfig(
            k=k,
            grid_size=grid_size,
            n_ladder=(n,),
            seeds=replications,
            theta_prior_var=theta_prior_var,
            master_seed=k * 1000 + n,
        )
        with mock.patch.object(model, "_BATCH_BUDGET", budget):
            scan = run_bvm_scan(cfg).rows
            coverage = run_coverage(cfg, replications).rows
        law, truth, spec = cfg.law, cfg.truth, cfg.spec
        for rep in range(replications):
            seed = cell_seed(cfg.master_seed, n, rep)
            ds = sample_dataset(law, truth, n, seed)
            mp = theta_posterior(ds, spec, theta_prior_var)
            lo, hi = credible_interval(mp, cfg.level)
            diag = bvm_gap(mp, delta_n(ds, law), law.efficient_info, n, cfg.theta0)
            expected = {"rep": rep, "seed": seed, **vars(diag)}
            assert scan[rep].keys() == expected.keys()
            for key, value in expected.items():
                assert scan[rep][key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
            assert coverage[rep]["seed"] == seed
            assert coverage[rep]["lo"] == pytest.approx(lo, rel=1e-12, abs=1e-12)
            assert coverage[rep]["hi"] == pytest.approx(hi, rel=1e-12, abs=1e-12)
            assert coverage[rep]["covered"] == (lo <= cfg.theta0 <= hi)


class TestReportSerialization:
    def test_json_round_trip_exact(self):
        report = run_bvm_scan(SMALL)
        parsed = RunReport(**json.loads(report.to_json_text()))
        assert parsed == report

    def test_write_json(self, tmp_path):
        path = tmp_path / "report.json"
        report = run_bvm_scan(SMALL)
        report.write(str(path), "json")
        parsed = RunReport(**json.loads(path.read_text()))
        assert parsed == report

    def test_write_csv(self, tmp_path):
        path = tmp_path / "report.csv"
        report = run_bvm_scan(SMALL)
        report.write(str(path), "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(report.rows)
        assert lines[0].split(",")[:2] == ["rep", "seed"]

    def test_config_echo_is_every_field(self):
        # the experiment alone: its twelve fields, the ladder as a list
        cfg = ExperimentConfig(n_ladder=(30,), seeds=2, grid_size=12)
        echo = {**dataclasses.asdict(cfg), "n_ladder": [30]}
        assert len(echo) == 12
        assert run_bvm_scan(cfg).config == echo
        assert run_coverage(cfg, replications=2).config == echo


class TestJsonText:
    """_json_text, the one JSON writer, is json.dumps(indent=2) byte for byte."""

    @staticmethod
    def _payload(report):
        return {
            "kind": report.kind,
            "config": report.config,
            "rows": report.rows,
            "aggregates": report.aggregates,
        }

    @pytest.mark.parametrize(
        "cfg", [SMALL, ExperimentConfig(theta_prior_var=math.inf, sigma_w=1e-100, seeds=5)]
    )
    def test_scan_and_coverage_reports(self, cfg):
        for report in (run_bvm_scan(cfg), run_coverage(cfg, 6)):
            assert report.to_json_text() == json.dumps(self._payload(report), indent=2)

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [{"a": math.nan, "b": math.inf, "c": -math.inf, "d": -0.0}],
            [{"t": True, "f": False, "none": None, "big": 2**64 - 1, "neg": -(2**70)}] * 3,
            [{"q": 'say "hi"', "b": "back\\slash", "nl": "two\nlines", "u": "\u00e9\u4e2d\U0001f600"}],
            [{"end": "}", "x": 1}, {"end": "},", "x": 2}, {"y": ",\n      "}],
            [{"s": "{brace"}, {"s": "[bracket"}],
            [{"a": 1}, {"list": [1, 2.5, "x"]}],
            [{"a": 1}, {"nested": {"b": [{"c": 2}]}}],
            [{"tuple": (1, 2)}, {"empty": []}, {"empty": {}}],
            [{"a": 1}, {}],
            [{1: "int key", 2.5: "float key", None: "null key", True: "bool key"}],
            [1, "two", [3]],
            [{"a": 1}, 2],
        ],
    )
    def test_rows_of_every_kind(self, rows):
        # NaN, infinities, bools, wide ints, strings needing escapes and
        # strings holding the separator or a brace; lists, dicts and
        # tuples in a row, empty rows and non-dict rows take indent=2
        payload = {"kind": "k", "config": {"n_ladder": [1, 2], "x": None}, "rows": rows, "aggregates": rows[:1]}
        report = RunReport(**payload)
        assert report.to_json_text() == json.dumps(payload, indent=2)
        assert experiments._json_text(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize(
        "payload",
        [{}, [], [{"a": 1}], {1: [{"a": 1}]}, {"k": []}, {"k": {}}, {"k": [{"a": 1}], "v": 3.5}, 7, "s"],
    )
    def test_any_payload(self, payload):
        assert experiments._json_text(payload) == json.dumps(payload, indent=2)

    def test_flat_rows_skip_the_python_encoder(self):
        # indent=2 encodes in pure Python; the rows and aggregates of a
        # report go to the C encoder, only the kind and the config do not
        report = run_coverage(SMALL, 4)
        with mock.patch.object(experiments.json, "dumps", wraps=json.dumps) as dumps:
            report.to_json_text()
        indented = [call.args[0] for call in dumps.call_args_list if "indent" in call.kwargs]
        assert indented == ["coverage", report.config]

    def test_unserialisable_rows_raise_as_json_does(self):
        for rows in ([{"a": {1, 2}}], [{"a": np.float32(1.0)}]):
            with pytest.raises(TypeError):
                json.dumps(rows, indent=2)
            with pytest.raises(TypeError):
                experiments._json_text({"rows": rows})


class TestCoverage:
    def test_basic_properties(self):
        cfg = ExperimentConfig(n_ladder=(60,), grid_size=15, master_seed=3)
        report = run_coverage(cfg, replications=60)
        agg = report.aggregates[0]
        assert agg["replications"] == 60
        assert 0.0 <= agg["coverage"] <= 1.0
        assert len(report.rows) == 60

    def test_deterministic(self):
        cfg = ExperimentConfig(n_ladder=(40,), grid_size=12, master_seed=5)
        a = run_coverage(cfg, replications=30)
        b = run_coverage(cfg, replications=30)
        assert a.to_json_text() == b.to_json_text()

    def test_extreme_level_approaches_one(self):
        # level 0.999 at n = 500: coverage >= 0.99
        cfg = ExperimentConfig(n_ladder=(500,), level=0.999, master_seed=11)
        report = run_coverage(cfg, replications=300)
        assert report.aggregates[0]["coverage"] >= 0.99

    def test_replication_validation(self):
        with pytest.raises(ValueError):
            run_coverage(SMALL, replications=0)

    def test_non_integer_replications_are_rejected(self):
        with pytest.raises(ValueError, match="replications must be an integer, got 2.5"):
            run_coverage(SMALL, 2.5)


class TestParametricBaseline:
    def test_flat_prior_gap_is_zero(self):
        diag = run_parametric_baseline(100, 0.7, math.inf, seed=1)
        assert diag.tv_gap == 0.0
        assert diag.localized_post_var == pytest.approx(1.0, abs=1e-12)

    def test_large_n_informative_prior_gap_small(self):
        diag = run_parametric_baseline(1000, 1.0, 100.0, seed=2)
        assert diag.tv_gap < 0.01

    def test_median_gap_decreasing(self):
        medians = []
        for n in (10, 100, 1000):
            gaps = [
                run_parametric_baseline(n, 1.0, 100.0, seed=cell_seed(2, n, r)).tv_gap
                for r in range(50)
            ]
            medians.append(float(np.median(gaps)))
        assert medians[0] >= medians[1] >= medians[2]
        assert medians[0] > medians[2]

    def test_closed_form_posterior(self):
        # recompute the gap from the textbook posterior directly
        from semibvm.asymptotics import tv_normals

        n, theta0, tau2, seed = 200, 0.5, 4.0, 9
        rng = np.random.default_rng(seed)
        xbar = float(np.mean(theta0 + rng.standard_normal(n)))
        post_mean = n * xbar * tau2 / (n * tau2 + 1.0)
        post_var = tau2 / (n * tau2 + 1.0)
        expected = tv_normals(post_mean, post_var, xbar, 1.0 / n)
        diag = run_parametric_baseline(n, theta0, tau2, seed)
        assert diag.tv_gap == pytest.approx(expected, abs=1e-9)

    def test_huge_prior_variance_does_not_overflow(self):
        # post_var = 1 / (n + 1/tau^2): n tau^2 overflowed at tau^2 = 1e308
        flat = run_parametric_baseline(10, 1.0, math.inf, seed=4)
        for tau2 in (1e300, 1e308, 1.7e308):
            diag = run_parametric_baseline(10, 1.0, tau2, seed=4)
            assert diag.localized_post_var == pytest.approx(1.0, rel=1e-15)
            assert diag.tv_gap <= 1e-14
            assert diag.localized_post_mean == pytest.approx(flat.localized_post_mean, abs=1e-14)

    def test_tiny_prior_variance_gap_near_one(self):
        # the posterior collapses on 0 while the limit sits near xbar = 1
        assert run_parametric_baseline(1000, 1.0, 1e-30, seed=2).tv_gap > 0.999
        assert run_parametric_baseline(5, 1.0, 1e-300, seed=1).tv_gap == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_parametric_baseline(0, 0.0, 1.0, 1)
        # numpy raised "expected a sequence of integers or a single integer"
        with pytest.raises(ValueError, match="^n must be an integer, got 2.5"):
            run_parametric_baseline(2.5, 1.0, 100.0, 1)
        # 1/prior_var overflows to a zero posterior variance, which the gap
        # rejected as "variance must be strictly positive", naming no field
        with pytest.raises(ValueError, match="prior_var"):
            run_parametric_baseline(5, 1.0, 1e-310, seed=1)
        with pytest.raises(ValueError):
            run_parametric_baseline(10, 0.0, 0.0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_theta0_is_named(self, bad):
        # was blamed on tv_gap
        with pytest.raises(ValueError, match=f"^theta0 must be finite, got {bad}$"):
            run_parametric_baseline(10, bad, 1.0, 1)


class TestSnapshotsAndSuite:
    def test_posterior_snapshot_fields(self):
        snap = run_posterior_snapshot(SMALL, n=40, seed=3)
        for key in (
            "theta_mean",
            "theta_variance",
            "interval_lo",
            "interval_hi",
            "tv_gap",
            "delta_n",
            "localized_post_var",
        ):
            assert key in snap
        assert snap["interval_lo"] < snap["theta_mean"] < snap["interval_hi"]

    def test_diagnostics_suite_fields_and_determinism(self):
        a = run_diagnostics_suite(SMALL, n=40, seed=3, mc_draws=5000, un_reps=400)
        b = run_diagnostics_suite(SMALL, n=40, seed=3, mc_draws=5000, un_reps=400)
        assert a == b
        assert a["lan_remainder"]["identity_residual"] < 1e-10
        assert {row["h"] for row in a["domination"]} == {"h=1", "plugin"}
        assert all(r["neg_mean_log_ratio"] <= r["bound"] for r in a["kl_neighborhood"])


    def test_diagnostics_suite_draws_each_domination_sample_once(self, monkeypatch):
        # the domination sample is drawn once, for the plug-in direction; the
        # h=1 row is the identity E[ratio] = 1, with standard error 0
        law = SMALL.law
        calls = []
        real = experiments.estimate_un_per_zeta

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "estimate_un_per_zeta", spy)
        report = run_diagnostics_suite(SMALL, n=40, seed=3, mc_draws=5000, un_reps=400)
        assert len(calls) == 1
        fixed, plugin = report["domination"]
        assert fixed == {"h": "h=1", "estimates": [1.0, 1.0], "standard_errors": [0.0, 0.0], "max": 1.0}
        estimates, errors = real(law, 2, 40, 400, 3)
        assert plugin["h"] == "plugin"
        assert plugin["estimates"] == estimates.tolist()
        assert plugin["standard_errors"] == errors.tolist()
        assert plugin["max"] == float(estimates.max())

    @pytest.mark.parametrize("counts", [{"mc_draws": 0}, {"un_reps": 0}, {"mc_draws": -3}])
    def test_diagnostics_suite_rejects_empty_draws_before_any_work(self, counts, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("work started despite an empty draw count")

        for name in ("NuisanceFunction", "kl_neighborhood_stats", "estimate_un_per_zeta", "sample_dataset"):
            monkeypatch.setattr(experiments, name, spy)
        name, value = next(iter(counts.items()))
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value}"):
            run_diagnostics_suite(SMALL, n=40, seed=3, **counts)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: run_diagnostics_suite(SMALL, 50, 1, un_reps=2.5), "un_reps"),
            (lambda: run_diagnostics_suite(SMALL, 50, 1, mc_draws=2.5), "mc_draws"),
            (lambda: run_diagnostics_suite(SMALL, 50.5, 1), "n"),
            (lambda: run_posterior_snapshot(SMALL, 40.5, 3), "n"),
            (lambda: estimate_un_per_zeta(_LAW, 1, 40, 2.5, 3), "mc_reps"),
            (lambda: estimate_un_per_zeta(_LAW, 1, 40.5, 10, 3), "n"),
            (lambda: estimate_un_per_zeta(_LAW, 2.0, 40, 10, 3), "translations"),
            (lambda: gibbs_chain(_DS, _SPEC, 10.0, 10.5, 2, 1), "iterations"),
            (lambda: gibbs_chain(_DS, _SPEC, 10.0, 10, 2.5, 1), "burn_in"),
            (lambda: conditional_nuisance_mass(_DS, _SPEC, 1.0, _TRUTH, _LAW, 0.1, 2.5, 1), "draws"),
        ],
        ids=["suite-un_reps", "suite-mc_draws", "suite-n", "snapshot-n", "un-mc_reps", "un-n",
             "un-translations", "gibbs-iterations", "gibbs-burn_in", "mass-draws"],
    )
    def test_non_integer_counts_rejected(self, call, name):
        # numpy used to raise "'float' object cannot be interpreted as an
        # integer" or "expected a sequence of integers or a single integer"
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()

    @pytest.mark.parametrize("bad", [2.5, -1, 2**64])
    @pytest.mark.parametrize("name", list(_SEEDED))
    def test_seeds_checked_before_any_draw(self, name, bad, monkeypatch):
        # numpy raised its own TypeError for 2.5 and ValueError for -1, and
        # took 2^64 without a word
        calls = []
        real_rng, real_draws = np.random.default_rng, model._draws

        def rng_spy(*args):
            calls.append(args)
            return real_rng(*args)

        def draws_spy(*args, **kwargs):
            calls.append("_draws")
            return real_draws(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", rng_spy)
        for module in (model, asymptotics):
            monkeypatch.setattr(module, "_draws", draws_spy)
        call, seeded_with = _SEEDED[name]
        if isinstance(bad, float):
            message = f"seed must be an integer, got {bad!r}"
        else:
            message = f"seed must lie in [0, 18446744073709551615], got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)
        assert calls == []
        # the range's ends pass, and default_rng gets the seed as given, so
        # the draws are those of an unchecked call
        for seed in (0, 2**64 - 1):
            calls.clear()
            call(seed)
            assert [args[0] for args in calls if args != "_draws"] == seeded_with(seed)

    def test_diagnostics_hellinger_row_against_closed_form(self):
        # H^2 of the theta shift delta = 2/sqrt(n) is 1 - E exp(-(delta U)^2/8);
        # with U = m(V) + sigma_w Z, s = delta sigma_w and
        # c = delta^2 a^2/(8 + 2 s^2) it is 1 - (1 + s^2/4)^(-1/2) e^(-c/2) I0(c/2),
        # taken at 40 digits: in doubles the difference from 1 loses 2e-13
        cfg = ExperimentConfig()
        law = cfg.law
        for n, value in ((50, 9.86178e-3), (800, 6.24453e-4)):
            report = run_diagnostics_suite(cfg, n, cell_seed(0, n, 0), un_reps=10)
            with mpmath.workdps(40):
                delta = 2 / mpmath.sqrt(n)
                s2 = (delta * mpmath.mpf(law.residual_sd)) ** 2
                c = delta**2 * mpmath.mpf(law.cond_mean_amplitude) ** 2 / (8 + 2 * s2)
                exact = 1 - mpmath.exp(-c / 2) * mpmath.besseli(0, c / 2) / mpmath.sqrt(1 + s2 / 4)
                assert exact == pytest.approx(value, rel=1e-5)
                assert abs(report["hellinger_bound"]["hellinger_sq"] - exact) <= 1e-13 * exact


class TestCsvExports:
    def test_covariance_round_trip(self, tmp_path):
        cov = prior_covariance(SMALL.spec)
        path = tmp_path / "cov.csv"
        covariance_to_csv(cov, str(path))
        loaded = np.loadtxt(path, delimiter=",")
        np.testing.assert_array_equal(loaded, cov.matrix)

    def test_dataset_round_trip(self, tmp_path):
        ds = sample_dataset(SMALL.law, SMALL.truth, 25, 3)
        path = tmp_path / "data.csv"
        dataset_to_csv(ds, str(path))
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(loaded[:, 0], ds.u)
        np.testing.assert_array_equal(loaded[:, 3], ds.e)
