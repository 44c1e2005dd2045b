"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import semibvm  # noqa: E402
from semibvm import asymptotics, cli, experiments, gp_prior, model  # noqa: E402
from semibvm.experiments import ExperimentConfig, run_bvm_scan, run_coverage  # noqa: E402


# same subcommands and shapes as the real workloads, far less work
TINY = {
    "scan-default": {"config": {"seeds": 1, "n_ladder": (50, 200)}},
    "coverage-large": {"config": {"k": 2, "grid_size": 200, "n_ladder": (2000,)}, "args": ("--replications", "1")},
    "coverage-default": {"config": {"n_ladder": (50, 200)}, "args": ("--replications", "2")},
    "diagnostics": {"args": ("--n", "40")},
}


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path / "runs")
    return tmp_path


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(name, trace, out_dir):
    record = bench.run(dataclasses.replace(WORKLOADS[name], **TINY[name]), seed=1, seconds=0, trace=trace)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert record["checked"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in bench.END_TO_END)
    manifest = record["manifest"]
    for key in ("source_sha256", "python", "numpy", "scipy", "openblas", "nproc", "holdout_seed"):
        assert manifest[key] is not None
    assert manifest["master_seed"] == 1
    json.dumps(record)  # the record file is plain JSON


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items() if w.in_benchmark
    }
    assert spec["paths"] == ["perfbench"]


def test_run_without_source_tree_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagnostics", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# --- oracle -----------------------------------------------------------------

SMALL = {"seeds": 2, "n_ladder": (40, 160), "master_seed": 11}


def test_oracle_matches_a_dense_reference_solve():
    orc = oracle.Oracle({"k": 0, "grid_size": 12, "master_seed": 0})
    ds = orc.data(60, 5)
    K = oracle.kibm_covariance(0, 12, 3.0)
    W = model.interpolation_weights(ds.v, 12)
    X = np.concatenate([ds.u[:, None], W], axis=1)
    precision = X.T @ X
    precision[0, 0] += 1.0 / 10.0
    precision[1:, 1:] += np.linalg.inv(K)
    cov = np.linalg.inv(precision)
    mean = cov @ (X.T @ ds.y)
    got_mean, got_var = orc.theta_posterior(ds.u, ds.v, ds.y)
    assert got_mean == pytest.approx(mean[0], rel=1e-10)
    assert got_var == pytest.approx(cov[0, 0], rel=1e-10)


def test_oracle_kernel_and_tv_agree_with_the_program():
    for k in range(4):
        program = gp_prior.prior_covariance(gp_prior.GpPriorSpec(k=k, grid_size=30)).matrix
        assert np.allclose(oracle.kibm_covariance(k, 30, 3.0), program, rtol=1e-12, atol=1e-14)
    for m1, v1, m2, v2 in [(0.3, 1.2, -0.1, 1.5625), (5.0, 0.01, 0.0, 1.0), (0.0, 2.0, 0.0, 2.0)]:
        assert oracle.tv_normals_closed(m1, v1, m2, v2) == pytest.approx(
            asymptotics.tv_normals(m1, v1, m2, v2), abs=1e-8
        )


def test_oracle_passes_correct_scan_and_flags_planted_errors():
    cfg = ExperimentConfig(**SMALL)
    report = json.loads(run_bvm_scan(cfg).to_json_text())
    orc = oracle.Oracle(SMALL)
    assert orc.check_scan(report, 2)[:2] == (4, 0)

    shrunk = json.loads(json.dumps(report))
    for row in shrunk["rows"]:
        row["localized_post_var"] *= 0.9
    assert orc.check_scan(shrunk, 2)[1] == 4

    off = json.loads(json.dumps(report))
    off["rows"][0]["tv_gap"] += 1e-5
    assert orc.check_scan(off, 2)[1] == 1

    short = json.loads(json.dumps(report))
    short["rows"].pop()
    assert orc.check_scan(short, 2)[:2] == (4, 1)


def test_oracle_flags_planted_wrong_coverage_interval():
    cfg = ExperimentConfig(**SMALL)
    report = json.loads(run_coverage(cfg, replications=2).to_json_text())
    orc = oracle.Oracle(SMALL)
    assert orc.check_coverage(report, 2)[:2] == (4, 0)
    for row in report["rows"]:
        # variance scaled by 0.9 shrinks the half-width by sqrt(0.9)
        mid, half = 0.5 * (row["lo"] + row["hi"]), 0.5 * (row["hi"] - row["lo"]) * math.sqrt(0.9)
        row["lo"], row["hi"] = mid - half, mid + half
        row["covered"] = row["lo"] <= 1.0 <= row["hi"]
    checked, wrong, problems = orc.check_coverage(report, 2)
    assert wrong == 4 and "variance off by -1.000e-01" in problems[0]


@pytest.mark.xfail(strict=True, reason="known defect: theta posterior wrong at k=2, grid 200, n 20000")
def test_coverage_large_cell_is_correct(out_dir):
    """One cell of coverage-large at its full size.

    It fails while the defect stands; once this passes, coverage-large
    belongs in BENCHMARK.json (set in_benchmark) and this mark goes.
    """
    workload = dataclasses.replace(WORKLOADS["coverage-large"], args=("--replications", "1"))
    record = bench.run(workload, seed=1, seconds=0, trace=False)
    assert record["result"]["failed"] == 0
    assert record["result"]["correct"], record["problems"]


def test_oracle_checks_diagnostics_against_its_own_bounds():
    cfg = ExperimentConfig(master_seed=4)
    n = 40
    report = experiments.run_diagnostics_suite(cfg, n, experiments.cell_seed(4, n, 0), mc_draws=2000, un_reps=400)
    orc = oracle.Oracle({"master_seed": 4})
    checked, wrong, _ = orc.check_diagnostics(report, n)
    assert checked >= 8 and wrong == 0
    report["hellinger_bound"]["hellinger_sq"] = 2.0 * report["hellinger_bound"]["bound"]
    report["lan_remainder"]["remainder"] += 1e-3
    assert orc.check_diagnostics(report, n)[1] == 2


# --- tracing ----------------------------------------------------------------


def _bindings():
    found = {}
    for key, module in sys.modules.items():
        if key == "semibvm" or key.startswith("semibvm."):
            for attr, value in vars(module).items():
                found[(key, attr)] = value
    found["RunReport.write"] = experiments.RunReport.__dict__["write"]
    found["NuisanceFunction.__call__"] = model.NuisanceFunction.__dict__["__call__"]
    found["numpy.linalg.cholesky"] = np.linalg.cholesky
    return found


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    original = gp_prior.prior_covariance
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert semibvm.posterior.prior_covariance is not original
        assert semibvm.posterior.prior_covariance is gp_prior.prior_covariance
        assert semibvm.asymptotics.tv_normals is not before[("semibvm.asymptotics", "tv_normals")]
        assert cli.main(["bvm-scan", "--config", _config(tmp_path), "--out", str(tmp_path / "r.json")]) == 0
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    spans = tracer.spans
    cells = [s for s in spans if s[0] == tracing.CELL]
    assert len(cells) == 2 and len({s[4] for s in cells}) == 2
    by_index = dict(enumerate(spans))
    for index, span in by_index.items():
        parent = span[3]
        if parent >= 0 and by_index[parent][4] is not None:
            assert span[4] == by_index[parent][4], "a cell's spans share its id"
    main = next(s for s in spans if s[0] == "cli.main")
    assert sum(tracing.self_times(spans)) == pytest.approx(main[2] - main[1], rel=1e-9)
    summary, cell_ms = tracing.summarize(spans)
    assert set(summary) <= set(bench.PER_LAYER)
    assert summary["asymptotics.tv_normals.calls"] == 2 and len(cell_ms) == 2
    assert 0.5 < summary["trace.cell_named_share"] <= 1.0 + 1e-9


def _config(tmp_path) -> str:
    path = tmp_path / "scan.cfg"
    path.write_text("seeds = 1\nn_ladder = 50, 200\nmaster_seed = 2\n")
    return str(path)
