"""The names and keywords the benchmark harness in perfbench/ binds.

perfbench's tracer, oracle and self-tests import these by name and call
them with these keywords.  perfbench sits outside the tier-1 test paths,
so without this contract a change to src/ alone could break
``python3 -m pytest perfbench`` with tier-1 still green.  Signatures are
bound without a call; the attributes the oracle and the self-tests read
are read off tiny objects (a 3-node prior, a 4-point dataset), and one
CLI launch is rejected by the config check before any work starts.
"""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semibvm import asymptotics, cli, experiments, gp_prior, model, posterior


def _binds(fn, *args, **kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_cell_workers_and_dispatcher():
    # the tracer wraps these module attributes and times a chunk per call
    for name in ("_bvm_cell", "_coverage_cell"):
        _binds(getattr(experiments, name), "batch")
    _binds(experiments._run_cells, "worker", "batches")


def test_class_methods_the_tracer_wraps():
    # looked up in the class __dict__, so they must be defined there
    write = experiments.RunReport.__dict__["write"]
    _binds(write, "report", "dest")
    _binds(write, "report", "dest", fmt="json")
    call = model.NuisanceFunction.__dict__["__call__"]
    _binds(call, "function", "v")  # the tracer counts np.size(args[1]) points


def test_module_functions_the_harness_calls():
    _binds(model.interpolation_weights, "v", 12)
    _binds(model.make_covariate_law, 0.8)
    _binds(model.sample_dataset, "law", "truth", 60, 5)
    _binds(gp_prior.prior_covariance, "spec")
    # the tracer checks that posterior binds the same object as gp_prior
    assert posterior.prior_covariance is gp_prior.prior_covariance
    _binds(asymptotics.tv_normals, 0.0, 1.0, 0.0, 1.0)


def test_attributes_the_oracle_and_self_tests_read():
    # perfbench/oracle.py and perfbench/test_perfbench.py read these off
    # the objects the program returns
    spec = gp_prior.GpPriorSpec(k=1, grid_size=3)
    assert gp_prior.prior_covariance(spec).matrix.shape == (3, 3)
    assert json.loads(experiments.RunReport(kind="k", config={}).to_json_text())["kind"] == "k"
    assert isinstance(experiments.cell_seed(4, 40, 0), int)
    config = {"k": 0, "grid_size": 12, "n_ladder": (40, 160), "seeds": 2, "master_seed": 11}
    cfg = experiments.ExperimentConfig(**config)
    fields = {field.name for field in dataclasses.fields(cfg)}
    assert fields >= {
        "theta0", "level", "theta_prior_var", "master_seed", "n_ladder", "sigma_w",
        "grid_size", "eta0_amplitude", "eta0_family", "k", "scale",
    }
    law = model.make_covariate_law(cfg.sigma_w)
    truth = model.ModelPoint(theta=1.0, eta=model.NuisanceFunction([0.0, 0.5, 0.0]))
    ds = model.sample_dataset(law, truth, 4, 5)
    assert ds.n == 4
    assert all(getattr(ds, name).shape == (4,) for name in ("u", "v", "y", "e"))
    assert law.cond_mean(ds.v).shape == (4,) and law.efficient_info > 0.0


def test_asymptotics_names_the_per_layer_figures_read():
    for name in (
        "tv_normals",
        "delta_n",
        "estimate_un_per_zeta",
        "kl_neighborhood_stats",
        "kl_divergence",
        "hellinger_distance",
    ):
        assert inspect.isfunction(getattr(asymptotics, name)), name
    _binds(asymptotics.hellinger_distance, "p1", "p2", "law")


def test_runner_keywords():
    _binds(experiments.run_coverage, "cfg", replications=2)
    _binds(experiments.run_diagnostics_suite, "cfg", 40, 4, mc_draws=2000, un_reps=400)
    _binds(cli.main, ["bvm-scan"])


@pytest.mark.parametrize("command", ["bvm-scan", "coverage"])
def test_jobs_flag_is_parsed(command, capsys):
    # --jobs is the flag a pool launch passes; 0 is rejected by the config
    # check, which shows the flag is known without running any cell
    assert cli.main([command, "--jobs", "0"]) == cli.EXIT_CONFIG
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_cli_import_loads_every_traced_module_and_no_package_binding():
    # the tracer reads these six modules off sys.modules after importing
    # semibvm.cli alone, and patches every binding of a traced function in
    # each semibvm namespace: the lazy package namespace must hold none,
    # or its restore would have to put back a binding the next lookup
    # would not read
    code = (
        "import inspect, json, sys, semibvm.cli\n"
        "names = ('cli', 'experiments', 'model', 'gp_prior', 'posterior', 'asymptotics')\n"
        "package = vars(sys.modules['semibvm'])\n"
        "print(json.dumps([\n"
        "    [name for name in names if f'semibvm.{name}' not in sys.modules],\n"
        "    sorted(key for key, value in package.items() if inspect.isfunction(value)),\n"
        "]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    missing, functions = json.loads(done.stdout)
    assert missing == []
    # the PEP 562 hooks alone: no function of a submodule is bound here
    assert functions == ["__dir__", "__getattr__"]
