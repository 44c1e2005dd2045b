"""Start-up hygiene: the CLI loads no SciPy, a run loads nothing heavy
after start-up, where it would count against the run's wall time, no
run starts a process pool, no posterior path needs SciPy at all, every
exported name resolves, ``import semibvm`` loads no numpy, and the CLI
runs its linear algebra on one BLAS thread unless the caller chose a
count."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SMALL_CONFIG = "grid_size = 15\nn_ladder = 30, 60\nseeds = 3\nmaster_seed = 7\n"

# the variables OpenBLAS reads its thread count from
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _env(**blas_threads: str) -> dict:
    """This process's environment with the package on the path, none of
    BLAS_THREAD_VARS but those given."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env | blas_threads


def _run_python(code: str, *args: str, env: dict | None = None) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=_env() if env is None else env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip()


def test_package_import_loads_no_numpy_and_keeps_the_environment():
    code = (
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import semibvm\n"
        "print(json.dumps([sorted(sys.modules), dict(os.environ) == before]))\n"
    )
    loaded, unchanged = json.loads(_run_python(code))
    assert [m for m in loaded if m.split(".")[0] == "numpy"] == []
    assert [m for m in loaded if m.startswith("semibvm.")] == []
    assert unchanged


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_import_leaves_one_thread():
    # numpy's OpenBLAS starts its worker threads when it loads
    code = (
        "import json, os, semibvm.cli\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )
    assert json.loads(_run_python(code)) == [1, "1"]


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_callers_thread_count_is_kept(var):
    code = (
        "import json, os, semibvm.cli\n"
        f"print(json.dumps({{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}}))\n"
    )
    expected = dict.fromkeys(BLAS_THREAD_VARS) | {var: "2"}
    assert json.loads(_run_python(code, env=_env(**{var: "2"}))) == expected


def test_cli_import_after_numpy_keeps_the_environment():
    # numpy's BLAS is configured by then: setting the variable would
    # describe a thread count the process does not have
    code = "import json, os, numpy, semibvm.cli\nprint(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))\n"
    assert json.loads(_run_python(code)) is None


def test_grid_200_report_is_independent_of_the_blas_thread_default(tmp_path):
    # threaded OpenBLAS moved this report's posterior sd by up to 1.2e-12
    # against one thread, on a machine with two or more CPUs
    config = tmp_path / "large.cfg"
    config.write_text("k = 2\ngrid_size = 200\nn_ladder = 20000\n")
    reports = []
    for label, env in (("default", _env()), ("one", _env(OPENBLAS_NUM_THREADS="1"))):
        out = tmp_path / f"{label}.json"
        argv = ["coverage", "--config", str(config), "--replications", "8", "--out", str(out)]
        subprocess.run([sys.executable, "-m", "semibvm.cli", *argv], env=env, check=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_cli_import_loads_no_scipy():
    code = "import json, sys, semibvm.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(_run_python(code))
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    # the Hellinger quadrature rule is built on first use, not at start-up
    assert [m for m in loaded if m.startswith("numpy.polynomial")] == []


def test_serial_runs_import_no_numpy_or_scipy_module(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    code = (
        "import json, sys, semibvm.cli\n"
        "before = set(sys.modules)\n"
        "cfg, out = sys.argv[1], sys.argv[2]\n"
        "assert semibvm.cli.main(['bvm-scan', '--config', cfg, '--out', out + '/s.json']) == 0\n"
        "assert semibvm.cli.main(\n"
        "    ['coverage', '--config', cfg, '--replications', '4', '--out', out + '/c.json']\n"
        ") == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    added = json.loads(_run_python(code, str(config), str(tmp_path)))
    assert [m for m in added if m.split(".")[0] in ("numpy", "scipy")] == []


# what the normal quantile, the medians and the CSV writers used to load
# on every launch
STDLIB_EXTRAS = ("statistics", "fractions", "decimal", "_decimal", "csv")


def test_json_runs_load_no_statistics_decimal_or_csv(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    code = (
        "import json, sys, semibvm.cli\n"
        "cfg, out = sys.argv[1], sys.argv[2]\n"
        "assert semibvm.cli.main(['bvm-scan', '--config', cfg, '--out', out + '/s.json']) == 0\n"
        "assert semibvm.cli.main(\n"
        "    ['coverage', '--config', cfg, '--replications', '4', '--out', out + '/c.json']\n"
        ") == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = json.loads(_run_python(code, str(config), str(tmp_path)))
    assert [m for m in loaded if m in STDLIB_EXTRAS] == []


@pytest.mark.parametrize("command", [["bvm-scan"], ["coverage", "--replications", "4"]])
def test_csv_output_loads_csv_and_writes_the_json_rows(command, tmp_path):
    # a CSV report is the JSON report's rows through csv.writer, header first
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    code = (
        "import json, sys, semibvm.cli\n"
        "out, *argv = sys.argv[1:]\n"
        "assert semibvm.cli.main([*argv, '--out', out + '/r.json']) == 0\n"
        "assert 'csv' not in sys.modules\n"
        "assert semibvm.cli.main([*argv, '--format', 'csv', '--out', out + '/r.csv']) == 0\n"
        "print(json.dumps('csv' in sys.modules))\n"
    )
    argv = [*command, "--config", str(config)]
    assert json.loads(_run_python(code, str(tmp_path), *argv)) is True
    rows = json.loads((tmp_path / "r.json").read_text())["rows"]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(list(rows[0]))
    writer.writerows([list(row.values()) for row in rows])
    assert (tmp_path / "r.csv").read_bytes() == expected.getvalue().encode()


def test_jobs_flag_loads_no_pool_module(tmp_path):
    # --jobs is deprecated and ignored: replications run as stacked
    # batches in this process
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    code = (
        "import json, sys, semibvm.cli\n"
        "cfg, out = sys.argv[1], sys.argv[2]\n"
        "for command in (['bvm-scan'], ['coverage', '--replications', '4']):\n"
        "    argv = [*command, '--config', cfg, '--jobs', '2', '--out', out + '/r.json']\n"
        "    assert semibvm.cli.main(argv) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = json.loads(_run_python(code, str(config), str(tmp_path)))
    pools = ("concurrent", "multiprocessing")
    assert [m for m in loaded if m.split(".")[0] in pools] == []


def test_every_posterior_path_runs_without_scipy():
    code = (
        "import json, math, sys\n"
        "from semibvm.experiments import ExperimentConfig\n"
        "from semibvm.model import sample_dataset\n"
        "from semibvm.posterior import (conditional_nuisance_mass, conjugate_joint_posterior,\n"
        "    gibbs_chain)\n"
        "cfg = ExperimentConfig(k=3, grid_size=15)\n"
        "law, truth, spec = cfg.law, cfg.truth, cfg.spec\n"
        "ds = sample_dataset(law, truth, 60, 1)\n"
        "conjugate_joint_posterior(ds, spec, 10.0)\n"
        "gibbs_chain(ds, spec, math.inf, 20, 5, 3)\n"
        "conditional_nuisance_mass(ds, spec, 1.0, truth, law, 0.1, 10, 4)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = json.loads(_run_python(code))
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_every_export_resolves_once():
    import importlib
    import pkgutil

    import semibvm

    removed = {
        "cholesky_with_jitter",
        "chain_to_csv",
        "estimate_un",
        "marginal_theta",
        "conditioned_theta_marginal",
        "hellinger_from_shift",
        "_mean_shift",
        "log_density_ratio",
        "sample_joint_posterior",
        "efficient_information",
    }
    modules = [semibvm] + [
        importlib.import_module(f"semibvm.{info.name}")
        for info in pkgutil.iter_modules(semibvm.__path__)
    ]
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported)), module.__name__
        assert [name for name in exported if not hasattr(module, name)] == [], module.__name__
        assert removed.isdisjoint(exported), module.__name__
        assert removed.isdisjoint(vars(module)), module.__name__
    # the package resolves its names lazily and stores none of them, so
    # the names a lookup returns are those the submodules bind right now
    assert set(semibvm.__all__) <= set(dir(semibvm))
    assert set(semibvm.__all__).isdisjoint(vars(semibvm))


def test_docstring_references_resolve():
    # every :func:, :class: or :mod: reference in the package's source
    # names an attribute of its own module or a dotted semibvm. path
    import importlib
    import pkgutil
    import re

    import semibvm

    def resolve(module, target):
        if target.startswith("semibvm."):
            try:
                return importlib.import_module(target)
            except ImportError:
                parent, _, target = target.rpartition(".")
                module = importlib.import_module(parent)
        for part in target.split("."):
            module = getattr(module, part)
        return module

    modules = [semibvm] + [
        importlib.import_module(f"semibvm.{info.name}")
        for info in pkgutil.iter_modules(semibvm.__path__)
    ]
    checked, broken = 0, []
    for module in modules:
        text = Path(module.__file__).read_text()
        for target in re.findall(r":(?:func|class|mod):`([^`]+)`", text):
            checked += 1
            try:
                resolve(module, target)
            except (AttributeError, ImportError):
                broken.append(f"{module.__name__}: {target}")
    assert broken == []
    assert checked >= 15
