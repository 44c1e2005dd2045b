"""Start-up hygiene: the CLI loads no SciPy, a run loads nothing heavy
after start-up, where it would count against the run's wall time, no
run starts a process pool, no posterior path needs SciPy at all, and
every exported name resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SMALL_CONFIG = "grid_size = 15\nn_ladder = 30, 60\nseeds = 3\nmaster_seed = 7\n"


def _run_python(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip()


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
        "from semibvm.experiments import ExperimentConfig, make_components\n"
        "from semibvm.model import sample_dataset\n"
        "from semibvm.posterior import (conditional_nuisance_mass, conjugate_joint_posterior,\n"
        "    gibbs_chain, sample_joint_posterior)\n"
        "law, truth, spec = make_components(ExperimentConfig(k=3, grid_size=15))\n"
        "ds = sample_dataset(law, truth, 60, 1)\n"
        "jp = conjugate_joint_posterior(ds, spec, 10.0)\n"
        "sample_joint_posterior(jp, 5, 2)\n"
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
