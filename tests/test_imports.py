"""Start-up hygiene: the CLI must not pull in the heavy scipy subpackages."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_loads_neither_scipy_stats_nor_integrate():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    code = (
        "import sys, semibvm.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
