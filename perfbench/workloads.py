"""The benchmark's workloads: which `semibvm` invocation each launch makes.

A workload is a subcommand, the config-file lines it runs on, its extra
command-line arguments and, for traced runs, an optional pool size.  All
timed launches are serial: a pool launch was too noisy on a 2-CPU machine
(300 cells took 4.8-7.8 s with --jobs 2), so the pool is measured only as
the per-layer experiments.pool.efficiency.  The master seed is not part
of a workload: each launch gets its own, derived from the benchmark seed
(see :func:`launch_seed`), and the program receives it only through the
generated config file.

Two workloads are runnable but not in BENCHMARK.json:

* ``coverage-large``: at k = 2, grid 200, n = 20 000 the program's theta
  posterior is wrong (variance about 9 % low), so every run of it reports
  ``correct: false``, and a benchmark workload must be one whose outputs are
  correct.  It stays here unchanged so that the defect keeps showing; once
  it is fixed it belongs in BENCHMARK.json.  Meanwhile ``coverage-default``
  times the coverage path on a config where the program is right.
* ``diagnostics``: a control that no prior or posterior change should move.
  It was left out so that the two listed workloads get 55-second runs, long
  enough for steady medians on a noisy 2-CPU machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# A seed that no tuning run uses.  A later change that claims a gain confirms
# it on this seed as well as on the seeds it was developed against.
HOLDOUT_SEED = 10070179


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str
    config: dict
    args: tuple[str, ...] = ()
    # traced runs also time the same cells with this many workers (0: never)
    pool_jobs: int = 0
    # listed in BENCHMARK.json (see the module docstring for those that are not)
    in_benchmark: bool = True

    def cells(self) -> int:
        """Cells (scan and coverage) or suites (diagnostics) one launch attempts."""
        if self.subcommand == "bvm-scan":
            return len(self.config["n_ladder"]) * self.config["seeds"]
        if self.subcommand == "coverage":
            return len(self.config["n_ladder"]) * int(self.args[self.args.index("--replications") + 1])
        return 1

    def config_text(self, master_seed: int) -> str:
        lines = [f"master_seed = {master_seed}"]
        for key, value in self.config.items():
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def argv(self, config_path: str, out_path: str, jobs: int = 1) -> list[str]:
        """CLI arguments; --jobs is passed only for a pool launch."""
        argv = [self.subcommand, "--config", config_path, "--out", out_path, *self.args]
        if jobs != 1:
            argv += ["--jobs", str(jobs)]
        return argv

    def describe(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "config": {k: list(v) if isinstance(v, tuple) else v for k, v in self.config.items()},
            "args": list(self.args),
            "pool_jobs": self.pool_jobs,
            "cells_per_launch": self.cells(),
        }


def launch_seed(bench_seed: int, index: int) -> int:
    """Master seed of launch `index` in a run with benchmark seed `bench_seed`."""
    return random.Random(f"perfbench:{bench_seed}:{index}").getrandbits(62)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan-default",
            why="bvm-scan on the default config: cells are the tv_normals quadrature and "
            "the per-cell prior rebuild; traced runs also time the cells on a 2-worker pool",
            subcommand="bvm-scan",
            config={"n_ladder": (50, 200, 800), "seeds": 12},
            pool_jobs=2,
        ),
        Workload(
            name="coverage-large",
            why="coverage at k=2, grid 200, n 20000: pure-Python prior loop and dense "
            "design; carries the known wrong-answer defect",
            subcommand="coverage",
            config={"k": 2, "grid_size": 200, "n_ladder": (20000,)},
            args=("--replications", "8"),
            in_benchmark=False,
        ),
        Workload(
            name="coverage-default",
            why="coverage on the default config, serial: per-cell posterior, marginal and "
            "credible interval over 300 cheap cells, and the report write",
            subcommand="coverage",
            config={"n_ladder": (50, 200, 800)},
            args=("--replications", "100"),
        ),
        Workload(
            name="diagnostics",
            why="diagnostics --n 800: model sampling and nuisance interpolation only; "
            "no prior or posterior call",
            subcommand="diagnostics",
            config={},
            args=("--n", "800"),
            in_benchmark=False,
        ),
    )
}
