"""perfbench: the end-to-end and per-layer benchmark of the semibvm CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with a single client: each launch starts the `semibvm` CLI
in a fresh ``python3`` process (perfbench/child.py) with the caller's
environment unchanged, waits for it, and starts the next until S seconds
have passed.  The program imports from the checkout's ``src`` and receives
only the config file the benchmark generates from the seed.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's launches.  Per launch the benchmark measures wall_s (the
``semibvm.cli.main`` call, report write included), setup_s (process start
until ``semibvm.cli`` is imported), cpu_s (user + system CPU of that call
and of the pool workers it joined) and peak_rss_mb (peak RSS of the CLI
process; pool workers not included).  Around each launch, with no child
process alive, it also times fresh ``python3 -c "import numpy"`` processes
(ref_s, the mean of the probe just before and just after).  The bounded
metrics wall_ref and cpu_ref are wall_s and cpu_s in units of ref_s: the
speed of a shared machine drifts by 10-20 % over minutes, and the ratio
cancels much of that drift.  A process start tracks the drift of these
workloads better than a pure-Python loop: over 22 coverage-default launches
on a 2-vCPU VM, log wall_s correlated 0.65 with it and 0.32 with the loop.
wall_s, cpu_s and ref_s are printed as well.

``--trace 1`` repeats groups of launches on one master seed each: the
workload untraced, the workload traced (tracing.py) and, for a workload
with ``pool_jobs``, the workload on that many pool workers.  Per-layer self
times and counts come from the traced launch; trace.overhead_s is traced
minus untraced wall; experiments.pool.efficiency is untraced serial wall /
(workers x pool wall), and 0 on a workload without a pool launch.  Each
figure is the median over the run's groups.

Every report of every launch is checked by oracle.py.  Besides the metrics
the run prints failed_share (cells or suites whose launch failed, over
those attempted) and wrong_share (checked outputs the oracle rejects, over
those checked); they are also the result's ``failed`` and ``correct``.
The last line of standard output is the JSON result; the manifest, every
launch and the oracle's findings go to .perfbench/<workload>/ in the
checkout.  Without a semibvm source tree the run exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
LAUNCH_TIMEOUT_S = 120

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "cpu_ref": "ref", "peak_rss_mb": "MiB"}
# printed beside the end-to-end metrics and kept in the run record
RAW = {"wall_s": "s", "cpu_s": "s", "ref_s": "s"}
PER_LAYER = {
    "asymptotics.tv_normals.self_s": "s",
    "asymptotics.tv_normals.calls": "count",
    "gp_prior.prior_covariance.self_s": "s",
    "gp_prior.prior_covariance.calls": "count",
    "gp_prior.cholesky_with_jitter.self_s": "s",
    "gp_prior.cholesky_with_jitter.calls": "count",
    "gp_prior.jitter_share": "ratio",
    "posterior.conjugate_joint_posterior.self_s": "s",
    "posterior.conjugate_joint_posterior.calls": "count",
    "posterior.marginal_theta.self_s": "s",
    "posterior.credible_interval.self_s": "s",
    "model.sample_dataset.self_s": "s",
    "model.nuisance_eval.self_s": "s",
    "model.nuisance_eval.points": "count",
    "asymptotics.estimate_un_per_zeta.self_s": "s",
    "asymptotics.delta_n.self_s": "s",
    "asymptotics.kl_hellinger.self_s": "s",
    "experiments.report_write.self_s": "s",
    "experiments.cells": "count",
    "experiments.cell_ms.p50": "ms",
    "experiments.cell_ms.tail": "ms",
    "experiments.cell_ms.tail_pct": "%",
    "experiments.pool.efficiency": "ratio",
    "layer.cli.self_s": "s",
    "layer.experiments.self_s": "s",
    "layer.model.self_s": "s",
    "layer.gp_prior.self_s": "s",
    "layer.posterior.self_s": "s",
    "layer.asymptotics.self_s": "s",
    "trace.cell_named_share": "ratio",
    "trace.overhead_s": "s",
}

sys.path.insert(0, str(HERE))
from tracing import summarize  # noqa: E402
from workloads import HOLDOUT_SEED, WORKLOADS, Workload, launch_seed  # noqa: E402


def reference_s() -> float:
    """Machine-speed probe: median time of three fresh interpreters that import numpy."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import numpy"], cwd=ROOT, stdin=subprocess.DEVNULL)
        # a blocking wait: wait(timeout=...) polls and would round the time up to 50 ms steps
        guard = threading.Timer(60, proc.kill)
        guard.start()
        code = proc.wait()
        guard.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"reference probe exited with {code}")
    return statistics.median(times)


def launch(workload: Workload, workdir: Path, tag: str, master: int, jobs: int = 1, trace: bool = False) -> dict:
    """Run the CLI once in a fresh process; its files are `workdir`/`tag`.*."""
    paths = {key: workdir / f"{tag}.{key}" for key in ("cfg", "report", "result", "spans", "request", "log")}
    paths["cfg"].write_text(workload.config_text(master))
    request = {
        "src": str(SRC),
        "argv": workload.argv(str(paths["cfg"]), str(paths["report"]), jobs),
        "trace": trace,
        "result": str(paths["result"]),
        "spans": str(paths["spans"]),
    }
    paths["request"].write_text(json.dumps(request))
    record = {
        "tag": tag,
        "master_seed": master,
        "jobs": jobs,
        "traced": trace,
        "cells": workload.cells(),
        "report": str(paths["report"]),
        "spans": str(paths["spans"]),
        "ok": False,
    }
    ref_before = reference_s()
    with open(paths["log"], "w") as log:
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(paths["request"]), repr(spawn_t)],
            cwd=ROOT,
            stdout=log,
            stderr=log,
            start_new_session=True,
        )
        try:
            record["exit_code"] = proc.wait(timeout=LAUNCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            record["exit_code"] = "timeout"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    record["ref_s"] = 0.5 * (ref_before + reference_s())
    if record["exit_code"] == 0 and paths["result"].exists():
        record.update(json.loads(paths["result"].read_text()), ok=True)
        record["wall_ref"] = record["wall_s"] / record["ref_s"]
        record["cpu_ref"] = record["cpu_s"] / record["ref_s"]
    return record


def check(workload: Workload, record: dict) -> tuple[int, int, list[str]]:
    """Oracle verdict on one successful launch: (checked, wrong, problems)."""
    from oracle import Oracle

    report = json.loads(Path(record["report"]).read_text())
    oracle = Oracle({**workload.config, "master_seed": record["master_seed"]})
    args = dict(zip(workload.args[::2], workload.args[1::2]))
    if workload.subcommand == "bvm-scan":
        return oracle.check_scan(report, workload.config["seeds"])
    if workload.subcommand == "coverage":
        return oracle.check_coverage(report, int(args["--replications"]))
    return oracle.check_diagnostics(report, int(args["--n"]))


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least 10 values beyond it.

    (0, 0) when there are ten values or fewer: no percentile qualifies.
    """
    if len(values) <= 10:
        return 0.0, 0.0
    pct = 100.0 * (1.0 - 10.0 / len(values))
    return pct, float(np.percentile(values, pct))


def per_layer(workload: Workload, groups: list[tuple[dict, dict, dict | None]]) -> dict:
    """Per-layer metrics from (untraced, traced, pool or None) launch groups of one seed each."""
    figures: dict[str, list[float]] = {}
    cell_ms: list[float] = []
    for plain, traced, pool in groups:
        summary, cells = summarize(json.loads(Path(traced["spans"]).read_text()))
        summary["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        summary["experiments.pool.efficiency"] = (
            plain["wall_s"] / (pool["jobs"] * pool["wall_s"]) if pool else 0.0
        )
        for key, value in summary.items():
            figures.setdefault(key, []).append(value)
        cell_ms += cells
    out = {key: statistics.median(values) for key, values in figures.items()}
    pct, value = tail(cell_ms)
    out["experiments.cells"] = len(cell_ms)
    out["experiments.cell_ms.p50"] = statistics.median(cell_ms) if cell_ms else 0.0
    out["experiments.cell_ms.tail"] = value
    out["experiments.cell_ms.tail_pct"] = pct
    return out


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "semibvm").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def manifest(workload: Workload, seed: int, seconds: int, trace: bool, launches: list[dict]) -> dict:
    runtime = next((r["runtime"] for r in launches if r.get("runtime")), {})
    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        **runtime,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workload": workload.name,
        "workload_config": workload.describe(),
        "master_seed": seed,
        "launch_seeds": sorted({r["master_seed"] for r in launches}),
        "holdout_seed": HOLDOUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one run; returns the full record, whose "result" is the printed JSON."""
    workdir = OUT / workload.name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    launches: list[dict] = []
    groups: list[tuple[dict, dict, dict | None]] = []
    # start another launch (or group) only if, taking as long as the last
    # one, it would overrun the deadline by less than half its length
    start = time.monotonic()
    index, last = 0, 0.0
    while index == 0 or time.monotonic() + last / 2 < start + seconds:
        begun = time.monotonic()
        master = launch_seed(seed, index)
        if not trace:
            launches.append(launch(workload, workdir, f"{index}", master))
        else:
            plain = launch(workload, workdir, f"{index}-plain", master)
            traced = launch(workload, workdir, f"{index}-traced", master, trace=True)
            pool = None
            if workload.pool_jobs:
                pool = launch(workload, workdir, f"{index}-pool", master, jobs=workload.pool_jobs)
            group = [plain, traced] + ([pool] if pool else [])
            launches += group
            if all(r["ok"] for r in group):
                groups.append((plain, traced, pool))
        index += 1
        last = time.monotonic() - begun

    attempted = sum(r["cells"] for r in launches)
    failed = sum(r["cells"] for r in launches if not r["ok"])
    checked = wrong = 0
    problems: list[str] = []
    for record in launches:
        if record["ok"]:
            c, bad, found = check(workload, record)
            checked += c
            wrong += bad
            problems += [f"launch {record['tag']}: {p}" for p in found]

    ok = [r for r in launches if r["ok"]]
    raw = {k: statistics.median(r[k] for r in ok) for k in RAW} if ok else {}
    if trace:
        values = per_layer(workload, groups) if groups else None
        units = PER_LAYER
    else:
        values = {k: statistics.median(r[k] for r in ok) for k in END_TO_END} if ok else None
        units = END_TO_END
    record = {
        "manifest": manifest(workload, seed, int(seconds), trace, launches),
        "launches": launches,
        "raw": raw,
        "checked": checked,
        "wrong": wrong,
        "failed_share": failed / attempted,
        "wrong_share": wrong / checked if checked else 0.0,
        "problems": problems,
        "result": None,
    }
    if values is not None:
        record["result"] = {
            "correct": failed == 0 and wrong == 0 and checked > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
        }
    (workdir / "result.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semibvm" / "cli.py").is_file():
        print(f"perfbench: no semibvm source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import semibvm

    if not Path(semibvm.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: semibvm imported from {semibvm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    record = run(workload, args.seed, args.seconds, bool(args.trace))
    result = record["result"]
    launches = record["launches"]
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{len(launches)} launches, {result['attempted'] if result else 0} cells attempted, "
        f"{record['checked']} outputs checked, {record['wrong']} wrong"
    )
    for line in record["problems"][:10]:
        print(f"  oracle: {line}")
    if result is None:
        print("perfbench: no launch succeeded; see .perfbench/ for the logs", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    for name, unit in RAW.items():
        print(f"  {name:44s} {record['raw'][name]:.6g} {unit}")
    print(f"  {'failed_share':44s} {record['failed_share']:.6g} ratio")
    print(f"  {'wrong_share':44s} {record['wrong_share']:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
