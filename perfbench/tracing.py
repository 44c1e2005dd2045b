"""Span tracing of a semibvm run from outside the program.

:class:`Tracer` replaces each traced function at every name the program's
modules bind it to (``semibvm.posterior.prior_covariance`` as well as
``semibvm.gp_prior.prior_covariance``), so calls made through any of those
names open a span.  A span is ``[name, start, end, parent, cell, extra]``;
every span opened inside a replication cell carries that cell's id.  Spans
stay in memory until :meth:`Tracer.write`, and :meth:`Tracer.restore` puts
every original binding back.

Traced: the public functions of model, gp_prior, posterior, asymptotics and
experiments, the public functions of cli, the cell workers and the cell
dispatcher of experiments, ``RunReport.write`` and
``NuisanceFunction.__call__``.  ``gp_prior.kibm_kernel`` is not traced: it is
the scalar body of the ``prior_covariance`` loop, called m^2/2 times per
prior, and its time is meant to stay in that loop's self time.
``numpy.linalg.cholesky`` is counted, not spanned: inside a
``cholesky_with_jitter`` span, more than one attempt means the plain
factorisation failed and jitter was added.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

MODULES = ("cli", "experiments", "model", "gp_prior", "posterior", "asymptotics")
UNTRACED = {"gp_prior.kibm_kernel"}
CELL = "experiments.cell"
JITTER = "gp_prior.cholesky_with_jitter"
NUISANCE = "model.nuisance_eval"


def _targets():
    """(span name, owner, attribute, kind) for every traced callable."""
    out = []
    for short in MODULES:
        module = sys.modules[f"semibvm.{short}"]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
                and f"{short}.{attr}" not in UNTRACED
            ):
                out.append((f"{short}.{attr}", module, attr, "call"))
    experiments = sys.modules["semibvm.experiments"]
    model = sys.modules["semibvm.model"]
    out += [
        (CELL, experiments, "_bvm_cell", "cell"),
        (CELL, experiments, "_coverage_cell", "cell"),
        ("experiments.pool", experiments, "_run_cells", "call"),
        ("experiments.report_write", experiments.RunReport, "write", "call"),
        (NUISANCE, model.NuisanceFunction, "__call__", "points"),
    ]
    return out


class Tracer:
    """Spans and counts around the program's layer boundaries, for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cell: int | None = None
        self._cells = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, kind: str):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            previous_cell = tracer._cell
            if kind == "cell":
                tracer._cells += 1
                tracer._cell = tracer._cells
            extra = int(np.size(args[1])) if kind == "points" else 0
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer._cell, extra]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                tracer._stack.pop()
                tracer._cell = previous_cell

        return traced

    def _count_cholesky(self, fn):
        # counts plain Cholesky attempts inside cholesky_with_jitter: more
        # than one means the unjittered factorisation failed
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._stack and tracer.spans[tracer._stack[-1]][0] == JITTER:
                tracer.spans[tracer._stack[-1]][5] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at each name a semibvm module binds it to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key == "semibvm" or key.startswith("semibvm.")]
        for name, owner, attr, kind in _targets():
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, kind)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        self._patch(np.linalg, "cholesky", self._count_cholesky(np.linalg.cholesky))

    def restore(self) -> None:
        """Put back every binding :meth:`install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


# functions whose self time a per-layer metric names, mapped to that metric
KL_HELLINGER = ("kl_neighborhood_stats", "hellinger_distance", "hellinger_from_shift", "kl_divergence")
NAMED = {
    name: name
    for name in (
        "asymptotics.tv_normals",
        "gp_prior.prior_covariance",
        JITTER,
        "posterior.conjugate_joint_posterior",
        "posterior.marginal_theta",
        "posterior.credible_interval",
        "model.sample_dataset",
        NUISANCE,
        "asymptotics.estimate_un_per_zeta",
        "asymptotics.delta_n",
        "experiments.report_write",
    )
} | {f"asymptotics.{name}": "asymptotics.kl_hellinger" for name in KL_HELLINGER}
COUNTED = ("asymptotics.tv_normals", "gp_prior.prior_covariance", JITTER, "posterior.conjugate_joint_posterior")


def summarize(spans: list[list]) -> tuple[dict, list[float]]:
    """Per-layer figures of one traced launch, and its cell durations in ms.

    Self times of the functions in NAMED, call counts of COUNTED, the
    jitter share, nuisance evaluation points, per-module self time and the
    share of traced cell time that the NAMED self times account for.
    """
    own = self_times(spans)
    out: dict[str, float] = {f"{group}.self_s": 0.0 for group in set(NAMED.values())}
    out.update({f"{name}.calls": 0 for name in COUNTED})
    out.update({f"layer.{module}.self_s": 0.0 for module in MODULES})
    jittered = points = 0
    cell_ms: list[float] = []
    named_in_cells = 0.0
    for (name, start, end, _, cell, extra), self_s in zip(spans, own):
        out[f"layer.{name.split('.', 1)[0]}.self_s"] += self_s
        if name in NAMED:
            out[f"{NAMED[name]}.self_s"] += self_s
            if cell is not None:
                named_in_cells += self_s
        if name in COUNTED:
            out[f"{name}.calls"] += 1
        if name == JITTER and extra > 1:
            jittered += 1
        if name == NUISANCE:
            points += extra
        if name == CELL:
            cell_ms.append(1e3 * (end - start))
    calls = out[f"{JITTER}.calls"]
    out["gp_prior.jitter_share"] = jittered / calls if calls else 0.0
    out["model.nuisance_eval.points"] = points
    out["trace.cell_named_share"] = 1e3 * named_in_cells / sum(cell_ms) if cell_ms else 0.0
    return out, cell_ms
