"""Span tracing around gridfreq's public functions.

Wrappers are installed on module attributes at the place each function is
looked up (``gridfreq.study.solve``, ``gridfreq.solver.milp``, ...), so the
program under test runs unchanged: every wrapper passes its arguments and
its result through.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
import uuid
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str


class Tracer:
    """In-memory span recorder with counters, for one workload run."""

    def __init__(self, run_id: str | None = None):
        self.run_id = run_id or uuid.uuid4().hex
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name: str, observe=None):
        """``fn`` recorded as a span ``name``; ``observe(tracer, result)``
        reads counters off the result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans),
                        self._stack[-1] if self._stack else None, name,
                        time.perf_counter(), float("nan"), self.run_id)
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, result)
            return result
        return traced

    def count(self, key: str, n: float = 1.0) -> None:
        self.counts[key] += n

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"run": self.run_id,
                       "spans": [asdict(s) for s in self.spans],
                       "counts": dict(self.counts),
                       "maxima": self.maxima}, fh)
            fh.write("\n")


class TracedBackend:
    """Solver backend whose ``solve`` is recorded as a span."""

    def __init__(self, inner, tracer: Tracer):
        self.name = inner.name
        self.solve = tracer.wrap(inner.solve, "solver.backend_solve")


def self_times(spans: list[Span]) -> dict[str, tuple[float, float, int]]:
    """Per span name: (total seconds, self seconds, calls).

    Self time is a span's duration minus the part of its interval that its
    child spans cover; children are clipped to the parent and overlaps
    between them are counted once.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        acc = out[s.name]
        acc[0] += s.end - s.start
        acc[1] += s.end - s.start - covered
        acc[2] += 1
    return {name: tuple(v) for name, v in out.items()}


def _observe_milp(tracer: Tracer, res) -> None:
    tracer.count("highs.calls")
    tracer.count("highs.timeouts", res.status == 1)
    if res.get("mip_node_count") is not None:
        tracer.count("highs.nodes", res["mip_node_count"])
    if res.get("mip_gap") is not None:
        tracer.peak("highs.mip_gap_max", float(res["mip_gap"]))
    if res.get("mip_dual_bound") is not None:
        tracer.count("highs.dual_bound", float(res["mip_dual_bound"]))


def _observe_model(tracer: Tracer, built) -> None:
    m = built.model
    tracer.peak("uc_core.rows", m.n_rows)
    tracer.peak("uc_core.cols", m.n_vars)
    tracer.peak("uc_core.nnz", sum(len(e) for e in m.row_entries))
    tracer.peak("uc_core.integers", sum(m.is_int))


def _observe_tree(tracer: Tracer, tree) -> None:
    tracer.count("scenarios.n_scenarios", len(tree.scenarios))


def _observe_cloud(tracer: Tracer, cloud) -> None:
    tracer.count("nadir_linearization.cloud_points", len(cloud))


def _observe_rk4(tracer: Tracer, result) -> None:
    tracer.count("freq_dynamics.rk4_steps", len(result[0]) - 1)


# (span name, observer, lookup sites as "module:attribute")
TARGETS = [
    ("highs.milp", _observe_milp, ["gridfreq.solver:milp"]),
    ("highs.run", None, ["scipy.optimize._highspy._core:_Highs.run"]),
    ("solver.matrix", None, ["gridfreq.solver:SolverModel.matrix"]),
    ("solver.residuals", None, ["gridfreq.solver:SolverModel.residuals"]),
    ("uc_core.build_model", _observe_model,
     ["gridfreq.uc_core:build_model", "gridfreq.study:build_model"]),
    ("uc_core.solve", None,
     ["gridfreq.uc_core:solve", "gridfreq.study:solve"]),
    ("study.run_study", None, ["gridfreq.study:run_study"]),
    ("study.prepare_surrogates", None,
     ["gridfreq.study:prepare_surrogates"]),
    ("study.day_instance", None,
     ["gridfreq.study:day_instance", "gridfreq.report_io:day_instance"]),
    ("study.cloud_check", None, ["gridfreq.study:enumerate_commitments"]),
    ("study.posthoc", None, ["gridfreq.study:posthoc_gaps"]),
    ("study.report", None,
     ["gridfreq.study:report", "gridfreq.report_io:report"]),
    ("report_io.regenerate", None,
     ["gridfreq.report_io:regenerate_report"]),
    ("casedata.template", None, ["gridfreq.casedata:study_template"]),
    ("scenarios.build_tree", _observe_tree, ["gridfreq.study:build_tree"]),
    ("nadir_linearization.enumerate", _observe_cloud,
     ["gridfreq.nadir_linearization:enumerate_commitments"]),
    ("nadir_linearization.extract_bounds", None,
     ["gridfreq.nadir_linearization:extract_bounds",
      "gridfreq.study:extract_bounds"]),
    ("nadir_linearization.fit_pwl", None,
     ["gridfreq.nadir_linearization:fit_pwl", "gridfreq.study:fit_pwl"]),
    ("freq_dynamics.metrics", None,
     ["gridfreq.freq_dynamics:frequency_metrics",
      "gridfreq.study:frequency_metrics"]),
    ("freq_dynamics.rk4", _observe_rk4,
     ["gridfreq.freq_dynamics:simulate_step_response",
      "gridfreq.study:simulate_step_response"]),
]


# HiGHS's own solve inside scipy's milp wrapper is a private scipy name;
# without it the span is skipped and highs.run_s reads 0
OPTIONAL_SITES = {"scipy.optimize._highspy._core:_Highs.run"}


def _resolve(site: str):
    module, path = site.split(":")
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target of ``TARGETS`` in spans; restore them on exit."""
    saved = []
    try:
        for name, observe, sites in TARGETS:
            for site in sites:
                try:
                    owner, attr = _resolve(site)
                except (ImportError, AttributeError):
                    if site in OPTIONAL_SITES:
                        continue
                    raise
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(original, name, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
