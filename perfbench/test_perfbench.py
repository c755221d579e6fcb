"""Tests of the benchmark's own code: inputs, span arithmetic, failure counts.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import functools
import json
import pickle

import pytest

from perfbench import run

run.use_sources()

from gridfreq.solver import HighsBackend, SolveResult  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402
from perfbench.tracing import Span, Tracer, self_times  # noqa: E402


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} \
        == {"wall_s", "work_per_s", "peak_rss_mb", "setup_s"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name].make_inputs
    first, again, other = make(5), make(5), make(6)
    assert pickle.dumps(first) == pickle.dumps(again)
    assert pickle.dumps(first) != pickle.dumps(other)


def test_self_times_on_hand_built_tree():
    def span(i, parent, start, end):
        return Span(i, parent, f"s{i}", start, end, "r")

    spans = [span(0, None, 0.0, 10.0),
             span(1, 0, 1.0, 4.0),     # overlaps span 2: [1, 6] counted once
             span(2, 0, 3.0, 6.0),
             span(3, 0, 9.0, 12.0),    # clipped to the parent's end
             span(4, 1, 2.0, 3.0)]
    got = self_times(spans)
    assert got["s0"] == pytest.approx((10.0, 4.0, 1))
    assert got["s1"] == pytest.approx((3.0, 2.0, 1))
    assert got["s2"] == pytest.approx((3.0, 3.0, 1))
    assert got["s3"] == pytest.approx((3.0, 3.0, 1))
    assert got["s4"] == pytest.approx((1.0, 1.0, 1))


def test_wrap_links_parents_and_passes_results_through():
    tracer = Tracer("r")
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(3) == 8
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent is None
    assert by_name["inner"].parent == by_name["outer"].id
    assert {s.run for s in tracer.spans} == {"r"}


def test_traced_job_matches_untraced_and_restores_modules(tmp_path):
    workload = workloads.WORKLOADS["surrogate_screen"]
    inp = workload.make_inputs(3)[0]
    plain = workloads.run_job(workload, inp, None, tmp_path)
    original = workloads.nl.enumerate_commitments
    tracer = Tracer()
    with tracing.installed(tracer):
        traced = workloads.run_job(workload, inp, None, tmp_path)
    assert workloads.nl.enumerate_commitments is original
    assert traced == plain and plain.failed == 0
    names = {s.name for s in tracer.spans}
    assert "nadir_linearization.enumerate" in names
    assert "highs.milp" not in names
    assert tracer.counts["nadir_linearization.cloud_points"] \
        == workloads.SCREEN_OUTAGES * 2 ** 17


class TimeoutBackend:
    """Reports every solve as a timeout, keeping HiGHS's point when
    ``solve_first`` is set (a time-limited day that still has a schedule)."""

    name = "timeout"

    def __init__(self, solve_first: bool):
        self.solve_first = solve_first

    def solve(self, model, mip_gap=1e-4, time_limit=600.0):
        if not self.solve_first:
            return SolveResult("timeout", None, None, None)
        res = HighsBackend().solve(model, mip_gap, time_limit)
        return SolveResult("timeout", res.x, res.objective, res.mip_gap)


def test_oracle_timeout_lands_in_ops_failed(tmp_path):
    workload = workloads.WORKLOADS["oracle_sweep"]
    inp = workload.make_inputs(1)[0]
    res = workloads.run_job(workload, inp, TimeoutBackend(False), tmp_path)
    assert (res.attempted, res.failed) == (1, 1)
    assert "timeout" in res.errors[0]


def test_study_timeout_day_lands_in_ops_failed(tmp_path):
    """run_study accepts a time-limited day that has a schedule; the
    benchmark counts it failed all the same."""
    workload = workloads.WORKLOADS["paired_study"]
    inp = workload.make_inputs(1)[0]
    res = workloads.run_job(workload, inp, TimeoutBackend(True), tmp_path)
    assert res.attempted == workloads.study_solves()
    assert res.failed == res.attempted
    assert all("came back timeout" in e for e in res.errors)
    assert not isinstance(workloads.study.solve, functools.partial)
