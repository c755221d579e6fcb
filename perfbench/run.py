"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paired_study --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root; gridfreq is imported from ``src/`` beside
this directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The
exit code is 1 when any correctness check failed and 2 when the sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("paired_study", "oracle_sweep", "surrogate_screen")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# workload-specific figures printed above the JSON line, with their units
FIGURE_UNITS = {
    "days_per_min": "1/min", "subproblems_per_s": "1/s",
    "cloud_points_per_s": "1/s", "total_cost_secured": "cost",
    "total_cost_unsecured": "cost", "unsecured_violations": "count",
    "objective_rel_diff_max": "ratio", "pwl_rmse_max": "Hz",
    "nadir_rel_err_max": "ratio",
}

# per-layer metrics: (name, unit); BENCHMARK.json lists the same names
PER_LAYER_UNITS = {
    "highs.milp_s": "s", "highs.run_s": "s", "highs.calls": "count",
    "highs.nodes": "count", "highs.mip_gap_max": "ratio",
    "highs.dual_bound": "cost", "highs.timeouts": "count",
    "solver.backend_solve_s": "s", "solver.matrix_s": "s",
    "solver.matrix_calls": "count", "solver.residuals_s": "s",
    "solver.self_s": "s",
    "uc_core.build_model_s": "s", "uc_core.rows": "count",
    "uc_core.cols": "count", "uc_core.nnz": "count",
    "uc_core.integers": "count", "uc_core.solve_s": "s",
    "uc_core.extract_s": "s",
    "study.run_study_s": "s", "study.prepare_surrogates_s": "s",
    "study.day_instance_s": "s", "study.cloud_check_s": "s",
    "study.posthoc_s": "s", "study.report_s": "s",
    "report_io.regenerate_s": "s", "casedata.template_s": "s",
    "scenarios.build_tree_s": "s", "scenarios.n_scenarios": "count",
    "nadir_linearization.enumerate_s": "s",
    "nadir_linearization.cloud_points": "count",
    "nadir_linearization.extract_bounds_s": "s",
    "nadir_linearization.fit_pwl_s": "s",
    "freq_dynamics.metrics_s": "s", "freq_dynamics.metrics_calls": "count",
    "freq_dynamics.rk4_s": "s", "freq_dynamics.rk4_steps": "count",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def pin_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def use_sources() -> bool:
    """Put the checkout's ``src/`` and root on the import path."""
    if not (ROOT / "src" / "gridfreq" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return True


def environment(nproc: int, seed: int) -> dict:
    import numpy
    import scipy
    try:
        from scipy.optimize._highspy import _core as highs
        highs_version = (f"{highs.HIGHS_VERSION_MAJOR}."
                         f"{highs.HIGHS_VERSION_MINOR}."
                         f"{highs.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        highs_version = "unknown"
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "highs": highs_version, "seed": seed,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    gridfreq and generated the workload's inputs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--setup-only", "--workload", workload,
                    "--seed", str(seed)],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                   timeout=120)
    return time.perf_counter() - t0


def run_jobs(workload, inputs, backend, seconds: float | None = None,
             count: int | None = None) -> list:
    """Closed loop: one job at a time, the next starting when the previous
    returns.  Stops after ``count`` jobs, or once another job of median
    length would end past ``seconds``; at least one job runs."""
    from perfbench.workloads import run_job
    done = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        res = run_job(workload, inputs[len(done) % len(inputs)], backend, OUT)
        done.append((time.perf_counter() - t0, res))
        if count is not None:
            if len(done) >= count:
                break
        elif (time.perf_counter() - start
              + statistics.median(t for t, _ in done) > seconds):
            break
    return done


def summarize(workload, jobs, elapsed: float) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)) and quality figures."""
    times = [t for t, _ in jobs]
    work = sum(r.work for _, r in jobs)
    metrics = {
        "wall_s": (statistics.median(times), "s"),
        "work_per_s": (work / elapsed, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    extra = {workload.rate_name: work / elapsed * workload.rate_per_s,
             "jobs": len(jobs), "work": work}
    for key in jobs[0][1].quality:
        values = [r.quality[key] for _, r in jobs if key in r.quality]
        # "_max" figures are the worst over the run, the others belong to
        # the run's first job and so repeat exactly for a seed
        extra[key] = max(values) if key.endswith("_max") else values[0]
    return metrics, extra


def per_layer(tracer, n_jobs: int, traced: list, untraced: list
              ) -> tuple[dict, dict]:
    """Per-layer metrics per job from the spans of ``n_jobs`` traced jobs,
    and the (total, self, calls) table they come from."""
    from perfbench.tracing import self_times
    layers = self_times(tracer.spans)

    def span(name, column):     # column 0: total s, 1: self s, 2: calls
        return layers.get(name, (0.0, 0.0, 0))[column] / n_jobs

    by_id = {s.id: s for s in tracer.spans}
    backend_in_solve = sum(
        s.end - s.start for s in tracer.spans
        if s.name == "solver.backend_solve" and s.parent is not None
        and by_id[s.parent].name == "uc_core.solve") / n_jobs
    wall = statistics.mean(t for t, _ in traced)
    base = statistics.mean(t for t, _ in untraced)
    out = {
        "solver.matrix_calls": span("solver.matrix", 2),
        "solver.self_s": span("solver.backend_solve", 1),
        "uc_core.extract_s": span("uc_core.solve", 0) - backend_in_solve,
        "freq_dynamics.metrics_calls": span("freq_dynamics.metrics", 2),
        "trace.wall_s": wall, "trace.untraced_wall_s": base,
        "trace.overhead_s": wall - base,
        "trace.spans": len(tracer.spans) / n_jobs,
    }
    for name in ("highs.milp", "highs.run", "solver.backend_solve",
                 "solver.matrix", "solver.residuals", "uc_core.build_model",
                 "uc_core.solve",
                 "study.run_study", "study.prepare_surrogates",
                 "study.day_instance", "study.cloud_check", "study.posthoc",
                 "study.report", "report_io.regenerate", "casedata.template",
                 "scenarios.build_tree", "nadir_linearization.enumerate",
                 "nadir_linearization.extract_bounds",
                 "nadir_linearization.fit_pwl", "freq_dynamics.metrics",
                 "freq_dynamics.rk4"):
        out[name + "_s"] = span(name, 0)
    for name in ("highs.calls", "highs.nodes", "highs.dual_bound",
                 "highs.timeouts", "scenarios.n_scenarios",
                 "nadir_linearization.cloud_points",
                 "freq_dynamics.rk4_steps"):
        out[name] = tracer.counts.get(name, 0.0) / n_jobs
    for name in ("highs.mip_gap_max", "uc_core.rows", "uc_core.cols",
                 "uc_core.nnz", "uc_core.integers"):
        out[name] = float(tracer.maxima.get(name, 0.0))
    return out, layers


def print_layers(layers: dict, n_jobs: int, overhead: float) -> None:
    print(f"per-layer time per job ({n_jobs} traced jobs), seconds:")
    print(f"  {'span':40s} {'calls':>9s} {'total':>10s} {'self':>10s}")
    for name, (tot, own, calls) in sorted(layers.items(),
                                           key=lambda kv: -kv[1][1]):
        print(f"  {name:40s} {calls / n_jobs:9.1f} {tot / n_jobs:10.4f} "
              f"{own / n_jobs:10.4f}")
    print(f"  tracing overhead per job: {overhead:+.4f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import gridfreq, make the inputs and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    nproc = pin_threads()
    if not use_sources():
        print(f"perfbench: no gridfreq sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench import workloads
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    if args.setup_only:
        return 0

    env = environment(nproc, args.seed)
    print("environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        from gridfreq import solver
        from perfbench.tracing import TracedBackend, Tracer, installed
        untraced = run_jobs(workload, inputs, None, seconds=args.seconds / 2)
        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        with installed(tracer):
            backend = TracedBackend(solver.get_backend(), tracer)
            jobs = run_jobs(workload, inputs, backend, count=len(untraced))
        tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.json")
        values, layers = per_layer(tracer, len(jobs), jobs, untraced)
        print_layers(layers, len(jobs), values["trace.overhead_s"])
        metrics = {k: (values[k], unit) for k, unit in PER_LAYER_UNITS.items()}
        jobs = untraced + jobs
    else:
        setup_s = statistics.median(time_setup(args.workload, args.seed)
                                    for _ in range(SETUP_REPEATS))
        start = time.perf_counter()
        jobs = run_jobs(workload, inputs, None, seconds=args.seconds)
        elapsed = time.perf_counter() - start
        metrics, extra = summarize(workload, jobs, elapsed)
        metrics["setup_s"] = (setup_s, "s")
        print(f"{args.workload}: {extra.pop('jobs')} jobs, "
              f"{extra.pop('work'):g} {workload.work_unit} "
              f"in {elapsed:.2f} s")
        for name, (value, unit) in metrics.items():
            print(f"  {name:28s} {value:14.6g} {unit}")
        for name, value in extra.items():
            print(f"  {name:28s} {value:14.6g} {FIGURE_UNITS[name]}")

    attempted = sum(r.attempted for _, r in jobs)
    failed = sum(r.failed for _, r in jobs)
    for _, r in jobs:
        for err in r.errors:
            print(f"check failed: {err}")
    print(f"  {'ops':28s} {attempted:14d} count")
    print(f"  {'ops_failed':28s} {failed:14d} count")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
