"""Command-line interface.

Exit codes: 0 success, 1 domain error (invalid data, infeasible model),
2 usage error.  Diagnostics go to stderr; machine-readable output goes to
files or stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .freq_dynamics import (FrequencyModelError, aggregate_params,
                            frequency_metrics)
from .nadir_linearization import (LinearizationError, admitted,
                                  enumerate_commitments, extract_bounds,
                                  fit_pwl, make_nadir_fn, nadir_grid)
from .scenarios import ScenarioError
from .study import (StudyConfig, StudyError, assert_cloud_membership,
                    prepare_surrogates, report, run_study)
from .system import SystemDataError, load_system
from .uc_core import (UcModelError, build_model, dump_solution,
                      load_instance, residual_ok, solve)

DOMAIN_ERRORS = (SystemDataError, ScenarioError, FrequencyModelError,
                 LinearizationError, UcModelError, StudyError,
                 OSError, json.JSONDecodeError, ValueError)


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def cmd_validate(args) -> int:
    system = load_system(args.system)
    print(f"system ok: {len(system.units)} units, "
          f"s_base {system.s_base:.1f} MVA, "
          f"converter fleet {system.fleet.vsm_capacity:.0f}+"
          f"{system.fleet.droop_capacity:.0f} MVA")
    return 0


def cmd_metrics(args) -> int:
    system = load_system(args.system)
    online = [True] * len(system.units)
    agg = aggregate_params(system.units, online, system.fleet,
                           system.t_turbine)
    met = frequency_metrics(agg, args.delta_p, system.limits)
    print("nadir_hz,rocof_hz_s,ss_dev_hz")
    print(f"{met.nadir_hz:.6f},{met.rocof_hz_s:.6f},{met.ss_dev_hz:.6f}")
    return 0


def cmd_linearize(args) -> int:
    system = load_system(args.system)
    cloud = enumerate_commitments(system.units, args.outage, system.fleet,
                                  system.limits, system.t_turbine)
    if args.method == "bounds":
        bounds = extract_bounds(cloud, system.limits)
        bounds.to_json(args.out)
        print(f"wrote {args.out}: f_lim {bounds.f_lim:.4f} "
              f"r_lim {bounds.r_lim:.4f} m_lim {bounds.m_lim:.4f} "
              f"({int(admitted(cloud, bounds).sum())} of {len(cloud)} "
              f"patterns admitted)",
              file=sys.stderr)
    else:
        fn = make_nadir_fn(cloud.d, system.t_turbine,
                           cloud.delta_p, system.limits, m_v=cloud.m_v)
        fit = fit_pwl(fn, nadir_grid(cloud, args.grid), args.segments,
                      restarts=args.restarts, seed=args.seed)
        fit.to_json(args.out)
        print(f"wrote {args.out}: {len(fit.coeffs)} segments, "
              f"rmse {fit.rmse:.6f} Hz", file=sys.stderr)
    return 0


def cmd_solve(args) -> int:
    instance = load_instance(args.config, freq_mode=args.freq_mode)
    if instance.freq_mode in ("bounds", "pwl"):
        instance.surrogates = prepare_surrogates(
            instance.units, instance.fleet, instance.limits,
            instance.t_turbine,
            sorted(instance.tree.outage_size),
            instance.freq_mode, args.seed)
    built = build_model(instance)
    sol = solve(built, mip_gap=args.mip_gap, time_limit=args.time_limit)
    if not sol.feasible:
        _err(f"solve finished with status {sol.status}")
        return 1
    if not residual_ok(sol, instance):
        _err(f"solution residual {sol.max_residual:.3e} exceeds tolerance")
        return 1
    if instance.freq_mode == "bounds":
        assert_cloud_membership(instance, sol)
    dump_solution(sol, instance, args.out)
    print(f"status {sol.status} objective {sol.objective:.2f} "
          f"gap {sol.mip_gap} -> {args.out}", file=sys.stderr)
    return 0


def _load_study_config(path: str | None, out_dir: str | None,
                       overrides: dict) -> StudyConfig:
    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
    known = {f for f in StudyConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise StudyError(f"unknown study config fields {sorted(unknown)}")
    cfg = StudyConfig(**data)
    for key, val in overrides.items():
        if val is not None:
            cfg = replace(cfg, **{key: val})
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    return cfg


def cmd_study(args) -> int:
    from .casedata import study_template
    cfg = _load_study_config(args.config, args.out, {
        "freq_mode": args.freq_mode, "mip_gap": args.mip_gap,
        "time_limit": args.time_limit, "seed": args.seed})
    cfg.validate()
    template = study_template(cfg.n_days)
    out = Path(args.out)
    cfg_off = replace(cfg, freq_mode="off",
                      out_dir=str(out / "solutions_off"))
    result_off = run_study(template, cfg_off)
    print("unconstrained run: "
          + " ".join(f"d{d.day}:{d.solution.status}"
                     for d in result_off.days), file=sys.stderr)
    if cfg.freq_mode == "off":
        return 0
    cfg_on = replace(cfg, out_dir=str(out / "solutions_on"))
    result_on = run_study(template, cfg_on, prefix=result_off)
    print("constrained run:   "
          + " ".join(f"d{d.day}:{d.solution.status}"
                     for d in result_on.days), file=sys.stderr)
    report(result_off, result_on, out)
    print(f"reports under {out}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    """Regenerate comparison reports from persisted study solutions."""
    from .report_io import regenerate_report
    regenerate_report(args.study_dir, args.out or args.study_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridfreq",
        description="frequency-secured stochastic unit commitment toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate a system file")
    sp.add_argument("--system", required=True)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("metrics",
                        help="frequency metrics with all units online")
    sp.add_argument("--system", required=True)
    sp.add_argument("--delta-p", type=float, required=True,
                    dest="delta_p", help="disturbance in p.u. on s_base")
    sp.set_defaults(fn=cmd_metrics)

    sp = sub.add_parser("linearize", help="build a nadir surrogate")
    sp.add_argument("--method", choices=("bounds", "pwl"), required=True)
    sp.add_argument("--system", required=True)
    sp.add_argument("--outage", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--segments", type=int, default=4)
    sp.add_argument("--grid", type=int, default=6)
    sp.add_argument("--restarts", type=int, default=60)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_linearize)

    sp = sub.add_parser("solve", help="solve one UC instance")
    sp.add_argument("--config", required=True,
                    help="instance JSON bundling network/system/wind refs")
    sp.add_argument("--out", required=True)
    sp.add_argument("--freq-mode", choices=("off", "bounds", "pwl"),
                    dest="freq_mode")
    sp.add_argument("--mip-gap", type=float, default=1e-4, dest="mip_gap")
    sp.add_argument("--time-limit", type=float, default=600.0,
                    dest="time_limit")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("study", help="run the multi-day study")
    sp.add_argument("--config", help="study config JSON")
    sp.add_argument("--out", required=True)
    sp.add_argument("--freq-mode", choices=("off", "bounds", "pwl"),
                    dest="freq_mode")
    sp.add_argument("--mip-gap", type=float, dest="mip_gap")
    sp.add_argument("--time-limit", type=float, dest="time_limit")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(fn=cmd_study)

    sp = sub.add_parser("report",
                        help="regenerate reports from a study directory")
    sp.add_argument("--study-dir", required=True, dest="study_dir")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except DOMAIN_ERRORS as exc:
        _err(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
