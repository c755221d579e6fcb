"""Report regeneration from persisted study solution files.

The study harness dumps one solution directory per day; this module
reconstructs enough of each solution (commitment matrix plus cost
figures) to reproduce the comparison reports byte for byte.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .study import (DayResult, StudyConfig, StudyError, StudyResult,
                    day_instance, report)
from .uc_core import InitialState, UcInstance, UcSolution


def load_day_solution(day_dir: str | Path,
                      instance: UcInstance) -> UcSolution:
    day_dir = Path(day_dir)
    unit_idx = {u.id: i for i, u in enumerate(instance.units)}
    I, T = len(instance.units), instance.horizon
    u = np.zeros((I, T), dtype=int)
    y = np.zeros((I, T), dtype=int)
    z = np.zeros((I, T), dtype=int)
    with open(day_dir / "commitment.csv") as fh:
        for rec in csv.DictReader(fh):
            i, t = unit_idx[rec["unit"]], int(rec["hour"]) - 1
            u[i, t] = int(rec["u"])
            y[i, t] = int(rec["y"])
            z[i, t] = int(rec["z"])
    p = np.zeros((I, T))
    with open(day_dir / "dispatch.csv") as fh:
        for rec in csv.DictReader(fh):
            if rec["asset"] in unit_idx:
                p[unit_idx[rec["asset"]], int(rec["hour"]) - 1] = \
                    float(rec["mw"])
    with open(day_dir / "costs.json") as fh:
        costs = json.load(fh)
    return UcSolution(status=costs["status"], objective=costs["objective"],
                      mip_gap=costs["mip_gap"], u=u, y=y, z=z, p=p,
                      cost_breakdown=costs["breakdown"])


def _load_run(study_dir: Path, sub: str, config: StudyConfig, template,
              modes: list[str]) -> StudyResult:
    days = []
    run_dir = study_dir / sub
    for day in range(1, config.n_days + 1):
        day_dir = run_dir / f"day{day}"
        if not day_dir.is_dir():
            raise StudyError(f"missing persisted solution {day_dir}")
        mode = modes[day - 1]
        instance = day_instance(template, day, "off", InitialState(), None)
        instance.freq_mode = mode
        sol = load_day_solution(day_dir, instance)
        days.append(DayResult(day=day, freq_mode=mode, instance=instance,
                              solution=sol))
    return StudyResult(config=config, template=template, days=days)


def regenerate_report(study_dir: str | Path, out_dir: str | Path) -> None:
    """Rebuild comparison reports from a completed study directory."""
    from .casedata import study_template

    study_dir = Path(study_dir)
    with open(study_dir / "study_manifest.json") as fh:
        manifest = json.load(fh)
    config = StudyConfig(**manifest["config"])
    template = study_template(config.n_days)
    day_entries = manifest["days"]
    if len(day_entries) != 2 * config.n_days:
        raise StudyError("manifest does not describe a paired study")
    modes_off = [d["freq_mode"] for d in day_entries[:config.n_days]]
    modes_on = [d["freq_mode"] for d in day_entries[config.n_days:]]
    result_off = _load_run(study_dir, "solutions_off", config, template,
                           modes_off)
    cfg_on = config
    result_on = _load_run(study_dir, "solutions_on", cfg_on, template,
                          modes_on)
    report(result_off, result_on, out_dir)
