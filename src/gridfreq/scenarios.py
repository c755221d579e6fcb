"""Joint wind / generator-outage scenario set for the stochastic UC.

Wind realizations are equiprobable; contingency probabilities follow an
exponential outage model confined to a single discrete period, with
failed units unavailable for the rest of the horizon.  Sequential
contingencies are excluded, so scenario probabilities deliberately sum to
slightly below one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .system import SynchronousUnit


class ScenarioError(ValueError):
    pass


@dataclass
class WindScenario:
    id: str
    probability: float
    # realization[farm][t] in MW, hours indexed from 0
    realization: dict[str, list[float]]


@dataclass
class ContingencyModel:
    credible_outages: list[str]
    contingency_hour: int          # 0-based hour of the possible outage
    lam: float                     # per-hour failure rate, 1/MTTF
    tau: float = 1.0               # exposure periods for the outage window

    def validate(self, horizon: int) -> None:
        if self.lam <= 0 or self.tau <= 0:
            raise ScenarioError("lambda and tau must be > 0")
        if not 0 <= self.contingency_hour < horizon:
            raise ScenarioError(
                f"contingency_hour {self.contingency_hour} outside horizon")
        if len(set(self.credible_outages)) != len(self.credible_outages):
            raise ScenarioError("duplicate outage unit ids")


@dataclass
class Scenario:
    """One joint (contingency, wind) realization."""

    id: str
    probability: float
    wind_id: str
    outage_unit: str | None        # None for the no-contingency branch
    realization: dict[str, list[float]]


@dataclass
class ScenarioTree:
    scenarios: list[Scenario]
    horizon: int
    unit_ids: list[str]
    contingency_hour: int
    # availability[s][i, t] in {0, 1}
    availability: np.ndarray = field(repr=False)
    # each credible outage unit's disturbance in p.u. on s_base, in
    # credible_outages order
    outage_size: dict[str, float]


def contingency_probabilities(model: ContingencyModel
                              ) -> tuple[float, dict[str, float]]:
    """No-contingency and per-outage scenario probabilities.

    Returns ``(pi_c0, {unit_id: pi_ck})`` with
    ``pi[A] = exp(-lambda*tau) * (exp(lambda) - 1)`` and
    ``pi[B] = exp(-lambda*tau)`` under independence of contingencies.
    """
    if model.lam <= 0 or model.tau <= 0:
        raise ScenarioError("lambda and tau must be > 0")
    k = len(model.credible_outages)
    pi_a = math.exp(-model.lam * model.tau) * (math.exp(model.lam) - 1.0)
    pi_b = math.exp(-model.lam * model.tau)
    pi_c0 = pi_b ** k
    pi_ck = {uid: pi_a * pi_b ** (k - 1) for uid in model.credible_outages}
    return pi_c0, pi_ck


def build_tree(wind: list[WindScenario], model: ContingencyModel,
               units: list[SynchronousUnit], s_base: float,
               horizon: int) -> ScenarioTree:
    """Cross product of {no-contingency, each credible outage} x wind."""
    if not wind:
        raise ScenarioError("no wind scenarios")
    model.validate(horizon)
    unit_ids = [u.id for u in units]
    p_max = {u.id: u.p_max for u in units}
    for uid in model.credible_outages:
        if uid not in p_max:
            raise ScenarioError(f"credible outage unit {uid!r} not in system")

    pi_c0, pi_ck = contingency_probabilities(model)
    branches: list[tuple[str | None, float]] = [(None, pi_c0)]
    branches += [(uid, pi_ck[uid]) for uid in model.credible_outages]

    scenarios = []
    n_s = len(branches) * len(wind)
    availability = np.ones((n_s, len(units), horizon), dtype=np.int8)
    s = 0
    for outage_unit, pi_c in branches:
        for w in wind:
            tag = "c0" if outage_unit is None else f"c_{outage_unit}"
            scenarios.append(Scenario(
                id=f"{tag}/{w.id}",
                probability=pi_c * w.probability,
                wind_id=w.id,
                outage_unit=outage_unit,
                realization=w.realization,
            ))
            if outage_unit is not None:
                i = unit_ids.index(outage_unit)
                availability[s, i, model.contingency_hour:] = 0
            s += 1
    return ScenarioTree(scenarios=scenarios, horizon=horizon,
                        unit_ids=unit_ids,
                        contingency_hour=model.contingency_hour,
                        availability=availability,
                        outage_size={uid: p_max[uid] / s_base
                                     for uid in model.credible_outages})


def ingest_wind(path: str | Path) -> list[WindScenario]:
    """Parse a wind scenario CSV with columns scenario,farm,hour,mw.

    Hours are 1-based in the file.  Every scenario must cover the same
    farms and hours; probabilities are equal across scenarios.
    """
    rows: dict[str, dict[str, dict[int, float]]] = {}
    with open(path) as fh:
        reader = csv.DictReader(fh)
        required = {"scenario", "farm", "hour", "mw"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ScenarioError(
                f"{path}: header must contain columns {sorted(required)}")
        for lineno, rec in enumerate(reader, start=2):
            try:
                hour = int(rec["hour"])
                mw = float(rec["mw"])
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"{path}:{lineno}: {exc}") from exc
            if hour < 1:
                raise ScenarioError(f"{path}:{lineno}: hour must be >= 1")
            if mw < 0:
                raise ScenarioError(
                    f"{path}:{lineno}: negative wind power {mw} for farm "
                    f"{rec['farm']!r}, scenario {rec['scenario']!r}")
            rows.setdefault(rec["scenario"], {}) \
                .setdefault(rec["farm"], {})[hour - 1] = mw
    if not rows:
        raise ScenarioError(f"{path}: no scenario rows")

    first = next(iter(rows))
    farms = sorted(rows[first])
    hours = sorted(rows[first][farms[0]]) if farms else []
    if hours != list(range(len(hours))):
        raise ScenarioError(f"{path}: scenario {first!r} has gaps in hours")
    for sid, by_farm in rows.items():
        if sorted(by_farm) != farms:
            raise ScenarioError(
                f"{path}: scenario {sid!r} covers farms {sorted(by_farm)}, "
                f"expected {farms}")
        for farm, by_hour in by_farm.items():
            if sorted(by_hour) != hours:
                raise ScenarioError(
                    f"{path}: scenario {sid!r} farm {farm!r} has ragged hours")

    prob = 1.0 / len(rows)
    return [
        WindScenario(
            id=sid,
            probability=prob,
            realization={farm: [by_farm[farm][t] for t in hours]
                         for farm in farms},
        )
        for sid, by_farm in sorted(rows.items())
    ]
