"""Shipped synthetic study system.

A reduced 6-bus network with 8 synchronous units, 4 wind farms and a
converter fleet, sized so the full 5-day study completes in minutes.
Dynamic parameters (inertia constants, governor gains, turbine fractions,
droops) follow typical values for nuclear, combined-cycle and open-cycle
gas technology classes.  Demand and wind profiles are synthetic and
seeded, so regeneration is deterministic.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .system import ConverterFleet, FrequencyLimits, PowerSystem, \
    SynchronousUnit
from .uc_core import Line, Network, WindFarm

STUDY_SEED = 20240817
N_WIND_SCENARIOS = 10
CREDIBLE_OUTAGES = ["G5", "G6", "G7", "G8"]
CONTINGENCY_LOCAL_HOUR = 19          # 1-based hour within each day

# diurnal demand shape, fraction of peak, hours 1..24
_DEMAND_SHAPE = np.array([
    0.62, 0.58, 0.55, 0.54, 0.55, 0.60, 0.70, 0.82, 0.90, 0.94, 0.96, 0.95,
    0.92, 0.90, 0.88, 0.86, 0.84, 0.80, 0.74, 0.70, 0.72, 0.74, 0.70, 0.65,
])
_PEAK_MW = 1350.0
_NODE_SHARE = {"n1": 0.25, "n2": 0.22, "n3": 0.18, "n4": 0.15,
               "n5": 0.12, "n6": 0.08}

# wind availability shape, fraction of installed capacity
_WIND_SHAPE = np.array([
    0.45, 0.48, 0.50, 0.52, 0.50, 0.45, 0.38, 0.32, 0.28, 0.26, 0.25, 0.26,
    0.28, 0.32, 0.40, 0.52, 0.65, 0.75, 0.80, 0.78, 0.70, 0.62, 0.55, 0.50,
])
# mild day-to-day modulation; day 3 gets a strong evening front
_DAY_FACTOR = [0.85, 0.95, 1.15, 1.00, 0.90]


def study_units() -> list[SynchronousUnit]:
    def unit(uid, bus, p_max, p_min, ce, csu, csd, crp, crm, rcap, ramp,
             t_up, t_dn, h, k, f, r):
        return SynchronousUnit(
            id=uid, bus=bus, p_max=p_max, p_min=p_min, cost_energy=ce,
            cost_startup=csu, cost_shutdown=csd, cost_res_up=crp,
            cost_res_down=crm, res_up_cap=rcap, res_down_cap=rcap,
            ramp_up=ramp, ramp_down=ramp, min_up=t_up, min_down=t_dn,
            inertia_h=h, gain_k=k, turbine_fraction=f, droop=r,
            damping=0.6, mttf=1000.0)

    nuc = dict(h=4.5, k=0.98, f=0.25, r=0.04)
    ccgt = dict(h=7.0, k=1.1, f=0.15, r=0.01)
    ocgt = dict(h=5.5, k=0.95, f=0.35, r=0.03)
    return [
        unit("G1", "n1", 400, 200, 8.0, 1500, 200, 5.0, 2.0, 0, 240,
             8, 8, **nuc),
        unit("G2", "n2", 400, 200, 8.5, 1500, 200, 5.0, 2.0, 0, 240,
             8, 8, **nuc),
        unit("G3", "n3", 250, 100, 28.0, 400, 100, 6.0, 1.0, 60, 150,
             4, 4, **ccgt),
        unit("G4", "n4", 250, 100, 30.0, 400, 100, 6.0, 1.0, 60, 150,
             4, 4, **ccgt),
        unit("G5", "n5", 150, 60, 34.0, 300, 80, 6.5, 1.0, 40, 120,
             3, 3, **ccgt),
        unit("G6", "n5", 120, 40, 60.0, 250, 50, 8.0, 1.0, 60, 120,
             1, 1, **ocgt),
        unit("G7", "n6", 100, 30, 70.0, 250, 50, 8.0, 1.0, 50, 100,
             1, 1, **ocgt),
        unit("G8", "n6", 80, 25, 80.0, 200, 40, 9.0, 1.0, 40, 80,
             1, 1, **ocgt),
    ]


def study_fleet() -> ConverterFleet:
    return ConverterFleet(vsm_capacity=300.0, droop_capacity=150.0)


def study_system() -> PowerSystem:
    return PowerSystem(units=study_units(), fleet=study_fleet(),
                       limits=FrequencyLimits(), t_turbine=7.0)


def study_demand(n_days: int, seed: int) -> dict[str, list[float]]:
    """Nodal demand in MW for ``n_days`` x 24 hours, deterministic."""
    rng = np.random.default_rng(seed)
    day_scale = np.array([1.00, 1.03, 0.97, 1.02, 0.99])[:n_days]
    total = []
    for d in range(n_days):
        noise = 1.0 + 0.02 * rng.standard_normal(24)
        total.append(_PEAK_MW * day_scale[d % len(day_scale)]
                     * _DEMAND_SHAPE * noise)
    total = np.concatenate(total)
    return {node: [float(v) for v in share * total]
            for node, share in _NODE_SHARE.items()}


def study_network(n_days: int, seed: int) -> Network:
    lines = [
        Line("n1", "n2", 400.0, 600.0),
        Line("n2", "n3", 400.0, 600.0),
        Line("n3", "n4", 350.0, 500.0),
        Line("n4", "n5", 350.0, 500.0),
        Line("n5", "n6", 300.0, 400.0),
        Line("n6", "n1", 300.0, 400.0),
        Line("n1", "n4", 350.0, 500.0),
    ]
    farms = [WindFarm("w1", "n3", 150.0), WindFarm("w2", "n4", 150.0),
             WindFarm("w3", "n5", 150.0), WindFarm("w4", "n6", 150.0)]
    return Network(nodes=["n1", "n2", "n3", "n4", "n5", "n6"], lines=lines,
                   demand=study_demand(n_days, seed),
                   value_of_lost_load=3000.0, farms=farms)


def study_wind_table(n_days: int, seed: int) -> dict:
    """Wind realizations, MW: {scenario: {farm: [hour 0 .. 24*n_days-1]}}."""
    rng = np.random.default_rng(seed + 1)
    farms = ["w1", "w2", "w3", "w4"]
    cap = 150.0
    hours = 24 * n_days
    noise = rng.standard_normal((N_WIND_SCENARIOS, len(farms), hours))
    # AR(1) multiplicative deviation, common across hours, per (scenario,
    # farm)
    dev = np.empty_like(noise)
    level = np.zeros(noise.shape[:2])
    for t in range(hours):
        level = 0.8 * level + 0.07 * noise[:, :, t]
        dev[:, :, t] = level
    shape = np.concatenate([_WIND_SHAPE * _DAY_FACTOR[d % len(_DAY_FACTOR)]
                            for d in range(n_days)])
    mw = np.clip(shape * (1.0 + dev), 0.0, 1.0) * cap
    return {f"w{s + 1:02d}": dict(zip(farms, mw[s].tolist()))
            for s in range(N_WIND_SCENARIOS)}


def write_wind_csv(path: str | Path, n_days: int, seed: int) -> None:
    table = study_wind_table(n_days, seed)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["scenario", "farm", "hour", "mw"])
        for sid in sorted(table):
            for farm in sorted(table[sid]):
                for t, mw in enumerate(table[sid][farm]):
                    wr.writerow([sid, farm, t + 1, f"{mw:.3f}"])


def write_study_case(out_dir: str | Path, n_days: int = 5,
                     seed: int = STUDY_SEED) -> None:
    """Write system JSON and wind CSV for the shipped study case."""
    from .system import save_system
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_system(study_system(), out / "study_system.json")
    write_wind_csv(out / "study_wind.csv", n_days, seed)


def study_initial_state():
    """Day-1 state: nuclear and large CCGT blocks already running.

    The nuclear units carry a full-day residual minimum-up obligation
    (continuing operation from the preceding, unmodeled period).
    """
    from .uc_core import InitialState
    return InitialState(
        commitment={"G1": 1, "G2": 1, "G3": 1, "G4": 1},
        power={"G1": 350.0, "G2": 350.0, "G3": 150.0, "G4": 150.0},
        min_up_left={"G1": 24, "G2": 24},
        min_down_left={})


def study_template(n_days: int = 5, seed: int = STUDY_SEED):
    """Template for the shipped multi-day study."""
    from .scenarios import ContingencyModel, WindScenario
    from .study import StudyTemplate
    wind_table = study_wind_table(n_days, seed)
    n = len(wind_table)
    wind = [WindScenario(sid, 1.0 / n, dict(by_farm))
            for sid, by_farm in sorted(wind_table.items())]
    contingency = ContingencyModel(
        credible_outages=list(CREDIBLE_OUTAGES),
        contingency_hour=CONTINGENCY_LOCAL_HOUR - 1,
        lam=1e-3, tau=1.0)
    return StudyTemplate(
        network=study_network(n_days, seed), system=study_system(),
        wind=wind, contingency=contingency, initial=study_initial_state())
