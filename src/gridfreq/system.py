"""Generating-fleet data model and JSON input parsing.

A system file is a JSON object with an array of synchronous units under
``"units"``, a single converter fleet record under ``"fleet"``, optional
frequency limits under ``"limits"`` and the turbine time constant under
``"t_turbine"``.  Field names match the dataclass attributes below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path


class SystemDataError(ValueError):
    """Raised for inconsistent or physically meaningless system data."""


@dataclass
class SynchronousUnit:
    """Economic, technical and dynamic parameters of one thermal unit."""

    id: str
    bus: str
    p_max: float
    p_min: float
    cost_energy: float
    cost_startup: float
    cost_shutdown: float
    cost_res_up: float
    cost_res_down: float
    res_up_cap: float
    res_down_cap: float
    ramp_up: float
    ramp_down: float
    min_up: int
    min_down: int
    inertia_h: float
    gain_k: float
    turbine_fraction: float
    droop: float
    damping: float
    mttf: float

    def validate(self) -> None:
        if self.p_min < 0 or self.p_min > self.p_max:
            raise SystemDataError(
                f"unit {self.id}: need 0 <= p_min <= p_max, "
                f"got p_min={self.p_min}, p_max={self.p_max}")
        if self.droop <= 0:
            raise SystemDataError(f"unit {self.id}: droop must be > 0")
        if not 0.0 <= self.turbine_fraction <= 1.0:
            raise SystemDataError(
                f"unit {self.id}: turbine_fraction outside [0, 1]")
        if self.inertia_h <= 0:
            raise SystemDataError(f"unit {self.id}: inertia_h must be > 0")
        if self.min_up < 1 or self.min_down < 1:
            raise SystemDataError(
                f"unit {self.id}: min_up and min_down must be >= 1 h")
        for name in ("cost_energy", "cost_startup", "cost_shutdown",
                     "cost_res_up", "cost_res_down"):
            if getattr(self, name) < 0:
                raise SystemDataError(f"unit {self.id}: {name} must be >= 0")
        if self.mttf <= 0:
            raise SystemDataError(f"unit {self.id}: mttf must be > 0")


@dataclass
class ConverterFleet:
    """Aggregate grid-forming converter capacities and control gains."""

    vsm_capacity: float = 0.0
    droop_capacity: float = 0.0
    vsm_inertia_h: float = 6.0
    vsm_damping: float = 0.6
    vsm_gain: float = 1.0
    droop_gain: float = 1.0
    droop_droop: float = 0.05
    # Converter time constants are 2-3 orders of magnitude below turbine
    # ones, so the reduced-order model treats them as zero.
    converter_time_const: float = 0.0

    def validate(self) -> None:
        if self.vsm_capacity < 0 or self.droop_capacity < 0:
            raise SystemDataError("converter capacities must be >= 0")
        if self.droop_droop <= 0:
            raise SystemDataError("droop_droop must be > 0")


@dataclass
class FrequencyLimits:
    """Frequency-security thresholds (ENTSO-e style defaults, 50 Hz base)."""

    f_base: float = 50.0
    nadir_lim: float = 0.4
    rocof_lim: float = 0.5
    ss_lim: float = 0.2

    def validate(self) -> None:
        for name in ("f_base", "nadir_lim", "rocof_lim", "ss_lim"):
            if getattr(self, name) <= 0:
                raise SystemDataError(f"{name} must be > 0")


def s_base(units: list[SynchronousUnit], fleet: ConverterFleet) -> float:
    """Common MVA base: synchronous plus converter capacity."""
    return (sum(u.p_max for u in units)
            + fleet.vsm_capacity + fleet.droop_capacity)


@dataclass
class PowerSystem:
    """Units, converter fleet and frequency configuration of one grid."""

    units: list[SynchronousUnit]
    fleet: ConverterFleet
    limits: FrequencyLimits = field(default_factory=FrequencyLimits)
    t_turbine: float = 7.0

    @property
    def s_base(self) -> float:
        return s_base(self.units, self.fleet)

    def validate(self) -> None:
        seen = set()
        for u in self.units:
            if u.id in seen:
                raise SystemDataError(f"duplicate unit id {u.id!r}")
            seen.add(u.id)
            u.validate()
        self.fleet.validate()
        self.limits.validate()
        if self.t_turbine <= 0:
            raise SystemDataError("t_turbine must be > 0")
        if self.s_base <= 0:
            raise SystemDataError("system base is zero: no units or converters")


def _build(cls, record: dict, context: str):
    fields = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(record) - fields
    if unknown:
        raise SystemDataError(f"{context}: unknown fields {sorted(unknown)}")
    try:
        return cls(**record)
    except TypeError as exc:
        raise SystemDataError(f"{context}: {exc}") from exc


def system_from_dict(data: dict) -> PowerSystem:
    if "units" not in data:
        raise SystemDataError("system file missing 'units' array")
    units = [_build(SynchronousUnit, rec, f"units[{k}]")
             for k, rec in enumerate(data["units"])]
    fleet = _build(ConverterFleet, data.get("fleet", {}), "fleet")
    limits = _build(FrequencyLimits, data.get("limits", {}), "limits")
    system = PowerSystem(units=units, fleet=fleet, limits=limits,
                         t_turbine=float(data.get("t_turbine", 7.0)))
    system.validate()
    return system


def load_system(path: str | Path) -> PowerSystem:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SystemDataError(f"{path}: invalid JSON: {exc}") from exc
    return system_from_dict(data)


def system_to_dict(system: PowerSystem) -> dict:
    return {
        "units": [asdict(u) for u in system.units],
        "fleet": asdict(system.fleet),
        "limits": asdict(system.limits),
        "t_turbine": system.t_turbine,
    }


def save_system(system: PowerSystem, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(system_to_dict(system), fh, indent=2)
        fh.write("\n")
