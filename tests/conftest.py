import numpy as np
import pytest
from hypothesis import settings

from gridfreq.system import ConverterFleet, FrequencyLimits, \
    SynchronousUnit

# property tests draw the same examples on every machine and every run
settings.register_profile("gridfreq", derandomize=True)
settings.load_profile("gridfreq")


def make_unit(uid="g1", bus="n1", p_max=200.0, p_min=50.0, **overrides):
    base = dict(
        id=uid, bus=bus, p_max=p_max, p_min=p_min, cost_energy=20.0,
        cost_startup=500.0, cost_shutdown=100.0, cost_res_up=4.0,
        cost_res_down=2.0, res_up_cap=60.0, res_down_cap=60.0,
        ramp_up=200.0, ramp_down=200.0, min_up=1, min_down=1,
        inertia_h=7.0, gain_k=1.1, turbine_fraction=0.15, droop=0.01,
        damping=0.6, mttf=1000.0)
    base.update(overrides)
    return SynchronousUnit(**base)


def synthetic_fleet(n_units: int, seed: int = 7) -> list[SynchronousUnit]:
    """Deterministic mixed fleet with varied dynamic parameters."""
    rng = np.random.default_rng(seed)
    units = []
    for i in range(n_units):
        units.append(make_unit(
            uid=f"u{i + 1}", bus="n1",
            p_max=float(rng.uniform(60, 160)),
            p_min=20.0,
            inertia_h=float(rng.uniform(3.5, 7.0)),
            gain_k=float(rng.uniform(0.9, 1.15)),
            turbine_fraction=float(rng.uniform(0.15, 0.35)),
            droop=float(rng.uniform(0.01, 0.05)),
        ))
    return units


CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def nuclear_unit():
    return make_unit(uid="n", p_max=400.0, p_min=100.0, inertia_h=4.5,
                     gain_k=0.98, turbine_fraction=0.25, droop=0.04)


@pytest.fixture
def empty_fleet():
    return ConverterFleet(vsm_capacity=0.0, droop_capacity=0.0)


@pytest.fixture
def limits():
    return FrequencyLimits()
