import filecmp
from pathlib import Path

import pytest

from gridfreq.casedata import write_study_case
from gridfreq.system import (ConverterFleet, FrequencyLimits, PowerSystem,
                             SystemDataError, load_system, save_system,
                             system_from_dict, system_to_dict)

from conftest import make_unit


def tiny_system():
    return PowerSystem(
        units=[make_unit(uid="a", p_max=300.0),
               make_unit(uid="b", bus="n2", p_max=100.0)],
        fleet=ConverterFleet(vsm_capacity=50.0, droop_capacity=25.0),
        limits=FrequencyLimits(), t_turbine=7.0)


def test_s_base_includes_converters():
    assert tiny_system().s_base == 475.0


def test_shipped_study_data_regenerates(tmp_path):
    write_study_case(tmp_path)
    data = Path(__file__).resolve().parent.parent / "data"
    for name in ("study_system.json", "study_wind.csv"):
        assert filecmp.cmp(tmp_path / name, data / name, shallow=False), name


def test_json_roundtrip(tmp_path):
    path = tmp_path / "sys.json"
    system = tiny_system()
    save_system(system, path)
    again = load_system(path)
    assert system_to_dict(again) == system_to_dict(system)


def test_unknown_field_rejected(tmp_path):
    data = system_to_dict(tiny_system())
    data["units"][0]["mystery"] = 1
    with pytest.raises(SystemDataError, match="mystery"):
        system_from_dict(data)


def test_validation_errors():
    with pytest.raises(SystemDataError):
        make_unit(p_max=-5.0).validate()
    with pytest.raises(SystemDataError):
        make_unit(p_min=300.0, p_max=200.0).validate()
    with pytest.raises(SystemDataError):
        make_unit(droop=0.0).validate()
    with pytest.raises(SystemDataError):
        make_unit(min_up=0).validate()


def test_limit_defaults():
    limits = FrequencyLimits()
    assert limits.f_base == 50.0
    assert limits.nadir_lim == 0.4
    assert limits.rocof_lim == 0.5
    assert limits.ss_lim == 0.2
