import json
import os
import subprocess
import sys
from pathlib import Path

import gridfreq

SRC = str(Path(gridfreq.__file__).resolve().parents[1])

PROBE = """
import json, sys
from gridfreq import casedata, cli, nadir_linearization, report_io, study

def loaded():
    return [m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules]

before = loaded()
template = casedata.study_template(1)
study.build_model(study.day_instance(template, 1, "off", template.initial,
                                     None))
print(json.dumps([before, loaded()]))
"""


def test_scipy_loads_with_the_first_model():
    """The frequency, scenario, study and report layers import with numpy
    alone; scipy's MILP stack loads when a model is first built."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    before, after = json.loads(out.stdout)
    assert before == []
    assert after == ["scipy.optimize", "scipy.sparse"]
