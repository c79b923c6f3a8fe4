"""The demos that round-trip partition and model JSON through the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mondrianforest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, round_trip", [
    ("01_sampling_and_geometry.py", "round trip structurally equal: True"),
    ("03_tree_and_forest_regression.py", "identical predictions after reload: True"),
])
def test_demo_runs_and_its_json_round_trip_holds(script, round_trip):
    src = str(Path(mondrianforest.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(DEMOS / script)],
                            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert round_trip in result.stdout
