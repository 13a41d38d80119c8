"""Smoke runs of the measurement demos, the demo callers of combine and combine_plan."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import edlkit

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["ingest_published_tables.py", "simulated_experiment.py"])
def test_measurement_demo_runs(tmp_path, script):
    src = str(Path(edlkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
