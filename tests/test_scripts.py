"""The study scripts run end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("run_baseline_scan.py", ["--paths", "4", "--steps", "64", "--grid-points", "32"]),
    ("parametrix_slope_study.py", ["--sizes", "32", "64"]),
    ("roots_gallery.py", []),
])
def test_script_exits_zero(script, args):
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
