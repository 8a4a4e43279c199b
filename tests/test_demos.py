"""The demos run to completion and print their walk-through.

Each demo writes its files under ``out/`` next to itself, so each runs from a
copy in ``tmp_path`` and ``demos/out`` is left alone.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nshard

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_build_and_profile.py", "02_oracle_and_algorithms.py",
                                  "03_hitting_experiment.py", "04_certify_everything.py"])
def test_demo_runs(tmp_path, name):
    script = shutil.copy(DEMOS / name, tmp_path / name)
    env = dict(os.environ, PYTHONPATH=str(Path(nshard.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
