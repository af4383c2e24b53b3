"""Every bundled demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import situnet

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
SRC = str(Path(situnet.__file__).parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
