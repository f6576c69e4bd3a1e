"""Every demo script runs to completion as a user would start it."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, path], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout
