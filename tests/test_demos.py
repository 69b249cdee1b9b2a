"""Smoke test: every narrative script in demos/ runs to completion and
leaves no file behind in the repository."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _tree():
    return {os.path.join(d, f) for d, _, files in os.walk(ROOT) for f in files}


def test_there_are_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_0_and_writes_nothing_in_the_repo(tmp_path, demo):
    # run from a scratch directory: a plot the demo saves lands there
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    before = _tree()
    run = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert _tree() == before
