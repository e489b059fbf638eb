"""Every walkthrough in ``demos/`` runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oodseg

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # A fresh working directory, because demos may write files (03 saves its model).
    src = str(Path(oodseg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_demos_are_found():
    assert DEMOS
