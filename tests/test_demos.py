import os
import subprocess
import sys
from pathlib import Path

import pytest

import annulab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(tmp_path, demo):
    # a fresh interpreter in an empty working directory, importing the same
    # annulab as this test: the demo must exit 0 and write nothing to stderr
    src = str(Path(annulab.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cp = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                        capture_output=True, text=True, timeout=300)
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    assert list(tmp_path.iterdir()) == []
