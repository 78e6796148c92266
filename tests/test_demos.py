"""The quick demos run to completion from a source checkout and leave
nothing behind in the temporary directory.

``demos/03_impute_and_classify.py`` trains the whole pipeline (about 47 s
on a 2-core machine) and is left out.
"""

import os
import subprocess
import sys

import pytest

import trimodal

SRC = os.path.dirname(os.path.dirname(os.path.abspath(trimodal.__file__)))
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("demo", ["01_autodiff_basics.py", "02_generate_and_probe_cohort.py"])
def test_demo_exits_zero(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=str(tmpdir))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmpdir) == []
