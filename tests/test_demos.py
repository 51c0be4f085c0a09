"""Every script in demos/ runs to completion in a fresh interpreter.

The demos read public names (chain certificates, action fields), so a
renamed field shows here as a failing script rather than in a reader's
terminal.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import heisgeo

SRC = os.path.dirname(os.path.dirname(os.path.abspath(heisgeo.__file__)))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


# a measurement script runs here at its smallest size; its full sweep takes minutes
ARGS = {"pool_crossover": ["--reps", "1", "--sizes", "16"],
        "net_timing": ["--reps", "1", "--time", "1:1.0", "--rss", "1:1.0"]}


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, str(script), *ARGS.get(script.stem, [])], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
