"""Smoke tests of the scripts under scripts/: each runs at a small size in a
fresh interpreter, exits 0 and writes at least one CSV row."""

import csv
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.mark.parametrize("script,args", [
    ("coupling_decay.py", ["--replicates", "3", "--horizon", "1"]),
    ("coalescence_profile.py", ["--intensities", "1", "2", "--replicates", "5"]),
    # an A/A run: the tree against itself, every layer
    ("ab.py", ["--a", ROOT, "--b", ROOT, "--pairs", "3"]),
])
def test_script_runs_and_writes_rows(tmp_path, script, args):
    out = tmp_path / "out.csv"
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args,
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 1
