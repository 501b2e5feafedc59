"""Smoke tests of the scripts the README points to."""

import os
import subprocess
import sys
from pathlib import Path

import evonas

ROOT = Path(__file__).parents[1]


def test_synthetic_demo_searches_trains_and_inspects(tmp_path):
    """The README quick start: search, ``train --kfold --out-model``, then ``inspect``."""
    src = str(Path(evonas.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "synthetic_demo.py"), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "search" / "best.json").is_file()
    assert (tmp_path / "winner.bin").is_file()
    assert "5-fold accuracy: " in proc.stdout
