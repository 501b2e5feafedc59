"""Smoke tests of the scripts the README points to."""

import argparse
import importlib.util
import os
import struct
import subprocess
import sys
from pathlib import Path

import evonas
from evonas.data import load_manifest

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


def test_mnist_sweep_manifest_loads_from_a_relative_mnist_dir(tmp_path, monkeypatch):
    """The sweep's ``data.json`` names IDX files that resolve from the manifest's own directory."""
    spec = importlib.util.spec_from_file_location("mnist_alpha_sweep", ROOT / "scripts" / "mnist_alpha_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    calls = []
    monkeypatch.setattr(sweep, "cli", lambda argv: calls.append(argv) or 0)  # a real search takes seconds
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mn").mkdir()
    (tmp_path / "mn" / "train-images-idx3-ubyte").write_bytes(struct.pack(">IIII", 0x0803, 3, 28, 28) + bytes(3 * 784))
    (tmp_path / "mn" / "train-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x0801, 3) + bytes([0, 1, 2]))
    args = argparse.Namespace(mnist_dir="mn", out="mnout", alphas=[0.5], limit=2, seed=0, workers=1)

    assert sweep.run(args) == 0
    assert [argv[0] for argv in calls] == ["search", "plot-data"]
    ds = load_manifest(tmp_path / "mnout" / "data.json")
    assert ds.features.shape == (2, 784)
