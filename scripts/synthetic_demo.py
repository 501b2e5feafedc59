#!/usr/bin/env python3
"""End-to-end demo on generated data: search, retrain the winner, inspect it.

Needs no external datasets. Writes its artifacts under --out (default
runs/synthetic_demo) and prints the winner's layer table.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from evonas.cli import main as cli


def make_dataset(path: Path, samples_per_class: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    lines = ["f0,f1,f2,f3,f4,f5,y"]
    centers = [(-2.5, 0), (0.0, 1), (2.5, 2)]
    for center, label in centers:
        for _ in range(samples_per_class):
            feats = rng.normal(center, 0.8, 6)
            lines.append(",".join(f"{v:.6f}" for v in feats) + f",{label}")
    path.write_text("\n".join(lines) + "\n")


def run(out_dir: Path, seed: int, workers: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    data_csv = out_dir / "blobs.csv"
    make_dataset(data_csv, samples_per_class=120, seed=seed)

    manifest = out_dir / "data.json"
    manifest.write_text(
        json.dumps(
            {
                "format": "csv",
                "path": data_csv.name,
                "feature_columns": ["f0", "f1", "f2", "f3", "f4", "f5"],
                "target_column": "y",
                "problem": "classification",
            },
            indent=2,
        )
    )
    config = out_dir / "config.json"
    config.write_text(
        json.dumps(
            {
                "problem": "classification",
                "arch": "mlp",
                "input_shape": 6,
                "output_size": 3,
                "population_size": 6,
                "tournament_size": 2,
                "more_layers_prob": 0.4,
                "alpha": 0.5,
                "train_epochs": 4,
                "batch_size": 64,
                "max_generations": 5,
                "experiments": 3,
                "seed": seed,
            },
            indent=2,
        )
    )

    search_dir = out_dir / "search"
    code = cli(
        [
            "search",
            str(config),
            str(manifest),
            "--out",
            str(search_dir),
            "--workers",
            str(workers),
        ]
    )
    if code != 0:
        return code

    code = cli(
        [
            "train",
            str(search_dir / "best.json"),
            str(manifest),
            "--epochs",
            "60",
            "--kfold",
            "5",
            "--out-model",
            str(out_dir / "winner"),
            "--batch-size",
            "64",
            "--seed",
            str(seed),
        ]
    )
    if code != 0:
        return code

    print()
    return cli(["inspect", str(search_dir / "best.json"), "--input-dim", "6"])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/synthetic_demo")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    sys.exit(run(Path(args.out), args.seed, args.workers))
