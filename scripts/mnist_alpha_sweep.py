#!/usr/bin/env python3
"""Size/error trade-off sweep on MNIST: one search per alpha, then plot data.

Expects the four MNIST IDX files (train/t10k images+labels, optionally
gzipped) in --mnist-dir or $EVONAS_MNIST_DIR. Each alpha in --alphas gets a
full search run; the per-evaluation records are flattened into one
plot-ready CSV at the end.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from evonas.cli import main as cli

IDX_NAMES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")


def find_idx(root: Path, name: str) -> Path | None:
    for candidate in (root / name, root / (name + ".gz")):
        if candidate.exists():
            return candidate
    return None


def run(args) -> int:
    root = Path(args.mnist_dir or os.environ.get("EVONAS_MNIST_DIR", "data/mnist"))
    images = find_idx(root, IDX_NAMES[0])
    labels = find_idx(root, IDX_NAMES[1])
    if images is None or labels is None:
        print(
            f"MNIST IDX files not found under {root}; pass --mnist-dir or set "
            "EVONAS_MNIST_DIR",
            file=sys.stderr,
        )
        return 3

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "data.json"
    # a manifest resolves relative file names against its own directory
    doc = {"format": "idx", "images": str(images.resolve()), "labels": str(labels.resolve())}
    if args.limit:
        doc["limit"] = args.limit
    manifest.write_text(json.dumps(doc, indent=2))

    for alpha in args.alphas:
        config = out_dir / f"config_a{alpha:g}.json"
        config.write_text(
            json.dumps(
                {
                    "problem": "classification",
                    "arch": "mlp",
                    "input_shape": 784,
                    "output_size": 10,
                    "alpha": alpha,
                    "seed": args.seed,
                },
                indent=2,
            )
        )
        run_dir = out_dir / f"alpha_{alpha:g}"
        print(f"=== alpha {alpha:g} -> {run_dir}")
        code = cli(
            [
                "search",
                str(config),
                str(manifest),
                "--out",
                str(run_dir),
                "--workers",
                str(args.workers),
            ]
        )
        if code != 0:
            return code

    return cli(["plot-data", str(out_dir), "--out", str(out_dir / "plot.csv")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mnist-dir", default=None)
    parser.add_argument("--out", default="runs/mnist_sweep")
    parser.add_argument("--alphas", type=float, nargs="+", default=[0.3, 0.5, 0.7])
    parser.add_argument("--limit", type=int, default=10_000, help="subset size, 0 = all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()
    sys.exit(run(args))
