"""Workload definitions and seeded input generation for the evonas benchmark.

Every input a workload hands to the program (IDX files, run-to-failure
table, manifests, search config, genotype) is written from the workload seed
before any timing starts. The same seed always gives the same bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: The fixed mid-size genotype trained by train-kfold-dense784.
KFOLD_GENOTYPE = HERE / "kfold_genotype.json"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which CLI command, on which generated inputs.

    The reason for each workload is recorded in ``BENCHMARK.json``.
    """

    name: str
    command: str  # "search" or "train"
    data: str  # "dense784" or "rul"
    parallel: bool = False  # search with --workers nproc instead of 1
    rows: int = 0  # dense784: samples
    units: int = 0  # rul: run-to-failure units
    cycles: tuple[int, int] = (0, 0)  # rul: shortest and longest unit
    batch_size: int = 512
    learning_rate: float = 0.001
    # search
    alpha: float = 0.5
    experiments: int = 5
    # train
    epochs: int = 1
    kfold: int = 0

    @property
    def evaluations(self) -> int:
        """Evaluator calls of one search (convergence restarts are disabled),
        or trainings of one train command (k folds plus the final model)."""
        if self.command == "search":
            return POPULATION * MAX_GENERATIONS * self.experiments
        return self.kfold + 1

    def worker_count(self, nproc: int) -> int:
        return nproc if self.parallel else 1

    def tiny(self) -> "Workload":
        """A seconds-long variant with the same code paths, for the benchmark's tests."""
        return replace(
            self,
            rows=min(self.rows, 120),
            units=min(self.units, 2),
            cycles=(min(self.cycles[0], 30), min(self.cycles[1], 36)),
            experiments=1,
            epochs=min(self.epochs, 1),
        )


POPULATION = 10
MAX_GENERATIONS = 2
MORE_LAYERS_PROB = 0.25
TRAIN_EPOCHS = 1  # per search evaluation

# search-rul-small's table: 6 sensors, windows of 8 cycles (48 features).
# Targets of at most 10 cycles and alpha 0.99 keep the MSE term of the cost
# comparable to the size term, so selection, and with it the work of
# generation 1, varies little with the seed.
RUL_SENSORS = 6
RUL_WINDOW = 8
RUL_EARLY_RUL = 10.0

# convergence_pairs above the 45 pairs of a population of 10 keeps every
# experiment running for max_generations, so the evaluation count (and with
# it the wall time) does not depend on the seed.
NO_RESTART_PAIRS = 46

# The search's own seed is part of the workload, like the genotype that
# train-kfold-dense784 trains; the workload seed varies the data. A fixed
# search seed keeps the first generation's architectures, and with them most
# of the work a search does, the same for every workload seed. Generation 1
# still follows the data through selection.
SEARCH_SEED = 7

# 1100 samples: 880 fit rows, so every epoch runs one full 512-row batch and
# one partial batch, and validation forwards 220 rows.
_DENSE = dict(data="dense784", rows=1100)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(name="search-dense784", command="search", **_DENSE),
        Workload(name="search-dense784-par", command="search", parallel=True, **_DENSE),
        Workload(
            name="search-rul-small",
            command="search",
            data="rul",
            units=3,
            cycles=(80, 110),
            alpha=0.99,
            batch_size=32,
            learning_rate=0.01,
        ),
        # ten folds give eleven trainings per process, so the percentiles of a run
        # rest on about a hundred of them
        Workload(name="train-kfold-dense784", command="train", epochs=4, kfold=10, **_DENSE),
    )
}


# --- input generation ----------------------------------------------------------

def _write_idx(path: Path, array: np.ndarray) -> None:
    magic = 0x0803 if array.ndim == 3 else 0x0801
    header = struct.pack(f">I{array.ndim}I", magic, *array.shape)
    path.write_bytes(header + np.ascontiguousarray(array, dtype=np.uint8).tobytes())


# Share of dense784 labels replaced by a uniformly drawn class. The images
# alone separate the classes, so the relabelled samples set the validation
# error: about 0.45 for a well-trained model. An error that large rests on
# hundreds of misclassified samples, so it moves little with the seed (the
# binomial spread over 1100 samples is about 3% of it), while a worse
# trainer still raises it.
LABEL_NOISE = 0.5


def make_dense784(out: Path, rows: int, seed: int) -> Path:
    """MNIST-shaped IDX pair: 10 class prototypes of 28x28 pixels plus noise,
    with a share of the labels drawn at random."""
    rng = np.random.default_rng([seed, 784])
    prototypes = (rng.random((10, 28, 28)) < 0.25) * rng.uniform(120, 255, (10, 28, 28))
    labels = rng.integers(0, 10, rows)
    noise = rng.normal(0.0, 70.0, (rows, 28, 28))
    images = np.clip(prototypes[labels] + noise, 0, 255).astype(np.uint8)
    labels = np.where(rng.random(rows) < LABEL_NOISE, rng.integers(0, 10, rows), labels)
    _write_idx(out / "images-idx3-ubyte", images)
    _write_idx(out / "labels-idx1-ubyte", labels.astype(np.uint8))
    manifest = out / "dense784.json"
    manifest.write_text(
        json.dumps({"format": "idx", "images": "images-idx3-ubyte", "labels": "labels-idx1-ubyte"})
    )
    return manifest


def make_rul(out: Path, w: Workload, seed: int) -> tuple[Path, int]:
    """Run-to-failure table: sensors drift quadratically towards failure, plus noise.

    Returns the manifest and the number of windows the loader will cut.
    """
    rng = np.random.default_rng([seed, 4])
    drift = rng.normal(0.0, 1.0, RUL_SENSORS)
    lines = []
    windows = 0
    # unit lengths are spread evenly, not drawn, so every seed yields the same
    # number of windows and the same training work
    lengths = np.linspace(w.cycles[0], w.cycles[1], w.units).round().astype(int)
    for unit, T in enumerate(lengths, start=1):
        windows += T - RUL_WINDOW + 1
        wear = (np.arange(1, T + 1) / T) ** 2
        readings = 5.0 + np.outer(wear, drift) + rng.normal(0.0, 0.15, (T, RUL_SENSORS))
        for row in readings:
            lines.append(f"{unit} " + " ".join(f"{v:.5f}" for v in row))
    table = out / "rul.txt"
    table.write_text("\n".join(lines) + "\n")
    manifest = out / "rul.json"
    manifest.write_text(
        json.dumps(
            {
                "format": "rul",
                "path": table.name,
                "unit_column": 0,
                "window": RUL_WINDOW,
                "stride": 1,
                "early_rul": RUL_EARLY_RUL,
                "normalization": "minmax",
            }
        )
    )
    return manifest, windows


def feature_count(w: Workload) -> int:
    return 784 if w.data == "dense784" else RUL_WINDOW * RUL_SENSORS


def search_config(w: Workload) -> dict:
    classification = w.data == "dense784"
    return {
        "problem": "classification" if classification else "regression",
        "arch": "mlp",
        "input_shape": feature_count(w),
        "output_size": 10 if classification else 1,
        "alpha": w.alpha,
        "more_layers_prob": MORE_LAYERS_PROB,
        "population_size": POPULATION,
        "tournament_size": 4,
        "convergence_pairs": NO_RESTART_PAIRS,
        "train_epochs": TRAIN_EPOCHS,
        "max_generations": MAX_GENERATIONS,
        "experiments": w.experiments,
        "seed": SEARCH_SEED,
    }


def prepare(w: Workload, out: Path, seed: int) -> tuple[list[str], int]:
    """Write every input of ``w`` under ``out``.

    Returns the CLI arguments after ``evonas``, with a ``{run_dir}``
    placeholder for the per-run output, and the dataset's sample count.
    """
    out.mkdir(parents=True, exist_ok=True)
    if w.data == "dense784":
        manifest, samples = make_dense784(out, w.rows, seed), w.rows
    else:
        manifest, samples = make_rul(out, w, seed)
    common = ["--batch-size", str(w.batch_size), "--learning-rate", str(w.learning_rate)]
    if w.command == "search":
        config = out / "search.json"
        config.write_text(json.dumps(search_config(w), indent=2))
        return ["search", str(config), str(manifest), "--out", "{run_dir}", *common], samples
    return [
        "train",
        str(KFOLD_GENOTYPE),
        str(manifest),
        "--epochs",
        str(w.epochs),
        "--kfold",
        str(w.kfold),
        "--out-model",
        "{run_dir}/model",
        "--seed",
        str(seed),
        *common,
    ], samples
