"""Correctness checks on the artifacts of one benchmarked evonas run.

A failed check raises :class:`CheckError`; the benchmark then reports the run
as incorrect and exits non-zero.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

RUNS_FIELDS = ["experiment", "generation", "index", "genotype", "perf", "params", "cost", "millis"]

FAILED_EVAL = re.compile(r"evaluation \([^)]*\) failed")


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def failed_evaluations(stderr: str) -> int:
    """Failed evaluations, counted from the evaluation pool's warnings.

    runs.csv gives a failed evaluation an imputed worst-case perf, so the
    warning is the only place a failure shows.
    """
    return len(FAILED_EVAL.findall(stderr))


def read_runs(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        require(reader.fieldnames == RUNS_FIELDS, f"{path}: header {reader.fieldnames}")
        return list(reader)


def check_search(run_dir: Path, evonas, input_dim: int, evaluations: int) -> dict:
    """Check runs.csv, archive.json and best.json of one search.

    Returns the rows without ``millis`` (which must not depend on the worker
    count), the winner's cost, and the number of evaluations whose genotype
    was already evaluated earlier in the same experiment.
    """
    rows = read_runs(run_dir / "runs.csv")
    require(
        len(rows) == evaluations,
        f"runs.csv has {len(rows)} rows for {evaluations} evaluations",
    )
    seen: set[tuple[str, str]] = set()
    repeats = 0
    for n, row in enumerate(rows, start=2):
        try:
            g = evonas.parse(row["genotype"])
        except evonas.ParseError as exc:
            raise CheckError(f"runs.csv line {n}: {exc}") from None
        require(evonas.validate(g).ok, f"runs.csv line {n}: genotype fails validate")
        expected = evonas.count_params(g, input_dim)
        require(
            int(row["params"]) == expected,
            f"runs.csv line {n}: params {row['params']} != count_params {expected}",
        )
        require(math.isfinite(float(row["cost"])), f"runs.csv line {n}: cost {row['cost']}")
        key = (row["experiment"], row["genotype"])
        repeats += key in seen
        seen.add(key)

    archive = json.loads((run_dir / "archive.json").read_text())
    entries = archive["entries"]
    require(entries, "archive.json has no entries")
    costs = [e["cost"] for e in entries]
    best = min(range(len(costs)), key=costs.__getitem__)
    require(
        archive["winner"] == best,
        f"archive.json names entry {archive['winner']}, the minimum-cost entry is {best}",
    )
    best_doc = json.loads((run_dir / "best.json").read_text())
    require(best_doc == entries[best]["genotype"], "best.json differs from the archive winner")
    return {
        "rows": [tuple(row[f] for f in RUNS_FIELDS if f != "millis") for row in rows],
        "millis": [int(row["millis"]) for row in rows],
        "winner_cost": float(costs[best]),
        "repeats": repeats,
    }


_KFOLD_LINE = re.compile(r"^(\d+)-fold accuracy: ([0-9.]+) \+/- ([0-9.]+)$", re.M)


def check_train(run_dir: Path, stdout: str, evonas, genotype_path: Path, input_dim: int, epochs: int, k: int) -> dict:
    """Check a ``train --kfold --out-model`` run.

    Its ``winner_cost`` is the k-fold validation error, 1 - the k-fold
    accuracy the command prints.
    """
    match = _KFOLD_LINE.search(stdout)
    require(match is not None and int(match.group(1)) == k, f"no {k}-fold line in output: {stdout!r}")
    accuracy = float(match.group(2))
    require(0.0 <= accuracy <= 1.0, f"k-fold accuracy {accuracy} outside [0, 1]")

    g = evonas.parse(genotype_path.read_text())
    params = evonas.count_params(g, input_dim)
    header = json.loads((run_dir / "model.json").read_text())
    require(header["param_count"] == params, f"model.json param_count {header['param_count']} != {params}")
    require(evonas.genotype.from_dict(header["genotype"]) == g, "model.json holds another genotype")
    history = header["loss_history"]
    require(len(history) == epochs, f"loss_history has {len(history)} epochs, expected {epochs}")
    require(all(math.isfinite(v) for v in history), "loss_history holds a non-finite loss")
    blob = (run_dir / "model.bin").stat().st_size
    require(blob == 4 * params, f"model.bin has {blob} bytes for {params} float32 parameters")
    return {"rows": [], "millis": [], "winner_cost": 1.0 - accuracy, "repeats": 0}
