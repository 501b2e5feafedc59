"""The run directory of a search, the one place its files are named, written and read.

``config.json`` holds the effective :class:`~evonas.evolution.SearchConfig`,
``runs.csv`` one :class:`RunRecord` per evaluation (flushed once per
generation), ``archive.json`` each experiment's best and the winner, and
``best.json`` the winner's genotype. Each JSON file is written whole or not
at all. With ``--trace``, :mod:`evonas.evalpool` appends to ``trace.jsonl``.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import get_type_hints

from . import genotype
from .data import DataError
from .evolution import Archive, ConfigError, GenerationRecord, SearchConfig

CONFIG = "config.json"
RUNS = "runs.csv"
ARCHIVE = "archive.json"
BEST = "best.json"
TRACE = "trace.jsonl"


@dataclass(frozen=True)
class RunRecord:
    """One evaluation of one candidate during a search.

    This is the ``runs.csv`` schema: one row per record, one column per
    field, in field order, each cell read back with the field's type.
    """

    experiment: int
    generation: int
    index: int
    genotype: str
    perf: float
    params: int
    cost: float
    millis: int


RUNS_CSV_FIELDS = tuple(f.name for f in fields(RunRecord))


def write_run_record(writer, record: RunRecord) -> None:
    writer.writerow(astuple(record))


def run_records(rec: GenerationRecord):
    """The ``runs.csv`` records of one evaluated generation, in job order."""
    for ind, r in zip(rec.individuals, rec.results):
        # looked up in genotype at each call: the benchmark times it there
        row = (rec.experiment, rec.generation, r.job_id[2], genotype.serialize(ind.genotype))
        yield RunRecord(*row, ind.perf, ind.size, ind.cost, r.millis)


def read_runs(path) -> list[RunRecord]:
    """Parse a runs.csv produced by the search command."""
    types = list(get_type_hints(RunRecord).values())  # field order
    out = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != RUNS_CSV_FIELDS:
            raise DataError(f"{path}: not a runs.csv file")
        for row in reader:
            if len(row) != len(types):
                raise DataError(
                    f"{path}: line {reader.line_num} has {len(row)} cells, expected {len(types)}"
                )
            try:
                out.append(RunRecord(*(t(cell) for t, cell in zip(types, row))))
            except ValueError as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return out


def _write_json(path: Path, doc) -> None:
    """Write ``doc`` to ``path`` whole or not at all: into a temporary file
    beside it, then renamed over it."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(json.dumps(doc, indent=2))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def checked_path(flag: str, path: str) -> Path:
    """A run directory flag's path, refused unless it is a directory or can be made one.
    Nothing is created, so a search checks it before any data loads."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{flag} {path}: {existing} is not a directory")
    return path


def start(path: Path, cfg: SearchConfig):
    """Open a search's run directory: remove an earlier run's artifacts, write
    ``config.json``, and return ``runs.csv`` open for writing, its header written."""
    path.mkdir(parents=True, exist_ok=True)
    for name in (ARCHIVE, BEST, TRACE):
        (path / name).unlink(missing_ok=True)
    _write_json(path / CONFIG, cfg.to_dict())
    runs = (path / RUNS).open("w", newline="")
    csv.writer(runs).writerow(RUNS_CSV_FIELDS)
    runs.flush()
    return runs


def finish(path: Path, archive: Archive) -> None:
    """Write ``archive.json``, then ``best.json``: the archive's entries and its winner."""
    entries = [
        {
            "experiment": i,
            "genotype": genotype.to_dict(e.genotype),
            "perf": e.perf,
            "params": e.size,
            "cost": e.cost,
            "eval_seed": e.eval_seed,
        }
        for i, e in enumerate(archive.entries)
    ]
    _write_json(path / ARCHIVE, {"entries": entries, "winner": archive.winner})
    _write_json(path / BEST, genotype.to_dict(archive.entries[archive.winner].genotype))


def discover(root: Path) -> list[Path]:
    """``root`` if it is a run directory, else the run directories in it, sorted;
    none is a data error."""
    if (root / RUNS).exists():
        return [root]
    found = sorted(d for d in root.iterdir() if d.is_dir() and (d / RUNS).exists())
    if not found:
        raise DataError(f"{root}: no run directories with a {RUNS} found")
    return found


def read(run_dir: Path) -> tuple[SearchConfig, list[RunRecord]]:
    """A run directory's config and its records. The config must hold every key
    that ``search`` writes, and pass the checks ``search`` applies to its own."""
    path = run_dir / CONFIG
    if not path.exists():
        raise DataError(f"{run_dir}: missing {CONFIG} next to {RUNS}")
    try:
        doc = json.loads(path.read_text())
        missing = isinstance(doc, dict) and [f.name for f in fields(SearchConfig) if f.name not in doc]
        if missing:
            raise ConfigError(f"missing key(s): {', '.join(missing)}")
        cfg = SearchConfig.from_dict(doc)
    except ValueError as exc:  # invalid JSON or a ConfigError: the file is bad data here
        raise DataError(f"{path}: not a search config: {exc}") from None
    return cfg, read_runs(run_dir / RUNS)
