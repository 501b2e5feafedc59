"""Command-line front end: run searches, retrain winners, inspect genotypes.

Exit codes are a stable contract: 0 success, 2 configuration error,
3 data error, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

from . import data as data_mod
from . import evalpool, evolution, trainer
from .genotype import (
    Genotype,
    LayerKind,
    ParseError,
    ProblemKind,
    count_params,
    parse,
    serialize,
    to_dict,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

RUNS_CSV_FIELDS = ("experiment", "generation", "index", "genotype", "perf", "params", "cost", "millis")


@dataclass(frozen=True)
class RunRecord:
    """One evaluation of one candidate during a search."""

    experiment: int
    generation: int
    index: int
    genotype: str
    perf: float
    params: int
    cost: float
    millis: int


def write_runs_header(fh) -> csv.writer:
    writer = csv.writer(fh)
    writer.writerow(RUNS_CSV_FIELDS)
    return writer


def write_run_record(writer, record: RunRecord) -> None:
    writer.writerow(
        [
            record.experiment,
            record.generation,
            record.index,
            record.genotype,
            record.perf,
            record.params,
            record.cost,
            record.millis,
        ]
    )


def read_runs(path) -> list[RunRecord]:
    """Parse a runs.csv produced by the search command."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != RUNS_CSV_FIELDS:
        raise data_mod.DataError(f"{path}: not a runs.csv file")
    out = []
    for row in rows[1:]:
        out.append(
            RunRecord(
                experiment=int(row[0]),
                generation=int(row[1]),
                index=int(row[2]),
                genotype=row[3],
                perf=float(row[4]),
                params=int(row[5]),
                cost=float(row[6]),
                millis=int(row[7]),
            )
        )
    return out


def _parse_input_dim(text: str):
    parts = [p for p in text.replace("x", ",").split(",") if p]
    values = [int(p) for p in parts]
    return values[0] if len(values) == 1 else tuple(values)


def _load_genotype_file(path) -> Genotype:
    return parse(Path(path).read_text())


# --- search -------------------------------------------------------------------

def cmd_search(args) -> int:
    try:
        workers = evalpool.resolve_worker_count(args.workers)
    except ValueError as exc:
        raise evolution.ConfigError(str(exc)) from None
    try:
        config_doc = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise evolution.ConfigError(f"{args.config}: not valid JSON: {exc}") from None
    except FileNotFoundError:
        raise evolution.ConfigError(f"no such config file: {args.config}") from None
    cfg = evolution.SearchConfig.from_dict(config_doc)
    if args.seed is not None:
        cfg.seed = args.seed

    dataset = data_mod.load_manifest(args.data)
    if dataset.problem != cfg.problem:
        raise evolution.ConfigError(
            f"config problem {cfg.problem.value!r} does not match dataset "
            f"problem {dataset.problem.value!r}"
        )
    flat_input = (
        cfg.input_shape
        if isinstance(cfg.input_shape, int)
        else int(cfg.input_shape[0] * cfg.input_shape[1] * cfg.input_shape[2])
    )
    if dataset.feature_count != flat_input:
        raise evolution.ConfigError(
            f"config input_shape implies {flat_input} features, dataset has {dataset.feature_count}"
        )

    # builds and checks the training settings: a bad flag stops here, not per evaluation
    evaluator = trainer.make_evaluator(
        dataset,
        cfg.problem,
        flat_input,
        cfg.cv_ratio,
        cfg.train_epochs,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        split_seed=cfg.seed,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2))
    trace_path = out_dir / "trace.jsonl" if args.trace else None
    if trace_path is not None and trace_path.exists():
        trace_path.unlink()  # the trace appends; start each run clean

    runs_path = out_dir / "runs.csv"
    with runs_path.open("w", newline="") as fh:
        writer = write_runs_header(fh)

        def on_eval(exp, gen, idx, ind, millis):
            write_run_record(
                writer,
                RunRecord(exp, gen, idx, serialize(ind.genotype), ind.perf, ind.size, ind.cost, millis),
            )

        archive = evolution.run_search(
            cfg, evaluator, workers=workers, on_eval=on_eval, trace_path=trace_path
        )
    winner = evolution.finalize(archive, cfg)

    archive_doc = {
        "entries": [
            {
                "experiment": i,
                "genotype": to_dict(e.genotype),
                "perf": e.perf,
                "params": e.size,
                "cost": e.cost,
                "eval_seed": e.eval_seed,
            }
            for i, e in enumerate(archive.entries)
        ],
        "winner": archive.winner,
    }
    (out_dir / "archive.json").write_text(json.dumps(archive_doc, indent=2))
    (out_dir / "best.json").write_text(json.dumps(to_dict(winner.genotype), indent=2))
    print(
        f"search done: {len(archive.entries)} experiment(s), winner perf "
        f"{winner.perf:.4f}, {winner.size} parameters, cost {winner.cost:.4f}"
    )
    blas = evalpool.blas_threads(workers)
    print(
        f"evaluation: {workers} worker(s) x {'unmanaged' if blas is None else blas} "
        f"BLAS thread(s) on {evalpool.usable_cores()} core(s)"
    )
    print(f"artifacts in {out_dir}")
    return EXIT_OK


# --- train --------------------------------------------------------------------

def cmd_train(args) -> int:
    g = _load_genotype_file(args.genotype)
    cfg = trainer.TrainConfig.for_problem(
        g.problem,
        args.epochs,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        seed=args.seed if args.seed is not None else 0,
    )
    if args.kfold is not None and args.kfold < 2:
        raise evolution.ConfigError(f"--kfold needs at least 2 folds, got {args.kfold}")
    dataset = data_mod.load_manifest(args.data)
    if dataset.problem != g.problem:
        raise evolution.ConfigError(
            f"genotype problem {g.problem.value!r} does not match dataset "
            f"problem {dataset.problem.value!r}"
        )
    if args.kfold:
        mean, std = trainer.kfold_evaluate(g, dataset, args.kfold, cfg)
        print(f"{args.kfold}-fold {cfg.metric.value}: {mean:.4f} +/- {std:.4f}")

    train_ds, val_ds = data_mod.split(dataset, 0.2, cfg.seed)
    net = trainer.materialize(g, dataset.feature_count, cfg.seed)
    report = trainer.train(net, (train_ds, val_ds), cfg)
    print(f"validation {cfg.metric.value}: {report.value:.4f} ({cfg.epochs} epochs)")

    if args.out_model:
        json_path, bin_path = trainer.save_model(net, g, report.loss_curve, args.out_model)
        print(f"model written to {json_path} / {bin_path}")
    return EXIT_OK


# --- inspect ------------------------------------------------------------------

def _inspect_rows(g: Genotype) -> list[tuple[str, str, str, str]]:
    rows = []
    for gene in g.layers:
        neurons = str(gene.units) if gene.units else "n/a"
        act = gene.activation.label() if gene.activation is not None else "n/a"
        drop = f"{gene.dropout_rate:g}" if gene.kind == LayerKind.DROPOUT else "n/a"
        if gene.kind == LayerKind.CONVOLUTIONAL:
            neurons = f"{gene.filters} filters ({gene.kernel_size}x{gene.kernel_size}/{gene.kernel_stride})"
        elif gene.kind == LayerKind.POOLING:
            neurons = f"pool {gene.pool_size}"
        rows.append((gene.kind.label(), neurons, act, drop))
    return rows


def cmd_inspect(args) -> int:
    g = _load_genotype_file(args.genotype)
    rows = _inspect_rows(g)
    header = ("Layer type", "Neurons", "Activation", "Dropout")
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(4)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    print(fmt.format(*("-" * w for w in widths)))
    for row in rows:
        print(fmt.format(*row))
    if args.input_dim is not None:
        dim = _parse_input_dim(args.input_dim)
        total = count_params(g, dim)
        print(f"Total trainable parameters (input {args.input_dim}): {total}")
    return EXIT_OK


# --- plot data ------------------------------------------------------------------

def _discover_run_dirs(root: Path) -> list[Path]:
    if (root / "runs.csv").exists():
        return [root]
    return sorted(d for d in root.iterdir() if d.is_dir() and (d / "runs.csv").exists())


def cmd_plotdata(args) -> int:
    root = Path(args.runs_dir)
    if not root.exists():
        raise data_mod.DataError(f"no such directory: {root}")
    run_dirs = _discover_run_dirs(root)
    if not run_dirs:
        raise data_mod.DataError(f"{root}: no run directories with a runs.csv found")

    rows = []  # (params, error, alpha, experiment, cost)
    for run_dir in run_dirs:
        config_path = run_dir / "config.json"
        if not config_path.exists():
            raise data_mod.DataError(f"{run_dir}: missing config.json next to runs.csv")
        cfg_doc = json.loads(config_path.read_text())
        alpha = float(cfg_doc["alpha"])
        classification = cfg_doc["problem"] == ProblemKind.CLASSIFICATION.value
        for rec in read_runs(run_dir / "runs.csv"):
            error = 1.0 - rec.perf if classification else rec.perf
            rows.append((rec.params, error, alpha, rec.experiment, rec.cost))

    if args.alpha is not None:
        rows = [r for r in rows if abs(r[2] - args.alpha) < 1e-9]

    best_index: dict[float, int] = {}
    for i, row in enumerate(rows):
        alpha = row[2]
        if alpha not in best_index or row[4] < rows[best_index[alpha]][4]:
            best_index[alpha] = i
    best_set = set(best_index.values())

    out_path = Path(args.out)
    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["params", "error", "alpha", "experiment", "best"])
        for i, (params, error, alpha, experiment, _) in enumerate(rows):
            writer.writerow([params, error, alpha, experiment, 1 if i in best_set else 0])
    print(f"{len(rows)} rows over {len(best_index)} alpha group(s) written to {out_path}")
    return EXIT_OK


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evonas",
        description="Evolutionary search for compact dense neural networks.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="enable info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run the evolutionary search")
    p.add_argument("config", help="search configuration JSON")
    p.add_argument("data", help="dataset manifest JSON")
    p.add_argument("--out", required=True, help="output directory for run artifacts")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--workers", type=int, default=None, help="parallel evaluation workers")
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--trace", action="store_true", help="write a JSONL evaluation trace")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="fully train a genotype and export the model")
    p.add_argument("genotype", help="genotype JSON file")
    p.add_argument("data", help="dataset manifest JSON")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--kfold", type=int, default=None, help="also report k-fold metrics")
    p.add_argument("--out-model", default=None, help="base path for the exported model")
    p.add_argument("--learning-rate", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=512)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("inspect", help="print a genotype's layer table")
    p.add_argument("genotype", help="genotype JSON file")
    p.add_argument("--input-dim", default=None, help="input size (e.g. 784 or 28,28,1)")
    p.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("plot-data", help="flatten run records into plot-ready CSV")
    p.add_argument("runs_dir", help="a run directory or a directory of run directories")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--alpha", type=float, default=None, help="keep only this alpha group")
    p.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (evolution.ConfigError, ParseError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (data_mod.DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
