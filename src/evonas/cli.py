"""Command-line front end: run searches, retrain winners, inspect genotypes.

Exit codes are a stable contract: 0 success, 2 configuration error,
3 data error, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import data as data_mod
from . import evalpool, evolution, rundir, trainer
from .genotype import (
    Genotype,
    LayerKind,
    ParseError,
    ProblemKind,
    count_params,
    parse,
)
from .rundir import write_run_record

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _parse_input_dim(text: str) -> int:
    """``--input-dim``, the first layer's fan-in: a positive feature count."""
    try:
        dim = int(text)
    except ValueError:
        dim = 0
    if dim < 1:
        raise evolution.ConfigError(f"--input-dim must be a positive integer, got {text!r}")
    return dim


def _load_genotype_file(path) -> Genotype:
    path = Path(path)
    if not path.is_file():
        raise data_mod.DataError(f"no such file: {path}")
    return parse(path.read_text())


def _training_flags(args) -> dict:
    """The training flags given on the command line, by their config key."""
    return {k: v for k in ("seed", "learning_rate", "batch_size") if (v := getattr(args, k)) is not None}


def _out_file(flag: str, path: str) -> Path:
    """An output file flag's path (or base path), refused if it names a directory
    or its directory does not exist."""
    out = Path(path)
    if path.endswith(("/", os.sep)) or out.is_dir():
        raise evolution.ConfigError(f"{flag} {path}: a directory, not a file")
    if not out.parent.is_dir():
        raise evolution.ConfigError(f"{flag} {path}: no such directory {out.parent}")
    return out


def _check_problem(
    dataset: data_mod.Dataset, source: str, problem: ProblemKind, width_name: str, width: int
) -> None:
    """The config or genotype (``source``) must state the data's problem, and a
    classifier's output layer needs a unit for every label in the data."""
    if dataset.problem != problem:
        raise evolution.ConfigError(
            f"{source} problem {problem.value!r} does not match dataset "
            f"problem {dataset.problem.value!r}"
        )
    top_label = int(dataset.targets.max(initial=0))
    if problem == ProblemKind.CLASSIFICATION and top_label >= width:
        raise evolution.ConfigError(
            f"{source} {width_name} {width} is too small for dataset label {top_label}"
        )


# --- search -------------------------------------------------------------------

def cmd_search(args) -> int:
    if args.workers < 1:
        raise evolution.ConfigError(f"--workers must be at least 1, got {args.workers}")
    config_path = Path(args.config)
    if not config_path.is_file():
        raise evolution.ConfigError(f"no such config file: {config_path}")
    try:
        config_doc = json.loads(config_path.read_text())
    except json.JSONDecodeError as exc:
        raise evolution.ConfigError(f"{config_path}: not valid JSON: {exc}") from None
    # a flag overrides its config key and is checked like it, before any data loads
    cfg = replace(evolution.SearchConfig.from_dict(config_doc), **_training_flags(args))
    out_dir = rundir.checked_path("--out", args.out)

    dataset = data_mod.load_manifest(args.data)
    _check_problem(dataset, "config", cfg.problem, "output_size", cfg.output_size)
    if dataset.feature_count != cfg.input_shape:
        raise evolution.ConfigError(
            f"config input_shape is {cfg.input_shape} features, dataset has {dataset.feature_count}"
        )
    evaluator = trainer.make_evaluator(dataset, cfg.cv_ratio, cfg.train_config())

    trace_path = out_dir / rundir.TRACE if args.trace else None
    evaluate = functools.partial(  # evolution's name, not evalpool's: the benchmark rebinds it
        evolution.evaluate_all, evaluator=evaluator, worker_count=args.workers, trace_path=trace_path
    )
    with rundir.start(out_dir, cfg) as runs:
        writer = csv.writer(runs)

        def on_generation(rec: evolution.GenerationRecord) -> None:
            for record in rundir.run_records(rec):
                write_run_record(writer, record)  # this module's name: the benchmark times each row
            runs.flush()  # each generation's rows reach runs.csv before the next one runs

        archive = evolution.run_search(cfg, evaluate, on_generation)
    winner = archive.entries[archive.winner]
    rundir.finish(out_dir, archive)
    print(
        f"search done: {len(archive.entries)} experiment(s), winner perf "
        f"{winner.perf:.4f}, {winner.size} parameters, cost {winner.cost:.4f}"
    )
    blas = evalpool.blas_threads(args.workers)
    print(
        f"evaluation: {args.workers} worker(s) x {'unmanaged' if blas is None else blas} "
        f"BLAS thread(s) on {evalpool.usable_cores()} core(s), "
        f"{trainer.SCORE_DTYPE.__name__} evaluations"
    )
    print(f"artifacts in {out_dir}")
    return EXIT_OK


# --- train --------------------------------------------------------------------

def cmd_train(args) -> int:
    g = _load_genotype_file(args.genotype)
    cfg = trainer.TrainConfig(args.epochs, **_training_flags(args))
    if args.kfold is not None and args.kfold < 2:
        raise evolution.ConfigError(f"--kfold needs at least 2 folds, got {args.kfold}")
    if args.out_model:
        _out_file("--out-model", args.out_model)
    dataset = data_mod.load_manifest(args.data)
    _check_problem(dataset, "genotype", g.problem, "output width", g.layers[-1].units)
    metric_name = trainer.METRIC_NAME[dataset.problem]
    if args.kfold:
        mean, std = trainer.kfold_evaluate(g, dataset, args.kfold, cfg)
        print(f"{args.kfold}-fold {metric_name}: {mean:.4f} +/- {std:.4f}")

    train_rows, val_rows = data_mod.split(dataset, evolution.SearchConfig.cv_ratio, cfg.seed)
    net, report = trainer._fit(g, dataset, train_rows, val_rows, cfg)
    print(f"validation {metric_name}: {report.value:.4f} ({cfg.epochs} epochs)")

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
        rows.append((gene.kind.label(), neurons, act, drop))
    return rows


def cmd_inspect(args) -> int:
    g = _load_genotype_file(args.genotype)
    dim = None if args.input_dim is None else _parse_input_dim(args.input_dim)
    rows = _inspect_rows(g)
    header = ("Layer type", "Neurons", "Activation", "Dropout")
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(4)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    print(fmt.format(*("-" * w for w in widths)))
    for row in rows:
        print(fmt.format(*row))
    if dim is not None:
        total = count_params(g, dim)
        print(f"Total trainable parameters (input {dim}): {total}")
    return EXIT_OK


# --- plot data ------------------------------------------------------------------

def cmd_plotdata(args) -> int:
    out_path = _out_file("--out", args.out)
    root = Path(args.runs_dir)
    if not root.is_dir():
        raise data_mod.DataError(f"no such directory: {root}")

    rows = []  # (params, error, alpha, experiment, cost)
    for run_dir in rundir.discover(root):
        cfg, records = rundir.read(run_dir)
        alpha = float(cfg.alpha)  # a config's "alpha": 1 plots as 1.0
        for rec in records:
            error = evolution.metric_error(rec.perf, cfg.problem)
            rows.append((rec.params, error, alpha, rec.experiment, rec.cost))

    if args.alpha is not None:
        rows = [r for r in rows if abs(r[2] - args.alpha) < 1e-9]

    best_index: dict[float, int] = {}
    for i, row in enumerate(rows):
        alpha = row[2]
        if alpha not in best_index or row[4] < rows[best_index[alpha]][4]:
            best_index[alpha] = i
    best_set = set(best_index.values())

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
    training = argparse.ArgumentParser(add_help=False)  # the flags of search and train
    for flag, kind in (("--seed", int), ("--learning-rate", float), ("--batch-size", int)):
        training.add_argument(flag, type=kind, help="search: overrides the config key of this name")

    p = sub.add_parser("search", parents=[training], help="run the evolutionary search")
    p.add_argument("config", help="search configuration JSON")
    p.add_argument("data", help="dataset manifest JSON")
    p.add_argument("--out", required=True, help="output directory for run artifacts")
    p.add_argument("--workers", type=int, default=1, help="parallel evaluation workers")
    p.add_argument("--trace", action="store_true", help="write a JSONL evaluation trace")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", parents=[training], help="fully train a genotype and export the model")
    p.add_argument("genotype", help="genotype JSON file")
    p.add_argument("data", help="dataset manifest JSON")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--kfold", type=int, default=None, help="also report k-fold metrics")
    p.add_argument("--out-model", default=None, help="base path for the exported model")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("inspect", help="print a genotype's layer table")
    p.add_argument("genotype", help="genotype JSON file")
    p.add_argument("--input-dim", default=None, help="input feature count (e.g. 784)")
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
    evalpool.set_heap_policy()
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
