#!/usr/bin/env python3
"""The evonas benchmark: run a workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout: it imports evonas from ``src/`` there and
writes only under ``perfbench/_work/``. One closed-loop client starts one
fresh ``evonas`` process at a time (``perfbench/child.py``), again and again
until the next one would end more than half a process after ``--seconds``,
and reports medians over those processes.
All inputs are generated from ``--seed`` before the first process starts.
BLAS threads are left at the machine default; the settings seen are printed
with every result.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced processes and prints the per-layer metrics of the traced
ones, and the tracing overhead (traced minus untraced wall time). ``all``
runs every workload both ways. The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` evaluations, and
``metrics``. A failed output check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
CHILD_TIMEOUT_S = 60  # one process takes seconds; a hung one is killed

sys.path.insert(0, str(HERE))

from checks import CheckError, check_search, check_train, failed_evaluations, require  # noqa: E402
from workloads import (  # noqa: E402
    KFOLD_GENOTYPE,
    TRAIN_EPOCHS,
    WORKLOADS,
    Workload,
    feature_count,
    prepare,
    search_config,
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "eval_p50_ms": "ms",
    "eval_p90_ms": "ms",
    "train_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "winner_cost": "cost",
}

# Per-layer metrics of the JSON result: those every workload produces, none
# of them 0. Figures a workload cannot produce (evalpool and GA figures on
# train, k-fold and model export on search), figures that can read 0
# (evolution.repeat_share) and the tracing overhead (a difference of two
# noisy walls) are printed in the full table only.
PER_LAYER = {
    "trainer.loss_and_gradients.ms": "ms",
    "trainer.loss_and_gradients.calls": "count",
    "trainer.optimizer_step.ms": "ms",
    "trainer.optimizer_step.calls": "count",
    "trainer.materialize.ms": "ms",
    "trainer.train.self_ms": "ms",
    "trainer.train.calls": "count",
    "trainer.forward.ms": "ms",
    "trainer.metric.ms": "ms",
    "trainer.gflop": "GFLOP",
    "trainer.gflops_per_s": "GFLOP/s",
    "genotype.validate.ms": "ms",
    "genotype.validate.calls": "count",
    "genotype.validate.per_eval": "count",
    "data.load_manifest.ms": "ms",
    "data.split.ms": "ms",
    "data.take.ms": "ms",
    "data.take.bytes": "bytes",
    "cli.command.self_ms": "ms",
    "cli.artifact_bytes": "bytes",
    "trace.unattributed_after_setup_ms": "ms",
}

# Counters each kind of workload must exercise; zero means a wrapper missed
# the name its consumer looks up.
MUST_RUN = {
    "any": (
        "data.load_manifest", "data.split", "data.take", "genotype.validate",
        "trainer.materialize", "trainer.train", "trainer.loss_and_gradients",
        "trainer.optimizer_step", "trainer.forward", "trainer.metric",
    ),
    "search": (
        "cli.cmd_search", "cli.write_run_record", "evalpool.evaluate_all",
        "evolution.run_search", "evolution.random_genotype", "evolution.tournament_select",
        "evolution.crossover", "evolution.mutate", "evolution.compute_costs",
        "evolution.nominal_convergence", "genotype.serialize", "genotype.distance",
        "genotype.count_params",
    ),
    "train": ("cli.cmd_train", "trainer.kfold_evaluate", "trainer.save_model", "data.kfold"),
}


# --- environment ------------------------------------------------------------------

def environment(evonas, workers: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():  # git would otherwise search the parent directories
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except OSError:
            commit = "unknown (git not found)"
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    net = evonas.materialize(evonas.parse(KFOLD_GENOTYPE.read_text()), 784, 0)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "EVONAS_WORKERS")
        },
        "workers": workers,
        "dtype": str(net.parameters()[0].dtype),
        "python": platform.python_version(),
        "commit": commit,
        "src_lines": src_lines,
    }


# --- one process --------------------------------------------------------------------

def run_process(w: Workload, argv: list[str], work: Path, workers: int, traced: bool) -> dict:
    """Run one fresh evonas process; return its timings and raw outputs."""
    run_dir = work / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    probe = work / "probe.json"
    probe.unlink(missing_ok=True)
    args = [a.replace("{run_dir}", str(run_dir)) for a in argv]
    run_dir.mkdir(parents=True)
    if w.command == "search":
        args += ["--workers", str(workers)]
    cmd = [sys.executable, str(HERE / "child.py"), str(probe), "1" if traced else "0", "--", *args]
    with (work / "stdout.txt").open("w") as out, (work / "stderr.txt").open("w") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    doc = json.loads(probe.read_text()) if probe.exists() else {}
    return {
        "exit_code": proc.returncode,
        "wall_s": ended - spawned,
        "setup_s": doc["setup_at"] - spawned if doc.get("setup_at") else math.nan,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": (work / "stdout.txt").read_text(),
        "stderr": (work / "stderr.txt").read_text(),
        "probe": doc,
        "run_dir": run_dir,
        "traced": traced,
    }


def train_rows(w: Workload, samples: int) -> int:
    """Training rows x epochs one process runs, summed over evaluations or folds."""
    fit_rows = samples - round(0.2 * samples)  # search cv_ratio and train's final split hold out 20%
    if w.command == "search":
        return w.evaluations * fit_rows * TRAIN_EPOCHS
    return ((w.kfold - 1) * samples + fit_rows) * w.epochs


def check_process(w: Workload, p: dict, evonas, tally: dict) -> dict:
    """Check one process's outputs; return the parts the metrics need.

    ``tally`` counts attempted and failed evaluations, a process that exits
    non-zero failing all of its own. A search's evaluations are its runs.csv
    rows and their times the rows' ``millis``; a train command's are its
    ``trainer.train`` calls, timed in the process.
    """
    expected = w.evaluations
    tally["attempted"] += expected
    if p["exit_code"] != 0:
        tally["failed"] += expected
        raise CheckError(f"{w.name}: evonas exited with {p['exit_code']}: {p['stderr'][-2000:]}")
    tally["failed"] += failed_evaluations(p["stderr"])
    probe = p["probe"]
    require(probe.get("setup_at") is not None, f"{w.name}: the process never started an evaluation")
    if w.command == "search":
        out = check_search(p["run_dir"], evonas, feature_count(w), expected)
        calls = probe["evaluator_calls"]
        require(calls <= expected, f"{w.name}: {calls} evaluator calls for {expected} runs.csv rows")
        out["eval_ms"] = out["millis"]
    else:
        out = check_train(
            p["run_dir"], p["stdout"], evonas, KFOLD_GENOTYPE, feature_count(w), w.epochs, w.kfold
        )
        out["eval_ms"] = probe["train_ms"]
        require(
            1 <= len(out["eval_ms"]) <= expected,
            f"{w.name}: {len(out['eval_ms'])} trainer.train calls for {expected} trainings",
        )
    out["evaluations"] = expected
    out["artifact_bytes"] = sum(f.stat().st_size for f in p["run_dir"].rglob("*") if f.is_file())
    return out


# --- metrics --------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: ``q`` of the values are at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def whole_ms_percentile(millis: list[int], q: float) -> float:
    """Percentile of timings truncated to whole ms, as for grouped data.

    A value ``m`` stands for a time in ``[m, m + 1)``; the percentile
    interpolates within that interval by rank, so it does not snap to whole
    milliseconds.
    """
    ordered = sorted(millis)
    rank = q * len(ordered)
    m = ordered[min(len(ordered) - 1, math.floor(rank))]
    below = bisect.bisect_left(ordered, m)
    at = bisect.bisect_right(ordered, m) - below
    return m + (rank - below) / at


def end_to_end(w: Workload, runs: list[dict], rows_per_process: int) -> tuple[dict, dict]:
    evals = [x for r in runs for x in r["out"]["eval_ms"]]
    per_run = runs[0]["out"]["evaluations"]
    pct = whole_ms_percentile if w.command == "search" else percentile
    source = "runs.csv millis" if w.command == "search" else "trainer.train calls"
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "evals_per_s": statistics.median(per_run / (r["wall_s"] - r["setup_s"]) for r in runs),
        "eval_p50_ms": pct(evals, 0.5),
        "eval_p90_ms": pct(evals, 0.9),
        "train_rows_per_s": statistics.median(rows_per_process / (r["wall_s"] - r["setup_s"]) for r in runs),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "winner_cost": runs[0]["out"]["winner_cost"],
    }
    beyond = len(evals) - math.ceil(0.9 * len(evals))
    notes = {
        "setup_s": f"median of {len(runs)} processes",
        "wall_s": f"median of {len(runs)} processes",
        "evals_per_s": f"{per_run} evaluations / (wall_s - setup_s), median of {len(runs)}",
        "eval_p50_ms": f"{len(evals)} {source}",
        "eval_p90_ms": f"{len(evals)} {source}, {beyond} beyond p90",
        "train_rows_per_s": f"{rows_per_process} rows x epochs / (wall_s - setup_s), median of {len(runs)}",
        "peak_rss_mb": f"ru_maxrss of the evonas process, median of {len(runs)}",
        "winner_cost": "final search cost" if w.command == "search" else "k-fold val_error (1 - accuracy)",
    }
    return values, notes


def layer_metrics(w: Workload, traced: dict, untraced: list[dict]) -> dict:
    """Per-layer numbers of one traced process."""
    p, out = traced["probe"], traced["out"]
    spans = p["spans"]
    evals = out["evaluations"]
    m: dict[str, float] = {}
    for name, s in sorted(spans.items()):
        m[f"{name}.calls"] = s["calls"]
        m[f"{name}.ms"] = s["ms"]
        m[f"{name}.self_ms"] = s["self_ms"]
    for name in MUST_RUN["any"] + MUST_RUN[w.command]:
        for suffix in ("calls", "ms", "self_ms"):
            m.setdefault(f"{name}.{suffix}", 0)
    counts = p["counts"]
    m["trainer.gflop"] = counts.get("trainer.flop", 0) / 1e9
    busy_ms = m["trainer.loss_and_gradients.ms"] + m["trainer.forward.ms"]
    m["trainer.gflops_per_s"] = m["trainer.gflop"] / (busy_ms / 1e3)
    m["data.take.bytes"] = counts.get("data.take.bytes", 0)
    m["genotype.validate.per_eval"] = m["genotype.validate.calls"] / evals
    m["cli.command.self_ms"] = m[f"cli.cmd_{w.command}.self_ms"]
    m["cli.artifact_bytes"] = out["artifact_bytes"]
    if w.command == "search":
        m.update(search_metrics(w, p, out))
    m["trace.wall_ms"] = traced["wall_s"] * 1e3
    m["trace.setup_ms"] = traced["setup_s"] * 1e3
    m["trace.overhead_ms"] = (traced["wall_s"] - statistics.median(r["wall_s"] for r in untraced)) * 1e3
    m["trace.unattributed_after_setup_ms"] = (
        (traced["wall_s"] - traced["setup_s"]) * 1e3 - p["self_after_setup_ms"]
    )
    return m


def search_metrics(w: Workload, p: dict, out: dict) -> dict:
    """The GA and evaluation-pool figures of one traced search."""
    evals = out["evaluations"]
    counts = p["counts"]
    gens = p["generations"]
    # each generation's eval times: its runs.csv rows, which run_search
    # writes in order of experiment and generation
    rows = zip(out["rows"], out["millis"])
    gen_ms = [[ms for _, ms in g] for _, g in itertools.groupby(rows, key=lambda r: r[0][:2])]
    require(len(gen_ms) == len(gens), f"{w.name}: {len(gens)} evaluate_all calls, {len(gen_ms)} generations")
    eval_sum_ms = sum(map(sum, gen_ms))
    spans = p["spans"]
    return {
        "evolution.repeat_share": out["repeats"] / evals,
        "evolution.generations": len(gens),
        "evolution.converged_experiments": counts.get("evolution.converged_experiments", 0),
        "evalpool.self_ms": spans["evalpool.evaluate_all"]["self_ms"],
        "evalpool.eval_time_sum_s": eval_sum_ms / 1e3,
        "evalpool.worker_util": eval_sum_ms / sum(g["workers"] * g["ms"] for g in gens),
        "evalpool.straggler_ms": statistics.mean(max(ms) - statistics.median(ms) for ms in gen_ms),
    }


def layer_notes(m: dict, evals: int) -> dict:
    """Bases of the per-layer ratios and the definition of the computed counts."""
    after_setup_ms = m["trace.wall_ms"] - m["trace.setup_ms"]
    notes = {
        "trainer.gflop": "computed, not measured: 2 FLOP per weight per row per matmul, "
        "3 matmuls per dense layer in loss_and_gradients, 1 in forward",
        "trainer.gflops_per_s": "trainer.gflop / (loss_and_gradients.ms + forward.ms)",
        "genotype.validate.per_eval": f"{m['genotype.validate.calls']:g} validate calls / {evals} evaluations",
        "evalpool.worker_util": "summed runs.csv millis / (workers x evaluate_all time)",
        "evalpool.straggler_ms": "mean over generations of max - median runs.csv millis",
        "trace.overhead_ms": "traced wall - median untraced wall",
        "trace.unattributed_after_setup_ms": f"{m['trace.unattributed_after_setup_ms'] / after_setup_ms:.2%} "
        "of traced wall after setup is in no span of the main thread",
    }
    if "evolution.repeat_share" in m:
        notes["evolution.repeat_share"] = (
            f"{round(m['evolution.repeat_share'] * evals)} of {evals} evaluations "
            "repeat a genotype already evaluated in the same experiment"
        )
    return notes


def self_check(w: Workload, m: dict) -> None:
    for name in MUST_RUN["any"] + MUST_RUN[w.command]:
        require(m[f"{name}.calls"] > 0, f"{w.name}: traced counter {name}.calls is 0")


def median_metrics(many: list[dict]) -> dict:
    keys = sorted(set().union(*many))
    return {k: statistics.median(m.get(k, 0) for m in many) for k in keys}


# --- one workload -----------------------------------------------------------------------

def measure(w: Workload, seed: int, seconds: float, traced: bool, evonas, nproc: int, tally: dict) -> dict:
    """Generate the inputs, then run processes for ``seconds``; check every one."""
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    argv, samples = prepare(w, work / "inputs", seed)
    workers = w.worker_count(nproc)
    runs: list[dict] = []
    started = time.perf_counter()
    while True:
        p = run_process(w, argv, work, workers, traced=traced and len(runs) % 2 == 1)
        p["out"] = check_process(w, p, evonas, tally)
        require(
            not runs or p["out"]["rows"] == runs[0]["out"]["rows"],
            f"{w.name}: a second process with the same inputs wrote other runs.csv rows",
        )
        runs.append(p)
        # stop when the next process would end more than half a process late
        typical = statistics.median(r["wall_s"] for r in runs)
        if time.perf_counter() - started + typical / 2 >= seconds and (not traced or len(runs) >= 2):
            break
    if workers != 1:
        # worker invariance: one worker writes the same rows. Each experiment
        # draws from its own seed, so a one-experiment search must repeat
        # experiment 0; that keeps this check to a fifth of a search.
        ref_w = replace(w, parallel=False, experiments=1)
        config = work / "inputs" / "reference.json"
        config.write_text(json.dumps(search_config(ref_w)))
        ref = run_process(ref_w, [argv[0], str(config), *argv[2:]], work, 1, traced=False)
        ref_rows = check_process(ref_w, ref, evonas, tally)["rows"]
        require(
            ref_rows == runs[0]["out"]["rows"][: len(ref_rows)],
            f"{w.name}: rows differ between {workers} workers and 1",
        )
    shutil.rmtree(work / "run", ignore_errors=True)

    untraced = [r for r in runs if not r["traced"]]
    values, notes = end_to_end(w, untraced, train_rows(w, samples))
    result = {
        "workload": w.name,
        "seed": seed,
        "env": environment(evonas, workers),
        "processes": len(runs),
        "walls": [r["wall_s"] for r in runs],
        "end_to_end": values,
        "notes": notes,
    }
    if traced:
        per = [layer_metrics(w, r, untraced) for r in runs if r["traced"]]
        for m in per:
            self_check(w, m)
        result["per_layer"] = median_metrics(per)
        result["layer_notes"] = layer_notes(result["per_layer"], w.evaluations)
        result["traced_processes"] = len(per)
    return result


def print_result(r: dict) -> None:
    name = r["workload"]
    print(f"== {name} (seed {r['seed']}, {r['processes']} processes)")
    print(f"env {json.dumps(r['env'], sort_keys=True)}")
    print(f"{name}  wall_s per process: {' '.join(f'{x:.3f}' for x in r['walls'])}")
    for k, v in r["end_to_end"].items():
        print(f"{name}  {k:<18} {v:>14.6g} {END_TO_END[k]:<7} ({r['notes'][k]})")
    if "per_layer" in r:
        print(f"{name}  per-layer, median of {r['traced_processes']} traced processes:")
        for k, v in sorted(r["per_layer"].items()):
            note = r["layer_notes"].get(k)
            print(f"{name}    {k:<42} {v:>14.6g}" + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="seconds-long inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evonas" / "__init__.py").is_file():
        print(f"error: no evonas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import evonas

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    nproc = os.cpu_count() or 1
    results, correct = [], True
    tally = {"attempted": 0, "failed": 0}
    try:
        for name in names:
            w = WORKLOADS[name].tiny() if args.tiny else WORKLOADS[name]
            for traced in modes:
                results.append(measure(w, args.seed, args.seconds, traced, evonas, nproc, tally))
                print_result(results[-1])
    except CheckError as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False

    metrics = {}
    for r in results:
        prefix = "" if len(names) == 1 else f"{r['workload']}."
        if "per_layer" in r:
            picked = {k: (r["per_layer"][k], unit) for k, unit in PER_LAYER.items()}
        else:
            picked = {k: (r["end_to_end"][k], unit) for k, unit in END_TO_END.items()}
        metrics.update({prefix + k: {"value": v, "unit": unit} for k, (v, unit) in picked.items()})
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, tally["attempted"]),
                "failed": tally["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
