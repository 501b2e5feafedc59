"""The benchmark's own tests: tiny smoke runs, the output checker, the tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import evonas  # noqa: E402
import run as bench  # noqa: E402
from checks import CheckError, check_search  # noqa: E402
from child import Tracer  # noqa: E402
from workloads import WORKLOADS, feature_count, prepare  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = bench.PER_LAYER if trace == "1" else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) and v["value"] > 0 for v in result["metrics"].values())
    for name in wanted:
        assert f"  {name}" in proc.stdout  # also printed in the human-readable table


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "search-dense784", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def tiny_search(tmp_path_factory):
    """A finished tiny search: (workload, run directory, evaluations)."""
    w = WORKLOADS["search-dense784"].tiny()
    work = tmp_path_factory.mktemp("search")
    argv, _ = prepare(w, work / "inputs", seed=5)
    p = bench.run_process(w, argv, work, workers=1, traced=False)
    assert p["exit_code"] == 0, p["stderr"]
    return w, p["run_dir"], w.evaluations


def corrupt_copy(run_dir: Path, tmp_path: Path, file: str, edit) -> Path:
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    path = copy / file
    path.write_text(edit(path.read_text()))
    return copy


def test_checker_accepts_the_real_output(tiny_search):
    w, run_dir, evals = tiny_search
    out = check_search(run_dir, evonas, feature_count(w), evals)
    assert len(out["rows"]) == evals


def _bump_params(text: str) -> str:
    lines = text.splitlines()
    cells = lines[3].rsplit(",", 3)  # ..., params, cost, millis
    cells[1] = str(int(cells[1]) + 1)
    lines[3] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _drop_row(text: str) -> str:
    return "\n".join(text.splitlines()[:-1]) + "\n"


def _other_best(text: str) -> str:
    doc = json.loads(text)
    doc["layers"][0]["units"] += 8
    doc["raw"][0][1] += 8
    return json.dumps(doc)


@pytest.mark.parametrize(
    "file, edit",
    [("runs.csv", _bump_params), ("runs.csv", _drop_row), ("best.json", _other_best)],
    ids=["altered-params-cell", "missing-row", "best-is-not-winner"],
)
def test_checker_rejects_corrupted_output(tiny_search, tmp_path, file, edit):
    w, run_dir, evals = tiny_search
    bad = corrupt_copy(run_dir, tmp_path, file, edit)
    with pytest.raises(CheckError):
        check_search(bad, evonas, feature_count(w), evals)


def test_whole_ms_percentile_interpolates_within_the_millisecond():
    # four timings truncated to 10 ms lie in [10, 11): their median is 10.5
    assert bench.whole_ms_percentile([10, 10, 10, 10], 0.5) == 10.5
    assert bench.whole_ms_percentile([10, 10, 12, 12], 0.5) == 12.0
    assert bench.whole_ms_percentile(list(range(100)), 0.9) == 90.0


def test_tracer_self_times_add_up_to_the_outer_span():
    tracer = Tracer()

    def leaf():
        sum(range(20000))

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def outer():
        sum(range(20000))
        wrapped_leaf()
        wrapped_leaf()

    tracer.wrap("outer", outer)()
    spans = tracer.report()["spans"]
    assert spans["leaf"]["calls"] == 2 and spans["outer"]["calls"] == 1
    total = spans["outer"]["self_ms"] + spans["leaf"]["self_ms"]
    assert total == pytest.approx(spans["outer"]["ms"], rel=1e-9)
    assert spans["leaf"]["self_ms"] == pytest.approx(spans["leaf"]["ms"], rel=1e-9)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
