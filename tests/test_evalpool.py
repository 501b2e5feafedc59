"""Tests for the deterministic evaluation pool."""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from evonas import (
    Activation,
    Dataset,
    EvalJob,
    ProblemKind,
    count_params,
    derive_seed,
    evalpool,
    evaluate_all,
    serialize,
)
from evonas.cli import main
from evonas.evalpool import WORKERS_ENV, resolve_worker_count
from evonas.trainer import TrainConfig, make_evaluator

from conftest import mlp_classifier, mlp_regressor

A = Activation


def make_jobs(n=12, gen=0):
    jobs = []
    for i in range(n):
        g = mlp_classifier([(8 * (i + 1), A.RELU)])
        jobs.append(EvalJob((0, gen, i), g, derive_seed(99, 0, gen, i)))
    return jobs


def sized_evaluator(g, seed):
    return float(seed % 1000) / 1000.0, count_params(g, 784)


def jittery_evaluator(g, seed):
    # deterministic per-seed output, scheduling-dependent completion order
    time.sleep((seed % 7) * 0.002)
    return sized_evaluator(g, seed)


class TestEvaluateAll:
    def test_one_result_per_job_in_id_order(self):
        jobs = make_jobs()
        results = evaluate_all(jobs, sized_evaluator, worker_count=1)
        assert [r.job_id for r in results] == [j.job_id for j in jobs]
        assert all(r.ok for r in results)

    def test_worker_count_does_not_change_results(self):
        jobs = make_jobs()
        reference = evaluate_all(jobs, sized_evaluator, worker_count=1)
        for workers in (2, 8):
            parallel = evaluate_all(jobs, jittery_evaluator, worker_count=workers)
            assert [(r.job_id, r.perf, r.params, r.status) for r in parallel] == [
                (r.job_id, r.perf, r.params, r.status) for r in reference
            ]

    def test_scheduling_stress(self):
        jobs = make_jobs(20)
        runs = [
            [(r.job_id, r.perf) for r in evaluate_all(jobs, jittery_evaluator, worker_count=6)]
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_failing_job_is_isolated(self):
        jobs = make_jobs(5)

        def sometimes(g, seed):
            if g.layers[0].units == 16:  # job index 1
                raise RuntimeError("bad candidate")
            return sized_evaluator(g, seed)

        results = evaluate_all(jobs, sometimes, worker_count=3)
        assert [r.ok for r in results] == [True, False, True, True, True]
        failed = results[1]
        assert failed.perf is None
        assert "bad candidate" in failed.status

    def test_duplicate_ids_rejected(self):
        jobs = make_jobs(3)
        dupe = [jobs[0], jobs[0], jobs[2]]
        with pytest.raises(ValueError, match="unique"):
            evaluate_all(dupe, sized_evaluator)

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            evaluate_all(make_jobs(2), sized_evaluator, worker_count=0)

    def test_trace_lines_written(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        jobs = make_jobs(4)
        evaluate_all(jobs, sized_evaluator, worker_count=2, trace_path=trace)
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [tuple(l["job_id"]) for l in lines] == [j.job_id for j in jobs]
        assert all(l["status"] == "ok" for l in lines)


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(1, 2, 3, 4) == derive_seed(1, 2, 3, 4)

    def test_distinct_across_indices(self):
        seeds = {derive_seed(7, e, g, i) for e in range(4) for g in range(4) for i in range(8)}
        assert len(seeds) == 4 * 4 * 8

    def test_fits_numpy_seed_range(self):
        s = derive_seed(2**31, 5, 6, 7)
        np.random.default_rng(s)  # must not raise
        assert 0 <= s < 2**63


class TestWorkerCountResolution:
    def test_cli_value_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_worker_count(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_worker_count(None) == 5

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_worker_count(None, default=2) == 2

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_worker_count(None)

    @pytest.mark.parametrize("value", [0, -2])
    def test_cli_value_below_one_rejected(self, value):
        with pytest.raises(ValueError, match="--workers"):
            resolve_worker_count(value)

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_env_value_below_one_rejected(self, monkeypatch, value):
        monkeypatch.setenv(WORKERS_ENV, value)
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_worker_count(None)


needs_openblas = pytest.mark.skipif(evalpool._openblas() is None, reason="no OpenBLAS in this process")


@pytest.fixture
def blas():
    controls = evalpool._openblas()
    before = controls.get_threads()
    yield controls
    controls.set_threads(before)


def threads_seen(log):
    def evaluator(g, seed):
        log.append(evalpool._openblas().get_threads())
        return sized_evaluator(g, seed)

    return evaluator


@needs_openblas
class TestThreadBudget:
    @pytest.mark.parametrize("cores", [evalpool.usable_cores(), 8])
    @pytest.mark.parametrize("start", [None, 1])
    @pytest.mark.parametrize("workers", [2, 3, 16])
    def test_pool_workers_share_the_cores(self, blas, monkeypatch, cores, workers, start):
        monkeypatch.setattr(evalpool, "usable_cores", lambda: cores)
        if start is not None:
            blas.set_threads(start)
        before = blas.get_threads()
        seen = []
        evaluate_all(make_jobs(6), threads_seen(seen), worker_count=workers)
        expected = min(before, max(1, cores // workers))
        assert seen == [expected] * 6
        assert evalpool.blas_threads(workers) == expected

    def test_count_restored_even_when_jobs_raise(self, blas):
        blas.set_threads(3)

        def failing(g, seed):
            raise RuntimeError("bad candidate")

        for evaluator in (sized_evaluator, failing):
            evaluate_all(make_jobs(4), evaluator, worker_count=2)
            assert blas.get_threads() == 3

        class Abort(BaseException):  # escapes the per-job isolation
            pass

        def aborting(g, seed):
            raise Abort

        with pytest.raises(Abort):
            evaluate_all(make_jobs(4), aborting, worker_count=2)
        assert blas.get_threads() == 3

    def test_single_worker_never_touches_the_count(self, blas, monkeypatch):
        blas.set_threads(3)
        touched = []
        monkeypatch.setattr(
            evalpool, "_openblas", lambda: evalpool._Blas(touched.append, blas.get_threads)
        )
        seen = []
        evaluate_all(make_jobs(4), threads_seen(seen), worker_count=1)
        assert seen == [3] * 4
        assert touched == []
        assert evalpool.blas_threads(1) == 3

    def test_dense_training_bit_identical_under_one_blas_thread(self, blas):
        # big enough that OpenBLAS splits the matmuls across threads by default
        rng = np.random.default_rng(5)
        X = rng.normal(size=(600, 256))
        y = (X[:, :8].sum(axis=1) > 0).astype(int)
        dataset = Dataset(X, y, ProblemKind.CLASSIFICATION)
        evaluate = make_evaluator(dataset, 0.2, TrainConfig(2, batch_size=256))
        genotypes = [
            mlp_classifier([(128, A.RELU), (64, A.TANH)], classes=2),
            mlp_classifier([(32, A.SIGMOID)], classes=2),
        ]
        default = [evaluate(g, 17) for g in genotypes]
        blas.set_threads(1)
        single = [evaluate(g, 17) for g in genotypes]
        assert single == default

    def test_regression_results_equal_for_any_worker_count_at_one_blas_thread(self, blas):
        # OpenBLAS may round a GEMM of these shapes (32x600 @ 600x312) differently
        # with 2 threads than with 1, so what holds is equality at a fixed
        # BLAS thread count: 2 workers run at min(1, cores // 2) = 1 thread here
        rng = np.random.default_rng(3)
        X = rng.normal(size=(160, 24))
        dataset = Dataset(X, X[:, :4].sum(axis=1) ** 2, ProblemKind.REGRESSION)
        evaluate = make_evaluator(dataset, 0.2, TrainConfig(1, batch_size=32))
        g = mlp_regressor([(600, A.TANH), (312, A.RELU)])
        jobs = [EvalJob((0, 0, i), g, derive_seed(5, 0, 0, i)) for i in range(4)]
        blas.set_threads(1)
        single = evaluate_all(jobs, evaluate, worker_count=1)
        parallel = evaluate_all(jobs, evaluate, worker_count=2)
        assert all(r.ok for r in single)
        assert [(r.perf, r.params) for r in parallel] == [(r.perf, r.params) for r in single]


def test_pool_runs_unmanaged_without_openblas(monkeypatch):
    jobs = make_jobs()
    reference = evaluate_all(jobs, sized_evaluator, worker_count=1)
    monkeypatch.setattr(evalpool, "_openblas", lambda: None)
    assert evalpool.blas_threads(2) is None
    parallel = evaluate_all(jobs, jittery_evaluator, worker_count=4)
    assert [(r.job_id, r.perf, r.params, r.status) for r in parallel] == [
        (r.job_id, r.perf, r.params, r.status) for r in reference
    ]


def fake_glibc(calls: list) -> SimpleNamespace:
    def mallopt(param, value):
        calls.append((param, value))
        return 1

    return SimpleNamespace(gnu_get_libc_version=lambda: b"2.36", mallopt=mallopt)


def inspect_runs(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize(mlp_classifier([(16, A.RELU)])))
    assert main(["inspect", str(gpath)]) == 0
    assert "Fully connected" in capsys.readouterr().out


class TestHeapPolicy:
    def test_the_cli_sets_the_three_glibc_parameters(self, monkeypatch, tmp_path, capsys):
        calls = []
        monkeypatch.setattr(evalpool.ctypes, "CDLL", lambda name: fake_glibc(calls))
        inspect_runs(tmp_path, capsys)
        # M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 256 MiB, M_ARENA_MAX 1
        assert calls == [(-3, 32 << 20), (-1, 256 << 20), (-8, 1)]

    @pytest.mark.parametrize("libc", ["no-mallopt", "not-glibc", "no-process-library"])
    def test_no_op_without_glibc_mallopt(self, monkeypatch, tmp_path, capsys, libc):
        calls = []
        libcs = {
            "no-mallopt": SimpleNamespace(),
            "not-glibc": SimpleNamespace(mallopt=fake_glibc(calls).mallopt),
        }

        def cdll(name):
            if libc not in libcs:
                raise OSError("no symbol table for this process")
            return libcs[libc]

        monkeypatch.setattr(evalpool.ctypes, "CDLL", cdll)
        evalpool.set_heap_policy()
        inspect_runs(tmp_path, capsys)
        assert calls == []


# The policy is process-wide and cannot be undone, so the tests below compare
# fresh interpreters with and without it.
def run_python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(evalpool.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
        cwd=Path(__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


FAULTS_SCRIPT = """
import json, resource, sys
import numpy as np
from evonas import Dataset, ProblemKind, SearchConfig, TrainConfig, evalpool, make_evaluator, random_genotype
if sys.argv[1] == "policy":
    evalpool.set_heap_policy()
rng = np.random.default_rng(0)
dataset = Dataset(rng.random((300, 784)), rng.integers(10, size=300), ProblemKind.CLASSIFICATION)
cfg = SearchConfig(problem="classification", arch="mlp", input_shape=784, output_size=10)
evaluate = make_evaluator(dataset, 0.2, TrainConfig(1))
genotypes = [random_genotype(cfg, rng) for _ in range(20)]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
results = [evaluate(g, seed) for seed, g in enumerate(genotypes)]
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"faults": after - before, "results": results}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_policy_halves_the_page_faults_of_search_evaluations():
    default, policy = (
        json.loads(run_python("-c", FAULTS_SCRIPT, mode).stdout) for mode in ("default", "policy")
    )
    assert policy["faults"] < default["faults"] / 2, (policy["faults"], default["faults"])
    assert policy["results"] == default["results"]


def test_pinned_training_numbers_hold_under_the_policy():
    script = "import sys, pytest; from evonas import evalpool; evalpool.set_heap_policy(); sys.exit(pytest.main())"
    tests = Path(__file__).parent / "test_trainer.py"
    proc = run_python(
        "-c", script, "-q", "-p", "no:cacheprovider",
        f"{tests}::TestFloat32::test_evaluator_reproduces_recorded_numbers",
        f"{tests}::test_train_reproduces_recorded_numbers",
    )
    assert "5 passed" in proc.stdout
