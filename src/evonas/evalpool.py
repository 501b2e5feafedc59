"""Deterministic parallel evaluation of candidate genotypes.

A generation of candidates is packaged into immutable jobs, evaluated by a
pool of in-process workers, and returned as immutable results keyed by job
id. All randomness an evaluation needs comes from the job's derived seed,
so at a fixed BLAS thread count results are identical for any worker count
and any completion order. The BLAS thread count itself can change a result:
OpenBLAS may round a matrix product split over two threads differently from
the same product on one, and the thread budget below gives pool workers
fewer BLAS threads than a single worker. A single-machine pool is the
only transport here, but jobs and results are the whole wire contract, so
a remote transport could be swapped in behind :func:`evaluate_all`.

This module owns the process's thread budget: pool workers times BLAS
threads stays within the usable cores. While a pool of ``W > 1`` workers
runs, numpy's OpenBLAS is held at ``min(current, max(1, cores // W))``
threads and restored afterwards, so workers do not stack on BLAS threads
that spin for the same cores. A single worker keeps every BLAS thread.
Without a recognisable OpenBLAS the budget is left unmanaged.

It also holds the command-line process's heap policy,
:func:`set_heap_policy`: freed training buffers stay mapped for the next
evaluation instead of going back to the kernel.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .genotype import Genotype

log = logging.getLogger(__name__)

WORKERS_ENV = "EVONAS_WORKERS"


def derive_seed(root_seed: int, *parts: int) -> int:
    """Stable 63-bit seed for (root, experiment, generation, index) and the like."""
    key = ":".join(str(int(p)) for p in (root_seed, *parts)).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def resolve_worker_count(cli_value: int | None, default: int = 1) -> int:
    """Worker count from the CLI flag, else the environment, else ``default``.

    A count below 1 from either source is rejected, not clamped.
    """
    if cli_value is not None:
        if cli_value < 1:
            raise ValueError(f"--workers must be at least 1, got {cli_value}")
        return cli_value
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV}={env!r} is not an integer") from None
        if count < 1:
            raise ValueError(f"{WORKERS_ENV} must be at least 1, got {count}")
        return count
    return default


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


class _Blas(NamedTuple):
    set_threads: Callable[[int], None]
    get_threads: Callable[[], int]


# (setter, getter) exports of OpenBLAS builds, numpy's bundled one first.
_BLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas() -> _Blas | None:
    """Thread-count controls of the OpenBLAS loaded in this process, if any."""
    import numpy  # noqa: F401  (maps the OpenBLAS numpy links against)

    try:
        with open("/proc/self/maps") as fh:
            paths = dict.fromkeys(
                line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]
            )
    except OSError:
        paths = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _BLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return _Blas(setter, getter)
    log.debug("no OpenBLAS found; BLAS threads are left unmanaged")
    return None


def blas_threads(worker_count: int) -> int | None:
    """BLAS threads each of ``worker_count`` workers runs with; None if unmanaged."""
    blas = _openblas()
    if blas is None:
        return None
    current = blas.get_threads()
    if worker_count == 1:
        return current
    return min(current, max(1, usable_cores() // worker_count))


@contextmanager
def _thread_budget(worker_count: int):
    """Hold BLAS at :func:`blas_threads` for the block; restore it even on error."""
    blas = _openblas()
    if blas is None:
        yield
        return
    before = blas.get_threads()
    blas.set_threads(blas_threads(worker_count))
    try:
        yield
    finally:
        blas.set_threads(before)


#: glibc ``mallopt(3)`` settings of the command-line process, as (parameter
#: number from ``<malloc.h>``, value). Freed blocks below 32 MiB stay in the
#: heap, and up to 256 MiB of free heap top is kept, so the next evaluation
#: reuses the pages its predecessor faulted in instead of faulting in and
#: zeroing fresh ones. One arena for all threads keeps pool workers from
#: each holding a heap of their own.
HEAP_POLICY = (
    ("M_MMAP_THRESHOLD", -3, 32 << 20),
    ("M_TRIM_THRESHOLD", -1, 256 << 20),
    ("M_ARENA_MAX", -8, 1),
)


def set_heap_policy() -> None:
    """Apply :data:`HEAP_POLICY` to this process; a no-op off glibc.

    The policy is process-wide and lasts until exit, so only the command
    line applies it; importing evonas as a library leaves the heap alone.
    """
    try:
        libc = ctypes.CDLL(None)  # the symbols already loaded into this process
        libc.gnu_get_libc_version  # the parameter numbers above are glibc's
        mallopt = libc.mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: no CDLL(None) on Windows
        log.debug("no glibc mallopt; the heap keeps its default policy")
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for name, param, value in HEAP_POLICY:
        if not mallopt(param, value):
            log.debug("mallopt(%s, %d) was refused", name, value)


@dataclass(frozen=True)
class EvalJob:
    """One evaluation request: a genotype plus everything needed to score it."""

    job_id: tuple[int, int, int]  # (experiment, generation, index)
    genotype: Genotype
    seed: int


@dataclass(frozen=True)
class EvalResult:
    """Outcome of one job; ``params`` is 0 and ``perf`` None when it failed."""

    job_id: tuple[int, int, int]
    perf: float | None
    params: int
    status: str
    millis: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


Evaluator = Callable[[Genotype, int], tuple[float, int]]


def _run_job(job: EvalJob, evaluator: Evaluator) -> EvalResult:
    started = time.perf_counter_ns()
    try:
        perf, params = evaluator(job.genotype, job.seed)
        status, perf, params = "ok", float(perf), int(params)
    except Exception as exc:  # a failing candidate must not sink the pool
        log.warning("evaluation %s failed: %r", job.job_id, exc)
        status, perf, params = f"failed: {exc!r}", None, 0
    millis = (time.perf_counter_ns() - started) // 1_000_000
    return EvalResult(job.job_id, perf, params, status, int(millis))


def evaluate_all(
    jobs: list[EvalJob],
    evaluator: Evaluator,
    worker_count: int = 1,
    trace_path=None,
) -> list[EvalResult]:
    """Evaluate every job; exactly one result per job, ordered by job id.

    A worker exception marks only its own job as failed. With ``trace_path``
    set, one JSON line per result is appended for postmortem inspection.
    """
    if worker_count < 1:
        raise ValueError(f"worker_count must be at least 1, got {worker_count}")
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError("job ids must be unique within a batch")

    if worker_count == 1 or len(jobs) <= 1:
        results = [_run_job(job, evaluator) for job in jobs]
    else:
        with _thread_budget(worker_count), ThreadPoolExecutor(max_workers=worker_count) as pool:
            results = list(pool.map(lambda j: _run_job(j, evaluator), jobs))
    results.sort(key=lambda r: r.job_id)

    if trace_path is not None:
        with Path(trace_path).open("a") as fh:
            for r in results:
                fh.write(
                    json.dumps(
                        {
                            "job_id": list(r.job_id),
                            "status": r.status,
                            "perf": r.perf,
                            "params": r.params,
                            "millis": r.millis,
                        }
                    )
                    + "\n"
                )
    return results
