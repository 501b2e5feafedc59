"""One benchmarked evonas process: import the checkout's evonas, run one CLI command.

    python3 perfbench/child.py PROBE_JSON TRACE(0|1) -- <evonas arguments>

The process writes PROBE_JSON on exit: the ``time.perf_counter`` value at
the end of set-up, the number of evaluator calls, the duration of every
``trainer.train`` call and of every generation's ``evaluate_all`` and, with
TRACE=1, per-function timings. ``perf_counter`` is CLOCK_MONOTONIC on Linux,
so the parent subtracts the time it spawned this process to get the set-up
time, interpreter start and ``import evonas`` included.

Set-up ends when a search hands out its first evaluations (the first
``evaluate_all`` call, just before the first evaluator call) or when a train
command first calls ``trainer.train``. Untraced, only ``evaluate_all``, the
evaluator (counted, not timed) and ``trainer.train`` are wrapped. Traced,
the public functions of every module are wrapped where their consumer looks
them up, so ``from ... import`` bindings do not bypass the timers.
"""

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    """Call counts, inclusive and self time per wrapped name, per thread.

    Time between two wrapper events on a thread is charged to the innermost
    open span of that thread, which makes self times add up to the time spent
    inside spans. After :meth:`mark_setup` the time charged on the main thread
    is also summed separately, so the part of the run after set-up can be
    accounted against the wall clock (pool threads run inside the main
    thread's ``evaluate_all`` span).
    """

    def __init__(self):
        self.setup_at = None  # perf_counter at the end of set-up
        self.evaluator_calls = 0
        self.train_ms: list[float] = []  # every trainer.train call
        self.generations: list[tuple[int, float]] = []  # (workers, evaluate_all ms)
        self.counts: dict[str, float] = defaultdict(float)
        self._threads: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _state(self) -> dict:
        st = getattr(self._local, "st", None)
        if st is None:
            st = {
                "stack": [],
                "last": None,
                "stats": defaultdict(lambda: [0, 0.0, 0.0]),
                "after": 0.0,
                "main": threading.current_thread() is threading.main_thread(),
            }
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def _charge(self, st: dict, now: float) -> None:
        if st["stack"] and st["last"] is not None:
            dt = now - st["last"]
            st["stats"][st["stack"][-1][0]][2] += dt
            if self.setup_at is not None and st["main"]:
                st["after"] += dt
        st["last"] = now

    def enter(self, name: str) -> None:
        st = self._state()
        now = time.perf_counter()
        self._charge(st, now)
        st["stack"].append((name, now))

    def exit(self, name: str) -> None:
        st = self._state()
        now = time.perf_counter()
        self._charge(st, now)
        _, started = st["stack"].pop()
        row = st["stats"][name]
        row[0] += 1
        row[1] += now - started

    def add(self, key: str, amount: float) -> None:
        with self._lock:  # evaluator threads update counts concurrently
            self.counts[key] += amount

    def count_evaluator_call(self) -> None:
        with self._lock:
            self.evaluator_calls += 1

    def mark_setup(self) -> None:
        if self.setup_at is None:
            self.setup_at = time.perf_counter()

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(result, args)`` runs outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def report(self) -> dict:
        stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        after = 0.0
        for st in self._threads:
            after += st["after"]
            for name, (calls, incl, own) in st["stats"].items():
                row = stats[name]
                row[0] += calls
                row[1] += incl
                row[2] += own
        return {
            "spans": {n: {"calls": c, "ms": i * 1e3, "self_ms": s * 1e3} for n, (c, i, s) in stats.items()},
            "self_after_setup_ms": after * 1e3,
            "counts": dict(self.counts),
            "generations": [{"workers": w, "ms": ms} for w, ms in self.generations],
        }


# Public functions timed in a traced run, as (span name, module, attribute).
# Classes are wrapped as (span name, module, "Class.method").
TRACED = (
    ("data.load_manifest", "data", "load_manifest"),
    ("data.split", "data", "split"),
    ("data.kfold", "data", "kfold"),
    ("data.take", "data", "Dataset.take"),
    ("genotype.validate", "genotype", "validate"),
    ("genotype.count_params", "genotype", "count_params"),
    ("genotype.serialize", "genotype", "serialize"),
    ("genotype.distance", "genotype", "distance"),
    ("trainer.materialize", "trainer", "materialize"),
    ("trainer.train", "trainer", "train"),
    ("trainer.loss_and_gradients", "trainer", "loss_and_gradients"),
    ("trainer.forward", "trainer", "DenseNetwork.forward"),
    ("trainer.metric", "trainer", "metric"),
    ("trainer.kfold_evaluate", "trainer", "kfold_evaluate"),
    ("trainer.save_model", "trainer", "save_model"),
    ("evalpool.evaluate_all", "evalpool", "evaluate_all"),
    ("evolution.run_search", "evolution", "run_search"),
    ("evolution.random_genotype", "evolution", "random_genotype"),
    ("evolution.tournament_select", "evolution", "tournament_select"),
    ("evolution.crossover", "evolution", "crossover"),
    ("evolution.mutate", "evolution", "mutate"),
    ("evolution.compute_costs", "evolution", "compute_costs"),
    ("evolution.nominal_convergence", "evolution", "nominal_convergence"),
    ("cli.write_run_record", "cli", "write_run_record"),
    ("cli.cmd_search", "cli", "cmd_search"),
    ("cli.cmd_train", "cli", "cmd_train"),
)


def install(tracer: Tracer, evonas, traced: bool) -> None:
    """Wrap ``evaluate_all``, the evaluator, ``trainer.train`` and, when tracing, every name in TRACED."""
    import evonas.cli  # the package itself does not import the cli

    modules = [evonas] + [getattr(evonas, m) for m in ("cli", "data", "evalpool", "evolution", "genotype", "trainer")]
    trainer = evonas.trainer

    def flop(passes):
        # 2 FLOPs per weight per row for each matmul the call runs
        def count(result, args):
            net, X = args[0], args[1]
            rows = len(X) if getattr(X, "ndim", 2) == 2 else 1
            weights = sum(p.size for p in net.parameters() if p.ndim == 2)
            tracer.add("trainer.flop", passes * 2 * rows * weights)

        return count

    def take_bytes(result, args):
        tracer.add("data.take.bytes", result.features.nbytes + result.targets.nbytes)

    def converged(result, args):
        tracer.add("evolution.converged_experiments", bool(result))

    after = {
        # forward, then weight and input gradients for every dense layer
        "trainer.loss_and_gradients": flop(3),
        "trainer.forward": flop(1),
        "data.take": take_bytes,
        "evolution.nominal_convergence": converged,
    }

    def replace_everywhere(original, wrapped):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    if traced:
        for span, mod_name, attr in TRACED:
            mod = getattr(evonas, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), after.get(span)))
            else:
                original = getattr(mod, attr)
                replace_everywhere(original, tracer.wrap(span, original, after.get(span)))

        make_optimizer = trainer.make_optimizer

        def traced_optimizer(*args, **kwargs):
            opt = make_optimizer(*args, **kwargs)
            opt.step = tracer.wrap("trainer.optimizer_step", opt.step)
            return opt

        trainer.make_optimizer = traced_optimizer

    # One timer per generation, and the end of a search's set-up. With
    # tracing on, this wraps the traced evaluate_all.
    evaluate_all = evonas.evolution.evaluate_all

    def per_generation(jobs, evaluator, worker_count=1, trace_path=None):
        tracer.mark_setup()
        started = time.perf_counter()
        results = evaluate_all(jobs, evaluator, worker_count, trace_path=trace_path)
        tracer.generations.append((worker_count, (time.perf_counter() - started) * 1e3))
        return results

    evonas.evolution.evaluate_all = per_generation

    make_evaluator = trainer.make_evaluator

    def counted_make_evaluator(*args, **kwargs):
        evaluate = make_evaluator(*args, **kwargs)

        def evaluator(genotype, seed):
            tracer.count_evaluator_call()
            return evaluate(genotype, seed)

        return evaluator

    trainer.make_evaluator = counted_make_evaluator

    # The end of a train command's set-up, and the duration of every training.
    train = trainer.train

    def timed_train(*args, **kwargs):
        tracer.mark_setup()
        started = time.perf_counter()
        try:
            return train(*args, **kwargs)
        finally:
            tracer.train_ms.append((time.perf_counter() - started) * 1e3)

    trainer.train = timed_train


def main(argv: list[str]) -> int:
    probe_path, traced, rest = argv[0], argv[1] == "1", argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    import evonas
    from evonas import cli

    if not Path(evonas.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported evonas from {evonas.__file__}, not from this checkout")
    tracer = Tracer()
    install(tracer, evonas, traced)
    code = cli.main(rest)
    doc = {"setup_at": tracer.setup_at, "evaluator_calls": tracer.evaluator_calls, "train_ms": tracer.train_ms}
    doc.update(tracer.report())
    Path(probe_path).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
