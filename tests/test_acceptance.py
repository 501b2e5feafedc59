"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Criteria 8-10 exercise the real MNIST IDX files and are
skipped (with an explicit message) when the dataset is not present; point
``EVONAS_MNIST_DIR`` at a directory holding the four IDX files to enable
them.
"""

import time
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from _pytest.outcomes import Skipped

from evonas import (
    Activation,
    Genotype,
    ProblemKind,
    SearchConfig,
    compatible_pairs,
    compute_costs,
    count_params,
    crossover,
    evaluate_all,
    finalize,
    load_idx,
    make_evaluator,
    materialize,
    mutate,
    random_genotype,
    run_search,
    sample_stop_variate,
    split,
    train,
    validate,
)
from evonas.genotype import LayerGene
from evonas.trainer import TrainConfig

from conftest import (
    BEST_ALPHA_03_TABLE,
    BEST_ALPHA_05_TABLE,
    BEST_ALPHA_07_TABLE,
    INITIAL_POPULATION_TABLE,
    LISTED_PAIRS,
    RUL_WINNER_TABLE,
    mlp_classifier,
    mlp_regressor,
    recorded_gradients,
    require_mnist,
)

A = Activation


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Skipped as exc:
        print(f"[criterion {number:02d}] SKIP - {title}: {exc}")
        raise
    except BaseException:
        print(f"[criterion {number:02d}] FAIL - {title}")
        raise
    print(f"[criterion {number:02d}] PASS - {title}")


class ScriptedRng:
    def __init__(self, integers=()):
        self._integers = list(integers)

    def integers(self, *_a, **_k):
        return self._integers.pop(0)


def test_criterion_1_parameter_count_oracle():
    with criterion(1, "parameter counts reproduce every published size exactly"):
        started = time.perf_counter()
        for table in (
            INITIAL_POPULATION_TABLE,
            BEST_ALPHA_05_TABLE,
            BEST_ALPHA_03_TABLE,
            BEST_ALPHA_07_TABLE,
        ):
            for spec, _, expected, _, _ in table:
                assert count_params(mlp_classifier(spec), 784) == expected
        for spec, expected in RUL_WINNER_TABLE:
            assert count_params(mlp_regressor(spec), 336) == expected
        assert time.perf_counter() - started < 1.0


def test_criterion_2_fitness_reconstruction():
    with criterion(2, "published fitness values reproduced within 0.01"):
        started = time.perf_counter()
        for table in (INITIAL_POPULATION_TABLE, BEST_ALPHA_03_TABLE, BEST_ALPHA_07_TABLE):
            pairs = [(acc, size) for _, acc, size, _, _ in table]
            alpha = table[0][4]
            costs = compute_costs(pairs, alpha=alpha, mode="raw_error")
            for (_, _, _, reported, _), cost in zip(table, costs):
                assert cost == pytest.approx(reported, abs=0.01), (reported, cost)
        assert time.perf_counter() - started < 1.0


def test_criterion_3_crossover_fixture(crossover_parents, crossover_child, mnist_search_config):
    with criterion(3, "forced crossover reproduces the worked offspring exactly"):
        base, donor = crossover_parents
        pairs = compatible_pairs(base, 1, 3, donor, 64)
        rng = ScriptedRng(integers=[1, 3, pairs.index((2, 4))])
        child = crossover(base, donor, mnist_search_config, rng)
        assert child == crossover_child


def _oracle_pairs(base, donor, r1, r2, max_layers=64):
    out = []
    for r3 in range(len(donor.layers) - 1):
        for r4 in range(r3, len(donor.layers) - 1):
            layers = base.layers[:r1] + donor.layers[r3 : r4 + 1] + base.layers[r2 + 1 :]
            if len(layers) > max_layers:
                continue
            if validate(Genotype(layers, base.problem)).ok:
                out.append((r3, r4))
    return out


def test_criterion_4_compatible_pair_rule(crossover_parents):
    with criterion(4, "compatible pairs: superset of the listed 13, equal to brute force"):
        base, donor = crossover_parents
        rule = compatible_pairs(base, 1, 3, donor, 64)
        assert set(LISTED_PAIRS) <= set(rule)
        assert rule == _oracle_pairs(base, donor, 1, 3)


def test_criterion_5_operator_validity_fuzz(mnist_search_config):
    with criterion(5, "10^4 generations/crossovers/mutations all stay valid"):
        cfg = mnist_search_config
        rng = np.random.default_rng(2024)
        pool = []
        for _ in range(10_000):
            g = random_genotype(cfg, rng)
            report = validate(g)
            assert report.ok, report.summary()
            assert len(g.layers) <= 64
            pool.append(g)
        for _ in range(10_000):
            a = pool[int(rng.integers(len(pool)))]
            b = pool[int(rng.integers(len(pool)))]
            child = crossover(a, b, cfg, rng)
            report = validate(child)
            assert report.ok, report.summary()
            assert len(child.layers) <= 64
            assert child.layers[-1] == a.layers[-1]
        for _ in range(10_000):
            g = pool[int(rng.integers(len(pool)))]
            out = mutate(g, cfg, rng)
            report = validate(out)
            assert report.ok, report.summary()
            assert len(out.layers) <= 64
            assert out.layers[-1] == g.layers[-1]


def test_criterion_6_stop_variate_distribution():
    with criterion(6, "stop-variate CDF matches 2t - t^2 within sup-norm 0.02"):
        rng = np.random.default_rng(7)
        draws = np.sort([sample_stop_variate(u) for u in rng.random(100_000)])
        n = len(draws)
        cdf = 2.0 * draws - draws**2
        sup = max(
            float(np.max(np.arange(1, n + 1) / n - cdf)),
            float(np.max(cdf - np.arange(n) / n)),
        )
        assert sup < 0.02, sup


def test_criterion_7_gradient_check():
    with criterion(7, "analytic gradients match central differences (99% at 1e-4)"):
        rng = np.random.default_rng(0)
        for act in (A.SIGMOID, A.TANH, A.RELU):
            # the output layer picks the loss: softmax cross-entropy, linear squared error
            for problem in (ProblemKind.CLASSIFICATION, ProblemKind.REGRESSION):
                if problem == ProblemKind.CLASSIFICATION:
                    out_layer = LayerGene.dense(4, A.SOFTMAX)
                    Y = np.eye(4)[rng.integers(4, size=16)]
                else:
                    out_layer = LayerGene.dense(1, A.LINEAR)
                    Y = rng.normal(size=(16, 1))
                g = Genotype(
                    (LayerGene.dense(16, act), LayerGene.dense(8, act), out_layer),
                    problem,
                )
                net = materialize(g, 10, seed=5)
                X = rng.normal(size=(16, 10))
                _, grad = recorded_gradients(net, X, Y)
                analytic = [g for pair in net.views(grad) for g in pair]
                good = total = 0
                h = 1e-5
                for p, a_grad in zip(net.parameters(), analytic):
                    flat, aflat = p.ravel(), a_grad.ravel()
                    for k in range(flat.size):
                        orig = flat[k]
                        flat[k] = orig + h
                        up, _ = recorded_gradients(net, X, Y)
                        flat[k] = orig - h
                        down, _ = recorded_gradients(net, X, Y)
                        flat[k] = orig
                        num = (up - down) / (2 * h)
                        rel = abs(num - aflat[k]) / max(1e-8, abs(num) + abs(aflat[k]))
                        good += int(rel <= 1e-4)
                        total += 1
                assert good / total >= 0.99, (act, problem, good / total)


def _load_mnist_train():
    images, labels, _, _ = require_mnist()
    return load_idx(images, labels)


def test_criterion_8_desk_scale_training():
    with criterion(8, "56-unit network reaches 0.92 validation accuracy in 5 epochs"):
        ds = _load_mnist_train()
        train_rows, val_rows = split(ds, 0.2, seed=0)
        g = mlp_classifier([(56, A.RELU)])
        net = materialize(g, 784, seed=0)
        started = time.perf_counter()
        report = train(net, ds, train_rows, val_rows, TrainConfig(5, learning_rate=0.001, seed=0))
        elapsed = time.perf_counter() - started
        assert report.value >= 0.92, report.value
        assert elapsed <= 300.0, elapsed


def _subset_config(seed=0):
    return SearchConfig(
        problem=ProblemKind.CLASSIFICATION,
        arch="mlp",
        input_shape=784,
        output_size=10,
        seed=seed,
    )


def _mnist_subset(n=10_000):
    ds = _load_mnist_train()
    return ds.take(np.arange(n))


def test_criterion_9_desk_scale_search():
    with criterion(9, "reference-parameter search on a 10k subset yields a compact winner"):
        ds = _mnist_subset()
        cfg = _subset_config()
        evaluator = make_evaluator(ds, cfg.cv_ratio, TrainConfig(cfg.train_epochs, seed=cfg.seed))
        started = time.perf_counter()
        archive = run_search(cfg, partial(evaluate_all, evaluator=evaluator, worker_count=4))
        winner = finalize(archive, cfg)
        elapsed = time.perf_counter() - started
        assert elapsed <= 20 * 60, elapsed
        assert winner.perf >= 0.90, winner.perf
        assert winner.size <= 300_000, winner.size


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "same-seed reruns byte-identical; worker count invisible"):
        import json

        from evonas.cli import main

        images, labels, _, _ = require_mnist()
        manifest = tmp_path / "mnist.json"
        manifest.write_text(
            json.dumps(
                {
                    "format": "idx",
                    "images": str(images),
                    "labels": str(labels),
                    "limit": 10_000,
                }
            )
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_subset_config().to_dict()))

        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["search", str(config), str(manifest), "--out", str(out)]) == 0
            blobs.append((out / "runs.csv").read_bytes())
        assert blobs[0] == blobs[1], "same-seed reruns must produce identical runs.csv"

        results = []
        for name, workers in (("w1", "1"), ("w8", "8")):
            out = tmp_path / name
            assert (
                main(
                    [
                        "search",
                        str(config),
                        str(manifest),
                        "--out",
                        str(out),
                        "--workers",
                        workers,
                    ]
                )
                == 0
            )
            archive = json.loads((out / "archive.json").read_text())
            results.append(archive)
        assert results[0] == results[1], "worker count must not change results"


def test_determinism_witness_on_synthetic_data():
    """Unconditional stand-in for the dataset-gated determinism criterion.

    Runs the real trainer on generated data: archives and evaluation streams
    must agree between reruns and across worker counts.
    """
    with criterion(0, "synthetic-data determinism witness (real trainer)"):
        from evonas import Dataset

        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-1.5, 0.7, (80, 6)), rng.normal(1.5, 0.7, (80, 6))])
        y = np.array([0] * 80 + [1] * 80)
        ds = Dataset(X, y, ProblemKind.CLASSIFICATION)
        cfg = SearchConfig(
            problem=ProblemKind.CLASSIFICATION,
            arch="mlp",
            input_shape=6,
            output_size=2,
            population_size=4,
            tournament_size=2,
            max_generations=2,
            experiments=2,
            train_epochs=2,
            seed=11,
        )
        evaluator = make_evaluator(ds, cfg.cv_ratio,
                                   TrainConfig(cfg.train_epochs, batch_size=32, seed=cfg.seed))
        streams = []
        for workers in (1, 1, 4):
            rows = []
            archive = run_search(
                cfg,
                partial(evaluate_all, evaluator=evaluator, worker_count=workers),
                lambda rec: rows.extend(
                    (rec.experiment, rec.generation, i, ind.perf, ind.size, ind.cost)
                    for i, ind in enumerate(rec.individuals)
                ),
            )
            streams.append((rows, [(x.genotype, x.perf, x.size, x.cost) for x in archive.entries]))
        assert streams[0] == streams[1] == streams[2]
