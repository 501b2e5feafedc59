"""Golden test: the search's random stream, pinned end to end.

``run_search`` runs with a deterministic fake evaluator on a few small
configurations, and every genotype, perf and cost it produces is compared
with ``==`` against values recorded from an earlier version of the code.
Any change to the order or number of random draws in the generator,
crossover, mutation or selection shows up here. Record new values with
``PYTHONPATH=src python tests/test_search_stream.py > tests/search_stream_golden.json``
only when a change is meant to move the search numbers.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from evonas import SearchConfig, count_params, finalize, run_search, serialize
from evonas.genotype import ProblemKind

GOLDEN = Path(__file__).with_name("search_stream_golden.json")

_BASE = dict(
    problem="classification", arch="mlp", input_shape=784, output_size=10,
    population_size=6, tournament_size=2, max_generations=4, experiments=2,
    mutation_prob=0.8, seed=11,
)
CONFIGS = {
    "cls-shallow": dict(_BASE, more_layers_prob=0.1),
    "cls-deep": dict(_BASE, more_layers_prob=0.9),
    "cls-deep-capped": dict(_BASE, input_shape=[28, 28, 1], more_layers_prob=0.9, max_layers=4),
    "reg": dict(
        _BASE, problem="regression", input_shape=48, output_size=1,
        more_layers_prob=0.5, alpha=0.3,
    ),
}


def hashed_evaluator(cfg: SearchConfig):
    """Perf from a hash of (genotype text, seed); about 8% of evaluations fail."""

    def evaluate(g, seed):
        digest = hashlib.sha256(f"{serialize(g)}|{seed}".encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2.0**64
        if u < 0.08:
            raise RuntimeError("scripted failure")
        perf = u if cfg.problem == ProblemKind.CLASSIFICATION else 50.0 * u
        return perf, count_params(g, cfg.input_shape)

    return evaluate


def search_stream(doc: dict) -> dict:
    cfg = SearchConfig.from_dict(doc)
    rows = []

    def on_eval(exp, gen, idx, ind, millis):
        rows.append(
            f"{exp}|{gen}|{idx}|{serialize(ind.genotype)}|{ind.perf!r}|{ind.size}|{ind.cost!r}"
        )

    archive = run_search(cfg, hashed_evaluator(cfg), on_eval=on_eval)
    finalize(archive, cfg)
    return {
        "config_json": json.dumps(cfg.to_dict(), indent=2),
        "rows": len(rows),
        "rows_sha256": hashlib.sha256("\n".join(rows).encode()).hexdigest(),
        "archive": [[serialize(e.genotype), e.cost] for e in archive.entries],
        "winner": archive.winner,
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_search_stream_matches_recorded_values(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert search_stream(CONFIGS[name]) == expected


if __name__ == "__main__":
    print(json.dumps({name: search_stream(doc) for name, doc in CONFIGS.items()}, indent=1))
