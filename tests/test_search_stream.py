"""Golden test: the search's random stream, pinned end to end.

``run_search`` runs with a deterministic fake evaluator on a few small
configurations, and every genotype, perf and cost it produces is compared
with ``==`` against values recorded from an earlier version of the code.
Any change to the order or number of random draws in the generator,
crossover, mutation or selection shows up here. Genotypes are keyed and
recorded by :func:`layer_text`, not by the genotype document format, so a
change to that format leaves these values as they are. Record new values with
``PYTHONPATH=src python tests/test_search_stream.py > tests/search_stream_golden.json``
only when a change is meant to move the search numbers.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path

import pytest

from evonas import SearchConfig, evaluate_all, run_search
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


def layer_text(g) -> str:
    """The genotype's layer fields, one ``kind,units,activation,rate`` group a layer."""
    return ";".join(
        f"{int(gene.kind)},{gene.units},{'-' if gene.activation is None else int(gene.activation)},{gene.dropout_rate!r}"
        for gene in g.layers
    )


def hashed_evaluator(cfg: SearchConfig):
    """Perf from a hash of (layer text, seed); about 8% of evaluations fail."""

    def evaluate(g, seed):
        digest = hashlib.sha256(f"{layer_text(g)}|{seed}".encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2.0**64
        if u < 0.08:
            raise RuntimeError("scripted failure")
        perf = u if cfg.problem == ProblemKind.CLASSIFICATION else 50.0 * u
        return perf

    return evaluate


def search_stream(doc: dict) -> dict:
    cfg = SearchConfig.from_dict(doc)
    rows = []

    def on_generation(rec):
        rows.extend(
            f"{rec.experiment}|{rec.generation}|{idx}|{layer_text(ind.genotype)}"
            f"|{ind.perf!r}|{ind.size}|{ind.cost!r}"
            for idx, ind in enumerate(rec.individuals)
        )

    evaluate = partial(evaluate_all, evaluator=hashed_evaluator(cfg))
    archive = run_search(cfg, evaluate, on_generation)
    return {
        "config_json": json.dumps(cfg.to_dict(), indent=2),
        "rows": len(rows),
        "rows_sha256": hashlib.sha256("\n".join(rows).encode()).hexdigest(),
        "archive": [[layer_text(e.genotype), e.cost] for e in archive.entries],
        "winner": archive.winner,
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_search_stream_matches_recorded_values(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert search_stream(CONFIGS[name]) == expected


if __name__ == "__main__":
    print(json.dumps({name: search_stream(doc) for name, doc in CONFIGS.items()}, indent=1))
