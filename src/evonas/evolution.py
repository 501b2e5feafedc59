"""Micro-genetic search over layered network encodings.

A small population (at most 10) of genotypes is evolved with binary
tournament selection, a compatibility-constrained two-point crossover,
low-impact mutation, and elitism. Fitness is a weighted sum of the
partial-training error and the log-scaled parameter count. Runs restart
whenever the population's genotypes become nominally similar, and each
restart's best candidate lands in an archive from which the final winner
is picked.
"""

from __future__ import annotations

import logging
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import Callable, Sequence, get_type_hints

import numpy as np

from .evalpool import EvalJob, EvalResult, derive_seed
# unused here: the CLI calls it by this name, which the benchmark rebinds (ROADMAP item 1)
from .evalpool import evaluate_all  # noqa: F401
from .genotype import (
    ARCH,
    HIDDEN_ACTIVATIONS,
    KIND_FIELDS,
    MAX_LAYERS,
    OUTPUT_ACTIVATION,
    UNIT_CHOICES,
    Genotype,
    LayerGene,
    LayerKind,
    ProblemKind,
    can_follow,
    count_params,
    distance,
    input_fan_in,
    with_hidden_activation,
)
from .trainer import ConfigError, TrainConfig

log = logging.getLogger(__name__)

#: Dropout rates are sampled from this grid rather than the full [0, 1]
#: interval: it keeps rates away from the degenerate endpoints.
DROPOUT_RATE_GRID: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 20))


@dataclass
class SearchConfig:
    """Every knob of the search loop; defaults are the image-classification set."""

    problem: ProblemKind
    arch: str
    input_shape: int | tuple[int, int, int]
    output_size: int
    cv_ratio: float = 0.2
    mutation_prob: float = 0.4
    crossover_prob: float = 1.0
    more_layers_prob: float = 0.4
    alpha: float = 0.5
    population_size: int = 10
    tournament_size: int = 4
    crossover_trials: int = 3
    convergence_pairs: int = 3
    convergence_threshold: float = 0.0
    train_epochs: int = 5
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    max_generations: int = 10
    experiments: int = 5
    max_layers: int = MAX_LAYERS
    seed: int = 0

    def __post_init__(self):
        self.problem = ProblemKind(self.problem)
        if self.arch != ARCH:
            raise ConfigError(f"arch {self.arch!r} has no training backend; only 'mlp' can be searched")
        if isinstance(self.input_shape, list):
            self.input_shape = tuple(self.input_shape)

        def need(cond: bool, message: str):
            if not cond:
                raise ConfigError(message)

        numbers = ((_INT_FIELDS, int, "an integer"), (_FLOAT_FIELDS, (int, float), "a number"))
        for names, kinds, noun in numbers:
            for name in names:
                value = getattr(self, name)
                need(
                    isinstance(value, kinds) and not isinstance(value, bool),
                    f"{name} must be {noun}, got {value!r}",
                )
                # NaN fails both comparisons; config.json must stay standard JSON
                need(kinds is int or -math.inf < value < math.inf, f"{name} must be finite, got {value!r}")
        try:
            input_fan_in(self.input_shape)
        except ValueError:
            raise ConfigError("input_shape must be a positive integer or an [H, W, C] triple") from None

        need(self.output_size >= 1, "output_size must be at least 1")
        need(
            self.problem != ProblemKind.REGRESSION or self.output_size == 1,
            "regression uses exactly one output unit",
        )
        need(0.0 < self.cv_ratio < 1.0, "cv_ratio must be in (0, 1)")
        need(0.0 <= self.mutation_prob <= 1.0, "mutation_prob must be in [0, 1]")
        need(0.0 <= self.crossover_prob <= 1.0, "crossover_prob must be in [0, 1]")
        need(0.0 < self.more_layers_prob < 1.0, "more_layers_prob must be in (0, 1)")
        need(0.0 <= self.alpha <= 1.0, "alpha must be in [0, 1]")
        need(2 <= self.population_size <= 10, "population_size must be in 2..10")
        need(
            2 <= self.tournament_size < self.population_size,
            "tournament_size must be at least 2 and smaller than the population",
        )
        need(self.tournament_size % 2 == 0, "tournament_size must be even")
        need(self.crossover_trials >= 1, "crossover_trials must be at least 1")
        need(self.convergence_pairs >= 1, "convergence_pairs must be at least 1")
        need(self.convergence_threshold >= 0.0, "convergence_threshold must be non-negative")
        need(self.train_epochs >= 0, "train_epochs must be non-negative")
        need(self.max_generations >= 1, "max_generations must be at least 1")
        need(self.experiments >= 1, "experiments must be at least 1")
        need(2 <= self.max_layers <= MAX_LAYERS, f"max_layers must be in 2..{MAX_LAYERS}")
        self.train_config()  # checks the learning rate, batch size and seed

    def train_config(self) -> TrainConfig:
        """The training settings every candidate of the search trains with."""
        return TrainConfig(self.train_epochs, self.learning_rate, self.batch_size, self.seed)

    @classmethod
    def from_dict(cls, doc: dict) -> "SearchConfig":
        if not isinstance(doc, dict):
            raise ConfigError("search configuration must be a JSON object")
        keys = fields(cls)
        unknown = sorted(set(doc) - {f.name for f in keys})
        if unknown:
            raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
        missing = [f.name for f in keys if f.default is MISSING and f.name not in doc]
        if missing:
            raise ConfigError(f"missing required configuration key(s): {', '.join(missing)}")
        try:
            return cls(**doc)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        """JSON-ready form with the same keys, in field order, that from_dict accepts."""
        doc = asdict(self)
        doc["problem"] = self.problem.value
        if isinstance(self.input_shape, tuple):
            doc["input_shape"] = list(self.input_shape)
        return doc

    @property
    def input_dim(self) -> int:
        """The first layer's fan-in: ``input_shape`` flattened."""
        return input_fan_in(self.input_shape)


#: The fields annotated ``int``: each must hold an int, never a bool or a float.
_INT_FIELDS = tuple(name for name, kind in get_type_hints(SearchConfig).items() if kind is int)
#: The fields annotated ``float``: each must hold an int or a float, never a bool.
_FLOAT_FIELDS = tuple(name for name, kind in get_type_hints(SearchConfig).items() if kind is float)


@dataclass(frozen=True)
class Individual:
    """A genotype with its evaluated performance, size, cost and evaluation seed."""

    genotype: Genotype
    perf: float
    size: int
    cost: float
    eval_seed: int


@dataclass
class Archive:
    """Best individual per experiment, in experiment order."""

    entries: list[Individual] = field(default_factory=list)

    @property
    def winner(self) -> int:
        """The index of the cheapest entry, the first of equal ones; ValueError when empty."""
        return min(range(len(self.entries)), key=lambda i: self.entries[i].cost)


def _pick(rng, seq: Sequence):
    return seq[int(rng.integers(len(seq)))]


def sample_stop_variate(u: float) -> float:
    """Map a uniform draw to the stacking-stop variate ``1 - sqrt(1 - u)``."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must be in [0, 1], got {u}")
    return 1.0 - math.sqrt(1.0 - u)


def random_genotype(cfg: SearchConfig, rng) -> Genotype:
    """Stack random layers until the stop variate fires, then cap with the output layer.

    The first layer is dense. After a dense layer the next kind is dense or
    dropout, drawn uniformly; after a dropout layer it is dense. Every hidden
    dense layer shares the first layer's activation, and the output layer
    has ``output_size`` units with the problem's :data:`OUTPUT_ACTIVATION`.
    Larger ``more_layers_prob`` yields deeper models.
    """
    units = _pick(rng, UNIT_CHOICES)
    activation = _pick(rng, HIDDEN_ACTIVATIONS)
    layers = [LayerGene.dense(units, activation)]
    while (
        sample_stop_variate(rng.random()) < cfg.more_layers_prob
        and len(layers) + 1 < cfg.max_layers
    ):
        kind = LayerKind.FULLY_CONNECTED
        if layers[-1].kind == LayerKind.FULLY_CONNECTED:
            kind = _pick(rng, (LayerKind.FULLY_CONNECTED, LayerKind.DROPOUT))
        if kind == LayerKind.DROPOUT:
            layers.append(LayerGene.dropout(_pick(rng, DROPOUT_RATE_GRID)))
        else:
            layers.append(LayerGene.dense(_pick(rng, UNIT_CHOICES), activation))
    layers.append(LayerGene.dense(cfg.output_size, OUTPUT_ACTIVATION[cfg.problem]))
    return Genotype(layers)


def scaled_size(w: int) -> float:
    """Log-scaled parameter count: zero the last three digits, then log10.

    The pre-log value is clamped below at 1000 so models under a thousand
    parameters stay finite.
    """
    if w < 0:
        raise ValueError(f"parameter count must be non-negative, got {w}")
    rounded = max(1000, (w // 1000) * 1000)
    return math.log10(rounded)


def metric_error(value: float, problem: ProblemKind) -> float:
    """The error a validation metric value stands for: 1 - accuracy, or the MSE itself."""
    return 1.0 - value if ProblemKind(problem) == ProblemKind.CLASSIFICATION else float(value)


def compute_costs(pop: Sequence[tuple[float, int]], alpha: float, problem: ProblemKind) -> list[float]:
    """Scalarized cost ``10 * (1 - alpha) * e + alpha * scaled_size(w)`` per member.

    ``pop`` holds (raw metric value, parameter count) pairs, each value
    turned into its error ``e`` by :func:`metric_error`. A member's cost
    depends on that member alone.
    """
    if not pop:
        raise ValueError("cannot compute costs of an empty population")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return [
        10.0 * (1.0 - alpha) * float(metric_error(perf, problem)) + alpha * scaled_size(w)
        for perf, w in pop
    ]


def tournament_select(
    pop: Sequence[Individual], n_t: int, count: int, rng
) -> list[Individual]:
    """Binary-tournament parents: draw ``n_t`` distinct members, emit pairwise winners.

    Rounds repeat until ``count`` parents have been emitted; a member may win
    in several rounds.
    """
    if n_t >= len(pop):
        raise ValueError(f"tournament size {n_t} must be smaller than the population ({len(pop)})")
    if n_t < 2 or n_t % 2:
        raise ValueError(f"tournament size must be even and at least 2, got {n_t}")
    parents: list[Individual] = []
    while len(parents) < count:
        drawn = rng.choice(len(pop), size=n_t, replace=False)
        for a, b in zip(drawn[::2], drawn[1::2]):
            winner = pop[int(a)] if pop[int(a)].cost <= pop[int(b)].cost else pop[int(b)]
            parents.append(winner)
            if len(parents) == count:
                break
    return parents


def compatible_pairs(
    base: Genotype, r1: int, r2: int, donor: Genotype, max_layers: int = MAX_LAYERS
) -> list[tuple[int, int]]:
    """All donor index pairs whose segment may replace ``base[r1..r2]``.

    A pair ``(r3, r4)`` qualifies when the donor segment's first layer may
    follow the layer before the cut (for a cut at the very first layer the
    donor layer must instead have the same kind), its last layer may precede
    the layer after the cut, and the spliced genotype would not exceed
    ``max_layers``. Cut and segment indices never include the output layer.
    """
    last_hidden_base = len(base.layers) - 2
    if not 0 <= r1 <= r2 <= last_hidden_base:
        raise IndexError(f"cut ({r1}, {r2}) out of range for {len(base.layers)} layers")
    last_hidden_donor = len(donor.layers) - 2
    after_kind = base.layers[r2 + 1].kind
    result_base_len = len(base.layers) - (r2 - r1 + 1)
    pairs = []
    for r3 in range(last_hidden_donor + 1):
        if r1 == 0:
            if donor.layers[r3].kind != base.layers[0].kind:
                continue
        elif not can_follow(base.layers[r1 - 1].kind, donor.layers[r3].kind):
            continue
        for r4 in range(r3, last_hidden_donor + 1):
            if not can_follow(donor.layers[r4].kind, after_kind):
                continue
            if result_base_len + (r4 - r3 + 1) > max_layers:
                continue
            pairs.append((r3, r4))
    return pairs


def splice(
    base: Genotype, donor: Genotype, r1: int, r2: int, r3: int, r4: int
) -> Genotype:
    """Replace ``base[r1..r2]`` with ``donor[r3..r4]``, and give every hidden
    dense layer the activation of ``base``'s first layer."""
    layers = base.layers[:r1] + donor.layers[r3 : r4 + 1] + base.layers[r2 + 1 :]
    return with_hidden_activation(Genotype(layers), base.layers[0].activation)


def crossover(s1: Genotype, s2: Genotype, cfg: SearchConfig, rng) -> Genotype:
    """Two-point crossover with ``s1`` as the base parent.

    A random cut of ``s1``'s hidden layers is replaced by a uniformly chosen
    compatible donor segment from ``s2``; the offspring's activations are
    rectified to match ``s1``. When a drawn cut has no compatible donor
    segment a fresh cut is drawn, up to ``crossover_trials`` times; after
    that the base parent is returned unchanged.
    """
    if s1.problem != s2.problem:
        raise ValueError("crossover parents must share the problem kind")
    last_hidden = len(s1.layers) - 2
    for _ in range(cfg.crossover_trials):
        i = int(rng.integers(last_hidden + 1))
        j = int(rng.integers(last_hidden + 1))
        r1, r2 = min(i, j), max(i, j)
        if r1 == r2:
            r2 = last_hidden
        pairs = compatible_pairs(s1, r1, r2, s2, cfg.max_layers)
        if pairs:
            r3, r4 = pairs[int(rng.integers(len(pairs)))]
            return splice(s1, s2, r1, r2, r3, r4)
    return s1


# --- mutation -----------------------------------------------------------------

#: Each layer kind's grid of legal values, which mutation resamples the
#: kind's parameter (its ``KIND_FIELDS`` field) from.
_LAYER_GRID: dict[LayerKind, tuple] = {
    LayerKind.FULLY_CONNECTED: UNIT_CHOICES,
    LayerKind.DROPOUT: DROPOUT_RATE_GRID,
}


def _applicable_edits(g: Genotype, i: int, cfg: SearchConfig) -> list[str]:
    gene = g.layers[i]
    edits = ["param"]
    if gene.activation is not None:
        edits.append("activation")
    if (
        len(g.layers) + 1 <= cfg.max_layers
        and can_follow(gene.kind, LayerKind.DROPOUT)
        and can_follow(LayerKind.DROPOUT, g.layers[i + 1].kind)
    ):
        edits.append("insert_dropout")
    return edits


def _edit_param(g: Genotype, i: int, rng) -> Genotype:
    gene = g.layers[i]
    name = KIND_FIELDS[gene.kind][0]
    choices = [c for c in _LAYER_GRID[gene.kind] if c != getattr(gene, name)]
    new_gene = replace(gene, **{name: _pick(rng, choices)})
    return Genotype(g.layers[:i] + (new_gene,) + g.layers[i + 1 :])


def _edit_activation(g: Genotype, i: int, rng) -> Genotype:
    # the hidden dense layers share one activation, so changing one changes all
    options = [a for a in HIDDEN_ACTIVATIONS if a != g.layers[i].activation]
    return with_hidden_activation(g, _pick(rng, options))


def _edit_insert_dropout(g: Genotype, i: int, rng) -> Genotype:
    drop = LayerGene.dropout(_pick(rng, DROPOUT_RATE_GRID))
    return Genotype(g.layers[: i + 1] + (drop,) + g.layers[i + 1 :])


def mutate(g: Genotype, cfg: SearchConfig, rng) -> Genotype:
    """With probability ``mutation_prob``, apply one small edit to one layer.

    The edit is drawn uniformly among those applicable to the chosen
    non-output layer: resample one of its parameters, change its activation
    (and so every hidden dense layer's), or insert a dropout layer after it.
    """
    if rng.random() >= cfg.mutation_prob:
        return g
    i = int(rng.integers(len(g.layers) - 1))
    edit = _pick(rng, _applicable_edits(g, i, cfg))
    if edit == "param":
        return _edit_param(g, i, rng)
    if edit == "activation":
        return _edit_activation(g, i, rng)
    return _edit_insert_dropout(g, i, rng)


def nominal_convergence(pop: Sequence[Genotype], m_c: int, d_t: float) -> bool:
    """True when at least ``m_c`` unordered genotype pairs lie within distance ``d_t``."""
    close = 0
    for i in range(len(pop)):
        for j in range(i + 1, len(pop)):
            if distance(pop[i], pop[j]) <= d_t:
                close += 1
                if close >= m_c:
                    return True
    return False


# --- search loop ----------------------------------------------------------------

@dataclass(frozen=True)
class GenerationRecord:
    """One evaluated generation: its individuals and their results, in job order."""

    experiment: int
    generation: int
    individuals: tuple[Individual, ...]
    results: tuple[EvalResult, ...]


def run_search(
    cfg: SearchConfig,
    evaluate: Callable[[list[EvalJob]], list[EvalResult]],
    on_generation: Callable[[GenerationRecord], None] | None = None,
) -> Archive:
    """Run the full multi-experiment search and return the archive of bests.

    ``evaluate`` maps one generation's jobs to their results in job order,
    for example the evaluation pool bound to an evaluator and a worker
    count. Each job's seed is derived from (config seed, experiment,
    generation, index). Every individual's size is its genotype's
    :func:`count_params`, and its cost is computed once, from its own perf and
    size. A failing evaluation is logged and assigned the worst performance
    seen in its generation; a generation in which every evaluation fails
    raises ``RuntimeError`` before ``on_generation`` sees it.

    Each experiment evolves a fresh random population until the generation
    cap or nominal convergence, carrying the previous generation's best over
    the current worst. ``on_generation`` receives a :class:`GenerationRecord`
    for every evaluated generation.
    """
    archive = Archive()
    for exp in range(cfg.experiments):
        rng = np.random.default_rng([cfg.seed, exp])
        population = [random_genotype(cfg, rng) for _ in range(cfg.population_size)]
        best: Individual | None = None
        for gen in range(cfg.max_generations):
            # the fresh random population is never convergence-checked: every
            # experiment evaluates at least once so the archive gains an entry
            if gen > 0 and nominal_convergence(
                population, cfg.convergence_pairs, cfg.convergence_threshold
            ):
                log.info("experiment %d converged at generation %d", exp, gen)
                break
            jobs = [
                EvalJob((exp, gen, i), g, derive_seed(cfg.seed, exp, gen, i))
                for i, g in enumerate(population)
            ]
            results = evaluate(jobs)
            if [r.job_id for r in results] != [job.job_id for job in jobs]:
                raise RuntimeError(f"experiment {exp}, generation {gen}: results not in job order")
            ok_perfs = [r.perf for r in results if r.ok]
            if not ok_perfs:
                raise RuntimeError(
                    f"experiment {exp}, generation {gen}: every evaluation failed "
                    f"(first: {results[0].status})"
                )
            fallback = max(ok_perfs, key=lambda perf: metric_error(perf, cfg.problem))
            pop = [
                (r.perf if r.ok else fallback, count_params(job.genotype, cfg.input_dim))
                for job, r in zip(jobs, results)
            ]
            costs = compute_costs(pop, cfg.alpha, cfg.problem)
            individuals = [
                Individual(job.genotype, perf, size, cost, job.seed)
                for job, (perf, size), cost in zip(jobs, pop, costs)
            ]
            if on_generation is not None:
                on_generation(GenerationRecord(exp, gen, tuple(individuals), tuple(results)))
            if best is not None:
                worst_idx = max(range(len(individuals)), key=lambda k: individuals[k].cost)
                individuals[worst_idx] = best
            best = min(individuals, key=lambda ind: ind.cost)

            parents = tournament_select(
                individuals, cfg.tournament_size, 2 * cfg.population_size, rng
            )
            offspring = []
            for k in range(cfg.population_size):
                p1, p2 = parents[2 * k], parents[2 * k + 1]
                if rng.random() < cfg.crossover_prob:
                    child = crossover(p1.genotype, p2.genotype, cfg, rng)
                else:
                    child = p1.genotype
                offspring.append(mutate(child, cfg, rng))
            population = offspring
        archive.entries.append(best)
    return archive
