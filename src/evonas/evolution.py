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
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .evalpool import EvalJob, Evaluator, derive_seed, evaluate_all
from .genotype import (
    ARCH_LAYER_KINDS,
    FOLLOWERS,
    HIDDEN_ACTIVATIONS,
    FILTER_CHOICES,
    KERNEL_SIZE_CHOICES,
    KERNEL_STRIDE_CHOICES,
    MAX_LAYERS,
    POOL_SIZE_CHOICES,
    REACHES_OUTPUT,
    UNIT_CHOICES,
    Activation,
    ArchKind,
    Genotype,
    LayerGene,
    LayerKind,
    ProblemKind,
    can_follow,
    count_params,
    distance,
    rectify_activations,
)
from .trainer import SCORE_METRICS, ConfigError, Metric

log = logging.getLogger(__name__)

#: Dropout rates are sampled from this grid rather than the full [0, 1]
#: interval: it keeps rates away from the degenerate endpoints.
DROPOUT_RATE_GRID: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 20))

FITNESS_MODES = ("raw_error", "population_l2")


@dataclass
class SearchConfig:
    """Every knob of the search loop; defaults are the image-classification set."""

    problem: ProblemKind
    arch: ArchKind
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
    max_generations: int = 10
    experiments: int = 5
    max_layers: int = MAX_LAYERS
    fitness_mode: str = "raw_error"
    seed: int = 0

    def __post_init__(self):
        self.problem = ProblemKind(self.problem)
        self.arch = ArchKind(self.arch)
        if isinstance(self.input_shape, list):
            self.input_shape = tuple(self.input_shape)

        def need(cond: bool, message: str):
            if not cond:
                raise ConfigError(message)

        if isinstance(self.input_shape, tuple):
            need(
                len(self.input_shape) == 3
                and all(isinstance(v, int) and v > 0 for v in self.input_shape),
                "input_shape must be a positive integer or an [H, W, C] triple",
            )
        else:
            need(
                isinstance(self.input_shape, int) and self.input_shape > 0,
                "input_shape must be a positive integer or an [H, W, C] triple",
            )

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
        need(self.fitness_mode in FITNESS_MODES, f"fitness_mode must be one of {FITNESS_MODES}")

    _JSON_KEYS = (
        "problem", "arch", "input_shape", "output_size", "cv_ratio",
        "mutation_prob", "crossover_prob", "more_layers_prob", "alpha",
        "population_size", "tournament_size", "crossover_trials",
        "convergence_pairs", "convergence_threshold", "train_epochs",
        "max_generations", "experiments", "max_layers", "fitness_mode", "seed",
    )

    @classmethod
    def from_dict(cls, doc: dict) -> "SearchConfig":
        if not isinstance(doc, dict):
            raise ConfigError("search configuration must be a JSON object")
        unknown = sorted(set(doc) - set(cls._JSON_KEYS))
        if unknown:
            raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
        missing = [k for k in ("problem", "arch", "input_shape", "output_size") if k not in doc]
        if missing:
            raise ConfigError(f"missing required configuration key(s): {', '.join(missing)}")
        try:
            return cls(**doc)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        shape = self.input_shape
        return {
            "problem": self.problem.value,
            "arch": self.arch.value,
            "input_shape": list(shape) if isinstance(shape, tuple) else shape,
            "output_size": self.output_size,
            "cv_ratio": self.cv_ratio,
            "mutation_prob": self.mutation_prob,
            "crossover_prob": self.crossover_prob,
            "more_layers_prob": self.more_layers_prob,
            "alpha": self.alpha,
            "population_size": self.population_size,
            "tournament_size": self.tournament_size,
            "crossover_trials": self.crossover_trials,
            "convergence_pairs": self.convergence_pairs,
            "convergence_threshold": self.convergence_threshold,
            "train_epochs": self.train_epochs,
            "max_generations": self.max_generations,
            "experiments": self.experiments,
            "max_layers": self.max_layers,
            "fitness_mode": self.fitness_mode,
            "seed": self.seed,
        }

    @property
    def metric_kind(self) -> Metric:
        return Metric.ACCURACY if self.problem == ProblemKind.CLASSIFICATION else Metric.MSE


@dataclass
class Individual:
    """A genotype with its evaluated performance, size, and scalarized cost."""

    genotype: Genotype
    perf: float
    size: int
    cost: float = math.nan
    eval_seed: int = 0


@dataclass
class Archive:
    """Best individual per experiment; the winner index is set by finalize."""

    entries: list[Individual] = field(default_factory=list)
    winner: int | None = None


def _pick(rng, seq: Sequence):
    return seq[int(rng.integers(len(seq)))]


def sample_stop_variate(u: float) -> float:
    """Map a uniform draw to the stacking-stop variate ``1 - sqrt(1 - u)``."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must be in [0, 1], got {u}")
    return 1.0 - math.sqrt(1.0 - u)


def _random_layer(kind: LayerKind, acts: dict, rng) -> LayerGene:
    def act_for(k: LayerKind) -> Activation:
        # layers of the same kind share one activation across the model
        if k not in acts:
            acts[k] = _pick(rng, HIDDEN_ACTIVATIONS)
        return acts[k]

    if kind == LayerKind.FULLY_CONNECTED:
        return LayerGene.dense(_pick(rng, UNIT_CHOICES), act_for(kind))
    if kind == LayerKind.RECURRENT:
        return LayerGene.recurrent(_pick(rng, UNIT_CHOICES), act_for(kind))
    if kind == LayerKind.CONVOLUTIONAL:
        return LayerGene.conv(
            _pick(rng, FILTER_CHOICES),
            _pick(rng, KERNEL_SIZE_CHOICES),
            _pick(rng, KERNEL_STRIDE_CHOICES),
            act_for(kind),
        )
    if kind == LayerKind.POOLING:
        return LayerGene.pooling(_pick(rng, POOL_SIZE_CHOICES))
    return LayerGene.dropout(_pick(rng, DROPOUT_RATE_GRID))


def _output_layer(cfg: SearchConfig) -> LayerGene:
    if cfg.problem == ProblemKind.CLASSIFICATION:
        return LayerGene.dense(cfg.output_size, Activation.SOFTMAX)
    return LayerGene.dense(1, Activation.LINEAR)


def random_genotype(cfg: SearchConfig, rng) -> Genotype:
    """Stack random layers until the stop variate fires, then cap with the output layer.

    The first layer's kind is fixed by the architecture family and every
    further kind is drawn uniformly from the legal followers of the previous
    layer, restricted to the family's own kinds and to kinds from which the
    output layer stays reachable. Larger ``more_layers_prob`` yields deeper
    models.
    """
    acts: dict[LayerKind, Activation] = {}
    family = ARCH_LAYER_KINDS[cfg.arch]
    layers = [_random_layer(cfg.arch.first_layer_kind, acts, rng)]
    while (
        sample_stop_variate(rng.random()) < cfg.more_layers_prob
        and len(layers) + 1 < cfg.max_layers
    ):
        options = sorted(
            k for k in FOLLOWERS[layers[-1].kind] if k in family and k in REACHES_OUTPUT
        )
        layers.append(_random_layer(_pick(rng, options), acts, rng))
    layers.append(_output_layer(cfg))
    return Genotype(tuple(layers), cfg.arch, cfg.problem)


def scaled_size(w: int) -> float:
    """Log-scaled parameter count: zero the last three digits, then log10.

    The pre-log value is clamped below at 1000 so models under a thousand
    parameters stay finite.
    """
    if w < 0:
        raise ValueError(f"parameter count must be non-negative, got {w}")
    rounded = max(1000, (w // 1000) * 1000)
    return math.log10(rounded)


def compute_costs(
    pop: Sequence[tuple[float, int]],
    alpha: float,
    mode: str = "raw_error",
    metric_kind: Metric = Metric.ACCURACY,
) -> list[float]:
    """Scalarized cost ``10 * (1 - alpha) * p + alpha * scaled_size(w)`` per member.

    ``pop`` holds (raw metric value, parameter count) pairs. Score-like
    metrics are flipped into errors first. In ``population_l2`` mode the
    error vector is normalized by its L2 norm over the population before
    weighting; ``raw_error`` uses the errors as they are.
    """
    if not pop:
        raise ValueError("cannot compute costs of an empty population")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if mode not in FITNESS_MODES:
        raise ValueError(f"unknown fitness mode {mode!r}")
    metric_kind = Metric(metric_kind)
    if metric_kind in SCORE_METRICS:
        errors = np.array([1.0 - perf for perf, _ in pop])
    else:
        errors = np.array([float(perf) for perf, _ in pop])
    if mode == "population_l2":
        norm = float(np.linalg.norm(errors))
        errors = errors / norm if norm > 0.0 else np.zeros_like(errors)
    return [
        10.0 * (1.0 - alpha) * float(e) + alpha * scaled_size(w)
        for e, (_, w) in zip(errors, pop)
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
    """Replace ``base[r1..r2]`` with ``donor[r3..r4]`` and rectify activations."""
    layers = base.layers[:r1] + donor.layers[r3 : r4 + 1] + base.layers[r2 + 1 :]
    child = Genotype(layers, base.arch, base.problem)
    return rectify_activations(child, base)


def crossover(s1: Genotype, s2: Genotype, cfg: SearchConfig, rng) -> Genotype:
    """Two-point crossover with ``s1`` as the base parent.

    A random cut of ``s1``'s hidden layers is replaced by a uniformly chosen
    compatible donor segment from ``s2``; the offspring's activations are
    rectified to match ``s1``. When a drawn cut has no compatible donor
    segment a fresh cut is drawn, up to ``crossover_trials`` times; after
    that the base parent is returned unchanged.
    """
    if s1.arch != s2.arch or s1.problem != s2.problem:
        raise ValueError("crossover parents must share architecture and problem kind")
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

_PARAM_FIELDS = {
    LayerKind.FULLY_CONNECTED: ("units",),
    LayerKind.RECURRENT: ("units",),
    LayerKind.CONVOLUTIONAL: ("filters", "kernel_size", "kernel_stride"),
    LayerKind.POOLING: ("pool_size",),
    LayerKind.DROPOUT: ("dropout_rate",),
}

_FIELD_CHOICES = {
    "units": UNIT_CHOICES,
    "filters": FILTER_CHOICES,
    "kernel_size": KERNEL_SIZE_CHOICES,
    "kernel_stride": KERNEL_STRIDE_CHOICES,
    "pool_size": POOL_SIZE_CHOICES,
    "dropout_rate": DROPOUT_RATE_GRID,
}

_ACTIVATION_KINDS = (
    LayerKind.FULLY_CONNECTED,
    LayerKind.CONVOLUTIONAL,
    LayerKind.RECURRENT,
)


def _applicable_edits(g: Genotype, i: int, cfg: SearchConfig) -> list[str]:
    gene = g.layers[i]
    edits = ["param"]
    if gene.kind in _ACTIVATION_KINDS:
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
    fields = _PARAM_FIELDS[gene.kind]
    name = _pick(rng, fields)
    current = getattr(gene, name)
    choices = [c for c in _FIELD_CHOICES[name] if c != current]
    new_gene = replace(gene, **{name: _pick(rng, choices)})
    layers = g.layers[:i] + (new_gene,) + g.layers[i + 1 :]
    return Genotype(layers, g.arch, g.problem)


def _edit_activation(g: Genotype, i: int, rng) -> Genotype:
    gene = g.layers[i]
    options = [a for a in HIDDEN_ACTIVATIONS if a != gene.activation]
    new_act = _pick(rng, options)
    # changing one layer's activation re-aligns every layer of that kind
    layers = list(g.layers)
    for j, other in enumerate(g.layers[:-1]):
        if other.kind == gene.kind:
            layers[j] = replace(other, activation=new_act)
    return Genotype(tuple(layers), g.arch, g.problem)


def _edit_insert_dropout(g: Genotype, i: int, rng) -> Genotype:
    drop = LayerGene.dropout(_pick(rng, DROPOUT_RATE_GRID))
    layers = g.layers[: i + 1] + (drop,) + g.layers[i + 1 :]
    return Genotype(layers, g.arch, g.problem)


def mutate(g: Genotype, cfg: SearchConfig, rng) -> Genotype:
    """With probability ``mutation_prob``, apply one small edit to one layer.

    The edit is drawn uniformly among those applicable to the chosen
    non-output layer: resample one of its parameters, change its activation
    (re-aligning same-kind layers), or insert a dropout layer after it. A
    layer with no applicable edit triggers a re-pick, at most three times.
    """
    if rng.random() >= cfg.mutation_prob:
        return g
    non_output = len(g.layers) - 1
    for _ in range(3):
        i = int(rng.integers(non_output))
        edits = _applicable_edits(g, i, cfg)
        if not edits:
            continue
        edit = _pick(rng, edits)
        if edit == "param":
            return _edit_param(g, i, rng)
        if edit == "activation":
            return _edit_activation(g, i, rng)
        return _edit_insert_dropout(g, i, rng)
    return g


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

OnEval = Callable[[int, int, int, Individual, int], None]


def _worst_case_perf(ok_perfs: list[float], metric_kind: Metric) -> float:
    if metric_kind in SCORE_METRICS:
        return min(ok_perfs) if ok_perfs else 0.0
    return max(ok_perfs) if ok_perfs else 1e9


def _assign_costs(individuals: list[Individual], cfg: SearchConfig) -> None:
    costs = compute_costs(
        [(ind.perf, ind.size) for ind in individuals],
        cfg.alpha,
        cfg.fitness_mode,
        cfg.metric_kind,
    )
    for ind, c in zip(individuals, costs):
        ind.cost = c


def run_search(
    cfg: SearchConfig,
    evaluator: Evaluator,
    workers: int = 1,
    on_eval: OnEval | None = None,
    trace_path=None,
) -> Archive:
    """Run the full multi-experiment search and return the archive of bests.

    ``evaluator`` maps ``(genotype, seed)`` to a ``(metric value, parameter
    count)`` pair. Per-candidate seeds are derived from (config seed,
    experiment, generation, index), never from scheduling, so results are
    bit-identical for any worker count. A failing evaluation is logged and
    assigned the worst performance seen in its generation.

    Each experiment evolves a fresh random population until the generation
    cap or nominal convergence, carrying the previous generation's best over
    the current worst. ``on_eval`` receives (experiment, generation, index,
    individual, elapsed ms) for every evaluation.
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
            results = evaluate_all(jobs, evaluator, workers, trace_path=trace_path)
            fallback = _worst_case_perf([r.perf for r in results if r.ok], cfg.metric_kind)
            individuals = []
            for job, r in zip(jobs, results):
                perf = r.perf if r.ok else fallback
                size = r.params if r.ok else count_params(job.genotype, cfg.input_shape)
                individuals.append(Individual(job.genotype, perf, size, eval_seed=job.seed))
            _assign_costs(individuals, cfg)
            if on_eval is not None:
                for ind, r in zip(individuals, results):
                    on_eval(exp, gen, r.job_id[2], ind, r.millis)
            if best is not None:
                worst_idx = max(range(len(individuals)), key=lambda k: individuals[k].cost)
                individuals[worst_idx] = best
                _assign_costs(individuals, cfg)
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


def finalize(archive: Archive, cfg: SearchConfig) -> Individual:
    """Re-cost the archive as one population and return its best entry."""
    if not archive.entries:
        raise ValueError("cannot finalize an empty archive")
    costs = compute_costs(
        [(e.perf, e.size) for e in archive.entries],
        cfg.alpha,
        cfg.fitness_mode,
        cfg.metric_kind,
    )
    for entry, c in zip(archive.entries, costs):
        entry.cost = c
    archive.winner = min(range(len(costs)), key=costs.__getitem__)
    return archive.entries[archive.winner]
