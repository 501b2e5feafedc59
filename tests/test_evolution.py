"""Tests for the search operators and the evolutionary loop."""

import json
import logging
import math
import re
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonas import (
    Activation,
    Archive,
    ConfigError,
    Individual,
    LayerGene,
    ProblemKind,
    SearchConfig,
    TrainConfig,
    compatible_pairs,
    compute_costs,
    count_params,
    crossover,
    evaluate_all,
    mutate,
    nominal_convergence,
    random_genotype,
    run_search,
    sample_stop_variate,
    scaled_size,
    splice,
    tournament_select,
    validate,
)
from evonas.genotype import LayerKind

from conftest import LISTED_PAIRS, genotypes, mlp, oracle_pairs

A = Activation


class ScriptedRng:
    """Feeds predetermined draws to operators that take an rng."""

    def __init__(self, integers=(), randoms=()):
        self._integers = list(integers)
        self._randoms = list(randoms)

    def integers(self, *_args, **_kw):
        return self._integers.pop(0)

    def random(self, *_args, **_kw):
        return self._randoms.pop(0)


def surrogate_by_size(input_dim=784):
    """Deterministic evaluator: accuracy-like score falling with model size."""

    def evaluate(g, seed):
        return 1.0 / (1.0 + count_params(g, input_dim) / 50000.0)

    return evaluate


class TestSampleStopVariate:
    def test_endpoints(self):
        assert sample_stop_variate(0.0) == 0.0
        assert sample_stop_variate(1.0) == 1.0

    def test_closed_form_inversion(self):
        assert sample_stop_variate(0.75) == pytest.approx(0.5)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            sample_stop_variate(1.5)

    def test_cdf_shape(self):
        rng = np.random.default_rng(5)
        draws = np.sort([sample_stop_variate(u) for u in rng.random(20000)])
        n = len(draws)
        cdf = 2 * draws - draws**2
        sup = max(
            np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)
        )
        assert sup < 0.03


class TestScaledSize:
    def test_zeroes_last_three_digits(self):
        assert scaled_size(50890) == pytest.approx(math.log10(50000))

    def test_clamped_below(self):
        assert scaled_size(999) == 3.0
        assert scaled_size(0) == 3.0

    def test_upper_range(self):
        assert scaled_size(2**26) == pytest.approx(7.8265, abs=1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            scaled_size(-1)


class TestComputeCosts:
    def test_reconstructs_published_fitness(self):
        (c,) = compute_costs([(0.917, 50890)], 0.5, ProblemKind.CLASSIFICATION)
        assert c == pytest.approx(5 * 0.083 + 0.5 * math.log10(50000))
        assert c == pytest.approx(2.7688, abs=0.01)

    def test_low_alpha_row(self):
        (c,) = compute_costs([(0.972, 63370)], 0.3, ProblemKind.CLASSIFICATION)
        assert c == pytest.approx(1.6358, abs=0.01)

    def test_perfect_score_costs_nothing_at_alpha_zero(self):
        (c,) = compute_costs([(1.0, 1000)], 0.0, ProblemKind.CLASSIFICATION)
        assert c == 0.0

    def test_error_metrics_used_directly(self):
        (c,) = compute_costs([(0.25, 1000)], alpha=0.0, problem=ProblemKind.REGRESSION)
        assert c == pytest.approx(2.5)

    @given(
        st.floats(0.0, 0.49),
        st.floats(0.5, 1.0),
        st.integers(1000, 10**7),
    )
    def test_monotone_in_error_at_fixed_size(self, e1, e2, w):
        c1, c2 = compute_costs([(e1, w), (e2, w)], alpha=0.5, problem=ProblemKind.REGRESSION)
        assert c1 < c2

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_monotone_in_size_at_fixed_error(self, w1, w2):
        lo, hi = sorted((w1, w2))
        c_lo, c_hi = compute_costs([(0.1, lo), (0.1, hi)], alpha=0.5, problem=ProblemKind.REGRESSION)
        assert c_lo <= c_hi

    @given(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 10**7)), min_size=1, max_size=10),
        st.floats(0.0, 1.0),
        st.sampled_from(ProblemKind),
        st.randoms(use_true_random=False),
    )
    def test_each_cost_is_the_members_own(self, pop, alpha, problem, random):
        """A population's costs are its members' costs taken one at a time, in any order."""
        alone = [compute_costs([member], alpha, problem)[0] for member in pop]
        assert compute_costs(pop, alpha, problem) == alone
        order = list(range(len(pop)))
        random.shuffle(order)
        assert compute_costs([pop[i] for i in order], alpha, problem) == [alone[i] for i in order]

    def test_rejects_empty_population_and_bad_alpha(self):
        with pytest.raises(ValueError):
            compute_costs([], 0.5, ProblemKind.CLASSIFICATION)
        with pytest.raises(ValueError):
            compute_costs([(0.5, 100)], 1.5, ProblemKind.CLASSIFICATION)


def _individuals(costs):
    g = mlp([(8, A.RELU)])
    return [Individual(g, 0.5, 1000, c, 0) for c in costs]


class TestTournamentSelect:
    def test_emits_requested_count_of_members(self):
        pop = _individuals([1.0, 2.0, 3.0, 4.0, 5.0])
        rng = np.random.default_rng(0)
        parents = tournament_select(pop, 2, 10, rng)
        assert len(parents) == 10
        assert all(p in pop for p in parents)

    def test_worst_never_wins_with_distinct_costs(self):
        pop = _individuals([1.0, 2.0, 3.0, 4.0, 5.0])
        rng = np.random.default_rng(1)
        for _ in range(50):
            parents = tournament_select(pop, 4, 10, rng)
            assert all(p.cost < 5.0 for p in parents)

    def test_tournament_size_must_be_smaller_than_population(self):
        pop = _individuals([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            tournament_select(pop, 4, 2, np.random.default_rng(0))


class TestRandomGenotype:
    def test_minimal_when_stop_fires_immediately(self, mnist_search_config):
        cfg = replace(mnist_search_config, more_layers_prob=1e-12)
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = random_genotype(cfg, rng)
            assert len(g.layers) == 2

    def test_classification_output_layer(self, mnist_search_config):
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = random_genotype(mnist_search_config, rng)
            out = g.layers[-1]
            assert out.kind == LayerKind.FULLY_CONNECTED
            assert out.units == 10
            assert out.activation == A.SOFTMAX

    def test_regression_output_layer(self, mnist_search_config):
        cfg = replace(
            mnist_search_config, problem=ProblemKind.REGRESSION, output_size=1, input_shape=336
        )
        g = random_genotype(cfg, np.random.default_rng(2))
        assert g.layers[-1].units == 1
        assert g.layers[-1].activation == A.LINEAR

    @pytest.mark.parametrize("arch", ["mlp"])
    def test_first_layer_matches_architecture(self, mnist_search_config, arch):
        cfg = replace(mnist_search_config, arch=arch)
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = random_genotype(cfg, rng)
            assert g.layers[0].kind == LayerKind.FULLY_CONNECTED
            assert validate(g).ok

    def test_same_kind_layers_share_activation(self, mnist_search_config):
        cfg = replace(mnist_search_config, more_layers_prob=0.9)
        rng = np.random.default_rng(4)
        for _ in range(100):
            g = random_genotype(cfg, rng)
            per_kind: dict[LayerKind, set] = {}
            for gene in g.layers[:-1]:
                if gene.activation is not None:
                    per_kind.setdefault(gene.kind, set()).add(gene.activation)
            assert all(len(acts) == 1 for acts in per_kind.values())

    def test_generated_models_stay_inside_their_family(self, mnist_search_config):
        rng = np.random.default_rng(14)
        cfg = replace(mnist_search_config, more_layers_prob=0.8)
        for _ in range(100):
            g = random_genotype(cfg, rng)
            kinds = {gene.kind for gene in g.layers}
            assert kinds <= {LayerKind.FULLY_CONNECTED, LayerKind.DROPOUT}

    def test_deeper_with_larger_stop_parameter(self, mnist_search_config):
        shallow_cfg = replace(mnist_search_config, more_layers_prob=0.1)
        deep_cfg = replace(mnist_search_config, more_layers_prob=0.9)
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        shallow = np.mean([len(random_genotype(shallow_cfg, rng1).layers) for _ in range(300)])
        deep = np.mean([len(random_genotype(deep_cfg, rng2).layers) for _ in range(300)])
        assert deep > shallow


class TestCompatiblePairs:
    def test_fixture_matches_brute_force_oracle(self, crossover_parents):
        base, donor = crossover_parents
        rule = compatible_pairs(base, 1, 3, donor, 64)
        assert rule == oracle_pairs(base, 1, 3, donor, 64)

    def test_fixture_contains_all_listed_pairs(self, crossover_parents):
        base, donor = crossover_parents
        rule = set(compatible_pairs(base, 1, 3, donor, 64))
        assert set(LISTED_PAIRS) <= rule
        assert (2, 4) in rule

    @given(genotypes(problem=ProblemKind.CLASSIFICATION, max_hidden=5),
           genotypes(problem=ProblemKind.CLASSIFICATION, max_hidden=5),
           st.data())
    @settings(max_examples=150)
    def test_rule_agrees_with_oracle_on_random_inputs(self, base, donor, data):
        r1 = data.draw(st.integers(0, len(base.layers) - 2))
        r2 = data.draw(st.integers(r1, len(base.layers) - 2))
        assert compatible_pairs(base, r1, r2, donor, 64) == oracle_pairs(
            base, r1, r2, donor, 64
        )

    def test_incompatible_donor_yields_empty_list(self):
        # every dense or dropout segment may stand between two dense layers,
        # but cutting one layer of three leaves two, and max_layers=2 has no
        # room for any segment
        base = mlp([(64, A.RELU), (32, A.RELU)])
        donor = mlp([(16, A.TANH), 0.5, (8, A.TANH)])
        assert compatible_pairs(base, 1, 1, donor, 64)
        assert compatible_pairs(base, 1, 1, donor, 2) == []

    def test_full_span_self_pair(self, stacked_example):
        last_hidden = len(stacked_example.layers) - 2
        pairs = compatible_pairs(stacked_example, 0, last_hidden, stacked_example, 64)
        assert (0, last_hidden) in pairs

    def test_length_budget_excludes_long_segments(self, crossover_parents):
        base, donor = crossover_parents
        tight = compatible_pairs(base, 1, 1, donor, max_layers=len(base.layers))
        assert all(r4 - r3 == 0 for r3, r4 in tight)

    def test_out_of_range_cut_rejected(self, stacked_example):
        with pytest.raises(IndexError):
            compatible_pairs(stacked_example, 0, len(stacked_example.layers) - 1, stacked_example)


class TestCrossover:
    def test_worked_example(self, crossover_parents, crossover_child, mnist_search_config):
        base, donor = crossover_parents
        pairs = compatible_pairs(base, 1, 3, donor, 64)
        rng = ScriptedRng(integers=[1, 3, pairs.index((2, 4))])
        child = crossover(base, donor, mnist_search_config, rng)
        assert child == crossover_child
        assert validate(child).ok

    def test_self_crossover_with_aligned_cut(self, stacked_example, mnist_search_config):
        pairs = compatible_pairs(stacked_example, 1, 2, stacked_example, 64)
        rng = ScriptedRng(integers=[1, 2, pairs.index((1, 2))])
        child = crossover(stacked_example, stacked_example, mnist_search_config, rng)
        assert child == stacked_example

    def test_equal_cut_expands_to_last_hidden(self, crossover_parents, mnist_search_config):
        base, donor = crossover_parents
        pairs = compatible_pairs(base, 2, len(base.layers) - 2, donor, 64)
        rng = ScriptedRng(integers=[2, 2, pairs.index(pairs[0])])
        child = crossover(base, donor, mnist_search_config, rng)
        # layers 2..4 replaced by donor segment pairs[0]
        expected = splice(base, donor, 2, len(base.layers) - 2, *pairs[0])
        assert child == expected

    def test_exhaustion_returns_base_parent(self, mnist_search_config):
        base = mlp([(16, A.TANH), (32, A.TANH), (64, A.TANH)])
        donor = mlp([(16, A.TANH), 0.5, (24, A.TANH)])
        # cutting the last hidden layer leaves three layers, and a length
        # budget of three admits no donor segment: all three trials come up empty
        cfg = replace(mnist_search_config, max_layers=3)
        assert compatible_pairs(base, 2, 2, donor, 64)
        assert compatible_pairs(base, 2, 2, donor, cfg.max_layers) == []
        rng = ScriptedRng(integers=[2, 2, 2, 2, 2, 2])
        assert crossover(base, donor, cfg, rng) == base

    def test_mixed_parents_rejected(self, mnist_search_config):
        g1 = mlp([(64, A.RELU)])
        g2 = mlp([(64, A.RELU)], LayerGene.dense(1, A.LINEAR))
        with pytest.raises(ValueError):
            crossover(g1, g2, mnist_search_config, np.random.default_rng(0))

    def test_random_crossovers_stay_valid(self, mnist_search_config):
        rng = np.random.default_rng(10)
        pool = [random_genotype(mnist_search_config, rng) for _ in range(100)]
        for _ in range(1000):
            a, b = pool[int(rng.integers(len(pool)))], pool[int(rng.integers(len(pool)))]
            child = crossover(a, b, mnist_search_config, rng)
            report = validate(child)
            assert report.ok, report.summary()
            assert len(child.layers) <= mnist_search_config.max_layers
            assert child.layers[-1] == a.layers[-1]


class TestMutate:
    def test_zero_probability_is_identity(self, stacked_example, mnist_search_config):
        cfg = replace(mnist_search_config, mutation_prob=0.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert mutate(stacked_example, cfg, rng) == stacked_example

    def test_forced_dropout_insertion(self, mnist_search_config):
        g = mlp([(64, A.RELU), (32, A.RELU)])
        # random() -> 0.0 triggers mutation; pick layer 0; edit list for a
        # dense layer is (param, activation, insert_dropout) so index 2
        # inserts; final draw picks the rate from the grid
        rng = ScriptedRng(integers=[0, 2, 5], randoms=[0.0])
        out = mutate(g, mnist_search_config, rng)
        assert out.layers[1].kind == LayerKind.DROPOUT
        assert validate(out).ok
        assert len(out.layers) == len(g.layers) + 1

    def test_forced_activation_change_rectifies_model(self, mnist_search_config):
        g = mlp([(64, A.SIGMOID), (32, A.SIGMOID), (16, A.SIGMOID)])
        # pick layer 1, edit index 1 = activation, first alternative (tanh)
        rng = ScriptedRng(integers=[1, 1, 0], randoms=[0.0])
        out = mutate(g, mnist_search_config, rng)
        hidden_acts = {gene.activation for gene in out.layers[:-1]}
        assert hidden_acts == {A.TANH}
        assert out.layers[-1].activation == A.SOFTMAX

    def test_forced_parameter_resample_changes_value(self, mnist_search_config):
        g = mlp([(64, A.RELU)])
        rng = ScriptedRng(integers=[0, 0, 0, 0], randoms=[0.0])
        out = mutate(g, mnist_search_config, rng)
        assert out.layers[0].units != 64
        assert validate(out).ok

    def test_fuzz_validity_and_mutation_rate(self, mnist_search_config):
        rng = np.random.default_rng(21)
        pool = [random_genotype(mnist_search_config, rng) for _ in range(200)]
        n, unchanged = 2000, 0
        for i in range(n):
            g = pool[i % len(pool)]
            out = mutate(g, mnist_search_config, rng)
            report = validate(out)
            assert report.ok, report.summary()
            assert out.layers[-1] == g.layers[-1]
            assert len(out.layers) <= mnist_search_config.max_layers
            if out == g:
                unchanged += 1
        p = 1.0 - mnist_search_config.mutation_prob
        sigma = math.sqrt(p * (1 - p) / n)
        assert unchanged / n >= p - 3 * sigma


@pytest.mark.parametrize("problem", list(ProblemKind))
def test_operators_keep_the_problem_and_one_hidden_activation(problem):
    """A seeded sweep of random_genotype, crossover and mutate: every output
    solves cfg.problem, and its hidden dense layers share one activation."""
    classes = 10 if problem == ProblemKind.CLASSIFICATION else 1
    cfg = small_search_config(problem=problem, output_size=classes, more_layers_prob=0.8, mutation_prob=1.0)
    rng = np.random.default_rng(27)

    def check(g):
        assert g.problem == cfg.problem
        assert len({gene.activation for gene in g.layers[:-1] if gene.activation is not None}) == 1

    pop = [random_genotype(cfg, rng) for _ in range(40)]
    for g in pop:
        check(g)
    for _ in range(400):
        a, b = (pop[int(k)] for k in rng.integers(len(pop), size=2))
        child = crossover(a, b, cfg, rng)
        check(child)
        child = mutate(child, cfg, rng)
        check(child)
        pop[int(rng.integers(len(pop)))] = child


class TestNominalConvergence:
    def test_identical_population(self, stacked_example):
        pop = [stacked_example] * 4
        assert nominal_convergence(pop, m_c=6, d_t=0.0)

    def test_distinct_population(self):
        pop = [mlp([(8 * (i + 1), A.RELU)]) for i in range(5)]
        assert not nominal_convergence(pop, m_c=1, d_t=0.0)

    def test_exact_pair_counting(self):
        a = mlp([(64, A.RELU)])
        b = mlp([(128, A.RELU)])
        c = mlp([(256, A.RELU)])
        pop = [a, a, b, b, c, c]  # exactly three zero-distance pairs
        assert nominal_convergence(pop, m_c=3, d_t=0.0)
        assert not nominal_convergence(pop, m_c=4, d_t=0.0)


class TestSearchConfig:
    def test_defaults_match_reference_table(self, mnist_search_config):
        cfg = mnist_search_config
        assert (cfg.cv_ratio, cfg.mutation_prob, cfg.more_layers_prob) == (0.2, 0.4, 0.4)
        assert (cfg.alpha, cfg.population_size, cfg.tournament_size) == (0.5, 10, 4)
        assert (cfg.train_epochs, cfg.max_generations, cfg.experiments) == (5, 10, 5)
        assert (cfg.crossover_prob, cfg.crossover_trials, cfg.convergence_pairs) == (1.0, 3, 3)
        assert cfg.convergence_threshold == 0.0
        assert cfg.train_config() == TrainConfig(5, seed=cfg.seed)  # TrainConfig's rate and batch

    def test_json_roundtrip(self, mnist_search_config):
        doc = mnist_search_config.to_dict()
        assert list(doc) == [f.name for f in fields(SearchConfig)]
        assert SearchConfig.from_dict(doc) == mnist_search_config

    @pytest.mark.parametrize(
        "patch",
        [
            {"tournament_size": 3},          # odd
            {"tournament_size": 10},         # not below population
            {"population_size": 11},
            {"alpha": 1.2},
            {"cv_ratio": 0.0},
            {"max_layers": 1},
            {"input_shape": "784"},
            {"input_shape": [28, 28]},
            {"seed": -1},
            {"learning_rate": 0},
            {"learning_rate": -0.001},
            {"batch_size": 0},
            {"input_shape": 0},
        ],
    )
    def test_bounds_enforced(self, mnist_search_config, patch):
        doc = mnist_search_config.to_dict()
        doc.update(patch)
        with pytest.raises(ConfigError):
            SearchConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("population_size", 5.5),
            ("max_generations", 2.5),
            ("tournament_size", 2.0),
            ("train_epochs", 1.5),
            ("experiments", True),
            ("seed", "7"),
            ("input_shape", True),
            ("input_shape", [28, 28.0, 1]),
            ("input_shape", [28, 28, False]),
            ("batch_size", 32.0),
            ("batch_size", True),
            ("input_shape", [28, 28, 1]),  # an image shape: its feature count is written 784
        ],
    )
    def test_integer_fields_reject_other_types(self, mnist_search_config, key, value):
        doc = mnist_search_config.to_dict()
        doc[key] = value
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            SearchConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alpha", True),
            ("mutation_prob", False),
            ("convergence_threshold", True),
            ("cv_ratio", "0.2"),
            ("crossover_prob", None),
            ("more_layers_prob", [0.4]),
            ("learning_rate", True),
        ],
    )
    def test_float_fields_reject_booleans_and_non_numbers(self, mnist_search_config, key, value):
        doc = mnist_search_config.to_dict()
        doc[key] = value
        with pytest.raises(ConfigError, match=f"^{key} must be a number, got {re.escape(repr(value))}$"):
            SearchConfig.from_dict(doc)

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("key", ["convergence_threshold", "alpha", "learning_rate"])
    def test_float_fields_reject_non_finite_values(self, mnist_search_config, key, token):
        doc = mnist_search_config.to_dict()
        doc[key] = json.loads(token)  # Python's json reads these non-standard tokens
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            SearchConfig.from_dict(doc)

    def test_float_fields_accept_integers(self, mnist_search_config):
        doc = mnist_search_config.to_dict()
        doc.update(alpha=1, mutation_prob=0, convergence_threshold=2)
        cfg = SearchConfig.from_dict(doc)
        assert (cfg.alpha, cfg.mutation_prob, cfg.convergence_threshold) == (1, 0, 2)

    def test_readme_block_lists_every_key_with_real_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Search configuration", 1)[1]
        block = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        assert list(block) == [f.name for f in fields(SearchConfig)]
        required = {k: block[k] for k in ("problem", "arch", "input_shape", "output_size")}
        assert SearchConfig.from_dict(block) == SearchConfig(**required)

    @pytest.mark.parametrize("arch", ["cnn", "rnn"])
    def test_untrainable_arch_rejected(self, mnist_search_config, arch):
        with pytest.raises(ConfigError, match="no training backend"):
            replace(mnist_search_config, arch=arch)
        doc = mnist_search_config.to_dict()
        doc["arch"] = arch
        with pytest.raises(ConfigError, match="no training backend"):
            SearchConfig.from_dict(doc)

    def test_unknown_and_missing_keys(self, mnist_search_config):
        doc = mnist_search_config.to_dict()
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            SearchConfig.from_dict(doc)
        doc = {**mnist_search_config.to_dict(), "fitness_mode": "raw_error"}  # a key that was removed
        with pytest.raises(ConfigError, match=r"^unknown configuration key\(s\): fitness_mode$"):
            SearchConfig.from_dict(doc)
        with pytest.raises(ConfigError, match="missing"):
            SearchConfig.from_dict({"problem": "classification"})


def small_search_config(**kw) -> SearchConfig:
    base = dict(
        problem=ProblemKind.CLASSIFICATION,
        arch="mlp",
        input_shape=784,
        output_size=10,
        population_size=6,
        tournament_size=2,
        max_generations=4,
        experiments=3,
        seed=77,
    )
    base.update(kw)
    return SearchConfig(**base)


def pool(evaluator, workers=1):
    """``run_search``'s ``evaluate``: the evaluation pool bound to ``evaluator``."""
    return partial(evaluate_all, evaluator=evaluator, worker_count=workers)


def flat(records):
    """(experiment, generation, index, individual) of every evaluation, in order."""
    return [
        (r.experiment, r.generation, i, ind)
        for r in records
        for i, ind in enumerate(r.individuals)
    ]


class TestRunSearch:
    def test_deterministic_across_runs_and_workers(self):
        cfg = small_search_config()
        evaluator = surrogate_by_size()
        archives = [run_search(cfg, pool(evaluator, w)) for w in (1, 1, 8)]
        baseline = [(e.genotype, e.perf, e.size, e.cost) for e in archives[0].entries]
        for other in archives[1:]:
            assert [(e.genotype, e.perf, e.size, e.cost) for e in other.entries] == baseline

    def test_records_ordered_and_complete(self):
        cfg = small_search_config()
        records = []
        run_search(cfg, pool(surrogate_by_size()), records.append)
        rows = [(e, g, i) for e, g, i, _ in flat(records)]
        assert rows == sorted(rows)
        assert all(len(r.individuals) == len(r.results) == cfg.population_size for r in records)

    def test_evaluate_called_once_per_generation_with_ordered_jobs(self):
        cfg = small_search_config(max_generations=5)
        calls, records = [], []
        evaluate_pool = pool(surrogate_by_size())

        def evaluate(jobs):
            calls.append([job.job_id for job in jobs])
            return evaluate_pool(jobs)

        run_search(cfg, evaluate, records.append)
        assert len(calls) == len(records)
        n = cfg.population_size
        for ids, rec in zip(calls, records):
            assert ids == [(rec.experiment, rec.generation, i) for i in range(n)]
            assert [r.job_id for r in rec.results] == ids

    def test_results_out_of_job_order_raise(self):
        cfg = small_search_config(experiments=1)
        evaluate_pool = pool(surrogate_by_size())
        with pytest.raises(RuntimeError, match="generation 0: results not in job order"):
            run_search(cfg, lambda jobs: evaluate_pool(jobs)[::-1])

    def test_experiment_best_matches_replayed_minimum(self):
        cfg = small_search_config()
        records = []
        archive = run_search(cfg, pool(surrogate_by_size()), records.append)
        per_exp: dict[int, list[float]] = {}
        for e, _, _, ind in flat(records):
            per_exp.setdefault(e, []).append(ind.cost)
        for exp, entry in enumerate(archive.entries):
            assert entry.cost == pytest.approx(min(per_exp[exp]))

    def test_best_cost_non_increasing_within_experiment(self):
        cfg = small_search_config(max_generations=6)
        records = []
        run_search(cfg, pool(surrogate_by_size()), records.append)
        seen: dict[int, list[float]] = {}
        for e, g, _, ind in flat(records):
            seen.setdefault(e, []).append((g, ind.cost))
        for rows in seen.values():
            best_so_far = math.inf
            gen_best: dict[int, float] = {}
            for g, cost in rows:
                gen_best[g] = min(gen_best.get(g, math.inf), cost)
            series = []
            for g in sorted(gen_best):
                best_so_far = min(best_so_far, gen_best[g])
                series.append(best_so_far)
            assert series == sorted(series, reverse=True)

    def test_alpha_one_prefers_smallest_encountered(self):
        cfg = small_search_config(alpha=1.0)
        records = []
        archive = run_search(cfg, pool(surrogate_by_size()), records.append)
        sizes = [ind.size for _, _, _, ind in flat(records)]
        winner = archive.entries[archive.winner]
        assert scaled_size(winner.size) == pytest.approx(min(scaled_size(s) for s in sizes))

    def test_huge_threshold_converges_after_one_generation(self):
        cfg = small_search_config(convergence_threshold=1e12, max_generations=10)
        records = []
        run_search(cfg, pool(surrogate_by_size()), records.append)
        # every experiment evaluates generation 0 and then stops
        assert [(r.experiment, r.generation) for r in records] == [
            (e, 0) for e in range(cfg.experiments)
        ]

    def test_failing_evaluator_gets_worst_case_and_logs(self, caplog):
        cfg = small_search_config(experiments=1, max_generations=2)

        def flaky(g, seed):
            if len(g.layers) > 2:
                raise RuntimeError("boom")
            return surrogate_by_size()(g, seed)

        with caplog.at_level(logging.WARNING):
            records = []
            archive = run_search(cfg, pool(flaky), records.append)
        assert archive.entries
        assert any("failed" in message for message in caplog.messages)
        rows = [ind for _, _, _, ind in flat(records)]
        ok_perfs = [ind.perf for ind in rows if len(ind.genotype.layers) == 2]
        failed = [ind for ind in rows if len(ind.genotype.layers) > 2]
        if failed and ok_perfs:
            assert all(ind.perf == pytest.approx(min(ok_perfs)) for ind in failed)

    def test_failed_evaluation_is_never_kept(self):
        # every success scores alike, so a small network that failed is the
        # cheapest individual of its generation by its imputed perf
        failed = set()

        def small_ones_fail_now_and_then(g, seed):
            if count_params(g, 784) < 100000 and seed % 3 == 0:
                failed.add(seed)
                raise RuntimeError("lost")
            return 0.5

        for seed in range(6):
            cfg = small_search_config(max_generations=3, alpha=0.5, seed=seed)
            records = []
            archive = run_search(cfg, pool(small_ones_fail_now_and_then), records.append)
            assert [e.eval_seed for e in archive.entries if e.eval_seed in failed] == []
            for exp, entry in enumerate(archive.entries):
                ok = [i for e, _, _, i in flat(records) if e == exp and i.eval_seed not in failed]
                assert entry.cost == min(i.cost for i in ok)
        assert failed

    def test_generation_without_success_raises_before_recording(self):
        cfg = small_search_config(experiments=1, max_generations=3, convergence_pairs=15)
        calls = []
        evaluated = []

        def fails_after_first_generation(g, seed):
            calls.append(seed)
            if len(calls) > cfg.population_size:
                raise ValueError("backend lost")
            return surrogate_by_size()(g, seed)

        def evaluate(jobs):
            evaluated.append(jobs[0].job_id[:2])
            return evaluate_all(jobs, fails_after_first_generation)

        records = []
        with pytest.raises(
            RuntimeError, match=r"experiment 0, generation 1: .*ValueError\('backend lost'\)"
        ):
            run_search(cfg, evaluate, records.append)
        # generation 1 was evaluated once, and never reached on_generation with imputed perfs
        assert evaluated == [(0, 0), (0, 1)]
        assert [(r.experiment, r.generation) for r in records] == [(0, 0)]
        assert len(calls) == 2 * cfg.population_size

    def test_readme_library_example_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        *generations, winner = capsys.readouterr().out.splitlines()
        assert {line.split(" generation")[0] for line in generations} == {
            "experiment 0", "experiment 1"
        }
        pattern = r"experiment \d generation \d: best cost \d\.\d{3}"
        assert all(re.fullmatch(pattern, line) for line in generations)
        assert re.fullmatch(r"winner cost \d\.\d{3}", winner)

    def test_every_size_is_the_genotypes_parameter_count(self):
        """An evaluator returns a bare score; each individual's size, a failed
        evaluation's included, is its genotype's count_params."""
        cfg = small_search_config(experiments=2)

        def score(g, seed):
            if len(g.layers) > 3:
                raise RuntimeError("boom")
            return 0.5

        records = []
        archive = run_search(cfg, pool(score), records.append)
        rows = [ind for _, _, _, ind in flat(records)] + archive.entries
        assert any(not r.ok for rec in records for r in rec.results)
        assert all(ind.size == count_params(ind.genotype, cfg.input_shape) for ind in rows)

    def test_zero_crossover_probability_clones_base_parents(self, monkeypatch):
        def forbidden(*_a, **_k):
            raise AssertionError("crossover must not run at probability zero")

        monkeypatch.setattr("evonas.evolution.crossover", forbidden)
        cfg = small_search_config(crossover_prob=0.0, mutation_prob=0.0, experiments=1)
        archive = run_search(cfg, pool(surrogate_by_size()))
        assert archive.entries  # search completed on parent clones alone


class TestFinalize:
    """The final pick: ``Archive.winner``, the cheapest entry by its stored cost."""

    def test_single_entry(self):
        g = mlp([(8, A.RELU)])
        archive = Archive(entries=[Individual(g, 0.9, 1000, 3.5, 0)])
        assert archive.winner == 0

    def test_raw_mode_winner_matches_stored_costs(self):
        cfg = small_search_config()
        archive = run_search(cfg, pool(surrogate_by_size()))
        stored = [e.cost for e in archive.entries]
        assert archive.entries[archive.winner].cost == min(stored)
        assert [e.cost for e in archive.entries] == stored

    def test_first_of_equal_costs_wins(self):
        g = mlp([(8, A.RELU)])
        costs = [2.0, 1.5, 3.0, 1.5]
        archive = Archive(entries=[Individual(g, 0.9, 1000, c, k) for k, c in enumerate(costs)])
        assert archive.winner == 1

    def test_empty_archive_rejected(self):
        with pytest.raises(ValueError):
            Archive().winner
