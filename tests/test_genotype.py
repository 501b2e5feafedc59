"""Unit and property tests for the layer encoding and its operations."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonas import (
    Activation,
    ArchKind,
    Genotype,
    GenotypeError,
    LayerGene,
    ParseError,
    ProblemKind,
    can_follow,
    count_params,
    distance,
    parse,
    rectify_activations,
    serialize,
    validate,
)
from evonas.genotype import FOLLOWERS, LayerKind, to_dict

from conftest import (
    BEST_ALPHA_03_TABLE,
    BEST_ALPHA_05_TABLE,
    BEST_ALPHA_07_TABLE,
    INITIAL_POPULATION_TABLE,
    RUL_WINNER_TABLE,
    classifier,
    genotypes,
    mlp_classifier,
    mlp_regressor,
)

A = Activation
K = LayerKind

# Independent transcription of the stacking rules: rows are the preceding
# layer kind (1..5), columns the candidate follower kind (1..5).
FOLLOW_MATRIX = [
    # FC     Conv   Pool   Rec    Drop
    [True, False, False, False, True],   # after fully connected
    [True, True, True, False, True],     # after convolutional
    [True, True, False, False, False],   # after pooling
    [True, False, False, True, False],   # after recurrent
    [True, True, False, True, False],    # after dropout
]


class TestCanFollow:
    def test_matches_transcribed_matrix(self):
        for a in K:
            for b in K:
                assert can_follow(a, b) == FOLLOW_MATRIX[a - 1][b - 1], (a, b)

    def test_spot_checks(self):
        assert can_follow(K.FULLY_CONNECTED, K.DROPOUT)
        assert not can_follow(K.FULLY_CONNECTED, K.CONVOLUTIONAL)
        assert not can_follow(K.DROPOUT, K.DROPOUT)


class TestValidate:
    def test_stacked_example_is_valid(self, stacked_example):
        assert validate(stacked_example).ok

    def test_single_layer_rejected(self):
        g = classifier(LayerGene.dense(10, A.SOFTMAX))
        report = validate(g)
        assert not report.ok
        assert any("hidden layer" in str(v) for v in report.violations)

    def test_dropout_after_dropout_located(self, stacked_example):
        layers = list(stacked_example.layers)
        layers[1], layers[2] = layers[2], layers[1]  # puts the two dropouts adjacent
        report = validate(Genotype(tuple(layers), ArchKind.MLP, ProblemKind.CLASSIFICATION))
        assert not report.ok
        bad = [v for v in report.violations if "Dropout" in v.message and "follow" in v.message]
        assert bad and bad[0].index == 3

    def test_first_layer_must_match_architecture(self):
        g = Genotype(
            (LayerGene.dense(64, A.RELU), LayerGene.dense(10, A.SOFTMAX)),
            ArchKind.CNN,
            ProblemKind.CLASSIFICATION,
        )
        report = validate(g)
        assert not report.ok
        assert report.violations[0].index == 0

    def test_output_layer_rules(self):
        wrong_act = classifier(LayerGene.dense(64, A.RELU), LayerGene.dense(10, A.LINEAR))
        assert not validate(wrong_act).ok
        two_unit_regression = Genotype(
            (LayerGene.dense(64, A.RELU), LayerGene.dense(2, A.LINEAR)),
            ArchKind.MLP,
            ProblemKind.REGRESSION,
        )
        assert not validate(two_unit_regression).ok

    def test_hidden_units_must_sit_on_grid(self):
        g = classifier(LayerGene.dense(65, A.RELU), LayerGene.dense(10, A.SOFTMAX))
        report = validate(g)
        assert not report.ok
        assert any("multiple of 8" in v.message for v in report.violations)

    def test_softmax_forbidden_on_hidden_layers(self):
        g = classifier(
            LayerGene.dense(64, A.SOFTMAX),
            LayerGene.dense(64, A.RELU),
            LayerGene.dense(10, A.SOFTMAX),
        )
        assert not validate(g).ok

    def test_length_cap(self):
        genes = [LayerGene.dense(8, A.RELU)] * 64 + [LayerGene.dense(10, A.SOFTMAX)]
        report = validate(classifier(*genes))
        assert not report.ok
        assert any("exceeds" in v.message for v in report.violations)

    @given(genotypes())
    def test_strategy_generates_valid_genotypes(self, g):
        assert validate(g).ok, validate(g).summary()


class TestCountParams:
    @pytest.mark.parametrize(
        "table,input_dim",
        [
            (INITIAL_POPULATION_TABLE, 784),
            (BEST_ALPHA_05_TABLE, 784),
            (BEST_ALPHA_03_TABLE, 784),
            (BEST_ALPHA_07_TABLE, 784),
        ],
    )
    def test_published_classifier_sizes(self, table, input_dim):
        for spec, _, expected, _, _ in table:
            assert count_params(mlp_classifier(spec), input_dim) == expected

    def test_published_regressor_sizes(self):
        for spec, expected in RUL_WINNER_TABLE:
            assert count_params(mlp_regressor(spec), 336) == expected

    def test_invalid_genotype_rejected(self):
        g = classifier(LayerGene.dense(10, A.SOFTMAX))
        with pytest.raises(GenotypeError):
            count_params(g, 784)

    def test_conv_pool_arithmetic_by_hand(self):
        # 28x28x1 -> conv 8 filters 3x3 stride 1 -> 26x26x8 -> pool 2 -> 13x13x8
        # -> flatten 1352 -> dense 10.   (9*1+1)*8 + (1352+1)*10 = 80 + 13530
        g = Genotype(
            (
                LayerGene.conv(8, 3, 1, A.RELU),
                LayerGene.pooling(2),
                LayerGene.dense(10, A.SOFTMAX),
            ),
            ArchKind.CNN,
            ProblemKind.CLASSIFICATION,
        )
        assert count_params(g, (28, 28, 1)) == 80 + 13530

    def test_recurrent_count_by_hand(self):
        # (input + units + 1) * units = (12 + 16 + 1) * 16, then (16+1)*2
        g = Genotype(
            (LayerGene.recurrent(16, A.TANH), LayerGene.dense(2, A.SOFTMAX)),
            ArchKind.RNN,
            ProblemKind.CLASSIFICATION,
        )
        assert count_params(g, 12) == 29 * 16 + 17 * 2

    def test_conv_needs_spatial_input(self):
        g = Genotype(
            (LayerGene.conv(8, 3, 1, A.RELU), LayerGene.dense(10, A.SOFTMAX)),
            ArchKind.CNN,
            ProblemKind.CLASSIFICATION,
        )
        with pytest.raises(GenotypeError, match="spatial"):
            count_params(g, 784)


class TestDistance:
    def test_identity(self, stacked_example):
        assert distance(stacked_example, stacked_example) == 0.0

    def test_single_slot_difference(self):
        a = mlp_classifier([(64, A.RELU)])
        b = mlp_classifier([(72, A.RELU)])
        assert distance(a, b) == pytest.approx(8.0)

    def test_extra_layer_contributes_its_norm(self):
        a = mlp_classifier([(64, A.RELU)])
        b = mlp_classifier([(64, A.RELU), (64, A.RELU)])
        assert distance(a, b) == pytest.approx(math.sqrt(1 + 64**2 + 2**2))

    def test_output_layer_is_ignored(self):
        a = mlp_classifier([(64, A.RELU)], classes=10)
        b = mlp_classifier([(64, A.RELU)], classes=3)
        assert distance(a, b) == 0.0

    @given(genotypes(), genotypes())
    def test_symmetry(self, a, b):
        assert distance(a, b) == pytest.approx(distance(b, a))

    @given(genotypes())
    def test_zero_iff_same_non_final_layers(self, g):
        assert distance(g, g) == 0.0
        bumped = list(g.layers)
        first = bumped[0]
        if first.units:
            new_units = first.units + 8 if first.units + 8 <= 1024 else first.units - 8
            bumped[0] = LayerGene(
                first.kind, units=new_units, activation=first.activation,
                filters=first.filters, kernel_size=first.kernel_size,
                kernel_stride=first.kernel_stride, pool_size=first.pool_size,
                dropout_rate=first.dropout_rate,
            )
            g2 = Genotype(tuple(bumped), g.arch, g.problem)
            assert distance(g, g2) > 0.0

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                genotypes(arch=ArchKind.MLP, max_hidden=n),
                genotypes(arch=ArchKind.MLP, max_hidden=n),
                genotypes(arch=ArchKind.MLP, max_hidden=n),
            )
        )
    )
    def test_triangle_inequality_for_equal_lengths(self, triple):
        a, b, c = triple
        if not (len(a.layers) == len(b.layers) == len(c.layers)):
            return
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


class TestRectifyActivations:
    def test_matches_reference_kinds(self):
        target = mlp_classifier([(64, A.SIGMOID), (32, A.SIGMOID)])
        reference = mlp_classifier([(8, A.RELU)])
        out = rectify_activations(target, reference)
        assert [g.activation for g in out.layers[:-1]] == [A.RELU, A.RELU]
        assert out.layers[-1].activation == A.SOFTMAX

    def test_fixed_point(self, stacked_example):
        assert rectify_activations(stacked_example, stacked_example) == stacked_example

    def test_vacuous_when_reference_lacks_kind(self):
        target = mlp_classifier([(64, A.SIGMOID)])
        reference = Genotype(
            (
                LayerGene.recurrent(16, A.TANH),
                LayerGene.dense(10, A.SOFTMAX),
            ),
            ArchKind.RNN,
            ProblemKind.CLASSIFICATION,
        )
        assert rectify_activations(target, reference) == target

    def test_reference_output_layer_never_leaks(self):
        # the reference's softmax output must not turn hidden dense layers softmax
        target = mlp_classifier([(64, A.SIGMOID)])
        reference = mlp_classifier([(8, A.TANH)])
        out = rectify_activations(target, reference)
        assert out.layers[0].activation == A.TANH


class TestVecView:
    @given(genotypes())
    def test_only_applicable_slots_nonzero(self, g):
        applicable = {
            K.FULLY_CONNECTED: {0, 1, 2},
            K.CONVOLUTIONAL: {0, 2, 3, 4, 5},
            K.POOLING: {0, 6},
            K.RECURRENT: {0, 1, 2},
            K.DROPOUT: {0, 7},
        }
        for gene in g.layers:
            vec = gene.to_vec()
            for slot, value in enumerate(vec):
                if slot not in applicable[gene.kind]:
                    assert value == 0.0, (gene.kind, slot, value)

    @given(genotypes())
    def test_gene_roundtrip_through_vec(self, g):
        for gene in g.layers:
            assert LayerGene.from_vec(gene.to_vec()) == gene


class TestSerializeParse:
    def test_worked_example_roundtrip(self, stacked_example):
        assert parse(serialize(stacked_example)) == stacked_example

    def test_document_shape(self, stacked_example):
        doc = json.loads(serialize(stacked_example))
        assert doc["arch"] == "mlp"
        assert doc["problem"] == "classification"
        assert doc["raw"][0] == [1, 264, 2, 0, 0, 0, 0, 0]
        assert doc["raw"][1] == [5, 0, 0, 0, 0, 0, 0, 0.65]
        assert doc["layers"][0] == {"kind": 1, "units": 264, "activation": 2}

    def test_document_form_of_every_layer_kind(self):
        g = Genotype(
            (
                LayerGene.conv(16, 3, 2, A.RELU),
                LayerGene.pooling(2),
                LayerGene.conv(8, 9, 1, A.TANH),
                LayerGene.dropout(0.25),
                LayerGene.recurrent(32, A.SIGMOID),
                LayerGene.dense(10, A.SOFTMAX),
            ),
            ArchKind.CNN,
            ProblemKind.CLASSIFICATION,
        )
        expected = {
            "arch": "cnn",
            "problem": "classification",
            "layers": [
                {"kind": 2, "filters": 16, "kernel_size": 3, "stride": 2, "activation": 2},
                {"kind": 3, "pool_size": 2},
                {"kind": 2, "filters": 8, "kernel_size": 9, "stride": 1, "activation": 1},
                {"kind": 5, "rate": 0.25},
                {"kind": 4, "units": 32, "activation": 0},
                {"kind": 1, "units": 10, "activation": 3},
            ],
            "raw": [
                [2, 0, 2, 16, 3, 2, 0, 0],
                [3, 0, 0, 0, 0, 0, 2, 0],
                [2, 0, 1, 8, 9, 1, 0, 0],
                [5, 0, 0, 0, 0, 0, 0, 0.25],
                [4, 32, 0, 0, 0, 0, 0, 0],
                [1, 10, 3, 0, 0, 0, 0, 0],
            ],
        }
        doc = to_dict(g)
        assert doc == expected
        # dict equality ignores key order and 0 == 0.0; the text does not
        assert serialize(g) == json.dumps(expected, separators=(",", ":"))
        for form in ("layers", "raw"):
            only = {"arch": "cnn", "problem": "classification", form: expected[form]}
            assert parse(json.dumps(only)) == g

    @given(genotypes())
    @settings(max_examples=200)
    def test_roundtrip_property(self, g):
        assert parse(serialize(g)) == g

    def test_roundtrip_bulk_random(self, mnist_search_config):
        # a large seeded sweep over generated genotypes of both problem kinds
        from evonas import random_genotype
        from dataclasses import replace

        rng = np.random.default_rng(123)
        configs = [
            mnist_search_config,
            replace(
                mnist_search_config,
                problem=ProblemKind.REGRESSION,
                output_size=1,
            ),
        ]
        for _ in range(2500):
            for cfg in configs:
                g = random_genotype(cfg, rng)
                assert parse(serialize(g)) == g

    def test_out_of_range_dropout_named(self, stacked_example):
        doc = to_dict(stacked_example)
        doc["raw"][1][7] = 1.5
        with pytest.raises(ParseError, match=r"layer 1.*dropout_rate.*1\.5"):
            parse(json.dumps(doc))

    def test_bad_adjacency_cites_rule(self):
        doc = {
            "arch": "mlp",
            "problem": "classification",
            "raw": [
                [1, 64, 2, 0, 0, 0, 0, 0],
                [2, 0, 2, 8, 3, 1, 0, 0],
                [1, 10, 3, 0, 0, 0, 0, 0],
            ],
        }
        with pytest.raises(ParseError, match="cannot follow Fully connected"):
            parse(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError, match="JSON"):
            parse("{not json")

    def test_unknown_kind_code_rejected(self):
        doc = {"arch": "mlp", "problem": "classification", "raw": [[9, 0, 0, 0, 0, 0, 0, 0]]}
        with pytest.raises(ParseError, match="layer 0"):
            parse(json.dumps(doc))

    def test_inapplicable_activation_slot_rejected(self, stacked_example):
        doc = to_dict(stacked_example)
        doc["raw"][1][2] = 3  # dropout rows carry no activation
        with pytest.raises(ParseError, match=r"layer 1.*activation slot"):
            parse(json.dumps(doc))

    def test_named_form_accepted_without_raw(self):
        doc = {
            "arch": "mlp",
            "problem": "classification",
            "layers": [
                {"kind": 1, "units": 64, "activation": 2},
                {"kind": 1, "units": 10, "activation": 3},
            ],
        }
        g = parse(json.dumps(doc))
        assert g.layers[0].units == 64


def test_follower_table_closed_over_kinds():
    assert set(FOLLOWERS) == set(K)
    for followers in FOLLOWERS.values():
        assert followers <= set(K)
