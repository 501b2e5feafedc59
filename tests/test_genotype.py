"""Unit and property tests for the layer encoding and its operations."""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonas import (
    Activation,
    Genotype,
    GenotypeError,
    LayerGene,
    ParseError,
    ProblemKind,
    can_follow,
    count_params,
    distance,
    parse,
    serialize,
    splice,
    validate,
)
from evonas import genotype as genotype_mod
from evonas.genotype import (
    FOLLOWERS,
    HIDDEN_ACTIVATIONS,
    OUTPUT_ACTIVATION,
    LayerKind,
    input_fan_in,
    to_dict,
    with_hidden_activation,
)
from evonas.trainer import materialize

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
# layer kind, columns the candidate follower kind, both in LayerKind order.
FOLLOW_MATRIX = [
    # FC    Drop
    [True, True],    # after fully connected
    [True, False],   # after dropout
]


class TestCanFollow:
    def test_matches_transcribed_matrix(self):
        for i, a in enumerate(K):
            for j, b in enumerate(K):
                assert can_follow(a, b) == FOLLOW_MATRIX[i][j], (a, b)

    def test_spot_checks(self):
        assert can_follow(K.FULLY_CONNECTED, K.DROPOUT)
        assert can_follow(K.DROPOUT, K.FULLY_CONNECTED)
        assert not can_follow(K.DROPOUT, K.DROPOUT)


class TestValidate:
    """A genotype is checked once, when it is built: one that breaks a rule
    does not exist, so each rule is seen as the error building it raises."""

    def test_stacked_example_is_valid(self, stacked_example):
        assert validate(stacked_example).ok

    def test_single_layer_rejected(self):
        with pytest.raises(GenotypeError, match="genotype: a genotype needs at least one hidden layer"):
            classifier(LayerGene.dense(10, A.SOFTMAX))

    def test_dropout_after_dropout_located(self, stacked_example):
        layers = list(stacked_example.layers)
        layers[1], layers[2] = layers[2], layers[1]  # puts the two dropouts adjacent
        with pytest.raises(GenotypeError, match="layer 3: Dropout layer cannot follow Dropout"):
            Genotype(tuple(layers))

    def test_first_layer_must_match_architecture(self):
        with pytest.raises(GenotypeError, match="^invalid genotype: layer 0: first layer must be fully connected"):
            classifier(LayerGene.dropout(0.5), LayerGene.dense(64, A.RELU), LayerGene.dense(10, A.SOFTMAX))

    def test_output_layer_rules(self):
        with pytest.raises(GenotypeError, match="layer 1: regression output layer must have exactly one unit"):
            classifier(LayerGene.dense(64, A.RELU), LayerGene.dense(10, A.LINEAR))
        with pytest.raises(GenotypeError, match="layer 1: regression output layer must have exactly one unit"):
            Genotype((LayerGene.dense(64, A.RELU), LayerGene.dense(2, A.LINEAR)))

    def test_output_layer_names_the_problem(self):
        assert mlp_classifier([(64, A.RELU)]).problem == ProblemKind.CLASSIFICATION
        assert mlp_regressor([(64, A.RELU)]).problem == ProblemKind.REGRESSION
        assert OUTPUT_ACTIVATION == {
            ProblemKind.CLASSIFICATION: A.SOFTMAX,
            ProblemKind.REGRESSION: A.LINEAR,
        }
        with pytest.raises(
            GenotypeError, match="^invalid genotype: layer 1: output layer must use softmax or the linear activation$"
        ):
            classifier(LayerGene.dense(64, A.RELU), LayerGene.dense(1, A.SIGMOID))

    def test_hidden_units_must_sit_on_grid(self):
        with pytest.raises(GenotypeError, match="layer 0: units 65 not a multiple of 8"):
            classifier(LayerGene.dense(65, A.RELU), LayerGene.dense(10, A.SOFTMAX))

    def test_softmax_forbidden_on_hidden_layers(self):
        with pytest.raises(GenotypeError, match="layer 0: activation 3 is reserved for output layers"):
            classifier(
                LayerGene.dense(64, A.SOFTMAX),
                LayerGene.dense(64, A.RELU),
                LayerGene.dense(10, A.SOFTMAX),
            )

    def test_length_cap(self):
        genes = [LayerGene.dense(8, A.RELU)] * 64 + [LayerGene.dense(10, A.SOFTMAX)]
        with pytest.raises(GenotypeError, match="genotype: 65 layers exceeds the maximum of 64"):
            classifier(*genes)

    @given(genotypes())
    def test_strategy_generates_valid_genotypes(self, g):
        assert validate(g).ok, validate(g).summary()

    @pytest.mark.parametrize(
        "layers, violation",
        [
            ([LayerGene.dense(10, A.SOFTMAX)], "genotype: a genotype needs at least one hidden layer"),
            ([LayerGene.dropout(0.5), LayerGene.dense(10, A.SOFTMAX)], "layer 0: first layer must be fully connected"),
            (
                [LayerGene.dense(64, A.RELU), LayerGene.dropout(0.5), LayerGene.dropout(0.2), LayerGene.dense(10, A.SOFTMAX)],
                "layer 2: Dropout layer cannot follow Dropout",
            ),
            ([LayerGene.dense(60, A.RELU), LayerGene.dense(10, A.SOFTMAX)], "layer 0: units 60 not a multiple of 8"),
            (
                [LayerGene.dense(64, A.RELU), LayerGene.dense(64, A.SOFTMAX), LayerGene.dense(10, A.SOFTMAX)],
                "layer 1: activation 3 is reserved for output layers",
            ),
            ([LayerGene.dense(64, A.RELU), LayerGene.dense(10, A.TANH)], "layer 1: output layer must use softmax"),
            ([LayerGene.dense(8, A.RELU)] * 64 + [LayerGene.dense(1, A.LINEAR)], "genotype: 65 layers exceeds"),
        ],
        ids=["no-hidden-layer", "dropout-first", "dropout-after-dropout", "off-grid-units", "hidden-softmax",
             "wrong-output", "too-long"],
    )
    def test_every_rule_refuses_the_build(self, stacked_example, layers, violation):
        with pytest.raises(GenotypeError, match=f"^invalid genotype: (.*; )?{re.escape(violation)}"):
            Genotype(tuple(layers))
        with pytest.raises(GenotypeError, match=f"^invalid genotype: (.*; )?{re.escape(violation)}"):
            replace(stacked_example, layers=tuple(layers))

    def test_validated_once_when_built(self, stacked_example, monkeypatch):
        calls, check = [], genotype_mod.validate
        monkeypatch.setattr(genotype_mod, "validate", lambda g: calls.append(g) or check(g))
        g = Genotype(stacked_example.layers)
        assert calls == [g]
        calls.clear()
        count_params(g, 784)
        materialize(g, 784, seed=0)
        serialize(g)
        to_dict(g)
        distance(g, stacked_example)
        assert calls == []
        assert parse(serialize(g)) == g and len(calls) == 1  # reading a document builds one


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
        # a one-layer network has no hidden layer, so there is no genotype to count
        with pytest.raises(GenotypeError, match="at least one hidden layer"):
            classifier(LayerGene.dense(10, A.SOFTMAX))

    def test_image_shape_flattens_into_the_first_layer(self):
        # 28x28x1 -> 784 features: (784+1)*64 + (64+1)*10, dropout adds nothing
        g = mlp_classifier([(64, A.RELU), 0.5])
        assert count_params(g, (28, 28, 1)) == count_params(g, [28, 28, 1]) == 785 * 64 + 65 * 10
        assert input_fan_in((28, 28, 3)) == input_fan_in(2352) == 2352

    @pytest.mark.parametrize(
        "shape", [0, -5, True, 7.0, "784", [784], (28, 28), (28, 0, 1), (28, 28, True)]
    )
    def test_malformed_input_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="positive integer or an \\[H, W, C\\] triple"):
            count_params(mlp_classifier([(64, A.RELU)]), shape)


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
        first = bumped[0]  # always dense
        bumped[0] = replace(first, units=first.units + 8 if first.units + 8 <= 1024 else first.units - 8)
        g2 = Genotype(tuple(bumped))
        assert distance(g, g2) > 0.0

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                genotypes(max_hidden=n),
                genotypes(max_hidden=n),
                genotypes(max_hidden=n),
            )
        )
    )
    def test_triangle_inequality_for_equal_lengths(self, triple):
        a, b, c = triple
        if not (len(a.layers) == len(b.layers) == len(c.layers)):
            return
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


class TestRectifyActivations:
    """Crossover's splice gives every hidden dense layer its base parent's activation."""

    def test_matches_reference_kinds(self):
        base = mlp_classifier([(8, A.RELU)])
        donor = mlp_classifier([(64, A.SIGMOID), (32, A.SIGMOID)])
        out = splice(base, donor, 0, 0, 0, 1)
        assert [g.units for g in out.layers[:-1]] == [64, 32]
        assert [g.activation for g in out.layers[:-1]] == [A.RELU, A.RELU]
        assert out.layers[-1].activation == A.SOFTMAX

    def test_fixed_point(self, stacked_example):
        last = len(stacked_example.layers) - 2
        assert splice(stacked_example, stacked_example, 0, last, 0, last) == stacked_example

    def test_reference_output_layer_never_leaks(self):
        # the base's softmax output must not turn hidden dense layers softmax
        base = mlp_classifier([(8, A.TANH)])
        donor = mlp_classifier([(64, A.SIGMOID)])
        out = splice(base, donor, 0, 0, 0, 0)
        assert out.layers[0] == LayerGene.dense(64, A.TANH)


class TestWithHiddenActivation:
    @given(genotypes(), st.sampled_from(HIDDEN_ACTIVATIONS))
    def test_only_hidden_dense_layers_change(self, g, activation):
        out = with_hidden_activation(g, activation)
        assert len(out.layers) == len(g.layers)
        for before, after in zip(g.layers[:-1], out.layers[:-1]):
            if before.kind == K.DROPOUT:
                assert after == before
            else:
                assert after == replace(before, activation=activation)
        assert out.layers[-1] == g.layers[-1]
        assert validate(out).ok


class TestVecView:
    @given(genotypes())
    def test_only_applicable_slots_nonzero(self, g):
        applicable = {K.FULLY_CONNECTED: {0, 1, 2}, K.DROPOUT: {0, 7}}
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
                LayerGene.dense(16, A.SIGMOID),
                LayerGene.dropout(0.25),
                LayerGene.dense(32, A.SIGMOID),
                LayerGene.dense(1, A.LINEAR),
            ),
        )
        expected = {
            "arch": "mlp",
            "problem": "regression",
            "layers": [
                {"kind": 1, "units": 16, "activation": 0},
                {"kind": 5, "rate": 0.25},
                {"kind": 1, "units": 32, "activation": 0},
                {"kind": 1, "units": 1, "activation": 4},
            ],
            # slots 3-6 (the paper's filters, kernel size, stride, pool size) stay zero
            "raw": [
                [1, 16, 0, 0, 0, 0, 0, 0],
                [5, 0, 0, 0, 0, 0, 0, 0.25],
                [1, 32, 0, 0, 0, 0, 0, 0],
                [1, 1, 4, 0, 0, 0, 0, 0],
            ],
        }
        doc = to_dict(g)
        assert doc == expected
        # dict equality ignores key order and 0 == 0.0; the text does not
        assert serialize(g) == json.dumps(expected, separators=(",", ":"))
        assert serialize(g).startswith('{"arch":"mlp","problem":"regression",')
        for form in ("layers", "raw"):
            only = {"arch": "mlp", "problem": "regression", form: expected[form]}
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
                [5, 0, 0, 0, 0, 0, 0, 0.5],
                [5, 0, 0, 0, 0, 0, 0, 0.25],
                [1, 10, 3, 0, 0, 0, 0, 0],
            ],
        }
        with pytest.raises(
            ParseError,
            match=re.escape("layer 2: Dropout layer cannot follow Dropout (allowed followers: Fully connected)"),
        ):
            parse(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError, match="JSON"):
            parse("{not json")

    def test_unknown_kind_code_rejected(self):
        doc = {"arch": "mlp", "problem": "classification", "raw": [[9, 0, 0, 0, 0, 0, 0, 0]]}
        with pytest.raises(ParseError, match="layer 0"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize(
        "row, named",
        [
            ([2, 0, 2, 8, 3, 1, 0, 0], {"kind": 2, "filters": 8, "kernel_size": 3, "stride": 1, "activation": 2}),
            ([3, 0, 0, 0, 0, 0, 2, 0], {"kind": 3, "pool_size": 2}),
            ([4, 32, 2, 0, 0, 0, 0, 0], {"kind": 4, "units": 32, "activation": 2}),
        ],
        ids=["code-2", "code-3", "code-4"],
    )
    def test_kind_codes_without_a_backend_are_unknown(self, row, named):
        dense, out = [1, 64, 2, 0, 0, 0, 0, 0], [1, 10, 3, 0, 0, 0, 0, 0]
        doc = {"arch": "mlp", "problem": "classification", "raw": [dense, row, out]}
        with pytest.raises(ParseError, match=f"layer 1: unknown layer kind code {row[0]}$"):
            parse(json.dumps(doc))
        del doc["raw"]
        doc["layers"] = [{"kind": 1, "units": 64, "activation": 2}, named, {"kind": 1, "units": 10, "activation": 3}]
        with pytest.raises(ParseError, match=f"layer 1: unknown layer kind {row[0]}$"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize(
        "slot, value", [(3, 8), (4, 0.5), (5, False), (6, "0")], ids=["int", "fraction", "bool", "text"]
    )
    def test_nonzero_slot_3_to_6_rejected(self, stacked_example, slot, value):
        doc = to_dict(stacked_example)
        doc["raw"][1][slot] = value  # a dropout row
        with pytest.raises(ParseError, match=re.escape(f"layer 1: slot {slot} must be 0, got {value!r}")):
            parse(json.dumps(doc))

    @pytest.mark.parametrize("arch", ["cnn", "rnn"])
    def test_architecture_without_a_backend_is_unknown(self, stacked_example, arch):
        doc = to_dict(stacked_example)
        doc["arch"] = arch
        with pytest.raises(ParseError, match=f"unknown architecture '{arch}'"):
            parse(json.dumps(doc))

    def test_inapplicable_activation_slot_rejected(self, stacked_example):
        doc = to_dict(stacked_example)
        doc["raw"][1][2] = 3  # dropout rows carry no activation
        with pytest.raises(ParseError, match=r"^invalid genotype: layer 1: activation not applicable to a Dropout layer$"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize(
        "slot, key, value, problem",
        [
            (1, "units", 16.9, "whole number, got 16.9"),
            (1, "units", "16", "number, got '16'"),
            (1, "units", True, "number, got True"),
            (0, "kind", 1.5, "whole number, got 1.5"),
        ],
        ids=["fraction", "text", "bool", "fractional-kind"],
    )
    def test_integer_slot_rejected_not_truncated(self, slot, key, value, problem):
        hidden = [1, 16, 2, 0, 0, 0, 0, 0]
        hidden[slot] = value
        named = [
            {"kind": hidden[0], "units": hidden[1], "activation": 2},
            {"kind": 1, "units": 10, "activation": 3},
        ]
        raw = [hidden, [1, 10, 3, 0, 0, 0, 0, 0]]
        for form, layers in (("layers", named), ("raw", raw)):
            doc = {"arch": "mlp", "problem": "classification", form: layers}
            with pytest.raises(ParseError, match=re.escape(f"layer 0: {key} must be a {problem}")):
                parse(json.dumps(doc))

    def test_rate_slot_must_be_a_number(self, stacked_example):
        doc = to_dict(stacked_example)
        doc["raw"][1][7] = "0.5"
        with pytest.raises(ParseError, match="layer 1: dropout_rate must be a number, got '0.5'"):
            parse(json.dumps(doc))
        del doc["raw"]
        doc["layers"][1]["rate"] = "0.5"
        with pytest.raises(ParseError, match="layer 1: rate must be a number, got '0.5'"):
            parse(json.dumps(doc))

    def test_whole_float_slots_parse_as_integers(self, stacked_example):
        doc = to_dict(stacked_example)
        doc["raw"] = [[float(v) for v in row] for row in doc["raw"]]
        assert parse(json.dumps(doc)) == stacked_example

    def test_edited_named_form_disagrees_with_raw(self, stacked_example):
        doc = to_dict(stacked_example)
        doc["layers"][2]["units"] = 512  # the readable form edited, the raw form not
        with pytest.raises(ParseError, match=r"^layer 2: the 'layers' and 'raw' forms disagree$"):
            parse(json.dumps(doc))
        doc = to_dict(stacked_example)
        doc["layers"].insert(-1, {"kind": 1, "units": 8, "activation": 2})
        with pytest.raises(ParseError, match=r"^layer 5: the 'layers' and 'raw' forms disagree$"):
            parse(json.dumps(doc))

    def test_problem_key_must_agree_with_output_layer(self, stacked_example):
        doc = to_dict(stacked_example)
        doc["problem"] = "regression"
        with pytest.raises(
            ParseError,
            match=r"^problem 'regression' disagrees with the Softmax output layer, which solves classification$",
        ):
            parse(json.dumps(doc))
        doc = to_dict(mlp_regressor([(64, A.RELU)]))
        doc["problem"] = "classification"
        with pytest.raises(
            ParseError,
            match=r"^problem 'classification' disagrees with the Linear output layer, which solves regression$",
        ):
            parse(json.dumps(doc))

    def test_unknown_document_key_rejected(self, stacked_example):
        doc = {"arch": "mlp", "problem": "classification", "raw": to_dict(stacked_example)["raw"], "layer": [], "notes": 3}
        with pytest.raises(ParseError, match=r"^unknown genotype document key\(s\): layer, notes$"):
            parse(json.dumps(doc))

    @pytest.mark.parametrize(
        "index, entry, message",
        [
            (0, {"kind": 1, "units": 64, "activation": 2, "rate": 0.5}, "rate do not apply to a Fully connected layer"),
            (1, {"kind": 5, "rate": 0.5, "activation": 2}, "activation do not apply to a Dropout layer"),
        ],
        ids=["dense-with-rate", "dropout-with-activation"],
    )
    def test_named_key_the_kind_does_not_take_rejected(self, index, entry, message):
        layers = [{"kind": 1, "units": 64, "activation": 2}, {"kind": 5, "rate": 0.5}, {"kind": 1, "units": 10, "activation": 3}]
        layers[index] = entry
        doc = {"arch": "mlp", "problem": "classification", "layers": layers}
        with pytest.raises(ParseError, match=rf"^layer {index}: key\(s\) {message}$"):
            parse(json.dumps(doc))

    def test_benchmark_genotype_file_parses_in_place(self):
        # a file written by hand and kept as it is, holding both forms
        path = Path(__file__).parents[1] / "perfbench" / "kfold_genotype.json"
        g = parse(path.read_text())
        assert g.layers == (
            LayerGene.dense(256, A.RELU), LayerGene.dropout(0.2), LayerGene.dense(128, A.RELU), LayerGene.dense(10, A.SOFTMAX)
        )
        assert to_dict(g) == json.loads(path.read_text())

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


def test_readme_lists_exactly_the_layer_kinds():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    bullet = readme.split("- **`evonas.genotype`**", 1)[1].split("\n- **", 1)[0]
    listed = re.findall(r"^  - \w+ \((\d+)\): (.*)$", bullet, re.MULTILINE)
    assert sorted(int(code) for code, _ in listed) == sorted(K)
    keys = {int(code): re.findall(r"`(\w+)`", rest) for code, rest in listed}
    assert keys == {1: ["units", "activation"], 5: ["rate"]}
