"""Tests for network materialization, training, gradients, and metrics."""

import hashlib
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from evonas import (
    Activation,
    Dataset,
    Genotype,
    GenotypeError,
    LayerGene,
    ProblemKind,
    SearchConfig,
    TrainConfig,
    compute_costs,
    count_params,
    kfold_evaluate,
    make_evaluator,
    materialize,
    metric,
    serialize,
    split,
    train,
)
from evonas import data, trainer
from evonas.cli import main
from evonas.evolution import random_genotype
from evonas.trainer import (
    DenseNetwork,
    DivergedError,
    _Adam,
    _DenseLayer,
    load_model,
    loss_and_gradients,
    save_model,
)

from conftest import (
    RecordingOptimizer,
    genotypes,
    mlp,
    on_this_kernel,
    recorded_gradients,
)

A = Activation


def holdout(ds: Dataset, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``ds``'s training and validation rows, as :func:`train` takes them."""
    return split(ds, ratio, seed)


def linear_unit(weight: float, bias: float) -> DenseNetwork:
    net = DenseNetwork([(1, 1, A.LINEAR, 0.0)], input_dim=1)
    net.flat[:] = (weight, bias)
    return net


class TestMaterialize:
    def test_shapes_match_genotype(self):
        g = mlp([(64, A.SIGMOID), 0.4])
        net = materialize(g, 784, seed=0)
        dense = [l for l in net.layers if isinstance(l, _DenseLayer)]
        assert [l.W.shape for l in dense] == [(784, 64), (64, 10)]
        assert net.param_count == 50890

    @given(genotypes(max_hidden=5))
    @settings(max_examples=60)
    def test_param_count_matches_exact_count(self, g):
        net = materialize(g, 33, seed=1)
        assert net.param_count == count_params(g, 33)

    def test_same_seed_same_weights(self):
        g = mlp([(32, A.RELU)])
        a, b = materialize(g, 20, seed=9), materialize(g, 20, seed=9)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.W, lb.W)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weights_equal_one_uniform_draw_per_layer(self, dtype):
        # materialize draws in chunks; 200 x 104 weights span two of them
        net = materialize(mlp([(104, A.RELU)], LayerGene.dense(3, A.SOFTMAX)), 200, 9, dtype)
        assert net.layers[0].W.size > trainer._DRAW_CHUNK
        rng = np.random.default_rng(9)
        for layer in net.layers:
            limit = np.sqrt(6.0 / sum(layer.shape))
            ref = rng.uniform(-limit, limit, size=layer.shape).astype(dtype)
            assert layer.W.tobytes() == ref.tobytes()
            assert not layer.b.any()

    @pytest.mark.parametrize("input_dim", [784.9, "784"])
    def test_non_integer_input_dim_rejected(self, input_dim):
        # int() takes both, so a cast before the check built a 784-input network
        with pytest.raises(ValueError, match="^input_dim must be a positive integer, got "):
            materialize(mlp([(64, A.RELU)]), input_dim, seed=0)

    def test_numpy_integer_input_dim_is_held_as_an_int(self, tmp_path):
        g = mlp([(64, A.RELU)])
        net = materialize(g, np.int64(784), seed=0)
        assert type(net.input_dim) is int
        json_path, _ = save_model(net, g, [], tmp_path / "model")
        assert json.loads(Path(json_path).read_text())["input_dim"] == 784

    def test_invalid_genotype_rejected(self):
        # 12 units: not a multiple of 8, so there is no genotype to materialize
        with pytest.raises(GenotypeError, match="invalid genotype.*layer 0.*units"):
            mlp([(12, A.RELU)])


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        g = mlp([(16, A.RELU)])
        net = materialize(g, 8, seed=0)
        for layer in net.layers:
            layer.W[:] = 0.0
            layer.b[:] = 0.0
        out = net.forward(np.ones((5, 8)))
        np.testing.assert_allclose(out, 0.1)

    def test_softmax_rows_sum_to_one(self):
        g = mlp([(16, A.TANH)])
        net = materialize(g, 8, seed=3)
        out = net.forward(np.random.default_rng(0).normal(size=(32, 8)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_cross_entropy_never_negative(self):
        g = mlp([(16, A.TANH)], LayerGene.dense(4, A.SOFTMAX))
        rng = np.random.default_rng(4)
        for seed in range(10):
            net = materialize(g, 8, seed=seed)
            X = rng.normal(scale=5.0, size=(16, 8))
            Y = np.eye(4)[rng.integers(4, size=16)]
            value, _ = recorded_gradients(net, X, Y)
            assert value >= 0.0

    def test_dropout_inactive_at_inference(self):
        g = mlp([(16, A.RELU), 0.9])
        net = materialize(g, 8, seed=0)
        X = np.random.default_rng(1).normal(size=(10, 8))
        a = net.forward(X)
        b = net.forward(X)
        np.testing.assert_array_equal(a, b)

    def test_affine_arithmetic(self):
        assert linear_unit(2.0, 1.0).forward(np.array([[3.0]]))[0, 0] == 7.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("act", [A.SIGMOID, A.TANH, A.RELU])
    def test_input_batch_left_unchanged(self, act, dtype):
        # the activations overwrite each layer's affine output in place,
        # never the batch itself, which is not copied when it has the net's dtype
        net = materialize(mlp([(16, act), 0.5, (8, act)]), 8, seed=0, dtype=dtype)
        X = np.random.default_rng(1).normal(scale=3.0, size=(10, 8)).astype(dtype)
        before = X.copy()
        net.forward(X)
        recorded_gradients(net, X, np.eye(10, dtype=dtype), np.random.default_rng(2))
        np.testing.assert_array_equal(X, before)

    def test_shape_mismatch_rejected(self):
        g = mlp([(16, A.RELU)])
        net = materialize(g, 8, seed=0)
        with pytest.raises(ValueError, match="feature width"):
            net.forward(np.ones((4, 9)))


def loss_at(net, X, Y, dropout_seed=None):
    """A recorded training pass (see :func:`recorded_gradients`), its dropout
    rng seeded afresh, so that every call draws the same masks."""
    rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    return recorded_gradients(net, X, Y, rng)


def numeric_gradients(net, X, Y, h=1e-5, dropout_seed=None) -> np.ndarray:
    """Central differences of the loss, laid out like ``net.flat``."""
    grad = np.empty_like(net.flat)
    for k in range(net.flat.size):
        orig = net.flat[k]
        net.flat[k] = orig + h
        up, _ = loss_at(net, X, Y, dropout_seed)
        net.flat[k] = orig - h
        down, _ = loss_at(net, X, Y, dropout_seed)
        net.flat[k] = orig
        grad[k] = (up - down) / (2 * h)
    return grad


def gradient_agreement(net, X, Y, dropout_seed=None) -> float:
    _, analytic = loss_at(net, X, Y, dropout_seed)
    numeric = numeric_gradients(net, X, Y, dropout_seed=dropout_seed)
    rel = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.mean(rel <= 1e-4))


@pytest.mark.parametrize("act", [A.SIGMOID, A.TANH, A.RELU])
class TestGradients:
    def test_cross_entropy(self, act):
        g = Genotype(
            (
                LayerGene.dense(16, act),
                LayerGene.dense(8, act),
                LayerGene.dense(4, A.SOFTMAX),
            ),
        )
        net = materialize(g, 10, seed=2)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(16, 10))
        Y = np.eye(4)[rng.integers(4, size=16)]
        assert gradient_agreement(net, X, Y) >= 0.99

    def test_mean_squared_error(self, act):
        g = Genotype(
            (
                LayerGene.dense(16, act),
                LayerGene.dense(8, act),
                LayerGene.dense(1, A.LINEAR),
            ),
        )
        net = materialize(g, 10, seed=2)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(16, 10))
        Y = rng.normal(size=(16, 1))
        assert gradient_agreement(net, X, Y) >= 0.99

    def test_cross_entropy_through_training_dropout(self, act):
        net = materialize(mlp([(16, act), 0.5, (8, act), 0.25], LayerGene.dense(4, A.SOFTMAX)), 10, seed=2)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(16, 10))
        Y = np.eye(4)[rng.integers(4, size=16)]
        assert gradient_agreement(net, X, Y, dropout_seed=3) >= 0.99

    def test_mean_squared_error_through_training_dropout(self, act):
        net = materialize(mlp([(16, act), 0.5, (8, act), 0.25], LayerGene.dense(1, A.LINEAR)), 10, seed=2)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(16, 10))
        Y = rng.normal(size=(16, 1))
        assert gradient_agreement(net, X, Y, dropout_seed=3) >= 0.99


class TestGradientVector:
    def setup_method(self):
        g = mlp([(16, A.RELU), 0.5, (8, A.TANH)], LayerGene.dense(3, A.SOFTMAX))
        self.net = materialize(g, 6, seed=1)
        rng = np.random.default_rng(5)
        self.X = rng.normal(size=(20, 6))
        self.Y = np.eye(3)[rng.integers(3, size=20)]

    @pytest.mark.parametrize("dropout_seed", [None, 3])
    def test_handoff_updates_like_one_whole_vector_step(self, dropout_seed):
        nets = [materialize(mlp([(16, A.RELU), 0.5, (8, A.TANH)], LayerGene.dense(3, A.SOFTMAX)), 6, 1) for _ in "ab"]
        opts = [_Adam(net.flat, 0.01) for net in nets]
        if dropout_seed is None:  # no dropout: the pass draws nothing and needs no rng
            for net in nets:
                net.layers[0].dropout = 0.0
        rngs = [None if dropout_seed is None else np.random.default_rng(dropout_seed) for _ in "ab"]
        layer_grad = np.empty(max(layer.size for layer in nets[0].layers))
        for X in (self.X, -self.X):  # two minibatches
            handed = loss_and_gradients(nets[0], X, self.Y, rngs[0], layer_grad, opts[0])
            whole, grad = recorded_gradients(nets[1], X, self.Y, rngs[1])
            opts[1].step(grad)
            assert handed == whole
            assert nets[0].flat.tobytes() == nets[1].flat.tobytes()
        assert opts[0].t == opts[1].t == 2

    @pytest.mark.parametrize("room, steps", [(136, [27, 136, 112]), (163, [163, 112]), (275, [275])])
    def test_adjacent_layers_share_a_step_while_they_fit(self, room, steps):
        # layers of 112, 136 and 27 parameters; the output layer's comes first
        nets = [materialize(mlp([(16, A.RELU), 0.5, (8, A.TANH)], LayerGene.dense(3, A.SOFTMAX)), 6, 1) for _ in "ab"]
        opts = [_Adam(net.flat, 0.01) for net in nets]
        for X in (self.X, -self.X):
            rngs = [np.random.default_rng(3) for _ in "abc"]  # the same dropout masks
            small = RecordingOptimizer(nets[0], room)
            loss_and_gradients(nets[0], X, self.Y, rngs[0], small.buffer, small)
            assert small.sizes == steps
            loss_and_gradients(nets[0], X, self.Y, rngs[1], np.empty(room), opts[0])
            _, grad = recorded_gradients(nets[1], X, self.Y, rngs[2])
            assert small.grad.tobytes() == grad.tobytes()
            opts[1].step(grad)
            assert nets[0].flat.tobytes() == nets[1].flat.tobytes()

    def test_non_finite_loss_hands_over_nothing(self):
        net = linear_unit(1e200, 0.0)  # half the squared error overflows
        opt = _Adam(net.flat, 0.1)
        with np.errstate(over="ignore"):
            value = loss_and_gradients(net, np.ones((2, 1)), np.zeros((2, 1)), None, np.empty(2), opt)
        assert value == math.inf
        assert opt.t == 0
        np.testing.assert_array_equal(net.flat, (1e200, 0.0))

    def test_dropout_without_an_rng_is_refused_before_any_step(self):
        recorder = RecordingOptimizer(self.net)
        with pytest.raises(ValueError, match="training-mode dropout needs an rng"):
            loss_and_gradients(self.net, self.X, self.Y, None, recorder.buffer, recorder)
        assert recorder.sizes == []


class TestOptimizers:
    def test_zero_gradient_is_a_no_op(self):
        flat = np.arange(6, dtype=np.float64)
        before = flat.copy()
        _Adam(flat, 0.1).step(np.zeros_like(flat))
        np.testing.assert_array_equal(flat, before)

    def test_adam_matches_the_textbook_update_exactly(self):
        rng = np.random.default_rng(0)
        for dtype, chunk in ((np.float64, 16384), (np.float32, 32768)):  # 128 KiB each
            n = 2 * chunk + 7  # two full chunks and a partial one
            flat = rng.normal(size=n).astype(dtype)
            ref, m, v = flat.copy(), np.zeros(n, dtype), np.zeros(n, dtype)
            opt = _Adam(flat, 0.01)
            assert opt.chunk == chunk
            for t in range(1, 4):
                g = rng.normal(size=n).astype(dtype)
                opt.step(g.copy())
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                rate = float(0.01 * (np.sqrt(1.0 - 0.999**t) / (1.0 - 0.9**t)))
                ref -= rate * m / (np.sqrt(v) + 1e-8)
                assert flat.dtype == dtype
                np.testing.assert_array_equal(flat, ref)


    def test_slices_update_like_the_whole_vector(self):
        rng = np.random.default_rng(1)
        n, cuts = 40000, (0, 15000, 39990, 40000)  # the first slice spans two chunks
        whole, sliced = _Adam(rng.normal(size=n), 0.01), _Adam(rng.normal(size=n), 0.01)
        sliced.flat[:] = whole.flat
        for _ in range(3):
            g = rng.normal(size=n)
            whole.step(g.copy())
            for lo, hi in reversed(list(zip(cuts, cuts[1:]))):  # the slice ending the vector first
                sliced.step(g[lo:hi].copy(), lo)
            assert sliced.flat.tobytes() == whole.flat.tobytes()
        assert sliced.t == whole.t == 3


class TestTrain:
    def test_separable_data_reaches_full_accuracy(self, blob_dataset):
        tr, va = holdout(blob_dataset, 0.2, seed=1)
        g = mlp([(16, A.RELU)], LayerGene.dense(2, A.SOFTMAX))
        net = materialize(g, 4, seed=0)
        report = train(net, blob_dataset, tr, va, TrainConfig(50, seed=0, batch_size=64))
        assert report.value == 1.0

    def test_linear_regression_fits_exactly(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (256, 1))
        y = 3.0 * X[:, 0]
        ds = Dataset(X, y, ProblemKind.REGRESSION)
        tr, va = holdout(ds, 0.2, seed=1)
        net = linear_unit(0.0, 0.0)
        cfg = TrainConfig(200, learning_rate=0.5, batch_size=256, seed=0)
        report = train(net, ds, tr, va, cfg)
        assert report.value < 1e-3

    def test_one_unit_softmax_classifier_scores_every_row_right(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(50, 8)), np.zeros(50, dtype=int), ProblemKind.CLASSIFICATION)
        net = materialize(mlp([(8, A.RELU)], LayerGene.dense(1, A.SOFTMAX)), 8, seed=0)
        assert train(net, ds, *holdout(ds, 0.2, 1), TrainConfig(2, batch_size=16)).value == 1.0

    def test_zero_epochs_reports_untrained_metric(self, blob_dataset):
        tr, va = holdout(blob_dataset, 0.2, seed=1)
        net = materialize(mlp([(16, A.RELU)], LayerGene.dense(2, A.SOFTMAX)), 4, seed=0)
        report = train(net, blob_dataset, tr, va, TrainConfig(0, seed=0))
        assert math.isfinite(report.value)
        assert report.loss_curve == []

    def test_divergence_detected_with_epoch(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (64, 1))
        ds = Dataset(X, 3.0 * X[:, 0], ProblemKind.REGRESSION)
        tr, va = holdout(ds, 0.2, seed=1)
        # Adam's step is about lr, whatever the gradient: 1e200 overflows the squared error
        cfg = TrainConfig(60, learning_rate=1e200, batch_size=64, seed=0)
        with pytest.raises(DivergedError) as err:
            train(linear_unit(0.5, 0.0), ds, tr, va, cfg)
        assert err.value.epoch >= 0

    def test_training_is_deterministic(self, blob_dataset):
        tr, va = holdout(blob_dataset, 0.2, seed=1)
        g = mlp([(16, A.RELU), 0.3], LayerGene.dense(2, A.SOFTMAX))
        reports = []
        for _ in range(2):
            net = materialize(g, 4, seed=7)
            reports.append(train(net, blob_dataset, tr, va, TrainConfig(10, seed=7, batch_size=32)))
        assert reports[0].value == reports[1].value
        assert reports[0].loss_curve == reports[1].loss_curve


    #: The digests of ``test_rate_one_dropout_draws_nothing`` under OpenBLAS's
    #: Sandybridge kernel (no AVX2), forced with ``OPENBLAS_CORETYPE``.
    RATE_ONE_DIGESTS = {
        np.float64: {"Sandybridge": "238c9c59d4f9c5bcb584d977ed487d36817c42abff1428052b4d42239384b27c"},
        np.float32: {"Sandybridge": "08f0a4630a807a2dfad2aee164a7e0d3ce51714a57afd434bdadd1505cf861a1"},
    }

    @pytest.mark.parametrize(
        "dtype, digest",
        [
            (np.float64, "02667d3366dd8aa67eed546c3617760c9d595b58a7647b9d95bf02e703c5e333"),
            (np.float32, "8b1e22cfa8be7700f859bc2a5a4b6d00af6b27b397e89782a9b5b8410c542a28"),
        ],
    )
    def test_rate_one_dropout_draws_nothing(self, dtype, digest):
        # A rate-1.0 gene keeps nothing and must not draw a mask: a draw would
        # shift the rate-0.5 masks and the shuffles after it. The digests were
        # recorded when rate 1.0 multiplied by a zero array (numpy 2.4,
        # OpenBLAS 0.3.31, x86-64); a kernel with no entry in RATE_ONE_DIGESTS
        # gives the parametrized one.
        ds = golden_data(C)
        ds = replace(ds, features=ds.features.astype(dtype))
        net = materialize(mlp([(16, A.RELU), 1.0, (8, A.TANH), 0.5], LayerGene.dense(3, A.SOFTMAX)), 6, 4, dtype)
        train(net, ds, *holdout(ds, 0.2, seed=1), TrainConfig(3, learning_rate=0.01, batch_size=32, seed=5))
        expected = on_this_kernel(self.RATE_ONE_DIGESTS[dtype], default=digest)
        assert hashlib.sha256(net.flat.tobytes()).hexdigest() == expected


C, R = ProblemKind.CLASSIFICATION, ProblemKind.REGRESSION

#: ``train`` results recorded before the trainer moved to one flat parameter
#: vector, as (validation metric, loss curve). The flat layout, the in-place
#: optimizer updates and the skipped first-layer input gradient do the same
#: floating-point operations in the same order, so the numbers must match
#: exactly. They depend on the BLAS kernels: recorded with numpy 2.4 and
#: OpenBLAS 0.3.31 on x86-64. The last entry holds what a kernel differs in,
#: recorded by forcing it with ``OPENBLAS_CORETYPE``; every other kernel gives
#: the numbers before it.
GOLDEN = {
    "sigmoid-dropout-ce-adam": (
        [(16, A.SIGMOID), 0.3, (8, A.SIGMOID)], C,
        0.3888888888888889, [1.206423101454184, 1.1312664155410996, 1.0729598091446675],
        {"Sandybridge": (0.3888888888888889, [1.2064231014541837, 1.1312664155410996, 1.0729598091446675])},
    ),
    "relu-dropout-ce-adam": (
        [(16, A.RELU), 0.5, (8, A.RELU)], C,
        0.2777777777777778, [1.313286511905056, 1.1652754280262556, 1.1552920306024264],
        {},
    ),
    "relu-tanh-mse-adam": (
        [(16, A.RELU), (8, A.TANH)], R,
        0.8058219518636123, [1.9117096512422833, 1.0631492484075935, 0.8770359034470733],
        {"Sandybridge": (0.8058219518636123, [1.911709651242283, 1.0631492484075935, 0.8770359034470733])},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_train_reproduces_recorded_numbers(name):
    hidden, problem, value, curve, recorded = GOLDEN[name]
    value, curve = on_this_kernel(recorded, default=(value, curve))
    rng = np.random.default_rng(21)
    X = rng.normal(size=(90, 6))
    if problem == C:
        y, g = rng.integers(3, size=90), mlp(hidden, LayerGene.dense(3, A.SOFTMAX))
    else:
        y, g = X @ rng.normal(size=6), mlp(hidden, LayerGene.dense(1, A.LINEAR))
    ds = Dataset(X, y, problem)
    cfg = TrainConfig(3, learning_rate=0.01, batch_size=32, seed=5)
    report = train(materialize(g, 6, seed=4), ds, *holdout(ds, 0.2, seed=1), cfg)
    assert report.value == value
    assert report.loss_curve == curve


def golden_data(problem):
    """The data and split of the recorded runs: 90 rows of 6 features, 3 classes."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(90, 6))
    y = rng.integers(3, size=90) if problem == C else X @ rng.normal(size=6)
    return Dataset(X, y, problem)


#: k-fold results on :func:`golden_data`, recorded when each fold still
#: trained on a copy of its rows, as (genotype, (mean, std)). A fold that
#: trains on other rows, or on its rows in another order, changes them. Like
#: ``GOLDEN``, they depend on the BLAS kernels.
KFOLD_GOLDEN = {
    C: ([(16, A.RELU), 0.3, (8, A.SIGMOID)], (0.2777777777777778, 0.1227262335243029)),
    R: (
        [(16, A.RELU), 0.5, (8, A.TANH)],
        {  # by OpenBLAS kernel: the float32 MSE differs in its last bits
            "SkylakeX": (1.3739644755478657, 0.26949559549034535),
            "Haswell": (1.3739644904150559, 0.26949559667315126),
            "Sandybridge": (1.3739644860756306, 0.26949559450847227),
        },
    ),
}

#: sha256 of ``model.bin`` from ``evonas train --kfold 3`` on
#: :func:`golden_data`'s classification set, recorded with ``KFOLD_GOLDEN``.
TRAIN_MODEL_DIGEST = "2e136115caf8638c2d4065c5d463b8bf98fc18a03fd7a6a4f944589d4db711b8"


@pytest.mark.parametrize("problem", [C, R])
def test_kfold_reproduces_recorded_numbers(problem):
    hidden, recorded = KFOLD_GOLDEN[problem]
    expected = on_this_kernel(recorded) if problem == R else recorded
    g = mlp(hidden, LayerGene.dense(3, A.SOFTMAX)) if problem == C else mlp(hidden, LayerGene.dense(1, A.LINEAR))
    cfg = TrainConfig(3, learning_rate=0.01, batch_size=32, seed=5)
    assert kfold_evaluate(g, golden_data(problem), 3, cfg) == expected


def test_train_command_reproduces_recorded_model(tmp_path, capsys):
    ds = golden_data(C)
    columns = [f"f{i}" for i in range(ds.feature_count)]
    rows = [",".join(columns + ["y"])]
    rows += [",".join([*map(repr, map(float, x)), str(y)]) for x, y in zip(ds.features, ds.targets)]
    (tmp_path / "golden.csv").write_text("\n".join(rows) + "\n")
    manifest = {"format": "csv", "path": "golden.csv", "feature_columns": columns,
                "target_column": "y", "problem": "classification"}
    (tmp_path / "data.json").write_text(json.dumps(manifest))
    (tmp_path / "g.json").write_text(serialize(mlp(KFOLD_GOLDEN[C][0], LayerGene.dense(3, A.SOFTMAX))))
    code = main([
        "train", str(tmp_path / "g.json"), str(tmp_path / "data.json"), "--kfold", "3",
        "--epochs", "3", "--seed", "5", "--batch-size", "32", "--learning-rate", "0.01",
        "--out-model", str(tmp_path / "model"),
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "3-fold accuracy: 0.2778 +/- 0.1227", "validation accuracy: 0.2222 (3 epochs)"
    ]
    assert hashlib.sha256((tmp_path / "model.bin").read_bytes()).hexdigest() == TRAIN_MODEL_DIGEST


class TestFloat32:
    """Trainings that only yield a score (search fitness, k-fold folds) run in
    float32; ``train``'s default, the final model, model export and the
    gradient check keep float64."""

    GENOTYPE = [(16, A.RELU), 0.3, (8, A.SIGMOID)]

    def test_weights_are_the_float64_draw_rounded(self):
        g = mlp(self.GENOTYPE, LayerGene.dense(3, A.SOFTMAX))
        single, double = materialize(g, 6, 4, np.float32), materialize(g, 6, 4)
        assert single.flat.dtype == np.float32 and double.flat.dtype == np.float64
        np.testing.assert_array_equal(single.flat, double.flat.astype(np.float32))

    def test_one_train_step_stays_float32(self, monkeypatch):
        seen = {}
        make_optimizer = trainer.make_optimizer

        def spy(flat, lr):
            opt = seen["opt"] = make_optimizer(flat, lr)
            step = opt.step
            opt.step = lambda grad, at: (seen.setdefault("grad", grad.dtype), step(grad, at))
            return opt

        monkeypatch.setattr(trainer, "make_optimizer", spy)
        ds = golden_data(C)
        ds = replace(ds, features=ds.features.astype(np.float32))
        tr, va = holdout(ds, 0.2, 1)
        net = materialize(mlp(self.GENOTYPE, LayerGene.dense(3, A.SOFTMAX)), 6, 4, np.float32)
        train(net, ds, tr, va, TrainConfig(1, batch_size=128, seed=5))  # 72 rows: one step
        opt = seen["opt"]
        assert opt.t == 1
        assert seen["grad"] == np.float32
        assert {a.dtype for a in (net.flat, opt.m, opt.v, opt.scratch)} == {np.dtype(np.float32)}
        assert net.forward(ds.features[va]).dtype == np.float32
        assert trainer._target_matrix(net, C, ds.targets[tr]).dtype == np.float32

    @pytest.mark.parametrize("act", [A.SIGMOID, A.RELU])
    def test_gradients_match_float64(self, act):
        g = mlp([(16, act), 0.5, (8, act)], LayerGene.dense(4, A.SOFTMAX))
        rng = np.random.default_rng(0)
        X = rng.normal(size=(16, 10))
        Y = np.eye(4)[rng.integers(4, size=16)]
        results = []
        for dtype in (np.float64, np.float32):
            net = materialize(g, 10, 2, dtype)
            rng = np.random.default_rng(3)  # the same dropout masks
            results.append(recorded_gradients(net, X.astype(dtype), Y.astype(dtype), rng))
        (v64, g64), (v32, g32) = results
        assert v32 == pytest.approx(v64, rel=1e-4)
        assert g32.dtype == np.float32
        # float32 rounding moves a near-zero element by more than 1e-4 of itself
        # (-3.0e-6 by 1.05e-4 under OpenBLAS's Haswell kernel), so each element
        # may also miss by 1e-4 of the largest one
        close = partial(np.testing.assert_allclose, desired=g64, rtol=1e-4, atol=1e-4 * np.abs(g64).max())
        close(g32)
        for layer in range(len(net.layers)):  # one layer's gradient 1% off fails
            off = g32.copy()
            for part in net.views(off)[layer]:
                part *= 1.01
            with pytest.raises(AssertionError):
                close(off)

    def test_sigmoid_saturates_without_overflow_warnings(self):
        net = DenseNetwork([(1, 1, A.SIGMOID, 0.0)], input_dim=1, dtype=np.float32)
        net.flat[:] = (1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = net.forward(np.array([[-200.0], [-101.0], [0.0], [200.0]]))
        assert out.dtype == np.float32
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert out[0, 0] == 0.0 and out[2, 0] == 0.5 and out[3, 0] == 1.0

    #: ``make_evaluator`` results on :func:`golden_data`, recorded when search
    #: evaluations moved to float32, as (perf, parameter count). Like ``GOLDEN``, they
    #: depend on the BLAS kernels: numpy 2.4 and OpenBLAS 0.3.31 on x86-64. The
    #: regression perf differs in its last bits between OpenBLAS's kernels, so it
    #: is recorded per kernel, forcing each with ``OPENBLAS_CORETYPE``.
    EVALUATOR_GOLDEN = {
        C: ([(16, A.RELU), 0.3, (8, A.SIGMOID)], (0.2777777777777778, 275)),
        R: (
            [(16, A.RELU), (8, A.TANH)],
            {
                "SkylakeX": (0.7800775076396081, 257),
                "Haswell": (0.7800775266143304, 257),
                "Sandybridge": (0.7800775316804305, 257),
            },
        ),
    }

    @pytest.mark.parametrize("problem", [C, R])
    def test_evaluator_reproduces_recorded_numbers(self, problem):
        hidden, recorded = self.EVALUATOR_GOLDEN[problem]
        expected = on_this_kernel(recorded) if problem == R else recorded
        g = mlp(hidden, LayerGene.dense(3, A.SOFTMAX)) if problem == C else mlp(hidden, LayerGene.dense(1, A.LINEAR))
        evaluate = make_evaluator(
            golden_data(problem), 0.2, TrainConfig(3, learning_rate=0.01, batch_size=32, seed=1)
        )
        assert (evaluate(g, 4), count_params(g, 6)) == expected

    @pytest.mark.parametrize("problem", [C, R])
    def test_search_ranks_random_genotypes_like_float64(self, problem):
        """The float32 fitness orders candidates as float64 training would."""
        rng = np.random.default_rng(37)
        X = rng.normal(size=(240, 12))
        if problem == C:
            y = (X[:, :3] @ rng.normal(size=(3, 4))).argmax(axis=1)
        else:
            y = np.tanh(X @ rng.normal(size=12) / 3.0)
        ds = Dataset(X, y, problem)
        cfg = SearchConfig(
            problem=problem, arch="mlp", input_shape=12,
            output_size=4 if problem == C else 1, more_layers_prob=0.3,
        )
        draw = np.random.default_rng(3)
        candidates = [random_genotype(cfg, draw) for _ in range(10)]
        settings_ = dict(learning_rate=0.01, batch_size=32)
        evaluate = make_evaluator(ds, 0.2, TrainConfig(2, seed=5, **settings_))
        tr, va = holdout(ds, 0.2, 5)
        single, double = [], []
        for seed, g in enumerate(candidates, start=100):
            single.append((evaluate(g, seed), count_params(g, 12)))
            net = materialize(g, 12, seed)
            double.append((train(net, ds, tr, va, TrainConfig(2, seed=seed, **settings_)).value, net.param_count))
        ranks = [
            np.argsort(compute_costs(pop, cfg.alpha, problem=problem), kind="stable").tolist()
            for pop in (single, double)
        ]
        assert ranks[0] == ranks[1]

    @pytest.mark.parametrize("problem", [C, R])
    def test_kfold_scores_like_float64(self, problem, monkeypatch):
        """k-fold in float32 reports what the same folds report in float64."""
        rng = np.random.default_rng(37)
        X = rng.normal(size=(240, 12))
        if problem == C:
            y = (X[:, :3] @ rng.normal(size=(3, 4))).argmax(axis=1)
            g = mlp(self.GENOTYPE, LayerGene.dense(4, A.SOFTMAX))
        else:
            y = np.tanh(X @ rng.normal(size=12) / 3.0)
            g = mlp([(16, A.RELU), 0.3, (8, A.TANH)], LayerGene.dense(1, A.LINEAR))
        ds = Dataset(X, y, problem)
        cfg = TrainConfig(3, learning_rate=0.01, batch_size=32, seed=3)
        single = kfold_evaluate(g, ds, 4, cfg)
        monkeypatch.setattr(trainer, "SCORE_DTYPE", np.float64)
        double = kfold_evaluate(g, ds, 4, cfg)
        if problem == C:
            assert single == double
        else:
            assert single == pytest.approx(double, rel=1e-5)


class TestObjective:
    """The output layer picks the loss and the data the metric; nothing else states them."""

    def test_regression_trains_with_a_plain_config(self):
        ds = golden_data(R)
        report = train(materialize(mlp([(16, A.RELU)], LayerGene.dense(1, A.LINEAR)), 6, 4), ds, *holdout(ds, 0.2, 1), TrainConfig(3))
        assert math.isfinite(report.value) and report.value >= 0.0  # an MSE, not an accuracy
        assert len(report.loss_curve) == 3

    def test_regression_kfold_with_a_plain_config(self):
        mean, std = kfold_evaluate(mlp([(8, A.TANH)], LayerGene.dense(1, A.LINEAR)), golden_data(R), 3, TrainConfig(3))
        assert math.isfinite(mean) and mean >= 0.0 and std >= 0.0

    @pytest.mark.parametrize("problem, make", [
        (R, lambda: mlp([(8, A.RELU)], LayerGene.dense(3, A.SOFTMAX))),  # softmax output
        (C, lambda: mlp([(8, A.RELU)], LayerGene.dense(1, A.LINEAR))),  # linear output
    ])
    def test_output_layer_must_fit_the_data(self, problem, make):
        net, ds = materialize(make(), 6, 4), golden_data(problem)
        with pytest.raises(ValueError, match=f"cannot train on {problem.value} data"):
            train(net, ds, *holdout(ds, 0.2, 1), TrainConfig(1))


class TestMetric:
    def test_perfect_predictions(self):
        assert metric(C, np.eye(3), np.array([0, 1, 2])) == 1.0
        # a one-unit softmax outputs 1.0 in every row: class 0, not label 1
        assert metric(C, np.ones((4, 1)), np.zeros(4)) == 1.0
        assert metric(R, np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_symmetric_confusion(self):
        targets = np.array([1, 0, 1, 0])
        preds = np.eye(2)[[1, 1, 0, 0]]  # tp=1 fp=1 fn=1 tn=1
        assert metric(C, preds, targets) == 0.5

    def test_multiclass_accuracy_equals_argmax_count(self):
        rng = np.random.default_rng(8)
        probs = rng.random((100, 5))
        targets = rng.integers(5, size=100)
        expected = sum(int(np.argmax(row) == t) for row, t in zip(probs, targets)) / 100
        assert metric(C, probs, targets) == expected

    def test_mse_and_rmse_conventions(self):
        preds = np.array([1.0, 2.0])
        targets = np.array([0.0, 0.0])
        assert metric(R, preds, targets) == pytest.approx(1.25)  # half factor

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metric(C, np.ones((1, 2)), np.array([1, 2]))


class TestKfoldEvaluate:
    def test_identical_samples_have_zero_fold_variance(self):
        X = np.tile(np.array([[1.0, 2.0, 3.0, 4.0]]), (12, 1))
        y = np.zeros(12, dtype=int)
        ds = Dataset(X, y, ProblemKind.CLASSIFICATION)
        g = mlp([(8, A.RELU)], LayerGene.dense(2, A.SOFTMAX))
        mean, std = kfold_evaluate(g, ds, 3, TrainConfig(3, seed=0, batch_size=4))
        assert std == 0.0
        assert mean in (0.0, 1.0)  # folds agree exactly, whichever class wins

    def test_too_many_folds_rejected(self, blob_dataset):
        g = mlp([(8, A.RELU)], LayerGene.dense(2, A.SOFTMAX))
        with pytest.raises(ValueError):
            kfold_evaluate(g, blob_dataset, blob_dataset.sample_count + 1, TrainConfig(1))

    def test_fold_rows_gathered_in_chunks_equal_their_cast(self, monkeypatch):
        monkeypatch.setattr(data, "_GATHER_BYTES", 3 * 5 * 8)  # three float64 rows a chunk
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(20, 5)), rng.integers(0, 3, 20), ProblemKind.CLASSIFICATION)
        rows = rng.permutation(20)[:11]
        val = ds.take(rows, np.float32)
        assert val.features.dtype == np.float32
        assert np.array_equal(val.features, ds.features[rows].astype(np.float32))
        assert np.array_equal(val.targets, ds.targets[rows])

    def test_mnist_five_fold_reference_model(self):
        from evonas import load_idx
        from conftest import require_mnist

        images, labels, _, _ = require_mnist()
        ds = load_idx(images, labels)
        g = mlp([(64, A.TANH)] * 4)
        mean, _ = kfold_evaluate(g, ds, 5, TrainConfig(50, seed=0))
        assert mean >= 0.96


class TestEvaluator:
    def test_same_seed_same_result(self, blob_dataset):
        evaluate = make_evaluator(blob_dataset, 0.2, TrainConfig(3, batch_size=32))
        g = mlp([(16, A.RELU), 0.2], LayerGene.dense(2, A.SOFTMAX))
        perf = evaluate(g, 123)
        assert type(perf) is float and perf == evaluate(g, 123)
        assert 0.0 <= perf <= 1.0


class TestModelExport:
    def test_roundtrip_preserves_predictions(self, tmp_path, blob_dataset):
        tr, va = holdout(blob_dataset, 0.2, seed=1)
        g = mlp([(16, A.RELU), 0.25], LayerGene.dense(2, A.SOFTMAX))
        net = materialize(g, 4, seed=0)
        report = train(net, blob_dataset, tr, va, TrainConfig(5, seed=0, batch_size=32))
        base = tmp_path / "model"
        save_model(net, g, report.loss_curve, base)
        g2, net2, header = load_model(base)
        assert g2 == g
        assert header["param_count"] == net.param_count
        X = blob_dataset.features[va]
        np.testing.assert_allclose(net2.forward(X), net.forward(X), rtol=1e-5, atol=1e-6)

    def test_loaded_model_trains_and_round_trips_exactly(self, tmp_path, blob_dataset):
        tr, va = holdout(blob_dataset, 0.2, seed=1)
        g = mlp([(16, A.RELU), 0.25], LayerGene.dense(2, A.SOFTMAX))
        net = materialize(g, 4, seed=0)
        train(net, blob_dataset, tr, va, TrainConfig(2, seed=0, batch_size=32))
        save_model(net, g, [], tmp_path / "a")
        _, loaded, _ = load_model(tmp_path / "a")
        weights = [p.copy() for pair in loaded.views(loaded.flat) for p in pair]
        train(loaded, blob_dataset, tr, va, TrainConfig(2, seed=1, batch_size=32))
        trained = [p for pair in loaded.views(loaded.flat) for p in pair]
        assert all(not np.array_equal(p, w) for p, w in zip(trained, weights))
        save_model(loaded, g, [], tmp_path / "b")
        _, again, _ = load_model(tmp_path / "b")
        np.testing.assert_array_equal(again.flat, loaded.flat.astype(np.float32))
        save_model(again, g, [], tmp_path / "c")
        assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_dotted_bases_write_distinct_files(self, tmp_path):
        g = mlp([(8, A.RELU)], LayerGene.dense(2, A.SOFTMAX))
        nets = {base: materialize(g, 4, seed=s) for s, base in enumerate(("model.v1", "model.v2"))}
        for base, net in nets.items():
            paths = save_model(net, g, [], tmp_path / base)
            assert paths == (tmp_path / f"{base}.json", tmp_path / f"{base}.bin")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "model.v1.bin", "model.v1.json", "model.v2.bin", "model.v2.json"
        ]
        for base, net in nets.items():
            _, loaded, _ = load_model(tmp_path / base)
            np.testing.assert_array_equal(loaded.flat, net.flat.astype(np.float32))
        assert not np.array_equal(nets["model.v1"].flat, nets["model.v2"].flat)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        g = mlp([(8, A.RELU), 0.5], LayerGene.dense(2, A.SOFTMAX))
        net = materialize(g, 4, seed=3)
        save_model(net, g, [], tmp_path / "model")

        def no_draws(*args, **kwargs):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr(trainer.np.random, "default_rng", no_draws)
        _, loaded, _ = load_model(tmp_path / "model")
        assert loaded.flat.dtype == np.float64 and loaded.layers[0].dropout == 0.5
        np.testing.assert_array_equal(loaded.flat, net.flat.astype(np.float32))

    def test_blob_length_checked(self, tmp_path):
        g = mlp([(8, A.RELU)], LayerGene.dense(2, A.SOFTMAX))
        net = materialize(g, 4, seed=0)
        base = tmp_path / "model"
        save_model(net, g, [], base)
        (tmp_path / "model.bin").write_bytes(b"\x00" * 12)
        with pytest.raises(ValueError, match="blob"):
            load_model(base)


class TestMemory:
    """Training holds one batch x units array per layer for both the affine
    output and the activation computed over it, each activation derivative
    allocates at most one temporary, and the gradient is held one layer at a
    time."""

    UNIT = 512 * 1024 * 4  # one batch x 1024 float32 array: 2 MiB

    @staticmethod
    def training_peak(spec) -> tuple[int, DenseNetwork]:
        """The traced peak of one float32 training epoch at batch 512, and the network."""
        rng = np.random.default_rng(0)

        X = rng.normal(size=(1100, 784)).astype(np.float32)
        ds = Dataset(X, rng.integers(0, 10, 1100), ProblemKind.CLASSIFICATION)
        net = materialize(mlp(spec), 784, 0, np.float32)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            train(net, ds, np.arange(880), np.arange(880, 1100), TrainConfig(1, batch_size=512))
            return tracemalloc.get_traced_memory()[1], net
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "spec, bound",
        [
            # measured 4.57 arrays; 6.87 with a parameter-sized gradient, 9.88
            # with that and a separate z cached per layer
            ([(1024, A.TANH), 0.5, (1024, A.RELU)], 8.0),
            # measured 3.32; 4.87 with a parameter-sized gradient, 6.88 with that,
            # a separate z and two-temporary derivatives
            ([(1024, A.SIGMOID), (1024, A.SIGMOID)], 6.0),
        ],
        ids=["tanh-dropout-relu", "sigmoid-sigmoid"],
    )
    def test_training_peak_above_the_network(self, spec, bound):
        peak, net = self.training_peak(spec)
        # room for three parameter-sized vectors: Adam's m and v, and a gradient
        arrays = (peak - 3 * net.flat.nbytes) / self.UNIT
        assert arrays < bound

    def test_gradient_held_one_layer_at_a_time(self):
        peak, net = self.training_peak([(1024, A.RELU), 0.5, (1024, A.TANH), (1024, A.SIGMOID)])
        largest = max((fan + 1) * units for fan, units in (layer.shape for layer in net.layers))
        largest *= net.flat.itemsize
        # Adam's m and v, and one buffer for the largest layer's (W, b)
        # gradient. Measured 7.12 arrays; 11.43 with a gradient vector the
        # size of the parameters.
        arrays = (peak - 2 * net.flat.nbytes - largest) / self.UNIT
        assert arrays < 8.5

    def test_kfold_copies_no_training_rows(self):
        n, k, batch = 4000, 4, 256
        rng = np.random.default_rng(0)
        ds = Dataset(rng.random((n, 784)), rng.integers(0, 10, n), ProblemKind.CLASSIFICATION)
        cast = n * 784 * 4  # one float32 copy of the features, which no fold makes
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            kfold_evaluate(mlp([(16, A.RELU)]), ds, k, TrainConfig(1, batch_size=batch))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one fold's validation rows, gathered straight into float32, and six
        # batch x 784 float32 arrays for training and the gather's float64
        # chunk. Measured 0.42 casts (2.63 such arrays above the fold) with the
        # fold gathered after training; 0.48 (3.63) gathered before it, 0.88
        # with a float64 copy of the fold beside its cast, 1.44 with the whole
        # set cast up front, 2.11 to 2.19 when each fold copied its training rows.
        assert peak < cast / k + 6 * batch * 784 * 4

    def test_evaluator_keeps_pixel_bytes(self):
        n = 4000
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, (n, 784), dtype=np.uint8)
        ds = Dataset(pixels, rng.integers(0, 10, n), ProblemKind.CLASSIFICATION)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            make_evaluator(ds, 0.2, TrainConfig(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the split's row indices. Measured 0.003 float32 copies; 0.05 when the
        # evaluator copied the validation bytes, 1.25 when it cast the features.
        assert peak < n * 784 * 4 / 2

    def test_evaluator_keeps_no_copy_of_float_features(self):
        n = 4000
        rng = np.random.default_rng(0)
        ds = Dataset(rng.random((n, 784)), rng.integers(0, 10, n), ProblemKind.CLASSIFICATION)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            make_evaluator(ds, 0.2, TrainConfig(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the split's row indices. Measured 0.003 float32 copies; 1.20 when the
        # evaluator cast the features to float32 and copied its validation rows.
        assert peak < n * 784 * 4 / 4


def test_readme_lists_exactly_the_train_config_fields():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    bullet = readme.split("- **`evonas.trainer`**", 1)[1].split("\n- **", 1)[0]
    sentence = " ".join(bullet.split()).split("`TrainConfig` holds ", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", sentence) == [f.name for f in fields(TrainConfig)]
