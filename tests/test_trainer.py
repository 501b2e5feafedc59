"""Tests for network materialization, training, gradients, and metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from evonas import (
    Activation,
    ArchKind,
    Dataset,
    Genotype,
    LayerGene,
    Metric,
    ProblemKind,
    TrainConfig,
    count_params,
    kfold_evaluate,
    make_evaluator,
    materialize,
    metric,
    split,
    train,
)
from evonas.trainer import (
    DenseNetwork,
    DivergedError,
    Loss,
    UndefinedMetricWarning,
    UnsupportedLayerError,
    _Adam,
    _DenseLayer,
    _Sgd,
    load_model,
    loss_and_gradients,
    save_model,
)

from conftest import genotypes, mlp_classifier, mlp_regressor

A = Activation


def linear_unit(weight: float, bias: float) -> DenseNetwork:
    net = DenseNetwork([_DenseLayer(1, 1, A.LINEAR)], input_dim=1)
    net.flat[:] = (weight, bias)
    return net


class TestMaterialize:
    def test_shapes_match_genotype(self):
        g = mlp_classifier([(64, A.SIGMOID), 0.4])
        net = materialize(g, 784, seed=0)
        dense = [l for l in net.layers if isinstance(l, _DenseLayer)]
        assert [l.W.shape for l in dense] == [(784, 64), (64, 10)]
        assert net.param_count == 50890

    @given(genotypes(arch=ArchKind.MLP, max_hidden=5))
    @settings(max_examples=60)
    def test_param_count_matches_exact_count(self, g):
        if any(l.kind not in (1, 5) for l in g.layers):
            return
        net = materialize(g, 33, seed=1)
        assert net.param_count == count_params(g, 33)

    def test_same_seed_same_weights(self):
        g = mlp_classifier([(32, A.RELU)])
        a, b = materialize(g, 20, seed=9), materialize(g, 20, seed=9)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.W, lb.W)

    def test_unsupported_backend_names_layer(self):
        g = Genotype(
            (
                LayerGene.conv(8, 3, 1, A.RELU),
                LayerGene.dense(10, A.SOFTMAX),
            ),
            ArchKind.CNN,
            ProblemKind.CLASSIFICATION,
        )
        with pytest.raises(UnsupportedLayerError, match="layer 0.*Convolutional"):
            materialize(g, (28, 28, 1), seed=0)


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        g = mlp_classifier([(16, A.RELU)])
        net = materialize(g, 8, seed=0)
        for layer in net.layers:
            layer.W[:] = 0.0
            layer.b[:] = 0.0
        out = net.forward(np.ones((5, 8)))
        np.testing.assert_allclose(out, 0.1)

    def test_softmax_rows_sum_to_one(self):
        g = mlp_classifier([(16, A.TANH)])
        net = materialize(g, 8, seed=3)
        out = net.forward(np.random.default_rng(0).normal(size=(32, 8)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_cross_entropy_never_negative(self):
        g = mlp_classifier([(16, A.TANH)], classes=4)
        rng = np.random.default_rng(4)
        for seed in range(10):
            net = materialize(g, 8, seed=seed)
            X = rng.normal(scale=5.0, size=(16, 8))
            Y = np.eye(4)[rng.integers(4, size=16)]
            value, _ = loss_and_gradients(net, X, Y, Loss.CATEGORICAL_CROSS_ENTROPY)
            assert value >= 0.0

    def test_dropout_inactive_at_inference(self):
        g = mlp_classifier([(16, A.RELU), 0.9])
        net = materialize(g, 8, seed=0)
        X = np.random.default_rng(1).normal(size=(10, 8))
        a = net.forward(X, training=False)
        b = net.forward(X, training=False)
        np.testing.assert_array_equal(a, b)

    def test_affine_arithmetic(self):
        assert linear_unit(2.0, 1.0).forward(np.array([[3.0]]))[0, 0] == 7.0

    def test_shape_mismatch_rejected(self):
        g = mlp_classifier([(16, A.RELU)])
        net = materialize(g, 8, seed=0)
        with pytest.raises(ValueError, match="feature width"):
            net.forward(np.ones((4, 9)))


def numeric_gradients(net, X, Y, loss, h=1e-5):
    grads = []
    for p in net.parameters():
        flat = p.ravel()
        g = np.empty_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up, _ = loss_and_gradients(net, X, Y, loss)
            flat[k] = orig - h
            down, _ = loss_and_gradients(net, X, Y, loss)
            flat[k] = orig
            g[k] = (up - down) / (2 * h)
        grads.append(g.reshape(p.shape))
    return grads


def gradient_agreement(net, X, Y, loss) -> float:
    _, analytic = loss_and_gradients(net, X, Y, loss)
    numeric = numeric_gradients(net, X, Y, loss)
    good = total = 0
    for a, n in zip(analytic, numeric):
        rel = np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n))
        good += int(np.sum(rel <= 1e-4))
        total += a.size
    return good / total


@pytest.mark.parametrize("act", [A.SIGMOID, A.TANH, A.RELU])
class TestGradients:
    def test_cross_entropy(self, act):
        g = Genotype(
            (
                LayerGene.dense(16, act),
                LayerGene.dense(8, act),
                LayerGene.dense(4, A.SOFTMAX),
            ),
            ArchKind.MLP,
            ProblemKind.CLASSIFICATION,
        )
        net = materialize(g, 10, seed=2)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(16, 10))
        Y = np.eye(4)[rng.integers(4, size=16)]
        assert gradient_agreement(net, X, Y, Loss.CATEGORICAL_CROSS_ENTROPY) >= 0.99

    def test_mean_squared_error(self, act):
        g = Genotype(
            (
                LayerGene.dense(16, act),
                LayerGene.dense(8, act),
                LayerGene.dense(1, A.LINEAR),
            ),
            ArchKind.MLP,
            ProblemKind.REGRESSION,
        )
        net = materialize(g, 10, seed=2)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(16, 10))
        Y = rng.normal(size=(16, 1))
        assert gradient_agreement(net, X, Y, Loss.MEAN_SQUARED_ERROR) >= 0.99


class TestGradientVector:
    def setup_method(self):
        g = mlp_classifier([(16, A.RELU), 0.5, (8, A.TANH)], classes=3)
        self.net = materialize(g, 6, seed=1)
        rng = np.random.default_rng(5)
        self.X = rng.normal(size=(20, 6))
        self.Y = np.eye(3)[rng.integers(3, size=20)]

    def grads(self, X, out=None):
        return loss_and_gradients(self.net, X, self.Y, Loss.CATEGORICAL_CROSS_ENTROPY, out=out)[1]

    def test_returned_gradients_survive_a_later_call(self):
        first = self.grads(self.X)
        kept = [g.copy() for g in first]
        self.grads(-self.X)
        for g, k in zip(first, kept):
            np.testing.assert_array_equal(g, k)

    def test_out_vector_holds_the_gradients_in_parameter_layout(self):
        out = np.full_like(self.net.flat, np.nan)
        views = self.grads(self.X, out=out)
        assert all(np.shares_memory(v, out) for v in views)
        assert [v.shape for v in views] == [p.shape for p in self.net.parameters()]
        np.testing.assert_array_equal(out, np.concatenate([v.ravel() for v in views]))
        for v, fresh in zip(views, self.grads(self.X)):
            np.testing.assert_array_equal(v, fresh)


class TestOptimizers:
    def test_zero_gradient_is_a_no_op(self):
        for make in (lambda p: _Sgd(p, 0.1), lambda p: _Adam(p, 0.1)):
            flat = np.arange(6, dtype=np.float64)
            before = flat.copy()
            opt = make(flat)
            opt.step(np.zeros_like(flat))
            np.testing.assert_array_equal(flat, before)

    def test_adam_matches_the_textbook_update_exactly(self):
        rng = np.random.default_rng(0)
        n = 2 * _Adam.CHUNK + 7  # two full chunks and a partial one
        flat = rng.normal(size=n)
        ref, m, v = flat.copy(), np.zeros(n), np.zeros(n)
        opt = _Adam(flat, 0.01)
        for t in range(1, 4):
            g = rng.normal(size=n)
            opt.step(g.copy())
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            correction = np.sqrt(1.0 - 0.999**t) / (1.0 - 0.9**t)
            ref -= 0.01 * correction * m / (np.sqrt(v) + 1e-8)
            np.testing.assert_array_equal(flat, ref)

    def test_full_batch_sgd_loss_non_increasing(self):
        g = mlp_classifier([(16, A.TANH)], classes=3)
        net = materialize(g, 6, seed=5)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 6))
        Y = np.eye(3)[rng.integers(3, size=30)]
        opt = _Sgd(net.flat, lr=1e-4)
        grad = np.empty_like(net.flat)
        losses = []
        for _ in range(6):
            value, _ = loss_and_gradients(net, X, Y, Loss.CATEGORICAL_CROSS_ENTROPY, out=grad)
            losses.append(value)
            opt.step(grad)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestTrain:
    def test_separable_data_reaches_full_accuracy(self, blob_dataset):
        tr, va = split(blob_dataset, 0.2, seed=1)
        g = mlp_classifier([(16, A.RELU)], classes=2)
        net = materialize(g, 4, seed=0)
        report = train(net, (tr, va), TrainConfig(50, seed=0, batch_size=64))
        assert report.value == 1.0

    def test_linear_regression_fits_exactly(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (256, 1))
        y = 3.0 * X[:, 0]
        ds = Dataset(X, y, ProblemKind.REGRESSION)
        tr, va = split(ds, 0.2, seed=1)
        net = linear_unit(0.0, 0.0)
        cfg = TrainConfig(
            200,
            learning_rate=0.5,
            optimizer="sgd",
            loss=Loss.MEAN_SQUARED_ERROR,
            metric=Metric.MSE,
            batch_size=256,
            seed=0,
        )
        report = train(net, (tr, va), cfg)
        assert report.value < 1e-3

    def test_zero_epochs_reports_untrained_metric(self, blob_dataset):
        tr, va = split(blob_dataset, 0.2, seed=1)
        net = materialize(mlp_classifier([(16, A.RELU)], classes=2), 4, seed=0)
        report = train(net, (tr, va), TrainConfig(0, seed=0))
        assert math.isfinite(report.value)
        assert report.loss_curve == []

    def test_divergence_detected_with_epoch(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (64, 1))
        ds = Dataset(X, 3.0 * X[:, 0], ProblemKind.REGRESSION)
        tr, va = split(ds, 0.2, seed=1)
        cfg = TrainConfig(
            60,
            learning_rate=1e5,
            optimizer="sgd",
            loss=Loss.MEAN_SQUARED_ERROR,
            metric=Metric.MSE,
            batch_size=64,
            seed=0,
        )
        with pytest.raises(DivergedError) as err:
            train(linear_unit(0.5, 0.0), (tr, va), cfg)
        assert err.value.epoch >= 0

    def test_training_is_deterministic(self, blob_dataset):
        tr, va = split(blob_dataset, 0.2, seed=1)
        g = mlp_classifier([(16, A.RELU), 0.3], classes=2)
        reports = []
        for _ in range(2):
            net = materialize(g, 4, seed=7)
            reports.append(train(net, (tr, va), TrainConfig(10, seed=7, batch_size=32)))
        assert reports[0].value == reports[1].value
        assert reports[0].loss_curve == reports[1].loss_curve


C, R = ProblemKind.CLASSIFICATION, ProblemKind.REGRESSION

#: ``train`` results recorded before the trainer moved to one flat parameter
#: vector, as (validation metric, loss curve). The flat layout, the in-place
#: optimizer updates and the skipped first-layer input gradient do the same
#: floating-point operations in the same order, so the numbers must match
#: exactly. They depend on the BLAS kernels: recorded with numpy 2.4 and
#: OpenBLAS 0.3.31 on x86-64.
GOLDEN = {
    "sigmoid-dropout-ce-adam": (
        [(16, A.SIGMOID), 0.3, (8, A.SIGMOID)], C, "adam",
        0.3888888888888889, [1.206423101454184, 1.1312664155410996, 1.0729598091446675],
    ),
    "tanh-ce-sgd": (
        [(16, A.TANH)], C, "sgd",
        0.2222222222222222, [1.2133548559275575, 1.1476643829859514, 1.156501211408415],
    ),
    "relu-dropout-ce-adam": (
        [(16, A.RELU), 0.5, (8, A.RELU)], C, "adam",
        0.2777777777777778, [1.313286511905056, 1.1652754280262556, 1.1552920306024264],
    ),
    "relu-tanh-mse-adam": (
        [(16, A.RELU), (8, A.TANH)], R, "adam",
        0.8058219518636123, [1.9117096512422833, 1.0631492484075935, 0.8770359034470733],
    ),
    "sigmoid-dropout-mse-sgd": (
        [(8, A.SIGMOID), 0.2], R, "sgd",
        1.5860431856542965, [2.015008583750083, 1.7355999565863243, 1.5645810225004284],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_train_reproduces_recorded_numbers(name):
    hidden, problem, optimizer, value, curve = GOLDEN[name]
    rng = np.random.default_rng(21)
    X = rng.normal(size=(90, 6))
    if problem == C:
        y, g = rng.integers(3, size=90), mlp_classifier(hidden, classes=3)
    else:
        y, g = X @ rng.normal(size=6), mlp_regressor(hidden)
    tr, va = split(Dataset(X, y, problem), 0.2, seed=1)
    cfg = TrainConfig.for_problem(
        problem, 3, optimizer=optimizer, learning_rate=0.01, batch_size=32, seed=5
    )
    report = train(materialize(g, 6, seed=4), (tr, va), cfg)
    assert report.value == value
    assert report.loss_curve == curve


class TestTrainConfig:
    def test_loss_metric_pairing_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(5, loss=Loss.CATEGORICAL_CROSS_ENTROPY, metric=Metric.MSE)
        with pytest.raises(ValueError):
            TrainConfig(5, loss=Loss.MEAN_SQUARED_ERROR, metric=Metric.ACCURACY)

    def test_problem_defaults(self):
        c = TrainConfig.for_problem(ProblemKind.CLASSIFICATION, 5)
        assert c.loss == Loss.CATEGORICAL_CROSS_ENTROPY and c.metric == Metric.ACCURACY
        r = TrainConfig.for_problem(ProblemKind.REGRESSION, 5)
        assert r.loss == Loss.MEAN_SQUARED_ERROR and r.metric == Metric.MSE


class TestMetric:
    def test_perfect_predictions(self):
        assert metric(Metric.ACCURACY, np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0
        assert metric(Metric.MSE, np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_symmetric_confusion(self):
        targets = np.array([1, 0, 1, 0])
        preds = np.array([1, 1, 0, 0])  # tp=1 fp=1 fn=1 tn=1
        assert metric(Metric.ACCURACY, preds, targets) == 0.5
        assert metric(Metric.PRECISION, preds, targets) == 0.5
        assert metric(Metric.RECALL, preds, targets) == 0.5
        assert metric(Metric.F1, preds, targets) == 0.5

    def test_multiclass_accuracy_equals_argmax_count(self):
        rng = np.random.default_rng(8)
        probs = rng.random((100, 5))
        targets = rng.integers(5, size=100)
        expected = sum(int(np.argmax(row) == t) for row, t in zip(probs, targets)) / 100
        assert metric(Metric.ACCURACY, probs, targets) == expected

    def test_undefined_ratio_reports_zero_with_warning(self):
        preds = np.array([0, 0, 0])
        targets = np.array([0, 0, 0])
        with pytest.warns(UndefinedMetricWarning):
            assert metric(Metric.PRECISION, preds, targets) == 0.0

    def test_mse_and_rmse_conventions(self):
        preds = np.array([1.0, 2.0])
        targets = np.array([0.0, 0.0])
        assert metric(Metric.MSE, preds, targets) == pytest.approx(1.25)  # half factor
        assert metric(Metric.RMSE, preds, targets) == pytest.approx(math.sqrt(2.5))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metric(Metric.ACCURACY, np.array([1]), np.array([1, 2]))


class TestKfoldEvaluate:
    def test_identical_samples_have_zero_fold_variance(self):
        X = np.tile(np.array([[1.0, 2.0, 3.0, 4.0]]), (12, 1))
        y = np.zeros(12, dtype=int)
        ds = Dataset(X, y, ProblemKind.CLASSIFICATION)
        g = mlp_classifier([(8, A.RELU)], classes=2)
        mean, std = kfold_evaluate(g, ds, 3, TrainConfig(3, seed=0, batch_size=4))
        assert std == 0.0
        assert mean in (0.0, 1.0)  # folds agree exactly, whichever class wins

    def test_too_many_folds_rejected(self, blob_dataset):
        g = mlp_classifier([(8, A.RELU)], classes=2)
        with pytest.raises(ValueError):
            kfold_evaluate(g, blob_dataset, blob_dataset.sample_count + 1, TrainConfig(1))

    def test_mnist_five_fold_reference_model(self):
        from evonas import load_idx
        from conftest import require_mnist

        images, labels, _, _ = require_mnist()
        ds = load_idx(images, labels)
        g = mlp_classifier([(64, A.TANH)] * 4)
        mean, _ = kfold_evaluate(g, ds, 5, TrainConfig(50, seed=0))
        assert mean >= 0.96


class TestEvaluator:
    def test_same_seed_same_result(self, blob_dataset):
        evaluate = make_evaluator(
            blob_dataset, ProblemKind.CLASSIFICATION, 4, 0.2, epochs=3, batch_size=32
        )
        g = mlp_classifier([(16, A.RELU), 0.2], classes=2)
        assert evaluate(g, 123) == evaluate(g, 123)
        perf, params = evaluate(g, 123)
        assert 0.0 <= perf <= 1.0
        assert params == count_params(g, 4)


class TestModelExport:
    def test_roundtrip_preserves_predictions(self, tmp_path, blob_dataset):
        tr, va = split(blob_dataset, 0.2, seed=1)
        g = mlp_classifier([(16, A.RELU), 0.25], classes=2)
        net = materialize(g, 4, seed=0)
        report = train(net, (tr, va), TrainConfig(5, seed=0, batch_size=32))
        base = tmp_path / "model"
        save_model(net, g, report.loss_curve, base)
        g2, net2, header = load_model(base)
        assert g2 == g
        assert header["param_count"] == net.param_count
        X = va.features
        np.testing.assert_allclose(net2.forward(X), net.forward(X), rtol=1e-5, atol=1e-6)

    def test_loaded_model_trains_and_round_trips_exactly(self, tmp_path, blob_dataset):
        tr, va = split(blob_dataset, 0.2, seed=1)
        g = mlp_classifier([(16, A.RELU), 0.25], classes=2)
        net = materialize(g, 4, seed=0)
        train(net, (tr, va), TrainConfig(2, seed=0, batch_size=32))
        save_model(net, g, [], tmp_path / "a")
        _, loaded, _ = load_model(tmp_path / "a")
        weights = [p.copy() for p in loaded.parameters()]
        train(loaded, (tr, va), TrainConfig(2, seed=1, batch_size=32))
        assert all(not np.array_equal(p, w) for p, w in zip(loaded.parameters(), weights))
        save_model(loaded, g, [], tmp_path / "b")
        _, again, _ = load_model(tmp_path / "b")
        np.testing.assert_array_equal(again.flat, loaded.flat.astype(np.float32))
        save_model(again, g, [], tmp_path / "c")
        assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_blob_length_checked(self, tmp_path):
        g = mlp_classifier([(8, A.RELU)], classes=2)
        net = materialize(g, 4, seed=0)
        base = tmp_path / "model"
        save_model(net, g, [], base)
        (tmp_path / "model.bin").write_bytes(b"\x00" * 12)
        with pytest.raises(ValueError, match="blob"):
            load_model(base)
