"""Dense-network materialization and partial-training evaluation.

Genotypes made of fully connected and dropout layers are turned into plain
numpy networks, trained for a configurable (typically small) number of
epochs, and scored on a held-out split. The short-training score is what
the search loop uses as fitness input; the same machinery also does full
training and k-fold assessment of finished candidates.
"""

from __future__ import annotations

import json
import logging
import math
import time
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import data as data_mod
from .genotype import (
    Activation,
    Genotype,
    GenotypeError,
    LayerKind,
    ProblemKind,
    count_params,
    from_dict,
    to_dict,
    validate,
)

log = logging.getLogger(__name__)


class Metric(str, Enum):
    ACCURACY = "accuracy"
    PRECISION = "precision"
    RECALL = "recall"
    F1 = "f1"
    MSE = "mse"
    RMSE = "rmse"


#: Metrics where larger is better (scores); the rest are error magnitudes.
SCORE_METRICS = frozenset({Metric.ACCURACY, Metric.PRECISION, Metric.RECALL, Metric.F1})


class Loss(str, Enum):
    CATEGORICAL_CROSS_ENTROPY = "categorical_cross_entropy"
    MEAN_SQUARED_ERROR = "mean_squared_error"


class ConfigError(ValueError):
    """A search or training configuration field is missing, unknown, or out of bounds."""


class UnsupportedLayerError(GenotypeError):
    """The training backend cannot materialize a layer kind."""


class DivergedError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


class UndefinedMetricWarning(UserWarning):
    """A metric ratio had a zero denominator and was reported as 0."""


@dataclass
class TrainConfig:
    epochs: int
    learning_rate: float = 0.001
    optimizer: str = "adam"
    loss: Loss = Loss.CATEGORICAL_CROSS_ENTROPY
    metric: Metric = Metric.ACCURACY
    batch_size: int = 512
    seed: int = 0

    def __post_init__(self):
        self.loss = Loss(self.loss)
        self.metric = Metric(self.metric)
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        # classification pairs with cross-entropy, regression with MSE
        if self.loss == Loss.CATEGORICAL_CROSS_ENTROPY and self.metric not in SCORE_METRICS:
            raise ConfigError("cross-entropy loss pairs with classification metrics")
        if self.loss == Loss.MEAN_SQUARED_ERROR and self.metric in SCORE_METRICS:
            raise ConfigError("squared-error loss pairs with regression metrics")

    @classmethod
    def for_problem(cls, problem: ProblemKind, epochs: int, **kw) -> "TrainConfig":
        if problem == ProblemKind.CLASSIFICATION:
            return cls(epochs, loss=Loss.CATEGORICAL_CROSS_ENTROPY, metric=Metric.ACCURACY, **kw)
        return cls(epochs, loss=Loss.MEAN_SQUARED_ERROR, metric=Metric.MSE, **kw)


@dataclass
class PerfReport:
    value: float
    loss_curve: list[float]
    wall_time: float


# --- network ----------------------------------------------------------------

def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _activate(z, kind: Activation):
    if kind == Activation.SIGMOID:
        return _sigmoid(z)
    if kind == Activation.TANH:
        return np.tanh(z)
    if kind == Activation.RELU:
        return np.maximum(z, 0.0)
    if kind == Activation.SOFTMAX:
        return _softmax(z)
    return z  # linear


def _backprop_activation(d: np.ndarray, z, a, kind: Activation) -> np.ndarray:
    """Scale ``d`` in place by the activation's derivative, from cached values."""
    if kind == Activation.SIGMOID:
        d *= a * (1.0 - a)
    elif kind == Activation.TANH:
        d *= 1.0 - a * a
    elif kind == Activation.RELU:
        d *= z > 0.0
    elif kind != Activation.LINEAR:  # linear: the derivative is 1
        raise ValueError(f"no elementwise gradient for {kind}")
    return d


class _DenseLayer:
    """An affine+activation layer; ``W`` and ``b`` are views into its network's ``flat``."""

    def __init__(self, fan_in: int, units: int, activation: Activation):
        self.shape = (fan_in, units)
        self.activation = activation
        self.W = self.b = None


class _DropoutLayer:
    def __init__(self, rate: float):
        self.rate = rate


class DenseNetwork:
    """A stack of affine+activation layers with optional inverted dropout.

    Every parameter lives in one float64 vector, ``flat``: each dense
    layer's weights (row-major) and then its biases, in layer order. The
    layers' ``W`` and ``b`` are views into it, so the optimizer and model
    export work on the vector while the passes read the views.
    """

    def __init__(self, layers, input_dim: int):
        self.layers = layers
        self.input_dim = input_dim
        self.dense = [layer for layer in layers if isinstance(layer, _DenseLayer)]
        self.flat = np.zeros(sum((layer.shape[0] + 1) * layer.shape[1] for layer in self.dense))
        for layer, (W, b) in zip(self.dense, self.views(self.flat)):
            layer.W, layer.b = W, b

    def views(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per dense layer, ``(weights, bias)`` views into a vector laid out like ``flat``."""
        out, at = [], 0
        for layer in self.dense:
            fan, units = layer.shape
            W = vec[at : at + fan * units].reshape(fan, units)
            at += fan * units
            out.append((W, vec[at : at + units]))
            at += units
        return out

    @property
    def param_count(self) -> int:
        return self.flat.size

    @property
    def output_units(self) -> int:
        if not self.dense:
            raise ValueError("network has no dense layers")
        return self.dense[-1].shape[1]

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.dense for p in (layer.W, layer.b)]

    def forward(self, batch: np.ndarray, training: bool = False, rng=None) -> np.ndarray:
        """Predictions for a batch; dropout is active only while training."""
        a, _ = self._forward_cached(batch, training, rng)
        return a

    def _forward_cached(self, batch, training, rng):
        X = np.asarray(batch, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.input_dim:
            raise ValueError(
                f"batch feature width {X.shape[1]} does not match input dim {self.input_dim}"
            )
        a = X
        caches = []
        for layer in self.layers:
            if isinstance(layer, _DenseLayer):
                z = a @ layer.W
                z += layer.b
                out = _activate(z, layer.activation)
                caches.append((layer, a, z, out))
                a = out
            else:
                if training and layer.rate > 0.0:
                    if rng is None:
                        raise ValueError("training-mode dropout needs an rng")
                    if layer.rate >= 1.0:
                        mask = np.zeros_like(a)
                    else:
                        keep = rng.random(a.shape) >= layer.rate
                        mask = keep / (1.0 - layer.rate)
                    a = a * mask
                else:
                    mask = None
                caches.append((layer, mask))
        return a, caches


def materialize(g: Genotype, input_dim: int, seed: int) -> DenseNetwork:
    """Build the network a dense genotype describes, Glorot-initialized from ``seed``."""
    report = validate(g)
    if not report.ok:
        raise GenotypeError(f"cannot materialize invalid genotype: {report.summary()}")
    for i, gene in enumerate(g.layers):
        if gene.kind not in (LayerKind.FULLY_CONNECTED, LayerKind.DROPOUT):
            raise UnsupportedLayerError(
                f"layer {i}: {gene.kind.label()} layers have no training backend here"
            )
    layers = []
    fan = int(input_dim)
    for gene in g.layers:
        if gene.kind == LayerKind.FULLY_CONNECTED:
            layers.append(_DenseLayer(fan, gene.units, gene.activation))
            fan = gene.units
        else:
            layers.append(_DropoutLayer(gene.dropout_rate))
    net = DenseNetwork(layers, int(input_dim))
    assert net.param_count == count_params(g, int(input_dim))
    rng = np.random.default_rng(seed)
    for layer in net.dense:  # biases stay zero
        fan, units = layer.shape
        limit = np.sqrt(6.0 / (fan + units))
        layer.W[...] = rng.uniform(-limit, limit, size=layer.shape)
    return net


# --- loss and gradients -----------------------------------------------------

def _loss_value(outputs: np.ndarray, Y: np.ndarray, loss: Loss) -> float:
    n = len(outputs)
    if loss == Loss.CATEGORICAL_CROSS_ENTROPY:
        return float(-np.sum(Y * np.log(np.clip(outputs, 1e-12, 1.0))) / n)
    return float(0.5 * np.sum((outputs - Y) ** 2) / n)


def loss_and_gradients(net: DenseNetwork, X, Y, loss: Loss, training=False, rng=None, out=None):
    """Loss on a batch and its gradient for every weight matrix and bias.

    The gradients are written into ``out``, a vector laid out like
    ``net.flat``, and returned as per-parameter views of it in the order of
    ``net.parameters()``. Without ``out`` a fresh vector is allocated, so
    gradients returned earlier are never overwritten.
    """
    outputs, caches = net._forward_cached(X, training, rng)
    n = len(outputs)
    value = _loss_value(outputs, Y, loss)
    if out is None:
        out = np.empty_like(net.flat)
    grads = net.views(out)

    last = caches[-1]
    delta = outputs - Y
    delta /= n  # d loss / d outputs
    if loss == Loss.CATEGORICAL_CROSS_ENTROPY:
        layer = last[0]
        if not isinstance(layer, _DenseLayer) or layer.activation != Activation.SOFTMAX:
            raise ValueError("cross-entropy training expects a softmax output layer")
        # softmax and cross-entropy fused: delta is already d loss / d logits
    else:
        layer, _, z, a = last
        _backprop_activation(delta, z, a, layer.activation)

    k = len(grads)
    d_prev = None
    for cache in reversed(caches):
        layer = cache[0]
        if isinstance(layer, _DenseLayer):
            _, a_in, z, a = cache
            if delta is None:
                delta = _backprop_activation(d_prev, z, a, layer.activation)
            k -= 1
            gW, gb = grads[k]
            np.matmul(a_in.T, delta, out=gW)
            np.sum(delta, axis=0, out=gb)
            if k == 0:
                break  # nothing below the first dense layer needs its input gradient
            d_prev = delta @ layer.W.T
            delta = None
        elif cache[1] is not None:
            d_prev *= cache[1]
    return value, [g for pair in grads for g in pair]


class _Sgd:
    """Plain gradient descent on a flat parameter vector."""

    def __init__(self, flat: np.ndarray, lr: float):
        self.flat = flat
        self.lr = lr

    def step(self, grad: np.ndarray):
        """Update ``flat`` in place; ``grad`` is used as scratch and overwritten."""
        grad *= self.lr
        self.flat -= grad


class _Adam:
    """Adam (Kingma & Ba 2015) on a flat parameter vector, updated in place.

    A step makes a dozen elementwise passes; it makes them one chunk of the
    vector at a time, so each pass rereads the chunk from cache instead of
    the whole vector from memory.
    """

    #: Elements per chunk: 128 KiB per array, so the five arrays a step
    #: touches stay in a core's L2 cache.
    CHUNK = 1 << 14

    def __init__(self, flat: np.ndarray, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.flat = flat
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.scratch = np.empty(min(flat.size, self.CHUNK))
        self.t = 0

    def step(self, grad: np.ndarray):
        """Update ``flat`` in place; ``grad`` is used as scratch and overwritten."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        rate = self.lr * (np.sqrt(1.0 - b2**self.t) / (1.0 - b1**self.t))
        for at in range(0, self.flat.size, self.CHUNK):
            part = slice(at, at + self.CHUNK)
            p, m, v, g = self.flat[part], self.m[part], self.v[part], grad[part]
            s = self.scratch[: g.size]
            # m*b1 + g*(1-b1), v*b2 + (g*(1-b2))*g, then (m*rate) /
            # (sqrt(v) + eps): every elementwise op rounds once, so keeping
            # this order keeps every bit of the update.
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=s)
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            denom = np.sqrt(v, out=g)
            denom += self.eps
            np.multiply(m, rate, out=s)
            s /= denom
            p -= s


def make_optimizer(name: str, flat: np.ndarray, lr: float):
    return _Adam(flat, lr) if name == "adam" else _Sgd(flat, lr)


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"labels outside 0..{classes - 1}")
    return np.eye(classes)[labels]


def _target_matrix(net: DenseNetwork, ds: data_mod.Dataset) -> np.ndarray:
    if ds.problem == ProblemKind.CLASSIFICATION:
        return one_hot(ds.targets, net.output_units)
    return ds.targets.reshape(-1, 1)


def train(net: DenseNetwork, dataset_split, cfg: TrainConfig) -> PerfReport:
    """Minibatch-train a network and score it on the validation split.

    ``dataset_split`` is a ``(train, validation)`` pair of datasets. All
    randomness (shuffling, dropout masks) flows from ``cfg.seed``, so the
    result is deterministic.
    """
    train_ds, val_ds = dataset_split
    Y = _target_matrix(net, train_ds)
    X = train_ds.features
    rng = np.random.default_rng(cfg.seed)
    optimizer = make_optimizer(cfg.optimizer, net.flat, cfg.learning_rate)
    grad = np.empty_like(net.flat)  # reused by every minibatch

    started = time.perf_counter()
    curve: list[float] = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(X))
        epoch_losses = []
        for at in range(0, len(X), cfg.batch_size):
            idx = perm[at : at + cfg.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                value, _ = loss_and_gradients(
                    net, X[idx], Y[idx], cfg.loss, training=True, rng=rng, out=grad
                )
            if not np.isfinite(value):
                raise DivergedError(epoch)
            optimizer.step(grad)
            epoch_losses.append(value)
        curve.append(float(np.mean(epoch_losses)))

    preds = net.forward(val_ds.features, training=False)
    if val_ds.problem == ProblemKind.REGRESSION:
        preds = preds[:, 0]
    value = metric(cfg.metric, preds, val_ds.targets)
    return PerfReport(value, curve, time.perf_counter() - started)


# --- metrics ----------------------------------------------------------------

def _ratio(num: float, den: float, name: str) -> float:
    if den == 0:
        warnings.warn(f"{name} undefined (zero denominator), reporting 0", UndefinedMetricWarning)
        return 0.0
    return num / den


def _binary_prf(labels: np.ndarray, targets: np.ndarray) -> tuple[float, float, float]:
    tp = float(np.sum((labels == 1) & (targets == 1)))
    fp = float(np.sum((labels == 1) & (targets != 1)))
    fn = float(np.sum((labels != 1) & (targets == 1)))
    precision = _ratio(tp, tp + fp, "precision")
    recall = _ratio(tp, tp + fn, "recall")
    f1 = _ratio(2.0 * precision * recall, precision + recall, "f1")
    return precision, recall, f1


def metric(kind: Metric, predictions, targets) -> float:
    """Score predictions against targets.

    Classification metrics accept probability rows or already-argmaxed
    labels. Precision/recall/F1 use class 1 as the positive class for
    binary targets and macro-average one-vs-rest otherwise; a ratio with a
    zero denominator is reported as 0 with an ``UndefinedMetricWarning``.
    """
    kind = Metric(kind)
    preds = np.asarray(predictions)
    targets = np.asarray(targets)
    if len(preds) != len(targets):
        raise ValueError("predictions and targets differ in length")
    if kind in (Metric.MSE, Metric.RMSE):
        diff = preds.astype(np.float64).reshape(len(preds), -1) - targets.astype(
            np.float64
        ).reshape(len(targets), -1)
        per_sample = np.sum(diff**2, axis=1)
        if kind == Metric.MSE:
            return float(0.5 * per_sample.mean())
        return float(np.sqrt(per_sample.mean()))

    labels = preds.argmax(axis=1) if preds.ndim == 2 and preds.shape[1] > 1 else preds
    labels = np.asarray(labels).reshape(-1).astype(np.int64)
    targets = targets.astype(np.int64)
    if kind == Metric.ACCURACY:
        return float(np.mean(labels == targets))
    classes = np.unique(targets)
    if len(classes) <= 2:
        p, r, f1 = _binary_prf(labels, targets)
    else:
        per = [
            _binary_prf((labels == c).astype(int), (targets == c).astype(int))
            for c in classes
        ]
        p, r, f1 = (float(np.mean([row[i] for row in per])) for i in range(3))
    return {Metric.PRECISION: p, Metric.RECALL: r, Metric.F1: f1}[kind]


def kfold_evaluate(g: Genotype, dataset: data_mod.Dataset, k: int, cfg: TrainConfig):
    """Mean and standard deviation of the metric over k train/validate folds.

    Every fold trains a fresh materialization from the same seed, so the
    only variation between folds is the data split itself.
    """
    folds = data_mod.kfold(dataset, k, cfg.seed)
    all_idx = np.arange(dataset.sample_count)
    values = []
    for i, fold in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, fold)
        net = materialize(g, dataset.feature_count, cfg.seed)
        report = train(net, (dataset.take(train_idx), dataset.take(fold)), cfg)
        values.append(report.value)
        log.debug("fold %d/%d: %s=%.4f", i + 1, k, cfg.metric.value, report.value)
    return float(np.mean(values)), float(np.std(values))


# --- search-facing evaluator -------------------------------------------------

def make_evaluator(
    dataset: data_mod.Dataset,
    problem: ProblemKind,
    input_dim: int,
    cv_ratio: float,
    epochs: int,
    learning_rate: float = 0.001,
    batch_size: int = 512,
    split_seed: int = 0,
):
    """Partial-training fitness evaluator for the search loop.

    The train/validation split is fixed once from ``split_seed``; each
    candidate's weights and shuffle stream come from the per-candidate seed,
    so evaluation order and parallelism cannot change any result. Returns a
    ``(validation metric, parameter count)`` pair.
    """
    base = TrainConfig.for_problem(
        problem, epochs, learning_rate=learning_rate, batch_size=batch_size
    )
    split_pair = data_mod.split(dataset, cv_ratio, split_seed)

    def evaluate(genotype: Genotype, seed: int) -> tuple[float, int]:
        net = materialize(genotype, input_dim, seed)
        report = train(net, split_pair, replace(base, seed=seed))
        return report.value, net.param_count

    return evaluate


# --- model export -------------------------------------------------------------

def save_model(net: DenseNetwork, g: Genotype, history: list[float], base_path) -> tuple[Path, Path]:
    """Write ``<base>.json`` (header) and ``<base>.bin`` (little-endian f32 params).

    Parameters are flattened in layer order, each layer's weights before its
    biases.
    """
    base = Path(base_path)
    header = {
        "genotype": to_dict(g),
        "input_dim": net.input_dim,
        "shapes": [list(layer.shape) for layer in net.dense],
        "loss_history": history,
        "param_count": net.param_count,
    }
    json_path = base.with_suffix(".json")
    bin_path = base.with_suffix(".bin")
    json_path.write_text(json.dumps(header, indent=2))
    bin_path.write_bytes(net.flat.astype("<f4").tobytes())
    return json_path, bin_path


def load_model(base_path) -> tuple[Genotype, DenseNetwork, dict]:
    """Inverse of :func:`save_model`."""
    base = Path(base_path)
    header = json.loads(base.with_suffix(".json").read_text())
    g = from_dict(header["genotype"])
    blob = base.with_suffix(".bin").read_bytes()
    net = materialize(g, header["input_dim"], seed=0)
    floats = np.frombuffer(blob, dtype="<f4")
    if floats.size != net.param_count:
        raise ValueError(
            f"parameter blob has {floats.size} floats, header promises {net.param_count}"
        )
    net.flat[:] = floats  # in place: the layers' W and b are views of net.flat
    return g, net, header
