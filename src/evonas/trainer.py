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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from .genotype import (
    Activation,
    Genotype,
    LayerKind,
    ProblemKind,
    count_params,
    from_dict,
    to_dict,
)

log = logging.getLogger(__name__)

#: The precision of every training whose network is thrown away once it is
#: scored: the search's partial-training fitness and each k-fold fold. A
#: score only has to rank candidates or summarize folds, so it runs in
#: single precision; ``train``'s default, the final model of ``evonas
#: train``, model export and the gradient check keep float64.
SCORE_DTYPE = np.float32


#: The name of the metric that scores each problem: accuracy is a score
#: (larger is better), MSE an error (smaller is better).
METRIC_NAME = {ProblemKind.CLASSIFICATION: "accuracy", ProblemKind.REGRESSION: "mse"}


class ConfigError(ValueError):
    """A search or training configuration field is missing, unknown, or out of bounds."""


class DivergedError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    """Minibatch Adam settings; the network and the data decide loss and metric."""

    epochs: int
    learning_rate: float = 0.001
    batch_size: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class PerfReport:
    value: float
    loss_curve: list[float]


# --- network ----------------------------------------------------------------

def _activate(z, kind: Activation) -> None:
    """Overwrite ``z``, a fresh pre-activation, with the activation; linear leaves it as is."""
    if kind == Activation.SIGMOID:
        np.clip(z, -500, 500, out=z)
        np.negative(z, out=z)
        with np.errstate(over="ignore"):  # exp overflows float32 past 88.7; 1 / (1 + inf) is 0
            np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
    elif kind == Activation.TANH:
        np.tanh(z, out=z)
    elif kind == Activation.RELU:
        np.maximum(z, 0.0, out=z)
    elif kind == Activation.SOFTMAX:
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)


def _backprop_activation(d: np.ndarray, a, kind: Activation) -> np.ndarray:
    """Scale ``d`` in place by the activation's derivative, read from the
    activation ``a``; each derivative allocates at most one temporary."""
    if kind == Activation.SIGMOID:
        t = 1.0 - a
        t *= a
        d *= t
    elif kind == Activation.TANH:
        t = a * a
        np.subtract(1.0, t, out=t)
        d *= t
    elif kind == Activation.RELU:
        d *= a > 0.0  # equals z > 0.0 for a = max(z, 0), NaN included
    elif kind != Activation.LINEAR:  # linear: the derivative is 1
        raise ValueError(f"no elementwise gradient for {kind}")
    return d


class _DenseLayer:
    """An affine+activation layer and the inverted dropout that follows it.

    ``W`` and ``b`` are views into its network's ``flat``. ``dropout`` is
    the rate of the dropout gene after the layer, 0.0 when there is none.
    """

    def __init__(self, fan_in: int, units: int, activation: Activation):
        self.shape = (fan_in, units)
        self.activation = activation
        self.dropout = 0.0
        self.W = self.b = None


class DenseNetwork:
    """A stack of affine+activation layers, each with optional inverted dropout.

    Every parameter lives in one vector, ``flat``: each layer's weights
    (row-major) and then its biases, in layer order. The layers' ``W`` and
    ``b`` are views into it, so the optimizer and model export work on the
    vector while the passes read the views. The dtype of ``flat`` is the
    network's precision: its passes, gradients and optimizer state all run
    in it.
    """

    def __init__(self, layers, input_dim: int, dtype=np.float64):
        self.layers = layers
        self.input_dim = input_dim
        size = sum((layer.shape[0] + 1) * layer.shape[1] for layer in layers)
        self.flat = np.zeros(size, dtype=dtype)
        for layer, (W, b) in zip(layers, self.views(self.flat)):
            layer.W, layer.b = W, b

    def views(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer, ``(weights, bias)`` views into a vector laid out like ``flat``."""
        out, at = [], 0
        for layer in self.layers:
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
        return self.layers[-1].shape[1]

    @property
    def softmax_output(self) -> bool:
        """A softmax output trains on cross-entropy, any other on half the squared error."""
        return self.layers[-1].activation == Activation.SOFTMAX

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in (layer.W, layer.b)]

    def forward(self, batch: np.ndarray, training: bool = False, rng=None) -> np.ndarray:
        """Predictions for a batch; dropout is active only while training."""
        a, _ = self._forward_cached(batch, training, rng)
        return a

    def _forward_cached(self, batch, training, rng):
        """The output and, per layer, ``(layer, a_in, a, mask)``: ``a`` is the
        activation before dropout, computed in place over the layer's affine
        output, and ``mask`` the scaled dropout mask or None."""
        X = np.asarray(batch, dtype=self.flat.dtype)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.input_dim:
            raise ValueError(
                f"batch feature width {X.shape[1]} does not match input dim {self.input_dim}"
            )
        a_in = X
        caches = []
        for layer in self.layers:
            a = a_in @ layer.W
            a += layer.b
            _activate(a, layer.activation)
            mask = None
            if training and layer.dropout > 0.0:
                if rng is None:
                    raise ValueError("training-mode dropout needs an rng")
                if layer.dropout >= 1.0:
                    mask = np.zeros_like(a)
                else:
                    mask = (rng.random(a.shape) >= layer.dropout).astype(a.dtype)
                    mask /= 1.0 - layer.dropout
            caches.append((layer, a_in, a, mask))
            a_in = a if mask is None else a * mask
        return a_in, caches


def materialize(g: Genotype, input_dim: int, seed: int, dtype=np.float64) -> DenseNetwork:
    """Build the network a genotype describes, Glorot-initialized from ``seed``.

    Each dropout gene becomes the ``dropout`` of the dense layer before it.
    The weights are drawn in float64 and rounded into ``dtype``, so a
    network's weights are the same draw whatever its precision.
    """
    params = count_params(g, int(input_dim))  # raises GenotypeError for an invalid genotype
    layers = []
    fan = int(input_dim)
    for gene in g.layers:
        if gene.kind == LayerKind.FULLY_CONNECTED:
            layers.append(_DenseLayer(fan, gene.units, gene.activation))
            fan = gene.units
        else:  # a valid genotype puts a dropout gene only after a dense one
            layers[-1].dropout = gene.dropout_rate
    net = DenseNetwork(layers, int(input_dim), dtype)
    assert net.param_count == params
    rng = np.random.default_rng(seed)
    for layer in layers:  # biases stay zero
        fan, units = layer.shape
        limit = np.sqrt(6.0 / (fan + units))
        layer.W[...] = rng.uniform(-limit, limit, size=layer.shape)
    return net


# --- loss and gradients -----------------------------------------------------

def _loss_value(outputs: np.ndarray, Y: np.ndarray, softmax: bool) -> float:
    n = len(outputs)
    if softmax:
        return float(-np.sum(Y * np.log(np.clip(outputs, 1e-12, 1.0))) / n)
    return float(0.5 * np.sum((outputs - Y) ** 2) / n)


def loss_and_gradients(net: DenseNetwork, X, Y, training=False, rng=None, out=None):
    """The loss on a batch and its gradient for every weight matrix and bias.

    The output layer picks the loss (see :attr:`DenseNetwork.softmax_output`).
    The gradients are written into ``out``, a vector laid out like
    ``net.flat``, and returned as per-parameter views of it in the order of
    ``net.parameters()``. Without ``out`` a fresh vector is allocated, so
    gradients returned earlier are never overwritten.
    """
    outputs, caches = net._forward_cached(X, training, rng)
    n = len(outputs)
    softmax = net.softmax_output
    value = _loss_value(outputs, Y, softmax)
    if out is None:
        out = np.empty_like(net.flat)
    grads = net.views(out)

    delta = outputs - Y
    delta /= n  # d loss / d outputs
    if not softmax:  # softmax and cross-entropy fused: delta is already d loss / d logits
        layer, _, a, _ = caches[-1]
        _backprop_activation(delta, a, layer.activation)

    for k in range(len(caches) - 1, -1, -1):
        layer, a_in = caches[k][:2]
        gW, gb = grads[k]
        np.matmul(a_in.T, delta, out=gW)
        np.sum(delta, axis=0, out=gb)
        if k == 0:
            break  # nothing below the first layer needs its input gradient
        # rebinding frees this layer's delta before the activation
        # derivative below allocates its temporary
        delta = delta @ layer.W.T
        below, _, a, mask = caches[k - 1]
        if mask is not None:
            delta *= mask
        _backprop_activation(delta, a, below.activation)
    return value, [g for pair in grads for g in pair]


class _Adam:
    """Adam (Kingma & Ba 2015) on a flat parameter vector, updated in place.

    A step makes a dozen elementwise passes; it makes them one chunk of the
    vector at a time, so each pass rereads the chunk from cache instead of
    the whole vector from memory.
    """

    #: Bytes per array per chunk, so the five arrays a step touches stay in
    #: a core's L2 cache: 16384 float64 or 32768 float32 elements.
    CHUNK_BYTES = 128 << 10

    def __init__(self, flat: np.ndarray, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.flat = flat
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.chunk = self.CHUNK_BYTES // flat.itemsize
        self.scratch = np.empty(min(flat.size, self.chunk), dtype=flat.dtype)
        self.t = 0

    def step(self, grad: np.ndarray):
        """Update ``flat`` in place; ``grad`` is used as scratch and overwritten."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        # a Python float, so it takes the vector's dtype instead of upcasting it
        rate = float(self.lr * (np.sqrt(1.0 - b2**self.t) / (1.0 - b1**self.t)))
        for at in range(0, self.flat.size, self.chunk):
            part = slice(at, at + self.chunk)
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


def make_optimizer(flat: np.ndarray, lr: float) -> _Adam:
    return _Adam(flat, lr)


def one_hot(labels: np.ndarray, classes: int, dtype) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"labels outside 0..{classes - 1}")
    return np.eye(classes, dtype=dtype)[labels]


def _target_matrix(net: DenseNetwork, ds: data_mod.Dataset) -> np.ndarray:
    if ds.problem == ProblemKind.CLASSIFICATION:
        return one_hot(ds.targets, net.output_units, net.flat.dtype)
    return ds.targets.reshape(-1, 1).astype(net.flat.dtype, copy=False)


def train(net: DenseNetwork, dataset_split, cfg: TrainConfig) -> PerfReport:
    """Minibatch-train a network and score it on the validation split.

    ``dataset_split`` is a ``(train, validation)`` pair of datasets. All
    randomness (shuffling, dropout masks) flows from ``cfg.seed``, so the
    result is deterministic. Training runs in the network's dtype; features
    already in it are not copied. The output layer picks the loss and the
    validation data's problem the metric; a softmax output needs
    classification data, and classification data a softmax output.
    """
    train_ds, val_ds = dataset_split
    for ds in dataset_split:
        if net.softmax_output != (ds.problem == ProblemKind.CLASSIFICATION):
            raise ValueError(
                f"a {net.layers[-1].activation.name.lower()} output layer cannot train on "
                f"{ds.problem.value} data: softmax outputs and classification data go together"
            )
    Y = _target_matrix(net, train_ds)
    X = np.asarray(train_ds.features, dtype=net.flat.dtype)
    rng = np.random.default_rng(cfg.seed)
    optimizer = make_optimizer(net.flat, cfg.learning_rate)
    grad = np.empty_like(net.flat)  # reused by every minibatch

    curve: list[float] = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(X))
        epoch_losses = []
        for at in range(0, len(X), cfg.batch_size):
            idx = perm[at : at + cfg.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                value, _ = loss_and_gradients(net, X[idx], Y[idx], training=True, rng=rng, out=grad)
            if not np.isfinite(value):
                raise DivergedError(epoch)
            optimizer.step(grad)
            epoch_losses.append(value)
        curve.append(float(np.mean(epoch_losses)))

    preds = net.forward(val_ds.features, training=False)
    return PerfReport(metric(val_ds.problem, preds, val_ds.targets), curve)


# --- metrics ----------------------------------------------------------------

def metric(problem: ProblemKind, predictions, targets) -> float:
    """Score predictions against targets with the problem's metric.

    Accuracy (classification) accepts probability rows or already-argmaxed
    labels. MSE (regression) is half the per-sample squared error,
    averaged, like the training loss.
    """
    problem = ProblemKind(problem)
    preds = np.asarray(predictions)
    targets = np.asarray(targets)
    if len(preds) != len(targets):
        raise ValueError("predictions and targets differ in length")
    if problem == ProblemKind.REGRESSION:
        diff = preds.astype(np.float64).reshape(len(preds), -1) - targets.astype(
            np.float64
        ).reshape(len(targets), -1)
        return float(0.5 * np.sum(diff**2, axis=1).mean())

    labels = preds.argmax(axis=1) if preds.ndim == 2 and preds.shape[1] > 1 else preds
    labels = np.asarray(labels).reshape(-1).astype(np.int64)
    return float(np.mean(labels == targets.astype(np.int64)))


def _in_score_dtype(dataset: data_mod.Dataset) -> data_mod.Dataset:
    """The dataset with its features cast once to :data:`SCORE_DTYPE`."""
    return replace(dataset, features=dataset.features.astype(SCORE_DTYPE))


def _score(g: Genotype, split_pair, cfg: TrainConfig) -> tuple[float, int]:
    """Materialize ``g`` from ``cfg.seed`` in :data:`SCORE_DTYPE`, train it on a
    ``(train, validation)`` pair, and return ``(validation metric, parameter count)``."""
    net = materialize(g, split_pair[0].feature_count, cfg.seed, SCORE_DTYPE)
    return train(net, split_pair, cfg).value, net.param_count


def kfold_evaluate(g: Genotype, dataset: data_mod.Dataset, k: int, cfg: TrainConfig):
    """Mean and standard deviation of the metric over k train/validate folds.

    Every fold trains a fresh materialization from the same seed, so the
    only variation between folds is the data split itself. Each fold's
    network only yields a score, so it trains in :data:`SCORE_DTYPE`; the
    features are cast once, before folding.
    """
    folds = data_mod.kfold(dataset, k, cfg.seed)
    dataset = _in_score_dtype(dataset)
    all_idx = np.arange(dataset.sample_count)
    values = []
    for i, fold in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, fold)
        value, _ = _score(g, (dataset.take(train_idx), dataset.take(fold)), cfg)
        values.append(value)
        log.debug("fold %d/%d: %s=%.4f", i + 1, k, METRIC_NAME[dataset.problem], value)
    return float(np.mean(values)), float(np.std(values))


# --- search-facing evaluator -------------------------------------------------

def make_evaluator(dataset: data_mod.Dataset, cv_ratio: float, cfg: TrainConfig):
    """Partial-training fitness evaluator for the search loop.

    The train/validation split is fixed once from ``cfg.seed`` and cast
    once to :data:`SCORE_DTYPE`, the precision every candidate trains in.
    Each candidate trains with ``cfg`` but its own seed, which draws its
    weights and shuffle stream, so evaluation order and the worker count
    cannot change a result at a fixed BLAS thread count. Returns a ``(validation metric, parameter count)``
    pair.
    """
    split_pair = tuple(map(_in_score_dtype, data_mod.split(dataset, cv_ratio, cfg.seed)))

    def evaluate(genotype: Genotype, seed: int) -> tuple[float, int]:
        return _score(genotype, split_pair, replace(cfg, seed=seed))

    return evaluate


# --- model export -------------------------------------------------------------

def _model_paths(base_path) -> tuple[Path, Path]:
    return Path(f"{base_path}.json"), Path(f"{base_path}.bin")


def save_model(net: DenseNetwork, g: Genotype, history: list[float], base_path) -> tuple[Path, Path]:
    """Write ``<base>.json`` (header) and ``<base>.bin`` (little-endian f32 params).

    The suffixes are appended, so ``model.v1`` and ``model.v2`` write four
    files. Parameters are flattened in layer order, each layer's weights
    before its biases.
    """
    header = {
        "genotype": to_dict(g),
        "input_dim": net.input_dim,
        "shapes": [list(layer.shape) for layer in net.layers],
        "loss_history": history,
        "param_count": net.param_count,
    }
    json_path, bin_path = _model_paths(base_path)
    json_path.write_text(json.dumps(header, indent=2))
    bin_path.write_bytes(net.flat.astype("<f4").tobytes())
    return json_path, bin_path


def load_model(base_path) -> tuple[Genotype, DenseNetwork, dict]:
    """Inverse of :func:`save_model`."""
    json_path, bin_path = _model_paths(base_path)
    header = json.loads(json_path.read_text())
    g = from_dict(header["genotype"])
    blob = bin_path.read_bytes()
    net = materialize(g, header["input_dim"], seed=0)
    floats = np.frombuffer(blob, dtype="<f4")
    if floats.size != net.param_count:
        raise ValueError(
            f"parameter blob has {floats.size} floats, header promises {net.param_count}"
        )
    net.flat[:] = floats  # in place: the layers' W and b are views of net.flat
    return g, net, header
