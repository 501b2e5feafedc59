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
from .genotype import Activation, Genotype, ProblemKind, dense_layers, from_dict, to_dict

log = logging.getLogger(__name__)

#: The precision of every training the CLI runs: the search's partial-training
#: fitness, each k-fold fold, and the final model of ``evonas train``, which is
#: exported in it. ``materialize``'s float64 default stays for the gradient
#: check and for library callers.
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

    def __init__(self, fan_in: int, units: int, activation: Activation, dropout: float):
        self.shape = (fan_in, units)
        self.size = (fan_in + 1) * units  # weights and biases
        self.activation = activation
        self.dropout = dropout
        self.W = self.b = None

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(weights, bias)`` views into a vector of this layer's :attr:`size`."""
        fan, units = self.shape
        return vec[: fan * units].reshape(fan, units), vec[fan * units : self.size]


class DenseNetwork:
    """A stack of affine+activation layers, each with optional inverted dropout.

    ``layout`` holds one ``(fan_in, units, activation, dropout)`` per layer,
    as :func:`~evonas.genotype.dense_layers` returns it. Every parameter
    lives in one zero-filled vector, ``flat``: each layer's weights
    (row-major) and then its biases, in layer order. The layers' ``W`` and
    ``b`` are views into it, so the optimizer and model export work on the
    vector while the passes read the views. The dtype of ``flat`` is the
    network's precision: its passes, gradients and optimizer state all run
    in it.
    """

    def __init__(self, layout, input_dim: int, dtype=np.float64):
        self.layers = [_DenseLayer(*layer) for layer in layout]
        self.input_dim = input_dim
        self.flat = np.zeros(sum(layer.size for layer in self.layers), dtype=dtype)
        for layer, (W, b) in zip(self.layers, self.views(self.flat)):
            layer.W, layer.b = W, b

    def views(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per layer, ``(weights, bias)`` views into a vector laid out like ``flat``."""
        out, at = [], 0
        for layer in self.layers:
            out.append(layer.split(vec[at : at + layer.size]))
            at += layer.size
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

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Predictions for a batch, with no dropout: dropout is active only while training."""
        a, _ = self._forward_cached(batch, False, None)
        return a

    def _forward_cached(self, batch, training, rng):
        """The output and, per layer, ``(layer, a_in, a, keep)``: ``a`` is the
        activation before dropout, computed in place over the layer's affine
        output, and ``keep`` the boolean dropout mask or None."""
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
            keep = None
            if training and layer.dropout > 0.0:
                if rng is None:
                    raise ValueError("training-mode dropout needs an rng")
                if layer.dropout >= 1.0:  # keeps nothing and draws nothing
                    keep = np.zeros(a.shape, dtype=bool)
                else:
                    keep = rng.random(a.shape) >= layer.dropout
            caches.append((layer, a_in, a, keep))
            a_in = a if keep is None else _dropout(a, keep, layer.dropout)
        return a_in, caches


def _dropout(x: np.ndarray, keep: np.ndarray, rate: float, out=None) -> np.ndarray:
    """Inverted dropout: ``x`` zeroed where ``keep`` is False and scaled by
    ``1 / (1 - rate)``, rounded once to ``x``'s dtype, where it is True."""
    out = np.multiply(x, keep, out=out)
    if rate < 1.0:
        out *= x.dtype.type(1.0) / x.dtype.type(1.0 - rate)
    return out


#: Float64 weights ``materialize`` draws per rng call: 128 KiB.
_DRAW_CHUNK = 16384


def materialize(g: Genotype, input_dim: int, seed: int, dtype=np.float64) -> DenseNetwork:
    """Build the network a genotype lays out, Glorot-initialized from ``seed``.

    The weights are drawn in float64 and rounded into ``dtype``, so a
    network's weights are the same draw whatever its precision. A bounded
    chunk at a time, computed like ``rng.uniform`` computes them (``low +
    (high - low) * u``, rounding once per operation).
    """
    layers = dense_layers(g, input_dim)  # checked first: int() would take 784.9 or "784"
    net = DenseNetwork(layers, int(input_dim), dtype)  # a plain int for save_model's JSON
    rng = np.random.default_rng(seed)
    draw = np.empty(min(net.param_count, _DRAW_CHUNK))
    for layer in net.layers:  # biases stay zero
        fan, units = layer.shape
        limit = np.sqrt(6.0 / (fan + units))
        low, high = -limit, limit
        W = layer.W.reshape(-1)  # a view: W is contiguous
        for at in range(0, W.size, draw.size):
            u = rng.random(out=draw[: W.size - at])
            u *= high - low
            u += low
            W[at : at + u.size] = u
    return net


# --- loss and gradients -----------------------------------------------------

def _loss_value(outputs: np.ndarray, Y: np.ndarray, softmax: bool) -> float:
    n = len(outputs)
    if softmax:
        return float(-np.sum(Y * np.log(np.clip(outputs, 1e-12, 1.0))) / n)
    return float(0.5 * np.sum((outputs - Y) ** 2) / n)


def loss_and_gradients(net: DenseNetwork, X, Y, rng, out, optimizer) -> float:
    """Train the network on one batch and return the batch's loss.

    The output layer picks the loss (see :attr:`DenseNetwork.softmax_output`);
    dropout draws its masks from ``rng``. From the output layer down, each
    layer's gradient is written into ``out``, a buffer at least as long as
    the largest layer (a vector laid out like ``net.flat`` will do), below
    the layers above it, laid out like their slice of ``net.flat``. Such a
    run of adjacent layers is handed to ``optimizer.step(grad, at)`` in one
    call, ``at`` being its offset in ``net.flat``, before a layer that would
    not fit beside it and after the first layer; by then the delta below
    each layer of the run has been computed from its weights. A non-finite
    loss hands over nothing.
    """
    outputs, caches = net._forward_cached(X, True, rng)
    n = len(outputs)
    softmax = net.softmax_output
    value = _loss_value(outputs, Y, softmax)
    if not math.isfinite(value):
        return value

    delta = outputs - Y
    delta /= n  # d loss / d outputs
    if not softmax:  # softmax and cross-entropy fused: delta is already d loss / d logits
        layer, _, a, _ = caches[-1]
        _backprop_activation(delta, a, layer.activation)

    at = net.param_count
    run = out.size  # out[run:] holds flat[at : at + out.size - run]'s gradients
    for k in range(len(caches) - 1, -1, -1):
        layer, a_in = caches[k][:2]
        if run < layer.size:  # no room below the run
            optimizer.step(out[run:], at)
            run = out.size
        at -= layer.size
        run -= layer.size
        gW, gb = layer.split(out[run : run + layer.size])
        np.matmul(a_in.T, delta, out=gW)
        np.sum(delta, axis=0, out=gb)
        # Nothing below the first layer needs its input gradient. Rebinding
        # frees this layer's delta before the activation derivative below
        # allocates its temporary.
        delta = delta @ layer.W.T if k else None
        if k == 0:
            break
        below, _, a, keep = caches[k - 1]
        if keep is not None:
            _dropout(delta, keep, below.dropout, out=delta)
        _backprop_activation(delta, a, below.activation)
    optimizer.step(out[run:], 0)  # the run that ends with the first layer
    return value


class _Adam:
    """Adam (Kingma & Ba 2015) on a flat parameter vector, updated in place.

    A step updates one slice of the vector. The step count advances with
    the slice that ends the vector, which training hands over first (the
    output layer's) and a whole-vector step always includes. A step makes a
    dozen elementwise passes, eight on the first, one chunk of the slice at
    a time, so each pass rereads the chunk from cache, not from memory.
    """

    #: Bytes per array per chunk, so the five arrays a step touches stay in
    #: a core's L2 cache: 16384 float64 or 32768 float32 elements.
    CHUNK_BYTES = 128 << 10

    def __init__(self, flat: np.ndarray, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.flat = flat
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.empty_like(flat)  # the first step writes m and v
        self.v = np.empty_like(flat)
        self.chunk = self.CHUNK_BYTES // flat.itemsize
        self.scratch = np.empty(min(flat.size, self.chunk), dtype=flat.dtype)
        self.t = 0

    def step(self, grad: np.ndarray, at: int = 0):
        """Update ``flat[at : at + grad.size]`` in place; ``grad`` is used as
        scratch and overwritten."""
        if at + grad.size == self.flat.size:
            self.t += 1
        first = self.t == 1
        b1, b2 = self.beta1, self.beta2
        # a Python float, so it takes the vector's dtype instead of upcasting it
        rate = float(self.lr * (np.sqrt(1.0 - b2**self.t) / (1.0 - b1**self.t)))
        for lo in range(0, grad.size, self.chunk):
            hi = min(lo + self.chunk, grad.size)
            part = slice(at + lo, at + hi)
            p, m, v, g = self.flat[part], self.m[part], self.v[part], grad[lo:hi]
            s = self.scratch[: g.size]
            # m*b1 + g*(1-b1), v*b2 + (g*(1-b2))*g, then (m*rate) /
            # (sqrt(v) + eps): every elementwise op rounds once, so keeping
            # this order keeps every bit of the update. m and v start at
            # zero, and 0*b + x is exactly x, so the first step writes x.
            if first:
                np.multiply(g, 1.0 - b1, out=m)
                np.multiply(g, 1.0 - b2, out=v)
                v *= g
            else:
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


def _target_matrix(net: DenseNetwork, problem: ProblemKind, targets: np.ndarray) -> np.ndarray:
    if problem == ProblemKind.CLASSIFICATION:
        return one_hot(targets, net.output_units, net.flat.dtype)
    return targets.reshape(-1, 1).astype(net.flat.dtype, copy=False)


def train(net: DenseNetwork, dataset: data_mod.Dataset, train_rows, val_rows, cfg: TrainConfig) -> PerfReport:
    """Minibatch-train a network on some rows of a dataset and score it on others.

    ``train_rows`` and ``val_rows`` index the rows of ``dataset`` to train
    on and to score on. Each minibatch is gathered in the network's dtype by
    :meth:`~evonas.data.Dataset.rows`, and after the epochs the validation
    rows by :meth:`~evonas.data.Dataset.take`, so no set of rows is copied
    whole in any other dtype. All randomness (shuffling, dropout masks)
    flows from ``cfg.seed``, so the result is deterministic. The output
    layer picks the loss and the data's problem the metric; a softmax output
    needs classification data, and classification data a softmax output.
    """
    if net.softmax_output != (dataset.problem == ProblemKind.CLASSIFICATION):
        raise ValueError(
            f"a {net.layers[-1].activation.name.lower()} output layer cannot train on "
            f"{dataset.problem.value} data: softmax outputs and classification data go together"
        )
    dtype = net.flat.dtype.type
    Y = _target_matrix(net, dataset.problem, dataset.targets[train_rows])
    rng = np.random.default_rng(cfg.seed)
    optimizer = make_optimizer(net.flat, cfg.learning_rate)
    # adjacent layers' gradients, handed to Adam together, reused by every minibatch
    size = max(layer.size for layer in net.layers)
    grad = np.empty(min(net.param_count, max(size, optimizer.chunk)), net.flat.dtype)

    curve: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_rows))
        epoch_losses = []
        for at in range(0, len(order), cfg.batch_size):
            idx = order[at : at + cfg.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                value = loss_and_gradients(
                    net, dataset.rows(train_rows[idx], dtype), Y[idx], rng, grad, optimizer
                )
            if not np.isfinite(value):
                raise DivergedError(epoch)
            epoch_losses.append(value)
        curve.append(float(np.mean(epoch_losses)))

    val = dataset.take(val_rows, dtype)
    preds = net.forward(val.features)
    return PerfReport(metric(val.problem, preds, val.targets), curve)


# --- metrics ----------------------------------------------------------------

def metric(problem: ProblemKind, predictions, targets) -> float:
    """Score predictions against targets with the problem's metric.

    Accuracy (classification) takes the argmax of each row of the
    network's output, a one-unit output included. MSE (regression) is half
    the per-sample squared error, averaged, like the training loss.
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

    return float(np.mean(preds.argmax(axis=1) == targets.astype(np.int64)))


def _fit(g: Genotype, dataset, train_rows, val_rows, cfg: TrainConfig) -> tuple[DenseNetwork, PerfReport]:
    """Materialize ``g`` from ``cfg.seed`` in :data:`SCORE_DTYPE` and :func:`train`
    it: every training the CLI runs. Returns the network and its report."""
    net = materialize(g, dataset.feature_count, cfg.seed, SCORE_DTYPE)
    return net, train(net, dataset, train_rows, val_rows, cfg)


def kfold_evaluate(g: Genotype, dataset: data_mod.Dataset, k: int, cfg: TrainConfig):
    """Mean and standard deviation of the metric over k train/validate folds.

    Every fold trains a fresh materialization from the same seed, so the
    only variation between folds is the data split itself. Each fold trains
    in :data:`SCORE_DTYPE`, as the final model of ``evonas train`` does.
    """
    values = []
    for i, (train_rows, val_rows) in enumerate(data_mod.kfold(dataset, k, cfg.seed)):
        value = _fit(g, dataset, train_rows, val_rows, cfg)[1].value
        values.append(value)
        log.debug("fold %d/%d: %s=%.4f", i + 1, k, METRIC_NAME[dataset.problem], value)
    return float(np.mean(values)), float(np.std(values))


# --- search-facing evaluator -------------------------------------------------

def make_evaluator(dataset: data_mod.Dataset, cv_ratio: float, cfg: TrainConfig):
    """Partial-training fitness evaluator for the search loop.

    Every candidate trains in :data:`SCORE_DTYPE` on a train/validation
    split fixed once from ``cfg.seed``; the evaluator holds the split's row
    indices, and no copy of the rows. Each candidate trains with ``cfg`` but
    its own seed, which draws its weights and shuffle stream, so evaluation
    order and the worker count cannot change a result at a fixed BLAS thread
    count. Returns the validation metric alone: a candidate's size is its
    genotype's :func:`~evonas.genotype.count_params`.
    """
    train_rows, val_rows = data_mod.split(dataset, cv_ratio, cfg.seed)

    def evaluate(genotype: Genotype, seed: int) -> float:
        return _fit(genotype, dataset, train_rows, val_rows, replace(cfg, seed=seed))[1].value

    return evaluate


# --- model export -------------------------------------------------------------

def _model_paths(base_path) -> tuple[Path, Path]:
    return Path(f"{base_path}.json"), Path(f"{base_path}.bin")


def save_model(net: DenseNetwork, g: Genotype, history: list[float], base_path) -> tuple[Path, Path]:
    """Write ``<base>.bin`` (little-endian f32 params), then ``<base>.json`` (header).

    The suffixes are appended, so ``model.v1`` and ``model.v2`` write four
    files. Parameters are flattened in layer order, each layer's weights
    before its biases. Each file is written whole or not at all, the blob
    first: an export that fails while writing it leaves an earlier pair as
    it was, and one with no earlier pair leaves no header to load.
    """
    from .rundir import write_whole  # rundir imports evolution, which imports this module

    header = {
        "genotype": to_dict(g),
        "input_dim": net.input_dim,
        "shapes": [list(layer.shape) for layer in net.layers],
        "loss_history": history,
        "param_count": net.param_count,
    }
    json_path, bin_path = _model_paths(base_path)
    write_whole(bin_path, net.flat.astype("<f4").tobytes())
    write_whole(json_path, json.dumps(header, indent=2).encode())
    return json_path, bin_path


def load_model(base_path) -> tuple[Genotype, DenseNetwork, dict]:
    """Inverse of :func:`save_model`: a float32 network, the precision of the
    blob and of the training ``evonas train`` ran, laid out by the genotype,
    its parameters read from the blob and none drawn."""
    json_path, bin_path = _model_paths(base_path)
    header = json.loads(json_path.read_text())
    g = from_dict(header["genotype"])
    net = DenseNetwork(dense_layers(g, header["input_dim"]), header["input_dim"], np.float32)
    floats = np.frombuffer(bin_path.read_bytes(), dtype="<f4")
    if floats.size != net.param_count:
        raise ValueError(
            f"parameter blob has {floats.size} floats, header promises {net.param_count}"
        )
    net.flat[:] = floats  # in place: the layers' W and b are views of net.flat
    return g, net, header
