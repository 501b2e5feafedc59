"""A textbook statement of what one ``trainer.train`` call computes.

``reference_train`` trains out of place, in plain numpy: each layer's
activation is a new array, dropout multiplies by a boolean mask and a
scale, the backward pass collects every layer's gradient before any
weight moves, and Adam keeps one ``m`` and ``v`` array per parameter. It
shares no code with the trainer but ``materialize``, for the initial
weights, and ``Dataset.rows``, for the minibatches and validation rows, so
a change to what training computes has to change this file as well.

It draws from one ``default_rng(cfg.seed)`` in the trainer's order: per
epoch one permutation of the training rows, then per minibatch one dropout
mask per layer with a rate below 1, bottom to top. Each elementwise
operation is written in the order the trainer rounds it, so the results
are equal bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from evonas import Activation, ProblemKind, materialize

A = Activation


def _activation(z, kind):
    if kind == A.SIGMOID:
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    if kind == A.TANH:
        return np.tanh(z)
    if kind == A.RELU:
        return np.maximum(z, 0.0)
    if kind == A.SOFTMAX:
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    return z  # linear


def _derivative(a, kind):
    """The activation's derivative, from its output ``a``."""
    if kind == A.SIGMOID:
        return (1.0 - a) * a
    if kind == A.TANH:
        return 1.0 - a * a
    if kind == A.RELU:
        return a > 0.0
    return 1.0  # linear


def _dropout(x, keep, rate, dt):
    """``x`` times the boolean mask, then times ``1 / (1 - rate)`` in ``dt``
    unless the rate keeps nothing."""
    x = x * keep
    return x * (dt(1.0) / dt(1.0 - rate)) if rate < 1.0 else x


def reference_train(genotype, dataset, train_rows, val_rows, cfg, dtype):
    """Train ``genotype`` as ``trainer.train`` does a network materialized from
    ``cfg.seed`` in ``dtype``. Returns ``(metric, loss_curve, flat)``: the
    validation metric, the mean minibatch loss of each epoch, and the final
    parameters laid out like ``DenseNetwork.flat``."""
    dt = np.dtype(dtype).type
    net = materialize(genotype, dataset.feature_count, cfg.seed, dt)
    Ws = [layer.W.copy() for layer in net.layers]
    bs = [layer.b.copy() for layer in net.layers]
    acts = [layer.activation for layer in net.layers]
    rates = [layer.dropout for layer in net.layers]
    softmax = acts[-1] == A.SOFTMAX
    classes = Ws[-1].shape[1]

    def targets(rows):
        y = dataset.targets[rows]
        return np.eye(classes, dtype=dt)[y] if softmax else y.reshape(-1, 1).astype(dt)

    rng = np.random.default_rng(cfg.seed)
    b1, b2, eps = 0.9, 0.999, 1e-8
    ms = [np.zeros_like(p) for p in Ws + bs]
    vs = [np.zeros_like(p) for p in Ws + bs]
    t = 0
    curve = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(train_rows))
        losses = []
        for at in range(0, len(order), cfg.batch_size):
            rows = train_rows[order[at : at + cfg.batch_size]]
            X, Y = dataset.rows(rows, dt), targets(rows)
            n = len(X)
            with np.errstate(over="ignore", invalid="ignore"):
                # forward: per layer its input, its activation and its dropout mask
                ins, outs, keeps = [], [], []
                a = X
                for W, b, act, rate in zip(Ws, bs, acts, rates):
                    ins.append(a)
                    h = _activation(a @ W + b, act)
                    outs.append(h)
                    keep = None
                    if rate > 0.0:  # a rate of 1 keeps nothing and draws nothing
                        keep = np.zeros(h.shape, bool) if rate >= 1.0 else rng.random(h.shape) >= rate
                    a = h if keep is None else _dropout(h, keep, rate, dt)
                    keeps.append(keep)
                if softmax:
                    loss = float(-np.sum(Y * np.log(np.clip(a, 1e-12, 1.0))) / n)
                else:
                    loss = float(0.5 * np.sum((a - Y) ** 2) / n)
                if not math.isfinite(loss):
                    raise FloatingPointError(f"non-finite loss {loss}")
                losses.append(loss)

                # backward: softmax with cross-entropy gives d loss / d logits directly
                delta = (a - Y) / n
                if not softmax:
                    delta = delta * _derivative(outs[-1], acts[-1])
                gWs, gbs = [None] * len(Ws), [None] * len(Ws)
                for k in range(len(Ws) - 1, -1, -1):
                    gWs[k] = ins[k].T @ delta
                    gbs[k] = delta.sum(axis=0)
                    if k:
                        delta = delta @ Ws[k].T
                        if keeps[k - 1] is not None:
                            delta = _dropout(delta, keeps[k - 1], rates[k - 1], dt)
                        delta = delta * _derivative(outs[k - 1], acts[k - 1])

                # Adam, every parameter after the whole backward pass
                t += 1
                lr_t = cfg.learning_rate * (math.sqrt(1.0 - b2**t) / (1.0 - b1**t))
                for i, (p, g) in enumerate(zip(Ws + bs, gWs + gbs)):
                    ms[i] = ms[i] * b1 + g * (1.0 - b1)
                    vs[i] = vs[i] * b2 + (g * (1.0 - b2)) * g
                    p -= (ms[i] * lr_t) / (np.sqrt(vs[i]) + eps)
        curve.append(float(np.mean(losses)))

    a = dataset.rows(val_rows, dt)
    for W, b, act in zip(Ws, bs, acts):
        a = _activation(a @ W + b, act)
    y = dataset.targets[val_rows]
    if dataset.problem == ProblemKind.CLASSIFICATION:
        value = float(np.mean(a.argmax(axis=1) == y))
    else:
        diff = a.astype(np.float64) - y.astype(np.float64).reshape(-1, 1)
        value = float(0.5 * np.sum(diff**2, axis=1).mean())
    flat = np.concatenate([x for W, b in zip(Ws, bs) for x in (W.ravel(), b)])
    return value, curve, flat
