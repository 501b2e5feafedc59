"""Shared fixtures: published model fixtures, dataset builders, strategies."""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from evonas import (
    Activation,
    Dataset,
    Genotype,
    GenotypeError,
    LayerGene,
    ProblemKind,
    SearchConfig,
)
from evonas.genotype import FOLLOWERS, MAX_LAYERS, LayerKind
from evonas.trainer import loss_and_gradients

A = Activation


def classifier(*genes: LayerGene) -> Genotype:
    return Genotype(tuple(genes))


def regressor(*genes: LayerGene) -> Genotype:
    return Genotype(tuple(genes))


def mlp_classifier(spec, classes: int = 10) -> Genotype:
    """Build an MLP classifier from a compact spec.

    Each entry is ``(units, activation)`` for a dense layer or a bare float
    for a dropout layer; the softmax output layer is appended.
    """
    genes = []
    for entry in spec:
        if isinstance(entry, float):
            genes.append(LayerGene.dropout(entry))
        else:
            units, act = entry
            genes.append(LayerGene.dense(units, act))
    genes.append(LayerGene.dense(classes, A.SOFTMAX))
    return classifier(*genes)


def mlp_regressor(spec) -> Genotype:
    genes = []
    for entry in spec:
        if isinstance(entry, float):
            genes.append(LayerGene.dropout(entry))
        else:
            units, act = entry
            genes.append(LayerGene.dense(units, act))
    genes.append(LayerGene.dense(1, A.LINEAR))
    return regressor(*genes)


class RecordingOptimizer:
    """An optimizer for :func:`~evonas.trainer.loss_and_gradients` that
    changes no weight: ``step(grad, at)`` copies each run of gradients it is
    handed into :attr:`grad`, a vector laid out like ``net.flat``, and
    records the run's size in :attr:`sizes`. :attr:`buffer` is the gradient
    buffer to pass with it: ``room`` elements, or as many as ``net.flat``."""

    def __init__(self, net, room: int | None = None):
        self.grad = np.full_like(net.flat, np.nan)
        self.buffer = np.empty(net.param_count if room is None else room, net.flat.dtype)
        self.sizes: list[int] = []

    def step(self, grad: np.ndarray, at: int) -> None:
        self.grad[at : at + grad.size] = grad
        self.sizes.append(grad.size)


def recorded_gradients(net, X, Y, rng=None) -> tuple[float, np.ndarray]:
    """The loss of one training pass on a batch and its whole gradient, laid
    out like ``net.flat``; ``net.views`` splits it per parameter. No weight
    changes; dropout draws from ``rng``."""
    recorder = RecordingOptimizer(net)
    value = loss_and_gradients(net, X, Y, rng, recorder.buffer, recorder)
    return value, recorder.grad


# --- the BLAS kernel behind the golden numbers ----------------------------------

#: Core-name exports of OpenBLAS builds, numpy's bundled one first.
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")


@functools.cache
def openblas_core() -> str:
    """The name of the GEMM kernel the loaded OpenBLAS runs (``SkylakeX``,
    ``Haswell``, ...), which it picks from the CPU unless ``OPENBLAS_CORETYPE``
    forces one; ``unknown`` when no loaded library exports the name. The
    library is found as ``evalpool._openblas`` finds its thread controls."""
    try:
        with open("/proc/self/maps") as fh:
            paths = dict.fromkeys(line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1])
    except OSError:
        paths = {}
    for lib in map(ctypes.CDLL, paths):
        getter = next((getattr(lib, name) for name in _CORENAME_SYMBOLS if hasattr(lib, name)), None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_char_p
            return getter().decode()
    return "unknown"


_NO_DEFAULT = object()


def on_this_kernel(recorded: dict, default=_NO_DEFAULT):
    """The value recorded for this process's OpenBLAS kernel, keyed by
    :func:`openblas_core`. A kernel with none recorded gets ``default``, the
    value every other kernel gives; without one, the test skips, naming the
    kernel."""
    core = openblas_core()
    if core in recorded:
        return recorded[core]
    if default is _NO_DEFAULT:
        pytest.skip(f"no value recorded for the OpenBLAS {core} kernel")
    return default


# --- published fixture models -------------------------------------------------

@pytest.fixture
def stacked_example() -> Genotype:
    """The six-layer worked example model (264/464/872 ReLU with two dropouts)."""
    return mlp_classifier([(264, A.RELU), 0.65, (464, A.RELU), 0.35, (872, A.RELU)])


@pytest.fixture
def crossover_parents() -> tuple[Genotype, Genotype]:
    base = mlp_classifier([(264, A.RELU), 0.65, (464, A.RELU), 0.35, (872, A.RELU)])
    donor = mlp_classifier(
        [(56, A.SIGMOID), 0.25, (360, A.SIGMOID), (480, A.SIGMOID), (88, A.SIGMOID), 0.2]
    )
    return base, donor


@pytest.fixture
def crossover_child() -> Genotype:
    return mlp_classifier(
        [(264, A.RELU), (360, A.RELU), (480, A.RELU), (88, A.RELU), (872, A.RELU)]
    )


#: Donor-segment pairs enumerated in the worked crossover example.
LISTED_PAIRS = [
    (0, 0), (0, 2), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5),
    (2, 2), (2, 4), (2, 5), (4, 4), (4, 5), (5, 5),
]


def oracle_pairs(base, r1, r2, donor, max_layers=MAX_LAYERS):
    """Brute force: a pair qualifies iff splicing it yields a valid genotype."""
    out = []
    for r3 in range(len(donor.layers) - 1):
        for r4 in range(r3, len(donor.layers) - 1):
            layers = base.layers[:r1] + donor.layers[r3 : r4 + 1] + base.layers[r2 + 1 :]
            if len(layers) > max_layers:
                continue
            try:
                Genotype(layers)
            except GenotypeError:
                continue
            out.append((r3, r4))
    return out


# Published (spec, accuracy, parameter count, fitness, alpha) rows. Dense
# entries are (units, activation); floats are dropout rates.
INITIAL_POPULATION_TABLE = [  # alpha = 0.5, input 784
    ([(64, A.SIGMOID), 0.4], 0.917, 50890, 2.7688, 0.5),
    ([(760, A.RELU), 0.5, (608, A.RELU), 0.65], 0.987, 1065378, 3.0812, 0.5),
    ([(864, A.SIGMOID), 0.15, (536, A.SIGMOID), (928, A.SIGMOID)], 0.946, 1649506, 3.3791, 0.5),
    ([(40, A.SIGMOID), 0.45, (912, A.SIGMOID)], 0.921, 77922, 2.8427, 0.5),
    ([(968, A.TANH), (976, A.TANH), (32, A.TANH), 0.15, (808, A.TANH)], 0.966, 1771642, 3.2867, 0.5),
]

BEST_ALPHA_05_TABLE = [  # alpha = 0.5 winners, input 784
    ([(56, A.RELU)], 0.939, 44530, 2.6287, 0.5),
    ([(168, A.RELU)], 0.958, 133570, 2.7736, 0.5),
    ([(40, A.RELU), 0.2], 0.934, 31810, 2.5826, 0.5),
    ([(48, A.RELU), (48, A.RELU)], 0.947, 40522, 2.5693, 0.5),
    ([(312, A.RELU)], 0.950, 248050, 2.9431, 0.5),
]

BEST_ALPHA_03_TABLE = [  # alpha = 0.3 winners, input 784
    ([(32, A.SIGMOID)], 0.915, 25450, 1.9126, 0.3),
    ([(32, A.TANH), (32, A.TANH)], 0.952, 26506, 1.6677, 0.3),
    ([(64, A.TANH)] * 4, 0.972, 63370, 1.6358, 0.3),
    ([(56, A.TANH)], 0.947, 44530, 1.7640, 0.3),
    ([(40, A.TANH)], 0.944, 31810, 1.7412, 0.3),
]

BEST_ALPHA_07_TABLE = [  # alpha = 0.7 winners, input 784
    ([(24, A.RELU)], 0.922, 19090, 3.2284, 0.7),
    ([(104, A.RELU), 0.2], 0.952, 82690, 3.5856, 0.7),
    ([(16, A.RELU), (24, A.RELU)], 0.921, 13218, 3.1158, 0.7),
    ([(56, A.RELU)], 0.945, 44530, 3.4200, 0.7),
    ([(208, A.RELU)], 0.958, 165370, 3.7762, 0.7),
]

RUL_WINNER_TABLE = [  # regression winners, input 336
    ([(104, A.TANH), (824, A.TANH)], 122393),
    ([(264, A.RELU)], 89233),
    ([(80, A.TANH), (80, A.TANH)], 33521),
]


@pytest.fixture
def mnist_search_config() -> SearchConfig:
    """The image-classification reference configuration."""
    return SearchConfig(
        problem=ProblemKind.CLASSIFICATION,
        arch="mlp",
        input_shape=784,
        output_size=10,
        cv_ratio=0.2,
        mutation_prob=0.4,
        more_layers_prob=0.4,
        alpha=0.5,
        population_size=10,
        tournament_size=4,
        crossover_trials=3,
        convergence_pairs=3,
        train_epochs=5,
        max_generations=10,
        experiments=5,
        seed=0,
    )


# --- datasets -------------------------------------------------------------------

@pytest.fixture
def blob_dataset() -> Dataset:
    """Two well-separated Gaussian blobs, 4 features, 2 classes."""
    rng = np.random.default_rng(11)
    n = 120
    X = np.vstack([rng.normal(-2.0, 0.5, (n, 4)), rng.normal(2.0, 0.5, (n, 4))])
    y = np.array([0] * n + [1] * n)
    return Dataset(X, y, ProblemKind.CLASSIFICATION)


def mnist_paths() -> tuple[Path, Path, Path, Path] | None:
    """Locate the IDX image/label files if the environment provides them."""
    candidates = []
    env = os.environ.get("EVONAS_MNIST_DIR")
    if env:
        candidates.append(Path(env))
    candidates += [Path("data/mnist"), Path.home() / "data" / "mnist"]
    names = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    for root in candidates:
        found = []
        for name in names:
            plain, gz = root / name, root / (name + ".gz")
            if plain.exists():
                found.append(plain)
            elif gz.exists():
                found.append(gz)
        if len(found) == len(names):
            return tuple(found)
    return None


def require_mnist():
    paths = mnist_paths()
    if paths is None:
        pytest.skip(
            "MNIST IDX files not found (set EVONAS_MNIST_DIR or place them in "
            "data/mnist); this sandbox has no dataset download access"
        )
    return paths


# --- hypothesis strategy for valid genotypes ------------------------------------

from evonas.evolution import DROPOUT_RATE_GRID  # noqa: E402
from evonas.genotype import UNIT_CHOICES  # noqa: E402


@st.composite
def layer_genes(draw, kind: LayerKind) -> LayerGene:
    if kind == LayerKind.FULLY_CONNECTED:
        return LayerGene.dense(
            draw(st.sampled_from(UNIT_CHOICES)), draw(st.sampled_from((A.SIGMOID, A.TANH, A.RELU)))
        )
    return LayerGene.dropout(draw(st.sampled_from(DROPOUT_RATE_GRID)))


@st.composite
def genotypes(draw, problem: ProblemKind | None = None, max_hidden: int = 8) -> Genotype:
    """Valid random dense and dropout genotypes that walk the layer follower rules."""
    problem = problem or draw(st.sampled_from(list(ProblemKind)))
    kind = LayerKind.FULLY_CONNECTED
    genes = [draw(layer_genes(kind))]
    for _ in range(draw(st.integers(0, max_hidden - 1))):
        kind = draw(st.sampled_from(sorted(FOLLOWERS[kind])))
        genes.append(draw(layer_genes(kind)))
    if problem == ProblemKind.CLASSIFICATION:
        genes.append(LayerGene.dense(draw(st.integers(2, 16)), A.SOFTMAX))
    else:
        genes.append(LayerGene.dense(1, A.LINEAR))
    return Genotype(tuple(genes))
