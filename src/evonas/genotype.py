"""List-based encoding of layered neural networks.

A network genotype is an ordered sequence of layer genes. Each gene is
losslessly convertible to a fixed 8-slot numeric array:

    (layer kind, units, activation, filters, kernel size, kernel stride,
     pool size, dropout rate)

The layers encoded here are the ones the trainer runs, fully connected
and dropout, so slots 3-6 (filters, kernel size, kernel stride and pool
size, which belong to the paper's convolutional and pooling layers) are
always zero, and so is every other slot that does not apply to a layer's
kind. Which kind may be stacked after which is governed by a follower
rule (see ``FOLLOWERS``); the first layer is fully connected, and every
network ends in a fully connected output layer whose activation is
determined by the problem kind.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from enum import Enum, IntEnum


class GenotypeError(ValueError):
    """An operation received or produced an invalid genotype."""


class ParseError(GenotypeError):
    """A genotype text document could not be decoded."""


class LayerKind(IntEnum):
    FULLY_CONNECTED = 1
    DROPOUT = 5

    def label(self) -> str:
        return "Fully connected" if self is LayerKind.FULLY_CONNECTED else "Dropout"


class Activation(IntEnum):
    SIGMOID = 0
    TANH = 1
    RELU = 2
    SOFTMAX = 3
    LINEAR = 4

    def label(self) -> str:
        return self.name.capitalize() if self is not Activation.RELU else "ReLU"


#: Activations permitted on hidden layers. Softmax and linear are reserved
#: for the output layer.
HIDDEN_ACTIVATIONS: tuple[Activation, ...] = (
    Activation.SIGMOID,
    Activation.TANH,
    Activation.RELU,
)

#: Stacking rule: which layer kinds may directly follow a given kind.
FOLLOWERS: dict[LayerKind, frozenset[LayerKind]] = {
    LayerKind.FULLY_CONNECTED: frozenset({LayerKind.FULLY_CONNECTED, LayerKind.DROPOUT}),
    LayerKind.DROPOUT: frozenset({LayerKind.FULLY_CONNECTED}),
}

#: Legal values for a layer's units.
UNIT_CHOICES: tuple[int, ...] = tuple(8 * x for x in range(1, 129))

#: Hard cap on genotype length (layers, output included).
MAX_LAYERS = 64

#: The document format's ``arch`` value: the one family encoded here.
ARCH = "mlp"

# Parameter slot -> (key in the named document form, type, legal-value test,
# violation text), in slot order.
_SLOTS = {
    "units": ("units", int, UNIT_CHOICES.__contains__, "not a multiple of 8 in [8, 1024]"),
    "dropout_rate": ("rate", float, lambda r: 0.0 <= r <= 1.0, "outside [0, 1]"),
}

# The array slots of a gene's fields, in field order; slots 3-6 always hold 0.
_FIELD_SLOTS = (0, 1, 2, 7)
_ZERO_SLOTS = range(3, 7)

# Layer kind -> (the one parameter slot it uses, whether it takes an
# activation). Every other slot of the kind must stay zero.
_KIND_SLOTS: dict[LayerKind, tuple[str, bool]] = {
    LayerKind.FULLY_CONNECTED: ("units", True),
    LayerKind.DROPOUT: ("dropout_rate", False),
}


def _slot_value(name: str, value, cast: type):
    """A parsed slot's value as ``cast`` (int or float): never truncated, never from text."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParseError(f"{name} must be a number, got {value!r}")
    if cast is int and not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ParseError(f"{name} must be a whole number, got {value!r}")
    return cast(value)


def can_follow(a: LayerKind, b: LayerKind) -> bool:
    """True when a layer of kind ``b`` may be stacked directly after ``a``."""
    return b in FOLLOWERS[a]


class ProblemKind(str, Enum):
    CLASSIFICATION = "classification"
    REGRESSION = "regression"


@dataclass(frozen=True)
class LayerGene:
    """One layer of a network, with only its kind-applicable fields set."""

    kind: LayerKind
    units: int = 0
    activation: Activation | None = None
    dropout_rate: float = 0.0

    @classmethod
    def dense(cls, units: int, activation: Activation) -> "LayerGene":
        return cls(LayerKind.FULLY_CONNECTED, units=units, activation=activation)

    @classmethod
    def dropout(cls, rate: float) -> "LayerGene":
        return cls(LayerKind.DROPOUT, dropout_rate=rate)

    def to_vec(self) -> tuple[float, ...]:
        """The 8-slot array view of this gene; slots 3-6 are always zero."""
        activation = float(self.activation) if self.activation is not None else 0.0
        return (float(self.kind), float(self.units), activation, 0.0, 0.0, 0.0, 0.0, float(self.dropout_rate))

    @classmethod
    def from_vec(cls, vec) -> "LayerGene":
        """Rebuild a gene from its 8-slot array view.

        The kind slot decides which remaining slots are read; an activation
        slot of 0 on a kind that takes an activation means sigmoid. Slots
        3-6 must hold 0.
        """
        if len(vec) != 8:
            raise ParseError(f"layer array must have 8 slots, got {len(vec)}")
        kind_code, units, activation_code, rate = (
            _slot_value(f.name, vec[slot], float if f.name == "dropout_rate" else int)
            for f, slot in zip(fields(cls), _FIELD_SLOTS)
        )
        try:
            kind = LayerKind(kind_code)
        except ValueError:
            raise ParseError(f"unknown layer kind code {vec[0]!r}") from None
        for slot in _ZERO_SLOTS:
            if isinstance(vec[slot], bool) or vec[slot] != 0:
                raise ParseError(f"slot {slot} must be 0, got {vec[slot]!r}")
        if _KIND_SLOTS[kind][1]:
            try:
                activation = Activation(activation_code)
            except ValueError:
                raise ParseError(f"unknown activation code {vec[2]!r}") from None
        else:
            if activation_code:
                raise ParseError(
                    f"activation slot must be zero for a {kind.label()} layer"
                )
            activation = None
        return cls(kind, units, activation, rate)


@dataclass(frozen=True)
class Genotype:
    """An ordered stack of layer genes plus its problem tag."""

    layers: tuple[LayerGene, ...]
    problem: ProblemKind

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))


@dataclass(frozen=True)
class Violation:
    """A single validity failure, located by layer index where applicable."""

    index: int | None
    message: str

    def __str__(self) -> str:
        where = "genotype" if self.index is None else f"layer {self.index}"
        return f"{where}: {self.message}"


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        return "valid" if self.ok else "; ".join(str(v) for v in self.violations)


def _check_fields(i: int, gene: LayerGene, is_output: bool, out: list[Violation]):
    own, takes_activation = _KIND_SLOTS[gene.kind]
    label = gene.kind.label()
    for slot, (_, _, legal, text) in _SLOTS.items():
        value = getattr(gene, slot)
        if slot != own:
            if value:
                out.append(Violation(i, f"{slot} must be zero for a {label} layer"))
        elif is_output and slot == "units":
            if value < 1:
                out.append(Violation(i, "output layer needs at least one unit"))
        elif not legal(value):
            out.append(Violation(i, f"{slot} {value} {text}"))
    if not takes_activation:
        if gene.activation is not None:
            out.append(Violation(i, f"activation not applicable to a {label} layer"))
    elif gene.activation is None:
        out.append(Violation(i, "missing activation"))
    elif not is_output and gene.activation not in HIDDEN_ACTIVATIONS:
        out.append(Violation(i, f"activation {gene.activation} is reserved for output layers"))


def validate(g: Genotype) -> ValidityReport:
    """Check every structural rule; report violations instead of raising."""
    out: list[Violation] = []
    n = len(g.layers)
    if n < 2:
        out.append(Violation(None, "a genotype needs at least one hidden layer plus the output layer"))
    if n > MAX_LAYERS:
        out.append(Violation(None, f"{n} layers exceeds the maximum of {MAX_LAYERS}"))

    if n >= 1 and g.layers[0].kind != LayerKind.FULLY_CONNECTED:
        out.append(Violation(0, "first layer must be fully connected"))
    if n >= 2:
        last = g.layers[-1]
        if last.kind != LayerKind.FULLY_CONNECTED:
            out.append(Violation(n - 1, "output layer must be fully connected"))
        elif g.problem == ProblemKind.CLASSIFICATION:
            if last.activation != Activation.SOFTMAX:
                out.append(Violation(n - 1, "classification output layer must use softmax"))
        else:
            if last.activation != Activation.LINEAR:
                out.append(Violation(n - 1, "regression output layer must use the linear activation"))
            if last.units != 1:
                out.append(Violation(n - 1, "regression output layer must have exactly one unit"))

    for i, gene in enumerate(g.layers):
        _check_fields(i, gene, is_output=(i == n - 1), out=out)
    for i in range(n - 1):
        a, b = g.layers[i].kind, g.layers[i + 1].kind
        if not can_follow(a, b):
            allowed = ", ".join(k.label() for k in sorted(FOLLOWERS[a]))
            out.append(
                Violation(
                    i + 1,
                    f"{b.label()} layer cannot follow {a.label()} "
                    f"(allowed followers: {allowed})",
                )
            )
    return ValidityReport(ok=not out, violations=tuple(out))


def input_fan_in(shape) -> int:
    """The first dense layer's fan-in for an input ``shape``.

    ``shape`` is a positive feature count, or an ``(H, W, C)`` triple of
    positive integers that the first layer sees flattened to ``H * W * C``.
    Anything else (booleans included) raises ``ValueError``.
    """
    dims = tuple(shape) if isinstance(shape, (list, tuple)) and len(shape) == 3 else (shape,)
    if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool) and d > 0 for d in dims):
        raise ValueError(f"input shape must be a positive integer or an [H, W, C] triple, got {shape!r}")
    return math.prod(int(d) for d in dims)


def count_params(g: Genotype, input_dim) -> int:
    """Trainable parameter count of the network a genotype describes.

    ``input_dim`` is a flat feature count or an ``(H, W, C)`` shape (see
    :func:`input_fan_in`). Each dense layer contributes
    ``(fan_in + 1) * units``; dropout contributes nothing.
    """
    report = validate(g)
    if not report.ok:
        raise GenotypeError(f"cannot count parameters of an invalid genotype: {report.summary()}")
    fan, total = input_fan_in(input_dim), 0
    for gene in g.layers:
        if gene.kind == LayerKind.FULLY_CONNECTED:
            total += (fan + 1) * gene.units
            fan = gene.units
    return total


def distance(s1: Genotype, s2: Genotype) -> float:
    """Layer-wise distance between two genotypes.

    The shorter genotype is aligned against the longer one index by index
    and the L2 norms of the slot-array differences are summed; layers the
    longer genotype has beyond the shorter one contribute their own norms.
    The final (output) layers of both genotypes are excluded, so distance
    zero means the architectures agree everywhere except possibly in the
    problem-determined output layer.
    """
    a, b = (s1, s2) if len(s1.layers) <= len(s2.layers) else (s2, s1)
    d = 0.0
    for i in range(len(a.layers) - 1):
        va, vb = a.layers[i].to_vec(), b.layers[i].to_vec()
        d += math.dist(va, vb)
    for i in range(len(a.layers) - 1, len(b.layers) - 1):
        d += math.hypot(*b.layers[i].to_vec())
    return d


def rectify_activations(target: Genotype, reference: Genotype) -> Genotype:
    """Copy per-kind activations from ``reference`` onto ``target``.

    Every non-output layer of ``target`` whose kind also appears among the
    non-output layers of ``reference`` takes the activation the reference
    uses for that kind. The output layer is never touched.
    """
    by_kind: dict[LayerKind, Activation] = {}
    for gene in reference.layers[:-1]:
        if gene.activation is not None and gene.kind not in by_kind:
            by_kind[gene.kind] = gene.activation
    new_layers = list(target.layers)
    for i, gene in enumerate(target.layers[:-1]):
        wanted = by_kind.get(gene.kind)
        if wanted is not None and gene.activation != wanted:
            new_layers[i] = replace(gene, activation=wanted)
    return Genotype(tuple(new_layers), target.problem)


# --- canonical text encoding ------------------------------------------------

def _named_form(gene: LayerGene) -> dict:
    slot, takes_activation = _KIND_SLOTS[gene.kind]
    doc = {"kind": int(gene.kind), _SLOTS[slot][0]: getattr(gene, slot)}
    if takes_activation:
        doc["activation"] = int(gene.activation)
    return doc


def to_dict(g: Genotype) -> dict:
    """JSON-ready document with both the named and the raw array form."""
    raw = []
    for gene in g.layers:
        vec = gene.to_vec()
        row = [int(v) for v in vec[:7]]
        row.append(vec[7] if vec[7] else 0)
        raw.append(row)
    return {
        "arch": ARCH,
        "problem": g.problem.value,
        "layers": [_named_form(gene) for gene in g.layers],
        "raw": raw,
    }


def serialize(g: Genotype) -> str:
    """Canonical single-line text encoding of a valid genotype."""
    report = validate(g)
    if not report.ok:
        raise GenotypeError(f"refusing to serialize an invalid genotype: {report.summary()}")
    return json.dumps(to_dict(g), separators=(",", ":"))


def from_dict(doc: dict) -> Genotype:
    """Rebuild a genotype from its document form.

    A document holds the named form (``layers``), the raw array form
    (``raw``), or both; when both are present they must describe the same
    layers.
    """
    if not isinstance(doc, dict):
        raise ParseError("genotype document must be a JSON object")
    for key in ("arch", "problem"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    if doc["arch"] != ARCH:
        raise ParseError(f"unknown architecture {doc['arch']!r}")
    try:
        problem = ProblemKind(doc["problem"])
    except ValueError:
        raise ParseError(f"unknown problem kind {doc['problem']!r}") from None

    forms = []
    for key, decode in (("raw", _gene_from_raw), ("layers", _gene_from_named)):
        if key in doc:
            if not isinstance(doc[key], list) or not doc[key]:
                raise ParseError(f"field {key!r} must be a list of layers, and not empty")
            forms.append([decode(i, entry) for i, entry in enumerate(doc[key])])
    if not forms:
        raise ParseError("genotype document needs a 'raw' or 'layers' field")
    g = Genotype(tuple(forms[0]), problem)
    report = validate(g)
    if not report.ok:
        raise ParseError(f"invalid genotype: {report.summary()}")
    if forms[-1] != forms[0]:
        i = next((i for i, (a, b) in enumerate(zip(*forms)) if a != b), min(map(len, forms)))
        raise ParseError(f"layer {i}: the 'layers' and 'raw' forms disagree")
    return g


def _gene_from_raw(i: int, row) -> LayerGene:
    if not isinstance(row, list):
        raise ParseError(f"layer {i}: layer array must be a list of 8 slots, got {row!r}")
    try:
        return LayerGene.from_vec(row)
    except ParseError as exc:
        raise ParseError(f"layer {i}: {exc}") from None


def _gene_from_named(i: int, entry: dict) -> LayerGene:
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ParseError(f"layer {i}: each layer entry needs a 'kind' field")
    try:
        kind = LayerKind(_slot_value("kind", entry["kind"], int))
    except ParseError as exc:
        raise ParseError(f"layer {i}: {exc}") from None
    except ValueError:
        raise ParseError(f"layer {i}: unknown layer kind {entry['kind']!r}") from None
    slot, takes_activation = _KIND_SLOTS[kind]
    key, cast, _, _ = _SLOTS[slot]
    try:
        params = {slot: _slot_value(key, entry[key], cast)}
        if takes_activation:
            params["activation"] = Activation(_slot_value("activation", entry["activation"], int))
        return LayerGene(kind, **params)
    except KeyError as exc:
        raise ParseError(f"layer {i}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"layer {i}: {exc}") from None


def parse(text: str) -> Genotype:
    """Inverse of :func:`serialize`, with positional diagnostics on bad input."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    return from_dict(doc)
