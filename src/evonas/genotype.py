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
network ends in a fully connected output layer that names the problem it
solves (see ``OUTPUT_ACTIVATION``): softmax for classification, one linear
unit for regression. Every hidden dense layer of a searched genotype shares
one activation (see :func:`with_hidden_activation`).

A :class:`Genotype` checks these rules (see :func:`validate`) once, when it
is built, and refuses to exist if one is broken; everything that takes a
genotype trusts it.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum, IntEnum


class GenotypeError(ValueError):
    """A genotype that breaks a rule of the encoding was built or read."""


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

#: The paper's 8-slot row: the slot each ``LayerGene`` field sits in, and the
#: type the slot holds (``int``: a whole number). Slots 3-6 (filters, kernel
#: size, kernel stride and pool size) hold no field here and are always 0.
ROW_SLOTS: dict[str, tuple[int, type]] = {
    "kind": (0, int),
    "units": (1, int),
    "activation": (2, int),
    "dropout_rate": (7, float),
}

# Parameter field -> (key in the named document form, legal-value test,
# violation text), in slot order.
_PARAMS = {
    "units": ("units", UNIT_CHOICES.__contains__, "not a multiple of 8 in [8, 1024]"),
    "dropout_rate": ("rate", lambda r: 0.0 <= r <= 1.0, "outside [0, 1]"),
}

#: Layer kind -> (the one parameter field it uses, whether it takes an
#: activation). Every other slot of the kind must stay zero.
KIND_FIELDS: dict[LayerKind, tuple[str, bool]] = {
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


#: The output activation of each problem kind, and the only statement of it: a
#: classifier ends in softmax, a regressor in one linear unit.
OUTPUT_ACTIVATION: dict[ProblemKind, Activation] = {
    ProblemKind.CLASSIFICATION: Activation.SOFTMAX,
    ProblemKind.REGRESSION: Activation.LINEAR,
}
_PROBLEM_OF = {activation: problem for problem, activation in OUTPUT_ACTIVATION.items()}


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

    def to_row(self) -> list:
        """The 8-slot row of this gene, laid out by :data:`ROW_SLOTS`: whole
        numbers, and the dropout rate as 0 or as its float."""
        row = [0] * 8
        for name, (slot, cast) in ROW_SLOTS.items():
            row[slot] = cast(getattr(self, name) or 0) or 0
        return row

    @classmethod
    def from_vec(cls, vec) -> "LayerGene":
        """Rebuild a gene from its 8-slot array view.

        An activation code of 0 means sigmoid on a kind that takes an
        activation and no activation on any other kind. Slots that hold no
        field must hold 0. Only the row is decoded: whether the gene fits
        its kind is checked when a :class:`Genotype` is built from it.
        """
        if len(vec) != 8:
            raise ParseError(f"layer array must have 8 slots, got {len(vec)}")
        values = {name: _slot_value(name, vec[slot], cast) for name, (slot, cast) in ROW_SLOTS.items()}
        try:
            kind = values["kind"] = LayerKind(values["kind"])
        except ValueError:
            raise ParseError(f"unknown layer kind code {vec[0]!r}") from None
        used = {slot for slot, _ in ROW_SLOTS.values()}
        for slot, value in enumerate(vec):
            if slot not in used and (isinstance(value, bool) or value != 0):
                raise ParseError(f"slot {slot} must be 0, got {value!r}")
        code = values["activation"]
        try:
            values["activation"] = Activation(code) if code or KIND_FIELDS[kind][1] else None
        except ValueError:
            raise ParseError(f"unknown activation code {vec[2]!r}") from None
        return cls(**values)


@dataclass(frozen=True)
class Genotype:
    """An ordered stack of layer genes; the last, the output layer, names the problem.

    A genotype is valid by construction: building one that breaks a rule of
    :func:`validate` raises :class:`GenotypeError` naming each violation.
    """

    layers: tuple[LayerGene, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        report = validate(self)
        if not report.ok:
            raise GenotypeError(f"invalid genotype: {report.summary()}")

    @property
    def problem(self) -> ProblemKind:
        """The problem whose :data:`OUTPUT_ACTIVATION` the output layer uses."""
        return _PROBLEM_OF[self.layers[-1].activation]


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violations: tuple[str, ...]  # each "layer <index>: ..." or "genotype: ..."

    def summary(self) -> str:
        return "valid" if self.ok else "; ".join(self.violations)


def _check_fields(i: int, gene: LayerGene, is_output: bool, out: list[str]):
    own, takes_activation = KIND_FIELDS[gene.kind]
    label = gene.kind.label()
    for param, (_, legal, text) in _PARAMS.items():
        value = getattr(gene, param)
        if param != own:
            if value:
                out.append(f"layer {i}: {param} must be zero for a {label} layer")
        elif is_output and param == "units":
            if value < 1:
                out.append(f"layer {i}: output layer needs at least one unit")
        elif not legal(value):
            out.append(f"layer {i}: {param} {value} {text}")
    if not takes_activation:
        if gene.activation is not None:
            out.append(f"layer {i}: activation not applicable to a {label} layer")
    elif gene.activation is None:
        out.append(f"layer {i}: missing activation")
    elif not is_output and gene.activation not in HIDDEN_ACTIVATIONS:
        out.append(f"layer {i}: activation {gene.activation} is reserved for output layers")


def validate(g: Genotype) -> ValidityReport:
    """Check every structural rule; report violations instead of raising."""
    out: list[str] = []
    n = len(g.layers)
    if n < 2:
        out.append("genotype: a genotype needs at least one hidden layer plus the output layer")
    if n > MAX_LAYERS:
        out.append(f"genotype: {n} layers exceeds the maximum of {MAX_LAYERS}")

    if n >= 1 and g.layers[0].kind != LayerKind.FULLY_CONNECTED:
        out.append("layer 0: first layer must be fully connected")
    if n >= 2:
        last = g.layers[-1]
        if last.kind != LayerKind.FULLY_CONNECTED:
            out.append(f"layer {n - 1}: output layer must be fully connected")
        elif last.activation not in _PROBLEM_OF:
            out.append(f"layer {n - 1}: output layer must use softmax or the linear activation")
        elif _PROBLEM_OF[last.activation] == ProblemKind.REGRESSION and last.units != 1:
            out.append(f"layer {n - 1}: regression output layer must have exactly one unit")

    for i, gene in enumerate(g.layers):
        _check_fields(i, gene, is_output=(i == n - 1), out=out)
    for i in range(n - 1):
        a, b = g.layers[i].kind, g.layers[i + 1].kind
        if not can_follow(a, b):
            allowed = ", ".join(k.label() for k in sorted(FOLLOWERS[a]))
            out.append(
                f"layer {i + 1}: {b.label()} layer cannot follow {a.label()} "
                f"(allowed followers: {allowed})"
            )
    return ValidityReport(ok=not out, violations=tuple(out))


def dense_layers(g: Genotype, input_dim: int) -> list[tuple[int, int, Activation, float]]:
    """The layout of the network a genotype describes: its dense layers in order.

    Each is ``(fan_in, units, activation, dropout)``, where ``dropout`` is the
    rate of the dropout gene after the layer, 0.0 when there is none.
    ``input_dim``, the first layer's fan-in, is a positive feature count.
    """
    if isinstance(input_dim, bool) or not isinstance(input_dim, numbers.Integral) or input_dim < 1:
        raise ValueError(f"input_dim must be a positive integer, got {input_dim!r}")
    layers, fan = [], int(input_dim)
    for gene in g.layers:
        if gene.kind == LayerKind.FULLY_CONNECTED:
            layers.append((fan, gene.units, gene.activation, 0.0))
            fan = gene.units
        else:  # a genotype puts a dropout gene only after a dense one
            layers[-1] = (*layers[-1][:3], gene.dropout_rate)
    return layers


def count_params(g: Genotype, input_dim: int) -> int:
    """Trainable parameter count of the network a genotype describes: each
    dense layer of :func:`dense_layers` contributes ``(fan_in + 1) * units``."""
    return sum((fan + 1) * units for fan, units, _, _ in dense_layers(g, input_dim))


def distance(s1: Genotype, s2: Genotype) -> float:
    """Layer-wise distance between two genotypes.

    The shorter genotype is aligned against the longer one index by index
    and the L2 norms of their 8-slot rows' differences are summed; layers the
    longer genotype has beyond the shorter one contribute their own norms.
    The final (output) layers of both genotypes are excluded, so distance
    zero means the architectures agree everywhere except possibly in the
    problem-determined output layer.
    """
    a, b = (s1, s2) if len(s1.layers) <= len(s2.layers) else (s2, s1)
    d = 0.0
    for i in range(len(a.layers) - 1):
        d += math.dist(a.layers[i].to_row(), b.layers[i].to_row())
    for i in range(len(a.layers) - 1, len(b.layers) - 1):
        d += math.hypot(*b.layers[i].to_row())
    return d


def with_hidden_activation(layers: tuple[LayerGene, ...], activation: Activation) -> Genotype:
    """The genotype of ``layers`` with ``activation`` on every hidden dense
    layer; dropout genes and the output layer are unchanged."""
    *hidden, output = layers
    hidden = (gene if gene.activation is None else replace(gene, activation=activation) for gene in hidden)
    return Genotype((*hidden, output))


# --- canonical text encoding ------------------------------------------------

def _named_form(gene: LayerGene) -> dict:
    param, takes_activation = KIND_FIELDS[gene.kind]
    doc = {"kind": int(gene.kind), _PARAMS[param][0]: getattr(gene, param)}
    if takes_activation:
        doc["activation"] = int(gene.activation)
    return doc


def to_dict(g: Genotype) -> dict:
    """JSON-ready document with both the named and the raw array form."""
    return {
        "arch": ARCH,
        "problem": g.problem.value,
        "layers": [_named_form(gene) for gene in g.layers],
        "raw": [gene.to_row() for gene in g.layers],
    }


def serialize(g: Genotype) -> str:
    """Canonical single-line text encoding of a genotype."""
    return json.dumps(to_dict(g), separators=(",", ":"))


def from_dict(doc: dict) -> Genotype:
    """Rebuild a genotype from its document form.

    A document holds the named form (``layers``), the raw array form
    (``raw``), or both; when both are present they must describe the same
    layers. Its ``problem`` must be the one the output layer names, and it
    holds no other key.
    """
    if not isinstance(doc, dict):
        raise ParseError("genotype document must be a JSON object")
    unknown = sorted(set(doc) - {"arch", "problem", "raw", "layers"})
    if unknown:
        raise ParseError(f"unknown genotype document key(s): {', '.join(unknown)}")
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
    try:
        g = Genotype(forms[0])
    except GenotypeError as exc:
        raise ParseError(str(exc)) from None
    if forms[-1] != forms[0]:
        i = next((i for i, (a, b) in enumerate(zip(*forms)) if a != b), min(map(len, forms)))
        raise ParseError(f"layer {i}: the 'layers' and 'raw' forms disagree")
    if g.problem != problem:
        raise ParseError(
            f"problem {problem.value!r} disagrees with the {g.layers[-1].activation.label()} "
            f"output layer, which solves {g.problem.value}"
        )
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
    param, takes_activation = KIND_FIELDS[kind]
    key = _PARAMS[param][0]
    unknown = sorted(set(entry) - ({"kind", key, "activation"} if takes_activation else {"kind", key}))
    if unknown:
        raise ParseError(f"layer {i}: key(s) {', '.join(unknown)} do not apply to a {kind.label()} layer")
    try:
        params = {param: _slot_value(key, entry[key], ROW_SLOTS[param][1])}
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
