"""Dataset ingestion, normalization, splitting, and windowing.

Loaders produce an immutable :class:`Dataset` (row-major feature matrix plus
aligned targets). Supported sources: IDX image/label pairs, numeric CSV
tables, and per-unit run-to-failure time series turned into strided windows
with a clamped remaining-useful-life target. A JSON manifest names a format
and passes its other keys to that format's loader as keyword arguments.
"""

from __future__ import annotations

import csv
import gzip
import inspect
import json
import struct
import warnings
from collections import abc
from dataclasses import dataclass
from pathlib import Path
from types import UnionType
from typing import Mapping, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .genotype import ProblemKind

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

#: Bytes per chunk of rows that :meth:`Dataset.take` gathers and converts at a time.
_GATHER_BYTES = 1 << 20


class DataError(ValueError):
    """A dataset could not be loaded or is malformed."""


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with aligned targets.

    ``uint8`` features are pixel bytes: a byte ``b`` reads as ``b / 255``.
    :meth:`rows`, and :meth:`take` through it, are the only code that turns
    stored rows into floats. Float32 features stay float32; features of any
    other dtype become float64.
    """

    features: np.ndarray
    targets: np.ndarray
    problem: ProblemKind

    def __post_init__(self):
        feats = np.asarray(self.features)
        kept = feats.dtype if feats.dtype in (np.uint8, np.float32) else np.float64
        feats = np.ascontiguousarray(feats, kept)
        if feats.ndim != 2:
            raise DataError(f"features must be 2-D (samples x features), got shape {feats.shape}")
        if feats.shape[1] == 0:
            raise DataError(f"features must have at least one column, got shape {feats.shape}")
        if self.problem == ProblemKind.CLASSIFICATION:
            targets = np.asarray(self.targets)
            if targets.dtype.kind == "f":  # reject, never truncate, a fractional label
                bad = targets[(targets != np.floor(targets)) | ~np.isfinite(targets)]
                if bad.size:
                    raise DataError(f"class labels must be whole numbers, got {bad[0]:g}")
            targets = targets.astype(np.int64, copy=False)
        else:
            targets = np.asarray(self.targets, dtype=np.float64)
        if targets.ndim != 1:
            raise DataError(f"targets must be 1-D, got shape {targets.shape}")
        if len(feats) != len(targets):
            raise DataError(
                f"feature rows ({len(feats)}) and targets ({len(targets)}) are misaligned"
            )
        # bytes are always finite; a NaN propagates to the min and max, so no mask is allocated
        if feats.dtype != np.uint8 and not np.isfinite([feats.min(initial=0), feats.max(initial=0)]).all():
            raise DataError("features contain non-finite values")
        if targets.dtype.kind == "f" and not np.all(np.isfinite(targets)):
            raise DataError("targets contain non-finite values")
        if targets.dtype.kind == "i" and targets.min(initial=0) < 0:
            raise DataError(f"class labels must be 0 or more, got {targets.min()}")
        feats.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targets)

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    def take(self, indices, dtype=None) -> "Dataset":
        """Rows ``indices`` copied. With a ``dtype``, their features are made by
        :meth:`rows` a chunk of :data:`_GATHER_BYTES` at a time into one ``dtype``
        matrix, each chunk written in place, so no copy of them in any other dtype
        is held whole."""
        idx = np.asarray(indices)  # an index array, so every lookup below copies
        if dtype is None:
            return Dataset(self.features[idx], self.targets[idx], self.problem)
        features = np.empty((len(idx), self.feature_count), dtype)
        itemsize = max(self.features.itemsize, features.itemsize)
        step = max(1, _GATHER_BYTES // (self.feature_count * itemsize))
        for at in range(0, len(idx), step):
            self.rows(idx[at : at + step], dtype, out=features[at : at + step])
        return Dataset(features, self.targets[idx], self.problem)

    def rows(self, index, dtype, out=None) -> np.ndarray:
        """The features of rows ``index`` in ``dtype``, a numpy scalar type, written
        into ``out`` when it is given. A byte ``b`` becomes ``b / 255`` divided in
        ``dtype``, equal to ``b / 255.0`` rounded to it."""
        x = self.features[index]
        if x.dtype == np.uint8:
            return np.divide(x, dtype(255), dtype=dtype, out=out)
        if out is None:
            return x.astype(dtype, copy=False)
        out[...] = x
        return out


# --- IDX --------------------------------------------------------------------

def _read_idx(path) -> np.ndarray:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    blob = path.read_bytes()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    if len(blob) < 4:
        raise DataError(f"{path}: truncated header")
    magic = int.from_bytes(blob[:4], "big")
    if magic not in (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC):
        raise DataError(f"{path}: bad magic 0x{magic:08x}")
    ndim = blob[3]
    header_len = 4 + 4 * ndim
    if len(blob) < header_len:
        raise DataError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", blob[4:header_len])
    expected = int(np.prod(dims))
    payload = np.frombuffer(blob, dtype=np.uint8, offset=header_len)
    if payload.size != expected:
        raise DataError(
            f"{path}: payload has {payload.size} bytes, header promises {expected}"
        )
    return payload.reshape(dims)


def load_idx(images: str | Path, labels: str | Path) -> Dataset:
    """Load an IDX image/label file pair; each image unrolled into one row of pixel bytes."""
    pixels = _read_idx(images)
    classes = _read_idx(labels)
    if pixels.ndim != 3:
        raise DataError(f"{images}: expected a rank-3 image tensor, got rank {pixels.ndim}")
    if classes.ndim != 1:
        raise DataError(f"{labels}: expected a rank-1 label vector, got rank {classes.ndim}")
    if len(pixels) != len(classes):
        raise DataError(
            f"image count {len(pixels)} does not match label count {len(classes)}"
        )
    return Dataset(pixels.reshape(len(pixels), -1), classes.astype(np.int64), ProblemKind.CLASSIFICATION)


# --- normalization ----------------------------------------------------------

SCALINGS = {  # mode -> (name in warnings, column centre, column spread)
    "zscore": ("z-score", np.mean, np.std),
    "minmax": ("min-max", np.min, np.ptp),
}


def normalize_features(features: np.ndarray, mode: str) -> np.ndarray:
    """Column-wise z-score or min-max scaling; ``mode='none'`` is identity.

    Each column has its centre subtracted and is divided by its spread.
    Constant columns map to zero under either mode (with a warning), which
    also makes both modes idempotent.
    """
    X = np.asarray(features, dtype=np.float64)
    if mode == "none":
        return X.copy()
    if mode not in SCALINGS:
        raise DataError(f"unknown normalization mode {mode!r}")
    name, centre, spread = SCALINGS[mode]
    scale = spread(X, axis=0)
    flat = scale == 0.0
    if flat.any():
        warnings.warn(f"{int(flat.sum())} constant column(s) zeroed by {name} scaling")
    out = (X - centre(X, axis=0)) / np.where(flat, 1.0, scale)
    out[:, flat] = 0.0
    return out


# --- CSV --------------------------------------------------------------------

def load_csv(
    path: str | Path,
    feature_columns: Sequence[str | int],
    target_column: str | int,
    header: bool = True,
    normalization: str = "none",
    problem: str = "regression",
) -> Dataset:
    """Load a rectangular numeric CSV table.

    Columns may be addressed by name (requires ``header=True``) or by
    zero-based index. ``problem`` is a :class:`ProblemKind` value. Malformed
    input is rejected with row/column diagnostics.
    """
    try:
        kind = ProblemKind(problem)
    except ValueError:
        allowed = ", ".join(repr(p.value) for p in ProblemKind)
        raise DataError(f"'problem' must be one of {allowed}, got {problem!r}") from None
    if not feature_columns:
        raise DataError("'feature_columns' must name at least one column")
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    names = None
    if header:
        names = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: header only, no data rows")

    def resolve(col) -> int:
        if isinstance(col, int):
            if not 0 <= col < len(rows[0]):
                raise DataError(f"column index {col} out of range (row width {len(rows[0])})")
            return col
        if names is None:
            raise DataError(f"column {col!r} addressed by name but the file has no header")
        try:
            return names.index(col)
        except ValueError:
            raise DataError(f"no column named {col!r} (have: {', '.join(names)})") from None

    width = len(rows[0])
    feat_idx = [resolve(c) for c in feature_columns]
    tgt_idx = resolve(target_column)

    feats = np.empty((len(rows), len(feat_idx)), dtype=np.float64)
    tgts = np.empty(len(rows), dtype=np.float64)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        for j, c in enumerate(feat_idx + [tgt_idx]):
            try:
                value = float(row[c])
            except ValueError:
                raise DataError(
                    f"{path}: row {r}, column {c}: not numeric: {row[c]!r}"
                ) from None
            if j < len(feat_idx):
                feats[r, j] = value
            else:
                tgts[r] = value
    return Dataset(normalize_features(feats, normalization), tgts, kind)


# --- sliding-window RUL -----------------------------------------------------

def window_rul(
    series: Mapping,
    *,
    window: int,
    stride: int,
    early_rul: float,
) -> Dataset:
    """Turn per-unit run-to-failure series into flattened strided windows.

    ``series`` maps a unit id to a (cycles x sensors) array whose last row
    is the failure point. Each window of ``window`` consecutive rows becomes
    one sample; its target is the cycles left until failure at the window's
    end, clamped to ``early_rul``.
    """
    for name, value in (("window", window), ("stride", stride)):
        if value < 1:
            raise DataError(f"{name!r} must be positive, got {value}")
    if not early_rul > 0:  # a clamp at 0 or below makes every target that constant
        raise DataError(f"'early_rul' must be positive, got {early_rul}")
    feats_out, tgts_out = [], []
    for unit in sorted(series):
        arr = np.asarray(series[unit], dtype=np.float64)
        if arr.ndim != 2:
            raise DataError(f"unit {unit}: series must be 2-D (cycles x sensors)")
        T = len(arr)
        if T < window:
            raise DataError(f"unit {unit}: series length {T} shorter than window {window}")
        for start in range(0, T - window + 1, stride):
            feats_out.append(arr[start : start + window].reshape(-1))
            rul = T - start - window  # cycles to failure at window end
            tgts_out.append(min(float(rul), float(early_rul)))
    return Dataset(np.asarray(feats_out), np.asarray(tgts_out), ProblemKind.REGRESSION)


def load_rul_table(
    path: str | Path,
    unit_column: int = 0,
    sensor_columns: Sequence[int] | None = None,
    window: int = 24,
    stride: int = 1,
    early_rul: float = 129,
    normalization: str = "minmax",
) -> Dataset:
    """Load a whitespace-separated run-to-failure table and window it.

    Rows are grouped by the unit id column in file order; the selected
    sensor columns are normalized over the whole table before windowing.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such file: {path}")
    try:
        table = np.loadtxt(path, dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"{path}: not a numeric table: {exc}") from None
    if table.ndim == 1:
        table = table[None, :]
    if not 0 <= unit_column < table.shape[1]:
        raise DataError(f"'unit_column' {unit_column} out of range (table width {table.shape[1]})")
    if sensor_columns is None:
        sensor_columns = [c for c in range(table.shape[1]) if c != unit_column]
    if not sensor_columns:
        raise DataError("'sensor_columns' must name at least one column")
    bad = [c for c in sensor_columns if not 0 <= c < table.shape[1]]
    if bad:
        raise DataError(f"sensor column(s) {bad} out of range (table width {table.shape[1]})")
    sensors = normalize_features(table[:, list(sensor_columns)], normalization)
    units = table[:, unit_column]
    series = {}
    for unit in np.unique(units):
        series[float(unit)] = sensors[units == unit]
    return window_rul(series, window=window, stride=stride, early_rul=early_rul)


# --- splitting --------------------------------------------------------------

def split(ds: Dataset, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled train/validation split, as ``(train_rows,
    val_rows)`` index arrays into ``ds``; ``ratio`` is the validation share."""
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    n = ds.sample_count
    n_val = round(ratio * n)
    if n_val == 0 or n_val == n:
        raise DataError(f"split of {n} samples at ratio {ratio} leaves one side empty")
    perm = np.random.default_rng(seed).permutation(n)
    return perm[n_val:], perm[:n_val]


def kfold(ds: Dataset, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic ``(train_rows, val_rows)`` index arrays into ``ds``, one
    pair per fold. The validation folds are disjoint, sorted, cover the
    dataset and differ in size by at most one; each fold trains on every
    other row, in ascending order."""
    if k < 2:
        raise DataError(f"need at least 2 folds, got {k}")
    n = ds.sample_count
    if k > n:
        raise DataError(f"cannot make {k} folds from {n} samples")
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    pairs, at = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        fold = np.sort(perm[at : at + size])
        pairs.append((np.setdiff1d(np.arange(n), fold), fold))
        at += size
    return pairs


# --- manifest ---------------------------------------------------------------

# format -> (loader, its parameters that name files); each manifest key but
# ``format`` and ``limit`` is one keyword argument of the format's loader
FORMATS = {
    "idx": (load_idx, ("images", "labels")),
    "csv": (load_csv, ("path",)),
    "rul": (load_rul_table, ("path",)),
}


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a loader parameter's type; ``true`` is no number."""
    if get_origin(hint) in (Union, UnionType):
        return any(_fits(value, h) for h in get_args(hint))
    if get_origin(hint) is abc.Sequence:
        return isinstance(value, list) and all(_fits(v, *get_args(hint)) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def load_manifest(path) -> Dataset:
    """Load a dataset as described by a JSON manifest.

    The manifest names the format (a key of :data:`FORMATS`); every other
    key is a keyword argument of that format's loader and must fit its
    type. A key the loader does not take is an error. File names resolve
    against the manifest's own directory. An optional ``limit`` keeps only
    the first N samples.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such manifest: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "format" not in doc:
        raise DataError(f"{path}: manifest must be an object with a 'format' field")
    fmt, limit = doc.pop("format"), doc.pop("limit", None)
    if not isinstance(fmt, str) or fmt not in FORMATS:
        raise DataError(f"{path}: unknown dataset format {fmt!r}")
    if limit is not None and not (_fits(limit, int) and limit >= 1):
        raise DataError(f"{path}: 'limit' must be a positive integer")
    loader, file_params = FORMATS[fmt]
    params = inspect.signature(loader).parameters
    hints = get_type_hints(loader)
    for key, value in doc.items():
        if key not in params:
            raise DataError(
                f"{path}: the {fmt!r} format has no field {key!r} (it takes {', '.join(params)})"
            )
        if not _fits(value, hints[key]):
            raise DataError(f"{path}: {key!r} must be {params[key].annotation}, got {value!r}")
    for key, p in params.items():
        if p.default is p.empty and key not in doc:
            raise DataError(f"{path}: the {fmt!r} format needs the field {key!r}")
    for key in file_params:
        doc[key] = path.parent / doc[key]
    try:
        ds = loader(**doc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    if limit is not None:
        ds = ds.take(np.arange(min(limit, ds.sample_count)))
    return ds
