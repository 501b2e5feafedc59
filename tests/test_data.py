"""Tests for dataset loading, normalization, windowing, and splitting."""

import gzip
import inspect
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evonas import Dataset, DataError, ProblemKind, kfold, load_csv, load_idx, split, window_rul
from evonas import data
from evonas.data import FORMATS, load_manifest, load_rul_table, normalize_features


def write_idx_images(path, images: np.ndarray, compress=False):
    n, h, w = images.shape
    blob = b"\x00\x00\x08\x03" + struct.pack(">III", n, h, w) + images.astype(np.uint8).tobytes()
    path.write_bytes(gzip.compress(blob) if compress else blob)


def write_idx_labels(path, labels: np.ndarray, compress=False):
    blob = b"\x00\x00\x08\x01" + struct.pack(">I", len(labels)) + labels.astype(np.uint8).tobytes()
    path.write_bytes(gzip.compress(blob) if compress else blob)


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(20, 4, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=20, dtype=np.uint8)
    img_path, lbl_path = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    write_idx_images(img_path, images)
    write_idx_labels(lbl_path, labels)
    return img_path, lbl_path, images, labels


class TestLoadIdx:
    def test_scaling_and_unrolling(self, idx_pair):
        img_path, lbl_path, images, labels = idx_pair
        ds = load_idx(img_path, lbl_path)
        assert ds.features.shape == (20, 20)
        assert ds.problem == ProblemKind.CLASSIFICATION
        np.testing.assert_array_equal(ds.targets, labels)
        np.testing.assert_array_equal(ds.features, images.reshape(20, -1))  # the bytes as read
        np.testing.assert_allclose(ds.rows(slice(None), np.float64), images.reshape(20, -1) / 255.0)

    def test_all_zero_images(self, tmp_path):
        write_idx_images(tmp_path / "i.idx", np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "l.idx", np.zeros(3, dtype=np.uint8))
        ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        assert np.all(ds.features == 0.0)

    def test_scaling_equals_float64_division_for_every_byte(self, tmp_path):
        pixels = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
        write_idx_images(tmp_path / "i.idx", pixels)
        write_idx_labels(tmp_path / "l.idx", np.zeros(1, dtype=np.uint8))
        ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        assert ds.features.dtype == np.uint8
        exact = pixels.reshape(1, -1).astype(np.float64) / 255.0
        assert ds.rows(slice(None), np.float64).tobytes() == exact.tobytes()
        # dividing in float32 rounds like dividing in float64 and casting
        assert ds.rows(slice(None), np.float32).tobytes() == exact.astype(np.float32).tobytes()

    def test_max_intensity_maps_to_one(self, tmp_path):
        write_idx_images(tmp_path / "i.idx", np.full((1, 2, 2), 255, dtype=np.uint8))
        write_idx_labels(tmp_path / "l.idx", np.zeros(1, dtype=np.uint8))
        ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        for dtype in (np.float64, np.float32):
            assert np.all(ds.rows(slice(None), dtype) == 1.0)

    def test_gzip_transparent(self, tmp_path):
        images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        write_idx_images(tmp_path / "i.gz", images, compress=True)
        write_idx_labels(tmp_path / "l.gz", np.array([1, 2], dtype=np.uint8), compress=True)
        ds = load_idx(tmp_path / "i.gz", tmp_path / "l.gz")
        assert ds.sample_count == 2

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.idx").write_bytes(b"\x00\x00\x07\x03" + b"\x00" * 16)
        write_idx_labels(tmp_path / "l.idx", np.zeros(1, dtype=np.uint8))
        with pytest.raises(DataError, match="magic"):
            load_idx(tmp_path / "bad.idx", tmp_path / "l.idx")

    def test_truncated_payload(self, tmp_path, idx_pair):
        img_path, lbl_path, *_ = idx_pair
        blob = img_path.read_bytes()
        (img_path).write_bytes(blob[:-7])
        with pytest.raises(DataError, match="payload"):
            load_idx(img_path, lbl_path)

    def test_count_mismatch(self, tmp_path, idx_pair):
        img_path, _, _, _ = idx_pair
        write_idx_labels(tmp_path / "short.idx", np.zeros(5, dtype=np.uint8))
        with pytest.raises(DataError, match="count"):
            load_idx(img_path, tmp_path / "short.idx")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_idx(tmp_path / "nope.idx", tmp_path / "nope2.idx")


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_text(text)
        return p

    def test_toy_table(self, tmp_path):
        p = self.write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(p, ["a", "b"], "y")
        assert ds.sample_count == 3
        np.testing.assert_array_equal(ds.targets, [3.0, 6.0, 9.0])

    def test_index_addressing_without_header(self, tmp_path):
        p = self.write(tmp_path, "1,2,3\n4,5,6\n")
        ds = load_csv(p, [0, 1], 2, header=False)
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [4.0, 5.0]])

    def test_constant_column_minmax_warns_and_zeroes(self, tmp_path):
        p = self.write(tmp_path, "a,y\n5,0\n5,1\n5,2\n")
        with pytest.warns(UserWarning, match="constant"):
            ds = load_csv(p, ["a"], "y", normalization="minmax")
        assert np.all(ds.features == 0.0)

    def test_zscore_moments(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = "\n".join(f"{rng.normal():.6f},{rng.normal():.6f},0" for _ in range(50))
        p = self.write(tmp_path, "a,b,y\n" + rows + "\n")
        ds = load_csv(p, ["a", "b"], "y", normalization="zscore")
        np.testing.assert_allclose(ds.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(ds.features.std(axis=0), 1.0, atol=1e-9)

    def test_ragged_row_located(self, tmp_path):
        p = self.write(tmp_path, "a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(p, ["a", "b"], "y")

    def test_non_numeric_cell_located(self, tmp_path):
        p = self.write(tmp_path, "a,b,y\n1,x,3\n")
        with pytest.raises(DataError, match="row 0, column 1"):
            load_csv(p, ["a", "b"], "y")

    def test_missing_column_named(self, tmp_path):
        p = self.write(tmp_path, "a,b,y\n1,2,3\n")
        with pytest.raises(DataError, match="no column named 'c'"):
            load_csv(p, ["a", "c"], "y")

    def test_fractional_class_label_rejected(self, tmp_path):
        p = self.write(tmp_path, "a,y\n1,0\n2,1.5\n3,2.0\n")
        with pytest.raises(DataError, match="class labels must be whole numbers, got 1.5"):
            load_csv(p, ["a"], "y", problem=ProblemKind.CLASSIFICATION)
        p = self.write(tmp_path, "a,y\n1,0\n2,1.0\n")
        ds = load_csv(p, ["a"], "y", problem=ProblemKind.CLASSIFICATION)
        np.testing.assert_array_equal(ds.targets, [0, 1])


class TestNormalization:
    @pytest.mark.parametrize("mode", ["zscore", "minmax"])
    def test_idempotent(self, mode):
        rng = np.random.default_rng(2)
        X = rng.normal(3.0, 2.5, size=(40, 6))
        once = normalize_features(X, mode)
        twice = normalize_features(once, mode)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_unknown_mode(self):
        with pytest.raises(DataError):
            normalize_features(np.ones((2, 2)), "log")


class TestWindowRul:
    def test_exact_window_makes_one_sample(self):
        ds = window_rul({1: np.ones((24, 3))}, window=24, stride=1, early_rul=129)
        assert ds.sample_count == 1
        assert ds.feature_count == 72
        assert ds.targets[0] == 0.0  # the window ends at failure

    def test_thirty_cycles_make_seven_windows(self):
        ds = window_rul({1: np.ones((30, 2))}, window=24, stride=1, early_rul=129)
        assert ds.sample_count == 7
        np.testing.assert_array_equal(ds.targets, [6, 5, 4, 3, 2, 1, 0])

    def test_targets_clamped_to_early_rul(self):
        ds = window_rul({1: np.ones((200, 1))}, window=24, stride=1, early_rul=129)
        assert ds.targets.max() == 129.0
        assert ds.targets.min() == 0.0

    def test_sensor_subset_defines_width(self, tmp_path):
        p = tmp_path / "fd.txt"
        np.savetxt(p, np.hstack([np.ones((24, 1)), np.arange(24 * 4, dtype=float).reshape(24, 4)]))
        ds = load_rul_table(p, unit_column=0, sensor_columns=[1, 3], window=24)
        assert ds.feature_count == 48

    def test_short_series_names_unit(self):
        with pytest.raises(DataError, match="unit 7"):
            window_rul({7: np.ones((10, 2))}, window=24, stride=1, early_rul=129)

    def test_unknown_sensor_column(self, tmp_path):
        p = tmp_path / "fd.txt"
        np.savetxt(p, np.ones((30, 3)))
        with pytest.raises(DataError, match=re.escape("sensor column(s) [5] out of range (table width 3)")):
            load_rul_table(p, unit_column=0, sensor_columns=[5], window=24)
        with pytest.raises(DataError, match=re.escape("at least one column, got shape (9, 0)")):
            window_rul({1: np.ones((10, 0))}, window=2, stride=1, early_rul=5)

    @given(st.integers(24, 80), st.integers(1, 5))
    def test_window_count_formula(self, length, stride):
        ds = window_rul({1: np.ones((length, 1))}, window=24, stride=stride, early_rul=129)
        assert ds.sample_count == (length - 24) // stride + 1

    def test_rul_table_loader(self, tmp_path):
        rows = []
        for unit in (1, 2):
            for cycle in range(30):
                rows.append(f"{unit} {cycle + 1} {np.sin(cycle):.4f} {np.cos(cycle):.4f}")
        p = tmp_path / "fd.txt"
        p.write_text("\n".join(rows) + "\n")
        ds = load_rul_table(p, unit_column=0, sensor_columns=[2, 3], window=24, stride=1)
        assert ds.sample_count == 14  # 7 windows per unit
        assert ds.feature_count == 48
        assert ds.problem == ProblemKind.REGRESSION


class TestSplitAndKfold:
    def test_eighty_twenty(self):
        ds = Dataset(np.arange(40).reshape(10, 4), np.zeros(10), ProblemKind.REGRESSION)
        train, val = split(ds, 0.2, seed=0)
        assert (len(train), len(val)) == (8, 2)

    def test_same_seed_same_split(self):
        ds = Dataset(np.arange(60).reshape(15, 4), np.arange(15.0), ProblemKind.REGRESSION)
        a_train, a_val = split(ds, 0.3, seed=5)
        b_train, b_val = split(ds, 0.3, seed=5)
        np.testing.assert_array_equal(a_train, b_train)
        np.testing.assert_array_equal(a_val, b_val)

    @given(st.integers(2, 60), st.floats(0.05, 0.95), st.integers(0, 2**32))
    def test_split_rows_are_the_seeded_permutation(self, n, ratio, seed):
        ds = Dataset(np.ones((n, 2)), np.zeros(n), ProblemKind.REGRESSION)
        n_val = round(ratio * n)
        if n_val in (0, n):
            return
        train, val = split(ds, ratio, seed)
        assert np.intersect1d(train, val).size == 0
        assert sorted(np.concatenate([train, val])) == list(range(n))
        perm = np.random.default_rng(seed).permutation(n)  # the rows the split once copied
        np.testing.assert_array_equal(train, perm[n_val:])
        np.testing.assert_array_equal(val, perm[:n_val])

    def test_empty_side_rejected(self):
        ds = Dataset(np.ones((3, 1)), np.ones(3), ProblemKind.REGRESSION)
        with pytest.raises(DataError):
            split(ds, 0.01, seed=0)

    @given(st.integers(4, 60), st.integers(2, 8))
    def test_kfold_partitions(self, n, k):
        if k > n:
            return
        ds = Dataset(np.ones((n, 2)), np.zeros(n), ProblemKind.REGRESSION)
        pairs = kfold(ds, k, seed=1)
        folds = [val for _, val in pairs]
        for train_rows, val in pairs:
            assert np.array_equal(train_rows, np.setdiff1d(np.arange(n), val))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        joined = np.concatenate(folds)
        assert len(joined) == n
        assert len(np.unique(joined)) == n

    def test_kfold_bounds(self):
        ds = Dataset(np.ones((3, 1)), np.zeros(3), ProblemKind.REGRESSION)
        with pytest.raises(DataError):
            kfold(ds, 1, seed=0)
        with pytest.raises(DataError):
            kfold(ds, 4, seed=0)


class TestDatasetInvariants:
    def test_alignment_checked(self):
        with pytest.raises(DataError, match="misaligned"):
            Dataset(np.ones((3, 2)), np.ones(2), ProblemKind.REGRESSION)

    def test_finiteness_checked(self):
        for dtype in (np.float64, np.float32):
            for value in (np.nan, np.inf, -np.inf):
                X = np.ones((2, 2), dtype)
                X[1, 0] = value
                with pytest.raises(DataError, match="finite"):
                    Dataset(X, np.ones(2), ProblemKind.REGRESSION)
        Dataset(np.empty((0, 2)), np.empty(0), ProblemKind.REGRESSION)  # nothing to check

    def test_finiteness_check_allocates_no_mask(self):
        X = np.random.default_rng(0).random((4000, 784), dtype=np.float32)
        y = np.zeros(4000, dtype=np.int64)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            ds = Dataset(X, y, ProblemKind.CLASSIFICATION)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(ds.features, X)
        # measured 25% of the matrix when the check built a boolean mask
        assert peak < X.nbytes / 100

    def test_negative_class_labels_rejected(self):
        with pytest.raises(DataError, match="class labels must be 0 or more, got -1"):
            Dataset(np.ones((2, 2)), np.array([-1, 1]), ProblemKind.CLASSIFICATION)
        Dataset(np.ones((2, 2)), np.array([-1.0, 1.0]), ProblemKind.REGRESSION)

    @pytest.mark.parametrize("label", [0.5, 1.7, np.inf, np.nan])
    def test_class_labels_must_be_whole_numbers(self, label):
        with pytest.raises(DataError, match="class labels must be whole numbers"):
            Dataset(np.ones((3, 2)), np.array([label, 1.0, 2.0]), ProblemKind.CLASSIFICATION)
        ds = Dataset(np.ones((3, 2)), np.array([0.0, 1.0, 2.0]), ProblemKind.CLASSIFICATION)
        assert ds.targets.dtype == np.int64 and list(ds.targets) == [0, 1, 2]

    @pytest.mark.parametrize(
        "given, kept",
        [(np.float32, np.float32), (np.float64, np.float64), (np.uint8, np.uint8), (int, np.float64)],
    )
    def test_float32_features_stay_float32_and_others_become_float64(self, given, kept):
        """Pixel bytes (``uint8``) are kept as well."""
        X = np.ones((2, 2), dtype=given)
        ds = Dataset(X, np.ones(2), ProblemKind.REGRESSION)
        assert ds.features.dtype == kept
        assert ds.take([0]).features.dtype == kept

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_of_float_features_are_a_cast_gather(self, dtype):
        ds = Dataset(np.arange(12.0).reshape(6, 2) / 7, np.arange(6), ProblemKind.REGRESSION)
        got = ds.rows([4, 1, 1], dtype)
        assert got.dtype == dtype
        assert got.tobytes() == ds.features[[4, 1, 1]].astype(dtype).tobytes()
        assert np.shares_memory(ds.rows(slice(None), np.float64), ds.features)  # no copy to make

    def test_features_become_read_only(self):
        ds = Dataset(np.ones((2, 2)), np.ones(2), ProblemKind.REGRESSION)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    @pytest.mark.parametrize("problem", list(ProblemKind))
    def test_take_is_a_read_only_copy(self, problem):
        ds = Dataset(np.arange(12.0).reshape(6, 2), np.arange(6), problem)
        part = ds.take([4, 1, 1])
        for got, source in ((part.features, ds.features), (part.targets, ds.targets)):
            assert not np.shares_memory(got, source)
            assert not got.flags.writeable
        np.testing.assert_array_equal(part.features, [[8.0, 9.0], [2.0, 3.0], [2.0, 3.0]])
        np.testing.assert_array_equal(part.targets, [4, 1, 1])

    @pytest.mark.parametrize("stored", [np.uint8, np.float64, np.float32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_take_in_a_dtype_equals_rows_in_chunks(self, stored, dtype, monkeypatch):
        monkeypatch.setattr(data, "_GATHER_BYTES", 3 * 5 * 8)  # three to six rows a chunk
        rng = np.random.default_rng(0)
        X = rng.integers(0, 256, (20, 5)).astype(np.uint8) if stored == np.uint8 else rng.normal(size=(20, 5))
        ds = Dataset(X.astype(stored), rng.integers(0, 3, 20), ProblemKind.CLASSIFICATION)
        rows = rng.permutation(20)[:11]
        chunks, outs, rows_of = [], [], Dataset.rows

        def counted(self, index, dt, out=None):
            chunks.append(len(index))
            outs.append(out)
            return rows_of(self, index, dt, out=out)

        monkeypatch.setattr(Dataset, "rows", counted)
        part = ds.take(rows, dtype)
        assert len(chunks) > 1 and sum(chunks) == 11
        # each chunk is written in place, into its slice of the one matrix
        assert all(out is not None and np.shares_memory(out, part.features) for out in outs)
        assert part.features.dtype == dtype and not part.features.flags.writeable
        assert part.features.tobytes() == ds.rows(rows, dtype).tobytes()
        np.testing.assert_array_equal(part.targets, ds.targets[rows])


class TestManifest:
    def test_csv_manifest_with_relative_path(self, tmp_path):
        (tmp_path / "t.csv").write_text("a,b,y\n1,2,3\n4,5,6\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {
                    "format": "csv",
                    "path": "t.csv",
                    "feature_columns": ["a", "b"],
                    "target_column": "y",
                    "problem": "regression",
                }
            )
        )
        ds = load_manifest(manifest)
        assert ds.sample_count == 2

    def test_idx_manifest(self, tmp_path, idx_pair):
        img_path, lbl_path, _, _ = idx_pair
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps({"format": "idx", "images": str(img_path), "labels": str(lbl_path)})
        )
        assert load_manifest(manifest).sample_count == 20

    def test_limit_keeps_first_samples(self, tmp_path, idx_pair):
        img_path, lbl_path, _, _ = idx_pair
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {"format": "idx", "images": str(img_path), "labels": str(lbl_path), "limit": 7}
            )
        )
        assert load_manifest(manifest).sample_count == 7

    def test_unknown_format(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"format": "parquet"}))
        with pytest.raises(DataError, match="unknown dataset format"):
            load_manifest(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="no such manifest"):
            load_manifest(tmp_path / "missing.json")

    def test_idx_manifest_without_images_names_the_field(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"format": "idx"}))
        with pytest.raises(DataError, match=re.escape(f"{manifest}: the 'idx' format needs the field 'images'")):
            load_manifest(manifest)

    def test_csv_manifest_without_feature_columns_names_the_field(self, tmp_path):
        (tmp_path / "t.csv").write_text("a,b,y\n1,2,3\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"format": "csv", "path": "t.csv", "target_column": "y"}))
        with pytest.raises(DataError, match=re.escape(f"{manifest}: the 'csv' format needs the field 'feature_columns'")):
            load_manifest(manifest)

    def test_boolean_limit_rejected(self, tmp_path, idx_pair):
        img_path, lbl_path, _, _ = idx_pair
        manifest = tmp_path / "m.json"
        for doc in (
            {"format": "idx", "images": str(img_path), "labels": str(lbl_path), "limit": True},
            # checked before the loader runs, so a missing data file cannot hide it
            {"format": "csv", "path": "missing.csv", "feature_columns": ["a"], "target_column": "y", "limit": 0},
        ):
            manifest.write_text(json.dumps(doc))
            with pytest.raises(DataError, match="'limit' must be a positive integer"):
                load_manifest(manifest)

    @pytest.fixture
    def rul_manifest(self, tmp_path):
        """A 4-column run-to-failure table (unit, cycle, two sensors) and its manifest."""
        rows = [f"{unit} {c + 1} {np.sin(c):.4f} {np.cos(c):.4f}" for unit in (1, 2) for c in range(30)]
        (tmp_path / "fd.txt").write_text("\n".join(rows) + "\n")
        manifest = tmp_path / "m.json"

        def write(**fields):
            manifest.write_text(json.dumps({"format": "rul", "path": "fd.txt", "window": 8, **fields}))
            return manifest

        return write

    def test_rul_manifest_loads(self, rul_manifest):
        assert load_manifest(rul_manifest(sensor_columns=[2, 3])).sample_count == 46

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"normalisation": "zscore"}, "the 'rul' format has no field 'normalisation'"),
            ({"unit_column": 9}, "'unit_column' 9 out of range (table width 4)"),
            ({"unit_column": -1}, "'unit_column' -1 out of range (table width 4)"),
            ({"stride": True}, "'stride' must be int, got True"),
            ({"window": "8"}, "'window' must be int, got '8'"),
            ({"window": 8.5}, "'window' must be int, got 8.5"),
            ({"window": 0}, "'window' must be positive, got 0"),
            ({"path": 7}, "'path' must be str | Path, got 7"),
            ({"path": "."}, "no such file: "),
            ({"sensor_columns": "23"}, "'sensor_columns' must be Sequence[int] | None, got '23'"),
            ({"sensor_columns": [2, True]}, "'sensor_columns' must be Sequence[int] | None, got [2, True]"),
            ({"early_rul": "129"}, "'early_rul' must be float, got '129'"),
            ({"normalization": "log"}, "unknown normalization mode 'log'"),
            ({"early_rul": -5}, "'early_rul' must be positive, got -5"),
            ({"early_rul": 0}, "'early_rul' must be positive, got 0"),
            ({"sensor_columns": []}, "'sensor_columns' must name at least one column"),
            ({"sensor_columns": [9]}, "sensor column(s) [9] out of range (table width 4)"),
        ],
        ids=[
            "misspelt-key", "unit-column-past-width", "negative-unit-column", "boolean-stride",
            "string-window", "fractional-window", "zero-window", "numeric-path", "directory-path",
            "string-sensor-columns", "boolean-sensor-column", "string-early-rul", "unknown-normalization",
            "negative-early-rul", "zero-early-rul", "empty-sensor-columns", "sensor-column-past-width",
        ],
    )
    def test_bad_rul_field_names_the_manifest_and_the_field(self, rul_manifest, fields, message):
        manifest = rul_manifest(**fields)
        with pytest.raises(DataError, match=re.escape(f"{manifest}: {message}")):
            load_manifest(manifest)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"normalisation": "zscore"}, "the 'csv' format has no field 'normalisation'"),
            ({"header": "yes"}, "'header' must be bool, got 'yes'"),
            ({"feature_columns": "ab"}, "'feature_columns' must be Sequence[str | int], got 'ab'"),
            ({"target_column": True}, "'target_column' must be str | int, got True"),
            ({"feature_columns": []}, "'feature_columns' must name at least one column"),
        ],
        ids=["misspelt-key", "string-header", "string-feature-columns", "boolean-target", "empty-feature-columns"],
    )
    def test_bad_csv_field_names_the_manifest_and_the_field(self, tmp_path, fields, message):
        (tmp_path / "t.csv").write_text("a,b,y\n1,2,3\n4,5,6\n")
        manifest = tmp_path / "m.json"
        doc = {"format": "csv", "path": "t.csv", "feature_columns": ["a", "b"], "target_column": "y"}
        manifest.write_text(json.dumps({**doc, **fields}))
        with pytest.raises(DataError, match=re.escape(f"{manifest}: {message}")):
            load_manifest(manifest)

    def test_unhashable_format_is_an_unknown_format(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"format": ["rul"]}))
        with pytest.raises(DataError, match=re.escape(f"{manifest}: unknown dataset format ['rul']")):
            load_manifest(manifest)


def test_readme_states_each_format_as_its_loader_does():
    """The README's key list and examples match the loader signatures."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Dataset manifests", 1)[1].split("\n## ", 1)[0]
    listed = dict(re.findall(r"^- `(\w+)` \(`data\.\w+`\): (.*?)\.$", section, re.MULTILINE | re.DOTALL))
    assert sorted(listed) == sorted(FORMATS)
    for fmt, keys in listed.items():
        params = inspect.signature(FORMATS[fmt][0]).parameters.values()
        expected = [
            (p.name, "" if p.default is p.empty else json.dumps(p.default)) for p in params
        ]
        assert re.findall(r"`(\w+)`(?:\s+=\s+`([^`]*)`)?", keys) == expected
    block = section.split("```json", 1)[1].split("```", 1)[0]
    examples = [json.loads(chunk) for chunk in block.strip().split("\n\n")]
    assert sorted(doc["format"] for doc in examples) == sorted(FORMATS)
    for doc in examples:
        params = inspect.signature(FORMATS[doc["format"]][0]).parameters
        assert set(doc) - {"format", "limit"} <= set(params)
