"""End-to-end tests of the command-line interface and its artifacts."""

import csv
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from evonas import SearchConfig, count_params, evalpool, parse, serialize, trainer
from evonas.cli import main
from evonas.rundir import RUNS_CSV_FIELDS, read_runs

from conftest import mlp
from evonas import Activation, LayerGene

A = Activation


def write_blob_csv(path: Path, n_per_class=30, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["f0,f1,f2,f3,y"]
    for label, center in ((0, -2.0), (1, 2.0)):
        for _ in range(n_per_class):
            feats = rng.normal(center, 0.6, 4)
            lines.append(",".join(f"{v:.6f}" for v in feats) + f",{label}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def workdir(tmp_path):
    data_csv = tmp_path / "blobs.csv"
    write_blob_csv(data_csv)
    manifest = tmp_path / "data.json"
    manifest.write_text(
        json.dumps(
            {
                "format": "csv",
                "path": "blobs.csv",
                "feature_columns": ["f0", "f1", "f2", "f3"],
                "target_column": "y",
                "problem": "classification",
            }
        )
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "problem": "classification",
                "arch": "mlp",
                "input_shape": 4,
                "output_size": 2,
                "population_size": 4,
                "tournament_size": 2,
                "max_generations": 2,
                "experiments": 2,
                "train_epochs": 2,
                "seed": 7,
            }
        )
    )
    return tmp_path


def surrogate_make_evaluator(dataset, cv_ratio, cfg):
    def evaluate(genotype, seed):
        return 1.0 / (1.0 + count_params(genotype, dataset.feature_count) / 5000.0)

    return evaluate


def failing_make_evaluator(*_a, **_k):
    def evaluate(genotype, seed):
        raise RuntimeError("backend down")

    return evaluate


def runs_csv_without_millis(path: Path) -> bytes:
    """A ``runs.csv`` with every ``millis`` cell blanked: every other column
    is a result, and the evaluation time is not."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("millis")
    for row in rows[1:]:
        row[col] = ""
    blanked = io.StringIO()
    csv.writer(blanked).writerows(rows)
    return blanked.getvalue().encode()


def search_args(workdir, out):
    return ["search", str(workdir / "config.json"), str(workdir / "data.json"), "--out", str(out)]


class TestSearchCommand:
    def test_produces_all_artifacts(self, workdir):
        out = workdir / "run"
        code = main(
            [
                "search",
                str(workdir / "config.json"),
                str(workdir / "data.json"),
                "--out",
                str(out),
                "--batch-size",
                "32",
            ]
        )
        assert code == 0
        assert (out / "runs.csv").exists()
        assert (out / "archive.json").exists()
        assert (out / "config.json").exists()
        best = parse((out / "best.json").read_text())
        assert best.layers[-1].units == 2

        records = read_runs(out / "runs.csv")
        assert records, "runs.csv should hold one row per evaluation"
        for rec in records:
            g = parse(rec.genotype)
            assert count_params(g, 4) == rec.params

        archive = json.loads((out / "archive.json").read_text())
        assert len(archive["entries"]) == 2
        assert archive["winner"] in (0, 1)
        from evonas.genotype import from_dict

        for entry in archive["entries"]:  # archive genotypes re-parse cleanly
            assert from_dict(entry["genotype"]).layers[-1].units == 2

    def test_archive_entries_are_runs_csv_rows(self, workdir):
        """A trained search's archive repeats rows of runs.csv: each entry is its
        candidate's own row, cost included, and best.json is the cheapest entry."""
        out = workdir / "run"
        assert main([*search_args(workdir, out), "--batch-size", "16"]) == 0
        with (out / "runs.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        archive = json.loads((out / "archive.json").read_text())
        for entry in archive["entries"]:
            matches = [
                row for row in rows
                if int(row["experiment"]) == entry["experiment"]
                and json.loads(row["genotype"]) == entry["genotype"]
                and float(row["perf"]) == entry["perf"]
                and int(row["params"]) == entry["params"]
                and float(row["cost"]) == entry["cost"]
            ]
            assert matches, entry
        costs = [entry["cost"] for entry in archive["entries"]]
        assert archive["winner"] == costs.index(min(costs))
        best = json.loads((out / "best.json").read_text())
        assert best == archive["entries"][archive["winner"]]["genotype"]

    def test_byte_identical_reruns_with_surrogate(self, workdir, monkeypatch):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        blobs = []
        for name in ("a", "b"):
            out = workdir / name
            assert main(search_args(workdir, out)) == 0
            blobs.append(runs_csv_without_millis(out / "runs.csv"))
        assert blobs[0] == blobs[1]

    def test_worker_count_leaves_results_unchanged(self, workdir, monkeypatch):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        outputs = []
        for name, workers in (("w1", "1"), ("w8", "8")):
            out = workdir / name
            assert main([*search_args(workdir, out), "--workers", workers]) == 0
            outputs.append(runs_csv_without_millis(out / "runs.csv"))
        assert outputs[0] == outputs[1]

    # sha256 of each artifact of a surrogate search, runs.csv with its millis
    # cells blanked: any change to the run directory's format shows here
    GOLDEN = {
        7: {
            "config.json": "1bfd6ad4555e11bc64966d67ad724e315ba542c0d4a976dc2b2525c0939131fa",
            "archive.json": "5a320061b760be7250923ac39291bef867e702d8f46bfc7284ed78a9e15eab99",
            "best.json": "367f1132346680bd176681b831837517cad65c1744241412a0fe6c1af57daff4",
            "runs.csv": "7456d371635c6ea4af854e6dc6f0eb580e55b3f670dfa1ceecc32101c0e652c2",
        },
        11: {
            "config.json": "6b53815b7d5dfb754d7b9ad53a5e81feab0defc227561516b731456f44e59983",
            "archive.json": "12b5d1f3a725add21516a5dd80f89c290e96e64bf8586f055bbf5c43d37c7ff9",
            "best.json": "61f55fad4b1dc73d7fdaf299a04e559a3e746d75da24f9318fd76a1a19724207",
            "runs.csv": "171c977b5c6812f599243d6018608b09be5e089e69e8f8109be558cd8e648bd4",
        },
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_run_directory_is_byte_identical_to_the_golden_one(self, workdir, monkeypatch, seed):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        out = workdir / "golden"
        assert main([*search_args(workdir, out), "--seed", str(seed)]) == 0
        blobs = {name: (out / name).read_bytes() for name in ("config.json", "archive.json", "best.json")}
        blobs["runs.csv"] = runs_csv_without_millis(out / "runs.csv")
        assert {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()} == self.GOLDEN[seed]

    def test_failed_rename_of_best_json_leaves_no_partial_file(self, workdir, monkeypatch, capsys):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        rename = os.replace

        def failing_rename(src, dst):
            if Path(dst).name == "best.json":
                raise OSError("disk full")
            rename(src, dst)

        monkeypatch.setattr(os, "replace", failing_rename)
        out = workdir / "run"
        assert main(search_args(workdir, out)) == 4
        assert "disk full" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["archive.json", "config.json", "runs.csv"]
        for name in ("archive.json", "config.json"):
            json.loads((out / name).read_text())  # whole

    def test_each_generation_reaches_runs_csv_before_the_next_runs(self, workdir, monkeypatch):
        out = workdir / "run"
        seen = []  # the rows in runs.csv at each evaluation

        def reading_make_evaluator(dataset, cv_ratio, cfg):
            evaluate = surrogate_make_evaluator(dataset, cv_ratio, cfg)

            def evaluator(genotype, seed):
                seen.append(len(read_runs(out / "runs.csv")))
                return evaluate(genotype, seed)

            return evaluator

        monkeypatch.setattr("evonas.trainer.make_evaluator", reading_make_evaluator)
        assert main([*search_args(workdir, out), "--workers", "1"]) == 0
        rows = read_runs(out / "runs.csv")
        first = {}  # (experiment, generation) -> its first row
        for k, r in enumerate(rows):
            first.setdefault((r.experiment, r.generation), k)
        assert len(first) > 1
        # evaluation k writes row k, and sees every row of the generations before its own
        assert seen == [first[r.experiment, r.generation] for r in rows]

    def test_seed_flag_overrides_config(self, workdir, monkeypatch):
        seen = []

        def recording_make_evaluator(dataset, cv_ratio, cfg):
            seen.append(cfg)
            return surrogate_make_evaluator(dataset, cv_ratio, cfg)

        monkeypatch.setattr("evonas.trainer.make_evaluator", recording_make_evaluator)
        flags = {"seed": 123, "learning_rate": 0.05, "batch_size": 16}
        for given in ({}, flags):  # no flag leaves the config's keys; each flag overrides its key
            out = workdir / f"run{len(given)}"
            args = [f"--{key.replace('_', '-')}={value}" for key, value in given.items()]
            assert main([*search_args(workdir, out), *args]) == 0
            doc = json.loads((out / "config.json").read_text())
            expected = {"seed": 7, "learning_rate": 0.001, "batch_size": 512, **given}
            assert {key: doc[key] for key in flags} == expected
            assert seen.pop() == trainer.TrainConfig(2, **expected)  # what each candidate trains with

    def test_missing_dataset_exits_3_without_artifacts(self, workdir, capsys):
        out = workdir / "nope"
        code = main(
            [
                "search",
                str(workdir / "config.json"),
                str(workdir / "missing.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert not out.exists()
        assert "data error" in capsys.readouterr().err

    @staticmethod
    def search_with_config_key(workdir, key, value):
        """``search`` on the workdir's config with ``key`` set to ``value``."""
        doc = json.loads((workdir / "config.json").read_text())
        doc[key] = value
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))  # a non-finite float as the non-standard token
        # the manifest does not exist: a data error (exit 3) would mean it was read first
        return main(["search", str(bad), str(workdir / "missing.json"), "--out", str(workdir / "x")])

    def test_bad_config_exits_2_with_field_message(self, workdir, capsys):
        for key, value, message in (
            ("tournament_size", 9, "tournament_size must be at least 2 and smaller"),
            ("learning_rate", 0, "learning_rate must be positive and finite"),
            ("batch_size", 0, "batch_size must be positive"),
        ):
            assert self.search_with_config_key(workdir, key, value) == 2
            assert message in capsys.readouterr().err
            assert not (workdir / "x").exists()

    def test_non_integer_config_field_exits_2_without_run_directory(self, workdir, capsys):
        # an image shape too: the input is one feature count, [28, 28, 1] is written 784
        for key, value in (("population_size", 5.5), ("batch_size", 32.0), ("input_shape", [28, 28, 1])):
            assert self.search_with_config_key(workdir, key, value) == 2
            assert f"{key} must be an integer, got {value}" in capsys.readouterr().err
            assert not (workdir / "x").exists()

    def test_boolean_float_config_field_exits_2_without_run_directory(self, workdir, capsys):
        for key in ("alpha", "learning_rate"):
            assert self.search_with_config_key(workdir, key, True) == 2
            assert f"{key} must be a number, got True" in capsys.readouterr().err
            assert not (workdir / "x").exists()

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_config_float_exits_2_without_run_directory(self, workdir, capsys, value):
        for key in ("convergence_threshold", "learning_rate"):
            assert self.search_with_config_key(workdir, key, value) == 2
            assert f"{key} must be finite" in capsys.readouterr().err
            assert not (workdir / "x").exists()

    def test_trace_flag_writes_fresh_jsonl(self, workdir, monkeypatch):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        out = workdir / "traced"
        for _ in range(2):  # rerun into the same dir: the trace must not grow
            main(
                [
                    "search",
                    str(workdir / "config.json"),
                    str(workdir / "data.json"),
                    "--out",
                    str(out),
                    "--trace",
                ]
            )
        trace_lines = (out / "trace.jsonl").read_text().splitlines()
        records = read_runs(out / "runs.csv")
        assert len(trace_lines) == len(records)
        assert all(json.loads(line)["status"] == "ok" for line in trace_lines)

    def test_zero_workers_flag_exits_2(self, workdir, capsys):
        out = workdir / "zero"
        assert main([*search_args(workdir, out), "--workers", "0"]) == 2
        assert not out.exists()
        assert "--workers must be at least 1" in capsys.readouterr().err

    def test_workers_default_to_one(self, workdir, monkeypatch, capsys):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        assert main(search_args(workdir, workdir / "default")) == 0
        assert "evaluation: 1 worker(s) x " in capsys.readouterr().out

    def test_prints_thread_split(self, workdir, monkeypatch, capsys):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        args = [*search_args(workdir, workdir / "w"), "--workers", "2"]
        blas, cores = evalpool.blas_threads(2), evalpool.usable_cores()
        assert main(args) == 0
        shown = "unmanaged" if blas is None else blas
        out = capsys.readouterr().out
        assert f"evaluation: 2 worker(s) x {shown} BLAS thread(s) on {cores} core(s)" in out
        assert f"on {cores} core(s), float32 evaluations\n" in out
        monkeypatch.setattr("evonas.evalpool._openblas", lambda: None)
        assert main(args) == 0
        assert f"2 worker(s) x unmanaged BLAS thread(s) on {cores} core(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--batch-size", "0", "batch_size"),
            ("--learning-rate", "-1", "learning_rate"),
            ("--learning-rate", "inf", "learning_rate"),
        ],
    )
    def test_bad_training_flag_exits_2_before_any_evaluation(
        self, workdir, monkeypatch, capsys, flag, value, field
    ):
        calls = []
        monkeypatch.setattr("evonas.trainer.train", lambda *a: calls.append(a))
        out = workdir / "bad"
        assert main([*search_args(workdir, out), flag, value]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists() and not calls

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--batch-size", "0", "batch_size"), ("--learning-rate", "-1", "learning_rate")],
    )
    def test_bad_training_flag_exits_2_before_data_loads(self, workdir, capsys, flag, value, field):
        out = workdir / "bad"
        # the manifest does not exist: a data error (exit 3) would mean it was read first
        missing = workdir / "missing.json"
        code = main(["search", str(workdir / "config.json"), str(missing), "--out", str(out), flag, value])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_feature_width_mismatch_is_config_error(self, workdir):
        doc = json.loads((workdir / "config.json").read_text())
        doc["input_shape"] = 9
        (workdir / "wide.json").write_text(json.dumps(doc))
        code = main(
            [
                "search",
                str(workdir / "wide.json"),
                str(workdir / "data.json"),
                "--out",
                str(workdir / "x"),
            ]
        )
        assert code == 2


    def test_output_size_below_label_range_is_config_error(self, workdir, capsys, monkeypatch):
        def forbidden(*_a, **_k):
            raise AssertionError("the check must run before any evaluator is built")

        monkeypatch.setattr("evonas.trainer.make_evaluator", forbidden)
        doc = json.loads((workdir / "config.json").read_text())
        doc["output_size"] = 1  # the blob labels are 0 and 1
        (workdir / "narrow.json").write_text(json.dumps(doc))
        out = workdir / "x"
        code = main(
            ["search", str(workdir / "narrow.json"), str(workdir / "data.json"), "--out", str(out)]
        )
        assert code == 2
        assert "output_size 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_class_labels_exit_3_before_any_evaluation(self, workdir, capsys, monkeypatch):
        def forbidden(*_a, **_k):
            raise AssertionError("the labels must be rejected before any evaluator is built")

        monkeypatch.setattr("evonas.trainer.make_evaluator", forbidden)
        blobs = workdir / "blobs.csv"
        blobs.write_text(blobs.read_text().replace(",0\n", ",-1\n"))
        out = workdir / "x"
        assert main(search_args(workdir, out)) == 3
        assert "class labels must be 0 or more, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("arch", ["cnn", "rnn"])
    def test_untrainable_arch_exits_2_before_data_loads(self, workdir, capsys, arch):
        doc = json.loads((workdir / "config.json").read_text())
        doc["arch"] = arch
        (workdir / "family.json").write_text(json.dumps(doc))
        out = workdir / "x"
        # the manifest does not exist: a data error (exit 3) would mean it was read first
        code = main(
            ["search", str(workdir / "family.json"), str(workdir / "missing.json"), "--out", str(out)]
        )
        assert code == 2
        assert "no training backend" in capsys.readouterr().err
        assert not out.exists()

    def test_generation_without_success_exits_4_without_best(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr("evonas.trainer.make_evaluator", failing_make_evaluator)
        out = workdir / "run"
        assert main(search_args(workdir, out)) == 4
        err = capsys.readouterr().err
        assert "experiment 0, generation 0" in err
        assert "backend down" in err
        assert read_runs(out / "runs.csv") == []
        assert not (out / "archive.json").exists()
        assert not (out / "best.json").exists()

    def test_rerun_leaves_no_artifact_of_the_earlier_run(self, workdir, monkeypatch):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        out = workdir / "run"
        stale = [out / name for name in ("archive.json", "best.json", "trace.jsonl")]
        assert main([*search_args(workdir, out), "--trace"]) == 0
        assert all(path.exists() for path in stale)
        # the rerun fails and is untraced: nothing may describe the first run's rows
        monkeypatch.setattr("evonas.trainer.make_evaluator", failing_make_evaluator)
        assert main(search_args(workdir, out)) == 4
        assert read_runs(out / "runs.csv") == []
        assert not any(path.exists() for path in stale)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["inspect", "{dir}"], 3, "no such file: {dir}"),
        (["train", "{dir}", "{data}"], 3, "no such file: {dir}"),
        (["search", "{dir}", "{data}", "--out", "{out}"], 2, "no such config file: {dir}"),
        (["plot-data", "{data}", "--out", "{out}"], 3, "no such directory: {data}"),
    ],
    ids=["inspect", "train", "search", "plot-data"],
)
def test_path_of_the_wrong_kind_counts_as_missing(workdir, capsys, argv, code, message):
    paths = dict(dir=workdir / "adir", data=workdir / "data.json", out=workdir / "out")
    paths["dir"].mkdir()
    assert main([arg.format(**paths) for arg in argv]) == code
    assert message.format(**paths) in capsys.readouterr().err
    assert not paths["out"].exists()


def forbid(monkeypatch, target):
    def forbidden(*_a, **_k):
        raise AssertionError(f"{target} was called")

    monkeypatch.setattr(target, forbidden)


@pytest.mark.parametrize("out", ["afile", "afile/run"], ids=["file", "below-a-file"])
def test_search_out_of_the_wrong_kind_exits_2_before_data_loads(workdir, capsys, monkeypatch, out):
    (workdir / "afile").write_text("kept")
    forbid(monkeypatch, "evonas.data.load_manifest")
    assert main(search_args(workdir, workdir / out)) == 2
    err = capsys.readouterr().err
    assert "configuration error: --out" in err and "is not a directory" in err
    assert (workdir / "afile").read_text() == "kept"


@pytest.mark.parametrize(
    "base, message",
    [
        ("nodir/model", "no such directory"),
        ("pdir/", "a directory, not a file"),
        ("pdir", "a directory, not a file"),
    ],
    ids=["missing-directory", "directory-slash", "directory"],
)
def test_train_out_model_of_the_wrong_kind_exits_2_before_data_loads(
    workdir, capsys, monkeypatch, crossover_child, base, message
):
    (workdir / "pdir").mkdir()
    gpath = workdir / "g.json"
    gpath.write_text(serialize(crossover_child))
    forbid(monkeypatch, "evonas.data.load_manifest")
    argv = ["train", str(gpath), str(workdir / "data.json"), "--kfold", "3"]
    assert main([*argv, "--out-model", str(workdir) + "/" + base]) == 2
    err = capsys.readouterr().err
    assert "configuration error: --out-model" in err and message in err
    assert sorted(p.name for p in workdir.iterdir() if p.name.startswith("pdir")) == ["pdir"]


@pytest.mark.parametrize(
    "out, message",
    [("adir", "a directory, not a file"), ("nodir/plot.csv", "no such directory")],
    ids=["directory", "missing-directory"],
)
def test_plot_data_out_of_the_wrong_kind_exits_2_before_reading_runs(
    workdir, capsys, monkeypatch, out, message
):
    (workdir / "adir").mkdir()
    run = workdir / "run"
    run.mkdir()
    (run / "runs.csv").write_text(",".join(RUNS_CSV_FIELDS) + "\n")
    (run / "config.json").write_text('{"alpha": 0.5, "problem": "classification"}')
    forbid(monkeypatch, "evonas.rundir.read_runs")
    assert main(["plot-data", str(run), "--out", str(workdir / out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: --out" in err and message in err


class TestRegressionPipeline:
    @pytest.fixture
    def rul_workdir(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = []
        for unit in range(1, 7):
            length = int(rng.integers(40, 60))
            for cycle in range(length):
                wear = (length - cycle) / length
                s1 = wear + rng.normal(0, 0.02)
                s2 = wear**2 + rng.normal(0, 0.02)
                rows.append(f"{unit} {cycle + 1} {s1:.5f} {s2:.5f}")
        (tmp_path / "fleet.txt").write_text("\n".join(rows) + "\n")
        (tmp_path / "data.json").write_text(
            json.dumps(
                {
                    "format": "rul",
                    "path": "fleet.txt",
                    "unit_column": 0,
                    "sensor_columns": [2, 3],
                    "window": 16,
                    "stride": 1,
                    "early_rul": 30,
                }
            )
        )
        (tmp_path / "config.json").write_text(
            json.dumps(
                {
                    "problem": "regression",
                    "arch": "mlp",
                    "input_shape": 32,
                    "output_size": 1,
                    "population_size": 4,
                    "tournament_size": 2,
                    "max_generations": 2,
                    "experiments": 2,
                    "train_epochs": 3,
                    "seed": 3,
                }
            )
        )
        return tmp_path

    def test_search_then_train_on_windowed_series(self, rul_workdir, capsys):
        out = rul_workdir / "run"
        code = main(
            [
                "search",
                str(rul_workdir / "config.json"),
                str(rul_workdir / "data.json"),
                "--out",
                str(out),
                "--batch-size",
                "64",
                "--learning-rate",
                "0.01",
            ]
        )
        assert code == 0
        best = parse((out / "best.json").read_text())
        assert best.problem.value == "regression"
        assert best.layers[-1].units == 1

        code = main(
            [
                "train",
                str(out / "best.json"),
                str(rul_workdir / "data.json"),
                "--epochs",
                "30",
                "--learning-rate",
                "0.01",
                "--batch-size",
                "64",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        assert "validation mse" in capsys.readouterr().out

    def test_plot_data_uses_raw_error_for_regression(self, rul_workdir):
        out = rul_workdir / "run"
        main(
            [
                "search",
                str(rul_workdir / "config.json"),
                str(rul_workdir / "data.json"),
                "--out",
                str(out),
                "--batch-size",
                "64",
            ]
        )
        plot = rul_workdir / "plot.csv"
        assert main(["plot-data", str(out), "--out", str(plot)]) == 0
        rows = [line.split(",") for line in plot.read_text().splitlines()[1:]]
        records = read_runs(out / "runs.csv")
        # regression errors are the metric values themselves, not 1 - perf
        assert [float(r[1]) for r in rows] == [rec.perf for rec in records]

    def test_rerun_from_its_own_config_repeats_every_row(self, rul_workdir):
        """``config.json`` records every training setting: a search trained with
        flags, rerun from its run directory's config with none, writes the same rows."""
        first, again = rul_workdir / "first", rul_workdir / "again"
        manifest = str(rul_workdir / "data.json")
        flags = ["--learning-rate", "0.01", "--batch-size", "32"]
        assert main(["search", str(rul_workdir / "config.json"), manifest, "--out", str(first), *flags]) == 0
        assert main(["search", str(first / "config.json"), manifest, "--out", str(again)]) == 0
        assert runs_csv_without_millis(again / "runs.csv") == runs_csv_without_millis(first / "runs.csv")
        assert (again / "config.json").read_bytes() == (first / "config.json").read_bytes()

    @staticmethod
    def forbidden(*_a, **_k):
        raise AssertionError("the problems must be compared before any training")

    def test_classification_config_exits_2_before_any_evaluation(self, rul_workdir, capsys, monkeypatch):
        monkeypatch.setattr("evonas.trainer.make_evaluator", self.forbidden)
        doc = json.loads((rul_workdir / "config.json").read_text())
        doc.update(problem="classification", output_size=2)
        (rul_workdir / "cls.json").write_text(json.dumps(doc))
        out = rul_workdir / "run"
        code = main(["search", str(rul_workdir / "cls.json"), str(rul_workdir / "data.json"), "--out", str(out)])
        assert code == 2
        assert (
            "config problem 'classification' does not match dataset problem 'regression'"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_classification_genotype_exits_2_before_any_training(self, rul_workdir, capsys, monkeypatch):
        monkeypatch.setattr("evonas.trainer.train", self.forbidden)
        monkeypatch.setattr("evonas.trainer.kfold_evaluate", self.forbidden)
        gpath = rul_workdir / "g.json"
        gpath.write_text(serialize(mlp([(16, A.RELU)], LayerGene.dense(2, A.SOFTMAX))))
        code = main(["train", str(gpath), str(rul_workdir / "data.json"), "--kfold", "3"])
        assert code == 2
        assert (
            "genotype problem 'classification' does not match dataset problem 'regression'"
            in capsys.readouterr().err
        )


class TestTrainCommand:
    def test_trains_searched_winner_and_exports(self, workdir, capsys):
        out = workdir / "run"
        main(
            [
                "search",
                str(workdir / "config.json"),
                str(workdir / "data.json"),
                "--out",
                str(out),
                "--batch-size",
                "32",
            ]
        )
        model_base = workdir / "model"
        code = main(
            [
                "train",
                str(out / "best.json"),
                str(workdir / "data.json"),
                "--epochs",
                "20",
                "--kfold",
                "3",
                "--out-model",
                str(model_base),
                "--batch-size",
                "32",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "3-fold accuracy" in stdout
        assert "validation accuracy" in stdout
        assert (workdir / "model.json").exists()
        assert (workdir / "model.bin").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--kfold", "1", "--kfold"),
            ("--kfold", "0", "--kfold"),
            ("--epochs", "-1", "epochs"),
            ("--batch-size", "0", "batch_size"),
        ],
    )
    def test_bad_flag_exits_2_before_data_loads(self, workdir, capsys, flag, value, message):
        gpath = workdir / "g.json"
        gpath.write_text(serialize(mlp([(16, A.RELU)], LayerGene.dense(2, A.SOFTMAX))))
        # the manifest does not exist: a data error (exit 3) would mean it was read first
        code = main(["train", str(gpath), str(workdir / "missing.json"), flag, value])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_folds_train_in_float32_and_the_final_model_in_float64(self, workdir, monkeypatch):
        seen = []
        train = trainer.train

        def spy(net, dataset, train_rows, val_rows, cfg):
            seen.append(net.flat.dtype)
            return train(net, dataset, train_rows, val_rows, cfg)

        monkeypatch.setattr(trainer, "train", spy)
        gpath = workdir / "g.json"
        gpath.write_text(serialize(mlp([(16, A.RELU)], LayerGene.dense(2, A.SOFTMAX))))
        code = main(["train", str(gpath), str(workdir / "data.json"), "--epochs", "1", "--kfold", "3"])
        assert code == 0
        assert seen == [np.float32] * 3 + [np.float64]

    def test_zero_epochs_still_reports(self, workdir, capsys):
        g = mlp([(16, A.RELU)], LayerGene.dense(2, A.SOFTMAX))
        gpath = workdir / "g.json"
        gpath.write_text(serialize(g))
        code = main(
            ["train", str(gpath), str(workdir / "data.json"), "--epochs", "0", "--seed", "1"]
        )
        assert code == 0
        assert "validation accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "inspect"])
    @pytest.mark.parametrize(
        "arch, row, message",
        [
            ("mlp", [2, 0, 2, 8, 3, 1, 0, 0], "layer 0: unknown layer kind code 2"),
            ("cnn", [1, 64, 2, 0, 0, 0, 0, 0], "unknown architecture 'cnn'"),
        ],
        ids=["kind-2", "arch-cnn"],
    )
    def test_layer_kind_without_backend_is_a_parse_error(self, workdir, capsys, command, arch, row, message):
        doc = {"arch": arch, "problem": "classification", "raw": [row, [1, 2, 3, 0, 0, 0, 0, 0]]}
        gpath = workdir / "g.json"
        gpath.write_text(json.dumps(doc))
        # the manifest does not exist: a data error (exit 3) would mean it was read first
        args = [str(workdir / "missing.json"), "--epochs", "1"] if command == "train" else []
        assert main([command, str(gpath), *args]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "inspect"])
    def test_edited_named_form_exits_2_before_data_loads(self, workdir, capsys, command):
        doc = json.loads(serialize(mlp([(16, A.RELU)], LayerGene.dense(2, A.SOFTMAX))))
        doc["layers"][0]["units"] = 512  # the raw form still says 16
        gpath = workdir / "g.json"
        gpath.write_text(json.dumps(doc))
        # the manifest does not exist: a data error (exit 3) would mean it was read first
        args = [str(workdir / "missing.json")] if command == "train" else []
        assert main([command, str(gpath), *args]) == 2
        assert "layer 0: the 'layers' and 'raw' forms disagree" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "inspect"])
    @pytest.mark.parametrize(
        "key, message",
        [("notes", "unknown genotype document key(s): notes"), ("rate", "layer 0: key(s) rate do not apply")],
        ids=["document-key", "layer-key"],
    )
    def test_unread_key_exits_2_before_data_loads(self, workdir, capsys, command, key, message):
        doc = {"arch": "mlp", "problem": "classification", "layers": [
            {"kind": 1, "units": 16, "activation": 2}, {"kind": 1, "units": 2, "activation": 3}
        ]}
        (doc if key == "notes" else doc["layers"][0])[key] = 0.5
        gpath = workdir / "g.json"
        gpath.write_text(json.dumps(doc))
        # the manifest does not exist: a data error (exit 3) would mean it was read first
        args = [str(workdir / "missing.json")] if command == "train" else []
        assert main([command, str(gpath), *args]) == 2
        assert message in capsys.readouterr().err

    def test_unknown_manifest_problem_exits_3_naming_the_manifest(self, workdir, capsys):
        manifest = workdir / "data.json"
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "problem": "nonsense"}))
        gpath = workdir / "g.json"
        gpath.write_text(serialize(mlp([(16, A.RELU)], LayerGene.dense(2, A.SOFTMAX))))
        assert main(["train", str(gpath), str(manifest)]) == 3
        err = capsys.readouterr().err
        assert f"{manifest}: 'problem' must be one of 'classification', 'regression', got 'nonsense'" in err

    def test_misspelt_manifest_key_exits_3_naming_the_manifest_and_the_key(self, workdir, capsys):
        manifest = workdir / "data.json"
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "normalisation": "zscore"}))
        gpath = workdir / "g.json"
        gpath.write_text(serialize(mlp([(16, A.RELU)], LayerGene.dense(2, A.SOFTMAX))))
        assert main(["train", str(gpath), str(manifest)]) == 3
        assert f"{manifest}: the 'csv' format has no field 'normalisation'" in capsys.readouterr().err

    def test_output_narrower_than_the_labels_exits_2_before_training(self, workdir, capsys, monkeypatch):
        def forbidden(*_a, **_k):
            raise AssertionError("the width must be checked before any training")

        monkeypatch.setattr("evonas.trainer.materialize", forbidden)
        monkeypatch.setattr("evonas.trainer.kfold_evaluate", forbidden)
        lines = (workdir / "blobs.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",2"  # labels 0..2
        (workdir / "blobs.csv").write_text("\n".join(lines) + "\n")
        gpath = workdir / "g.json"
        gpath.write_text(serialize(mlp([(16, A.RELU)], LayerGene.dense(2, A.SOFTMAX))))
        code = main(["train", str(gpath), str(workdir / "data.json"), "--kfold", "3"])
        assert code == 2
        assert "genotype output width 2 is too small for dataset label 2" in capsys.readouterr().err

    def test_negative_class_labels_exit_3_before_training(self, workdir, capsys, monkeypatch):
        def forbidden(*_a, **_k):
            raise AssertionError("the labels must be rejected before any training")

        monkeypatch.setattr("evonas.trainer.train", forbidden)
        blobs = workdir / "blobs.csv"
        blobs.write_text(blobs.read_text().replace(",0\n", ",-1\n"))
        gpath = workdir / "g.json"
        gpath.write_text(serialize(mlp([(16, A.RELU)], LayerGene.dense(2, A.SOFTMAX))))
        model = workdir / "model"
        code = main(["train", str(gpath), str(workdir / "data.json"), "--out-model", str(model)])
        assert code == 3
        assert "class labels must be 0 or more" in capsys.readouterr().err
        assert list(workdir.glob("model*")) == []


@pytest.mark.parametrize("case", ["config", "search-flag", "train-flag"])
def test_negative_seed_exits_2_without_artifacts(workdir, capsys, case):
    out = workdir / "run"
    if case == "config":
        doc = json.loads((workdir / "config.json").read_text())
        (workdir / "config.json").write_text(json.dumps({**doc, "seed": -1}))
        argv = search_args(workdir, out)
    elif case == "search-flag":
        argv = [*search_args(workdir, out), "--seed", "-3"]
    else:
        gpath = workdir / "g.json"
        gpath.write_text(serialize(mlp([(16, A.RELU)], LayerGene.dense(2, A.SOFTMAX))))
        argv = ["train", str(gpath), str(workdir / "data.json"), "--seed", "-2", "--out-model", str(out)]
    assert main(argv) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert list(workdir.glob("run*")) == []


class TestInspectCommand:
    def test_prints_layer_table_with_params(self, workdir, capsys, crossover_child):
        gpath = workdir / "g.json"
        gpath.write_text(serialize(crossover_child))
        code = main(["inspect", str(gpath), "--input-dim", "784"])
        assert code == 0
        out = capsys.readouterr().out
        for token in ("Fully connected", "360", "480", "88", "872", "ReLU", "Softmax"):
            assert token in out
        assert str(count_params(crossover_child, 784)) in out

    def test_stacked_example_row_count(self, workdir, capsys, stacked_example):
        gpath = workdir / "g.json"
        gpath.write_text(serialize(stacked_example))
        main(["inspect", str(gpath), "--input-dim", "784"])
        out = capsys.readouterr().out
        data_rows = [
            line
            for line in out.splitlines()
            if line.startswith(("Fully connected", "Dropout"))
        ]
        assert len(data_rows) == 6
        assert "744410" in out

    # an image shape is refused: the flag takes its feature count (784, not 28,28,1)
    @pytest.mark.parametrize("value", ["abc", "28x28", "0", "-5", "28,28,1", "28x28x1"])
    def test_bad_input_dim_is_a_config_error(self, workdir, capsys, stacked_example, value):
        gpath = workdir / "g.json"
        gpath.write_text(serialize(stacked_example))
        assert main(["inspect", str(gpath), "--input-dim", value]) == 2
        captured = capsys.readouterr()
        assert f"--input-dim must be a positive integer, got {value!r}" in captured.err
        assert captured.out == ""

    def test_invalid_file_exits_nonzero(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{broken")
        assert main(["inspect", str(bad)]) == 2

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"raw": [5, [1, 10, 3, 0, 0, 0, 0, 0]]}, "layer 0: layer array must be a list"),
            ({"layers": 5}, "'layers' must be a list"),
        ],
    )
    def test_non_list_layers_are_a_parse_error(self, workdir, capsys, extra, message):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"arch": "mlp", "problem": "classification", **extra}))
        assert main(["inspect", str(bad)]) == 2
        assert message in capsys.readouterr().err


class TestPlotDataCommand:
    def _run_alpha(self, workdir, alpha, name):
        doc = json.loads((workdir / "config.json").read_text())
        doc["alpha"] = alpha
        cfg_path = workdir / f"cfg_{name}.json"
        cfg_path.write_text(json.dumps(doc))
        out = workdir / "sweep" / name
        main(
            ["search", str(cfg_path), str(workdir / "data.json"), "--out", str(out)]
        )
        return out

    def test_groups_rows_by_alpha(self, workdir, monkeypatch):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        for alpha, name in ((0.3, "a03"), (0.5, "a05"), (0.7, "a07")):
            self._run_alpha(workdir, alpha, name)
        out_csv = workdir / "plot.csv"
        code = main(["plot-data", str(workdir / "sweep"), "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "params,error,alpha,experiment,best"
        rows = [line.split(",") for line in lines[1:]]
        assert {row[2] for row in rows} == {"0.3", "0.5", "0.7"}
        assert sum(row[4] == "1" for row in rows) == 3  # one best per alpha

        total_records = sum(
            len(read_runs(d / "runs.csv")) for d in (workdir / "sweep").iterdir()
        )
        assert len(rows) == total_records

    def test_single_run_directory(self, workdir, monkeypatch):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        run = self._run_alpha(workdir, 0.5, "only")
        out_csv = workdir / "one.csv"
        assert main(["plot-data", str(run), "--out", str(out_csv)]) == 0
        rows = out_csv.read_text().splitlines()[1:]
        assert len(rows) == len(read_runs(run / "runs.csv"))

    def test_alpha_filter(self, workdir, monkeypatch):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        for alpha, name in ((0.3, "a03"), (0.7, "a07")):
            self._run_alpha(workdir, alpha, name)
        out_csv = workdir / "filtered.csv"
        main(
            [
                "plot-data",
                str(workdir / "sweep"),
                "--out",
                str(out_csv),
                "--alpha",
                "0.3",
            ]
        )
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert rows and all(row[2] == "0.3" for row in rows)

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda row: row.rsplit(",", 1)[0], "line 3 has 7 cells, expected 8"),
            (lambda row: row.rsplit(",", 1)[0] + ",fast", "line 3: invalid literal for int()"),
        ],
        ids=["short-row", "non-numeric-cell"],
    )
    def test_malformed_runs_csv_exits_3_naming_the_line(
        self, workdir, monkeypatch, capsys, mangle, message
    ):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        run = self._run_alpha(workdir, 0.5, "bad")
        lines = (run / "runs.csv").read_text().splitlines()
        lines[2] = mangle(lines[2])
        (run / "runs.csv").write_text("\n".join(lines) + "\n")
        assert main(["plot-data", str(run), "--out", str(workdir / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and message in err

    # every key but alpha and problem of a config that search could write
    REST = json.dumps(
        {k: v for k, v in SearchConfig("classification", "mlp", 4, 2).to_dict().items() if k not in ("alpha", "problem")}
    )[1:-1]
    # a config.json written before learning_rate and batch_size were config keys
    BEFORE_TRAINING_KEYS = json.dumps(
        {k: v for k, v in SearchConfig("classification", "mlp", 4, 2).to_dict().items()
         if k not in ("learning_rate", "batch_size")}
    )
    # a config.json written while fitness_mode was a config key
    WITH_FITNESS_MODE = json.dumps(
        {**SearchConfig("classification", "mlp", 4, 2).to_dict(), "fitness_mode": "raw_error"}
    )
    # a config.json written while input_shape could be an [H, W, C] image shape
    WITH_IMAGE_SHAPE = json.dumps(
        {**SearchConfig("classification", "mlp", 4, 2).to_dict(), "input_shape": [28, 28, 1]}
    )

    @pytest.mark.parametrize(
        "config, message",
        [
            ("{bad", "not a search config"),
            (BEFORE_TRAINING_KEYS, "not a search config: missing key(s): learning_rate, batch_size"),
            (WITH_FITNESS_MODE, "not a search config: unknown configuration key(s): fitness_mode"),
            (WITH_IMAGE_SHAPE, "not a search config: input_shape must be an integer, got [28, 28, 1]"),
            ('{"problem": "classification", %s}' % REST, "not a search config: missing key(s): alpha"),
            ('{"alpha": 0.5, %s}' % REST, "not a search config: missing key(s): problem"),
            ('{"alpha": 0.5, "problem": "ranking", %s}' % REST, "not a search config: 'ranking' is not a valid"),
            ('{"alpha": true, "problem": "classification", %s}' % REST, "not a search config: alpha must be a number, got True"),
            ('{"alpha": 7, "problem": "classification", %s}' % REST, "not a search config: alpha must be in [0, 1]"),
            ('{"alpha": NaN, "problem": "classification", %s}' % REST, "not a search config: alpha must be finite, got nan"),
            ('{"alpha": "0.5", "problem": "classification", %s}' % REST, "not a search config: alpha must be a number, got '0.5'"),
        ],
        ids=[
            "not-json", "written-before-training-keys", "written-with-fitness-mode", "written-with-image-shape",
            "no-alpha", "no-problem", "unknown-problem",
            "boolean-alpha", "alpha-out-of-range", "nan-alpha", "string-alpha",
        ],
    )
    def test_bad_config_json_exits_3_naming_the_file(self, workdir, capsys, config, message):
        run = workdir / "run"
        run.mkdir()
        (run / "runs.csv").write_text(",".join(RUNS_CSV_FIELDS) + "\n")
        (run / "config.json").write_text(config)
        assert main(["plot-data", str(run), "--out", str(workdir / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert f"data error: {run / 'config.json'}: {message}" in err

    def test_empty_directory_exits_3(self, workdir):
        empty = workdir / "empty"
        empty.mkdir()
        assert main(["plot-data", str(empty), "--out", str(workdir / "x.csv")]) == 3


def test_readme_lists_the_runs_csv_columns():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("- `runs.csv` — one row per evaluation", 1)[1]
    assert section.split("`", 2)[1] == ",".join(RUNS_CSV_FIELDS)


def test_every_subcommand_accepts_seed(workdir, crossover_child, monkeypatch):
    """--seed is part of the CLI contract on all four subcommands."""
    from evonas.cli import build_parser

    parser = build_parser()
    for argv in (
        ["search", "c", "d", "--out", "o", "--seed", "1"],
        ["train", "g", "d", "--seed", "1"],
        ["inspect", "g", "--seed", "1"],
        ["plot-data", "r", "--out", "o", "--seed", "1"],
    ):
        args = parser.parse_args(argv)
        assert args.seed == 1
