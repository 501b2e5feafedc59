"""End-to-end tests of the command-line interface and its artifacts."""

import json
from pathlib import Path

import numpy as np
import pytest

from evonas import count_params, evalpool, parse, serialize
from evonas.cli import main, read_runs

from conftest import mlp_classifier
from evonas import Activation

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


def surrogate_make_evaluator(dataset, problem, input_dim, cv_ratio, epochs, **kw):
    def evaluate(genotype, seed):
        w = count_params(genotype, input_dim)
        return 1.0 / (1.0 + w / 5000.0), w

    return evaluate


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

    def test_byte_identical_reruns_with_surrogate(self, workdir, monkeypatch):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        blobs = []
        for name in ("a", "b"):
            out = workdir / name
            assert (
                main(
                    [
                        "search",
                        str(workdir / "config.json"),
                        str(workdir / "data.json"),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            blobs.append((out / "runs.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_worker_count_leaves_results_unchanged(self, workdir, monkeypatch):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        outputs = []
        for name, workers in (("w1", "1"), ("w8", "8")):
            out = workdir / name
            main(
                [
                    "search",
                    str(workdir / "config.json"),
                    str(workdir / "data.json"),
                    "--out",
                    str(out),
                    "--workers",
                    workers,
                ]
            )
            outputs.append((out / "runs.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_flag_overrides_config(self, workdir, monkeypatch):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        out = workdir / "seeded"
        main(
            [
                "search",
                str(workdir / "config.json"),
                str(workdir / "data.json"),
                "--out",
                str(out),
                "--seed",
                "123",
            ]
        )
        assert json.loads((out / "config.json").read_text())["seed"] == 123

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

    def test_bad_config_exits_2_with_field_message(self, workdir, capsys):
        bad = workdir / "bad.json"
        doc = json.loads((workdir / "config.json").read_text())
        doc["tournament_size"] = 9
        bad.write_text(json.dumps(doc))
        code = main(
            ["search", str(bad), str(workdir / "data.json"), "--out", str(workdir / "x")]
        )
        assert code == 2
        assert "tournament_size" in capsys.readouterr().err

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

    def test_negative_workers_env_exits_2(self, workdir, monkeypatch, capsys):
        monkeypatch.setenv("EVONAS_WORKERS", "-1")
        assert main(search_args(workdir, workdir / "x")) == 2
        assert "EVONAS_WORKERS must be at least 1" in capsys.readouterr().err

    def test_prints_thread_split(self, workdir, monkeypatch, capsys):
        monkeypatch.setattr("evonas.trainer.make_evaluator", surrogate_make_evaluator)
        args = [*search_args(workdir, workdir / "w"), "--workers", "2"]
        blas, cores = evalpool.blas_threads(2), evalpool.usable_cores()
        assert main(args) == 0
        shown = "unmanaged" if blas is None else blas
        assert f"evaluation: 2 worker(s) x {shown} BLAS thread(s) on {cores} core(s)" in capsys.readouterr().out
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
        gpath.write_text(serialize(mlp_classifier([(16, A.RELU)], classes=2)))
        # the manifest does not exist: a data error (exit 3) would mean it was read first
        code = main(["train", str(gpath), str(workdir / "missing.json"), flag, value])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_zero_epochs_still_reports(self, workdir, capsys):
        g = mlp_classifier([(16, A.RELU)], classes=2)
        gpath = workdir / "g.json"
        gpath.write_text(serialize(g))
        code = main(
            ["train", str(gpath), str(workdir / "data.json"), "--epochs", "0", "--seed", "1"]
        )
        assert code == 0
        assert "validation accuracy" in capsys.readouterr().out

    def test_unsupported_layer_kind_exits_4(self, workdir):
        doc = {
            "arch": "cnn",
            "problem": "classification",
            "raw": [
                [2, 0, 2, 8, 3, 1, 0, 0],
                [1, 2, 3, 0, 0, 0, 0, 0],
            ],
        }
        gpath = workdir / "cnn.json"
        gpath.write_text(json.dumps(doc))
        code = main(["train", str(gpath), str(workdir / "data.json"), "--epochs", "1"])
        assert code == 4


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

    def test_invalid_file_exits_nonzero(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{broken")
        assert main(["inspect", str(bad)]) == 2


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

    def test_empty_directory_exits_3(self, workdir):
        empty = workdir / "empty"
        empty.mkdir()
        assert main(["plot-data", str(empty), "--out", str(workdir / "x.csv")]) == 3


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
