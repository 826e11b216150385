from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_node_evaluations, strict_json

import nbdisc
from nbdisc import cli
from nbdisc.cli import main
from nbdisc.data import load_csv
from nbdisc.discretize import load_scheme
from nbdisc.evaluate import (
    FittedPipeline,
    PipelineConfig,
    config_from_dict,
    config_hash,
    fit_pipeline,
)


@pytest.fixture()
def separable_csv(tmp_path):
    path = tmp_path / "toy.csv"
    lines = ["x,color,class"]
    for i in range(30):
        lines.append(f"{i / 10:.1f},red,A")
    for i in range(30):
        lines.append(f"{5 + i / 10:.1f},blue,B")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestDiscretizeCommand:
    def test_writes_scheme_and_diagnostics(self, iris_path, tmp_path, capsys):
        scheme_path = tmp_path / "scheme.json"
        diag_path = tmp_path / "diag.csv"
        code = main(
            [
                "discretize",
                str(iris_path),
                "--method",
                "sadd",
                "--output",
                str(scheme_path),
                "--diagnostics-out",
                str(diag_path),
            ]
        )
        assert code == 0
        scheme = load_scheme(scheme_path)
        assert scheme.method == "sadd"
        assert scheme.params == {"n0": 2000}
        rows = list(csv.reader(diag_path.open()))
        assert rows[0] == ["attribute", "intervals", "mi"]
        assert len(rows) == 5
        assert "AVG" in capsys.readouterr().out

    def test_constant_column(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("x,class\n1.0,A\n1.0,B\n1.0,A\n")
        assert main(["discretize", str(path), "--method", "mdlp"]) == 0
        out = capsys.readouterr().out
        assert "1" in out and "0.0000" in out

    def test_unknown_method_usage_error(self, iris_path):
        with pytest.raises(SystemExit) as err:
            main(["discretize", str(iris_path), "--method", "nope"])
        assert err.value.code != 0

    @pytest.mark.parametrize("method", ["mdlp", "sadd", "eqw", "eqf"])
    @pytest.mark.parametrize("flag, message", [
        ("--n0", "n0 must be at least 1"), ("--bins", "bins must be at least 1"),
    ])
    def test_out_of_range_config_rejected_before_loading(
        self, method, flag, message, iris_path, tmp_path, capsys, monkeypatch
    ):
        loads = []
        monkeypatch.setattr(cli, "_load_dataset", lambda *args: loads.append(args))
        scheme_path = tmp_path / "scheme.json"
        code = main(["discretize", str(iris_path), "--method", method, flag, "0",
                     "--output", str(scheme_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loads == [] and not scheme_path.exists()

    def test_missing_file(self, tmp_path):
        assert main(["discretize", str(tmp_path / "absent.csv")]) == 2


class TestSchemaSidecar:
    """A sidecar line must name an attribute column of the CSV it hints."""

    @pytest.fixture()
    def misspelt(self, tmp_path):
        path = tmp_path / "iris.schema"
        path.write_text("sepal_length,numeric\nspeakr,categorical\n")
        return path

    @pytest.mark.parametrize("command", [
        ["discretize"], ["train", "--output", "model.json"],
    ], ids=["discretize", "train"])
    def test_unknown_column_usage_error(self, command, misspelt, iris_path, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([command[0], str(iris_path), "--schema", str(misspelt), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {misspelt}: no attribute column of {iris_path} is named ['speakr']\n"
        assert not (tmp_path / "model.json").exists()

    def test_bench_reports_the_dataset_failed(self, misspelt, iris_path, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "folds": 2, "output_dir": str(tmp_path / "out"), "configs": [{"method": "mdlp"}],
            "datasets": [{"name": "iris", "path": str(iris_path), "schema": str(misspelt)}],
        }))
        assert main(["bench", str(manifest)]) == 1
        assert "failed: iris: " in capsys.readouterr().err
        assert json.loads((tmp_path / "out" / "results.json").read_text())["runs"] == []

    def test_known_columns_accepted(self, iris_path, tmp_path, capsys):
        sidecar = tmp_path / "iris.schema"
        sidecar.write_text("sepal_length,categorical\n")
        assert main(["discretize", str(iris_path), "--schema", str(sidecar)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:-1]] == [
            "sepal_width", "petal_length", "petal_width"
        ]


class TestCurveCommand:
    def test_single_row(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["curve", "--n-min", "2", "--n-max", "2", "--output", str(out)])
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["n", "raw", "n0_100", "n0_2000"]
        assert rows[1][0] == "2"
        assert float(rows[1][1]) == 0.0

    def test_default_n0_columns(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--n-max", "50", "--output", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        n = [int(r[0]) for r in rows[1:]]
        raw = [float(r[1]) for r in rows[1:]]
        scaled_100 = [float(r[2]) for r in rows[1:]]
        scaled_2000 = [float(r[3]) for r in rows[1:]]
        assert n[0] == 2 and n[-1] == 50
        i = n.index(6)
        assert scaled_2000[i] == pytest.approx(0.5 * raw[i], rel=2e-3)
        assert abs(scaled_100[i] - scaled_2000[i]) < 0.01
        # the scaled curve never crosses the raw curve
        assert all(s <= r for s, r in zip(scaled_100, raw))

    def test_bad_range(self):
        assert main(["curve", "--n-min", "1"]) == 2
        assert main(["curve", "--n-min", "10", "--n-max", "5"]) == 2

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_n_step_below_one_rejected(self, step, capsys):
        assert main(["curve", "--n-max", "10", "--n-step", step]) == 2
        captured = capsys.readouterr()
        assert "--n-step must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n0", ["0", "-1000"])
    def test_n0_below_one_rejected(self, n0, capsys):
        assert main(["curve", "--n0", "100", n0, "--n-max", "10"]) == 2
        captured = capsys.readouterr()
        assert "n0 must be at least 1" in captured.err
        assert captured.out == ""


class TestTrainPredict:
    def test_round_trip_accuracy(self, separable_csv, tmp_path):
        model_path = tmp_path / "model.json"
        preds_path = tmp_path / "preds.csv"
        assert main(
            [
                "train",
                str(separable_csv),
                "--method",
                "sadd",
                "--classifier",
                "rnb",
                "--max-iter",
                "50",
                "--output",
                str(model_path),
            ]
        ) == 0
        assert main(
            ["predict", str(model_path), str(separable_csv), "--output", str(preds_path)]
        ) == 0

        rows = list(csv.reader(preds_path.open()))
        assert rows[0][0] == "predicted"
        truth = ["A"] * 30 + ["B"] * 30
        predictions = [r[0] for r in rows[1:]]
        assert predictions == truth
        for row in rows[1:]:
            assert math.fsum(float(v) for v in row[1:]) == pytest.approx(1.0, abs=1e-9)

    def test_schema_mismatch(self, separable_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", str(separable_csv), "--output", str(model_path), "--max-iter", "0"])
        bad = tmp_path / "bad.csv"
        bad.write_text("x,class\n1.0,A\n")
        assert main(["predict", str(model_path), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "schema mismatch: model expects columns ['x', 'color'], file has ['x']" in err

    def test_reordered_columns_rejected(self, separable_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", str(separable_csv), "--output", str(model_path), "--max-iter", "0"])
        swapped = tmp_path / "swapped.csv"
        swapped.write_text("color,x,class\nred,0.1,A\n")
        assert main(["predict", str(model_path), str(swapped)]) == 2
        err = capsys.readouterr().err
        assert "model expects columns ['x', 'color'], file has ['color', 'x']" in err

    def test_untagged_json_is_not_a_model(self, separable_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", str(separable_csv), "--output", str(model_path), "--max-iter", "0"])
        doc = json.loads(model_path.read_text())
        del doc["format"]
        model_path.write_text(json.dumps(doc))
        assert main(["predict", str(model_path), str(separable_csv)]) == 2
        assert capsys.readouterr().err == f"error: {model_path}: not a model file\n"

    def test_empty_missing_token_overrides_model(self, separable_csv, tmp_path):
        # the model keeps its training token `?`; an explicit empty token still wins
        model_path = tmp_path / "model.json"
        main(["train", str(separable_csv), "--output", str(model_path), "--max-iter", "0"])
        blank = tmp_path / "blank.csv"
        blank.write_text("x,color,class\n,red,A\n5.5,blue,B\n")
        preds_path = tmp_path / "preds.csv"
        argv = ["predict", str(model_path), str(blank), "--missing-token", "", "--output"]
        assert main([*argv, str(preds_path)]) == 0
        assert [row[0] for row in csv.reader(preds_path.open())] == ["predicted", "A", "B"]

    def test_missing_model(self, separable_csv, tmp_path):
        code = main(["predict", str(tmp_path / "no_model.json"), str(separable_csv)])
        assert code == 2

    def test_unseen_category_still_predicts(self, separable_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", str(separable_csv), "--output", str(model_path), "--max-iter", "0"])
        query = tmp_path / "query.csv"
        query.write_text("x,color,class\n0.1,green,unknown\n")
        capsys.readouterr()
        assert main(["predict", str(model_path), str(query)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("A,")


    def test_cli_matches_library(self, iris_path, iris, tmp_path):
        model_path = tmp_path / "model.json"
        preds_path = tmp_path / "preds.csv"
        assert main(["train", str(iris_path), "--classifier", "wanbia", "--max-iter", "20",
                     "--output", str(model_path)]) == 0
        assert main(["predict", str(model_path), str(iris_path), "--output", str(preds_path)]) == 0
        rows = list(csv.reader(preds_path.open()))[1:]

        config = PipelineConfig(method="sadd", classifier="wanbia", max_iter=20)
        labels, posteriors = fit_pipeline(iris, config)[0].predict(iris)
        assert [r[0] for r in rows] == labels.tolist()
        assert np.array_equal([[float(v) for v in r[1:]] for r in rows], posteriors)

    def test_predict_quotes_labels_as_csv_writer_does(self, tmp_path):
        classes = ["a,b", 'q"x', " lead", ""]
        train = tmp_path / "quoted.csv"
        with train.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "class"])
            writer.writerows([c * 10 + i % 7, classes[c]] for i in range(20) for c in range(4))
        model_path = tmp_path / "model.json"
        preds_path = tmp_path / "preds.csv"
        assert main(["train", str(train), "--output", str(model_path)]) == 0
        assert main(["predict", str(model_path), str(train), "--output", str(preds_path)]) == 0

        fitted = FittedPipeline.from_dict(json.loads(model_path.read_text()))
        assert sorted(fitted.model.classes) == sorted(classes)
        labels, posteriors = fitted.predict(load_csv(train))
        with (tmp_path / "want.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["predicted"] + [f"p_{c}" for c in fitted.model.classes])
            for label, row in zip(labels, posteriors):
                writer.writerow([label] + [repr(float(p)) for p in row])
        assert preds_path.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert set(labels) == set(classes)

    def test_seed_flag_is_a_usage_error(self, separable_csv, tmp_path, capsys):
        # train draws nothing, so it takes no seed
        model_path = tmp_path / "model.json"
        with pytest.raises(SystemExit) as exit_:
            main(["train", str(separable_csv), "--seed", "7", "--output", str(model_path)])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not model_path.exists()

    def test_duplicate_column_names_rejected(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        data.write_text("a,a,class\n" + "".join(f"{i},{i % 7},{'pq'[i % 2]}\n" for i in range(20)))
        model_path = tmp_path / "model.json"
        assert main(["train", str(data), "--output", str(model_path)]) == 2
        assert "duplicate attribute names: ['a']" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--method", "mdlp", "--n0", "0"], "n0 must be at least 1"),
        (["--method", "eqw", "--bins", "0"], "bins must be at least 1"),
    ])
    def test_out_of_range_config_rejected_before_loading(
        self, flags, message, separable_csv, tmp_path, capsys, monkeypatch
    ):
        loads = []
        monkeypatch.setattr(cli, "_load_dataset", lambda *args: loads.append(args))
        model_path = tmp_path / "model.json"
        assert main(["train", str(separable_csv), *flags, "--output", str(model_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert loads == [] and not model_path.exists()

    def test_negative_max_iter_rejected(self, separable_csv, tmp_path, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "_load_dataset", lambda *args: loads.append(args))
        model_path = tmp_path / "model.json"
        code = main(["train", str(separable_csv), "--max-iter", "-1", "--output", str(model_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: max_iter must be at least 0\n"
        assert loads == [] and not model_path.exists()



def _predict_reference(model_path, path, want):
    """What `predict` wrote before it streamed: the whole file scored at once."""
    fitted = FittedPipeline.from_dict(json.loads(Path(model_path).read_text()))
    hint = dict(zip(fitted.scheme.names, fitted.scheme.kinds))
    labels, posteriors = fitted.predict(load_csv(path, schema_hint=hint))
    with open(want, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["predicted"] + [f"p_{c}" for c in fitted.model.classes])
        writer.writerows([label] + [repr(float(p)) for p in row]
                         for label, row in zip(labels, posteriors))
    return Path(want).read_bytes()


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([header, *rows])
    return path


STREAM_COLORS = ["red", "re,d", "new\nline"]
STREAM_CLASSES = ["a,b", 'q"x', "plain"]


@pytest.fixture(scope="module")
def stream_model(tmp_path_factory):
    """A model over one numeric and one categorical column with quoted tokens and labels."""
    directory = tmp_path_factory.mktemp("stream")
    rows = [[f"{c * 3 + i % 4}", STREAM_COLORS[(c + i) % 3], STREAM_CLASSES[c]]
            for i in range(30) for c in range(3)]
    train = _write_rows(directory / "train.csv", ["x", "color", "class"], rows)
    model_path = directory / "model.json"
    assert main(["train", str(train), "--max-iter", "20", "--output", str(model_path)]) == 0
    return model_path


class TestStreamingPredict:
    """`predict` scores its input in blocks of `cli.PREDICT_BLOCK_ROWS` records."""

    @settings(max_examples=25)
    @given(rows=st.lists(st.tuples(
        st.one_of(st.just("?"), st.floats(-5, 15).map(repr), st.integers(-3, 12).map(str)),
        st.sampled_from(STREAM_COLORS + ["unseen", "?", "new\nblue"]),
        st.sampled_from(STREAM_CLASSES + ["", "other"]),
    ), min_size=1, max_size=9))
    def test_block_size_changes_no_byte(self, stream_model, tmp_path_factory, rows):
        directory = tmp_path_factory.mktemp("blocks")
        scored = _write_rows(directory / "scored.csv", ["x", "color", "class"], rows)
        want = _predict_reference(stream_model, scored, directory / "want.csv")
        n = len(rows)
        for block in sorted({1, 2, 3, 7, n - 1, n, n + 1} - {0}):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "PREDICT_BLOCK_ROWS", block)
                argv = ["predict", str(stream_model), str(scored), "--output", str(directory / "p")]
                assert main(argv) == 0
            assert (directory / "p").read_bytes() == want, block

    def test_quoted_newline_record_on_a_block_boundary(self, stream_model, tmp_path, monkeypatch):
        # csv.reader records, not raw lines, make the blocks: the second record spans two lines
        rows = [["1", "red", "plain"], ["4", "new\nline", "plain"], ["7", "new\nline", ""]]
        scored = _write_rows(tmp_path / "scored.csv", ["x", "color", "class"], rows)
        monkeypatch.setattr(cli, "PREDICT_BLOCK_ROWS", 2)
        preds = tmp_path / "preds.csv"
        assert main(["predict", str(stream_model), str(scored), "--output", str(preds)]) == 0
        assert preds.read_bytes() == _predict_reference(stream_model, scored, tmp_path / "want.csv")
        assert len(list(csv.reader(preds.open(newline="")))) == 4

    @pytest.mark.parametrize("text, message", [
        ("", "{path}: empty file"),
        ("class\nA\n", "{path}: need at least one attribute column plus the class column"),
        ("x,color,class\n", "{path}: no data rows"),
        ("x,class\n1.0,A\n",
         "schema mismatch: model expects columns ['x', 'color'], file has ['x']"),
    ], ids=["empty", "one-column", "header-only", "schema-mismatch"])
    def test_file_level_errors_leave_the_output_alone(
        self, text, message, separable_csv, tmp_path, capsys
    ):
        model_path = tmp_path / "model.json"
        main(["train", str(separable_csv), "--output", str(model_path), "--max-iter", "0"])
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        preds = tmp_path / "preds.csv"
        preds.write_bytes(b"earlier bytes\n")
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert main(["predict", str(model_path), str(bad), "--output", str(preds)]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(path=bad)}\n")
        assert preds.read_bytes() == b"earlier bytes\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("bad_row", [["abc", "red", "A"], ["5.0", "blue"]],
                             ids=["unparseable-cell", "short-record"])
    def test_later_block_error_names_the_file_row(
        self, bad_row, separable_csv, tmp_path, capsys, monkeypatch
    ):
        model_path = tmp_path / "model.json"
        main(["train", str(separable_csv), "--output", str(model_path), "--max-iter", "0"])
        rows = [[f"{i / 2}", "red", "A"] for i in range(7)]
        rows[5] = bad_row  # file row 7, in the second block of three
        scored = _write_rows(tmp_path / "scored.csv", ["x", "color", "class"], rows)
        fitted = FittedPipeline.from_dict(json.loads(model_path.read_text()))
        with pytest.raises(ValueError) as whole_file:
            load_csv(scored, schema_hint=dict(zip(fitted.scheme.names, fitted.scheme.kinds)))
        assert "row 7" in str(whole_file.value)
        monkeypatch.setattr(cli, "PREDICT_BLOCK_ROWS", 3)
        preds = tmp_path / "preds.csv"
        preds.write_bytes(b"earlier bytes\n")
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert main(["predict", str(model_path), str(scored), "--output", str(preds)]) == 2
        assert capsys.readouterr().err == f"error: {whole_file.value}\n"
        assert preds.read_bytes() == b"earlier bytes\n"
        assert sorted(os.listdir(tmp_path)) == before
        # to stdout, the header and the first block are printed before the error
        assert main(["predict", str(model_path), str(scored)]) == 2
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 4 and err == f"error: {whole_file.value}\n"

    def test_placeholder_labels_are_not_read(self, iris_path, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(["train", str(iris_path), "--max-iter", "20", "--output", str(model_path)]) == 0
        header, *rows = list(csv.reader(iris_path.open(newline="")))
        outputs = []
        for placeholder in ("?", ""):
            scored = _write_rows(tmp_path / "scored.csv", header,
                                 [[*row[:-1], placeholder] for row in rows[:2]])
            preds = tmp_path / f"preds{len(outputs)}.csv"
            assert main(["predict", str(model_path), str(scored), "--output", str(preds)]) == 0
            outputs.append(preds.read_bytes())
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 3

    def test_peak_memory_does_not_grow_with_the_file(self, separable_csv, tmp_path, monkeypatch):
        model_path = tmp_path / "model.json"
        main(["train", str(separable_csv), "--output", str(model_path), "--max-iter", "0"])
        monkeypatch.setattr(cli, "PREDICT_BLOCK_ROWS", 256)
        peaks = []
        for blocks in (2, 20):
            rows = [[f"{i % 97 / 10}", ("red", "blue")[i % 2], "A"] for i in range(256 * blocks)]
            scored = _write_rows(tmp_path / f"scored{blocks}.csv", ["x", "color", "class"], rows)
            tracemalloc.start()
            try:
                argv = ["predict", str(model_path), str(scored), "--output", str(tmp_path / "p")]
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


def write_manifest(tmp_path, iris_path, configs, **extra):
    manifest = {
        "seed": 0,
        "folds": 10,
        "output_dir": str(tmp_path / "out"),
        "datasets": [{"name": "iris", "path": str(iris_path)}],
        "configs": configs,
        **extra,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestBenchCommand:
    def test_two_config_manifest(self, iris_path, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            iris_path,
            [
                {"method": "sadd", "classifier": "nb"},
                {"method": "mdlp", "classifier": "nb"},
            ],
        )
        assert main(["bench", str(manifest)]) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["seed"] == 0
        assert len(results["runs"]) == 2
        assert (tmp_path / "out" / "results.txt").exists()
        table = capsys.readouterr().out
        assert "iris" in table and "sadd+nb" in table

    def test_results_json_is_strict(self, tmp_path):
        # all-categorical data has no diagnostics averages
        cat = tmp_path / "cat.csv"
        cat.write_text("color,shape,class\n" + "".join(
            f"{'red' if i % 3 else 'blue'},{'box' if i % 2 else 'ball'},{'A' if i % 3 else 'B'}\n"
            for i in range(12)
        ))
        assert main(["bench", "--dataset", str(cat), "--method", "mdlp", "--folds", "3",
                     "--output-dir", str(tmp_path / "cat")]) == 0
        doc = strict_json((tmp_path / "cat" / "results.json").read_text())
        assert doc["runs"][0]["diagnostics"]["avg_intervals"] is None
        # every fold holds 3 "a" rows and 1 "b" row: 2 bins split them, 1 bin
        # scores 0.75, so the fold differences are all 0.25 and t is +inf
        xs = tmp_path / "xs.csv"
        xs.write_text("x,class\n" + "".join(f"{i},a\n" for i in range(9))
                      + "".join(f"{20 + i},b\n" for i in range(3)))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "folds": 3, "output_dir": str(tmp_path / "xs"),
            "datasets": [{"name": "xs", "path": str(xs)}],
            "configs": [{"method": "eqw", "bins": 2}, {"method": "eqw", "bins": 1}],
        }))
        assert main(["bench", str(manifest)]) == 0
        doc = strict_json((tmp_path / "xs" / "results.json").read_text())
        assert [run["fold_accuracies"] for run in doc["runs"]] == [[1.0] * 3, [0.75] * 3]
        assert doc["runs"][1]["vs_first"]["t"] is None
        assert doc["runs"][1]["vs_first"]["p"] == 0.0

    def test_empty_manifest_usage_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"datasets": [], "configs": []}))
        assert main(["bench", str(path)]) == 2

    @pytest.mark.parametrize("change", [
        lambda m: [m],
        lambda m: {**m, "datasets": "abc"},
        lambda m: {**m, "configs": 5},
        lambda m: {**m, "configs": [1]},
        lambda m: {**m, "configs": [{"k_grid": None}]},
        lambda m: {**m, "configs": [{"labeled_fraction": "0.5"}]},
        lambda m: {**m, "configs": [{"seed": "1"}]},
        lambda m: {**m, "output_dir": 5},
        lambda m: {**m, "folds": 2.9},
        lambda m: {**m, "seed": True},
        lambda m: {**m, "datasets": [{**m["datasets"][0], "schema": 5}]},
        lambda m: {**m, "datasets": [*m["datasets"], {"name": "iris", "path": "other.csv"}]},
        lambda m: {**m, "configs": [{"method": "sadd", "n0": 0}]},
        lambda m: {**m, "configs": [{"method": "mdlp", "n0": 0}]},
        lambda m: {**m, "configs": [{"method": "eqw", "bins": 0}]},
        lambda m: {**m, "configs": [{"k_grid": []}]},
        lambda m: {**m, "configs": [{"k_grid": [3, 0]}]},
        lambda m: {**m, "configs": [{"max_iter": -1}]},
    ], ids=["list", "datasets-string", "configs-number", "config-number", "k_grid-null",
            "labeled_fraction-string", "seed-string", "output_dir-number", "folds-float",
            "seed-bool", "schema-number", "dataset-name-repeated", "n0-zero", "mdlp-n0-zero",
            "bins-zero", "k_grid-empty", "k_grid-zero", "max_iter-negative"])
    def test_malformed_manifest_usage_error(
        self, change, iris_path, tmp_path, capsys, monkeypatch
    ):
        loads = []
        monkeypatch.setattr(cli, "_load_dataset", lambda *args: loads.append(args))
        manifest = write_manifest(tmp_path, iris_path, [{"method": "mdlp"}])
        manifest.write_text(json.dumps(change(json.loads(manifest.read_text()))))
        assert main(["bench", str(manifest)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert loads == []
        assert not (tmp_path / "out").exists()

    def test_neither_manifest_nor_dataset_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench"]) == 2
        assert capsys.readouterr().err == "error: either a manifest or --dataset is required\n"
        assert not any(tmp_path.iterdir())

    def test_unknown_config_field_usage_error(self, iris_path, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path, iris_path, [{"method": "mdlp", "clasifier": "nb"}]
        )
        assert main(["bench", str(manifest)]) == 2
        assert "unknown config fields" in capsys.readouterr().err

    def test_byte_identical_reruns(self, iris_path, tmp_path):
        manifest = write_manifest(
            tmp_path, iris_path, [{"method": "mdlp", "classifier": "nb"}]
        )
        assert main(["bench", str(manifest)]) == 0
        first = (tmp_path / "out" / "results.json").read_bytes()
        assert main(["bench", str(manifest)]) == 0
        assert (tmp_path / "out" / "results.json").read_bytes() == first

    def test_single_dataset_flags(self, iris_path, tmp_path):
        out = tmp_path / "flagout"
        code = main(
            [
                "bench",
                "--dataset",
                str(iris_path),
                "--method",
                "eqf",
                "--bins",
                "8",
                "--folds",
                "5",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["runs"][0]["config"]["method"] == "eqf"
        assert results["runs"][0]["config"]["bins"] == 8
        assert len(results["runs"][0]["fold_accuracies"]) == 5

    def test_inductive_flag(self, iris_path, tmp_path):
        out = tmp_path / "ind"
        code = main(
            [
                "bench",
                "--dataset",
                str(iris_path),
                "--method",
                "sadd",
                "--inductive",
                "--folds",
                "5",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["runs"][0]["config"]["transductive"] is False

    def test_custom_missing_token(self, tmp_path, capsys):
        path = tmp_path / "na.csv"
        path.write_text("x,class\n1.0,A\nNA,A\n2.0,B\n5.0,B\n")
        assert main(["discretize", str(path), "--missing-token", "NA"]) == 0
        assert "AVG" in capsys.readouterr().out

    def test_partial_label_manifest(self, iris_path, tmp_path):
        manifest = write_manifest(
            tmp_path,
            iris_path,
            [{"method": "sadd", "classifier": "nb", "labeled_fraction": 0.4}],
        )
        assert main(["bench", str(manifest)]) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["runs"][0]["config"]["labeled_fraction"] == 0.4

    def test_failed_run_reported_and_exit_nonzero(self, iris_path, tmp_path, capsys):
        # second dataset path is missing: its runs fail, the rest complete
        manifest = write_manifest(
            tmp_path,
            iris_path,
            [{"method": "mdlp", "classifier": "nb"}],
        )
        doc = json.loads(manifest.read_text())
        doc["datasets"].append({"name": "ghost", "path": str(tmp_path / "ghost.csv")})
        manifest.write_text(json.dumps(doc))
        assert main(["bench", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert "failed: ghost" in captured.err
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert len(results["runs"]) == 1

    def test_failed_run_names_config_hash_stage_and_fold(self, iris_path, tmp_path, capsys):
        config = {"method": "sadd", "classifier": "nb", "labeled_fraction": 0.05}
        manifest = write_manifest(tmp_path, iris_path, [config])
        assert main(["bench", str(manifest)]) == 1
        digest = config_hash(config_from_dict({**config, "seed": 0}))
        assert (
            f"failed: iris / sadd+nb@0.05 (config {digest}): [pseudo-label] fold 0: "
            "need at least 9 labeled rows" in capsys.readouterr().err
        )

    def test_parallel_jobs_match_serial(self, iris_path, tmp_path):
        manifest = write_manifest(
            tmp_path,
            iris_path,
            [
                {"method": "mdlp", "classifier": "nb"},
                {"method": "eqw", "classifier": "nb"},
                {"method": "sadd", "classifier": "nb", "pseudo_label": False},
            ],
        )
        assert main(["bench", str(manifest)]) == 0
        serial = (tmp_path / "out" / "results.json").read_bytes()
        assert main(["bench", str(manifest), "--jobs", "2"]) == 0
        assert (tmp_path / "out" / "results.json").read_bytes() == serial

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, jobs, iris_path, tmp_path, capsys):
        manifest = write_manifest(tmp_path, iris_path, [{"method": "mdlp", "classifier": "nb"}])
        assert main(["bench", str(manifest), "--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_leaves_no_output_directory(self, iris_path, tmp_path, capsys):
        manifest = write_manifest(tmp_path, iris_path, [{"method": "mdlp", "clasifier": "nb"}])
        assert main(["bench", str(manifest)]) == 2
        assert "unknown config fields" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, extra", [(["--folds", "1"], {}), (["--folds", "0"], {}), ([], {"folds": 1})]
    )
    def test_folds_below_two_rejected(self, flags, extra, iris_path, tmp_path, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr("nbdisc.cli._load_dataset", lambda *args: loads.append(args))
        configs = [{"method": "mdlp", "classifier": "nb"}]
        manifest = write_manifest(tmp_path, iris_path, configs, **extra)
        assert main(["bench", str(manifest), *flags]) == 2
        assert capsys.readouterr().err == "error: folds must be at least 2\n"
        assert not loads and not (tmp_path / "out").exists()

    def test_flags_override_the_manifest(self, iris_path, tmp_path):
        # the manifest sets seed 0, 10 folds and output_dir out/
        manifest = write_manifest(tmp_path, iris_path, [{"method": "mdlp", "classifier": "nb"}])
        out = tmp_path / "out_x"
        assert main(["bench", str(manifest), "--output-dir", str(out)]) == 0
        assert (out / "results.json").exists()
        assert not (tmp_path / "out").exists()

        assert main(["bench", str(manifest), "--output-dir", str(out), "--seed", "5"]) == 0
        run = json.loads((out / "results.json").read_text())["runs"][0]
        assert run["config"]["seed"] == 5 and run["folds"] == 10

        assert main(["bench", str(manifest), "--output-dir", str(out), "--folds", "3"]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["seed"] == 0 and results["runs"][0]["folds"] == 3

    def test_pipeline_flags_set_every_manifest_config(self, iris_path, tmp_path):
        manifest = write_manifest(tmp_path, iris_path, [
            {"method": "sadd", "classifier": "nb", "seed": 3, "max_iter": 5},
            {"method": "eqw", "classifier": "rnb", "bins": 4, "max_iter": 5},
        ], folds=3)
        assert main(["bench", str(manifest), "--method", "mdlp", "--classifier", "wanbia",
                     "--labeled-fraction", "0.5", "--inductive", "--seed", "7"]) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["seed"] == 7
        given = {"method": "mdlp", "classifier": "wanbia", "labeled_fraction": 0.5,
                 "transductive": False, "seed": 7, "max_iter": 5}
        configs = [run["config"] for run in results["runs"]]
        assert [{key: config[key] for key in given} for config in configs] == [given, given]
        assert [config["bins"] for config in configs] == [PipelineConfig().bins, 4]

    def test_dataset_flag_replaces_the_manifest_datasets(self, iris_path, toy_mixed_path, tmp_path):
        manifest = write_manifest(tmp_path, iris_path, [{"method": "mdlp"}], folds=3)
        assert main(["bench", str(manifest), "--dataset", str(toy_mixed_path)]) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert [run["dataset"] for run in results["runs"]] == ["toy_mixed"]

    def test_flags_alone_match_a_manifest_of_the_same_config(self, iris_path, tmp_path):
        flags = tmp_path / "flags"
        assert main(["bench", "--dataset", str(iris_path), "--method", "eqf", "--bins", "8",
                     "--labeled-fraction", "0.6", "--folds", "5", "--output-dir", str(flags)]) == 0
        manifest = write_manifest(tmp_path, iris_path,
                                  [{"method": "eqf", "bins": 8, "labeled_fraction": 0.6}], folds=5)
        assert main(["bench", str(manifest)]) == 0
        for name in ("results.json", "results.txt"):
            assert (flags / name).read_bytes() == (tmp_path / "out" / name).read_bytes()

    def test_manifest_values_win_over_flag_defaults(self, iris_path, tmp_path):
        manifest = write_manifest(
            tmp_path, iris_path, [{"method": "mdlp", "classifier": "nb"}], seed=4, folds=3
        )
        assert main(["bench", str(manifest)]) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["seed"] == 4 and results["runs"][0]["folds"] == 3

    @pytest.mark.parametrize(
        "datasets, configs",
        [
            (
                ["iris"],
                [
                    # three configs share imputation, k-NN, scheme and fit_nb
                    {"method": "sadd", "classifier": "nb"},
                    {"method": "sadd", "classifier": "wanbia", "max_iter": 5},
                    {"method": "sadd", "classifier": "rnb", "max_iter": 5, "labeled_fraction": 0.5},
                    # shares only imputation
                    {"method": "eqw", "classifier": "cawnb", "max_iter": 5},
                    # a second fold plan
                    {"method": "mdlp", "classifier": "nb", "seed": 1},
                    {"method": "sadd", "classifier": "nb", "pseudo_label": False, "seed": 1},
                    # fails on every fold at the pseudo-label stage
                    {"method": "sadd", "classifier": "nb", "labeled_fraction": 0.05},
                ],
            ),
            (
                ["iris", "toy"],
                [
                    {"method": "mdlp", "classifier": "nb"},
                    {"method": "mdlp", "classifier": "wanbia", "max_iter": 5},
                    # fails on toy's folds (too few labeled rows), runs on iris
                    {"method": "sadd", "classifier": "nb", "labeled_fraction": 0.5,
                     "transductive": False},
                    {"method": "eqf", "classifier": "nb", "seed": 2},
                ],
            ),
        ],
    )
    def test_outputs_do_not_depend_on_jobs(
        self, datasets, configs, iris_path, toy_mixed_path, tmp_path, capsys
    ):
        paths = {"iris": iris_path, "toy": toy_mixed_path}
        manifest = write_manifest(tmp_path, iris_path, configs, folds=3)
        doc = json.loads(manifest.read_text())
        doc["datasets"] = [{"name": name, "path": str(paths[name])} for name in datasets]
        manifest.write_text(json.dumps(doc))
        seen = []
        for jobs in ("1", "2", "3"):
            code = main(["bench", str(manifest), "--jobs", jobs])
            captured = capsys.readouterr()
            out = tmp_path / "out"
            seen.append((
                code,
                (out / "results.json").read_bytes(),
                (out / "results.txt").read_bytes(),
                captured.out,
                captured.err,
            ))
        assert seen[0][0] == 1 and "failed: " in seen[0][4]
        assert seen[1] == seen[0] and seen[2] == seen[0]

    def test_configs_on_the_same_rows_share_split_nodes(self, iris_path, tmp_path, monkeypatch):
        calls = count_node_evaluations(monkeypatch)

        def evaluations(*configs):
            calls.clear()
            assert main(["bench", str(write_manifest(tmp_path, iris_path, list(configs)))]) == 0
            return len(calls)

        sadd = {"method": "sadd", "classifier": "nb", "pseudo_label": False}
        mdlp = {"method": "mdlp", "classifier": "nb"}
        alone = evaluations(sadd)
        assert evaluations(mdlp) > 0
        # the mdlp trees are subtrees of the sadd trees on the same rows
        assert evaluations(sadd, mdlp, {"method": "eqf", "classifier": "nb"}) <= alone
        assert evaluations(mdlp, sadd) <= alone


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of the import time; only scipy.special is needed
    code = "import sys, nbdisc.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(nbdisc.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_import_loads_no_scipy():
    code = "import sys, nbdisc.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = dict(os.environ, PYTHONPATH=str(Path(nbdisc.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
