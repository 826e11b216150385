"""Tests of the benchmark itself: generator, metric names, span arithmetic."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import spans
import traced

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# --- generator ------------------------------------------------------------------

SHAPE = gen.Shape(numeric=4, categorical=2, classes=3, missing=0.1, separation=1.0)


def test_same_seed_same_bytes(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    gen.write(a, gen.generate(SHAPE, 300, seed=7))
    gen.write(b, gen.generate(SHAPE, 300, seed=7))
    gen.write(c, gen.generate(SHAPE, 300, seed=8))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_streams_differ():
    assert gen.generate(SHAPE, 50, seed=1, stream=0) != gen.generate(SHAPE, 50, seed=1, stream=1)


def test_mixed_kinds_and_missing_cells():
    records = gen.generate(SHAPE, 2000, seed=3)
    header, rows = records[0], records[1:]
    assert header == ["x0", "x1", "x2", "x3", "cat0", "cat1", "class"]
    cells = [row[j] for row in rows for j in range(6)]
    share = cells.count("?") / len(cells)
    assert 0.08 < share < 0.12
    assert all(row[-1] in {"c0", "c1", "c2"} for row in rows)
    assert all(row[0] == "?" or float(row[0]) > 0 for row in rows)
    assert {row[4] for row in rows} == {"?", "v0", "v1", "v2", "v3", "v4"}


def _class_gap(separation: float) -> float:
    shape = gen.Shape(numeric=1, categorical=0, classes=2, missing=0.0, separation=separation)
    rows = gen.generate(shape, 4000, seed=5)[1:]
    by_class: dict[str, list[float]] = {}
    for x, label in rows:
        by_class.setdefault(label, []).append(float(x))
    means = [sum(v) / len(v) for _, v in sorted(by_class.items())]
    return abs(means[0] - means[1])


def test_separation_controls_class_gap():
    assert _class_gap(0.0) < 0.1 < _class_gap(1.0) < _class_gap(2.0)


# --- metric names ---------------------------------------------------------------


def test_metric_names_and_units():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    assert not set(run.END_TO_END) & set(run.PER_LAYER)


def test_benchmark_json_matches_run_py():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        assert workload in json.loads(run.EXPECTED.read_text())


# --- span arithmetic ------------------------------------------------------------


def _span(id, parent, name, start, end, **extra):
    return {"run": "r", "id": id, "parent": parent, "name": name,
            "start": start, "end": end, **extra}


# cli.main [0, 10]
#   evaluate.cross_validate [1, 9]
#     evaluate.run_fold [1, 4]
#       discretize.build_scheme [1.5, 2.5] cuts=3
#       weighted_nb.train_rnb [2.5, 3.5] iters=5 of 5
#     evaluate.run_fold [4, 7]
#       discretize.build_scheme [4, 5] cuts=2
#     discretize.build_scheme [7.5, 8.5] cuts=4
#   evaluate.emit_report [9, 9.5]
TREE = [
    _span(0, None, "cli.main", 0.0, 10.0),
    _span(1, 0, "evaluate.cross_validate", 1.0, 9.0),
    _span(2, 1, "evaluate.run_fold", 1.0, 4.0),
    _span(3, 2, "discretize.build_scheme", 1.5, 2.5, cuts=3),
    _span(4, 2, "weighted_nb.train_rnb", 2.5, 3.5, iters=5, max_iter=5),
    _span(5, 1, "evaluate.run_fold", 4.0, 7.0),
    _span(6, 5, "discretize.build_scheme", 4.0, 5.0, cuts=2),
    _span(7, 1, "discretize.build_scheme", 7.5, 8.5, cuts=4),
    _span(8, 0, "evaluate.emit_report", 9.0, 9.5),
]


def test_self_times():
    selfs = spans.self_times(TREE)
    assert selfs[("r", 0)] == pytest.approx(10.0 - 8.0 - 0.5)
    assert selfs[("r", 1)] == pytest.approx(8.0 - 3.0 - 3.0 - 1.0)
    assert selfs[("r", 2)] == pytest.approx(1.0)
    assert selfs[("r", 5)] == pytest.approx(2.0)
    assert selfs[("r", 3)] == pytest.approx(1.0)
    # self times partition the root's interval
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    tree = [_span(0, None, "a.x", 0.0, 10.0), _span(1, 0, "a.y", 1.0, 5.0),
            _span(2, 0, "a.z", 3.0, 6.0), _span(3, 0, "a.w", 9.0, 12.0)]
    assert spans.self_times(tree)[("r", 0)] == pytest.approx(10.0 - 5.0 - 1.0)


def test_inclusive_time_counts_nested_spans_once():
    tree = [_span(0, None, "a.f", 0.0, 4.0), _span(1, 0, "a.f", 1.0, 2.0),
            _span(2, None, "a.f", 5.0, 6.0)]
    assert spans.inclusive_s(tree, ("a.f",)) == pytest.approx(5.0)


def test_layer_metrics_from_tree():
    m = spans.layer_metrics(TREE)
    assert m["discretize.build_scheme_s"] == pytest.approx(3.0)
    assert m["discretize.build_scheme_calls"] == 3
    assert m["discretize.cuts"] == 9
    assert m["weighted_nb.train_iters"] == 5
    assert m["weighted_nb.train_capped"] == 1.0
    assert m["weighted_nb.train_ms_per_iter"] == pytest.approx(200.0)
    assert m["evaluate.fold_self_s"] == pytest.approx(3.0)
    assert m["evaluate.diagnostics_s"] == pytest.approx(2.0)
    assert m["evaluate.report_s"] == pytest.approx(0.5)
    assert m["evaluate.self_s"] == pytest.approx(1.0 + 3.0 + 0.5)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["pseudo.ns_per_pair"] == 0.0
    assert spans.fold_durations(TREE) == [3.0, 3.0]


def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    value, pct = spans.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0
    assert spans.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


# --- tracing --------------------------------------------------------------------


def test_recorder_links_parents():
    recorder = traced.Recorder("t")

    def leaf(x):
        return x + 1

    leaf_traced = recorder.wrap("m.leaf", leaf)
    outer = recorder.wrap("m.outer", lambda x: leaf_traced(x) * 2)
    assert outer(1) == 4
    by_name = {s["name"]: s for s in recorder.spans}
    assert by_name["m.leaf"]["parent"] == by_name["m.outer"]["id"]
    assert by_name["m.outer"]["parent"] is None
    assert by_name["m.outer"]["start"] <= by_name["m.leaf"]["start"]


def test_traced_results_match_untraced(tmp_path):
    gen.write(tmp_path / "d.csv", gen.generate(SHAPE, 150, seed=2))
    manifest = {"seed": 0, "folds": 2, "output_dir": "out",
                "datasets": [{"name": "d", "path": "d.csv"}],
                "configs": [{"method": "sadd", "classifier": "wanbia", "max_iter": 5,
                             "labeled_fraction": 0.5}]}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    env = run.child_env()
    plain = [sys.executable, "-m", "nbdisc.cli", "bench", "m.json"]
    subprocess.run(plain, cwd=tmp_path, env=env, check=True, capture_output=True)
    untraced = (tmp_path / "out" / "results.json").read_bytes()
    command = [sys.executable, str(BENCH / "traced.py"), "s.jsonl", "t", "--", "bench", "m.json"]
    subprocess.run(command, cwd=tmp_path, env=env, check=True, capture_output=True)
    assert (tmp_path / "out" / "results.json").read_bytes() == untraced
    recorded = spans.read_jsonl(tmp_path / "s.jsonl")
    names = {s["name"] for s in recorded}
    assert {"cli.main", "evaluate.run_fold", "pseudo.pseudo_label",
            "pseudo._distance_sq", "weighted_nb.train_wanbia"} <= names
    metrics = spans.layer_metrics(recorded)
    assert metrics["pseudo.distance_pairs"] > 0
    assert metrics["weighted_nb.train_iters"] > 0
