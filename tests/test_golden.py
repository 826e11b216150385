"""Golden outputs: whole output files compared byte for byte.

Each case runs ``nbdisc`` in process and compares every file it writes
with the copy under ``tests/golden/<case>/``.  The bench cases are the
benchmark's bench workloads at seed 0 with 3 folds, their input built with
``benchmarks/gen.py`` (loaded by path); ``train-predict`` is that workload's
shape shrunk to 2000 training and 2000 scored rows.  ``iris`` runs both
supervised discretizers with every classifier on ``tests/data/iris.csv``,
plus ``sadd+rnb`` at labeled fraction 0.3, and is also run with ``--jobs 2``.
``unseen-tokens`` reaches the codes for tokens outside a vocabulary: its
bench input carries a rare ``cat0`` token that the labeled rows of
``sadd+nb@0.1`` (transductive and inductive) mostly miss, so k-NN meets it
as an unknown category, and its ``train``/``predict`` round trip scores a
file with a token the training file lacks.  ``discretize`` runs ``nbdisc
discretize`` on iris with ``sadd`` and ``mdlp`` and keeps the scheme, the
diagnostics CSV and stdout of each; ``discretize-mixed`` does the same on
``tests/data/toy_mixed.csv``, whose categorical columns and ``?`` cells go
through imputation first; ``curve`` keeps the stdout of ``nbdisc curve``
with its default arguments.

Float bits may differ between library versions, so the files are only
valid for the Python and numpy versions in ``versions.json``.  A change
that is meant to move output bytes reruns ``tests/golden/regen.py`` and
says which bytes moved and why.
"""

from __future__ import annotations

import difflib
import io
import json
import platform
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from helpers import load_bench_gen
from nbdisc.cli import main

GOLDEN = Path(__file__).parent / "golden"
IRIS = Path(__file__).parent / "data" / "iris.csv"
TOY_MIXED = Path(__file__).parent / "data" / "toy_mixed.csv"
SEED = 0
FOLDS = 3
DIFF_LINES = 60

# case -> (gen.Shape fields, rows, bench configs)
BENCH_CASES = {
    "weighted-train": (
        {"numeric": 12, "categorical": 2, "classes": 5, "missing": 0.02, "separation": 0.35},
        1800,
        [{"method": "mdlp", "classifier": c, "max_iter": 100} for c in ("rnb", "wanbia", "cawnb")],
    ),
    "semi-supervised": (
        {"numeric": 6, "categorical": 2, "classes": 4, "missing": 0.05, "separation": 0.8},
        11000,
        [{"method": "sadd", "classifier": "nb", "labeled_fraction": 0.3}],
    ),
    "large-supervised": (
        {"numeric": 8, "categorical": 2, "classes": 3, "missing": 0.03, "separation": 0.8},
        18000,
        [
            {"method": "sadd", "classifier": "nb", "pseudo_label": False},
            {"method": "mdlp", "classifier": "nb"},
            {"method": "eqf", "classifier": "nb"},
        ],
    ),
}
IRIS_CONFIGS = [
    *({"method": m, "classifier": c} for m in ("mdlp", "sadd")
      for c in ("nb", "wanbia", "cawnb", "rnb")),
    {"method": "sadd", "classifier": "rnb", "labeled_fraction": 0.3},
]
# (gen.Shape fields, training rows, scored rows)
TRAIN_PREDICT = (
    {"numeric": 10, "categorical": 3, "classes": 6, "missing": 0.03, "separation": 0.8},
    2000,
    2000,
)
RARE_TOKEN = "v9"  # gen.py writes the levels v0..v4 only
# gen.Shape fields, and (rows, rows per rare token) of the bench input, the
# training file and the scored file
UNSEEN_SHAPE = {"numeric": 4, "categorical": 2, "classes": 3, "missing": 0.02, "separation": 0.8}
UNSEEN_ROWS = {"bench": (600, 150), "train": (800, None), "score": (800, 40)}
UNSEEN_CONFIGS = [
    {"method": "sadd", "classifier": "nb", "labeled_fraction": 0.1},
    {"method": "sadd", "classifier": "nb", "labeled_fraction": 0.1, "transductive": False},
]
DISCRETIZE_CASES = {"discretize": IRIS, "discretize-mixed": TOY_MIXED}
CASES = [*BENCH_CASES, "train-predict", "iris", "unseen-tokens", *DISCRETIZE_CASES, "curve"]


gen = load_bench_gen()


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _stdout_of(argv: list[str]) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode()


def _bench(name: str, data: Path, configs: list[dict], work: Path, jobs: int) -> list[Path]:
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({
        "seed": SEED,
        "folds": FOLDS,
        "output_dir": str(work / "out"),
        "datasets": [{"name": name, "path": str(data)}],
        "configs": configs,
    }))
    assert main(["bench", str(manifest), "--jobs", str(jobs)]) == 0
    return [work / "out" / "results.json", work / "out" / "results.txt"]


def _train_predict(data: Path, score: Path, work: Path, *train_args: str) -> list[Path]:
    model, preds = work / "model.json", work / "preds.csv"
    assert main(["train", str(data), *train_args, "--output", str(model)]) == 0
    assert main(["predict", str(model), str(score), "--output", str(preds)]) == 0
    return [model, preds]


def _unseen_records(part: str, stream: int) -> list[list[str]]:
    """gen.py rows with ``RARE_TOKEN`` as ``cat0`` of every so many rows."""
    rows, every = UNSEEN_ROWS[part]
    records = gen.generate(gen.Shape(**UNSEEN_SHAPE), rows, SEED, stream=stream)
    col = records[0].index("cat0")
    if every:
        for record in records[1::every]:
            record[col] = RARE_TOKEN
    return records


def produce(case: str, work: Path, jobs: int = 1) -> dict[str, bytes]:
    """Run ``case`` in ``work`` and return its output files by name."""
    data = work / "data.csv"
    if case == "curve":
        return {"curve.csv": _stdout_of(["curve"])}
    if case in DISCRETIZE_CASES:
        files = {}
        for method in ("sadd", "mdlp"):
            scheme, diag = work / f"{method}.scheme.json", work / f"{method}.diagnostics.csv"
            files[f"{method}.stdout.txt"] = _stdout_of(
                ["discretize", str(DISCRETIZE_CASES[case]), "--method", method,
                 "--output", str(scheme), "--diagnostics-out", str(diag)]
            )
            files.update({path.name: path.read_bytes() for path in (scheme, diag)})
        return files
    if case == "train-predict":
        shape, rows, scored = TRAIN_PREDICT
        score = work / "score.csv"
        gen.write(data, gen.generate(gen.Shape(**shape), rows, SEED))
        gen.write(score, gen.generate(gen.Shape(**shape), scored, SEED, stream=1))
        outputs = _train_predict(data, score, work, "--method", "sadd", "--classifier", "nb")
    elif case == "unseen-tokens":
        train, score = work / "train.csv", work / "score.csv"
        gen.write(data, _unseen_records("bench", 0))
        gen.write(train, _unseen_records("train", 1))
        gen.write(score, _unseen_records("score", 2))
        outputs = _bench(case, data, UNSEEN_CONFIGS, work, jobs) + _train_predict(
            train, score, work, "--method", "sadd", "--classifier", "rnb", "--max-iter", "100"
        )
    elif case == "iris":
        outputs = _bench(case, IRIS, IRIS_CONFIGS, work, jobs)
    else:
        shape, rows, configs = BENCH_CASES[case]
        gen.write(data, gen.generate(gen.Shape(**shape), rows, SEED))
        outputs = _bench(case, data, configs, work, jobs)
    return {path.name: path.read_bytes() for path in outputs}


def _assert_golden(case: str, got: dict[str, bytes]) -> None:
    """Fail unless ``got`` equals the golden files of ``case``; with other versions than
    the golden files were made with, fail in any case, naming the files that differ."""
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    want = {path.name: path.read_bytes() for path in (GOLDEN / case).iterdir()}
    if recorded != versions():
        differ = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
        pytest.fail(f"golden files were made with {recorded}, this run has {versions()}; "
                    + (f"files that differ: {differ}" if differ else "all files match"))
    assert sorted(got) == sorted(want)
    for name, data in got.items():
        if data != want[name]:
            diff = difflib.unified_diff(
                want[name].decode().splitlines(), data.decode().splitlines(),
                f"golden/{case}/{name}", f"{case}/{name}", lineterm="",
            )
            shown = list(diff)
            if len(shown) > DIFF_LINES:
                shown[DIFF_LINES:] = [f"... {len(shown) - DIFF_LINES} more diff lines"]
            pytest.fail(f"{case}/{name} differs from its golden file:\n" + "\n".join(shown))


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_files(case, tmp_path):
    _assert_golden(case, produce(case, tmp_path))


def test_iris_outputs_match_golden_files_with_two_jobs(tmp_path):
    _assert_golden("iris", produce("iris", tmp_path, jobs=2))


def test_version_mismatch_fails_after_comparing_the_bytes(tmp_path, monkeypatch):
    monkeypatch.setitem(globals(), "versions", lambda: {"python": "0", "numpy": "0"})
    got = produce("curve", tmp_path)
    with pytest.raises(pytest.fail.Exception, match="this run has .*; all files match$"):
        _assert_golden("curve", got)
    with pytest.raises(pytest.fail.Exception, match=r"; files that differ: \['curve.csv', 'x'\]$"):
        _assert_golden("curve", {"curve.csv": got["curve.csv"] + b"\n", "x": b""})
