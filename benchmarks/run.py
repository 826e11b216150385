"""The nbdisc benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout: the program measured is the checkout's
``src/nbdisc``, whose ``nbdisc.cli.main`` runs in fresh processes, one at a
time (a closed loop with one client, ``--jobs 1``, one BLAS thread).  The
workload's CSVs are generated from ``--seed`` under ``.bench_work/``, which
is removed afterwards.

A run repeats rounds until ``--seconds`` are used (at least three rounds).
With ``--trace 0`` a round is a set-up probe (interpreter start, ``import
nbdisc``, ``load_csv`` of the inputs) followed by the workload's commands,
and the end-to-end metrics are medians over rounds.  With ``--trace 1`` a
round runs the commands untraced and under ``traced.py``, in alternating
order; the per-layer metrics come from the spans, which are kept in
``.bench_out/``.

Every round's outputs are checked.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the environment, the quartiles and the sample counts.
README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import spans as span_io

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
BLAS_THREADS = 1
MIN_ROUNDS = 3
TIMEOUT_S = 60.0  # per process; a run must end within 180 s
POSTERIOR_SUM_TOL = 1e-9
STATISTIC = "median over rounds; quartiles from statistics.quantiles(n=4)"

PROBE = """\
import json, sys, time
import nbdisc
loads = []
for path in sys.argv[1:]:
    start = time.perf_counter()
    nbdisc.load_csv(path)
    loads.append(time.perf_counter() - start)
print(json.dumps(loads))
"""

# What the `nbdisc` console script does, plus the time spent in main().
LAUNCH = """\
import json, sys, time
start = time.perf_counter()
import nbdisc.cli
ready = time.perf_counter()
status = nbdisc.cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump({"import_s": ready - start, "main_s": time.perf_counter() - ready}, handle)
sys.exit(status)
"""

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "folds_per_s": "1/s",
    "predict_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy_pct": "%",
}

PER_LAYER = {
    "data.load_csv_s": "s",
    "data.rows_loaded": "count",
    "data.impute_s": "s",
    "data.impute_calls": "count",
    "discretize.build_scheme_s": "s",
    "discretize.build_scheme_calls": "count",
    "discretize.cuts": "count",
    "discretize.apply_scheme_s": "s",
    "pseudo.select_k_s": "s",
    "pseudo.pseudo_label_s": "s",
    "pseudo.distance_pairs": "count",
    "pseudo.ns_per_pair": "ns",
    "weighted_nb.train_s": "s",
    "weighted_nb.train_iters": "count",
    "weighted_nb.train_ms_per_iter": "ms",
    "weighted_nb.train_capped": "fraction",
    "weighted_nb.encode_s": "s",
    "weighted_nb.fit_nb_s": "s",
    "weighted_nb.predict_s": "s",
    "evaluate.fold_s_p50": "s",
    "evaluate.fold_s_tail": "s",
    "evaluate.fold_self_s": "s",
    "evaluate.diagnostics_s": "s",
    "evaluate.report_s": "s",
    "cli.self_s": "s",
    "cli.model_bytes": "B",
    "cli.output_bytes": "B",
    "data.self_s": "s",
    "discretize.self_s": "s",
    "pseudo.self_s": "s",
    "weighted_nb.self_s": "s",
    "evaluate.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: gen.Shape
    rows: int
    configs: tuple[dict, ...] = ()  # bench configs; empty for train-predict
    folds: int = 3
    predict_rows: int = 0  # rows scored by `nbdisc predict` (train-predict)

    @property
    def is_bench(self) -> bool:
        return bool(self.configs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="weighted-train",
            shape=gen.Shape(numeric=12, categorical=2, classes=5, missing=0.02, separation=0.35),
            rows=1800,
            configs=tuple(
                {"method": "mdlp", "classifier": c, "max_iter": 100}
                for c in ("rnb", "wanbia", "cawnb")
            ),
        ),
        Workload(
            name="semi-supervised",
            shape=gen.Shape(numeric=6, categorical=2, classes=4, missing=0.05, separation=0.8),
            rows=11000,
            configs=({"method": "sadd", "classifier": "nb", "labeled_fraction": 0.3},),
        ),
        Workload(
            name="large-supervised",
            shape=gen.Shape(numeric=8, categorical=2, classes=3, missing=0.03, separation=0.8),
            rows=18000,
            configs=(
                {"method": "sadd", "classifier": "nb", "pseudo_label": False},
                {"method": "mdlp", "classifier": "nb"},
                {"method": "eqf", "classifier": "nb"},
            ),
        ),
        Workload(
            name="train-predict",
            shape=gen.Shape(numeric=10, categorical=3, classes=6, missing=0.03, separation=0.8),
            rows=10000,
            predict_rows=30000,
        ),
    )
}


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


@dataclass
class Command:
    """One nbdisc command line, the input it loads, and the files it writes."""

    cli: list[str]
    data: Path
    outputs: list[Path]
    runs: int  # (dataset, config) runs it attempts; 1 for train/predict


@dataclass
class Outcome:
    wall_s: float
    status: int
    peak_rss_mb: float
    main_s: float = 0.0  # time inside nbdisc.cli.main (untraced commands)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_process(argv: list[str], cwd: Path, stdout_path: Path) -> Outcome:
    """Run one process to completion: wall time, exit code, its peak RSS."""
    with open(stdout_path, "wb") as out, open(cwd / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > TIMEOUT_S:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise CheckFailed(f"timed out after {TIMEOUT_S:.0f} s: {argv}")
            time.sleep(0.001)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        if not path.exists():
            raise CheckFailed(f"missing output {path.name}")
        h.update(path.read_bytes())
    return h.hexdigest()


# --- inputs ---------------------------------------------------------------------


def prepare(w: Workload, seed: int, work: Path) -> list[Command]:
    """Write the workload's CSVs (and manifest) and return its commands."""
    data = work / "data.csv"
    gen.write(data, gen.generate(w.shape, w.rows, seed))
    if w.is_bench:
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps({
            "seed": seed,
            "folds": w.folds,
            "output_dir": "out",
            "datasets": [{"name": w.name, "path": "data.csv"}],
            "configs": list(w.configs),
        }, indent=2))
        out = work / "out"
        return [Command(["bench", "manifest.json", "--jobs", "1"], data,
                        [out / "results.json", out / "results.txt"], len(w.configs))]
    score = work / "score.csv"
    gen.write(score, gen.generate(w.shape, w.predict_rows, seed, stream=1))
    return [
        Command(["train", "data.csv", "--method", "sadd", "--classifier", "nb",
                 "--output", "model.json"], data, [work / "model.json"], 1),
        Command(["predict", "model.json", "score.csv", "--output", "preds.csv"], score,
                [work / "preds.csv"], 1),
    ]


# --- output checks --------------------------------------------------------------


def check_results(w: Workload, path: Path) -> float:
    """Every config ran every fold; return mean held-out accuracy in %."""
    doc = json.loads(path.read_text())
    runs = doc["runs"]
    if len(runs) != len(w.configs):
        raise CheckFailed(f"{len(runs)} of {len(w.configs)} configs completed")
    for run in runs:
        if run["folds"] != w.folds or len(run["fold_accuracies"]) != w.folds:
            raise CheckFailed(f"{run['config_hash']}: {run['folds']} folds")
    return 100.0 * statistics.fmean(run["mean"] for run in runs)


def check_predictions(w: Workload, preds: Path, scored: Path) -> float:
    """One row per scored row, posteriors summing to 1, the label an argmax;
    return the accuracy in % against the scored file's class column."""
    with open(scored, newline="") as handle:
        truth = [row[-1] for row in csv.reader(handle)][1:]
    with open(preds, newline="") as handle:
        rows = list(csv.reader(handle))
    header, rows = rows[0], rows[1:]
    classes = [name[2:] for name in header[1:]]
    if len(rows) != len(truth) or len(rows) != w.predict_rows:
        raise CheckFailed(f"{len(rows)} prediction rows for {len(truth)} scored rows")
    hits = 0
    for i, row in enumerate(rows):
        probs = [float(p) for p in row[1:]]
        if abs(sum(probs) - 1.0) > POSTERIOR_SUM_TOL:
            raise CheckFailed(f"row {i + 1}: posteriors sum to {sum(probs)!r}")
        top = max(probs)
        if row[0] not in {c for c, p in zip(classes, probs) if p == top}:
            raise CheckFailed(f"row {i + 1}: predicted {row[0]} is not an argmax")
        hits += row[0] == truth[i]
    return 100.0 * hits / len(rows)


def check_accuracy(workload: str, seed: int, accuracy: float) -> None:
    """Compare with the value recorded for this seed, or the recorded band."""
    recorded = json.loads(EXPECTED.read_text())[workload]
    value = recorded["seeds"].get(str(seed))
    if value is not None and abs(value - accuracy) > 1e-9:
        raise CheckFailed(f"accuracy {accuracy!r} differs from recorded {value!r}")
    lo, hi = recorded["band"]
    if not lo <= accuracy <= hi:
        raise CheckFailed(f"accuracy {accuracy!r} outside recorded band [{lo}, {hi}]")


# --- rounds ---------------------------------------------------------------------


class Runner:
    """Runs a workload's commands, checks their outputs, counts failures."""

    def __init__(self, w: Workload, commands: list[Command], work: Path) -> None:
        self.w = w
        self.commands = commands
        self.work = work
        self.reference: list[str] | None = None  # output digests of the first run
        self.attempted = 0
        self.failed = 0
        self.accuracy: float | None = None

    def execute(self, traced_as: str | None = None) -> list[Outcome]:
        """Run every command once, untraced or writing spans to files named
        after ``traced_as``; check that the outputs match the first run's."""
        outcomes, digests = [], []
        for i, cmd in enumerate(self.commands):
            if traced_as is None:
                argv = [sys.executable, "-c", LAUNCH, "timing.json", *cmd.cli]
            else:
                argv = [sys.executable, str(BENCH / "traced.py"),
                        f"{traced_as}-{i}.jsonl", f"{traced_as}-{i}", "--", *cmd.cli]
            for path in cmd.outputs:
                path.unlink(missing_ok=True)
            self.attempted += cmd.runs
            outcome = run_process(argv, self.work, self.work / "stdout.txt")
            outcomes.append(outcome)
            if outcome.status != 0:
                self.failed += self._failed_runs(cmd)
                raise CheckFailed(f"exit status {outcome.status}: nbdisc {' '.join(cmd.cli)}")
            digests.append(digest(cmd.outputs))
            if traced_as is None:
                timing = json.loads((self.work / "timing.json").read_text())
                outcome.main_s = timing["main_s"]
        if self.reference is None:
            self.accuracy = self._check_first()
            self.reference = digests
        elif digests != self.reference:
            kind = "traced" if traced_as else "untraced"
            raise CheckFailed(f"{kind} outputs differ from the first run's bytes")
        return outcomes

    def _failed_runs(self, cmd: Command) -> int:
        results = cmd.outputs[0]
        if self.w.is_bench and results.exists():
            return cmd.runs - len(json.loads(results.read_text())["runs"])
        return cmd.runs

    def _check_first(self) -> float:
        if self.w.is_bench:
            return check_results(self.w, self.commands[0].outputs[0])
        return check_predictions(self.w, self.work / "preds.csv", self.work / "score.csv")

    def probe(self) -> list[float]:
        """Set-up time of each command: interpreter start, import, load_csv
        of its input."""
        paths = [str(cmd.data) for cmd in self.commands]
        out = self.work / "probe.txt"
        outcome = run_process([sys.executable, "-c", PROBE, *paths], self.work, out)
        if outcome.status != 0:
            raise CheckFailed(f"set-up probe exited with {outcome.status}")
        loads = json.loads(out.read_text())
        start_import = outcome.wall_s - sum(loads)
        return [start_import + load for load in loads]


def rounds(seconds: float, body) -> int:
    """Call ``body(i)`` until ``seconds`` are used, at least MIN_ROUNDS times;
    stop early when one more round would overrun."""
    start = time.perf_counter()
    lengths: list[float] = []
    while len(lengths) < MIN_ROUNDS or (
        time.perf_counter() - start + statistics.median(lengths) <= seconds
    ):
        began = time.perf_counter()
        body(len(lengths))
        lengths.append(time.perf_counter() - began)
    return len(lengths)


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4)


def measure_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics.  The throughputs divide by the time spent in
    main(), which leaves out the interpreter start and import: subtracting a
    separately measured set-up instead made them too noisy to compare."""
    w = runner.w
    names = ("wall_s", "setup_s", "peak_rss_mb", "work_s", "predict_work_s")
    samples: dict[str, list[float]] = {k: [] for k in names}

    def body(i: int) -> None:
        setups = runner.probe()
        outcomes = runner.execute()
        samples["setup_s"].append(sum(setups))
        samples["wall_s"].append(sum(o.wall_s for o in outcomes))
        samples["peak_rss_mb"].append(max(o.peak_rss_mb for o in outcomes))
        samples["work_s"].append(sum(o.main_s for o in outcomes))
        samples["predict_work_s"].append(outcomes[-1].main_s)

    n = rounds(seconds, body)
    med = {k: statistics.median(v) for k, v in samples.items()}
    if w.is_bench:
        folds = w.folds * len(w.configs)
        scored = w.rows * len(w.configs)  # every row is held out once per config
        rows_per_s = scored / med["work_s"]
    else:
        folds = 1  # one train/test split
        rows_per_s = w.predict_rows / med["predict_work_s"]
    metrics = {
        "wall_s": med["wall_s"],
        "setup_s": med["setup_s"],
        "folds_per_s": folds / med["work_s"],
        "predict_rows_per_s": rows_per_s,
        "peak_rss_mb": med["peak_rss_mb"],
        "accuracy_pct": runner.accuracy,
    }
    detail = {"rounds": n, "quartiles": {k: quartiles(v) for k, v in samples.items()},
              "samples": samples}
    return metrics, detail


def measure_traced(runner: Runner, seconds: float, spans_out: Path) -> tuple[dict, dict]:
    w = runner.w
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    per_round: list[dict] = []
    folds: list[float] = []
    all_spans: list[dict] = []

    def body(i: int) -> None:
        tag = f"{w.name}-r{i}"
        order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order:
            outcomes = runner.execute(traced_as=tag if traced else None)
            (traced_walls if traced else plain_walls).append(sum(o.wall_s for o in outcomes))
        spans = []
        for j in range(len(runner.commands)):
            spans += span_io.read_jsonl(runner.work / f"{tag}-{j}.jsonl")
        all_spans.extend(spans)
        per_round.append(span_io.layer_metrics(spans))
        folds.extend(span_io.fold_durations(spans))

    n = rounds(seconds, body)
    span_io.write_jsonl(spans_out, all_spans)
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    if folds:
        metrics["evaluate.fold_s_p50"] = statistics.median(folds)
        tail_value, tail_pct = span_io.tail(folds)
        metrics["evaluate.fold_s_tail"] = tail_value
    else:
        metrics["evaluate.fold_s_p50"] = metrics["evaluate.fold_s_tail"] = 0.0
        tail_pct = 0.0
    model = runner.work / "model.json"
    metrics["cli.model_bytes"] = model.stat().st_size if model.exists() else 0
    outputs = runner.commands[-1].outputs
    metrics["cli.output_bytes"] = sum(p.stat().st_size for p in outputs)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    detail = {
        "rounds": n,
        "folds_timed": len(folds),
        "fold_tail_percentile": tail_pct,
        "untraced_wall_s": quartiles(plain_walls),
        "traced_wall_s": quartiles(traced_walls),
        "spans": str(spans_out.relative_to(ROOT)),
    }
    return {k: metrics[k] for k in PER_LAYER}, detail


def environment(rounds_run: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "processes": 1,
        "rounds": rounds_run,
        "statistic": STATISTIC,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nbdisc" / "cli.py").is_file():
        print(f"error: no nbdisc sources at {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    runner = Runner(w, prepare(w, args.seed, work), work)
    problems = []
    metrics: dict = {}
    detail: dict = {"rounds": 0}
    try:
        if args.trace:
            spans_out = out_dir / f"{w.name}-seed{args.seed}.spans.jsonl"
            metrics, detail = measure_traced(runner, args.seconds, spans_out)
        else:
            metrics, detail = measure_untraced(runner, args.seconds)
        check_accuracy(w.name, args.seed, runner.accuracy)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
        err = work / "stderr.txt"
        if err.exists():
            sys.stderr.write(err.read_text()[-4000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    report = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(detail["rounds"]),
        "problems": problems,
        **detail,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not problems and runner.failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {
            name: {"value": float(metrics.get(name) or 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
