"""Command-line interface.

Subcommands:
  discretize  build a cut-point scheme for one CSV and print diagnostics
  bench       run cross-validation benchmarks from a manifest or flags
  train       fit a model on a CSV and save scheme+model to one file
  predict     classify a CSV with a saved model
  curve       emit the split-threshold curve as CSV data

A bench manifest is a JSON file:

    {
      "seed": 0,
      "folds": 10,
      "output_dir": "results",
      "datasets": [{"name": "iris", "path": "data/iris.csv"}],
      "configs": [{"method": "sadd", "classifier": "nb"}]
    }

Config entries take any PipelineConfig field, with a value of its JSON type
(a string seed or a null k_grid is a usage error); omitted fields use defaults
and the fully resolved configuration is echoed into the results file along
with the seed and a per-config hash, so reruns are byte-identical.  Every
flag given wins over the manifest: a pipeline flag sets its field in every
config, a config's own seed included, and ``--folds``, ``--output-dir`` and
``--dataset`` replace the manifest's values.  discretize, bench and train all
take their defaults and range checks from PipelineConfig, before any load;
train has no --seed, since it draws nothing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import fields
from functools import partial
from itertools import count, islice
from pathlib import Path

from .data import Dataset, MISSING_TOKEN, _parse_records, load_csv, load_schema
from .discretize import METHODS, save_scheme, threshold_curve
from .evaluate import (
    CLASSIFIERS,
    EvalReport,
    FittedPipeline,
    PipelineConfig,
    PipelineError,
    config_from_dict,
    config_hash,
    cross_validate_configs,
    emit_report,
    fit_pipeline,
    format_comparison_table,
    run_folds,
    whole_data_diagnostics,
)

MODEL_FORMAT = "nbdisc-model-v1"
PREDICT_BLOCK_ROWS = 4096  # records `predict` parses, scores and writes at a time


def _load_dataset(path: str, schema: str | None, missing_token: str) -> Dataset:
    hint = load_schema(schema) if schema else {}
    data = load_csv(path, schema_hint=hint, missing_token=missing_token)
    if unknown := sorted(set(hint) - set(data.names)):
        raise ValueError(f"{schema}: no attribute column of {path} is named {unknown}")
    return data


def _print_diagnostics(diag) -> None:
    width = max([len("attribute")] + [len(r.name) for r in diag.rows])
    print(f"{'attribute'.ljust(width)}  intervals  mi")
    for r in diag.rows:
        print(f"{r.name.ljust(width)}  {r.intervals:9d}  {r.mi:.4f}")
    if diag.rows:
        print(f"{'AVG'.ljust(width)}  {diag.avg_intervals:9.1f}  {diag.avg_mi:.4f}")


def _config_flags(args: argparse.Namespace) -> dict:
    """The PipelineConfig fields given as flags, by field name."""
    return {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
            if getattr(args, f.name, None) is not None}


def cmd_discretize(args: argparse.Namespace) -> int:
    config = config_from_dict(_config_flags(args))
    data = _load_dataset(args.input, args.schema, args.missing_token)
    scheme, diag = whole_data_diagnostics(data, config.method, config.n0, config.bins)
    if args.output:
        save_scheme(scheme, args.output)
    _print_diagnostics(diag)
    if args.diagnostics_out:
        with open(args.diagnostics_out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["attribute", "intervals", "mi"])
            for r in diag.rows:
                writer.writerow([r.name, r.intervals, repr(r.mi)])
    return 0


def _manifest_from_args(args: argparse.Namespace) -> dict:
    if not args.manifest and not args.dataset:
        raise ValueError("either a manifest or --dataset is required")
    # without a manifest: one config of the flags given
    manifest = json.loads(Path(args.manifest).read_text()) if args.manifest else {"configs": [{}]}
    if not isinstance(manifest, dict):
        raise ValueError(f"{args.manifest}: a manifest must be a JSON object")
    if args.dataset:
        manifest["datasets"] = [{"name": Path(args.dataset).stem, "path": args.dataset}]
    datasets, configs = manifest.get("datasets"), manifest.get("configs")
    if not datasets or not configs:
        raise ValueError("manifest needs at least one dataset and one config")
    if not isinstance(datasets, list) or not isinstance(configs, list):
        raise ValueError('manifest "datasets" and "configs" must be lists')
    if not all(isinstance(entry, dict) and isinstance(entry.get("name"), str)
               and isinstance(entry.get("path"), str) and isinstance(entry.get("schema", ""), str)
               for entry in datasets):
        raise ValueError('each manifest dataset needs a string "name", "path" and any "schema"')
    if len({entry["name"] for entry in datasets}) < len(datasets):
        raise ValueError(f"manifest dataset names repeat: {[e['name'] for e in datasets]}")
    if not all(isinstance(entry, dict) for entry in configs):
        raise ValueError("each manifest config must be a JSON object")
    # a flag given on the command line wins over the manifest's value
    for key, flag, default in (("seed", args.seed, 0), ("folds", args.folds, 10),
                               ("output_dir", args.output_dir, "results")):
        manifest[key] = manifest.get(key, default) if flag is None else flag
        if type(manifest[key]) is not type(default):
            raise ValueError(f"manifest {key!r} has a value of the wrong type: {manifest[key]!r}")
    if manifest["folds"] < 2:
        raise ValueError("folds must be at least 2")
    return manifest


_worker_datasets: list[Dataset] = []  # in a --jobs worker: the bench's datasets


def _init_worker(datasets: list[Dataset]) -> None:
    _worker_datasets[:] = datasets


def _worker_folds(index: int, task: tuple) -> list:
    return run_folds(_worker_datasets[index], *task)


def cmd_bench(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    manifest = _manifest_from_args(args)
    seed, folds = manifest["seed"], manifest["folds"]
    flags = _config_flags(args)
    configs = [config_from_dict({"seed": seed, **doc, **flags}) for doc in manifest["configs"]]
    out_dir = Path(manifest["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    failures: list[str] = []
    datasets = []
    for entry in manifest["datasets"]:
        try:
            data = _load_dataset(entry["path"], entry.get("schema"), args.missing_token)
        except Exception as exc:  # noqa: BLE001 - reported, bench continues
            failures.append(f"{entry['name']}: {exc}")
            continue
        datasets.append((entry["name"], data))

    completed: list[EvalReport] = []
    # a task is one fold of one dataset, and each worker gets the datasets once
    loaded = [data for _, data in datasets]
    with (
        ProcessPoolExecutor(args.jobs, initializer=_init_worker, initargs=(loaded,))
        if args.jobs > 1 else nullcontext()
    ) as pool:
        for index, (name, data) in enumerate(datasets):
            map_folds = None if pool is None else partial(pool.map, partial(_worker_folds, index))
            outcomes = cross_validate_configs(data, configs, folds, name, map_folds=map_folds)
            for config, outcome in zip(configs, outcomes):
                if isinstance(outcome, Exception):
                    failures.append(
                        f"{name} / {config.label()} (config {config_hash(config)}): {outcome}"
                    )
                else:
                    completed.append(outcome)

    emit_report(completed, out_dir / "results.json", seed, format="json")
    emit_report(completed, out_dir / "results.txt", seed, format="table")
    print(format_comparison_table(completed))
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_train(args: argparse.Namespace) -> int:
    config = config_from_dict(_config_flags(args))
    data = _load_dataset(args.input, args.schema, args.missing_token)
    fitted, _ = fit_pipeline(data, config)
    doc = {
        "format": MODEL_FORMAT,
        "seed": config.seed,
        "missing_token": args.missing_token,
        "config": {
            key: getattr(config, key) for key in ("method", "classifier", "n0", "bins", "max_iter")
        },
        "schema": [
            {"name": n, "kind": k.value} for n, k in zip(data.names, data.kinds)
        ],
        **fitted.to_dict(),
    }
    Path(args.output).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"model written to {args.output}")
    return 0


def _csv_field(value: str) -> str:
    """``value`` as ``csv.writer`` writes it among other fields of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])  # a lone empty field would be quoted
    return buf.getvalue()[: -len(",\r\n")]


@contextmanager
def _replaced_on_success(path: str):
    """A temporary file beside ``path`` that replaces ``path`` only if the block succeeds."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as out:
            yield out
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cmd_predict(args: argparse.Namespace) -> int:
    """Classify ``args.input`` block by block; a row's output reads only that row and the model."""
    model_path = Path(args.model)
    if not model_path.exists():
        raise FileNotFoundError(f"model file not found: {args.model}")
    doc = json.loads(model_path.read_text())
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{args.model}: not a model file")
    fitted = FittedPipeline.from_dict(doc)
    expected, hint = fitted.scheme.names, dict(zip(fitted.scheme.names, fitted.scheme.kinds))
    token = doc["missing_token"] if args.missing_token is None else args.missing_token
    # the writer quotes each class label once; posterior reprs never need quoting
    quoted = {c: _csv_field(c) for c in fitted.model.classes}
    with (open(args.input, newline="") as handle,
          _replaced_on_success(args.output) if args.output else nullcontext(sys.stdout) as out):
        reader = csv.reader(handle)
        header = next(reader, None)
        for first_row in count(2, PREDICT_BLOCK_ROWS):
            block = list(islice(reader, PREDICT_BLOCK_ROWS))
            if first_row > 2 and not block:
                return 0
            data = _parse_records(args.input, header, block, first_row, hint, token, labeled=False)
            if data.names != expected:
                raise ValueError(f"schema mismatch: model expects columns {expected}, file has {data.names}")
            predictions, posteriors = fitted.predict(data)
            if first_row == 2:
                csv.writer(out).writerow(["predicted"] + [f"p_{c}" for c in fitted.model.classes])
            for label, row in zip(predictions.tolist(), posteriors.tolist()):
                out.write(quoted[label] + "," + ",".join(map(repr, row)) + "\r\n")


def cmd_curve(args: argparse.Namespace) -> int:
    if args.n_min < 2:
        raise ValueError("--n-min must be at least 2")
    if args.n_max < args.n_min:
        raise ValueError("--n-max must be >= --n-min")
    if args.n_step < 1:
        raise ValueError("--n-step must be at least 1")
    rows = threshold_curve(range(args.n_min, args.n_max + 1, args.n_step), args.n0)
    with (open(args.output, "w", newline="") if args.output else nullcontext(sys.stdout)) as out:
        writer = csv.writer(out)
        writer.writerow(["n", "raw"] + [f"n0_{n0}" for n0 in args.n0])
        for row in rows:
            writer.writerow([row.n, repr(row.raw)] + [repr(v) for v in row.scaled])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nbdisc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # shared by discretize, bench and train; a pipeline flag's dest is its config field
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--method", choices=METHODS)
    shared.add_argument("--n0", type=int)
    shared.add_argument("--bins", type=int)
    shared.add_argument("--missing-token", default=MISSING_TOKEN)

    p = sub.add_parser("discretize", parents=[shared], help="build a cut-point scheme for one CSV")
    p.add_argument("input", help="CSV file; class column last")
    p.add_argument("--schema", help="sidecar schema file (name,kind per line)")
    p.add_argument("--output", help="scheme file to write")
    p.add_argument("--diagnostics-out", help="CSV file for the diagnostics table")
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("bench", parents=[shared], help="cross-validation benchmark")
    p.add_argument("manifest", nargs="?", help="manifest JSON file")
    p.add_argument("--dataset", help="CSV to benchmark (replaces a manifest's datasets)")
    p.add_argument("--classifier", choices=CLASSIFIERS)
    p.add_argument("--folds", type=int, help="default: the manifest's, else 10")
    p.add_argument("--seed", type=int, help="default: the manifest's, else 0")
    p.add_argument("--labeled-fraction", type=float)
    p.add_argument("--inductive", dest="transductive", action="store_false", default=None,
                   help="keep test-row features out of scheme derivation")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output-dir", help="default: the manifest's, else results")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", parents=[shared], help="fit and save scheme+model")
    p.add_argument("input", help="training CSV")
    p.add_argument("--classifier", choices=CLASSIFIERS, default="rnb")
    p.add_argument("--max-iter", type=int)
    p.add_argument("--schema", help="sidecar schema file")
    p.add_argument("--output", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify a CSV with a saved model")
    p.add_argument("model", help="model file from `nbdisc train`")
    p.add_argument("input", help="CSV with the training schema; its labels are not read")
    p.add_argument("--missing-token", default=None)
    p.add_argument("--output", help="CSV file for predictions (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("curve", help="emit the split-threshold curve")
    p.add_argument("--n0", type=int, nargs="+", default=[100, 2000])
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=1000)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--output", help="CSV file (default: stdout)")
    p.set_defaults(func=cmd_curve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
