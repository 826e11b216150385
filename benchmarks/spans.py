"""Spans from traced runs, and the per-layer metrics computed from them.

A span is one call of a wrapped nbdisc function, stored as a JSON object per
line: ``run`` (one traced command), ``id``, ``parent`` (the id of the
enclosing span in the same run, or null), ``name`` (``layer.function``),
``start`` and ``end`` (``time.perf_counter`` seconds), plus counters some
wrappers add (``rows``, ``cuts``, ``pairs``, ``iters``, ``max_iter``).

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

LAYERS = ("data", "discretize", "pseudo", "weighted_nb", "evaluate", "cli")
TRAINERS = ("weighted_nb.train_rnb", "weighted_nb.train_wanbia", "weighted_nb.train_cawnb")
PREDICTORS = ("weighted_nb.predict_batch", "weighted_nb.posterior_batch")
REPORTERS = ("evaluate.emit_report", "evaluate.format_comparison_table")


def read_jsonl(path: str | Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def write_jsonl(path: str | Path, spans: list[dict]) -> None:
    Path(path).write_text("".join(json.dumps(s, sort_keys=True) + "\n" for s in spans))


def _key(span: dict) -> tuple:
    return span["run"], span["id"]


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _children(spans: list[dict]) -> dict[tuple, list[dict]]:
    out: dict[tuple, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            out[(s["run"], s["parent"])].append(s)
    return out


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Self time of every span, keyed by (run, id)."""
    children = _children(spans)
    out = {}
    for s in spans:
        kids = [(c["start"], c["end"]) for c in children.get(_key(s), [])]
        out[_key(s)] = (s["end"] - s["start"]) - _covered(s["start"], s["end"], kids)
    return out


def inclusive_s(spans: list[dict], names: tuple[str, ...]) -> float:
    """Wall time inside spans named ``names``, counting nested ones once."""
    by_key = {_key(s): s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] not in names:
            continue
        parent = s["parent"]
        while parent is not None:
            outer = by_key[(s["run"], parent)]
            if outer["name"] in names:
                break
            parent = outer["parent"]
        else:
            total += s["end"] - s["start"]
    return total


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it.  With ten or fewer samples no such percentile exists
    and the maximum is returned as the 100th."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def fold_durations(spans: list[dict]) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == "evaluate.run_fold"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round (one or more commands).

    Fold percentiles are left out: they pool folds over rounds.
    """
    selfs = self_times(spans)
    children = _children(spans)

    def total(*names: str) -> float:
        return inclusive_s(spans, names)

    def count(*names: str) -> int:
        return sum(1 for s in spans if s["name"] in names)

    def summed(key: str, *names: str) -> int:
        return sum(int(s.get(key, 0)) for s in spans if s["name"] in names)

    m: dict[str, float] = {}
    m["data.load_csv_s"] = total("data.load_csv")
    m["data.rows_loaded"] = summed("rows", "data.load_csv")
    m["data.impute_s"] = total("data.impute_missing")
    m["data.impute_calls"] = count("data.impute_missing")

    m["discretize.build_scheme_s"] = total("discretize.build_scheme")
    m["discretize.build_scheme_calls"] = count("discretize.build_scheme")
    m["discretize.cuts"] = summed("cuts", "discretize.build_scheme")
    m["discretize.apply_scheme_s"] = total("discretize.apply_scheme")

    knn_s = total("pseudo.select_k", "pseudo.pseudo_label")
    pairs = summed("pairs", "pseudo._distance_sq")
    m["pseudo.select_k_s"] = total("pseudo.select_k")
    m["pseudo.pseudo_label_s"] = total("pseudo.pseudo_label")
    m["pseudo.distance_pairs"] = pairs
    m["pseudo.ns_per_pair"] = 1e9 * knn_s / pairs if pairs else 0.0

    train_s = total(*TRAINERS)
    iters = summed("iters", *TRAINERS)
    trainings = [s for s in spans if s["name"] in TRAINERS and "iters" in s]
    capped = sum(1 for s in trainings if s["iters"] >= s["max_iter"])
    m["weighted_nb.train_s"] = train_s
    m["weighted_nb.train_iters"] = iters
    m["weighted_nb.train_ms_per_iter"] = 1e3 * train_s / iters if iters else 0.0
    m["weighted_nb.train_capped"] = capped / len(trainings) if trainings else 0.0
    m["weighted_nb.encode_s"] = total("weighted_nb.encode_discrete")
    m["weighted_nb.fit_nb_s"] = total("weighted_nb.fit_nb")
    m["weighted_nb.predict_s"] = total(*PREDICTORS)

    folds = [s for s in spans if s["name"] == "evaluate.run_fold"]
    m["evaluate.fold_self_s"] = sum(selfs[_key(s)] for s in folds)
    diagnostics = 0.0
    for s in spans:
        if s["name"] == "evaluate.cross_validate":
            kids = [
                (c["start"], c["end"])
                for c in children.get(_key(s), [])
                if c["name"] == "evaluate.run_fold"
            ]
            diagnostics += (s["end"] - s["start"]) - _covered(s["start"], s["end"], kids)
    m["evaluate.diagnostics_s"] = diagnostics
    m["evaluate.report_s"] = total(*REPORTERS)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            selfs[_key(s)] for s in spans if s["name"].split(".", 1)[0] == layer
        )
    return m
