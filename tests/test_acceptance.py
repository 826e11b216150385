"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import brute_force_best_cut, brute_force_nb_posterior

from nbdisc.cli import main
from nbdisc.data import categorical_vocab, impute_missing, load_csv, load_schema
from nbdisc.discretize import (
    ClassCounts,
    apply_scheme,
    best_cut,
    build_scheme,
    information_gain,
    mdlp_partition,
    mdlp_threshold,
    sadd_partition,
    sadd_threshold,
    sigmoid,
)
from nbdisc.evaluate import (
    PipelineConfig,
    cross_validate,
    diagnostics_table,
    paired_t_test_one_tailed,
)
from nbdisc.weighted_nb import (
    TrainOptions,
    WeightedParams,
    encode_discrete,
    fit_nb,
    gradient,
    identity_params,
    objective,
    posterior_batch,
    predict_batch,
    train_cawnb,
    train_rnb,
    train_wanbia,
)

DATA_DIR = Path(__file__).parent / "data"


def _report(number: int, description: str, passed: bool) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {number:2d}: {description}", flush=True)
    assert passed, f"criterion {number} failed: {description}"


def _discretized_fixture(data, method="sadd"):
    imputed = impute_missing(data, data)
    scheme = build_scheme(imputed, method)
    vocab = categorical_vocab([imputed])
    table = encode_discrete(apply_scheme(scheme, imputed), scheme, vocab)
    return table, imputed.labels


def test_criterion_01_iris_reproduction(iris):
    start = time.perf_counter()
    sadd = cross_validate(iris, PipelineConfig(method="sadd", classifier="nb", seed=0))
    mdlp = cross_validate(iris, PipelineConfig(method="mdlp", classifier="nb", seed=0))
    elapsed = time.perf_counter() - start
    sadd_pct = 100 * sadd.mean
    mdlp_pct = 100 * mdlp.mean
    ok = abs(sadd_pct - 96.00) <= 2.5 and abs(mdlp_pct - 92.67) <= 2.5 and elapsed < 10.0
    _report(
        1,
        f"iris 10-fold accuracy: sadd+nb {sadd_pct:.2f} (target 96.00±2.5), "
        f"mdlp+nb {mdlp_pct:.2f} (target 92.67±2.5), runtime {elapsed:.1f}s < 10s",
        ok,
    )


def test_criterion_02_vowel_diagnostics():
    path = DATA_DIR / "vowel.csv"
    if not path.exists():
        print(
            "SKIP criterion  2: vowel diagnostics (user-supplied tests/data/vowel.csv "
            "not present; expected layout: 10 acoustic feature columns directly before "
            "the class column, optional vowel.schema sidecar for context columns)",
            flush=True,
        )
        pytest.skip("vowel.csv is user-supplied and not bundled")
    sidecar = path.with_suffix(".schema")
    hint = load_schema(sidecar) if sidecar.exists() else None
    data = load_csv(path, schema_hint=hint)
    imputed = impute_missing(data, data)

    mdlp_scheme = build_scheme(imputed, "mdlp")
    sadd_scheme = build_scheme(imputed, "sadd", n0=2000)
    mdlp_diag = diagnostics_table(mdlp_scheme, apply_scheme(mdlp_scheme, imputed))
    sadd_diag = diagnostics_table(sadd_scheme, apply_scheme(sadd_scheme, imputed))

    # the 10 acoustic features are the 10 numeric attributes nearest the class
    # column; leading context columns (fold flag, speaker, sex), if present
    # and numeric, drop out here since attributes discretize independently
    def features(diag):
        return diag.rows[-10:]

    def averages(diag):
        rows = features(diag)
        return (
            float(np.mean([r.intervals for r in rows])),
            float(np.mean([r.mi for r in rows])),
        )

    mdlp_intervals, mdlp_mi = averages(mdlp_diag)
    sadd_intervals, sadd_mi = averages(sadd_diag)
    last_mdlp = features(mdlp_diag)[9].intervals
    last_sadd = features(sadd_diag)[9].intervals
    ok = (
        abs(mdlp_intervals - 4.2) <= 1.0
        and abs(mdlp_mi - 0.3770) <= 0.05
        and abs(sadd_intervals - 10.0) <= 2.0
        and abs(sadd_mi - 0.5011) <= 0.08
        and last_mdlp == 1
        and last_sadd >= 2
    )
    _report(
        2,
        f"vowel diagnostics: mdlp {mdlp_intervals:.1f} intervals / {mdlp_mi:.4f} MI, "
        f"sadd {sadd_intervals:.1f} / {sadd_mi:.4f}, last attribute {last_mdlp} vs "
        f"{last_sadd} intervals",
        ok,
    )


def test_criterion_03_cut_set_containment():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        k = int(rng.integers(2, 6))
        values = rng.normal(size=n).round(2)
        labels = [f"c{i}" for i in rng.integers(0, k, n)]
        mdlp_cuts = set(mdlp_partition(values, labels))
        for n0 in (100, 2000):
            if not mdlp_cuts <= set(sadd_partition(values, labels, n0)):
                violations += 1
    _report(
        3,
        f"cut-set containment on 1000 random instances, N0 in {{100, 2000}}: "
        f"{violations} violations",
        violations == 0,
    )


def test_criterion_04_threshold_property():
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 2001))
        n0 = int(rng.choice([100, 2000]))
        k = int(rng.integers(1, 6))
        counts = rng.multinomial(n, np.ones(k) / k)
        split = int(rng.integers(1, n))
        order = rng.permutation(np.repeat(np.arange(k), counts))
        left = np.bincount(order[:split], minlength=k)
        right = counts - left
        parent = ClassCounts(counts)
        cand_left, cand_right = ClassCounts(left), ClassCounts(right)
        from nbdisc.discretize import CutCandidate

        theta = mdlp_threshold(parent, CutCandidate(0.0, cand_left, cand_right))
        multiplier = sigmoid(n / n0)
        if not 0.5 < multiplier < 1.0:
            violations += 1
        if theta > 0 and not sadd_threshold(theta, n, n0) < theta:
            violations += 1
    _report(
        4,
        f"threshold scaling over 10000 random nodes: multiplier in (0.5, 1) and "
        f"scaled < plain whenever plain > 0: {violations} violations",
        violations == 0,
    )


def _finite_difference_full(model, params, x, labels, h=1e-5):
    a = math.log(params.alpha / (1 - params.alpha))

    def value(W, w, aa):
        alpha = 1 / (1 + math.exp(-aa))
        return objective(model, WeightedParams(W, w, alpha), x, labels)

    fd_W = np.zeros_like(params.W)
    for idx in np.ndindex(*params.W.shape):
        bump = np.zeros_like(params.W)
        bump[idx] = h
        fd_W[idx] = (
            value(params.W + bump, params.w, a) - value(params.W - bump, params.w, a)
        ) / (2 * h)
    fd_w = np.zeros_like(params.w)
    for j in range(params.w.size):
        bump = np.zeros_like(params.w)
        bump[j] = h
        fd_w[j] = (
            value(params.W, params.w + bump, a) - value(params.W, params.w - bump, a)
        ) / (2 * h)
    fd_a = (value(params.W, params.w, a + h) - value(params.W, params.w, a - h)) / (2 * h)
    return fd_W, fd_w, fd_a


def test_criterion_05_gradient_correctness():
    from nbdisc.weighted_nb import DiscreteTable

    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(8, 40))
        arity = [int(a) for a in rng.integers(2, 5, size=rng.integers(1, 4))]
        x = np.column_stack([rng.integers(0, a, n) for a in arity])
        labels = [f"c{i}" for i in rng.integers(0, 3, n)]
        if len(set(labels)) < 2:
            labels[0] = "c0"
            labels[1] = "c1"
        table = DiscreteTable(x=x, arity=tuple(arity), names=tuple(f"a{j}" for j in range(len(arity))))
        model = fit_nb(table, labels)
        for _ in range(10):
            params = WeightedParams(
                rng.normal(1.0, 0.6, (model.n_classes, model.n_attrs)),
                rng.normal(1.0, 0.6, model.n_attrs),
                float(rng.uniform(0.1, 0.9)),
            )
            analytic = gradient(model, params, table.x, labels)
            numeric = _finite_difference_full(model, params, table.x, labels)
            for a_part, n_part in zip(analytic, numeric):
                a_arr = np.atleast_1d(np.asarray(a_part, dtype=float)).ravel()
                n_arr = np.atleast_1d(np.asarray(n_part, dtype=float)).ravel()
                scale = np.maximum(np.abs(a_arr) + np.abs(n_arr), 1e-8)
                worst = max(worst, float(np.max(np.abs(a_arr - n_arr) / scale)))
    _report(
        5,
        f"analytic vs central-difference gradients (h=1e-5): max relative error "
        f"{worst:.2e} < 1e-4",
        worst < 1e-4,
    )


def test_criterion_06_nb_oracle_equivalence():
    from nbdisc.weighted_nb import DiscreteTable

    rng = np.random.default_rng(777)
    max_gap = 0.0
    all_match = True
    for _ in range(20):
        n = int(rng.integers(4, 51))
        arity = [int(a) for a in rng.integers(2, 5, size=rng.integers(1, 5))]
        rows = [[int(rng.integers(a)) for a in arity] for _ in range(n)]
        labels = [f"c{i}" for i in rng.integers(0, int(rng.integers(2, 4)), n)]
        if len(set(labels)) < 2:
            labels[0] = "c0"
            labels[1] = "c1"
        table = DiscreteTable(
            x=np.asarray(rows), arity=tuple(arity), names=tuple(f"a{j}" for j in range(len(arity)))
        )
        model = fit_nb(table, labels)
        params = identity_params(model)
        posteriors = posterior_batch(model, params, table.x)
        predictions = predict_batch(model, params, table.x)
        for i, row in enumerate(rows):
            classes, oracle = brute_force_nb_posterior(rows, labels, arity, row)
            max_gap = max(max_gap, float(np.max(np.abs(posteriors[i] - np.asarray(oracle)))))
            if predictions[i] != classes[int(np.argmax(oracle))]:
                all_match = False
    _report(
        6,
        f"all-ones weights vs count-and-multiply oracle on 20 datasets: predictions "
        f"match, max posterior gap {max_gap:.2e} < 1e-10",
        all_match and max_gap < 1e-10,
    )


def test_criterion_07_best_cut_oracle():
    rng = np.random.default_rng(1234)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        values = np.sort(rng.integers(0, 6, n).astype(float))
        labels = [f"c{i}" for i in rng.integers(0, 3, n)]
        expected = brute_force_best_cut(values, labels)
        got = best_cut(values, labels)
        if expected is None or got is None:
            if (expected is None) != (got is None):
                mismatches += 1
            continue
        parent = ClassCounts(got.left.counts + got.right.counts)
        gain = information_gain(parent, got)
        if got.value != expected[0] or abs(gain - expected[1]) > 1e-9:
            mismatches += 1
    _report(
        7,
        f"best cut vs exhaustive enumeration on 1000 instances (n <= 12): "
        f"{mismatches} mismatches",
        mismatches == 0,
    )


def test_criterion_08_optimizer_contract(iris, toy_mixed):
    trainers = [("wanbia", train_wanbia), ("cawnb", train_cawnb), ("rnb", train_rnb)]
    ok = True
    details = []
    for name, data in [("iris", iris), ("toy_mixed", toy_mixed)]:
        table, labels = _discretized_fixture(data)
        model = fit_nb(table, labels)
        nb_acc = float(np.mean(predict_batch(model, identity_params(model), table.x) == labels))
        for trainer_name, trainer in trainers:
            result = trainer(table, labels, TrainOptions(), model=model)
            monotone = bool((np.diff(result.objectives) <= 0).all())
            acc = float(np.mean(predict_batch(model, result.params, table.x) == labels))
            if not monotone or acc < nb_acc - 0.005:
                ok = False
            details.append(f"{name}/{trainer_name}: mono={monotone} acc={acc:.3f} nb={nb_acc:.3f}")
    _report(8, "optimizer contract (non-increasing objective, accuracy >= NB - 0.5pt): "
               + "; ".join(details), ok)


def test_criterion_09_t_test():
    hand = paired_t_test_one_tailed([2.0, -1.0, 3.0, 0.0, 1.0], [0.0] * 5)
    zeros = paired_t_test_one_tailed([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    ok = abs(hand.t - 1.581) <= 0.001 and zeros.t == 0.0 and not zeros.significant
    _report(
        9,
        f"paired t statistic {hand.t:.4f} within 1.581±0.001; all-zero differences "
        f"not significant",
        ok,
    )


def test_criterion_10_complexity_smoke():
    rng = np.random.default_rng(31337)

    def synthetic(n):
        # quantized sensor-style values with fine label structure: the
        # recursion goes ~60 cuts deep at both sizes
        values = rng.integers(0, 512, n) / 512.0
        labels = (values * 64).astype(int) % 5
        flips = rng.random(n) < 0.10
        labels[flips] = rng.integers(0, 5, int(flips.sum()))
        return values, [f"c{i}" for i in labels]

    def best_time(n):
        values, labels = synthetic(n)
        sadd_partition(values, labels, 2000)  # warm up
        times = []
        for _ in range(5):
            start = time.perf_counter()
            sadd_partition(values, labels, 2000)
            times.append(time.perf_counter() - start)
        return min(times)

    t_small = best_time(10_000)
    t_large = best_time(40_000)
    ratio = t_large / t_small
    _report(
        10,
        f"sadd partition wall time: n=10k {t_small * 1e3:.1f}ms, n=40k "
        f"{t_large * 1e3:.1f}ms, ratio {ratio:.2f} < 6",
        ratio < 6.0,
    )


def test_criterion_11_determinism(iris_path, tmp_path):
    manifest = {
        "seed": 0,
        "folds": 10,
        "output_dir": str(tmp_path / "out"),
        "datasets": [{"name": "iris", "path": str(iris_path)}],
        "configs": [
            {"method": "sadd", "classifier": "nb"},
            {"method": "mdlp", "classifier": "rnb", "max_iter": 60},
        ],
    }
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    assert main(["bench", str(manifest_path)]) == 0
    first = (tmp_path / "out" / "results.json").read_bytes()
    assert main(["bench", str(manifest_path)]) == 0
    second = (tmp_path / "out" / "results.json").read_bytes()
    _report(
        11,
        f"same manifest, same seed, two runs: results.json byte-identical "
        f"({len(first)} bytes)",
        first == second,
    )
