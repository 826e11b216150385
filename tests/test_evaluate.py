from __future__ import annotations

import argparse
import json
import math
import re
import timeit
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from helpers import count_node_evaluations, load_bench_gen, make_dataset, strict_json, student_t_sf

import nbdisc.data as data_module
import nbdisc.discretize as discretize_module
import nbdisc.evaluate as evaluate_module
import nbdisc.pseudo as pseudo_module
import nbdisc.weighted_nb as weighted_nb_module
from nbdisc.cli import build_parser
from nbdisc.data import Dataset, load_csv, stratified_folds
from nbdisc.evaluate import (
    STAGE_READS,
    DiagnosticsTable,
    EvalReport,
    FittedPipeline,
    FoldResult,
    PipelineConfig,
    PipelineError,
    config_from_dict,
    config_hash,
    config_to_dict,
    cross_validate,
    cross_validate_configs,
    diagnostics_table,
    emit_report,
    fit_pipeline,
    format_comparison_table,
    load_results,
    paired_t_test_one_tailed,
    report_from_dict,
    report_to_dict,
    results_document,
    run_fold,
    run_folds,
    whole_data_diagnostics,
)
from nbdisc.discretize import apply_scheme, build_scheme
from nbdisc.pseudo import DEFAULT_K_GRID


class TestPairedTTest:
    def test_equal_vectors_not_significant(self):
        result = paired_t_test_one_tailed([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t == 0.0
        assert result.p == 0.5
        assert not result.significant

    def test_constant_positive_difference_significant(self):
        result = paired_t_test_one_tailed([2.0] * 5, [1.0] * 5)
        assert result.t == math.inf
        assert result.p == 0.0
        assert result.significant

    def test_constant_negative_difference(self):
        result = paired_t_test_one_tailed([1.0] * 5, [2.0] * 5)
        assert result.t == -math.inf
        assert result.p == 1.0
        assert not result.significant

    @given(
        st.lists(st.integers(0, 8), min_size=2, max_size=12).flatmap(lambda a: st.tuples(
            st.just(a),
            st.one_of(
                st.just(a),  # equal vectors
                st.integers(-8, 8).map(lambda c: [x - c for x in a]),  # constant difference
                st.lists(st.integers(0, 8), min_size=len(a), max_size=len(a)),
            ),
        )),
    )
    def test_p_is_the_tail_at_t(self, pair):
        # accuracies on folds of 8 test rows: exact in binary, so a constant
        # difference has zero spread
        a, b = (np.array(v) / 8 for v in pair)
        result = paired_t_test_one_tailed(a, b)
        assert result.p == evaluate_module._t_sf(result.t, len(a) - 1)
        assert result.significant == (result.p < 0.05)

    def test_hand_computed_statistic(self):
        # d = [2, -1, 3, 0, 1]: mean 1, n-denominator spread sqrt(2),
        # t = 1 / (sqrt(2)/sqrt(5)) = sqrt(2.5) = 1.5811
        a = [2.0, -1.0, 3.0, 0.0, 1.0]
        b = [0.0] * 5
        result = paired_t_test_one_tailed(a, b)
        assert result.t == pytest.approx(math.sqrt(2.5), abs=1e-12)
        assert result.t == pytest.approx(1.581, abs=1e-3)
        assert result.p == pytest.approx(float(scipy_stats.t.sf(result.t, 4)), abs=1e-12)
        assert not result.significant

    def test_p_value_via_incomplete_beta(self):
        # cross-check the Student-t tail against the regularized incomplete
        # beta form: sf(t, df) = 0.5 * I_{df/(df+t^2)}(df/2, 1/2) for t > 0
        from scipy.special import betainc

        result = paired_t_test_one_tailed([3.0, 5.0, 4.0, 6.0], [1.0, 2.0, 3.0, 4.0])
        df = 3
        expected = 0.5 * betainc(df / 2, 0.5, df / (df + result.t**2))
        assert result.p == pytest.approx(float(expected), abs=1e-10)

    def test_p_value_equals_mpmath_tail(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            a, b = rng.normal(size=n), rng.normal(size=n)
            result = paired_t_test_one_tailed(a, b)
            assert result.p == student_t_sf(result.t, n - 1)

    @given(
        st.integers(1, 40),
        st.floats(allow_nan=False, allow_infinity=False) | st.floats(-100.0, 100.0),
    )
    @example(29, 1e300)
    @example(1, 1.7976931348623157e308)
    @example(1, -1.7976931348623157e308)
    @example(2, 5e-324)
    @example(3, -5e-324)
    @example(39, 1.15e9)  # just short of the zero-tail bound (1.155e9): about 400 digits
    @example(39, 1.16e9)  # just past it: 0.0 without the sum
    @example(100, 3.5)
    @example(100, -12.0)
    @example(299, 2.0)
    @example(299, 40.0)
    @example(999, 1.7)
    @example(999, 10.0)
    @example(999, 66.0)  # just short of the zero-tail bound (66.45)
    @example(999, -66.0)
    def test_t_sf_is_correctly_rounded(self, df, t):
        fastest = min(timeit.repeat(lambda: evaluate_module._t_sf(t, df), number=1, repeat=3))
        assert evaluate_module._t_sf(t, df) == student_t_sf(t, df)
        assert fastest < 0.01

    def test_nan_difference_gives_nan_p(self):
        result = paired_t_test_one_tailed([1.0, math.nan, 2.0], [0.0, 0.0, 0.0])
        assert math.isnan(result.p)
        assert not result.significant

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            paired_t_test_one_tailed([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            paired_t_test_one_tailed([1.0], [0.0])

    def test_significant_implies_larger_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            result = paired_t_test_one_tailed(a, b)
            if result.significant:
                assert a.mean() > b.mean()


class TestPipelineConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            PipelineConfig(method="caim")

    def test_rejects_unknown_classifier(self):
        with pytest.raises(ValueError, match="^unknown classifier 'knn'$"):
            PipelineConfig(classifier="knn")

    def test_rejects_pseudo_labels_for_unsupervised(self):
        with pytest.raises(ValueError, match="pseudo"):
            PipelineConfig(method="eqw", pseudo_label=True)

    def test_pseudo_defaults(self):
        assert PipelineConfig(method="sadd").uses_pseudo_labels
        assert not PipelineConfig(method="mdlp").uses_pseudo_labels
        assert PipelineConfig(method="mdlp", pseudo_label=True).uses_pseudo_labels

    def test_labeled_fraction_bounds(self):
        with pytest.raises(ValueError):
            PipelineConfig(labeled_fraction=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            PipelineConfig(seed=-1)

    @pytest.mark.parametrize("method", ["mdlp", "sadd", "eqw", "eqf"])
    @pytest.mark.parametrize("field, value, message", [
        ("n0", 0, "n0 must be at least 1"),
        ("bins", 0, "bins must be at least 1"),
        ("k_grid", (), "k_grid must hold at least one k"),
        ("k_grid", (3, 0), "k_grid must hold at least one k"),
        ("max_iter", -1, "max_iter must be at least 0"),
    ])
    def test_out_of_range_fields_rejected_for_every_method(self, method, field, value, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(method=method, **{field: value})
        PipelineConfig(method=method, n0=1, bins=1, k_grid=(1,), max_iter=0)

    def test_label_reflects_pseudo_override(self):
        assert PipelineConfig(method="mdlp", pseudo_label=True).label() == "mdlp+nb:pl"
        assert PipelineConfig(method="sadd", pseudo_label=False).label() == "sadd+nb:nopl"
        assert PipelineConfig(method="sadd").label() == "sadd+nb"

    def test_round_trip(self):
        config = PipelineConfig(method="mdlp", classifier="rnb", labeled_fraction=0.4)
        assert config_from_dict(config_to_dict(config)) == config
        assert config_hash(config) == config_hash(config)

    @pytest.mark.parametrize("field, value", [
        ("seed", "1"), ("seed", True), ("n0", 2.5), ("transductive", 1),
        ("labeled_fraction", "0.5"), ("k_grid", None), ("k_grid", [1, "3"]), ("pseudo_label", 0),
    ])
    def test_mistyped_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"config field '{field}'"):
            config_from_dict({field: value})

    def test_json_numbers_and_lists_accepted(self):
        doc = {"labeled_fraction": 1, "tol": 0, "k_grid": [1, 3], "pseudo_label": None}
        assert config_from_dict(doc) == PipelineConfig(labeled_fraction=1.0, tol=0.0, k_grid=(1, 3))


class TestRunFold:
    def test_basic_mdlp_fold(self, iris):
        plan = stratified_folds(iris, 10, seed=0)
        result = run_fold(
            iris, plan.train_rows(0), plan.test_rows(0), PipelineConfig(method="mdlp")
        )
        assert 0.0 <= result.accuracy <= 1.0
        assert len(result.predictions) == len(plan.test_rows(0))
        assert result.selected_k is None

    def test_sadd_fold_records_k(self, iris):
        plan = stratified_folds(iris, 10, seed=0)
        result = run_fold(
            iris, plan.train_rows(0), plan.test_rows(0), PipelineConfig(method="sadd")
        )
        assert result.selected_k is not None
        assert result.selected_k >= 1

    def test_ablation_sadd_without_pseudo_labels(self, iris):
        plan = stratified_folds(iris, 10, seed=0)
        config = PipelineConfig(method="sadd", pseudo_label=False)
        result = run_fold(iris, plan.train_rows(0), plan.test_rows(0), config)
        assert 0.0 <= result.accuracy <= 1.0

    def test_overlapping_rows_rejected(self, iris):
        with pytest.raises(PipelineError, match="overlap"):
            run_fold(iris, [0, 1, 2], [2, 3], PipelineConfig())

    def test_empty_test_rejected(self, iris):
        with pytest.raises(PipelineError, match="non-empty"):
            run_fold(iris, [0, 1, 2], [], PipelineConfig())

    def test_empty_train_rejected(self, iris):
        with pytest.raises(PipelineError, match=r"^\[setup\] train and test rows must be non-empty$"):
            run_fold(iris, [], [0, 1, 2], PipelineConfig(method="mdlp"))

    def test_out_of_range_rows_rejected(self, iris):
        with pytest.raises(PipelineError, match=r"\[setup\] row index out of range"):
            run_fold(iris, [0, 1, 2], [150], PipelineConfig())

    def test_true_test_labels_only_affect_accuracy(self, iris):
        # scrambling the test-row labels must leave predictions unchanged
        plan = stratified_folds(iris, 10, seed=3)
        train, test = plan.train_rows(1), plan.test_rows(1)
        config = PipelineConfig(method="sadd", classifier="rnb", max_iter=30, seed=11)
        base = run_fold(iris, train, test, config)

        labels = iris.labels.copy()
        labels[test] = np.roll(labels[test], 4)
        scrambled = replace(iris, labels=labels)
        other = run_fold(scrambled, train, test, config)
        assert other.predictions == base.predictions

    def test_pseudo_labeling_on_empty_pool_is_inert(self, iris):
        # with all rows labeled and test rows excluded, the transductive and
        # plain supervised pipelines coincide
        plan = stratified_folds(iris, 10, seed=0)
        train, test = plan.train_rows(2), plan.test_rows(2)
        on = PipelineConfig(method="sadd", pseudo_label=True, transductive=False, seed=5)
        off = PipelineConfig(method="sadd", pseudo_label=False, seed=5)
        a = run_fold(iris, train, test, on)
        b = run_fold(iris, train, test, off)
        assert a.predictions == b.predictions
        assert a.accuracy == b.accuracy

    def test_partial_labels_run(self, toy_mixed):
        config = PipelineConfig(method="mdlp", labeled_fraction=0.9, seed=1)
        rows = np.arange(toy_mixed.n_rows)
        result = run_fold(toy_mixed, rows[:10], rows[10:], config)
        assert 0.0 <= result.accuracy <= 1.0

    def test_scoring_failure_tagged_predict(self, iris, monkeypatch):
        def fail(*args):
            raise ValueError("scoring failed")

        monkeypatch.setattr(evaluate_module, "posterior_batch", fail)
        plan = stratified_folds(iris, 10, seed=0)
        with pytest.raises(PipelineError, match=r"^\[predict\] scoring failed$"):
            run_fold(iris, plan.train_rows(0), plan.test_rows(0), PipelineConfig(method="mdlp"))

    def test_stage_tag_on_failure(self, toy_mixed):
        config = PipelineConfig(method="sadd")  # pseudo-labeling needs >= 9 labeled rows
        rows = np.arange(toy_mixed.n_rows)
        with pytest.raises(PipelineError, match=r"\[pseudo-label\]"):
            run_fold(toy_mixed, rows[:6], rows[6:], config)


class TestFittedPipeline:
    def test_round_trip_gives_bit_equal_posteriors(self, toy_mixed):
        config = PipelineConfig(method="mdlp", classifier="rnb", max_iter=20)
        fitted, _ = fit_pipeline(toy_mixed, config)
        restored = FittedPipeline.from_dict(json.loads(json.dumps(fitted.to_dict())))
        query = make_dataset(
            {
                "temp": [24.0, 0.0, 31.0],
                "color": ["green", "red", "?"],
                "size": ["small", "?", "huge"],
            },
            ["A", "A", "B"],
            missing=[(1, 0), (2, 1), (1, 2)],
        )
        for data in (toy_mixed, query):  # missing cells; unseen "green" and "huge"
            labels, posteriors = fitted.predict(data)
            labels2, posteriors2 = restored.predict(data)
            assert labels.tolist() == labels2.tolist()
            assert np.array_equal(posteriors, posteriors2)
            assert np.allclose(posteriors.sum(axis=1), 1.0)

    def test_fill_values_come_from_training_rows(self, toy_mixed):
        fitted, k = fit_pipeline(toy_mixed, PipelineConfig(method="mdlp"))
        temps = toy_mixed.columns[0][~toy_mixed.missing[:, 0]]
        assert fitted.fill == [float(temps.mean()), "blue", "large"]
        assert k is None

    def test_run_fold_is_fit_then_predict(self, iris):
        plan = stratified_folds(iris, 10, seed=0)
        train, test = plan.train_rows(4), plan.test_rows(4)
        config = PipelineConfig(method="sadd", classifier="cawnb", max_iter=10, seed=3)
        result = run_fold(iris, train, test, config)
        fitted, k = fit_pipeline(iris.subset(train), config, test=iris.subset(test))
        assert result.predictions == fitted.predict(iris.subset(test))[0].tolist()
        assert result.selected_k == k


class TestCrossValidate:
    def test_deterministic(self, iris):
        config = PipelineConfig(method="mdlp", seed=7)
        a = cross_validate(iris, config, dataset_name="iris")
        b = cross_validate(iris, config, dataset_name="iris")
        assert a.fold_accuracies == b.fold_accuracies

    def test_mean_matches_folds(self, iris):
        report = cross_validate(iris, PipelineConfig(method="mdlp"), dataset_name="iris")
        assert report.mean == pytest.approx(np.mean(report.fold_accuracies), abs=1e-12)
        assert report.std == pytest.approx(np.std(report.fold_accuracies, ddof=1), abs=1e-12)

    def test_equal_folds_zero_std(self):
        # perfectly separable and redundant: every fold is 100% accurate
        values = [float(i % 2) for i in range(40)]
        labels = ["A" if v == 0 else "B" for v in values]
        data = make_dataset({"x": values}, labels)
        report = cross_validate(data, PipelineConfig(method="mdlp"), folds=5)
        assert report.fold_accuracies == [1.0] * 5
        assert report.std == 0.0

    def test_two_fold_std(self, iris):
        report = cross_validate(iris, PipelineConfig(method="sadd"), folds=2)
        assert report.std == np.std(report.fold_accuracies, ddof=1) > 0

    def test_fold_count_validated(self, iris):
        with pytest.raises(ValueError, match="folds"):
            cross_validate(iris, PipelineConfig(), folds=1)

    def test_failure_names_its_fold(self, iris):
        # about 7 labeled training rows: select_k cannot hold out a ninth
        config = PipelineConfig(method="sadd", labeled_fraction=0.05)
        message = r"^\[pseudo-label\] fold 0: need at least 9"
        with pytest.raises(PipelineError, match=message) as info:
            cross_validate(iris, config)
        assert info.value.stage == "pseudo-label"


def count_calls(monkeypatch, *names):
    """Patch the named evaluate-module functions; return a name -> call count dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(evaluate_module, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(evaluate_module, name, counting)
    return calls


class TestFoldMajor:
    MIXED = [
        PipelineConfig(method="sadd", classifier="nb"),
        PipelineConfig(method="sadd", classifier="rnb", max_iter=5),
        PipelineConfig(method="sadd", classifier="wanbia", max_iter=5, labeled_fraction=0.4),
        PipelineConfig(method="sadd", classifier="nb", labeled_fraction=0.4, transductive=False),
        PipelineConfig(method="mdlp", classifier="cawnb", max_iter=5, labeled_fraction=0.4),
        PipelineConfig(method="eqf", classifier="nb", labeled_fraction=0.4),
        PipelineConfig(method="eqf", classifier="nb", bins=4, seed=2),
        PipelineConfig(method="sadd", classifier="nb", pseudo_label=False, seed=2),
        PipelineConfig(method="sadd", classifier="nb", labeled_fraction=0.05),  # fails
        # four schemes on the same rows: the method, n0 and bins tell them apart
        PipelineConfig(method="mdlp", classifier="nb"),
        PipelineConfig(method="sadd", classifier="nb", pseudo_label=False),
        PipelineConfig(method="sadd", classifier="nb", pseudo_label=False, n0=40),
        PipelineConfig(method="eqf", classifier="nb"),
        PipelineConfig(method="eqf", classifier="nb", bins=3),
        PipelineConfig(method="eqw", classifier="nb", bins=3),
    ]

    def test_shared_stages_give_the_one_config_results(self, iris):
        together = cross_validate_configs(iris, self.MIXED + self.MIXED[:1], 4, "iris")
        assert report_to_dict(together[-1]) == report_to_dict(together[0])  # a repeated config
        for config, outcome in zip(self.MIXED, together):
            try:
                alone = cross_validate(iris, config, 4, "iris")
            except PipelineError as exc:
                assert isinstance(outcome, PipelineError) and str(outcome) == str(exc)
                assert outcome.stage == exc.stage
                continue
            assert report_to_dict(outcome) == report_to_dict(alone)

    def test_each_stage_runs_once_per_fold_and_key(self, iris, monkeypatch):
        calls = count_calls(
            monkeypatch, "impute_missing", "split_labeled_fraction", "select_k",
            "pseudo_label", "build_scheme", "fit_nb", "train_wanbia", "train_cawnb", "train_rnb",
        )
        same_front_end = [
            PipelineConfig(method="sadd", classifier=c, max_iter=3)
            for c in ("nb", "wanbia", "cawnb", "rnb")
        ]
        cross_validate_configs(iris, same_front_end, 3, with_diagnostics=False)
        assert calls == {
            "impute_missing": 3, "split_labeled_fraction": 0, "select_k": 3,
            "pseudo_label": 3, "build_scheme": 3, "fit_nb": 3,
            "train_wanbia": 3, "train_cawnb": 3, "train_rnb": 3,
        }

        calls.update(dict.fromkeys(calls, 0))
        partial = [
            PipelineConfig(method="sadd", labeled_fraction=0.5),
            PipelineConfig(method="sadd", labeled_fraction=0.5, transductive=False),
            PipelineConfig(method="mdlp", labeled_fraction=0.5),
            PipelineConfig(method="eqf", labeled_fraction=0.5),
            PipelineConfig(method="eqf", labeled_fraction=0.5, classifier="wanbia", max_iter=3),
            PipelineConfig(method="eqf", classifier="wanbia", max_iter=3),
        ]
        cross_validate_configs(iris, partial, 3, with_diagnostics=False)
        # per fold: one split; one k for both sadd pools, one pool per
        # transductive flag; sadd x 2 pools + mdlp + one eqf scheme; the eqf
        # models on the two labeled sets differ
        assert calls == {
            "impute_missing": 3, "split_labeled_fraction": 3, "select_k": 3,
            "pseudo_label": 6, "build_scheme": 12, "fit_nb": 15,
            "train_wanbia": 6, "train_cawnb": 0, "train_rnb": 0,
        }

    def test_diagnostics_once_per_method_n0_and_bins(self, iris, monkeypatch):
        calls = count_calls(monkeypatch, "whole_data_diagnostics")
        configs = [
            PipelineConfig(method="mdlp", classifier=c, max_iter=3)
            for c in ("nb", "wanbia", "cawnb")
        ] + [PipelineConfig(method="mdlp", n0=7), PipelineConfig(method="eqw", seed=1)]
        reports = cross_validate_configs(iris, configs, 3)
        assert calls["whole_data_diagnostics"] == 3
        assert reports[0].diagnostics is reports[2].diagnostics

    def test_nothing_is_shared_outside_a_fold(self, iris, monkeypatch):
        calls = count_calls(monkeypatch, "build_scheme")
        plan = stratified_folds(iris, 3, seed=0)
        config = PipelineConfig(method="mdlp")
        for _ in range(2):
            run_fold(iris, plan.train_rows(0), plan.test_rows(0), config)
        assert calls["build_scheme"] == 2
        for fold in (0, 0, 1):
            run_folds(iris, plan.train_rows(fold), plan.test_rows(fold), [config] * 2, fold)
        assert calls["build_scheme"] == 5

    def test_run_fold_calls_sharing_one_stages_dict_build_once(self, iris, monkeypatch):
        calls = count_calls(monkeypatch, "build_scheme")
        plan = stratified_folds(iris, 3, seed=0)
        train, test = plan.train_rows(1), plan.test_rows(1)
        configs = [
            PipelineConfig(method="sadd", seed=4),
            PipelineConfig(method="sadd", classifier="rnb", max_iter=5, seed=4),
        ]
        stages: dict = {}
        shared = [run_fold(iris, train, test, config, stages) for config in configs]
        assert calls["build_scheme"] == 1 and stages
        for config, result in zip(configs, shared):
            assert result == run_fold(iris, train, test, config)
        assert calls["build_scheme"] == 3

    def test_split_nodes_do_not_outlive_a_fold(self, iris, monkeypatch):
        calls = count_node_evaluations(monkeypatch)
        plan = stratified_folds(iris, 3, seed=0)
        train, test = plan.train_rows(0), plan.test_rows(0)
        sadd = PipelineConfig(method="sadd", pseudo_label=False)
        run_folds(iris, train, test, [sadd], 0)
        alone = len(calls)
        # mdlp reads the sadd nodes of its fold; the next call evaluates anew
        for _ in range(2):
            calls.clear()
            run_folds(iris, train, test, [sadd, PipelineConfig(method="mdlp")], 0)
            assert len(calls) == alone > 0

    def test_diagnostics_evaluate_no_whole_data_node_twice(self, iris, monkeypatch):
        seen = []
        real = discretize_module._best_split

        def recording(values, prefix, lo, hi):
            seen.append((values.tobytes(), lo, hi))  # values: one sorted column
            return real(values, prefix, lo, hi)

        monkeypatch.setattr(discretize_module, "_best_split", recording)
        configs = [PipelineConfig(method="sadd", pseudo_label=False), PipelineConfig(method="mdlp")]
        cross_validate_configs(iris, configs, 3)
        whole = [node for node in seen if len(node[0]) == 8 * iris.n_rows]
        assert whole and len(set(whole)) == len(whole)
        # a dataset of the same shape gets nodes of its own
        columns = iris.columns[1:] + iris.columns[:1]
        other = Dataset(iris.names, iris.kinds, columns, iris.missing, iris.labels)
        for config, report in zip(configs, cross_validate_configs(other, configs, 3)):
            assert report.diagnostics == whole_data_diagnostics(other, config.method)[1]

    def test_diagnostics_error_is_that_configs_outcome(self, iris, monkeypatch):
        real = evaluate_module.whole_data_diagnostics

        def diagnostics(data, method, *args, **kwargs):
            if method == "eqw":
                raise ValueError("no eqw diagnostics")
            return real(data, method, *args, **kwargs)

        monkeypatch.setattr(evaluate_module, "whole_data_diagnostics", diagnostics)
        configs = [PipelineConfig(method="mdlp"), PipelineConfig(method="eqw")]
        mdlp, eqw = cross_validate_configs(iris, configs, 3)
        assert isinstance(eqw, ValueError) and str(eqw) == "no eqw diagnostics"
        assert mdlp.diagnostics == real(iris, "mdlp")[1]
        assert len(mdlp.fold_accuracies) == 3

    def test_failed_fold_is_prefixed_and_others_still_run(self, iris):
        plan = stratified_folds(iris, 3, seed=0)
        configs = [PipelineConfig(method="sadd", labeled_fraction=0.05), PipelineConfig()]
        failed, ok = run_folds(iris, plan.train_rows(2), plan.test_rows(2), configs, 2)
        assert isinstance(failed, PipelineError) and failed.stage == "pseudo-label"
        assert str(failed).startswith("[pseudo-label] fold 2: need at least 9")
        assert ok.accuracy > 0.8


@st.composite
def shared_stage_configs(draw):
    """A config over every field some shared stage reads; trainers take at most 3 steps."""
    method = draw(st.sampled_from(["mdlp", "sadd", "eqw", "eqf"]))
    return PipelineConfig(
        method=method,
        classifier=draw(st.sampled_from(["nb", "wanbia", "cawnb", "rnb"])),
        n0=draw(st.sampled_from([1, 40, 2000])),
        bins=draw(st.sampled_from([1, 3])),
        pseudo_label=draw(st.sampled_from([None, False] + [True] * (method in ("mdlp", "sadd")))),
        transductive=draw(st.booleans()),
        labeled_fraction=draw(st.sampled_from([0.3, 0.6, 1.0])),
        k_grid=draw(st.sampled_from([(1,), (15,), (1, 15), DEFAULT_K_GRID])),
        max_iter=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 1)),
    )


def fold_outcome(result):
    """A fold's result, or its failure as (stage, message)."""
    return (result.stage, str(result)) if isinstance(result, Exception) else result


def no_fold_work(tasks):
    """``map_folds`` that scores every config 1.0 on every fold without fitting anything."""
    return ([FoldResult(1.0, None, [])] * len(group) for _, _, group, _ in tasks)


class TestStageSharing:
    @settings(max_examples=30)
    @given(configs=st.lists(shared_stage_configs(), min_size=2, max_size=4))
    # k = 15 alone on iris, but k = 1 beside k_grid (1,) if select_k's key
    # misses k_grid; then pairs that differ in one field on the same rows,
    # which the drawn lists miss: transductive, select_k's seed, and n0
    @example(configs=[PipelineConfig(labeled_fraction=0.3, k_grid=k_grid) for k_grid in [(1,), (15,)]])
    @example(configs=[PipelineConfig(labeled_fraction=0.3, transductive=t) for t in (True, False)])
    @example(configs=[PipelineConfig(seed=seed) for seed in (0, 1)])
    @example(configs=[PipelineConfig(pseudo_label=False, labeled_fraction=0.3, n0=n0) for n0 in (40, 2000)])
    def test_configs_together_give_what_each_gives_alone(self, iris, configs):
        # run_folds, unlike cross_validate_configs, runs configs of different
        # seeds on one stage dict
        plan = stratified_folds(iris, 5, seed=0)
        rows = plan.train_rows(0), plan.test_rows(0)
        together = run_folds(iris, *rows, configs, 0)
        alone = [run_folds(iris, *rows, [config], 0)[0] for config in configs]
        assert list(map(fold_outcome, together)) == list(map(fold_outcome, alone))

        together = cross_validate_configs(iris, configs, 2, map_folds=no_fold_work)
        for config, report in zip(configs, together):
            alone = cross_validate_configs(iris, [config], 2, map_folds=no_fold_work)[0]
            assert report.diagnostics == alone.diagnostics

    def test_stage_reads_covers_every_config_field(self):
        # fields that only pick a branch or set the trainer, which no stage keeps
        unread = {"classifier", "max_iter", "tol", "pseudo_label"}
        read = {name for names in STAGE_READS.values() for name in names}
        assert read.isdisjoint(unread)
        assert read | unread == {f.name for f in fields(PipelineConfig)}

    def test_every_pipeline_flag_is_a_config_field(self):
        # a flag whose dest is no config field would be dropped, not applied
        not_config = {"help", "input", "output", "schema", "manifest", "dataset", "folds",
                      "output_dir", "jobs", "missing_token", "diagnostics_out"}
        config_fields = {f.name for f in fields(PipelineConfig)}
        assert not_config.isdisjoint(config_fields)
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        for command in ("discretize", "bench", "train"):
            for action in commands[command]._actions:
                assert action.dest in config_fields | not_config, (command, action.dest)


def test_tokens_are_coded_only_at_load(tmp_path, monkeypatch):
    # every call of the two token coders records the length of its input; an
    # integer array (codes) that class_codes counts by bincount is not coding,
    # and after load no other call looks up more entries than a vocabulary holds
    calls = []

    def recording(name):
        real = getattr(data_module, name)

        def record(tokens, *args, **kwargs):
            counted = name == "class_codes" and isinstance(tokens, np.ndarray) and tokens.dtype.kind in "iu"
            calls.append(0 if counted else len(tokens))
            return real(tokens, *args, **kwargs)
        return record

    for module in (data_module, discretize_module, pseudo_module, weighted_nb_module, evaluate_module):
        for name in ("_token_codes", "class_codes"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(name))
    gen, path = load_bench_gen(), tmp_path / "data.csv"
    gen.write(path, gen.generate(gen.Shape(4, 2, 3, 0.05, 0.8), 600, seed=0))
    data = load_csv(path)
    assert max(calls) == 600  # load codes each row's tokens
    calls.clear()
    configs = [PipelineConfig(method="sadd", labeled_fraction=0.5),
               PipelineConfig(method="mdlp", classifier="rnb", max_iter=5, labeled_fraction=0.5),
               PipelineConfig(method="mdlp"), PipelineConfig(method="eqf")]
    reports = cross_validate_configs(data, configs, folds=3)
    assert all(isinstance(report, EvalReport) for report in reports)
    assert 0 < max(calls) <= max(len(data.classes), *map(len, data.vocab.values()))


class TestPipelineFuzz:
    def test_random_configs_fail_only_with_stage_tags(self):
        # degenerate datasets and configurations may legitimately error, but
        # always as PipelineError (stage-tagged) or ValueError, never anything
        # else, and successful runs return sane accuracies
        from nbdisc.data import AttributeKind, Dataset

        rng = np.random.default_rng(2027)
        outcomes = {"ok": 0, "error": 0}
        for trial in range(40):
            n = int(rng.integers(8, 50))
            n_num = max(1, int(rng.integers(0, 4)))
            n_cat = int(rng.integers(0, 3))
            y = rng.integers(0, int(rng.integers(2, 5)), n)
            y[0], y[1] = 0, 1
            cols, names, kinds = [], [], []
            for j in range(n_num):
                col = rng.normal(y * rng.uniform(0, 3), 1.0)
                if rng.random() < 0.3:
                    col = col.round(0)
                cols.append(col)
                names.append(f"f{j}")
                kinds.append(AttributeKind.NUMERIC)
            for j in range(n_cat):
                tokens = np.array(["a", "b", "c"], dtype=object)
                cols.append(tokens[rng.integers(0, 3, n)])
                names.append(f"c{j}")
                kinds.append(AttributeKind.CATEGORICAL)
            missing = rng.random((n, n_num + n_cat)) < 0.1
            for j in range(n_num):
                cols[j] = cols[j].copy()
                cols[j][missing[:, j]] = np.nan
            data = Dataset(
                names=names,
                kinds=kinds,
                columns=cols,
                missing=missing,
                labels=np.array([f"cl{v}" for v in y], dtype=object),
            )
            method = str(rng.choice(["mdlp", "sadd", "eqw", "eqf"]))
            config = PipelineConfig(
                method=method,
                classifier=str(rng.choice(["nb", "wanbia", "cawnb", "rnb"])),
                n0=int(rng.choice([1, 100, 2000])),
                bins=int(rng.integers(1, 12)),
                pseudo_label=bool(rng.random() < 0.5) if method in ("mdlp", "sadd") else None,
                transductive=bool(rng.random() < 0.7),
                labeled_fraction=float(rng.choice([0.2, 0.6, 1.0])),
                max_iter=int(rng.choice([0, 5, 30])),
                seed=trial,
            )
            try:
                report = cross_validate(data, config, folds=3, with_diagnostics=False)
                assert all(0.0 <= a <= 1.0 for a in report.fold_accuracies)
                outcomes["ok"] += 1
            except (PipelineError, ValueError):
                outcomes["error"] += 1
        assert outcomes["ok"] > 0


class TestDiagnostics:
    def test_constant_attribute(self):
        data = make_dataset({"x": [3.0, 3.0, 3.0, 3.0]}, ["A", "B", "A", "B"])
        scheme = build_scheme(data, "mdlp")
        table = diagnostics_table(scheme, apply_scheme(scheme, data))
        assert table.rows[0].intervals == 1
        assert table.rows[0].mi == pytest.approx(0.0)

    def test_averages(self, iris):
        scheme = build_scheme(iris, "sadd")
        table = diagnostics_table(scheme, apply_scheme(scheme, iris))
        assert len(table.rows) == 4
        assert table.avg_intervals == pytest.approx(
            np.mean([r.intervals for r in table.rows])
        )

    def test_categorical_attributes_excluded(self, toy_mixed):
        from nbdisc.data import impute_missing

        imputed = impute_missing(toy_mixed, toy_mixed)
        scheme = build_scheme(imputed, "mdlp")
        table = diagnostics_table(scheme, apply_scheme(scheme, imputed))
        assert [r.name for r in table.rows] == ["temp"]


@pytest.fixture(scope="module")
def two_reports(iris):
    fast = PipelineConfig(method="sadd", classifier="nb", seed=0)
    slow = PipelineConfig(method="mdlp", classifier="nb", seed=0)
    return [
        cross_validate(iris, fast, dataset_name="iris"),
        cross_validate(iris, slow, dataset_name="iris"),
    ]


class TestReports:
    def test_report_round_trip(self, two_reports):
        doc = report_to_dict(two_reports[0])
        back = report_from_dict(json.loads(json.dumps(doc)))
        assert report_to_dict(back) == doc

    def test_results_file_round_trip(self, two_reports, tmp_path):
        path = tmp_path / "results.json"
        emit_report(two_reports, path, seed=0, format="json")
        loaded = load_results(path)
        assert loaded == results_document(two_reports, seed=0)
        assert loaded["seed"] == 0
        assert all("config_hash" in run for run in loaded["runs"])

    def test_significance_marker_on_losing_column(self, two_reports):
        table = format_comparison_table(two_reports)
        lines = table.splitlines()
        assert "sadd+nb" in lines[0] and "mdlp+nb" in lines[0]
        # candidate column carries no bullet; the significantly-worse baseline does
        assert lines[1].count("•") == 1

    def test_bullets_are_the_vs_first_wins_when_a_first_config_fails(self, iris):
        # on every fifth iris row, sadd@0.2 leaves select_k too few labeled rows
        configs = [
            PipelineConfig(method="sadd", labeled_fraction=0.2),
            PipelineConfig(method="mdlp"),
            PipelineConfig(method="eqw", bins=2),
        ]
        reports = [
            outcome
            for name, data in (("iris", iris), ("iris30", iris.subset(np.arange(0, 150, 5))))
            for outcome in cross_validate_configs(data, configs, 5, name)
            if not isinstance(outcome, Exception)
        ]
        assert [r.dataset for r in reports] == ["iris"] * 3 + ["iris30"] * 2
        lines = [re.split(r"\s{2,}", line) for line in format_comparison_table(reports).splitlines()]
        marked = {
            (row[0], label)
            for row in lines[1:]
            for label, cell in zip(lines[0][1:], row[1:])
            if cell.endswith("•")
        }
        wins = {
            (run["dataset"], config_from_dict(run["config"]).label())
            for run in results_document(reports, seed=0)["runs"]
            if run["vs_first"] and run["vs_first"]["candidate_significantly_better"]
        }
        assert ("iris30", "eqw+nb") in wins
        assert marked == wins

    def test_single_config_no_markers(self, two_reports):
        table = format_comparison_table(two_reports[:1])
        assert "•" not in table

    def test_vs_first_entries(self, two_reports):
        doc = results_document(two_reports, seed=0)
        assert doc["runs"][0]["vs_first"] is None
        vs = doc["runs"][1]["vs_first"]
        assert vs["candidate_significantly_better"] in (True, False)
        assert vs["t"] == pytest.approx(
            paired_t_test_one_tailed(
                two_reports[0].fold_accuracies, two_reports[1].fold_accuracies
            ).t
        )

    def test_results_document_is_strict_json(self):
        # no numeric attribute leaves no averages, and equal fold differences
        # give t = +inf: JSON has neither NaN nor Infinity
        empty = DiagnosticsTable(rows=[])
        reports = [
            EvalReport("cat", PipelineConfig(method="mdlp"), [0.5, 0.75, 1.0], [None] * 3, empty),
            EvalReport("cat", PipelineConfig(method="eqw"), [0.25, 0.5, 0.75], [None] * 3, empty),
        ]
        doc = strict_json(json.dumps(results_document(reports, seed=0)))
        assert doc["runs"][0]["diagnostics"]["avg_intervals"] is None
        assert doc["runs"][0]["diagnostics"]["avg_mi"] is None
        assert doc["runs"][1]["vs_first"] == {
            "candidate_hash": config_hash(reports[0].config),
            "t": None,
            "p": 0.0,
            "candidate_significantly_better": True,
        }

    def test_colliding_labels_name_the_fields_that_differ(self, tmp_path):
        configs = [
            PipelineConfig(method="eqw", bins=2),
            PipelineConfig(method="eqw", bins=1),
            PipelineConfig(method="mdlp"),
            PipelineConfig(labeled_fraction=0.3, k_grid=(1,)),
            PipelineConfig(labeled_fraction=0.3, k_grid=(15,), tol=1e-3),
        ]
        labels = [
            "eqw+nb bins=2", "eqw+nb bins=1", "mdlp+nb",
            "sadd+nb@0.3 k_grid=[1] tol=1e-06", "sadd+nb@0.3 k_grid=[15] tol=0.001",
        ]
        reports = [EvalReport("iris", config, [0.5, 0.75], [None] * 2) for config in configs]
        header = format_comparison_table(reports).splitlines()[0]
        assert re.split(r"\s{2,}", header) == ["dataset", *labels]
        emit_report(reports, tmp_path / "results.txt", seed=0, format="table")
        lines = (tmp_path / "results.txt").read_text().splitlines()
        assert lines[1:6] == [f"# config {config_hash(c)}: {l}" for c, l in zip(configs, labels)]

    def test_unknown_format_rejected(self, two_reports, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report(two_reports, tmp_path / "x", seed=0, format="yaml")
