from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    brute_force_best_cut,
    count_node_evaluations,
    entropy_bits,
    loop_equal_frequency,
    make_dataset,
    masked_cut_gains,
)

import nbdisc.discretize as discretize_module
import nbdisc.evaluate as evaluate_module
from nbdisc.data import AttributeKind, class_codes, impute_missing
from nbdisc.discretize import (
    ClassCounts,
    CutCandidate,
    DiscretizationScheme,
    apply_scheme,
    best_cut,
    build_scheme,
    class_entropy,
    equal_frequency,
    equal_width,
    information_gain,
    load_scheme,
    mdlp_partition,
    mdlp_threshold,
    mutual_information,
    sadd_partition,
    sadd_threshold,
    save_scheme,
    sigmoid,
    threshold_curve,
)


def counts(*values):
    return ClassCounts(np.array(values))


def candidate_from(values, labels, cut):
    classes = sorted(set(labels))
    left = [sum(1 for v, l in zip(values, labels) if v < cut and l == c) for c in classes]
    right = [sum(1 for v, l in zip(values, labels) if v >= cut and l == c) for c in classes]
    return CutCandidate(value=cut, left=counts(*left), right=counts(*right))


class TestClassEntropy:
    def test_uniform_two_class(self):
        assert class_entropy(counts(5, 5)) == 1.0

    def test_pure(self):
        assert class_entropy(counts(10, 0)) == 0.0

    def test_skewed(self):
        # -0.25 log2 0.25 - 0.75 log2 0.75
        assert class_entropy(counts(2, 6)) == pytest.approx(0.811278, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_entropy(counts(0, 0))

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            c = rng.integers(0, 20, k)
            c[rng.integers(k)] += 1  # keep the set non-empty
            h = class_entropy(ClassCounts(c))
            assert 0.0 <= h <= math.log2(max((c > 0).sum(), 1)) + 1e-12


class TestInformationGain:
    def test_perfect_cut(self):
        cand = candidate_from([1, 2, 3, 4], ["A", "A", "B", "B"], 3)
        assert information_gain(counts(2, 2), cand) == pytest.approx(1.0)

    def test_proportional_children_no_gain(self):
        cand = CutCandidate(value=0.0, left=counts(2, 2), right=counts(4, 4))
        assert information_gain(counts(6, 6), cand) == pytest.approx(0.0, abs=1e-12)

    def test_alternating_labels_no_gain(self):
        cand = candidate_from([1, 2, 3, 4], ["A", "B", "A", "B"], 3)
        assert information_gain(counts(2, 2), cand) == pytest.approx(0.0, abs=1e-12)

    def test_inconsistent_counts_rejected(self):
        cand = CutCandidate(value=0.0, left=counts(1, 0), right=counts(1, 1))
        with pytest.raises(ValueError, match="inconsistent"):
            information_gain(counts(3, 3), cand)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            values = np.sort(rng.integers(0, 8, n).astype(float))
            labels = [f"c{i}" for i in rng.integers(0, 4, n)]
            cand = best_cut(values, labels)
            if cand is None:
                continue
            parent = ClassCounts(cand.left.counts + cand.right.counts)
            assert information_gain(parent, cand) >= 0.0

    @given(st.integers(1, 10).flatmap(lambda k: st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, k - 1)), min_size=2, max_size=150
    )), st.data())
    def test_bit_equal_to_the_split_search_gain(self, rows, data):
        # up to 10 classes: numpy sums 8 or more terms pairwise
        rows.sort(key=lambda row: row[0])
        values = np.array([v for v, _ in rows], dtype=float)
        codes = np.array([c for _, c in rows])
        prefix = discretize_module._prefix_counts(codes, int(codes.max()) + 1)
        lo = data.draw(st.integers(0, len(rows) - 2))
        hi = data.draw(st.integers(lo + 2, len(rows)))
        found = discretize_module._best_split(values, prefix, lo, hi)
        if found is None:
            return
        pos, gain = found
        left, right = prefix[:, pos] - prefix[:, lo], prefix[:, hi] - prefix[:, pos]
        cand = CutCandidate(values[pos], ClassCounts(left), ClassCounts(right))
        got = information_gain(ClassCounts(left + right), cand)
        assert np.float64(got).tobytes() == np.float64(gain).tobytes()


class TestMdlpThreshold:
    def test_four_samples_pure_halves(self):
        cand = candidate_from([1, 2, 3, 4], ["A", "A", "B", "B"], 3)
        expected = math.log2(3) / 4 + (math.log2(7) - 2) / 4
        theta = mdlp_threshold(counts(2, 2), cand)
        assert theta == pytest.approx(expected)
        assert theta == pytest.approx(0.59808, abs=1e-5)

    def test_single_class_two_samples(self):
        cand = candidate_from([1, 2], ["A", "A"], 2)
        assert mdlp_threshold(counts(2), cand) == pytest.approx(0.0, abs=1e-12)

    def test_first_term_decreases_with_n(self):
        first_term = [math.log2(n - 1) / n for n in (10, 100, 1000)]
        assert first_term[0] > first_term[1] > first_term[2]
        # and the same trend shows through the full threshold at fixed delta
        thetas = []
        for n in (10, 100, 1000):
            half = n // 2
            cand = CutCandidate(value=0.0, left=counts(half, 0), right=counts(0, n - half))
            thetas.append(mdlp_threshold(counts(half, n - half), cand))
        assert thetas[0] > thetas[1] > thetas[2]

    def test_too_small_rejected(self):
        cand = candidate_from([1, 2], ["A", "B"], 2)
        with pytest.raises(ValueError):
            mdlp_threshold(counts(1), cand)


class TestSaddThreshold:
    def test_multiplier_at_equal_counts(self):
        assert sadd_threshold(1.0, 2000, 2000) == pytest.approx(1 / (1 + math.exp(-1)))

    def test_small_node_multiplier_near_half(self):
        # s(4/2000) = 0.50050 computed directly from the definition
        s = 1 / (1 + math.exp(-4 / 2000))
        assert sadd_threshold(0.59808, 4, 2000) == pytest.approx(s * 0.59808)
        assert sadd_threshold(0.59808, 4, 2000) == pytest.approx(0.29934, abs=1e-5)

    def test_zero_threshold_stays_zero(self):
        assert sadd_threshold(0.0, 10, 100) == 0.0

    @pytest.mark.parametrize("n0", [1, 2000])
    def test_single_row_node(self, n0):
        assert sadd_threshold(0.5, 1, n0) == 0.5 / (1 + math.exp(-1 / n0))

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            sadd_threshold(0.5, 0, 100)
        with pytest.raises(ValueError):
            sadd_threshold(0.5, 10, 0)


class TestBestCut:
    def test_hand_enumeration(self):
        # candidates d in {2, 3, 4}: gains 0.311, 1.0, 0.311
        cand = best_cut([1, 2, 3, 4], ["A", "A", "B", "B"])
        assert cand.value == 3
        parent = ClassCounts(cand.left.counts + cand.right.counts)
        assert information_gain(parent, cand) == pytest.approx(1.0)

    def test_uniform_labels_returns_smallest_candidate(self):
        cand = best_cut([1, 2, 3], ["A", "A", "A"])
        assert cand.value == 2
        parent = ClassCounts(cand.left.counts + cand.right.counts)
        assert information_gain(parent, cand) == 0.0

    def test_single_distinct_value(self):
        assert best_cut([2, 2, 2], ["A", "B", "A"]) is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            best_cut([], [])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            best_cut([3, 1, 2], ["A", "B", "A"])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            values = np.sort(rng.integers(0, 6, n).astype(float))
            labels = [f"c{i}" for i in rng.integers(0, 3, n)]
            expected = brute_force_best_cut(values, labels)
            got = best_cut(values, labels)
            if expected is None:
                assert got is None
                continue
            parent = ClassCounts(got.left.counts + got.right.counts)
            assert got.value == expected[0]
            assert information_gain(parent, got) == pytest.approx(expected[1], abs=1e-9)


class TestPartitions:
    def test_mdlp_accepts_then_stops(self):
        # gain 1.0 > theta 0.598 at the root; both halves are pure
        assert mdlp_partition([1, 2, 3, 4], ["A", "A", "B", "B"]) == [3]

    def test_mdlp_single_class(self):
        assert mdlp_partition([1, 2, 3, 4], ["A", "A", "A", "A"]) == []

    def test_mdlp_constant(self):
        assert mdlp_partition([5, 5, 5], ["A", "B", "A"]) == []

    def test_sadd_contains_mdlp_cuts(self):
        assert set(sadd_partition([1, 2, 3, 4], ["A", "A", "B", "B"], 2000)) >= {3}

    def test_sadd_at_n0_one(self, iris):
        assert sadd_partition([1, 2, 3, 4], ["A", "A", "B", "B"], 1) == [3]
        # sigmoid(n) < 1 lowers every threshold below mdlp's
        column = iris.columns[0]
        assert set(sadd_partition(column, iris.labels, 1)) >= set(mdlp_partition(column, iris.labels))

    def test_sadd_constant(self):
        assert sadd_partition([7, 7], ["A", "B"], 2000) == []

    def test_sadd_splits_where_mdlp_stops(self):
        # brute-force search over 8-sample two-class label vectors for a node
        # with scaled-threshold < gain < plain-threshold
        values = list(range(1, 9))
        found = None
        for mask in range(1, 2**8 - 1):
            labels = ["A" if mask & (1 << i) else "B" for i in range(8)]
            cand = best_cut(values, labels)
            if cand is None:
                continue
            parent = ClassCounts(cand.left.counts + cand.right.counts)
            gain = information_gain(parent, cand)
            theta = mdlp_threshold(parent, cand)
            scaled = sadd_threshold(theta, 8, 2000)
            if scaled < gain < theta:
                found = labels
                break
        assert found is not None
        assert mdlp_partition(values, found) == []
        assert len(sadd_partition(values, found, 2000)) >= 1

    def test_containment_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 80))
            values = rng.normal(size=n).round(1)
            labels = [f"c{i}" for i in rng.integers(0, 4, n)]
            mdlp = set(mdlp_partition(values, labels))
            for n0 in (100, 2000):
                assert mdlp <= set(sadd_partition(values, labels, n0))

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            mdlp_partition([1.0, float("nan")], ["A", "B"])

    @pytest.mark.parametrize("values, labels", [
        ([-1, -1, -0.0, 0.0, 1, 1, -0.0, 0.0], "AABBBBBB"),
        ([-1, -1, 0.0, -0.0, 1, 1, 0.0, -0.0], "AABBBBBB"),
        ([0.0, -0.0, -1, -1], "BBAA"),
        ([-0.0, 0.0, -1, -1], "BBAA"),
    ])
    @pytest.mark.parametrize("partition", [mdlp_partition, sadd_partition])
    def test_a_cut_at_zero_keeps_the_sign_of_the_first_zero(self, partition, values, labels):
        # the sort keeps tied rows in input order, so -0.0 and 0.0 (equal,
        # but written differently in a model) cut as the first one given
        first_zero = next(v for v in values if v == 0)
        cuts = partition(values, list(labels))
        assert cuts == [0.0] and np.signbit(cuts[0]) == np.signbit(first_zero)


class TestCutGains:
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_bit_equal_to_masked_formula(self, n_classes, seed, magnitude):
        rng = np.random.default_rng(seed)
        parent = rng.integers(0, 10**magnitude, n_classes)
        parent[rng.integers(0, n_classes)] += 2
        left = rng.integers(0, parent + 1, (300, n_classes))
        # some classes empty on one side, so 0*log(0) terms are exercised
        left[rng.random(left.shape) < 0.2] = 0
        n_left = left.sum(axis=1)
        keep = (n_left > 0) & (n_left < parent.sum())
        left, n_left = left[keep], n_left[keep]
        got = discretize_module._cut_gains(parent, left.T, n_left)
        want = masked_cut_gains(parent, left, n_left)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(st.integers(1, 6).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=2, max_size=200))
    ), st.data())
    def test_bit_equal_on_prefix_count_nodes(self, problem, data):
        n_classes, codes = problem
        lo = data.draw(st.integers(0, len(codes) - 2))
        hi = data.draw(st.integers(lo + 2, len(codes)))
        prefix = discretize_module._prefix_counts(np.asarray(codes), n_classes)
        positions = np.arange(lo + 1, hi)
        parent, left = prefix[:, hi] - prefix[:, lo], prefix[:, positions] - prefix[:, lo, None]
        got = discretize_module._cut_gains(parent, left, positions - lo)
        want = masked_cut_gains(parent, np.ascontiguousarray(left.T), positions - lo)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @given(st.integers(8, 12), st.integers(0, 2**32 - 1))
    def test_bit_equal_to_masked_formula_from_8_classes(self, n_classes, seed):
        # numpy sums 8 or more terms pairwise along a contiguous axis, and a
        # strided class axis in another order
        rng = np.random.default_rng(seed)
        parent = rng.integers(0, 10**4, n_classes)
        parent[0] += 2
        left = rng.integers(0, parent + 1, (300, n_classes))
        left[rng.random(left.shape) < 0.2] = 0
        n_left = left.sum(axis=1)
        keep = (n_left > 0) & (n_left < parent.sum())
        left, n_left = left[keep], n_left[keep]
        got = discretize_module._cut_gains(parent, np.ascontiguousarray(left.T), n_left)
        want = masked_cut_gains(parent, left, n_left)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def tied_columns(draw):
    """(values, codes): few distinct values, 1-5 classes, labels partly set by value."""
    n = draw(st.integers(1, 150))
    n_classes = draw(st.integers(1, 5))
    levels = draw(st.integers(1, 12))
    values = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
    by_level = draw(st.lists(st.integers(0, n_classes - 1), min_size=levels, max_size=levels))
    noise = draw(st.lists(st.integers(-4, n_classes - 1), min_size=n, max_size=n))
    codes = [by_level[v] if c < 0 else c for v, c in zip(values, noise)]
    return np.asarray(values, dtype=float) / 4, np.asarray(codes, dtype=np.intp)


RULES = (None, 1, 7, 100, 2000)  # None: mdlp; otherwise sadd's n0


class TestSharedSplitTrees:
    @given(
        st.lists(tied_columns(), min_size=1, max_size=3),
        st.lists(st.sampled_from(RULES), min_size=1, max_size=10),
    )
    def test_walks_equal_fresh_partitions(self, columns, rules):
        # same values under other codes get a table of their own
        columns = columns + [(values, codes[::-1]) for values, codes in columns]
        partition = discretize_module._partition
        fresh = [{rule: partition(v, c, rule) for rule in RULES} for v, c in columns]
        tables = [{} for _ in columns]
        for rule in rules:
            for (values, codes), table, want in zip(columns, tables, fresh):
                assert partition(values, codes, rule, table) == want[rule]
        for want in fresh:
            for n0 in RULES[1:]:
                assert set(want[None]) <= set(want[n0])

    def test_repeated_input_evaluates_no_node_twice(self, iris, monkeypatch):
        calls = count_node_evaluations(monkeypatch)
        col, codes = iris.columns[2], class_codes(iris.labels)[1]
        partition, table = discretize_module._partition, {}
        sadd = partition(col, codes, 2000, table)
        first = list(calls)
        assert first and len(set(first)) == len(first)
        # the mdlp tree is a subtree of the sadd tree: nothing new
        assert set(partition(col, codes, None, table)) <= set(sadd)
        assert partition(col, codes, 2000, table) == sadd
        assert calls == first

    def test_schemes_sharing_nodes_evaluate_no_node_twice(self, iris, monkeypatch):
        calls = count_node_evaluations(monkeypatch)
        methods = ("mdlp", "sadd")
        fresh = {m: [c.tolist() for c in build_scheme(iris, m).cuts] for m in methods}
        calls.clear()
        build_scheme(iris, "sadd")
        sadd_alone = len(calls)
        calls.clear()
        nodes = {}
        for method in ("mdlp", "sadd", "mdlp", "sadd"):
            cuts = build_scheme(iris, method, nodes=nodes).cuts
            assert [c.tolist() for c in cuts] == fresh[method]
        assert sorted(nodes) == iris.numeric_attrs()
        assert 0 < len(calls) == sadd_alone

    def test_calls_outside_a_block_evaluate_their_nodes(self, iris, monkeypatch):
        # keeps criterion 10 a measurement of the splitter, not of a lookup
        calls = count_node_evaluations(monkeypatch)
        col, labels = iris.columns[2], iris.labels
        first = sadd_partition(col, labels, 2000)
        evaluated = len(calls)
        assert evaluated > 0
        assert sadd_partition(col, labels, 2000) == first
        assert len(calls) == 2 * evaluated


class TestUnsupervisedBins:
    def test_equal_width_arithmetic(self):
        assert equal_width([0, 10, 3, 7], 5) == [2, 4, 6, 8]

    def test_equal_width_single_bin(self):
        assert equal_width([1, 2, 3], 1) == []

    def test_equal_width_constant(self):
        assert equal_width([4, 4, 4], 5) == []

    def test_equal_width_zero_bins(self):
        with pytest.raises(ValueError):
            equal_width([1, 2], 0)

    def test_equal_frequency_median(self):
        assert equal_frequency(list(range(1, 11)), 2) == [5.5]

    def test_equal_frequency_saturation(self):
        cuts = equal_frequency(list(range(1, 11)), 20)
        assert cuts == [x + 0.5 for x in range(1, 10)]

    def test_equal_frequency_ties_dedup(self):
        assert equal_frequency([1, 1, 1, 1, 2], 2) == [1.5]

    @given(
        st.lists(
            st.one_of(st.integers(-3, 3).map(float), st.floats(-1e12, 1e12)),
            min_size=1, max_size=60,
        ),
        st.integers(1, 30),
    )
    def test_equal_frequency_matches_loop(self, values, bins):
        assert equal_frequency(values, bins) == loop_equal_frequency(values, bins)

    def test_equal_frequency_zero_bins(self):
        with pytest.raises(ValueError):
            equal_frequency([1, 2], 0)


class TestScheme:
    def test_unknown_method(self, iris):
        with pytest.raises(ValueError, match="unknown method"):
            build_scheme(iris, "chimera")

    def test_categorical_passthrough(self, toy_mixed):
        imputed = impute_missing(toy_mixed, toy_mixed)
        scheme = build_scheme(imputed, "mdlp")
        assert scheme.cuts[1].size == 0
        assert scheme.cuts[2].size == 0

    def test_zero_numeric_attributes(self):
        data = make_dataset({"c": ["x", "y", "x"]}, ["A", "B", "A"])
        scheme = build_scheme(data, "sadd")
        assert [c.size for c in scheme.cuts] == [0]

    @pytest.mark.parametrize("numeric", [False, True])
    @pytest.mark.parametrize(
        "method, params, message",
        [
            ("sadd", {"n0": 0}, "n0 must be at least 1"),
            ("eqw", {"bins": 0}, "bins must be at least 1"),
            ("eqf", {"bins": -1}, "bins must be at least 1"),
        ],
    )
    def test_bad_params_rejected_for_any_attributes(self, numeric, method, params, message):
        columns = {"c": ["x", "y", "x"]}
        if numeric:
            columns["v"] = [1.0, 2.0, 3.0]
        data = make_dataset(columns, ["A", "B", "A"])
        with pytest.raises(ValueError, match=message):
            build_scheme(data, method, **params)

    def test_n0_is_checked_for_sadd_only(self, iris):
        # mdlp records no n0, so it builds from any
        cuts = [c.tolist() for c in build_scheme(iris, "mdlp", n0=0).cuts]
        assert cuts == [c.tolist() for c in build_scheme(iris, "mdlp").cuts]

    @pytest.mark.parametrize("fixture", ["iris", "toy_mixed"])
    @pytest.mark.parametrize("method", ["mdlp", "sadd"])
    def test_cuts_equal_per_attribute_partition(self, request, fixture, method):
        data = request.getfixturevalue(fixture)
        data = impute_missing(data, data)
        scheme = build_scheme(data, method, n0=40)
        for j, kind in enumerate(data.kinds):
            col = data.columns[j]
            if kind is not AttributeKind.NUMERIC:
                expected = []
            elif method == "mdlp":
                expected = mdlp_partition(col, data.labels)
            else:
                expected = sadd_partition(col, data.labels, 40)
            assert scheme.cuts[j].tolist() == expected

    @pytest.mark.parametrize("width", [1, 4])
    def test_labels_coded_once_per_call(self, iris, monkeypatch, width):
        calls = []

        def counting(labels):
            calls.append(len(labels))
            return class_codes(labels)

        monkeypatch.setattr(discretize_module, "class_codes", counting)
        monkeypatch.setattr(evaluate_module, "class_codes", counting)
        data = make_dataset({iris.names[j]: iris.columns[j] for j in range(width)}, iris.labels)
        for method in ("mdlp", "sadd"):
            scheme = build_scheme(data, method, n0=40)
            evaluate_module.diagnostics_table(scheme, apply_scheme(scheme, data))
            assert calls == [150, 150]
            calls.clear()

    def test_apply_index_convention(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, ["A"] * 4)
        scheme = build_scheme(data, "mdlp")
        scheme.cuts[0] = np.array([3.0])
        out = apply_scheme(scheme, data)
        assert out.columns[0].tolist() == [0, 0, 1, 1]

    def test_apply_gives_integer_indices_and_leaves_input_unchanged(self, toy_mixed):
        data = impute_missing(toy_mixed, toy_mixed)
        before = [col.copy() for col in data.columns], data.missing.copy(), data.labels.copy()
        out = apply_scheme(build_scheme(data, "mdlp"), data)
        for j in data.numeric_attrs():
            assert out.columns[j].dtype == np.intp
        for j in data.categorical_attrs():
            assert out.columns[j] is data.columns[j]
        for col, kept in zip(data.columns, before[0]):
            assert col.dtype == kept.dtype and col.tolist() == kept.tolist()
        assert np.array_equal(data.missing, before[1]) and data.labels.tolist() == before[2].tolist()

    def test_apply_empty_cuts(self):
        data = make_dataset({"x": [1.0, 9.0]}, ["A", "A"])
        scheme = build_scheme(data, "mdlp")
        assert scheme.cuts[0].size == 0
        assert apply_scheme(scheme, data).columns[0].tolist() == [0, 0]

    def test_apply_clamps_out_of_range(self):
        train = make_dataset({"x": [1.0, 3.0, 5.0, 7.0]}, ["A", "A", "B", "B"])
        scheme = build_scheme(train, "mdlp")
        scheme.cuts[0] = np.array([3.0, 5.0])
        query = make_dataset({"x": [100.0, -100.0]}, ["?", "?"])
        assert apply_scheme(scheme, query).columns[0].tolist() == [2, 0]

    def test_apply_monotone(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=50)
        labels = [f"c{i}" for i in rng.integers(0, 3, 50)]
        data = make_dataset({"x": values}, labels)
        scheme = build_scheme(data, "sadd", n0=100)
        out = apply_scheme(scheme, data).columns[0]
        order = np.argsort(values)
        assert (np.diff(out[order]) >= 0).all()

    def test_apply_schema_mismatch(self, iris, toy_mixed):
        scheme = build_scheme(iris, "mdlp")
        with pytest.raises(ValueError, match="match"):
            apply_scheme(scheme, toy_mixed)

    def test_interval_count_is_cuts_plus_one(self, iris):
        scheme = build_scheme(iris, "sadd")
        for j in range(4):
            assert scheme.n_intervals(j) == len(scheme.cuts[j]) + 1

    def test_round_trip(self, iris, tmp_path):
        scheme = build_scheme(iris, "sadd", n0=500)
        path = tmp_path / "scheme.json"
        save_scheme(scheme, path)
        back = load_scheme(path)
        assert back.method == scheme.method
        assert back.params == scheme.params
        assert back.names == scheme.names
        assert back.kinds == scheme.kinds
        for a, b in zip(back.cuts, scheme.cuts):
            assert np.array_equal(a, b)


def test_class_counts_from_labels():
    assert ClassCounts.from_labels(["b", "a", "b"]).counts.tolist() == [1, 2]
    assert ClassCounts.from_labels(["b", "a", "b"], ["c", "b"]).counts.tolist() == [0, 2]
    assert ClassCounts.from_labels([]).counts.tolist() == []


class TestMutualInformation:
    def test_constant_attribute(self):
        assert mutual_information([0, 0, 0], ["A", "B", "A"]) == pytest.approx(0.0)

    def test_attribute_equals_labels(self):
        labels = ["A", "A", "B"]
        expected = entropy_bits([2, 1])
        assert mutual_information([0, 0, 1], labels) == pytest.approx(expected)

    def test_independent_uniform(self):
        # hand joint table: every (a, c) cell has probability 1/4
        assert mutual_information([0, 0, 1, 1], ["A", "B", "A", "B"]) == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mutual_information([], [])

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            x = rng.integers(0, 5, n)
            y = [f"c{i}" for i in rng.integers(0, 3, n)]
            assert mutual_information(x, y) >= -1e-12


class TestThresholdCurve:
    def test_small_n_scaled_near_half(self):
        rows = threshold_curve([4], [2000])
        assert rows[0].scaled[0] == pytest.approx(0.5 * rows[0].raw, rel=2e-3)

    def test_n0_choices_close_at_small_n(self):
        rows = threshold_curve(range(2, 20), [100, 2000])
        for row in rows:
            assert abs(row.scaled[0] - row.scaled[1]) < 0.02

    def test_n2_zero(self):
        row = threshold_curve([2], [100, 2000])[0]
        assert row.raw == 0.0
        assert row.scaled == (0.0, 0.0)

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            threshold_curve([1], [100])


def test_sigmoid_range():
    for x in np.linspace(0.001, 20, 200):
        assert 0.5 < sigmoid(x) < 1.0


def test_sigmoid_saturates_where_exp_overflows():
    for x in (-1.0, -30.0, -700.0):
        assert sigmoid(x) == 1.0 / (1.0 + math.exp(-x))
    assert sigmoid(-1000.0) == 0.0
    assert sigmoid(-1e308) == 0.0
    assert sigmoid(1e308) == 1.0


def _with_missing():
    return make_dataset({"a": [1.0, 2.0, 3.0]}, ["A", "B", "A"], missing=[(1, 0)])


def _scheme(cuts):
    return DiscretizationScheme("mdlp", {}, ["a"], [AttributeKind.NUMERIC], cuts)


@pytest.mark.parametrize("call, message", [
    (lambda: ClassCounts(np.array([1, -1])), "counts must be non-negative"),
    (lambda: CutCandidate(1.0, counts(0, 0), counts(1, 0)), "both sides of a cut must be non-empty"),
    (lambda: best_cut([1.0, 2.0], ["A"]), "values and labels must align"),
    (lambda: sadd_partition([1.0, 2.0], ["A", "B"], n0=0), "n0 must be at least 1"),
    (lambda: _scheme([]), "one cut list per attribute required"),
    (lambda: _scheme([[2.0, 1.0]]), "cuts for 'a' are not strictly increasing"),
    (lambda: build_scheme(_with_missing(), "mdlp"), "attribute 'a' has missing values; impute first"),
    (lambda: apply_scheme(_scheme([[1.5]]), _with_missing()),
     "attribute 'a' has missing values; impute first"),
    (lambda: mutual_information([0, 1], ["A"]), "indices and labels must align"),
], ids=["counts-negative", "cut-empty-side", "best-cut-misaligned", "sadd-n0", "scheme-count",
        "scheme-order", "build-missing", "apply-missing", "mi-misaligned"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
