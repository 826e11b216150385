from __future__ import annotations

import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import (
    cells,
    counter_mode,
    dict_codes,
    dict_labeled_split,
    make_dataset,
    reference_load_csv,
)

import nbdisc.data as data_module
from nbdisc.data import (
    AttributeKind,
    Dataset,
    _token_codes,
    class_codes,
    imputation_values,
    concat_rows,
    fill_missing,
    impute_missing,
    load_csv,
    load_schema,
    split_labeled_fraction,
    stratified_folds,
    write_csv,
)


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from([" 1", "1_0", "-0", "+.5", "1e-320"]),
)
ODD_CELLS = st.sampled_from(["inf", "nan", "1e400", "-inf", "", "a", "b,c", 'q"x'])


@st.composite
def csv_tables(draw):
    """(rows, schema hint, missing token) for a small CSV; the class column is last."""
    n_rows, n_attrs = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    token = draw(st.sampled_from(["?", ""]))
    columns, hint = [], {}
    for j in range(n_attrs):
        pool = draw(st.sampled_from([NUMBER_CELLS, st.one_of(NUMBER_CELLS, ODD_CELLS)]))
        cells = st.one_of(pool, st.just(token))
        columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
        kind = draw(st.sampled_from([None, AttributeKind.NUMERIC, AttributeKind.CATEGORICAL]))
        if kind is not None:
            hint[f"x{j}"] = kind
    labels = draw(st.lists(st.sampled_from(["A", "B", "a,b"]), min_size=n_rows, max_size=n_rows))
    if draw(st.integers(0, 4)) == 0:
        labels[draw(st.integers(0, n_rows - 1))] = "?"
    return [list(row) for row in zip(*columns, labels)], hint, token


CSV_TABLES = csv_tables()


class TestLoadCsv:
    def test_iris_schema(self, iris):
        assert iris.n_rows == 150
        assert iris.kinds == [AttributeKind.NUMERIC] * 4
        assert len(iris.classes) == 3

    def test_single_row_single_attribute(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("x,class\n1.5,A\n")
        data = load_csv(p)
        assert data.n_rows == 1
        assert data.kinds == [AttributeKind.NUMERIC]

    def test_missing_numeric_cell_masked(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("x,class\n1.0,A\n?,B\n3.0,A\n")
        data = load_csv(p)
        assert data.missing[:, 0].tolist() == [False, True, False]
        assert data.kinds == [AttributeKind.NUMERIC]

    def test_mixed_kinds_inferred(self, toy_mixed):
        assert toy_mixed.kinds == [
            AttributeKind.NUMERIC,
            AttributeKind.CATEGORICAL,
            AttributeKind.CATEGORICAL,
        ]
        assert toy_mixed.missing.sum() == 3

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("x,y,class\n1,2,A\n1,A\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("x,class\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(p)

    @pytest.mark.parametrize("header", ["a,a,class", "a,b,a,class"])
    def test_duplicate_attribute_names_rejected(self, tmp_path, header):
        # a saved model keys each attribute's fill value by name; only repeated names are listed
        p = tmp_path / "d.csv"
        width = header.count(",")
        p.write_text(f"{header}\n" + "1," * width + "p\n" + "2," * width + "q\n")
        with pytest.raises(ValueError, match=r"^duplicate attribute names: \['a'\]$"):
            load_csv(p)

    def test_numeric_hint_rejects_tokens(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("x,class\nabc,A\n")
        with pytest.raises(ValueError, match="unparseable numeric"):
            load_csv(p, schema_hint={"x": AttributeKind.NUMERIC})

    def test_unparseable_cell_names_its_row(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("x,class\n1,A\n?,B\nabc,A\n2,B\n")
        with pytest.raises(ValueError, match="column 'x', row 4: unparseable numeric cell 'abc'"):
            load_csv(p, schema_hint={"x": AttributeKind.NUMERIC})

    def test_each_present_numeric_cell_parsed_once(self, tmp_path, monkeypatch):
        p = tmp_path / "p.csv"
        p.write_text("x,y,c,class\n1.5,?,a,A\n?,2,b,B\n-3,4e2,a,A\n0.1,?,?,B\n")
        parsed = []
        real = data_module._parse_column
        monkeypatch.setattr(
            data_module, "_parse_column", lambda cells: parsed.extend(cells) or real(cells)
        )
        data = load_csv(p, schema_hint={"c": AttributeKind.CATEGORICAL})
        assert data.kinds == [AttributeKind.NUMERIC] * 2 + [AttributeKind.CATEGORICAL]
        assert len(parsed) == (~data.missing[:, :2]).sum() == 5
        assert sorted(parsed) == sorted(["1.5", "-3", "0.1", "2", "4e2"])
        assert np.array_equal(data.columns[0], [1.5, np.nan, -3.0, 0.1], equal_nan=True)
        assert np.array_equal(data.columns[1], [np.nan, 2.0, 400.0, np.nan], equal_nan=True)
        assert data.columns[2].dtype == np.intp and data.vocab[2].tolist() == ["?", "a", "b"]
        assert cells(data, 2).tolist() == ["a", "b", "a", "?"]

    def test_missing_class_label_rejected(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("x,class\n1,A\n2,?\n")
        with pytest.raises(ValueError, match="missing class label"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["inf", "1e400"])
    def test_numeric_hint_names_the_non_finite_row(self, tmp_path, cell):
        p = tmp_path / "n.csv"
        p.write_text(f"x,class\n1,A\n?,B\n{cell},A\n2,B\n")
        with pytest.raises(
            ValueError, match=f"column 'x', row 4: unparseable numeric cell '{cell}'"
        ):
            load_csv(p, schema_hint={"x": AttributeKind.NUMERIC})

    def test_non_finite_is_not_numeric(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("x,class\ninf,A\n1.0,B\n")
        assert load_csv(p).kinds == [AttributeKind.CATEGORICAL]

    def test_schema_sidecar(self, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("code,class\n1,A\n2,B\n")
        sidecar = tmp_path / "s.schema"
        sidecar.write_text("code,categorical\n")
        data = load_csv(csv, schema_hint=load_schema(sidecar))
        assert data.kinds == [AttributeKind.CATEGORICAL]

    def test_round_trip_full_precision(self, tmp_path):
        data = make_dataset(
            {"x": [0.1, 2.0 / 3.0, 123456.789], "c": ["a", "b", "a"]},
            labels=["A", "B", "A"],
        )
        path = tmp_path / "rt.csv"
        write_csv(data, path)
        back = load_csv(path)
        assert back.kinds == data.kinds
        assert np.array_equal(back.columns[0], data.columns[0])
        assert cells(back, 1).tolist() == cells(data, 1).tolist()
        assert back.labels.tolist() == data.labels.tolist()

    @given(CSV_TABLES)
    @example(([["1", "A"], ["?", "B"], ["1e400", "A"]], {"x0": AttributeKind.NUMERIC}, "?"))
    @example(([[" 1", "A"], ["1_0", "B"], ["?", "A"]], {}, "?"))
    @example(([["nan", "A"], ["1", "B"]], {"x0": AttributeKind.CATEGORICAL}, "?"))
    @example(([["?", "A"], ["?", "B"]], {"x0": AttributeKind.NUMERIC}, "?"))
    def test_equals_per_cell_reference(self, table):
        rows, hint, token = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow([f"x{j}" for j in range(len(rows[0]) - 1)] + ["class"])
                writer.writerows(rows)
            try:
                want = reference_load_csv(path, hint, token)
            except ValueError as error:
                with pytest.raises(ValueError) as raised:
                    load_csv(path, hint, token)
                assert str(raised.value) == str(error)
                return
            got = load_csv(path, hint, token)
        assert got.names == want.names and got.kinds == want.kinds
        assert np.array_equal(got.missing, want.missing)
        assert got.label_codes.dtype == np.intp and got.labels.tolist() == want.labels.tolist()
        assert got.vocab.keys() == want.vocab.keys()
        for j, (col, ref) in enumerate(zip(got.columns, want.columns)):
            assert col.dtype == ref.dtype
            if j in want.vocab:
                assert cells(got, j).tolist() == cells(want, j).tolist()
            else:
                assert col.tobytes() == ref.tobytes()


class TestImpute:
    def test_numeric_mean(self):
        data = make_dataset({"x": [1.0, np.nan, 3.0]}, ["A", "A", "B"], missing=[(1, 0)])
        out = impute_missing(data, data)
        assert out.columns[0].tolist() == [1.0, 2.0, 3.0]
        assert not out.missing.any()

    def test_categorical_mode(self):
        data = make_dataset({"c": ["a", "a", "b", "?"]}, ["A"] * 4, missing=[(3, 0)])
        out = impute_missing(data, data)
        assert cells(out, 0)[3] == "a"

    def test_mode_tie_breaks_lexicographically(self):
        data = make_dataset({"c": ["b", "a", "?"]}, ["A"] * 3, missing=[(2, 0)])
        assert cells(impute_missing(data, data), 0)[2] == "a"

    def test_test_rows_use_training_mean(self):
        # 6-row toy split 4/2: training mean (1+2+3+4)/4 = 2.5, pooled mean
        # would be (1+2+3+4+10)/5 = 4.0.
        full = make_dataset(
            {"x": [1.0, 2.0, 3.0, 4.0, 10.0, np.nan]},
            ["A", "A", "B", "B", "A", "B"],
            missing=[(5, 0)],
        )
        train = full.subset([0, 1, 2, 3])
        test = full.subset([4, 5])
        out = impute_missing(test, train)
        assert out.columns[0].tolist() == [10.0, 2.5]

    def test_idempotent(self, toy_mixed):
        once = impute_missing(toy_mixed, toy_mixed)
        twice = impute_missing(once, once)
        for a, b in zip(once.columns, twice.columns):
            assert a.tolist() == b.tolist()

    def test_fill_leaves_input_unchanged(self, toy_mixed):
        before = [col.copy() for col in toy_mixed.columns], toy_mixed.missing.copy()
        out = fill_missing(toy_mixed, imputation_values(toy_mixed))
        assert toy_mixed.missing.any() and not out.missing.any()
        for col, kept in zip(toy_mixed.columns, before[0]):
            assert col.dtype == kept.dtype
            assert np.array_equal(col, kept, equal_nan=col.dtype != object)
        assert np.array_equal(toy_mixed.missing, before[1])
        assert out.label_codes is toy_mixed.label_codes and out.classes is toy_mixed.classes

    def test_all_missing_reference_rejected(self):
        data = make_dataset({"x": [np.nan, np.nan]}, ["A", "B"], missing=[(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="entirely missing"):
            impute_missing(data, data)

    @given(st.lists(st.tuples(st.sampled_from("abcd"), st.booleans()), min_size=1, max_size=30))
    @example([("b", False), ("a", False), ("b", False), ("a", False), ("b", True)])
    @example([("d", False), ("c", False), ("c", False), ("d", False), ("a", False)])
    def test_mode_equals_counter_rule(self, cells):
        present = [token for token, missing in cells if not missing]
        assume(present)
        data = make_dataset(
            {"c": [token for token, _ in cells]}, ["A"] * len(cells),
            missing=[(i, 0) for i, (_, missing) in enumerate(cells) if missing],
        )
        assert imputation_values(data) == [counter_mode(present)]


class TestClassCodes:
    @given(
        st.lists(
            st.one_of(st.sampled_from(["", "A", "a", "é", "日本", "A "]), st.text(max_size=3)),
            max_size=40,
        )
    )
    @example([])
    @example(["only"] * 5)
    def test_equals_unique_oracle(self, labels):
        classes, codes = class_codes(labels)
        want_classes, want_codes = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
        assert classes.dtype == object and codes.dtype == np.intp
        assert classes.tolist() == want_classes.tolist()
        assert np.array_equal(codes, want_codes)


TOKENS = st.sampled_from(["", "A", "a", "é", "日本", "A "])


class TestTokenCodes:
    @given(
        st.lists(TOKENS, unique=True, max_size=6),
        st.lists(TOKENS, max_size=30),
        st.one_of(st.none(), st.integers(-2, 8)),
        st.booleans(),
    )
    @example(["a"], ["a", "b"], None, True)
    @example(["a", "b"], ["b", "z", "a"], -1, False)
    def test_equals_dict_oracle(self, vocab, tokens, unknown, as_array):
        given_tokens = np.asarray(tokens, dtype=object) if as_array else tokens
        try:
            want = dict_codes(tokens, vocab, unknown)
        except KeyError as missing:
            with pytest.raises(KeyError) as raised:
                _token_codes(given_tokens, vocab, unknown)
            assert raised.value.args == missing.args
            return
        got = _token_codes(given_tokens, vocab, unknown)
        assert got.dtype == np.intp and got.tolist() == want


class TestStratifiedFolds:
    def test_balanced_iris(self, iris):
        plan = stratified_folds(iris, 10, seed=1)
        for fold in range(10):
            rows = plan.test_rows(fold)
            labels = iris.labels[rows]
            for cls in iris.classes:
                assert (labels == cls).sum() == 5

    def test_seven_rows_three_folds(self):
        data = make_dataset({"x": list(range(7))}, ["A"] * 7)
        plan = stratified_folds(data, 3, seed=0)
        sizes = sorted(len(plan.test_rows(f)) for f in range(3))
        assert sizes == [2, 2, 3]

    def test_deterministic(self, iris):
        a = stratified_folds(iris, 10, seed=42)
        b = stratified_folds(iris, 10, seed=42)
        assert np.array_equal(a.assignments, b.assignments)

    def test_within_one_invariant(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(10, 60))
            labels = [f"c{i}" for i in rng.integers(0, 4, n)]
            data = make_dataset({"x": list(range(n))}, labels)
            folds = int(rng.integers(2, 8))
            plan = stratified_folds(data, folds, seed=trial)
            for cls in data.classes:
                counts = [
                    int((data.labels[plan.test_rows(f)] == cls).sum()) for f in range(folds)
                ]
                assert max(counts) - min(counts) <= 1

    def test_rows_dealt_per_class_in_sorted_class_order(self):
        # the per-class scan over sorted classes is the reference for row order and draws
        rng = np.random.default_rng(8)
        for trial in range(20):
            n = int(rng.integers(10, 60))
            labels = [f"c{i}" for i in rng.integers(0, 4, n)]
            data = make_dataset({"x": list(range(n))}, labels)
            folds = int(rng.integers(2, 8))
            draws = np.random.default_rng(trial)
            expected = np.full(n, -1)
            for cls in sorted(set(labels)):
                rows = draws.permutation(np.flatnonzero(data.labels == cls))
                expected[rows] = np.arange(len(rows)) % folds
            assert np.array_equal(stratified_folds(data, folds, trial).assignments, expected)

    def test_every_row_exactly_one_fold(self, iris):
        plan = stratified_folds(iris, 10, seed=0)
        assert (plan.assignments >= 0).all()
        assert len(np.concatenate([plan.test_rows(f) for f in range(10)])) == iris.n_rows

    def test_too_many_folds(self):
        data = make_dataset({"x": [1.0, 2.0]}, ["A", "B"])
        with pytest.raises(ValueError, match="exceed"):
            stratified_folds(data, 3, seed=0)


class TestSplitLabeledFraction:
    def test_full_fraction_no_unlabeled(self):
        split = split_labeled_fraction(["A"] * 5 + ["B"] * 5, 1.0, seed=0)
        assert split.unlabeled_rows.size == 0
        assert split.labeled_rows.tolist() == list(range(10))

    def test_forty_percent_of_hundred(self):
        labels = ["A"] * 50 + ["B"] * 50
        split = split_labeled_fraction(labels, 0.4, seed=0)
        assert split.labeled_rows.size == 40

    def test_seeds_change_membership_not_sizes(self):
        # 10-row toy, 6 A + 4 B at fraction 0.5: quotas are 3 A + 2 B by the
        # largest-remainder rule.
        labels = ["A"] * 6 + ["B"] * 4
        one = split_labeled_fraction(labels, 0.5, seed=1)
        two = split_labeled_fraction(labels, 0.5, seed=2)

        def per_class(split):
            chosen = [labels[i] for i in split.labeled_rows]
            return chosen.count("A"), chosen.count("B")

        assert per_class(one) == per_class(two) == (3, 2)
        assert one.labeled_rows.tolist() != two.labeled_rows.tolist()

    def test_partition_invariant(self):
        labels = ["A"] * 7 + ["B"] * 5 + ["C"] * 3
        split = split_labeled_fraction(labels, 0.6, seed=9)
        merged = sorted(split.labeled_rows.tolist() + split.unlabeled_rows.tolist())
        assert merged == list(range(15))
        assert not set(split.labeled_rows) & set(split.unlabeled_rows)

    @given(
        st.lists(st.sampled_from(["A", "B", "C", "a", ""]), min_size=1, max_size=40),
        st.floats(0.0, 1.0, exclude_min=True),
        st.integers(0, 2**32 - 1),
    )
    @example(["A"] * 6 + ["B"] * 4, 0.5, 1)
    @example(["B", "A", "C", "B", "A", "C"], 0.5, 0)  # three equal remainders, one extra row
    def test_equals_dict_oracle(self, labels, fraction, seed):
        split = split_labeled_fraction(labels, fraction, seed)
        want = dict_labeled_split(labels, fraction, seed)
        assert (split.labeled_rows.tolist(), split.unlabeled_rows.tolist()) == want

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
    def test_bad_fraction(self, fraction):
        with pytest.raises(ValueError):
            split_labeled_fraction(["A"] * 4, fraction, seed=0)


def test_concat_rows_preserves_schema(toy_mixed):
    a = toy_mixed.subset([0, 1])
    b = toy_mixed.subset([5, 6, 7])
    merged = concat_rows([a, b])
    assert merged.n_rows == 5
    assert merged.labels.tolist() == ["A", "A", "B", "B", "B"]


def test_concat_rows_merges_vocabularies():
    a = make_dataset({"c": ["y", "x"]}, ["B", "A"])
    b = make_dataset({"c": ["z", "x"]}, ["C", "C"])
    merged = concat_rows([a, b])
    assert merged.vocab[0].tolist() == ["x", "y", "z"] and merged.classes.tolist() == ["A", "B", "C"]
    assert cells(merged, 0).tolist() == ["y", "x", "z", "x"]
    assert merged.labels.tolist() == ["B", "A", "C", "C"]


def test_fill_token_outside_the_vocabulary_joins_it():
    data = make_dataset({"c": ["b", "?"]}, ["A", "A"], missing=[(1, 0)])
    out = fill_missing(data, ["a"])
    assert out.vocab[0].tolist() == ["?", "a", "b"] and cells(out, 0).tolist() == ["b", "a"]


@pytest.mark.parametrize("array", [
    lambda d: d.columns[0], lambda d: d.columns[1], lambda d: d.missing,
    lambda d: d.label_codes, lambda d: d.classes, lambda d: d.vocab[1],
], ids=["numeric-column", "category-codes", "missing-mask", "label-codes", "classes", "vocabulary"])
def test_dataset_arrays_are_read_only(toy_mixed, array):
    # subsets and transforms share these arrays, so a write would reach every sharer
    imputed = impute_missing(toy_mixed, toy_mixed)
    for data in (toy_mixed, toy_mixed.subset([0, 1]), imputed, concat_rows([imputed, toy_mixed])):
        with pytest.raises(ValueError, match="read-only"):
            array(data)[0] = array(data)[-1]


def test_derived_datasets_hold_their_own_containers(toy_mixed_path):
    # the arrays are shared read-only; the lists and dict holding them are not shared
    parent = load_csv(toy_mixed_path)
    names, kinds = list(parent.names), list(parent.kinds)
    vocab = {j: tokens.tolist() for j, tokens in parent.vocab.items()}
    for data in (parent.subset([0, 1]), concat_rows([parent])):
        data.vocab[1] = np.array(["zz"], dtype=object)
        data.names[0] = "renamed"
        data.kinds[0] = AttributeKind.CATEGORICAL
        data.columns[0] = data.columns[1]
    assert parent.names == names and parent.kinds == kinds and parent.columns[0].dtype == float
    assert {j: tokens.tolist() for j, tokens in parent.vocab.items()} == vocab


def test_concat_rows_schema_mismatch(toy_mixed, iris):
    with pytest.raises(ValueError, match="schema"):
        concat_rows([toy_mixed, iris])


def test_write_csv_missing_cells_survive_a_round_trip(toy_mixed, tmp_path):
    path = tmp_path / "rt.csv"
    write_csv(toy_mixed, path)
    back = load_csv(path)
    assert np.array_equal(back.missing, toy_mixed.missing)
    present = ~toy_mixed.missing
    for j in range(toy_mixed.n_attrs):
        assert cells(back, j)[present[:, j]].tolist() == cells(toy_mixed, j)[present[:, j]].tolist()


@pytest.mark.parametrize("text, message", [
    ("a,b,class\n?,x,A\nu,NA,B\n", "column 'a', row 2"),
    ("a,class\n1.5,B\n2.5,?\n", "column 'class', row 3"),
], ids=["category", "label"])
def test_write_csv_rejects_a_present_cell_equal_to_the_token(tmp_path, text, message):
    # loaded with token NA, a `?` cell is present; written with `?` it would read back missing
    data = load_csv(_file(tmp_path, text), missing_token="NA")
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"{re.escape(message)}: present cell equals the missing token '\\?'$"):
        write_csv(data, out)
    assert not out.exists()
    write_csv(data, out, missing_token="NA")
    assert out.read_text().splitlines() == text.splitlines()


def test_write_csv_rejects_a_numeric_cell_written_as_the_token(tmp_path):
    # a present 1.0 is written as repr(1.0) == "1.0"; with that token it would read back missing
    data = load_csv(_file(tmp_path, "x,class\n1.0,A\n2.5,B\n"))
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=r"column 'x', row 2: present cell equals the missing token '1\.0'$"):
        write_csv(data, out, missing_token="1.0")
    assert not out.exists()
    write_csv(data, out, missing_token="1")  # 1.0 is written "1.0", not "1"
    assert load_csv(out, missing_token="1").missing.tolist() == [[False], [False]]


def test_load_schema_skips_blank_lines(tmp_path):
    sidecar = tmp_path / "s.schema"
    sidecar.write_text("\na,numeric\n   \nb,categorical\n\n")
    assert load_schema(sidecar) == {"a": AttributeKind.NUMERIC, "b": AttributeKind.CATEGORICAL}


def _table(**changes):
    """A valid two-row, one-attribute Dataset with some fields replaced."""
    fields = dict(
        names=["a"], kinds=[AttributeKind.NUMERIC], columns=[np.zeros(2)],
        missing=np.zeros((2, 1), dtype=bool), labels=np.array(["x", "y"], dtype=object),
    )
    return Dataset(**{**fields, **changes})


def _file(directory, text, name="f.csv"):
    path = directory / name
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, message", [
    (lambda tmp: _table(kinds=[]), "schema, kinds and columns must align"),
    (lambda tmp: _table(columns=[np.zeros(1)]), "column 'a' has 1 rows, expected 2"),
    (lambda tmp: _table(missing=np.zeros((2, 2), dtype=bool)), "missing mask shape mismatch"),
    (lambda tmp: concat_rows([]), "nothing to concatenate"),
    (lambda tmp: load_schema(_file(tmp, "a,numeric\nb,number\n", "s.schema")),
     "s.schema:2: unknown kind 'number'"),
    (lambda tmp: load_csv(_file(tmp, "")), "f.csv: empty file"),
    (lambda tmp: load_csv(_file(tmp, "class\nA\n")),
     "f.csv: need at least one attribute column plus the class column"),
    (lambda tmp: fill_missing(_table(), [1.0, 2.0]), "2 fill values for 1 attributes"),
    (lambda tmp: impute_missing(_table(), _table(names=["b"])), "reference schema mismatch"),
], ids=["dataset-kinds", "dataset-short-column", "dataset-mask-shape", "concat-nothing",
        "schema-kind", "csv-empty", "csv-one-column", "fill-count", "impute-schema"])
def test_input_checks(tmp_path, call, message):
    with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
        call(tmp_path)
