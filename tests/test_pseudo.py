from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import brute_force_knn, brute_force_neighbors, load_bench_gen, make_dataset

from nbdisc import pseudo
from nbdisc.data import AttributeKind, impute_missing, load_csv, stratified_folds
from nbdisc.pseudo import (
    FeatureSpace,
    KnnConfig,
    _all_numeric_space,
    _distance_sq,
    _nearest_neighbors,
    _predict_codes,
    _votes,
    knn_predict,
    pseudo_label,
    select_k,
)

BLOCK_ENTRIES = (1, 7, 64, pseudo._BLOCK_ENTRIES)  # the default block size is always under test


def mixed_space(n_numeric: int, n_categorical: int) -> FeatureSpace:
    """Identity encoding: numeric columns first, then categorical codes."""
    width = n_numeric + n_categorical
    return FeatureSpace(
        names=tuple(f"f{i}" for i in range(width)),
        kinds=(AttributeKind.NUMERIC,) * n_numeric + (AttributeKind.CATEGORICAL,) * n_categorical,
        numeric_idx=tuple(range(n_numeric)),
        categorical_idx=tuple(range(n_numeric, width)),
        means=np.zeros(n_numeric),
        scales=np.ones(n_numeric),
        vocab=((),) * n_categorical,
    )


def draw_rows(draw, columns, max_rows):
    """1 to ``max_rows`` rows whose j-th entry is drawn from ``columns[j]``.

    A list strategy's sizes cluster at its smallest under the suite's
    derandomized profile, and drawing each cell is most of a test's time; a
    drawn length and a seeded generator spread the sizes at little cost, so
    most problems hold more rows than ``k + 8`` and reach the screen's
    certainty bound.
    """
    n = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.column_stack([rng.choice(values, n) for values in columns]).tolist()


@st.composite
def grid_problems(draw):
    """Rows on a 3-value grid with repeated reference rows and queries that copy them."""
    n_numeric = draw(st.integers(0, 2))
    n_categorical = draw(st.integers(1 if n_numeric == 0 else 0, 2))
    width = n_numeric + n_categorical
    row = st.lists(st.integers(0, 2), min_size=width, max_size=width)
    ref = draw_rows(draw, [range(3)] * width, 48)
    ref += [ref[i] for i in draw(st.lists(st.integers(0, len(ref) - 1), max_size=8))]
    queries = draw(st.lists(row, max_size=8))
    queries += [ref[i] for i in draw(st.lists(st.integers(0, len(ref) - 1), max_size=4))]
    if not queries:
        queries = [ref[0]]
    k = draw(st.integers(1, len(ref)))
    return n_numeric, n_categorical, np.array(ref, float), np.array(queries, float), k


@st.composite
def far_grid_problems(draw):
    """Grid rows offset by 1e3 to 1e12, with queries that copy reference rows."""
    width = draw(st.integers(1, 3))
    offset = 10.0 ** draw(st.integers(3, 12))
    row = st.lists(st.integers(0, 3), min_size=width, max_size=width)
    ref = draw_rows(draw, [range(4)] * width, 48)
    queries = draw(st.lists(row, min_size=1, max_size=6))
    queries += [ref[i] for i in draw(st.lists(st.integers(0, len(ref) - 1), max_size=3))]
    k = draw(st.integers(1, min(len(ref), 6)))
    return offset + np.array(ref, float), offset + np.array(queries, float), k


@st.composite
def float_code_problems(draw):
    """Numeric grid columns, then categorical codes that are negative or non-integer."""
    n_numeric = draw(st.integers(0, 2))
    n_categorical = draw(st.integers(1, 2))
    codes = [-3.5, -1.0, -0.25, 0.5, 2.75, 1e9 + 0.5]
    row = st.tuples(
        st.lists(st.integers(0, 2).map(float), min_size=n_numeric, max_size=n_numeric),
        st.lists(st.sampled_from(codes), min_size=n_categorical, max_size=n_categorical),
    ).map(lambda parts: parts[0] + parts[1])
    ref = draw_rows(draw, [[0.0, 1.0, 2.0]] * n_numeric + [codes] * n_categorical, 48)
    queries = draw(st.lists(row, min_size=1, max_size=6))
    queries += [ref[i] for i in draw(st.lists(st.integers(0, len(ref) - 1), max_size=3))]
    k = draw(st.integers(1, min(len(ref), 6)))
    return n_numeric, n_categorical, np.array(ref, float), np.array(queries, float), k


class TestKnnPredict:
    def test_self_match_with_k1(self):
        ref = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        assert knn_predict(ref, ["A", "B", "C"], np.array([5.0, 5.0]), KnnConfig(1)) == "B"

    def test_majority_of_three(self):
        ref = np.array([[0.0], [0.1], [0.2], [9.0]])
        got = knn_predict(ref, ["A", "A", "B", "B"], np.array([0.05]), KnnConfig(3))
        assert got == "A"

    def test_vote_tie_prefers_smaller_class_index(self):
        # 4-point toy: both neighbors at distance 1; brute-force voting shows
        # a 1-1 tie, which must resolve to the lexicographically first class.
        ref = np.array([[0.0], [2.0], [10.0], [-10.0]])
        labels = ["B", "A", "A", "B"]
        assert brute_force_knn(ref, labels, np.array([1.0]), 2) == "A"
        assert knn_predict(ref, labels, np.array([1.0]), KnnConfig(2)) == "A"

    def test_distance_tie_prefers_lower_row_index(self):
        ref = np.array([[1.0], [-1.0], [3.0]])
        labels = ["A", "B", "C"]
        assert knn_predict(ref, labels, np.array([0.0]), KnnConfig(1)) == "A"

    def test_no_labeled_rows(self):
        with pytest.raises(ValueError, match="no labeled rows"):
            knn_predict(np.empty((0, 2)), [], np.zeros(2), KnnConfig(1))

    def test_k_larger_than_reference(self):
        with pytest.raises(ValueError, match="exceeds"):
            knn_predict(np.zeros((2, 1)), ["A", "B"], np.zeros(1), KnnConfig(3))

    def test_prediction_in_labeled_class_set(self):
        rng = np.random.default_rng(0)
        ref = rng.normal(size=(20, 3))
        labels = [f"c{i}" for i in rng.integers(0, 4, 20)]
        for _ in range(20):
            got = knn_predict(ref, labels, rng.normal(size=3), KnnConfig(3))
            assert got in set(labels)

    def test_common_scale_invariance(self):
        rng = np.random.default_rng(2)
        ref = rng.normal(size=(15, 2))
        labels = [f"c{i}" for i in rng.integers(0, 3, 15)]
        for _ in range(10):
            q = rng.normal(size=2)
            base = knn_predict(ref, labels, q, KnnConfig(3))
            assert knn_predict(ref * 7.5, labels, q * 7.5, KnnConfig(3)) == base


@pytest.fixture
def fallback_rows(monkeypatch):
    """Row counts of every re-ranking with every labeled row as a candidate, in call order.

    Such a re-ranking passes one index row broadcast over its queries (stride 0).
    """
    rows = []
    real = pseudo._rank

    def counting(space, ref, queries, cand, max_k):
        if cand.strides[0] == 0:
            rows.append(len(queries))
        return real(space, ref, queries, cand, max_k)

    monkeypatch.setattr(pseudo, "_rank", counting)
    return rows


class TestNearestNeighbors:
    def test_partition_path_matches_stable_sort_prefix(self):
        # the top-k selection must reproduce the stable-argsort prefix even
        # under heavy distance ties (integer-grid points)
        rng = np.random.default_rng(0)
        space = _all_numeric_space(2)
        for _ in range(30):
            ref = rng.integers(0, 3, (300, 2)).astype(float)
            queries = rng.integers(0, 3, (40, 2)).astype(float)
            k = int(rng.integers(1, 12))
            got = _nearest_neighbors(space, ref, queries, k)
            dist = _distance_sq(space, ref, queries)
            want = np.argsort(dist, axis=1, kind="stable")[:, :k]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_numeric,n_categorical", [(3, 2), (0, 2), (2, 0), (0, 0)])
    def test_reused_work_buffer_gives_fresh_distances(self, n_numeric, n_categorical):
        # successive calls of different sizes: each gives its own per-feature sums
        rng = np.random.default_rng(3)
        space = mixed_space(n_numeric, n_categorical)
        width = n_numeric + n_categorical
        ref = rng.integers(0, 3, (50, width)).astype(float)
        for rows in (9, 4, 9, 1):
            queries = rng.integers(0, 3, (rows, width)).astype(float)
            want = np.zeros((rows, 50))
            for c in range(width):
                delta = queries[:, c, None] - ref[None, :, c]
                want += delta**2 if c < n_numeric else delta != 0
            assert np.array_equal(_distance_sq(space, ref, queries), want)
            assert np.array_equal(_distance_sq(space, np.asfortranarray(ref), queries), want)

    def test_large_point_count_agrees_with_small_path(self):
        # a large pool is ranked over many blocks; its first rows must rank
        # exactly as they do in a pool of their own
        rng = np.random.default_rng(1)
        space = _all_numeric_space(3)
        ref = rng.normal(size=(3000, 3))
        queries = rng.normal(size=(2000, 3))  # 6M pairs: many ranking blocks
        got = _nearest_neighbors(space, ref, queries[:5], 4)
        big = _nearest_neighbors(space, ref, queries, 4)
        assert np.array_equal(big[:5], got)

    def test_tied_far_from_origin_ranked_by_exact_distance_then_index(self):
        # integer grid offset by 1e8: a dot-product distance expansion loses
        # the exact ties (4.5M pairs), so the order must come from exact
        # per-feature differences at every pool size
        rng = np.random.default_rng(0)
        space = _all_numeric_space(2)
        ref = 1e8 + rng.integers(0, 4, (3000, 2))
        queries = 1e8 + rng.integers(0, 4, (1500, 2))
        got = _nearest_neighbors(space, ref, queries, 5)
        exact = sum((queries[:, c, None] - ref[None, :, c]) ** 2 for c in range(2))
        assert np.array_equal(got, np.argsort(exact, axis=1, kind="stable")[:, :5])
        assert np.array_equal(_nearest_neighbors(space, ref, queries[:10], 5), got[:10])

    @given(grid_problems())
    def test_matches_brute_force_order_at_every_block_size(self, problem):
        n_numeric, n_categorical, ref, queries, k = problem
        space = mixed_space(n_numeric, n_categorical)
        want = [brute_force_neighbors(ref.tolist(), q, k, n_numeric) for q in queries.tolist()]
        for entries in BLOCK_ENTRIES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pseudo, "_BLOCK_ENTRIES", entries)
                assert _nearest_neighbors(space, ref, queries, k).tolist() == want

    @given(far_grid_problems())
    def test_far_from_origin_matches_brute_force_at_every_block_size(self, problem):
        # the screen loses the ties (and more) at large offsets; the refine
        # and the exact fallback must still give the brute-force order
        ref, queries, k = problem
        space = _all_numeric_space(ref.shape[1])
        want = [brute_force_neighbors(ref.tolist(), q, k) for q in queries.tolist()]
        for entries in BLOCK_ENTRIES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pseudo, "_BLOCK_ENTRIES", entries)
                assert _nearest_neighbors(space, ref, queries, k).tolist() == want

    def test_one_side_far_from_origin_matches_brute_force_at_every_block_size(self):
        # One side's numeric columns sit near 1e8, where a squared difference
        # passes 2**53 and one categorical mismatch is within its rounding: exact
        # distances tie across rows whose screen values differ, and the far
        # side's norms are the whole rounding slack.  A slack short of either
        # norm term certifies candidates that miss lower-index ties.
        rng = np.random.default_rng(0)
        for _ in range(80):
            n_numeric, n_categorical = int(rng.integers(1, 3)), int(rng.integers(0, 3))
            ref = rng.integers(-2, 3, (int(rng.integers(30, 201)), n_numeric + n_categorical)).astype(float)
            queries = rng.integers(-2, 3, (6, ref.shape[1])).astype(float)
            shift = np.zeros(ref.shape[1])
            shift[:n_numeric] = rng.integers(10**8, 13 * 10**7)
            k = int(rng.integers(1, 6))
            space = mixed_space(n_numeric, n_categorical)
            for far_ref, far_queries in ((ref + shift, queries), (ref, queries + shift)):
                want = [brute_force_neighbors(far_ref.tolist(), q, k, n_numeric) for q in far_queries.tolist()]
                for entries in BLOCK_ENTRIES:
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(pseudo, "_BLOCK_ENTRIES", entries)
                        assert _nearest_neighbors(space, far_ref, far_queries, k).tolist() == want

    @given(float_code_problems())
    def test_float_categorical_codes_match_brute_force_at_every_block_size(self, problem):
        n_numeric, n_categorical, ref, queries, k = problem
        space = mixed_space(n_numeric, n_categorical)
        want = [brute_force_neighbors(ref.tolist(), q, k, n_numeric) for q in queries.tolist()]
        for entries in BLOCK_ENTRIES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pseudo, "_BLOCK_ENTRIES", entries)
                assert _nearest_neighbors(space, ref, queries, k).tolist() == want

    @pytest.mark.parametrize("n_ref", [1, 2, 3, 4, 5, 8, 9, 64, 65, 256, 257])
    def test_index_field_edges_match_brute_force_at_every_block_size(self, n_ref):
        # a key's index field is bit_length(n_ref - 1) bits wide (1 bit for one
        # row); grid rows tie, so the index decides among equal screen values
        rng = np.random.default_rng(n_ref)
        space = mixed_space(2, 1)
        ref = rng.integers(0, 3, (n_ref, 3)).astype(float)
        queries = np.concatenate([rng.integers(0, 3, (6, 3)).astype(float), ref[-2:]])
        for k in sorted({1, min(n_ref, 3), n_ref}):
            want = [brute_force_neighbors(ref.tolist(), q, k, 2) for q in queries.tolist()]
            for entries in BLOCK_ENTRIES:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(pseudo, "_BLOCK_ENTRIES", entries)
                    assert _nearest_neighbors(space, ref, queries, k).tolist() == want

    def test_negative_kth_screen_value_falls_back(self, fallback_rows):
        # 40 near-duplicate rows near 3e4: the float32 GEMM rounds most of their
        # screen values below 0, so each query's kk-th key is negative
        space, max_k = _all_numeric_space(2), 3
        ref = 3e4 + 0.3 + 0.25 * np.array([[i % 2, i // 2 % 2] for i in range(40)], float)
        queries = ref[:4]
        ref_factor, query_factor = pseudo._screen_vectors(space, ref, queries)
        screen = np.sort(query_factor.astype(np.float32) @ ref_factor.astype(np.float32), axis=1)
        assert (screen[:, max_k + pseudo._SCREEN_PAD - 1] < 0).all()
        got = _nearest_neighbors(space, ref, queries, max_k)
        assert fallback_rows == [len(queries)]
        assert got.tolist() == [brute_force_neighbors(ref.tolist(), q, max_k) for q in queries.tolist()]

    def test_bound_clears_the_index_field(self, fallback_rows):
        # Query 0 against rows 2**12 + j, j even: each screen value is the row's
        # (2**12 + j)**2 = 2**24 + 2**13 j + j**2, exact in float32 (ulp 2).  At
        # 2**14 rows the 14-bit index field spans 2**15, so j = 0 and j = 2 share
        # their high bits and keys order them by index.  The kk rows below 16382
        # (j = 2) are the candidates for max_k 1, and row 16382 (j = 0) is nearer.
        # The kk-th key with row 16381 in its index field reads 2**24 + 32762,
        # past the best candidate's 2**24 + 16388 by far more than the slack
        # (200), so a bound that kept the index field would certify the wrong row.
        n, kk = 2**14, 1 + pseudo._SCREEN_PAD
        j = np.full(n, 1024)  # far rows
        j[n - 2 - kk : n - 2], j[n - 2] = 2, 0
        ref = (2.0**12 + j)[:, None]
        got = _nearest_neighbors(_all_numeric_space(1), ref, np.zeros((1, 1)), 1)
        assert got.tolist() == [brute_force_neighbors(ref.tolist(), [0.0], 1)] == [[n - 2]]
        assert fallback_rows == [1]

    @pytest.mark.parametrize(
        "ref",
        [
            1e20 * (1 - 0.1 * (200 - np.arange(200)) / 200),  # float32 inf - inf: a NaN kk-th key
            1e18 * np.arange(200) / 200,  # the query's norm overflows float32: a +inf kk-th key
        ],
    )
    def test_non_finite_screen_value_falls_back(self, fallback_rows, ref):
        # N is near 1e40, past float32's range, so no bound holds: a certified
        # row would be ranked among the lowest-index keys, [[10, 9, 8]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _nearest_neighbors(_all_numeric_space(1), ref[:, None], np.array([[1e20]]), 3)
        assert got.tolist() == [[199, 198, 197]]
        assert fallback_rows == [1]

    def test_below_float32_range_matches_brute_force(self):
        # norms near 1e-50 underflow float32 to 0, so the screen says nothing
        rng = np.random.default_rng(11)
        ref, queries = 1e-25 * rng.normal(size=(200, 2)), 1e-25 * rng.normal(size=(6, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _nearest_neighbors(_all_numeric_space(2), ref, queries, 3)
        assert got.tolist() == [brute_force_neighbors(ref.tolist(), q, 3) for q in queries.tolist()]

    def test_no_fallback_on_a_semi_supervised_shape(self, fallback_rows, tmp_path):
        # The benchmark's semi-supervised rows (6 numeric and 2 categorical
        # columns), 2000 labeled: every ranking is certain.  A slack 64 times
        # too wide sends 35 of the 250 rows to the every-row re-ranking, which
        # changes no neighbor, only the time.
        gen = load_bench_gen()
        gen.write(tmp_path / "data.csv", gen.generate(gen.Shape(6, 2, 4, 0.0, 0.8), 2250, seed=0))
        data = load_csv(tmp_path / "data.csv")
        labeled, pool = data.subset(np.arange(2000)), data.subset(np.arange(2000, 2250))
        space = FeatureSpace.fit(labeled)
        _nearest_neighbors(space, space.encode(labeled), space.encode(pool), 25)
        assert fallback_rows == []

    def test_identical_rows_keep_the_lowest_indices(self):
        # all-zero rows: every screen value, its slack and every exact
        # distance are 0, so no ranking is certain without the fallback
        space = _all_numeric_space(2)
        ref = np.zeros((1000, 2))
        got = _nearest_neighbors(space, ref, np.zeros((3, 2)), 4)
        assert got.tolist() == [[0, 1, 2, 3]] * 3

    def test_fallback_only_where_the_screen_cannot_certify(self, fallback_rows):
        rng = np.random.default_rng(5)
        space = _all_numeric_space(3)
        centers = np.repeat([[0.0, 0.0, 0.0], [8.0, 8.0, 8.0]], 300, axis=0)
        ref = centers + rng.normal(size=(600, 3))
        queries = centers[::3] + rng.normal(size=(200, 3))
        _nearest_neighbors(space, ref, queries, 5)
        assert sum(fallback_rows) == 0
        grid = 1e8 + rng.integers(0, 4, (600, 2))  # screen error far above the distances
        _nearest_neighbors(_all_numeric_space(2), grid, grid[:50], 5)
        assert sum(fallback_rows) > 0

    @pytest.mark.parametrize("pad", [0, 8])
    def test_no_fallback_when_every_row_is_a_candidate(self, fallback_rows, pad):
        rng = np.random.default_rng(7)
        max_k = 12
        ref = rng.integers(0, 3, (max_k + pad, 2)).astype(float)  # with distance ties
        queries = rng.integers(0, 3, (60, 2)).astype(float)
        got = _nearest_neighbors(_all_numeric_space(2), ref, queries, max_k)
        assert sum(fallback_rows) == 0
        assert got.tolist() == [brute_force_neighbors(ref, q, max_k) for q in queries]

    @pytest.mark.parametrize("pad", [0, 8, 9])
    def test_screened_when_every_row_is_a_candidate(self, monkeypatch, pad):
        # small labeled sets take the one screened path: one screen per call
        max_k = 12
        screened = []
        real = pseudo._screen_vectors

        def screen(space, ref, queries):
            screened.append(len(ref))
            return real(space, ref, queries)

        monkeypatch.setattr(pseudo, "_screen_vectors", screen)
        rng = np.random.default_rng(7)
        ref = rng.integers(0, 3, (max_k + pad, 2)).astype(float)  # with distance ties
        queries = rng.integers(0, 3, (60, 2)).astype(float)
        got = _nearest_neighbors(_all_numeric_space(2), ref, queries, max_k)
        assert got.tolist() == [brute_force_neighbors(ref, q, max_k) for q in queries]
        assert screened == [max_k + pad]

    @given(grid_problems(), st.integers(2, 4))
    def test_prefix_votes_match_brute_force_knn(self, problem, n_classes):
        n_numeric, n_categorical, ref, queries, k = problem
        space = mixed_space(n_numeric + n_categorical, 0)  # brute_force_knn is all-numeric
        labels = [f"c{i % n_classes}" for i in range(len(ref))]
        classes, codes = np.unique(labels, return_inverse=True)
        votes = _votes(codes[_nearest_neighbors(space, ref, queries, k)], len(classes))
        assert votes.shape == (len(queries), k)
        for j in range(k):
            want = [brute_force_knn(ref.tolist(), labels, q, j + 1) for q in queries.tolist()]
            assert classes[votes[:, j]].tolist() == want

    def test_votes_count_every_prefix_with_unseen_classes(self):
        rng = np.random.default_rng(9)
        codes = rng.integers(0, 4, (60, 9))  # class 4 never appears
        want = [
            [int(np.bincount(row[: j + 1], minlength=5).argmax()) for j in range(9)]
            for row in codes
        ]
        assert _votes(codes, 5).tolist() == want


class TestFeatureSpace:
    def test_zero_variance_column_contributes_nothing(self):
        data = make_dataset({"x": [4.0, 4.0, 4.0], "y": [0.0, 1.0, 2.0]}, ["A", "B", "C"])
        space = FeatureSpace.fit(data)
        enc = space.encode(data)
        assert enc[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_standardization_uses_labeled_stats(self):
        labeled = make_dataset({"x": [0.0, 2.0]}, ["A", "B"])
        other = make_dataset({"x": [1.0]}, ["?"])
        space = FeatureSpace.fit(labeled)
        assert space.encode(other)[0, 0] == pytest.approx(0.0)

    def test_categorical_mismatch_distance(self):
        labeled = make_dataset({"c": ["red", "blue"]}, ["A", "B"])
        space = FeatureSpace.fit(labeled)
        ref = space.encode(labeled)
        assert knn_predict(ref, ["A", "B"], ref[1], KnnConfig(1), space=space) == "B"

    def test_unseen_token_is_minus_one_and_one_away_from_every_row(self):
        labeled = make_dataset(
            {"x": [0.0, 1.0, 3.0, 4.0], "c": ["red", "blue", "red", "green"],
             "d": ["s", "s", "t", "t"]},
            ["A", "B", "A", "B"],
        )
        space = FeatureSpace.fit(labeled)
        ref = space.encode(labeled)
        seen = make_dataset({"x": [2.0], "c": ["red"], "d": ["t"]}, ["?"])
        unseen = make_dataset({"x": [2.0], "c": ["pink"], "d": ["t"]}, ["?"])
        query = space.encode(unseen)
        assert query[0, 1:].tolist() == [-1.0, 1.0]
        # "pink" mismatches every row, "red" only the rows that are not red
        not_red = np.array([0.0, 1.0, 0.0, 1.0])
        assert np.array_equal(
            _distance_sq(space, ref, query)[0],
            _distance_sq(space, ref, space.encode(seen))[0] + 1.0 - not_red,
        )

    def test_vocabulary_token_no_labeled_row_holds_is_one_away_from_every_row(self):
        # the labeled rows are a subset, so "pink" keeps its own code in their vocabulary
        data = make_dataset({"x": [0.0, 1.0, 3.0, 2.0], "c": ["red", "blue", "red", "pink"]},
                            ["A", "B", "A", "B"])
        labeled = data.subset([0, 1, 2])
        space = FeatureSpace.fit(labeled)
        assert [tokens.tolist() for tokens in space.vocab] == [["blue", "pink", "red"]]
        ref = space.encode(labeled)
        pink = space.encode(data.subset([3]))
        mauve = space.encode(make_dataset({"x": [2.0], "c": ["mauve"]}, ["?"]))
        assert pink[0, 1] == 1.0 and mauve[0, 1] == -1.0
        assert np.array_equal(_distance_sq(space, ref, pink), _distance_sq(space, ref, mauve))
        assert np.array_equal(_distance_sq(space, ref, pink)[0], np.square(ref[:, 0] - pink[0, 0]) + 1.0)

    def test_missing_values_rejected(self):
        data = make_dataset({"x": [1.0, np.nan]}, ["A", "B"], missing=[(1, 0)])
        with pytest.raises(ValueError, match="impute"):
            FeatureSpace.fit(data)

    def test_no_labeled_rows_rejected_before_any_statistic(self):
        labeled = make_dataset({"x": [1.0], "c": ["red"]}, ["A"]).subset([])
        unlabeled = make_dataset({"x": [1.0], "c": ["red"]}, ["?"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no labeled rows"):
                pseudo_label(labeled, unlabeled, KnnConfig(1))


def _noise_toy():
    """Five clean A points on a unit circle, one B-labeled noise point at the
    center (so every circle point's nearest neighbor is the noise), and a far
    B cluster."""
    xs, ys, labels = [], [], []
    for i in range(5):
        angle = 2 * math.pi * i / 5
        xs.append(math.cos(angle))
        ys.append(math.sin(angle))
        labels.append("A")
    xs.append(0.0)
    ys.append(0.0)
    labels.append("B")
    for i in range(8):
        xs.append(100.0 + i)
        ys.append(100.0)
        labels.append("B")
    return make_dataset({"x": xs, "y": ys}, labels)


class TestSelectK:
    def test_singleton_grid(self, iris):
        assert select_k(iris, (1,), seed=0) == 1

    def test_tie_prefers_smaller_k(self):
        # two tight, well-separated clusters: every k is perfect
        data = make_dataset(
            {"x": [0.1 * i for i in range(9)] + [10.0 + 0.1 * i for i in range(9)]},
            ["A"] * 9 + ["B"] * 9,
        )
        assert select_k(data, (1, 3, 5), seed=0) == 1

    def test_larger_k_wins_over_noise(self):
        data = _noise_toy()
        seed = 1
        # independent oracle: recompute the two validation accuracies with
        # brute-force neighbor search on the same fit/validation split
        plan = stratified_folds(data, 9, seed)
        val_fold = int(np.random.default_rng(seed).integers(9))
        fit = data.subset(plan.train_rows(val_fold))
        val = data.subset(plan.test_rows(val_fold))
        space = FeatureSpace.fit(fit)
        ref = space.encode(fit)
        queries = space.encode(val)
        acc = {}
        for k in (1, 5):
            hits = [
                brute_force_knn(ref, fit.labels.tolist(), q, k) == truth
                for q, truth in zip(queries, val.labels)
            ]
            acc[k] = np.mean(hits)
        assert acc[1] < acc[5]
        assert select_k(data, (1, 5), seed=seed) == 5

    def test_oversized_grid_values_skipped(self, iris):
        fit_size_bound = iris.n_rows  # grid values beyond the fit set are skipped
        assert select_k(iris, (3, fit_size_bound + 50), seed=0) == 3

    def test_all_skipped_rejected(self, iris):
        with pytest.raises(ValueError, match="exceeds|exceed"):
            select_k(iris, (10_000,), seed=0)

    def test_empty_grid_rejected(self, iris):
        with pytest.raises(ValueError, match="empty grid"):
            select_k(iris, (), seed=0)

    def test_too_few_rows_rejected(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0]}, ["A", "B", "A"])
        with pytest.raises(ValueError, match="at least 9"):
            select_k(data, (1,), seed=0)


class TestPseudoLabel:
    def test_empty_unlabeled(self, iris):
        out = pseudo_label(iris, iris.subset([]), KnnConfig(1))
        assert out.size == 0

    def test_empty_unlabeled_small_set_screened(self, toy_mixed):
        # at most k + 8 labeled rows: every row is a candidate, still screened
        labeled = impute_missing(toy_mixed, toy_mixed)
        assert labeled.n_rows <= 4 + pseudo._SCREEN_PAD
        out = pseudo_label(labeled, labeled.subset([]), KnnConfig(4))
        assert out.dtype == np.intp and out.shape == (0,)

    def test_duplicates_copy_labels(self, iris):
        rows = [0, 60, 120]
        out = pseudo_label(iris, iris.subset(rows), KnnConfig(1))
        assert out.tolist() == iris.label_codes[rows].tolist()

    def test_schema_mismatch(self, iris, toy_mixed):
        with pytest.raises(ValueError, match="schema"):
            pseudo_label(iris, toy_mixed, KnnConfig(1))

    def test_two_cluster_gaussians(self):
        # clusters 5 sigma apart; agreement with the generating cluster is
        # checked against brute-force nearest neighbors
        rng = np.random.default_rng(17)
        n = 100
        a = rng.normal(0.0, 1.0, size=(n, 2))
        b = rng.normal(5.0, 1.0, size=(n, 2))
        points = np.vstack([a, b])
        truth = np.array(["A"] * n + ["B"] * n, dtype=object)
        labeled_rows = np.arange(0, 2 * n, 2)
        unlabeled_rows = np.arange(1, 2 * n, 2)
        data = make_dataset(
            {"x": points[:, 0].tolist(), "y": points[:, 1].tolist()}, truth.tolist()
        )
        labeled = data.subset(labeled_rows)
        unlabeled = data.subset(unlabeled_rows)

        out = labeled.classes[pseudo_label(labeled, unlabeled, KnnConfig(1))]
        agreement = np.mean(out == truth[unlabeled_rows])
        assert agreement >= 0.90

        space = FeatureSpace.fit(labeled)
        ref = space.encode(labeled)
        queries = space.encode(unlabeled)
        oracle = [
            brute_force_knn(ref, labeled.labels.tolist(), q, 1) for q in queries
        ]
        assert out.tolist() == oracle

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.sampled_from("rgb")), min_size=9, max_size=30),
        st.lists(st.tuples(st.integers(0, 3), st.sampled_from("rgb")), min_size=1, max_size=40),
        st.data(),
    )
    def test_subset_of_pool_gets_the_pool_labels(self, labeled_rows, pool_rows, data):
        labeled = make_dataset(
            {"x": [float(x) for x, _ in labeled_rows], "c": [c for _, c in labeled_rows]},
            [f"y{i % 3}" for i in range(len(labeled_rows))],
        )
        pool = make_dataset(
            {"x": [float(x) for x, _ in pool_rows], "c": [c for _, c in pool_rows]},
            ["?"] * len(pool_rows),
        )
        k = data.draw(st.integers(1, len(labeled_rows)))
        rows = data.draw(st.lists(st.integers(0, len(pool_rows) - 1), max_size=len(pool_rows)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pseudo, "_BLOCK_ENTRIES", data.draw(st.sampled_from(BLOCK_ENTRIES)))
            whole = pseudo_label(labeled, pool, KnnConfig(k))
            part = pseudo_label(labeled, pool.subset(rows), KnnConfig(k))
        assert part.tolist() == whole[rows].tolist()

    def test_permutation_equivariance(self, iris):
        rng = np.random.default_rng(23)
        labeled = iris.subset(np.arange(0, 150, 2))
        pool_rows = np.arange(1, 150, 2)
        perm = rng.permutation(len(pool_rows))
        base = pseudo_label(iris, iris.subset(pool_rows), KnnConfig(3))
        shuffled = pseudo_label(iris, iris.subset(pool_rows[perm]), KnnConfig(3))
        assert shuffled.tolist() == base[perm].tolist()


def _two_rows(missing=None):
    return make_dataset({"x": [1.0, 2.0], "c": ["u", "v"]}, ["A", "B"], missing=missing)


@pytest.mark.parametrize("call, message", [
    (lambda: KnnConfig(0), "k must be at least 1"),
    (lambda: FeatureSpace.fit(_two_rows()).encode(make_dataset({"y": [1.0]}, ["A"])),
     "schema mismatch"),
    (lambda: FeatureSpace.fit(_two_rows()).encode(_two_rows(missing=[(1, 0)])),
     "data has missing values; impute first"),
], ids=["k-zero", "encode-schema", "encode-missing"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
