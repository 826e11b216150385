from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    brute_force_nb_posterior,
    loop_log_likelihoods,
    make_dataset,
    reference_train,
    two_branch_grad,
    two_branch_posteriors,
)

import nbdisc.weighted_nb as weighted_nb
from nbdisc.data import AttributeKind, categorical_vocab, impute_missing
from nbdisc.discretize import DiscretizationScheme, apply_scheme, build_scheme
from nbdisc.weighted_nb import (
    DiscreteTable,
    TrainOptions,
    WeightedParams,
    _grad,
    _log_likelihoods,
    _posteriors,
    _row_max,
    _row_sum,
    _softmax,
    _targets,
    encode_discrete,
    fit_nb,
    gradient,
    identity_params,
    model_from_dict,
    model_to_dict,
    objective,
    posterior_batch,
    posterior_blend,
    predict,
    predict_batch,
    train_cawnb,
    train_rnb,
    train_wanbia,
    weighted_log_posterior,
)


def table_from(rows, arity):
    return DiscreteTable(
        x=np.asarray(rows, dtype=np.int64),
        arity=tuple(arity),
        names=tuple(f"a{j}" for j in range(len(arity))),
    )


@pytest.fixture()
def four_row():
    """One binary attribute, labels [A, A, B, A]; every count is hand-checkable."""
    table = table_from([[0], [0], [1], [1]], [2])
    labels = ["A", "A", "B", "A"]
    return table, labels, fit_nb(table, labels)


@pytest.fixture(scope="module")
def iris_table(iris):
    imputed = impute_missing(iris, iris)
    scheme = build_scheme(imputed, "sadd")
    vocab = categorical_vocab([imputed])
    table = encode_discrete(apply_scheme(scheme, imputed), scheme, vocab)
    return table, imputed.labels


class TestFitNb:
    def test_priors_add_one(self, four_row):
        _, _, model = four_row
        assert model.priors.tolist() == [4 / 6, 2 / 6]

    def test_conditionals_add_one(self, four_row):
        _, _, model = four_row
        # class A: x=0 seen 2 of 3, x=1 seen 1 of 3; class B: only x=1 seen
        assert model.cond[0][0].tolist() == [3 / 5, 2 / 5]
        assert model.cond[0][1].tolist() == [1 / 3, 2 / 3]

    def test_unseen_value_gets_smoothing_floor(self, four_row):
        _, _, model = four_row
        assert model.cond[0][1, 0] == pytest.approx(1 / (1 + 2))

    def test_rows_sum_to_one(self, iris_table):
        table, labels = iris_table
        model = fit_nb(table, labels)
        assert model.priors.sum() == pytest.approx(1.0, abs=1e-12)
        for cond in model.cond:
            assert cond.min() > 0
            assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_nb(table_from(np.empty((0, 1)), [2]), [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            fit_nb(table_from([[5]], [2]), ["A"])


class TestWeightedLogPosterior:
    def test_identity_weights_equal_joint(self, four_row):
        _, _, model = four_row
        scores = weighted_log_posterior(model, np.ones((2, 1)), [0])
        expected = np.log(model.priors) + np.log([model.cond[0][0, 0], model.cond[0][1, 0]])
        assert scores == pytest.approx(expected)

    def test_zero_weights_equal_priors(self, four_row):
        _, _, model = four_row
        scores = weighted_log_posterior(model, np.zeros((2, 1)), [1])
        assert scores == pytest.approx(np.log(model.priors))

    def test_doubling_adds_one_log_factor(self, four_row):
        _, _, model = four_row
        ones = weighted_log_posterior(model, np.ones((2, 1)), [0])
        twos = weighted_log_posterior(model, 2 * np.ones((2, 1)), [0])
        assert twos - ones == pytest.approx(np.log(model.cond[0][:, 0]))

    def test_out_of_range_rejected(self, four_row):
        _, _, model = four_row
        with pytest.raises(ValueError, match="arity"):
            weighted_log_posterior(model, np.ones((2, 1)), [2])
        with pytest.raises(ValueError, match="arity"):
            weighted_log_posterior(model, np.ones((2, 1)), [-1])


class TestPosteriorBlend:
    def test_alpha_boundaries(self, four_row):
        _, _, model = four_row
        wild = WeightedParams(W=np.full((2, 1), 3.0), w=np.full(1, 0.2), alpha=1.0)
        only_class = posterior_blend(model, wild, [0])
        scores = weighted_log_posterior(model, wild.W, [0])
        assert only_class == pytest.approx(np.exp(scores) / np.exp(scores).sum())

        wild0 = WeightedParams(W=wild.W, w=wild.w, alpha=0.0)
        only_shared = posterior_blend(model, wild0, [0])
        scores = weighted_log_posterior(model, np.broadcast_to(wild.w, (2, 1)), [0])
        assert only_shared == pytest.approx(np.exp(scores) / np.exp(scores).sum())

    def test_class_scores_are_the_blend_scores_bit_for_bit(self, iris_table):
        # the per-instance scores are the ones the trainer and posterior_batch use
        table, labels = iris_table
        model = fit_nb(table, labels)
        result = train_rnb(table, labels, TrainOptions(max_iter=50), model=model)
        only_class = WeightedParams(result.params.W, result.params.w, 1.0)
        for row in table.x:
            scores = weighted_log_posterior(model, result.params.W, row)[None, :]
            assert np.array_equal(_softmax(scores)[0], posterior_blend(model, only_class, row))

    def test_all_ones_reduces_to_nb(self, four_row):
        table, labels, model = four_row
        classes, oracle = brute_force_nb_posterior(
            table.x.tolist(), labels, table.arity, [0]
        )
        for alpha in (0.0, 0.3, 1.0):
            params = WeightedParams(np.ones((2, 1)), np.ones(1), alpha)
            assert posterior_blend(model, params, [0]) == pytest.approx(oracle, abs=1e-12)

    def test_sums_to_one(self, iris_table):
        table, labels = iris_table
        model = fit_nb(table, labels)
        rng = np.random.default_rng(3)
        params = WeightedParams(
            rng.normal(1, 0.5, (model.n_classes, model.n_attrs)),
            rng.normal(1, 0.5, model.n_attrs),
            0.4,
        )
        post = posterior_batch(model, params, table.x)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)
        assert post.min() >= 0.0 and post.max() <= 1.0

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(5, 3))
        shifted = scores + rng.normal(size=(5, 1))
        assert np.allclose(_softmax(scores), _softmax(shifted), atol=1e-12)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            WeightedParams(np.ones((2, 1)), np.ones(1), 1.5)


class TestOneBranchKernel:
    """At alpha 0 or 1 only the live branch is computed; the results must be
    the always-two-branch oracle's, bit for bit."""

    @given(
        n_classes=st.integers(2, 9),
        alpha=st.sampled_from([0.0, 1.0, 0.37]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_two_branch_oracle(self, n_classes, alpha, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(n_classes, 40)), int(rng.integers(1, 6))
        arity = rng.integers(1, 5, m)
        codes = rng.integers(0, n_classes, n)
        codes[:n_classes] = np.arange(n_classes)  # every class occurs
        labels = [f"c{c}" for c in codes]
        table = table_from(rng.integers(0, arity, (n, m)), arity)
        model = fit_nb(table, labels)
        W, w = rng.normal(1.0, 0.7, (n_classes, m)), rng.normal(1.0, 0.7, m)
        loglik = _log_likelihoods(model, table.x)

        post = _posteriors(model, W, w, alpha, loglik)
        oracle = two_branch_posteriors(model, W, w, alpha, loglik)
        batch = posterior_batch(model, WeightedParams(W, w, alpha), table.x)
        assert post[0].tobytes() == oracle[0].tobytes() == batch.tobytes()
        grad = _grad(loglik, _targets(model, labels), alpha, *post)
        oracle_grad = two_branch_grad(loglik, _targets(model, labels), alpha, *oracle)
        # index 0: class-specific branch and W; index 1: shared branch and w
        live = {0.0: [1], 1.0: [0]}.get(alpha, [0, 1])
        for i in (0, 1):
            if i in live:
                assert post[i + 1].tobytes() == oracle[i + 1].tobytes()
                assert grad[i].tobytes() == oracle_grad[i].tobytes()
            else:
                assert post[i + 1] is None
                assert not grad[i].any() and not oracle_grad[i].any()  # +0 vs a signed 0
        assert grad[2] == oracle_grad[2]
        if len(live) == 1:
            assert grad[2] == 0.0


class TestLogLikelihoods:
    @given(
        arity=st.lists(st.integers(1, 5), min_size=1, max_size=5),
        n_classes=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_cell_loop(self, arity, n_classes, seed):
        rng = np.random.default_rng(seed)
        train = rng.integers(0, arity, size=(20, len(arity)))
        labels = rng.permutation([f"c{i % n_classes}" for i in range(20)])
        model = fit_nb(table_from(train, arity), labels)
        x = rng.integers(-1, arity, size=(15, len(arity)))
        x[0] = -1  # every attribute meets an unknown token
        got = _log_likelihoods(model, x)
        assert got.tobytes() == loop_log_likelihoods(model, x).tobytes()


class TestClassAxisReductions:
    """The column-loop reductions equal numpy's, bit for bit."""

    @given(n_classes=st.integers(1, 12), n=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
    def test_match_numpy_bits(self, n_classes, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.choice([-1.0, 1.0], (n, n_classes)) * 10.0 ** rng.uniform(-8, 8, (n, n_classes))
        special = rng.random((n, n_classes)) < 0.2
        a[special] = rng.choice([-0.0, math.inf, -math.inf, math.nan], special.sum())
        a = np.vstack([a, np.full((1, n_classes), -0.0)])  # an all -0.0 row sums to +0.0
        with np.errstate(invalid="ignore"):
            assert _row_max(a).tobytes() == a.max(axis=1).tobytes()
            assert _row_sum(a).tobytes() == a.sum(axis=1).tobytes()


class TestObjective:
    def test_uniform_posterior_two_classes(self):
        # identical conditionals and balanced priors make every posterior
        # exactly uniform: loss per instance is (0.5-1)^2 + (0.5-0)^2 = 0.5
        table = table_from([[0], [1]], [2])
        model = fit_nb(table, ["A", "B"])
        model.cond[0] = np.array([[0.5, 0.5], [0.5, 0.5]])
        model.priors = np.array([0.5, 0.5])
        value = objective(model, identity_params(model), table.x, ["A", "B"])
        assert value == pytest.approx(0.5)

    def test_hand_oracle_four_rows(self, four_row):
        table, labels, model = four_row
        expected = 0.0
        for row, label in zip(table.x.tolist(), labels):
            classes, post = brute_force_nb_posterior(table.x.tolist(), labels, table.arity, row)
            target = [1.0 if c == label else 0.0 for c in classes]
            expected += sum((p - t) ** 2 for p, t in zip(post, target))
        expected /= len(labels)
        got = objective(model, identity_params(model), table.x, labels)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_near_zero_when_separable_and_large(self):
        n = 2500
        table = table_from([[0]] * n + [[1]] * n, [2])
        labels = ["A"] * n + ["B"] * n
        model = fit_nb(table, labels)
        assert objective(model, identity_params(model), table.x, labels) < 1e-4

    def test_empty_rejected(self, four_row):
        _, _, model = four_row
        with pytest.raises(ValueError, match="empty"):
            objective(model, identity_params(model), np.empty((0, 1), dtype=int), [])


def _finite_difference(model, params, x, labels, h=1e-5):
    a = math.log(params.alpha / (1 - params.alpha))

    def value(W, w, aa):
        alpha = 1 / (1 + math.exp(-aa))
        return objective(model, WeightedParams(W, w, alpha), x, labels)

    fd_W = np.zeros_like(params.W)
    for idx in np.ndindex(*params.W.shape):
        bump = np.zeros_like(params.W)
        bump[idx] = h
        fd_W[idx] = (value(params.W + bump, params.w, a) - value(params.W - bump, params.w, a)) / (2 * h)
    fd_w = np.zeros_like(params.w)
    for j in range(params.w.size):
        bump = np.zeros_like(params.w)
        bump[j] = h
        fd_w[j] = (value(params.W, params.w + bump, a) - value(params.W, params.w - bump, a)) / (2 * h)
    fd_a = (value(params.W, params.w, a + h) - value(params.W, params.w, a - h)) / (2 * h)
    return fd_W, fd_w, fd_a


def _max_rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


class TestGradient:
    def test_matches_central_differences(self, four_row):
        table, labels, model = four_row
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(5):
            params = WeightedParams(
                rng.normal(1.0, 0.5, (2, 1)), rng.normal(1.0, 0.5, 1), float(rng.uniform(0.2, 0.8))
            )
            gw_class, gw_shared, ga = gradient(model, params, table.x, labels)
            fd = _finite_difference(model, params, table.x, labels)
            worst = max(
                worst,
                _max_rel_err(gw_class, fd[0]),
                _max_rel_err(gw_shared, fd[1]),
                _max_rel_err([ga], [fd[2]]),
            )
        assert worst < 1e-4

    def test_near_zero_at_near_perfect_fit(self):
        def grad_norm(copies):
            table = table_from([[0]] * copies + [[1]] * copies, [2])
            labels = ["A"] * copies + ["B"] * copies
            model = fit_nb(table, labels)
            g = gradient(model, identity_params(model), table.x, labels)
            return math.sqrt(float((g[0] ** 2).sum() + (g[1] ** 2).sum() + g[2] ** 2))

        small, large = grad_norm(20), grad_norm(500)
        assert large < small
        assert large < 0.02

    def test_alpha_gradient_zero_when_models_agree(self, iris_table):
        table, labels = iris_table
        model = fit_nb(table, labels)
        rng = np.random.default_rng(6)
        w = rng.normal(1.0, 0.4, model.n_attrs)
        params = WeightedParams(np.tile(w, (model.n_classes, 1)), w, 0.5)
        _, _, ga = gradient(model, params, table.x, labels)
        assert abs(ga) < 1e-12


class TestTrainers:
    def test_perfect_attribute_reaches_full_accuracy(self):
        table = table_from([[0], [0], [1], [1], [0], [1]], [2])
        labels = ["A", "A", "B", "B", "A", "B"]
        model = fit_nb(table, labels)
        result = train_rnb(table, labels, model=model)
        preds = predict_batch(model, result.params, table.x)
        assert (preds == np.array(labels, dtype=object)).all()

    @pytest.mark.parametrize("trainer", [train_rnb, train_wanbia, train_cawnb])
    def test_objective_non_increasing(self, trainer, iris_table):
        table, labels = iris_table
        result = trainer(table, labels)
        steps = np.diff(result.objectives)
        assert (steps <= 0).all()

    @pytest.mark.parametrize("trainer", [train_rnb, train_wanbia, train_cawnb])
    def test_huge_first_step_finishes(self, trainer, iris_table, monkeypatch):
        # a trial with a = -1e308 once overflowed math.exp in the rnb blend
        monkeypatch.setattr(weighted_nb, "_FIRST_STEP", 1e308)
        table, labels = iris_table
        result = trainer(table, labels, TrainOptions(max_iter=5))
        assert (np.diff(result.objectives) <= 0).all()
        assert 0.0 <= result.params.alpha <= 1.0

    @pytest.mark.parametrize("variant", ["rnb", "wanbia", "cawnb"])
    @pytest.mark.parametrize("data", ["iris", "toy_mixed"])
    def test_matches_reference_loop(self, variant, data, request):
        raw = request.getfixturevalue(data)
        imputed = impute_missing(raw, raw)
        scheme = build_scheme(imputed, "sadd")
        table = encode_discrete(apply_scheme(scheme, imputed), scheme, categorical_vocab([imputed]))
        opts = TrainOptions(max_iter=50)
        trainer = {"rnb": train_rnb, "wanbia": train_wanbia, "cawnb": train_cawnb}[variant]
        result = trainer(table, imputed.labels, opts)
        params, objectives = reference_train(table, imputed.labels, variant, opts)
        assert np.array_equal(result.params.W, params.W)
        assert np.array_equal(result.params.w, params.w)
        assert result.params.alpha == params.alpha
        assert result.objectives == objectives
        assert len(objectives) > 2

    @pytest.mark.parametrize("name, value", [("max_iter", -1)])
    def test_bad_options_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainOptions(**{name: value})

    def test_label_outside_model_rejected(self, four_row):
        table, _, model = four_row
        with pytest.raises(ValueError, match="'C'"):
            objective(model, identity_params(model), table.x, ["A", "A", "C", "A"])
        with pytest.raises(ValueError, match="'C'"):
            gradient(model, identity_params(model), table.x, ["A", "A", "C", "A"])

    def test_zero_iterations_equal_plain_nb(self, iris_table):
        table, labels = iris_table
        model = fit_nb(table, labels)
        nb_preds = predict_batch(model, identity_params(model), table.x)
        opts = TrainOptions(max_iter=0)
        for trainer in (train_rnb, train_wanbia, train_cawnb):
            result = trainer(table, labels, opts, model=model)
            assert (predict_batch(model, result.params, table.x) == nb_preds).all()

    def test_alpha_fixed_per_variant(self, iris_table):
        table, labels = iris_table
        opts = TrainOptions(max_iter=3)
        wanbia = train_wanbia(table, labels, opts).params
        cawnb = train_cawnb(table, labels, opts).params
        rnb = train_rnb(table, labels, opts).params
        assert wanbia.alpha == 0.0
        assert cawnb.alpha == 1.0
        # each variant moves exactly the parameters it trains
        assert (wanbia.W == 1.0).all() and not (wanbia.w == 1.0).all()
        assert (cawnb.w == 1.0).all() and not (cawnb.W == 1.0).all()
        assert not (rnb.W == 1.0).all() and not (rnb.w == 1.0).all()
        assert rnb.alpha != 0.5

    def test_class_specific_at_least_as_tight_as_shared(self, iris_table):
        table, labels = iris_table
        shared = train_wanbia(table, labels).objectives[-1]
        specific = train_cawnb(table, labels).objectives[-1]
        assert specific <= shared + 1e-9

    def test_noise_attribute_weight_shrinks(self):
        rng = np.random.default_rng(8)
        n = 60
        informative = [i % 2 for i in range(n)]
        noise = rng.integers(0, 2, n).tolist()
        labels = ["A" if v == 0 else "B" for v in informative]
        table = table_from(list(zip(informative, noise)), [2, 2])
        model = fit_nb(table, labels)
        result = train_wanbia(table, labels, model=model)
        w = result.params.w
        assert abs(w[1]) < abs(w[0])

        # grid-search oracle over the 2-D weight plane: the loss-minimizing
        # grid point shows the same ordering of magnitudes
        grid = np.linspace(-1.0, 3.0, 41)
        best = None
        for w0 in grid:
            for w1 in grid:
                params = WeightedParams(np.ones((2, 2)), np.array([w0, w1]), 0.0)
                value = objective(model, params, table.x, labels)
                if best is None or value < best[0]:
                    best = (value, w0, w1)
        assert abs(best[2]) < abs(best[1])
        # the trainer moved in the same direction: noise weight shrank from 1,
        # informative weight grew, and the objective improved
        assert abs(w[1]) < 1.0 < abs(w[0])
        assert result.objectives[-1] < result.objectives[0]

    def test_single_class_rejected(self):
        table = table_from([[0], [1]], [2])
        with pytest.raises(ValueError, match="classes"):
            train_rnb(table, ["A", "A"])

    def test_non_finite_initial_objective_raises(self, four_row):
        # value 1, which training rows take, has probability 0 under every class
        table, labels, model = four_row
        model = replace(model, cond=[np.array([[1.0, 0.0], [1.0, 0.0]])])
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="^non-finite objective at initialization$"):
                train_rnb(table, labels, model=model)

    def test_stops_when_no_step_passes_the_line_search(self, iris_table, monkeypatch):
        monkeypatch.setattr(weighted_nb, "_ARMIJO_C", math.inf)
        table, labels = iris_table
        result = train_rnb(table, labels, TrainOptions(max_iter=5))
        assert len(result.objectives) == 1
        assert (result.params.W == 1.0).all() and (result.params.w == 1.0).all()
        assert result.params.alpha == 0.5


class TestPredict:
    def test_argmax(self, four_row):
        table, labels, model = four_row
        assert predict(model, identity_params(model), [0]) == "A"

    def test_exact_tie_prefers_smaller_class_index(self):
        table = table_from([[0], [1]], [2])
        model = fit_nb(table, ["A", "B"])
        model.cond[0] = np.array([[0.5, 0.5], [0.5, 0.5]])
        model.priors = np.array([0.5, 0.5])
        assert predict(model, identity_params(model), [0]) == "A"

    def test_matches_brute_force_nb(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            n = int(rng.integers(5, 50))
            arity = [int(a) for a in rng.integers(2, 5, size=rng.integers(1, 4))]
            rows = [[int(rng.integers(a)) for a in arity] for _ in range(n)]
            labels = [f"c{i}" for i in rng.integers(0, 3, n)]
            table = table_from(rows, arity)
            model = fit_nb(table, labels)
            params = identity_params(model)
            for row in rows:
                classes, oracle = brute_force_nb_posterior(rows, labels, arity, row)
                assert predict(model, params, row) == classes[int(np.argmax(oracle))]
                assert posterior_blend(model, params, row) == pytest.approx(oracle, abs=1e-10)


class TestEncodeAndSerialize:
    def test_unseen_category_maps_to_floor(self):
        train = make_dataset({"c": ["red", "red", "blue"]}, ["A", "A", "B"])
        scheme = build_scheme(train, "mdlp")
        vocab = categorical_vocab([train])
        table = encode_discrete(apply_scheme(scheme, train), scheme, vocab)
        model = fit_nb(table, train.labels)

        query = make_dataset({"c": ["green"]}, ["?"])
        encoded = encode_discrete(apply_scheme(scheme, query), scheme, vocab)
        assert encoded.x[0, 0] == -1
        post = posterior_batch(model, identity_params(model), encoded.x)[0]
        floors = 1.0 / (model.class_counts + 2)
        scores = model.priors * floors
        assert post == pytest.approx(scores / scores.sum())
        # the strict single-instance entry point rejects the sentinel
        with pytest.raises(ValueError, match="arity"):
            posterior_blend(model, identity_params(model), [-1])

    def test_model_round_trip(self, iris_table):
        table, labels = iris_table
        model = fit_nb(table, labels)
        result = train_rnb(table, labels, TrainOptions(max_iter=20), model=model)
        doc = json.loads(json.dumps(model_to_dict(model, result.params)))
        model2, params2 = model_from_dict(doc)
        assert (predict_batch(model2, params2, table.x)
                == predict_batch(model, result.params, table.x)).all()
        assert np.array_equal(
            posterior_batch(model2, params2, table.x),
            posterior_batch(model, result.params, table.x),
        )


@pytest.mark.parametrize("call, message", [
    (lambda: DiscreteTable(np.zeros((2, 2)), (2,), ("a",)), "matrix width must match arity list"),
    (lambda: encode_discrete(
        make_dataset({"a": [0]}, ["A"]),
        DiscretizationScheme("mdlp", {}, ["b"], [AttributeKind.NUMERIC], [[]]), {},
    ), "dataset does not match the scheme"),
    (lambda: WeightedParams(W=[[np.nan]], w=[1.0], alpha=0.5), "weights must be finite"),
    (lambda: fit_nb(table_from([[0], [1]], [2]), ["A"]), "labels must align with rows"),
], ids=["table-width", "encode-scheme", "params-finite", "fit-misaligned"])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
