"""Naive Bayes on discrete attributes, with trained attribute exponents.

The base model holds add-one-smoothed class priors and per-attribute
conditional tables.  Weighted variants raise conditional probabilities to
learned exponents before combining:

    score(c) = log prior(c) + sum_j e[c, j] * log cond(j, x_j | c)

Two posteriors are formed from softmax-normalized scores: one with a
class-specific exponent matrix W, one with a class-shared vector w.  The
final posterior blends them,

    P(c | x) = alpha * P_W(c | x) + (1 - alpha) * P_w(c | x),

and all of W, w and alpha (through a sigmoid reparameterization) are fit by
gradient descent with Armijo backtracking on the mean squared error between
the blended posterior and the one-hot label, so the objective never
increases.  Each step's gradient reuses the posteriors of the accepted
line-search trial.  Prediction takes the class with maximal posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import AttributeKind, Dataset, _token_codes, class_codes
from .discretize import DiscretizationScheme, _row_sum, sigmoid


@dataclass
class DiscreteTable:
    """Integer-coded attribute matrix with per-attribute arity.

    Code -1 marks a categorical value outside the training vocabulary; the
    scoring path maps it to the smoothing-floor probability.
    """

    x: np.ndarray
    arity: tuple[int, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.int64)
        if self.x.ndim != 2 or self.x.shape[1] != len(self.arity):
            raise ValueError("matrix width must match arity list")

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]


def encode_discrete(
    disc: Dataset, scheme: DiscretizationScheme, vocab: dict[int, list[str]]
) -> DiscreteTable:
    """Turn an interval-indexed dataset into an integer matrix with arities;
    categorical codes are mapped onto ``vocab``'s tokens, -1 for one outside it."""
    if disc.names != scheme.names:
        raise ValueError("dataset does not match the scheme")
    columns = []
    arity = []
    for j, kind in enumerate(disc.kinds):
        if kind is AttributeKind.NUMERIC:
            columns.append(disc.columns[j])
            arity.append(scheme.n_intervals(j))
        else:
            columns.append(_token_codes(disc.vocab[j], vocab[j], unknown=-1)[disc.columns[j]])
            arity.append(len(vocab[j]))
    return DiscreteTable(
        x=np.column_stack(columns) if columns else np.zeros((disc.n_rows, 0), dtype=np.int64),
        arity=tuple(arity),
        names=tuple(disc.names),
    )


@dataclass
class NbModel:
    """Smoothed class priors and per-attribute conditional tables."""

    classes: list[str]
    class_counts: np.ndarray
    priors: np.ndarray
    cond: list[np.ndarray]
    arity: tuple[int, ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_attrs(self) -> int:
        return len(self.cond)


@dataclass
class WeightedParams:
    """Class-specific exponents W, shared exponents w, blend coefficient alpha."""

    W: np.ndarray
    w: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        self.W = np.asarray(self.W, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not (np.isfinite(self.W).all() and np.isfinite(self.w).all()):
            raise ValueError("weights must be finite")


def identity_params(model: NbModel) -> WeightedParams:
    """Plain naive Bayes: every exponent 1, so both posteriors, and any blend, agree."""
    return WeightedParams(
        W=np.ones((model.n_classes, model.n_attrs)), w=np.ones(model.n_attrs), alpha=0.5
    )


def fit_nb(table: DiscreteTable, labels: Sequence[str] | np.ndarray) -> NbModel:
    """Count-based fit with add-one smoothing; the classes are the sorted distinct labels."""
    n = table.n_rows
    if n == 0:
        raise ValueError("empty training set")
    if len(labels) != n:
        raise ValueError("labels must align with rows")
    classes, codes = class_codes(labels)
    classes = classes.tolist()
    class_counts = np.bincount(codes, minlength=len(classes)).astype(np.int64)
    priors = (class_counts + 1.0) / (n + len(classes))
    cond = []
    for j, a in enumerate(table.arity):
        col = table.x[:, j]
        if (col < 0).any() or (col >= a).any():
            raise ValueError(f"attribute {table.names[j]!r}: value index out of arity range")
        counts = np.bincount(codes * a + col, minlength=len(classes) * a).reshape(-1, a)
        cond.append((counts + 1.0) / (class_counts[:, None] + a))
    return NbModel(
        classes=classes,
        class_counts=class_counts,
        priors=priors,
        cond=cond,
        arity=table.arity,
    )


# --- scoring ----------------------------------------------------------------


def _log_likelihoods(model: NbModel, x: np.ndarray) -> np.ndarray:
    """(n, C, m) tensor of log cond(j, x_ij | c); each attribute's log table gets the
    smoothing floor -log(N_c + arity) as one more column, which code -1 (unknown) reads."""
    x = np.asarray(x, dtype=np.int64)
    out = np.empty((x.shape[0], model.n_classes, x.shape[1]))
    for j, col in enumerate(x.T):
        if (col >= model.arity[j]).any() or (col < -1).any():
            raise ValueError(f"attribute {j}: value index out of arity range")
        floor = -np.log(model.class_counts + model.arity[j])
        out[:, :, j] = np.column_stack([np.log(model.cond[j]), floor])[:, col].T
    return out


# Reductions over the short class axis of an (n, C) array.  numpy reduces a
# 5-wide axis about 10x slower than a long one, so _row_max loops over the C
# columns; it equals max(axis=1) bit for bit.  _row_sum is the splitter's.


def _row_max(a: np.ndarray) -> np.ndarray:
    m = a[:, 0].copy()
    for c in range(1, a.shape[1]):
        np.maximum(m, a[:, c], out=m)
    return m


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - _row_max(scores)[:, None]
    e = np.exp(shifted)
    return e / _row_sum(e)[:, None]


def _posteriors(
    model: NbModel, W: np.ndarray, w: np.ndarray, alpha: float, loglik: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Blended, class-specific and class-shared posteriors for every row of ``loglik``.

    At alpha exactly 0 (1) the blend is the shared (class-specific) posterior
    itself, so the other branch is not computed and comes back as None.
    """
    logprior = np.log(model.priors)
    p_class = p_shared = None
    if alpha != 0.0:
        p_class = _softmax(logprior[None, :] + np.einsum("icj,cj->ic", loglik, W))
    if alpha != 1.0:
        p_shared = _softmax(logprior[None, :] + np.einsum("icj,j->ic", loglik, w))
    if p_class is None or p_shared is None:
        return (p_shared if p_class is None else p_class), p_class, p_shared
    return alpha * p_class + (1 - alpha) * p_shared, p_class, p_shared


def weighted_log_posterior(
    model: NbModel, exponents: np.ndarray, x: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Per-class unnormalized log scores for one instance.

    ``exponents`` is a (classes, attrs) matrix; pass a broadcast row for
    class-shared weights.
    """
    x = np.asarray(x, dtype=np.int64)
    if (x < 0).any():
        raise ValueError("value index out of arity range")
    exponents = np.broadcast_to(np.asarray(exponents, dtype=float), (model.n_classes, model.n_attrs))
    loglik = _log_likelihoods(model, x[None, :])
    return np.log(model.priors) + np.einsum("icj,cj->ic", loglik, exponents)[0]


def posterior_blend(
    model: NbModel, params: WeightedParams, x: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Blended per-class posterior for one instance; sums to 1."""
    x = np.asarray(x, dtype=np.int64)
    if (x < 0).any():
        raise ValueError("value index out of arity range")
    return posterior_batch(model, params, x[None, :])[0]


def posterior_batch(model: NbModel, params: WeightedParams, x: np.ndarray) -> np.ndarray:
    loglik = _log_likelihoods(model, x)
    return _posteriors(model, params.W, params.w, params.alpha, loglik)[0]


def predict(model: NbModel, params: WeightedParams, x: Sequence[int] | np.ndarray) -> str:
    """Class with maximal posterior; ties break toward the smaller class index."""
    posterior = posterior_blend(model, params, x)
    return model.classes[int(np.argmax(posterior))]


def predict_batch(model: NbModel, params: WeightedParams, x: np.ndarray) -> np.ndarray:
    posterior = posterior_batch(model, params, x)
    return np.array(model.classes, dtype=object)[posterior.argmax(axis=1)]


# --- posterior-matching objective -------------------------------------------


def _targets(model: NbModel, labels: Sequence[str] | np.ndarray) -> np.ndarray:
    """One-hot (n, C) targets; a label outside ``model.classes`` raises ValueError."""
    distinct, index = class_codes(labels)
    try:
        codes = _token_codes(distinct, model.classes)[index]
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} is not a model class") from None
    return np.eye(model.n_classes)[codes]


def _loss(blended: np.ndarray, target: np.ndarray) -> float:
    return float(_row_sum((blended - target) ** 2).mean())


def _grad(
    loglik: np.ndarray, target: np.ndarray, alpha: float,
    blended: np.ndarray, p_class: np.ndarray | None, p_shared: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Gradient of ``_loss`` w.r.t. (W, w, a) at the point whose posteriors are given.

    A branch that ``_posteriors`` skipped has weight 0 in the blend, so its
    exponents and ``a`` get a zero gradient.
    """
    residual = 2.0 * (blended - target) / len(loglik)
    grad_W, grad_w, grad_a = np.zeros(loglik.shape[1:]), np.zeros(loglik.shape[2]), 0.0
    if p_class is not None:
        row_dot = _row_sum(residual * p_class)[:, None]
        grad_W = alpha * np.einsum("ic,icj->cj", p_class * (residual - row_dot), loglik)
    if p_shared is not None:
        row_dot = _row_sum(residual * p_shared)[:, None]
        grad_w = (1 - alpha) * np.einsum("ic,icj->j", p_shared * (residual - row_dot), loglik)
    if p_class is not None and p_shared is not None:
        grad_a = alpha * (1 - alpha) * float((residual * (p_class - p_shared)).sum())
    return grad_W, grad_w, grad_a


def objective(
    model: NbModel,
    params: WeightedParams,
    x: np.ndarray,
    labels: Sequence[str] | np.ndarray,
) -> float:
    """Mean squared error between blended posteriors and one-hot labels."""
    if len(x) == 0:
        raise ValueError("empty data")
    return _loss(posterior_batch(model, params, x), _targets(model, labels))


def gradient(
    model: NbModel,
    params: WeightedParams,
    x: np.ndarray,
    labels: Sequence[str] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Analytic gradient of the objective w.r.t. (W, w, a) with alpha = s(a)."""
    loglik = _log_likelihoods(model, x)
    post = _posteriors(model, params.W, params.w, params.alpha, loglik)
    return _grad(loglik, _targets(model, labels), params.alpha, *post)


# --- training ----------------------------------------------------------------

# Armijo backtracking: each search starts at _FIRST_STEP and halves the step
# until the objective falls by _ARMIJO_C * step * |grad|^2; below _MIN_STEP it stops.
_FIRST_STEP, _MIN_STEP, _ARMIJO_C = 1.0, 1e-12, 1e-4


@dataclass(frozen=True)
class TrainOptions:
    """Stop after ``max_iter`` accepted steps, or one that gains less than ``tol``."""

    max_iter: int = 500
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iter < 0:
            raise ValueError("max_iter must be at least 0")


@dataclass
class TrainResult:
    params: WeightedParams
    objectives: list[float] = field(default_factory=list)


def _train(
    table: DiscreteTable,
    labels: Sequence[str] | np.ndarray,
    a: float,
    opts: TrainOptions,
    model: NbModel | None,
) -> TrainResult:
    """Gradient descent from all-one exponents and blend logit ``a``.

    alpha = sigmoid(a).  ``rnb`` starts at a = 0 and fits W, w and alpha;
    a = -inf (``wanbia``) or +inf (``cawnb``) pins alpha at exactly 0 or 1,
    so only w or only W is fit: the untrained branch is never computed and
    its exponents get a zero gradient.
    """
    model = fit_nb(table, labels) if model is None else model
    if model.n_classes < 2:
        raise ValueError("need at least 2 classes")
    loglik = _log_likelihoods(model, table.x)
    target = _targets(model, labels)

    W = np.ones((model.n_classes, model.n_attrs))
    w = np.ones(model.n_attrs)
    alpha = sigmoid(a)
    post = _posteriors(model, W, w, alpha, loglik)
    value = _loss(post[0], target)
    if not math.isfinite(value):
        raise RuntimeError("non-finite objective at initialization")
    trace = [value]

    for _ in range(opts.max_iter):
        grad_W, grad_w, grad_a = _grad(loglik, target, alpha, *post)
        grad_sq = float((grad_W**2).sum() + (grad_w**2).sum() + grad_a**2)
        if grad_sq == 0.0 or not math.isfinite(grad_sq):
            break

        step = _FIRST_STEP
        while step >= _MIN_STEP:
            W_new, w_new, a_new = W - step * grad_W, w - step * grad_w, a - step * grad_a
            alpha_new = sigmoid(a_new)
            post_new = _posteriors(model, W_new, w_new, alpha_new, loglik)
            value_new = _loss(post_new[0], target)
            if math.isfinite(value_new) and value_new <= value - _ARMIJO_C * step * grad_sq:
                break
            step /= 2.0
        else:
            break  # no step down to _MIN_STEP passed the Armijo test
        W, w, a, alpha, post = W_new, w_new, a_new, alpha_new, post_new
        improvement = value - value_new
        value = value_new
        trace.append(value)
        if improvement < opts.tol:
            break

    return TrainResult(params=WeightedParams(W, w, alpha), objectives=trace)


def train_rnb(
    table: DiscreteTable,
    labels: Sequence[str] | np.ndarray,
    opts: TrainOptions | None = None,
    model: NbModel | None = None,
) -> TrainResult:
    """Fit W, w and the blend coefficient jointly."""
    return _train(table, labels, 0.0, opts or TrainOptions(), model)


def train_wanbia(
    table: DiscreteTable,
    labels: Sequence[str] | np.ndarray,
    opts: TrainOptions | None = None,
    model: NbModel | None = None,
) -> TrainResult:
    """Class-shared exponents only (alpha fixed at 0)."""
    return _train(table, labels, -math.inf, opts or TrainOptions(), model)


def train_cawnb(
    table: DiscreteTable,
    labels: Sequence[str] | np.ndarray,
    opts: TrainOptions | None = None,
    model: NbModel | None = None,
) -> TrainResult:
    """Class-specific exponents only (alpha fixed at 1)."""
    return _train(table, labels, math.inf, opts or TrainOptions(), model)


# --- serialization -----------------------------------------------------------


def model_to_dict(model: NbModel, params: WeightedParams) -> dict:
    return {
        "classes": list(model.classes),
        "class_counts": [int(c) for c in model.class_counts],
        "priors": [float(p) for p in model.priors],
        "cond": [[[float(v) for v in row] for row in table] for table in model.cond],
        "arity": list(model.arity),
        "W": [[float(v) for v in row] for row in params.W],
        "w": [float(v) for v in params.w],
        "alpha": float(params.alpha),
    }


def model_from_dict(doc: dict) -> tuple[NbModel, WeightedParams]:
    model = NbModel(
        classes=list(doc["classes"]),
        class_counts=np.asarray(doc["class_counts"], dtype=np.int64),
        priors=np.asarray(doc["priors"], dtype=float),
        cond=[np.asarray(t, dtype=float) for t in doc["cond"]],
        arity=tuple(int(a) for a in doc["arity"]),
    )
    params = WeightedParams(
        W=np.asarray(doc["W"], dtype=float),
        w=np.asarray(doc["w"], dtype=float),
        alpha=float(doc["alpha"]),
    )
    return model, params
