"""k-nearest-neighbor pseudo-labeling of unlabeled rows.

Distances are Euclidean over z-scored numeric features (statistics from the
labeled data) plus a 0/1 mismatch term per categorical feature.  Tie rules
are fixed for reproducibility: distance ties prefer the lower labeled row
index, vote ties prefer the smallest class index (classes sorted by token).
The neighbor count k is tuned on a held-out ninth of the labeled data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import AttributeKind, Dataset, stratified_folds

DEFAULT_K_GRID: tuple[int, ...] = tuple(range(1, 32, 2))


@dataclass(frozen=True)
class KnnConfig:
    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class FeatureSpace:
    """Feature encoding for distance computation, frozen on the labeled data.

    Numeric columns are z-scored; a zero-variance column is mapped to zero so
    it contributes nothing.  Categorical columns become integer codes whose
    distance contribution is 1 when the codes differ.
    """

    names: tuple[str, ...]
    kinds: tuple[AttributeKind, ...]
    numeric_idx: tuple[int, ...]
    categorical_idx: tuple[int, ...]
    means: np.ndarray
    scales: np.ndarray
    vocab: tuple[tuple[str, ...], ...]

    @classmethod
    def fit(cls, labeled: Dataset) -> "FeatureSpace":
        if labeled.missing.any():
            raise ValueError("labeled data has missing values; impute first")
        num = tuple(labeled.numeric_attrs())
        cat = tuple(labeled.categorical_attrs())
        means = np.array([labeled.columns[j].mean() for j in num], dtype=float)
        scales = np.array([labeled.columns[j].std() for j in num], dtype=float)
        vocab = tuple(tuple(sorted(set(labeled.columns[j].tolist()))) for j in cat)
        return cls(
            names=tuple(labeled.names),
            kinds=tuple(labeled.kinds),
            numeric_idx=num,
            categorical_idx=cat,
            means=means,
            scales=scales,
            vocab=vocab,
        )

    def encode(self, data: Dataset) -> np.ndarray:
        if tuple(data.names) != self.names or tuple(data.kinds) != self.kinds:
            raise ValueError("schema mismatch")
        if data.missing.any():
            raise ValueError("data has missing values; impute first")
        parts = []
        for pos, j in enumerate(self.numeric_idx):
            col = np.asarray(data.columns[j], dtype=float)
            if self.scales[pos] > 0:
                parts.append((col - self.means[pos]) / self.scales[pos])
            else:
                parts.append(np.zeros_like(col))
        for pos, j in enumerate(self.categorical_idx):
            lookup = {tok: i for i, tok in enumerate(self.vocab[pos])}
            parts.append(
                np.array([lookup.get(tok, len(lookup)) for tok in data.columns[j]], dtype=float)
            )
        if not parts:
            return np.zeros((data.n_rows, 0))
        return np.column_stack(parts)

    @property
    def n_numeric(self) -> int:
        return len(self.numeric_idx)


def _distance_sq(space: FeatureSpace, ref: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(n_queries, n_ref) squared distances under the mixed metric.

    Small problems accumulate feature by feature so exact ties (duplicate
    rows, symmetric layouts) stay exact and the index tie rule is
    meaningful; large ones use the BLAS expansion, where mathematically
    tied distances may differ by rounding but stay deterministic.
    """
    m = space.n_numeric
    if ref.shape[0] * queries.shape[0] <= (1 << 22):
        dist = np.zeros((queries.shape[0], ref.shape[0]))
        for c in range(m):
            dist += (queries[:, c][:, None] - ref[:, c][None, :]) ** 2
    else:
        qn, rn = queries[:, :m], ref[:, :m]
        dist = (qn * qn).sum(axis=1)[:, None] + (rn * rn).sum(axis=1)[None, :]
        dist -= 2.0 * (qn @ rn.T)
        np.maximum(dist, 0.0, out=dist)
    for c in range(m, ref.shape[1]):
        dist += queries[:, c][:, None] != ref[:, c][None, :]
    return dist


def _vote(neighbor_codes: np.ndarray, n_classes: int) -> int:
    counts = np.bincount(neighbor_codes, minlength=n_classes)
    return int(np.argmax(counts))  # first max = smallest class index


def _nearest_neighbors(
    space: FeatureSpace, ref: np.ndarray, queries: np.ndarray, max_k: int
) -> np.ndarray:
    """(n_queries, max_k) labeled-row indices in nearest-first order.

    Distance ties keep the lower labeled row index.  Selecting every row at
    or below the max_k-th smallest distance and stable-sorting that subset
    yields the same prefix as a full stable sort, without the O(n log n)
    per-query cost.
    """
    out = np.empty((len(queries), max_k), dtype=int)
    block = max(1, (1 << 24) // max(len(ref), 1))  # bound the distance matrix size
    for start in range(0, len(queries), block):
        dist = _distance_sq(space, ref, queries[start : start + block])
        if max_k >= dist.shape[1]:
            out[start : start + block] = np.argsort(dist, axis=1, kind="stable")[:, :max_k]
            continue
        kth = np.partition(dist, max_k - 1, axis=1)[:, max_k - 1]
        for i in range(dist.shape[0]):
            candidates = np.flatnonzero(dist[i] <= kth[i])
            ranked = candidates[np.argsort(dist[i][candidates], kind="stable")]
            out[start + i] = ranked[:max_k]
    return out


def _predict_codes(
    space: FeatureSpace, ref: np.ndarray, ref_codes: np.ndarray, queries: np.ndarray, k: int
) -> np.ndarray:
    if k > len(ref):
        raise ValueError(f"k={k} exceeds {len(ref)} labeled rows")
    n_classes = int(ref_codes.max()) + 1
    nearest = _nearest_neighbors(space, ref, queries, k)
    out = np.empty(len(queries), dtype=int)
    for i, row in enumerate(nearest):
        out[i] = _vote(ref_codes[row], n_classes)
    return out


def knn_predict(
    labeled_x: np.ndarray,
    labeled_y: Sequence[str] | np.ndarray,
    query_row: np.ndarray,
    config: KnnConfig,
    space: FeatureSpace | None = None,
) -> str:
    """Majority label among the k nearest labeled rows for one encoded query.

    ``labeled_x`` and ``query_row`` must be encoded by the same FeatureSpace;
    when ``space`` is omitted the rows are treated as all-numeric.
    """
    labeled_x = np.asarray(labeled_x, dtype=float)
    if labeled_x.shape[0] == 0:
        raise ValueError("no labeled rows")
    classes, codes = np.unique(np.asarray(labeled_y, dtype=object), return_inverse=True)
    if space is None:
        space = _all_numeric_space(labeled_x.shape[1])
    pred = _predict_codes(space, labeled_x, codes, np.asarray(query_row, float)[None, :], config.k)
    return classes[pred[0]]


def _all_numeric_space(width: int) -> FeatureSpace:
    return FeatureSpace(
        names=tuple(f"f{i}" for i in range(width)),
        kinds=tuple(AttributeKind.NUMERIC for _ in range(width)),
        numeric_idx=tuple(range(width)),
        categorical_idx=(),
        means=np.zeros(width),
        scales=np.ones(width),
        vocab=(),
    )


def select_k(
    labeled: Dataset,
    grid: Sequence[int] = DEFAULT_K_GRID,
    seed: int = 0,
) -> int:
    """Grid-search k on one of nine stratified parts held out for validation.

    Accuracy ties break toward the smallest k; grid values larger than the
    fit set are skipped.
    """
    if not grid:
        raise ValueError("empty grid")
    if labeled.n_rows < 9:
        raise ValueError("need at least 9 labeled rows to hold out a validation part")
    plan = stratified_folds(labeled, 9, seed)
    non_empty = [f for f in range(9) if plan.test_rows(f).size > 0]
    val_fold = non_empty[int(np.random.default_rng(seed).integers(len(non_empty)))]
    fit = labeled.subset(plan.train_rows(val_fold))
    val = labeled.subset(plan.test_rows(val_fold))

    space = FeatureSpace.fit(fit)
    ref = space.encode(fit)
    queries = space.encode(val)
    classes, codes = np.unique(fit.labels, return_inverse=True)
    classes = classes.tolist()

    feasible = [k for k in sorted(set(int(k) for k in grid)) if 1 <= k <= fit.n_rows]
    if not feasible:
        raise ValueError("every grid value exceeds the fit-set size")
    # neighbor order is independent of k: rank once, vote per prefix
    nearest = _nearest_neighbors(space, ref, queries, max(feasible))
    truth = np.array([classes.index(t) if t in classes else -1 for t in val.labels])

    best_k = None
    best_acc = -1.0
    for k in feasible:
        pred = np.array(
            [_vote(codes[row[:k]], len(classes)) for row in nearest], dtype=int
        )
        acc = float(np.mean(pred == truth))
        if acc > best_acc:
            best_acc = acc
            best_k = k
    return best_k


def pseudo_label(labeled: Dataset, unlabeled: Dataset, config: KnnConfig) -> np.ndarray:
    """Predicted class tokens for every unlabeled row, in row order."""
    if labeled.names != unlabeled.names or labeled.kinds != unlabeled.kinds:
        raise ValueError("labeled and unlabeled schemas differ")
    if unlabeled.n_rows == 0:
        return np.empty(0, dtype=object)
    space = FeatureSpace.fit(labeled)
    ref = space.encode(labeled)
    queries = space.encode(unlabeled)
    classes, codes = np.unique(labeled.labels, return_inverse=True)
    return classes[_predict_codes(space, ref, codes, queries, config.k)]
