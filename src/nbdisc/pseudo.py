"""k-nearest-neighbor pseudo-labeling of unlabeled rows.

Distances are Euclidean over z-scored numeric features (statistics from the
labeled data) plus a 0/1 mismatch term per categorical feature.  They are
computed one way at every problem size, as an exact feature-by-feature sum,
so a row's neighbors depend only on that row and the labeled rows, never on
the pool size or the block it is ranked in.  Tie rules are fixed for
reproducibility: distance ties prefer the lower labeled row index, vote ties
prefer the smallest class index (classes sorted by token), and accuracy ties
in the k search prefer the smallest k.  The neighbor count k is tuned on a
held-out ninth of the labeled data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import AttributeKind, Dataset, class_codes, stratified_folds

DEFAULT_K_GRID: tuple[int, ...] = tuple(range(1, 32, 2))
_BLOCK_ENTRIES = 1 << 16  # distances per ranking block: a cache-sized (n_queries, n_ref) slab


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


def _distance_sq(
    space: FeatureSpace, ref: np.ndarray, queries: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray:
    """(n_queries, n_ref) squared distances under the mixed metric.

    Accumulated feature by feature in column order, so a distance depends
    only on the two rows: exact ties (duplicate rows, symmetric layouts)
    stay exact at every problem size and the index tie rule is meaningful.
    A ``work`` buffer of shape (2, >= n_queries, n_ref) replaces fresh arrays.
    """
    cols = np.ascontiguousarray(ref.T)  # one row of reference values per feature
    dist, diff = np.empty((2, len(queries), len(ref))) if work is None else work[:, : len(queries)]
    dist.fill(0.0)
    for c in range(space.n_numeric):
        np.subtract(queries[:, c, None], cols[c], out=diff)
        dist += np.square(diff, out=diff)
    for c in range(space.n_numeric, ref.shape[1]):
        dist += np.not_equal(queries[:, c, None], cols[c], out=diff)
    return dist


def _votes(neighbor_codes: np.ndarray, n_classes: int) -> np.ndarray:
    """(n, K) majority class of the first k neighbors in column k-1; ties pick the smaller."""
    counts = (neighbor_codes[:, :, None] == np.arange(n_classes)).astype(np.int32)
    return np.cumsum(counts, axis=1, out=counts).argmax(axis=2)


def _nearest_neighbors(
    space: FeatureSpace, ref: np.ndarray, queries: np.ndarray, max_k: int
) -> np.ndarray:
    """(n_queries, max_k) labeled-row indices in nearest-first order.

    The first max_k columns of a stable argsort of each distance row, so
    distance ties keep the lower row index.  ``argpartition`` picks max_k
    candidates, ordered by (distance, index); a row with more than max_k
    distances at or below its max_k-th may have lost a tied lower index, so
    it is re-ranked by a stable argsort.
    """
    out = np.empty((len(queries), max_k), dtype=int)
    block = max(1, _BLOCK_ENTRIES // max(len(ref), 1))
    ref = np.asfortranarray(ref)  # so that every block's ref.T is a view, not a copy
    work = np.empty((2, min(block, len(queries)), len(ref)))  # one buffer for all blocks
    for start in range(0, len(queries), block):
        dist = _distance_sq(space, ref, queries[start : start + block], work)
        cand = np.argpartition(dist, max_k - 1, axis=1)[:, :max_k]
        cand_dist = np.take_along_axis(dist, cand, axis=1)
        order = np.lexsort((cand, cand_dist))
        ranked = np.take_along_axis(cand, order, axis=1)
        kth = cand_dist.max(axis=1)[:, None]
        tied = np.flatnonzero(np.count_nonzero(dist <= kth, axis=1) > max_k)
        if tied.size:
            ranked[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :max_k]
        out[start : start + block] = ranked
    return out


def _predict_codes(
    space: FeatureSpace, ref: np.ndarray, ref_codes: np.ndarray, queries: np.ndarray, k: int
) -> np.ndarray:
    if k > len(ref):
        raise ValueError(f"k={k} exceeds {len(ref)} labeled rows")
    n_classes = int(ref_codes.max()) + 1
    nearest = _nearest_neighbors(space, ref, queries, k)
    return _votes(ref_codes[nearest], n_classes)[:, k - 1]


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
    classes, codes = class_codes(labeled_y)
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
    classes, codes = class_codes(fit.labels)

    feasible = [k for k in sorted(set(int(k) for k in grid)) if 1 <= k <= fit.n_rows]
    if not feasible:
        raise ValueError("every grid value exceeds the fit-set size")
    # neighbor order is independent of k: rank once, vote per prefix
    nearest = _nearest_neighbors(space, ref, queries, max(feasible))
    votes = _votes(codes[nearest], len(classes))[:, np.array(feasible) - 1]
    hits = (classes[votes] == val.labels[:, None]).sum(axis=0)
    return feasible[int(np.argmax(hits))]  # first max = smallest k


def pseudo_label(labeled: Dataset, unlabeled: Dataset, config: KnnConfig) -> np.ndarray:
    """Predicted class tokens for every unlabeled row, in row order."""
    if labeled.names != unlabeled.names or labeled.kinds != unlabeled.kinds:
        raise ValueError("labeled and unlabeled schemas differ")
    if unlabeled.n_rows == 0:
        return np.empty(0, dtype=object)
    space = FeatureSpace.fit(labeled)
    ref = space.encode(labeled)
    queries = space.encode(unlabeled)
    classes, codes = class_codes(labeled.labels)
    return classes[_predict_codes(space, ref, codes, queries, config.k)]
