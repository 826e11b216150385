"""k-nearest-neighbor pseudo-labeling of unlabeled rows.

Distances are Euclidean over z-scored numeric features (statistics from the
labeled data) plus a 0/1 mismatch term per categorical feature.  Neighbors
are found by screen and refine: one float32 matrix product per query block
approximates every distance, and only the closest candidates get the exact
feature-by-feature sum, which ranks them.  A row whose candidates cannot be
shown, within a rounding bound, to hold its true neighbors is re-ranked with
every labeled row as a candidate.  So a row's neighbors depend only on that
row and the labeled rows, never on the pool size or the block it is ranked in.
Tie rules are fixed for reproducibility: distance ties prefer the lower
labeled row index, vote ties prefer the smallest class index (classes sorted
by token), and accuracy ties in the k search prefer the smallest k.  The
neighbor count k is tuned on a held-out ninth of the labeled data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import AttributeKind, Dataset, _token_codes, class_codes, stratified_folds

DEFAULT_K_GRID: tuple[int, ...] = tuple(range(1, 32, 2))
_BLOCK_ENTRIES = 1 << 18  # screen keys per ranking block: a cache-sized (n_queries, n_ref) slab
_SCREEN_PAD = 8  # screened candidates kept beyond max_k, so near-ties stay certain


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
    it contributes nothing.  Categorical columns become integer codes into
    ``vocab``, the labeled data's ``Dataset.vocab[j]``; a column adds 1 to a
    distance when the codes differ.  A token that no labeled row holds differs
    from every labeled code: by its own code if ``vocab`` lists it, else -1.
    """

    names: tuple[str, ...]
    kinds: tuple[AttributeKind, ...]
    numeric_idx: tuple[int, ...]
    categorical_idx: tuple[int, ...]
    means: np.ndarray
    scales: np.ndarray
    vocab: tuple[np.ndarray, ...]

    @classmethod
    def fit(cls, labeled: Dataset) -> "FeatureSpace":
        if labeled.n_rows == 0:
            raise ValueError("no labeled rows")
        if labeled.missing.any():
            raise ValueError("labeled data has missing values; impute first")
        num = tuple(labeled.numeric_attrs())
        cat = tuple(labeled.categorical_attrs())
        means = np.array([labeled.columns[j].mean() for j in num], dtype=float)
        scales = np.array([labeled.columns[j].std() for j in num], dtype=float)
        return cls(
            names=tuple(labeled.names),
            kinds=tuple(labeled.kinds),
            numeric_idx=num,
            categorical_idx=cat,
            means=means,
            scales=scales,
            vocab=tuple(labeled.vocab[j] for j in cat),
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
            parts.append(_token_codes(data.vocab[j], self.vocab[pos], -1)[data.columns[j]].astype(float))
        if not parts:
            return np.zeros((data.n_rows, 0))
        return np.column_stack(parts)

    @property
    def n_numeric(self) -> int:
        return len(self.numeric_idx)


def _distance_sq(space: FeatureSpace, ref: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(n_queries, n_ref) squared distances under the mixed metric.

    Accumulated feature by feature in column order, so a distance depends
    only on the two rows: exact ties (duplicate rows, symmetric layouts)
    stay exact at every problem size and the index tie rule is meaningful.
    ``ref`` may also be a (n_ref, n_queries, width) stack of rows per query:
    then entry (i, j) is the distance of query i to row ``ref[j, i]``.
    """
    cols = np.ascontiguousarray(ref.T)  # reference values, one feature at a time
    dist, diff = np.zeros((2, len(queries), len(ref)))
    for c in range(space.n_numeric):
        np.subtract(queries[:, c, None], cols[c], out=diff)
        dist += np.square(diff, out=diff)
    for c in range(space.n_numeric, ref.shape[-1]):
        dist += np.not_equal(queries[:, c, None], cols[c], out=diff)
    return dist


def _votes(neighbor_codes: np.ndarray, n_classes: int) -> np.ndarray:
    """(n, K) majority class of the first k neighbors in column k-1; ties pick the smaller.

    One running (n, classes) count gains a neighbor column at a time; argmax
    takes the first of equal counts.
    """
    n, n_cols = neighbor_codes.shape
    counts = np.zeros((n, n_classes), dtype=np.int32)
    out = np.empty((n, n_cols), dtype=np.intp)
    rows = np.arange(n)
    for j in range(n_cols):
        counts[rows, neighbor_codes[:, j]] += 1
        out[:, j] = counts.argmax(axis=1)
    return out


def _screen_vectors(
    space: FeatureSpace, ref: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(w + 2, n_ref) and (n_queries, w + 2) screening factors.

    Vectors ``v`` of w columns hold the numeric columns as encoded, then per
    categorical column a one-hot block of the codes met in ``ref`` or
    ``queries`` scaled by 1/sqrt(2), so that |v_q - v_r|^2 is, in exact
    arithmetic, the mixed distance.  A query's factor is (-2 v_q, |v_q|^2, 1)
    and a reference row's is (v_r, 1, |v_r|^2): their product is that
    distance expanded, so one GEMM screens a block.
    """
    rows = np.concatenate([ref, queries])
    n_num = space.n_numeric
    codes = [np.unique(col, return_inverse=True)[1] for col in rows[:, n_num:].T]
    starts = np.cumsum([n_num] + [int(c.max()) + 1 for c in codes])  # one-hot block offsets
    w = int(starts[-1])
    factor = np.zeros((len(rows), w + 2))  # (v, |v|^2, 1) per row
    factor[:, :n_num] = rows[:, :n_num]
    for c, start in zip(codes, starts):
        factor[np.arange(len(rows)), start + c] = np.sqrt(0.5)
    factor[:, w] = np.einsum("ij,ij->i", factor[:, :w], factor[:, :w])
    factor[:, w + 1] = 1.0
    n_ref = len(ref)
    ref_factor = np.ascontiguousarray(factor[:n_ref, [*range(w), w + 1, w]].T)
    query_factor = factor[n_ref:]
    query_factor[:, :w] *= -2.0
    return ref_factor, query_factor


def _rank(
    space: FeatureSpace, ref: np.ndarray, queries: np.ndarray, cand: np.ndarray, max_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each query's max_k nearest of its candidate rows ``cand`` and the max_k-th distance.

    ``cand`` holds (n_queries, m) row indices of ``ref``; they are ordered by
    (exact distance, row index), the rule of a stable argsort of full rows.
    """
    # (m, n_queries, width) with a contiguous transpose, read column by column
    exact = _distance_sq(space, ref.T[:, cand].T, queries)
    order = np.lexsort((cand, exact))[:, :max_k]
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(exact, order[:, -1:], axis=1)[:, 0]


def _nearest_neighbors(
    space: FeatureSpace, ref: np.ndarray, queries: np.ndarray, max_k: int
) -> np.ndarray:
    """(n_queries, max_k) labeled-row indices in nearest-first order.

    Ordered by (exact distance, index), as a stable argsort of each exact
    distance row would order them.  Per block of queries, one float32 GEMM
    of screening vectors (``_screen_vectors``) gives every distance up to
    rounding.  Each value's float bits, low bits replaced by its row index,
    are an int32 key, which for a finite non-negative value orders like it;
    one in-place ``partition`` keeps the ``kk`` smallest keys, whose index
    fields are the candidates for ``_rank``.  The ranking is certain when no
    other row can come within the max_k-th exact distance: when the kk-th
    key, index field cleared, minus the rounding slack is a number that
    still exceeds it, or when every labeled row is a candidate (at most
    ``max_k + 8`` rows).  An uncertain row is re-ranked with every row.
    """
    n_ref, width = ref.shape
    out = np.empty((len(queries), max_k), dtype=int)
    block = max(1, _BLOCK_ENTRIES // max(n_ref, 1))
    kk = min(n_ref, max_k + _SCREEN_PAD)
    low = (1 << max(n_ref - 1, 1).bit_length()) - 1  # a key's index field
    index = np.arange(n_ref, dtype=np.int32)
    ref = np.asfortranarray(ref)  # so that every block's ref.T is a view, not a copy
    ref_factor, query_factor = _screen_vectors(space, ref, queries)
    # Slack, from the dot-product bound |fl(x.y) - x.y| <= gamma_n |x|.|y|
    # (gamma_n = n u / (1 - n u), any summation order, with or without FMA).
    # With w screening columns, N = |v_q|^2 + |v_r|^2 and D the mixed
    # distance, the factors' |x|.|y| is at most 2N, and in float32 (u = 2**-24):
    # - rounding the float64 factors to float32 costs <= 4u N;
    # - the GEMM is off by <= 2 gamma_{w+2} N;
    # - the float64 parts (norms, 1/sqrt(2), the exact column-order sum, off
    #   by <= gamma_{width+2} D) are negligible, at a 2**-29 times smaller u.
    # Screen and exact value differ by <= 2 (w + 4) u N to first order.  The
    # slack is at least 8 times that, with N <= |v_q|^2 + max |v_r|^2, which
    # covers higher orders and rounding the slack and subtracting it.  For
    # 2**-100 <= N <= 2**100 no float32 value overflows and underflow adds at
    # most about 2**-25 u N per product; elsewhere (NaN too) the slack is NaN,
    # so no bound is certain.  The bound truncates (index field cleared,
    # never above a non-negative value), so it takes none.
    w = ref_factor.shape[0] - 2
    norm = query_factor[:, -2] + ref_factor[-1].max()
    norm[(norm < 2.0**-100) | (norm > 2.0**100)] = np.nan  # outside the bound's range
    slack = 16.0 * (w + width + 6) * 2.0**-24 * norm
    with np.errstate(over="ignore", invalid="ignore"):  # out-of-range rows overflow
        ref_factor, query_factor = ref_factor.astype(np.float32), query_factor.astype(np.float32)
    screen = np.empty((min(block, len(queries)), n_ref), dtype=np.float32)
    for start in range(0, len(queries), block):
        rows = slice(start, min(start + block, len(queries)))
        # Negative values (rounding near a duplicate row) and sign-set NaN key first,
        # other NaN last (where numpy sorts put NaN); a negative kk-th value is unsure.
        with np.errstate(over="ignore", invalid="ignore"):
            keys = np.matmul(query_factor[rows], ref_factor, out=screen[: rows.stop - start]).view(np.int32)
        keys &= ~low
        keys |= index
        keys.partition(kk - 1, axis=1)
        out[rows], kth = _rank(space, ref, queries[rows], keys[:, :kk] & low, max_k)
        bound = (keys[:, kk - 1] & ~low).view(np.float32) - slack[rows] if kk < n_ref else np.inf
        unsure = start + np.flatnonzero(~(bound > kth))
        if unsure.size:
            every = np.broadcast_to(index, (unsure.size, n_ref))
            out[unsure] = _rank(space, ref, queries[unsure], every, max_k)[0]
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
    fit set are skipped.  Fewer than 9 labeled rows raise ``ValueError``,
    which a pipeline reports as a ``[pseudo-label]`` error.
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

    feasible = [k for k in sorted(set(int(k) for k in grid)) if 1 <= k <= fit.n_rows]
    if not feasible:
        raise ValueError("every grid value exceeds the fit-set size")
    # neighbor order is independent of k: rank once, vote per prefix
    nearest = _nearest_neighbors(space, ref, queries, max(feasible))
    votes = _votes(fit.label_codes[nearest], len(fit.classes))[:, np.array(feasible) - 1]
    hits = (votes == val.label_codes[:, None]).sum(axis=0)
    return feasible[int(np.argmax(hits))]  # first max = smallest k


def pseudo_label(labeled: Dataset, unlabeled: Dataset, config: KnnConfig) -> np.ndarray:
    """Predicted class of every unlabeled row, in row order, as a code into ``labeled.classes``."""
    if labeled.names != unlabeled.names or labeled.kinds != unlabeled.kinds:
        raise ValueError("labeled and unlabeled schemas differ")
    space = FeatureSpace.fit(labeled)
    ref = space.encode(labeled)
    queries = space.encode(unlabeled)
    return _predict_codes(space, ref, labeled.label_codes, queries, config.k)
