"""Supervised and unsupervised cut-point discretization.

Entropy-based top-down splitting: at each node the cut with maximal
information gain over all distinct observed values is chosen (partition
``{x < d}`` / ``{x >= d}``), and the split is accepted while the gain
exceeds a coding-cost threshold.  Two acceptance rules are provided:

  - ``mdlp``: gain > log2(N-1)/N + delta/N, with
    delta = log2(3^k - 2) - [k*E(S) - k1*E(S1) - k2*E(S2)];
  - ``sadd``: the same threshold scaled by sigmoid(N / N0), which keeps
    splitting small nodes where the plain rule stops early.  The sigmoid
    factor lies in (0.5, 1), so the scaled threshold never drops below
    half of the plain one.

Unsupervised baselines: equal-width and equal-frequency binning.
Entropies are in bits throughout.

Both supervised rules read one node table per input.  A node is a row range
``[lo, hi)`` of the stably sorted column, and its record holds the best cut
position, the cut value, the gain and the unscaled threshold.  The record
depends only on the column, the class codes and ``(lo, hi)``, not on the
rule, so a walk applies ``gain > theta`` (``mdlp``) or
``gain > sadd_threshold(theta, hi - lo, N0)`` (``sadd``) to stored records with
the same expressions as a fresh recursion, and every rule's cuts stay
bit-identical.  A walk evaluates only the nodes its own rule visits, and a
walk whose nodes are all recorded skips the sort.

A call without a table starts an empty one, so nothing is kept.  The caller
that owns the rows may pass one table per attribute (``build_scheme``'s
``nodes``) to every call on them, so ``sadd`` and ``mdlp`` on the same rows
evaluate each node once.  Only node records are kept (no sorted values or
prefix counts): a few kilobytes per attribute.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import AttributeKind, Dataset, _token_codes, class_codes

METHODS = ("mdlp", "sadd", "eqw", "eqf")
DEFAULT_N0 = 2000
DEFAULT_BINS = 10


def sigmoid(x: float) -> float:
    """1 / (1 + exp(-x)), and 0.0 where exp(-x) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


@dataclass(eq=False)
class ClassCounts:
    """Per-class sample counts for one node of the splitting recursion."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    @classmethod
    def from_labels(cls, labels: Sequence[str], classes: Sequence[str] | None = None) -> "ClassCounts":
        """Count per class of ``classes`` (default: the labels' own); others are not counted."""
        vocab = class_codes(labels)[0] if classes is None else classes
        codes = _token_codes(labels, vocab, unknown=-1)
        return cls(np.bincount(codes[codes >= 0], minlength=len(vocab)))

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def k(self) -> int:
        return int((self.counts > 0).sum())


@dataclass(eq=False)
class CutCandidate:
    """A cut value together with the class counts on each side."""

    value: float
    left: ClassCounts
    right: ClassCounts

    def __post_init__(self) -> None:
        if self.left.n < 1 or self.right.n < 1:
            raise ValueError("both sides of a cut must be non-empty")


def class_entropy(counts: ClassCounts) -> float:
    """Entropy of the class distribution, in bits; 0*log(0) counts as 0."""
    if counts.n < 1:
        raise ValueError("entropy of an empty set is undefined")
    return float(_entropy_rows(counts.counts[None, :])[0])


def information_gain(parent: ClassCounts, cand: CutCandidate) -> float:
    """Entropy reduction of splitting ``parent`` at the candidate cut."""
    if not np.array_equal(parent.counts, cand.left.counts + cand.right.counts):
        raise ValueError("candidate counts inconsistent with parent")
    left = cand.left.counts[None, :]
    return max(float(_cut_gains(parent.counts, left, left.sum(axis=1))[0]), 0.0)


def mdlp_threshold(parent: ClassCounts, cand: CutCandidate) -> float:
    """Minimum gain required to accept a split of ``parent`` at ``cand``."""
    if parent.n < 2:
        raise ValueError("threshold undefined for fewer than 2 samples")
    return _mdlp_threshold(parent.counts, cand.left.counts, cand.right.counts)


def sadd_threshold(theta: float, n: int, n0: int) -> float:
    """Scale a split threshold by sigmoid(n/n0); the factor is in (0.5, 1)."""
    if n < 1 or n0 < 1:
        raise ValueError("n and n0 must be at least 1")
    return sigmoid(n / n0) * theta


def _numeric_column(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """``values`` as float64; an empty or partly missing column is rejected."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty input")
    if np.isnan(values).any():
        raise ValueError("attribute has missing values; impute first")
    return values


# --- vectorized splitting engine -------------------------------------------
#
# Class labels are coded once per scheme and shared by its attributes.
# Values are sorted at most once per call; nodes are index ranges [lo, hi) into
# the sorted order.  A prefix-count matrix makes per-node class counts O(k)
# and keeps the whole recursion near O(n log n) for balanced splits.


def _entropy_rows(counts: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Entropy in bits of each row of class ``counts``; 0*log(0) counts as 0.

    ``rows`` holds the row sums when the caller has them; every row sum
    must be positive.
    """
    if rows is None:
        rows = counts.sum(axis=1)
    p = counts / rows[:, None]
    plogp = np.where(p > 0, p, 1.0)
    np.log2(plogp, out=plogp)
    plogp *= p
    return -plogp.sum(axis=1)


def _cut_gains(parent: np.ndarray, left: np.ndarray, n_left: np.ndarray) -> np.ndarray:
    """Gain of splitting ``parent`` counts into each ``left`` row and the rest.

    ``n_left`` holds the row sums of ``left``; each lies strictly between 0
    and the parent's size, so both sides are non-empty.
    """
    n = int(parent.sum())
    return (
        _entropy_rows(parent[None, :])[0]
        - n_left / n * _entropy_rows(left, n_left)
        - (n - n_left) / n * _entropy_rows(parent - left, n - n_left)
    )


def _prefix_counts(codes: np.ndarray, n_classes: int) -> np.ndarray:
    onehot = np.zeros((len(codes), n_classes), dtype=np.int64)
    onehot[np.arange(len(codes)), codes] = 1
    prefix = np.zeros((len(codes) + 1, n_classes), dtype=np.int64)
    np.cumsum(onehot, axis=0, out=prefix[1:])
    return prefix


def _best_split(
    values: np.ndarray, prefix: np.ndarray, lo: int, hi: int
) -> tuple[int, float] | None:
    """Best cut position in [lo, hi); ties go to the smallest cut value."""
    seg = values[lo:hi]
    positions = np.flatnonzero(seg[1:] != seg[:-1]) + lo + 1
    if positions.size == 0:
        return None
    gains = _cut_gains(prefix[hi] - prefix[lo], prefix[positions] - prefix[lo], positions - lo)
    # first candidate within rounding noise of the max: ties go to smallest d
    best = int(np.argmax(gains >= gains.max() - 1e-12))
    return int(positions[best]), float(max(gains[best], 0.0))


def _mdlp_threshold(parent: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """Coding-cost threshold for splitting class counts ``parent`` into ``left`` + ``right``."""
    n = int(parent.sum())
    k = int((parent > 0).sum())
    delta = math.log2(3**k - 2) - (
        k * _entropy_rows(parent[None, :])[0]
        - int((left > 0).sum()) * _entropy_rows(left[None, :])[0]
        - int((right > 0).sum()) * _entropy_rows(right[None, :])[0]
    )
    return math.log2(n - 1) / n + delta / n


# A node record: (cut position, cut value, gain, unscaled threshold), or None
# when the node has a single distinct value.
_Node = tuple[int, float, float, float]
_NodeTable = dict[tuple[int, int], _Node | None]


def _evaluate_node(
    sorted_values: np.ndarray, prefix: np.ndarray, lo: int, hi: int
) -> _Node | None:
    found = _best_split(sorted_values, prefix, lo, hi)
    if found is None:
        return None
    pos, gain = found
    parent = prefix[hi] - prefix[lo]
    left = prefix[pos] - prefix[lo]
    return pos, float(sorted_values[pos]), gain, _mdlp_threshold(parent, left, parent - left)


def _partition(
    values: np.ndarray, codes: np.ndarray, n0: int | None, table: _NodeTable | None = None
) -> list[float]:
    """Top-down splitting of ``values`` by class ``codes``; ``n0 is None``: plain threshold.

    ``table`` holds the node records of earlier calls on the same values and
    codes, and gains this call's; None starts an empty one.
    """
    values = _numeric_column(values)
    table = {} if table is None else table
    sorted_values = prefix = None

    cuts: list[float] = []
    stack = [(0, len(values))]
    while stack:
        lo, hi = stack.pop()
        if hi - lo <= 1:
            continue
        if (lo, hi) in table:
            node = table[lo, hi]
        else:
            if sorted_values is None:
                order = np.argsort(values, kind="stable")
                sorted_values = values[order]
                prefix = _prefix_counts(codes[order], int(codes.max()) + 1)
            node = table[lo, hi] = _evaluate_node(sorted_values, prefix, lo, hi)
        if node is None:
            continue
        pos, cut, gain, theta = node
        if n0 is not None:
            theta = sadd_threshold(theta, hi - lo, n0)
        if gain > theta:
            cuts.append(cut)
            stack.append((lo, pos))
            stack.append((pos, hi))
    return sorted(cuts)


def best_cut(values: Sequence[float] | np.ndarray, labels: Sequence[str]) -> CutCandidate | None:
    """Highest-gain cut over distinct observed values of a sorted attribute.

    Returns None when fewer than two distinct values exist.  Gain ties break
    toward the smallest cut value.
    """
    values = _numeric_column(values)
    if values.size != len(labels):
        raise ValueError("values and labels must align")
    if np.any(np.diff(values) < 0):
        raise ValueError("values must be sorted ascending")
    codes = class_codes(labels)[1]
    prefix = _prefix_counts(codes, int(codes.max()) + 1)
    found = _best_split(values, prefix, 0, len(values))
    if found is None:
        return None
    pos, _ = found
    return CutCandidate(
        value=float(values[pos]),
        left=ClassCounts(prefix[pos]),
        right=ClassCounts(prefix[len(values)] - prefix[pos]),
    )


def mdlp_partition(values: Sequence[float] | np.ndarray, labels: Sequence[str]) -> list[float]:
    """Cut list from recursive splitting under the plain coding-cost rule."""
    return _partition(values, class_codes(labels)[1], None)


def sadd_partition(
    values: Sequence[float] | np.ndarray, labels: Sequence[str], n0: int = DEFAULT_N0
) -> list[float]:
    """Cut list from recursive splitting under the sigmoid-scaled rule."""
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    return _partition(values, class_codes(labels)[1], n0)


def equal_width(values: Sequence[float] | np.ndarray, bins: int) -> list[float]:
    """bins-1 cuts evenly spaced over [min, max]; empty if the column is constant."""
    if bins < 1:
        raise ValueError("bins must be at least 1")
    values = _numeric_column(values)
    vmin, vmax = float(values.min()), float(values.max())
    if vmin == vmax:
        return []
    cuts = vmin + (vmax - vmin) * np.arange(1, bins) / bins
    return np.unique(cuts).tolist()


def equal_frequency(values: Sequence[float] | np.ndarray, bins: int) -> list[float]:
    """Cuts at the ceil(i*n/bins)-th order statistics, deduplicated.

    Each cut sits at the midpoint between the order statistic and the next
    distinct value, so it is strictly between attainable values.
    """
    if bins < 1:
        raise ValueError("bins must be at least 1")
    values = np.sort(_numeric_column(values))
    distinct = np.unique(values)
    x = values[-(-np.arange(1, bins) * values.size // bins) - 1]  # 0-indexed ceil(i*n/bins)
    nxt = np.searchsorted(distinct, x, side="right")
    keep = nxt < distinct.size
    return np.unique((x[keep] + distinct[nxt[keep]]) / 2.0).tolist()


@dataclass
class DiscretizationScheme:
    """Per-attribute sorted cut lists; categorical attributes carry no cuts."""

    method: str
    params: dict[str, int]
    names: list[str]
    kinds: list[AttributeKind]
    cuts: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.cuts) != len(self.names):
            raise ValueError("one cut list per attribute required")
        self.cuts = [np.asarray(c, dtype=float) for c in self.cuts]
        for name, c in zip(self.names, self.cuts):
            if c.size > 1 and not (np.diff(c) > 0).all():
                raise ValueError(f"cuts for {name!r} are not strictly increasing")

    def n_intervals(self, attr: int) -> int:
        return len(self.cuts[attr]) + 1


def build_scheme(
    data: Dataset,
    method: str,
    *,
    n0: int = DEFAULT_N0,
    bins: int = DEFAULT_BINS,
    nodes: dict[int, _NodeTable] | None = None,
) -> DiscretizationScheme:
    """Run the chosen partitioner on every numeric attribute of ``data``.

    Supervised methods split by ``data.labels``, so pseudo-labels ride on their
    rows.  ``nodes`` maps an attribute index to its node table; pass one dict
    to every call on the same rows to evaluate each node once.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "sadd" and n0 < 1:
        raise ValueError("n0 must be at least 1")
    if method in ("eqw", "eqf") and bins < 1:
        raise ValueError("bins must be at least 1")
    codes = class_codes(data.labels)[1] if method in ("mdlp", "sadd") else None
    cuts: list[np.ndarray] = []
    for j, kind in enumerate(data.kinds):
        if kind is not AttributeKind.NUMERIC:
            cuts.append(np.empty(0))
            continue
        if data.missing[:, j].any():
            raise ValueError(f"attribute {data.names[j]!r} has missing values; impute first")
        col = data.columns[j]
        if method == "eqw":
            cuts.append(np.asarray(equal_width(col, bins)))
        elif method == "eqf":
            cuts.append(np.asarray(equal_frequency(col, bins)))
        else:
            table = None if nodes is None else nodes.setdefault(j, {})
            cuts.append(np.asarray(_partition(col, codes, n0 if method == "sadd" else None, table)))
    params = {"sadd": {"n0": n0}, "eqw": {"bins": bins}, "eqf": {"bins": bins}}.get(method, {})
    return DiscretizationScheme(
        method=method, params=params, names=list(data.names), kinds=list(data.kinds), cuts=cuts
    )


def apply_scheme(scheme: DiscretizationScheme, data: Dataset) -> Dataset:
    """Map numeric values to integer interval indices: index = count of cuts <= x.

    Out-of-range values clamp into the end intervals by the same rule.  The
    result shares the categorical columns, the missing mask and the labels
    with ``data``.
    """
    if scheme.names != data.names or scheme.kinds != data.kinds:
        raise ValueError("scheme does not match the dataset attributes")
    columns: list[np.ndarray] = []
    for j, kind in enumerate(data.kinds):
        if kind is AttributeKind.NUMERIC:
            if data.missing[:, j].any():
                raise ValueError(f"attribute {data.names[j]!r} has missing values; impute first")
            columns.append(np.searchsorted(scheme.cuts[j], data.columns[j], side="right"))
        else:
            columns.append(data.columns[j])
    return replace(data, columns=columns)


def mutual_information(
    interval_indices: Sequence[int] | np.ndarray, labels: Sequence[str] | np.ndarray
) -> float:
    """Empirical mutual information (bits) between an attribute and the class."""
    return _mutual_information(interval_indices, class_codes(labels)[1])


def _mutual_information(interval_indices: Sequence[int] | np.ndarray, yi: np.ndarray) -> float:
    """``mutual_information`` with the labels given as ``class_codes``."""
    x = np.asarray(interval_indices)
    if x.size == 0:
        raise ValueError("empty input")
    if x.size != yi.size:
        raise ValueError("indices and labels must align")
    _, xi = np.unique(x, return_inverse=True)
    n_classes = int(yi.max()) + 1
    counts = np.bincount(xi * n_classes + yi, minlength=(int(xi.max()) + 1) * n_classes)
    joint = counts.reshape(-1, n_classes) / x.size
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    return float((joint[mask] * np.log2(joint[mask] / (px @ py)[mask])).sum())


@dataclass(frozen=True)
class ThresholdCurveRow:
    n: int
    raw: float
    scaled: tuple[float, ...]


def threshold_curve(n_values: Iterable[int], n0_list: Sequence[int]) -> list[ThresholdCurveRow]:
    """Tabulate log2(n-1)/n and its sigmoid-scaled versions for plotting."""
    if any(n0 < 1 for n0 in n0_list):
        raise ValueError("n0 must be at least 1")
    rows = []
    for n in n_values:
        if n < 2:
            raise ValueError("n must be at least 2")
        raw = math.log2(n - 1) / n
        rows.append(
            ThresholdCurveRow(
                n=int(n), raw=raw, scaled=tuple(sadd_threshold(raw, n, n0) for n0 in n0_list)
            )
        )
    return rows


def scheme_to_dict(scheme: DiscretizationScheme) -> dict:
    return {
        "method": scheme.method,
        "params": dict(scheme.params),
        "attributes": [
            {"name": name, "kind": kind.value, "cuts": [float(c) for c in cuts]}
            for name, kind, cuts in zip(scheme.names, scheme.kinds, scheme.cuts)
        ],
    }


def scheme_from_dict(doc: dict) -> DiscretizationScheme:
    attrs = doc["attributes"]
    return DiscretizationScheme(
        method=doc["method"],
        params={k: int(v) for k, v in doc["params"].items()},
        names=[a["name"] for a in attrs],
        kinds=[AttributeKind(a["kind"]) for a in attrs],
        cuts=[np.asarray(a["cuts"], dtype=float) for a in attrs],
    )


def save_scheme(scheme: DiscretizationScheme, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scheme_to_dict(scheme), indent=2, sort_keys=True) + "\n")


def load_scheme(path: str | Path) -> DiscretizationScheme:
    return scheme_from_dict(json.loads(Path(path).read_text()))
