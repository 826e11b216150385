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

The cut search is class-major: it scores both sides of all of a node's
candidate cuts in one stacked pass over float64 class counts, with one
divide, one log2 and one multiply.  Its class sums add in numpy's order for a
contiguous class axis (``_row_sum``), so no gain depends on the array layout.

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
    return float(_entropy_rows(counts.counts[:, None] / counts.n)[0])


def information_gain(parent: ClassCounts, cand: CutCandidate) -> float:
    """Entropy reduction of splitting ``parent`` at the candidate cut."""
    if not np.array_equal(parent.counts, cand.left.counts + cand.right.counts):
        raise ValueError("candidate counts inconsistent with parent")
    left = cand.left.counts
    return max(float(_cut_gains(parent.counts, left[:, None], left.sum(keepdims=True))[0]), 0.0)


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
# the sorted order.  Prefix counts are class-major float64, (classes, n + 1),
# so a node's class counts are O(k), each class is one contiguous row, and the
# recursion stays near O(n log n) for balanced splits.  A node gathers counts
# at its distinct-value boundaries only and scores both sides of every cut in
# one stacked (2, classes, cuts) pass; its class sums follow ``_row_sum``.


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, bit for bit numpy's sum over a contiguous last axis.

    numpy adds under 8 terms left to right from +0.0 (here a loop over the
    columns, about 10x faster) and 8 or more pairwise (here on a contiguous copy).
    """
    if a.shape[-1] >= 8:
        return np.ascontiguousarray(a).sum(axis=-1)
    s = np.zeros(a.shape[:-1])
    for c in range(a.shape[-1]):
        s += a[..., c]
    return s


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """Entropy in bits of each column of class-major shares ``p``; 0*log(0) counts as 0."""
    plogp = np.log2(p, out=np.zeros(p.shape), where=p > 0)
    plogp *= p
    s = _row_sum(plogp.swapaxes(-2, -1))
    return np.negative(s, out=s)


def _cut_gains(parent: np.ndarray, left: np.ndarray, n_left: np.ndarray) -> np.ndarray:
    """Gain of splitting ``parent`` counts into each column of class-major ``left`` and the rest.

    ``n_left`` holds the column sums of ``left``; each lies strictly between 0
    and the parent's size, so both sides are non-empty.
    """
    n = parent.sum()
    sizes = np.array([n_left, n - n_left], dtype=float)
    p = np.empty((2, *left.shape))  # the class shares of both sides of every cut
    np.divide(left, sizes[0], out=p[0])
    np.subtract(parent[:, None], left, out=p[1])
    p[1] /= sizes[1]
    sizes /= n  # now each side's weight
    sizes *= _entropy_rows(p)
    return _entropy_rows(parent[:, None] / n)[0] - sizes[0] - sizes[1]


def _prefix_counts(codes: np.ndarray, n_classes: int) -> np.ndarray:
    """Column i counts each class in ``codes[:i]``; float64, exact below 2^53 rows."""
    prefix = np.zeros((n_classes, len(codes) + 1))
    np.cumsum(codes == np.arange(n_classes)[:, None], axis=1, out=prefix[:, 1:])
    return prefix


def _best_split(
    values: np.ndarray, prefix: np.ndarray, lo: int, hi: int
) -> tuple[int, float] | None:
    """Best cut position in [lo, hi); ties go to the smallest cut value."""
    seg = values[lo:hi]
    positions = np.flatnonzero(seg[1:] != seg[:-1]) + lo + 1
    if positions.size == 0:
        return None
    base = prefix[:, lo]
    left = np.take(prefix, positions, axis=1)
    left -= base[:, None]
    gains = _cut_gains(prefix[:, hi] - base, left, positions - lo)
    # first candidate within rounding noise of the max: ties go to smallest d
    best = int(np.argmax(gains >= gains.max() - 1e-12))
    return int(positions[best]), float(max(gains[best], 0.0))


def _mdlp_threshold(parent: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """Coding-cost threshold for splitting class counts ``parent`` into ``left`` + ``right``."""
    n = int(parent.sum())
    k = int((parent > 0).sum())
    sides = np.stack([parent, left, right], axis=1)
    h = _entropy_rows(sides / sides.sum(axis=0))
    delta = math.log2(3**k - 2) - (
        k * h[0] - int((left > 0).sum()) * h[1] - int((right > 0).sum()) * h[2]
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
    parent = prefix[:, hi] - prefix[:, lo]
    left = prefix[:, pos] - prefix[:, lo]
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
        left=ClassCounts(prefix[:, pos]),
        right=ClassCounts(prefix[:, -1] - prefix[:, pos]),
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

    Supervised methods split by the class codes, so pseudo-labels ride on their
    rows.  ``nodes`` maps an attribute index to its node table; pass one dict
    to every call on the same rows to evaluate each node once.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "sadd" and n0 < 1:
        raise ValueError("n0 must be at least 1")
    if method in ("eqw", "eqf") and bins < 1:
        raise ValueError("bins must be at least 1")
    codes = class_codes(data.label_codes)[1] if method in ("mdlp", "sadd") else None
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
