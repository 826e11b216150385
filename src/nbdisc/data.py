"""Tabular datasets with mixed numeric/categorical attributes.

Conventions:
  - CSV files carry a header row; the class column is the last column.
  - Missing cells are marked with a single token (default ``"?"``).
  - Attribute kinds are inferred (a column is numeric iff every non-missing
    cell parses as a finite real) unless a schema sidecar overrides them.
  - Imputation statistics come from a reference partition (normally the
    training fold) and are applied to both partitions.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

MISSING_TOKEN = "?"


class AttributeKind(Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


def _token_codes(
    tokens: Sequence[str] | np.ndarray, vocab: Sequence[str], unknown: int | None = None
) -> np.ndarray:
    """Index of each token in ``vocab``; one outside it gets ``unknown``, or KeyError if None."""
    tokens = tokens.tolist() if isinstance(tokens, np.ndarray) else tokens
    index = {tok: i for i, tok in enumerate(vocab)}
    args = (index.__getitem__, tokens) if unknown is None else (index.get, tokens, repeat(unknown))
    return np.fromiter(map(*args), dtype=np.intp, count=len(tokens))


def class_codes(labels: Sequence[str] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct labels (object array) and each row's index into them.

    Equal to ``np.unique(np.asarray(labels, dtype=object), return_inverse=True)``
    but hashes each row instead of sorting all rows with Python comparisons.
    A non-negative integer array (codes) is counted instead; its labels are intp.
    """
    if isinstance(labels, np.ndarray) and labels.dtype.kind in "iu":
        seen = np.bincount(labels) > 0
        return np.flatnonzero(seen), (np.cumsum(seen) - 1)[labels]
    tokens = np.asarray(labels, dtype=object).tolist()
    classes = sorted(set(tokens))
    return np.array(classes, dtype=object), _token_codes(tokens, classes)


def _recoded(codes: Sequence[np.ndarray], vocabs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Codes into per-part ``vocabs``, concatenated as codes into their sorted union."""
    union = np.unique(np.concatenate(vocabs))  # object arrays sort in Python str order
    return np.concatenate([_token_codes(v, union)[c] for c, v in zip(codes, vocabs)]), union


@dataclass(init=False)
class Dataset:
    """Columnar table: attribute columns plus one class label per row.

    Numeric columns are float64 (NaN in missing cells), or interval indices
    after ``apply_scheme``.  Labels and categorical cells are stored only as
    intp codes into ``classes`` and ``vocab[j]``: distinct tokens sorted in
    Python ``str`` order, so codes sort as their tokens do; a subset keeps
    its parent's.  ``missing`` is a (rows, attrs) bool mask.  Attribute names
    are unique: saved models key per-attribute values by name.  Arrays are
    read-only, so transforms share the ones they do not change; the lists
    and the ``vocab`` dict are copied, so each dataset owns its own.
    """

    names: list[str]
    kinds: list[AttributeKind]
    columns: list[np.ndarray]
    missing: np.ndarray
    label_codes: np.ndarray
    classes: np.ndarray
    vocab: dict[int, np.ndarray]

    def __init__(self, names, kinds, columns, missing, labels=None, *,
                 label_codes=None, classes=None, vocab=None) -> None:
        """Codes the tokens of ``labels`` and categorical ``columns``, unless given as codes."""
        n_attrs = len(names)
        if not (len(kinds) == len(columns) == n_attrs):
            raise ValueError("schema, kinds and columns must align")
        if len(set(names)) != n_attrs:
            repeated = sorted(name for name, c in Counter(names).items() if c > 1)
            raise ValueError(f"duplicate attribute names: {repeated}")
        classes, label_codes = (classes, label_codes) if labels is None else class_codes(labels)
        if vocab is None:
            columns, vocab = list(columns), {}
            for j in (j for j, kind in enumerate(kinds) if kind is AttributeKind.CATEGORICAL):
                vocab[j], columns[j] = class_codes(columns[j])
        self.names, self.kinds, self.columns, self.missing = list(names), list(kinds), list(columns), missing
        self.label_codes, self.classes, self.vocab = label_codes, classes, dict(vocab)
        for name, col in zip(names, columns):
            if len(col) != self.n_rows:
                raise ValueError(f"column {name!r} has {len(col)} rows, expected {self.n_rows}")
        if missing.shape != (self.n_rows, n_attrs):
            raise ValueError("missing mask shape mismatch")
        for array in (*columns, missing, label_codes, classes, *vocab.values()):
            array.flags.writeable = False

    @property
    def n_rows(self) -> int:
        return len(self.label_codes)

    @property
    def n_attrs(self) -> int:
        return len(self.names)

    @property
    def labels(self) -> np.ndarray:
        return self.classes[self.label_codes]

    def numeric_attrs(self) -> list[int]:
        return [j for j, k in enumerate(self.kinds) if k is AttributeKind.NUMERIC]

    def categorical_attrs(self) -> list[int]:
        return [j for j, k in enumerate(self.kinds) if k is AttributeKind.CATEGORICAL]

    def subset(self, rows: Sequence[int] | np.ndarray) -> "Dataset":
        rows = np.asarray(rows, dtype=int)
        return replace(
            self,
            columns=[col[rows] for col in self.columns],
            missing=self.missing[rows],
            label_codes=self.label_codes[rows],
        )


def concat_rows(parts: Sequence[Dataset]) -> Dataset:
    """Stack datasets sharing one schema into a single row-wise table."""
    if not parts:
        raise ValueError("nothing to concatenate")
    first = parts[0]
    for other in parts[1:]:
        if other.names != first.names or other.kinds != first.kinds:
            raise ValueError("schema mismatch between datasets")
    merged = {j: _recoded([p.columns[j] for p in parts], [p.vocab[j] for p in parts]) for j in first.vocab}
    label_codes, classes = _recoded([p.label_codes for p in parts], [p.classes for p in parts])
    return replace(
        first,
        columns=[merged[j][0] if j in merged else np.concatenate([p.columns[j] for p in parts])
                 for j in range(first.n_attrs)],
        missing=np.concatenate([p.missing for p in parts], axis=0),
        label_codes=label_codes, classes=classes, vocab={j: v for j, (_, v) in merged.items()},
    )


def categorical_vocab(datasets: Sequence[Dataset]) -> dict[int, list[str]]:
    """Sorted tokens in use per categorical attribute, pooled over inputs."""
    return {
        j: sorted(set().union(*(ds.vocab[j][class_codes(ds.columns[j])[0]].tolist() for ds in datasets)))
        for j in datasets[0].categorical_attrs()
    }


def load_schema(path: str | Path) -> dict[str, AttributeKind]:
    """Read a sidecar schema file with one ``name,kind`` line per column."""
    hints: dict[str, AttributeKind] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        name, _, kind = line.partition(",")
        kind = kind.strip().lower()
        if kind not in ("numeric", "categorical"):
            raise ValueError(f"{path}:{lineno}: unknown kind {kind!r}")
        hints[name.strip()] = AttributeKind(kind)
    return hints


def _parse_column(cells: Sequence[str]) -> np.ndarray | None:
    """The cells as float64, or None unless every one parses as a finite real."""
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def load_csv(
    path: str | Path,
    schema_hint: Mapping[str, AttributeKind] | None = None,
    missing_token: str = MISSING_TOKEN,
) -> Dataset:
    """Load a headered CSV whose last column holds the class labels, all records at once."""
    with open(path, newline="") as handle:
        header, *records = list(csv.reader(handle)) or [None]
    return _parse_records(path, header, records, 2, schema_hint, missing_token, labeled=True)


def _parse_records(path: str | Path, header: list[str] | None, records: list[list[str]],
                   first_row: int, schema_hint: Mapping[str, AttributeKind] | None,
                   missing_token: str, labeled: bool) -> Dataset:
    """Parse ``records`` (file rows from ``first_row``).

    ``labeled`` codes the class column and rejects a missing label; otherwise
    the column is not read, and every row gets the one class ``missing_token``.
    """
    if header is None:
        raise ValueError(f"{path}: empty file")
    if len(header) < 2:
        raise ValueError(f"{path}: need at least one attribute column plus the class column")
    if not records:
        raise ValueError(f"{path}: no data rows")
    for i, record in enumerate(records, start=first_row):
        if len(record) != len(header):
            raise ValueError(f"{path}: row {i} has {len(record)} cells, expected {len(header)}")

    names = header[:-1]
    if labeled:
        classes, label_codes = class_codes(list(map(itemgetter(-1), records)))
        if (classes == missing_token).any():
            raise ValueError(f"{path}: missing class label")
    else:
        classes, label_codes = np.array([missing_token], dtype=object), np.zeros(len(records), np.intp)

    columns: list[np.ndarray] = []
    kinds: list[AttributeKind] = []
    missing = np.zeros((len(records), len(names)), dtype=bool)
    for j, name in enumerate(names):
        # one column at a time: transposing all at once (zip) cost ~2% more peak RSS
        cells = np.fromiter(map(itemgetter(j), records), dtype=object, count=len(records))
        miss = missing[:, j] = cells == missing_token
        kind = schema_hint.get(name) if schema_hint else None
        # present cells are parsed in bulk, and cell by cell only to name a bad row
        values = np.full(len(cells), np.nan)
        present = ~miss
        parsed = kind is not AttributeKind.CATEGORICAL and present.any()
        if parsed:
            text = cells[present].tolist()
            numbers = _parse_column(text)
            parsed = numbers is not None
            if parsed:
                values[present] = numbers
            elif kind is AttributeKind.NUMERIC:
                bad = next(i for i, cell in enumerate(text) if _parse_column([cell]) is None)
                raise ValueError(
                    f"{path}: column {name!r}, row {np.flatnonzero(present)[bad] + first_row}: "
                    f"unparseable numeric cell {text[bad]!r}"
                )
        if not isinstance(kind, AttributeKind):
            kind = AttributeKind.NUMERIC if parsed else AttributeKind.CATEGORICAL
        columns.append(values if kind is AttributeKind.NUMERIC else cells)
        kinds.append(kind)

    return Dataset(names, kinds, columns, missing, label_codes=label_codes, classes=classes)


def write_csv(data: Dataset, path: str | Path, missing_token: str = MISSING_TOKEN) -> None:
    """Write ``data`` as CSV (numbers round-trip); a present cell written as ``missing_token`` raises."""
    names = data.names + ["class"]
    text = [
        [str(v) for v in data.vocab[j][col]] if j in data.vocab else [repr(float(v)) for v in col]
        for j, col in enumerate(data.columns)
    ] + [[str(v) for v in data.labels]]
    missing = np.column_stack([data.missing, np.zeros(data.n_rows, dtype=bool)])
    for j, col in enumerate(text):
        if (rows := np.flatnonzero((np.array(col, dtype=object) == missing_token) & ~missing[:, j])).size:
            raise ValueError(f"{path}: column {names[j]!r}, row {rows[0] + 2}: "
                             f"present cell equals the missing token {missing_token!r}")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for record, miss in zip(zip(*text), missing):
            writer.writerow([missing_token if m else cell for cell, m in zip(record, miss)])


def imputation_values(reference: Dataset) -> list[float | str]:
    """Per-column fill values: the column mean (numeric) or mode (categorical).

    Statistics use the reference's present cells only; mode ties break toward
    the smallest code, which is the lexicographically smallest category.
    """
    values: list[float | str] = []
    for j, kind in enumerate(reference.kinds):
        present = reference.columns[j][~reference.missing[:, j]]
        if present.size == 0:
            raise ValueError(f"column {reference.names[j]!r} entirely missing in reference")
        if kind is AttributeKind.NUMERIC:
            values.append(float(present.mean()))
        else:
            values.append(reference.vocab[j][np.bincount(present).argmax()])  # first max: smallest code
    return values


def fill_missing(data: Dataset, values: Sequence[float | str]) -> Dataset:
    """``data`` with each column's missing cells set to its fill value."""
    if len(values) != data.n_attrs:
        raise ValueError(f"{len(values)} fill values for {data.n_attrs} attributes")
    columns, fills, vocab = list(data.columns), list(values), dict(data.vocab)
    for j, tokens in data.vocab.items():  # the fill token joins the vocabulary
        coded, vocab[j] = _recoded([columns[j], [0]], [tokens, np.array([fills[j]], dtype=object)])
        columns[j], fills[j] = coded[:-1], coded[-1]
    columns = [np.where(miss, fill, col) for miss, fill, col in zip(data.missing.T, fills, columns)]
    return replace(data, columns=columns, missing=np.zeros_like(data.missing), vocab=vocab)


def impute_missing(data: Dataset, reference: Dataset) -> Dataset:
    """Fill missing cells with the reference's ``imputation_values``.

    The reference is typically the training fold, so test rows never leak
    their own statistics.
    """
    if reference.names != data.names or reference.kinds != data.kinds:
        raise ValueError("reference schema mismatch")
    return fill_missing(data, imputation_values(reference))


def _shuffled_by_class(codes: np.ndarray, n_classes: int, seed: int) -> list[np.ndarray]:
    """Each class's rows in code order, shuffled by one generator; a class with no rows draws nothing."""
    rng = np.random.default_rng(seed)
    return [rng.permutation(np.flatnonzero(codes == c)) for c in range(n_classes)]


@dataclass(frozen=True)
class FoldPlan:
    """Row-to-fold assignments for stratified cross-validation."""

    assignments: np.ndarray

    def test_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def stratified_folds(data: Dataset, folds: int, seed: int) -> FoldPlan:
    """Assign rows to folds so per-class counts differ by at most one.

    Rows of each class are shuffled with the seed and dealt round-robin,
    which is simple and deterministic.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > data.n_rows:
        raise ValueError(f"{folds} folds exceed {data.n_rows} rows")
    assignments = np.full(data.n_rows, -1, dtype=int)
    for rows in _shuffled_by_class(data.label_codes, len(data.classes), seed):
        assignments[rows] = np.arange(len(rows)) % folds
    return FoldPlan(assignments)


@dataclass(frozen=True)
class LabeledSplit:
    """Partition of training rows into labeled and unlabeled index sets."""

    labeled_rows: np.ndarray
    unlabeled_rows: np.ndarray


def split_labeled_fraction(
    class_labels: Sequence[str] | np.ndarray, fraction: float, seed: int
) -> LabeledSplit:
    """Pick ``round(fraction * n)`` of rows ``0..n-1`` to label, stratified by class.

    Per-class quotas use the largest-remainder method so the labeled total
    is exact and class proportions are preserved as closely as possible.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = len(class_labels)
    total = int(math.floor(fraction * n + 0.5))

    classes, codes = class_codes(class_labels)
    raw = total * np.bincount(codes, minlength=len(classes)) / n
    quota = np.floor(raw).astype(int)
    # the largest remainders get one more; a stable sort gives ties to the smaller class
    quota[np.argsort(quota - raw, kind="stable")[: total - quota.sum()]] += 1

    perms = list(zip(_shuffled_by_class(codes, len(classes), seed), quota))
    labeled = np.sort(np.concatenate([perm[:q] for perm, q in perms]))
    unlabeled = np.sort(np.concatenate([perm[q:] for perm, q in perms]))
    return LabeledSplit(labeled_rows=labeled, unlabeled_rows=unlabeled)
