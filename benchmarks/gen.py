"""Seeded synthetic CSVs for the benchmark workloads.

The class structure of a dataset (class priors, per-class numeric means,
preferred categorical levels) is a fixed function of its shape, so every
seed draws rows from the same distribution and accuracy barely moves between
seeds; the seed only picks the rows.  Numeric cells are written with six
significant digits, attribute cells are replaced by ``?`` with probability
``missing``, and the class column is last.  The same arguments always give
the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LEVELS = 5  # categories per categorical attribute


@dataclass(frozen=True)
class Shape:
    """What a generated table looks like, apart from the rows drawn."""

    numeric: int
    categorical: int
    classes: int
    missing: float  # probability that an attribute cell is "?"
    separation: float  # distance between class means, in noise units

    def header(self) -> list[str]:
        names = [f"x{j}" for j in range(self.numeric)]
        names += [f"cat{j}" for j in range(self.categorical)]
        return names + ["class"]


def _class_means(shape: Shape) -> np.ndarray:
    """(classes, numeric) means on a fixed trigonometric layout."""
    c = np.arange(shape.classes)[:, None]
    j = np.arange(shape.numeric)[None, :]
    return shape.separation * np.cos(2 * math.pi * c * (j + 1) / shape.classes + 0.7 * j)


def _class_priors(shape: Shape) -> np.ndarray:
    weights = 1.0 / (1.0 + 0.15 * np.arange(shape.classes))  # mild imbalance
    return weights / weights.sum()


def generate(shape: Shape, rows: int, seed: int, stream: int = 0) -> list[list[str]]:
    """Header plus ``rows`` records as CSV cells; ``stream`` splits one seed
    into independent draws (a train file and a predict file, say)."""
    rng = np.random.default_rng([seed, stream])
    labels = rng.choice(shape.classes, size=rows, p=_class_priors(shape))
    means = _class_means(shape)
    noise = rng.standard_normal((rows, shape.numeric))
    numeric = means[labels] + noise
    # per-column affine maps and one skewed column keep columns unalike
    offset = 10.0 * np.arange(shape.numeric)
    scale = 1.0 + np.arange(shape.numeric) % 3
    numeric = offset + scale * numeric
    if shape.numeric:
        numeric[:, 0] = np.exp(numeric[:, 0] / 2.0)

    prefer = min(0.9, 0.5 * shape.separation)
    picks = rng.random((rows, shape.categorical)) < prefer
    uniform = rng.integers(LEVELS, size=(rows, shape.categorical))
    preferred = (labels[:, None] + np.arange(shape.categorical)[None, :]) % LEVELS
    categorical = np.where(picks, preferred, uniform)
    holes = rng.random((rows, shape.numeric + shape.categorical)) < shape.missing

    out = [shape.header()]
    for i in range(rows):
        record = [f"{v:.6g}" for v in numeric[i].tolist()]
        record += [f"v{v}" for v in categorical[i].tolist()]
        for j in np.flatnonzero(holes[i]).tolist():
            record[j] = "?"
        record.append(f"c{labels[i]}")
        out.append(record)
    return out


def write(path: str | Path, records: list[list[str]]) -> None:
    """Write records as CSV with "\\n" line ends."""
    Path(path).write_bytes(("\n".join(",".join(r) for r in records) + "\n").encode())
