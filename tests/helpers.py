"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

import nbdisc.discretize as discretize_module
from nbdisc.data import AttributeKind, Dataset
from nbdisc.weighted_nb import WeightedParams, fit_nb, gradient, objective


GEN_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "gen.py"


def load_bench_gen():
    """``benchmarks/gen.py``, loaded by path: the benchmark's seeded CSV generator."""
    spec = importlib.util.spec_from_file_location("nbdisc_bench_gen", GEN_PATH)
    if spec.name not in sys.modules:
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # dataclasses look their module up in sys.modules
    return sys.modules[spec.name]


def make_dataset(columns, labels, kinds=None, missing=None):
    """Build a Dataset from plain lists.

    ``columns`` maps name -> list of cell values; kind is inferred from the
    first value unless ``kinds`` (name -> AttributeKind) overrides it.
    ``missing`` is an optional list of (row, attr) pairs.
    """
    names = list(columns)
    resolved = []
    arrays = []
    for name in names:
        cells = columns[name]
        if kinds and name in kinds:
            kind = kinds[name]
        else:
            kind = (
                AttributeKind.NUMERIC
                if isinstance(cells[0], (int, float))
                else AttributeKind.CATEGORICAL
            )
        resolved.append(kind)
        if kind is AttributeKind.NUMERIC:
            arrays.append(np.asarray(cells, dtype=float))
        else:
            arrays.append(np.asarray(cells, dtype=object))
    mask = np.zeros((len(labels), len(names)), dtype=bool)
    if missing:
        for row, attr in missing:
            mask[row, attr] = True
    return Dataset(
        names=names,
        kinds=resolved,
        columns=arrays,
        missing=mask,
        labels=np.asarray(labels, dtype=object),
    )


def cells(data, j):
    """Column ``j`` of ``data`` as cell values: numbers, or the tokens its codes stand for."""
    return data.vocab[j][data.columns[j]] if j in data.vocab else data.columns[j]


def loop_equal_frequency(values, bins):
    """Equal-frequency cuts one bin boundary at a time, gathered in a set: the
    midpoint of the ceil(i*n/bins)-th order statistic and the next distinct value."""
    values = np.sort(np.asarray(values, dtype=float))
    distinct = np.unique(values)
    n = values.size
    cuts = set()
    for i in range(1, bins):
        x = values[-(-i * n // bins) - 1]
        nxt = np.searchsorted(distinct, x, side="right")
        if nxt < distinct.size:
            cuts.add(float((x + distinct[nxt]) / 2.0))
    return sorted(cuts)


def loop_log_likelihoods(model, x):
    """(n, C, m) log cond(j, x_ij | c), one cell at a time; code -1 gets the
    smoothing floor -log(N_c + arity)."""
    out = np.empty((len(x), model.n_classes, len(model.arity)))
    for i, row in enumerate(x):
        for j, code in enumerate(row):
            for c in range(model.n_classes):
                if code == -1:
                    out[i, c, j] = -np.log(model.class_counts[c] + model.arity[j])
                else:
                    out[i, c, j] = np.log(model.cond[j][c, code])
    return out


def strict_json(text):
    """``json.loads`` that rejects the NaN and Infinity literals, as RFC 8259 does."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def reference_load_csv(path, schema_hint=None, missing_token="?"):
    """Per-cell CSV loader: ``load_csv`` cell by cell, with the same checks and messages.

    Each present cell of a column that may be numeric is parsed with ``float``
    in row order until the first one that is not a finite real.
    """

    def parse_finite(cell):
        try:
            value = float(cell)
        except ValueError:
            return None
        return value if math.isfinite(value) else None

    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header, records = rows[0], rows[1:]
    if len(header) < 2:
        raise ValueError(f"{path}: need at least one attribute column plus the class column")
    if not records:
        raise ValueError(f"{path}: no data rows")
    for i, record in enumerate(records, start=2):
        if len(record) != len(header):
            raise ValueError(f"{path}: row {i} has {len(record)} cells, expected {len(header)}")
    names = header[:-1]
    labels = [record[-1] for record in records]
    if any(token == missing_token for token in labels):
        raise ValueError(f"{path}: missing class label")

    columns, kinds = [], []
    missing = np.zeros((len(records), len(names)), dtype=bool)
    for j, name in enumerate(names):
        cells = [record[j] for record in records]
        miss = [cell == missing_token for cell in cells]
        kind = schema_hint.get(name) if schema_hint else None
        values = np.full(len(cells), np.nan)
        parsed = kind is not AttributeKind.CATEGORICAL and not all(miss)
        for i, cell in enumerate(cells) if parsed else ():
            if miss[i]:
                continue
            value = parse_finite(cell)
            if value is None:
                if kind is AttributeKind.NUMERIC:
                    raise ValueError(
                        f"{path}: column {name!r}, row {i + 2}: unparseable numeric cell {cell!r}"
                    )
                parsed = False
                break
            values[i] = value
        if not isinstance(kind, AttributeKind):
            kind = AttributeKind.NUMERIC if parsed else AttributeKind.CATEGORICAL
        columns.append(values if kind is AttributeKind.NUMERIC else np.array(cells, dtype=object))
        kinds.append(kind)
        missing[:, j] = miss
    return Dataset(names, kinds, columns, missing, np.array(labels, dtype=object))


def dict_codes(tokens, vocab, unknown=None):
    """Each token's position in ``vocab`` by a plain dict lookup.

    A token outside ``vocab`` gets ``unknown``; with ``unknown`` None it
    raises ``KeyError``.
    """
    index = dict(zip(vocab, range(len(vocab))))
    if unknown is None:
        return [index[tok] for tok in tokens]
    return [index.get(tok, unknown) for tok in tokens]


def dict_labeled_split(labels, fraction, seed):
    """Sorted (labeled, unlabeled) rows of a stratified largest-remainder split.

    Per-class quotas in dicts keyed by token: floor(total * class size / n),
    plus one for the largest remainders, ties to the smaller token; each
    class's rows are then permuted in token order by one seeded generator.
    """
    labels = list(labels)
    n = len(labels)
    total = int(math.floor(fraction * n + 0.5))
    classes = sorted(set(labels))
    class_rows = {cls: [i for i, label in enumerate(labels) if label == cls] for cls in classes}
    raw = {cls: total * len(class_rows[cls]) / n for cls in classes}
    quota = {cls: int(math.floor(raw[cls])) for cls in classes}
    leftover = total - sum(quota.values())
    for cls in sorted(classes, key=lambda cls: (-(raw[cls] - quota[cls]), cls))[:leftover]:
        quota[cls] += 1
    rng = np.random.default_rng(seed)
    labeled, unlabeled = [], []
    for cls in classes:
        perm = rng.permutation(np.array(class_rows[cls])).tolist()
        labeled += perm[: quota[cls]]
        unlabeled += perm[quota[cls] :]
    return sorted(labeled), sorted(unlabeled)


def counter_mode(tokens):
    """Most frequent token; a tie goes to the smallest of the tied tokens."""
    counts = Counter(tokens)
    top = max(counts.values())
    return min(tok for tok, c in counts.items() if c == top)


def entropy_bits(counts) -> float:
    """Direct evaluation of -sum p_i log2 p_i over positive counts."""
    total = sum(counts)
    return -sum(c / total * math.log2(c / total) for c in counts if c > 0)


def brute_force_best_cut(values, labels):
    """Exhaustive scan over all distinct-value cuts; returns (value, gain).

    Independent of the library: plain loops, entropy from ``entropy_bits``.
    """
    values = list(values)
    labels = list(labels)
    n = len(values)
    classes = sorted(set(labels))

    def counts(rows):
        return [sum(1 for i in rows if labels[i] == c) for c in classes]

    parent = entropy_bits(counts(range(n)))
    best = None
    for d in sorted(set(values)):
        left = [i for i in range(n) if values[i] < d]
        right = [i for i in range(n) if values[i] >= d]
        if not left or not right:
            continue
        gain = (
            parent
            - len(left) / n * entropy_bits(counts(left))
            - len(right) / n * entropy_bits(counts(right))
        )
        if best is None or gain > best[1] + 1e-12:
            best = (d, max(gain, 0.0))
    return best


def masked_entropy_rows(counts):
    """Row entropies in bits by masked division: empty rows and 0*log(0) give 0."""
    counts = counts.astype(float)
    total = counts.sum(axis=1, keepdims=True)
    p = np.divide(counts, total, out=np.zeros_like(counts), where=total > 0)
    logp = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return -(p * logp).sum(axis=1)


def masked_cut_gains(parent, left, n_left):
    """Gain of splitting ``parent`` counts into each ``left`` row and the rest.

    The vectorized gain formula written with ``masked_entropy_rows``, in the
    same order of floating-point operations as the splitter, so the two can
    be compared bit for bit.
    """
    n = int(parent.sum())
    return (
        masked_entropy_rows(parent[None, :])[0]
        - n_left / n * masked_entropy_rows(left)
        - (n - n_left) / n * masked_entropy_rows(parent - left)
    )


def count_node_evaluations(monkeypatch):
    """Patch the splitter's node evaluation; return the list of (lo, hi) it records."""
    calls = []
    real = discretize_module._best_split

    def counting(values, prefix, lo, hi):
        calls.append((lo, hi))
        return real(values, prefix, lo, hi)

    monkeypatch.setattr(discretize_module, "_best_split", counting)
    return calls


def brute_force_nb_posterior(x_train, y_train, arity, query):
    """Count-and-multiply naive Bayes with add-one smoothing, no log space."""
    classes = sorted(set(y_train))
    n = len(y_train)
    joint = []
    for c in classes:
        rows = [i for i in range(n) if y_train[i] == c]
        p = (len(rows) + 1) / (n + len(classes))
        for j, a in enumerate(arity):
            matches = sum(1 for i in rows if x_train[i][j] == query[j])
            p *= (matches + 1) / (len(rows) + a)
        joint.append(p)
    total = sum(joint)
    return classes, [p / total for p in joint]


def brute_force_neighbors(ref, query, k, n_numeric=None):
    """The k nearest reference row indices, ordered by (distance, row index).

    The first ``n_numeric`` columns (all when None) add their squared
    difference; each later column adds 1 where the codes differ.  Terms are
    added in column order, and a square is a product: ``x ** 2`` goes through
    the C library's ``pow``, which can round an exact halfway case above 2**53
    away from the correctly rounded product.
    """
    m = len(query) if n_numeric is None else n_numeric
    dist = [
        sum((a - b) * (a - b) if c < m else float(a != b) for c, (a, b) in enumerate(zip(row, query)))
        for row in ref
    ]
    return sorted(range(len(ref)), key=lambda i: (dist[i], i))[:k]


def brute_force_knn(ref, ref_labels, query, k):
    """Nearest-neighbor majority vote with the documented tie rules."""
    classes = sorted(set(ref_labels))
    votes = [0] * len(classes)
    for i in brute_force_neighbors(ref, query, k):
        votes[classes.index(ref_labels[i])] += 1
    return classes[votes.index(max(votes))]


def two_branch_posteriors(model, W, w, alpha, loglik):
    """Blended, class-specific and class-shared posteriors, both branches always computed.

    ``alpha * P_W + (1 - alpha) * P_w`` with each softmax written out, in the
    same order of floating-point operations as the trainer's forward pass.
    """

    def softmax(scores):
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    logprior = np.log(model.priors)
    p_class = softmax(logprior[None, :] + np.einsum("icj,cj->ic", loglik, W))
    p_shared = softmax(logprior[None, :] + np.einsum("icj,j->ic", loglik, w))
    return alpha * p_class + (1 - alpha) * p_shared, p_class, p_shared


def two_branch_grad(loglik, target, alpha, blended, p_class, p_shared):
    """Gradient of the mean squared error w.r.t. (W, w, a) from both branches.

    A branch with blend weight 0 contributes ``0 * (...)``, a signed zero.
    """
    residual = 2.0 * (blended - target) / len(loglik)
    row_dot = (residual * p_class).sum(axis=1, keepdims=True)
    grad_W = alpha * np.einsum("ic,icj->cj", p_class * (residual - row_dot), loglik)
    row_dot = (residual * p_shared).sum(axis=1, keepdims=True)
    grad_w = (1 - alpha) * np.einsum("ic,icj->j", p_shared * (residual - row_dot), loglik)
    grad_a = alpha * (1 - alpha) * float((residual * (p_class - p_shared)).sum())
    return grad_W, grad_w, grad_a


def reference_train(table, labels, variant, opts):
    """Exponent training written only from the public objective and gradient.

    Gradient descent with Armijo backtracking from all-one exponents (first
    step 1, halved down to 1e-12, sufficient decrease 1e-4): every
    trial is a fresh ``WeightedParams`` scored by ``objective``, and every
    step's gradient comes from ``gradient`` at the accepted point.  Returns
    the final parameters and the objective after the start and each step.
    """
    model = fit_nb(table, labels)

    def blend(a):
        if variant == "rnb":
            return 1.0 / (1.0 + math.exp(-a))
        return 1.0 if variant == "cawnb" else 0.0

    a = 0.0
    ones = np.ones((model.n_classes, model.n_attrs))
    params = WeightedParams(ones, np.ones(model.n_attrs), blend(a))
    value = objective(model, params, table.x, labels)
    trace = [value]
    for _ in range(opts.max_iter):
        grad_W, grad_w, grad_a = gradient(model, params, table.x, labels)
        if variant == "wanbia":
            grad_W, grad_a = np.zeros_like(grad_W), 0.0
        elif variant == "cawnb":
            grad_w, grad_a = np.zeros_like(grad_w), 0.0
        grad_sq = float((grad_W**2).sum() + (grad_w**2).sum() + grad_a**2)
        if grad_sq == 0.0 or not math.isfinite(grad_sq):
            break
        step = 1.0
        accepted = None
        while step >= 1e-12:
            a_new = a - step * grad_a
            trial = WeightedParams(params.W - step * grad_W, params.w - step * grad_w, blend(a_new))
            trial_value = objective(model, trial, table.x, labels)
            if math.isfinite(trial_value) and trial_value <= value - 1e-4 * step * grad_sq:
                accepted = (trial, a_new, trial_value)
                break
            step /= 2.0
        if accepted is None:
            break
        params, a, trial_value = accepted
        improvement = value - trial_value
        value = trial_value
        trace.append(value)
        if improvement < opts.tol:
            break
    return params, trace


def student_t_sf(t, df):
    """P(T > t) for Student's t with ``df`` degrees of freedom, from mpmath at 400 digits.

    The tail is 0.5 * I_x(df/2, 1/2) at x = df / (df + t**2), the regularized
    incomplete beta, and one minus that for t < 0.  The 400-digit value is
    rounded once, through an exact fraction: mpmath's own float conversion
    rounds subnormals twice.
    """
    with mpmath.workdps(400):
        t = mpmath.mpf(t)
        tail = mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, df / (df + t * t), regularized=True) / 2
        man, exp = (tail if t > 0 else 1 - tail).man_exp
    return float(Fraction(man) * Fraction(2) ** exp)
