"""Cross-validation pipelines, significance tests, and report emission.

Pipeline order (``fit_pipeline``): impute with training statistics;
optionally tune k and pseudo-label the unlabeled pool (unlabeled training
rows in partial-label mode, plus the test rows' features when
transductive); derive the cut-point scheme from labeled plus pseudo-labeled
rows; fit the classifier on labeled training rows only.  The resulting
``FittedPipeline`` scores new rows and is what ``nbdisc train`` saves.  A
cross-validation fold fits on its training rows and scores its test rows;
true test labels are used for nothing but the final accuracy.

Accuracies are fractions in [0, 1]; reports format them as percentages.
The one-tailed paired t-test normalizes differences by the n-denominator
standard deviation over sqrt(n) and takes the p-value from the Student t
distribution with n-1 degrees of freedom.  The tail comes from its closed form
for integer degrees of freedom (Abramowitz & Stegun 26.7.3-26.7.4), summed in
``decimal`` with 40 guard digits, so p is the correctly rounded float of the
exact tail.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .data import (
    Dataset,
    categorical_vocab,
    class_codes,
    concat_rows,
    fill_missing,
    imputation_values,
    impute_missing,
    split_labeled_fraction,
    stratified_folds,
)
from .discretize import (
    DEFAULT_BINS,
    DEFAULT_N0,
    DiscretizationScheme,
    METHODS,
    _mutual_information,
    apply_scheme,
    build_scheme,
    scheme_from_dict,
    scheme_to_dict,
)
from .pseudo import DEFAULT_K_GRID, KnnConfig, pseudo_label, select_k
from .weighted_nb import (
    NbModel,
    TrainOptions,
    WeightedParams,
    encode_discrete,
    fit_nb,
    identity_params,
    model_from_dict,
    model_to_dict,
    posterior_batch,
    train_cawnb,
    train_rnb,
    train_wanbia,
)

CLASSIFIERS = ("nb", "wanbia", "cawnb", "rnb")

REPRODUCTION_CAVEATS = [
    "k-NN grid (odd 1..31) and z-score feature scaling are artifact choices",
    "weight-training objective, optimizer, and stopping rule are artifact choices",
    "std figures are the sample standard deviation over folds (n-1 denominator)",
]


class PipelineError(RuntimeError):
    """Failure inside a pipeline stage, tagged with the stage name."""

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.message = message

    def __reduce__(self):  # a failed fold comes back from a bench worker
        return type(self), (self.stage, self.message)


@dataclass(frozen=True)
class PipelineConfig:
    """One benchmark configuration: discretizer, classifier, and protocol knobs."""

    method: str = "sadd"
    classifier: str = "nb"
    n0: int = DEFAULT_N0
    bins: int = DEFAULT_BINS
    pseudo_label: bool | None = None  # None: on iff method == "sadd"
    transductive: bool = True
    labeled_fraction: float = 1.0
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    max_iter: int = 500
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.classifier!r}")
        if not 0.0 < self.labeled_fraction <= 1.0:
            raise ValueError("labeled_fraction must be in (0, 1]")
        if self.n0 < 1:
            raise ValueError("n0 must be at least 1")
        if self.bins < 1:
            raise ValueError("bins must be at least 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be at least 0")
        if not self.k_grid or min(self.k_grid) < 1:
            raise ValueError("k_grid must hold at least one k, each at least 1")
        if self.pseudo_label and self.method in ("eqw", "eqf"):
            raise ValueError("pseudo-labeling requires a discretizer that consumes labels")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def uses_pseudo_labels(self) -> bool:
        if self.pseudo_label is None:
            return self.method == "sadd"
        return self.pseudo_label

    def label(self) -> str:
        tag = f"{self.method}+{self.classifier}"
        if self.labeled_fraction < 1.0:
            tag += f"@{self.labeled_fraction:g}"
        if not self.transductive:
            tag += ":inductive"
        if self.pseudo_label is not None and self.pseudo_label != (self.method == "sadd"):
            tag += ":pl" if self.pseudo_label else ":nopl"
        return tag


def _child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


@dataclass
class FoldResult:
    accuracy: float
    selected_k: int | None
    predictions: list[str]


@dataclass
class FittedPipeline:
    """A fitted pipeline: what scoring new rows needs, and nothing else.

    ``fill`` holds one imputation value per attribute, from the training rows.
    """

    fill: list[float | str]
    scheme: DiscretizationScheme
    vocab: dict[int, list[str]]
    model: NbModel
    params: WeightedParams

    def predict(self, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
        """Predicted class tokens and the (rows, classes) blended posteriors."""
        imputed = fill_missing(data, self.fill)
        table = encode_discrete(apply_scheme(self.scheme, imputed), self.scheme, self.vocab)
        posteriors = posterior_batch(self.model, self.params, table.x)
        labels = np.array(self.model.classes, dtype=object)[posteriors.argmax(axis=1)]
        return labels, posteriors

    def to_dict(self) -> dict:
        """JSON-ready form; the body of an ``nbdisc train`` model file."""
        return {
            "imputation": dict(zip(self.scheme.names, self.fill)),
            "scheme": scheme_to_dict(self.scheme),
            "vocab": {str(j): tokens for j, tokens in self.vocab.items()},
            "model": model_to_dict(self.model, self.params),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FittedPipeline":
        scheme = scheme_from_dict(doc["scheme"])
        model, params = model_from_dict(doc["model"])
        return cls(
            fill=[doc["imputation"][name] for name in scheme.names],
            scheme=scheme,
            vocab={int(j): list(tokens) for j, tokens in doc["vocab"].items()},
            model=model,
            params=params,
        )


# The PipelineConfig fields each shared stage reads.  ``_once`` keys a stage's
# result by its input rows and the values of these fields, so a field missing
# here would hand one config the result computed for another.
STAGE_READS: dict[str, tuple[str, ...]] = {
    "impute": (),
    "split": ("labeled_fraction", "seed"),
    "k": ("k_grid", "seed"),
    "pseudo": ("transductive",),
    "nodes": (),
    "scheme": ("method", "n0", "bins"),
    "model": (),
    "diagnostics": ("method", "n0", "bins"),
}


def _once(stages: dict, stage: str, rows, config: PipelineConfig, compute: Callable[[], object]):
    """``(key, compute())`` for the key (stage, ``rows``, ``config``'s values of the
    ``STAGE_READS[stage]`` fields), computed once; an error it raised is raised again.
    ``rows`` is the key of the stage's input rows; None names the rows of ``stages``."""
    key = (stage, rows, *(getattr(config, name) for name in STAGE_READS[stage]))
    if key not in stages:
        try:
            stages[key] = compute()
        except Exception as exc:  # noqa: BLE001 - each config that shares the key gets it
            stages[key] = exc
    if isinstance(stages[key], Exception):
        raise stages[key]
    return key, stages[key]


def fit_pipeline(
    train: Dataset,
    config: PipelineConfig,
    test: Dataset | None = None,
    stages: dict | None = None,
) -> tuple[FittedPipeline, int | None]:
    """Fit imputation, discretization and classifier on the ``train`` rows.

    ``test`` contributes features only: its categories join the vocabulary,
    and with a transductive pseudo-labeling config its rows join the pool.
    Every random draw reads ``config.seed``.  Returns the fitted pipeline and
    the k chosen for pseudo-labeling (None when nothing was pseudo-labeled).
    Calls on the same rows may share one ``stages`` dict, which keys each stage's
    result by its input rows and the fields ``STAGE_READS`` names for it; it
    changes what is recomputed, never a result.
    """
    stages = {} if stages is None else stages
    stage = "impute"
    try:
        # impute_missing, not fill_missing: the benchmark's trace times the
        # training rows' imputation under that name
        rows, (imp_train, fill) = _once(stages, "impute", None, config, lambda: (
            impute_missing(train, train), imputation_values(train)
        ))
        imp_test = None if test is None else fill_missing(test, fill)

        stage = "split"
        labeled_rows, labeled, unlabeled = rows, imp_train, None
        if config.labeled_fraction < 1.0:
            labeled_rows, split = _once(stages, "split", rows, config, lambda: split_labeled_fraction(
                imp_train.label_codes, config.labeled_fraction, _child_seed(config.seed, 1)
            ))
            labeled = imp_train.subset(split.labeled_rows)
            unlabeled = imp_train.subset(split.unlabeled_rows)

        stage = "pseudo-label"
        selected_k = None
        scheme_rows, scheme_data = labeled_rows, labeled
        # an empty pool leaves the plain supervised path, so the transductive
        # and inductive pipelines coincide when nothing is unlabeled
        parts = [unlabeled, imp_test if config.transductive else None]
        parts = [part for part in parts if part is not None and part.n_rows]
        if config.uses_pseudo_labels and parts:
            pool = concat_rows(parts)
            selected_k = _once(stages, "k", labeled_rows, config, lambda: select_k(
                labeled, config.k_grid, _child_seed(config.seed, 2)
            ))[1]
            scheme_rows, pseudo = _once(stages, "pseudo", (labeled_rows, selected_k), config, lambda: (
                pseudo_label(labeled, pool, KnnConfig(selected_k))
            ))
            scheme_data = concat_rows([labeled, replace(pool, label_codes=pseudo, classes=labeled.classes)])
        elif config.method in ("eqw", "eqf"):  # they read no labels: every row counts
            scheme_rows, scheme_data = rows, imp_train

        stage = "discretize"
        scheme_key, scheme = _once(stages, "scheme", scheme_rows, config, lambda: build_scheme(
            scheme_data, config.method, n0=config.n0, bins=config.bins,
            nodes=_once(stages, "nodes", scheme_rows, config, dict)[1],
        ))
        vocab = categorical_vocab([imp_train] if imp_test is None else [imp_train, imp_test])
        # not kept: a fold would hold one (rows, attrs) table per scheme
        table = encode_discrete(apply_scheme(scheme, labeled), scheme, vocab)

        stage = "fit"
        model_rows = (scheme_key, labeled_rows)
        model = _once(stages, "model", model_rows, config, lambda: fit_nb(table, labeled.label_codes))[1]
        opts = TrainOptions(max_iter=config.max_iter, tol=config.tol)
        if config.classifier == "nb":
            params = identity_params(model)
        else:
            # built per call: the benchmark's trace rebinds these names
            trainer = {"wanbia": train_wanbia, "cawnb": train_cawnb, "rnb": train_rnb}
            params = trainer[config.classifier](table, labeled.label_codes, opts, model=model).params
    except Exception as exc:
        raise PipelineError(stage, str(exc)) from exc
    model = replace(model, classes=labeled.classes[model.classes].tolist())  # codes to tokens
    return FittedPipeline(fill, scheme, vocab, model, params), selected_k


def run_fold(
    data: Dataset,
    train_rows: Sequence[int] | np.ndarray,
    test_rows: Sequence[int] | np.ndarray,
    config: PipelineConfig,
    stages: dict | None = None,
) -> FoldResult:
    """Fit the pipeline on one train/test split and score the test rows;
    ``config`` and ``stages`` are passed on to ``fit_pipeline``."""
    train_rows = np.asarray(train_rows, dtype=int)
    test_rows = np.asarray(test_rows, dtype=int)
    if train_rows.size == 0 or test_rows.size == 0:
        raise PipelineError("setup", "train and test rows must be non-empty")
    rows = np.concatenate([train_rows, test_rows])
    if rows.min() < 0 or rows.max() >= data.n_rows:
        raise PipelineError("setup", "row index out of range")
    in_train = np.zeros(data.n_rows, dtype=bool)
    in_train[train_rows] = True
    if in_train[test_rows].any():
        raise PipelineError("setup", "train and test rows overlap")
    test = data.subset(test_rows)
    fitted, selected_k = fit_pipeline(data.subset(train_rows), config, test, stages)
    try:
        predictions, _ = fitted.predict(test)
    except Exception as exc:
        raise PipelineError("predict", str(exc)) from exc
    return FoldResult(
        accuracy=float(np.mean(predictions == test.labels)),
        selected_k=selected_k,
        predictions=predictions.tolist(),
    )


def run_folds(
    data: Dataset, train_rows: np.ndarray, test_rows: np.ndarray,
    configs: Sequence[PipelineConfig], fold: int,
) -> list[FoldResult | PipelineError]:
    """``run_fold`` of each config on fold number ``fold``, each stage computed once.

    Each config's seed is replaced by one drawn from it and ``fold``.  Configs
    share a stage when they agree on its input rows and on the fields that
    ``STAGE_READS`` names for it.  The results live in one stage dict that
    ``run_fold`` gets for every config and that is dropped on return.  A failed
    config's PipelineError, with a ``fold N:`` prefix, replaces its result.
    """
    stages: dict = {}
    outcomes: list[FoldResult | PipelineError] = []
    for config in configs:
        try:
            fold_config = replace(config, seed=_child_seed(config.seed, 7, fold))
            outcomes.append(run_fold(data, train_rows, test_rows, fold_config, stages))
        except PipelineError as exc:
            outcomes.append(PipelineError(exc.stage, f"fold {fold}: {exc.message}"))
    return outcomes


@dataclass
class AttributeDiagnostic:
    name: str
    intervals: int
    mi: float


@dataclass
class DiagnosticsTable:
    rows: list[AttributeDiagnostic]

    @property
    def avg_intervals(self) -> float | None:
        return float(np.mean([r.intervals for r in self.rows])) if self.rows else None

    @property
    def avg_mi(self) -> float | None:
        return float(np.mean([r.mi for r in self.rows])) if self.rows else None


def diagnostics_table(scheme: DiscretizationScheme, disc_data: Dataset) -> DiagnosticsTable:
    """Interval count and attribute/class mutual information per numeric attribute."""
    codes = class_codes(disc_data.label_codes)[1]
    rows = []
    for j in disc_data.numeric_attrs():
        rows.append(
            AttributeDiagnostic(
                name=disc_data.names[j],
                intervals=scheme.n_intervals(j),
                mi=_mutual_information(disc_data.columns[j], codes),
            )
        )
    return DiagnosticsTable(rows=rows)


@dataclass
class EvalReport:
    """Per-fold accuracies plus dataset-level discretization diagnostics."""

    dataset: str
    config: PipelineConfig
    fold_accuracies: list[float]
    selected_k: list[int | None] = field(default_factory=list)
    diagnostics: DiagnosticsTable | None = None

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_accuracies))

    @property
    def std(self) -> float:
        if len(self.fold_accuracies) < 2:
            return 0.0
        return float(np.std(self.fold_accuracies, ddof=1))


def whole_data_diagnostics(
    data: Dataset, method: str, n0: int = DEFAULT_N0, bins: int = DEFAULT_BINS,
    nodes: dict | None = None,
) -> tuple[DiscretizationScheme, DiagnosticsTable]:
    """Scheme built on all rows (self-imputed) by their own labels, and its diagnostics.

    Data without missing cells is used as it is, so several calls can share
    one imputation.  ``nodes`` is ``build_scheme``'s: split nodes shared by
    calls on ``data``.
    """
    imputed = impute_missing(data, data) if data.missing.any() else data
    scheme = build_scheme(imputed, method, n0=n0, bins=bins, nodes=nodes)
    return scheme, diagnostics_table(scheme, apply_scheme(scheme, imputed))


def cross_validate(
    data: Dataset,
    config: PipelineConfig,
    folds: int = 10,
    dataset_name: str = "",
    with_diagnostics: bool = True,
) -> EvalReport:
    """Stratified k-fold evaluation of one config; raises what ``cross_validate_configs``
    would report for it (a fold's PipelineError carries a ``fold N:`` prefix)."""
    outcome = cross_validate_configs(data, [config], folds, dataset_name, with_diagnostics)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def cross_validate_configs(
    data: Dataset, configs: Sequence[PipelineConfig], folds: int = 10, dataset_name: str = "",
    with_diagnostics: bool = True, map_folds: Callable[[Iterator], Iterable] | None = None,
) -> list[EvalReport | Exception]:
    """Fold-major stratified k-fold evaluation of ``configs`` on one dataset.

    Configs with the same seed share a fold plan; each fold of a plan is one
    ``run_folds`` task ``(train_rows, test_rows, configs, fold)``.
    ``map_folds`` runs the tasks and yields their outcomes in order (default:
    one after another in this process).  Whole-data diagnostics are built on
    one self-imputed copy of ``data``, with split nodes kept for this call,
    and shared as ``STAGE_READS["diagnostics"]`` says.  Each config gets its
    report, or the error of its fold plan, of its first failing fold, or of
    its diagnostics.
    """
    groups: dict[int, list[PipelineConfig]] = {}
    for config in dict.fromkeys(configs):
        groups.setdefault(config.seed, []).append(config)
    failed: dict[PipelineConfig, Exception] = {}
    plans = []
    for seed, group in groups.items():
        try:
            plan = stratified_folds(data, folds, seed)
        except ValueError as exc:
            failed.update(dict.fromkeys(group, exc))
            continue
        plans += [(plan, group, f) for f in range(folds)]

    # row indices are made as the tasks run; of a fold's results only
    # (accuracy, selected k) is kept
    tasks = ((plan.train_rows(f), plan.test_rows(f), group, f) for plan, group, f in plans)
    done = map_folds(tasks) if map_folds else (run_folds(data, *task) for task in tasks)
    results: dict[PipelineConfig, list[tuple]] = {config: [] for config in configs}
    for (_, group, _), outcomes in zip(plans, done):
        for config, outcome in zip(group, outcomes):
            if isinstance(outcome, PipelineError):
                failed.setdefault(config, outcome)
            else:
                results[config].append((outcome.accuracy, outcome.selected_k))

    stages: dict = {}
    reports: list[EvalReport | Exception] = []
    for config in configs:
        outcome = failed.get(config)
        if outcome is None and with_diagnostics:
            try:
                rows, imputed = _once(stages, "impute", None, config, lambda: impute_missing(data, data))
                outcome = _once(stages, "diagnostics", rows, config, lambda: whole_data_diagnostics(
                    imputed, config.method, config.n0, config.bins,
                    nodes=_once(stages, "nodes", rows, config, dict)[1],
                )[1])[1]
            except Exception as exc:  # noqa: BLE001 - reported as this config's outcome
                outcome = exc
        if not isinstance(outcome, Exception):  # a table or None
            accuracies, ks = map(list, zip(*results[config]))
            outcome = EvalReport(dataset_name, config, accuracies, ks, outcome)
        reports.append(outcome)
    return reports


# log10 of 2**-1075, half the smallest subnormal float: a tail below it rounds to 0.0
_LOG10_HALF_SUBNORMAL = -1075 * math.log10(2)


def _atan(y: Decimal) -> Decimal:
    """atan(y) for y >= 0 at the current decimal precision."""
    halvings = 0
    while y > Decimal("0.03"):  # tan(a/2) = tan(a) / (1 + sqrt(1 + tan(a)**2))
        y /= 1 + (1 + y * y).sqrt()
        halvings += 1
    total, last, power, k, y2 = y, None, y, 1, y * y
    while total != last:  # Taylor series, until a term no longer changes the sum
        last, power, k = total, -power * y2, k + 2
        total += power / k
    return total * 2**halvings


def _t_sf(t: float, df: int) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom, correctly rounded.

    A&S 26.7.3-26.7.4 give A = P(|T| < |t|) as a finite sum in sin and cos of
    theta = atan(|t| / sqrt(df)), plus 2 theta / pi for odd df.  The tail
    (1 - A) / 2 is summed in ``decimal`` with 40 digits beyond the -log10 tail
    that cancel in 1 - A, then rounded once to a float.  The tail is at least
    the density at |t| + 1, which bounds those digits, as does df * log10|t|.
    """
    if math.isnan(t):
        return t
    if t == 0:
        return 0.5
    x = abs(t)
    # The density is below c * df**((df+1)/2) * u**-(df+1) with c < 1/sqrt(2 pi)
    # < 0.4, so the tail is below 0.4 * df**((df-1)/2) * x**-df; the slack of
    # 0.4 over 0.3989 covers the rounding of these logs.
    log_bound = math.log10(0.4) + (df - 1) / 2 * math.log10(df) - df * math.log10(x)
    if log_bound < _LOG10_HALF_SUBNORMAL:
        return 0.0 if t > 0 else 1.0
    odd = df % 2
    with localcontext() as ctx:
        # density c (1 + u**2/df)**-((df+1)/2): -log10 of it at u = x + 1
        ln_c = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - math.log(df * math.pi) / 2
        at_x1 = (df + 1) * math.log10(math.hypot(1, (x + 1) / math.sqrt(df))) - ln_c / math.log(10)
        ctx.prec = 40 + max(0, math.ceil(min(df * math.log10(x), at_x1)))
        x, nu = Decimal(x), Decimal(df)
        cos2 = nu / (nu + x * x)
        sin = x / (nu + x * x).sqrt()
        # even df: A = sin * (1 + 1/2 cos^2 + 1*3/(2*4) cos^4 + ...)
        # odd df: A = 2/pi * (theta + sin * cos * (1 + 2/3 cos^2 + 2*4/(3*5) cos^4 + ...))
        total, term = Decimal(0), Decimal(1)
        for j in range(1, df // 2 + 1):
            total += term
            term *= cos2 * (2 * j - 1 + odd) / (2 * j + odd)
        if odd:
            theta, pi = _atan(x / nu.sqrt()), 4 * _atan(Decimal(1))
            area = 2 * (theta + sin * cos2.sqrt() * total) / pi
        else:
            area = sin * total
        tail = (1 - area) / 2
        return float(tail if t > 0 else 1 - tail)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float

    @property
    def significant(self) -> bool:
        return self.p < 0.05


def paired_t_test_one_tailed(
    a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray
) -> TTestResult:
    """One-tailed paired t-test of H1: mean(a - b) > 0 at the 0.05 level.

    With zero spread every difference equals the mean, so t is 0 when all
    differences are 0 (p = 0.5) and +inf or -inf otherwise (p = 0 or 1).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 pairs")
    d = a - b
    mean = float(d.mean())
    spread = float(d.std(ddof=0))
    t = mean / (spread / math.sqrt(n)) if spread else math.copysign(math.inf, mean) if mean else 0.0
    return TTestResult(t=t, p=_t_sf(t, n - 1))


# --- report emission ----------------------------------------------------------


def config_to_dict(config: PipelineConfig) -> dict:
    doc = asdict(config)
    doc["k_grid"] = list(config.k_grid)
    return doc


def _json_type_matches(value, default) -> bool:
    """Whether a JSON value has the type of the config field with this default."""
    if default is None:  # pseudo_label
        return value is None or isinstance(value, bool)
    if isinstance(default, tuple):  # k_grid
        return isinstance(value, (list, tuple)) and all(_json_type_matches(v, default[0]) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


def config_from_dict(doc: dict) -> PipelineConfig:
    """The config a JSON object describes; an unknown or mistyped field raises ValueError."""
    defaults = {f.name: f.default for f in fields(PipelineConfig)}
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config fields: {unknown}")
    for name, value in doc.items():
        if not _json_type_matches(value, defaults[name]):
            raise ValueError(f"config field {name!r} has a value of the wrong type: {value!r}")
    return PipelineConfig(**{**doc, "k_grid": tuple(doc.get("k_grid", DEFAULT_K_GRID))})


def config_hash(config: PipelineConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def report_to_dict(report: EvalReport) -> dict:
    diag = None
    if report.diagnostics is not None:
        diag = {
            "attributes": [
                {"name": r.name, "intervals": r.intervals, "mi": r.mi}
                for r in report.diagnostics.rows
            ],
            "avg_intervals": report.diagnostics.avg_intervals,
            "avg_mi": report.diagnostics.avg_mi,
        }
    return {
        "dataset": report.dataset,
        "config": config_to_dict(report.config),
        "config_hash": config_hash(report.config),
        "folds": len(report.fold_accuracies),
        "fold_accuracies": [float(v) for v in report.fold_accuracies],
        "mean": report.mean,
        "std": report.std,
        "selected_k": list(report.selected_k),
        "diagnostics": diag,
    }


def report_from_dict(doc: dict) -> EvalReport:
    diag = None
    if doc.get("diagnostics") is not None:
        diag = DiagnosticsTable(
            rows=[
                AttributeDiagnostic(name=r["name"], intervals=int(r["intervals"]), mi=float(r["mi"]))
                for r in doc["diagnostics"]["attributes"]
            ]
        )
    return EvalReport(
        dataset=doc["dataset"],
        config=config_from_dict(doc["config"]),
        fold_accuracies=[float(v) for v in doc["fold_accuracies"]],
        selected_k=[None if k is None else int(k) for k in doc["selected_k"]],
        diagnostics=diag,
    )


def _vs_candidate(reports: Sequence[EvalReport]) -> list[tuple[EvalReport, TTestResult] | None]:
    """Per report, its dataset's candidate (the dataset's first report) and
    the candidate-vs-report t-test; None for the candidate itself."""
    first_by_dataset: dict[str, EvalReport] = {}
    out: list[tuple[EvalReport, TTestResult] | None] = []
    for report in reports:
        candidate = first_by_dataset.get(report.dataset)
        first_by_dataset.setdefault(report.dataset, report)
        out.append(None if candidate is None else (candidate, paired_t_test_one_tailed(
            candidate.fold_accuracies, report.fold_accuracies
        )))
    return out


def results_document(reports: Sequence[EvalReport], seed: int) -> dict:
    """Machine-readable results: per run, folds, stats, and t-tests vs the
    first configuration of the same dataset (the candidate)."""
    runs = []
    for report, vs in zip(reports, _vs_candidate(reports)):
        entry = report_to_dict(report)
        entry["vs_first"] = None if vs is None else {
            "candidate_hash": config_hash(vs[0].config),
            "t": vs[1].t if math.isfinite(vs[1].t) else None,  # JSON has no Infinity
            "p": vs[1].p,
            "candidate_significantly_better": vs[1].significant,
        }
        runs.append(entry)
    return {
        "format": "nbdisc-results-v1",
        "seed": seed,
        "caveats": REPRODUCTION_CAVEATS,
        "runs": runs,
    }


def emit_report(
    reports: Sequence[EvalReport], path: str | Path, seed: int, format: str = "json"
) -> None:
    """Write results to ``path``: machine-readable JSON or the aligned table."""
    if format == "json":
        Path(path).write_text(
            json.dumps(results_document(reports, seed), indent=2, sort_keys=True) + "\n"
        )
    elif format == "table":
        configs = list(dict.fromkeys(r.config for r in reports))
        header = [f"# seed: {seed}"] + [
            f"# config {config_hash(c)}: {label}" for c, label in zip(configs, _distinct_labels(configs))
        ]
        Path(path).write_text("\n".join(header) + "\n" + format_comparison_table(reports) + "\n")
    else:
        raise ValueError(f"unknown report format {format!r}")


def load_results(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def _distinct_labels(configs: Sequence[PipelineConfig]) -> list[str]:
    """``label()`` of each config; configs that share a label each get
    ``name=value``, the value as JSON, for every field in which they differ."""
    by_label: dict[str, list[PipelineConfig]] = {}
    for config in configs:
        by_label.setdefault(config.label(), []).append(config)
    labels = []
    for config in configs:
        same = by_label[config.label()]
        doc = config_to_dict(config)
        differ = [name for name in doc if len({getattr(c, name) for c in same}) > 1]
        labels.append(" ".join([config.label()] + [
            f"{name}={json.dumps(doc[name], separators=(',', ':'))}" for name in differ
        ]))
    return labels


def format_comparison_table(reports: Sequence[EvalReport]) -> str:
    """Aligned accuracy table; a bullet marks configurations that their
    dataset's candidate (its first report) significantly outperforms."""
    datasets = list(dict.fromkeys(r.dataset for r in reports))
    configs = list(dict.fromkeys(r.config for r in reports))
    by_key = {(r.dataset, r.config): (r, vs) for r, vs in zip(reports, _vs_candidate(reports))}

    header = ["dataset"] + _distinct_labels(configs)
    lines = []
    for ds in datasets:
        row = [ds]
        for c in configs:
            if (ds, c) not in by_key:
                row.append("-")
                continue
            report, vs = by_key[(ds, c)]
            cell = f"{100 * report.mean:.2f}±{100 * report.std:.2f}"
            if vs is not None and vs[1].significant:
                cell += " •"
            row.append(cell)
        lines.append(row)

    widths = [max(len(line[i]) for line in [header] + lines) for i in range(len(header))]
    rendered = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                for line in [header] + lines]
    return "\n".join(rendered)
