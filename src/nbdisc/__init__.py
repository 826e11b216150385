"""Adaptive supervised discretization with attribute-weighted naive Bayes."""

from .data import (
    AttributeKind,
    Dataset,
    FoldPlan,
    LabeledSplit,
    concat_rows,
    impute_missing,
    load_csv,
    load_schema,
    split_labeled_fraction,
    stratified_folds,
    write_csv,
)
from .discretize import (
    ClassCounts,
    CutCandidate,
    DiscretizationScheme,
    apply_scheme,
    best_cut,
    build_scheme,
    class_entropy,
    equal_frequency,
    equal_width,
    information_gain,
    load_scheme,
    mdlp_partition,
    mdlp_threshold,
    mutual_information,
    sadd_partition,
    sadd_threshold,
    save_scheme,
    threshold_curve,
)
from .evaluate import (
    EvalReport,
    FittedPipeline,
    PipelineConfig,
    PipelineError,
    cross_validate,
    diagnostics_table,
    emit_report,
    fit_pipeline,
    format_comparison_table,
    paired_t_test_one_tailed,
    run_fold,
)
from .pseudo import KnnConfig, knn_predict, pseudo_label, select_k
from .weighted_nb import (
    NbModel,
    TrainOptions,
    WeightedParams,
    fit_nb,
    gradient,
    objective,
    posterior_blend,
    predict,
    train_cawnb,
    train_rnb,
    train_wanbia,
    weighted_log_posterior,
)

__version__ = "0.1.0"
