"""oodseg: find out-of-distribution objects in semantic-segmentation output.

The package post-processes a network's softmax probabilities: pixel-wise
uncertainty scores highlight unknown objects, thresholding plus connected
components turns them into candidate segments, hand-crafted per-segment
features feed a logistic-regression meta classifier that removes false
indications, and the evaluation layer tracks segment-level FP/FN counts,
pixel-level AuPRC and the mIoU cost of the whole pipeline. A seeded
synthetic benchmark stands in for a trained network so every step can be
exercised end to end in seconds.
"""

from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    IoError,
    NumericalError,
    OodsegError,
    SchemaError,
    ValidationError,
)
from .evaluate import (
    DEFAULT_GRID,
    DetectionOutcome,
    MatchAssignment,
    MatchResult,
    PRCurve,
    SweepResult,
    build_training_table,
    match_segments,
    miou,
    pixel_pr_curve,
    sweep,
    write_pr_csv,
    write_pr_summary,
    write_sweep_csv,
    write_sweep_json,
)
from .meta import (
    MetaModel,
    apply_meta_filter,
    feature_weights,
    fit_logistic,
    fit_meta,
    label_segments,
    load_meta_model,
    predict_proba,
    save_meta_model,
    standardize_fit,
)
from .scores import argmax_map, entropy_map, margin_map, maxprob_map
from .segments import (
    FEATURE_NAMES,
    compute_features,
    connected_components,
    extract_segments,
    features_matrix,
    threshold_mask,
)
from .synth import (
    DEFAULT_CONFIG,
    DEFAULT_N_SCENES,
    Benchmark,
    BenchScene,
    SceneConfig,
    build_benchmark,
    config_from_json,
    config_to_dict,
    generate_benchmark,
    generate_scene,
    load_benchmark,
)
from .tensor_io import (
    IGNORE_ID,
    OOD_ID,
    PROB_SUM_TOL,
    SegmentTable,
    read_feature_csv,
    read_npy,
    validate_label_mask,
    validate_prob_map,
    validate_score_map,
    write_feature_csv,
    write_npy,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "OodsegError", "FormatError", "SchemaError", "ValidationError", "DomainError",
    "NumericalError", "ConfigError", "IoError",
    # tensor I/O
    "OOD_ID", "IGNORE_ID", "PROB_SUM_TOL", "SegmentTable",
    "read_npy", "write_npy", "read_feature_csv", "write_feature_csv",
    "validate_prob_map", "validate_score_map", "validate_label_mask",
    # scores
    "entropy_map", "margin_map", "maxprob_map", "argmax_map",
    # segments
    "FEATURE_NAMES", "threshold_mask", "connected_components", "compute_features",
    "extract_segments", "features_matrix",
    # meta classification
    "MetaModel", "label_segments", "standardize_fit", "fit_logistic", "fit_meta",
    "predict_proba", "feature_weights", "apply_meta_filter",
    "save_meta_model", "load_meta_model",
    # evaluation
    "DEFAULT_GRID", "DetectionOutcome", "SweepResult", "PRCurve",
    "MatchResult", "MatchAssignment",
    "match_segments", "miou", "pixel_pr_curve", "sweep", "build_training_table",
    "write_sweep_csv", "write_sweep_json", "write_pr_csv", "write_pr_summary",
    # synthetic benchmark
    "SceneConfig", "BenchScene", "Benchmark", "DEFAULT_CONFIG", "DEFAULT_N_SCENES",
    "generate_scene", "build_benchmark", "generate_benchmark", "load_benchmark",
    "config_from_json", "config_to_dict",
]
