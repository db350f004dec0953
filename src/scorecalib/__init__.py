"""Threshold-integrated bias measurement and score calibration.

Measures group bias in matching-score distributions across the whole
threshold range and removes it with two post-processing calibrators: a
quantile-barycenter map targeting demographic parity, and a
label-conditioned variant targeting equal opportunity / equalized odds.
"""

from .bias import BiasMetricKind, risk_estimate, score_bias, threshold_bias
from .calibration import (
    CalibModel,
    calibrate,
    calibrate_dataset,
    calibrate_scores,
    fit,
)
from .conditional import (
    CondCalibModel,
    cond_calibrate,
    cond_calibrate_dataset,
    cond_calibrate_scores,
    fit_conditional,
    load_model,
    meanshift_threshold,
    save_model,
)
from .dataset import (
    GroupId,
    GroupVocabulary,
    Schema,
    ScoreDataset,
    dump_dataset,
    load_dataset,
)
from .empirical import (
    DEFAULT_SIGMA,
    StepCurve,
    add_jitter,
    auc,
    build_group_scores,
    conditional_curve,
    gap_curve,
    integrate_abs_difference,
    pr_curve,
    w1_distance,
)
from .synth import BetaParams, SynthSpec, generate

__all__ = [
    "BetaParams",
    "BiasMetricKind",
    "CalibModel",
    "CondCalibModel",
    "DEFAULT_SIGMA",
    "GroupId",
    "GroupVocabulary",
    "Schema",
    "ScoreDataset",
    "StepCurve",
    "SynthSpec",
    "add_jitter",
    "auc",
    "build_group_scores",
    "calibrate",
    "calibrate_dataset",
    "calibrate_scores",
    "cond_calibrate",
    "cond_calibrate_dataset",
    "cond_calibrate_scores",
    "conditional_curve",
    "dump_dataset",
    "fit",
    "fit_conditional",
    "gap_curve",
    "generate",
    "integrate_abs_difference",
    "load_dataset",
    "load_model",
    "meanshift_threshold",
    "pr_curve",
    "risk_estimate",
    "save_model",
    "score_bias",
    "threshold_bias",
    "w1_distance",
]

__version__ = "0.1.0"
