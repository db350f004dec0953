"""Threshold-integrated and fixed-threshold bias metrics, plus risk.

The integrated bias of a score function for a performance metric is the
integral over all thresholds of the absolute gap between the two
groups' metric curves.  The curves are empirical step functions, so the
integral is computed exactly on the merged breakpoint grid rather than
by quadrature.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from .dataset import GroupId, ScoreDataset
from .empirical import (
    StepCurve,
    conditional_curve,
    integrate_abs_difference,
    pr_curve,
    unit_scores,
)
from .errors import (
    EmptyGroupError,
    LengthMismatchError,
    ThetaOutOfRangeError,
)


class BiasMetricKind(enum.Enum):
    """Which per-group performance curve the bias compares.

    DP compares positive rates, EO true-positive rates, FPR_GAP
    false-positive rates; EOD is the sum of the EO and FPR_GAP biases.
    """

    DP = "dp"
    EO = "eo"
    FPR_GAP = "fprgap"
    EOD = "eod"

    @property
    def parts(self) -> tuple["BiasMetricKind", ...]:
        """The curve kinds whose biases sum to this one's: EOD = EO + FPR_GAP."""
        if self is BiasMetricKind.EOD:
            return (BiasMetricKind.EO, BiasMetricKind.FPR_GAP)
        return (self,)


def group_curves(d: ScoreDataset, kind: BiasMetricKind) -> dict[GroupId, StepCurve]:
    """The two per-group metric curves for a non-composite kind."""
    if kind is BiasMetricKind.EOD:
        raise ValueError("EOD is composite; request EO and FPR_GAP curves")
    curves = {}
    for group in GroupId:
        if kind is BiasMetricKind.DP:
            scores = d.group_scores(group)
            if scores.size == 0:
                raise EmptyGroupError(f"no {group.value} pairs in dataset")
            curves[group] = pr_curve(scores)
        else:
            label = 1 if kind is BiasMetricKind.EO else 0
            curves[group] = conditional_curve(d, group, label)
    return curves


def curve_bias(curves: dict[GroupId, StepCurve]) -> float:
    """Integral over thresholds of |minority - majority| for one curve pair."""
    return integrate_abs_difference(curves[GroupId.MINORITY], curves[GroupId.MAJORITY])


def curve_gaps(curves: dict[GroupId, StepCurve], thetas: Sequence[float]) -> np.ndarray:
    """|minority - majority| of one curve pair at each threshold in [0, 1]."""
    for theta in thetas:
        if not (0.0 <= theta <= 1.0):
            raise ThetaOutOfRangeError(f"theta {theta!r} outside [0, 1]")
    at = np.array(thetas, dtype=float)
    return np.abs(curves[GroupId.MINORITY](at) - curves[GroupId.MAJORITY](at))


def score_bias(d: ScoreDataset, kind: BiasMetricKind) -> float:
    """Integral over thresholds of the absolute gap between group curves.

    Exact (merged-breakpoint) integration; in [0, 1] for DP/EO/FPR_GAP
    and [0, 2] for EOD.
    """
    return sum(curve_bias(group_curves(d, part)) for part in kind.parts)


def threshold_bias(d: ScoreDataset, kind: BiasMetricKind, theta: float) -> float:
    """Absolute gap between the group curves at one threshold."""
    return sum(float(curve_gaps(group_curves(d, part), [theta])[0]) for part in kind.parts)


def risk_estimate(original: Sequence[float], calibrated: Sequence[float]) -> float:
    """Mean absolute deviation of calibrated scores from originals, summed in
    ascending order; a score outside [0, 1] or NaN raises :class:`ScoreOutOfRangeError`."""
    orig = unit_scores(original, "original scores")
    calib = unit_scores(calibrated, "calibrated scores")
    if orig.shape != calib.shape:
        raise LengthMismatchError(
            f"score lists differ in length: {orig.size} vs {calib.size}"
        )
    if orig.size == 0:
        return 0.0
    deviations = calib - orig  # the one whole-length array: its abs and sort are in place
    np.abs(deviations, out=deviations).sort()
    return float(np.mean(deviations))
