"""Quantile-barycenter score calibration.

Fits per-group empirical score distributions and maps every query score
to the weighted average of the two group quantiles at the query's rank
level, where the weight is the minority share of the fit data.  The
output distribution is the 1-D Wasserstein barycenter of the two group
distributions, which equalizes positive rates across groups at every
threshold while moving scores as little as possible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import GroupId, ScoreDataset, minority_mask
from .empirical import GroupScores, build_group_scores
from .errors import ScoreOutOfRangeError


@dataclass(frozen=True, eq=False)
class CalibModel:
    """Immutable fitted calibration model; shareable across threads."""

    group_scores: GroupScores

    @cached_property
    def _ascending(self) -> dict[GroupId, np.ndarray]:
        return {
            GroupId.MINORITY: self.group_scores.scores_a[::-1],
            GroupId.MAJORITY: self.group_scores.scores_b[::-1],
        }

    @property
    def alpha(self) -> float:
        return self.group_scores.alpha


def fit(d: ScoreDataset, sigma: float, seed: int) -> CalibModel:
    """Fit once on a dataset; the model is reused across queries."""
    return CalibModel(build_group_scores(d, sigma, seed))


def _rank_positions(n_own: int, n_other: int, greater: np.ndarray):
    """Map counts of strictly-greater own-group scores to list positions.

    ``pos_own`` is the 1-based position the query would occupy in its
    own descending list (clamped to the list); ``pos_other`` is the
    position at the same rank level in the other list, ceil-rounded.
    Integer arithmetic avoids float rounding in ceil(q * n_other).
    """
    pos_own = np.minimum(n_own, 1 + greater)
    pos_other = np.minimum(n_other, np.maximum(1, -(-pos_own * n_other // n_own)))
    return pos_own, pos_other


def calibrate_scores(
    model: CalibModel, scores: Sequence[float], groups: Sequence[GroupId]
) -> np.ndarray:
    """Vectorized calibration of many (score, group) queries.

    ``groups`` may also be a bool array of minority flags.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        return scores.copy()
    if np.isnan(scores).any() or scores.min() < 0.0 or scores.max() > 1.0:
        raise ScoreOutOfRangeError("query scores must lie in [0, 1]")
    gs = model.group_scores
    alpha = gs.alpha
    is_minority = minority_mask(groups)
    if is_minority.size != scores.size:
        raise ValueError("scores and groups must have equal length")

    pos_a = np.empty(scores.size, dtype=np.int64)
    pos_b = np.empty(scores.size, dtype=np.int64)
    for group, mask in ((GroupId.MINORITY, is_minority), (GroupId.MAJORITY, ~is_minority)):
        if not mask.any():
            continue
        own_asc = model._ascending[group]
        n_own = own_asc.size
        n_other = gs.n_b if group is GroupId.MINORITY else gs.n_a
        greater = n_own - np.searchsorted(own_asc, scores[mask], side="right")
        pos_own, pos_other = _rank_positions(n_own, n_other, greater)
        if group is GroupId.MINORITY:
            pos_a[mask], pos_b[mask] = pos_own, pos_other
        else:
            pos_b[mask], pos_a[mask] = pos_own, pos_other

    return alpha * gs.scores_a[pos_a - 1] + (1.0 - alpha) * gs.scores_b[pos_b - 1]


def calibrate(model: CalibModel, score: float, group: GroupId) -> float:
    """Calibrated score for a single query; in [0, 1] by construction."""
    return float(calibrate_scores(model, [score], [group])[0])


def calibrate_dataset(model: CalibModel, d: ScoreDataset) -> ScoreDataset:
    """Replace every pair's score by its calibrated value."""
    return d.with_scores(calibrate_scores(model, d.scores(), d.is_minority))


def model_to_dict(model: CalibModel) -> dict:
    gs = model.group_scores
    return {
        "alpha": gs.alpha,
        "sigma": gs.sigma,
        "seed": gs.seed,
        "scores_a": [float(x) for x in gs.scores_a],
        "scores_b": [float(x) for x in gs.scores_b],
    }


def model_from_dict(data: dict) -> CalibModel:
    return CalibModel(
        GroupScores(
            np.array(data["scores_a"], dtype=float),
            np.array(data["scores_b"], dtype=float),
            alpha=float(data["alpha"]),
            sigma=float(data["sigma"]),
            seed=int(data["seed"]),
        )
    )


def save_model(model: CalibModel, dest) -> None:
    text = json.dumps(model_to_dict(model), indent=2, sort_keys=True)
    Path(dest).write_text(text + "\n", encoding="utf-8")


def load_model(source) -> CalibModel:
    return model_from_dict(json.loads(Path(source).read_text(encoding="utf-8")))
