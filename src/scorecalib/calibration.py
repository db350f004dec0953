"""Quantile-barycenter score calibration.

Fits per-group empirical score distributions and maps every query score
to the weighted average of the two group quantiles at the query's rank
level, where the weight is the minority share of the fit data.  The
output distribution is the 1-D Wasserstein barycenter of the two group
distributions, which equalizes positive rates across groups at every
threshold while moving scores as little as possible.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import dataset  # BATCH_ROWS, looked up at each call
from .dataset import GroupId, ScoreDataset, _frozen, minority_mask
from .empirical import CalibModel, build_group_scores, unit_scores
from .errors import LengthMismatchError


def fit(d: ScoreDataset, sigma: float, seed: int) -> CalibModel:
    """Fit once on a dataset; the model is reused across queries."""
    return build_group_scores(d, sigma, seed)


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


def check_queries(scores: Sequence[float], groups) -> tuple[np.ndarray, np.ndarray]:
    """Query scores as a float array, each in [0, 1], and their minority
    flags (from bools or :class:`GroupId` members), of equal length."""
    scores = unit_scores(scores, "query scores")
    is_minority = minority_mask(groups)
    if is_minority.size != scores.size:
        raise LengthMismatchError(f"{scores.size} scores for {is_minority.size} groups")
    return scores, is_minority


def calibrate_scores(
    model: CalibModel, scores: Sequence[float], groups: Sequence[GroupId]
) -> np.ndarray:
    """Vectorized calibration of many (score, group) queries.

    ``groups`` may also be a bool array of minority flags.  Each group's
    queries are ranked :data:`~scorecalib.dataset.BATCH_ROWS` at a time,
    into one output array.
    """
    scores, is_minority = check_queries(scores, groups)
    out = np.empty(scores.size)
    alpha, batch = model.alpha, dataset.BATCH_ROWS
    for minority, own_desc, n_other in ((True, model.scores_a, model.n_b),
                                        (False, model.scores_b, model.n_a)):
        own_asc = own_desc[::-1]  # a view: searchsorted takes its stride as it is
        for start in range(0, scores.size, batch):
            at = start + np.flatnonzero(is_minority[start:start + batch] == minority)
            greater = own_asc.size - np.searchsorted(own_asc, scores[at], side="right")
            pos_own, pos_other = _rank_positions(own_asc.size, n_other, greater)
            pos_a, pos_b = (pos_own, pos_other) if minority else (pos_other, pos_own)
            out[at] = alpha * model.scores_a[pos_a - 1] + (1.0 - alpha) * model.scores_b[pos_b - 1]
    return out


def calibrate(model: CalibModel, score: float, group: GroupId) -> float:
    """Calibrated score for a single query; in [0, 1] by construction."""
    return float(calibrate_scores(model, [score], [group])[0])


def calibrate_dataset(model: CalibModel, d: ScoreDataset) -> ScoreDataset:
    """Replace every pair's score by its calibrated value."""
    return d.with_scores(_frozen(calibrate_scores(model, d.scores(), d.is_minority)))


def model_to_dict(model: CalibModel) -> dict:
    """The model as ``model.json`` holds it; the score lists are the model's
    read-only arrays, which :func:`~scorecalib.dataset.write_json` writes
    as JSON lists."""
    return {
        "alpha": model.alpha,
        "sigma": model.sigma,
        "seed": model.seed,
        "scores_a": model.scores_a,
        "scores_b": model.scores_b,
    }
