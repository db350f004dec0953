"""Label-conditioned calibration.

Splits the fit data at a pseudo-label threshold gamma into predicted
matches (score >= gamma) and non-matches, fits an independent
quantile-barycenter model on each side, and routes every query to the
model of its own side.  Aligning group distributions within each
predicted class targets label-dependent bias (equal opportunity and
equalized odds) instead of plain demographic parity.

Gamma defaults to the midpoint between the two heaviest modes found by
1-D Gaussian-kernel mean shift over the fit scores; matching scores
cluster near 0 and 1, so the midpoint falls in the gap between the
clusters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dataset  # BATCH_ROWS, looked up at each call
from .calibration import CalibModel, calibrate_scores, check_queries, model_to_dict
from .dataset import GroupId, ScoreDataset, _frozen, text_reader, write_json
from .empirical import _group_lists, add_jitter, unit_scores
from .errors import (
    EmptyGroupError,
    EmptyGroupInPartitionError,
    EmptyInputError,
    InputError,
    InvalidParameterError,
    MalformedModelError,
    SingleModeError,
)


DEFAULT_BANDWIDTH = 0.1
MAX_ITERATIONS = 500  # mean-shift steps before every start is taken as converged
CONVERGENCE_TOL = 1e-4  # a start that moves less than this in one step has converged
# the merge radius is bandwidth / 2: modes closer than that are one mode


def check_bandwidth(bandwidth: float) -> None:
    """Reject a bandwidth that is not finite and > 0, or whose kernel
    scale 1/(2*bandwidth**2) is not a finite non-zero float."""
    if not 0 < bandwidth < np.inf:
        raise InvalidParameterError(f"bandwidth must be finite and > 0, got {bandwidth}")
    with np.errstate(over="ignore", divide="ignore"):
        scale = 1.0 / (2.0 * np.float64(bandwidth) ** 2)
    if not 0 < scale < np.inf:
        raise InvalidParameterError(
            f"bandwidth {bandwidth} is too small or too large: 1/(2*bandwidth**2) = {scale}"
        )


# float64 entries in the mean-shift kernel buffer (2 MB): small enough
# to stay in cache, and at least 256 rows of the widest kernel
_KERNEL_BUDGET = 1 << 18
# most weighted points mean shift iterates over; above this many distinct
# scores, the occupied cells of a grid of this many cells on [0, 1]
_MAX_POINTS = 1024


def _weighted_points(data: np.ndarray):
    """Distinct values and their integer masses, or, when there are more
    than :data:`_MAX_POINTS` of them, the occupied cells of a fixed grid.

    Cell ``min(floor(v * _MAX_POINTS), _MAX_POINTS - 1)`` holds value v,
    so 0 and -0 fall in the first cell and 1 in the last.  A cell's mass
    is its summed counts and its position the mass-weighted mean of its
    values (binned kernel estimation, Fan & Marron 1994).
    """
    values, masses = np.unique(data.astype(float), return_counts=True)
    if values.size <= _MAX_POINTS:
        return values, masses
    cells = np.minimum((values * _MAX_POINTS).astype(np.intp), _MAX_POINTS - 1)
    cell_mass = np.bincount(cells, weights=masses)
    occupied = np.flatnonzero(cell_mass)
    weighted = np.bincount(cells, weights=values * masses)
    return weighted[occupied] / cell_mass[occupied], cell_mass[occupied].astype(np.int64)


def _mean_shift_modes(data: np.ndarray, bandwidth: float):
    """Run mean shift from every point; return (modes, attracted counts).

    The points are :func:`_weighted_points`: at most :data:`_MAX_POINTS`
    values, each with a mass.  They are both the starts and the kernel
    columns, weighted by their masses.  Modes within ``bandwidth / 2`` of
    each other are merged; a merged mode's center is the mass-weighted
    mean of its members.

    An iteration takes O(points^2) time, at most ``_MAX_POINTS**2``
    kernel entries whatever the number of scores.  The (active starts x
    points) kernel is built in row blocks, in place, inside one buffer of
    at most ``_KERNEL_BUDGET`` entries.
    """
    values, masses = _weighted_points(data)
    weights = masses.astype(float)
    weighted = values * weights
    positions = values.copy()
    active = np.ones(positions.size, dtype=bool)
    neg_inv_two_h2 = -1.0 / (2.0 * bandwidth**2)
    points = values.size
    step = _KERNEL_BUDGET // points
    buffer = np.empty(min(step, points) * points)
    for _ in range(MAX_ITERATIONS):
        if not active.any():
            break
        current = positions[active]
        shifted = np.empty_like(current)
        for lo in range(0, current.size, step):
            block = current[lo : lo + step]
            kernel = buffer[: block.size * points].reshape(block.size, points)
            np.subtract(block[:, None], values[None, :], out=kernel)
            np.square(kernel, out=kernel)
            np.multiply(kernel, neg_inv_two_h2, out=kernel)
            np.exp(kernel, out=kernel)
            shifted[lo : lo + step] = (kernel @ weighted) / (kernel @ weights)
        moved = np.abs(shifted - current)
        positions[active] = shifted
        active[active] = moved >= CONVERGENCE_TOL

    order = np.argsort(positions, kind="stable")
    centers: list[float] = []
    counts: list[int] = []
    for pos, mass in zip(positions[order], masses[order]):
        if centers and pos - centers[-1] <= bandwidth / 2.0:
            total = counts[-1] + mass
            centers[-1] = (centers[-1] * counts[-1] + pos * mass) / total
            counts[-1] = total
        else:
            centers.append(float(pos))
            counts.append(int(mass))
    return np.array(centers), np.array(counts)


def meanshift_threshold(
    scores: Sequence[float], bandwidth: float = DEFAULT_BANDWIDTH
) -> float:
    """Midpoint between the centers of the two heaviest score modes.

    Raises :class:`SingleModeError` when fewer than two modes survive
    merging; callers may supply a threshold explicitly instead.  NaN,
    inf and scores outside [0, 1] raise :class:`ScoreOutOfRangeError`, and
    a bandwidth :func:`check_bandwidth` rejects :class:`InvalidParameterError`.
    """
    check_bandwidth(bandwidth)
    data = unit_scores(scores, "meanshift scores")
    if data.size == 0:
        raise EmptyInputError("meanshift requires at least two scores")
    if data.size < 2:
        raise SingleModeError("meanshift requires at least two scores")
    centers, counts = _mean_shift_modes(data, bandwidth)
    if centers.size < 2:
        raise SingleModeError(
            "score distribution has a single mode; pass an explicit gamma"
        )
    top_two = np.sort(np.argsort(counts, kind="stable")[-2:])
    return float((centers[top_two[0]] + centers[top_two[1]]) / 2.0)


@dataclass(frozen=True, eq=False)
class CondCalibModel:
    """Gamma, one calibration model per predicted class, and the mean-shift bandwidth."""

    gamma: float
    matched: CalibModel
    unmatched: CalibModel
    bandwidth: float


def fit_conditional(
    d: ScoreDataset,
    sigma: float,
    seed: int,
    gamma_override: float | None = None,
    bandwidth: float = DEFAULT_BANDWIDTH,
    use_true_labels: bool = False,
) -> CondCalibModel:
    """Find gamma (unless overridden), split the data, fit both sides.

    The gamma split uses the raw scores; jitter is applied to the
    stored fit scores only, drawn once (as :func:`~scorecalib.empirical.build_group_scores`
    draws it) for both sides.  Each side's minority weight is computed
    within its own partition.  With ``use_true_labels`` a labeled fit
    set is partitioned by its labels instead of by gamma; queries are
    still routed by gamma, which is needed either way.  A bandwidth
    :func:`check_bandwidth` rejects, even with a gamma given, or a
    ``gamma_override`` not in [0, 1] raises :class:`InvalidParameterError`.
    """
    check_bandwidth(bandwidth)
    raw = d.scores()
    if gamma_override is None:
        gamma = meanshift_threshold(raw, bandwidth)
    else:
        gamma = float(gamma_override)
        if not np.isfinite(gamma):
            raise InvalidParameterError(f"gamma must be finite, got {gamma}")
        if not 0.0 <= gamma <= 1.0:
            raise InvalidParameterError(f"gamma must lie in [0, 1], got {gamma}")
    matched_mask = d.labels() == 1 if use_true_labels else raw >= gamma
    jittered, sides = add_jitter(raw, sigma, seed), []
    for name, mask in (("matched", matched_mask), ("unmatched", ~matched_mask)):
        try:
            sides.append(_group_lists(jittered, d.is_minority, sigma, seed, mask))
        except EmptyGroupError as exc:
            raise EmptyGroupInPartitionError(
                f"{name} partition has {exc}; adjust gamma"
            ) from None
    return CondCalibModel(gamma, *sides, bandwidth)


def cond_calibrate_scores(
    model: CondCalibModel, scores: Sequence[float], groups: Sequence[GroupId]
) -> np.ndarray:
    """Route each query by score >= gamma and calibrate it within its side,
    :data:`~scorecalib.dataset.BATCH_ROWS` queries at a time, into one array."""
    scores, is_minority = check_queries(scores, groups)
    out = np.empty(scores.size)
    for start in range(0, scores.size, dataset.BATCH_ROWS):
        part = slice(start, start + dataset.BATCH_ROWS)
        matched = scores[part] >= model.gamma
        for sub, mask in ((model.matched, matched), (model.unmatched, ~matched)):
            out[part][mask] = calibrate_scores(sub, scores[part][mask], is_minority[part][mask])
    return out


def cond_calibrate(model: CondCalibModel, score: float, group: GroupId) -> float:
    return float(cond_calibrate_scores(model, [score], [group])[0])


def cond_calibrate_dataset(model: CondCalibModel, d: ScoreDataset) -> ScoreDataset:
    return d.with_scores(_frozen(cond_calibrate_scores(model, d.scores(), d.is_minority)))


def model_to_dict_conditional(model: CondCalibModel) -> dict:
    """As :func:`~scorecalib.calibration.model_to_dict`, one block per side."""
    return {
        "gamma": model.gamma,
        "matched": model_to_dict(model.matched),
        "unmatched": model_to_dict(model.unmatched),
        "meanshift": _meanshift_block(model.bandwidth),
    }


def _meanshift_block(bandwidth: float) -> dict:
    """The ``meanshift`` block of ``model.json``: only the bandwidth varies."""
    return {
        "bandwidth": bandwidth,
        "tol": CONVERGENCE_TOL,
        "max_iter": MAX_ITERATIONS,
        "merge_radius": bandwidth / 2.0,
    }


def save_model(model: CalibModel | CondCalibModel, dest) -> None:
    """Write a fitted model as the CLI's ``model.json``: its dict plus
    ``"algorithm"`` ("calib" or "ccalib")."""
    if isinstance(model, CondCalibModel):
        payload = {"algorithm": "ccalib", **model_to_dict_conditional(model)}
    else:
        payload = {"algorithm": "calib", **model_to_dict(model)}
    write_json(dest, payload)


_NUMBER = (int, float)
_JSON_TYPE = {list: "a list", dict: "an object", int: "an integer", _NUMBER: "a number"}


def _field(data: dict, key: str, kind, where: str = "model"):
    """``data[key]`` if it is a ``kind`` (never a bool); else malformed."""
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedModelError(
            f"{where} key {key!r} must be {_JSON_TYPE[kind]}, got {value!r:.40}"
        )
    return value


def _only_keys(data: dict, keys, where: str) -> None:
    """Reject a key save_model does not write, so a loaded file saves to the same bytes."""
    if extra := data.keys() - set(keys):
        raise MalformedModelError(f"{where} key {min(extra)!r} is not one save_model writes")


def _calib_from_dict(data: dict, where: str = "model") -> CalibModel:
    """A ``calib`` dict's model; ``alpha`` must be its lists' minority share."""
    lists = [_field(data, key, list, where) for key in ("scores_a", "scores_b")]
    alpha, sigma = (_field(data, key, _NUMBER, where) for key in ("alpha", "sigma"))
    seed = _field(data, "seed", int, where)
    _only_keys(data, ("scores_a", "scores_b", "alpha", "sigma", "seed"), where)
    try:
        model = CalibModel(*lists, sigma=sigma, seed=seed)
        if not abs(alpha - model.alpha) <= 1e-12:
            raise ValueError(f"alpha {alpha} != |scores_a|/|D| = {model.alpha}")
    except (ValueError, OverflowError, EmptyGroupError) as exc:
        raise MalformedModelError(f"{where}: {exc}") from None
    return model


def _ccalib_from_dict(data: dict) -> CondCalibModel:
    gamma = _field(data, "gamma", _NUMBER)
    _only_keys(data, ("gamma", "matched", "unmatched", "meanshift"), "model")
    if not 0 <= gamma <= 1:
        raise MalformedModelError(f"model gamma {gamma!r} lies outside [0, 1]")
    sides = [
        _calib_from_dict(_field(data, key, dict), f"model.{key}")
        for key in ("matched", "unmatched")
    ]
    ms = _field(data, "meanshift", dict)
    bandwidth = _field(ms, "bandwidth", _NUMBER, "model.meanshift")
    for key, kind in (("max_iter", int), ("tol", _NUMBER), ("merge_radius", _NUMBER)):
        _field(ms, key, kind, "model.meanshift")
    try:
        check_bandwidth(bandwidth)
    except (InvalidParameterError, OverflowError) as exc:
        raise MalformedModelError(f"model.meanshift: {exc}") from None
    # only the block save_model writes is read, so a loaded file saves to the same bytes
    expected = _meanshift_block(bandwidth)
    if ms != expected:
        raise MalformedModelError(
            f"model.meanshift: expected {expected} (only the bandwidth varies), got {ms!r:.80}"
        )
    return CondCalibModel(gamma, *sides, bandwidth)


def load_model(source) -> CalibModel | CondCalibModel:
    """Read a model written by :func:`save_model` or the CLI (path, bytes
    or file object).

    Dispatches on ``"algorithm"``; a file without it is read by its
    shape, a ``"gamma"`` key meaning ``ccalib``.  Any file that is not a
    valid model, or that holds a key :func:`save_model` does not write,
    raises :class:`MalformedModelError`.
    """
    try:
        with text_reader(source) as f:
            data = json.load(f)
    except (InputError, ValueError, RecursionError) as exc:
        raise MalformedModelError(f"model file is not UTF-8 JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedModelError("model file must hold a JSON object")
    algorithm = data.pop("algorithm", "ccalib" if "gamma" in data else "calib")
    if algorithm == "calib":
        return _calib_from_dict(data)
    if algorithm == "ccalib":
        return _ccalib_from_dict(data)
    raise MalformedModelError(f"unknown model algorithm {algorithm!r}")
