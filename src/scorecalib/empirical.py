"""Empirical score-distribution machinery.

Jittered per-group score lists, piecewise-constant threshold curves
(positive rate and its label-conditioned variants), rank-statistic AUC,
and the exact 1-D Wasserstein-1 distance between empirical
distributions on [0, 1].
"""

from __future__ import annotations

import csv
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from . import dataset  # BATCH_ROWS and float_text, looked up at each call
from .dataset import GroupId, ScoreDataset, _column, _frozen, _write_rows, text_writer
from .errors import (
    EmptyGroupError,
    EmptyInputError,
    EmptyStratumError,
    InvalidParameterError,
    MalformedCurveError,
    ScoreOutOfRangeError,
    SingleClassError,
    UnlabeledDatasetError,
)

DEFAULT_SIGMA = 0.05


def unit_scores(scores: Sequence[float], what: str) -> np.ndarray:
    """``scores`` as a float array; raises :class:`ScoreOutOfRangeError`
    naming ``what`` unless each lies in [0, 1] (NaN does not)."""
    arr = np.asarray(scores, dtype=float)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ScoreOutOfRangeError(f"{what} must lie in [0, 1]")
    return arr


def add_jitter(scores: Sequence[float], sigma: float, seed: int) -> np.ndarray:
    """Add Gaussian noise N(0, sigma^2) to each score and clamp to [0, 1].

    Deterministic for a given seed >= 0 (numpy PCG64).  With ``sigma == 0``
    the input is returned unchanged (as a copy).  A score outside [0, 1],
    NaN included, raises :class:`ScoreOutOfRangeError`.  The noise is drawn
    :data:`~scorecalib.dataset.BATCH_ROWS` at a time: one whole draw's stream.
    """
    if not 0 <= sigma < np.inf:
        raise InvalidParameterError(f"sigma must be finite and >= 0, got {sigma}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    out = unit_scores(scores, "scores to jitter").copy()
    if sigma == 0 or out.size == 0:
        return out
    rng = np.random.default_rng(seed)
    for part in np.split(out, range(dataset.BATCH_ROWS, out.size, dataset.BATCH_ROWS)):  # views
        part += rng.normal(0.0, sigma, part.size)
    np.clip(out, 0.0, 1.0, out=out)
    return out


@dataclass(frozen=True, eq=False)
class CalibModel:
    """A fitted calibrator: each group's descending score list and the
    jitter that made them; the minority weight ``alpha`` is the minority
    share of the fit data, n_a / (n_a + n_b).  Immutable and thread-safe."""

    scores_a: np.ndarray  # minority, sorted descending
    scores_b: np.ndarray  # majority, sorted descending
    sigma: float
    seed: int

    def __post_init__(self):
        lists = {name: np.asarray(getattr(self, name)) for name in ("scores_a", "scores_b")}
        for name, arr in lists.items():
            if arr.ndim != 1 or arr.dtype.kind not in "iuf":
                raise ValueError(f"{name} must be a flat list of numbers")
        if not all(arr.size for arr in lists.values()):
            raise EmptyGroupError("both group score lists must be non-empty")
        # every check is written so that NaN fails it
        for name, arr in lists.items():
            arr = _column(arr, np.float64)
            if np.any(arr[1:] > arr[:-1]):
                raise ValueError(f"{name} must be sorted non-increasing")
            object.__setattr__(self, name, unit_scores(arr, f"{name} values"))
        if not 0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def n_a(self) -> int:
        return self.scores_a.size

    @property
    def n_b(self) -> int:
        return self.scores_b.size

    @property
    def alpha(self) -> float:
        return self.n_a / (self.n_a + self.n_b)


def build_group_scores(d: ScoreDataset, sigma: float, seed: int) -> CalibModel:
    """Jitter all scores (one stream, dataset order), split and sort.

    Raises :class:`EmptyGroupError` if either group has no pairs.
    """
    return _group_lists(add_jitter(d.scores(), sigma, seed), d.is_minority, sigma, seed, True)


def _group_lists(jittered, is_minority, sigma: float, seed: int, keep) -> CalibModel:
    """:func:`build_group_scores` of scores already jittered: each group's
    scores that the mask ``keep`` (or True) keeps, sorted in place, descending."""
    a, b = (_frozen(_sort_unit(jittered[keep & side], descending=True))
            for side in (is_minority, ~is_minority))
    if a.size == 0 or b.size == 0:
        raise EmptyGroupError(f"no {'minority' if a.size == 0 else 'majority'} pairs")
    return CalibModel(a, b, sigma, seed)


def _sort_unit(scores: np.ndarray, descending: bool = False) -> np.ndarray:
    """``scores``, in [0, 1], sorted: ascending as a copy, or descending in
    place (the sort of its negatives, negated back; the caller owns the
    array).  The zero run is every -0.0 below every 0.0, counted before
    the sort: a sort may flip the signs of equal zeros."""
    negative = np.signbit(scores).sum()  # in [0, 1] only -0.0 has its sign bit set
    if descending:
        np.negative(scores, out=scores)
        scores.sort()
        asc = np.negative(scores, out=scores)[::-1]  # a view
    else:
        scores = asc = np.sort(scores)
    asc[:negative] = -0.0
    asc[negative:np.searchsorted(asc, 0.0, "right")] = 0.0
    return scores


@dataclass(frozen=True, eq=False)
class StepCurve:
    """Piecewise-constant function of the threshold on [0, 1].

    ``values[0]`` holds on ``[0, breakpoints[0]]`` and ``values[i]`` on
    ``(breakpoints[i-1], breakpoints[i]]``; the last value extends to 1.
    The value AT a breakpoint is the one on the interval ending there,
    so a positive-rate curve still counts a score at its own threshold.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = _column(self.breakpoints, np.float64)
        va = _column(self.values, np.float64)
        if va.size != bp.size + 1:
            raise ValueError(
                f"need {bp.size + 1} values for {bp.size} breakpoints, got {va.size}"
            )
        # every check is written so that NaN fails it
        if not np.all(bp[1:] > bp[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        unit_scores(bp, "breakpoints")
        if not np.isfinite(va).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", va)

    def __call__(self, theta):
        """Evaluate at threshold(s) in [0, 1]."""
        idx = np.searchsorted(self.breakpoints, theta, side="left")
        result = self.values[idx]
        return float(result) if np.isscalar(theta) else result

    def to_csv(self, dest) -> None:
        """Write ``theta,value`` rows: one for theta=0, one per breakpoint."""
        write_curves({dest: self})

    @classmethod
    def from_csv(cls, source) -> "StepCurve":
        """Read a curve that :meth:`to_csv` wrote (path, bytes or file object).

        The input is read once, in one stream
        (:func:`~scorecalib.dataset.text_reader`) that goes through
        ``csv.reader`` :data:`~scorecalib.dataset.BATCH_ROWS` rows at a time,
        with cyclic GC paused: blank rows are dropped, extra fields ignored,
        and two float64 columns grow in place, as ``CsvRows`` grows its
        scores; the curve holds them without a copy.  Faults are raised
        after the last row, in the order a whole-file parse meets them: text
        that is not UTF-8 (InputError), a ``csv`` error, the header, no data
        rows, a malformed row (:class:`MalformedCurveError`).
        """
        thetas, values, n, malformed, error = np.empty(0), np.empty(0), 0, False, None
        with dataset._gc_paused(), dataset.text_reader(source) as f:
            reader = csv.reader(f)
            rows = filter(None, reader)
            try:
                header = next(rows, None)
                while chunk := list(islice(rows, dataset.BATCH_ROWS)):
                    try:
                        for j, column in enumerate((thetas, values)):
                            column.resize(n + len(chunk), refcheck=False)  # in place: no view of it is left
                            column[n:] = np.fromiter(map(float, [row[j] for row in chunk]),
                                                     np.float64, len(chunk))
                        n += len(chunk)
                    except (ValueError, IndexError):
                        malformed = True
                    del chunk  # not alive while the next batch is read
            except csv.Error as exc:  # raised once the rest of the stream is decoded
                error = MalformedCurveError(f"curve CSV line {reader.line_num}: {exc}")
        if error:
            raise error
        if header != ["theta", "value"]:
            raise MalformedCurveError("curve CSV must start with header 'theta,value'")
        if not (n or malformed):
            raise MalformedCurveError("curve CSV has no data rows")
        if malformed:
            raise MalformedCurveError("curve CSV has a malformed row")
        if not (np.isfinite(thetas).all() and np.isfinite(values).all()):
            raise MalformedCurveError("curve CSV holds a NaN or infinite number")
        if thetas[0] != 0.0:
            raise MalformedCurveError("first curve row must be for theta=0")
        # the breakpoints moved down in place; both columns read-only and
        # owning their data, so the curve holds them without a copy
        thetas[:-1] = thetas[1:]
        thetas.resize(n - 1, refcheck=False)
        try:
            return cls(_frozen(thetas), _frozen(values))
        except ValueError as exc:
            raise MalformedCurveError(str(exc)) from None


def write_curves(curves: dict) -> None:
    """Write each curve of ``curves`` (destination: :class:`StepCurve`) as
    :meth:`StepCurve.to_csv` does, in one :func:`curve_batches` walk.  The
    batch's thetas, all curves' together, go through one
    :func:`~scorecalib.dataset.float_text` call, which alone decides which
    of them share text (-0.0 apart from 0.0), and each curve writes its
    slice.  Each open file holds one batch of text."""
    with ExitStack() as stack:
        files = [stack.enter_context(text_writer(dest)) for dest in curves]
        for f, curve in zip(files, curves.values()):
            f.write(f"theta,value\n0,{float(curve.values[0])!r}\n")
        for batch in curve_batches(list(curves.values())):
            text = iter(dataset.float_text(np.concatenate([bp for bp, _ in batch])))
            for f, (bp, values) in zip(files, batch):
                if bp.size:  # the batch's next bp.size thetas are this curve's
                    _write_rows(f, [list(islice(text, bp.size)), dataset.float_text(values[1:])])


def curve_batches(curves: Sequence[StepCurve]):
    """One walk over the curves' ascending breakpoints, in batches: each
    batch is, per curve, ``(breakpoints[k:k+n], values[k:k+n+1])``, its
    breakpoints up to the lowest of all curves' next ``BATCH_ROWS``-th
    one, the values on the intervals that end at them, and the value
    above the last.  So no curve adds more than ``BATCH_ROWS`` rows."""
    done = [0] * len(curves)
    while any(k < c.breakpoints.size for k, c in zip(done, curves)):
        rest, batch = [c.breakpoints[k:] for k, c in zip(done, curves)], dataset.BATCH_ROWS
        top = min((bp[batch - 1] for bp in rest if bp.size >= batch), default=np.inf)
        cuts = [int(np.searchsorted(bp, top, "right")) for bp in rest]
        yield [(bp[:n], c.values[k:k + n + 1]) for bp, c, k, n in zip(rest, curves, done, cuts)]
        done = [k + n for k, n in zip(done, cuts)]


def pr_curve(scores: Sequence[float]) -> StepCurve:
    """Fraction of scores >= theta, as a step function of theta.

    Non-increasing; equals 1 on [0, min(scores)] and 0 above max(scores).
    One sort (:func:`_sort_unit`); a breakpoint ends each run of equal
    scores, so a zero one is -0.0 iff every zero score is -0.0.
    """
    arr = unit_scores(scores, "scores")
    if arr.size == 0:
        raise EmptyInputError("cannot build a curve from an empty score list")
    asc, n = _sort_unit(arr), arr.size
    ends = np.flatnonzero(np.append(asc[1:] != asc[:-1], True))
    # value above each breakpoint = fraction strictly greater than it,
    # counted straight into float64 (exact below 2**53), then divided
    values = np.full(ends.size + 1, float(n))
    np.subtract(n - 1, ends, out=values[1:])
    values /= n
    return StepCurve(_frozen(asc[ends]), _frozen(values))


def conditional_curve(d: ScoreDataset, group: GroupId, label: int) -> StepCurve:
    """Positive-rate curve restricted to one (group, label) stratum."""
    if not d.labeled:
        raise UnlabeledDatasetError(
            "label-conditioned curves require a fully labeled dataset"
        )
    stratum = d.stratum_scores(group, label)
    if stratum.size == 0:
        raise EmptyStratumError(f"no pairs with group={group.value}, label={label}")
    return pr_curve(stratum)


def auc(d: ScoreDataset, group: GroupId | None = None) -> float:
    """Area under the empirical ROC curve of ``d``, or of one ``group``'s
    pairs read by mask: a positive outranks a negative, ties at half credit.
    """
    if not d.labeled:
        raise UnlabeledDatasetError("AUC requires a fully labeled dataset")
    in_group = True if group is None else d._mask(group)
    pos, neg = (d.scores()[(d.labels() == label) & in_group] for label in (1, 0))
    if pos.size == 0 or neg.size == 0:
        raise SingleClassError("AUC requires both label classes")
    pos.sort()
    neg.sort()
    below = ties = 0  # integer sums over batches of positives: the float result is unchanged
    for start in range(0, pos.size, dataset.BATCH_ROWS):
        part = pos[start:start + dataset.BATCH_ROWS]
        left = np.searchsorted(neg, part, side="left")
        below += left.sum()
        ties += (np.searchsorted(neg, part, side="right") - left).sum()
    wins = below + 0.5 * ties
    return float(wins / (pos.size * neg.size))


def merged_grid_batches(c1: StepCurve, c2: StepCurve):
    """Both curves on their merged breakpoint grid, in batches
    ``(grid, v1, v2)`` of one :func:`curve_batches` walk: the merged
    breakpoints, then 1.0 alone as the last batch, and each curve's value
    on the interval that ends at each of those points."""
    for batch in curve_batches([c1, c2]):
        # the union of the heads (np.union1d imports numpy.ma): a stable sort,
        # then the first of each run, so a zero both curves have is the first's
        grid = np.sort(np.concatenate([head for head, _ in batch]), kind="stable")
        grid = grid[np.append(True, grid[1:] != grid[:-1])]
        # below the batch's top, each curve's breakpoints are its head's
        yield grid, *(values[np.searchsorted(head, grid, "left")] for head, values in batch)
    one = np.array([1.0])
    yield one, c1(one), c2(one)


def integrate_abs_difference(c1: StepCurve, c2: StepCurve) -> float:
    """Exact integral of |c1 - c2| over [0, 1] via merged breakpoints,
    summed by one ``np.sum`` over the terms of a :func:`merged_grid_batches`
    walk.  Memory: one float per merged grid point (allocated at one per
    breakpoint of either curve), plus O(``BATCH_ROWS``)."""
    terms = np.empty(c1.breakpoints.size + c2.breakpoints.size + 1)
    filled, prev = 0, 0.0
    for grid, v1, v2 in merged_grid_batches(c1, c2):
        if prev == 1.0:  # a breakpoint at 1 ends the last interval
            break
        part = np.subtract(v1, v2, out=terms[filled:filled + grid.size])
        np.abs(part, out=part)
        part[0] *= grid[0] - prev
        part[1:] *= np.diff(grid)
        filled, prev = filled + grid.size, grid[-1]
        del grid, v1, v2  # not alive while the walk builds the next batch
    return float(np.sum(terms[:filled]))


def gap_curve(c1: StepCurve, c2: StepCurve) -> StepCurve:
    """|c1 - c2| as a step curve on the merged breakpoint grid."""
    grid, v1, v2 = (np.concatenate(part) for part in zip(*merged_grid_batches(c1, c2)))
    return StepCurve(grid[:-1], np.abs(v1 - v2))


def w1_distance(x: Sequence[float], y: Sequence[float]) -> float:
    """Wasserstein-1 distance between empirical distributions on [0, 1].

    Computed exactly as the integral of |F_x - F_y|, which equals that of
    the difference of their positive-rate curves.
    """
    return integrate_abs_difference(pr_curve(x), pr_curve(y))
