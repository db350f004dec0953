"""The per-row CSV parsers the columnar ingest replaced, kept as oracles.

``parse_rows`` and ``dataset_from_rows`` read a scored-pair file one row
at a time and name the file line of the first bad row;
``curve_from_csv`` parses a curve CSV one field at a time.  The tests
require the library to accept what these accept, build the same
objects, and raise the same exception class with the same message.
"""

from __future__ import annotations

import csv
import io
from array import array
from pathlib import Path

import numpy as np

from scorecalib.dataset import GroupId, ScoreDataset
from scorecalib.empirical import StepCurve
from scorecalib.errors import (
    InputError,
    MalformedCurveError,
    MalformedRowError,
    ScoreOutOfRangeError,
)


def text_stream(source) -> io.StringIO:
    """Text of a path, bytes, or text file object (UTF-8), as a stream for
    ``csv``.  Each is read with ``newline=""``, as ``csv`` asks, so lines
    end at LF, CRLF or a bare CR and a CR inside a quoted field is kept."""
    try:
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8", newline="") as f:
                return io.StringIO(f.read(), newline="")
        if isinstance(source, bytes):
            return io.StringIO(source.decode("utf-8"), newline="")
        return io.StringIO(source.read(), newline="")
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8 text: {exc}") from None


class CsvRows(list):
    """Data rows of a CSV file, with ``line_nums[i]`` the file line row i ends on."""

    def __init__(self):
        super().__init__()
        self.line_nums = array("q")


def parse_rows(source, schema) -> CsvRows:
    expected = schema.header
    reader = csv.reader(text_stream(source))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedRowError("empty file: header row required") from None
    if tuple(h.strip() for h in header) != expected:
        raise MalformedRowError(
            f"expected header {','.join(expected)!r}, got {','.join(header)!r}"
        )
    rows = CsvRows()
    for row in reader:
        if not row:
            continue
        if len(row) != len(expected):
            raise MalformedRowError(
                f"line {reader.line_num}: expected {len(expected)} columns, got {len(row)}"
            )
        rows.append(row)
        rows.line_nums.append(reader.line_num)
    return rows


def _check_score(score: float) -> float:
    if not (0.0 <= score <= 1.0):
        raise ScoreOutOfRangeError(f"score {score!r} outside [0, 1]")
    return score


def _parse_score(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRowError(f"bad score {text!r}") from None
    return _check_score(value)


_LABELS = {"": -1, "0": 0, "1": 1}


def _parse_label(text: str) -> int:
    text = text.strip()
    if text not in _LABELS:
        raise MalformedRowError(f"label must be 0, 1 or empty, got {text!r}")
    return _LABELS[text]


def dataset_from_rows(rows: CsvRows, schema, vocab) -> ScoreDataset:
    group_fields = slice(2, len(schema.header) - 1)
    ids, scores, minority, labels = [], [], [], []
    line = None
    try:
        for line, row in zip(rows.line_nums, rows):
            ids.append(row[0])
            scores.append(_parse_score(row[1]))
            groups = [vocab.resolve(token.strip()) for token in row[group_fields]]
            minority.append(GroupId.MINORITY in groups)
            labels.append(_parse_label(row[-1]))
    except InputError as exc:
        raise type(exc)(f"line {line}: {exc}") from None
    return ScoreDataset(ids, scores, minority, labels)


def curve_from_csv(source) -> StepCurve:
    reader = csv.reader(text_stream(source))
    rows = [row for row in reader if row]
    if not rows or tuple(rows[0]) != ("theta", "value"):
        raise MalformedCurveError("curve CSV must start with header 'theta,value'")
    if len(rows) < 2:
        raise MalformedCurveError("curve CSV has no data rows")
    try:
        thetas = [float(r[0]) for r in rows[1:]]
        values = [float(r[1]) for r in rows[1:]]
    except (ValueError, IndexError):
        raise MalformedCurveError("curve CSV has a malformed row") from None
    if not np.isfinite(thetas + values).all():
        raise MalformedCurveError("curve CSV holds a NaN or infinite number")
    if thetas[0] != 0.0:
        raise MalformedCurveError("first curve row must be for theta=0")
    try:
        return StepCurve(np.array(thetas[1:]), np.array(values))
    except ValueError as exc:
        raise MalformedCurveError(str(exc)) from None
