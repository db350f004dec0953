"""Scored record pairs: domain types, validation, and CSV ingestion.

A pair carries a matching score in [0, 1], a binary group membership
(minority/majority), and an optional binary label.  Pair-level files
give the group directly; record-level files give one group token per
record and the pair counts as minority if either record does.
"""

from __future__ import annotations

import csv
import enum
import gc
import io
import json
import re
from contextlib import ExitStack, contextmanager
from functools import partial
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InputError,
    LengthMismatchError,
    MalformedRowError,
    ScoreOutOfRangeError,
    UnknownGroupError,
    UnlabeledDatasetError,
)


class GroupId(enum.Enum):
    """Demographic group of a record pair."""

    MINORITY = "minority"
    MAJORITY = "majority"


# indexed by an is-minority flag
_GROUP_OF = (GroupId.MAJORITY, GroupId.MINORITY)


class Schema(enum.Enum):
    """CSV layouts accepted by :func:`load_dataset`."""

    PAIR_LEVEL = "pair"
    RECORD_LEVEL = "record"

    @property
    def header(self) -> tuple[str, ...]:
        return PAIR_HEADER if self is Schema.PAIR_LEVEL else RECORD_HEADER


PAIR_HEADER = ("id", "score", "group", "label")
RECORD_HEADER = ("id", "score", "group_left", "group_right", "label")


def _check_score(score: float, context: str = "") -> float:
    score = float(score)
    # a NaN fails both comparisons, so it is rejected here too
    if not (0.0 <= score <= 1.0):
        raise ScoreOutOfRangeError(f"score {score!r} outside [0, 1]{context}")
    return score


def _column(values, dtype, copy=np.array) -> np.ndarray:
    """``values`` held as it is if it is a read-only ``dtype`` array that owns
    its data (as the package's own arrays are), else a read-only ``copy``."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        return values
    return _frozen(copy(values, dtype=dtype))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only: a new array handed over to a holder."""
    arr.setflags(write=False)
    return arr


# UTF-8 text with no object per id; an id of up to 15 bytes is held inline.
# A new dtype instance per array: an array built from a StringDType instance
# may share its string arena with the next array built from it, which then
# makes a longer id of the first unreadable (MemoryError)
_ID = partial(np.dtypes.StringDType, coerce=False)


def minority_mask(groups) -> np.ndarray:
    """Minority flags from bool flags (returned as an array) or GroupIds."""
    arr = np.asarray(groups)
    if arr.dtype == bool:
        return arr
    flags = arr.tolist()
    for g in flags:
        if not isinstance(g, GroupId):
            raise TypeError(f"group must be a GroupId or a bool flag, got {g!r}")
    return np.array([g is GroupId.MINORITY for g in flags], dtype=bool)


class Tokens:
    """A column of str held as integer codes into ``table``, an object
    array of its distinct str: item ``i`` is ``table[codes[i]]``, and a
    slice is an object array of the slice's str."""

    __slots__ = ("codes", "table")

    def __init__(self, codes: np.ndarray, table: np.ndarray):
        self.codes, self.table = codes, table

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        return self.table[self.codes[i]]


@dataclass(frozen=True, eq=False, init=False, repr=False)
class ScoreDataset:
    """Immutable, validated scored pairs held as read-only columns.

    ``ids`` is a numpy ``StringDType`` array and ``is_minority`` a bool
    array; scores (float64 in [0, 1]) and labels (int8: 0, 1, or -1 for
    missing) are read through :meth:`scores` and :meth:`labels`.
    ``labeled`` is true iff every pair carries a label; mixed labeling is
    permitted and simply yields an unlabeled dataset.  A column given as a
    read-only array of its dtype that owns its data (for ``ids``,
    ``StringDType(coerce=False)``) is held as it is (see :func:`_column`),
    so a dataset from :meth:`with_scores` shares its ids, groups and labels
    with its source; any other column (or iterable of str) is copied.
    """

    ids: np.ndarray
    is_minority: np.ndarray
    labeled: bool
    _scores: np.ndarray
    _labels: np.ndarray

    def __init__(self, ids: Iterable[str], scores, is_minority, labels=None):
        if isinstance(ids, (str, bytes)):
            raise TypeError(f"expected an iterable of str, got {type(ids).__name__}")
        try:
            ids = _column(ids, _ID(), np.fromiter)  # any other iterable of str is copied
        except ValueError as exc:  # an item not a str, or a lone surrogate (no UTF-8 form)
            raise TypeError(f"ids must be str: {exc}") from None
        is_minority = np.asarray(is_minority)
        if is_minority.size and is_minority.dtype != bool:
            raise TypeError(f"is_minority must hold bools, got dtype {is_minority.dtype}")
        raw_labels = np.asarray(labels) if labels is not None else _frozen(
            np.full(len(ids), -1, np.int8))
        # bool masks only: np.isin's table lookup takes 12 bytes a label
        if not np.all((raw_labels == -1) | (raw_labels == 0) | (raw_labels == 1)):
            raise MalformedRowError("labels must be 0, 1 or -1 (missing)")
        columns = {
            "ids": ids,
            "is_minority": _column(is_minority, bool),
            "_scores": _column(scores, np.float64),
            "_labels": _column(raw_labels, np.int8),
        }
        sizes = {len(col) for col in columns.values()}
        if len(sizes) > 1:
            raise LengthMismatchError(f"column lengths differ: {sorted(sizes)}")
        scores = columns["_scores"]
        bad = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))
        if bad.size:
            i = bad[0]
            _check_score(scores[i], f" (pair {ids[i]!r})")
        for name, col in columns.items():
            object.__setattr__(self, name, col)
        object.__setattr__(self, "labeled", bool((columns["_labels"] >= 0).all()))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoreDataset):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in ("ids", "_scores", "is_minority", "_labels")
        )

    def _require_labels(self) -> None:
        if not self.labeled:
            raise UnlabeledDatasetError("dataset has pairs with missing labels")

    def _mask(self, group: GroupId) -> np.ndarray:
        return self.is_minority if group is GroupId.MINORITY else ~self.is_minority

    def scores(self) -> np.ndarray:
        return self._scores

    def groups(self) -> list[GroupId]:
        return [_GROUP_OF[m] for m in self.is_minority.tolist()]

    def labels(self) -> np.ndarray:
        self._require_labels()
        return self._labels

    def group_scores(self, group: GroupId) -> np.ndarray:
        return self._scores[self._mask(group)]

    def stratum_scores(self, group: GroupId, label: int) -> np.ndarray:
        self._require_labels()
        return self._scores[self._mask(group) & (self._labels == label)]

    def count(self, group: GroupId) -> int:
        return int(np.count_nonzero(self._mask(group)))

    def subset(self, group: GroupId) -> "ScoreDataset":
        mask = self._mask(group)
        return ScoreDataset(
            *(_frozen(c[mask]) for c in (self.ids, self._scores, self.is_minority, self._labels)))

    def with_scores(self, new_scores: Sequence[float]) -> "ScoreDataset":
        """Same pairs (ids, groups, labels) with scores replaced."""
        if len(new_scores) != len(self):
            raise LengthMismatchError(f"{len(new_scores)} scores for {len(self)} pairs")
        return ScoreDataset(self.ids, new_scores, self.is_minority, self._labels)


class GroupVocabulary:
    """Maps raw group tokens to :class:`GroupId`.

    One token is declared minority.  When a majority token is declared,
    the vocabulary is closed and any other token is rejected; otherwise
    every non-minority, non-empty token counts as majority.
    """

    def __init__(self, minority_token: str, majority_token: str | None = None):
        if not minority_token:
            raise UnknownGroupError("minority token must be a non-empty string")
        if majority_token == minority_token:
            raise UnknownGroupError("minority and majority tokens must differ")
        self.minority_token = minority_token
        self.majority_token = majority_token

    def resolve(self, token: str) -> GroupId:
        if token == self.minority_token:
            return GroupId.MINORITY
        if self.majority_token is None:
            if token == "":
                raise UnknownGroupError("empty group token")
            return GroupId.MAJORITY
        if token == self.majority_token:
            return GroupId.MAJORITY
        raise UnknownGroupError(
            f"group token {token!r} not in vocabulary "
            f"({self.minority_token!r}, {self.majority_token!r})"
        )


class _CountedBytes(io.RawIOBase):
    """A binary stream's bytes, with ``count``, the number handed out."""

    def __init__(self, stream):
        self.stream, self.count = stream, 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = self.stream.read(len(buffer))
        buffer[:len(data)] = data
        self.count += len(data)
        return len(data)


@contextmanager
def text_reader(source):
    """``source`` as one text stream, read once and to its end: the bytes
    of a path (opened once), bytes or a binary file object are decoded as
    UTF-8 as they are read, split into lines as ``csv`` asks (``newline=""``),
    and a text file object is read as it is.  A byte that is not UTF-8
    raises :class:`InputError`, with the message decoding the whole text gives."""
    # lines split at LF, CRLF and a bare CR, but not inside a quoted field.
    # When the block ends without an error, the rest of the stream is read,
    # so a bad byte anywhere wins.  A text file object's error keeps the
    # position its own decoder gives
    raw = None
    try:
        with ExitStack() as stack:
            if isinstance(source, (str, Path)):
                source = stack.enter_context(open(source, "rb"))
            elif isinstance(source, bytes):
                source = io.BytesIO(source)
            if isinstance(source.read(0), bytes):
                raw = _CountedBytes(source)
                source = stack.enter_context(io.TextIOWrapper(raw, encoding="utf-8", newline=""))
            yield source
            while source.read(1 << 16):
                pass
    except UnicodeDecodeError as exc:
        # the decoder's exc.object is the bytes it held back and the last ones read
        start = exc.start + (raw.count - len(exc.object) if raw else 0)
        where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if exc.end - exc.start == 1
                 else f"bytes in position {start}-{start + exc.end - exc.start - 1}")
        raise InputError(f"input is not UTF-8 text: '{exc.encoding}' codec can't decode "
                         f"{where}: {exc.reason}") from None


@contextmanager
def text_writer(dest):
    """``dest`` as a text file to write: a path is opened (and closed) here,
    an open text file is used as it is."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as f:
            yield f
    else:
        yield dest


BATCH_ROWS = 8192  # rows read or written per batch; only one batch's rows or text are alive at a time
_QUOTED = (",", '"', "\r", "\n")


def float_text(values: np.ndarray) -> list[str]:
    """``repr`` of each float, computed once per distinct bit pattern: the
    one place that decides which floats share text (in every writer, the
    curve walk's thetas included).  Distinct values are found on the bit
    patterns, so -0.0 keeps its sign (a value-unique would merge it with 0.0)."""
    values = np.asarray(values, np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    if bits.size == values.size:  # no text to share
        return list(map(repr, values.tolist()))
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


def _csv_field(field: str) -> str:
    if any(c in field for c in _QUOTED):
        return '"' + field.replace('"', '""') + '"'
    return field


def _column_text(part) -> Sequence[str]:
    """One batch of a column as CSV fields: a float as its ``repr``, a str
    holding a comma, a quote, CR or LF quoted (once per distinct field),
    any other str as it is."""
    if isinstance(part, np.ndarray) and part.dtype == np.float64:
        return float_text(part)
    part = list(part)  # an id array's str are made once, for the check and the rows
    if not any(c in "".join(part) for c in _QUOTED):
        return part
    quoted = {field: _csv_field(field) for field in set(part)}
    return list(map(quoted.__getitem__, part))


def write_csv(dest, header: Sequence[Sequence[str]], columns: Sequence) -> None:
    """Write CSV rows: the ``header`` rows, then one row per index of the
    equal-length ``columns``, with ``\\n`` line ends.

    A column is a float64 array (each float written as its ``repr``, see
    :func:`float_text`) or a sequence of str, such as an id array or
    :class:`Tokens`, sliced one batch at a time.  Fields are quoted as
    ``csv.writer`` quotes them, except that a CR is quoted on every
    Python version.  Rows are joined and written :data:`BATCH_ROWS` at a
    time, so the writer never holds the whole file's text.
    """
    with text_writer(dest) as f:
        f.writelines(",".join(map(_csv_field, row)) + "\n" for row in header)
        for start in range(0, len(columns[0]), BATCH_ROWS):
            _write_rows(f, [_column_text(col[start:start + BATCH_ROWS]) for col in columns])


def _write_rows(f, batch: Sequence[Sequence[str]]) -> None:
    """One batch of rows, given as equal-length columns of CSV field text."""
    f.write("\n".join(map(",".join, zip(*batch))) + "\n")


def write_json(dest, payload) -> None:
    """``payload`` as indented JSON with sorted keys and a final newline.

    A float array that is a value of a (nested) dict is written as the
    JSON list of its finite floats, in the bytes ``json`` gives that list,
    :data:`BATCH_ROWS` floats at a time, each distinct float formatted
    once (:func:`float_text`).
    """
    arrays = []

    def swap(value, depth):
        if isinstance(value, dict):
            return {k: swap(v, depth + 1) for k, v in value.items()}
        if isinstance(value, np.ndarray) and value.size:
            arrays.append((value, "\n" + "  " * (depth + 1)))
            return f"\0{len(arrays) - 1}"  # json.dumps writes it as "\u0000<index>"
        return value.tolist() if isinstance(value, np.ndarray) else value

    skeleton = json.dumps(swap(payload, 0), indent=2, sort_keys=True)
    # the JSON text before the first array, then each array's index and the text after it
    text, *rest = re.split(r'"\\u0000(\d+)"', skeleton)
    with text_writer(dest) as f:
        f.write(text)
        for index, after in zip(rest[::2], rest[1::2]):
            arr, pad = arrays[int(index)]
            for start in range(0, arr.size, BATCH_ROWS):
                items = float_text(arr[start:start + BATCH_ROWS])
                f.write(("," if start else "[") + pad + ("," + pad).join(items))
            f.write(pad[:-2] + "]" + after)
        f.write("\n")


@contextmanager
def _gc_paused():
    """Cyclic GC off for a block.  The CSV reader makes only acyclic lists
    and strings, so a collection during ingest frees nothing and costs a
    walk over every row list still alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _floats(raw: list[str], out: np.ndarray) -> None:
    """One batch of a column through ``float`` into ``out``; all NaN if
    ``float`` rejects any field (:func:`_row_fault` then names it)."""
    try:
        out[:] = np.fromiter(map(float, raw), np.float64, len(raw))
    except ValueError:
        out[:] = np.nan


def _codes(raw: list[str], table: dict, values: list, column, start: int, check) -> np.ndarray:
    """One batch of a token column as codes into ``table``, which gains each
    str it does not hold yet, and ``values`` what ``check`` makes of it,
    written to ``column`` from ``start``; returns the column, widened first
    if its unsigned type no longer holds every code."""
    for token in dict.fromkeys(raw):
        if token not in table:
            values.append(check(token))
            table[token] = len(table)
    if (code := np.min_scalar_type(len(table))) != column.dtype:
        column = column.astype(code)
    column[start:start + len(raw)] = np.fromiter(map(table.__getitem__, raw), code, len(raw))
    return column


class CsvRows:
    """The rows of a CSV input after its header, as one column per field
    of ``schema``: the first field as a numpy ``StringDType`` array, the
    score (the second field) as a float64 array, and the others as
    :class:`Tokens`, whose table entries' checked values (a group token's
    minority flag, a label's int) are in ``values``.

    The text is read once, in one stream (:func:`text_reader`).  Each column
    starts empty and is grown in place just before each batch fills it,
    so memory follows the data rows read, not the line ends: a blank line
    or a quoted line break takes none.  Rows are read through
    ``csv.reader`` in batches of :data:`BATCH_ROWS` with cyclic GC
    paused; each batch is checked for shape with one ``set(map(len,
    ...))``, blank rows are dropped, and each column is filled with one
    comprehension before the batch's row lists are freed.  The scores
    are parsed there, one ``float`` map per batch, and range-checked;
    every other column is stored or coded batch by batch, so no field
    keeps an object of its own.  A token column stores each distinct str
    once, coded in the smallest unsigned type that holds every code, and
    checks it (by ``vocab``, or as a label) as it enters the table.  The
    id and score columns are read-only, so a dataset holds them as they are.

    Only a batch that holds a fault is walked row by row, each field
    through the same list of checks (:func:`_row_fault`).  Faults are
    raised after the last row, in the order a whole-file parse meets them
    (see :func:`parse_rows`): after a bad value, later batches are only
    checked for shape, and after a bad header, width or ``csv`` row, the
    rest of the text only for UTF-8.
    """

    def __init__(self, source, schema: Schema, vocab: GroupVocabulary):
        width = len(schema.header)
        tables = [{} for _ in range(width)]  # each token column's code of each distinct str
        values = [[] for _ in range(width)]  # the value its check gave each table entry
        # each field's check: a token column's as a str first enters its
        # table, the score's only in a faulty batch's walk (:func:`_row_fault`)
        checks = [None, _parse_score,
                  *[lambda t: vocab.resolve(t.strip()) is GroupId.MINORITY] * (width - 3), _parse_label]
        columns = [np.empty(0, np.float64 if j == 1 else np.uint8 if j else _ID())
                   for j in range(width)]
        # shape: the first bad header, width or csv row; fault: the first bad value
        rows, chunk, line, shape, fault = 0, [], 0, None, None
        with _gc_paused(), text_reader(source) as f:
            reader = csv.reader(f)
            try:
                header = next(reader, None)
                if header is None:
                    shape = MalformedRowError("empty file: header row required")
                elif tuple(h.strip() for h in header) != schema.header:
                    shape = MalformedRowError(
                        f"expected header {','.join(schema.header)!r}, got {','.join(header)!r}")
                while shape is None:
                    chunk, line = [], reader.line_num
                    chunk.extend(islice(reader, BATCH_ROWS))  # keeps the rows before a csv.Error
                    if not chunk:
                        break
                    widths = set(map(len, chunk))
                    data = [row for row in chunk if row] if 0 in widths else chunk
                    if widths - {0, width}:
                        shape = _row_fault(chunk, line, reader.line_num, width)
                    elif fault is None and data:
                        try:
                            for j, column in enumerate(columns):
                                raw, end = [row[j] for row in data], rows + len(data)
                                column.resize(end, refcheck=False)  # in place: no view of it is left
                                if j == 1:
                                    _floats(raw, column[rows:end])
                                    _check_score(column[rows:end].min())  # NaN fails too
                                    _check_score(column[rows:end].max())
                                elif j:
                                    columns[j] = _codes(raw, tables[j], values[j], column, rows,
                                                        checks[j])
                                else:
                                    column[rows:end] = raw
                            rows += len(data)
                        except InputError:
                            fault = _row_fault(chunk, line, reader.line_num, width, checks)
                    chunk = data = raw = None  # not alive while the next batch is read
            except csv.Error as exc:  # a field over csv.field_size_limit(), or a bare \r
                shape = _row_fault(chunk, line, reader.line_num, width) or MalformedRowError(
                    f"line {reader.line_num}: {exc}")
        if shape or fault:  # the rest of the stream decoded: a bad byte there wins
            raise shape or fault
        for j, column in enumerate(columns):
            columns[j] = _frozen(column) if j < 2 else Tokens(
                column, np.array(list(tables[j]), dtype=object))
        self.columns, self.values = columns, values

    def __len__(self) -> int:
        return len(self.columns[0])


def _row_fault(chunk: list, line: int, last: int, width: int, checks=None):
    """The error of the first bad row of a batch read after file line
    ``line``: a row of another width, or, given ``checks`` (one check per
    field, as :class:`CsvRows` runs them; the first, the id's, is none), a
    field its check rejects; None if there is none.  The error names the
    row's file line: a row takes one line, plus one for each line end
    inside its fields (CRLF counted once), capped at ``last``, the line
    the reader reached after the batch (a quote left open at the end of
    the text holds the last line's end too)."""
    for row in chunk:
        line += 1 + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row)
        if not row:
            continue
        at = f"line {min(line, last)}: "
        if len(row) != width:
            return MalformedRowError(f"{at}expected {width} columns, got {len(row)}")
        if checks is not None:
            try:
                for check, field in zip(checks[1:], row[1:]):
                    check(field)
            except InputError as exc:
                return type(exc)(at + str(exc))
    return None


def parse_rows(source, schema: Schema, vocab: GroupVocabulary) -> CsvRows:
    """Read and check CSV rows in one stream (:class:`CsvRows`): the score
    column as a float64 array, the ids as a numpy ``StringDType`` array,
    every other field as :class:`Tokens`.

    Returns data rows only (header consumed; blank rows skipped).  No row
    list, field string or copy of the text outlives its batch.  A fault is
    raised after the last row: text that is not UTF-8 anywhere wins (see
    :func:`text_reader`), else :class:`MalformedRowError` for the header or
    the first row of another width or that ``csv`` rejects, else the first
    bad score, group token (by ``vocab``) or label, as the one list of
    field checks of :class:`CsvRows` finds it.  A row error names the row's
    file line.  No input is opened or read twice.
    """
    return CsvRows(source, schema, vocab)


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


def dataset_from_rows(rows: CsvRows) -> ScoreDataset:
    """Build the dataset from rows :func:`parse_rows` checked, one column
    at a time, from the score array and each token column's checked
    values (:class:`CsvRows`).  A record-level pair is minority iff either
    of its records is.
    """
    ids, scores, *group_columns, label_column = rows.columns
    *group_values, label_values = rows.values[2:]
    minority = np.zeros(len(ids), dtype=bool)
    for column, flags in zip(group_columns, group_values):
        minority |= np.array(flags, dtype=bool)[column.codes]
    labels = np.array(label_values, dtype=np.int8)[label_column.codes]
    return ScoreDataset(ids, scores, _frozen(minority), _frozen(labels))


def load_dataset(
    source,
    schema: Schema,
    minority_token: str,
    majority_token: str | None = None,
) -> ScoreDataset:
    """Parse a CSV file (path, bytes, or file object) into a dataset."""
    return dataset_from_rows(
        parse_rows(source, schema, GroupVocabulary(minority_token, majority_token)))


def dump_dataset(dataset: ScoreDataset, dest) -> None:
    """Write a dataset as pair-level CSV with canonical group tokens.

    Round-trips: re-loading with ``minority_token="minority"`` yields an
    identical dataset.  Scores are written at full (repr) precision.
    """
    groups = np.array([g.value for g in _GROUP_OF], dtype=object)
    labels = np.array(["", "0", "1"], dtype=object)  # indexed by label + 1
    write_csv(dest, [PAIR_HEADER], [
        dataset.ids,
        dataset._scores,
        Tokens(dataset.is_minority.view(np.uint8), groups),
        Tokens(dataset._labels + 1, labels),
    ])
