"""The columnar CSV ingest against the per-row parsers it replaced.

``ingest_oracle`` holds the old row-by-row ``parse_rows`` +
``dataset_from_rows`` and the old field-by-field curve parser.  Each
test mutates a valid file and requires the library to give the oracle's
result: an equal dataset or curve, or the same exception class with the
same message (file line and byte position included).  The batch size is
lowered in most cases, so that a mutation lands in a later batch.
"""

import csv
import gc
import io
import os
import threading
import tracemalloc
from collections import Counter
from contextlib import suppress
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ingest_oracle as oracle
from scorecalib import dataset
from scorecalib.dataset import GroupVocabulary, Schema, load_dataset, parse_rows
from scorecalib.empirical import StepCurve, pr_curve
from scorecalib.errors import (
    InputError,
    MalformedCurveError,
    MalformedRowError,
    ScoreOutOfRangeError,
)

from conftest import one_batch_bytes


def outcome(fn, *args):
    """``("ok", result)``, or the exception's class and message."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # any class: the oracle's must be matched exactly
        return type(exc), str(exc)


def ingest(source, schema, vocab):
    rows = parse_rows(source, schema, vocab)
    return rows, dataset.dataset_from_rows(rows)


def ingest_oracle(source, schema, vocab):
    rows = oracle.parse_rows(source, schema)
    return rows, oracle.dataset_from_rows(rows, schema, vocab)


def assert_same_ingest(data: bytes, schema, vocab):
    got = outcome(ingest, data, schema, vocab)
    want = outcome(ingest_oracle, data, schema, vocab)
    if want[0] != "ok" or got[0] != "ok":
        assert got == want
        return want
    (rows, d), (old_rows, old_d) = got[1], want[1]
    assert d == old_d and d.ids.tolist() == old_d.ids.tolist() and d.labeled == old_d.labeled
    assert len(rows) == len(old_rows)
    # the raw columns the CLI echoes, with each distinct token stored once
    for j, column in enumerate(rows.columns[2:], start=2):
        assert column[:].tolist() == [row[j] for row in old_rows]
        assert len(column.table) == len(set(column.table.tolist()))
    return want


def render(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


score_text = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.integers(0, 100).map(lambda k: f"{k / 100:.2f}"),
    st.sampled_from(["0", "1", "1.0", "0.5e0"]),
)


@st.composite
def valid_rows(draw, schema):
    """Header and rows of a valid file: tokens 'a'/'b', labels 0/1/empty."""
    n = draw(st.integers(1, 12))
    groups = len(schema.header) - 3
    rows = [list(schema.header)]
    for i in range(n):
        tokens = draw(st.lists(st.sampled_from(["a", "b"]), min_size=groups, max_size=groups))
        label = draw(st.sampled_from(["0", "1", ""]))
        rows.append([f"p{i}", draw(score_text), *tokens, label])
    return rows


# (field, replacement): field 1 is the score, -1 the label, 2 the first group token
FIELD_MUTATIONS = [
    *((1, s) for s in ["abc", "", "0.5.5", "0x1"]),  # bad score
    *((1, s) for s in ["nan", "NaN", "-nan"]),
    *((1, s) for s in ["inf", "-inf", "1e999", "Infinity"]),
    *((1, s) for s in ["1.2", "-0.01", "1_0", "1.0000000000000002"]),  # out of range
    *((1, s) for s in [" 0.5 ", "\t1\t", "0_0.5"]),  # accepted by float()
    *((2, s) for s in ["", "  ", "x", "A"]),  # unknown token (open: empty only)
    *((2, s) for s in [" a ", "a\t", " b"]),  # padded token
    *((-1, s) for s in ["2", "-1", "yes", "1.0", "0 1"]),  # bad label
    *((-1, s) for s in [" 1", "0 ", " "]),  # padded label
    *((0, s) for s in ["", " id ", "p\n1", "p\r\nq", 'quote"d', "é"]),  # ids, some multi-line
]


@st.composite
def mutated_file(draw, schema):
    rows = draw(valid_rows(schema))
    edits = draw(st.lists(st.tuples(st.integers(1, len(rows) - 1), st.integers(0, 6)),
                          min_size=1, max_size=3))
    for index, kind in edits:
        row = rows[index]
        if not row:  # an earlier edit put a blank row here
            continue
        if kind <= 2:
            field, text = draw(st.sampled_from(FIELD_MUTATIONS))
            if field < len(row):  # an earlier edit may have shortened the row
                row[field] = text
        elif kind == 3:  # one field too few or too many
            rows[index] = row[:-1] if draw(st.booleans()) else row + ["extra"]
        elif kind == 4:  # blank rows
            rows[index:index] = [[]] * draw(st.integers(1, 3))
        elif kind == 5:  # a quoted id over two lines shifts the later lines
            row[0] = f"{row[0]}\nx"
        else:  # the header itself, padded or wrong
            rows[0] = draw(st.sampled_from([
                [f" {h} " for h in schema.header], list(schema.header[:-1]), ["id"], [],
            ]))
    return render(rows)


@settings(max_examples=250)
@given(
    st.sampled_from(list(Schema)),
    st.data(),
    st.sampled_from([None, "b"]),
    st.sampled_from([1, 2, 5, dataset.BATCH_ROWS]),
)
def test_mutated_file_matches_oracle(schema, data, majority, chunk_rows):
    text = data.draw(mutated_file(schema))
    vocab = GroupVocabulary("a", majority)
    with mock.patch.object(dataset, "BATCH_ROWS", chunk_rows):
        assert_same_ingest(text, schema, vocab)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_line_endings_and_multiline_ids_match_oracle(tmp_path, newline):
    # a path is streamed with newline="", as the oracle's whole-file read is,
    # so each line end is kept inside the quoted id
    lines = ["id,score,group,label", '"p\r\n1",0.5,a,1', "", "p2,0.25,b,0", "p3,2,a,"]
    path = tmp_path / "in.csv"
    path.write_bytes(newline.join(lines).encode("utf-8"))
    vocab = GroupVocabulary("a")
    with mock.patch.object(dataset, "BATCH_ROWS", 1):
        got = outcome(ingest, path, Schema.PAIR_LEVEL, vocab)
    assert got == outcome(ingest_oracle, path, Schema.PAIR_LEVEL, vocab)
    # the quoted id spans lines 2-3 and line 4 is blank, so p3 is on line 6
    assert got[0] is ScoreOutOfRangeError and got[1].startswith("line 6: ")
    path.write_bytes(newline.join(lines[:-1]).encode("utf-8"))
    _, d = ingest(path, Schema.PAIR_LEVEL, vocab)
    assert d.ids.tolist() == ["p\r\n1", "p2"]
    assert d == oracle.dataset_from_rows(
        oracle.parse_rows(path, Schema.PAIR_LEVEL), Schema.PAIR_LEVEL, vocab
    )


def test_field_larger_than_csv_limit_matches_oracle():
    # the oracle lets csv.Error out; the library names the line in a
    # MalformedRowError, raised once the rest of the stream is checked for UTF-8
    data = b"id,score,group,label\n" + b"p" * (csv.field_size_limit() + 1) + b",0.5,a,\n"
    got = outcome(ingest, data, Schema.PAIR_LEVEL, GroupVocabulary("a"))
    want = outcome(ingest_oracle, data, Schema.PAIR_LEVEL, GroupVocabulary("a"))
    assert want == (csv.Error, "field larger than field limit (131072)")
    assert got == (MalformedRowError, f"line 2: {want[1]}")


RAW_PIECES = ["p1", "0.5", "a", "b", "1", "0", '""', "abc", "1.5", ",", '"',
              "\n", "\r", "\r\n", '" a "', "\0"]


@settings(max_examples=300)
# a row whose last field opens a quote that holds the last line's end: the
# reader's line count stops at that line, so each bad score is named on the
# line its row starts on (2, 3 and 2), not one line further
@example(Schema.PAIR_LEVEL, "\n", "p1,abc,a,", '"1\n', None)
@example(Schema.PAIR_LEVEL, "\r", "p1,0.5,a,1\rp2,abc,a,", '"1\r', None)
@example(Schema.RECORD_LEVEL, "\r\n", "p1,1.5,a,b,", '"1\r\n', "b")
@given(
    st.sampled_from(list(Schema)),
    st.sampled_from(["\n", "\r", "\r\n"]),
    st.lists(st.sampled_from(RAW_PIECES), max_size=40).map("".join),
    st.sampled_from(["", '"', '"1\n', '"1\r', '"1\r\n']),  # some end in an open quote
    st.sampled_from([None, "b"]),
)
def test_raw_text_matches_oracle(schema, newline, body, end, majority):
    # raw text, not rows a csv.writer wrote: quotes left open, bare CRs,
    # NULs and fields of any width, each read at three batch sizes
    data = (",".join(schema.header) + newline + body + end).encode("utf-8")
    vocab = GroupVocabulary("a", majority)
    # the oracle's csv.Error is mapped as test_field_larger_than_csv_limit_matches_oracle checks
    assume(outcome(ingest_oracle, data, schema, vocab)[0] is not csv.Error)
    for chunk_rows in (1, 3, dataset.BATCH_ROWS):
        with mock.patch.object(dataset, "BATCH_ROWS", chunk_rows):
            assert_same_ingest(data, schema, vocab)


# sequences of 2-4 bytes whole and cut short, lone continuation and invalid
# bytes, and runs long enough that a file spans several 8192-byte decoder chunks
BYTE_PIECES = [b"p1", b",", b"0.5", b"\n", b"\r", b"\r\n", b'"', "\u00e9".encode(), "\u20ac".encode(),
               "\U0001d11e".encode(), b"\xe2\x82", b"\xf0\x9d", b"\xc3", b"\x80", b"\xff", b"x" * 8000]


@settings(max_examples=150)
@given(st.lists(st.sampled_from(BYTE_PIECES), max_size=12).map(b"".join), st.booleans())
def test_raw_bytes_match_oracle(body, curve):
    # the byte error's message is formatted from the counted stream: it must
    # be the one decoding the whole file gives, wherever the chunks end
    data = (b"theta,value\n0,1.0\n" if curve else b"id,score,group,label\n") + body
    vocab = GroupVocabulary("a")
    for chunk_rows in (1, 3, dataset.BATCH_ROWS):
        with mock.patch.object(dataset, "BATCH_ROWS", chunk_rows):
            if curve:
                want = curve_outcome(oracle.curve_from_csv, data)
                assume(want[0] is not csv.Error)
                assert curve_outcome(StepCurve.from_csv, data) == want
            else:
                assume(outcome(ingest_oracle, data, Schema.PAIR_LEVEL, vocab)[0] is not csv.Error)
                assert_same_ingest(data, Schema.PAIR_LEVEL, vocab)


def _loaded(result):
    """A load's outcome, a curve as its lists (a dataset compares with ``==``)."""
    if result[0] == "ok" and isinstance(result[1], StepCurve):
        return "ok", result[1].breakpoints.tolist(), result[1].values.tolist()
    return result


@pytest.mark.parametrize(
    "loader, data, expected",
    [
        pytest.param(load_dataset, b"id,score,group,label\rp1,0.5,a,1\rp2,0.25,b,0\r",
                     "ok", id="cr-rows"),
        pytest.param(load_dataset, b'id,score,group,label\r"p\r1",0.5,a,\rp2,0.25,b,\r',
                     "ok", id="cr-rows-and-quoted-cr"),
        pytest.param(load_dataset, b"id,score,group,label\np1,0.5,a,\np\rx,0.5,a,\n",
                     MalformedRowError, id="cr-in-unquoted-id"),
        pytest.param(StepCurve.from_csv, b"theta,value\r0,1.0\r0.5,0.5\r",
                     "ok", id="curve-cr-rows"),
        pytest.param(StepCurve.from_csv, b"theta,value\n0,1.0\n0.5\r,0.5\n",
                     MalformedCurveError, id="curve-cr-in-unquoted-field"),
    ],
)
def test_bytes_and_path_split_lines_alike(tmp_path, loader, data, expected):
    # bytes are read with newline="", as a path is, so a bare CR ends a row in both
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    args = (Schema.PAIR_LEVEL, "a") if loader is load_dataset else ()
    from_path = _loaded(outcome(loader, path, *args))
    assert from_path[0] == expected
    assert _loaded(outcome(loader, data, *args)) == from_path


# ---------------------------------------------------------------- past the first batch

BIG_ROWS = 70_100  # more than one default batch
SMALL_ROWS = 1_100  # the rows read in batches of 1 and 3: more than 8 decoder chunks
DECODER_CHUNK = 8192  # the bytes io.TextIOWrapper decodes at a time as csv reads lines


@pytest.fixture(scope="module")
def big_rows():
    rng = np.random.default_rng(3)
    scores = rng.random(BIG_ROWS).tolist()
    # tokens of more than one character: CPython shares 1-character strings anyway
    tokens = np.where(rng.random(BIG_ROWS) < 0.4, "ga", "gb").tolist()
    return [list(Schema.PAIR_LEVEL.header)] + [
        [f"p{i}", repr(s), g, str(i % 2)] for i, (s, g) in enumerate(zip(scores, tokens))
    ]


def curve_rows(n: int) -> list:
    """The header and n data rows of a curve CSV (the first for theta=0)."""
    thetas = np.linspace(0.0, 1.0, n)[1:].tolist()
    return [["theta", "value"], ["0", "1.0"], *([repr(t), repr(1.0 - t)] for t in thetas)]


def place(rows, offset: int, text: str) -> None:
    """Make the first field of the row that holds byte ``offset`` of the
    rendered file end in ``text``, which starts at that byte."""
    start = 0
    for row in rows:
        if start + len(render([row])) > offset:
            row[0] = "x" * (offset - start) + text
            return
        start += len(render([row]))


def big_case(rows, case) -> bytes:
    """The file of ``rows`` (a header and n data rows) with the fault of
    ``case``; a "curve-" prefix names the same fault in a curve file."""
    rows, n, case = [list(r) for r in rows], len(rows) - 1, case.removeprefix("curve-")
    if case.startswith("bad-byte"):
        rows[n - 99][0] = "BAD"
    if case == "bad-byte-and-header":
        rows[0][0] = "key"
    if case == "bad-byte-and-early-score":
        rows[3][1] = "1.5"
    if case == "bad-byte-and-early-width":
        rows[3].append("extra")
    if case == "bad-byte-and-long-field":  # a csv.Error, after which the rest is only decoded
        rows[3][0] = "9" * (csv.field_size_limit() + 1)
    if case == "late-score":
        rows[n - 50][1] = "nan"
    if case == "late-width":
        rows[n - 50].pop()
    if case == "late-token":
        rows[n - 50][2] = "gc"
    if case.startswith("straddling"):  # a 3-byte character across the first chunk's end
        place(rows, DECODER_CHUNK - 1, "\u20ac")
    if case == "straddling-bad-bytes":  # the first two bytes of one end the second chunk
        place(rows, 2 * DECODER_CHUNK - 2, "\x01\x02")
    data = render(rows).replace(b"BAD", b"p\xff").replace(b"\x01\x02", b"\xe2\x82")
    if case == "truncated-at-eof":
        data = data[:-1] + "\u20ac".encode("utf-8")[:2]
    return data


def ingested(result):
    """An ingest outcome as comparable values: the rows' columns as lists, and the dataset."""
    if result[0] != "ok":
        return result
    rows, d = result[1]
    return "ok", [column[:].tolist() for column in rows.columns], d


UTF8_CASES = ["bad-byte", "bad-byte-and-header", "bad-byte-and-long-field", "truncated-at-eof",
              "straddling-bad-bytes"]
PAIR_CASES = ["valid", *UTF8_CASES, "bad-byte-and-early-score", "bad-byte-and-early-width",
              "late-score", "late-width", "late-token", "straddling-character"]
CURVE_CASES = ["valid", *UTF8_CASES, "late-score", "late-width", "straddling-character"]


@pytest.mark.parametrize("case", PAIR_CASES + [f"curve-{case}" for case in CURVE_CASES])
@pytest.mark.parametrize("as_path", [False, True])
def test_errors_past_the_first_batch_match_oracle(tmp_path, big_rows, case, as_path):
    # at batches of 1, 3 and 8192 rows, each source gives the outcome of the
    # oracle's whole-text read: the sources in memory (bytes, a binary and a
    # text file object), or those named by a path (a file and a pipe)
    vocab, curve = GroupVocabulary("ga", "gb"), case.startswith("curve-")
    for batch_rows in (1, 3, dataset.BATCH_ROWS):
        n = BIG_ROWS if batch_rows == dataset.BATCH_ROWS else SMALL_ROWS
        data = big_case(curve_rows(n) if curve else big_rows[:n + 1], case)
        with mock.patch.object(dataset, "BATCH_ROWS", batch_rows):
            if curve:
                load, same = StepCurve.from_csv, _loaded
                want = curve_outcome(oracle.curve_from_csv, data)
                assert curve_outcome(load, data) == want
            else:
                load, same = partial(ingest, schema=Schema.PAIR_LEVEL, vocab=vocab), ingested
                want = assert_same_ingest(data, Schema.PAIR_LEVEL, vocab)
            expected = same(outcome(load, data))
            for kind, read in sources(tmp_path, data).items():
                if (kind in ("path", "pipe")) == as_path:
                    assert same(read(load)) == expected, kind
        if case.removeprefix("curve-").startswith("bad-byte"):
            # the byte position counts from the start of the file
            position = data.index(b"\xff")
            assert want[0] is InputError and f"position {position}:" in want[1]
        elif case.endswith("truncated-at-eof"):
            assert want[0] is InputError and want[1].endswith(
                f"in position {len(data) - 2}-{len(data) - 1}: unexpected end of data")
        elif case.endswith("straddling-bad-bytes"):
            position = 2 * DECODER_CHUNK - 2
            assert want[0] is InputError and want[1].endswith(
                f"in position {position}-{position + 1}: invalid continuation byte")
        elif case in ("valid", "curve-valid", "straddling-character"):
            assert want[0] == "ok"
        elif not curve:
            assert want[1].startswith(f"line {n - 49}: ")  # rows[0] is the header, on line 1


def test_curve_bad_byte_past_the_first_batch_matches_oracle(tmp_path):
    thetas = np.linspace(0.0, 1.0, BIG_ROWS)
    rows = [["theta", "value"], ["0", "1.0"]]
    rows += [[repr(t), repr(1.0 - t)] for t in thetas[1:].tolist()]
    rows[70_001][1] = "BAD"
    path = tmp_path / "curve.csv"
    path.write_bytes(render(rows).replace(b"BAD", b"\xff"))
    got = outcome(StepCurve.from_csv, path)
    assert got == outcome(oracle.curve_from_csv, path)
    assert got[0] is InputError and "not UTF-8" in got[1]


# ---------------------------------------------------------------- curves


@st.composite
def mutated_curve(draw):
    scores = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
    buf = io.StringIO()
    pr_curve(scores).to_csv(buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    for _ in range(draw(st.integers(0, 3))):
        index = draw(st.integers(1, len(rows) - 1))  # a data row
        kind = draw(st.integers(0, 6))
        if kind <= 1:  # one field replaced
            field = draw(st.integers(0, 1))
            text = draw(st.sampled_from(
                ["x", "", "nan", "inf", "-inf", "1.5", "-0.5", " 0.5", "0", "1e999", "0.25"]
            ))
            if field < len(rows[index]):
                rows[index][field] = text
        elif kind == 2:  # a field too few or too many (extra fields are ignored)
            rows[index] = rows[index][:1] if draw(st.booleans()) else rows[index] + ["x"]
        elif kind == 3:
            rows[index:index] = [[]] * draw(st.integers(1, 2))
        elif kind == 4:  # out of order
            other = draw(st.integers(1, len(rows) - 1))
            rows[index], rows[other] = rows[other], rows[index]
        elif kind == 5:  # cut short, down to the header alone
            del rows[index:]
            break
        else:
            rows[0] = draw(st.sampled_from(
                [["theta", "value "], ["value", "theta"], ["theta"], [], ["theta", "value", ""]]
            ))
    return render(rows)


def curve_outcome(fn, data):
    result = outcome(fn, data)
    if result[0] == "ok":
        return "ok", result[1].breakpoints.tolist(), result[1].values.tolist()
    return result


@settings(max_examples=200)
@given(mutated_curve(), st.sampled_from([1, 3, dataset.BATCH_ROWS]))
def test_mutated_curve_matches_oracle(data, chunk_rows):
    with mock.patch.object(dataset, "BATCH_ROWS", chunk_rows):
        got = curve_outcome(StepCurve.from_csv, data)
    assert got == curve_outcome(oracle.curve_from_csv, data)


# ---------------------------------------------------------------- typed columns at batch edges

EDGE_BATCH = 4  # rows[1:5] are the first batch, rows[9:13] the third


def small_file(n: int) -> list[list[str]]:
    return [list(Schema.PAIR_LEVEL.header)] + [
        [f"p{i}", repr((i + 0.5) / n), "ga" if i % 3 else "gb", str(i % 2)] for i in range(n)
    ]


@pytest.mark.parametrize("score", ["abc", "nan", "1e999"])
@pytest.mark.parametrize("index", [9, 12])  # the first and last row of the third batch
def test_bad_score_in_the_third_batch_matches_oracle(score, index):
    rows = small_file(14)
    rows[index][1] = score
    data = render(rows)
    with mock.patch.object(dataset, "BATCH_ROWS", EDGE_BATCH):
        want = assert_same_ingest(data, Schema.PAIR_LEVEL, GroupVocabulary("ga"))
    assert want[0] is (MalformedRowError if score == "abc" else ScoreOutOfRangeError)
    assert want[1].startswith(f"line {index + 1}: ")


@pytest.mark.parametrize("theta", ["x", "nan"])
def test_bad_theta_in_a_later_batch_matches_oracle(theta):
    buf = io.StringIO()
    pr_curve(np.linspace(0.05, 0.95, 14)).to_csv(buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    rows[10][0] = theta  # the third batch: rows[1] is theta=0
    with mock.patch.object(dataset, "BATCH_ROWS", EDGE_BATCH):
        got = curve_outcome(StepCurve.from_csv, render(rows))
    assert got == curve_outcome(oracle.curve_from_csv, render(rows))
    message = "has a malformed row" if theta == "x" else "holds a NaN or infinite number"
    assert got == (MalformedCurveError, f"curve CSV {message}")


@pytest.mark.parametrize("schema", list(Schema))
def test_header_only_dataset_matches_oracle(schema):
    data = render([list(schema.header)])
    with mock.patch.object(dataset, "BATCH_ROWS", EDGE_BATCH):
        assert_same_ingest(data, schema, GroupVocabulary("ga"))
        scores = parse_rows(data, schema, GroupVocabulary("ga")).columns[1]
    assert scores.dtype == np.float64 and scores.size == 0


def test_header_only_curve_matches_oracle():
    with mock.patch.object(dataset, "BATCH_ROWS", EDGE_BATCH):
        got = curve_outcome(StepCurve.from_csv, b"theta,value\n")
    assert got == curve_outcome(oracle.curve_from_csv, b"theta,value\n")
    assert got == (MalformedCurveError, "curve CSV has no data rows")


# ---------------------------------------------------------------- columns grown per batch

LONG_ID = "an id of more than fifteen bytes"  # held outside StringDType's 16-byte slot
RECORDS = [["p1", "0.5", "f", "m", "1"], [LONG_ID, "0.25", "m", "m", "0"], ["p3", "1", "m", "f", ""]]
# data rows, in files whose line ends are not all row ends
LAYOUTS = {
    "plain": RECORDS,
    "blank rows": [[], RECORDS[0], [], [], *RECORDS[1:], []],
    "quoted line breaks": [["p\r\n1", *RECORDS[0][1:]], [LONG_ID + "\n", *RECORDS[1][1:]],
                           ["p\r3", *RECORDS[2][1:]]],
    "header only": [],
}


def layout_bytes(rows, newline: str, final_newline: bool) -> bytes:
    buf = io.StringIO(newline="")
    # every field quoted when one holds a line break: csv.writer before
    # Python 3.13 leaves a field with a bare CR unquoted
    breaks = any("\r" in field or "\n" in field for row in rows for field in row)
    csv.writer(buf, lineterminator=newline, quoting=csv.QUOTE_ALL if breaks else csv.QUOTE_MINIMAL
               ).writerows([Schema.RECORD_LEVEL.header, *rows])
    text = buf.getvalue()
    return (text if final_newline else text[:-len(newline)]).encode("utf-8")


def sources(tmp_path, data: bytes) -> dict:
    """The same file as bytes, a binary file object, a text file object (if
    it decodes), a path and a named pipe: for each, a function that gives
    ``outcome(load, source)``."""
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    found = {"bytes": lambda load: outcome(load, data),
             "binary file": lambda load: outcome(load, io.BytesIO(data)),
             "path": lambda load: outcome(load, path)}
    with suppress(UnicodeDecodeError):
        text = data.decode("utf-8")
        found["text file"] = lambda load: outcome(load, io.StringIO(text, newline=""))
    if hasattr(os, "mkfifo"):
        found["pipe"] = lambda load: through_pipe(tmp_path / "in.pipe", data, load)
    return found


def through_pipe(pipe, data: bytes, load):
    """``outcome(load, pipe)`` for a named pipe that another thread writes
    ``data`` into.  A pipe can be read only once: a loader that opened it
    again would wait for a writer forever, so the load runs in a daemon
    thread too, given 60 s."""
    os.mkfifo(pipe)
    result = []

    def write():
        with suppress(BrokenPipeError):  # a loader stops reading at a bad byte
            pipe.write_bytes(data)

    threads = [threading.Thread(target=write, daemon=True),
               threading.Thread(target=lambda: result.append(outcome(load, pipe)), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    pipe.unlink()
    assert result and not any(thread.is_alive() for thread in threads)
    return result[0]


@pytest.mark.parametrize("batch_rows", [1, 2, dataset.BATCH_ROWS])
@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_preallocated_columns_equal_oracle_rows(tmp_path, layout, newline, final_newline,
                                                batch_rows):
    # each column's room for a batch is allocated, by growing the column
    # in place, just before the batch fills it: the columns end at the
    # data rows read, however many lines blank rows or quoted breaks take
    data = layout_bytes(LAYOUTS[layout], newline, final_newline)
    want = oracle.parse_rows(data, Schema.RECORD_LEVEL)
    with mock.patch.object(dataset, "BATCH_ROWS", batch_rows):
        for read in sources(tmp_path, data).values():
            status, got = read(lambda source: parse_rows(source, Schema.RECORD_LEVEL,
                                                         GroupVocabulary("f")))
            assert status == "ok"
            ids, scores, *tokens = got.columns
            assert isinstance(ids.dtype, np.dtypes.StringDType) and scores.dtype == np.float64
            assert ids.tolist() == [row[0] for row in want]
            assert scores.tolist() == [float(row[1]) for row in want]
            for j, column in enumerate(tokens, start=2):
                assert column.codes.dtype == np.uint8 and column[:].tolist() == [row[j] for row in want]
            assert not (ids.flags.writeable or scores.flags.writeable)
            assert ids.flags.owndata and scores.flags.owndata
    assert_same_ingest(data, Schema.RECORD_LEVEL, GroupVocabulary("f"))


def test_curve_padded_with_blank_lines_peaks_within_one_batch(tmp_path):
    # 2e5 blank lines between the header and three breakpoints take no room
    # in the columns: the read peaks at 0.57 MB, one batch of blank row
    # lists at 0.53 MB.  Columns sized by the line ends would peak at 3.77 MB
    path = tmp_path / "curve.csv"
    pr_curve([0.2, 0.5, 0.8]).to_csv(path)
    header, rows = path.read_text(encoding="utf-8").split("\n", 1)
    path.write_text(header + "\n" * 200_001 + rows, encoding="utf-8", newline="")
    StepCurve.from_csv(path)  # untraced: one-time allocations
    tracemalloc.start()
    try:
        curve = StepCurve.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.breakpoints.tolist() == [0.2, 0.5, 0.8]
    assert peak <= 2 * one_batch_bytes(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_read_once(tmp_path):
    # a pipe cannot be read a second time: it is streamed, as a file is
    data = layout_bytes(RECORDS, "\r\n", True)
    (tmp_path / "in.csv").write_bytes(data)
    load = partial(load_dataset, schema=Schema.RECORD_LEVEL, minority_token="f")
    assert through_pipe(tmp_path / "in.pipe", data, load) == ("ok", load(tmp_path / "in.csv"))


# ---------------------------------------------------------------- sources and state


def test_binary_file_object_is_decoded_as_utf8(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes("id,score,group,label\npé1,0.5,a,1\np2,0.25,b,0\n".encode("utf-8"))
    with open(path, "rb") as f:
        d = load_dataset(f, Schema.PAIR_LEVEL, "a")
    assert d == load_dataset(path, Schema.PAIR_LEVEL, "a")
    assert d.ids.tolist() == ["pé1", "p2"]
    path.write_bytes(b"id,score,group,label\np\xe91,0.5,a,1\n")
    with open(path, "rb") as f, pytest.raises(InputError, match="not UTF-8"):
        load_dataset(f, Schema.PAIR_LEVEL, "a")
    curve = pr_curve([0.2, 0.8])
    curve.to_csv(tmp_path / "curve.csv")
    with open(tmp_path / "curve.csv", "rb") as f:
        assert StepCurve.from_csv(f).breakpoints.tolist() == [0.2, 0.8]


@pytest.mark.parametrize("kind", ["pair", "curve"])
def test_a_text_file_object_that_is_not_utf8_raises_input_error(big_rows, kind):
    # a caller's text stream is read as it is, so the byte is named at the
    # position the stream's own decoder gives, not counted from the start
    data = big_case(curve_rows(SMALL_ROWS) if kind == "curve" else big_rows[:SMALL_ROWS + 1],
                    "bad-byte")

    def stream():
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")

    with pytest.raises(UnicodeDecodeError) as exc:
        list(stream())  # line by line, as csv reads it
    load = StepCurve.from_csv if kind == "curve" else partial(
        load_dataset, schema=Schema.PAIR_LEVEL, minority_token="ga")
    assert outcome(load, stream()) == (InputError, f"input is not UTF-8 text: {exc.value}")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("data", [b"id,score,group,label\np1,0.5,a,\n", b"id,score\n"])
def test_gc_state_is_restored(enabled, data):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        outcome(parse_rows, data, Schema.PAIR_LEVEL, GroupVocabulary("a"))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_ingest_runs_no_cyclic_collection(tmp_path):
    # a batch's row lists are alive together, so with GC on each 2e5-row
    # load ran 244 / 22 / 2 collections (generations 0 / 1 / 2) that freed
    # nothing; paused, a load of three batches and more runs none
    n = 3 * dataset.BATCH_ROWS + 1
    clean_file(tmp_path / "rows.csv", "pair", n)
    was = gc.isenabled()
    gc.enable()
    try:
        gc.collect()
        before = [stats["collections"] for stats in gc.get_stats()]
        rows = parse_rows(tmp_path / "rows.csv", Schema.PAIR_LEVEL, GroupVocabulary("a"))
        after = [stats["collections"] for stats in gc.get_stats()]
    finally:
        (gc.enable if was else gc.disable)()
    assert len(rows) == n
    assert after == before


# ---------------------------------------------------------------- rows parsed

def clean_file(path, kind: str, n: int):
    """A clean pair-level, record-level or curve CSV of n data rows, and
    the loader that reads it."""
    rng = np.random.default_rng(n)
    if kind == "curve":
        pr_curve(rng.random(n - 1)).to_csv(path)  # a row for theta=0, then one per score
        return StepCurve.from_csv
    schema = Schema(kind)
    tokens = [["a", "b"][i % 2] for i in range(n)]
    groups = [tokens] if kind == "pair" else [tokens, tokens[::-1]]
    path.write_bytes(render([schema.header, *zip(
        (f"p{i}" for i in range(n)), map(repr, rng.random(n).tolist()), *groups,
        (str(i % 2) for i in range(n)))]))
    return lambda source: load_dataset(source, schema, "a")


@pytest.mark.parametrize("schema", list(Schema))
def test_each_group_token_is_resolved_once(tmp_path, schema):
    # a group token's minority flag is kept from the check that let it into
    # its column's table, so each distinct token of each group column is
    # resolved once, however many batches hold it
    n = 3 * dataset.BATCH_ROWS + 1
    load = clean_file(tmp_path / "rows.csv", schema.value, n)
    with mock.patch.object(GroupVocabulary, "resolve", autospec=True,
                           side_effect=GroupVocabulary.resolve) as resolve:
        assert len(load(tmp_path / "rows.csv")) == n
    columns = len(schema.header) - 3
    assert Counter(call.args[1] for call in resolve.call_args_list) == {"a": columns, "b": columns}


def test_bytes_load_peaks_within_one_batch_of_a_path_load(tmp_path):
    # bytes are decoded as they are read, as a file's bytes are, so a load
    # holds no copy of the text besides the caller's bytes.  Measured on
    # Python 3.11, numpy 2.4, for this 2e5-row pair file: both loads peak
    # at 7.07 MB; decoding the bytes whole into a StringIO peaked at 37.77 MB
    n = 200_000
    path = tmp_path / "rows.csv"
    load = clean_file(path, "pair", n)
    data = path.read_bytes()  # the caller's: allocated before tracing
    peaks = []
    for source in (path, data):
        load(source)  # untraced: one-time allocations
        tracemalloc.start()
        try:
            assert len(load(source)) == n
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + one_batch_bytes(path)


def parsed_rows(load, source):
    """``load(source)``'s outcome and the number of rows ``csv.reader``
    yielded meanwhile, counted by a stand-in that, as the reader does,
    exposes ``line_num``."""
    real, parsed = csv.reader, [0]

    class Counting:
        def __init__(self, *args, **kwargs):
            self.reader = real(*args, **kwargs)

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self.reader)
            parsed[0] += 1
            return row

        @property
        def line_num(self):
            return self.reader.line_num

    with mock.patch.object(dataset.csv, "reader", Counting):
        result = outcome(load, source)
    return result, parsed[0]


@pytest.mark.parametrize("kind", ["pair", "record", "curve"])
def test_a_clean_file_is_parsed_once(tmp_path, kind):
    # every row, header included, passes through csv.reader once
    for n in (1_000, 10_000):
        load = clean_file(tmp_path / f"{kind}{n}.csv", kind, n)
        (_, loaded), parsed = parsed_rows(load, tmp_path / f"{kind}{n}.csv")
        assert len(loaded.values if kind == "curve" else loaded) == n
        assert parsed == n + 1


@pytest.mark.parametrize("kind", ["pair", "record", "curve"])
def test_a_bad_file_is_parsed_once(tmp_path, kind):
    # a file is read in one stream, its faults raised after the last row:
    # a bad last field passes each row through csv.reader once, where a
    # columnar pass and a row-by-row pass of the same file took 2n + 2
    for n in (1_000, 10_000):
        path = tmp_path / f"{kind}{n}.csv"
        load = clean_file(path, kind, n)
        data = path.read_bytes()
        path.write_bytes(data[:data.rindex(b",") + 1] + b"x\n")
        got, parsed = parsed_rows(load, path)
        assert got == ((MalformedCurveError, "curve CSV has a malformed row") if kind == "curve"
                       else (MalformedRowError, f"line {n + 1}: label must be 0, 1 or empty, got 'x'"))
        assert parsed == n + 1


@pytest.mark.parametrize("n", [200_000, 400_000])
def test_clean_curve_peaks_within_its_floats_and_one_batch(tmp_path, n):
    # each batch's floats go into two float64 columns grown in place, and
    # the curve holds both, its breakpoints moved down over theta=0, with
    # no copy.  Measured on Python 3.11, numpy 2.4: 5.21 MB at 2e5 (a
    # batch sets the peak) and 8.35 MB at 4e5, against bounds of 6.05 and
    # 9.26 MB; handing the curve a view of the thetas, which it copies,
    # peaked at 10.02 MB at 4e5
    path = tmp_path / "curve.csv"
    clean_file(path, "curve", n)
    StepCurve.from_csv(path)  # untraced: one-time allocations
    tracemalloc.start()
    try:
        curve = StepCurve.from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.values.size == n
    assert peak <= 16 * n + 1.5 * one_batch_bytes(path)
