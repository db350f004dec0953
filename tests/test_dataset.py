import io
import tracemalloc
from itertools import compress
from unittest import mock

import numpy as np
import pytest
from numpy.dtypes import StringDType
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scorecalib import calibration, conditional, dataset
from scorecalib.calibration import calibrate_dataset, fit
from scorecalib.conditional import cond_calibrate_dataset, fit_conditional
from scorecalib.dataset import (
    GroupId,
    GroupVocabulary,
    Schema,
    ScoreDataset,
    dump_dataset,
    load_dataset,
    minority_mask,
    write_csv,
)
from scorecalib.empirical import StepCurve, pr_curve
from scorecalib.errors import (
    LengthMismatchError,
    MalformedCurveError,
    MalformedRowError,
    ScoreOutOfRangeError,
    UnknownGroupError,
)

from conftest import EXAMPLE_PAIRS_RAW, make_dataset, one_batch_bytes

MIN, MAJ = GroupId.MINORITY, GroupId.MAJORITY
TOKEN = {MIN: "f", MAJ: "m"}


def load_records(*sides):
    """Record-level dataset with one pair per (left, right) group pair."""
    lines = ["id,score,group_left,group_right,label"]
    lines += [f"r{i},0.5,{TOKEN[a]},{TOKEN[b]}," for i, (a, b) in enumerate(sides)]
    return load_dataset(io.StringIO("\n".join(lines)), Schema.RECORD_LEVEL, "f")


@pytest.mark.parametrize(
    "left,right,expected",
    [
        (MIN, MAJ, MIN),
        (MAJ, MIN, MIN),
        (MIN, MIN, MIN),
        (MAJ, MAJ, MAJ),
    ],
)
def test_derive_pair_group(left, right, expected):
    # a record-level pair is minority iff either record is
    assert load_records((left, right)).groups() == [expected]


@pytest.mark.parametrize("left", [MIN, MAJ])
@pytest.mark.parametrize("right", [MIN, MAJ])
def test_derive_pair_group_symmetric(left, right):
    fwd, rev = load_records((left, right), (right, left)).groups()
    assert fwd is rev


@pytest.mark.parametrize("score", [-0.01, 1.2, float("nan")])
def test_constructor_rejects_bad_score(score):
    # the error names the offending pair
    with pytest.raises(ScoreOutOfRangeError, match="'p'"):
        ScoreDataset(["p"], [score], [True])


@pytest.mark.parametrize("score", [0.0, 1.0])
def test_boundary_scores_accepted(score):
    assert ScoreDataset(["p"], [score], [True]).scores().tolist() == [score]


@pytest.mark.parametrize("label", [2, -2])
def test_constructor_rejects_bad_label(label):
    with pytest.raises(MalformedRowError):
        ScoreDataset(["p"], [0.5], [True], [label])


def test_load_single_unlabeled_row():
    csv = "id,score,group,label\np1,0.45,a,\n"
    d = load_dataset(io.StringIO(csv), Schema.PAIR_LEVEL, minority_token="a")
    assert len(d) == 1
    assert not d.labeled
    assert d == ScoreDataset(["p1"], [0.45], [True])


def test_load_rejects_out_of_range_score():
    csv = "id,score,group,label\np1,1.2,a,\n"
    with pytest.raises(ScoreOutOfRangeError):
        load_dataset(io.StringIO(csv), Schema.PAIR_LEVEL, minority_token="a")


def test_load_worked_example_counts():
    lines = ["id,score,group,label"]
    lines += [f"p{i+1},{s},{g}," for i, (s, g) in enumerate(EXAMPLE_PAIRS_RAW)]
    d = load_dataset(io.StringIO("\n".join(lines)), Schema.PAIR_LEVEL, minority_token="a")
    assert len(d) == 15
    assert d.count(MIN) == 6
    assert d.count(MAJ) == 9


def test_load_record_level_derives_group():
    csv = (
        "id,score,group_left,group_right,label\n"
        "p1,0.5,f,m,1\n"
        "p2,0.5,m,m,0\n"
        "p3,0.5,m,f,1\n"
    )
    d = load_dataset(io.StringIO(csv), Schema.RECORD_LEVEL, minority_token="f")
    assert d.groups() == [MIN, MAJ, MIN]
    assert d.labeled


@pytest.mark.parametrize(
    "csv",
    [
        "",  # no header
        "id,score\n",  # wrong header
        "id,score,group,label\np1,0.5,a\n",  # short row
        "id,score,group,label\np1,0.5,a,1,extra\n",  # long row
        "id,score,group,label\np1,abc,a,\n",  # unparsable score
        "id,score,group,label\np1,0.5,a,2\n",  # bad label
    ],
)
def test_load_malformed(csv):
    with pytest.raises(MalformedRowError):
        load_dataset(io.StringIO(csv), Schema.PAIR_LEVEL, minority_token="a")


@pytest.mark.parametrize(
    "csv,line",
    [
        # blank rows are skipped but still counted
        ("id,score,group,label\np1,0.5,a,\n\n\np2,abc,a,\n", 5),
        # a quoted id spanning two lines shifts every later row
        ('id,score,group,label\n"p\n1",0.5,a,\np2,abc,a,\n', 4),
        ('id,score,group,label\n"p\n1",0.5,a,\np2,0.5,a,7\n', 4),
        ('id,score,group,label\n"p\n1",0.5,a,\n\np2,0.5,a\n', 5),
    ],
)
def test_load_malformed_names_file_line(csv, line):
    with pytest.raises(MalformedRowError, match=f"^line {line}: "):
        load_dataset(io.StringIO(csv), Schema.PAIR_LEVEL, minority_token="a")


def test_unknown_group_names_file_line():
    csv = "id,score,group,label\np1,0.5,a,\n\np2,0.5,x,\n"
    with pytest.raises(UnknownGroupError, match="^line 4: group token 'x'"):
        load_dataset(
            io.StringIO(csv), Schema.PAIR_LEVEL, minority_token="a", majority_token="b"
        )


def test_unknown_group_with_closed_vocabulary():
    csv = "id,score,group,label\np1,0.5,x,\n"
    with pytest.raises(UnknownGroupError):
        load_dataset(
            io.StringIO(csv), Schema.PAIR_LEVEL, minority_token="a", majority_token="b"
        )


def test_open_vocabulary_accepts_any_majority_token():
    csv = "id,score,group,label\np1,0.5,whatever,\n"
    d = load_dataset(io.StringIO(csv), Schema.PAIR_LEVEL, minority_token="a")
    assert d.groups() == [MAJ]


def test_empty_group_token_rejected():
    csv = "id,score,group,label\np1,0.5,,\n"
    with pytest.raises(UnknownGroupError):
        load_dataset(io.StringIO(csv), Schema.PAIR_LEVEL, minority_token="a")


def test_vocabulary_rejects_equal_tokens():
    with pytest.raises(UnknownGroupError):
        GroupVocabulary("a", "a")


def test_mixed_labels_not_an_error():
    csv = "id,score,group,label\np1,0.5,a,1\np2,0.6,b,\n"
    d = load_dataset(io.StringIO(csv), Schema.PAIR_LEVEL, minority_token="a")
    assert not d.labeled


def test_mixed_labels_survive_dump():
    csv = "id,score,group,label\np1,0.5,a,1\np2,0.6,b,\np3,0.7,b,0\n"
    d = load_dataset(io.StringIO(csv), Schema.PAIR_LEVEL, minority_token="a")
    buf = io.StringIO()
    dump_dataset(d, buf)
    assert buf.getvalue().splitlines()[1:] == [
        "p1,0.5,minority,1", "p2,0.6,majority,", "p3,0.7,majority,0",
    ]


def test_columns_are_read_only_arrays():
    d = make_dataset([(0.2, "a"), (0.9, "b")], labels=[1, 0])
    assert isinstance(d.ids.dtype, np.dtypes.StringDType) and d.ids.tolist() == ["p1", "p2"]
    assert d.scores().dtype == np.float64 and d.scores().tolist() == [0.2, 0.9]
    assert d.is_minority.tolist() == [True, False]
    assert d.labels().dtype == np.int8 and d.labels().tolist() == [1, 0]
    for column in (d.ids, d.scores(), d.is_minority, d.labels()):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
    assert ScoreDataset(d.ids, d.scores(), d.is_minority, d.labels()) == d


def test_constructor_validates_columns():
    with pytest.raises(ScoreOutOfRangeError, match="'p2'"):
        ScoreDataset(["p1", "p2"], [0.5, float("nan")], [True, False])
    with pytest.raises(MalformedRowError):
        ScoreDataset(["p1"], [0.5], [True], [2])
    with pytest.raises(LengthMismatchError):
        ScoreDataset(["p1", "p2"], [0.5], [True, False])
    assert not ScoreDataset(["p1"], [0.5], [True]).labeled
    # GroupIds are all truthy: a group list is not a minority mask
    with pytest.raises(TypeError):
        ScoreDataset(["p1", "p2"], [0.5, 0.6], [GroupId.MINORITY, GroupId.MAJORITY])
    with pytest.raises(TypeError):
        ScoreDataset(["p1", "p2"], [0.5, 0.6], [1, 0])


@pytest.mark.parametrize(
    "ids", ["pq", b"pq", [1, 2], ["p1", b"p2"], ("p1", None), ["p1", "\ud800"]]
)
def test_ids_must_be_str(ids):
    # a str passed whole was split into its characters, and an int id
    # failed only when the dataset was written; a lone surrogate has no
    # UTF-8 form, so it is no id either
    with pytest.raises(TypeError):
        ScoreDataset(ids, [0.1, 0.2], [True, False])


def test_id_arrays_from_callers_are_copied():
    # the dataset's ids stay as they were when the caller's array changes
    writable = np.array(["p1", "p2"], dtype=np.dtypes.StringDType())
    view = writable[:]
    view.setflags(write=False)
    for ids in (writable, view):
        d = ScoreDataset(ids, [0.1, 0.2], [True, False])
        writable[0] = "changed"
        assert d.ids.tolist() == ["p1", "p2"] and not d.ids.flags.writeable
        writable[0] = "p1"


def test_ids_longer_than_the_inline_slot_survive_later_datasets():
    # ids of more than 15 bytes live outside StringDType's inline slot; one
    # dtype instance shared by every id array let a second dataset's ids
    # corrupt the first's, which then raised MemoryError when read
    long_ids = [f"an id of more than fifteen bytes {i}" for i in range(3)]
    first = ScoreDataset(long_ids, [0.1, 0.2, 0.3], [True, False, True])
    buf = io.StringIO()
    dump_dataset(first, buf)
    later = [ScoreDataset(long_ids[::-1], [0.1, 0.2, 0.3], [True, False, True]),
             first.subset(GroupId.MINORITY), first.with_scores([0.3, 0.2, 0.1]),
             load_dataset(buf.getvalue().encode("utf-8"), Schema.PAIR_LEVEL, "minority")]
    assert first.ids.tolist() == long_ids and later[0].ids.tolist() == long_ids[::-1]
    assert later[1].ids.tolist() == long_ids[::2] and later[3] == first


def test_with_scores_requires_one_score_per_pair():
    d = make_dataset([(0.2, "a"), (0.8, "b")])
    with pytest.raises(LengthMismatchError, match="^1 scores for 2 pairs$"):
        d.with_scores([0.5])
    assert d.with_scores([0.5, 0.6]).scores().tolist() == [0.5, 0.6]


def test_writable_columns_are_copied_and_frozen_ones_held():
    # a column the caller can still write is copied, so writing it later
    # changes nothing; a read-only array of the column's dtype that owns its
    # data is held as it is, as the arrays this package builds are.  The ids
    # follow the same rule, with StringDType(coerce=False) as their dtype
    ids = np.array(["p1", "p2"], dtype=StringDType(coerce=False))
    scores, minority, labels = np.array([0.2, 0.9]), np.array([True, False]), np.array([1, 0], np.int8)
    d = ScoreDataset(ids, scores, minority, labels)
    ids[:], scores[:], minority[:], labels[:] = "x", 0.5, False, 0
    assert d.ids.tolist() == ["p1", "p2"] and d.ids is not ids and not d.ids.flags.writeable
    assert d.scores().tolist() == [0.2, 0.9] and d.is_minority.tolist() == [True, False]
    assert d.labels().tolist() == [1, 0]
    for column in (ids, scores, minority, labels):
        column.setflags(write=False)
    held = ScoreDataset(ids, scores, minority, labels)
    assert held.ids is ids
    assert held.scores() is scores and held.is_minority is minority and held.labels() is labels
    # a read-only view, or an array of another dtype, is still copied
    copied = ScoreDataset(["p1", "p2"], scores[:], minority, labels.astype(np.int64))
    assert copied.scores() is not scores and copied.labels() is not labels
    # and so are ids from a coercing StringDType, a view or a list
    for other in (np.array(["x", "x"], dtype=StringDType()), ids[:], ["x", "x"]):
        copied = ScoreDataset(other, scores, minority, labels).ids
        assert copied is not other and copied.tolist() == ["x", "x"]
        assert copied.dtype == StringDType(coerce=False) and not copied.flags.writeable


def test_with_scores_shares_groups_and_labels(monkeypatch):
    # the calibrated dataset holds one new column, the very array of scores
    # the calibrator built, and shares every other column with its source
    d = make_dataset([(0.2, "a"), (0.8, "b"), (0.6, "a"), (0.3, "b")], labels=[1, 0, 1, 0])
    built = []
    for module, name in ((calibration, "calibrate_scores"), (conditional, "cond_calibrate_scores")):
        monkeypatch.setattr(module, name, lambda *a, real=getattr(module, name): built.append(
            real(*a)) or built[-1])
    datasets = [calibrate_dataset(fit(d, 0.0, 0), d),
                cond_calibrate_dataset(fit_conditional(d, 0.0, 0, 0.5), d)]
    assert len(built) == 2
    for calibrated, scores in zip(datasets, built):
        assert calibrated.scores() is scores and not scores.flags.writeable
        assert calibrated.ids is d.ids and calibrated.is_minority is d.is_minority
        assert calibrated.labels() is d.labels()
    # the public calibrators still return writable arrays
    assert calibration.calibrate_scores(fit(d, 0.0, 0), d.scores(), d.is_minority).flags.writeable


def test_minority_mask_accepts_bools_and_group_ids_only():
    assert minority_mask([True, False]).tolist() == [True, False]
    assert minority_mask([GroupId.MAJORITY, GroupId.MINORITY]).tolist() == [False, True]
    assert minority_mask([]).tolist() == []
    for bad in ([1, 0], np.array([1, 0]), ["minority"], [GroupId.MINORITY, True]):
        with pytest.raises(TypeError):
            minority_mask(bad)


def test_duplicate_ids_allowed():
    csv = "id,score,group,label\np1,0.5,a,\np1,0.6,b,\n"
    d = load_dataset(io.StringIO(csv), Schema.PAIR_LEVEL, minority_token="a")
    assert len(d) == 2


def test_pairs_without_ids():
    # ids=None: the pairs the CLI reports on, since no statistic reads an id
    d = ScoreDataset(None, [0.9, 0.2, 0.4], [True, False, True], [1, 0, -1])
    assert d.ids is None and len(d) == 3 and not d.labeled
    part = d.subset(MIN)
    assert part.ids is None and part.scores().tolist() == [0.9, 0.4]
    assert part._labels.tolist() == [1, -1] and part.is_minority.all()
    moved = d.with_scores([0.1, 0.2, 0.3])
    assert moved.ids is None and moved.scores().tolist() == [0.1, 0.2, 0.3]
    assert moved.is_minority is d.is_minority and moved._labels is d._labels
    assert d == ScoreDataset(None, [0.9, 0.2, 0.4], [True, False, True], [1, 0, -1])
    named = ScoreDataset(["p1", "p2", "p3"], d.scores(), d.is_minority, d._labels)
    assert d != named and named != d and d != moved
    assert len(ScoreDataset(None, [], [])) == 0
    with pytest.raises(ValueError, match="^dataset has no ids to write$"):
        dump_dataset(d, io.StringIO())
    # a bad score is named by its index
    with pytest.raises(ScoreOutOfRangeError, match=r"^score 1\.5 outside \[0, 1\] \(pair 1\)$"):
        ScoreDataset(None, [0.5, 1.5], [True, False])
    with pytest.raises(LengthMismatchError):
        ScoreDataset(None, [0.5, 0.2], [True])


# each dtype's labels, mostly -1, 0 and 1 so that the score check is
# reached, else out of range, fractional, NaN, None or text
NAN, INF = float("nan"), float("inf")
LABEL_VALUES = {
    np.int8: [-1, 0, 1] * 8 + [-3, -2, 2, 3], np.int64: [-1, 0, 1] * 8 + [-2, 2, 2**40],
    np.uint8: [0, 1] * 8 + [2, 255], bool: [False, True],
    np.float64: [-1.0, 0.0, -0.0, 1.0] * 6 + [0.5, -0.5, 2.0, NAN, INF],
    object: [-1, 0, 1, True] * 6 + [None, 0.5, 2, "1"],
}
scores_or_not = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from(
    [0.0, -0.0, 1.0, -5e-324, 1.0000000000000002, NAN, INF, -INF, -2.0]))


def labels_and_scores(n):
    return st.tuples(st.one_of(*(st.lists(st.sampled_from(values), min_size=n, max_size=n).map(
        lambda v, dtype=dtype: np.array(v, dtype)) for dtype, values in LABEL_VALUES.items())),
        st.lists(scores_or_not, min_size=n, max_size=n).map(np.array))


@settings(max_examples=400)
@given(st.integers(0, 12).flatmap(labels_and_scores))
@example((np.array([1.0, 0.5]), np.array([0.2, 0.3])))  # a fractional float label
@example((np.array([0, 1], np.int8), np.array([0.2, NAN])))  # a NaN score
@example((np.array([-1, 0], np.int8), np.array([-0.0, 1.0])))  # the range's ends
@example((np.array([], np.int8), np.array([])))
def test_validation_matches_whole_length_masks(case):
    # the label and score checks read min and max, and walk the scores only
    # when one fails; the oracle is the mask expressions they replaced
    labels, scores = case
    n = len(scores)
    ids = [f"p{i}" for i in range(n)]
    if not np.all((labels == -1) | (labels == 0) | (labels == 1)):
        with pytest.raises(MalformedRowError, match=r"^labels must be 0, 1 or -1 \(missing\)$"):
            ScoreDataset(ids, scores, np.ones(n, bool), labels)
        return
    bad = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))
    for named, where in ((ids, repr(f"p{bad[0]}") if bad.size else None),
                         (None, str(bad[0]) if bad.size else None)):
        if bad.size:
            message = f"score {float(scores[bad[0]])!r} outside [0, 1] (pair {where})"
            with pytest.raises(ScoreOutOfRangeError) as exc:
                ScoreDataset(named, scores, np.ones(n, bool), labels)
            assert str(exc.value) == message
        else:
            d = ScoreDataset(named, scores, np.ones(n, bool), labels)
            assert d.labeled == bool((labels.astype(np.int8) >= 0).all())
            assert d._labels.tolist() == labels.astype(np.int8).tolist()


pair_strategy = st.tuples(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.sampled_from(["a", "b"]),
)
label_strategy = st.one_of(st.none(), st.lists(st.integers(0, 1), min_size=40, max_size=40))


@given(st.lists(pair_strategy, min_size=1, max_size=40))
def test_group_counts_partition_dataset(rows):
    d = make_dataset(rows)
    assert d.count(MIN) + d.count(MAJ) == len(d)


@given(st.lists(pair_strategy, min_size=1, max_size=25), st.data())
def test_round_trip(rows, data):
    labels = data.draw(
        st.one_of(st.none(), st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    )
    d = make_dataset(rows, labels)
    buf = io.StringIO()
    dump_dataset(d, buf)
    again = load_dataset(
        io.StringIO(buf.getvalue()), Schema.PAIR_LEVEL, minority_token="minority"
    )
    assert again == d

    buf2 = io.StringIO()
    dump_dataset(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


# pieces of an id: CSV specials, line ends, a non-BMP and a non-ASCII character
id_text = st.lists(
    st.sampled_from(["", "p", "7", ",", '"', "\r", "\n", "\r\n", " ", "é", "\U0001F600"]),
    max_size=4,
).map("".join)


@given(st.lists(id_text, min_size=1, max_size=20), st.data())
def test_ids_are_a_read_only_string_array(tmp_path_factory, ids, data):
    n = len(ids)
    minority = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    start, stop = data.draw(st.integers(-n - 1, n + 1)), data.draw(st.integers(-n - 1, n + 1))
    with mock.patch.object(dataset, "BATCH_ROWS", data.draw(st.sampled_from([1, 3, 8192]))):
        d = ScoreDataset(iter(ids), np.linspace(0, 1, n), minority, [1] * n)
        assert isinstance(d.ids.dtype, np.dtypes.StringDType) and not d.ids.flags.writeable
        assert len(d.ids) == n and d.ids.tolist() == ids and list(d.ids) == ids
        assert [d.ids[i] for i in range(-n, n)] == ids + ids and d.ids[-1] == ids[-1]
        with pytest.raises(IndexError):
            d.ids[n]
        assert d.ids[start:stop].tolist() == ids[start:stop]
        for group, flags in ((MIN, minority), (MAJ, [not m for m in minority])):
            part = d.subset(group).ids
            assert part.tolist() == list(compress(ids, flags)) and not part.flags.writeable
        assert d.with_scores(np.zeros(n)).ids is d.ids
        buf = io.StringIO()
        dump_dataset(d, buf)
        text = buf.getvalue().encode("utf-8")
        path = tmp_path_factory.mktemp("ids") / "d.csv"
        path.write_bytes(text)
        for source in (text, path):
            again = load_dataset(source, Schema.PAIR_LEVEL, "minority")
            assert again == d and again.ids.tolist() == ids and not again.ids.flags.writeable


# ---------------------------------------------------------------- memory


def load_and_calibrate_peak_per_row(n: int, path) -> float:
    """Peak traced bytes per row of ``load_dataset`` followed by a fit and
    ``calibrate_dataset``, on an n-row file written before tracing."""
    rng = np.random.default_rng(n)
    d = ScoreDataset([f"p{i}" for i in range(n)], rng.random(n), rng.random(n) < 0.4,
                     rng.integers(0, 2, n))
    dump_dataset(d, path)
    del d
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        d = load_dataset(path, Schema.PAIR_LEVEL, "minority")
        calibrate_dataset(fit(d, 0.05, 0), d)
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


def test_load_and_calibrate_memory_is_linear_in_rows(tmp_path):
    # measured on Python 3.11: 306 B/row at 1e4 (one read batch of row lists
    # covers most of the file) and 80 B/row at 1e5, where the dataset itself
    # (ids, three columns) and the fit's copies dominate.  Read batches
    # of 65,536 rows gave 303 B/row at 1e5, a score column kept as strings
    # until the build 187 B/row, and ids held as one str each 127 B/row
    small = load_and_calibrate_peak_per_row(10_000, tmp_path / "small.csv")
    large = load_and_calibrate_peak_per_row(100_000, tmp_path / "large.csv")
    assert large <= small
    assert large < 100


def load_held_per_row(n: int, path, schema: Schema) -> float:
    """Traced bytes per row that a loaded n-row file holds once
    ``load_dataset`` has returned."""
    rng = np.random.default_rng(n)
    groups = np.where(rng.random(n) < 0.4, "minority", "majority").astype(object)
    group_columns = [groups] if schema is Schema.PAIR_LEVEL else [groups, groups[::-1]]
    labels = rng.integers(0, 2, n).astype(str).astype(object)
    write_csv(path, [schema.header],
              [[f"p{i}" for i in range(n)], rng.random(n), *group_columns, labels])
    load_dataset(path, schema, "minority")  # untraced: one-time allocations are not counted
    tracemalloc.start()
    try:
        d = load_dataset(path, schema, "minority")
        return tracemalloc.get_traced_memory()[0] / len(d)
    finally:
        tracemalloc.stop()


def load_peak_over_held(path, n: int, line_end: str) -> tuple[int, int]:
    """(one batch of csv row lists, the load's traced peak over what it
    holds) for an n-row record file whose rows end in ``line_end``."""
    rng = np.random.default_rng(0)
    groups = np.where(rng.random(n) < 0.4, "minority", "majority").astype(object)
    buf = io.StringIO()
    write_csv(buf, [Schema.RECORD_LEVEL.header],
              [[f"r{i:07d}" for i in range(n)], np.round(rng.random(n), 2), groups,
               groups[::-1], rng.integers(0, 2, n).astype(str).astype(object)])
    path.write_text(buf.getvalue().replace("\n", line_end), encoding="utf-8", newline="")
    del buf
    load_dataset(path, Schema.RECORD_LEVEL, "minority")  # untraced: one-time allocations
    tracemalloc.start()
    try:
        d = load_dataset(path, Schema.RECORD_LEVEL, "minority")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(d) == n
    return one_batch_bytes(path), peak - held


def test_load_peaks_within_its_columns_and_one_batch(tmp_path):
    # each column is grown in place as each batch fills it.  Measured on
    # Python 3.11, numpy 2.4, for this 2e5-row record file: the dataset
    # holds 5.21 MB, one batch of 2048 csv row lists takes 0.73 MB, and the
    # load peaks 0.95 MB above what it holds (1.1 B/row besides the batch:
    # three token-code columns, which two 1-byte dataset columns replace;
    # 8192-row batches with whole-length label and score masks: 2.89 and
    # 3.15 MB).  Per-batch arrays joined at the end peaked 5.77 MB above it
    n = 200_000
    one_batch, over_held = load_peak_over_held(tmp_path / "records.csv", n, "\n")
    assert over_held <= one_batch + 3 * n


def test_load_with_blank_lines_peaks_within_its_columns_and_one_batch(tmp_path):
    # a blank line after every record takes no room in the columns: the
    # load peaks 0.67 MB above the dataset of this 2e5-row file, and one
    # batch (1024 records, 1024 blank rows) takes 0.43 MB.  Whole-length
    # label and score masks (6 B a row) would peak 1.20 MB above it, and
    # columns sized by the file's line ends 7.37 MB, both past the bound
    n = 200_000
    one_batch, over_held = load_peak_over_held(tmp_path / "records.csv", n, "\n\n")
    assert over_held <= one_batch + 3 * n


def clean_and_bad(tmp_path, kind: str, n: int):
    """A clean pair or curve file of n data rows, a copy whose last field
    is bad (a pair file's last row gains a fifth field if ``kind`` is
    "wide-pair"), and the loader and error class that read them."""
    clean, bad, rng = tmp_path / "clean.csv", tmp_path / "bad.csv", np.random.default_rng(n)
    if kind.endswith("pair"):  # the last label is 1, and 1x (or 1,x) in the copy
        dump_dataset(ScoreDataset([f"p{i}" for i in range(n)], rng.random(n),
                                  np.arange(n) % 2 == 0, np.arange(n) % 2), clean)
        load, error, bad_end = (lambda path: load_dataset(path, Schema.PAIR_LEVEL, "minority"),
                                MalformedRowError, b"1,x\n" if kind == "wide-pair" else b"1x\n")
    else:  # a row for theta=0, then one per score; the last value is x in the copy
        pr_curve(rng.random(n - 1)).to_csv(clean)
        load, error, bad_end = StepCurve.from_csv, MalformedCurveError, b"x\n"
    data = clean.read_bytes()
    bad.write_bytes(data[:data.rindex(b",") + 1] + bad_end)
    return clean, bad, load, error


def _outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # the bad file's error, checked by the caller
        return exc


@pytest.mark.parametrize("kind, n", [("pair", 100_000), ("wide-pair", 200_000),
                                     ("curve", 50_000)])
def test_error_pass_peaks_within_one_batch_of_a_clean_read(tmp_path, kind, n):
    # a bad file is read in the one stream a clean file is, and only the
    # batch that holds the fault is walked row by row, so a bad last field
    # costs at most one batch of row lists over a clean read.  Measured on
    # Python 3.11, numpy 2.4: a 1e5-row pair file peaks at 4.97 MB either
    # way, a 2e5-row one with a fifth field in its last row at 7.54 MB, and
    # a 5e4-row curve at 2.78 MB.  A whole text read again into a StringIO
    # peaked at 17.8 MB (1e5 pairs), a list of every row of a 2e5-row curve
    # at 83.81 MB, and the wide row's text decoded whole at 15.10 MB
    clean, bad, load, error = clean_and_bad(tmp_path, kind, n)
    peaks = []
    for path in (clean, bad):
        _outcome(load, path)  # untraced: one-time allocations
        tracemalloc.start()
        try:
            result = _outcome(load, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert isinstance(result, error)
    assert peaks[1] <= peaks[0] + one_batch_bytes(clean)


@pytest.mark.parametrize("schema", list(Schema))
@pytest.mark.parametrize("n", [10_000, 100_000])
def test_loaded_dataset_holds_few_bytes_per_row(tmp_path, schema, n):
    # measured on Python 3.11: 26.6 B/row at 1e4 and 26.1 at 1e5, either
    # schema; each id takes a 16-byte StringDType slot (which holds up to 15
    # bytes inline), the columns 8 + 1 + 1 bytes.  Ids held as one str
    # each, in a tuple, took 72.4 and 72.9 B/row
    assert load_held_per_row(n, tmp_path / "d.csv", schema) < 40
