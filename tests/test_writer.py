"""The batched table writer (``write_csv``, ``float_text``, ``write_json``)
against ``csv.writer``, ``repr`` and ``json.dumps``, the one-walk curve
writer (``write_curves``) against one ``write_csv`` per curve, the count
of floats formatted, both writers' memory bounds, and ids holding a CR
that must survive every write and read."""

import csv
import io
import json
import math
import os
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scorecalib import dataset
from scorecalib.calibration import calibrate_dataset, fit, model_to_dict
from scorecalib.cli import main
from scorecalib.conditional import fit_conditional, model_to_dict_conditional, save_model
from scorecalib.dataset import (
    Schema,
    ScoreDataset,
    dump_dataset,
    float_text,
    load_dataset,
    write_csv,
    write_json,
)
from scorecalib.empirical import StepCurve, pr_curve, write_curves

# csv.writer leaves a bare CR unquoted before Python 3.12 and quotes it
# from 3.13 on; the writer always quotes it, which the tests pin separately
field_text = st.one_of(
    st.text().filter(lambda s: "\r" not in s),
    st.lists(st.sampled_from(["a", "é", "€", " ", ",", '"', "\n", "\r\n", ""])).map("".join),
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def csv_writer_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(header)
    writer.writerows(rows)
    return buf.getvalue()


def written(header, columns) -> str:
    buf = io.StringIO()
    write_csv(buf, header, columns)
    return buf.getvalue()


@st.composite
def tables(draw):
    """A header row and 2-4 equal-length columns, each of str or of floats."""
    n = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.booleans(), min_size=2, max_size=4))
    header = draw(st.lists(field_text, min_size=len(kinds), max_size=len(kinds)))
    columns = [
        np.array(draw(st.lists(finite_floats, min_size=n, max_size=n)), dtype=np.float64)
        if is_float else draw(st.lists(field_text, min_size=n, max_size=n))
        for is_float in kinds
    ]
    return [header], columns


@given(tables(), st.sampled_from([1, 3, 8192]))
def test_write_csv_equals_csv_writer(table, batch_rows):
    header, columns = table
    # csv.writer is given each float as its repr, which never needs quoting
    text_columns = [list(map(repr, c.tolist())) if isinstance(c, np.ndarray) else c for c in columns]
    with mock.patch.object(dataset, "BATCH_ROWS", batch_rows):
        got = written(header, columns)
    assert got == csv_writer_text(header, zip(*text_columns))


@given(st.lists(finite_floats, max_size=60), st.sampled_from([1, 7, 8192]))
@example([-0.0, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 0.1], 8192)
@example([0.0, -0.0], 1)
def test_float_text_is_repr_of_each_float(values, batch_rows):
    arr = np.array(values, dtype=np.float64)
    assert float_text(arr) == list(map(repr, values))
    with mock.patch.object(dataset, "BATCH_ROWS", batch_rows):
        got = written([], [arr, list(map(str, range(len(values))))])
    assert got == "".join(f"{v!r},{i}\n" for i, v in enumerate(values))


def test_float_text_keeps_the_sign_of_zero():
    # a unique over values would merge -0.0 with 0.0 and flip one of them
    arr = np.array([0.0, -0.0, 0.5, -0.0, 0.0])
    assert float_text(arr) == ["0.0", "-0.0", "0.5", "-0.0", "0.0"]
    assert float_text(arr[::-2]) == ["0.0", "0.5", "0.0"]  # a strided view is read too


@pytest.mark.parametrize(
    "field,expected",
    [
        ("a\rb", '"a\rb"'),
        ("c\r\nd", '"c\r\nd"'),
        ('say "hi"', '"say ""hi"""'),
        ("x,y", '"x,y"'),
        ("", ""),
        (" é ", " é "),
    ],
)
def test_quote_rule(field, expected):
    # a field holding a comma, a quote, CR or LF is wrapped in quotes with
    # its quotes doubled, on every Python version (3.13's csv quotes a CR too)
    assert written([("id", "n")], [[field, field], ["1", "2"]]) == (
        f"id,n\n{expected},1\n{expected},2\n"
    )


def test_empty_columns_write_the_header_only():
    assert written([("a", "b")], [[], np.array([])]) == "a,b\n"


@st.composite
def payloads(draw, depth=0):
    """A dict of scalars, float arrays and (up to depth 2) nested dicts."""
    leaf = st.one_of(
        st.integers(), finite_floats, st.text(max_size=5), st.none(), st.booleans(),
        st.lists(finite_floats, max_size=6).map(lambda v: np.array(v, dtype=np.float64)),
    )
    value = leaf if depth >= 2 else st.one_of(leaf, payloads(depth + 1))
    return draw(st.dictionaries(st.text(max_size=4), value, max_size=4))


def as_lists(payload):
    return {
        k: as_lists(v) if isinstance(v, dict) else v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in payload.items()
    }


@given(payloads())
@example({"scores_a": np.array([1.0, 0.5, -0.0, 0.0]), "m": {"s": np.array([0.25]), "e": np.array([])}})
def test_write_json_equals_json_dumps_of_lists(payload):
    buf = io.StringIO()
    write_json(buf, payload)
    assert buf.getvalue() == json.dumps(as_lists(payload), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("algorithm", ["calib", "ccalib"])
def test_model_dict_arrays_are_the_model_lists(example_dataset, algorithm):
    if algorithm == "calib":
        model = side = fit(example_dataset, sigma=0.0, seed=0)
        payload = block = model_to_dict(model)
    else:
        model = fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.57)
        payload = model_to_dict_conditional(model)
        side, block = model.matched, payload["matched"]
    # the dict holds the model's own read-only arrays, not copies
    assert block["scores_a"] is side.scores_a and block["scores_b"] is side.scores_b
    # and save_model writes them as the JSON lists of their floats
    buf = io.StringIO()
    save_model(model, buf)
    assert json.loads(buf.getvalue()) == {"algorithm": algorithm, **as_lists(payload)}


# ---------------------------------------------------------------- curves in one walk

def oracle_to_csv(curve: StepCurve, dest) -> None:
    """``StepCurve.to_csv`` before the curves of one stage and group were
    written in one walk: one ``write_csv`` per curve, formatting its own
    thetas."""
    header = [("theta", "value"), ("0", repr(float(curve.values[0])))]
    write_csv(dest, header, [curve.breakpoints, curve.values[1:]])


def group_curve_set(scores, labels) -> list[StepCurve]:
    """One group's dp, eo and fprgap curves, as ``measure`` builds them."""
    scores, labels = np.array(scores, dtype=np.float64), np.array(labels)
    return [pr_curve(scores), pr_curve(scores[labels == 1]), pr_curve(scores[labels == 0])]


@st.composite
def curve_sets(draw):
    """1-4 curves whose breakpoints are value-subsets of one union of
    thetas in [0, 1]; each curve picks its own sign for a zero theta."""
    union = sorted(set(draw(st.lists(st.floats(min_value=-0.0, max_value=1.0), max_size=30))))
    curves = []
    for _ in range(draw(st.integers(1, 4))):
        keep = draw(st.lists(st.booleans(), min_size=len(union), max_size=len(union)))
        thetas = [-t if t == 0 and draw(st.booleans()) else t for t, k in zip(union, keep) if k]
        values = draw(st.lists(finite_floats, min_size=len(thetas) + 1, max_size=len(thetas) + 1))
        curves.append(StepCurve(np.array(thetas, dtype=np.float64), np.array(values)))
    return curves


def oracle_texts(curves) -> list[str]:
    bufs = [io.StringIO() for _ in curves]
    for curve, buf in zip(curves, bufs):
        oracle_to_csv(curve, buf)
    return [buf.getvalue() for buf in bufs]


@given(curve_sets(), st.sampled_from([1, 3, 8192]))
# one group holding -0.0 (label 1) and 0.0 (label 0): eo keeps -0.0, fprgap 0.0
@example(group_curve_set([-0.0, 0.0, 0.5, 1.0], [1, 0, 1, 0]), 1)
@example(group_curve_set([0.0, -0.0, 0.25, 0.75, 0.5], [0, 1, 1, 0, 1]), 3)
@example(group_curve_set([0.0, 5e-324, 1e-300, 1.0], [0, 1, 1, 0]), 8192)
@example(group_curve_set([-0.0, 5e-324, 0.0], [1, 0, 0]), 1)
@example([StepCurve(np.array([0.5]), np.array([1.0, 0.0]))], 8192)  # a single breakpoint
@example([pr_curve([0.5]), pr_curve([0.25, 0.5, 1.0]), StepCurve(np.array([]), np.array([0.5]))], 1)
# no curve holds the other's thetas: a batch ends at the lower curve's next thetas
@example([pr_curve([0.1, 0.2, 0.3]), pr_curve([0.6, 0.7, 0.9])], 1)
@example([pr_curve([0.1, 0.2, 0.3]), pr_curve([0.6, 0.7, 0.9])], 3)
def test_write_curves_equals_one_write_csv_per_curve(curves, batch_rows):
    bufs = [io.StringIO() for _ in curves]
    with mock.patch.object(dataset, "BATCH_ROWS", batch_rows):
        write_curves(dict(zip(bufs, curves)))
        want = oracle_texts(curves)
        assert [buf.getvalue() for buf in bufs] == want
        one = io.StringIO()
        curves[0].to_csv(one)  # the one-curve case of the same walk
        assert one.getvalue() == want[0]


def test_each_curve_keeps_its_own_zero(tmp_path):
    dp, eo, fprgap = group_curve_set([-0.0, 0.0, 0.5], [1, 0, 1])
    paths = [tmp_path / f"{name}.csv" for name in ("dp", "eo", "fprgap")]
    write_curves(dict(zip(paths, (dp, eo, fprgap))))
    firsts = [path.read_text(encoding="utf-8").splitlines()[2].split(",")[0] for path in paths]
    # a zero theta is -0.0 only where every zero score is: dp's group holds both signs
    assert firsts == ["0.0", "-0.0", "0.0"]
    assert [path.read_text(encoding="utf-8") for path in paths] == oracle_texts([dp, eo, fprgap])


def test_curve_csvs_do_not_depend_on_row_order(tmp_path):
    # 320 labeled pairs, half of them zeros, with zeros of both signs in
    # every (group, label) stratum; a sort need not keep the signs of equal
    # zeros, so each curve's zero theta must come from its input's zeros
    n = 320
    i = np.arange(n)
    rng = np.random.default_rng(3)
    scores = np.where(i < n // 2, np.where(i // 4 % 2, -0.0, 0.0), rng.random(n))
    ids, is_minority, labels = [f"p{k}" for k in i], i % 2 == 1, i // 2 % 2
    texts = []
    for order in [i, *(rng.permutation(n) for _ in range(19))]:
        source, out = tmp_path / f"in{len(texts)}.csv", tmp_path / f"out{len(texts)}"
        dump_dataset(ScoreDataset([ids[k] for k in order], scores[order],
                                  is_minority[order], labels[order]), source)
        assert main(["measure", "--input", str(source), "--metric", "dp", "eod",
                     "--out-dir", str(out)]) == 0
        texts.append({path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))})
    assert len(texts[0]) == 6
    assert all(text == texts[0] for text in texts)
    # every curve's stratum holds both signs
    assert {text.split(b"\n")[2].split(b",")[0] for text in texts[0].values()} == {b"0.0"}


def test_sigma_0_calibration_does_not_depend_on_row_order(tmp_path):
    # at --sigma 0 the fit lists are the input scores: each group list's
    # zeros must take their signs from the input's counts, not from a
    # sort, which need not keep the signs of equal zeros
    n = 200
    i = np.arange(n)
    rng = np.random.default_rng(4)
    scores = np.where(i < n // 2, np.where(i // 4 % 2, -0.0, 0.0), rng.random(n))
    ids, is_minority, labels = [f"p{k}" for k in i], i % 2 == 1, i // 2 % 2
    outputs = []
    for order in [i, *(rng.permutation(n) for _ in range(19))]:
        source, out = tmp_path / f"in{len(outputs)}.csv", tmp_path / f"out{len(outputs)}"
        dump_dataset(ScoreDataset([ids[k] for k in order], scores[order],
                                  is_minority[order], labels[order]), source)
        assert main(["calibrate", "--input", str(source), "--algorithm", "calib",
                     "--sigma", "0", "--metric", "dp", "eod", "--out-dir", str(out)]) == 0
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        # calibrated.csv keeps the input's row order; report.json's risk,
        # a mean over rows, is summed in ascending order
        header, *rows = files.pop("calibrated.csv").splitlines()
        outputs.append((files, header, sorted(rows)))
    assert len(outputs[0][0]) == 14 and "report.json" in outputs[0][0]
    assert all(output == outputs[0] for output in outputs)
    model = json.loads(outputs[0][0]["model.json"])
    # each list ends in its zeros, every 0.0 before every -0.0
    for name in ("scores_a", "scores_b"):
        zeros = [math.copysign(1, x) for x in model[name] if x == 0]
        assert zeros == sorted(zeros, reverse=True) and len(set(zeros)) == 2


def measure_formats(tmp_path, n: int) -> tuple[Counter, np.ndarray, list[StepCurve]]:
    """The float bit patterns that ``float_text`` formats (one ``repr``
    each, per call) in ``measure --metric dp eo fprgap`` on n labeled pairs
    with distinct scores; the input's scores; and the six curves written."""
    rng = np.random.default_rng(n)
    scores = rng.random(n)
    assert np.unique(scores).size == n
    source, out = tmp_path / f"in{n}.csv", tmp_path / f"out{n}"
    dump_dataset(ScoreDataset([f"p{i}" for i in range(n)], scores, rng.random(n) < 0.4,
                              rng.integers(0, 2, n)), source)
    formatted, real = Counter(), dataset.float_text

    def counting(values):
        formatted.update(np.unique(np.asarray(values, np.float64).view(np.uint64)).tolist())
        return real(values)

    with mock.patch.object(dataset, "float_text", counting):
        assert main(["measure", "--input", str(source), "--metric", "dp", "eo", "fprgap",
                     "--out-dir", str(out)]) == 0
    return formatted, scores, [StepCurve.from_csv(path) for path in sorted(out.glob("*.csv"))]


def test_measure_formats_each_theta_once(tmp_path):
    # each group's distinct scores are formatted once for its dp, eo and
    # fprgap curves together, and each curve's rates once: n + curve rows
    totals = {}
    for n in (1_000, 10_000):
        formatted, scores, curves = measure_formats(tmp_path, n)
        assert len(curves) == 6
        rates = Counter(bits for c in curves for bits in c.values[1:].view(np.uint64).tolist())
        assert formatted == Counter(scores.view(np.uint64).tolist()) + rates
        totals[n] = sum(formatted.values())
        assert totals[n] == n + sum(c.breakpoints.size for c in curves)
    assert totals[10_000] <= 11 * totals[1_000]  # linear in rows


# ---------------------------------------------------------------- memory

def traced_peak(n: int, path) -> int:
    """Peak bytes traced while ``write_csv`` writes an n-row table whose
    columns were built before tracing started."""
    ids = [f"p{i}" for i in range(n)]
    scores = np.random.default_rng(n).random(n)
    groups = ["minority" if i % 3 else "majority" for i in range(n)]
    tracemalloc.start()
    try:
        write_csv(path, [("id", "score", "group")], [ids, scores, groups])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_does_not_grow_with_rows(tmp_path):
    # one batch of text is alive at a time: ten times the rows, the same
    # peak (about 1.8 MB for both, measured); a writer that held the whole
    # file would peak at ten times the small table's
    small = traced_peak(10_000, tmp_path / "small.csv")
    large = traced_peak(100_000, tmp_path / "large.csv")
    assert os.path.getsize(tmp_path / "large.csv") > 2_000_000
    assert large <= small * 1.25
    assert large < dataset.BATCH_ROWS * 300  # bytes per row of one batch: its floats, fields and text


def curves_traced_peak(curves, tmp_path) -> int:
    """Peak bytes traced while ``write_curves`` writes ``curves``, which
    were built before tracing started."""
    paths = [tmp_path / f"curve{i}.csv" for i in range(len(curves))]
    tracemalloc.start()
    try:
        write_curves(dict(zip(paths, curves)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def interleaved(n: int) -> list[StepCurve]:
    """One group's dp, eo and fprgap curves over n distinct scores, labels
    alternating: dp holds every theta of the other two."""
    return group_curve_set(np.random.default_rng(n).random(n), np.arange(n) % 2)


def separated(n: int) -> list[StepCurve]:
    """One group's eo and fprgap curves over n distinct scores, every
    positive above every negative: no curve holds the other's thetas."""
    scores = np.random.default_rng(n).random(n)
    return group_curve_set(scores, scores > np.median(scores))[1:]


def test_curve_walk_memory_does_not_grow_with_rows(tmp_path):
    # the walk holds one batch of each curve's rows and text, whatever
    # curves share a walk; a batch cut at one curve's thetas alone takes
    # all of the separated curve that lies below them (about 140 bytes a
    # theta), and a whole-length position array adds 8 bytes a theta
    for curve_set, n in ((interleaved, 10_000), (separated, 20_000)):
        small = curves_traced_peak(curve_set(n), tmp_path)
        large = curves_traced_peak(curve_set(10 * n), tmp_path)
        assert large <= small * 1.25, curve_set.__name__


# ---------------------------------------------------------------- CR inside a quoted field

CR_IDS = ["a\rb", "c\r\nd", "plain", 'q"\r']
CR_TEXT = (
    "id,score,group,label\n"
    '"a\rb",0.25,a,1\n'
    '"c\r\nd",0.5,b,0\n'
    "plain,0.75,a,0\n"
    '"q""\r",0.125,b,1\n'
)


@pytest.mark.parametrize("from_path", [True, False])
def test_ids_holding_cr_survive_load_and_dump(tmp_path, from_path):
    source = tmp_path / "in.csv"
    source.write_bytes(CR_TEXT.encode("utf-8"))
    d = load_dataset(source if from_path else CR_TEXT.encode("utf-8"), Schema.PAIR_LEVEL, "a")
    assert d.ids.tolist() == CR_IDS
    dumped = tmp_path / "dumped.csv"
    dump_dataset(d, dumped)
    for again in (dumped, dumped.read_bytes()):
        assert load_dataset(again, Schema.PAIR_LEVEL, "minority") == d
    buf = io.StringIO()
    dump_dataset(d, buf)
    assert buf.getvalue().encode("utf-8") == dumped.read_bytes()


@pytest.mark.parametrize("from_path", [True, False])
def test_ids_holding_cr_survive_calibrate_then_measure(tmp_path, from_path):
    source = tmp_path / "in.csv"
    source.write_bytes(CR_TEXT.encode("utf-8"))
    args = ["calibrate", "--input", str(source), "--minority-token", "a", "--sigma", "0"]
    assert main([*args, "--out-dir", str(tmp_path / "cal")]) == 0
    calibrated = tmp_path / "cal" / "calibrated.csv"
    back = load_dataset(
        calibrated if from_path else calibrated.read_bytes(), Schema.PAIR_LEVEL, "a"
    )
    assert back.ids.tolist() == CR_IDS
    assert main(["measure", "--input", str(calibrated), "--minority-token", "a",
                 "--out-dir", str(tmp_path / "measure")]) == 0


def test_calibrated_csv_keeps_the_sign_of_zero(tmp_path):
    # with --sigma 0, p1's two quantiles are both -0.0 and p3's are -0.0 and 0.0
    source = tmp_path / "in.csv"
    source.write_text(
        "id,score,group,label\np1,-0.0,a,\np2,1.0,b,\np3,-0.0,b,\np4,0.0,b,\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    assert main(["calibrate", "--input", str(source), "--minority-token", "a",
                 "--sigma", "0", "--out-dir", str(out)]) == 0
    rows = (out / "calibrated.csv").read_text(encoding="utf-8").splitlines()
    assert rows == ["id,score,group,label", "p1,-0.0,a,", "p2,0.75,b,", "p3,0.0,b,", "p4,0.0,b,"]
    d = load_dataset(source, Schema.PAIR_LEVEL, "a")
    scores = calibrate_dataset(fit(d, 0.0, 0), d).scores().tolist()
    assert [math.copysign(1.0, v) for v in scores] == [-1.0, 1.0, 1.0, 1.0]
