import csv
import dataclasses
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scorecalib import dataset
from scorecalib.bias import risk_estimate
from scorecalib.conditional import load_model
from scorecalib.dataset import GroupId, ScoreDataset
from scorecalib.empirical import (
    CalibModel,
    _group_lists,
    StepCurve,
    add_jitter,
    auc,
    build_group_scores,
    conditional_curve,
    curve_batches,
    gap_curve,
    integrate_abs_difference,
    merged_grid_batches,
    pr_curve,
    unit_scores,
    w1_distance,
)
from scorecalib.errors import (
    EmptyGroupError,
    EmptyInputError,
    EmptyStratumError,
    InputError,
    InvalidParameterError,
    MalformedCurveError,
    MalformedModelError,
    ScoreOutOfRangeError,
    SingleClassError,
    UnlabeledDatasetError,
)

import ingest_oracle as oracle
from conftest import make_dataset

MIN, MAJ = GroupId.MINORITY, GroupId.MAJORITY

scores_list = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=30
)
NAN, INF = float("nan"), float("inf")


# ---------------------------------------------------------------- jitter

def test_jitter_sigma_zero_is_identity():
    out = add_jitter([0.45, 0.82], sigma=0.0, seed=7)
    assert out.tolist() == [0.45, 0.82]


@pytest.mark.parametrize("sigma", [0.05, 0.0])
def test_jitter_rejects_negative_seed(sigma):
    with pytest.raises(InvalidParameterError, match="seed"):
        add_jitter([0.45, 0.82], sigma=sigma, seed=-1)


def test_jitter_pinned_seed():
    # frozen once from numpy's PCG64 stream for seed 42
    out = add_jitter([0.45, 0.82, 0.90], sigma=0.05, seed=42)
    expected = [0.4652358539877216, 0.7680007946879752, 0.9375225597903228]
    assert np.allclose(out, expected, atol=0, rtol=0)


def test_jitter_clamps_at_one():
    # seed 0 draws +0.0063 for the first sample
    assert add_jitter([0.999], sigma=0.05, seed=0)[0] == 1.0


def test_jitter_clamps_at_zero():
    # seed 4 draws -0.0326 for the first sample
    assert add_jitter([0.001], sigma=0.05, seed=4)[0] == 0.0


@pytest.mark.parametrize("sigma", [0.05, 0.0])
@pytest.mark.parametrize("scores", [[NAN, 0.3], [7.0], [0.3, -0.1], [INF], [-INF, 0.5]])
def test_jitter_rejects_scores_outside_unit_interval(scores, sigma):
    # unchecked, NaN passes through, and 7.0 comes back as 7.0 at sigma 0
    # but clipped to 1.0 at sigma 0.05
    with pytest.raises(ScoreOutOfRangeError, match="must lie in"):
        add_jitter(scores, sigma=sigma, seed=0)


def test_jitter_rejects_negative_sigma():
    with pytest.raises(ValueError):
        add_jitter([0.5], sigma=-0.1, seed=0)


@given(scores_list, st.integers(0, 2**32 - 1))
def test_jitter_stays_in_unit_interval(scores, seed):
    out = add_jitter(scores, sigma=0.2, seed=seed)
    assert out.size == len(scores)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_jitter_deterministic():
    a = add_jitter([0.1, 0.5, 0.9], sigma=0.05, seed=123)
    b = add_jitter([0.1, 0.5, 0.9], sigma=0.05, seed=123)
    assert a.tolist() == b.tolist()


# ------------------------------------------------------- group score lists

def test_build_group_scores_worked_example(example_dataset):
    gs = build_group_scores(example_dataset, sigma=0.0, seed=0)
    assert gs.scores_b.tolist() == [0.97, 0.89, 0.85, 0.37, 0.35, 0.31, 0.25, 0.22, 0.18]
    assert gs.scores_a.tolist() == [0.80, 0.72, 0.65, 0.46, 0.39, 0.28]
    assert gs.alpha == 0.4


def test_build_group_scores_requires_both_groups():
    d = make_dataset([(0.5, "b"), (0.6, "b")])
    with pytest.raises(EmptyGroupError):
        build_group_scores(d, sigma=0.0, seed=0)


def test_build_group_scores_minimal():
    d = make_dataset([(0.3, "a"), (0.7, "b")])
    gs = build_group_scores(d, sigma=0.0, seed=0)
    assert gs.n_a == 1 and gs.n_b == 1
    assert gs.alpha == 0.5


def test_group_scores_validation():
    with pytest.raises(ValueError):
        CalibModel(np.array([0.2, 0.5]), np.array([0.5]), sigma=0.0, seed=0)
    with pytest.raises(EmptyGroupError):
        CalibModel(np.array([]), np.array([0.5]), sigma=0.0, seed=0)


def test_alpha_follows_from_the_list_sizes():
    model = CalibModel([0.9, 0.4, 0.1], [0.5], sigma=0.0, seed=0)
    assert (model.n_a, model.n_b, model.alpha) == (3, 1, 0.75)


@pytest.mark.parametrize(
    "scores_a,scores_b,alpha,sigma",
    [
        # NaN and inf in each list, then as alpha and as sigma
        ([NAN, 0.2], [0.5], 2 / 3, 0.0),
        ([0.8, 0.2], [0.5, NAN], 0.5, 0.0),
        ([INF, 0.2], [0.5], 2 / 3, 0.0),
        ([0.8, 0.2], [0.5, -INF], 0.5, 0.0),
        ([0.8], [0.5], NAN, 0.0),
        ([0.8], [0.5], INF, 0.0),
        ([0.8], [0.5], 0.5, NAN),
        ([0.8], [0.5], 0.5, INF),
    ],
)
def test_group_scores_rejects_non_finite(scores_a, scores_b, alpha, sigma):
    # alpha is derived, not passed: a stored one is checked where a model
    # file is read, so every case goes through the loader
    payload = {"scores_a": scores_a, "scores_b": scores_b, "alpha": alpha, "sigma": sigma}
    with pytest.raises(MalformedModelError):
        load_model(json.dumps({**payload, "seed": 0}).encode())


@pytest.mark.parametrize(
    "scores_a", [[[0.5]], ["0.5"], [0.5, None], [True], np.zeros((1, 1))]
)
def test_group_scores_rejects_non_numeric_or_nested_lists(scores_a):
    with pytest.raises(ValueError, match="flat list of numbers"):
        CalibModel(scores_a, [0.5], sigma=0.0, seed=0)


# each value type with two arrays: a constructor and valid contents for them
COPY_CASES = {
    "CalibModel": (lambda x, y: CalibModel(x, y, sigma=0.0, seed=0), [0.9, 0.5, 0.1], [0.7, 0.3]),
    "StepCurve": (StepCurve, [0.1, 0.5, 0.7], [1.0, 0.6, 0.3, 0.0]),
}


@pytest.mark.parametrize("case", COPY_CASES)
def test_value_types_hold_private_read_only_copies(case):
    build, first, second = COPY_CASES[case]
    own = np.array(first), np.array(second)
    built = build(*own)
    held = [getattr(built, f.name) for f in dataclasses.fields(built)[:2]]
    for arr, kept in zip(own, held):
        assert arr.flags.writeable and kept is not arr
        assert not kept.flags.writeable
    # two views of one buffer: writing to the buffer changes neither array held
    base = np.concatenate(own)
    views = base[: len(first)], base[len(first):]
    built = build(*views)
    base[:] = 0.99
    held = [getattr(built, f.name).tolist() for f in dataclasses.fields(built)[:2]]
    assert held == [first, second]
    assert all(view.flags.writeable for view in views)


# ---------------------------------------------------------------- curves

def test_pr_curve_single_max_score():
    curve = pr_curve([1.0])
    for theta in (0.0, 0.3, 1.0):
        assert curve(theta) == 1.0


def test_pr_curve_two_scores():
    curve = pr_curve([0.2, 0.8])
    assert curve(0.0) == 1.0
    assert curve(0.2) == 1.0  # value at a breakpoint includes that score
    assert curve(0.4) == 0.5
    assert curve(0.8) == 0.5
    assert curve(0.9) == 0.0


def test_pr_curve_worked_example_majority(example_dataset):
    curve = pr_curve(example_dataset.group_scores(MAJ))
    assert curve(0.5) == pytest.approx(3 / 9)


def test_pr_curve_empty():
    with pytest.raises(EmptyInputError):
        pr_curve([])


@given(scores_list)
def test_pr_curve_monotone_and_bounded(scores):
    curve = pr_curve(scores)
    grid = np.linspace(0, 1, 101)
    vals = curve(grid)
    assert np.all(np.diff(vals) <= 0)
    assert curve(min(scores)) == 1.0
    if max(scores) < 1.0:
        assert curve(max(scores) + (1 - max(scores)) / 2) == 0.0
    assert curve(0.0) == 1.0


def oracle_pr_curve(scores) -> StepCurve:
    """``pr_curve`` before its one-scan form: ``np.unique`` of the sorted
    scores, and a ``searchsorted`` back into them for each value."""
    arr = unit_scores(scores, "scores")
    if arr.size == 0:
        raise EmptyInputError("cannot build a curve from an empty score list")
    asc = np.sort(arr)
    distinct = np.unique(asc)
    n = arr.size
    greater = n - np.searchsorted(asc, distinct, side="right")
    values = np.concatenate(([n], greater)) / n
    return StepCurve(distinct, values)


def oracle_auc(d) -> float:
    """``auc`` before it took a group: the CLI called it on ``d.subset(group)``."""
    if not d.labeled:
        raise UnlabeledDatasetError("AUC requires a fully labeled dataset")
    scores = d.scores()
    labels = d.labels()
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    if pos.size == 0 or neg.size == 0:
        raise SingleClassError("AUC requires both label classes")
    below = np.searchsorted(neg, pos, side="left")
    below_or_equal = np.searchsorted(neg, pos, side="right")
    wins = below.sum() + 0.5 * (below_or_equal - below).sum()
    return float(wins / (pos.size * neg.size))


def _bits(arr) -> list[int]:
    return np.asarray(arr, dtype=np.float64).view(np.uint64).tolist()


def _outcome(func, *args):
    """``func(*args)``, or the type of the scorecalib error it raises."""
    try:
        return func(*args)
    except InputError as exc:
        return type(exc)


def assert_curve_matches_oracle(scores) -> None:
    """Bit for bit the oracle's curve, but for a zero theta where the scores
    hold zeros of both signs: that one is 0.0, as a zero theta is -0.0 only
    if every zero score is (the oracle's follows its sort)."""
    scores = np.asarray(scores, dtype=np.float64)
    got, want = _outcome(pr_curve, scores), _outcome(oracle_pr_curve, scores)
    if not isinstance(got, StepCurve):
        assert got is want is EmptyInputError
        return
    assert _bits(got.values) == _bits(want.values)
    zero_signs = np.signbit(scores[scores == 0])
    if zero_signs.any() and not zero_signs.all():
        assert _bits(got.breakpoints[:1]) == _bits([0.0])
        assert _bits(got.breakpoints[1:]) == _bits(want.breakpoints[1:])
    else:
        assert _bits(got.breakpoints) == _bits(want.breakpoints)
    if zero_signs.size:
        assert np.signbit(got.breakpoints[0]) == zero_signs.all()


# a small pool, so that draws tie and hold zeros of both signs
pool_scores = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 0.25, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


@st.composite
def pooled_datasets(draw):
    """0-30 pairs over ``pool_scores``, group and label drawn freely, so a
    group may be empty or hold a single class or a single pair; one missing
    label in ten draws leaves the dataset unlabeled."""
    n = draw(st.integers(0, 30))
    scored = draw(st.lists(st.tuples(pool_scores, st.sampled_from("ab")), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    if n and draw(st.integers(0, 9)) == 0:
        labels[draw(st.integers(0, n - 1))] = None
    return make_dataset(scored, labels)


@given(pooled_datasets())
# ties and one-element strata holding zeros of both signs
@example(make_dataset([(-0.0, "a"), (0.0, "a"), (0.5, "b"), (0.5, "b")], labels=[1, 0, 1, 0]))
# zeros of one sign only (-0.0 in one group, 0.0 in the other), and tied subnormals
@example(make_dataset([(-0.0, "a"), (-0.0, "a"), (1.0, "a"), (5e-324, "b"), (0.0, "b"),
                       (5e-324, "b"), (1.0, "b")], labels=[1, 0, 1, 0, 1, 1, 0]))
# every minority pair a positive: SingleClassError on both sides
@example(make_dataset([(0.5, "a"), (0.2, "a"), (0.6, "b"), (0.1, "b")], labels=[1, 1, 1, 0]))
# no majority pair at all
@example(make_dataset([(0.3, "a"), (0.7, "a")], labels=[0, 1]))
# the minority pairs are labeled, the dataset is not: UnlabeledDatasetError
@example(make_dataset([(0.5, "a"), (0.2, "a"), (0.6, "b")], labels=[1, 0, None]))
def test_curves_and_group_aucs_equal_oracles(d):
    for group in (MIN, MAJ):
        assert_curve_matches_oracle(d.group_scores(group))
        if d.labeled:
            for label in (0, 1):
                assert_curve_matches_oracle(d.stratum_scores(group, label))
    assert _outcome(auc, d) == _outcome(oracle_auc, d)
    for group in (MIN, MAJ):
        want = _outcome(oracle_auc, d.subset(group)) if d.labeled else UnlabeledDatasetError
        assert _outcome(auc, d, group) == want


def test_conditional_curve_degenerate_stratum():
    d = make_dataset([(0.9, "a"), (0.9, "a"), (0.1, "b")], labels=[1, 1, 0])
    curve = conditional_curve(d, MIN, 1)
    assert curve(0.9) == 1.0
    assert curve(0.95) == 0.0


def test_conditional_curve_unlabeled():
    d = make_dataset([(0.9, "a"), (0.1, "b")])
    with pytest.raises(UnlabeledDatasetError):
        conditional_curve(d, MIN, 1)


def test_conditional_curve_small_stratum():
    d = make_dataset(
        [(0.3, "a"), (0.7, "a"), (0.5, "b"), (0.6, "b")], labels=[1, 1, 0, 1]
    )
    curve = conditional_curve(d, MIN, 1)
    assert curve(0.3) == 1.0
    assert curve(0.5) == 0.5
    assert curve(0.7) == 0.5
    assert curve(0.8) == 0.0


def test_conditional_curve_empty_stratum():
    d = make_dataset([(0.3, "a"), (0.5, "b")], labels=[1, 0])
    with pytest.raises(EmptyStratumError):
        conditional_curve(d, MIN, 0)


# ---------------------------------------------------------------- step curve

def test_step_curve_validation():
    with pytest.raises(ValueError):
        StepCurve(np.array([0.5, 0.2]), np.array([1.0, 0.5, 0.0]))
    with pytest.raises(ValueError):
        StepCurve(np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        StepCurve(np.array([1.5]), np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "breakpoints,values,message",
    [
        ([NAN], [1.0, 0.0], "breakpoints must lie in"),
        ([0.2, NAN, 0.8], [1.0, 0.5, 0.2, 0.0], "strictly increasing"),
        ([0.2, INF], [1.0, 0.5, 0.0], "breakpoints must lie in"),
        ([-INF], [1.0, 0.0], "breakpoints must lie in"),
        ([0.5], [1.0, NAN], "values must be finite"),
        ([0.5], [INF, 0.0], "values must be finite"),
        ([], [-INF], "values must be finite"),
    ],
)
def test_step_curve_rejects_nan_and_inf(breakpoints, values, message):
    with pytest.raises(ValueError, match=message):
        StepCurve(np.array(breakpoints), np.array(values))


@pytest.mark.parametrize(
    "fn", [pr_curve, lambda x: w1_distance(x, [0.2]), lambda x: w1_distance([0.2], x)],
    ids=["pr_curve", "w1-left", "w1-right"],
)
@pytest.mark.parametrize("scores", [[0.5, NAN], [NAN], [0.5, INF], [-INF, 0.5]])
def test_nan_and_inf_scores_are_rejected(fn, scores):
    with pytest.raises(ScoreOutOfRangeError, match=r"^scores must lie in \[0, 1\]") as info:
        fn(scores)
    # an InputError to the CLI, and still a ValueError to older callers
    assert isinstance(info.value, InputError) and isinstance(info.value, ValueError)


def test_step_curve_csv_round_trip():
    curve = pr_curve([0.2, 0.8, 0.8, 0.5])
    buf = io.StringIO()
    curve.to_csv(buf)
    again = StepCurve.from_csv(io.StringIO(buf.getvalue()))
    assert again.breakpoints.tolist() == curve.breakpoints.tolist()
    assert again.values.tolist() == curve.values.tolist()


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), unique=True, max_size=30),
    st.data(),
)
def test_step_curve_csv_matches_csv_writer(tmp_path_factory, bps, data):
    # the streamed rows equal what csv.writer wrote, to a path and to a file
    bps = sorted(bps)
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=len(bps) + 1, max_size=len(bps) + 1))
    curve = StepCurve(np.array(bps), np.array(values))
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(("theta", "value"))
    writer.writerow(("0", repr(float(curve.values[0]))))
    writer.writerows(zip(map(repr, curve.breakpoints.tolist()), map(repr, curve.values[1:].tolist())))
    buf = io.StringIO()
    curve.to_csv(buf)
    assert buf.getvalue() == expected.getvalue()
    path = tmp_path_factory.mktemp("curve") / "curve.csv"
    curve.to_csv(path)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "theta,value\n",
        "wrong,header\n0,1\n",
        "theta,value\n0.5,1.0\n",  # missing theta=0 row
        "theta,value\n0,1.0\nnot-a-number,0.5\n",
        "theta,value\n0,1.0\n0.5,nan\n",  # NaN value
        "theta,value\n0,nan\n",
        "theta,value\n0,1.0\ninf,0.0\n",  # infinite breakpoint
        "theta,value\n0,1.0\n0.5,-inf\n",
    ],
)
def test_step_curve_csv_malformed(text):
    with pytest.raises(MalformedCurveError):
        StepCurve.from_csv(io.StringIO(text))


def test_curve_field_larger_than_csv_limit_matches_oracle():
    # the oracle lets csv.Error out; the library names the line in a
    # MalformedCurveError, raised once the rest of the stream is decoded
    data = b"theta,value\n0,1.0\n" + b"0" * (csv.field_size_limit() + 1) + b",0.5\n"
    with pytest.raises(csv.Error) as want:
        oracle.curve_from_csv(data)
    assert str(want.value) == "field larger than field limit (131072)"
    with pytest.raises(MalformedCurveError) as got:
        StepCurve.from_csv(data)
    assert str(got.value) == f"curve CSV line 3: {want.value}"


# ---------------------------------------------------------------- AUC

def test_auc_perfect_separation():
    d = make_dataset([(0.9, "a"), (0.9, "b"), (0.1, "a"), (0.1, "b")], labels=[1, 1, 0, 0])
    assert auc(d) == 1.0


def test_auc_all_ties():
    d = make_dataset([(0.5, "a"), (0.5, "b"), (0.5, "a")], labels=[1, 0, 1])
    assert auc(d) == 0.5


def test_auc_mixed():
    d = make_dataset([(0.8, "a"), (0.4, "a"), (0.6, "b"), (0.2, "b")], labels=[1, 1, 0, 0])
    assert auc(d) == 0.75


def test_auc_requires_labels():
    d = make_dataset([(0.5, "a"), (0.6, "b")])
    with pytest.raises(UnlabeledDatasetError):
        auc(d)


def test_auc_requires_both_classes():
    d = make_dataset([(0.5, "a"), (0.6, "b")], labels=[1, 1])
    with pytest.raises(SingleClassError):
        auc(d)


def _auc_brute_force(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def _auc_roc_trapezoid(scores, labels):
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    thresholds = np.unique(scores)[::-1]
    tpr = [0.0] + [(pos >= t).mean() for t in thresholds] + [1.0]
    fpr = [0.0] + [(neg >= t).mean() for t in thresholds] + [1.0]
    return float(np.trapezoid(tpr, fpr))


def test_auc_matches_brute_force_and_roc_integral():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = int(rng.integers(4, 200))
        scores = rng.random(n)
        if trial % 2:
            scores = np.round(scores, 1)  # force ties
        labels = (rng.random(n) < 0.4).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        d = make_dataset(
            [(float(s), "a" if i % 2 else "b") for i, s in enumerate(scores)],
            labels=[int(y) for y in labels],
        )
        value = auc(d)
        assert value == pytest.approx(_auc_brute_force(scores, labels), abs=1e-12)
        assert value == pytest.approx(_auc_roc_trapezoid(scores, labels), abs=1e-12)


# ---------------------------------------------------------------- walk

def walk_curve(thetas: list[float], offset: int) -> StepCurve:
    """A curve on ``thetas``' distinct values, a zero taking the sign of the
    first zero drawn, with values that tell every interval apart."""
    bp = np.array(sorted(set(thetas)), dtype=float)
    return StepCurve(bp, np.arange(bp.size + 1, dtype=float) + 100 * offset)


@given(
    st.lists(st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 1.0]), st.floats(0, 1)),
                      max_size=12), min_size=1, max_size=4),
    st.sampled_from([1, 2, 3, 8192]),
)
@example([[], []], 1)  # nothing to walk
@example([[0.5, 1.0], [], [1.0]], 1)  # a breakpoint at 1.0, in one curve and an empty one
@example([[-0.0, 0.5], [0.0, 0.25, 0.75]], 1)  # -0.0 against 0.0: one batch takes both
@example([[0.0, 0.1, 0.2], [-0.0, 0.3, 0.4, 1.0]], 2)
def test_curve_batches_cut_every_curve_at_one_top(thetas, batch_rows):
    curves = [walk_curve(t, i) for i, t in enumerate(thetas)]
    heads, done, prev_top = [[] for _ in curves], [0] * len(curves), -np.inf
    with mock.patch.object(dataset, "BATCH_ROWS", batch_rows):
        # checked as it is drawn: a walk that stops advancing never ends
        for batch in curve_batches(curves):
            top = min((c.breakpoints[k + batch_rows - 1] for c, k in zip(curves, done)
                       if c.breakpoints.size >= k + batch_rows), default=np.inf)
            assert sum(head.size for head, _ in batch) > 0
            for i, (c, (head, values)) in enumerate(zip(curves, batch)):
                k = done[i]
                assert head.size <= batch_rows
                assert np.all(head <= top) and np.all(head > prev_top)
                assert values.tolist() == c.values[k:k + head.size + 1].tolist()
                assert np.shares_memory(values, c.values)
                heads[i].append(head)
                done[i] += head.size
            prev_top = top
    for c, curve_heads in zip(curves, heads):
        assert np.concatenate([np.empty(0), *curve_heads]).tobytes() == c.breakpoints.tobytes()


# ---------------------------------------------------------------- W1

def _integral_oracle(c1, c2):
    """The integral as first written, with its own merged grid and edges."""
    merged = np.union1d(c1.breakpoints, c2.breakpoints)
    edges = np.concatenate((merged, [1.0])) if (merged.size == 0 or merged[-1] < 1.0) else merged
    widths = np.diff(np.concatenate(([0.0], edges)))
    return float(np.sum(np.abs(c1(edges) - c2(edges)) * widths))


def test_merged_grid_evaluates_both_curves():
    c1, c2 = pr_curve([0.2, 0.8]), pr_curve([0.5])
    grid, v1, v2 = (np.concatenate(part) for part in zip(*merged_grid_batches(c1, c2)))
    assert grid.tolist() == [0.2, 0.5, 0.8, 1.0]
    assert v1.tolist() == [1.0, 0.5, 0.5, 0.0]
    assert v2.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_merged_grid_keeps_the_first_curves_zero():
    # np.union1d's rule, kept without it: of two equal breakpoints the first
    # curve's comes first, so of a -0.0 and a 0.0 the first curve's sign wins
    negative, positive = pr_curve([-0.0, 0.5]), pr_curve([0.0, 0.7])
    for c1, c2 in ((negative, positive), (positive, negative)):
        grid = next(merged_grid_batches(c1, c2))[0]
        assert _bits(grid) == _bits([c1.breakpoints[0], 0.5, 0.7])
        assert _bits(gap_curve(c1, c2).breakpoints[:1]) == _bits(c1.breakpoints[:1])


@given(scores_list, scores_list, st.booleans())
def test_integral_and_gap_curve_match_oracle_exactly(x, y, at_one):
    # scores at 1.0 put a breakpoint at 1, which must not add a zero-width term
    c1, c2 = pr_curve(x + [1.0] if at_one else x), pr_curve(y)
    assert integrate_abs_difference(c1, c2) == _integral_oracle(c1, c2)
    gap = gap_curve(c1, c2)
    assert gap.breakpoints.tolist() == np.union1d(c1.breakpoints, c2.breakpoints).tolist()
    assert gap(gap.breakpoints).tolist() == np.abs(c1(gap.breakpoints) - c2(gap.breakpoints)).tolist()


def test_integral_of_flat_curves():
    flat = StepCurve(np.array([]), np.array([0.25]))
    assert integrate_abs_difference(flat, StepCurve(np.array([]), np.array([1.0]))) == 0.75
    assert gap_curve(flat, flat).values.tolist() == [0.0]


def test_w1_identical():
    assert w1_distance([0.1, 0.4, 0.9], [0.1, 0.4, 0.9]) == 0.0


def test_w1_maximal():
    assert w1_distance([1.0] * 5, [0.0] * 5) == 1.0


def test_w1_worked_example():
    assert w1_distance([0.2, 0.8], [0.5]) == pytest.approx(0.3)


def test_w1_empty():
    with pytest.raises(EmptyInputError):
        w1_distance([], [0.5])


def _quantile_integral(x, y):
    """Independent oracle: integral of |Q_x - Q_y| over probability levels."""
    xs, ys = np.sort(np.asarray(x, float)), np.sort(np.asarray(y, float))
    grid = np.union1d(
        np.arange(1, xs.size + 1) / xs.size, np.arange(1, ys.size + 1) / ys.size
    )
    edges = np.concatenate(([0.0], grid))
    mids = (edges[:-1] + edges[1:]) / 2
    qx = xs[np.minimum(xs.size - 1, np.ceil(mids * xs.size).astype(int) - 1)]
    qy = ys[np.minimum(ys.size - 1, np.ceil(mids * ys.size).astype(int) - 1)]
    return float(np.sum(np.abs(qx - qy) * np.diff(edges)))


@given(scores_list, scores_list)
def test_w1_equals_quantile_integral(x, y):
    assert w1_distance(x, y) == pytest.approx(_quantile_integral(x, y), abs=1e-9)


@given(scores_list, scores_list, scores_list)
def test_w1_metric_axioms(x, y, z):
    d_xy = w1_distance(x, y)
    assert d_xy >= 0.0
    assert d_xy == pytest.approx(w1_distance(y, x), abs=1e-12)
    assert w1_distance(x, x) == 0.0
    # triangle inequality, with float slack
    assert d_xy <= w1_distance(x, z) + w1_distance(z, y) + 1e-9


def test_w1_identity_of_indiscernibles_as_multisets():
    assert w1_distance([0.3, 0.3, 0.7], [0.7, 0.3, 0.3]) == 0.0
    assert w1_distance([0.3, 0.7], [0.3, 0.3, 0.7]) > 0.0


# ---------------------------------------------------------------- batched against whole-length

def whole_length_jitter(scores, sigma: float, seed: int) -> np.ndarray:
    """``add_jitter`` with one whole-length draw and one whole-length add."""
    out = unit_scores(scores, "scores to jitter").copy()
    if sigma == 0 or out.size == 0:
        return out
    out += np.random.default_rng(seed).normal(0.0, sigma, out.shape)
    np.clip(out, 0.0, 1.0, out=out)
    return out


def whole_length_lists(d, sigma: float, seed: int, mask=None) -> list[np.ndarray]:
    """``build_group_scores``'s two lists as a whole-length jitter, a split,
    a sorted copy with every -0.0 below every 0.0, and a reversed view."""
    jittered, is_minority = whole_length_jitter(d.scores(), sigma, seed), d.is_minority
    if mask is not None:
        jittered, is_minority = jittered[mask], is_minority[mask]
    lists = []
    for side in (is_minority, ~is_minority):
        negative = np.signbit(jittered[side]).sum()
        asc = np.sort(jittered[side])
        asc[:negative] = -0.0
        asc[negative:np.searchsorted(asc, 0.0, "right")] = 0.0
        lists.append(asc[::-1])
    return lists


def whole_length_auc(d, group=None) -> float:
    """``auc`` with whole-length class arrays and one ``searchsorted`` per side."""
    if not d.labeled:
        raise UnlabeledDatasetError("AUC requires a fully labeled dataset")
    keep = slice(None) if group is None else d._mask(group)
    scores, labels = d.scores()[keep], d.labels()[keep]
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    if pos.size == 0 or neg.size == 0:
        raise SingleClassError("AUC requires both label classes")
    below = np.searchsorted(neg, pos, side="left")
    below_or_equal = np.searchsorted(neg, pos, side="right")
    wins = below.sum() + 0.5 * (below_or_equal - below).sum()
    return float(wins / (pos.size * neg.size))


def whole_length_risk(original, calibrated) -> float:
    """``risk_estimate`` of valid equal-length lists, through three whole-length arrays."""
    orig, calib = np.asarray(original, float), np.asarray(calibrated, float)
    return 0.0 if orig.size == 0 else float(np.mean(np.sort(np.abs(calib - orig))))


def tied_dataset(n: int, seed: int):
    """n labeled pairs whose scores tie (two decimals), with zeros of both
    signs and ones, and whose groups may be empty."""
    rng = np.random.default_rng(seed)
    scores = np.round(rng.random(n), 2)
    scores[rng.random(n) < 0.1] = 1.0
    scores[rng.random(n) < 0.1] = 0.0
    scores[rng.random(n) < 0.1] = -0.0
    return ScoreDataset([f"p{i}" for i in range(n)], scores, rng.random(n) < 0.4,
                        rng.integers(0, 2, n))


@pytest.mark.parametrize("batch_rows", [1, 2, 3, 8192])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 8191, 8192, 8193, 16385])
def test_batched_steps_equal_whole_length_oracles(batch_rows, n):
    # the noise is one stream however it is cut, and the AUC's rank counts
    # are integer sums, so every result is the oracle's bit for bit
    d = tied_dataset(n, seed=n)
    mask = np.random.default_rng(n + 1).random(n) < 0.5
    with mock.patch.object(dataset, "BATCH_ROWS", batch_rows):
        for sigma, seed in ((0.0, 0), (0.05, 3), (0.5, 11)):
            jittered = add_jitter(d.scores(), sigma, seed)
            assert _bits(jittered) == _bits(whole_length_jitter(d.scores(), sigma, seed))
            # all pairs, as calib fits; one side of a partition, as ccalib fits
            for keep, got in ((None, _outcome(build_group_scores, d, sigma, seed)),
                              (mask, _outcome(_group_lists, jittered, d.is_minority,
                                              sigma, seed, mask))):
                want = whole_length_lists(d, sigma, seed, keep)
                if isinstance(got, CalibModel):
                    assert [_bits(got.scores_a), _bits(got.scores_b)] == [_bits(w) for w in want]
                else:
                    assert got is EmptyGroupError and not all(w.size for w in want)
            assert _bits([risk_estimate(d.scores(), jittered)]) == _bits(
                [whole_length_risk(d.scores(), jittered)])
        for group in (None, MIN, MAJ):
            got, want = _outcome(auc, d, group), _outcome(whole_length_auc, d, group)
            assert _bits([got]) == _bits([want]) if isinstance(want, float) else got is want
