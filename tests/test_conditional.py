import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scorecalib import conditional, dataset
from scorecalib.cli import main as cli_main
from scorecalib.bias import BiasMetricKind, risk_estimate, score_bias
from scorecalib.calibration import calibrate_dataset, calibrate_scores, check_queries, fit
from scorecalib.conditional import (
    CONVERGENCE_TOL,
    MAX_ITERATIONS,
    _mean_shift_modes,
    _weighted_points,
    check_bandwidth,
    cond_calibrate,
    cond_calibrate_dataset,
    cond_calibrate_scores,
    fit_conditional,
    load_model,
    meanshift_threshold,
    model_to_dict_conditional,
    save_model,
)
from scorecalib.dataset import GroupId, ScoreDataset
from scorecalib.empirical import w1_distance
from scorecalib.errors import (
    EmptyGroupInPartitionError,
    EmptyInputError,
    InvalidParameterError,
    LengthMismatchError,
    ScoreOutOfRangeError,
    SingleModeError,
    UnlabeledDatasetError,
)

from conftest import make_dataset
from test_calibration import rank_rounding_bound

MIN, MAJ = GroupId.MINORITY, GroupId.MAJORITY


# ---------------------------------------------------------------- meanshift

def test_meanshift_two_spikes():
    scores = [0.1] * 50 + [0.9] * 50
    assert meanshift_threshold(scores) == pytest.approx(0.5, abs=1e-9)


def test_meanshift_worked_example(example_dataset):
    gamma = meanshift_threshold(example_dataset.scores())
    assert 0.46 < gamma < 0.65


def test_meanshift_single_mode():
    with pytest.raises(SingleModeError):
        meanshift_threshold([0.5] * 10)


def test_meanshift_empty_and_singleton():
    with pytest.raises(EmptyInputError):
        meanshift_threshold([])
    with pytest.raises(SingleModeError):
        meanshift_threshold([0.4])


def test_meanshift_unbalanced_spikes_pick_heaviest_two():
    scores = [0.1] * 40 + [0.5] * 3 + [0.9] * 40
    gamma = meanshift_threshold(scores, bandwidth=0.05)
    assert gamma == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize(
    "scores",
    [
        [float("nan"), 0.1, 0.9, 0.85],
        [0.1, 0.12, float("inf"), 0.9],
        [0.1, 0.12, -float("inf"), 0.9],
        [0.1, 0.12, 1.2, 0.9],
        [-0.1, 0.12, 0.8, 0.9],
    ],
)
def test_meanshift_rejects_scores_outside_unit_interval(scores):
    with pytest.raises(ScoreOutOfRangeError):
        meanshift_threshold(scores)


def dense_mean_shift_modes(data, bandwidth):
    """Reference: the full (active starts x n) kernel on every iteration."""
    positions, weights_per_start = np.unique(data.astype(float), return_counts=True)
    active = np.ones(positions.size, dtype=bool)
    inv_two_h2 = 1.0 / (2.0 * bandwidth**2)
    for _ in range(MAX_ITERATIONS):
        if not active.any():
            break
        current = positions[active]
        kernel = np.exp(-((current[:, None] - data[None, :]) ** 2) * inv_two_h2)
        shifted = (kernel @ data) / kernel.sum(axis=1)
        moved = np.abs(shifted - current)
        positions[active] = shifted
        active[active] = moved >= CONVERGENCE_TOL

    order = np.argsort(positions, kind="stable")
    centers, counts = [], []
    for pos, mass in zip(positions[order], weights_per_start[order]):
        if centers and pos - centers[-1] <= bandwidth / 2:
            total = counts[-1] + mass
            centers[-1] = (centers[-1] * counts[-1] + pos * mass) / total
            counts[-1] = total
        else:
            centers.append(float(pos))
            counts.append(int(mass))
    return np.array(centers), np.array(counts)


def _two_cluster_scores(n, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.beta(2, 8, n // 2), rng.beta(8, 2, n - n // 2)])


def _lone_trailing_row_scores():
    # 961 distinct values among 4000 points, most of them repeated
    rng = np.random.default_rng(23)
    values = rng.choice(np.unique(np.round(_two_cluster_scores(1200, 23), 6)), 961, replace=False)
    data = np.concatenate([values, rng.choice(values, 4000 - 961)])
    assert np.unique(data).size == 961
    return data


@pytest.mark.parametrize(
    "make_scores",
    [
        pytest.param(lambda: _two_cluster_scores(3000, 5), id="distinct-3k"),
        pytest.param(lambda: np.round(_two_cluster_scores(8000, 9), 3), id="tied-8k"),
        pytest.param(_lone_trailing_row_scores, id="lone-trailing-row"),
    ],
)
def test_blocked_kernel_matches_dense_oracle(monkeypatch, make_scores):
    # the weighted kernel sums each row over distinct values, the dense
    # one over every point, so centers may differ in the last bits; the
    # cap is raised so that 3000 distinct values run the exact kernel, not the grid
    monkeypatch.setattr(conditional, "_MAX_POINTS", 3000)
    data = make_scores()
    centers, counts = _mean_shift_modes(data, 0.1)
    ref_centers, ref_counts = dense_mean_shift_modes(data, 0.1)
    assert counts.tolist() == ref_counts.tolist()
    np.testing.assert_allclose(centers, ref_centers, rtol=0, atol=1e-12)
    gamma = meanshift_threshold(data, 0.1)
    monkeypatch.setattr(conditional, "_mean_shift_modes", lambda *_: (ref_centers, ref_counts))
    assert abs(gamma - meanshift_threshold(data, 0.1)) <= 1e-12


@pytest.mark.parametrize(
    "make_scores",
    [
        pytest.param(lambda: _two_cluster_scores(1001, 2), id="distinct-1001"),
        pytest.param(lambda: np.round(_two_cluster_scores(777, 3), 2), id="tied-777"),
    ],
)
def test_repeating_the_data_scales_only_the_counts(make_scores):
    # every point's mass is 4x, a power of two, so each weighted sum scales exactly
    data = make_scores()
    centers, counts = _mean_shift_modes(data, 0.1)
    tiled_centers, tiled_counts = _mean_shift_modes(np.tile(data, 4), 0.1)
    assert tiled_centers.tobytes() == centers.tobytes()
    assert tiled_counts.tolist() == (4 * counts).tolist()


def test_kernel_work_depends_on_distinct_values_only(monkeypatch):
    # a work count, not a wall time: kernel entries passed to exp
    data = np.round(_two_cluster_scores(2000, 7), 3)
    real_exp = np.exp
    entries = []

    def counting_exp(x, *args, **kwargs):
        entries.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    work = []
    for points in (data, np.tile(data, 8)):
        entries.clear()
        _mean_shift_modes(points, 0.1)
        work.append(sum(entries))
    assert work[0] > 0 and work[0] == work[1]


@pytest.mark.parametrize(
    "n, seed", [(2000, 41), (3000, 42), (4000, 43), (4000, 44)], ids=lambda v: str(v)
)
def test_binned_points_match_the_exact_kernel(monkeypatch, n, seed):
    # the exact side raises the cap above the distinct count, so it runs
    # over every distinct value; the binned side over at most 1024 cells
    data = _two_cluster_scores(n, seed)
    assert np.unique(data).size == n
    assert _weighted_points(data)[0].size <= conditional._MAX_POINTS < n
    centers, _ = _mean_shift_modes(data, 0.1)
    gamma = meanshift_threshold(data, 0.1)
    monkeypatch.setattr(conditional, "_MAX_POINTS", n)
    exact_centers, _ = _mean_shift_modes(data, 0.1)
    assert centers.size == exact_centers.size
    assert abs(gamma - meanshift_threshold(data, 0.1)) <= 1e-6


def test_grid_cells_hold_zero_and_one():
    # 0.0 and -0.0 are one value of the first cell, 1.0 (twice) falls in
    # the last cell (index 1023, not 1024) with 0.9995, and a cell sits at
    # its mass-weighted mean; 2000 values fill the middle
    middle = np.linspace(0.25, 0.75, 2000, endpoint=False)
    data = np.concatenate([[0.0, -0.0, 0.0005, 0.9995, 1.0, 1.0], middle])
    values, masses = _weighted_points(data)
    assert values.size <= 1024 and masses.dtype.kind == "i"
    assert masses.sum() == data.size
    assert (values[0], masses[0]) == (0.0005 / 3, 3)
    assert (values[-1], masses[-1]) == ((0.9995 + 2.0) / 3, 3)
    assert np.all(np.diff(values) > 0)


def test_distinct_scores_in_one_cell_are_a_single_mode(monkeypatch, tmp_path, capsys):
    # 2000 distinct scores in [0.5, 0.5 + 2e-4), all in cell 512
    data = 0.5 + np.arange(2000) * 1e-7
    assert _weighted_points(data)[0].size == 1
    with pytest.raises(SingleModeError):
        meanshift_threshold(data)
    lines = ["id,score,group,label"]
    lines += [f"p{i},{s!r},{'a' if i % 2 else 'b'}," for i, s in enumerate(data.tolist())]
    csv_path = tmp_path / "one_cell.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["calibrate", "--input", str(csv_path), "--minority-token", "a",
            "--algorithm", "ccalib", "--out-dir", str(tmp_path / "out")]
    assert cli_main(argv) == 3
    assert "--gamma" in capsys.readouterr().err
    monkeypatch.setattr(conditional, "_MAX_POINTS", 2000)
    with pytest.raises(SingleModeError):
        meanshift_threshold(data)


def test_kernel_work_is_capped_above_the_grid_size(monkeypatch):
    # a work count, not a wall time: kernel entries passed to exp, at 1e3,
    # 1e4 and 1e5 distinct scores; a quadratic path would grow 100x a step
    real_exp = np.exp
    entries = []

    def counting_exp(x, *args, **kwargs):
        entries.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    work = []
    for n in (1_000, 10_000, 100_000):
        data = _two_cluster_scores(n, 8)
        assert np.unique(data).size == n
        entries.clear()
        _mean_shift_modes(data, 0.1)
        work.append(sum(entries))
        # checked at each step, so a quadratic path fails at 1e4, not after hours at 1e5
        assert 0 < work[-1] <= MAX_ITERATIONS * 1024**2
        assert len(work) == 1 or work[-1] < 15 * work[-2]


def test_meanshift_memory_per_score_does_not_grow():
    peaks = []
    for n in (10_000, 100_000):
        data = _two_cluster_scores(n, 9)
        tracemalloc.start()
        try:
            meanshift_threshold(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak / n)
    assert peaks[1] <= peaks[0]


def test_meanshift_memory_is_bounded():
    data = _two_cluster_scores(3000, 5)
    tracemalloc.start()
    try:
        meanshift_threshold(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_bandwidth_check(example_dataset):
    # the CLI's bad bandwidths, then NaN and inf; fit_conditional checks
    # the bandwidth even with a gamma given, as it is saved in the model
    for bad in (-1, 0, 1e-200, 1e300, float("nan"), float("inf")):
        for call in (
            lambda: check_bandwidth(bad),
            lambda: meanshift_threshold([0.1, 0.9], bad),
            lambda: fit_conditional(example_dataset, 0.0, 0, 0.57, bandwidth=bad),
        ):
            with pytest.raises(InvalidParameterError, match="bandwidth"):
                call()
    check_bandwidth(5.3e-155)
    check_bandwidth(9.4e153)


# ---------------------------------------------------------------- fitting

def test_fit_conditional_worked_example(example_dataset):
    model = fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.57)
    un = model.unmatched
    assert un.scores_b.tolist() == [0.37, 0.35, 0.31, 0.25, 0.22, 0.18]
    assert un.scores_a.tolist() == [0.46, 0.39, 0.28]
    assert un.alpha == pytest.approx(3 / 9)
    ma = model.matched
    assert ma.scores_a.tolist() == [0.80, 0.72, 0.65]
    assert ma.scores_b.tolist() == [0.97, 0.89, 0.85]
    assert ma.alpha == pytest.approx(0.5)


def test_fit_conditional_gamma_below_all_scores(example_dataset):
    with pytest.raises(EmptyGroupInPartitionError):
        fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.01)


def test_fit_conditional_balanced_partitions():
    rows = [(0.1, "a"), (0.2, "b"), (0.8, "a"), (0.9, "b")]
    model = fit_conditional(make_dataset(rows), sigma=0.0, seed=0, gamma_override=0.5)
    assert model.matched.alpha == 0.5
    assert model.unmatched.alpha == 0.5


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf")])
def test_fit_conditional_rejects_non_finite_gamma(example_dataset, gamma):
    with pytest.raises(InvalidParameterError):
        fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=gamma)


def test_fit_conditional_names_offending_partition(example_dataset):
    # gamma above every minority score leaves the matched side all-majority
    with pytest.raises(EmptyGroupInPartitionError, match="matched.*minority"):
        fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.81)


def test_fit_conditional_with_true_labels():
    rows = [(0.1, "a"), (0.2, "b"), (0.45, "a"), (0.8, "a"), (0.9, "b"), (0.6, "b")]
    labels = [0, 0, 1, 1, 1, 0]
    d = make_dataset(rows, labels)
    model = fit_conditional(d, sigma=0.0, seed=0, gamma_override=0.5, use_true_labels=True)
    # the 0.45 positive lands on the matched side, the 0.6 negative on the unmatched
    assert model.matched.scores_a.tolist() == [0.8, 0.45]
    assert model.unmatched.scores_b.tolist() == [0.6, 0.2]


def test_fit_conditional_true_labels_requires_labels(example_dataset):
    with pytest.raises(UnlabeledDatasetError):
        fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.57,
                        use_true_labels=True)


# ---------------------------------------------------------------- calibration

def test_cond_calibrate_worked_example(example_dataset):
    model = fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.57)
    out = cond_calibrate(model, 0.34, MAJ)
    assert out == pytest.approx((1 / 3) * 0.39 + (2 / 3) * 0.31, abs=1e-9)


def test_query_at_gamma_routes_to_matched(example_dataset):
    model = fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.57)
    out = cond_calibrate(model, 0.57, MAJ)
    ma = model.matched
    lo = min(ma.scores_a.min(), ma.scores_b.min())
    assert out >= lo  # matched-side output; unmatched values all sit below gamma


def test_routing_keeps_outputs_in_side_ranges(example_dataset):
    model = fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.57)
    rng = np.random.default_rng(17)
    for s in rng.random(200):
        group = MIN if s < 0.5 else MAJ
        out = cond_calibrate(model, float(s), group)
        side = model.matched if s >= model.gamma else model.unmatched
        lo = min(side.scores_a.min(), side.scores_b.min())
        hi = max(side.scores_a.max(), side.scores_b.max())
        assert lo - 1e-12 <= out <= hi + 1e-12


def test_symmetric_partitions_fixed_point():
    rows = [(s, g) for s in (0.1, 0.3, 0.7, 0.9) for g in ("a", "b")]
    model = fit_conditional(make_dataset(rows), sigma=0.0, seed=0, gamma_override=0.5)
    for s in (0.1, 0.3, 0.7, 0.9):
        for g in (MIN, MAJ):
            assert cond_calibrate(model, s, g) == pytest.approx(s, abs=1e-12)


def test_cond_calibrate_rejects_out_of_range(example_dataset):
    model = fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.57)
    with pytest.raises(ScoreOutOfRangeError):
        cond_calibrate(model, -0.1, MIN)


def test_cond_calibrate_scores_rejects_unequal_lengths(example_dataset):
    model = fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.57)
    with pytest.raises(LengthMismatchError, match="^1 scores for 2 groups$"):
        cond_calibrate_scores(model, [0.5], [MIN, MAJ])


def test_cond_calibrate_dataset_matches_scalar(example_dataset):
    model = fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.57)
    out = cond_calibrate_dataset(model, example_dataset)
    expected = [
        cond_calibrate(model, score, group)
        for score, group in zip(example_dataset.scores().tolist(), example_dataset.groups())
    ]
    assert out.scores().tolist() == expected


def whole_array_routing(model, scores, groups):
    """The routing before it was batched: each side's queries masked out
    of the whole input and calibrated in one call."""
    scores, is_minority = check_queries(scores, groups)
    matched_mask = scores >= model.gamma
    out = np.empty(scores.size, dtype=float)
    for sub, mask in ((model.matched, matched_mask), (model.unmatched, ~matched_mask)):
        if mask.any():
            out[mask] = calibrate_scores(sub, scores[mask], is_minority[mask])
    return out


def routing_case(case: str):
    """Queries (scores, minority flags) for one routing case, gamma 0.5."""
    rng = np.random.default_rng(len(case))
    scores = np.concatenate([[0.0, -0.0, 0.5, 1.0, np.nextafter(0.5, 0)], rng.random(40)])
    groups = np.concatenate([[True, True], rng.random(scores.size - 2) < 0.4])
    if case == "all matched":
        keep = scores >= 0.5
    elif case == "all unmatched":
        keep = scores < 0.5
    elif case == "one group":
        keep = groups
    elif case == "empty":
        keep = np.zeros(scores.size, bool)
    else:  # straddling gamma
        keep = np.ones(scores.size, bool)
    return scores[keep], groups[keep]


@pytest.mark.parametrize("batch_rows", [1, 2, 7, None])
@pytest.mark.parametrize("case", ["all matched", "all unmatched", "one group", "straddling", "empty"])
def test_batched_routing_matches_whole_array_routing(monkeypatch, batch_rows, case):
    # each unmatched list ends in -0.0, so a zero query's output is -0.0
    rng = np.random.default_rng(3)
    fit_scores = np.concatenate([[-0.0, -0.0], rng.random(38)])
    model = fit_conditional(
        make_dataset([(float(s), "ab"[i % 2]) for i, s in enumerate(fit_scores)]),
        sigma=0.0, seed=0, gamma_override=0.5,
    )
    scores, groups = routing_case(case)
    expected = whole_array_routing(model, scores, groups)
    if batch_rows is not None:
        monkeypatch.setattr(dataset, "BATCH_ROWS", batch_rows)
    out = cond_calibrate_scores(model, scores, groups)
    assert out.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert np.signbit(out).any() == (case not in ("all matched", "empty"))


def test_conditional_apply_peaks_as_calib_does():
    # each batch's sides are routed in place: no whole-length mask, copy
    # of a side's scores or flags, or side result beside the output
    n = 200_000
    rng = np.random.default_rng(11)
    d = ScoreDataset([f"p{i}" for i in range(n)], rng.random(n), rng.random(n) < 0.4)
    peaks = []
    for apply, model in ((calibrate_dataset, fit(d, 0.05, 0)),
                         (cond_calibrate_dataset, fit_conditional(d, 0.05, 0, 0.5))):
        tracemalloc.start()
        try:
            apply(model, d)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 32 * dataset.BATCH_ROWS


def test_conditional_bias_collapse_on_separable_labels():
    # gamma-partition equals the true-label partition by construction:
    # negatives below 0.45, positives above 0.55, gamma = 0.5
    rng = np.random.default_rng(31)
    n_a, n_b = 80, 120
    rows, labels = [], []
    for token, n in (("a", n_a), ("b", n_b)):
        shift = 0.0 if token == "a" else 0.05
        for s in rng.uniform(0.02, 0.40 - shift, n // 2):
            rows.append((float(s), token))
            labels.append(0)
        for s in rng.uniform(0.58 + shift, 0.98, n - n // 2):
            rows.append((float(s), token))
            labels.append(1)
    d = make_dataset(rows, labels)
    model = fit_conditional(d, sigma=0.0, seed=3, gamma_override=0.5)
    calibrated = cond_calibrate_dataset(model, d)

    pos_sizes = (model.matched.n_a, model.matched.n_b)
    neg_sizes = (model.unmatched.n_a, model.unmatched.n_b)
    assert score_bias(calibrated, BiasMetricKind.EO) <= 4.0 / min(pos_sizes)
    assert score_bias(calibrated, BiasMetricKind.FPR_GAP) <= 4.0 / min(neg_sizes)


def test_determinism(example_dataset):
    kwargs = dict(sigma=0.05, seed=7, gamma_override=0.57)
    m1 = fit_conditional(example_dataset, **kwargs)
    m2 = fit_conditional(example_dataset, **kwargs)
    queries = np.array([0.1, 0.34, 0.6, 0.95])
    groups = [MIN, MAJ, MIN, MAJ]
    out1 = cond_calibrate_scores(m1, queries, groups)
    out2 = cond_calibrate_scores(m2, queries, groups)
    assert out1.tolist() == out2.tolist()


def test_model_persistence_round_trip(tmp_path, example_dataset):
    model = fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.57)
    path = tmp_path / "cond_model.json"
    save_model(model, path)
    again = load_model(path)
    assert again.gamma == model.gamma
    assert again.matched.scores_a.tolist() == model.matched.scores_a.tolist()
    assert again.unmatched.scores_b.tolist() == model.unmatched.scores_b.tolist()
    assert again.bandwidth == model.bandwidth


def test_model_dict_schema(example_dataset):
    payload = model_to_dict_conditional(
        fit_conditional(example_dataset, sigma=0.0, seed=0, gamma_override=0.57)
    )
    assert set(payload) == {"gamma", "matched", "unmatched", "meanshift"}
    assert set(payload["meanshift"]) == {"bandwidth", "tol", "max_iter", "merge_radius"}


@given(st.one_of(st.floats(5.3e-155, 9.4e153), st.integers(1, 10**6)))
@example(0.1)
@example(5.3e-155)
@example(9.4e153)
def test_ccalib_model_file_saves_to_the_same_bytes(bandwidth):
    # merge_radius is written as bandwidth / 2 and must equal the
    # bandwidth / 2 recomputed from the bandwidth read back
    d = make_dataset([(0.1, "a"), (0.2, "b"), (0.8, "a"), (0.9, "b")])
    model = fit_conditional(d, sigma=0.0, seed=0, gamma_override=0.5, bandwidth=bandwidth)
    first, second = io.StringIO(), io.StringIO()
    save_model(model, first)
    again = load_model(first.getvalue().encode())
    save_model(again, second)
    assert second.getvalue() == first.getvalue()
    assert again.bandwidth == bandwidth


def distinct_side(low, high):
    return st.lists(
        st.floats(low, high, exclude_max=high < 1, allow_nan=False),
        min_size=1, max_size=30, unique=True,
    )


@given(
    distinct_side(0.5, 1.0), distinct_side(0.5, 1.0),
    distinct_side(0.0, 0.5), distinct_side(0.0, 0.5),
)
# equal group sizes on both sides: the identity is exact
@example([0.9, 0.7], [0.8, 0.55], [0.1, 0.3, 0.2], [0.4, 0.05, 0.15])
def test_risk_identity_per_partition(matched_a, matched_b, unmatched_a, unmatched_b):
    # within each side of gamma, a sigma=0 self-fit is the calib self-fit
    # of that side, so its risk obeys the same identity and bound
    rows = [(s, "a") for s in matched_a + unmatched_a]
    rows += [(s, "b") for s in matched_b + unmatched_b]
    d = make_dataset(rows)
    model = fit_conditional(d, sigma=0.0, seed=0, gamma_override=0.5)
    calibrated = cond_calibrate_dataset(model, d).scores()
    matched = d.scores() >= 0.5
    for side, mask in ((model.matched, matched), (model.unmatched, ~matched)):
        a, b = side.scores_a.tolist(), side.scores_b.tolist()
        alpha = side.alpha
        risk = risk_estimate(d.scores()[mask], calibrated[mask])
        gap = abs(risk - 2 * alpha * (1 - alpha) * w1_distance(a, b))
        assert gap <= rank_rounding_bound(a, b) + 1e-12
        if len(a) == len(b):
            assert gap <= 1e-12


def test_fit_conditional_jitters_once_for_both_sides(monkeypatch):
    # one normal variate per fit pair; jittering the whole dataset once
    # per side drew two
    drawn = []
    make_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def normal(self, loc, scale, size):
            drawn.append(int(np.prod(size)))
            return self.rng.normal(loc, scale, size)

    d = make_dataset([(0.1, "a"), (0.2, "b"), (0.8, "a"), (0.9, "b"), (0.3, "b"), (0.7, "a")])
    model = fit_conditional(d, 0.05, 3, gamma_override=0.5)
    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    counted = fit_conditional(d, 0.05, 3, gamma_override=0.5)
    assert sum(drawn) == len(d)
    for side in ("matched", "unmatched"):
        for name in ("scores_a", "scores_b"):
            assert np.array_equal(getattr(getattr(counted, side), name),
                                  getattr(getattr(model, side), name))
