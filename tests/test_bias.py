import numpy as np
import pytest

from scorecalib.bias import (
    BiasMetricKind,
    curve_gaps,
    group_curves,
    risk_estimate,
    score_bias,
    threshold_bias,
)
from scorecalib.dataset import GroupId, ScoreDataset
from scorecalib.empirical import gap_curve, pr_curve, w1_distance
from scorecalib.errors import (
    EmptyStratumError,
    LengthMismatchError,
    ScoreOutOfRangeError,
    ThetaOutOfRangeError,
    UnlabeledDatasetError,
)

from conftest import make_dataset, random_dataset

MIN, MAJ = GroupId.MINORITY, GroupId.MAJORITY
KINDS = list(BiasMetricKind)


def swap_groups(d):
    return ScoreDataset(d.ids, d.scores(), ~d.is_minority, d.labels() if d.labeled else None)


@pytest.mark.parametrize("kind", KINDS)
def test_identical_group_distributions_have_zero_bias(kind):
    rows = [(0.2, "a"), (0.8, "a"), (0.2, "b"), (0.8, "b")]
    d = make_dataset(rows, labels=[1, 0, 1, 0])
    assert score_bias(d, kind) == 0.0


def test_dp_worked_example():
    d = make_dataset([(0.2, "a"), (0.8, "a"), (0.5, "b")])
    assert score_bias(d, BiasMetricKind.DP) == pytest.approx(0.3)


def test_dp_worked_example_full_dataset(example_dataset):
    # hand-traced interval sum over the 15 merged breakpoints: 71/450
    assert score_bias(example_dataset, BiasMetricKind.DP) == pytest.approx(
        71 / 450, abs=1e-12
    )


def test_dp_maximal_disparity():
    d = make_dataset([(1.0, "a"), (1.0, "a"), (0.0, "b")])
    assert score_bias(d, BiasMetricKind.DP) == pytest.approx(1.0)


def test_dp_equals_w1():
    rng = np.random.default_rng(5)
    for i in range(30):
        d = random_dataset(rng, int(rng.integers(1, 60)), int(rng.integers(1, 60)),
                           beta_a=(2, 5), beta_b=(5, 2))
        dp = score_bias(d, BiasMetricKind.DP)
        w1 = w1_distance(d.group_scores(MIN), d.group_scores(MAJ))
        assert dp == pytest.approx(w1, abs=1e-9)


def test_score_bias_symmetric_in_groups():
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = random_dataset(rng, 20, 30, beta_a=(2, 5), beta_b=(5, 2),
                           labeled=True, pos_rate=0.5)
        for kind in KINDS:
            assert score_bias(d, kind) == pytest.approx(score_bias(swap_groups(d), kind), abs=1e-12)


def test_score_bias_ranges():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = random_dataset(rng, 15, 25, beta_a=(1, 4), beta_b=(4, 1),
                           labeled=True, pos_rate=0.5)
        for kind in KINDS:
            limit = 2.0 if kind is BiasMetricKind.EOD else 1.0
            assert 0.0 <= score_bias(d, kind) <= limit


def test_eod_is_sum_of_components():
    rng = np.random.default_rng(8)
    d = random_dataset(rng, 30, 30, beta_a=(2, 4), beta_b=(4, 2), labeled=True)
    assert score_bias(d, BiasMetricKind.EOD) == pytest.approx(
        score_bias(d, BiasMetricKind.EO) + score_bias(d, BiasMetricKind.FPR_GAP)
    )


def test_eod_has_no_curves_of_its_own():
    d = make_dataset([(0.2, "a"), (0.8, "b")], [1, 0])
    with pytest.raises(ValueError, match="^EOD is composite"):
        group_curves(d, BiasMetricKind.EOD)


def test_eod_parts_are_eo_and_fpr_gap():
    assert BiasMetricKind.EOD.parts == (BiasMetricKind.EO, BiasMetricKind.FPR_GAP)
    for kind in (BiasMetricKind.DP, BiasMetricKind.EO, BiasMetricKind.FPR_GAP):
        assert kind.parts == (kind,)


def test_eod_is_exact_sum_of_parts_at_every_threshold():
    rng = np.random.default_rng(8)
    d = random_dataset(rng, 30, 30, beta_a=(2, 4), beta_b=(4, 2), labeled=True, decimals=2)
    eo, fpr = BiasMetricKind.EO, BiasMetricKind.FPR_GAP
    assert score_bias(d, BiasMetricKind.EOD) == score_bias(d, eo) + score_bias(d, fpr)
    for theta in (0.0, 0.25, 0.5, 0.73, 1.0):
        want = threshold_bias(d, eo, theta) + threshold_bias(d, fpr, theta)
        assert threshold_bias(d, BiasMetricKind.EOD, theta) == want


def test_label_dependent_kinds_require_labels():
    d = make_dataset([(0.5, "a"), (0.6, "b")])
    for kind in (BiasMetricKind.EO, BiasMetricKind.FPR_GAP, BiasMetricKind.EOD):
        with pytest.raises(UnlabeledDatasetError):
            score_bias(d, kind)
    # DP works fine without labels
    score_bias(d, BiasMetricKind.DP)


def test_empty_stratum_raises():
    d = make_dataset([(0.5, "a"), (0.6, "b")], labels=[1, 1])
    with pytest.raises(EmptyStratumError):
        score_bias(d, BiasMetricKind.FPR_GAP)  # no label-0 pairs anywhere
    d2 = make_dataset([(0.5, "a"), (0.6, "b")], labels=[0, 1])
    with pytest.raises(EmptyStratumError):
        score_bias(d2, BiasMetricKind.EO)  # minority has no positives


# -------------------------------------------------------- threshold bias

def test_threshold_bias_zero_at_origin():
    d = make_dataset([(0.2, "a"), (0.8, "b")])
    assert threshold_bias(d, BiasMetricKind.DP, 0.0) == 0.0


def test_threshold_bias_identical_distributions():
    d = make_dataset([(0.2, "a"), (0.8, "a"), (0.2, "b"), (0.8, "b")])
    for theta in (0.1, 0.5, 0.9):
        assert threshold_bias(d, BiasMetricKind.DP, theta) == 0.0


def test_threshold_bias_worked_example():
    d = make_dataset([(0.2, "a"), (0.8, "a"), (0.5, "b")])
    assert threshold_bias(d, BiasMetricKind.DP, 0.5) == pytest.approx(0.5)


def test_threshold_bias_rejects_bad_theta():
    d = make_dataset([(0.2, "a"), (0.8, "b")])
    with pytest.raises(ThetaOutOfRangeError):
        threshold_bias(d, BiasMetricKind.DP, 1.5)


@pytest.mark.parametrize("theta", [1.5, -0.1, float("nan")])
def test_curve_gaps_rejects_bad_theta(theta):
    curves = group_curves(make_dataset([(0.2, "a"), (0.8, "b")]), BiasMetricKind.DP)
    with pytest.raises(ThetaOutOfRangeError, match=f"theta {theta!r} outside"):
        curve_gaps(curves, [0.5, theta])


def test_curve_gaps_equal_scalar_evaluation_exactly():
    # one vectorised evaluation gives the same floats as one scalar gap per theta
    rng = np.random.default_rng(4)
    thetas = [0.0, 0.1, 0.33, 0.5, 0.5, 0.9, 1.0]
    for _ in range(5):
        d = random_dataset(rng, 20, 35, beta_a=(2, 5), beta_b=(5, 2), labeled=True,
                           decimals=2)
        for kind in (BiasMetricKind.DP, BiasMetricKind.EO, BiasMetricKind.FPR_GAP):
            curves = group_curves(d, kind)
            want = [abs(curves[MIN](t) - curves[MAJ](t)) for t in thetas]
            assert curve_gaps(curves, thetas).tolist() == want
            assert [threshold_bias(d, kind, t) for t in thetas] == want


def test_threshold_bias_integrates_to_score_bias():
    # summing the gap value over merged intervals reproduces the exact bias
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = random_dataset(rng, 12, 18, beta_a=(2, 5), beta_b=(5, 2))
        gc = gap_curve(pr_curve(d.group_scores(MIN)), pr_curve(d.group_scores(MAJ)))
        edges = np.concatenate((gc.breakpoints, [1.0]))
        widths = np.diff(np.concatenate(([0.0], edges)))
        total = sum(
            threshold_bias(d, BiasMetricKind.DP, float(e)) * w
            for e, w in zip(edges, widths)
        )
        assert total == pytest.approx(score_bias(d, BiasMetricKind.DP), abs=1e-12)


def test_exact_bias_matches_grid_riemann_sum():
    # scores quantized to the grid make the Riemann sum an exact second route
    rng = np.random.default_rng(10)
    for grid_points in (10**3, 10**4):
        grid = np.arange(1, grid_points + 1) / grid_points
        for _ in range(10):
            d = random_dataset(rng, int(rng.integers(10, 80)), int(rng.integers(10, 80)),
                               beta_a=(2, 6), beta_b=(6, 2), decimals=3)
            gc = gap_curve(pr_curve(d.group_scores(MIN)), pr_curve(d.group_scores(MAJ)))
            riemann = float(np.sum(gc(grid)) / grid_points)
            exact = score_bias(d, BiasMetricKind.DP)
            jumps = np.abs(np.diff(gc.values))
            max_jump = float(jumps.max()) if jumps.size else 0.0
            assert abs(exact - riemann) <= max(2 * max_jump / grid_points, 1e-12)


def test_grid_riemann_sum_continuous_scores():
    # unquantized scores: error is bounded by total curve variation / G
    rng = np.random.default_rng(12)
    grid_points = 10**4
    grid = np.arange(1, grid_points + 1) / grid_points
    for _ in range(10):
        d = random_dataset(rng, 40, 60, beta_a=(2, 6), beta_b=(6, 2))
        gc = gap_curve(pr_curve(d.group_scores(MIN)), pr_curve(d.group_scores(MAJ)))
        riemann = float(np.sum(gc(grid)) / grid_points)
        exact = score_bias(d, BiasMetricKind.DP)
        assert abs(exact - riemann) <= 2.0 / grid_points


# ---------------------------------------------------------------- risk

def test_risk_identity():
    assert risk_estimate([0.2, 0.8], [0.2, 0.8]) == 0.0


def test_risk_worked_example():
    assert risk_estimate([0.2, 0.8], [0.3, 0.7]) == pytest.approx(0.1)


def test_risk_maximal_shift():
    assert risk_estimate([0.0], [1.0]) == 1.0


def test_risk_of_no_scores_is_zero():
    assert risk_estimate([], []) == 0.0


def test_risk_does_not_depend_on_row_order():
    rng = np.random.default_rng(7)
    orig, calib = rng.random(1000), rng.random(1000)
    risk = risk_estimate(orig, calib)
    assert risk == pytest.approx(np.mean(np.abs(calib - orig)), rel=1e-12)
    for _ in range(20):
        order = rng.permutation(orig.size)
        assert risk_estimate(orig[order], calib[order]) == risk


def test_risk_length_mismatch():
    with pytest.raises(LengthMismatchError):
        risk_estimate([0.2, 0.8], [0.3])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("bad", [NAN, 1.5, -0.1, INF, -INF])
def test_risk_rejects_scores_outside_unit_interval(bad):
    # unchecked, a NaN gives a NaN risk, and 1.5 a risk of 0.5
    with pytest.raises(ScoreOutOfRangeError, match=r"^original scores must lie in \[0, 1\]"):
        risk_estimate([bad, 0.2], [0.5, 0.2])
    with pytest.raises(ScoreOutOfRangeError, match=r"^calibrated scores must lie in \[0, 1\]"):
        risk_estimate([0.5, 0.2], [bad, 0.2])
