"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line so the suite doubles as a gate
report (`pytest tests/test_acceptance.py -v -s`).
"""

import functools
import time

import numpy as np
import pytest

from scorecalib.bias import BiasMetricKind, score_bias
from scorecalib.calibration import calibrate, calibrate_dataset, fit
from scorecalib.cli import main as cli_main
from scorecalib.conditional import (
    cond_calibrate,
    cond_calibrate_dataset,
    fit_conditional,
    meanshift_threshold,
)
from scorecalib.dataset import GroupId
from scorecalib.empirical import auc, gap_curve, pr_curve, w1_distance
from scorecalib.synth import BetaParams, SynthSpec, generate

from conftest import EXAMPLE_PAIRS, make_dataset, parse_svgs, random_dataset

MIN, MAJ = GroupId.MINORITY, GroupId.MAJORITY


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {desc}")
                raise
            print(f"[PASS] criterion {num}: {desc}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def worked_example():
    return make_dataset(EXAMPLE_PAIRS)


LABELED_SPEC = SynthSpec(
    n_minority=2000,
    n_majority=2000,
    pos_rate_a=0.35,
    pos_rate_b=0.35,
    minority_pos=BetaParams(6, 2.5),
    minority_neg=BetaParams(2.5, 6),
    majority_pos=BetaParams(12, 2),
    majority_neg=BetaParams(2, 9),
    seed=2024,
)


@pytest.fixture(scope="module")
def labeled_suite():
    """n=2000/group labeled data, calibrated by both algorithms.

    The positive-class score distributions differ across groups, so the
    data carries label-dependent bias on top of demographic disparity.
    """
    d = generate(LABELED_SPEC)
    calib_model = fit(d, sigma=0.0, seed=7)
    after_calib = calibrate_dataset(calib_model, d)
    cond_model = fit_conditional(d, sigma=0.0, seed=7)  # gamma via meanshift
    after_ccalib = cond_calibrate_dataset(cond_model, d)
    return d, after_calib, after_ccalib


@criterion(1, "worked-example calibration returns 0.37 in < 1 ms")
def test_criterion_1_worked_example_regression(worked_example):
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        model = fit(worked_example, sigma=0.0, seed=0)
        value = calibrate(model, 0.34, MAJ)
        best = min(best, time.perf_counter() - start)
    assert value == pytest.approx(0.4 * 0.46 + 0.6 * 0.31, abs=1e-9)
    assert value == pytest.approx(0.37, abs=1e-9)
    assert best < 1e-3, f"fit+calibrate took {best * 1e3:.3f} ms"


@criterion(2, "conditional worked example returns 0.3366..; meanshift gamma in window")
def test_criterion_2_conditional_regression(worked_example):
    model = fit_conditional(worked_example, sigma=0.0, seed=0, gamma_override=0.57)
    value = cond_calibrate(model, 0.34, MAJ)
    assert value == pytest.approx((1 / 3) * 0.39 + (2 / 3) * 0.31, abs=1e-9)
    gamma = meanshift_threshold(worked_example.scores())
    assert 0.46 < gamma < 0.65


@criterion(3, "self-fit bias collapse: post-DP <= 4/min(n_a, n_b) in < 5 s")
def test_criterion_3_bias_collapse():
    rng = np.random.default_rng(303)
    sizes = [50] * 7 + [500] * 7 + [5000] * 6
    start = time.perf_counter()
    for i, n in enumerate(sizes):
        beta_a = (rng.uniform(2, 9), rng.uniform(1, 4))
        beta_b = (rng.uniform(1, 4), rng.uniform(2, 9))
        d = random_dataset(rng, n, int(1.3 * n), beta_a=beta_a, beta_b=beta_b)
        model = fit(d, sigma=0.0, seed=i)
        post = score_bias(calibrate_dataset(model, d), BiasMetricKind.DP)
        assert post <= 4.0 / n, f"dataset {i} (n={n}): post-DP {post:.6f}"

    d = random_dataset(rng, 2000, 2000, beta_a=(6, 3), beta_b=(4.5, 3))
    pre = score_bias(d, BiasMetricKind.DP)
    model = fit(d, sigma=0.0, seed=99)
    post = score_bias(calibrate_dataset(model, d), BiasMetricKind.DP)
    elapsed = time.perf_counter() - start
    assert pre >= 0.05, f"pre-DP only {pre:.4f}"
    assert post <= 0.01, f"post-DP {post:.4f}"
    assert elapsed < 5.0, f"suite took {elapsed:.2f} s"


@criterion(4, "AUC shift <= 2pp after plain and <= 1pp after conditional calibration")
def test_criterion_4_auc_preservation(labeled_suite):
    d, after_calib, after_ccalib = labeled_suite
    before = auc(d)
    assert abs(auc(after_calib) - before) <= 0.02
    assert abs(auc(after_ccalib) - before) <= 0.01


@criterion(5, "conditional calibration cuts EOD bias by at least half")
def test_criterion_5_conditional_cuts_eod(labeled_suite):
    d, after_calib, after_ccalib = labeled_suite
    pre = score_bias(d, BiasMetricKind.EOD)
    post_cond = score_bias(after_ccalib, BiasMetricKind.EOD)
    assert post_cond <= 0.5 * pre, f"EOD {pre:.4f} -> {post_cond:.4f}"
    # plain calibration carries no such guarantee; record it for context
    post_plain = score_bias(after_calib, BiasMetricKind.EOD)
    print(f"  EOD before={pre:.4f} plain={post_plain:.4f} conditional={post_cond:.4f}")


@criterion(6, "exact bias integral agrees with grid Riemann sum and W1 distance")
def test_criterion_6_integral_oracles():
    rng = np.random.default_rng(606)
    grid_points = 10**4
    grid = np.arange(1, grid_points + 1) / grid_points
    for i in range(100):
        n_a = int(rng.integers(20, 200))
        n_b = int(rng.integers(20, 200))
        beta_a = (rng.uniform(1, 8), rng.uniform(1, 8))
        beta_b = (rng.uniform(1, 8), rng.uniform(1, 8))
        d = random_dataset(rng, n_a, n_b, beta_a=beta_a, beta_b=beta_b, decimals=3)
        exact = score_bias(d, BiasMetricKind.DP)

        gc = gap_curve(pr_curve(d.group_scores(MIN)), pr_curve(d.group_scores(MAJ)))
        riemann = float(np.sum(gc(grid)) / grid_points)
        jumps = np.abs(np.diff(gc.values))
        max_jump = float(jumps.max()) if jumps.size else 0.0
        assert abs(exact - riemann) <= 2.0 * max_jump * 1e-4, f"dataset {i}"

        w1 = w1_distance(d.group_scores(MIN), d.group_scores(MAJ))
        assert abs(exact - w1) <= 1e-9, f"dataset {i}"


@criterion(7, "within-group order preserved; per-group AUC exactly unchanged")
def test_criterion_7_monotonicity_suite():
    rng = np.random.default_rng(707)
    checked = 0
    for _ in range(100):
        d = random_dataset(
            rng, int(rng.integers(2, 40)), int(rng.integers(2, 40)),
            beta_a=(rng.uniform(1, 6), rng.uniform(1, 6)),
            beta_b=(rng.uniform(1, 6), rng.uniform(1, 6)),
        )
        model = fit(d, sigma=0.0, seed=1)
        for _ in range(10):
            group = MIN if rng.random() < 0.5 else MAJ
            s1, s2 = sorted(rng.random(2))
            assert calibrate(model, s1, group) <= calibrate(model, s2, group)
            checked += 1
    assert checked == 1000

    for trial in range(5):
        d = random_dataset(
            rng, 60, 80, beta_a=(5, 2), beta_b=(2, 5), labeled=True, pos_rate=0.4
        )
        model = fit(d, sigma=0.0, seed=trial)
        calibrated = calibrate_dataset(model, d)
        for group in (MIN, MAJ):
            before = auc(d.subset(group))
            after = auc(calibrated.subset(group))
            assert abs(after - before) <= 1e-12


@criterion(8, "held-out fit from a shifted distribution leaves more residual DP")
def test_criterion_8_fit_set_sensitivity():
    rng = np.random.default_rng(808)
    for trial in range(10):
        query = random_dataset(rng, 800, 1200, beta_a=(7, 2.5), beta_b=(2.5, 6))
        shifted = random_dataset(rng, 800, 1200, beta_a=(5, 4), beta_b=(4, 4))
        post_self = score_bias(
            calibrate_dataset(fit(query, 0.0, seed=trial), query), BiasMetricKind.DP
        )
        post_shifted = score_bias(
            calibrate_dataset(fit(shifted, 0.0, seed=trial), query), BiasMetricKind.DP
        )
        assert post_shifted > post_self, (
            f"trial {trial}: shifted {post_shifted:.5f} <= self {post_self:.5f}"
        )


@criterion(9, "every CLI command is byte-deterministic under a fixed seed")
def test_criterion_9_cli_determinism(tmp_path):
    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    def snapshot(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    gen_args = (
        "generate", "--n-minority", 80, "--n-majority", 120,
        "--pos-rate-a", 0.4, "--pos-rate-b", 0.4,
        "--beta-minority-pos", "7,2", "--beta-minority-neg", "2,7",
        "--beta-majority-pos", "9,2", "--beta-majority-neg", "2,5",
        "--seed", 17,
    )
    snaps = []
    for round_name in ("one", "two"):
        base = tmp_path / round_name
        run(*gen_args, "--out-dir", base / "gen")
        data = base / "gen" / "dataset.csv"
        run(
            "measure", "--input", data, "--minority-token", "minority",
            "--metric", "dp", "eod", "--out-dir", base / "measure",
        )
        run(
            "calibrate", "--input", data, "--minority-token", "minority",
            "--algorithm", "calib", "--sigma", 0.05, "--seed", 21,
            "--metric", "dp", "--out-dir", base / "calib",
        )
        run(
            "calibrate", "--input", data, "--minority-token", "minority",
            "--algorithm", "ccalib", "--gamma", 0.5, "--sigma", 0.05,
            "--seed", 21, "--metric", "dp", "--out-dir", base / "ccalib",
        )
        run(
            "plot", "--input", base / "measure" / "dp_minority_before.csv",
            base / "measure" / "dp_majority_before.csv", "--out-dir", base / "plot",
        )
        snaps.append(
            {
                sub: snapshot(base / sub)
                for sub in ("gen", "measure", "calib", "ccalib", "plot")
            }
        )
    assert snaps[0] == snaps[1]
    assert parse_svgs(tmp_path) == 2
