import io
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scorecalib.bias import BiasMetricKind, risk_estimate, score_bias
from scorecalib.calibration import (
    CalibModel,
    calibrate,
    calibrate_dataset,
    calibrate_scores,
    fit,
    model_to_dict,
)
from scorecalib.conditional import load_model, save_model
from scorecalib.dataset import GroupId, ScoreDataset
from scorecalib.empirical import w1_distance
from scorecalib.errors import EmptyGroupError, LengthMismatchError, ScoreOutOfRangeError

from conftest import make_dataset, random_dataset

MIN, MAJ = GroupId.MINORITY, GroupId.MAJORITY

# full self-calibration of the 15-pair worked dataset, traced by hand
# from the position rules (dataset order)
HAND_TRACE = [
    0.370, 0.854, 0.822, 0.798, 0.798, 0.470, 0.482, 0.902,
    0.394, 0.288, 0.370, 0.220, 0.306, 0.244, 0.220,
]


def test_fit_worked_example(example_dataset):
    model = fit(example_dataset, sigma=0.0, seed=0)
    assert model.alpha == 0.4
    assert model.scores_a.tolist() == [0.80, 0.72, 0.65, 0.46, 0.39, 0.28]
    assert model.scores_b.tolist() == [0.97, 0.89, 0.85, 0.37, 0.35, 0.31, 0.25, 0.22, 0.18]


def test_fit_minimal():
    d = make_dataset([(0.3, "a"), (0.7, "b")])
    model = fit(d, sigma=0.0, seed=0)
    assert model.n_a == 1
    assert model.n_b == 1
    assert model.alpha == 0.5


def test_fit_requires_both_groups():
    d = make_dataset([(0.5, "b"), (0.6, "b")])
    with pytest.raises(EmptyGroupError):
        fit(d, sigma=0.0, seed=0)


def test_calibrate_worked_example(example_dataset):
    model = fit(example_dataset, sigma=0.0, seed=0)
    out = calibrate(model, 0.34, MAJ)
    assert out == pytest.approx(0.4 * 0.46 + 0.6 * 0.31, abs=1e-9)
    assert out == pytest.approx(0.37, abs=1e-9)


def test_calibrate_top_of_range(example_dataset):
    # no majority score above 0.99, so pos_b = 1 and the rank maps to pos_a = 1
    model = fit(example_dataset, sigma=0.0, seed=0)
    assert calibrate(model, 0.99, MAJ) == pytest.approx(0.4 * 0.80 + 0.6 * 0.97, abs=1e-9)


def test_calibrate_below_all_scores_clamps(example_dataset):
    model = fit(example_dataset, sigma=0.0, seed=0)
    out = calibrate(model, 0.0, MAJ)
    assert out == pytest.approx(0.4 * 0.28 + 0.6 * 0.18, abs=1e-9)


def test_calibrate_dataset_worked_example(example_dataset):
    model = fit(example_dataset, sigma=0.0, seed=0)
    out = calibrate_dataset(model, example_dataset)
    assert out.scores().tolist() == pytest.approx(HAND_TRACE, abs=1e-9)
    # ids, groups and labels untouched
    assert out.ids is example_dataset.ids
    assert out.groups() == example_dataset.groups()


def test_calibrate_dataset_empty(example_dataset):
    model = fit(example_dataset, sigma=0.0, seed=0)
    out = calibrate_dataset(model, ScoreDataset((), (), ()))
    assert len(out) == 0


def test_symmetric_model_fixed_point():
    # identical group lists: any score in the list maps to itself
    rows = [(s, g) for s in (0.2, 0.5, 0.9) for g in ("a", "b")]
    d = make_dataset(rows)
    model = fit(d, sigma=0.0, seed=0)
    for s in (0.2, 0.5, 0.9):
        for g in (MIN, MAJ):
            assert calibrate(model, s, g) == pytest.approx(s, abs=1e-12)


def test_calibrate_rejects_out_of_range(example_dataset):
    model = fit(example_dataset, sigma=0.0, seed=0)
    with pytest.raises(ScoreOutOfRangeError):
        calibrate(model, 1.2, MAJ)
    with pytest.raises(ScoreOutOfRangeError):
        calibrate(model, float("nan"), MIN)


def test_calibrate_scores_rejects_unequal_lengths(example_dataset):
    model = fit(example_dataset, sigma=0.0, seed=0)
    with pytest.raises(LengthMismatchError, match="^2 scores for 1 groups$"):
        calibrate_scores(model, [0.5, 0.6], [GroupId.MINORITY])


model_strategy = st.builds(
    lambda a, b: CalibModel(
        np.sort(np.array(a))[::-1], np.sort(np.array(b))[::-1], sigma=0.0, seed=0
    ),
    st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=20),
    st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=20),
)


@given(
    model_strategy,
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
    st.sampled_from([MIN, MAJ]),
)
def test_within_group_monotonicity(model, s1, s2, group):
    lo, hi = min(s1, s2), max(s1, s2)
    assert calibrate(model, lo, group) <= calibrate(model, hi, group)


@given(model_strategy, st.floats(0, 1, allow_nan=False), st.sampled_from([MIN, MAJ]))
def test_range_preservation(model, score, group):
    lo = min(model.scores_a.min(), model.scores_b.min())
    hi = max(model.scores_a.max(), model.scores_b.max())
    out = calibrate(model, score, group)
    assert lo - 1e-12 <= out <= hi + 1e-12


def test_batch_matches_scalar(example_dataset):
    model = fit(example_dataset, sigma=0.0, seed=0)
    rng = np.random.default_rng(3)
    scores = rng.random(50)
    groups = [MIN if v < 0.5 else MAJ for v in rng.random(50)]
    batch = calibrate_scores(model, scores, groups)
    single = [calibrate(model, float(s), g) for s, g in zip(scores, groups)]
    assert batch.tolist() == single
    flags = [g is MIN for g in groups]  # a plain list of bools is a minority mask
    assert calibrate_scores(model, scores, flags).tolist() == single
    with pytest.raises(TypeError):
        calibrate_scores(model, scores, [int(f) for f in flags])


def test_self_fit_bias_collapse():
    rng = np.random.default_rng(21)
    for n in (50, 500):
        d = random_dataset(rng, n, int(1.5 * n), beta_a=(8, 2), beta_b=(2, 8))
        model = fit(d, sigma=0.0, seed=1)
        post = score_bias(calibrate_dataset(model, d), BiasMetricKind.DP)
        assert post <= 4.0 / n


def test_equal_group_sizes_collapse_exactly():
    # equal ranks map to equal cross positions, so the calibrated
    # multisets coincide and the positive-rate gap vanishes everywhere
    rng = np.random.default_rng(22)
    d = random_dataset(rng, 100, 100, beta_a=(8, 2), beta_b=(2, 8))
    model = fit(d, sigma=0.0, seed=1)
    assert score_bias(calibrate_dataset(model, d), BiasMetricKind.DP) == 0.0


def test_barycenter_risk_beats_weighted_single_group_mappings():
    # mapping everyone onto one group's distribution is the trivial
    # alternative; the barycenter must cost no more than the alpha-mix
    rng = np.random.default_rng(23)
    for trial in range(10):
        n_a = int(rng.integers(10, 60))
        n_b = int(rng.integers(70, 140))
        d = random_dataset(rng, n_a, n_b, beta_a=(6, 2), beta_b=(2, 6))
        model = fit(d, sigma=0.0, seed=2)
        alpha = model.alpha
        scores = d.scores()
        groups = d.groups()

        out = calibrate_scores(model, scores, groups)
        pos_a_only = np.empty(len(scores))
        pos_b_only = np.empty(len(scores))
        for i, (s, g) in enumerate(zip(scores, groups)):
            own = model.scores_a if g is MIN else model.scores_b
            other = model.scores_b if g is MIN else model.scores_a
            n_own, n_other = own.size, other.size
            greater = int(np.sum(own > s))
            pos = min(n_own, 1 + greater)
            pos_cross = min(n_other, max(1, -(-pos * n_other // n_own)))
            a_pos, b_pos = (pos, pos_cross) if g is MIN else (pos_cross, pos)
            pos_a_only[i] = model.scores_a[a_pos - 1]
            pos_b_only[i] = model.scores_b[b_pos - 1]
        risk_bary = risk_estimate(scores, out)
        risk_map_a = risk_estimate(scores, pos_a_only)
        risk_map_b = risk_estimate(scores, pos_b_only)
        assert risk_bary <= alpha * risk_map_b + (1 - alpha) * risk_map_a + 1e-12


def test_determinism_with_jitter(example_dataset):
    m1 = fit(example_dataset, sigma=0.05, seed=99)
    m2 = fit(example_dataset, sigma=0.05, seed=99)
    assert m1.scores_a.tolist() == m2.scores_a.tolist()
    assert m1.scores_b.tolist() == m2.scores_b.tolist()
    queries = [0.1, 0.42, 0.9]
    for q in queries:
        assert calibrate(m1, q, MIN) == calibrate(m2, q, MIN)


def test_model_persistence_round_trip(tmp_path, example_dataset):
    model = fit(example_dataset, sigma=0.05, seed=42)
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert again.scores_a.tolist() == model.scores_a.tolist()
    assert again.scores_b.tolist() == model.scores_b.tolist()
    assert again.alpha == model.alpha
    assert again.sigma == model.sigma
    assert again.seed == model.seed


def test_model_dict_schema(example_dataset):
    payload = model_to_dict(fit(example_dataset, sigma=0.0, seed=0))
    assert set(payload) == {"alpha", "sigma", "seed", "scores_a", "scores_b"}
    rebuilt = load_model(io.StringIO(json.dumps(payload, default=np.ndarray.tolist)))
    assert rebuilt.alpha == payload["alpha"]


# --- minimal deviation: risk of a self-fit = 2 alpha (1 - alpha) W1 ---------


def rank_rounding_bound(a, b) -> float:
    """An upper bound on |risk - 2 alpha (1 - alpha) W1(A, B)| for a self-fit
    with sigma=0 on groups A (minority) and B, each with distinct scores.

    Index each list descending from 1, let n = n_a + n_b, and write
    f(t) = |A[ceil(t n_a)] - B[ceil(t n_b)]| for t in (0, 1].  The 1-D
    quantile coupling gives W1 = integral of f over (0, 1].

    A minority pair at position p of A has p - 1 own scores above it, so
    ``_rank_positions`` gives pos_own = p and pos_other = q(p) =
    ceil(p n_b / n_a), and it calibrates to alpha A[p] + (1 - alpha) B[q(p)]:
    it moves by (1 - alpha) f(p / n_a).  A majority pair at position r
    moves by alpha f(r / n_b) in the same way.  With alpha = n_a / n,

        risk = alpha (1 - alpha) (S_a + S_b),
        S_a = (1/n_a) sum_p f(p / n_a),   S_b = (1/n_b) sum_r f(r / n_b),

    so risk - 2 alpha (1 - alpha) W1 = alpha (1 - alpha) ((S_a - W1) + (S_b - W1)).

    S_a - W1 is a right-endpoint rule for the integral.  On
    ((p - 1)/n_a, p/n_a] the A index is p and the B index runs from
    lo(p) = floor((p - 1) n_b / n_a) + 1 up to q(p), so f differs from
    f(p / n_a) by at most B[lo(p)] - B[q(p)], the drop of the descending
    B over those indices.  Since lo(p + 1) >= q(p), the index ranges of
    consecutive p do not overlap, and the drops add up to at most
    B[1] - B[n_b] = range(B): |S_a - W1| <= range(B) / n_a.  Likewise
    |S_b - W1| <= range(A) / n_b.  Hence

        |risk - 2 alpha (1 - alpha) W1| <= (n_b range(B) + n_a range(A)) / n**2,

    at most 1/n <= 1/min(n_a, n_b).  With n_a = n_b, lo(p) = q(p) = p, so
    every drop is 0 and the identity is exact.  Tied scores share a
    position, so none of this applies to them.
    """
    n_a, n_b = len(a), len(b)
    spread = n_b * (max(b) - min(b)) + n_a * (max(a) - min(a))
    return spread / (n_a + n_b) ** 2


def self_fit_risk_gap(a, b) -> tuple[float, float]:
    """(|risk - 2 alpha (1 - alpha) W1|, its bound) of a sigma=0 self-fit."""
    d = make_dataset([(s, "a") for s in a] + [(s, "b") for s in b])
    model = fit(d, sigma=0.0, seed=0)
    risk = risk_estimate(d.scores(), calibrate_dataset(model, d).scores())
    alpha = model.alpha
    gap = abs(risk - 2 * alpha * (1 - alpha) * w1_distance(a, b))
    return gap, rank_rounding_bound(a, b)


def distinct_scores(min_size=1, max_size=40):
    return st.lists(
        st.floats(0, 1, allow_nan=False), min_size=min_size, max_size=max_size, unique=True
    )


@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(distinct_scores(n, n), distinct_scores(n, n))
    )
)
def test_risk_identity_equal_group_sizes(lists):
    gap, _ = self_fit_risk_gap(*lists)
    assert gap <= 1e-12


@given(distinct_scores(), distinct_scores())
@example([0.9, 0.1], [0.8, 0.5, 0.2])
def test_risk_identity_rank_rounding_bound(a, b):
    gap, bound = self_fit_risk_gap(a, b)
    assert gap <= bound + 1e-12
    assert bound <= 1 / (len(a) + len(b))


def test_risk_identity_bound_at_scale():
    rng = np.random.default_rng(8)
    for n_a, n_b in ((50, 65), (500, 650)):
        gap, bound = self_fit_risk_gap(rng.beta(2, 5, n_a), rng.beta(5, 2, n_b))
        assert gap <= bound + 1e-12
