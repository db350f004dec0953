import numpy as np
import pytest

from scorecalib.bias import BiasMetricKind, score_bias
from scorecalib.dataset import GroupId
from scorecalib.errors import InvalidParameterError, InvalidSpecError
from scorecalib.synth import BetaParams, SynthSpec, generate


def spec(**overrides):
    base = dict(
        n_minority=200,
        n_majority=300,
        pos_rate_a=0.4,
        pos_rate_b=0.4,
        minority_pos=BetaParams(8, 2),
        minority_neg=BetaParams(2, 8),
        majority_pos=BetaParams(8, 2),
        majority_neg=BetaParams(2, 8),
        seed=5,
    )
    base.update(overrides)
    return SynthSpec(**base)


def test_counts_and_labels():
    d = generate(spec())
    assert len(d) == 500
    assert d.count(GroupId.MINORITY) == 200
    assert d.count(GroupId.MAJORITY) == 300
    assert d.labeled
    assert d.scores().min() >= 0.0 and d.scores().max() <= 1.0
    assert isinstance(d.ids.dtype, np.dtypes.StringDType) and not d.ids.flags.writeable
    assert d.ids[[0, -1]].tolist() == ["p001", "p500"]


def test_deterministic():
    d1 = generate(spec())
    d2 = generate(spec())
    assert d1 == d2
    d3 = generate(spec(seed=6))
    assert d1 != d3


def test_identical_group_params_give_small_dp():
    d = generate(spec(n_minority=5000, n_majority=5000))
    assert score_bias(d, BiasMetricKind.DP) <= 0.02


def test_opposed_betas_match_cdf_gap_oracle():
    # integral of |F_Beta(8,2) - F_Beta(2,8)| over [0,1] is 0.6 (computed
    # once by numeric quadrature of the regularized incomplete beta)
    d = generate(
        spec(
            n_minority=5000,
            n_majority=5000,
            pos_rate_a=1.0,
            pos_rate_b=1.0,
            minority_pos=BetaParams(8, 2),
            majority_pos=BetaParams(2, 8),
        )
    )
    assert score_bias(d, BiasMetricKind.DP) == pytest.approx(0.6, abs=0.03)


def test_pos_rate_controls_label_frequency():
    d = generate(spec(n_minority=4000, n_majority=4000, pos_rate_a=0.25, pos_rate_b=0.75))
    labels_a = d.labels()[d.is_minority]
    labels_b = d.labels()[~d.is_minority]
    assert np.mean(labels_a) == pytest.approx(0.25, abs=0.03)
    assert np.mean(labels_b) == pytest.approx(0.75, abs=0.03)


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_minority": 0},
        {"n_majority": -5},
        {"pos_rate_a": 1.5},
        {"pos_rate_b": -0.1},
    ],
)
def test_invalid_spec(overrides):
    with pytest.raises(InvalidSpecError):
        spec(**overrides)


def test_generate_rejects_negative_seed():
    with pytest.raises(InvalidParameterError, match="seed"):
        generate(spec(seed=-1))


def test_invalid_beta_shapes():
    with pytest.raises(InvalidSpecError):
        BetaParams(0.0, 2.0)
    with pytest.raises(InvalidSpecError):
        BetaParams(2.0, -1.0)
    with pytest.raises(InvalidSpecError):
        BetaParams(float("nan"), 2.0)
    with pytest.raises(InvalidSpecError):
        BetaParams(2.0, float("inf"))
