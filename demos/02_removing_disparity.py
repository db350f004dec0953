"""Quantile-barycenter calibration, step by step on a 15-pair dataset.

Walks one query through the position rules, then calibrates the whole
dataset and shows the before/after demographic-parity bias, the risk
(mean score movement), and the untouched per-group ranking.
"""

import numpy as np

from scorecalib import (
    BiasMetricKind,
    GroupId,
    ScoreDataset,
    calibrate,
    calibrate_dataset,
    fit,
    risk_estimate,
    score_bias,
)

rows = [
    (0.46, "a"), (0.80, "a"), (0.89, "b"), (0.72, "a"), (0.85, "b"),
    (0.65, "a"), (0.37, "b"), (0.97, "b"), (0.35, "b"), (0.39, "a"),
    (0.31, "b"), (0.28, "a"), (0.25, "b"), (0.22, "b"), (0.18, "b"),
]
# a dataset is a set of read-only columns: ids, scores, minority flags
# (and optional labels, -1 where missing)
d = ScoreDataset(
    [f"p{i + 1}" for i in range(len(rows))],
    [s for s, _ in rows],
    [g == "a" for _, g in rows],
)

# the fitted model is the two groups' descending score lists; alpha, the
# minority share, follows from their sizes
model = fit(d, sigma=0.0, seed=0)
print("fitted model:")
print(f"  minority scores (desc): {model.scores_a.tolist()}")
print(f"  majority scores (desc): {model.scores_b.tolist()}")
print(f"  alpha (minority share): {model.alpha}")

# One majority query with score 0.34.  Its rank among the majority
# scores is 6 of 9 (five majority scores sit above it), so its quantile
# level is 6/9.  The same level in the 6-element minority list is
# ceil(6/9 * 6) = 4.  The calibrated score blends the two list entries
# at those positions with weights alpha and 1 - alpha.
query = 0.34
out = calibrate(model, query, GroupId.MAJORITY)
print(f"\nquery {query} (majority):")
print(f"  majority rank 6 -> score {model.scores_b[5]}, minority rank 4 -> {model.scores_a[3]}")
print(f"  calibrated: 0.4 * {model.scores_a[3]} + 0.6 * {model.scores_b[5]} = {out:.4f}")

calibrated = calibrate_dataset(model, d)
print("\nwhole-dataset calibration:")
print(f"  DP bias before: {100 * score_bias(d, BiasMetricKind.DP):6.2f}%")
print(f"  DP bias after:  {100 * score_bias(calibrated, BiasMetricKind.DP):6.2f}%")
print(f"  risk (mean |shift|): {risk_estimate(d.scores(), calibrated.scores()):.4f}")

# Within each group the calibration map is monotone, so group-internal
# rankings survive unchanged.
ids = np.array(d.ids)
for group, members in ((GroupId.MINORITY, d.is_minority), (GroupId.MAJORITY, ~d.is_minority)):
    before = ids[members][np.argsort(-d.scores()[members], kind="stable")]
    after = ids[members][np.argsort(-calibrated.scores()[members], kind="stable")]
    print(f"  {group.value} ranking unchanged: {before.tolist() == after.tolist()}")
