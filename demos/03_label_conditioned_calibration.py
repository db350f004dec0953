"""Why label-dependent bias needs conditioning, and how gamma is found.

Plain barycenter calibration equalizes positive rates but can leave (or
worsen) gaps that are conditioned on the true label, such as the
true-positive-rate gap.  The conditional variant first splits scores at
a pseudo-label threshold gamma, found by mean shift over the score
distribution, and calibrates predicted matches and non-matches
separately.
"""

import numpy as np

from scorecalib import (
    BetaParams,
    BiasMetricKind,
    SynthSpec,
    auc,
    calibrate_dataset,
    cond_calibrate_dataset,
    fit,
    fit_conditional,
    generate,
    meanshift_threshold,
    score_bias,
)

# Positive-class scores differ across groups (the minority's matcher is
# weaker on true matches), so label-dependent bias is built in.
spec = SynthSpec(
    n_minority=700,
    n_majority=700,
    pos_rate_a=0.35,
    pos_rate_b=0.35,
    minority_pos=BetaParams(6, 2.5),
    minority_neg=BetaParams(2.5, 6),
    majority_pos=BetaParams(12, 2),
    majority_neg=BetaParams(2, 9),
    seed=7,
)
d = generate(spec)

# Mean shift's one setting is the Gaussian kernel's bandwidth (0.1 by
# default); the iteration cap, tolerance and merge radius are fixed.
gamma = meanshift_threshold(d.scores(), bandwidth=0.1)
print(f"scores cluster low and high; meanshift puts the split at gamma = {gamma:.3f}")
narrow = meanshift_threshold(d.scores(), bandwidth=0.05)
print(f"with bandwidth 0.05 the split moves to gamma = {narrow:.3f}")

plain = calibrate_dataset(fit(d, sigma=0.0, seed=1), d)
cond_model = fit_conditional(d, sigma=0.0, seed=1, bandwidth=0.1)
conditional = cond_calibrate_dataset(cond_model, d)

print("\n                     before    plain     conditional")
for kind in (BiasMetricKind.DP, BiasMetricKind.EO, BiasMetricKind.EOD):
    row = (
        score_bias(d, kind),
        score_bias(plain, kind),
        score_bias(conditional, kind),
    )
    print(f"  {kind.value.upper():<18} {row[0]:7.4f}  {row[1]:7.4f}  {row[2]:7.4f}")

print(f"\n  {'AUC':<18} {auc(d):7.4f}  {auc(plain):7.4f}  {auc(conditional):7.4f}")

# The conditional model is two independent calibrators, one per side of
# gamma, each with its own minority weight.
print("\nconditional sub-models:")
for name, sub in (("matched", cond_model.matched), ("unmatched", cond_model.unmatched)):
    print(f"  {name}: {sub.n_a} minority + {sub.n_b} majority scores, alpha={sub.alpha:.3f}")

# Routing is by the query's own score: at or above gamma goes to the
# matched-side model, below it to the unmatched side.
rng = np.random.default_rng(0)
sample = np.round(rng.random(3), 2)
from scorecalib import GroupId, cond_calibrate

for s in sample:
    side = "matched" if s >= cond_model.gamma else "unmatched"
    out = cond_calibrate(cond_model, float(s), GroupId.MINORITY)
    print(f"  query {s:.2f} -> {side} side -> {out:.3f}")
