"""Synthetic scored-pair datasets from per-(group, label) Beta mixtures.

Matching scores in the wild pile up near 0 and 1; a Beta distribution
per (group, label) cell reproduces that shape at any size, with fully
seeded draws so suites are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ScoreDataset
from .errors import InvalidParameterError, InvalidSpecError


@dataclass(frozen=True)
class BetaParams:
    shape1: float
    shape2: float

    def __post_init__(self):
        # NaN and inf fail it: numpy draws NaN scores from either
        if not (0 < self.shape1 < np.inf and 0 < self.shape2 < np.inf):
            raise InvalidSpecError(
                f"Beta shapes must be finite and > 0, got ({self.shape1}, {self.shape2})"
            )


@dataclass(frozen=True)
class SynthSpec:
    """Counts, positive rates, and score distributions per (group, label)."""

    n_minority: int
    n_majority: int
    pos_rate_a: float
    pos_rate_b: float
    minority_pos: BetaParams
    minority_neg: BetaParams
    majority_pos: BetaParams
    majority_neg: BetaParams
    seed: int

    def __post_init__(self):
        if self.n_minority < 1 or self.n_majority < 1:
            raise InvalidSpecError("group counts must be >= 1")
        for name, rate in (("pos_rate_a", self.pos_rate_a), ("pos_rate_b", self.pos_rate_b)):
            if not (0.0 <= rate <= 1.0):
                raise InvalidSpecError(f"{name} must lie in [0, 1], got {rate}")


def generate(spec: SynthSpec) -> ScoreDataset:
    """Draw a labeled dataset; identical spec (incl. seed) => identical data."""
    if spec.seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {spec.seed}")
    rng = np.random.default_rng(spec.seed)
    n = spec.n_minority + spec.n_majority
    width = len(str(n))
    scores, labels = [], []
    try:  # a count numpy cannot allocate, in the draws or in the columns
        for count, rate, pos, neg in (
            (spec.n_minority, spec.pos_rate_a, spec.minority_pos, spec.minority_neg),
            (spec.n_majority, spec.pos_rate_b, spec.majority_pos, spec.majority_neg),
        ):
            drawn = rng.random(count) < rate
            labels.append(drawn)
            scores.append(
                rng.beta(
                    np.where(drawn, pos.shape1, neg.shape1),
                    np.where(drawn, pos.shape2, neg.shape2),
                )
            )
        count = n  # every pair's id, group and label columns
        return ScoreDataset(
            (f"p{serial:0{width}d}" for serial in range(1, n + 1)),
            np.concatenate(scores),
            np.arange(n) < spec.n_minority,
            np.concatenate(labels),
        )
    except (ValueError, MemoryError) as exc:
        raise InvalidSpecError(f"cannot draw {count} pairs: {exc}") from None
