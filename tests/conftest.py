import csv
import tracemalloc
import xml.etree.ElementTree as ET
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from scorecalib import dataset
from scorecalib.dataset import ScoreDataset

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("det")


# the 15-pair worked dataset: post-noise scores, minority marked 'a'
EXAMPLE_PAIRS = [
    (0.46, "a"), (0.80, "a"), (0.89, "b"), (0.72, "a"), (0.85, "b"),
    (0.65, "a"), (0.37, "b"), (0.97, "b"), (0.35, "b"), (0.39, "a"),
    (0.31, "b"), (0.28, "a"), (0.25, "b"), (0.22, "b"), (0.18, "b"),
]

# the same 15 pairs before noise, in the same order
EXAMPLE_PAIRS_RAW = [
    (0.45, "a"), (0.82, "a"), (0.90, "b"), (0.71, "a"), (0.84, "b"),
    (0.67, "a"), (0.38, "b"), (0.98, "b"), (0.36, "b"), (0.38, "a"),
    (0.32, "b"), (0.29, "a"), (0.24, "b"), (0.21, "b"), (0.19, "b"),
]


def make_dataset(scored, labels=None):
    """Build a dataset from (score, 'a'|'b') tuples, optionally labeled
    (a label of None is missing)."""
    return ScoreDataset(
        [f"p{i + 1}" for i in range(len(scored))],
        [score for score, _ in scored],
        [token == "a" for _, token in scored],
        None if labels is None else [-1 if label is None else label for label in labels],
    )


def one_batch_bytes(path) -> int:
    """Traced bytes of the first :data:`~scorecalib.dataset.BATCH_ROWS`
    csv rows after the header of the CSV file at ``path``, as lists."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        next(reader)
        tracemalloc.start()
        try:
            batch = list(islice(reader, dataset.BATCH_ROWS))  # alive while measured
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()


def parse_svgs(root) -> int:
    """Parse every SVG file under ``root`` with ElementTree; return the count."""
    paths = sorted(Path(root).rglob("*.svg"))
    for path in paths:
        ET.parse(path)
    return len(paths)


def random_dataset(rng, n_a, n_b, beta_a=(2, 2), beta_b=(2, 2), labeled=False,
                   pos_rate=0.5, decimals=None):
    """Random two-group dataset with Beta-distributed scores."""
    rows = []
    for token, n, params in (("a", n_a, beta_a), ("b", n_b, beta_b)):
        scores = rng.beta(params[0], params[1], n)
        if decimals is not None:
            scores = np.round(scores, decimals)
        rows.extend((float(s), token) for s in scores)
    labels = None
    if labeled:
        labels = [int(v) for v in (rng.random(len(rows)) < pos_rate)]
    return make_dataset(rows, labels)


@pytest.fixture
def example_dataset():
    return make_dataset(EXAMPLE_PAIRS)


@pytest.fixture
def example_dataset_raw():
    return make_dataset(EXAMPLE_PAIRS_RAW)
