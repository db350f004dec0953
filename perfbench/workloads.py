"""Benchmark workloads: seeded input profiles and the CLI commands of one pass.

Inputs are drawn here with numpy alone, never through ``scorecalib.synth``,
so a change to the package cannot change what the benchmark feeds it.
Scores come from one Beta distribution per (group, label) cell; the
minority share and the positive rate within each group are both 0.4, and
every row is labeled.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BETA = {
    (True, 1): (6.0, 2.0),  # minority, label 1
    (True, 0): (2.0, 6.0),
    (False, 1): (10.0, 2.0),  # majority
    (False, 0): (2.0, 8.0),
}
MINORITY_SHARE = 0.4
POS_RATE = 0.4
MIN_ROWS = 400  # floor for scaled-down runs, so mean shift still sees two modes


@dataclass(frozen=True)
class Profile:
    """One input file: row count, score rounding and CSV schema."""

    rows: int
    decimals: int | None  # None keeps full-precision, almost all distinct scores
    schema: str  # "pair" or "record"


@dataclass(frozen=True)
class Command:
    """One ``scorecalib`` invocation of a pass; ``name`` is its output directory."""

    name: str
    kind: str  # "measure", "calibrate" or "plot"
    input: str | None = None
    metrics: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    profiles: dict[str, Profile]
    commands: tuple[Command, ...]


WORKLOADS = {
    "measure-plot": Workload(
        {"pairs": Profile(200_000, None, "pair")},
        (
            Command("measure", "measure", "pairs", ("dp", "eo", "fprgap", "eod")),
            Command("plot", "plot"),
        ),
    ),
    "calibrate-record": Workload(
        {"records": Profile(200_000, 2, "record")},
        (
            Command(
                "calib", "calibrate", "records", ("dp", "eod"),
                ("--schema", "record", "--algorithm", "calib"),
            ),
            Command(
                "ccalib", "calibrate", "records", ("eo",),
                ("--schema", "record", "--algorithm", "ccalib", "--gamma", "0.5"),
            ),
        ),
    ),
    "ccalib-meanshift": Workload(
        {
            "distinct": Profile(4_000, None, "pair"),
            "tied": Profile(20_000, 3, "pair"),
        },
        (
            # the per-layer mean-shift time is split by these command names
            Command("distinct", "calibrate", "distinct", ("eod",), ("--algorithm", "ccalib")),
            Command("tied", "calibrate", "tied", ("eod",), ("--algorithm", "ccalib")),
        ),
    ),
}


@dataclass
class Table:
    """A generated input file and the columns the output checks compare against."""

    path: Path
    schema: str
    scores: np.ndarray
    minority: np.ndarray
    labels: np.ndarray
    sha256: str


def generate(profile: Profile, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores, minority mask and labels in a shuffled row order."""
    n = profile.rows
    n_min = round(MINORITY_SHARE * n)
    minority = np.zeros(n, dtype=bool)
    minority[:n_min] = True
    labels = np.zeros(n, dtype=np.int8)
    for start, size in ((0, n_min), (n_min, n - n_min)):
        labels[start : start + round(POS_RATE * size)] = 1
    scores = np.empty(n)
    for (is_min, label), (a, b) in BETA.items():
        cell = (minority == is_min) & (labels == label)
        scores[cell] = rng.beta(a, b, int(cell.sum()))
    if profile.decimals is not None:
        scores = np.round(scores, profile.decimals)
    order = rng.permutation(n)
    return scores[order], minority[order], labels[order]


def write_inputs(workload: Workload, seed: int, dest: Path, scale: float = 1.0) -> dict[str, Table]:
    """Write every input of a workload under ``dest``; same seed, same bytes."""
    dest.mkdir(parents=True, exist_ok=True)
    tables = {}
    for index, (name, profile) in enumerate(workload.profiles.items()):
        rows = max(MIN_ROWS, int(profile.rows * scale))
        profile = Profile(rows, profile.decimals, profile.schema)
        rng = np.random.default_rng([seed, index])
        scores, minority, labels = generate(profile, rng)
        if profile.schema == "pair":
            header = "id,score,group,label"
            groups = np.where(minority, "minority", "majority")
            lines = [
                f"p{i:07d},{s!r},{g},{y}"
                for i, (s, g, y) in enumerate(zip(scores.tolist(), groups.tolist(), labels.tolist()))
            ]
        else:
            # a minority pair has a minority record on the left, the right or both sides
            header = "id,score,group_left,group_right,label"
            sides = rng.integers(0, 3, rows)
            left = np.where(minority & (sides != 1), "minority", "majority")
            right = np.where(minority & (sides != 0), "minority", "majority")
            lines = [
                f"r{i:07d},{s!r},{a},{b},{y}"
                for i, (s, a, b, y) in enumerate(
                    zip(scores.tolist(), left.tolist(), right.tolist(), labels.tolist())
                )
            ]
        data = ("\n".join([header, *lines]) + "\n").encode("utf-8")
        path = dest / f"{name}.csv"
        path.write_bytes(data)
        tables[name] = Table(
            path,
            profile.schema,
            scores,
            minority,
            labels,
            hashlib.sha256(data).hexdigest(),
        )
    return tables


def argv(cmd: Command, tables: dict[str, Table], pass_dir: Path) -> list[str]:
    """Command-line arguments of one command, writing under ``pass_dir``."""
    out = ["--out-dir", str(pass_dir / cmd.name)]
    if cmd.kind == "plot":
        measured = pass_dir / "measure"
        curves = [str(measured / f"dp_{g}_before.csv") for g in ("minority", "majority")]
        return ["plot", "--input", *curves, *out]
    return [cmd.kind, "--input", str(tables[cmd.input].path), "--metric", *cmd.metrics, *cmd.flags, *out]
