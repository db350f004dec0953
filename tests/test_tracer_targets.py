"""Every name the benchmark's tracer wraps still exists, a traced run
records the ingest layer, and the benchmark's commands reach every traced
layer but those the CLI no longer calls.

``perfbench/traced.py`` puts a timing span around each ``(module, attr)``
in its ``TARGETS``; a renamed or deleted function breaks every traced
benchmark run.  The module is loaded by file path and its targets are
resolved the way ``Tracer.install`` resolves them, without installing
anything (installing patches the package process-wide).  The traced
runs are child processes, for the same reason.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACED = PERFBENCH / "traced.py"
SRC = ROOT / "src"


def load_perfbench(name: str):
    """A module of ``perfbench/``, loaded by file path (and registered, as
    its dataclasses need)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_perfbench("traced").TARGETS


@pytest.mark.parametrize(
    "module_name,attr", [(t[0], t[1]) for t in TARGETS], ids=[f"{t[0]}.{t[1]}" for t in TARGETS]
)
def test_traced_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        # a method is wrapped in its class's own namespace
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def run_traced(spans, argv) -> dict:
    """Run one CLI command under ``traced.py`` in a child process, its spans
    written to ``spans``; the spans and counters."""
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    subprocess.run(
        [sys.executable, str(TRACED), str(spans), *map(str, argv)],
        check=True, env=env, capture_output=True, timeout=120,
    )
    return json.loads(spans.read_text(encoding="utf-8"))


@pytest.mark.parametrize("schema", ["pair", "record"])
def test_traced_run_records_ingest_spans_and_rows(tmp_path, schema):
    # a refactor of ingest must leave the benchmark's per-layer ingest metrics live
    rng = np.random.default_rng(4)
    n = 120
    header = "id,score,group,label" if schema == "pair" else "id,score,group_left,group_right,label"
    lines = [header]
    for i in range(n):
        groups = ["minority" if rng.random() < 0.4 else "majority"]
        if schema == "record":
            groups.append("majority")
        lines.append(",".join([f"r{i}", repr(round(float(rng.random()), 3)), *groups, str(i % 2)]))
        if i == 7:
            lines.append("")  # a blank row is not a data row
    path = tmp_path / "in.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if schema == "pair":
        argv = ["measure", "--input", path, "--metric", "dp", "eod"]
    else:
        argv = ["calibrate", "--input", path, "--schema", "record", "--algorithm", "calib"]
    trace = run_traced(tmp_path / f"{schema}.json", [*argv, "--out-dir", tmp_path / schema])
    names = Counter(span[0] for span in trace["spans"])
    assert names["dataset.parse_rows"] == 1
    assert names["dataset.dataset_from_rows"] == 1
    assert trace["counters"]["dataset.rows"] == n


# the CLI no longer calls these, so each reads 0 in every benchmark trace
UNCALLED = {"bias.score_bias", "bias.threshold_bias", "empirical.StepCurve.to_csv"}


def test_benchmark_commands_reach_every_traced_layer_but_the_uncalled(tmp_path):
    # each benchmark command, on its workload's inputs at the row floor, run
    # under traced.py with the benchmark's own arguments: a layer the CLI
    # stops calling shows here, not as a silent 0 in every trace
    workloads = load_perfbench("workloads")
    recorded = set()
    for name, workload in workloads.WORKLOADS.items():
        tables = workloads.write_inputs(workload, 5, tmp_path / name / "inputs", scale=0)
        assert all(t.scores.size == workloads.MIN_ROWS for t in tables.values())
        for cmd in workload.commands:
            argv = workloads.argv(cmd, tables, tmp_path / name)
            trace = run_traced(tmp_path / name / f"{cmd.name}.json", argv)
            recorded |= {span[0] for span in trace["spans"]}
    assert {target[2] for target in TARGETS} - recorded == UNCALLED
