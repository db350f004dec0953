"""Self-test of the benchmark at tiny sizes: every workload, plain and
traced, passes every output check, and a tampered output is counted
as failed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import bench
from launcher import Launcher
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SCALE = 0.02


@pytest.fixture(scope="module")
def launcher():
    with Launcher() as started:
        yield started


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_every_check(tmp_path, launcher, name):
    record = bench.run_workload(ROOT, name, 7, 0, True, launcher, SCALE, tmp_path / "w")
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0
    assert record["traced_output_sha256"] == record["output_sha256"]
    assert set(record["metrics"]) == set(bench.END_TO_END)
    assert set(record["per_layer"]) == set(bench.PER_LAYER)
    assert record["metrics"]["ok_ratio"] == 1.0
    for inp in record["inputs"].values():
        assert inp["rows"] >= 400 and len(inp["sha256"]) == 64
    assert not (tmp_path / "w").exists()


def test_same_seed_writes_same_inputs(tmp_path, launcher):
    a = bench.run_workload(ROOT, "ccalib-meanshift", 3, 0, False, launcher, SCALE, tmp_path / "a")
    b = bench.run_workload(ROOT, "ccalib-meanshift", 3, 0, False, launcher, SCALE, tmp_path / "b")
    assert a["inputs"] == b["inputs"]
    assert a["output_sha256"] == b["output_sha256"]


def _bump_before(metric):
    def tamper(path: Path) -> None:
        report = json.loads(path.read_text(encoding="utf-8"))
        report["metrics"][metric]["before"] += 1e-6
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return tamper


def _scale_model(*keys):
    """Shrink one stored score list; the report and calibrated.csv stay as written."""
    def tamper(path: Path) -> None:
        model = json.loads(path.read_text(encoding="utf-8"))
        part = model
        for key in keys[:-1]:
            part = part[key]
        part[keys[-1]] = [0.99 * x for x in part[keys[-1]]]
        path.write_text(json.dumps(model, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return tamper


def _drop_curve_row(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    del lines[len(lines) // 2]
    path.write_text("".join(lines), encoding="utf-8")


def _swap_rows(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("name, output, tamper, expected", [
    ("measure-plot", "measure/report.json", _bump_before("dp"), "metrics.dp.before"),
    ("measure-plot", "measure/eo_minority_before.csv", _drop_curve_row, "eo_minority_before.csv"),
    ("calibrate-record", "calib/report.json", _bump_before("eod"), "metrics.eod.before"),
    ("calibrate-record", "calib/model.json", _scale_model("scores_a"), "barycenter"),
    ("calibrate-record", "calib/calibrated.csv", _swap_rows, "changed ids"),
    ("calibrate-record", "ccalib/model.json", _scale_model("matched", "scores_b"), "barycenter"),
    ("calibrate-record", "ccalib/eo_majority_after.csv", _drop_curve_row, "eo_majority_after.csv"),
])
def test_tampered_output_counts_as_failed(tmp_path, launcher, name, output, tamper, expected):
    wl = WORKLOADS[name]
    work = tmp_path / "w"
    tables = bench.workloads.write_inputs(wl, 5, work / "inputs", SCALE)
    env = bench.child_env(ROOT)
    passes = [bench.run_pass(wl, tables, work / "pass0", launcher, env, work / "log")]
    assert bench.judge(wl, tables, work / "pass0", passes)[1] == 0

    tampered = tmp_path / "tampered"
    shutil.copytree(work / "pass0", tampered)
    tamper(tampered / output)
    attempted, failed, problems = bench.judge(wl, tables, tampered, passes)
    assert failed >= 1 and failed <= attempted
    assert any(expected in p for p in problems), problems


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, bench.layer_unit(n)) for n in bench.PER_LAYER]
