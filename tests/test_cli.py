import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scorecalib.cli
from scorecalib import bias, dataset, empirical, synth
from scorecalib.bias import BiasMetricKind, score_bias, threshold_bias
from scorecalib.calibration import calibrate_dataset, fit
from scorecalib.cli import main
from scorecalib.dataset import Schema, ScoreDataset, load_dataset
from scorecalib.empirical import StepCurve, pr_curve

from conftest import EXAMPLE_PAIRS_RAW, parse_svgs


def write_example_csv(path, labels=None):
    lines = ["id,score,group,label"]
    for i, (score, group) in enumerate(EXAMPLE_PAIRS_RAW):
        label = "" if labels is None else labels[i]
        lines.append(f"p{i+1},{score},{group},{label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(*argv):
    return main([str(a) for a in argv])


GEN_ARGS = [
    "generate",
    "--n-minority", 60, "--n-majority", 90,
    "--pos-rate-a", 0.4, "--pos-rate-b", 0.4,
    "--beta-minority-pos", "7,2", "--beta-minority-neg", "2,7",
    "--beta-majority-pos", "9,2", "--beta-majority-neg", "2,5",
    "--seed", 11,
]


def test_generate_writes_loadable_csv(tmp_path):
    assert run(*GEN_ARGS, "--out-dir", tmp_path) == 0
    d = load_dataset(tmp_path / "dataset.csv", Schema.PAIR_LEVEL, "minority")
    assert len(d) == 150
    assert d.labeled


def test_generate_deterministic(tmp_path):
    run(*GEN_ARGS, "--out-dir", tmp_path / "one")
    run(*GEN_ARGS, "--out-dir", tmp_path / "two")
    assert (tmp_path / "one" / "dataset.csv").read_bytes() == (
        tmp_path / "two" / "dataset.csv"
    ).read_bytes()


def test_generate_missing_field(tmp_path, capsys):
    assert run("generate", "--n-minority", 5, "--out-dir", tmp_path) == 2
    assert "missing" in capsys.readouterr().err


def test_generate_invalid_spec(tmp_path):
    assert run(*GEN_ARGS[:2], 0, *GEN_ARGS[3:], "--out-dir", tmp_path) == 2


def test_measure_report(tmp_path, capsys):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    out = tmp_path / "out"
    code = run(
        "measure", "--input", csv_path, "--schema", "pair",
        "--minority-token", "a", "--metric", "dp", "--out-dir", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dataset"] == {
        "n": 15, "n_minority": 6, "n_majority": 9, "labeled": False,
    }
    d = load_dataset(csv_path, Schema.PAIR_LEVEL, "a")
    assert report["metrics"]["dp"]["before"] == pytest.approx(
        score_bias(d, BiasMetricKind.DP)
    )
    assert set(report["metrics"]["dp"]["threshold_bias"]) == {"0.1", "0.5", "0.95"}
    for group in ("minority", "majority"):
        curve = StepCurve.from_csv(out / f"dp_{group}_before.csv")
        assert curve.values[0] == 1.0
    text = capsys.readouterr().out
    assert re.search(r"DP bias: before \d+\.\d{2}%", text)


def test_measure_labeled_reports_auc(tmp_path):
    csv_path = tmp_path / "scores.csv"
    labels = [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    write_example_csv(csv_path, labels)
    out = tmp_path / "out"
    run(
        "measure", "--input", csv_path, "--minority-token", "a",
        "--metric", "dp", "eod", "--out-dir", out,
    )
    report = json.loads((out / "report.json").read_text())
    assert report["auc_by_group"]["minority"] is not None
    assert report["metrics"]["eod"]["components"]["eo"]["before"] >= 0
    assert (out / "eo_minority_before.csv").exists()
    assert (out / "fprgap_majority_before.csv").exists()


def test_measure_unlabeled_eo_fails(tmp_path, capsys):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    code = run(
        "measure", "--input", csv_path, "--minority-token", "a",
        "--metric", "eo", "--out-dir", tmp_path / "out",
    )
    assert code == 2
    assert "label" in capsys.readouterr().err


def test_measure_missing_input(tmp_path):
    assert run("measure", "--out-dir", tmp_path) == 2
    assert run("measure", "--input", tmp_path / "nope.csv", "--out-dir", tmp_path) == 2


def test_calibrate_none_passthrough(tmp_path):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    out = tmp_path / "out"
    code = run(
        "calibrate", "--input", csv_path, "--minority-token", "a",
        "--algorithm", "none", "--out-dir", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["risk"] == 0.0
    d_in = load_dataset(csv_path, Schema.PAIR_LEVEL, "a")
    d_out = load_dataset(out / "calibrated.csv", Schema.PAIR_LEVEL, "a")
    assert d_out.scores().tolist() == d_in.scores().tolist()


def test_calibrate_reports_match_remeasure(tmp_path):
    # the emitted calibrated CSV must measure to exactly the reported after-bias
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    out = tmp_path / "out"
    code = run(
        "calibrate", "--input", csv_path, "--minority-token", "a",
        "--algorithm", "calib", "--sigma", 0, "--seed", 3, "--out-dir", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    out2 = tmp_path / "out2"
    run(
        "measure", "--input", out / "calibrated.csv", "--minority-token", "a",
        "--metric", "dp", "--out-dir", out2,
    )
    remeasured = json.loads((out2 / "report.json").read_text())
    assert remeasured["metrics"]["dp"]["before"] == report["metrics"]["dp"]["after"]
    assert (out / "model.json").exists()
    assert (out / "dp_minority_after.csv").exists()


def test_calibrate_preserves_record_schema(tmp_path):
    lines = ["id,score,group_left,group_right,label"]
    lines += [
        "p1,0.9,f,m,", "p2,0.8,m,m,", "p3,0.3,f,f,", "p4,0.2,m,f,",
        "p5,0.7,m,m,", "p6,0.1,m,m,",
    ]
    csv_path = tmp_path / "records.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = run(
        "calibrate", "--input", csv_path, "--schema", "record",
        "--minority-token", "f", "--algorithm", "calib", "--sigma", 0,
        "--out-dir", out,
    )
    assert code == 0
    emitted = (out / "calibrated.csv").read_text().splitlines()
    assert emitted[0] == "id,score,group_left,group_right,label"
    assert emitted[1].startswith("p1,") and emitted[1].endswith(",f,m,")
    load_dataset(out / "calibrated.csv", Schema.RECORD_LEVEL, "f")


def test_calibrate_held_out_fit(tmp_path):
    query = tmp_path / "query.csv"
    write_example_csv(query)
    fit_file = tmp_path / "fit.csv"
    write_example_csv(fit_file)
    out = tmp_path / "out"
    code = run(
        "calibrate", "--input", query, "--minority-token", "a",
        "--algorithm", "calib", "--sigma", 0, "--fit", fit_file, "--out-dir", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["fit"] == str(fit_file)


def test_calibrate_empty_fit_path_exit_2(tmp_path, capsys):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    code = run(
        "calibrate", "--input", csv_path, "--minority-token", "a",
        "--fit", "", "--out-dir", tmp_path / "out",
    )
    assert code == 2
    assert capsys.readouterr().err == "error: --fit is required\n"


def test_calibrate_ccalib_with_gamma(tmp_path):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    out = tmp_path / "out"
    code = run(
        "calibrate", "--input", csv_path, "--minority-token", "a",
        "--algorithm", "ccalib", "--sigma", 0, "--gamma", 0.57, "--out-dir", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["gamma"] == 0.57
    model = json.loads((out / "model.json").read_text())
    assert model["algorithm"] == "ccalib"
    assert set(model["meanshift"]) == {"bandwidth", "tol", "max_iter", "merge_radius"}


def test_calibrate_ccalib_single_mode_advises_gamma(tmp_path, capsys):
    lines = ["id,score,group,label"]
    lines += [f"p{i},0.5,{'a' if i % 2 else 'b'}," for i in range(10)]
    csv_path = tmp_path / "flat.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run(
        "calibrate", "--input", csv_path, "--minority-token", "a",
        "--algorithm", "ccalib", "--out-dir", tmp_path / "out",
    )
    assert code == 3
    assert "--gamma" in capsys.readouterr().err


def test_calibrate_ccalib_true_label_partition(tmp_path):
    labels = [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path, labels)
    out = tmp_path / "out"
    code = run(
        "calibrate", "--input", csv_path, "--minority-token", "a",
        "--algorithm", "ccalib", "--sigma", 0, "--gamma", 0.57,
        "--use-true-labels", "--out-dir", out,
    )
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    # the 0.45-scoring positive pair lands on the matched side despite
    # sitting below gamma
    assert 0.45 in model["matched"]["scores_a"]


def test_calibrate_empty_partition_exit_code(tmp_path):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    code = run(
        "calibrate", "--input", csv_path, "--minority-token", "a",
        "--algorithm", "ccalib", "--gamma", 0.005, "--out-dir", tmp_path / "out",
    )
    assert code == 3


def test_plot(tmp_path):
    curve_a = pr_curve([0.2, 0.8])
    curve_b = pr_curve([0.5])
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    curve_a.to_csv(a_path)
    curve_b.to_csv(b_path)
    out = tmp_path / "out"
    assert run("plot", "--input", a_path, b_path, "--out-dir", out) == 0
    svg = (out / "curves.svg").read_text()
    assert "<svg" in svg
    assert parse_svgs(out) == 1
    match = re.search(r"gap band area = (\d+\.\d+)", svg)
    assert match and float(match.group(1)) == pytest.approx(0.3, abs=1e-9)


def test_plot_identical_curves_zero_band(tmp_path):
    curve = pr_curve([0.3, 0.6])
    for name in ("a.csv", "b.csv"):
        curve.to_csv(tmp_path / name)
    run("plot", "--input", tmp_path / "a.csv", tmp_path / "b.csv", "--out-dir", tmp_path)
    svg = (tmp_path / "curves.svg").read_text()
    assert "gap band area = 0.000000000" in svg
    assert parse_svgs(tmp_path) == 1


def test_plot_malformed_curve(tmp_path):
    (tmp_path / "bad.csv").write_text("", encoding="utf-8")
    curve = pr_curve([0.5])
    curve.to_csv(tmp_path / "ok.csv")
    code = run(
        "plot", "--input", tmp_path / "bad.csv", tmp_path / "ok.csv",
        "--out-dir", tmp_path,
    )
    assert code == 2


def test_config_file_with_flag_override(tmp_path):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    config = {
        "input": str(csv_path),
        "minority_token": "a",
        "metric": ["dp"],
        "thresholds": [0.25],
        "out_dir": str(tmp_path / "from_config"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert run("measure", "--config", cfg_path) == 0
    report = json.loads((tmp_path / "from_config" / "report.json").read_text())
    assert set(report["metrics"]["dp"]["threshold_bias"]) == {"0.25"}

    # an explicit flag wins over the config value
    assert run("measure", "--config", cfg_path, "--out-dir", tmp_path / "flag") == 0
    assert (tmp_path / "flag" / "report.json").exists()


def test_config_file_holding_a_list_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(["sigma", 0.3]), encoding="utf-8")
    argv = ["measure", "--input", csv_path, "--minority-token", "a", "--config", cfg_path]
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    assert capsys.readouterr().err == "error: --config file must contain a JSON object\n"


def test_end_to_end_determinism(tmp_path):
    csv_path = tmp_path / "scores.csv"
    labels = [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    write_example_csv(csv_path, labels)
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = run(
            "calibrate", "--input", csv_path, "--minority-token", "a",
            "--algorithm", "calib", "--sigma", 0.05, "--seed", 21,
            "--metric", "dp", "eod", "--out-dir", out,
        )
        assert code == 0
        outputs.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        })
    assert outputs[0] == outputs[1]


@given(st.lists(st.text(max_size=6), min_size=2, max_size=6))
@example(["", "0\r"])
def test_calibrated_csv_round_trips_any_id(tmp_path_factory, ids):
    # ids needing quotes ("a,1", c"x, line breaks) must survive calibrate.
    # The input keeps csv.writer's "\r\n" line end: with "\n", Python
    # before 3.12 leaves a lone CR unquoted, and reading splits the row there
    work = tmp_path_factory.mktemp("ids")
    with open(work / "in.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "score", "group", "label"])
        for i, pid in enumerate(ids):
            writer.writerow([pid, (i + 1) / 10, "ab"[i % 2], ""])
    args = ["--minority-token", "a", "--out-dir", work / "out"]
    assert run("calibrate", "--input", work / "in.csv", "--sigma", 0, *args) == 0
    d_in = load_dataset(work / "in.csv", Schema.PAIR_LEVEL, "a")
    d_out = load_dataset(work / "out" / "calibrated.csv", Schema.PAIR_LEVEL, "a")
    assert d_out.ids.tolist() == d_in.ids.tolist()
    assert d_out.groups() == d_in.groups()
    assert run("measure", "--input", work / "out" / "calibrated.csv", *args) == 0


record_field = st.sampled_from(["f", " f", "f ", " f ", "\tf", "m", " m ", "x y", "m,", '"m"'])
label_field = st.sampled_from(["0", "1", " 1 ", "0\t"])
record_id = st.lists(
    st.sampled_from(["", "r", ",", '"', "\r", "\n", "\r\n", " ", "\U0001F600"]), max_size=4
).map("".join)


@given(st.lists(st.tuples(record_id, record_field, record_field, label_field), max_size=8))
def test_calibrated_csv_echoes_record_fields(tmp_path_factory, rows):
    # group tokens and labels come back as they were read, spaces and all
    rows = [("r1", "f", "f", "1"), ("r2", "m", "m", "0"), *rows]
    work = tmp_path_factory.mktemp("record")
    with open(work / "in.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(Schema.RECORD_LEVEL.header)
        for i, (rid, left, right, label) in enumerate(rows):
            writer.writerow([rid, (i + 1) / (len(rows) + 1), left, right, label])
    code = run("calibrate", "--input", work / "in.csv", "--schema", "record",
               "--minority-token", "f", "--sigma", 0, "--out-dir", work / "out")
    assert code == 0
    tables = []
    for path in (work / "in.csv", work / "out" / "calibrated.csv"):
        with open(path, encoding="utf-8", newline="") as f:
            tables.append([row[:1] + row[2:] for row in csv.reader(f)])
    assert tables[0] == tables[1]


@pytest.mark.parametrize(
    "extra,config",
    [
        pytest.param(["--sigma", -1], None, id="sigma-negative"),
        pytest.param(["--sigma", "nan"], None, id="sigma-nan"),
        pytest.param(["--algorithm", "ccalib", "--bandwidth", -1], None, id="bandwidth-neg"),
        pytest.param(["--algorithm", "ccalib", "--bandwidth", 0], None, id="bandwidth-zero"),
        pytest.param(["--algorithm", "ccalib", "--gamma", "nan"], None, id="gamma-nan"),
        pytest.param(["--algorithm", "ccalib", "--gamma", "inf"], None, id="gamma-inf"),
        pytest.param(["--algorithm", "ccalib", "--gamma", 2], None, id="gamma-above-one"),
        pytest.param(["--algorithm", "ccalib", "--gamma", -1], None, id="gamma-below-zero"),
        pytest.param(["--algorithm", "ccalib", "--bandwidth", 1e-200], None, id="bandwidth-square-underflow"),
        pytest.param(["--algorithm", "ccalib", "--bandwidth", 1e300], None, id="bandwidth-square-overflow"),
        pytest.param(["--thresholds", 1.5], None, id="theta-above-one"),
        pytest.param(["--thresholds", "nan"], None, id="theta-nan"),
        pytest.param(["--thresholds", 0.5, -0.1], None, id="theta-below-zero"),
        pytest.param([], b"{not json", id="config-not-json"),
        pytest.param([], b'{"sigma": "\xff"}', id="config-not-utf8"),
        pytest.param([], b"[" * 100_000, id="config-nested-too-deep"),
        pytest.param([], {"thresholds": 0.5}, id="config-threshold-scalar"),
        pytest.param([], {"thresholds": "0.5"}, id="config-threshold-text"),
        pytest.param([], {"thresholds": [0.5, [0.2]]}, id="config-threshold-nested"),
        pytest.param([], {"metric": ["dp", ["eo"]]}, id="config-metric-nested"),
        pytest.param([], {"sigma": "wide"}, id="config-sigma-text"),
        pytest.param([], {"algorithm": "ccalib", "gamma": float("inf")}, id="config-gamma-inf"),
        pytest.param([], {"algorithm": "ccalib", "gamma": 1.5}, id="config-gamma-above-one"),
        pytest.param([], {"seed": 1.7}, id="config-seed-fraction"),
        pytest.param([], {"seed": True}, id="config-seed-bool"),
        pytest.param(["--seed", -1], None, id="seed-negative"),
        pytest.param([], {"seed": -1}, id="config-seed-negative"),
        pytest.param([], {"schema": "triples"}, id="config-schema-unknown"),
        # JSON values of the wrong type: a bool is not a number, a number not a path
        pytest.param([], {"fit": 7}, id="config-fit-number"),
        pytest.param([], {"sigma": True}, id="config-sigma-bool"),
        pytest.param([], {"sigma": 10**400}, id="config-sigma-too-large-for-a-float"),
        pytest.param([], {"algorithm": "ccalib", "gamma": False}, id="config-gamma-bool"),
        pytest.param([], {"algorithm": "ccalib", "bandwidth": True}, id="config-bandwidth-bool"),
        pytest.param([], {"thresholds": [True]}, id="config-threshold-bool"),
        pytest.param([], {"majority_token": 5}, id="config-majority-token-number"),
        # a key that no subcommand takes is rejected, not ignored
        pytest.param([], {"sigmma": 0.3}, id="config-unknown-key"),
    ],
)
def test_cli_boundary_errors_exit_2(tmp_path, capsys, extra, config):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    argv = ["calibrate", "--input", csv_path, "--minority-token", "a", *extra]
    if config is not None:
        cfg_path = tmp_path / "run.json"
        raw = config if isinstance(config, bytes) else json.dumps(config).encode()
        cfg_path.write_bytes(raw)
        argv += ["--config", cfg_path]
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


SPEC = {
    "n_minority": 6, "n_majority": 9, "pos_rate_a": 0.4, "pos_rate_b": 0.4,
    "minority_pos": "6,2", "minority_neg": "2,6", "majority_pos": "9,2", "majority_neg": "2,8",
}


@pytest.mark.parametrize(
    "command,config",
    [
        pytest.param("measure", {"input": 5}, id="measure-input-number"),
        pytest.param("measure", {"minority_token": 5}, id="measure-minority-token-number"),
        pytest.param("measure", {"out_dir": 5}, id="measure-out-dir-number"),
        pytest.param("plot", {"input": 5}, id="plot-input-number"),
        pytest.param("plot", {"input": ["scores.csv", 5]}, id="plot-input-holds-a-number"),
        pytest.param("generate", {"pos_rate_a": True}, id="generate-rate-bool"),
        pytest.param("generate", {"minority_pos": [True, 2]}, id="generate-beta-bool"),
        # the flags (nargs="+") take one value or more, and so does the config
        pytest.param("measure", {"metric": []}, id="measure-metric-empty"),
        pytest.param("measure", {"thresholds": []}, id="measure-thresholds-empty"),
        # a JSON object is not a list, nor a pair of Beta shapes
        pytest.param("measure", {"metric": {"dp": 1}}, id="measure-metric-object"),
        pytest.param("measure", {"thresholds": {"0.5": 1}}, id="measure-thresholds-object"),
        pytest.param("generate", {"minority_pos": {"6": 0, "2": 0}}, id="generate-beta-object"),
        # no file name holds a NUL: each path key rejects one rather than
        # letting open() or mkdir() raise
        pytest.param("measure", {"input": "scores\u0000.csv"}, id="measure-input-nul"),
        pytest.param("measure", {"out_dir": "out\u0000"}, id="measure-out-dir-nul"),
        pytest.param("calibrate", {"fit": "scores.csv\u0000"}, id="calibrate-fit-nul"),
        pytest.param("plot", {"input": ["a\u0000b", "scores.csv"]}, id="plot-input-nul"),
    ],
)
def test_config_value_of_wrong_type_exit_2(tmp_path, monkeypatch, capsys, command, config):
    # only --config is passed, so each value is read from the file
    monkeypatch.chdir(tmp_path)
    write_example_csv(tmp_path / "scores.csv")
    dataset_base = {"input": "scores.csv", "minority_token": "a"}
    base = {"measure": dataset_base, "calibrate": dataset_base, "generate": SPEC}
    (tmp_path / "run.json").write_text(json.dumps({**base.get(command, {}), **config}))
    assert run(command, "--config", "run.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid {next(iter(config))} ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "scores.csv"]


def test_non_utf8_input_exit_2(tmp_path, capsys):
    csv_path = tmp_path / "scores.csv"
    csv_path.write_bytes(b"id,score,group,label\np\xe91,0.5,a,\n")
    assert run("measure", "--input", csv_path, "--out-dir", tmp_path / "out") == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["measure", "plot"])
def test_field_over_csv_limit_exit_2_without_traceback(tmp_path, command):
    # 200000 characters is over csv.field_size_limit(); run as a process,
    # so an exception that escaped main would show as a traceback
    big = tmp_path / "big.csv"
    if command == "measure":
        big.write_text(f"id,score,group,label\n{'p' * 200_000},0.5,a,\n", encoding="utf-8")
        argv = ["measure", "--input", big, "--minority-token", "a"]
    else:
        big.write_text(f"theta,value\n0,1.0\n{'9' * 200_000},0.0\n", encoding="utf-8")
        ok = tmp_path / "ok.csv"
        pr_curve([0.4]).to_csv(ok)
        argv = ["plot", "--input", big, ok]
    src = str(Path(scorecalib.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "scorecalib.cli", *map(str, argv), "--out-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and "field larger than field limit" in result.stderr


def test_config_scalar_metric_means_one_item_list(tmp_path):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps({"metric": "dp", "thresholds": [0.5]}), encoding="utf-8"
    )
    out = tmp_path / "out"
    code = run(
        "measure", "--input", csv_path, "--minority-token", "a",
        "--config", cfg_path, "--out-dir", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["metrics"]) == ["dp"]
    assert list(report["metrics"]["dp"]["threshold_bias"]) == ["0.5"]


@pytest.mark.parametrize("count", [5.5, True, float("inf")])
def test_generate_config_rejects_non_integer_counts(tmp_path, capsys, count):
    spec = {
        "n_minority": count, "n_majority": 9, "pos_rate_a": 0.4, "pos_rate_b": 0.4,
        "minority_pos": "6,2", "minority_neg": "2,6",
        "majority_pos": "9,2", "majority_neg": "2,8",
    }
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(spec), encoding="utf-8")
    assert run("generate", "--config", cfg_path, "--out-dir", tmp_path / "out") == 2
    assert "invalid n_minority" in capsys.readouterr().err
    assert not (tmp_path / "out" / "dataset.csv").exists()


def test_generate_negative_seed_exit_2(tmp_path, capsys):
    # the last --seed wins
    assert run(*GEN_ARGS, "--seed", -1, "--out-dir", tmp_path) == 2
    assert "invalid seed -1" in capsys.readouterr().err
    assert not (tmp_path / "dataset.csv").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_generate_count_numpy_cannot_allocate_exit_2(tmp_path, capsys, via):
    # numpy rejects either count before it allocates anything
    if via == "flag":
        argv = [*GEN_ARGS, "--n-minority", 10**20]
    else:
        (tmp_path / "spec.json").write_text(json.dumps({**SPEC, "n_majority": 10**30}))
        argv = ["generate", "--config", tmp_path / "spec.json"]
    assert run(*argv, "--out-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot draw 1000") and err.count("\n") == 1
    assert not (tmp_path / "dataset.csv").exists()


def test_no_command_imports_numpy_ma(tmp_path):
    # np.union1d (through np.unique of floats) imported numpy.ma: 15-40 ms
    # of start-up, and 0.7 MB of peak memory, in every command but generate
    src = str(Path(scorecalib.cli.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from scorecalib.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('numpy.ma' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    data, measured = tmp_path / "dataset.csv", tmp_path / "measure"
    dataset_flags = ["--input", data, "--minority-token", "minority"]
    commands = [
        [*GEN_ARGS, "--out-dir", tmp_path],
        ["measure", *dataset_flags, "--metric", *ALL_METRICS, "--out-dir", measured],
        *(["calibrate", *dataset_flags, "--metric", *ALL_METRICS, "--algorithm", algorithm,
           "--out-dir", tmp_path / algorithm] for algorithm in ("calib", "ccalib")),
        ["plot", "--input", measured / "dp_minority_before.csv",
         measured / "dp_majority_before.csv", "--out-dir", tmp_path / "plot"],
    ]
    for argv in commands:
        result = subprocess.run(
            [sys.executable, "-c", code, *map(str, argv)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False", argv[0]


def run_capped(argv, cap: int, timeout: int = 60) -> subprocess.CompletedProcess:
    """``main(argv)`` in a child whose address space is capped at ``cap``
    bytes (``RLIMIT_AS``, set by the child on itself), so an allocation
    past it fails at once instead of exhausting the machine.  The child's
    last stdout line is its peak address space (``VmPeak``) in kB."""
    src = str(Path(scorecalib.cli.__file__).resolve().parents[1])
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        f"sys.path.insert(0, {src!r})\n"
        "from scorecalib.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "status = open('/proc/self/status').read()\n"
        "print(status.split('VmPeak:')[1].split()[0])\n"
        "sys.exit(code)\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=timeout,
    )


def test_generate_out_of_memory_exit_2(tmp_path):
    # 1e9 draws need 8 GB; the child's address space is capped at 1 GB
    result = run_capped([*GEN_ARGS, "--n-minority", 10**9, "--out-dir", tmp_path], 1 << 30)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: cannot draw 1000000000 pairs: Unable to allocate")
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "dataset.csv").exists()


TRUE_LABELS = [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0]


def _ccalib_outputs(tmp_path, name, *extra, config=None) -> dict[str, bytes]:
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path, TRUE_LABELS)
    out = tmp_path / name
    argv = ["calibrate", "--input", csv_path, "--minority-token", "a",
            "--algorithm", "ccalib", "--gamma", 0.5, "--out-dir", out, *extra]
    if config is not None:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", cfg_path]
    assert run(*argv) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_config_use_true_labels_takes_a_json_boolean(tmp_path):
    plain = _ccalib_outputs(tmp_path, "plain")
    flag = _ccalib_outputs(tmp_path, "flag", "--use-true-labels")
    assert plain != flag
    assert _ccalib_outputs(tmp_path, "false", config={"use_true_labels": False}) == plain
    assert _ccalib_outputs(tmp_path, "true", config={"use_true_labels": True}) == flag


@pytest.mark.parametrize("value", ["false", "true", 1, 0])
def test_config_use_true_labels_rejects_non_booleans(tmp_path, capsys, value):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path, TRUE_LABELS)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"use_true_labels": value}), encoding="utf-8")
    code = run("calibrate", "--input", csv_path, "--minority-token", "a",
               "--algorithm", "ccalib", "--gamma", 0.5, "--config", cfg_path,
               "--out-dir", tmp_path / "out")
    assert code == 2
    assert "invalid use_true_labels" in capsys.readouterr().err


def test_config_integral_float_seed_is_accepted(tmp_path):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"seed": 4.0}), encoding="utf-8")
    out = tmp_path / "out"
    assert run("calibrate", "--input", csv_path, "--minority-token", "a",
               "--config", cfg_path, "--out-dir", out) == 0
    assert json.loads((out / "report.json").read_text())["seed"] == 4


def test_failed_metric_writes_no_file(tmp_path, capsys):
    # dp succeeds, eo needs labels: no curve CSV of either, and no report
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path)
    out = tmp_path / "out"
    code = run(
        "measure", "--input", csv_path, "--minority-token", "a",
        "--metric", "dp", "eo", "--out-dir", out,
    )
    assert code == 2
    assert "label" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def calibrate_opening_nothing(tmp_path, monkeypatch, capsys, algorithm, labels, *flags) -> str:
    """Run calibrate on the example pairs, which must fail with exit 2 and
    open no file for writing; returns its one stderr line."""
    opened = []
    text_writer = dataset.text_writer

    def recording(dest):
        opened.append(dest)
        return text_writer(dest)

    for module in (dataset, empirical, scorecalib.cli):
        monkeypatch.setattr(module, "text_writer", recording)
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path, labels)
    out = tmp_path / "out"
    code = run(
        "calibrate", "--input", csv_path, "--minority-token", "a",
        "--algorithm", *algorithm, *flags, "--out-dir", out,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert opened == [] and list(out.iterdir()) == []
    return err


@pytest.mark.parametrize("algorithm", [["calib"], ["ccalib", "--gamma", 0.5]])
def test_failed_metric_in_calibrate_writes_no_file(tmp_path, capsys, monkeypatch, algorithm):
    # the fit succeeds and eo needs labels: calibrate checks this before
    # model.json, its first file, so no file is even opened
    err = calibrate_opening_nothing(tmp_path, monkeypatch, capsys, algorithm, None,
                                    "--metric", "eo")
    assert "label" in err


@pytest.mark.parametrize("algorithm", ["calib", "ccalib"])
def test_metric_check_precedes_the_fit(tmp_path, capsys, monkeypatch, algorithm):
    # eo needs labels: the metrics are checked as soon as the input is read,
    # so neither fit runs (ccalib would first find its gamma by mean shift)
    fitted = []

    def failing(*args, **kwargs):
        fitted.append(args)
        raise AssertionError("fitted")

    for name in ("fit", "fit_conditional"):
        monkeypatch.setattr(scorecalib.cli, name, failing)
    err = calibrate_opening_nothing(tmp_path, monkeypatch, capsys, [algorithm], None,
                                    "--metric", "eo")
    assert "label" in err and fitted == []


@pytest.mark.parametrize("flags, labels, error", [
    (["--metric", "dp", "fprgap"], [1] * 15, "no pairs with group=minority, label=0"),
    (["--thresholds", 0.5, 1.5], None, "theta 1.5 outside [0, 1]"),
], ids=["no-negatives", "theta-above-one"])
def test_uncomputable_report_in_calibrate_opens_no_file(tmp_path, capsys, monkeypatch, flags,
                                                        labels, error):
    # an empty (group, label) stratum or a bad threshold is found before
    # model.json too, with the error the report stage would raise
    err = calibrate_opening_nothing(tmp_path, monkeypatch, capsys, ["calib"], labels, *flags)
    assert error in err


REPORT_PAIRS = 200_000


def report_stage_memory(tmp_path, monkeypatch, command) -> tuple[int, int]:
    """What ``command --metric dp eod`` on REPORT_PAIRS pairs with distinct
    scores holds going into ``_report_metrics``, and the traced peak of that
    call above it; measured on a second run in the process, so that one-time
    allocations are not counted."""
    n = REPORT_PAIRS
    rng = np.random.default_rng(4)
    scores = rng.random(n)
    assert np.unique(scores).size == n
    csv_path = tmp_path / "pairs.csv"
    dataset.dump_dataset(ScoreDataset([f"p{i:07d}" for i in range(n)], scores,
                                      rng.random(n) < 0.4, rng.integers(0, 2, n)), csv_path)
    traced = []
    report = scorecalib.cli._report_metrics

    def recording(*args, **kwargs):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = report(*args, **kwargs)
        traced.append((held, tracemalloc.get_traced_memory()[1] - held))
        return result

    monkeypatch.setattr(scorecalib.cli, "_report_metrics", recording)
    argv = [*(csv_path if arg == "FIT" else arg for arg in command), "--input", csv_path,
            "--minority-token", "minority", "--metric", "dp", "eod", "--out-dir", tmp_path / "out"]
    with redirect_stdout(io.StringIO()):
        assert run(*argv) == 0  # untraced
        tracemalloc.start()
        try:
            assert run(*argv) == 0
        finally:
            tracemalloc.stop()
    return traced[-1]


@pytest.mark.parametrize("command", [
    ["measure"],
    ["calibrate", "--algorithm", "calib"],
    ["calibrate", "--algorithm", "ccalib", "--gamma", 0.5, "--fit", "FIT"],
], ids=["measure", "calibrate", "ccalib-held-out-fit"])
def test_report_stage_holds_only_its_columns(tmp_path, monkeypatch, command):
    # going into the report stage, a run holds each stage's scores (8 B a
    # pair) and the flags and labels they share (2 B), plus O(BATCH_ROWS):
    # no id, raw token column, model or fit set.  Measured on Python 3.11,
    # numpy 2.4: measure holds 2.04 MB going in and both calibrate cases
    # 3.65 MB, against bounds of 2.13 and 3.73 MB; with the ids, token
    # columns, model and fit set still held, 5.65, 8.85 and 14.05 MB
    held = report_stage_memory(tmp_path, monkeypatch, command)[0]
    stages = 2 if command[0] == "calibrate" else 1
    assert held <= REPORT_PAIRS * (8 * stages + 2) + 64 * dataset.BATCH_ROWS


def test_report_stage_peaks_within_one_curve_pair(tmp_path, monkeypatch):
    # the numbers are read off one curve pair at a time, and the curves are
    # written one group's at a time: above what it holds going in, the
    # report stage peaks at one dp curve pair (16 B a pair: a breakpoint and
    # a value per distinct score) and the integral's terms (8 B), plus
    # O(BATCH_ROWS) for the walks.  Measured on Python 3.11, numpy 2.4:
    # 4.92 MB (24.6 B a pair) against a bound of 5.62 MB; holding the
    # stage's six curves until they were written, 7.91 MB (39.5 B a pair)
    rise = report_stage_memory(tmp_path, monkeypatch, ["measure"])[1]
    assert rise <= REPORT_PAIRS * 24 + 400 * dataset.BATCH_ROWS


def test_report_holds_one_stage_of_curves(tmp_path):
    # each stage's curves are written and dropped before the next stage's
    # are built: at --sigma 0 both stages have a breakpoint per pair, and
    # holding both would add a whole stage's curve bytes (1.6 MB here) to
    # the peak, against 400 bytes a batch row for the walk's rows and text.
    # Measured on Python 3.11, numpy 2.4: the peak is 1.63 MB, 14 bytes a
    # batch row above one stage's curve bytes, as one curve pair or one
    # group's curves is alive at a time (2.27 MB, 326 bytes a batch row,
    # while a stage's six curves were held together)
    n = 50_000
    rng = np.random.default_rng(7)
    d = ScoreDataset([f"p{i}" for i in range(n)], rng.random(n), rng.random(n) < 0.4,
                     (rng.random(n) < 0.5).astype(int))
    stages = {"before": d, "after": calibrate_dataset(fit(d, 0.0, 0), d)}
    kinds = [BiasMetricKind.DP, BiasMetricKind.EOD]
    parts = dict.fromkeys(part for kind in kinds for part in kind.parts)
    stage_bytes = max(
        sum(c.breakpoints.nbytes + c.values.nbytes for part in parts
            for c in bias.group_curves(data, part).values())
        for data in stages.values()
    )
    tracemalloc.start()
    try:
        scorecalib.cli._report_metrics(tmp_path, kinds, [0.5], stages, {}, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(list(tmp_path.glob("*.csv"))) == 12
    assert peak <= stage_bytes + 400 * dataset.BATCH_ROWS


ALL_METRICS = ["dp", "eo", "fprgap", "eod"]
LABELS = [1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0]


def test_calibrate_reads_each_curve_pair_once_and_builds_each_curve_twice(tmp_path, monkeypatch):
    counts = {"curves": Counter(), "auc": 0, "risk": 0, "subset": 0,
              "pr_curve": 0, "sort": 0, "unique": 0}
    group_curves, auc, risk_estimate = (
        scorecalib.cli.group_curves, scorecalib.cli.auc, scorecalib.cli.risk_estimate
    )
    subset, pr_curve_of = ScoreDataset.subset, empirical.pr_curve
    in_curve = []  # non-empty while a pr_curve call runs

    def counting_curves(d, kind):
        counts["curves"][kind, id(d)] += 1
        return group_curves(d, kind)

    def counting_auc(d, group=None):
        counts["auc"] += 1
        return auc(d, group)

    def counting_risk(original, calibrated):
        counts["risk"] += 1
        return risk_estimate(original, calibrated)

    def counting_subset(d, group):
        counts["subset"] += 1
        return subset(d, group)

    def counting_pr_curve(scores):
        counts["pr_curve"] += 1
        in_curve.append(True)
        try:
            return pr_curve_of(scores)
        finally:
            in_curve.pop()

    def counted_in_curve(name, func):
        def counting(*args, **kwargs):
            counts[name] += bool(in_curve)
            return func(*args, **kwargs)
        return counting

    monkeypatch.setattr(scorecalib.cli, "group_curves", counting_curves)
    monkeypatch.setattr(scorecalib.cli, "auc", counting_auc)
    monkeypatch.setattr(scorecalib.cli, "risk_estimate", counting_risk)
    monkeypatch.setattr(ScoreDataset, "subset", counting_subset)
    monkeypatch.setattr(bias, "pr_curve", counting_pr_curve)  # group_curves' dp curves
    monkeypatch.setattr(empirical, "pr_curve", counting_pr_curve)  # conditional_curve's
    monkeypatch.setattr(np, "sort", counted_in_curve("sort", np.sort))
    monkeypatch.setattr(np, "unique", counted_in_curve("unique", np.unique))
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path, LABELS)
    code = run(
        "calibrate", "--input", csv_path, "--minority-token", "a", "--algorithm", "calib",
        "--metric", *ALL_METRICS, "--out-dir", tmp_path / "out",
    )
    assert code == 0
    # the numbers come from one pair of dp, eo and fprgap curves (eod reuses
    # the last two) per stage, before and after
    assert len(counts["curves"]) == 6 and set(counts["curves"].values()) == {1}
    # overall and per-group AUC, before and after; one risk
    assert counts["auc"] == 6
    assert counts["risk"] == 1
    # each group's curve of each pair is built twice, once for the numbers
    # and once to be written: one sort and no np.unique apiece
    assert counts["pr_curve"] == counts["sort"] == 24 and counts["unique"] == 0
    code = run(
        "measure", "--input", csv_path, "--minority-token", "a",
        "--metric", *ALL_METRICS, "--out-dir", tmp_path / "measured",
    )
    assert code == 0
    assert counts["pr_curve"] == counts["sort"] == 36 and counts["unique"] == 0
    # the per-group AUCs read the dataset's own columns: no subset copies its ids
    assert counts["subset"] == 0


def test_report_equals_library_bias_exactly(tmp_path):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path, LABELS)
    out = tmp_path / "out"
    code = run(
        "calibrate", "--input", csv_path, "--minority-token", "a", "--algorithm", "calib",
        "--metric", *ALL_METRICS, "--thresholds", 0, 0.3, 0.5, 0.95, 1, "--out-dir", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    stages = {
        "before": (load_dataset(csv_path, Schema.PAIR_LEVEL, "a"), "threshold_bias"),
        "after": (load_dataset(out / "calibrated.csv", Schema.PAIR_LEVEL, "a"),
                  "threshold_bias_after"),
    }
    for name in ALL_METRICS:
        kind = BiasMetricKind(name)
        entry = report["metrics"][name]
        for stage, (d, key) in stages.items():
            assert entry[stage] == score_bias(d, kind)
            for theta, value in entry[key].items():
                assert value == threshold_bias(d, kind, float(theta))
            if kind is BiasMetricKind.EOD:
                for component, part in (("eo", "eo"), ("fpr_gap", "fprgap")):
                    want = score_bias(d, BiasMetricKind(part))
                    assert entry["components"][component][stage] == want
        for shared in ("risk", "auc_before", "auc_after"):
            assert entry[shared] == report[shared]


def test_generate_columns_out_of_memory_exit_2(tmp_path, capsys):
    # the 1e7 draws succeed and the id, group and label columns fail to
    # allocate: the run still exits 2 with one line and writes no file
    argv = [*GEN_ARGS, "--n-minority", 10**7, "--out-dir", tmp_path]
    with mock.patch.object(synth, "ScoreDataset", side_effect=MemoryError("Unable to allocate")):
        assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot draw 10000090 pairs: Unable to allocate\n"
    assert not (tmp_path / "dataset.csv").exists()


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 8.00 GiB"), "error: out of memory: Unable to allocate 8.00 GiB\n"),
    (MemoryError(), "error: out of memory\n"),  # the empty message of a failed allocation
])
@pytest.mark.parametrize("command, stage", [
    ("measure", "_report_metrics"), ("calibrate", "fit"), ("plot", "render_gap_svg"),
])
def test_out_of_memory_exits_2(tmp_path, capsys, command, stage, error, message):
    csv_path = tmp_path / "scores.csv"
    write_example_csv(csv_path, TRUE_LABELS)
    curves = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for scores, curve in zip(([0.2, 0.8], [0.4, 0.6]), curves):
        pr_curve(scores).to_csv(curve)
    flags = ["--input", *curves] if command == "plot" else ["--input", csv_path, "--minority-token", "a"]
    with mock.patch.object(scorecalib.cli, stage, side_effect=error):
        assert run(command, *flags, "--out-dir", tmp_path / "out") == 2
    assert capsys.readouterr().err == message


_STAGE_METRICS = scorecalib.cli._stage_metrics


def _after_stage_out_of_memory(out_dir, kinds, thresholds, data, stage, written):
    if stage == "after":
        raise MemoryError
    return _STAGE_METRICS(out_dir, kinds, thresholds, data, stage, written)


ENOSPC = OSError(errno.ENOSPC, "No space left on device")


@contextmanager
def _full_disk(dest):
    """``text_writer`` on a full disk: the file is made, and its first write fails."""
    with dataset.text_writer(dest):
        yield mock.Mock(write=mock.Mock(side_effect=ENOSPC))


@pytest.mark.parametrize("command, module, target, effect", [
    # the before stage's curves are written when the after stage fails
    ("calibrate", scorecalib.cli, "_stage_metrics", _after_stage_out_of_memory),
    # every curve and calibrated.csv are written when report.json fails
    ("calibrate", scorecalib.cli, "write_json", ENOSPC),
    # dataset.csv holds its header when its first batch of rows fails
    ("generate", dataset, "_write_rows", ENOSPC),
    ("plot", scorecalib.cli, "text_writer", _full_disk),
], ids=["calibrate after stage", "calibrate report.json", "generate", "plot"])
def test_failed_run_leaves_no_file_it_wrote(tmp_path, capsys, command, module, target, effect):
    csv_path, out = tmp_path / "scores.csv", tmp_path / "out"
    curves = [tmp_path / "a.csv", tmp_path / "b.csv"]
    write_example_csv(csv_path, TRUE_LABELS)
    for scores, curve in zip(([0.2, 0.8], [0.4, 0.6]), curves):
        pr_curve(scores).to_csv(curve)
    flags = {"generate": GEN_ARGS[1:], "plot": ["--input", *curves]}.get(
        command, ["--input", csv_path, "--minority-token", "a", "--metric", "dp", "eod"])
    out.mkdir()
    (out / "notes.txt").write_text("not written by the run", encoding="utf-8")
    # a run that succeeds in the same process keeps its files
    assert run("measure", "--input", csv_path, "--minority-token", "a", "--out-dir", tmp_path) == 0
    written_before = sorted(p.name for p in tmp_path.iterdir())
    with mock.patch.object(module, target, side_effect=effect) as patched:
        assert run(command, *flags, "--out-dir", out) == 2
    assert patched.called
    assert capsys.readouterr().err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == written_before


@pytest.mark.parametrize("line_end, quoted, code", [
    ("\n", False, 0),  # blank lines
    ("\r", False, 0),  # bare CRs, each a line end as newline="" reads them
    ("\n", True, 2),  # one quoted field: over csv's field limit
], ids=["blank lines", "bare CRs", "quoted line breaks"])
def test_line_flood_is_read_under_a_memory_cap(tmp_path, line_end, quoted, code):
    # two data rows and 8M line ends that are not data rows: memory follows
    # the rows, so the run fits a 256 MB address space (a two-row run peaks
    # near 100 MB).  Columns sized by line ends would take 26 B per line
    flood = line_end * 8_000_000
    if quoted:
        flood = f'"{flood}",0.5,b,0\n'
    path = tmp_path / "flood.csv"
    path.write_text("id,score,group,label\np1,0.25,a,1\n" + flood + "p2,0.75,b,0\n",
                    encoding="utf-8", newline="")
    result = run_capped(["measure", "--input", path, "--minority-token", "a",
                         "--out-dir", tmp_path / "out"], 256 << 20)
    assert result.returncode == code, result.stderr
    assert result.stderr.count("\n") <= 1 and "Traceback" not in result.stderr
    assert code == 0 or "field larger than field limit" in result.stderr


@pytest.fixture(scope="module")
def two_row_vm_peak(tmp_path_factory) -> int:
    """Peak address space, in bytes, of measure on two data rows, run as
    :func:`run_capped` runs it under a cap it does not reach."""
    tmp = tmp_path_factory.mktemp("two_rows")
    (tmp / "in.csv").write_text("id,score,group,label\np1,0.25,a,1\np2,0.75,b,0\n",
                                encoding="utf-8")
    result = run_capped(["measure", "--input", tmp / "in.csv", "--minority-token", "a",
                         "--out-dir", tmp], 1 << 40)
    assert result.returncode == 0, result.stderr
    return int(result.stdout.splitlines()[-1]) << 10


def write_pairs(path, n: int, last_label: str, id_bytes: int) -> None:
    """n pair rows: ids of ``id_bytes`` bytes, groups a and b and labels 0
    and 1 by turns, except that the last label is ``last_label``."""
    scores = np.random.default_rng(n).random(n).tolist()
    labels = [str(i % 2) for i in range(n - 1)] + [last_label]
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("id,score,group,label\n")
        f.writelines(f"p{i:0{id_bytes - 1}d},{score!r},{'ab'[i % 2]},{label}\n"
                     for i, (score, label) in enumerate(zip(scores, labels)))


ADVERSARIAL = {  # case: (room, exit code, stderr)
    "clean pairs": (3, 0, ""),
    "last label 1x": (3, 2, "error: line 200001: label must be 0, 1 or empty, got '1x'\n"),
    "40-byte ids": (3, 0, ""),
    # each distinct token is a str in a dict: 21 MB for this 2.6 MB file
    "1e5 group tokens": (12, 0, ""),
    "last curve value x": (3, 2, "error: curve CSV has a malformed row\n"),
    "curve after 4M blank lines": (3, 0, ""),
}


@pytest.mark.parametrize("case", list(ADVERSARIAL))
def test_adversarial_input_is_read_under_a_memory_cap(tmp_path, two_row_vm_peak, case):
    # the cap is a two-row run's peak address space plus ``room`` times the
    # inputs' size, so what a run holds must follow the data it reads.  An
    # error pass that held the whole text (as a str, and again in a
    # StringIO at 4 bytes a character) ran out of memory on the bad label
    # and the bad curve value
    room, code, err = ADVERSARIAL[case]
    n, path, curve_b = 200_000, tmp_path / "input.csv", tmp_path / "b.csv"
    pr_curve([0.4, 0.6]).to_csv(curve_b)
    if case == "1e5 group tokens":  # a token per record on the left; none is declared majority
        rows = (f"p{i},{i / n!r},t{i},{'ab'[i % 2]},{i % 2}\n" for i in range(n // 2))
        path.write_text("".join([",".join(Schema.RECORD_LEVEL.header) + "\n", *rows]),
                        encoding="utf-8")
        argv = ["measure", "--schema", "record", "--input", path, "--minority-token", "a"]
    elif case == "last curve value x":
        pr_curve(np.random.default_rng(n).random(n)).to_csv(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:text.rindex(",") + 1] + "x\n", encoding="utf-8")
        argv = ["plot", "--input", path, curve_b]
    elif case == "curve after 4M blank lines":
        pr_curve([0.2, 0.5, 0.8]).to_csv(path)
        header, rows = path.read_text(encoding="utf-8").split("\n", 1)
        path.write_text(header + "\n" * 4_000_000 + rows, encoding="utf-8", newline="")
        argv = ["plot", "--input", path, curve_b]
    else:
        write_pairs(path, n, "1x" if case == "last label 1x" else "1",
                    40 if case == "40-byte ids" else 7)
        argv = ["measure", "--input", path, "--minority-token", "a"]
    cap = two_row_vm_peak + room * (path.stat().st_size + curve_b.stat().st_size)
    result = run_capped([*argv, "--out-dir", tmp_path / "out"], cap)
    assert (result.returncode, result.stderr) == (code, err)


def _flag_text(item, integer: bool) -> str | None:
    """A config value as a flag's text, or None when no flag text is it."""
    if isinstance(item, bool) or not isinstance(item, (int, float, str)):
        return None
    if integer and isinstance(item, float) and item.is_integer():
        return str(int(item))  # 4.0 in JSON is the integer 4
    return item if isinstance(item, str) else repr(item)


def _argv_for(command: str, settings: dict) -> list[str] | None:
    """The flags that give each of ``settings`` (config-file values) to
    ``command``, or None when some value has no flag spelling."""
    rows = {row[0]: row for row in scorecalib.cli._COMMANDS[command][2]}
    argv = [command]
    for key, value in settings.items():
        _, _, _, flag, kwargs = rows[key]
        integer = kwargs.get("type") is int
        if kwargs.get("action") == "store_const":
            if not isinstance(value, bool):
                return None
            argv += [flag] if value else []
            continue
        if kwargs.get("nargs"):
            # only metric takes a single name as well as a list
            items = [value] if key == "metric" and isinstance(value, str) else value
        else:  # a Beta flag's "S1,S2" is a list of two
            items = value if kwargs.get("metavar") == "S1,S2" and isinstance(value, list) else [value]
        texts = [_flag_text(item, integer) for item in items] if isinstance(items, list) else [None]
        if None in texts:
            return None
        argv += [flag, *texts] if kwargs.get("nargs") else [f"{flag}={','.join(texts)}"]
    return argv


def _run_in_fresh_dir(files: dict[str, bytes], argv: list[str], config=None):
    """Exit code, stdout, stderr and every file left behind by one run in a
    new directory that holds ``files`` (and ``config`` as run.json)."""
    with tempfile.TemporaryDirectory() as work:
        root = Path(work)
        for name, data in files.items():
            (root / name).write_bytes(data)
        if config is not None:
            (root / "run.json").write_text(json.dumps(config), encoding="utf-8")
            argv = [*argv, "--config", "run.json"]
        out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(root)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejected a flag
                    code = exc.code
        finally:
            os.chdir(cwd)
        left = {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "run.json"
        }
    return code, out.getvalue(), err.getvalue(), left


def _option_fixture_files() -> dict[str, bytes]:
    lines = ["id,score,group,label"]
    for i, ((score, group), label) in enumerate(zip(EXAMPLE_PAIRS_RAW, LABELS)):
        lines.append(f"p{i+1},{score},{group},{label}")
    with tempfile.TemporaryDirectory() as work:
        for name, scores in (("curve_a.csv", [0.2, 0.6]), ("curve_b.csv", [0.4])):
            pr_curve(scores).to_csv(Path(work) / name)
        curves = {p.name: p.read_bytes() for p in Path(work).iterdir()}
    return {"scores.csv": ("\n".join(lines) + "\n").encode(), **curves}


OPTION_FILES = _option_fixture_files()

# every other option of each subcommand, as --config values
OPTION_BASES = {
    "generate": {**SPEC, "seed": 3},
    "measure": {"input": "scores.csv", "minority_token": "a"},
    "calibrate": {"input": "scores.csv", "minority_token": "a", "algorithm": "ccalib", "gamma": 0.5},
    "plot": {"input": ["curve_a.csv", "curve_b.csv"]},
}

WORDS = ["", "a", "-1", "2", "0.5", "6,2", "dp", "eod", "pair", "record", "calib", "ccalib",
         "none", "self", "scores.csv", "curve_a.csv", "curve_b.csv"]
SHORT_FLOATS = st.floats(-0.5, 2).map(lambda x: round(x, 3))  # no exponent in repr
SCALARS = st.one_of(st.integers(-1, 3), SHORT_FLOATS, st.sampled_from(WORDS))
JSON_VALUES = {
    "bool": st.booleans(),
    "integer": st.integers(-1, 3),
    "float": SHORT_FLOATS,
    "string": st.sampled_from(WORDS),
    "list": st.lists(st.one_of(st.booleans(), SCALARS), max_size=3),
    # keys that would pass as list items, were an object read as its keys
    "object": st.dictionaries(st.sampled_from(["dp", "0.5", "2", "6", "curve_a.csv"]), SCALARS,
                              min_size=1, max_size=2),
    "null": st.none(),
}


@pytest.mark.parametrize(
    "command,key",
    [
        pytest.param(command, row[0], id=f"{command}-{row[0]}")
        for command, (_, _, rows) in scorecalib.cli._COMMANDS.items()
        for row in rows
    ],
)
@settings(max_examples=3)
@given(data=st.data())
def test_config_value_of_each_json_type_is_rejected_or_acts_as_its_flag(command, key, data):
    base = {k: v for k, v in OPTION_BASES[command].items() if k != key}
    for kind, values in JSON_VALUES.items():
        value = data.draw(values, label=kind)
        got = _run_in_fresh_dir(OPTION_FILES, _argv_for(command, base), {key: value})
        code, out, err, files = got
        if code == 2 and err.startswith(f"error: invalid {key} ") and err.count("\n") == 1:
            assert out == "" and files == OPTION_FILES
            continue
        # a value the config takes acts as the same value given as a flag,
        # and null as the key left out
        argv = _argv_for(command, base if value is None else {**base, key: value})
        assert argv is not None, f"{key}={value!r} has no flag spelling but is accepted"
        assert got == _run_in_fresh_dir(OPTION_FILES, argv)


@pytest.mark.parametrize("command", list(scorecalib.cli._COMMANDS))
@settings(max_examples=10)
@given(key=st.text(max_size=8).filter(lambda k: k not in scorecalib.cli._KEYS))
@example(key="config")  # --config is a flag, but not a key
def test_config_key_no_subcommand_takes_exit_2(command, key):
    argv = _argv_for(command, OPTION_BASES[command])
    code, out, err, files = _run_in_fresh_dir(OPTION_FILES, argv, {key: 1})
    assert (code, out, files) == (2, "", OPTION_FILES)
    assert err == f"error: unknown --config key {key!r}\n"


def test_one_config_file_drives_the_whole_pipeline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = {
        **SPEC, "n_minority": 60, "n_majority": 90, "seed": 11,
        "input": "gen/dataset.csv", "minority_token": "minority", "metric": ["dp", "eod"],
        "thresholds": [0.25, 0.5], "algorithm": "ccalib", "gamma": 0.5, "sigma": 0.01,
        "title": "dp before",
    }
    Path("run.json").write_text(json.dumps(spec), encoding="utf-8")
    curves = ["measure/dp_minority_before.csv", "measure/dp_majority_before.csv"]
    steps = [
        ("generate", "gen", []),
        ("measure", "measure", []),
        ("calibrate", "calibrate", []),
        ("plot", "plot", ["--input", *curves]),
    ]
    for command, out_dir, extra in steps:
        assert run(command, "--config", "run.json", "--out-dir", out_dir, *extra) == 0
        # plot's --input flag wins over the input key measure and calibrate read
        keys = {row[0] for row in scorecalib.cli._COMMANDS[command][2]} - {"out_dir"}
        keys -= {"input"} if extra else set()
        flags = _argv_for(command, {k: v for k, v in spec.items() if k in keys})
        assert run(*flags, "--out-dir", f"{out_dir}-flags", *extra) == 0
        from_config = {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}
        from_flags = {p.name: p.read_bytes() for p in sorted(Path(f"{out_dir}-flags").iterdir())}
        assert from_config == from_flags and from_config
