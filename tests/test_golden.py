"""Golden CLI outputs: the sha256 of every file a fixed set of commands writes.

The commands run on small seeded inputs, so any change to what the CLI
writes (a float's repr, a curve breakpoint, a JSON key, an SVG
coordinate) shows up here as a changed digest.  The digests were
captured before ``ScoreDataset`` became columnar, and those of
``measure_all`` and ``calib_all`` before the report read every metric off
one pair of group curves per curve kind and stage; a refactor that keeps
outputs byte-identical passes unchanged.

``plot/curves.svg`` was recaptured when ``plot`` began drawing at most 4
corners per pixel column (M4): the golden plot has one pixel column with
6 corners, so its SVG changed.  At the parent commit 73eea0c it was
``104cbde0…``, and ``test_oracle_plot_keeps_the_old_digest`` pins that
value with the old renderer.  The ``plot_sparse`` digest was captured at
73eea0c: no pixel column of its curves holds more than 4 corners, so M4
leaves it byte-identical.

``ccalib_meanshift/model.json`` and ``report.json`` were recaptured when
mean shift began weighting each distinct score by its multiplicity
instead of summing over every point: gamma moved by 1 ulp.  At the
parent commit 9033452 they were ``5a64414e…`` and ``2a5340b1…``, and
``test_dense_meanshift_keeps_the_old_digests`` pins those values with
the dense kernel.

Every ``model.json`` must read back: applied to its step's input, the
loaded model reproduces ``calibrated.csv`` and saves to the same bytes,
and each kind of malformed model file raises ``MalformedModelError``.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from scorecalib import conditional
from scorecalib.calibration import calibrate_dataset, model_to_dict
from scorecalib.cli import main
from scorecalib.conditional import (
    CondCalibModel,
    cond_calibrate_dataset,
    load_model,
    model_to_dict_conditional,
    save_model,
)
from scorecalib.dataset import Schema, load_dataset
from scorecalib.empirical import StepCurve
from scorecalib.errors import MalformedModelError

from conftest import parse_svgs
from test_conditional import dense_mean_shift_modes
from test_svgplot import oracle_render_gap_svg

# every (left, right) token pair, and one row with a missing label
RECORD_CSV = """\
id,score,group_left,group_right,label
r1,0.91,f,m,1
r2,0.87,m,m,1
r3,0.42,f,f,
r4,0.13,m,f,0
r5,0.66,m,m,1
r6,0.08,m,m,0
r7,0.74,f,f,1
r8,0.29,f,m,0
r9,0.55,m,m,0
r10,0.97,m,f,1
"""


def commands(root):
    """(step, argv) pairs; each step writes into ``root / step``."""
    gen = root / "generate" / "dataset.csv"
    measure = root / "measure"
    calibrate = ["calibrate", "--input", gen, "--seed", 3]
    return [
        ("generate", [
            "generate", "--n-minority", 60, "--n-majority", 90,
            "--pos-rate-a", 0.4, "--pos-rate-b", 0.4,
            "--beta-minority-pos", "6,2", "--beta-minority-neg", "2,6",
            "--beta-majority-pos", "10,2", "--beta-majority-neg", "2,8",
            "--seed", 7,
        ]),
        ("measure", ["measure", "--input", gen, "--metric", "dp", "eod"]),
        # eo, fprgap and eod read the same EO and FPR curves
        ("measure_all", [
            "measure", "--input", gen, "--metric", "dp", "eo", "fprgap", "eod",
            "--thresholds", 0, 0.3, 0.5, 1,
        ]),
        ("calib", [*calibrate, "--algorithm", "calib", "--metric", "dp", "eod"]),
        ("calib_all", [*calibrate, "--algorithm", "calib", "--metric", "dp", "eo", "fprgap", "eod"]),
        ("ccalib_gamma", [*calibrate, "--algorithm", "ccalib", "--gamma", 0.5, "--metric", "eo"]),
        ("ccalib_meanshift", [*calibrate, "--algorithm", "ccalib", "--metric", "eod"]),
        ("plot", [
            "plot", "--input", measure / "dp_minority_before.csv",
            measure / "dp_majority_before.csv", "--title", "golden",
        ]),
        ("record", [
            "calibrate", "--input", root / "records.csv", "--schema", "record",
            "--minority-token", "f", "--algorithm", "calib", "--seed", 5,
        ]),
        ("plot_sparse", [
            "plot", "--input", root / "record" / "dp_minority_before.csv",
            root / "record" / "dp_majority_before.csv",
        ]),
    ]


def run_all(root) -> dict[str, str]:
    """Run every command under ``root``; map 'step/file' to its sha256."""
    (root / "records.csv").write_text(RECORD_CSV, encoding="utf-8")
    digests = {}
    for step, argv in commands(root):
        out = root / step
        code = main([str(a) for a in argv] + ["--out-dir", str(out)])
        assert code == 0, f"{step} exited {code}"
        for path in sorted(out.iterdir()):
            digests[f"{step}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


GOLDEN = {
    "generate/dataset.csv": "91ebc123c0fd909187f00dc670850adfb498148fdd541737f6598074bc9a7196",
    "measure/dp_majority_before.csv": "ff0dcd3013b27ff1f024ac669a7f5e385c3fd5067d59d6fdf734e7dea8cf0317",
    "measure/dp_minority_before.csv": "699955f8e09c9d6b7188ab51838a187abfcc8d943f09122bd4adcc56e9d12492",
    "measure/eo_majority_before.csv": "6c784b8852527f10999d4142f0940a41b35cb897ec1c6d8718a018b8f7ac4c53",
    "measure/eo_minority_before.csv": "1d88868fd7d5f7b253fad90869c4eb01cdee8887afc7975087fbc6bd6f8da18b",
    "measure/fprgap_majority_before.csv": "69d771011fd2fdd4b257d969157258a6b3a4f0915202936a97458e516c4c64e4",
    "measure/fprgap_minority_before.csv": "2f0ce58b346aad9cf0728286f1d82cc8a9c9d5c9f30afac393fd8670b8aaeb3d",
    "measure/report.json": "2ba63b10c811ec38dbc34c07604eaafb8136af9fa1ef19fb4dac2218485083cf",
    "measure_all/dp_majority_before.csv": "ff0dcd3013b27ff1f024ac669a7f5e385c3fd5067d59d6fdf734e7dea8cf0317",
    "measure_all/dp_minority_before.csv": "699955f8e09c9d6b7188ab51838a187abfcc8d943f09122bd4adcc56e9d12492",
    "measure_all/eo_majority_before.csv": "6c784b8852527f10999d4142f0940a41b35cb897ec1c6d8718a018b8f7ac4c53",
    "measure_all/eo_minority_before.csv": "1d88868fd7d5f7b253fad90869c4eb01cdee8887afc7975087fbc6bd6f8da18b",
    "measure_all/fprgap_majority_before.csv": "69d771011fd2fdd4b257d969157258a6b3a4f0915202936a97458e516c4c64e4",
    "measure_all/fprgap_minority_before.csv": "2f0ce58b346aad9cf0728286f1d82cc8a9c9d5c9f30afac393fd8670b8aaeb3d",
    "measure_all/report.json": "e0e30b2359c40f42e8e63e6b1dae1cfec0b27b87f92df10add86584cdff52aa8",
    "calib/calibrated.csv": "ee0a0e417dd0227cb1faf000c070d46f401f62daa6617fef5876e00e6d5e3015",
    "calib/dp_majority_after.csv": "92abed2549d231943e389cf9319c399d821cf1cf7705ed184ef2ff0a447cd3af",
    "calib/dp_majority_before.csv": "ff0dcd3013b27ff1f024ac669a7f5e385c3fd5067d59d6fdf734e7dea8cf0317",
    "calib/dp_minority_after.csv": "8d3c3d869dd1bbb81de2d930c66a9c0b0e86c63f1f1e07c8a09db113151bd2fc",
    "calib/dp_minority_before.csv": "699955f8e09c9d6b7188ab51838a187abfcc8d943f09122bd4adcc56e9d12492",
    "calib/eo_majority_after.csv": "17402f90f46859c6011f41f0caa1569afbe37d59691a27234a93257b4aa50a39",
    "calib/eo_majority_before.csv": "6c784b8852527f10999d4142f0940a41b35cb897ec1c6d8718a018b8f7ac4c53",
    "calib/eo_minority_after.csv": "b846bc243e141b994a40f5076890ddc2979d123052a2ec19e6fac8a804ed7382",
    "calib/eo_minority_before.csv": "1d88868fd7d5f7b253fad90869c4eb01cdee8887afc7975087fbc6bd6f8da18b",
    "calib/fprgap_majority_after.csv": "b199b07d00734b1e3d30e87388c809eedc0ae90e3ff7eed4a8822c719c6bc56d",
    "calib/fprgap_majority_before.csv": "69d771011fd2fdd4b257d969157258a6b3a4f0915202936a97458e516c4c64e4",
    "calib/fprgap_minority_after.csv": "b987136722af0df6f160aa4bf95fb66f08dc3b5e9d8a49cdc8d67401668c13f0",
    "calib/fprgap_minority_before.csv": "2f0ce58b346aad9cf0728286f1d82cc8a9c9d5c9f30afac393fd8670b8aaeb3d",
    "calib/model.json": "9272217e07962813ddfe8c7b118dbeba35a0e2432790ffa2d63ac38ef363193e",
    "calib/report.json": "c7c316ab4e13e40a50bda700c52e5b0ae1d2c6673e473706a30f9af1fe1710e3",
    "calib_all/calibrated.csv": "ee0a0e417dd0227cb1faf000c070d46f401f62daa6617fef5876e00e6d5e3015",
    "calib_all/dp_majority_after.csv": "92abed2549d231943e389cf9319c399d821cf1cf7705ed184ef2ff0a447cd3af",
    "calib_all/dp_majority_before.csv": "ff0dcd3013b27ff1f024ac669a7f5e385c3fd5067d59d6fdf734e7dea8cf0317",
    "calib_all/dp_minority_after.csv": "8d3c3d869dd1bbb81de2d930c66a9c0b0e86c63f1f1e07c8a09db113151bd2fc",
    "calib_all/dp_minority_before.csv": "699955f8e09c9d6b7188ab51838a187abfcc8d943f09122bd4adcc56e9d12492",
    "calib_all/eo_majority_after.csv": "17402f90f46859c6011f41f0caa1569afbe37d59691a27234a93257b4aa50a39",
    "calib_all/eo_majority_before.csv": "6c784b8852527f10999d4142f0940a41b35cb897ec1c6d8718a018b8f7ac4c53",
    "calib_all/eo_minority_after.csv": "b846bc243e141b994a40f5076890ddc2979d123052a2ec19e6fac8a804ed7382",
    "calib_all/eo_minority_before.csv": "1d88868fd7d5f7b253fad90869c4eb01cdee8887afc7975087fbc6bd6f8da18b",
    "calib_all/fprgap_majority_after.csv": "b199b07d00734b1e3d30e87388c809eedc0ae90e3ff7eed4a8822c719c6bc56d",
    "calib_all/fprgap_majority_before.csv": "69d771011fd2fdd4b257d969157258a6b3a4f0915202936a97458e516c4c64e4",
    "calib_all/fprgap_minority_after.csv": "b987136722af0df6f160aa4bf95fb66f08dc3b5e9d8a49cdc8d67401668c13f0",
    "calib_all/fprgap_minority_before.csv": "2f0ce58b346aad9cf0728286f1d82cc8a9c9d5c9f30afac393fd8670b8aaeb3d",
    "calib_all/model.json": "9272217e07962813ddfe8c7b118dbeba35a0e2432790ffa2d63ac38ef363193e",
    "calib_all/report.json": "c83c995eeab57b320f19897282bb7b4d50ac1d5877ffe5430d2ed8acea18e24f",
    "ccalib_gamma/calibrated.csv": "b316a2e9d4973a8bee39bbe9ef6cb82780b20071c3f2294ddfeffecc412d13c1",
    "ccalib_gamma/eo_majority_after.csv": "4a77c7b87728c1953bd8baf5c42467876c593889b1b41b9c80eaa5228225c429",
    "ccalib_gamma/eo_majority_before.csv": "6c784b8852527f10999d4142f0940a41b35cb897ec1c6d8718a018b8f7ac4c53",
    "ccalib_gamma/eo_minority_after.csv": "f7fcb752eff9bedbd0e6913b3acb447f6622a3260eb802bb9c8362311ddd2d75",
    "ccalib_gamma/eo_minority_before.csv": "1d88868fd7d5f7b253fad90869c4eb01cdee8887afc7975087fbc6bd6f8da18b",
    "ccalib_gamma/model.json": "ee5b2ea4be109a0553c43555cd918591f7c96739ec93a5dc3d5a594d0f367f87",
    "ccalib_gamma/report.json": "a87c996c4e5b0c7e43d6efa6293335c58bb777246a4215b043547de4f8c88290",
    "ccalib_meanshift/calibrated.csv": "b316a2e9d4973a8bee39bbe9ef6cb82780b20071c3f2294ddfeffecc412d13c1",
    "ccalib_meanshift/eo_majority_after.csv": "4a77c7b87728c1953bd8baf5c42467876c593889b1b41b9c80eaa5228225c429",
    "ccalib_meanshift/eo_majority_before.csv": "6c784b8852527f10999d4142f0940a41b35cb897ec1c6d8718a018b8f7ac4c53",
    "ccalib_meanshift/eo_minority_after.csv": "f7fcb752eff9bedbd0e6913b3acb447f6622a3260eb802bb9c8362311ddd2d75",
    "ccalib_meanshift/eo_minority_before.csv": "1d88868fd7d5f7b253fad90869c4eb01cdee8887afc7975087fbc6bd6f8da18b",
    "ccalib_meanshift/fprgap_majority_after.csv": "1727423d860b4efe3000379f580876254c7113023b029c73dfdef5e453a36ed4",
    "ccalib_meanshift/fprgap_majority_before.csv": "69d771011fd2fdd4b257d969157258a6b3a4f0915202936a97458e516c4c64e4",
    "ccalib_meanshift/fprgap_minority_after.csv": "9a07bb080a11b252502d5594cae342fd534713b2d273009fdbe1fe3facd58a9a",
    "ccalib_meanshift/fprgap_minority_before.csv": "2f0ce58b346aad9cf0728286f1d82cc8a9c9d5c9f30afac393fd8670b8aaeb3d",
    "ccalib_meanshift/model.json": "6701d4f0d14cd8e9f734188d16400a02cfd1b5f4a2e1f0a71ce364e410d8e997",
    "ccalib_meanshift/report.json": "7232362414757c98a50c8f411d5396eee0fea216dfe13afca589cd724b6c1592",
    "plot/curves.svg": "a645270bbdf1ff5434dedbd573a5409b5484ed5bd33fe25ffd7ed9b3d76445ac",
    "plot_sparse/curves.svg": "8455283a6bf7d32182ba4aef870d1f8c0f6c158f401d9cad84312b5853b41fd5",
    "record/calibrated.csv": "340c92c7de64b1eb0516de4570e30ca82674b9c77d13fa6542854e320cc052dd",
    "record/dp_majority_after.csv": "633163e7cfcce075cc8da0d4eff012f324296274b31060715f29ad9785f29862",
    "record/dp_majority_before.csv": "127d384ddf3b31e35a04d1c862158ca9ae6c01b83839f506340b470a98b05a1b",
    "record/dp_minority_after.csv": "2b023910620a7e10d8a67f2fe3a71ce4e68063132656c1ef5ce30f7e550e1735",
    "record/dp_minority_before.csv": "a81f51ea1df11f0e0d230161ee6ca8f8dc90b31876d55eb9b1ca9b33cf137ff1",
    "record/model.json": "e6739786c88c290c36add61a447d09c3fec219933156ad373bb5f52daa1881be",
    "record/report.json": "cf78d77fd5a86cfdd89a7b9cb3ddc5efe71de934ceac66d719a05975df2b0518",
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    root = tmp_path_factory.mktemp("golden")
    return root, run_all(root)


def test_cli_outputs_match_golden_digests(golden_run):
    _, digests = golden_run
    names = list(digests) + [n for n in GOLDEN if n not in digests]
    for name in names:
        assert digests.get(name) == GOLDEN.get(name), f"first differing output: {name}"


def test_oracle_plot_keeps_the_old_digest(golden_run):
    # the renderer that drew every corner, on the golden plot's inputs,
    # still gives the digest recorded before M4
    root = golden_run[0] / "measure"
    svg = oracle_render_gap_svg(
        StepCurve.from_csv(root / "dp_minority_before.csv"),
        StepCurve.from_csv(root / "dp_majority_before.csv"),
        label_a="dp_minority_before",
        label_b="dp_majority_before",
        title="golden",
    )
    digest = hashlib.sha256(svg.encode("utf-8")).hexdigest()
    assert digest == "104cbde0bef34d8aa264bbe5d2c2052d8ae3d2cb930421cdd08171ed5c2d2670"


def test_dense_meanshift_keeps_the_old_digests(golden_run, monkeypatch, tmp_path):
    # the kernel over every point, on the golden step's input, still gives
    # the digests recorded before the kernel's columns became distinct values
    monkeypatch.setattr(conditional, "_mean_shift_modes", dense_mean_shift_modes)
    argv = dict(commands(golden_run[0]))["ccalib_meanshift"]
    assert main([str(a) for a in argv] + ["--out-dir", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("model.json", "report.json")
    }
    assert digests == {
        "model.json": "5a64414e98561fbe702ebbf90c82ecce568ed7f709ccbbd18ef82ddfcdfdb07b",
        "report.json": "2a5340b1b35e33d7c39ed781cdd36c53ba1b27727d2f07875ece3c2a0b11e4b3",
    }


def test_every_svg_parses(golden_run):
    assert parse_svgs(golden_run[0]) == 2


# --- model.json reads back ------------------------------------------------

# each calibrate step's input: (file under the run root, schema, minority token)
CALIBRATE_INPUTS = {
    "calib": ("generate/dataset.csv", Schema.PAIR_LEVEL, "minority"),
    "calib_all": ("generate/dataset.csv", Schema.PAIR_LEVEL, "minority"),
    "ccalib_gamma": ("generate/dataset.csv", Schema.PAIR_LEVEL, "minority"),
    "ccalib_meanshift": ("generate/dataset.csv", Schema.PAIR_LEVEL, "minority"),
    "record": ("records.csv", Schema.RECORD_LEVEL, "f"),
}


def model_dict(model) -> dict:
    """The model's dict with each score array as the JSON list it is written as."""
    if isinstance(model, CondCalibModel):
        payload = model_to_dict_conditional(model)
    else:
        payload = model_to_dict(model)
    return json.loads(json.dumps(payload, default=np.ndarray.tolist))


@pytest.mark.parametrize("step", CALIBRATE_INPUTS)
def test_model_file_reproduces_calibrated_csv(golden_run, step, tmp_path):
    root = golden_run[0]
    source, schema, token = CALIBRATE_INPUTS[step]
    model_file = root / step / "model.json"
    model = load_model(model_file)
    assert isinstance(model, CondCalibModel) == step.startswith("ccalib")
    apply = cond_calibrate_dataset if isinstance(model, CondCalibModel) else calibrate_dataset
    scores = apply(model, load_dataset(root / source, schema, token)).scores()
    with open(root / step / "calibrated.csv", encoding="utf-8", newline="") as f:
        written = [row[1] for row in csv.reader(f)][1:]
    assert list(map(repr, scores.tolist())) == written
    save_model(model, tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() == model_file.read_bytes()


@pytest.mark.parametrize("step", CALIBRATE_INPUTS)
def test_model_file_without_algorithm_is_read_by_shape(golden_run, step):
    # the shape the library wrote before model files carried "algorithm"
    payload = json.loads((golden_run[0] / step / "model.json").read_text())
    del payload["algorithm"]
    model = load_model(json.dumps(payload).encode())
    assert isinstance(model, CondCalibModel) == ("gamma" in payload)
    assert model_dict(model) == payload


DELETE = object()


def load_edited(golden_run, step, edits):
    """Load the step's model.json after setting each dotted path (an
    integer part indexes a list) to a value; ``DELETE`` removes the key."""
    payload = json.loads((golden_run[0] / step / "model.json").read_text())
    for dotted, value in edits.items():
        *parents, key = (int(k) if k.lstrip("-").isdigit() else k for k in dotted.split("."))
        target = payload
        for parent in parents:
            target = target[parent]
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
    return load_model(json.dumps(payload).encode())


@pytest.mark.parametrize(
    "raw,reason",
    [
        (b"\xff\xfe{}", "not UTF-8 JSON: input is not UTF-8"),
        (b"", "not UTF-8 JSON"),
        (b"{", "not UTF-8 JSON"),
        (b"{'alpha': 0.5}", "not UTF-8 JSON"),
        (b"[" * 100_000, "not UTF-8 JSON"),
        (b"[]", "must hold a JSON object"),
        (b'"calib"', "must hold a JSON object"),
        (b"null", "must hold a JSON object"),
    ],
    ids=["not-utf8", "empty", "truncated", "single-quotes", "too-deep", "list", "string", "null"],
)
def test_model_file_not_utf8_json_object(tmp_path, raw, reason):
    path = tmp_path / "model.json"
    path.write_bytes(raw)
    with pytest.raises(MalformedModelError, match=reason):
        load_model(path)


@pytest.mark.parametrize("algorithm", ["none", "Calib", "", 3, None, ["calib"]])
def test_model_file_unknown_algorithm(golden_run, algorithm):
    with pytest.raises(MalformedModelError, match="unknown model algorithm"):
        load_edited(golden_run, "calib", {"algorithm": algorithm})


@pytest.mark.parametrize(
    "step,edits,message",
    [
        ("calib", {"alpha": DELETE}, "model key 'alpha' must be a number, got None"),
        ("calib", {"sigma": "0.05"}, "model key 'sigma' must be a number"),
        ("calib", {"seed": 1.5}, "model key 'seed' must be an integer"),
        ("calib", {"seed": True}, "model key 'seed' must be an integer"),
        ("calib", {"scores_b": DELETE}, "model key 'scores_b' must be a list"),
        ("calib", {"scores_a": {"0": 0.5}}, "model key 'scores_a' must be a list"),
        ("ccalib_gamma", {"gamma": True}, "model key 'gamma' must be a number"),
        ("ccalib_gamma", {"matched": DELETE}, "model key 'matched' must be an object"),
        ("ccalib_gamma", {"unmatched": []}, "model key 'unmatched' must be an object"),
        ("ccalib_gamma", {"meanshift": DELETE}, "model key 'meanshift' must be an object"),
        ("ccalib_gamma", {"matched.alpha": DELETE}, "model.matched key 'alpha'"),
        ("ccalib_gamma", {"unmatched.seed": "0"}, "model.unmatched key 'seed'"),
        ("ccalib_gamma", {"meanshift.max_iter": 500.0}, "model.meanshift key 'max_iter'"),
        ("ccalib_gamma", {"meanshift.tol": DELETE}, "model.meanshift key 'tol'"),
        # files whose algorithm names the other shape, and one of neither shape
        ("calib", {"algorithm": "ccalib"}, "model key 'gamma' must be a number"),
        ("ccalib_gamma", {"algorithm": "calib"}, "model key 'scores_a' must be a list"),
        ("calib", {"algorithm": DELETE, "scores_a": DELETE}, "model key 'scores_a'"),
        # a key save_model does not write, in each object it writes
        ("calib", {"extra": 1}, "model key 'extra' is not one save_model writes"),
        ("calib", {"algorithm": DELETE, "gammma": 0.5}, "model key 'gammma' is not one"),
        ("calib", {"matched": {}}, "model key 'matched' is not one save_model writes"),
        ("ccalib_gamma", {"extra": None}, "model key 'extra' is not one save_model writes"),
        ("ccalib_gamma", {"alpha": 0.5}, "model key 'alpha' is not one save_model writes"),
        ("ccalib_gamma", {"matched.extra": 1}, "model.matched key 'extra' is not one"),
        ("ccalib_gamma", {"matched.algorithm": "calib"}, "model.matched key 'algorithm'"),
        ("ccalib_gamma", {"unmatched.gamma": 0.5}, "model.unmatched key 'gamma' is not one"),
    ],
)
def test_model_file_missing_or_mistyped_key(golden_run, step, edits, message):
    with pytest.raises(MalformedModelError, match=f"^{message}"):
        load_edited(golden_run, step, edits)


@pytest.mark.parametrize(
    "step,edits,message",
    [
        ("calib", {"scores_a": [0.1, 0.9]}, "model: scores_a must be sorted"),
        ("calib", {"scores_a": [1.5]}, r"model: scores_a values must lie in \[0, 1\]"),
        ("calib", {"scores_b": [-0.25]}, r"model: scores_b values must lie in \[0, 1\]"),
        ("calib", {"scores_a": []}, "model: both group score lists must be non-empty"),
        ("calib", {"scores_a": [[0.5]]}, "model: scores_a must be a flat list of numbers"),
        ("calib", {"scores_a": ["0.5"]}, "model: scores_a must be a flat list of numbers"),
        ("calib", {"scores_a": [0.5, None]}, "model: scores_a must be a flat list"),
        ("calib", {"scores_b": [True]}, "model: scores_b must be a flat list"),
        ("calib", {"scores_a": [[0.5], 0.4]}, "model: "),
        ("calib", {"alpha": 0.5}, "model: alpha 0.5 != "),
        ("calib", {"alpha": 10**400}, "model: "),
        ("calib", {"sigma": -1}, "model: sigma must be finite and >= 0"),
        ("ccalib_gamma", {"matched.scores_b": [0.2, 0.3]}, "model.matched: scores_b"),
        ("ccalib_gamma", {"unmatched.alpha": 1}, "model.unmatched: alpha 1 != "),
        ("calib", {"seed": -5}, "model: seed must be >= 0, got -5"),
        ("ccalib_gamma", {"matched.seed": -1}, "model.matched: seed must be >= 0"),
    ],
)
def test_model_file_invalid_score_lists(golden_run, step, edits, message):
    with pytest.raises(MalformedModelError, match=f"^{message}"):
        load_edited(golden_run, step, edits)


@pytest.mark.parametrize("gamma", [1.5, -0.1, 2, float("nan"), float("inf"), -float("inf")])
def test_model_file_gamma_outside_unit_interval(golden_run, gamma):
    with pytest.raises(MalformedModelError, match=r"gamma .* outside \[0, 1\]"):
        load_edited(golden_run, "ccalib_gamma", {"gamma": gamma})


@pytest.mark.parametrize(
    "edits",
    [
        {"meanshift.bandwidth": 0},
        {"meanshift.bandwidth": -0.1},
        {"meanshift.bandwidth": float("nan")},
        {"meanshift.bandwidth": 1e-200},  # 1/(2*bandwidth**2) overflows
        {"meanshift.bandwidth": 10**400},  # no float holds it
        {"meanshift.max_iter": 0},
        {"meanshift.tol": 0},
        {"meanshift.tol": float("nan")},
        {"meanshift.merge_radius": 1.0},  # above the bandwidth
        # settings mean shift could run with, or another key: not what save_model writes
        {"meanshift.max_iter": 50},
        {"meanshift.merge_radius": 0.04},
        {"meanshift.tol": 0.001},
        {"meanshift.extra": 1},
    ],
    ids=lambda e: "-".join(f"{k}={v!r:.12}" for k, v in e.items()),
)
def test_model_file_invalid_meanshift_block(golden_run, edits):
    with pytest.raises(MalformedModelError, match="^model.meanshift: "):
        load_edited(golden_run, "ccalib_meanshift", edits)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "step,edits,message",
    [
        ("calib", {"scores_a.0": NAN}, r"model: scores_a values must lie in \[0, 1\]"),
        ("calib", {"scores_b.-1": NAN}, r"model: scores_b values must lie in \[0, 1\]"),
        ("calib", {"scores_a.0": INF}, r"model: scores_a values must lie in \[0, 1\]"),
        ("calib", {"scores_b.-1": -INF}, r"model: scores_b values must lie in \[0, 1\]"),
        ("calib", {"alpha": NAN}, "model: alpha nan != "),
        ("calib", {"alpha": INF}, "model: alpha inf != "),
        ("calib", {"sigma": NAN}, "model: sigma must be finite and >= 0, got nan"),
        ("calib", {"sigma": INF}, "model: sigma must be finite and >= 0, got inf"),
        ("ccalib_gamma", {"matched.scores_a.0": NAN}, "model.matched: scores_a values"),
        ("ccalib_gamma", {"unmatched.alpha": NAN}, "model.unmatched: alpha nan"),
        ("ccalib_gamma", {"unmatched.sigma": INF}, "model.unmatched: sigma must be finite"),
    ],
)
def test_model_file_non_finite_values(golden_run, step, edits, message):
    # json writes NaN and Infinity literals, and json.loads reads them back
    with pytest.raises(MalformedModelError, match=f"^{message}"):
        load_edited(golden_run, step, edits)
