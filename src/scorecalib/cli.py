"""Command-line surface: generate / measure / calibrate / plot.

All state comes from flags (or a JSON config file via ``--config``;
explicit flags win).  Outputs are byte-deterministic for a fixed
command line: JSON is written with sorted keys, floats at full repr
precision, and the SVG renderer embeds no timestamps.

Exit codes: 0 success, 2 invalid input, 3 algorithm failure (e.g. a
single-mode score distribution, or an empty group in a gamma
partition).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bias import BiasMetricKind, curve_bias, curve_gaps, group_curves, risk_estimate
from .calibration import calibrate_dataset, fit
from .conditional import DEFAULT_BANDWIDTH, cond_calibrate_dataset, fit_conditional, save_model
from .dataset import (
    GroupId,
    GroupVocabulary,
    Schema,
    ScoreDataset,
    csv_writer,
    dataset_from_rows,
    dump_dataset,
    parse_rows,
    write_json,
)
from .empirical import DEFAULT_SIGMA, StepCurve, auc
from .errors import (
    AlgorithmError,
    InputError,
    InvalidParameterError,
    ScoreCalibError,
    SingleModeError,
)
from .svgplot import render_gap_svg
from .synth import BetaParams, SynthSpec, generate

DEFAULT_THRESHOLDS = (0.1, 0.5, 0.95)

_METRICS = {k.value: k for k in BiasMetricKind}


def _pct(value) -> str:
    return "n/a" if value is None else f"{100.0 * value:.2f}%"


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise InvalidParameterError(f"--config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidParameterError("--config file must contain a JSON object")
    return data


def _opt(args, config: dict, key: str, default=None, cast=None):
    """Flag value, else config value, else default; ``cast`` applies to the
    first two and turns a bad value into :class:`InvalidParameterError`."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    if value is None:
        return default
    if cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: float(10**400)
        raise InvalidParameterError(f"invalid {key} {value!r}") from None


def _float(value) -> float:
    """A number from a flag or config value; a bool is rejected rather
    than read as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _int(value) -> int:
    """An integer from a flag or config value; a bool or a non-integral
    number (1.7, NaN, inf) is rejected rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


def _seed(value) -> int:
    """A random seed: an integer >= 0, as numpy's generators require."""
    seed = _int(value)
    if seed < 0:
        raise ValueError(f"negative seed: {seed}")
    return seed


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"not a string: {value!r}")
    return value


def _str_list(value) -> list[str]:
    if not isinstance(value, list):
        raise TypeError(f"not a list: {value!r}")
    return [_str(v) for v in value]


def _bool(value) -> bool:
    """Only a JSON boolean (or the flag's True): "false" and 0 are rejected
    rather than read by their truthiness."""
    if not isinstance(value, bool):
        raise TypeError(f"not a boolean: {value!r}")
    return value


def _load_input(args, config, path) -> tuple[ScoreDataset, Schema, list[list[str]]]:
    """The dataset, its schema, and the raw group-token and label columns
    (echoed unchanged into ``calibrated.csv``)."""
    if not path:
        raise InputError("--input is required")
    schema = _opt(args, config, "schema", Schema.PAIR_LEVEL, Schema)
    vocab = GroupVocabulary(
        _opt(args, config, "minority_token", "minority", _str),
        _opt(args, config, "majority_token", cast=_str),
    )
    rows = parse_rows(path, schema)
    return dataset_from_rows(rows, schema, vocab), schema, rows.columns[2:]


def _metric_kinds(args, config) -> list[BiasMetricKind]:
    # a single metric name in --config means a one-item list
    names = _opt(
        args, config, "metric", ["dp"], lambda v: [v] if isinstance(v, str) else list(v)
    )
    if not names:  # as for the flag (nargs="+"), one name or more
        raise InvalidParameterError(f"invalid metric {names!r}")
    for name in names:
        if not isinstance(name, str) or name not in _METRICS:
            raise InputError(f"unknown metric {name!r}")
    return list(dict.fromkeys(_METRICS[name] for name in names))


def _float_list(value) -> list[float]:
    # a str is iterable, but not a list of thresholds; as for the flag
    # (nargs="+"), the list holds one threshold or more
    if isinstance(value, str) or not value:
        raise TypeError("expected a non-empty list of numbers")
    return [_float(t) for t in value]


def _thresholds(args, config) -> list[float]:
    return _opt(args, config, "thresholds", list(DEFAULT_THRESHOLDS), _float_list)


def _safe_auc(d: ScoreDataset):
    try:
        return auc(d)
    except ScoreCalibError:
        return None


def _report_metrics(out_dir: Path, kinds, thresholds, stages: dict, run: dict) -> dict:
    """Every metric's report.json entry, read off one pair of group curves
    per (curve kind, stage); writes those curves once every entry is built.

    ``stages`` maps "before" (and "after") to a dataset.  ``run`` holds
    the run's risk and overall AUCs, which every entry repeats.
    """
    curves, bias, gaps = {}, {}, {}
    for stage, data in stages.items():
        for part in dict.fromkeys(part for kind in kinds for part in kind.parts):
            pair = group_curves(data, part)
            bias[part, stage] = curve_bias(pair)
            gaps[part, stage] = curve_gaps(pair, thresholds)
            for group, curve in pair.items():
                curves[f"{part.value}_{group.value}_{stage}"] = curve
    entries = {}
    for kind in kinds:
        entry = entries[kind.value] = {"metric": kind.value, "after": None, **run}
        for stage in stages:
            entry[stage] = sum(bias[part, stage] for part in kind.parts)
            key = "threshold_bias" if stage == "before" else "threshold_bias_after"
            values = sum(gaps[part, stage] for part in kind.parts).tolist()
            entry[key] = dict(zip(map(repr, thresholds), values))
        # EOD's components, keyed "eo" and "fpr_gap"
        entry["components"] = None if len(kind.parts) == 1 else {
            part.name.lower(): {stage: bias[part, stage] for stage in stages}
            for part in kind.parts
        }
    for stem, curve in sorted(curves.items()):
        curve.to_csv(out_dir / f"{stem}.csv")
    return entries


def _dataset_summary(d: ScoreDataset) -> dict:
    return {
        "n": len(d),
        "n_minority": d.count(GroupId.MINORITY),
        "n_majority": d.count(GroupId.MAJORITY),
        "labeled": d.labeled,
    }


def _auc_by_group(d: ScoreDataset):
    if not d.labeled:
        return None
    return {group.value: _safe_auc(d.subset(group)) for group in GroupId}


def _out_dir(args, config) -> Path:
    out_dir = Path(_opt(args, config, "out_dir", ".", _str))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _print_summary(entries: dict, auc_by_group, header: str) -> None:
    print(header)
    for name, entry in entries.items():
        line = f"  {name.upper()} bias: before {_pct(entry['before'])}"
        if entry["after"] is not None:
            line += f"  after {_pct(entry['after'])}"
        print(line)
        for theta, value in entry["threshold_bias"].items():
            print(f"    at theta={theta}: {_pct(value)}")
    if auc_by_group is not None:
        shown = "  ".join(f"{g}: {_pct(v)}" for g, v in auc_by_group.items())
        print(f"  AUC by group: {shown}")


def cmd_generate(args) -> int:
    config = _load_config(args.config)

    def beta(value) -> BetaParams:
        shape1, shape2 = value.split(",") if isinstance(value, str) else value
        return BetaParams(_float(shape1), _float(shape2))

    def required(key, cast):
        value = _opt(args, config, key, cast=cast)
        if value is None:
            raise InputError(f"missing synthetic spec field {key!r}")
        return value

    spec = SynthSpec(
        n_minority=required("n_minority", _int),
        n_majority=required("n_majority", _int),
        pos_rate_a=required("pos_rate_a", _float),
        pos_rate_b=required("pos_rate_b", _float),
        minority_pos=required("minority_pos", beta),
        minority_neg=required("minority_neg", beta),
        majority_pos=required("majority_pos", beta),
        majority_neg=required("majority_neg", beta),
        seed=_opt(args, config, "seed", 0, _seed),
    )
    dest = _out_dir(args, config) / "dataset.csv"
    dataset = generate(spec)
    dump_dataset(dataset, dest)
    print(
        f"wrote {len(dataset)} pairs ({spec.n_minority} minority, "
        f"{spec.n_majority} majority) to {dest}"
    )
    return 0


def cmd_measure(args) -> int:
    config = _load_config(args.config)
    d, _, _ = _load_input(args, config, _opt(args, config, "input", cast=_str))
    kinds = _metric_kinds(args, config)
    thresholds = _thresholds(args, config)
    out_dir = _out_dir(args, config)

    no_after = dict.fromkeys(("risk", "auc_before", "auc_after"))
    entries = _report_metrics(out_dir, kinds, thresholds, {"before": d}, no_after)
    auc_groups = _auc_by_group(d)
    payload = {
        "command": "measure",
        "dataset": _dataset_summary(d),
        "metrics": entries,
        "auc_by_group": auc_groups,
    }
    write_json(out_dir / "report.json", payload)
    _print_summary(entries, auc_groups, f"measured {len(d)} pairs")
    return 0


def cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    d, schema, raw_columns = _load_input(args, config, _opt(args, config, "input", cast=_str))
    kinds = _metric_kinds(args, config)
    thresholds = _thresholds(args, config)
    algorithm = _opt(args, config, "algorithm", "calib")
    sigma = _opt(args, config, "sigma", DEFAULT_SIGMA, _float)
    seed = _opt(args, config, "seed", 0, _seed)
    gamma = _opt(args, config, "gamma", cast=_float)
    bandwidth = _opt(args, config, "bandwidth", DEFAULT_BANDWIDTH, _float)
    use_true_labels = _opt(args, config, "use_true_labels", False, _bool)
    out_dir = _out_dir(args, config)

    fit_sel = _opt(args, config, "fit", "self", _str)
    fit_set = d if fit_sel == "self" else _load_input(args, config, fit_sel)[0]

    model = None
    if algorithm == "none":
        calibrated = d
    elif algorithm == "calib":
        model = fit(fit_set, sigma, seed)
        calibrated = calibrate_dataset(model, d)
    elif algorithm == "ccalib":
        model = fit_conditional(fit_set, sigma, seed, gamma, bandwidth, use_true_labels)
        calibrated = cond_calibrate_dataset(model, d)
    else:
        raise InputError(f"unknown algorithm {algorithm!r}")

    new_scores = calibrated.scores()
    run = {
        "risk": risk_estimate(d.scores(), new_scores),
        "auc_before": _safe_auc(d),
        "auc_after": _safe_auc(calibrated),
    }
    stages = {"before": d, "after": calibrated}
    entries = _report_metrics(out_dir, kinds, thresholds, stages, run)

    # emit the calibrated dataset in the input schema, original tokens kept
    with csv_writer(out_dir / "calibrated.csv") as writer:
        writer.writerow(schema.header)
        writer.writerows(zip(d.ids, map(repr, new_scores.tolist()), *raw_columns))

    auc_groups_before = _auc_by_group(d)
    auc_groups_after = _auc_by_group(calibrated)
    payload = {
        "command": "calibrate",
        "algorithm": algorithm,
        "sigma": sigma,
        "seed": seed,
        "fit": fit_sel,
        "dataset": _dataset_summary(d),
        "metrics": entries,
        **run,
        "auc_by_group_before": auc_groups_before,
        "auc_by_group_after": auc_groups_after,
        "gamma": getattr(model, "gamma", None),
    }
    write_json(out_dir / "report.json", payload)
    if model is not None:
        save_model(model, out_dir / "model.json")
    _print_summary(
        entries, auc_groups_before, f"calibrated {len(d)} pairs with {algorithm}"
    )
    print(f"  risk: {_pct(run['risk'])}")
    if payload["auc_before"] is not None and payload["auc_after"] is not None:
        delta = payload["auc_after"] - payload["auc_before"]
        print(
            f"  AUC: before {_pct(payload['auc_before'])}  after "
            f"{_pct(payload['auc_after'])}  (delta {100 * delta:+.2f}pp)"
        )
    return 0


def cmd_plot(args) -> int:
    config = _load_config(args.config)
    inputs = _opt(args, config, "input", cast=_str_list)
    if not inputs or len(inputs) != 2:
        raise InputError("plot requires exactly two --input curve CSVs")
    out_dir = _out_dir(args, config)
    curve_a = StepCurve.from_csv(inputs[0])
    curve_b = StepCurve.from_csv(inputs[1])
    title = _opt(args, config, "title", "threshold curves", _str)
    svg = render_gap_svg(
        curve_a,
        curve_b,
        label_a=Path(inputs[0]).stem,
        label_b=Path(inputs[1]).stem,
        title=title,
    )
    dest = out_dir / "curves.svg"
    dest.write_text(svg, encoding="utf-8")
    print(f"wrote {dest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorecalib",
        description="Measure threshold-integrated group bias in matching scores "
        "and remove it by post-processing calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        p.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")

    g = sub.add_parser("generate", help="write a synthetic scored-pair CSV")
    add_common(g)
    g.add_argument("--n-minority", dest="n_minority", type=int)
    g.add_argument("--n-majority", dest="n_majority", type=int)
    g.add_argument("--pos-rate-a", dest="pos_rate_a", type=float)
    g.add_argument("--pos-rate-b", dest="pos_rate_b", type=float)
    g.add_argument("--beta-minority-pos", dest="minority_pos", metavar="S1,S2")
    g.add_argument("--beta-minority-neg", dest="minority_neg", metavar="S1,S2")
    g.add_argument("--beta-majority-pos", dest="majority_pos", metavar="S1,S2")
    g.add_argument("--beta-majority-neg", dest="majority_neg", metavar="S1,S2")
    g.add_argument("--seed", type=int)
    g.set_defaults(func=cmd_generate)

    def add_dataset_flags(p):
        p.add_argument("--input", help="input CSV path")
        p.add_argument("--schema", choices=["pair", "record"])
        p.add_argument("--minority-token", dest="minority_token")
        p.add_argument(
            "--majority-token",
            dest="majority_token",
            help="declare a closed group vocabulary; other tokens are rejected",
        )
        p.add_argument(
            "--metric",
            nargs="+",
            choices=sorted(_METRICS),
            help="bias metrics to report (default: dp)",
        )
        p.add_argument("--thresholds", nargs="+", type=float)

    m = sub.add_parser("measure", help="report bias for a scored-pair CSV")
    add_common(m)
    add_dataset_flags(m)
    m.set_defaults(func=cmd_measure)

    c = sub.add_parser("calibrate", help="calibrate scores and report before/after")
    add_common(c)
    add_dataset_flags(c)
    c.add_argument("--algorithm", choices=["calib", "ccalib", "none"])
    c.add_argument("--sigma", type=float, help="jitter stddev (default 0.05)")
    c.add_argument("--seed", type=int)
    c.add_argument("--gamma", type=float, help="explicit split threshold for ccalib")
    c.add_argument("--bandwidth", type=float, help="meanshift bandwidth for ccalib")
    c.add_argument(
        "--fit",
        help="'self' to fit on the input, or a CSV path for a held-out fit set",
    )
    c.add_argument(
        "--use-true-labels",
        dest="use_true_labels",
        action="store_const",
        const=True,
        help="partition a labeled fit set by its labels instead of by gamma (ccalib)",
    )
    c.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("plot", help="render two curve CSVs as an SVG with gap band")
    add_common(p)
    p.add_argument("--input", nargs=2, metavar=("CURVE_A", "CURVE_B"))
    p.add_argument("--title")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingleModeError as exc:
        print(f"error: {exc} (use --gamma to set the threshold)", file=sys.stderr)
        return 3
    except AlgorithmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
