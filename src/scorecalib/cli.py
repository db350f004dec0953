"""Command-line surface: generate / measure / calibrate / plot.

All state comes from flags (or a JSON config file via ``--config``;
explicit flags win).  An option is declared once, as a row of the
``_COMMANDS`` table: its ``--config`` key, cast, default and flag.  A
config key that no subcommand's table has is rejected; a key of another
subcommand is ignored, so one file can drive the whole pipeline.

Outputs are byte-deterministic for a fixed command line: JSON is
written with sorted keys, floats at full repr precision, and the SVG
renderer embeds no timestamps.

Exit codes: 0 success, 2 invalid input or out of memory, 3 algorithm
failure (e.g. a single-mode score distribution, or an empty group in a
gamma partition).  A run that fails removes every file it opened for
writing, so no partial output is left.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from dataclasses import fields
from pathlib import Path

from .bias import BiasMetricKind, curve_bias, curve_gaps, group_curves, risk_estimate
from .calibration import calibrate_dataset, fit
from .conditional import DEFAULT_BANDWIDTH, cond_calibrate_dataset, fit_conditional, save_model
from .dataset import (
    GroupId,
    GroupVocabulary,
    Schema,
    ScoreDataset,
    dataset_from_rows,
    dump_dataset,
    parse_rows,
    text_writer,
    write_csv,
    write_json,
)
from .empirical import DEFAULT_SIGMA, StepCurve, auc, write_curves
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


def _writing(written: list, path: Path) -> Path:
    """``path``, recorded in ``written`` for :func:`main` to remove if the run fails."""
    written.append(path)
    return path


def _pct(value) -> str:
    return "n/a" if value is None else f"{100.0 * value:.2f}%"


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


def _path(value) -> str:
    """A path string; a NUL is rejected here, as no file name can hold one."""
    if "\0" in _str(value):
        raise ValueError(f"NUL in path: {value!r}")
    return value


def _bool(value) -> bool:
    """Only a JSON boolean (or the flag's True): "false" and 0 are rejected
    rather than read by their truthiness."""
    if not isinstance(value, bool):
        raise TypeError(f"not a boolean: {value!r}")
    return value


def _list(value, item, size=None) -> list:
    """A JSON list (or a flag's ``nargs`` values) of one item or more, or
    of exactly ``size``; a str or an object is not a list."""
    if not isinstance(value, list) or not value or size not in (None, len(value)):
        raise TypeError(f"not a list of {size or 'one or more'}: {value!r}")
    return [item(v) for v in value]


def _choice(names: list):
    def cast(value):
        if value not in names:
            raise ValueError(f"not one of {names}: {value!r}")
        return value

    return cast


def _metrics(value) -> list[BiasMetricKind]:
    # a single metric name in --config means a one-item list
    return list(dict.fromkeys(_list([value] if isinstance(value, str) else value, BiasMetricKind)))


def _beta(value) -> BetaParams:
    """Beta shapes: an "S1,S2" string or a JSON list of two numbers."""
    return BetaParams(*_list(value.split(",") if isinstance(value, str) else value, _float, 2))


def _load_input(s: dict, key: str) -> tuple[ScoreDataset, list]:
    """The dataset at the path option ``key`` and its raw group-token and
    label columns as :class:`~scorecalib.dataset.Tokens`, echoed into
    ``calibrated.csv``."""
    if not s[key]:
        raise InputError(f"--{key} is required")
    rows = parse_rows(s[key], s["schema"], GroupVocabulary(s["minority_token"], s["majority_token"]))
    return dataset_from_rows(rows), rows.columns[2:]


def _safe_auc(d: ScoreDataset, group: GroupId | None = None):
    try:
        return auc(d, group)
    except ScoreCalibError:
        return None


def _stage_metrics(out_dir: Path, kinds, thresholds, data: ScoreDataset, stage: str,
                   written: list) -> dict:
    """Each curve part's bias and threshold gaps on one stage's dataset; writes
    the stage's curves before it returns, one walk per group (:func:`write_curves`)."""
    numbers, curves = {}, {}
    for part in dict.fromkeys(part for kind in kinds for part in kind.parts):
        pair = group_curves(data, part)
        numbers[part] = curve_bias(pair), curve_gaps(pair, thresholds)
        for group, curve in pair.items():
            curves.setdefault(group, {})[out_dir / f"{part.value}_{group.value}_{stage}.csv"] = curve
    for same_group in curves.values():
        written.extend(same_group)
        write_curves(same_group)
    return numbers


def _report_metrics(out_dir: Path, kinds, thresholds, stages: dict, run: dict,
                    written: list) -> dict:
    """Every metric's report.json entry, from each stage's numbers; the
    stage's curves are written as soon as those are read (:func:`_stage_metrics`).

    ``stages`` maps "before" (and "after") to a dataset.  ``run`` holds
    the run's risk and overall AUCs, which every entry repeats.
    """
    read = {stage: _stage_metrics(out_dir, kinds, thresholds, d, stage, written)
            for stage, d in stages.items()}
    entries = {}
    for kind in kinds:
        entry = entries[kind.value] = {"metric": kind.value, "after": None, **run}
        for stage, numbers in read.items():
            entry[stage] = sum(numbers[part][0] for part in kind.parts)
            key = "threshold_bias" if stage == "before" else "threshold_bias_after"
            values = sum(numbers[part][1] for part in kind.parts).tolist()
            entry[key] = dict(zip(map(repr, thresholds), values))
        # EOD's components, keyed "eo" and "fpr_gap"
        entry["components"] = None if len(kind.parts) == 1 else {
            part.name.lower(): {stage: numbers[part][0] for stage, numbers in read.items()}
            for part in kind.parts
        }
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
    return {group.value: _safe_auc(d, group) for group in GroupId}


def _out_dir(s: dict) -> Path:
    out_dir = Path(s["out_dir"])
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


def cmd_generate(s: dict, written: list) -> int:
    keys = [field.name for field in fields(SynthSpec)]
    for key in keys:
        if s[key] is None:
            raise InputError(f"missing synthetic spec field {key!r}")
    spec = SynthSpec(**{key: s[key] for key in keys})
    dest = _out_dir(s) / "dataset.csv"
    dataset = generate(spec)
    dump_dataset(dataset, _writing(written, dest))
    print(
        f"wrote {len(dataset)} pairs ({spec.n_minority} minority, "
        f"{spec.n_majority} majority) to {dest}"
    )
    return 0


def cmd_measure(s: dict, written: list) -> int:
    d, _ = _load_input(s, "input")
    out_dir = _out_dir(s)

    no_after = dict.fromkeys(("risk", "auc_before", "auc_after"))
    entries = _report_metrics(out_dir, s["metric"], s["thresholds"], {"before": d}, no_after,
                              written)
    auc_groups = _auc_by_group(d)
    payload = {
        "command": "measure",
        "dataset": _dataset_summary(d),
        "metrics": entries,
        "auc_by_group": auc_groups,
    }
    write_json(_writing(written, out_dir / "report.json"), payload)
    _print_summary(entries, auc_groups, f"measured {len(d)} pairs")
    return 0


def cmd_calibrate(s: dict, written: list) -> int:
    d, raw_columns = _load_input(s, "input")
    algorithm, sigma, seed, fit_sel = s["algorithm"], s["sigma"], s["seed"], s["fit"]
    out_dir = _out_dir(s)
    fit_set = d if fit_sel == "self" else _load_input(s, "fit")[0]

    model, calibrated = None, d
    if algorithm == "calib":
        model = fit(fit_set, sigma, seed)
        calibrated = calibrate_dataset(model, d)
    elif algorithm == "ccalib":
        model = fit_conditional(
            fit_set, sigma, seed, s["gamma"], s["bandwidth"], s["use_true_labels"]
        )
        calibrated = cond_calibrate_dataset(model, d)

    new_scores = calibrated.scores()
    run = {
        "risk": risk_estimate(d.scores(), new_scores),
        "auc_before": _safe_auc(d),
        "auc_after": _safe_auc(calibrated),
    }
    stages = {"before": d, "after": calibrated}
    entries = _report_metrics(out_dir, s["metric"], s["thresholds"], stages, run, written)

    # emit the calibrated dataset in the input schema, original tokens kept
    write_csv(_writing(written, out_dir / "calibrated.csv"), [s["schema"].header],
              [d.ids, new_scores, *raw_columns])

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
    write_json(_writing(written, out_dir / "report.json"), payload)
    if model is not None:
        save_model(model, _writing(written, out_dir / "model.json"))
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


def cmd_plot(s: dict, written: list) -> int:
    inputs = s["input"]
    if inputs is None:
        raise InputError("plot requires exactly two --input curve CSVs")
    out_dir = _out_dir(s)
    curve_a = StepCurve.from_csv(inputs[0])
    curve_b = StepCurve.from_csv(inputs[1])
    svg = render_gap_svg(
        curve_a,
        curve_b,
        label_a=Path(inputs[0]).stem,
        label_b=Path(inputs[1]).stem,
        title=s["title"],
    )
    dest = out_dir / "curves.svg"
    with text_writer(_writing(written, dest)) as f:
        f.write(svg)
    print(f"wrote {dest}")
    return 0


def _row(key: str, cast, default=None, flag=None, **kwargs) -> tuple:
    """One option: its --config key, its cast and default, its flag
    (``--key-with-dashes`` unless ``flag`` names it) and the rest of its
    ``add_argument`` keywords."""
    return key, cast, default, flag or f"--{key.replace('_', '-')}", kwargs


_SEED = _row("seed", _seed, 0, type=int)
_OUT_DIR = _row("out_dir", _path, ".", help="output directory (default .)")
_DATASET = [
    _OUT_DIR,
    _row("input", _path, help="input CSV path"),
    _row("schema", Schema, "pair", choices=["pair", "record"]),
    _row("minority_token", _str, "minority"),
    _row("majority_token", _str,
         help="declare a closed group vocabulary; other tokens are rejected"),
    _row("metric", _metrics, "dp", nargs="+", choices=sorted(k.value for k in BiasMetricKind),
         help="bias metrics to report (default: dp)"),
    _row("thresholds", lambda v: _list(v, _float), list(DEFAULT_THRESHOLDS), nargs="+", type=float),
]
_ALGORITHMS = ["calib", "ccalib", "none"]

# subcommand: (function, help, options in --help order); a --config key is
# an option's key, and a key that no subcommand has is rejected
_COMMANDS = {
    "generate": (cmd_generate, "write a synthetic scored-pair CSV", [
        _OUT_DIR,
        *(_row(key, _int, type=int) for key in ("n_minority", "n_majority")),
        *(_row(key, _float, type=float) for key in ("pos_rate_a", "pos_rate_b")),
        *(_row(f"{group}_{label}", _beta, flag=f"--beta-{group}-{label}", metavar="S1,S2")
          for group in ("minority", "majority") for label in ("pos", "neg")),
        _SEED,
    ]),
    "measure": (cmd_measure, "report bias for a scored-pair CSV", _DATASET),
    "calibrate": (cmd_calibrate, "calibrate scores and report before/after", [
        *_DATASET,
        _row("algorithm", _choice(_ALGORITHMS), "calib", choices=_ALGORITHMS),
        _row("sigma", _float, DEFAULT_SIGMA, type=float, help="jitter stddev (default 0.05)"),
        _SEED,
        _row("gamma", _float, type=float, help="explicit split threshold for ccalib"),
        _row("bandwidth", _float, DEFAULT_BANDWIDTH, type=float,
             help="meanshift bandwidth for ccalib"),
        _row("fit", _path, "self",
             help="'self' to fit on the input, or a CSV path for a held-out fit set"),
        _row("use_true_labels", _bool, False, action="store_const", const=True,
             help="partition a labeled fit set by its labels instead of by gamma (ccalib)"),
    ]),
    "plot": (cmd_plot, "render two curve CSVs as an SVG with gap band", [
        _OUT_DIR,
        _row("input", lambda v: _list(v, _path, 2), nargs=2, metavar=("CURVE_A", "CURVE_B")),
        _row("title", _str, "threshold curves"),
    ]),
}
_KEYS = {row[0] for _, _, rows in _COMMANDS.values() for row in rows}


def _settings(args) -> dict:
    """Each of the subcommand's options: its flag, else its --config value,
    else its default, through its cast (None stays None: not given)."""
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise InvalidParameterError(f"--config {args.config}: {exc}") from None
        if not isinstance(config, dict):
            raise InvalidParameterError("--config file must contain a JSON object")
    for key in config:
        if key not in _KEYS:
            raise InvalidParameterError(f"unknown --config key {key!r}")
    settings = {}
    for key, cast, default, _, _ in _COMMANDS[args.command][2]:
        value = getattr(args, key)
        value = config.get(key) if value is None else value
        value = default if value is None else value
        try:
            settings[key] = None if value is None else cast(value)
        except (TypeError, ValueError, OverflowError):  # OverflowError: float(10**400)
            raise InvalidParameterError(f"invalid {key} {value!r}") from None
    return settings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorecalib",
        description="Measure threshold-integrated group bias in matching scores "
        "and remove it by post-processing calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, rows) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        for key, _, _, flag, kwargs in rows:
            p.add_argument(flag, dest=key, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    written: list[Path] = []
    code = 1  # an exception that escapes main removes the run's files too
    try:
        code = args.func(_settings(args), written)
    except SingleModeError as exc:
        print(f"error: {exc} (use --gamma to set the threshold)", file=sys.stderr)
        code = 3
    except AlgorithmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        code = 2
    finally:
        for path in written if code else ():  # no partial output
            with suppress(OSError):
                path.unlink()
    return code


if __name__ == "__main__":
    sys.exit(main())
