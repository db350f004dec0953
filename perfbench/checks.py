"""Output checks against independent oracles, recomputed from the
generated inputs: scipy for the integrated gaps and AUCs, direct numpy
counts for the threshold gaps and curve CSVs, and a numpy rebuild of the
quantile barycenter from ``model.json`` for ``calibrated.csv``.

Each check returns a list of problems; an empty list means the command's
outputs are correct.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.stats import mannwhitneyu, wasserstein_distance

from workloads import Command, Table

THRESHOLD_KEYS = {"0.1", "0.5", "0.95"}  # the CLI's default --thresholds, as repr keys
STRATUM_LABEL = {"dp": None, "eo": 1, "fprgap": 0}
GROUPS = ("minority", "majority")
_TITLE = re.compile(r"<title>.* \| gap band area = ([^<]+)</title>")


def _close(got, want) -> bool:
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


def _strata(kind: str, scores, minority, labels):
    label = STRATUM_LABEL[kind]
    keep = np.ones(scores.size, dtype=bool) if label is None else labels == label
    return scores[keep & minority], scores[keep & ~minority]


def integrated_bias(kind: str, scores, minority, labels) -> float:
    """Threshold-integrated gap = W1 between the two groups' strata."""
    if kind == "eod":
        return integrated_bias("eo", scores, minority, labels) + integrated_bias(
            "fprgap", scores, minority, labels
        )
    return float(wasserstein_distance(*_strata(kind, scores, minority, labels)))


def threshold_gap(kind: str, scores, minority, labels, theta: float) -> float:
    """Gap in the share of scores >= theta between the groups' strata."""
    if kind == "eod":
        return threshold_gap("eo", scores, minority, labels, theta) + threshold_gap(
            "fprgap", scores, minority, labels, theta
        )
    a, b = _strata(kind, scores, minority, labels)
    return abs(np.count_nonzero(a >= theta) / a.size - np.count_nonzero(b >= theta) / b.size)


def auc_oracle(scores, labels) -> float:
    pos, neg = scores[labels == 1], scores[labels == 0]
    return float(mannwhitneyu(pos, neg, method="asymptotic").statistic / (pos.size * neg.size))


def _auc_by_group(scores, minority, labels) -> dict[str, float]:
    return {
        g: auc_oracle(scores[mask], labels[mask])
        for g, mask in zip(GROUPS, (minority, ~minority))
    }


def _expect(problems: list, where: str, got, want) -> None:
    if not _close(got, want):
        problems.append(f"{where}: got {got!r}, oracle {want!r}")


def _read_curve(path: Path) -> np.ndarray:
    """``theta,value`` rows of a curve CSV as an (n, 2) array."""
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    if header != "theta,value":
        raise ValueError(f"{path.name}: header {header!r}")
    return np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float).reshape(-1, 2)


def _check_curve(problems, where: str, path: Path, stratum: np.ndarray) -> None:
    """The curve must give the share of stratum scores >= theta at every
    threshold: at each distinct score, just above it, and at 0 and 1."""
    rows = _read_curve(path)
    breakpoints, values = rows[1:, 0], rows[:, 1]
    if rows[0, 0] != 0.0 or np.any(np.diff(breakpoints) <= 0):
        problems.append(f"{where}: thresholds do not start at 0 and increase")
        return
    asc = np.sort(stratum)
    probes = np.unique(np.concatenate(([0.0, 1.0], asc)))
    for side in ("left", "right"):  # at theta, then just above it
        got = values[np.searchsorted(breakpoints, probes, side=side)]
        want = (asc.size - np.searchsorted(asc, probes, side=side)) / asc.size
        wrong = np.count_nonzero(~np.isclose(got, want, rtol=0.0, atol=1e-12))
        if wrong:
            problems.append(f"{where}: {wrong} of {probes.size} thresholds ({side}) differ from the score share")


def _check_curves(problems, out: Path, metrics, t: Table, stages) -> None:
    for kind in metrics:
        for part in ("eo", "fprgap") if kind == "eod" else (kind,):
            for g, group in zip(GROUPS, (t.minority, ~t.minority)):
                label = STRATUM_LABEL[part]
                keep = group if label is None else group & (t.labels == label)
                for stage, scores in stages:
                    name = f"{part}_{g}_{stage}.csv"
                    if not (out / name).is_file():
                        problems.append(f"{out.name}: missing curve {name}")
                    else:
                        _check_curve(problems, f"{out.name}/{name}", out / name, scores[keep])


def barycenter(model: dict, scores: np.ndarray, minority: np.ndarray) -> np.ndarray:
    """Calibrated scores rebuilt from one fitted model's stored lists.

    A query with k own-group fit scores strictly above it sits at position
    p = min(n_own, k + 1) of its group's descending list; the other list is
    read at the same rank level, position ceil(p * n_other / n_own).  The
    result is alpha * a[pos_a] + (1 - alpha) * b[pos_b].
    """
    a, b = np.asarray(model["scores_a"], dtype=float), np.asarray(model["scores_b"], dtype=float)
    alpha = float(model["alpha"])
    out = np.empty(scores.size)
    for own, other, mask in ((a, b, minority), (b, a, ~minority)):
        above = np.searchsorted(-own, -scores[mask], side="left")  # own is descending
        pos_own = np.minimum(own.size, above + 1)
        pos_other = np.clip(-(-pos_own * other.size // own.size), 1, other.size)
        own_part, other_part = own[pos_own - 1], other[pos_other - 1]
        if own is a:
            out[mask] = alpha * own_part + (1.0 - alpha) * other_part
        else:
            out[mask] = alpha * other_part + (1.0 - alpha) * own_part
    return out


def _check_model(problems, where: str, model: dict, raw: np.ndarray, minority: np.ndarray) -> None:
    """Stored lists: one jittered fit score per pair of each group, sorted
    descending, within sigma (in W1) of the raw scores; alpha = minority share."""
    sigma = float(model["sigma"])
    for key, group in (("scores_a", minority), ("scores_b", ~minority)):
        stored = np.asarray(model[key], dtype=float)
        if stored.size != np.count_nonzero(group):
            problems.append(f"{where}.{key}: {stored.size} scores for {np.count_nonzero(group)} pairs")
            continue
        if np.any(np.diff(stored) > 0) or stored.min() < 0.0 or stored.max() > 1.0:
            problems.append(f"{where}.{key}: not descending within [0, 1]")
        elif wasserstein_distance(stored, raw[group]) > sigma:
            problems.append(f"{where}.{key}: farther than sigma={sigma} from the raw scores")
    _expect(problems, f"{where}.alpha", model["alpha"], np.count_nonzero(minority) / minority.size)


def _check_metric_entries(problems, prefix, entries, metrics, t: Table, after=None) -> None:
    """Before (and after) values, EOD parts and fixed-threshold gaps of each metric."""
    stages = [("before", "threshold_bias", t.scores)]
    if after is not None:
        stages.append(("after", "threshold_bias_after", after))
    for kind in metrics:
        entry = entries[kind]
        where = f"{prefix}.metrics.{kind}"
        for stage, gaps_key, scores in stages:
            _expect(problems, f"{where}.{stage}", entry[stage], integrated_bias(kind, scores, t.minority, t.labels))
            if kind == "eod":
                parts = entry["components"]
                for part, oracle_kind in (("eo", "eo"), ("fpr_gap", "fprgap")):
                    _expect(
                        problems, f"{where}.components.{part}.{stage}", parts[part][stage],
                        integrated_bias(oracle_kind, scores, t.minority, t.labels),
                    )
                _expect(problems, f"{where}.{stage} = eo + fprgap", entry[stage],
                        parts["eo"][stage] + parts["fpr_gap"][stage])
            gaps = entry[gaps_key]
            if set(gaps) != THRESHOLD_KEYS:
                problems.append(f"{where}.{gaps_key}: thresholds {sorted(gaps)}")
                continue
            for key, value in gaps.items():
                _expect(problems, f"{where}.{gaps_key}[{key}]", value,
                        threshold_gap(kind, scores, t.minority, t.labels, float(key)))
        if after is None:
            if entry["after"] is not None:
                problems.append(f"{where}.after: {entry['after']!r} without calibration")
        else:
            _expect(problems, f"{where}.risk", entry["risk"], float(np.mean(np.abs(after - t.scores))))


def _check_dataset_counts(problems, prefix, report, t: Table) -> None:
    counts = report["dataset"]
    want = {"n": t.scores.size, "n_minority": int(t.minority.sum()),
            "n_majority": int((~t.minority).sum()), "labeled": True}
    for key, value in want.items():
        if counts.get(key) != value:
            problems.append(f"{prefix}.dataset.{key}: got {counts.get(key)!r}, expected {value!r}")


def _check_groups_auc(problems, where, got, scores, t: Table) -> None:
    for g, want in _auc_by_group(scores, t.minority, t.labels).items():
        _expect(problems, f"{where}.{g}", (got or {}).get(g), want)


def check_measure(cmd: Command, out: Path, pass_dir: Path, tables: dict[str, Table]) -> list[str]:
    t = tables[cmd.input]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    _check_dataset_counts(problems, cmd.name, report, t)
    _check_metric_entries(problems, cmd.name, report["metrics"], cmd.metrics, t)
    _check_groups_auc(problems, f"{cmd.name}.auc_by_group", report["auc_by_group"], t.scores, t)
    _check_curves(problems, out, cmd.metrics, t, [("before", t.scores)])
    return problems


_ROW = re.compile(r"^([^,\n]*),([^,\n]*)(.*)$", re.M)


def _split_rows(path: Path) -> list[tuple[str, str, str]]:
    """(id, score, rest of the line) of every line of a CSV; a line
    without a comma is left out, so it shows as a changed row count."""
    return _ROW.findall(path.read_text(encoding="utf-8"))


def check_calibrate(cmd: Command, out: Path, pass_dir: Path, tables: dict[str, Table]) -> list[str]:
    t = tables[cmd.input]
    problems: list[str] = []
    rows_in, rows_out = _split_rows(t.path), _split_rows(out / "calibrated.csv")
    if len(rows_in) != len(rows_out) or rows_in[0] != rows_out[0]:
        return [f"{cmd.name}: calibrated.csv has {len(rows_out)} rows, header {rows_out[:1]}"]
    if [(i, rest) for i, _, rest in rows_in] != [(i, rest) for i, _, rest in rows_out]:
        problems.append(f"{cmd.name}: calibrated.csv changed ids, group tokens, labels or order")
    after = np.array([score for _, score, _ in rows_out[1:]], dtype=float)
    if not np.all((after >= 0.0) & (after <= 1.0)):
        problems.append(f"{cmd.name}: calibrated score outside [0, 1]")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    conditional = "ccalib" in cmd.flags
    # ccalib calibrates the two sides of gamma independently, so order holds within each side
    sides = (t.scores >= report["gamma"], t.scores < report["gamma"]) if conditional else (True,)
    for g, group in zip(GROUPS, (t.minority, ~t.minority)):
        for side in sides:
            raw, new = t.scores[group & side], after[group & side]
            if np.any(np.diff(new[np.lexsort((new, raw))]) < 0):
                problems.append(f"{cmd.name}: {g} rank order not preserved")

    _check_dataset_counts(problems, cmd.name, report, t)
    _check_metric_entries(problems, cmd.name, report["metrics"], cmd.metrics, t, after)
    _expect(problems, f"{cmd.name}.risk", report["risk"], float(np.mean(np.abs(after - t.scores))))
    _expect(problems, f"{cmd.name}.auc_before", report["auc_before"], auc_oracle(t.scores, t.labels))
    _expect(problems, f"{cmd.name}.auc_after", report["auc_after"], auc_oracle(after, t.labels))
    _check_groups_auc(problems, f"{cmd.name}.auc_by_group_before", report["auc_by_group_before"], t.scores, t)
    _check_groups_auc(problems, f"{cmd.name}.auc_by_group_after", report["auc_by_group_after"], after, t)
    _check_curves(problems, out, cmd.metrics, t, [("before", t.scores), ("after", after)])

    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    where = f"{cmd.name}/model.json"
    if conditional:
        fitted = [(model[k], side) for k, side in zip(("matched", "unmatched"), (t.scores >= model["gamma"],
                                                                                 t.scores < model["gamma"]))]
    else:
        fitted = [(model, np.ones(t.scores.size, dtype=bool))]
    rebuilt = np.empty(t.scores.size)
    for part, side in fitted:
        _check_model(problems, where, part, t.scores[side], t.minority[side])
        rebuilt[side] = barycenter(part, t.scores[side], t.minority[side])
    wrong = np.count_nonzero(~np.isclose(after, rebuilt, rtol=0.0, atol=1e-12))
    if wrong:
        problems.append(f"{cmd.name}: {wrong} calibrated scores differ from the barycenter of {where}")
    if not conditional:
        if report["gamma"] is not None:
            problems.append(f"{cmd.name}.gamma: {report['gamma']!r} for a plain calibration")
        return problems
    gamma = report["gamma"]
    _expect(problems, f"{cmd.name}.gamma = model.json gamma", gamma, model.get("gamma"))
    if "--gamma" in cmd.flags:
        _expect(problems, f"{cmd.name}.gamma = --gamma", gamma, float(cmd.flags[cmd.flags.index("--gamma") + 1]))
    lo, hi = (float(np.median(t.scores[t.labels == y])) for y in (0, 1))
    if not (isinstance(gamma, float) and lo < gamma < hi):
        problems.append(f"{cmd.name}.gamma: {gamma!r} not between label medians {lo!r} and {hi!r}")
    return problems


def check_plot(cmd: Command, out: Path, pass_dir: Path, tables: dict[str, Table]) -> list[str]:
    match = _TITLE.search((out / "curves.svg").read_text(encoding="utf-8"))
    if match is None:
        return [f"{cmd.name}: curves.svg has no gap band area in its <title>"]
    report = json.loads((pass_dir / "measure" / "report.json").read_text(encoding="utf-8"))
    dp = report["metrics"]["dp"]["before"]
    area = float(match.group(1))
    # the title prints 9 decimals
    if not (isinstance(dp, float) and abs(area - dp) <= 1e-9):
        return [f"{cmd.name}: title area {area!r} does not match dp.before {dp!r}"]
    return []


CHECKS = {"measure": check_measure, "calibrate": check_calibrate, "plot": check_plot}


def check(cmd: Command, pass_dir: Path, tables: dict[str, Table]) -> list[str]:
    """Problems found in one command's outputs under ``pass_dir``."""
    try:
        return CHECKS[cmd.kind](cmd, pass_dir / cmd.name, pass_dir, tables)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{cmd.name}: unreadable output ({type(exc).__name__}: {exc})"]
