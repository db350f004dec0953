"""Run one scorecalib command in-process with a timing span around every
call into each layer's public functions.

    python traced.py SPANS.json CLI-ARGS...

The package is not changed: each wrapper replaces the function in every
``scorecalib`` module namespace that holds it (``cli`` imports names
directly, so ``score_bias`` lives in both ``scorecalib.cli`` and
``scorecalib.bias``), and methods are wrapped on their class.  Spans
``[name, start, end, parent]`` and counters stay in memory and are
written to SPANS.json when the command returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

import numpy as np


def _curve_size(args, kwargs, result, counters):
    counters["empirical.curve.breakpoints"] += int(result.breakpoints.size)


def _rows(args, kwargs, result, counters):
    counters["dataset.rows"] += len(result)


def _csv_bytes(args, kwargs, result, counters):
    dest = args[1] if len(args) > 1 else kwargs.get("dest")
    if isinstance(dest, (str, os.PathLike)):
        counters["empirical.StepCurve.to_csv.bytes"] += os.path.getsize(dest)


def _svg_bytes(args, kwargs, result, counters):
    counters["svgplot.svg.bytes"] += len(result.encode("utf-8"))


def _meanshift_input(args, kwargs, result, counters):
    scores = np.asarray(args[0] if args else kwargs["scores"], dtype=float)
    counters["conditional.meanshift.points"] += int(scores.size)
    counters["conditional.meanshift.distinct_scores"] += int(np.unique(scores).size)


ACCESSORS = ("scores", "groups", "labels", "group_scores", "stratum_scores", "count", "subset")

# (module, attribute, span name, counter hook)
TARGETS = [
    ("scorecalib.dataset", "parse_rows", "dataset.parse_rows", _rows),
    ("scorecalib.dataset", "dataset_from_rows", "dataset.dataset_from_rows", None),
    *(("scorecalib.dataset", f"ScoreDataset.{m}", "dataset.accessor", None) for m in ACCESSORS),
    ("scorecalib.dataset", "ScoreDataset.with_scores", "dataset.with_scores", None),
    ("scorecalib.calibration", "fit", "calibration.fit", None),
    ("scorecalib.calibration", "calibrate_scores", "calibration.calibrate_scores", None),
    ("scorecalib.calibration", "calibrate_dataset", "calibration.calibrate_dataset", None),
    ("scorecalib.calibration", "model_to_dict", "calibration.model_to_dict", None),
    ("scorecalib.conditional", "meanshift_threshold", "conditional.meanshift_threshold", _meanshift_input),
    ("scorecalib.conditional", "fit_conditional", "conditional.fit_conditional", None),
    ("scorecalib.conditional", "cond_calibrate_scores", "conditional.cond_calibrate_scores", None),
    ("scorecalib.conditional", "cond_calibrate_dataset", "conditional.cond_calibrate_dataset", None),
    ("scorecalib.conditional", "model_to_dict_conditional", "conditional.model_to_dict_conditional", None),
    ("scorecalib.bias", "score_bias", "bias.score_bias", None),
    ("scorecalib.bias", "threshold_bias", "bias.threshold_bias", None),
    ("scorecalib.bias", "group_curves", "bias.group_curves", None),
    ("scorecalib.bias", "risk_estimate", "bias.risk_estimate", None),
    ("scorecalib.empirical", "pr_curve", "empirical.pr_curve", _curve_size),
    ("scorecalib.empirical", "auc", "empirical.auc", None),
    ("scorecalib.empirical", "integrate_abs_difference", "empirical.integrate_abs_difference", None),
    ("scorecalib.empirical", "build_group_scores", "empirical.build_group_scores", None),
    ("scorecalib.empirical", "StepCurve.to_csv", "empirical.StepCurve.to_csv", _csv_bytes),
    ("scorecalib.empirical", "StepCurve.from_csv", "empirical.StepCurve.from_csv", None),
    ("scorecalib.svgplot", "render_gap_svg", "svgplot.render_gap_svg", _svg_bytes),
    ("scorecalib.cli", "main", "cli.main", None),
]


class Tracer:
    """Spans and counters of one process; wrappers append to them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(args, kwargs, result, counters)
            return result

        return traced

    def install(self) -> None:
        for module_name, _, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items() if n == "scorecalib" or n.startswith("scorecalib.")]
        for module_name, attr, name, hook in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self.wrap(name, raw.__func__, hook)))
                else:
                    setattr(cls, method, self.wrap(name, raw, hook))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, hook)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    setattr(m, key, wrapped)


def main() -> int:
    dest, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    rc = sys.modules["scorecalib.cli"].main(argv)
    with open(dest, "w", encoding="utf-8") as f:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
