"""scorecalib benchmark: one workload, run as a closed loop of CLI processes.

Started through ``run.py``, which hands this module the launcher
(``launcher.py``) that runs every command.  Run from the root of a source
checkout; the package is imported from ``src/``.  The benchmark writes
seeded inputs, then runs the workload's commands one at a time, each as
a fresh ``scorecalib`` process, and repeats the pass until ``--seconds``
have gone by.  The
outputs of the first pass are checked against independent oracles
(``checks.py``) and every later pass must write the same bytes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain passes with traced passes (``traced.py``: the same commands with a
timing span around each layer's public functions) and prints per-layer
metrics, including the tracing overhead.  The last stdout line is one
JSON object; a fuller record (machine, inputs, digests, samples) goes to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import checks
import workloads
from launcher import Child, Launcher
from workloads import WORKLOADS, Table, Workload

HERE = Path(__file__).resolve().parent
ENTRY = "import sys; from scorecalib.cli import main; sys.exit(main())"  # what the console script runs
SETUP_RUNS = 3  # before the first pass and again after every pass, so slow spells average out
CHILD_TIMEOUT_S = 120.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}
PER_LAYER = (
    "dataset.parse_rows.s",
    "dataset.dataset_from_rows.s",
    "dataset.rows",
    "dataset.accessor.calls",
    "dataset.accessor.s",
    "dataset.with_scores.s",
    "calibration.fit.s",
    "calibration.calibrate_scores.s",
    "calibration.calibrate_dataset.self_s",
    "calibration.model_to_dict.s",
    "conditional.meanshift_threshold.s",
    "conditional.meanshift_threshold.distinct.s",
    "conditional.meanshift_threshold.tied.s",
    "conditional.meanshift.points",
    "conditional.meanshift.distinct_scores",
    "conditional.fit_conditional.self_s",
    "conditional.cond_calibrate_scores.self_s",
    "bias.score_bias.calls",
    "bias.score_bias.self_s",
    "bias.threshold_bias.calls",
    "bias.threshold_bias.self_s",
    "bias.group_curves.calls",
    "bias.group_curves.self_s",
    "bias.risk_estimate.s",
    "empirical.pr_curve.calls",
    "empirical.pr_curve.s",
    "empirical.auc.calls",
    "empirical.auc.s",
    "empirical.integrate_abs_difference.s",
    "empirical.build_group_scores.s",
    "empirical.StepCurve.to_csv.s",
    "empirical.StepCurve.to_csv.bytes",
    "empirical.StepCurve.from_csv.s",
    "empirical.curve.breakpoints",
    "svgplot.render_gap_svg.s",
    "svgplot.svg.bytes",
    "cli.main.self_s",
    "cli.calibrated_csv.bytes",
    "cli.report_json.bytes",
    "cli.model_json.bytes",
    "trace.wall_s",
    "trace.overhead_s",
)
CLI_FILES = {"calibrated.csv": "cli.calibrated_csv.bytes", "report.json": "cli.report_json.bytes",
             "model.json": "cli.model_json.bytes"}
SPLIT_SPAN = "conditional.meanshift_threshold"  # also reported per command


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


def digest_dir(path: Path) -> tuple[str, int]:
    """sha256 over every file's relative name and bytes, and the total byte count."""
    h, total = hashlib.sha256(), 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        total += len(data)
        h.update(f"{f.relative_to(path).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest(), total


@dataclass
class Pass:
    wall_s: float
    peak_rss_mb: float
    output_bytes: int
    rcs: list[int]
    digests: list[str]
    command_walls: list[float]
    layers: dict[str, float] = field(default_factory=dict)


def span_stats(spans: list[list]) -> dict[str, Counter]:
    """Per span name: calls, inclusive time (outermost spans only) and self time."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, Counter] = defaultdict(Counter)
    for i, (name, start, end, parent) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += end - start - covered[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            st["s"] += end - start
    return stats


def run_pass(wl: Workload, tables: dict[str, Table], pass_dir: Path, launcher: Launcher, env: dict,
             log: Path, traced: bool = False, discard: bool = False) -> Pass:
    pass_dir.mkdir(parents=True)
    children, digests, output_bytes = [], [], 0
    stats: dict[str, Counter] = defaultdict(Counter)
    counters: Counter = Counter()
    for cmd in wl.commands:
        args = workloads.argv(cmd, tables, pass_dir)
        if traced:
            spans_file = pass_dir.with_name(f"{pass_dir.name}-{cmd.name}.spans.json")
            argv = [sys.executable, str(HERE / "traced.py"), str(spans_file), *args]
        else:
            argv = [sys.executable, "-c", ENTRY, *args]
        children.append(launcher.run(argv, env, log, CHILD_TIMEOUT_S))
        out = pass_dir / cmd.name
        digest, size = digest_dir(out)
        digests.append(digest)
        output_bytes += size
        if traced and spans_file.is_file():
            trace = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
            for name, st in span_stats(trace["spans"]).items():
                stats[name].update(st)
                if name == SPLIT_SPAN:
                    stats[f"{name}.{cmd.name}"].update(st)
            counters.update(trace["counters"])
            for file_name, metric in CLI_FILES.items():
                if (out / file_name).is_file():
                    counters[metric] += (out / file_name).stat().st_size
    if discard:
        shutil.rmtree(pass_dir)
    walls = [c.wall_s for c in children]
    result = Pass(sum(walls), max(c.peak_rss_mb for c in children), output_bytes,
                  [c.rc for c in children], digests, walls)
    if traced:
        for name in PER_LAYER:
            base, _, stat = name.rpartition(".")
            result.layers[name] = counters[name] if name in counters else stats.get(base, Counter())[stat]
    return result


def judge(wl: Workload, tables: dict[str, Table], ref_dir: Path, passes: list[Pass]):
    """Check the reference pass's outputs; a command fails in a pass if it
    exited non-zero, wrote other bytes than the reference, or the
    reference outputs failed a check.  Returns (attempted, failed, problems)."""
    problems = [checks.check(cmd, ref_dir, tables) for cmd in wl.commands]
    ref = [digest_dir(ref_dir / cmd.name)[0] for cmd in wl.commands]
    attempted = failed = 0
    for p in passes:
        for j, cmd in enumerate(wl.commands):
            attempted += 1
            if p.rcs[j] != 0 or p.digests[j] != ref[j] or problems[j]:
                failed += 1
    return attempted, failed, [msg for found in problems for msg in found]


def child_env(root: Path) -> dict:
    """Children import the checkout's sources and run BLAS single-threaded.

    Bytecode caching is left on, as for an installed command, so the
    package is compiled once per checkout rather than at every start.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{k: "1" for k in THREAD_ENV})
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def machine_record(env: dict) -> dict:
    record = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "ram_gb": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "child_env": {k: env.get(k) for k in (*THREAD_ENV, "PYTHONDONTWRITEBYTECODE")},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            record["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                record["cpu_model"],
            )
        with open("/proc/meminfo", encoding="utf-8") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
            record["ram_gb"] = round(kb / 2**20, 2)
    except (OSError, StopIteration, ValueError):
        pass
    return record


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool, launcher: Launcher,
                 scale: float = 1.0, work: Path | None = None) -> dict:
    """Run one workload and return its result record (see ``main``)."""
    wl = WORKLOADS[name]
    work = work or root / ".perfbench_work" / f"{name}-seed{seed}-trace{int(trace)}"
    if work.exists():
        shutil.rmtree(work)
    tables = workloads.write_inputs(wl, seed, work / "inputs", scale)
    env = child_env(root)
    log = work / "stderr.log"

    # interpreter start plus package import, paid by every invocation; the first also compiles the bytecode
    setup: list[Child] = []

    def set_up() -> None:
        argv = [sys.executable, "-c", ENTRY, "--help"]
        setup.extend(launcher.run(argv, env, log, CHILD_TIMEOUT_S) for _ in range(SETUP_RUNS))

    set_up()
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        # every pass is digested; only pass0's outputs are kept for the checks
        plain.append(run_pass(wl, tables, work / f"pass{len(plain)}", launcher, env, log, discard=bool(plain)))
        if trace:
            traced.append(run_pass(wl, tables, work / f"traced{len(traced)}", launcher, env, log, True, True))
        set_up()
        latest = plain[-1:] + traced[-1:]
        if time.perf_counter() - start >= seconds or any(rc != 0 for p in latest for rc in p.rcs):
            break

    attempted, failed, problems = judge(wl, tables, work / "pass0", plain + traced)
    attempted += len(setup)
    failed += sum(c.rc != 0 for c in setup)
    median, mean = statistics.median, statistics.fmean
    metrics = {
        # The mean pass: measured time over passes completed.  On a shared
        # host the CPU alternates between fast and slow spells that outlast a
        # pass, so the median of a run's few passes jumps between the two,
        # while the mean moves with the share of each.
        "wall_s": mean(p.wall_s for p in plain),
        "peak_rss_mb": median(p.peak_rss_mb for p in plain),
        "output_mb": median(p.output_bytes for p in plain) / 1e6,
        "setup_s": median(c.wall_s for c in setup),
        "ok_ratio": (attempted - failed) / attempted,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "samples": {"passes": len(plain), "traced_passes": len(traced), "setup_runs": len(setup)},
        "pass_wall_s": [p.wall_s for p in plain],
        # peak_rss_mb cannot read below the launcher's own peak RSS
        "launcher_peak_rss_mb": max(c.launcher_rss_mb for c in setup),
        "bench_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "command_wall_s": {c.name: [p.command_walls[j] for p in plain] for j, c in enumerate(wl.commands)},
        "output_sha256": hashlib.sha256("".join(plain[0].digests).encode()).hexdigest(),
        "inputs": {
            key: {"schema": t.schema, "rows": int(t.scores.size),
                  "distinct_scores": int(np.unique(t.scores).size), "sha256": t.sha256}
            for key, t in tables.items()
        },
        "commands": [
            " ".join(["scorecalib", *workloads.argv(c, tables, work / "pass0")]).replace(f"{work}/", "")
            for c in wl.commands
        ],
        "machine": machine_record(env),
    }
    if failed:
        record["stderr_tail"] = log.read_text(encoding="utf-8", errors="replace")[-4000:]
    if trace:
        layers = {n: median(p.layers[n] for p in traced) for n in PER_LAYER}
        layers["trace.wall_s"] = mean(p.wall_s for p in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - metrics["wall_s"]
        record["per_layer"] = layers
        record["traced_output_sha256"] = hashlib.sha256("".join(traced[0].digests).encode()).hexdigest()
    shutil.rmtree(work)
    return record


def main(argv: list[str], launcher: Launcher) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "scorecalib" / "cli.py").is_file():
        print(f"error: no scorecalib sources under {root / 'src'}", file=sys.stderr)
        return 2
    record = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace), launcher)
    results = root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    dest = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dest.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    if args.trace:
        shown = {n: (v, layer_unit(n)) for n, v in record["per_layer"].items()}
    else:
        shown = {n: (v, END_TO_END[n]) for n, v in record["metrics"].items()}
    s = record["samples"]
    print(f"{args.workload} seed {args.seed}: {s['passes']} passes, {s['traced_passes']} traced, "
          f"{s['setup_runs']} setup runs (wall times are means per pass, the rest medians)")
    print(f"  output sha256 {record['output_sha256']}")
    print(f"  peak RSS of the launcher {record['launcher_peak_rss_mb']:.1f} MB, "
          f"of this process {record['bench_peak_rss_mb']:.1f} MB")
    for key, inp in record["inputs"].items():
        print(f"  input {key}: {inp['rows']} rows, {inp['distinct_scores']} distinct scores, sha256 {inp['sha256']}")
    for msg in record["problems"]:
        print(f"  check failed: {msg}")
    for n, (v, unit) in shown.items():
        print(f"  {n:45s} {v:14.6f} {unit}")
    print(f"record: {dest.relative_to(root)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": v, "unit": unit} for n, (v, unit) in shown.items()},
    }))
    return 0
