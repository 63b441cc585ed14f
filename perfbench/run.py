"""Benchmark for the brt CLI: one workload's command sequence, timed and checked.

Run from the root of a brt checkout:

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 60 --trace 0

With ``--trace 0`` each command of the workload runs as a child process,
one at a time, and the whole sequence repeats until ``--seconds`` is used
up; the end-to-end metrics are medians over the repeats. With
``--trace 1`` the sequence runs in this process through ``brt.cli.main``,
once plainly and once with span wrappers around every layer's public
functions, and the per-layer metrics come from the traced pass.

Every run checks the outputs (see check.py). Lines before the last one are
for people: each metric with its unit and sample count, and a run record
with the machine, versions, input properties and output digests. The last
line is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import check
import spans
from workloads import WORKLOADS, Workload, prepare_table

SETUP_WARMUP = 4  # --help samples before the first repeat; one more precedes each repeat
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORK_DIR = ".perfbench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "report_s": "s",
    "pdp_all_s": "s",
    "surface_s": "s",
    "pipeline_s": "s",
    "train_rss_mb": "MB",
    "report_rss_mb": "MB",
    "pdp_all_rss_mb": "MB",
    "surface_rss_mb": "MB",
    "model_bytes": "bytes",
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts in every child
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    return env


def run_child(argv: list[str], env: dict, log: Path, deadline: float) -> tuple[float, float, int]:
    """Run ``python -m brt argv``; return (wall s, peak RSS MB, exit code).
    The child is killed if it outlives the deadline."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        return 0.0, 0.0, -1
    with open(log, "ab") as fh:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "brt", *argv], env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def check_rep(checks: check.Checks, workload: Workload, labels: list[str], out: Path, feature_names) -> None:
    for label in labels:
        missing = [n for n in check.expected_outputs(label, feature_names, workload.surface) if not (out / n).is_file()]
        checks.record(f"{label} outputs present", not missing, f"missing {missing}")


def full_checks(checks: check.Checks, workload: Workload, out: Path, table: Path, seed: int, trees) -> dict:
    """Reference comparison (default seed) and invariants; returns input properties."""
    from brt import load_model, load_model_table

    try:
        if seed == check.REFERENCE_SEED and trees is None:
            ref = check.load_reference(workload.name)
            if ref is not None:
                check.check_reference(checks, out, ref)
        model = load_model(out / "model.brtm")
        data = load_model_table(table)
        check.check_invariants(checks, out, model, data)
    except (OSError, ValueError, IndexError) as e:  # a missing or malformed output
        checks.record("outputs readable", False, f"{type(e).__name__}: {e}")
        return {}
    return check.input_properties(model, data)


def median_summary(values: list[float]) -> str:
    if len(values) == 1:
        return "1 sample"
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def timed_run(root, workload, table, seed, seconds, trees, work, checks, record) -> dict:
    env = child_env(root)
    deadline = perf_counter() + workload.time_limit_s
    feature_names = check.feature_names(table)

    setup = []

    def sample_setup():
        wall, _, rc = run_child(["--help"], env, work / "help.log", deadline)
        if checks.record("--help exit code", rc == 0, f"exit {rc}"):
            setup.append(wall)

    run_child(["--help"], env, work / "help.log", deadline)  # fills the bytecode cache
    for _ in range(SETUP_WARMUP):
        sample_setup()

    samples: dict[str, list[float]] = {}
    first = work / "rep0"
    start = perf_counter()
    rep = 0
    while True:
        sample_setup()
        out = work / f"rep{rep}"
        labels, pipeline, ok = [], 0.0, True
        for label, argv in workload.commands(table, out, seed, trees):
            wall, rss, rc = run_child(argv, env, work / f"{label}.log", deadline)
            ok = checks.record(f"{label} exit code", rc == 0, f"exit {rc}, see {label}.log")
            if not ok:
                break
            labels.append(label)
            samples.setdefault(f"{label}_s", []).append(wall)
            samples.setdefault(f"{label}_rss_mb", []).append(rss)
            pipeline += wall
        check_rep(checks, workload, labels, out, feature_names)
        if not ok:
            break
        samples.setdefault("pipeline_s", []).append(pipeline)
        if rep > 0:
            checks.record("rerun byte-identical", check.digests(out) == check.digests(first))
            shutil.rmtree(out)
        rep += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rep > seconds:
            break

    if (first / "model.brtm").is_file():
        record["outputs_sha256"] = check.digests(first)
        record["properties"] = full_checks(checks, workload, first, table, seed, trees)
        samples["model_bytes"] = [float((first / "model.brtm").stat().st_size)]
    metrics = {name: values for name, values in {"setup_s": setup, **samples}.items() if values}
    for name in END_TO_END_UNITS:
        if name in metrics:
            values = metrics[name]
            print(f"{name:16s} {statistics.median(values):12.6g} {END_TO_END_UNITS[name]:5s} ({median_summary(values)})")
    print(f"{'failed_frac':16s} {checks.failed / max(checks.attempted, 1):12.6g} ratio ({checks.failed} of {checks.attempted} operations)")
    return {
        name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]} for name, values in metrics.items()
    }


def run_in_process(argv: list[str], log: Path) -> int:
    import brt.cli

    with open(log, "a", encoding="utf-8") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
        try:
            return brt.cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            return e.code if isinstance(e.code, int) else 2
        except Exception as e:  # the benchmark must report, not crash, when a command raises
            print(f"{type(e).__name__}: {e}", file=fh)
            return 1


def traced_run(root, workload, table, seed, seconds, trees, work, checks, record) -> dict:
    import brt.cli  # noqa: F401  (import before the plain pass is timed)

    feature_names = check.feature_names(table)
    walls = {}
    outs = {}
    tracer = spans.Tracer()
    for mode in ("plain", "traced"):
        out = work / mode
        labels = []
        with tracer if mode == "traced" else contextlib.nullcontext():
            start = perf_counter()
            for label, argv in workload.commands(table, out, seed, trees):
                rc = run_in_process(argv, work / f"{mode}.log")
                if not checks.record(f"{mode} {label} exit code", rc == 0, f"exit {rc}, see {mode}.log"):
                    break
                labels.append(label)
            walls[mode] = perf_counter() - start
        check_rep(checks, workload, labels, out, feature_names)
        outs[mode] = out
    props = {}
    if (outs["traced"] / "model.brtm").is_file():
        record["outputs_sha256"] = check.digests(outs["traced"])
        props = record["properties"] = full_checks(checks, workload, outs["traced"], table, seed, trees)
        checks.record("tracing leaves outputs unchanged", check.digests(outs["plain"]) == record["outputs_sha256"])
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    for name, begin, end, parent in tracer.spans:
        print(f"span {name} parent={parent} start={begin - origin:.4f}s end={end - origin:.4f}s")
    print(f"{'span':28s} {'parent':28s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for (name, parent), (count, total, own) in sorted(tracer.agg.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:28s} {parent or '-':28s} {count:9d} {total:10.4f} {own:10.4f}")
    metrics, absent = layer_metrics(tracer, props, walls["traced"] / walls["plain"] - 1.0)
    if absent:
        print("absent (wrapped name no longer exists): " + ", ".join(absent))
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    return metrics


# Per-layer metrics: (name, unit, span the metric needs, how to read it).
LAYER_METRICS = (
    ("rng.sample_s", "s", "rng.sample", "total"),
    ("rng.draws", "count", "rng.sample", "counter"),
    ("tree.fit_s", "s", "tree.fit", "total"),
    ("tree.fit_calls", "count", "tree.fit", "calls"),
    ("tree.route_s", "s", "tree.route", "total"),
    ("tree.route_calls", "count", "tree.route", "calls"),
    ("tree.rows_routed", "count", "tree.route", "counter"),
    ("tree.split_improvements_s", "s", "tree.split_improvements", "total"),
    ("tree.distinct_structures", "count", None, "distinct_structures"),
    ("tree.structure_reuse", "stages/structure", None, "structure_reuse"),
    ("boosting.fit_s", "s", "boosting.fit", "total"),
    ("boosting.fit_self_s", "s", "boosting.fit", "self"),
    ("boosting.line_search_s", "s", "boosting.line_search", "total"),
    ("boosting.predict_batch_s", "s", "boosting.predict_batch", "total"),
    ("boosting.predict_calls", "count", "boosting.predict_batch", "calls"),
    ("boosting.tree_evals", "count", "boosting.predict_batch", "counter"),
    ("boosting.staged_metric_s", "s", "boosting.staged_metric", "total"),
    ("boosting.stages", "count", None, "stages"),
    ("boosting.degenerate_stages", "count", "boosting.fit", "counter"),
    ("boosting.max_gamma_dev", "ratio", None, "max_gamma_dev"),
    ("model_io.save_s", "s", "model_io.save", "total"),
    ("model_io.load_s", "s", "model_io.load", "total"),
    ("model_io.load_calls", "count", "model_io.load", "calls"),
    ("model_io.bytes", "bytes", "model_io.save", "counter"),
    ("interpret.interaction_s", "s", "interpret.interaction", "total"),
    ("interpret.influence_s", "s", "interpret.influence", "total"),
    ("interpret.pd_1d_s", "s", "interpret.pd_1d", "total"),
    ("interpret.pd_2d_s", "s", "interpret.pd_2d", "total"),
    ("interpret.pd_sweeps", "count", "interpret.pd_sweep", "calls"),
    ("interpret.pairs_sharing_tree", "count", None, "pairs_sharing_tree"),
    ("interpret.pairs_total", "count", None, "pairs_total"),
    ("interpret.pair_useful_frac", "ratio", None, "pair_useful_frac"),
    ("data.load_table_s", "s", "data.load_table", "total"),
    ("data.nan_cells", "count", None, "nan_cells"),
    ("metrics.fit_report_s", "s", "metrics.fit_report", "total"),
    ("svg.write_s", "s", "svg.write", "total"),
    ("svg.bytes_written", "bytes", "svg.write", "counter"),
    ("cli.self_s", "s", "cli.main", "self"),
    ("trace.overhead_frac", "ratio", None, "overhead"),
)


def layer_metrics(tracer: spans.Tracer, props: dict, overhead: float) -> tuple[dict, list[str]]:
    derived = dict(props)
    if props:
        derived["structure_reuse"] = props["stages"] / max(props["distinct_structures"], 1)
        derived["pair_useful_frac"] = props["pairs_sharing_tree"] / props["pairs_total"]
    derived["overhead"] = overhead
    metrics, absent = {}, []
    for name, unit, span, how in LAYER_METRICS:
        if span is None:
            value = derived.get(how)
        elif span not in tracer.installed:
            value = None
        elif how == "total":
            value = tracer.total(span)
        elif how == "self":
            value = tracer.self_time(span)
        elif how == "calls":
            value = tracer.calls(span)
        else:
            value = tracer.counts[name]
        if value is None:
            absent.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(root: Path, workload: Workload, seed: int, trees, trace: int) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "trees_override": trees,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "loadavg_before": os.getloadavg(),
    }


def run(root: Path, workload: Workload, seed: int, seconds: float, trace: int, trees: int | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, run record)."""
    if not (root / "src" / "brt" / "__init__.py").is_file():
        raise FileNotFoundError(f"no brt sources under {root / 'src'}; run from the root of a brt checkout")
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    record = run_record(root, workload, seed, trees, trace)
    checks = check.Checks()
    work = root / WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        start = perf_counter()
        table = root / prepare_table(workload, seed, work)
        record["table_sha256"] = check.sha256(table)
        record["input_setup_s"] = perf_counter() - start
        body = traced_run if trace else timed_run
        metrics = body(root, workload, table, seed, seconds, trees, work, checks, record)
        import numpy

        record["numpy"] = numpy.__version__
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()
    result = {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement window per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, record = run(Path.cwd(), WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except FileNotFoundError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print("run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
