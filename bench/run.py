"""The repository benchmark: Fig. 8 matrix, multi-tenant serve, sweeps.

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--smoke] [--record-reference]

Each pass runs in a fresh worker process (``bench/worker.py``), one pass
at a time, until ``--seconds`` have elapsed; every end-to-end metric is
the median over those passes.  Set-up time is measured from worker spawn
to the worker's ``ready`` line.  Simulated outputs are checked against
``bench/reference/<workload>.seed<N>.json`` where one exists, otherwise
against the run's first pass.  ``--trace 1`` adds one traced pass per
workload and reports the per-layer metrics instead.

Raw per-pass values go to ``bench/out/results.json``, spans to
``bench/out/trace.<workload>.json`` and per-layer totals to
``bench/out/layers.<workload>.json``.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 1
when an output is wrong, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
SRC_DIR = os.path.join(ROOT, "src")

#: A pass that takes longer than this is killed and the run fails.
PASS_TIMEOUT_S = 150.0

#: Units of the layer metrics other than ``<layer>.self_s`` (seconds).
LAYER_UNITS = {
    "simulation.events": "count",
    "engine.tasks_launched": "count",
    "engine.stages_completed": "count",
    "engine.control_messages": "count",
    "storage.bytes_read": "B",
    "storage.bytes_written": "B",
    "storage.busy_s": "sim_s",
    "network.bytes": "B",
    "adaptive.mapek_intervals": "count",
    "cluster.jobs_completed": "count",
    "cluster.jobs_rejected": "count",
    "cluster.jobs_retried": "count",
    "cluster.jobs_preempted": "count",
    "harness.oracle_runs": "count",
    "harness.oracle_dedup": "jobs/run",
    "observability.bytes_written": "B",
    "workloads.generate_s": "s",
    "harness.oracle_s": "s",
    "cluster.sched_s": "s",
    "cluster.us_per_job": "us",
    "cluster.scaling_ratio": "ratio",
    "harness.sweep_s": "s",
    "harness.whatif_s": "s",
    "harness.sweep_speedup": "ratio",
    "observability.overhead_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def unit_of(name: str) -> str:
    return "s" if name.endswith(".self_s") else LAYER_UNITS[name]


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def quartiles(values: List[float]) -> Dict[str, Any]:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# -- one pass -----------------------------------------------------------------


class PassFailed(RuntimeError):
    """A worker crashed, hung or printed no result."""


def run_pass(workload: str, seed: int, size: str, pass_id: int,
             traced: bool) -> Dict[str, Any]:
    env = dict(os.environ)
    env.pop("REPRO_CORE", None)  # measure the program's default kernel
    env["PYTHONPATH"] = SRC_DIR
    command = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload,
               "--seed", str(seed), "--size", size,
               "--pass-id", str(pass_id)]
    if traced:
        command.append("--traced")
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise PassFailed(
            f"{workload} pass {pass_id} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    wall = result["wall_s"]
    return {
        "runs_per_min": 60.0 * result["runs"] / wall,
        "jobs_per_s": result["jobs"] / wall,
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


# -- correctness --------------------------------------------------------------


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.seed{seed}.json")


def load_reference(workload: str, seed: int,
                   size: str) -> Optional[Dict[str, str]]:
    try:
        with open(reference_path(workload, seed), encoding="utf-8") as f:
            return json.load(f).get(size)
    except FileNotFoundError:
        return None


def record_reference(workload: str, seed: int, size: str,
                     digests: Dict[str, str]) -> None:
    path = reference_path(workload, seed)
    doc: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    doc[size] = digests
    write_json(path, doc)


def check(result: Dict[str, Any], expected: Dict[str, str]) -> List[str]:
    """The pass's items, each with "" when correct or why it is wrong."""
    got = result["digests"]
    verdicts = []
    for item in sorted(set(expected) | set(got)):
        if got.get(item) != expected.get(item):
            verdicts.append(f"{item}: digest differs from the reference")
        elif item in result["errors"]:
            verdicts.append(f"{item}: {'; '.join(result['errors'][item])}")
        else:
            verdicts.append("")
    return verdicts


# -- per-layer metrics --------------------------------------------------------


def span_totals(result: Dict[str, Any]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span in result["spans"]:
        totals[span["name"]] = (totals.get(span["name"], 0.0)
                                + span["end"] - span["start"])
    return totals


def span_self_by_layer(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span duration minus the time its child spans cover, per layer."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    totals: Dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
    return dict(sorted(totals.items()))


def layer_metrics(workload: str, passes: List[Dict[str, Any]],
                  traced: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric that applies to ``workload``."""
    metrics: Dict[str, float] = {
        f"{layer}.self_s": value for layer, value in traced["self_s"].items()
    }
    metrics.update(traced["counts"])
    wall = statistics.median(p["wall_s"] for p in passes)
    metrics["trace.overhead_frac"] = traced["wall_s"] / wall - 1.0
    spans = [span_totals(p) for p in passes]

    def median_span(name: str) -> float:
        return statistics.median(s.get(name, 0.0) for s in spans)

    extras = traced["extras"]
    if workload.startswith("serve"):
        jobs = passes[0]["jobs"]
        us_per_job = 1e6 * median_span("ClusterScheduler.run") / jobs
        quarter = 1e6 * extras["quarter_sched_s"] / extras["quarter_jobs"]
        metrics.update({
            "workloads.generate_s": median_span("ArrivalPlan.generate"),
            "harness.oracle_s": median_span("compute_runtimes"),
            "cluster.sched_s": median_span("ClusterScheduler.run"),
            "cluster.us_per_job": us_per_job,
            "cluster.scaling_ratio": us_per_job / quarter,
            "harness.oracle_dedup": jobs / metrics["harness.oracle_runs"],
        })
    if workload.startswith("sweep"):
        metrics.update({
            "harness.sweep_s": median_span("static_sweep"),
            "harness.whatif_s": median_span("run_whatif"),
            "harness.sweep_speedup": (extras["sequential_sweep_s"]
                                      / extras["pool_sweep_s"]),
            "observability.overhead_frac": (median_span("static_sweep")
                                            / extras["pool_sweep_s"] - 1.0),
        })
    return dict(sorted(metrics.items()))


# -- a whole workload ---------------------------------------------------------


def run_workload_passes(workload: str, args: argparse.Namespace,
                        size: str) -> Dict[str, Any]:
    passes: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while not passes or (size == "full"
                         and time.perf_counter() - start < args.seconds):
        passes.append(run_pass(workload, args.seed, size, len(passes), False))
    traced = (run_pass(workload, args.seed, size, len(passes), True)
              if args.trace else None)

    if args.record_reference:
        record_reference(workload, args.seed, size, passes[0]["digests"])
    expected = load_reference(workload, args.seed, size)
    checked = passes + ([traced] if traced else [])
    if expected is None:
        expected = passes[0]["digests"]
    verdicts = [verdict for p in checked for verdict in check(p, expected)]
    problems = sorted({verdict for verdict in verdicts if verdict})
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    attempted = len(verdicts)
    failed = sum(1 for verdict in verdicts if verdict)
    if len({p["inputs_sha256"] for p in checked}) != 1:
        raise PassFailed(f"{workload}: passes generated different inputs")

    per_pass = [end_to_end(p) for p in passes]
    summary = {
        name: quartiles([values[name] for values in per_pass])
        for name in per_pass[0]
    }
    summary["error_rate"] = quartiles([failed / attempted])
    outcome: Dict[str, Any] = {
        "inputs_sha256": passes[0]["inputs_sha256"],
        "attempted": attempted,
        "failed": failed,
        "metrics": summary,
        "passes": [
            {"pass": p["pass"], "metrics": values, "wall_s": p["wall_s"],
             "runs": p["runs"], "jobs": p["jobs"], "spans": span_totals(p),
             "digests": p["digests"], "errors": p["errors"]}
            for p, values in zip(passes, per_pass)
        ],
    }
    spans = [span for p in checked for span in p["spans"]]
    write_json(os.path.join(OUT_DIR, f"trace.{workload}.json"), spans)
    if traced:
        outcome["layers"] = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in layer_metrics(workload, passes, traced).items()
        }
        write_json(os.path.join(OUT_DIR, f"layers.{workload}.json"), {
            "workload": workload,
            "seed": args.seed,
            "metrics": outcome["layers"],
            "span_self_s": span_self_by_layer(traced["spans"]),
        })
    return outcome


def write_json(path: str, doc: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def provenance(args: argparse.Namespace, size: str) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy_version, "machine": platform.machine(),
                 "system": platform.system()},
        "seed": args.seed,
        "size": size,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def print_table(workload: str, outcome: Dict[str, Any],
                spec: Dict[str, Any]) -> None:
    print(f"== {workload}  (inputs {outcome['inputs_sha256'][:12]}, "
          f"{outcome['metrics']['setup_s']['n']} passes)")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["error_rate"] = "ratio"
    for name, unit in units.items():
        stats = outcome["metrics"][name]
        print(f"  {name:<32} {stats['median']:>14.6g} {unit:<8} "
              f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']}]")
    for name, metric in outcome.get("layers", {}).items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measure each workload for this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add a traced pass per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/20 of the work, one pass")
    parser.add_argument("--record-reference", action="store_true",
                        help="write the first pass's digests as reference")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: no library source at {SRC_DIR}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"

    results = {**provenance(args, size), "workloads": {}}
    for workload in ([args.workload] if args.workload else names):
        try:
            outcome = run_workload_passes(workload, args, size)
        except PassFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results["workloads"][workload] = outcome
        print_table(workload, outcome, spec)
    write_json(os.path.join(OUT_DIR, "results.json"), results)

    outcomes = results["workloads"].values()
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]

    def metrics_of(outcome: Dict[str, Any]) -> Dict[str, Any]:
        if args.trace:
            # A layer the workload never enters did no work there.
            return {name: outcome["layers"].get(name, {"value": 0,
                                                       "unit": unit})
                    for name, unit in wanted}
        return {name: {"value": outcome["metrics"][name]["median"],
                       "unit": unit} for name, unit in wanted}

    if args.workload:
        metrics = metrics_of(results["workloads"][args.workload])
    else:
        metrics = {name: metrics_of(o)
                   for name, o in results["workloads"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
