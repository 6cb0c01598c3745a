"""Command-line interface: run workloads and comparisons without writing code.

Examples::

    python -m repro run terasort --policy dynamic --scale 0.25
    python -m repro run terasort --policy dynamic --events out.jsonl
    python -m repro run terasort --faults examples/faults/node-loss.json
    python -m repro faults generate node-loss --at 60 --out plan.json
    python -m repro compare pagerank --scale 0.5 --parallel 2
    python -m repro sweep terasort --device ssd --trace sweep.json
    python -m repro sweep terasort --scale 0.1 --parallel 0   # one per core
    python -m repro history out.jsonl
    python -m repro list

Every run subcommand accepts ``--events PATH`` (Spark-style JSONL event log,
replayable with ``repro history``) and ``--trace PATH`` (Chrome ``trace_event``
JSON, loadable in Perfetto / ``chrome://tracing``).  Subcommands that launch
several runs (``sweep``, ``compare``) write one file per run with a suffix
before the extension (``sweep.t8.json``, ``out.dynamic.jsonl``).  ``--json``
switches the report from tables to a machine-readable JSON document.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

from repro.atomicio import atomic_write_json
from repro.faults.plan import (
    CANNED_CHAOS,
    CANNED_PLANS,
    FaultPlan,
    FaultPlanError,
    ProtectionConfig,
)
from repro.harness.fork import ForkBarrierNotReached, ForkUnavailableError
from repro.harness.parallel import (
    QuarantinedConfigError,
    RunConfig,
    SweepInterrupted,
    build_run_tracer,
    map_runs,
    resolve_parallel,
    suffix_path,
)
from repro.harness.report import render_table
from repro.harness.runner import (
    derive_bestfit,
    finish_trace,
    run_workload,
)
from repro.observability.history import load_events, reconstruct
from repro.workloads.arrivals import (
    CANNED_PLANS as CANNED_ARRIVALS,
    ArrivalPlan,
    ArrivalPlanError,
)
from repro.workloads.catalog import WORKLOADS, workload_names

POLICY_CHOICES = ("default", "dynamic", "static", "fixed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Self-adaptive Executors for Big Data "
            "Processing' (Middleware 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload under one policy")
    _common_args(run)
    run.add_argument("--policy", choices=POLICY_CHOICES, default="default")
    run.add_argument("--threads", type=_positive_int, default=8,
                     help="thread count for static/fixed policies")
    run.add_argument("--validate", action="store_true",
                     help="check engine invariants continuously during the "
                          "run (exit 1 on any violation)")

    compare = sub.add_parser(
        "compare", help="default vs static BestFit vs dynamic (Fig. 8)"
    )
    _common_args(compare)
    _parallel_arg(compare)

    sweep = sub.add_parser(
        "sweep", help="static solution at each thread count (Fig. 2/4/10)"
    )
    _common_args(sweep)
    _parallel_arg(sweep)
    sweep.add_argument("--journal", metavar="PATH", default=None,
                       help="journal each finished point to PATH "
                            "(crash-safe; see --resume)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip points already journaled under --journal")
    sweep.add_argument("--run-timeout", type=_positive_float, default=None,
                       metavar="SECS",
                       help="watchdog: kill and retry a point that runs "
                            "longer than SECS wall-clock seconds")
    sweep.add_argument("--max-attempts", type=_positive_int, default=3,
                       metavar="N",
                       help="attempts per point before quarantine "
                            "(default 3; needs --journal to persist)")
    sweep.add_argument("--stop-after", type=_positive_int, default=None,
                       metavar="N",
                       help="stop (exit 3) after N newly computed points; "
                            "for testing crash/resume behaviour")

    faults = sub.add_parser(
        "faults", help="fault-plan utilities (see FAULTS.md)"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    generate = faults_sub.add_parser(
        "generate", help="write a canned fault plan as JSON"
    )
    generate.add_argument("kind", choices=sorted(CANNED_PLANS))
    generate.add_argument("--out", metavar="PATH", default=None,
                          help="output path (default: stdout)")
    generate.add_argument("--at", type=float, default=None,
                          help="fault time in simulated seconds")
    generate.add_argument("--node", type=int, default=None,
                          help="target node id")
    generate.add_argument("--executor", type=int, default=None,
                          help="target executor id (executor-loss)")
    generate.add_argument("--duration", type=float, default=None,
                          help="episode length (disk-degrade / stragglers)")
    generate.add_argument("--factor", type=float, default=None,
                          help="speed multiplier during the episode")
    generate.add_argument("--probability", type=float, default=None,
                          help="per-attempt crash probability (task-crashes)")
    generate.add_argument("--max-crashes", type=int, default=None,
                          help="total crash budget (task-crashes)")
    generate.add_argument("--plan-seed", type=int, default=0,
                          help="seed for the plan's pseudo-random decisions")
    generate.add_argument("--no-speculation", action="store_true",
                          help="stragglers: do not enable speculation")
    show = faults_sub.add_parser(
        "show", help="validate a fault-plan file and summarise it"
    )
    show.add_argument("plan", help="fault plan JSON (see FAULTS.md)")

    chaos = sub.add_parser(
        "chaos",
        help="cluster-scope chaos plans for 'repro serve --faults' "
             "(see FAULTS.md, 'Cluster failure model')",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    cgen = chaos_sub.add_parser(
        "generate", help="write a canned repro.faults/2 chaos plan as JSON"
    )
    cgen.add_argument("kind", choices=sorted(CANNED_CHAOS))
    cgen.add_argument("--out", metavar="PATH", default=None,
                      help="output path (default: stdout)")
    cgen.add_argument("--node", type=int, default=None,
                      help="target node id (node-churn / slot-flaps / "
                           "overload)")
    cgen.add_argument("--at", type=float, default=None,
                      help="first episode start in simulated seconds")
    cgen.add_argument("--duration", type=float, default=None,
                      help="episode length in simulated seconds")
    cgen.add_argument("--count", type=int, default=None,
                      help="number of episodes (node-churn / slot-flaps)")
    cgen.add_argument("--every", type=float, default=None,
                      help="episode period in simulated seconds")
    cgen.add_argument("--factor", type=float, default=None,
                      help="arrival-rate multiplier (surge / overload)")
    cgen.add_argument("--tenant", default=None,
                      help="target tenant ('*' matches all; poison-tenant / "
                           "surge)")
    cgen.add_argument("--probability", type=float, default=None,
                      help="per-attempt poison probability (poison-tenant)")
    cgen.add_argument("--max-poisoned", type=int, default=None,
                      help="total poison budget (poison-tenant)")
    cgen.add_argument("--plan-seed", type=int, default=0,
                      help="seed for backoff/cool-down/surge draws")
    cgen.add_argument("--retries", type=int, default=None,
                      help="override the per-job retry budget")
    cgen.add_argument("--deadline", type=float, default=None,
                      help="override the per-job deadline (seconds after "
                           "arrival)")
    cgen.add_argument("--max-queue", type=int, default=None,
                      help="override the admission queue-length limit")
    cshow = chaos_sub.add_parser(
        "show", help="validate a chaos plan and summarise its cluster scope"
    )
    cshow.add_argument("plan", help="fault plan JSON (repro.faults/2)")

    history = sub.add_parser(
        "history", help="reconstruct a finished run from its event log"
    )
    history.add_argument("eventlog", help="JSONL event log from --events")
    history.add_argument("--json", action="store_true",
                         help="emit the report as JSON instead of tables")

    profile = sub.add_parser(
        "profile",
        help="resource demand profile from an event log (offline) -- "
             "identical to what --profile produces live",
    )
    profile.add_argument("eventlog", help="JSONL event log from --events")
    profile.add_argument("--out", metavar="PATH", default=None,
                         help="write the demand-profile JSON to PATH")
    profile.add_argument("--trace", metavar="PATH", default=None,
                         help="write Chrome counter tracks (Perfetto) to PATH")
    profile.add_argument("--interval", type=_positive_float, default=1.0,
                         metavar="SECS",
                         help="sampling grid in simulated seconds "
                              "(default 1.0; must match the live run's "
                              "--profile-interval for identical output)")
    profile.add_argument("--json", action="store_true",
                         help="print the demand profile as JSON to stdout")

    validate = sub.add_parser(
        "validate",
        help="replay an event log through the engine invariant checkers",
    )
    validate.add_argument("eventlog", help="JSONL event log from --events")
    validate.add_argument("--max-failures", type=_positive_int, default=4,
                          metavar="N",
                          help="spark.task.maxFailures for the retry-budget "
                               "check (default 4)")
    validate.add_argument("--strict", action="store_true",
                          help="hold the log to fault-free invariants even "
                               "if it contains fault events")
    validate.add_argument("--json", action="store_true",
                          help="emit the report as JSON instead of text")

    whatif = sub.add_parser(
        "whatif",
        help="fork one run at t=T and compare alternative futures "
             "(copy-on-write; see PERFORMANCE.md)",
    )
    whatif.add_argument("workload", choices=sorted(WORKLOADS))
    whatif.add_argument("--at", type=_non_negative_float, required=True,
                        metavar="SECS",
                        help="fork point in simulated seconds")
    whatif.add_argument("--alt", action="append", default=None,
                        metavar="SPEC",
                        help="an alternative future to try; repeatable. "
                             "SPECs: continue | pool=N | "
                             "policy=dynamic|default|fixed:N|static:N | "
                             "conf:KEY=VALUE | faults=PLAN.json | "
                             "reseed[=KEY] "
                             "(a 'continue' baseline is added if missing)")
    whatif.add_argument("--policy", choices=POLICY_CHOICES, default="default",
                        help="base policy for the shared warm-up prefix")
    whatif.add_argument("--threads", type=_positive_int, default=8,
                        help="thread count for static/fixed base policies")
    whatif.add_argument("--scale", type=_positive_float, default=1.0)
    whatif.add_argument("--nodes", type=_positive_int, default=4)
    whatif.add_argument("--cores", type=_positive_int, default=32)
    whatif.add_argument("--device", choices=("hdd", "ssd"), default="hdd")
    whatif.add_argument("--seed", type=int, default=42)
    whatif.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="base fault plan for the shared prefix")
    whatif.add_argument("--parallel", type=_non_negative_int, default=1,
                        metavar="N",
                        help="forked children to run at once (0 = one per "
                             "core)")
    whatif.add_argument("--out", metavar="PATH", default=None,
                        help="write the report JSON to PATH")
    whatif.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of a table")

    serve = sub.add_parser(
        "serve",
        help="multi-tenant cluster service: arrival plan in, "
             "repro.service/1 SLO report out (see SERVICE.md)",
    )
    serve.add_argument("--plan", metavar="PLAN.json", required=True,
                       help="repro.arrivals/1 plan (see 'repro arrivals')")
    serve.add_argument("--scheduler", choices=("fifo", "fair", "wfair"),
                       default="fifo",
                       help="cluster queue discipline (default fifo)")
    serve.add_argument("--nodes", type=_positive_int, default=4,
                       help="total executor slots shared by all tenants")
    serve.add_argument("--cores", type=_positive_int, default=32,
                       help="virtual cores per node for the inner runs")
    serve.add_argument("--device", choices=("hdd", "ssd"), default="hdd")
    serve.add_argument("--seed", type=int, default=None,
                       help="override the plan's arrival seed")
    serve.add_argument("--max-queue", type=_non_negative_int, default=None,
                       metavar="N",
                       help="admission control: reject arrivals once N jobs "
                            "queue (default: admit everything)")
    serve.add_argument("--max-wait", type=_positive_float, default=None,
                       metavar="SECS",
                       help="admission control: shed arrivals when the "
                            "estimated queue wait exceeds SECS")
    serve.add_argument("--faults", metavar="PLAN.json", default=None,
                       help="inject this fault plan; engine-scope faults go "
                            "into every inner run, a repro.faults/2 cluster "
                            "section drives the service layer (node churn, "
                            "surges, overload protection)")
    serve.add_argument("--validate", action="store_true",
                       help="attach the cluster invariant monitor (job "
                            "conservation, grant legality, breaker "
                            "legality); violations exit 1")
    serve.add_argument("--events", metavar="PATH", default=None,
                       help="per-job JSONL event logs (out.j0007.jsonl; a "
                            "single-job plan writes PATH exactly)")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="per-job Chrome trace_event JSON for Perfetto")
    serve.add_argument("--profile", metavar="PATH", default=None,
                       help="per-job demand-profile JSON (see 'repro profile')")
    serve.add_argument("--profile-interval", type=_positive_float,
                       default=1.0,
                       metavar="SECS",
                       help="profiler sampling grid in simulated seconds")
    _parallel_arg(serve)
    serve.add_argument("--out", metavar="PATH", default=None,
                       help="write the repro.service/1 report JSON to PATH")
    serve.add_argument("--json", action="store_true",
                       help="print the report as JSON instead of tables")

    arrivals = sub.add_parser(
        "arrivals", help="arrival-plan utilities (see SERVICE.md)"
    )
    arrivals_sub = arrivals.add_subparsers(dest="arrivals_command",
                                           required=True)
    agen = arrivals_sub.add_parser(
        "generate", help="write a canned arrival plan as JSON"
    )
    agen.add_argument("kind", choices=sorted(CANNED_ARRIVALS))
    agen.add_argument("--out", metavar="PATH", default=None,
                      help="output path (default: stdout)")
    agen.add_argument("--tenants", type=int, default=None,
                      help="number of identical tenants (poisson)")
    agen.add_argument("--rate", type=float, default=None,
                      help="per-tenant arrivals per simulated second (poisson)")
    agen.add_argument("--horizon", type=float, default=None,
                      help="arrival window end in simulated seconds (poisson)")
    agen.add_argument("--workload", action="append", default=None,
                      choices=sorted(WORKLOADS), metavar="NAME",
                      help="job-mix workload; repeatable (poisson default: "
                           "terasort wordcount; single default: terasort)")
    agen.add_argument("--scale", type=float, default=None,
                      help="input-size multiplier for every job")
    agen.add_argument("--slots", type=int, default=None,
                      help="nodes granted to each job")
    agen.add_argument("--plan-seed", type=int, default=0,
                      help="seed for the plan's arrival draws")
    agen.add_argument("--job-seed", type=int, default=42,
                      help="cluster seed for the inner engine runs")
    ashow = arrivals_sub.add_parser(
        "show", help="validate an arrival-plan file and summarise it"
    )
    ashow.add_argument("plan", help="arrival plan JSON (see SERVICE.md)")

    sub.add_parser("list", help="list available workloads")
    return parser


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--scale", type=_positive_float, default=1.0,
                        help="input-size multiplier (ratios are invariant)")
    parser.add_argument("--nodes", type=_positive_int, default=4)
    parser.add_argument("--cores", type=_positive_int, default=32,
                        help="virtual cores per node (the default pool size)")
    parser.add_argument("--device", choices=("hdd", "ssd"), default="hdd")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="inject faults from a plan file (see FAULTS.md)")
    parser.add_argument("--events", metavar="PATH", default=None,
                        help="write a JSONL event log (see 'repro history')")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace_event JSON for Perfetto")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="profile resource demand live and write the "
                             "demand-profile JSON (see 'repro profile')")
    parser.add_argument("--profile-interval", type=_positive_float,
                        default=1.0,
                        metavar="SECS",
                        help="profiler sampling grid in simulated seconds "
                             "(default 1.0)")
    parser.add_argument("--json", action="store_true",
                        help="emit results as JSON instead of tables")


def _parallel_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallel", type=_non_negative_int, default=1, metavar="N",
        help="fan independent runs out over N worker processes "
             "(0 = one per core); results are deterministic either way")


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and > 0, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {value}")
    return value


def _policy_spec(args):
    if args.policy == "static":
        return ("static", args.threads)
    if args.policy == "fixed":
        return ("fixed", args.threads)
    return args.policy


def _run_kwargs(args):
    kwargs = dict(
        num_nodes=args.nodes,
        cores=args.cores,
        device=args.device,
        seed=args.seed,
        workload_kwargs={"scale": args.scale},
    )
    if getattr(args, "faults", None):
        kwargs["fault_plan"] = FaultPlan.load(args.faults)
    return kwargs


def _thread_counts(cores: int) -> tuple:
    """The sweep's ladder: cores, cores/2, ... down to 2 (paper Fig. 2)."""
    if cores < 1:
        raise ValueError(f"cores must be positive, got {cores}")
    counts = []
    threads = cores
    while threads >= 2:
        counts.append(threads)
        threads //= 2
    return tuple(counts) if counts else (cores,)


def cmd_list(_args) -> int:
    rows = []
    for name in workload_names():
        cls = WORKLOADS[name]
        rows.append(
            (
                name,
                cls.category,
                f"{cls.input_size / 1024**3:.2f}",
                f"{cls.paper_io_activity / 1024**3:.2f}" if cls.paper_io_activity else "--",
            )
        )
    print(render_table(
        ["workload", "category", "input (GiB)", "paper I/O activity (GiB)"],
        rows,
    ))
    return 0


def cmd_run(args) -> int:
    tracer, _profiler = build_run_tracer(RunConfig(
        workload=args.workload, events_path=args.events,
        trace_path=args.trace, profile_path=args.profile,
        profile_interval=args.profile_interval))
    monitor = None
    if args.validate:
        from repro.validation import InvariantMonitor

        monitor = InvariantMonitor(mode="collect")
    run = run_workload(args.workload, policy=_policy_spec(args),
                       tracer=tracer, invariants=monitor, **_run_kwargs(args))
    if tracer is not None:
        finish_trace(run)
    if monitor is not None:
        # stderr, so --json output on stdout stays machine-parseable.
        report = monitor.finish()
        print(f"invariants: {report.summary()}", file=sys.stderr)
        if not report.ok:
            return 1
    _print_run(args, run)
    return 0


def _print_run(args, run) -> None:
    """``repro run``'s report."""
    if args.json:
        payload = {
            "command": "run",
            "workload": args.workload,
            "policy": args.policy,
            **run.ctx.recorder.summary_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(f"{args.workload} [{args.policy}] finished in "
          f"{run.runtime:.1f} simulated seconds\n")
    rows = []
    for stage in run.stages:
        sizes = stage.final_pool_sizes()
        rows.append(
            (
                stage.stage_id,
                "I/O" if stage.is_io_marked else "shuffle",
                stage.num_tasks,
                f"{stage.duration:.1f}",
                " ".join(str(sizes[e]) for e in sorted(sizes)),
            )
        )
    print(render_table(
        ["stage", "kind", "tasks", "duration (s)", "threads/executor"], rows
    ))


def _run_configs(args, points) -> List[RunConfig]:
    """One :class:`RunConfig` per ``(key, suffix, policy)`` point; output
    paths get ``suffix`` before their extension (none when it is None)."""
    kwargs = _run_kwargs(args)
    fault_plan = kwargs.pop("fault_plan", None)
    workload_kwargs = kwargs.pop("workload_kwargs", {})

    def out(path: Optional[str], suffix: Optional[str]) -> Optional[str]:
        if path is None or suffix is None:
            return path
        return suffix_path(path, suffix)

    return [
        RunConfig(
            workload=args.workload,
            policy=policy,
            key=key,
            workload_kwargs=workload_kwargs,
            cluster_kwargs=kwargs,
            fault_plan_doc=fault_plan.to_dict() if fault_plan else None,
            events_path=out(args.events, suffix),
            trace_path=out(args.trace, suffix),
            profile_path=out(args.profile, suffix),
            profile_interval=args.profile_interval,
        )
        for key, suffix, policy in points
    ]


def _run_sweep(args, thread_counts) -> dict:
    """The static sweep behind ``sweep`` and ``compare``, keyed by threads.

    ``sweep`` adds its journal, watchdog and retry flags; with
    ``--journal`` a killed sweep resumes where it stopped.
    """
    configs = _run_configs(
        args, [(threads, f"t{threads}", ("static", threads))
               for threads in thread_counts])
    options = {}
    if args.command == "sweep":
        from repro.harness.journal import SweepJournal

        options = dict(
            journal=SweepJournal(args.journal) if args.journal else None,
            resume=args.resume,
            timeout=args.run_timeout,
            max_attempts=args.max_attempts,
            stop_after=args.stop_after,
        )
    summaries = map_runs(configs, resolve_parallel(args.parallel),
                         **options)
    return {summary.key: summary for summary in summaries}


def cmd_sweep(args) -> int:
    thread_counts = _thread_counts(args.cores)
    sweep = _run_sweep(args, thread_counts)
    sizes = derive_bestfit(sweep, default_threads=max(sweep))
    if args.json:
        payload = {
            "command": "sweep",
            "workload": args.workload,
            "device": args.device,
            "thread_counts": list(thread_counts),
            "runs": {
                str(threads): {
                    "runtime": run.runtime,
                    "stage_durations": run.stage_durations(),
                }
                for threads, run in sorted(sweep.items())
            },
            "bestfit": {str(ordinal): threads
                        for ordinal, threads in sorted(sizes.items())},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    num_stages = next(iter(sweep.values())).num_stages
    rows = [
        (threads, f"{run.runtime:.1f}",
         *[f"{d:.0f}" for d in run.stage_durations()])
        for threads, run in sorted(sweep.items(), reverse=True)
    ]
    print(render_table(
        ["threads", "total (s)"] + [f"stage {i}" for i in range(num_stages)],
        rows,
        title=f"Static solution sweep: {args.workload} on {args.device}",
    ))
    print(f"\nper-stage BestFit: {sizes}")
    return 0


def cmd_compare(args) -> int:
    thread_counts = _thread_counts(args.cores)
    sweep = _run_sweep(args, thread_counts)
    default_threads = max(sweep)
    bestfit_sizes = derive_bestfit(sweep, default_threads=default_threads)
    # The static solution at all cores is stock Spark, so the sweep's top
    # run doubles as the "Default Spark" baseline (no hardcoded 32).
    default = sweep[default_threads]

    bestfit, dynamic = map_runs(_run_configs(args, [
        ("bestfit", "bestfit", ("bestfit", bestfit_sizes)),
        ("dynamic", "dynamic", "dynamic"),
    ]), resolve_parallel(args.parallel))

    systems = (("default", default), ("static bestfit", bestfit),
               ("self-adaptive", dynamic))
    if args.json:
        payload = {
            "command": "compare",
            "workload": args.workload,
            "device": args.device,
            "nodes": args.nodes,
            "cores": args.cores,
            "scale": args.scale,
            "systems": {
                label.replace(" ", "_").replace("-", "_"): {
                    "runtime": run.runtime,
                    "reduction_vs_default":
                        None if run is default
                        else 1 - run.runtime / default.runtime,
                }
                for label, run in systems
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = []
    for label, run in systems:
        reduction = (
            "--" if run is default
            else f"-{(1 - run.runtime / default.runtime) * 100:.1f}%"
        )
        rows.append((label, f"{run.runtime:.1f}", reduction))
    print(render_table(
        ["system", "runtime (s)", "vs default"],
        rows,
        title=f"{args.workload} on {args.nodes} {args.device.upper()} nodes "
              f"(scale {args.scale})",
    ))
    return 0


def _emit_plan(plan, out: Optional[str], what: str) -> int:
    """Print or save a generated fault or arrival plan.

    The plan first goes through the loader ``show`` uses, so a flag value
    the loader rejects (a negative or NaN time, no tenants) exits 2 here
    instead of writing a plan nothing can read.
    """
    type(plan).from_dict(plan.to_dict())
    if out is None:
        print(plan.to_json())
    else:
        plan.save(out)
        print(f"wrote {what} to {out}")
    return 0


def cmd_faults(args) -> int:
    if args.faults_command == "show":
        plan = FaultPlan.load(args.plan)  # load() validates
        counts = {
            "task_crashes": len(plan.task_crashes),
            "executor_losses": len(plan.executor_losses),
            "node_losses": len(plan.node_losses),
            "disk_degradations": len(plan.disk_degradations),
            "stragglers": len(plan.stragglers),
        }
        print(f"valid fault plan (seed {plan.seed})")
        for name, count in counts.items():
            if count:
                print(f"  {name}: {count}")
        if plan.crash_rate is not None:
            print(f"  crash_rate: p={plan.crash_rate.probability} "
                  f"max={plan.crash_rate.max_crashes}")
        if plan.speculation is not None:
            spec = plan.speculation
            print(f"  speculation: enabled={spec.enabled} "
                  f"multiplier={spec.multiplier} quantile={spec.quantile}")
        if plan.cluster is not None:
            cluster = plan.cluster
            print(f"  cluster: {len(cluster.node_churn)} churn episode(s), "
                  f"{len(cluster.slot_flaps)} slot flap(s), "
                  f"{len(cluster.poison)} poison rule(s), "
                  f"{len(cluster.surges)} surge(s) "
                  f"(see 'repro chaos show')")
        if plan.is_empty:
            print("  (empty: no faults will be injected)")
        return 0

    # generate: map the generic flags onto the chosen builder's kwargs.
    option_names = {
        "node-loss": {"node": "node_id", "at": "at"},
        "executor-loss": {"executor": "executor_id", "at": "at"},
        "task-crashes": {"probability": "probability",
                         "max_crashes": "max_crashes"},
        "disk-degrade": {"node": "node_id", "at": "at",
                         "duration": "duration", "factor": "factor"},
        "stragglers": {"node": "node_id", "at": "at",
                       "duration": "duration", "factor": "factor"},
    }[args.kind]
    kwargs = {"seed": args.plan_seed}
    for flag, param in option_names.items():
        value = getattr(args, flag)
        if value is not None:
            kwargs[param] = value
    if args.kind == "stragglers" and args.no_speculation:
        kwargs["speculation"] = False
    return _emit_plan(CANNED_PLANS[args.kind](**kwargs), args.out,
                      f"{args.kind} plan")


def cmd_chaos(args) -> int:
    from dataclasses import replace

    if args.chaos_command == "show":
        plan = FaultPlan.load(args.plan)  # load() validates
        if plan.cluster is None:
            print(f"valid fault plan (seed {plan.seed}) with no cluster "
                  f"scope; see 'repro faults show'")
            return 0
        cluster = plan.cluster
        print(f"valid chaos plan (seed {plan.seed})")
        for churn in cluster.node_churn:
            until = ("forever" if churn.duration is None
                     else f"for {churn.duration:g}s")
            print(f"  node-churn: node {churn.node_id} down at "
                  f"{churn.down_at:g}s {until}")
        for flap in cluster.slot_flaps:
            print(f"  slot-flap: node {flap.node_id} drained at "
                  f"{flap.at:g}s for {flap.duration:g}s")
        for rule in cluster.poison:
            print(f"  poison: tenant {rule.tenant} p={rule.probability:g} "
                  f"budget {rule.max_poisoned} at {rule.at_fraction:g} of "
                  f"runtime")
        for surge in cluster.surges:
            scope = "all tenants" if surge.tenant is None else surge.tenant
            print(f"  surge: x{surge.factor:g} for {scope} at "
                  f"{surge.at:g}s for {surge.duration:g}s")
        protection = cluster.protection
        guards = [f"retries {protection.max_retries}",
                  f"backoff {protection.backoff_base:g}s "
                  f"cap {protection.backoff_cap:g}s"]
        if protection.deadline is not None:
            guards.append(f"deadline {protection.deadline:g}s")
        if protection.slo_latency is not None:
            guards.append(f"slo {protection.slo_latency:g}s")
        if protection.max_queue is not None:
            guards.append(f"max-queue {protection.max_queue}")
        if protection.max_wait is not None:
            guards.append(f"max-wait {protection.max_wait:g}s")
        if protection.breaker_failures is not None:
            guards.append(f"breaker K={protection.breaker_failures} "
                          f"cool-down {protection.breaker_cooldown:g}s")
        if protection.degrade_queue is not None:
            guards.append(f"degrade at queue {protection.degrade_queue} "
                          f"to x{protection.degrade_factor:g} slots")
        print(f"  protection: {', '.join(guards)}")
        return 0

    # generate: map the generic flags onto the chosen builder's kwargs.
    option_names = {
        "node-churn": {"node": "node_id", "at": "at", "duration": "duration",
                       "count": "count", "every": "every"},
        "slot-flaps": {"node": "node_id", "at": "at", "duration": "duration",
                       "count": "count", "every": "every"},
        "poison-tenant": {"tenant": "tenant", "probability": "probability",
                          "max_poisoned": "max_poisoned"},
        "surge": {"at": "at", "duration": "duration", "factor": "factor",
                  "tenant": "tenant"},
        "overload": {"node": "node_id", "at": "at", "duration": "duration",
                     "factor": "factor"},
    }[args.kind]
    kwargs = {"seed": args.plan_seed}
    for flag, param in option_names.items():
        value = getattr(args, flag)
        if value is not None:
            kwargs[param] = value
    plan = CANNED_CHAOS[args.kind](**kwargs)
    overrides = {}
    if args.retries is not None:
        overrides["max_retries"] = args.retries
    if args.deadline is not None:
        overrides["deadline"] = args.deadline
    if args.max_queue is not None:
        overrides["max_queue"] = args.max_queue
    if overrides:
        protection = replace(plan.cluster.protection, **overrides)
        plan = replace(plan,
                       cluster=replace(plan.cluster, protection=protection))
    return _emit_plan(plan, args.out, f"{args.kind} chaos plan")


def cmd_whatif(args) -> int:
    from repro.harness.fork import parse_alternative, run_whatif

    specs = list(args.alt or [])
    if "continue" not in specs:
        specs.insert(0, "continue")
    alternatives = [parse_alternative(spec) for spec in specs]
    kwargs = _run_kwargs(args)
    fault_plan = kwargs.pop("fault_plan", None)
    workload_kwargs = kwargs.pop("workload_kwargs", {})
    report = run_whatif(
        args.workload,
        at=args.at,
        alternatives=alternatives,
        policy=_policy_spec(args),
        workload_kwargs=workload_kwargs,
        fault_plan=fault_plan,
        parallel=resolve_parallel(args.parallel),
        **kwargs,
    )
    doc = report.to_dict()
    if args.out:
        atomic_write_json(args.out, doc)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    mode = ("forked" if report.forked
            else "sequential re-simulation (os.fork unavailable)")
    print(f"{args.workload}: forked at t={args.at:g}s into "
          f"{len(alternatives)} future(s) [{mode}]\n")
    rows = []
    for row in doc["alternatives"]:
        if row.get("quarantined"):
            rows.append((row["key"], "quarantined", "--"))
            continue
        delta = row.get("vs_continue")
        rows.append(
            (
                row["key"],
                f"{row['runtime']:.1f}",
                "--" if delta is None or row["kind"] == "continue"
                else f"{delta:+.1%}",
            )
        )
    print(render_table(["alternative", "runtime (s)", "vs continue"], rows))
    if args.out:
        print(f"\nwrote report to {args.out}")
    return 0


class BadEventLogError(Exception):
    """A missing or malformed event log: exit 2 (CLI.md "Exit codes")."""


def _load_log(path: str, allow_truncated: bool = False):
    """Read an event log for ``history``, ``profile`` and ``validate``.

    A missing, malformed or event-free log raises
    :class:`BadEventLogError`; any other ``OSError`` propagates (exit 1).
    """
    try:
        events = load_events(path, allow_truncated=allow_truncated)
    except FileNotFoundError:
        raise BadEventLogError(
            f"cannot read {path}: no such event log") from None
    except ValueError as exc:
        raise BadEventLogError(f"cannot replay {path}: {exc}") from None
    if not events:
        raise BadEventLogError(f"cannot replay {path}: it holds no events")
    return events


def cmd_history(args) -> int:
    events = _load_log(args.eventlog, allow_truncated=True)
    report = reconstruct(events)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    app = report.application
    if app:
        print(f"application: {app.get('num_nodes', '?')} nodes x "
              f"{app.get('cores_per_node', '?')} cores on "
              f"{app.get('device', '?')}")
    print(f"total runtime: {report.total_runtime:.1f} simulated seconds "
          f"({len(events)} events)\n")
    rows = []
    for stage in report.stages:
        sizes = stage.final_pool_sizes
        rows.append(
            (
                stage.stage_id,
                stage.name,
                "I/O" if stage.is_io_marked else "shuffle",
                f"{stage.tasks_seen}/{stage.num_tasks}",
                f"{stage.duration:.1f}",
                " ".join(str(sizes[e]) for e in sorted(sizes)) or "--",
            )
        )
    print(render_table(
        ["stage", "name", "kind", "tasks", "duration (s)",
         "final threads/executor"],
        rows,
    ))
    if report.pool_decisions:
        print(f"\npool-size decisions ({len(report.pool_decisions)}):")
        rows = [
            (f"{d.time:.1f}", d.executor_id, d.stage_id, d.pool_size, d.reason)
            for d in report.pool_decisions
        ]
        print(render_table(
            ["time (s)", "executor", "stage", "size", "reason"], rows
        ))
    if report.intervals:
        print(f"\nMAPE-K intervals ({len(report.intervals)}):")
        rows = [
            (f"{i.start_time:.1f}", f"{i.end_time:.1f}", i.executor_id,
             i.stage_id, i.threads,
             "inf" if i.zeta == float("inf") else f"{i.zeta:.3g}", i.decision)
            for i in report.intervals
        ]
        print(render_table(
            ["start", "end", "executor", "stage", "threads", "zeta",
             "decision"],
            rows,
        ))
    if report.metrics:
        print(f"\nmetrics snapshot: {len(report.metrics)} series "
              f"(use --json for values)")
    if report.open_spans:
        detail = ", ".join(f"{cat}: {count}"
                           for cat, count in sorted(report.open_spans.items()))
        print(f"\nwarning: {sum(report.open_spans.values())} span(s) never "
              f"ended ({detail}) -- the run likely crashed or the log is "
              f"truncated", file=sys.stderr)
    return 0


def _format_rate(value: float) -> str:
    """Human bytes/sec (or plain count) for the profile report tables."""
    for threshold, unit in ((1024 ** 3, "GiB/s"), (1024 ** 2, "MiB/s"),
                            (1024, "KiB/s")):
        if abs(value) >= threshold:
            return f"{value / threshold:.2f} {unit}"
    return f"{value:.2f}"


def cmd_profile(args) -> int:
    from repro.observability.profiler import profile_events

    events = _load_log(args.eventlog, allow_truncated=True)
    sink = profile_events(events, interval=args.interval,
                          out=args.out, trace_out=args.trace)
    doc = sink.demand_profile()
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    app = doc["application"]
    if app:
        print(f"application: {app.get('num_nodes', '?')} nodes x "
              f"{app.get('cores_per_node', '?')} cores on "
              f"{app.get('device', '?')}")
    print(f"demand profile ({len(events)} events, "
          f"{args.interval:g}s sampling grid)\n")
    rows = []
    for stage in doc["stages"]:
        resources = stage["resources"]

        def cell(key):
            entry = resources.get(key)
            if entry is None:
                return "--"
            return (f"{_format_rate(entry['peak'])} / "
                    f"{_format_rate(entry['mean'])}")

        rows.append(
            (
                stage["stage_id"],
                stage["name"],
                f"{stage['duration']:.1f}",
                cell("cpu_util"),
                cell("disk_read_bps"),
                cell("disk_write_bps"),
                cell("nic_out_bps"),
            )
        )
    print(render_table(
        ["stage", "name", "duration (s)", "cpu peak/mean",
         "disk read peak/mean", "disk write peak/mean", "nic out peak/mean"],
        rows,
    ))
    distributions = doc.get("distributions", {})
    if distributions:
        rows = [
            (name, dist["count"], f"{dist['mean']:.3f}",
             f"{dist['p50']:.3f}", f"{dist['p90']:.3f}",
             f"{dist['p99']:.3f}", f"{dist['max']:.3f}")
            for name, dist in sorted(distributions.items())
        ]
        print("\ndistributions (seconds):")
        print(render_table(
            ["metric", "count", "mean", "p50", "p90", "p99", "max"], rows
        ))
    executors = doc.get("executors", [])
    if executors:
        rows = [
            (ex["executor_id"], ex["tasks"], ex["crashed_tasks"],
             f"{ex['io_bytes'] / 1024 ** 2:.0f}",
             f"{ex['io_wait_seconds']:.1f}",
             f"{ex['peak_active_tasks']:.0f}",
             _format_rate(ex["peak_io_bps"]))
            for ex in executors
        ]
        print("\nexecutors:")
        print(render_table(
            ["executor", "tasks", "crashed", "I/O (MiB)", "I/O wait (s)",
             "peak active", "peak I/O"],
            rows,
        ))
    if args.out:
        print(f"\nwrote demand profile to {args.out}")
    if args.trace:
        print(f"wrote counter tracks to {args.trace}")
    return 0


def cmd_validate(args) -> int:
    from repro.validation import validate_events, validate_service_report

    # A repro.service/* report is one JSON document, not an event log;
    # sniff it first and route it to the cluster-level checkers.
    try:
        with open(args.eventlog, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        doc = None  # JSONL, garbage or missing: fall through to the log path
    if (isinstance(doc, dict)
            and str(doc.get("schema", "")).startswith("repro.service/")):
        report = validate_service_report(doc)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.summary())
        return 0 if report.ok else 1

    events = _load_log(args.eventlog)
    report = validate_events(
        events,
        max_failures=args.max_failures,
        strict=True if args.strict else None,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    from repro.harness.service import run_service, validate_report

    plan = ArrivalPlan.load(args.plan)
    fault_plan_doc = None
    if args.faults:
        fault_plan_doc = FaultPlan.load(args.faults).to_dict()
    protection = None
    if args.max_queue is not None or args.max_wait is not None:
        protection = ProtectionConfig(max_queue=args.max_queue,
                                      max_wait=args.max_wait)
    monitor = None
    if args.validate:
        from repro.validation import ClusterInvariantMonitor

        monitor = ClusterInvariantMonitor(mode="collect")
    report = run_service(
        plan,
        total_nodes=args.nodes,
        discipline=args.scheduler,
        cores=args.cores,
        device=args.device,
        seed=args.seed,
        fault_plan_doc=fault_plan_doc,
        parallel=resolve_parallel(args.parallel),
        events_path=args.events,
        trace_path=args.trace,
        profile_path=args.profile,
        profile_interval=args.profile_interval,
        monitor=monitor,
        protection=protection,
    )
    doc = report.to_dict()
    validate_report(doc)
    if args.out:
        report.save(args.out)
    violations = 0
    if monitor is not None and not monitor.report.ok:
        violations = len(monitor.report.violations)
        for violation in monitor.report.violations:
            print(f"invariant violation: {violation.render()}",
                  file=sys.stderr)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 1 if violations else 0
    totals = doc["totals"]
    print(f"serve: {totals['submitted']} job(s) from {len(doc['tenants'])} "
          f"tenant(s) on {doc['cluster']['nodes']} slots "
          f"[{doc['scheduler']}] "
          f"({totals['distinct_engine_runs']} distinct engine run(s))")
    print(f"makespan {doc['makespan_s']:.1f} s | goodput "
          f"{doc['goodput_jobs_per_s'] * 60:.2f} jobs/min | utilization "
          f"{doc['utilization']:.0%} | fairness {doc['fairness_index']:.3f}")
    latency = doc["latency"]["job_latency"]
    delay = doc["latency"]["queue_delay"]
    print(f"job latency p50/p99 {latency['p50']:.1f}/{latency['p99']:.1f} s "
          f"| queue delay p50/p99 {delay['p50']:.1f}/{delay['p99']:.1f} s")
    if totals["rejected"] or totals["preemptions"]:
        print(f"rejected {totals['rejected']} | preemptions "
              f"{totals['preemptions']} | wasted "
              f"{doc['wasted_slot_seconds']:.1f} slot-seconds")
    resilience = doc.get("resilience")
    if resilience:
        shed_total = sum(resilience["shed"].values())
        print(f"resilience: retries {resilience['retries']} | shed "
              f"{shed_total} | aborted {resilience['aborted']} | slo "
              f"violations {resilience['slo_violations']} | fault waste "
              f"{resilience['wasted_fault_slot_seconds']:.1f} slot-seconds")
        episodes = resilience["mttr"]["episodes"]
        if episodes:
            worst = max(episode["mttr_s"] for episode in episodes)
            print(f"node loss: {len(episodes)} recovered episode(s) | "
                  f"worst mttr {worst:.1f} s | node downtime "
                  f"{resilience['node_downtime_s']:.1f} s")
        availability = " ".join(
            f"{tenant}={value:.0%}"
            for tenant, value in sorted(resilience["availability"].items())
        )
        print(f"availability: {availability}")
    print()
    rows = [
        (
            tenant["name"],
            f"{tenant['weight']:g}",
            tenant["slots_per_job"],
            tenant["submitted"],
            tenant["completed"],
            tenant["rejected"],
            f"{tenant['job_latency']['p50']:.1f}",
            f"{tenant['job_latency']['p99']:.1f}",
            f"{tenant['queue_delay']['p99']:.1f}",
            f"{tenant['slot_seconds']:.0f}",
        )
        for tenant in doc["tenants"]
    ]
    print(render_table(
        ["tenant", "weight", "slots", "jobs", "done", "rej",
         "p50 lat (s)", "p99 lat (s)", "p99 queue (s)", "slot-s"],
        rows,
    ))
    if args.out:
        print(f"\nwrote report to {args.out}")
    return 1 if violations else 0


def cmd_arrivals(args) -> int:
    if args.arrivals_command == "show":
        plan = ArrivalPlan.load(args.plan)  # load() validates
        arrivals = plan.generate()
        horizon = "--" if plan.horizon is None else f"{plan.horizon:g}s"
        print(f"valid arrival plan (seed {plan.seed}, horizon {horizon}): "
              f"{len(arrivals)} job(s) from {len(plan.tenants)} tenant(s)")
        for tenant in plan.tenants:
            count = sum(1 for a in arrivals if a.tenant == tenant.name)
            kind = tenant.process[0]
            if kind == "poisson":
                detail = f"poisson rate {tenant.process[1]:g}/s"
            else:
                detail = f"trace ({len(tenant.process[1])} time(s))"
            mix = ", ".join(template.label for template in tenant.mix)
            print(f"  {tenant.name}: {count} job(s), {detail}, weight "
                  f"{tenant.weight:g}, {tenant.slots} slot(s)/job, "
                  f"mix [{mix}]")
        return 0

    # generate: map the generic flags onto the chosen builder's kwargs.
    kwargs = {"seed": args.plan_seed, "job_seed": args.job_seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.slots is not None:
        kwargs["slots"] = args.slots
    if args.kind == "poisson":
        if args.tenants is not None:
            kwargs["tenants"] = args.tenants
        if args.rate is not None:
            kwargs["rate"] = args.rate
        if args.horizon is not None:
            kwargs["horizon"] = args.horizon
        if args.workload:
            kwargs["workloads"] = tuple(args.workload)
    else:  # single
        if args.workload:
            kwargs["workload"] = args.workload[0]
    return _emit_plan(CANNED_ARRIVALS[args.kind](**kwargs), args.out,
                      f"{args.kind} plan")


COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "faults": cmd_faults,
    "chaos": cmd_chaos,
    "history": cmd_history,
    "profile": cmd_profile,
    "validate": cmd_validate,
    "whatif": cmd_whatif,
    "serve": cmd_serve,
    "arrivals": cmd_arrivals,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # Reader went away (e.g. | head); exit quietly like other CLIs.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except SweepInterrupted as exc:
        print(f"sweep interrupted: {exc}", file=sys.stderr)
        return 3
    except QuarantinedConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ForkBarrierNotReached, ForkUnavailableError) as exc:
        # Barrier past the end of the run, or a run timeout where there is
        # no os.fork to give the run a child process to kill.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FaultPlanError as exc:
        # Malformed or unknown-schema fault plan: a usage error, not a crash.
        print(f"error: invalid fault plan: {exc}", file=sys.stderr)
        return 2
    except ArrivalPlanError as exc:
        # Malformed or unknown-schema arrival plan: same contract as faults.
        print(f"error: invalid arrival plan: {exc}", file=sys.stderr)
        return 2
    except BadEventLogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Unwritable --events/--trace path, unreadable log, and friends.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Malformed event log or bad parameter combination.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
