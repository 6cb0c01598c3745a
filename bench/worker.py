"""One benchmark pass, in a fresh interpreter.

``bench/run.py`` starts one worker per pass, one at a time::

    python bench/worker.py WORKLOAD --seed N --size full|smoke \
                           --pass-id K [--traced]

The worker imports the library, builds the pass's inputs from the seed and
prints ``ready`` -- the runner's set-up clock stops there.  It then drives
the workload through the library's public calls and prints one JSON line:
the timed wall, work done, SHA-256 digests of the simulated outputs, spans
around the public calls and peak RSS.  A traced pass also runs the work
under ``cProfile`` (self time summed per ``src/repro/<layer>``), reads
exact per-layer counts from public state after each run, and takes the
extra unprofiled measurements some layer ratios need.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import json
import os
import pstats
import random
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional

import repro
import repro.harness.service as service
from repro.cluster.scheduler import ClusterScheduler
from repro.faults.plan import (
    ClusterFaults,
    FaultPlan,
    NodeChurn,
    ProtectionConfig,
    SlotFlap,
    TenantPoison,
)
from repro.harness.fork import Alternative, run_whatif
from repro.harness.parallel import RunConfig, build_run_tracer
from repro.harness.runner import run_workload, static_sweep
from repro.harness.service import run_service, validate_report
from repro.observability.metrics import collect_run_metrics
from repro.validation.cluster import validate_service_report
from repro.workloads.arrivals import ArrivalPlan, poisson_plan
from repro.workloads.base import Workload

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Work per pass.  ``smoke`` is about 1/20 of ``full`` for the self-test.
#: ``whatif_at`` is ~85% of the seed-42 simulated runtime of dynamic
#: terasort at ``sweep_scale``, fixed so every seed forks at the same time.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {"fig8_scale": 0.1, "jobs_per_tenant": 720,
             "sweep_scale": 0.1, "whatif_at": 179.0},
    "smoke": {"fig8_scale": 0.005, "jobs_per_tenant": 36,
              "sweep_scale": 0.005, "whatif_at": 10.0},
}

FIG8_APPS = ("terasort", "join", "aggregation", "pagerank")
FIG8_POLICIES = (("default", "default"), ("static8", ("static", 8)),
                 ("dynamic", "dynamic"))
SWEEP_THREADS = (32, 16, 8, 4, 2)
WHATIF_ALTERNATIVES = 8
SERVE_NODES = 16

#: Counts read after the run; they must repeat bit for bit per seed.
COUNT_NAMES = (
    "simulation.events", "engine.tasks_launched", "engine.stages_completed",
    "engine.control_messages", "storage.bytes_read", "storage.bytes_written",
    "storage.busy_s", "network.bytes", "adaptive.mapek_intervals",
    "cluster.jobs_completed", "cluster.jobs_rejected", "cluster.jobs_retried",
    "cluster.jobs_preempted", "harness.oracle_runs",
    "observability.bytes_written",
)


def sha256_json(doc: Any) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def run_digest(run, log_path: Optional[str] = None) -> str:
    """Runtime, stage durations and threads per stage of one engine run,
    plus the bytes of its event log when it wrote one."""
    doc = {
        "runtime": run.runtime,
        "stage_durations": run.stage_durations(),
        "threads": [sorted(stage.final_pool_sizes().items())
                    for stage in run.stages],
    }
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8"))
    if log_path is not None:
        # In chunks, so the check adds nothing to the pass's peak RSS.
        with open(log_path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
    return digest.hexdigest()


# -- instrumentation ----------------------------------------------------------


class Probe:
    """Spans around the library's public calls, and per-layer counts.

    Spans are kept in memory and returned with the pass result.  Counts
    are only gathered while ``counts`` is a dict (the traced pass), with
    ``profiler`` paused while they are read.
    """

    def __init__(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.spans: List[Dict[str, Any]] = []
        self.counts: Optional[Dict[str, float]] = None
        self.profiler: Optional[cProfile.Profile] = None
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, layer: str, detail: Optional[str] = None):
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "detail": detail,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter() - self._origin,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._origin

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def wrap(self, stack: contextlib.ExitStack, owner: Any, attr: str,
             name: str, layer: str,
             on_result: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``owner.attr`` by a spanned call until ``stack`` closes."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name, layer):
                result = original(*args, **kwargs)
            if on_result is not None and self.counts is not None:
                with self.unprofiled():
                    on_result(result)
            return result

        setattr(owner, attr, wrapper)
        stack.callback(setattr, owner, attr, original)

    @contextlib.contextmanager
    def unprofiled(self):
        """Pause the profiler around the benchmark's own work (reading
        counts, digesting and validating outputs)."""
        if self.profiler is None:
            yield
            return
        self.profiler.disable()
        try:
            yield
        finally:
            self.profiler.enable()

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def count_engine_run(self, run) -> None:
        snapshot = collect_run_metrics(run.ctx)

        def value(name: str) -> float:
            return snapshot.get(name, {}).get("value", 0.0)

        nodes = [node.node_id for node in run.ctx.cluster.nodes]
        self.add("simulation.events", run.ctx.sim.events_scheduled)
        self.add("engine.tasks_launched", value("scheduler.tasks_launched"))
        self.add("engine.stages_completed",
                 value("scheduler.stages_completed"))
        self.add("engine.control_messages",
                 value("scheduler.control_messages"))
        for field, metric in (("storage.bytes_read", "disk.bytes_read"),
                              ("storage.bytes_written", "disk.bytes_written"),
                              ("storage.busy_s", "disk.busy_seconds")):
            self.add(field, sum(value(f"node.{n}.{metric}") for n in nodes))
        self.add("network.bytes", value("network.bytes_total"))
        self.add("adaptive.mapek_intervals", value("mapek.intervals"))

    def count_service(self, result) -> None:
        self.add("cluster.jobs_completed", result.completed)
        self.add("cluster.jobs_rejected", result.rejected)
        self.add("cluster.jobs_retried", result.retried)
        self.add("cluster.jobs_preempted", result.preempted)

    def count_oracle(self, result) -> None:
        _runtimes, distinct_runs = result
        self.add("harness.oracle_runs", distinct_runs)

    def instrument(self, stack: contextlib.ExitStack) -> None:
        """Spans (and, when counting, counts) at the layer boundaries that
        the public calls cross inside the library."""
        self.wrap(stack, ArrivalPlan, "generate", "ArrivalPlan.generate",
                  "workloads")
        self.wrap(stack, service, "compute_runtimes", "compute_runtimes",
                  "harness", self.count_oracle)
        self.wrap(stack, ClusterScheduler, "run", "ClusterScheduler.run",
                  "cluster", self.count_service)
        self.wrap(stack, Workload, "run", "Workload.run", "engine",
                  self.count_engine_run)


# -- workloads ----------------------------------------------------------------


class Fig8Matrix:
    """The paper's Fig. 8: four applications x three executor policies."""

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.seed = seed
        self.scale = size["fig8_scale"]
        self.cells = [(app, label, policy) for app in FIG8_APPS
                      for label, policy in FIG8_POLICIES]

    def inputs(self) -> Dict[str, Any]:
        return {"seed": self.seed, "scale": self.scale,
                "cells": [[app, label] for app, label, _ in self.cells]}

    def run(self, probe: Probe, traced: bool) -> Dict[str, Any]:
        digests = {}
        for app, label, policy in self.cells:
            cell = f"{app}/{label}"
            with probe.span("run_workload", "harness", cell):
                run = run_workload(app, policy=policy,
                                   workload_kwargs={"scale": self.scale},
                                   seed=self.seed)
            with probe.unprofiled():
                digests[cell] = run_digest(run)
            del run  # so one run's memory never overlaps the next's
        return {"wall_s": probe.total("run_workload"),
                "runs": len(self.cells), "jobs": len(self.cells),
                "digests": digests, "errors": {}}

    def extras(self) -> Dict[str, Any]:
        return {}


class Serve:
    """``run_service`` on a multi-tenant arrival plan, optionally chaotic.

    Arrivals are a Poisson process conditioned on its job count: each
    tenant gets exactly ``jobs_per_tenant`` uniform arrival times over the
    horizon.  The scheduler's cost grows with queue length, so a free job
    count would make the seed, not the code, the main source of spread.
    """

    def __init__(self, seed: int, size: Dict[str, Any], chaos: bool) -> None:
        self.seed = seed
        self.chaos = chaos
        self.rate = 0.05 if chaos else 0.1
        self.discipline = "wfair" if chaos else "fair"
        self.per_tenant = size["jobs_per_tenant"]
        self.plan = self.arrival_plan(self.per_tenant)
        self.fault_plan_doc = self.chaos_plan() if chaos else None

    def arrival_plan(self, per_tenant: int) -> ArrivalPlan:
        horizon = per_tenant / self.rate
        base = poisson_plan(tenants=4, rate=self.rate, horizon=horizon,
                            scale=0.05, slots=2, policy="dynamic",
                            seed=self.seed)
        rng = random.Random(f"arrivals/{self.seed}")
        tenants = tuple(
            replace(tenant, process=("trace", tuple(sorted(
                rng.uniform(0.0, horizon) for _ in range(per_tenant)))))
            for tenant in base.tenants
        )
        return replace(base, tenants=tenants)

    def chaos_plan(self) -> Dict[str, Any]:
        """30 node-churn episodes, 20 slot flaps, tenant0 poisoned."""
        horizon = self.plan.horizon
        rng = random.Random(f"chaos/{self.seed}")
        churn = [NodeChurn(node_id=rng.randrange(SERVE_NODES),
                           down_at=rng.uniform(0.0, horizon),
                           duration=rng.uniform(60.0, 600.0))
                 for _ in range(30)]
        flaps = [SlotFlap(node_id=rng.randrange(SERVE_NODES),
                          at=rng.uniform(0.0, horizon),
                          duration=rng.uniform(30.0, 300.0))
                 for _ in range(20)]
        cluster = ClusterFaults(
            node_churn=churn,
            slot_flaps=flaps,
            poison=[TenantPoison(tenant="tenant0", probability=0.05,
                                 max_poisoned=self.per_tenant)],
            protection=ProtectionConfig(max_retries=3, breaker_failures=5,
                                        max_queue=1024),
        )
        return FaultPlan(seed=self.seed, cluster=cluster).to_dict()

    def inputs(self) -> Dict[str, Any]:
        return {"plan": self.plan.to_dict(), "faults": self.fault_plan_doc,
                "discipline": self.discipline, "nodes": SERVE_NODES}

    def serve(self, probe: Probe, plan: ArrivalPlan):
        with probe.span("run_service", "harness"):
            return run_service(plan, SERVE_NODES, self.discipline,
                               fault_plan_doc=self.fault_plan_doc)

    def run(self, probe: Probe, traced: bool) -> Dict[str, Any]:
        report = self.serve(probe, self.plan)
        doc = report.to_dict()
        errors = []
        with probe.unprofiled():
            try:
                validate_report(doc)
            except ValueError as exc:
                errors.append(f"validate_report: {exc}")
            offline = validate_service_report(doc)
            if not offline.ok:
                errors.append(f"validate_service_report: {offline.summary()}")
            digest = sha256_json(doc)
        totals = doc["totals"]
        return {"wall_s": probe.total("run_service"),
                "runs": totals["distinct_engine_runs"],
                "jobs": totals["submitted"],
                "digests": {"report": digest},
                "errors": {"report": errors} if errors else {}}

    def extras(self) -> Dict[str, Any]:
        """The same plan at a quarter of the jobs, for the scaling ratio."""
        quarter = Probe(pass_id=0)
        plan = self.arrival_plan(self.per_tenant // 4)
        with contextlib.ExitStack() as stack:
            quarter.instrument(stack)
            report = self.serve(quarter, plan)
        return {"quarter_jobs": report.to_dict()["totals"]["submitted"],
                "quarter_sched_s": quarter.total("ClusterScheduler.run")}


class SweepWhatIf:
    """Paper-suite harness paths: a pooled static sweep with per-point
    outputs, then a forked what-if ensemble."""

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.seed = seed
        self.scale = size["sweep_scale"]
        self.at = size["whatif_at"]
        self.alternatives = [
            Alternative(key=f"reseed={index}", kind="reseed",
                        value=str(index))
            for index in range(WHATIF_ALTERNATIVES)
        ]

    def inputs(self) -> Dict[str, Any]:
        return {"seed": self.seed, "scale": self.scale, "at": self.at,
                "threads": list(SWEEP_THREADS),
                "alternatives": [a.key for a in self.alternatives]}

    def sweep(self, parallel: int, outdir: Optional[str] = None,
              in_process: bool = False):
        kwargs: Dict[str, Any] = {}
        if outdir is not None:
            def events(threads: int) -> str:
                return os.path.join(outdir, f"events.t{threads}.jsonl")

            def profile(threads: int) -> str:
                return os.path.join(outdir, f"profile.t{threads}.json")

            if in_process:
                # The in-process sweep takes tracers, not paths; build the
                # same sinks a pool worker builds for a config.
                kwargs["tracer_factory"] = lambda threads: build_run_tracer(
                    RunConfig(workload="terasort",
                              events_path=events(threads),
                              profile_path=profile(threads)))[0]
            else:
                kwargs["events_path_factory"] = events
                kwargs["profile_path_factory"] = profile
        return static_sweep("terasort", SWEEP_THREADS,
                            workload_kwargs={"scale": self.scale},
                            parallel=parallel, seed=self.seed, **kwargs)

    def run(self, probe: Probe, traced: bool) -> Dict[str, Any]:
        os.makedirs(OUT_DIR, exist_ok=True)
        outdir = tempfile.mkdtemp(prefix="sweep.", dir=OUT_DIR)
        try:
            # The traced pass runs every point in-process so the profiler
            # sees the work the pool children would do.
            with probe.span("static_sweep", "harness"):
                points = self.sweep(1 if traced else 2, outdir,
                                    in_process=traced)
            with probe.span("run_whatif", "harness"):
                report = run_whatif(
                    "terasort", at=self.at, alternatives=self.alternatives,
                    policy="dynamic", workload_kwargs={"scale": self.scale},
                    parallel=2, use_fork=False if traced else None,
                    seed=self.seed)
            with probe.unprofiled():
                digests = {}
                for threads in SWEEP_THREADS:
                    digests[f"sweep/t{threads}"] = run_digest(
                        points[threads],
                        os.path.join(outdir, f"events.t{threads}.jsonl"))
                whatif = report.to_dict()
                whatif.pop("forked")  # how it ran, not what it simulated
                digests["whatif"] = sha256_json(whatif)
                if probe.counts is not None:
                    probe.add("observability.bytes_written", sum(
                        os.path.getsize(os.path.join(outdir, name))
                        for name in os.listdir(outdir)))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return {"wall_s": (probe.total("static_sweep")
                           + probe.total("run_whatif")),
                "runs": len(SWEEP_THREADS) + len(self.alternatives),
                "jobs": len(SWEEP_THREADS) + len(self.alternatives),
                "digests": digests, "errors": {}}

    def extras(self) -> Dict[str, Any]:
        """Sweep walls without outputs: sequential in-process vs pool."""
        start = time.perf_counter()
        self.sweep(1)
        sequential = time.perf_counter() - start
        start = time.perf_counter()
        self.sweep(2)
        pool = time.perf_counter() - start
        return {"sequential_sweep_s": sequential, "pool_sweep_s": pool}


WORKLOADS: Dict[str, Callable[[int, Dict[str, Any]], Any]] = {
    "fig8-matrix": Fig8Matrix,
    "serve-fair": lambda seed, size: Serve(seed, size, chaos=False),
    "serve-chaos": lambda seed, size: Serve(seed, size, chaos=True),
    "sweep-whatif": SweepWhatIf,
}


# -- per-layer attribution ----------------------------------------------------

_PACKAGE = os.path.realpath(os.path.dirname(repro.__file__)) + os.sep


def layer_of(filename: str) -> str:
    """``src/repro/<layer>/...`` -> layer; the simulation package splits
    into ``resources`` (resources.py + kernel/) and ``core`` (the rest).
    Stdlib, builtins and top-level ``repro`` modules are ``other``."""
    path = os.path.realpath(filename)
    if not path.startswith(_PACKAGE):
        return "other"
    parts = path[len(_PACKAGE):].split(os.sep)
    if len(parts) == 1:
        return "other"
    if parts[0] == "simulation":
        if parts[1] in ("resources.py", "kernel"):
            return "simulation.resources"
        return "simulation.core"
    return parts[0]


def self_time_by_layer(profiler: cProfile.Profile) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    layers: Dict[str, str] = {}
    stats = pstats.Stats(profiler).stats
    for (filename, _line, _func), entry in stats.items():
        layer = layers.get(filename)
        if layer is None:
            layer = layers[filename] = layer_of(filename)
        totals[layer] = totals.get(layer, 0.0) + entry[2]  # tottime
    return dict(sorted(totals.items()))


def peak_rss_mb() -> float:
    """Max RSS of this process and of any child it waited for, in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size])
    inputs_sha256 = sha256_json(workload.inputs())
    print("ready", flush=True)

    probe = Probe(args.pass_id)
    profiler = cProfile.Profile() if args.traced else None
    with contextlib.ExitStack() as stack:
        probe.instrument(stack)
        if profiler is not None:
            probe.counts = {name: 0 for name in COUNT_NAMES}
            probe.profiler = profiler
            profiler.enable()
        outcome = workload.run(probe, args.traced)
        if profiler is not None:
            profiler.disable()
            probe.profiler = None
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "pass": args.pass_id,
        "traced": args.traced,
        "inputs_sha256": inputs_sha256,
        **outcome,
        "spans": probe.spans,
        "peak_rss_mb": peak_rss_mb(),
    }
    if profiler is not None:
        result["self_s"] = self_time_by_layer(profiler)
        result["counts"] = probe.counts
        result["extras"] = workload.extras()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
