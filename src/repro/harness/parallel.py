"""Independent simulation runs: their picklable description and fan-out.

A sweep or comparison replays dozens of fully independent deterministic
runs.  :func:`map_runs` hands them to the supervised-child executor
(:func:`~repro.harness.supervise.supervise`), one forked child per run,
and keeps three properties the harness relies on:

* **Determinism.**  Each run is seeded and self-contained, and results
  come back in config order, so a parallel sweep produces byte-for-byte
  the same report as a sequential one.
* **Picklability.**  A :class:`RunConfig` is plain data (names, numbers,
  dicts) and a :class:`RunSummary` carries the full
  :class:`~repro.engine.metrics.RunRecorder` -- everything the figure
  pipeline reads -- but not the live simulator, whose queued
  continuations (bound methods and closures) cannot cross a process
  boundary.
* **Durability.**  With a :class:`~repro.harness.journal.SweepJournal`
  every finished run is journaled before the next one starts, ``resume``
  skips journaled runs, and ``stop_after`` stops the sweep early.

Runs execute in-process (no fork, no pickling) exactly when
``parallel <= 1`` and there is no ``timeout``; the retry and quarantine
rules are the same either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.metrics import RunRecorder, StageRecord
from repro.harness.supervise import (  # noqa: F401 - re-exported
    QuarantinedConfigError,
    resolve_parallel,
    supervise,
)


@dataclass(frozen=True)
class RunConfig:
    """One independent run, described entirely by picklable data.

    ``key`` is an opaque caller label (e.g. the sweep's thread count) echoed
    back on the matching :class:`RunSummary`.  ``policy`` uses the harness
    spec vocabulary (string or ``(kind, arg)`` tuple); callable specs cannot
    cross a process boundary and are rejected up front.
    """

    workload: str
    policy: Any = "default"
    key: Any = None
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    conf_overrides: Dict[str, Any] = field(default_factory=dict)
    cluster_kwargs: Dict[str, Any] = field(default_factory=dict)
    fault_plan_doc: Optional[Dict[str, Any]] = None
    events_path: Optional[str] = None
    trace_path: Optional[str] = None
    profile_path: Optional[str] = None
    profile_interval: float = 1.0

    def __post_init__(self) -> None:
        if callable(self.policy):
            raise ValueError(
                "callable policy specs cannot be executed in a worker "
                "process; use a string or (kind, arg) spec"
            )


@dataclass
class RunSummary:
    """The picklable slice of a :class:`~repro.workloads.WorkloadRun`.

    Duck-types the attributes the report/figure pipeline reads (``runtime``,
    ``stages``, ``stage_durations`` ...) so :func:`~repro.harness.runner.
    derive_bestfit` and the CLI renderers accept either type.  ``ctx`` is a
    minimal view exposing ``recorder`` for the monitoring analyses.
    """

    workload: str
    key: Any
    runtime: float
    recorder: RunRecorder
    cluster_io_bytes: float = 0.0
    #: The run's demand-profile document (``repro.profile/1``), present
    #: when the config requested profiling (``profile_path``).
    demand_profile: Optional[Dict[str, Any]] = None

    @property
    def stages(self) -> List[StageRecord]:
        return self.recorder.stages

    @property
    def num_stages(self) -> int:
        return len(self.recorder.stages)

    def stage_durations(self) -> List[float]:
        return [stage.duration for stage in self.recorder.stages]

    @property
    def ctx(self) -> "_RecorderView":
        return _RecorderView(self.recorder)


@dataclass(frozen=True)
class _RecorderView:
    """Stand-in for the bits of SparkContext that survive pickling."""

    recorder: RunRecorder


def suffix_path(path: str, suffix: str) -> str:
    """Insert ``suffix`` before the extension: out.jsonl -> out.t8.jsonl.

    How sweeps, comparisons and the service name one output file per run.
    """
    root, ext = os.path.splitext(path)
    return f"{root}.{suffix}{ext}" if ext else f"{path}.{suffix}"


def build_run_tracer(config: RunConfig):
    """``(tracer, profiler)`` for one config's requested outputs (or Nones).

    Shared by :func:`execute_run_config` and ``repro run``, so both write
    exactly the same files for the same outputs.
    """
    from repro.observability.chrome import ChromeTraceSink
    from repro.observability.profiler import ProfilerSink
    from repro.observability.sinks import JsonLinesSink
    from repro.observability.tracer import Tracer

    sinks = []
    if config.events_path:
        sinks.append(JsonLinesSink(config.events_path))
    if config.trace_path:
        sinks.append(ChromeTraceSink(config.trace_path))
    profiler = None
    if config.profile_path:
        profiler = ProfilerSink(interval=config.profile_interval,
                                out=config.profile_path)
        sinks.append(profiler)
    return (Tracer(sinks=sinks) if sinks else None), profiler


def summarize_run(run, key: Any, profiler=None) -> RunSummary:
    """The picklable summary of a finished run."""
    return RunSummary(
        workload=run.workload,
        key=key,
        runtime=run.runtime,
        recorder=run.ctx.recorder,
        cluster_io_bytes=run.cluster_io_bytes,
        demand_profile=(
            profiler.demand_profile() if profiler is not None else None
        ),
    )


def execute_run_config(config: RunConfig) -> RunSummary:
    """Run one config to completion; the child body of :func:`map_runs`.

    Imports stay inside the function so this module stays import-light;
    before the first fork the parent imports them once for all children.
    """
    from repro.faults.plan import FaultPlan
    from repro.harness.runner import finish_trace, run_workload

    tracer, profiler = build_run_tracer(config)

    fault_plan = None
    if config.fault_plan_doc is not None:
        fault_plan = FaultPlan.from_dict(config.fault_plan_doc)

    run = run_workload(
        config.workload,
        policy=config.policy,
        conf_overrides=dict(config.conf_overrides) or None,
        workload_kwargs=dict(config.workload_kwargs) or None,
        tracer=tracer,
        fault_plan=fault_plan,
        **dict(config.cluster_kwargs),
    )
    if tracer is not None:
        finish_trace(run)
    return summarize_run(run, config.key, profiler)


# -- crash-safe execution ---------------------------------------------------------


def summary_to_doc(summary: RunSummary) -> Dict[str, Any]:
    """Serialise a summary for the sweep journal (JSON-safe keys only)."""
    doc = {
        "workload": summary.workload,
        "key": summary.key,
        "runtime": summary.runtime,
        "cluster_io_bytes": summary.cluster_io_bytes,
        "recorder": summary.recorder.to_dict(),
    }
    if summary.demand_profile is not None:
        doc["demand_profile"] = summary.demand_profile
    return doc


def summary_from_doc(doc: Dict[str, Any]) -> RunSummary:
    """Rebuild a journaled summary; floats round-trip exactly through JSON,
    so aggregates over resumed points match an uninterrupted run bit for
    bit."""
    return RunSummary(
        workload=doc["workload"],
        key=doc["key"],
        runtime=doc["runtime"],
        recorder=RunRecorder.from_dict(doc["recorder"]),
        cluster_io_bytes=doc.get("cluster_io_bytes", 0.0),
        demand_profile=doc.get("demand_profile"),
    )


class SweepInterrupted(RuntimeError):
    """The sweep stopped early (``stop_after``); progress is journaled."""

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(
            f"stopped after {completed} new run(s) of {total} point(s); "
            f"progress is journaled -- rerun with --resume to finish"
        )
        self.completed = completed
        self.total = total


def _import_run_modules() -> None:
    """Import what a run's child imports, once, in the parent.

    Every forked child then shares those modules copy-on-write instead of
    importing them again on its own.
    """
    import repro.faults.plan  # noqa: F401
    import repro.harness.runner  # noqa: F401
    import repro.observability.chrome  # noqa: F401
    import repro.observability.profiler  # noqa: F401
    import repro.observability.sinks  # noqa: F401


def map_runs(
    configs: List[RunConfig],
    parallel: int = 1,
    *,
    journal=None,
    resume: bool = False,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    backoff: float = 0.5,
    stop_after: Optional[int] = None,
    allow_quarantine: bool = False,
) -> List[Optional[RunSummary]]:
    """Execute every config; results come back in config order.

    * With ``parallel > 1`` or a ``timeout`` each run gets its own forked
      child, at most ``parallel`` at once; otherwise runs execute
      in-process, bit-identically, because each run owns a private
      simulator either way.
    * A run that fails (raises, dies, or outlives ``timeout``) is retried
      with exponential backoff from ``backoff`` seconds, up to
      ``max_attempts`` attempts; then it is quarantined in the journal and
      raises :class:`QuarantinedConfigError`, or, with
      ``allow_quarantine``, leaves ``None`` in its slot.
    * With a ``journal`` each finished run is journaled atomically, so a
      killed sweep loses at most the runs in flight; ``resume=True``
      rebuilds journaled runs instead of re-running them, and the
      aggregate is byte-identical to an uninterrupted sweep.
    * ``stop_after`` raises :class:`SweepInterrupted` after that many
      *new* completions (the CI resume smoke test's "kill the sweep
      mid-flight").
    """
    configs = list(configs)
    results: List[Optional[RunSummary]] = [None] * len(configs)
    pending = list(range(len(configs)))
    fingerprints: List[str] = []
    if journal is not None:
        from repro.harness.journal import config_fingerprint

        fingerprints = [config_fingerprint(config) for config in configs]
        pending = []
        for index, fingerprint in enumerate(fingerprints):
            journaled = journal.get_run(fingerprint)
            if resume and journaled is not None:
                results[index] = summary_from_doc(journaled)
                continue
            quarantined = journal.get_quarantine(fingerprint)
            if resume and quarantined is not None:
                if not allow_quarantine:
                    raise QuarantinedConfigError(
                        configs[index], quarantined.get("attempts", 0),
                        quarantined.get("reason", "quarantined"),
                    )
                continue
            pending.append(index)

    completed_new = 0

    def on_result(slot: int, summary: RunSummary) -> None:
        nonlocal completed_new
        if journal is not None:
            journal.record_run(fingerprints[pending[slot]],
                               summary_to_doc(summary))
        completed_new += 1
        if stop_after is not None and completed_new >= stop_after:
            raise SweepInterrupted(completed_new, len(configs))

    def on_quarantine(slot: int, attempts: int, reason: str) -> None:
        journal.record_quarantine(fingerprints[pending[slot]], attempts,
                                  reason)

    in_process = parallel <= 1 and timeout is None
    if not in_process:
        _import_run_modules()
    summaries = supervise(
        [configs[index] for index in pending],
        execute_run_config,
        parallel=parallel,
        timeout=timeout,
        max_attempts=max_attempts,
        backoff=backoff,
        allow_quarantine=allow_quarantine,
        on_result=on_result,
        on_quarantine=on_quarantine if journal is not None else None,
        in_process=in_process,
    )
    for index, summary in zip(pending, summaries):
        results[index] = summary
    return results
