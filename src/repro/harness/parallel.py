"""Parallel execution of independent simulation runs.

A sweep or comparison replays dozens of fully independent deterministic
runs; on a multi-core host there is no reason to run them one after the
other.  This module fans runs out over a :class:`~concurrent.futures.
ProcessPoolExecutor` while keeping two properties the harness relies on:

* **Determinism.**  Each run is seeded and self-contained, and results are
  returned in the order their configs were submitted (``Executor.map``
  semantics), so a parallel sweep produces byte-for-byte the same report as
  a sequential one.
* **Picklability.**  A :class:`RunConfig` is plain data (names, numbers,
  dicts) and a :class:`RunSummary` carries the full
  :class:`~repro.engine.metrics.RunRecorder` -- everything the figure
  pipeline reads -- but not the live simulator, whose generator-based
  processes cannot cross a process boundary.

``parallel <= 1`` runs everything in-process (no pool, no pickling), which
is also the fallback for the interactive default.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.metrics import RunRecorder, StageRecord


def resolve_parallel(parallel: Optional[int]) -> int:
    """Normalise a ``--parallel`` value: ``0``/``None`` means all cores."""
    if not parallel:
        return os.cpu_count() or 1
    if parallel < 0:
        raise ValueError(f"parallel must be >= 0, got {parallel}")
    return parallel


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every harness pool uses: ``fork``.

    Pinned explicitly rather than trusting the platform default: ``fork``
    workers start in milliseconds from the parent's warm interpreter (no
    re-import, no re-pickle of module state), which keeps parallel-sweep
    startup consistent with the copy-on-write fork engine
    (:mod:`repro.harness.fork`).  On platforms without the ``fork`` start
    method (Windows; macOS deprecations notwithstanding, ``fork`` is still
    registered there) we fall back to ``spawn`` with a warning -- runs stay
    correct, worker startup just costs a fresh interpreter each.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        warnings.warn(
            "multiprocessing 'fork' start method unavailable on this "
            "platform; falling back to 'spawn' (slower worker startup)",
            RuntimeWarning,
            stacklevel=2,
        )
        return multiprocessing.get_context("spawn")


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


def build_run_tracer(config: RunConfig):
    """``(tracer, profiler)`` for one config's requested outputs (or Nones).

    Shared by the pool worker entry point below and the fork engine's
    children (:mod:`repro.harness.fork`), so a forked run writes exactly
    the files a pooled run with the same config would.
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
    """The picklable summary of a finished run (pool and fork paths)."""
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
    """Run one config to completion; the pool's worker entry point.

    Imports stay inside the function so a worker only pays for what the
    run actually uses (and so this module stays import-light for the
    parent process).
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


def map_runs(configs: List[RunConfig], parallel: int = 1) -> List[RunSummary]:
    """Execute every config; results come back in submission order.

    With ``parallel > 1`` the configs are spread over a process pool (capped
    at the number of configs -- idle workers are pure fork overhead); with
    ``parallel <= 1`` they run sequentially in-process, bit-identically to
    the pool path because each run owns a private simulator either way.
    """
    configs = list(configs)
    if parallel <= 1 or len(configs) <= 1:
        return [execute_run_config(config) for config in configs]
    workers = min(parallel, len(configs))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=pool_context()) as pool:
        return list(pool.map(execute_run_config, configs))


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


class QuarantinedConfigError(RuntimeError):
    """A config exhausted its retry budget (or was already quarantined)."""

    def __init__(self, config: RunConfig, attempts: int, reason: str) -> None:
        super().__init__(
            f"config key={config.key!r} quarantined after {attempts} "
            f"failed attempt(s): {reason}"
        )
        self.config = config
        self.attempts = attempts
        self.reason = reason


def _durable_worker(index: int, config: RunConfig, queue) -> None:
    """Worker entry point: always report back, success or failure."""
    try:
        summary = execute_run_config(config)
    except BaseException as exc:  # a worker must never die silently
        queue.put((index, False, f"{type(exc).__name__}: {exc}"))
    else:
        queue.put((index, True, summary))


class _Attempt:
    """One config's position in the retry state machine."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.failures = 0
        self.ready_at = 0.0  # wall-clock time the next attempt may start
        self.last_reason = ""


def map_runs_durable(
    configs: List[RunConfig],
    parallel: int = 1,
    journal=None,
    resume: bool = False,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    backoff: float = 0.5,
    stop_after: Optional[int] = None,
    allow_quarantine: bool = False,
) -> List[Optional[RunSummary]]:
    """:func:`map_runs` with a crash-safe journal around every point.

    * Each finished run is journaled atomically before the next one starts,
      so a killed sweep loses at most the points in flight.
    * With ``resume=True``, configs whose fingerprint is already journaled
      are **not** re-run; their summaries are rebuilt from the journal and
      the aggregate output is byte-identical to an uninterrupted run.
    * ``timeout`` arms a per-run watchdog: a worker that exceeds it is
      killed and counted as a failure.
    * Failures (crash or timeout) are retried with bounded exponential
      backoff (``backoff * 2**(failures-1)`` seconds, up to
      ``max_attempts`` attempts); a config that keeps failing is
      quarantined in the journal and raises :class:`QuarantinedConfigError`
      unless ``allow_quarantine`` is set, in which case its slot in the
      result list is ``None``.
    * ``stop_after`` ends the sweep after that many *new* completions by
      raising :class:`SweepInterrupted` (the CI resume smoke test's hook
      for "kill the sweep mid-flight").

    Results come back in config order.  The watchdog needs real worker
    processes, so ``timeout`` requires ``parallel >= 1`` workers even for a
    sequential sweep; without a timeout and with ``parallel <= 1``
    everything runs in-process exactly like :func:`map_runs`.
    """
    from repro.harness.journal import config_fingerprint

    configs = list(configs)
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    fingerprints = [config_fingerprint(config) for config in configs]
    results: List[Optional[RunSummary]] = [None] * len(configs)
    pending: List[int] = []
    for index, fingerprint in enumerate(fingerprints):
        # Explicit None checks: the journal's __len__ counts successful
        # runs, so an empty-but-present journal is falsy.
        journaled = (journal.get_run(fingerprint)
                     if journal is not None else None)
        if resume and journaled is not None:
            results[index] = summary_from_doc(journaled)
            continue
        quarantined = (journal.get_quarantine(fingerprint)
                       if journal is not None else None)
        if resume and quarantined is not None:
            if not allow_quarantine:
                raise QuarantinedConfigError(
                    configs[index], quarantined.get("attempts", 0),
                    quarantined.get("reason", "quarantined"),
                )
            continue
        pending.append(index)

    completed_new = 0

    def _record(index: int, summary: RunSummary) -> None:
        nonlocal completed_new
        results[index] = summary
        if journal is not None:
            journal.record_run(fingerprints[index], summary_to_doc(summary))
        completed_new += 1
        if stop_after is not None and completed_new >= stop_after:
            raise SweepInterrupted(completed_new, len(configs))

    def _quarantine(index: int, attempts: int, reason: str) -> None:
        if journal is not None:
            journal.record_quarantine(fingerprints[index], attempts, reason)
        if not allow_quarantine:
            raise QuarantinedConfigError(configs[index], attempts, reason)

    if timeout is None and parallel <= 1:
        # In-process fast path: same execution as map_runs/sequential
        # sweeps, so resumed aggregates can be compared byte for byte.
        for index in pending:
            failures = 0
            while True:
                try:
                    summary = execute_run_config(configs[index])
                except SweepInterrupted:
                    raise
                except Exception as exc:
                    failures += 1
                    reason = f"{type(exc).__name__}: {exc}"
                    if failures >= max_attempts:
                        _quarantine(index, failures, reason)
                        break
                    time.sleep(min(backoff * (2.0 ** (failures - 1)), 30.0))
                else:
                    _record(index, summary)
                    break
        return results

    _run_worker_pool(
        configs, pending, max(1, parallel), timeout, max_attempts, backoff,
        _record, _quarantine,
    )
    return results


def _run_worker_pool(configs, pending, parallel, timeout, max_attempts,
                     backoff, record, quarantine) -> None:
    """Watchdogged worker-process pool with retry/backoff scheduling."""
    mp = pool_context()
    queue: Any = mp.Queue()
    waiting = deque(_Attempt(index) for index in pending)
    running: Dict[int, tuple] = {}  # index -> (process, deadline, attempt)
    resolved: set = set()

    def _drain() -> List[tuple]:
        messages = []
        while True:
            try:
                messages.append(queue.get_nowait())
            except Exception:
                return messages

    def _handle(messages: List[tuple]) -> None:
        for index, ok, payload in messages:
            entry = running.pop(index, None)
            if entry is None or index in resolved:
                continue  # stale result from a worker we already killed
            process, _deadline, attempt = entry
            process.join()
            if ok:
                resolved.add(index)
                record(index, payload)
            else:
                _failed(attempt, str(payload))

    def _failed(attempt: _Attempt, reason: str) -> None:
        attempt.failures += 1
        attempt.last_reason = reason
        if attempt.failures >= max_attempts:
            resolved.add(attempt.index)
            quarantine(attempt.index, attempt.failures, reason)
            return
        delay = min(backoff * (2.0 ** (attempt.failures - 1)), 30.0)
        attempt.ready_at = time.monotonic() + delay
        waiting.append(attempt)

    try:
        while waiting or running:
            _handle(_drain())
            now = time.monotonic()
            for index, (process, deadline, attempt) in list(running.items()):
                if index in resolved or index not in running:
                    continue
                if deadline is not None and now >= deadline:
                    process.kill()
                    process.join()
                    running.pop(index, None)
                    _failed(attempt, f"timed out after {timeout:.1f}s")
                elif process.exitcode is not None:
                    # Dead without (yet) a result: give the queue's feeder
                    # thread one more chance to deliver before declaring a
                    # crash.
                    _handle(_drain())
                    if index in running and index not in resolved:
                        running.pop(index, None)
                        _failed(
                            attempt,
                            f"worker died with exit code {process.exitcode}",
                        )
            now = time.monotonic()
            launched = False
            for _ in range(len(waiting)):
                if len(running) >= parallel:
                    break
                attempt = waiting.popleft()
                if attempt.ready_at > now:
                    waiting.append(attempt)  # still backing off; rotate
                    continue
                process = mp.Process(
                    target=_durable_worker,
                    args=(attempt.index, configs[attempt.index], queue),
                )
                process.start()
                deadline = now + timeout if timeout is not None else None
                running[attempt.index] = (process, deadline, attempt)
                launched = True
            if (waiting or running) and not launched:
                time.sleep(0.01)
    finally:
        for process, _deadline, _attempt in running.values():
            if process.is_alive():
                process.kill()
            process.join()
