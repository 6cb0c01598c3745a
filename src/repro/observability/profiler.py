"""Multi-resource demand profiler: utilization series and demand vectors.

The Elasecutor direction (ROADMAP) needs each executor's *time-varying,
multi-resource* demand -- CPU share, disk read/write bandwidth, NIC in/out,
queue depth -- not just the single ζ signal the MAPE-K loop consumes.  This
module derives exactly that from the trace-event stream:

* :class:`ProfilerSink` is a regular
  :class:`~repro.observability.sinks.TraceSink`.  Attached to a live tracer
  it profiles a run as it executes; fed a replayed event log
  (:func:`profile_events`) it produces **bit-identical** output, because the
  event stream is its only input and JSON floats round-trip exactly.
* Node-level series come from ``cat="profile"`` counter events emitted by
  the monitoring service once per sampling window *only when profiling is
  enabled* (``ctx.profiling``), so default event logs stay byte-identical.
* Executor-level series are rebuilt from task/io spans spread over a fixed
  sampling grid anchored at t=0, so no extra instrumentation is needed and
  plain ``--events`` logs (recorded without profiling) still profile.
* Per-stage **demand profiles** (peak/mean per resource, byte totals per
  I/O kind, duration) and task/stage distribution metrics (p50/p90/p99 via
  the registry's :class:`~repro.observability.metrics.Histogram`) are
  serialized to the versioned :data:`PROFILE_SCHEMA` JSON document.

Live attachment additionally flips ``ctx.profiling`` on, which routes task
duration / queueing delay / stage runtime through the metrics registry as
histograms (visible in the trailing ``metrics`` event) and turns on the
monitoring probe.  The profile *document*, however, is always computed from
events alone -- that is what makes live and offline runs agree byte for
byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.observability.events import (
    BEGIN,
    COUNTER,
    END,
    INSTANT,
    TraceEvent,
)
from repro.observability.metrics import Histogram
from repro.observability.sinks import TraceSink

#: Version marker at the head of every demand-profile document.
PROFILE_SCHEMA = "repro.profile/1"

#: Per-node rate/utilization keys carried by each ``profile`` counter event
#: (emitted by :class:`~repro.monitoring.sampler.MonitoringService`).
PROBE_KEYS = (
    "cpu_util",
    "disk_util",
    "disk_read_bps",
    "disk_write_bps",
    "nic_in_bps",
    "nic_out_bps",
    "disk_queue",
    "cpu_queue",
)


def _deposit(bins: Dict[int, float], start: float, end: float,
             total: float, interval: float) -> None:
    """Spread ``total`` work units uniformly over ``[start, end)``.

    ``bins`` maps grid index -> average rate (units/second) over that bin;
    the grid is anchored at t=0 with width ``interval``.  A zero-length
    span lands as an impulse in its containing bin.  Accumulation happens
    in event-stream order, which is identical live and replayed, so the
    resulting floats match bit for bit.
    """
    if end <= start:
        index = int(start // interval)
        bins[index] = bins.get(index, 0.0) + total / interval
        return
    rate = total / (end - start)
    first = int(start // interval)
    last = int(end // interval)
    for index in range(first, last + 1):
        lo = max(start, index * interval)
        hi = min(end, (index + 1) * interval)
        if hi > lo:
            bins[index] = bins.get(index, 0.0) + rate * (hi - lo) / interval


@dataclass
class _Aggregate:
    """Streaming peak/time-weighted-mean over windowed probe samples."""

    peak: float = 0.0
    weighted_sum: float = 0.0
    weight: float = 0.0

    def add(self, value: float, window: float) -> None:
        if value > self.peak:
            self.peak = value
        self.weighted_sum += value * window
        self.weight += window

    @property
    def mean(self) -> float:
        return self.weighted_sum / self.weight if self.weight > 0 else 0.0

    def to_doc(self) -> Dict[str, float]:
        return {"peak": self.peak, "mean": self.mean}


@dataclass
class _StageProfile:
    stage_id: int
    name: str
    io_marked: bool
    num_tasks: int
    start: float
    end: Optional[float] = None
    tasks_seen: int = 0
    io_bytes: Dict[str, float] = field(default_factory=dict)
    resources: Dict[str, _Aggregate] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0


@dataclass
class _ExecutorProfile:
    executor_id: int
    tasks: int = 0
    crashed_tasks: int = 0
    io_bytes: float = 0.0
    io_wait: float = 0.0
    active: Dict[int, float] = field(default_factory=dict)  # grid: avg tasks
    io_bps: Dict[int, float] = field(default_factory=dict)  # grid: bytes/s


class ProfilerSink(TraceSink):
    """Builds demand profiles from a trace-event stream.

    ``interval`` sets the sampling grid for the executor series (seconds of
    simulated time per bin).  ``out`` (optional) is a path where the demand
    profile JSON is written on :meth:`close` via
    :func:`~repro.atomicio.atomic_write_json` -- identical bytes live and
    offline.  ``trace_out`` (optional) writes Chrome counter tracks on
    close (see :func:`~repro.observability.chrome.write_counter_tracks`).
    """

    #: Marks this sink for ``ctx.profiling`` detection (see SparkContext).
    is_profiler = True

    def __init__(self, interval: float = 1.0, out: Optional[str] = None,
                 trace_out: Optional[str] = None) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.out = out
        self.trace_out = trace_out
        self.application: Dict[str, Any] = {}
        self.stages: List[_StageProfile] = []
        self.executors: Dict[int, _ExecutorProfile] = {}
        self.histograms: Dict[str, Histogram] = {
            "tasks.duration": Histogram(),
            "tasks.queue_delay": Histogram(),
            "tasks.io_wait": Histogram(),
            "stages.runtime": Histogram(),
        }
        #: node_id -> [(ts, {probe key: value}), ...]
        self.node_samples: Dict[int, List[Tuple[float, Dict[str, float]]]] = {}
        self._open: Dict[int, TraceEvent] = {}
        self._stage_start: Dict[int, float] = {}
        self._stage_by_id: Dict[int, _StageProfile] = {}
        self._closed = False

    # -- sink interface ----------------------------------------------------

    def write(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == COUNTER:
            # Per-op device and per-flow network samples, a third of a
            # profiled run's events, stop at the category test.
            if event.cat == "profile":
                self._on_probe(event)
        elif kind == END:
            self._on_end(event)
        elif kind == BEGIN:
            self._on_begin(event)
        elif kind == INSTANT and event.cat == "app" \
                and event.name == "application-start":
            self.application = {
                key: event.args[key]
                for key in ("num_nodes", "cores_per_node", "device")
                if key in event.args
            }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.out:
            from repro.atomicio import atomic_write_json

            atomic_write_json(self.out, self.demand_profile())
        if self.trace_out:
            from repro.observability.chrome import write_counter_tracks

            write_counter_tracks(self.trace_out, self.counter_tracks())

    # -- event handling ----------------------------------------------------

    # Span categories are tested most frequent first: io, task, stage.

    def _on_begin(self, event: TraceEvent) -> None:
        cat = event.cat
        if cat == "io":
            self._open[event.span] = event
        elif cat == "task":
            self._open[event.span] = event
            stage_id = int(event.args.get("stage_id", -1))
            stage = self._stage_by_id.get(stage_id)
            if stage is not None:
                stage.tasks_seen += 1
            start = self._stage_start.get(stage_id)
            if start is not None:
                self.histograms["tasks.queue_delay"].observe(event.ts - start)
        elif cat == "stage":
            stage = _StageProfile(
                stage_id=int(event.args.get("stage_id", -1)),
                name=event.name,
                io_marked=bool(event.args.get("io_marked", False)),
                num_tasks=int(event.args.get("num_tasks", 0)),
                start=event.ts,
            )
            self.stages.append(stage)
            self._stage_by_id[stage.stage_id] = stage
            self._stage_start[stage.stage_id] = event.ts
            self._open[event.span] = event

    def _on_end(self, event: TraceEvent) -> None:
        begin = self._open.pop(event.span, None)
        if begin is None or event.args.get("killed"):
            # A killed attempt's task and io spans end without the work
            # completing: they add no task, duration or I/O bytes.
            return
        cat = begin.cat
        args = begin.args
        if cat == "io":
            executor = self._executor(int(args.get("executor_id", -1)))
            size = float(args.get("bytes", 0.0))
            executor.io_bytes += size
            _deposit(executor.io_bps, begin.ts, event.ts, size, self.interval)
            parent = self._open.get(begin.parent)
            if parent is not None and parent.cat == "task":
                stage = self._stage_by_id.get(
                    int(parent.args.get("stage_id", -1))
                )
                if stage is not None:
                    io_bytes = stage.io_bytes
                    kind = begin.name
                    io_bytes[kind] = io_bytes.get(kind, 0.0) + size
        elif cat == "task":
            executor = self._executor(int(args.get("executor_id", -1)))
            if event.args.get("crashed"):
                executor.crashed_tasks += 1
                return
            executor.tasks += 1
            duration = event.ts - begin.ts
            io_wait = float(event.args.get("io_wait", 0.0))
            executor.io_wait += io_wait
            self.histograms["tasks.duration"].observe(duration)
            self.histograms["tasks.io_wait"].observe(io_wait)
            _deposit(executor.active, begin.ts, event.ts, duration,
                     self.interval)
        elif cat == "stage":
            stage = self._stage_by_id.get(int(args.get("stage_id", -1)))
            if stage is not None and stage.end is None:
                stage.end = event.ts
                self.histograms["stages.runtime"].observe(stage.duration)

    def _on_probe(self, event: TraceEvent) -> None:
        args = event.args
        node_id = int(args.get("node_id", -1))
        window = float(args.get("window", self.interval))
        sample = {key: float(args.get(key, 0.0)) for key in PROBE_KEYS}
        self.node_samples.setdefault(node_id, []).append((event.ts, sample))
        stage = self._stage_by_id.get(int(args.get("stage_id", -1)))
        if stage is not None:
            for key, value in sample.items():
                aggregate = stage.resources.get(key)
                if aggregate is None:
                    aggregate = stage.resources[key] = _Aggregate()
                aggregate.add(value, window)

    def _executor(self, executor_id: int) -> _ExecutorProfile:
        profile = self.executors.get(executor_id)
        if profile is None:
            profile = self.executors[executor_id] = _ExecutorProfile(
                executor_id
            )
        return profile

    # -- outputs -----------------------------------------------------------

    def demand_profile(self) -> Dict[str, Any]:
        """The versioned demand-profile document (JSON-serialisable)."""
        node_docs = []
        for node_id in sorted(self.node_samples):
            samples = self.node_samples[node_id]
            aggregates: Dict[str, _Aggregate] = {}
            for _ts, sample in samples:
                for key, value in sample.items():
                    aggregate = aggregates.get(key)
                    if aggregate is None:
                        aggregate = aggregates[key] = _Aggregate()
                    aggregate.add(value, 1.0)
            node_docs.append({
                "node_id": node_id,
                "samples": len(samples),
                "resources": {key: aggregates[key].to_doc()
                              for key in sorted(aggregates)},
            })
        executor_docs = []
        for executor_id in sorted(self.executors):
            executor = self.executors[executor_id]
            executor_docs.append({
                "executor_id": executor_id,
                "tasks": executor.tasks,
                "crashed_tasks": executor.crashed_tasks,
                "io_bytes": executor.io_bytes,
                "io_wait_seconds": executor.io_wait,
                "peak_active_tasks": (
                    max(executor.active.values()) if executor.active else 0.0
                ),
                "peak_io_bps": (
                    max(executor.io_bps.values()) if executor.io_bps else 0.0
                ),
            })
        return {
            "schema": PROFILE_SCHEMA,
            "interval": self.interval,
            "application": dict(self.application),
            "stages": [
                {
                    "stage_id": stage.stage_id,
                    "name": stage.name,
                    "io_marked": stage.io_marked,
                    "num_tasks": stage.num_tasks,
                    "tasks_seen": stage.tasks_seen,
                    "start": stage.start,
                    "end": stage.end,
                    "duration": stage.duration,
                    "io_bytes": {kind: stage.io_bytes[kind]
                                 for kind in sorted(stage.io_bytes)},
                    "resources": {key: stage.resources[key].to_doc()
                                  for key in sorted(stage.resources)},
                }
                for stage in self.stages
            ],
            "executors": executor_docs,
            "nodes": node_docs,
            "distributions": {
                name: self.histograms[name].summary()
                for name in sorted(self.histograms)
                if self.histograms[name].count
            },
        }

    def executor_series(self) -> Dict[int, Dict[str, List[Tuple[float, float]]]]:
        """Per-executor grid series: ``{id: {metric: [(t, value), ...]}}``.

        ``t`` is the bin's left edge; ``active_tasks`` is the average task
        concurrency over the bin and ``io_bps`` the average I/O bandwidth.
        """
        series: Dict[int, Dict[str, List[Tuple[float, float]]]] = {}
        for executor_id in sorted(self.executors):
            executor = self.executors[executor_id]
            series[executor_id] = {
                "active_tasks": [
                    (index * self.interval, executor.active[index])
                    for index in sorted(executor.active)
                ],
                "io_bps": [
                    (index * self.interval, executor.io_bps[index])
                    for index in sorted(executor.io_bps)
                ],
            }
        return series

    def counter_tracks(self) -> Dict[str, List[Tuple[float, float]]]:
        """Chrome counter tracks: ``{track name: [(ts, value), ...]}``."""
        tracks: Dict[str, List[Tuple[float, float]]] = {}
        for node_id in sorted(self.node_samples):
            for key in PROBE_KEYS:
                track = [
                    (ts, sample[key])
                    for ts, sample in self.node_samples[node_id]
                    if key in sample
                ]
                if track:
                    tracks[f"node{node_id}.{key}"] = track
        for executor_id, metrics in self.executor_series().items():
            for key, track in metrics.items():
                if track:
                    tracks[f"exec{executor_id}.{key}"] = track
        return tracks


def profile_events(events: Iterable[TraceEvent], interval: float = 1.0,
                   out: Optional[str] = None,
                   trace_out: Optional[str] = None) -> ProfilerSink:
    """Offline profiling: replay ``events`` through a fresh sink.

    Returns the closed sink; its :meth:`~ProfilerSink.demand_profile` is
    byte-identical (after JSON serialization) to what a live sink attached
    to the originating run produces, because both consume the same event
    stream and JSON floats round-trip exactly.
    """
    sink = ProfilerSink(interval=interval, out=out, trace_out=trace_out)
    for event in events:
        sink.write(event)
    sink.close()
    return sink
