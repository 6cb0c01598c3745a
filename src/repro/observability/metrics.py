"""Central metrics registry: counters, gauges, histograms.

Instrumentation sites update metrics live (task completions, pool sizes,
MAPE-K intervals); :func:`collect_run_metrics` folds in end-of-run gauges
read from the simulated hardware (device bytes and busy time, NIC volume
and utilisation) and returns a deterministic snapshot -- keys sorted, plain
JSON-serialisable values -- suitable for the ``--json`` CLI mode and the
trailing ``metrics`` event of a trace.

Naming: this registry is the single naming authority for run metrics.  The
raw per-entity records (tasks, stages, intervals, samples) live in
:mod:`repro.engine.metrics`; everything aggregated under a *name* -- whether
by live instrumentation, :func:`collect_run_metrics`, or the demand profiler
-- uses the helpers below (:func:`node_metric`, :data:`METRIC_UNITS`) so
``repro profile`` and the trailing metrics event agree on names and units.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple


def node_metric(node_id: int, name: str) -> str:
    """Canonical per-node metric name: ``node.<id>.<name>``."""
    return f"node.{node_id}.{name}"


def nic_metric(node_id: int, direction: str, name: str) -> str:
    """Canonical NIC metric name: ``node.<id>.nic.<in|out>.<name>``."""
    return f"node.{node_id}.nic.{direction}.{name}"


def tenant_metric(tenant: str, name: str) -> str:
    """Canonical per-tenant service metric name: ``service.tenant.<t>.<name>``."""
    return f"service.tenant.{tenant}.{name}"


#: Units for the canonical metric families (documented in OBSERVABILITY.md;
#: shared vocabulary between ``collect_run_metrics`` and the profiler).
METRIC_UNITS: Dict[str, str] = {
    "disk.bytes_read": "bytes",
    "disk.bytes_written": "bytes",
    "disk.busy_seconds": "seconds",
    "cpu.core_seconds": "core-seconds",
    "nic.bytes": "bytes",
    "nic.utilization": "fraction",
    "tasks.duration": "seconds",
    "tasks.queue_delay": "seconds",
    "tasks.io_wait": "seconds",
    "stages.runtime": "seconds",
    "run.simulated_seconds": "seconds",
    "service.job_latency": "seconds",
    "service.queue_delay": "seconds",
    "service.jobs.submitted": "jobs",
    "service.jobs.completed": "jobs",
    "service.jobs.rejected": "jobs",
    "service.jobs.retried": "jobs",
    "service.jobs.shed": "jobs",
    "service.jobs.aborted": "jobs",
    "service.slo_violations": "violations",
    "service.breaker.opens": "transitions",
    "service.retry_backoff": "seconds",
    "service.mttr": "seconds",
}


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


def _geometric_edges(lo_exp: int = -9, hi_exp: int = 12) -> Tuple[float, ...]:
    """HDR-style fixed bucket upper edges: 1-2-5 per decade.

    Spans a nanosecond to a terabyte-per-second-ish dynamic range so one
    bucket layout serves durations, byte counts, and rates alike with a
    worst-case relative error of 2.5x inside a bucket (tight enough for
    p50/p99 reporting, and *fixed*, so two histograms built from the same
    observations -- live and replayed from a log -- are bit-identical).
    """
    edges: List[float] = []
    for exponent in range(lo_exp, hi_exp + 1):
        for mantissa in (1.0, 2.0, 5.0):
            edges.append(mantissa * 10.0 ** exponent)
    return tuple(edges)


#: Shared bucket layout for every histogram (module-level so the registry
#: never allocates per-instance edge tables).
BUCKET_EDGES: Tuple[float, ...] = _geometric_edges()


class Histogram:
    """Streaming distribution: count / sum / min / max / mean + percentiles.

    Observations land in fixed geometric buckets (:data:`BUCKET_EDGES`, an
    HDR-histogram-style 1-2-5-per-decade layout), so :meth:`percentile` is
    O(buckets) with bounded relative error and no per-observation storage.
    Values at or below a bucket's upper edge belong to that bucket (edges
    are inclusive upper bounds); values above the last edge land in one
    overflow bucket whose reported quantiles are clamped to the observed
    ``max``.

    Non-finite observations (ζ = inf on a zero-throughput interval) are
    counted separately instead of poisoning the sum.
    """

    __slots__ = ("count", "total", "min", "max", "non_finite", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.non_finite = 0
        #: Sparse bucket counts: edge index -> observations (len(BUCKET_EDGES)
        #: is the overflow bucket).
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            self.non_finite += 1
            return
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        index = bisect_left(BUCKET_EDGES, value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-quantile (``q`` in [0, 1]) by linear interpolation within
        the containing bucket, clamped to the observed [min, max] range (so
        a single-sample histogram reports that sample exactly)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0.0
        for index in sorted(self.buckets):
            lower = BUCKET_EDGES[index - 1] if index > 0 else 0.0
            upper = (
                BUCKET_EDGES[index] if index < len(BUCKET_EDGES) else self.max
            )
            n = self.buckets[index]
            if cumulative + n >= target:
                fraction = (target - cumulative) / n
                value = lower + fraction * (upper - lower)
                return min(self.max, max(self.min, value))
            cumulative += n
        return self.max  # pragma: no cover - unreachable (counts sum to count)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "non_finite": self.non_finite,
        }

    def summary(self) -> Dict[str, Any]:
        """The compact distribution doc embedded in demand profiles."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named metrics, created on first use, snapshot in sorted order."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, factory) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {
            name: metric.snapshot()
            for name, metric in sorted(self._metrics.items())
        }


def collect_run_metrics(ctx) -> Dict[str, Dict[str, Any]]:
    """End-of-run hardware gauges + the live registry, as one snapshot.

    ``ctx`` is a :class:`~repro.engine.context.SparkContext`; typed loosely
    to keep this package free of engine imports.
    """
    metrics = ctx.metrics
    runtime = ctx.recorder.total_runtime
    for node in ctx.cluster.nodes:
        node.disk.sync()
        node.cpu.sync()
        node_id = node.node_id
        metrics.gauge(node_metric(node_id, "disk.bytes_read")).set(
            node.disk.bytes_read
        )
        metrics.gauge(node_metric(node_id, "disk.bytes_written")).set(
            node.disk.bytes_written
        )
        metrics.gauge(node_metric(node_id, "disk.busy_seconds")).set(
            node.disk.stats.busy_time
        )
        metrics.gauge(node_metric(node_id, "cpu.core_seconds")).set(
            node.cpu.stats.occupancy_integral
        )
    fabric = ctx.cluster.fabric
    total_nic = 0.0
    for node_id in fabric.node_ids:
        for direction, link in (("out", fabric.egress(node_id)),
                                ("in", fabric.ingress(node_id))):
            metrics.gauge(nic_metric(node_id, direction, "bytes")).set(
                link.bytes_transferred
            )
            utilisation = (
                link.bytes_transferred / (link.capacity * runtime)
                if runtime > 0 else 0.0
            )
            metrics.gauge(nic_metric(node_id, direction, "utilization")).set(
                utilisation
            )
            total_nic += link.bytes_transferred
    metrics.gauge("network.bytes_total").set(total_nic)
    metrics.gauge("scheduler.control_messages").set(
        float(ctx.scheduler.channel.messages_sent)
    )
    metrics.gauge("run.simulated_seconds").set(runtime)
    metrics.gauge("run.stages").set(float(len(ctx.recorder.stages)))
    return metrics.snapshot()
