"""Per-second resource sampling while stages run.

The service keeps cumulative-counter snapshots per node and, once per
simulated second during a stage, converts counter deltas into utilisation
and throughput rates -- the same windowed view ``mpstat``/``iostat`` give
the paper's authors.

When demand profiling is on (``ctx.profiling``; see
:mod:`repro.observability.profiler`), the same tick also emits one
``cat="profile"`` counter event per node with the full multi-resource
vector (CPU share, disk read/write bandwidth, NIC in/out, queue depths).
The NIC/queue readings come from the non-mutating
:meth:`~repro.simulation.resources.FairShareResource.sample_counters`
extrapolation, so the probe never perturbs the event timeline; with
profiling off, no probe state is even snapshotted and logs stay
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.engine.metrics import ResourceSample


@dataclass
class _NodeSnapshot:
    time: float
    cpu_occupancy: float
    disk_busy: float
    disk_read: float
    disk_write: float
    # Profiling-only extras (left at zero when ctx.profiling is off).
    nic_out: float = 0.0
    nic_in: float = 0.0
    disk_conc: float = 0.0
    cpu_conc: float = 0.0


class MonitoringService:
    """Drives per-second sampling of every node during stage execution."""

    def __init__(self, ctx, interval: float = 1.0, enabled: bool = True) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.ctx = ctx
        self.interval = interval
        self.enabled = enabled
        self._active_stage_id: Optional[int] = None
        self._snapshots: Dict[int, _NodeSnapshot] = {}
        self._loop_running = False

    # -- stage hooks (called by the task scheduler) ---------------------------

    def start_stage(self, stage, record) -> None:
        if not self.enabled:
            return
        self._active_stage_id = stage.stage_id
        self._reset_snapshots()
        if not self._loop_running:
            self._loop_running = True
            self._schedule_next()

    def end_stage(self, stage, record) -> None:
        if not self.enabled:
            return
        # Take one final window so short stages get at least one sample.
        self._sample_all()
        self._active_stage_id = None

    # -- sampling loop -----------------------------------------------------------

    def _schedule_next(self) -> None:
        self.ctx.sim.call_in(self.interval, self._tick)

    def _tick(self) -> None:
        if self._active_stage_id is None or not self.ctx.sim.queued:
            # Stage ended (or gap between stages): let the loop die; it is
            # restarted by the next start_stage call.  A stage with nothing
            # else queued has stalled: re-arming would tick the clock on
            # forever instead of letting the job report its deadlock.
            self._loop_running = False
            return
        self._sample_all()
        self._schedule_next()

    def _reset_snapshots(self) -> None:
        for node in self.ctx.cluster.nodes:
            self._snapshots[node.node_id] = self._snapshot(node)

    def _snapshot(self, node) -> _NodeSnapshot:
        node.cpu.sync()
        node.disk.sync()
        snapshot = _NodeSnapshot(
            time=self.ctx.sim.now,
            cpu_occupancy=node.cpu.stats.occupancy_integral,
            disk_busy=node.disk.stats.busy_time,
            disk_read=node.disk.bytes_read,
            disk_write=node.disk.bytes_written,
        )
        if getattr(self.ctx, "profiling", False):
            fabric = self.ctx.cluster.fabric
            snapshot.nic_out = fabric.egress(node.node_id).sample_bytes()
            snapshot.nic_in = fabric.ingress(node.node_id).sample_bytes()
            snapshot.disk_conc = node.disk.stats.concurrency_integral
            snapshot.cpu_conc = node.cpu.stats.concurrency_integral
        return snapshot

    def _sample_all(self) -> None:
        profiling = getattr(self.ctx, "profiling", False)
        for node in self.ctx.cluster.nodes:
            previous = self._snapshots.get(node.node_id)
            current = self._snapshot(node)
            self._snapshots[node.node_id] = current
            if previous is None:
                continue
            elapsed = current.time - previous.time
            if elapsed <= 0:
                continue
            cpu_util = (
                (current.cpu_occupancy - previous.cpu_occupancy)
                / (node.cpu.cores * elapsed)
            )
            disk_util = min(
                1.0, (current.disk_busy - previous.disk_busy) / elapsed
            )
            disk_read_bps = (current.disk_read - previous.disk_read) / elapsed
            disk_write_bps = (
                (current.disk_write - previous.disk_write) / elapsed
            )
            self.ctx.recorder.samples.append(
                ResourceSample(
                    time=current.time,
                    node_id=node.node_id,
                    stage_id=self._active_stage_id,
                    cpu_utilization=cpu_util,
                    disk_utilization=disk_util,
                    disk_read_rate=disk_read_bps,
                    disk_write_rate=disk_write_bps,
                )
            )
            if profiling:
                self.ctx.tracer.counter(
                    "profile", f"node{node.node_id}", cpu_util,
                    node_id=node.node_id,
                    stage_id=(
                        self._active_stage_id
                        if self._active_stage_id is not None else -1
                    ),
                    window=elapsed,
                    cpu_util=cpu_util,
                    disk_util=disk_util,
                    disk_read_bps=disk_read_bps,
                    disk_write_bps=disk_write_bps,
                    nic_out_bps=(current.nic_out - previous.nic_out) / elapsed,
                    nic_in_bps=(current.nic_in - previous.nic_in) / elapsed,
                    disk_queue=(
                        (current.disk_conc - previous.disk_conc) / elapsed
                    ),
                    cpu_queue=(current.cpu_conc - previous.cpu_conc) / elapsed,
                )
