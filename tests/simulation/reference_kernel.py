"""Reference kernel for differential tests: the three-loop fair-share kernel.

These classes keep the kernel as it was before every membership change
became one pass over a resource's jobs:

* :class:`ReferenceSimulator` dispatches through its own ``step`` (one
  method call per entry) and queues :meth:`call_in` callbacks as
  ``_DeferredCall`` objects in 3-tuples.
* :class:`ReferenceFairShareResource` runs ``_advance``, a separate
  completion loop in ``_on_wake`` and a separate minimum scan in
  ``_reschedule``; the completion threshold is a three-way ``max`` per job.
* :class:`ReferenceStorageDevice` recomputes ``group_rate`` on every call,
  counts an op in before the advance, counts it out in a wrapper around
  each job's completion hook, and rescans the live set when both counts
  are set.  Its ``_start_transfer`` submits through that counting
  ``submit``, which the production transfer path skips.

The bodies are copied from the earlier code, with only the hooks the
removed vector backend needed (``_new_job``/``_admit``) inlined.  The
production kernel must reproduce these bit for bit; see
``test_kernel_differential.py``.  :func:`install` swaps the reference in
for whole engine runs.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, List, Optional

from repro.network.fabric import NetworkLink
from repro.simulation.core import SimulationError, Simulator
from repro.simulation.resources import (
    _ABSOLUTE_EPS,
    _RELATIVE_EPS,
    CpuResource,
    FairShareResource,
    Job,
)
from repro.storage.device import StorageDevice


class _DeferredCall:
    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], args: tuple) -> None:
        self.fn = fn
        self.args = args


class ReferenceSimulator(Simulator):
    """The event loop with per-entry :meth:`step` dispatch."""

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        if delay < 0:
            raise SimulationError(f"negative call_in delay: {delay!r}")
        self._sequence += 1
        heapq.heappush(
            self._queue, (self._now + delay, self._sequence, _DeferredCall(fn, args))
        )

    def step(self) -> None:
        when, _seq, call = heapq.heappop(self._queue)
        if when < self._now:
            raise SimulationError(
                f"simulated clock ran backwards: popped event at {when} "
                f"with the clock already at {self._now}"
            )
        self._now = when
        call.fn(*call.args)

    def run(self, until: Optional[float] = None,
            stop: Optional[Callable[[], bool]] = None) -> bool:
        if until is not None and until < self._now:
            raise SimulationError("`until` lies in the past")
        while self._queue:
            if stop is not None and stop():
                return False
            if until is not None and self._queue[0][0] > until:
                break
            self.step()
        if stop is not None and stop():
            return False
        if until is not None:
            self._now = until
        return True


class ReferenceFairShareResource(FairShareResource):
    """Fair-share mechanics as three separate loops."""

    def submit(self, work: float, tag: str, then: Callable[[Job], None],
               **attrs: Any) -> Job:
        if work < 0:
            raise SimulationError(f"negative work: {work}")
        if not math.isfinite(work):
            raise SimulationError(f"work must be finite, got {work}")
        job = Job(self, float(work), tag, attrs, then)
        if work == 0:
            then(job)
            return job
        self._advance()
        self._jobs.append(job)
        self._reschedule()
        return job

    def sync(self) -> None:
        self._advance()

    def notify_rates_changed(self) -> None:
        self._advance()
        self._reschedule()

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt <= 0:
            self._last_update = now
            return
        jobs = self._jobs
        if jobs:
            uniform = self.uniform_rate(len(jobs)) if self._uniform_hook else None
            rates = None if uniform is not None else self.rates(jobs)
            base_step = None if uniform is None else uniform * dt
            stats = self.stats
            work_by_tag = stats.work_by_tag
            moved = 0.0
            run_tag = ""
            run_total = 0.0
            for job in jobs:
                step = base_step if rates is None else rates[job] * dt
                if step > job.remaining:
                    step = job.remaining
                job.remaining -= step
                moved += step
                tag = job.tag
                if tag:
                    if tag != run_tag:
                        if run_tag:
                            work_by_tag[run_tag] = run_total
                        run_tag = tag
                        run_total = work_by_tag.get(tag, 0.0)
                    run_total += step
            if run_tag:
                work_by_tag[run_tag] = run_total
            stats.busy_time += dt
            stats.work_done += moved
            stats.concurrency_integral += len(jobs) * dt
            stats.occupancy_integral += self._occupied(len(jobs)) * dt
        self._last_update = now

    def _reschedule(self) -> None:
        self._wake_generation += 1
        jobs = self._jobs
        if not jobs:
            return
        generation = self._wake_generation
        uniform = self.uniform_rate(len(jobs)) if self._uniform_hook else None
        horizon = math.inf
        if uniform is not None:
            if uniform > 0:
                horizon = min(job.remaining for job in jobs) / uniform
        else:
            rates = self.rates(jobs)
            for job in jobs:
                rate = rates[job]
                if rate <= 0:
                    continue
                horizon = min(horizon, job.remaining / rate)
        if not math.isfinite(horizon):
            raise SimulationError(
                f"resource {self.name!r} has active jobs but zero service rate"
            )
        floor = max(1e-9, self.sim.now * 1e-11)
        self.sim.call_in(max(horizon, floor), self._on_wake, generation)

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return
        self._advance()
        jobs = self._jobs
        finished: List[Job] = []
        survivors: List[Job] = []
        if jobs:
            uniform = self.uniform_rate(len(jobs)) if self._uniform_hook else None
            rates = None if uniform is not None else self.rates(jobs)
            uniform_eps = 0.0 if uniform is None else uniform * 1e-6
            for job in jobs:
                threshold = max(
                    _ABSOLUTE_EPS,
                    job.work * _RELATIVE_EPS,
                    uniform_eps if rates is None else rates[job] * 1e-6,
                )
                if job.remaining <= threshold:
                    residual = job.remaining
                    if residual > 0.0:
                        stats = self.stats
                        stats.work_done += residual
                        if job.tag:
                            stats.work_by_tag[job.tag] = (
                                stats.work_by_tag.get(job.tag, 0.0) + residual
                            )
                    job.remaining = 0.0
                    finished.append(job)
                else:
                    survivors.append(job)
        self._jobs = survivors
        for job in finished:
            self.stats.jobs_completed += 1
            job.then(job)
        self._reschedule()


class ReferenceCpuResource(ReferenceFairShareResource, CpuResource):
    """:class:`CpuResource` rates on the reference mechanics."""


class ReferenceStorageDevice(ReferenceFairShareResource, StorageDevice):
    """:class:`StorageDevice` with unmemoised rates and lagging op counts."""

    def submit(self, work: float, tag: str, then: Callable[[Job], None],
               **attrs: Any) -> Job:
        op = attrs.get("op", "read")
        counts = self._op_counts
        counts[op] = counts.get(op, 0) + 1

        def release(job: Job) -> None:
            counts[op] -= 1
            then(job)

        return super().submit(work, tag, release, **attrs)

    def _start_transfer(self, size: float, op: str,
                        then: Callable[[float], None]) -> None:
        # Through this class's submit, which counts the op in.
        sim = self.sim
        self.submit(size, op, lambda _job: sim.call_in(0.0, then, size), op=op)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            depth = self.active_jobs
            tracer.counter(
                "device", self.name, float(depth),
                efficiency=self.profile.efficiency(op, max(1, depth)),
                op=op,
            )

    def group_rate(self, op: str, n: int) -> float:
        return (
            self.profile.rate(op)
            * self.profile.efficiency(op, n)
            * self.speed_factor
            / n
        )

    def rates(self, jobs: List[Job]) -> Dict[Job, float]:
        k = len(jobs)
        return {
            job: self.group_rate(job.attrs.get("op", "read"), k)
            for job in jobs
        }

    def uniform_rate(self, n: int) -> Optional[float]:
        counts = self._op_counts
        if counts["read"]:
            if counts["write"]:
                jobs = self._jobs
                op = jobs[0].attrs.get("op", "read")
                for job in jobs:
                    if job.attrs.get("op", "read") != op:
                        return None
            else:
                op = "read"
        else:
            op = "write"
        return self.group_rate(op, n)


class ReferenceNetworkLink(ReferenceFairShareResource, NetworkLink):
    """:class:`NetworkLink` on the reference mechanics."""


def install(monkeypatch) -> None:
    """Build every cluster on the reference kernel for the rest of a test."""
    monkeypatch.setattr("repro.cluster.cluster.Simulator", ReferenceSimulator)
    monkeypatch.setattr("repro.cluster.node.CpuResource", ReferenceCpuResource)
    monkeypatch.setattr("repro.cluster.node.StorageDevice",
                        ReferenceStorageDevice)
    monkeypatch.setattr("repro.network.fabric.NetworkLink",
                        ReferenceNetworkLink)
