"""Fair-share resources with concurrency-dependent service rates.

This module implements the fluid-flow resource model used throughout the
simulator: a resource serves all active jobs simultaneously, and each job's
instantaneous rate is a function of the whole active set.  Whenever the active
set changes (a job arrives or completes), remaining work is advanced and the
next completion is rescheduled.

Concrete rate policies:

* :class:`CpuResource` -- ``cores`` capacity, each job demands one core, and
  jobs timeshare when oversubscribed (rate = min(1, cores / k)).
* Storage devices and network links subclass :class:`FairShareResource` in
  their own packages and provide rate curves with contention effects.

All resources keep cumulative counters (busy time, work done, concurrency
integral) that the monitoring package samples to produce iostat/mpstat-style
views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.simulation.core import SimulationError, Simulator

_RELATIVE_EPS = 1e-9
_ABSOLUTE_EPS = 1e-6


@dataclass
class ResourceStats:
    """Cumulative accounting for a fair-share resource.

    ``busy_time`` counts seconds during which at least one job was active,
    ``work_done`` accumulates completed work units (bytes for I/O devices,
    core-seconds for CPUs), and ``concurrency_integral`` is the time-integral
    of the active-job count, so ``concurrency_integral / elapsed`` gives the
    average queue depth over a window.
    """

    busy_time: float = 0.0
    work_done: float = 0.0
    concurrency_integral: float = 0.0
    occupancy_integral: float = 0.0
    jobs_completed: int = 0
    work_by_tag: Dict[str, float] = field(default_factory=dict)

    def snapshot(self) -> "ResourceStats":
        copy = ResourceStats(
            busy_time=self.busy_time,
            work_done=self.work_done,
            concurrency_integral=self.concurrency_integral,
            occupancy_integral=self.occupancy_integral,
            jobs_completed=self.jobs_completed,
        )
        copy.work_by_tag = dict(self.work_by_tag)
        return copy


class Job:
    """One unit of service demand submitted to a fair-share resource.

    ``then(job)`` is the job's completion hook.  The resource calls it
    directly at the instant service completes.
    """

    __slots__ = (
        "resource", "work", "remaining", "tag", "attrs", "then", "done_below",
    )

    def __init__(
        self,
        resource: "FairShareResource",
        work: float,
        tag: str,
        attrs: Dict[str, Any],
        then: Callable[["Job"], None],
    ) -> None:
        self.resource = resource
        self.work = work
        self.remaining = work
        self.tag = tag
        self.attrs = attrs
        self.then = then
        #: The rate-independent part of the completion threshold: residual
        #: work this small counts as done whatever the job's rate.  Fixed by
        #: the job's size, so it is computed once here rather than per wake.
        below = work * _RELATIVE_EPS
        self.done_below = below if below > _ABSOLUTE_EPS else _ABSOLUTE_EPS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(tag={self.tag!r}, work={self.work:.3g}, "
            f"remaining={self.remaining:.3g})"
        )


class FairShareResource:
    """A resource that serves every active job at a set-dependent rate.

    Subclasses override :meth:`rates` to define the sharing policy.  The
    default splits a fixed aggregate ``capacity`` equally among active jobs.
    """

    def __init__(self, sim: Simulator, name: str, capacity: float = 1.0) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.stats = ResourceStats()
        self._jobs: List[Job] = []
        self._last_update = sim.now
        self._wake_generation = 0
        #: The least remaining work over the active set as the last pass
        #: left it, so a pass at the same instant needs no rescan.
        self._least = math.inf
        #: The active set's pricing as :meth:`_reschedule` kept it: the
        #: shared rate, or (``_rate`` None) the per-job rates.  Only a
        #: membership change, which re-plans, or a ``speed_factor`` setter,
        #: which clears both, can change it.
        self._rate: Optional[float] = None
        self._rates: Optional[Dict[Job, float]] = None
        #: The largest ``done_below`` of any job admitted so far: residual
        #: work above it and above ``rate * 1e-6`` cannot be complete.
        self._below_cap = _ABSOLUTE_EPS
        #: Capacity units the active set can occupy at most (see
        #: :meth:`_occupied`).
        self._occupancy_cap = 1
        # The scalar fast path is only sound when rates() and uniform_rate()
        # describe the same policy.  A subclass that overrides rates() without
        # overriding uniform_rate() (a custom, possibly non-uniform curve)
        # silently keeps the allocation-free path disabled rather than
        # mispricing its jobs.
        cls = type(self)
        self._uniform_hook = (
            cls.rates is FairShareResource.rates
            or cls.uniform_rate is not FairShareResource.uniform_rate
        )
        # The default hooks are inlined into the passes.
        self._hooked = (cls._admit is not FairShareResource._admit
                        or cls._retire is not FairShareResource._retire)

    # -- rate policy -------------------------------------------------------

    def rates(self, jobs: List[Job]) -> Dict[Job, float]:
        """Per-job service rate (work units per second) for the active set."""
        share = self.capacity / len(jobs)
        return {job: share for job in jobs}

    def uniform_rate(self, n: int) -> Optional[float]:
        """The common per-job rate when all ``n`` active jobs are served
        equally, or ``None`` when rates differ across the set.

        This is the allocation-free twin of :meth:`rates`: the kernel's hot
        paths (`_advance`/`_reschedule`/`_on_wake`) call it first and only
        fall back to the per-job dict when it returns ``None``.  Overrides
        MUST compute the exact same float as :meth:`rates` would (same
        expression, same operation order) -- event logs are bit-compared
        across versions.
        """
        return self.capacity / n

    # -- public API --------------------------------------------------------

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def submit(self, work: float, tag: str, then: Callable[[Job], None],
               **attrs: Any) -> Job:
        """Submit ``work`` units; ``then(job)`` runs when service completes
        (at once, inside this call, for zero work)."""
        if work < 0:
            raise SimulationError(f"negative work: {work}")
        if not work < math.inf:
            raise SimulationError(f"work must be finite, got {work}")
        job = Job(self, float(work), tag, attrs, then)
        if work == 0:
            then(job)
            return job
        if self._jobs:
            least = self._advance()
        else:
            self._last_update = self.sim._now
            least = math.inf
        if self._hooked:
            self._admit(job)
        else:
            self._jobs.append(job)
        if job.done_below > self._below_cap:
            self._below_cap = job.done_below
        self._least = least = least if least < job.work else job.work
        self._reschedule(least)
        return job

    def _admit(self, job: Job) -> None:
        """Add a job to the active set (subclasses keep per-set counts)."""
        self._jobs.append(job)

    def _retire(self, finished: List[Job]) -> None:
        """Hook: ``finished`` just left the active set, before the
        completion horizon is re-planned.  The default keeps no state."""

    def sync(self) -> None:
        """Bring cumulative counters up to the current instant.

        Counters normally advance only when the active-job set changes;
        samplers must call this before reading ``stats`` or long-running
        transfers would appear as bursts at their completion events.
        """
        if self.sim._now > self._last_update:
            self._advance()

    def notify_rates_changed(self) -> None:
        """Re-plan in-flight jobs after an external rate change.

        The completion horizon is normally recomputed only when the active
        set changes; callers that mutate the rate function itself (e.g. a
        fault-injection episode scaling a device's ``speed_factor``) must
        call this so the next wake-up reflects the new rates.  Call
        :meth:`sync` *before* mutating -- ``_advance`` prices the elapsed
        interval at the current rate function, so mutating first would
        retroactively apply the new rate to work already performed.
        """
        self._reschedule(self._advance())

    @property
    def queue_depth(self) -> int:
        """Jobs currently in service (the fair-share queue is the service
        set; there is no separate wait queue in the fluid model)."""
        return len(self._jobs)

    def sample_counters(self) -> Dict[str, Any]:
        """Cumulative counters extrapolated to ``sim.now`` WITHOUT mutating.

        The profiler's sampling probe must not perturb the simulation:
        :meth:`sync` prices elapsed work into ``stats`` and splits float
        accumulations, which shifts completion horizons by ULPs and would
        make a profiled run's event timeline differ from an unprofiled
        one.  This read-only twin extrapolates in-flight service at the
        current rate function instead, leaving ``stats``, every
        ``job.remaining``, and ``_last_update`` untouched.  The returned
        ``work_by_tag`` is a fresh dict (the stats dict plus in-flight
        extrapolation), so the disk probe can split read/write bandwidth.
        """
        stats = self.stats
        counters: Dict[str, Any] = {
            "busy_time": stats.busy_time,
            "work_done": stats.work_done,
            "concurrency_integral": stats.concurrency_integral,
            "occupancy_integral": stats.occupancy_integral,
            "queue_depth": float(len(self._jobs)),
            "work_by_tag": dict(stats.work_by_tag),
        }
        jobs = self._jobs
        dt = self.sim._now - self._last_update
        if dt <= 0 or not jobs:
            return counters
        uniform = self.uniform_rate(len(jobs)) if self._uniform_hook else None
        rates = None if uniform is not None else self.rates(jobs)
        moved = 0.0
        work_by_tag = counters["work_by_tag"]
        for job in jobs:
            step = uniform * dt if rates is None else rates[job] * dt
            if step > job.remaining:
                step = job.remaining
            moved += step
            if job.tag:
                work_by_tag[job.tag] = work_by_tag.get(job.tag, 0.0) + step
        counters["busy_time"] += dt
        counters["work_done"] += moved
        counters["concurrency_integral"] += len(jobs) * dt
        counters["occupancy_integral"] += self._occupied(len(jobs)) * dt
        return counters

    # -- mechanics ---------------------------------------------------------
    #
    # Every membership change is one pass over the active set.  Bit identity
    # with the three-loop reference (advance, completion test, horizon scan;
    # tests/simulation/reference_kernel.py) rests on these facts: per-job
    # float expressions and the order of the accumulations are unchanged;
    # the horizon minimum is the least remaining work divided by the shared
    # rate, and correctly rounded division by a positive constant is
    # monotone; sub-threshold residuals are credited after the advance
    # totals, in list order, as the separate completion loop did.  A shared
    # step no larger than the least remaining work clamps no job, so each
    # job moves by exactly ``step`` and, correctly rounded subtraction being
    # monotone too, the new least is ``least - step``.  A pass reuses the
    # pricing :meth:`_reschedule` kept for the same set.
    #
    # Tag accounting is batched per *run* of equal tags (untagged jobs form
    # runs of ``""``, which are never written): the dict is read when the
    # run starts and written when it ends.  Flushing and re-reading keeps
    # the float, so an identity test on the tag is enough, and the keys
    # still appear in the order the tags first appear.

    def _price(self) -> None:
        """Keep the active set's shared rate, or its per-job rates."""
        jobs = self._jobs
        uniform = self.uniform_rate(len(jobs)) if self._uniform_hook else None
        self._rate = uniform
        self._rates = None if uniform is not None else self.rates(jobs)

    def _advance(self) -> float:
        """Price the time since the last update into every active job.

        Returns the least remaining work over the active set (``inf`` when
        idle): :meth:`submit` and :meth:`notify_rates_changed` hand it to
        :meth:`_reschedule` so the horizon needs no second scan.
        """
        now = self.sim._now
        dt = now - self._last_update
        self._last_update = now
        jobs = self._jobs
        if not jobs:
            return math.inf
        if dt <= 0:
            # Same instant as the last pass: nothing moved since then.
            return self._least
        if self._rate is None and self._rates is None:
            self._price()
        uniform = self._rate
        step = 0.0 if uniform is None else uniform * dt
        stats = self.stats
        work_by_tag = stats.work_by_tag
        moved = 0.0
        run_tag = ""
        run_total = 0.0
        if uniform is not None and step <= self._least:
            least = self._least - step
            for job in jobs:
                job.remaining -= step
                moved += step
                if job.tag is not run_tag:
                    if run_tag:
                        work_by_tag[run_tag] = run_total
                    run_tag = job.tag
                    run_total = work_by_tag.get(run_tag, 0.0)
                run_total += step
        else:
            rates = self._rates
            least = math.inf
            for job in jobs:
                if rates is not None:
                    step = rates[job] * dt
                remaining = job.remaining
                done = step if step <= remaining else remaining
                remaining -= done
                job.remaining = remaining
                moved += done
                if remaining < least:
                    least = remaining
                if job.tag is not run_tag:
                    if run_tag:
                        work_by_tag[run_tag] = run_total
                    run_tag = job.tag
                    run_total = work_by_tag.get(run_tag, 0.0)
                run_total += done
        if run_tag:
            work_by_tag[run_tag] = run_total
        n = len(jobs)
        stats.busy_time += dt
        stats.work_done += moved
        stats.concurrency_integral += n * dt
        cap = self._occupancy_cap
        stats.occupancy_integral += (n if n < cap else cap) * dt
        self._least = least
        return least

    def _occupied(self, active: int) -> float:
        """Capacity units in use while ``active`` jobs are served.

        The default cap (1) means "the device is busy"; :class:`CpuResource`
        caps at its core count so samplers can report mpstat-style
        utilisation.
        """
        return float(min(active, self._occupancy_cap))

    def _reschedule(self, least: float) -> None:
        """Schedule the next wake-up; ``least`` is the least remaining work
        over the active set (the uniform-rate horizon numerator)."""
        self._wake_generation += 1
        jobs = self._jobs
        if not jobs:
            return
        # :meth:`_price`, inline: this runs on every membership change.
        uniform = self.uniform_rate(len(jobs)) if self._uniform_hook else None
        self._rate = uniform
        horizon = math.inf
        if uniform is not None:
            self._rates = None
            if uniform > 0:
                horizon = least / uniform
        else:
            self._rates = rates = self.rates(jobs)
            for job in jobs:
                rate = rates[job]
                if rate > 0:
                    until = job.remaining / rate
                    if until < horizon:
                        horizon = until
        if not horizon < math.inf:
            raise SimulationError(
                f"resource {self.name!r} has active jobs but zero service rate"
            )
        # Floor the horizon above the float resolution of the clock: a job
        # with a sliver of residual work must not schedule a wake-up that
        # fails to advance `now`, or the loop would spin forever.
        sim = self.sim
        if not (horizon > 1e-9 and horizon > sim._now * 1e-11):
            horizon = max(1e-9, sim._now * 1e-11)
        sim.call_in(horizon, self._on_wake, self._wake_generation)

    def _on_wake(self, generation: int) -> None:
        """Advance, retire finished jobs and re-plan, in one pass.

        A live wake at the instant of the last pass (a ``sync`` just ran)
        steps every job by ``0.0``, which changes no float: each job went
        through a pass that moved time after the wake was planned, so its
        tag is already a ``work_by_tag`` key.
        """
        if generation != self._wake_generation:
            return  # superseded by a later membership change
        jobs = self._jobs
        now = self.sim._now
        dt = now - self._last_update
        self._last_update = now
        if self._rate is None and self._rates is None:
            self._price()
        uniform = self._rate
        stats = self.stats
        work_by_tag = stats.work_by_tag
        moved = 0.0
        least = math.inf
        run_tag = ""
        run_total = 0.0
        finished: List[Job] = []
        # A job is done when its residual work is negligible either
        # relative to its size or in time-to-finish terms (< 1 us):
        # ``remaining <= max(done_below, rate * 1e-6)``.
        if uniform is not None:
            step = uniform * dt
            eps = uniform * 1e-6
            # Residual work above ``cap`` was neither clamped nor is done.
            cap = self._below_cap if self._below_cap > eps else eps
            for job in jobs:
                remaining = job.remaining - step
                if remaining > cap:
                    done = step
                    job.remaining = remaining
                    if remaining < least:
                        least = remaining
                else:
                    remaining = job.remaining
                    done = step if step <= remaining else remaining
                    remaining -= done
                    job.remaining = remaining
                    below = job.done_below
                    if remaining <= (below if below >= eps else eps):
                        finished.append(job)
                    elif remaining < least:
                        least = remaining
                moved += done
                if job.tag is not run_tag:
                    if run_tag:
                        work_by_tag[run_tag] = run_total
                    run_tag = job.tag
                    run_total = work_by_tag.get(run_tag, 0.0)
                run_total += done
        else:
            rates = self._rates
            for job in jobs:
                rate = rates[job]
                step = rate * dt
                remaining = job.remaining
                done = step if step <= remaining else remaining
                remaining -= done
                job.remaining = remaining
                moved += done
                if job.tag is not run_tag:
                    if run_tag:
                        work_by_tag[run_tag] = run_total
                    run_tag = job.tag
                    run_total = work_by_tag.get(run_tag, 0.0)
                run_total += done
                below = job.done_below
                eps = rate * 1e-6
                if remaining <= (below if below >= eps else eps):
                    finished.append(job)
                elif remaining < least:
                    least = remaining
        if run_tag:
            work_by_tag[run_tag] = run_total
        n = len(jobs)
        stats.busy_time += dt
        stats.work_done += moved
        stats.concurrency_integral += n * dt
        cap = self._occupancy_cap
        stats.occupancy_integral += (n if n < cap else cap) * dt
        # Before the hooks run: a hook may submit here at this instant.
        self._least = least
        if finished:
            for job in finished:
                # Credit the sub-threshold residual before zeroing it:
                # force-finishing must not leak work out of the
                # conservation counters (bytes through a device must sum
                # to the bytes requested).  Scheduling is untouched --
                # stats never feed back into rates or horizons.
                residual = job.remaining
                if residual > 0.0:
                    stats.work_done += residual
                    tag = job.tag
                    if tag:
                        work_by_tag[tag] = work_by_tag.get(tag, 0.0) + residual
                job.remaining = 0.0
            # In place, in order (the order is the accumulation order):
            # the survivors are the jobs with work left.
            if len(finished) == 1:
                jobs.remove(finished[0])
            else:
                jobs[:] = [job for job in jobs if job.remaining]
            stats.jobs_completed += len(finished)
            if self._hooked:
                self._retire(finished)
            for job in finished:
                job.then(job)
        self._reschedule(least)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, active={len(self._jobs)})"


class CpuResource(FairShareResource):
    """A bank of CPU cores with processor-sharing semantics.

    Work is measured in *core-seconds*.  Each job demands at most one core;
    with ``k`` active jobs on ``cores`` cores every job runs at rate
    ``min(1, cores / k)``, which models the OS scheduler timeslicing threads
    once the core count is exceeded.  An optional ``speed_factor`` models
    per-node heterogeneity.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cores: int,
        speed_factor: float = 1.0,
    ) -> None:
        if cores <= 0:
            raise SimulationError(f"cores must be positive, got {cores}")
        super().__init__(sim, name, capacity=float(cores))
        self.cores = self._occupancy_cap = cores
        #: :meth:`uniform_rate` keyed by active count; setting
        #: ``speed_factor`` clears it.
        self._rate_memo: Dict[int, float] = {}
        self.speed_factor = speed_factor

    @property
    def speed_factor(self) -> float:
        return self._speed_factor

    @speed_factor.setter
    def speed_factor(self, value: float) -> None:
        self._speed_factor = value
        self._rate_memo.clear()
        self._rate = self._rates = None

    def rates(self, jobs: List[Job]) -> Dict[Job, float]:
        per_job = self.uniform_rate(len(jobs))
        return {job: per_job for job in jobs}

    def uniform_rate(self, n: int) -> Optional[float]:
        rate = self._rate_memo.get(n)
        if rate is None:
            rate = self._rate_memo[n] = (
                min(1.0, self.cores / n) * self._speed_factor)
        return rate

    def utilization(self, occupancy_before: float, elapsed: float) -> float:
        """CPU usage as mpstat would report it: occupied core-seconds over
        available core-seconds since the ``occupancy_before`` snapshot."""
        if elapsed <= 0:
            return 0.0
        available = self.cores * elapsed
        used = self.stats.occupancy_integral - occupancy_before
        return max(0.0, min(1.0, used / available))


class LatencyChannel:
    """A point-to-point message channel with fixed delivery latency.

    Used for the driver <-> executor control plane (task launch, completion
    and pool-resize notifications -- the messaging-protocol extension the
    paper describes in section 5.4).
    """

    def __init__(self, sim: Simulator, latency: float = 0.001) -> None:
        if latency < 0:
            raise SimulationError("latency must be non-negative")
        self.sim = sim
        self.latency = latency
        self.messages_sent = 0

    def send(self, handler, message: Any) -> None:
        """Deliver ``message`` to ``handler(message)`` after the latency."""
        self.messages_sent += 1
        self.sim.call_in(self.latency, handler, message)
