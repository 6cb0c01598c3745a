"""Block-device models with concurrency-dependent efficiency.

The model has two ingredients, both taken from how real drives behave under
the workloads the paper studies:

1. **Access latency** -- every request pays a fixed setup cost before data
   flows (seek + rotational delay on HDDs, controller latency on SSDs).  With
   few concurrent streams these latencies leave the device idle between
   requests, so aggregate throughput *rises* with concurrency at first.
2. **Efficiency curve** -- once several streams are in flight, an HDD's head
   shuttles between them and the aggregate bandwidth collapses:
   ``e(k) = 1 / (1 + alpha * (k - 1) ** p)``.  SSDs have no moving parts, so
   reads keep nearly full efficiency at any depth, while writes degrade
   mildly because of erase-block staging (paper section 6.3).

Together these produce the interior optimum the paper exploits: aggregate
throughput peaks at a moderate number of threads on HDDs (4-8 in the paper's
Fig. 5/7) and at high thread counts on SSDs (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.simulation.core import Simulator
from repro.simulation.resources import FairShareResource, Job

MiB = 1024.0 * 1024.0
GiB = 1024.0 * MiB


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of a device family.

    Rates are bytes/second for a single sequential stream; ``alpha``/``p``
    shape the efficiency decay per operation; latencies are seconds per
    request.
    """

    name: str
    read_rate: float
    write_rate: float
    read_alpha: float
    write_alpha: float
    p: float
    read_latency: float
    write_latency: float
    #: Efficiency floor: the OS elevator/readahead and shuffle-service block
    #: merging keep very deep queues from degrading without bound.
    min_efficiency: float = 0.25

    def efficiency(self, op: str, concurrency: int) -> float:
        """Aggregate-bandwidth efficiency with ``concurrency`` active streams."""
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        alpha = self.read_alpha if op == "read" else self.write_alpha
        return max(
            self.min_efficiency,
            1.0 / (1.0 + alpha * (concurrency - 1) ** self.p),
        )

    def rate(self, op: str) -> float:
        if op == "read":
            return self.read_rate
        if op == "write":
            return self.write_rate
        raise ValueError(f"unknown op {op!r} (expected 'read' or 'write')")

    def latency(self, op: str) -> float:
        return self.read_latency if op == "read" else self.write_latency


#: 7'200 rpm SATA HDD, as in the paper's DAS-5 setup (section 6.1).  The
#: efficiency decay and per-request latency are calibrated so that (a) a
#: pure-read stage peaks around 4 concurrent streams (paper Fig. 5a/7a),
#: (b) mixed read/write stages with moderate CPU peak at 8 (Fig. 7b/7c),
#: and (c) 32 streams collapse to roughly a third of peak throughput.
HDD_PROFILE = DeviceProfile(
    name="hdd",
    read_rate=150.0 * MiB,
    write_rate=140.0 * MiB,
    read_alpha=0.065,
    write_alpha=0.065,
    p=1.0,
    read_latency=0.030,
    write_latency=0.030,
    min_efficiency=0.04,
)

#: SATA SSD.  Reads support full random access at uniform latency
#: (near-flat efficiency, so read stages tolerate high thread counts --
#: paper Fig. 10b stage 0); writes are slower and degrade visibly with
#: concurrency because whole erase blocks must be staged and rewritten
#: (section 6.3), which is why the write-heavy Terasort stages still prefer
#: moderate thread counts on SSDs.
SSD_PROFILE = DeviceProfile(
    name="ssd",
    read_rate=300.0 * MiB,
    write_rate=200.0 * MiB,
    read_alpha=0.002,
    write_alpha=0.06,
    p=1.0,
    read_latency=0.0002,
    write_latency=0.0004,
    min_efficiency=0.35,
)


#: The operations a device serves; anything else is rejected on submit.
OPS = ("read", "write")


class StorageDevice(FairShareResource):
    """One node-local drive.

    ``speed_factor`` captures per-node hardware variability (paper Fig. 3):
    nominally identical drives with different effective rates.  Work units are
    bytes; job attributes carry the operation so reads and writes can be
    accounted separately.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        profile: DeviceProfile,
        speed_factor: float = 1.0,
    ) -> None:
        if speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {speed_factor}")
        super().__init__(sim, name, capacity=profile.read_rate)
        self.profile = profile
        #: :meth:`group_rate` per op, keyed by stream count.  A device sees
        #: a handful of distinct depths, so after warm-up every rate is one
        #: dict lookup; setting ``speed_factor`` clears it.
        self._rate_memo: Dict[str, Dict[int, float]] = {op: {} for op in OPS}
        self.speed_factor = speed_factor
        #: In-flight jobs per op, exact at every instant: :meth:`_admit`
        #: counts a job in and :meth:`_retire` counts it out when the kernel
        #: retires it, so a zero count proves the op absent.
        self._op_counts: Dict[str, int] = {op: 0 for op in OPS}
        #: Optional span tracer, wired by the owning context; every hook
        #: guards on it so untraced runs pay one attribute read per request.
        self.tracer = None

    @property
    def speed_factor(self) -> float:
        return self._speed_factor

    @speed_factor.setter
    def speed_factor(self, value: float) -> None:
        # The memoised rates and latencies are priced at the old factor
        # (fault-injection disk-degrade episodes rescale it mid-run).
        self._speed_factor = value
        for memo in self._rate_memo.values():
            memo.clear()
        self._rate = self._rates = None
        self._latency = {op: self.profile.latency(op) / value for op in OPS}

    def submit(self, work: float, tag: str, then: Callable[[Job], None],
               **attrs: Any) -> Job:
        op = attrs.get("op", "read")
        if op not in OPS:
            raise ValueError(f"unknown op {op!r} (expected 'read' or 'write')")
        return super().submit(work, tag, then, **attrs)

    def _admit(self, job: Job) -> None:
        self._jobs.append(job)
        self._op_counts[job.attrs.get("op", "read")] += 1

    def _retire(self, finished: List[Job]) -> None:
        counts = self._op_counts
        for job in finished:
            counts[job.attrs.get("op", "read")] -= 1

    def group_rate(self, op: str, n: int) -> float:
        """Per-stream rate when ``n`` streams are active and this one does
        ``op``; the single expression behind :meth:`rates` and
        :meth:`uniform_rate` (bit-identity across the entry points)."""
        memo = self._rate_memo[op]
        rate = memo.get(n)
        if rate is None:
            rate = memo[n] = (
                self.profile.rate(op)
                * self.profile.efficiency(op, n)
                * self._speed_factor
                / n
            )
        return rate

    def rates(self, jobs: List[Job]) -> Dict[Job, float]:
        k = len(jobs)
        by_op = {op: self.group_rate(op, k) for op in OPS}
        return {job: by_op[job.attrs.get("op", "read")] for job in jobs}

    def uniform_rate(self, n: int) -> Optional[float]:
        """Scalar rate when every active stream performs the same operation.

        Pure-read and pure-write phases (the common case: a stage's tasks
        all read input or all spill/write) share one rate, so the kernel
        skips the per-job dict; mixed read/write sets fall back to
        :meth:`rates`.
        """
        counts = self._op_counts
        if not counts["write"]:
            op = "read"
        elif not counts["read"]:
            op = "write"
        else:
            return None
        rate = self._rate_memo[op].get(n)
        return rate if rate is not None else self.group_rate(op, n)

    def request(self, size: float, op: str,
                then: Callable[[float], None]) -> None:
        """Issue one I/O request: access latency, then bandwidth service.

        ``then(size)`` runs when the data has been transferred.  The latency
        phase does not occupy the device (it models head movement /
        controller setup concurrent with other streams' transfers), which is
        the standard fluid approximation.
        """
        if op not in OPS:
            raise ValueError(f"unknown op {op!r}")
        if size < 0:
            raise ValueError(f"negative request size: {size}")
        self.sim.call_in(self._latency[op], self._start_transfer, size, op,
                         then)

    def _start_transfer(self, size: float, op: str,
                        then: Callable[[float], None]) -> None:
        sim = self.sim
        # The job's completion queues one entry that calls ``then``: the
        # relay hop between the job and the request completing.  ``op`` was
        # checked by :meth:`request`, so the base submit takes the job.
        FairShareResource.submit(
            self, size, op, lambda _job: sim.call_in(0.0, then, size), op=op)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            depth = self.active_jobs
            tracer.counter(
                "device", self.name, float(depth),
                efficiency=self.profile.efficiency(op, max(1, depth)),
                op=op,
            )

    @property
    def bytes_read(self) -> float:
        """Bytes read so far (continuous; call sync() for instant accuracy)."""
        return self.stats.work_by_tag.get("read", 0.0)

    @property
    def bytes_written(self) -> float:
        return self.stats.work_by_tag.get("write", 0.0)

    @property
    def total_bytes(self) -> float:
        """All bytes moved through the device (Table 2's "I/O activity")."""
        return self.bytes_read + self.bytes_written
