"""Fair-share network links and the cluster fabric.

DAS-5 nodes are connected by a non-blocking fabric, so we model no core
congestion: contention happens only at node NICs.  Each NIC is full duplex --
one :class:`NetworkLink` for egress and one for ingress -- and every link
shares its bandwidth equally among active flows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.simulation.core import Simulator
from repro.simulation.resources import FairShareResource, Job

GBIT = 1e9 / 8.0  # bytes/second for one gigabit


class _Join:
    """Both halves of a flow done: a join of two completion hooks.

    Each half's hook queues one entry that counts it in, and the entry that
    counts the second half queues one more that calls ``then(size)``.  That
    is one queue entry for each event the earlier form succeeded (an
    all-of over two event-form sends, and its relay), so same-instant ties
    break as there.
    """

    __slots__ = ("sim", "pending", "then", "size")

    def __init__(self, sim: Simulator, then: Callable[[float], None],
                 size: float) -> None:
        self.sim = sim
        self.pending = 2
        self.then = then
        self.size = size

    def arrive(self, _size: float) -> None:
        self.sim.call_in(0.0, self._count)

    def _count(self) -> None:
        self.pending -= 1
        if not self.pending:
            self.sim.call_in(0.0, self.then, self.size)


class NetworkLink(FairShareResource):
    """One direction of a node NIC, shared equally among active flows.

    The equal split is exactly the base class's rate curve, so links inherit
    both :meth:`~FairShareResource.rates` and its allocation-free scalar twin
    :meth:`~FairShareResource.uniform_rate` unchanged.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth: float,
        latency: float = 0.0001,
    ) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        super().__init__(sim, name, capacity=bandwidth)
        self.latency = latency
        self.bytes_transferred = 0.0

    def send(self, size: float, tag: str,
             then: Callable[[float], None]) -> None:
        """Move ``size`` bytes through this link; ``then(size)`` runs when
        done."""
        if size < 0:
            raise ValueError(f"negative transfer size: {size}")
        self.sim.call_in(self.latency, self._start, size, tag, then)

    def _start(self, size: float, tag: str,
               then: Callable[[float], None]) -> None:
        sim = self.sim
        self.submit(size, tag,
                    lambda _job: sim.call_in(0.0, self._finish, then, size))

    def _finish(self, then: Callable[[float], None], size: float) -> None:
        self.bytes_transferred += size
        then(size)

    def sample_bytes(self) -> float:
        """Bytes through this link *including* in-flight flow progress.

        ``bytes_transferred`` only advances at flow completion, which makes
        long shuffles look like end-of-flow bursts; the profiler probe needs
        the continuous reading.  Non-mutating, so sampling never perturbs
        the event timeline.
        """
        return self.sample_counters()["work_done"]


class NetworkFabric:
    """All node NICs plus point-to-point transfer orchestration."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float = 10.0 * GBIT,
        latency: float = 0.0001,
    ) -> None:
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self._egress: Dict[int, NetworkLink] = {}
        self._ingress: Dict[int, NetworkLink] = {}
        #: Optional span tracer, wired by the owning context.
        self.tracer = None

    def register_node(self, node_id: int, bandwidth: Optional[float] = None) -> None:
        if node_id in self._egress:
            raise ValueError(f"node {node_id} already registered")
        capacity = bandwidth if bandwidth is not None else self.bandwidth
        self._egress[node_id] = NetworkLink(
            self.sim, f"net.out.{node_id}", capacity, self.latency
        )
        self._ingress[node_id] = NetworkLink(
            self.sim, f"net.in.{node_id}", capacity, self.latency
        )

    def egress(self, node_id: int) -> NetworkLink:
        return self._egress[node_id]

    def ingress(self, node_id: int) -> NetworkLink:
        return self._ingress[node_id]

    @property
    def node_ids(self) -> List[int]:
        return sorted(self._egress)

    def transfer(self, src: int, dst: int, size: float, tag: str,
                 then: Callable[[float], None]) -> None:
        """Move ``size`` bytes from ``src`` to ``dst``; ``then(size)`` runs
        when done.

        The flow occupies the source egress and destination ingress links
        concurrently and completes when both have passed the bytes (i.e. the
        bottleneck link determines the duration).  A same-node transfer is
        free: Spark short-circuits loopback fetches through memory.
        """
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.counter(
                "network", f"nic.{src}", size,
                dst=dst, tag=tag,
                active_flows=self._egress[src].active_jobs + 1
                if src in self._egress else 1,
            )
        if src == dst:
            then(size)
            return
        join = _Join(self.sim, then, size)
        self._egress[src].send(size, tag, join.arrive)
        self._ingress[dst].send(size, tag, join.arrive)

    def total_bytes(self) -> float:
        """Bytes that crossed any egress link (each flow counted once)."""
        return sum(link.bytes_transferred for link in self._egress.values())
