"""Cluster builder with per-node hardware variability.

The paper's Fig. 3 measures reading/writing 30 GB on 44 nominally identical
DAS-5 nodes and finds a wide spread in effective I/O performance.  We model
this with log-normal speed factors applied to each node's disk and (more
tightly) CPU; ``ClusterSpec.disk_sigma = 0`` turns the jitter off for
experiments that need identical nodes.

:class:`Cluster` is what the harness builds once per run (``build_cluster``)
and what every layer above shares: the engine schedules tasks onto its
nodes' cores, the fault injector degrades its devices, and the service
layer (SERVICE.md) treats each node as one executor slot when allocating
across concurrent jobs -- under a cluster-scope fault plan
(``repro.faults/2``, FAULTS.md section 8) those slots additionally churn
down/up and flap, tracked by the service scheduler's own slot state, not
by this builder.  Node-level activity is reported through the
``node.<id>.*`` metric families that end up in ``repro.trace/1`` event
logs and ``repro.profile/1`` demand profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.cluster.node import Node, NodeSpec
from repro.network.fabric import NetworkFabric
from repro.simulation.core import Simulator
from repro.simulation.randomness import RandomStreams


@dataclass(frozen=True)
class ClusterSpec:
    """How many nodes, their hardware, and how much they vary."""

    num_nodes: int = 4
    node: NodeSpec = field(default_factory=NodeSpec)
    disk_sigma: float = 0.08
    cpu_sigma: float = 0.02
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {self.num_nodes}")
        if self.disk_sigma < 0 or self.cpu_sigma < 0:
            raise ValueError("sigmas must be non-negative")


class Cluster:
    """A set of nodes sharing one simulator and network fabric."""

    def __init__(
        self,
        spec: ClusterSpec,
        sim: Optional[Simulator] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.spec = spec
        self.sim = sim if sim is not None else Simulator()
        self.streams = streams if streams is not None else RandomStreams(spec.seed)
        self.fabric = NetworkFabric(self.sim, bandwidth=spec.node.nic_bandwidth)
        self.nodes: List[Node] = []
        for node_id in range(spec.num_nodes):
            node_spec = self._vary(spec.node, node_id)
            self.nodes.append(Node(self.sim, node_id, node_spec, self.fabric))

    def _vary(self, base: NodeSpec, node_id: int) -> NodeSpec:
        disk_factor = base.disk_speed_factor * self.streams.lognormal_factor(
            f"disk-speed.{node_id}", self.spec.disk_sigma
        )
        cpu_factor = base.cpu_speed_factor * self.streams.lognormal_factor(
            f"cpu-speed.{node_id}", self.spec.cpu_sigma
        )
        return replace(
            base, disk_speed_factor=disk_factor, cpu_speed_factor=cpu_factor
        )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def node_ids(self) -> List[int]:
        return [node.node_id for node in self.nodes]

    @property
    def total_cores(self) -> int:
        return sum(node.cores for node in self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def total_disk_bytes(self) -> float:
        """Bytes moved through every disk (Table 2's cluster I/O activity)."""
        return sum(node.disk.total_bytes for node in self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster(nodes={self.num_nodes}, cores={self.total_cores})"
