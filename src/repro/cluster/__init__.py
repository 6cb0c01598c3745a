"""Cluster model: nodes with CPUs, disks, NICs, and heterogeneity profiles.

The paper's testbed is the Dutch DAS-5 cluster: 4 or 16 worker nodes, each
with 32 virtual cores (16 physical + hyper-threading), 56 GB of memory, one
7'200 rpm HDD (or an SSD in section 6.3), connected by a fast fabric.  This
package reproduces that shape, including the per-node performance variability
the paper measures in Fig. 3.
"""

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.node import Node, NodeSpec
from repro.cluster.scheduler import (
    ClusterScheduler,
    ServiceJob,
    ServiceResult,
)

__all__ = [
    "Cluster",
    "ClusterScheduler",
    "ClusterSpec",
    "Node",
    "NodeSpec",
    "ServiceJob",
    "ServiceResult",
]
