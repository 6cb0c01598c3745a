"""An HDFS-like distributed filesystem model.

Only the aspects that matter for the paper's experiments are modelled:

* files are split into fixed-size **blocks**;
* each block has a configurable number of **replicas** placed on distinct
  nodes (primary on the writer, the rest round-robin) -- the paper sets the
  replication factor equal to the cluster size so that "all executors achieve
  maximum locality during the read stages" (section 6.1);
* readers query **block locations** to decide whether a read is node-local
  (disk only) or remote (source disk + network).

The DFS holds metadata only; actual byte movement is performed by tasks
against :class:`repro.storage.device.StorageDevice` and the network fabric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

DEFAULT_BLOCK_SIZE = 128 * 1024 * 1024


@dataclass(frozen=True)
class BlockLocation:
    """One block of a DFS file: its size and the nodes holding replicas."""

    index: int
    size: float
    replicas: Sequence[int]

    def is_local_to(self, node_id: int) -> bool:
        return node_id in self.replicas


@dataclass
class DfsFile:
    """Metadata for one stored file."""

    path: str
    size: float
    blocks: List[BlockLocation] = field(default_factory=list)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


class DistributedFileSystem:
    """Block placement and lookup over a set of node ids."""

    def __init__(
        self,
        node_ids: Sequence[int],
        replication: Optional[int] = None,
        block_size: float = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if not node_ids:
            raise ValueError("DFS requires at least one node")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.node_ids = list(node_ids)
        self.block_size = float(block_size)
        if replication is None:
            replication = len(self.node_ids)
        if not 1 <= replication <= len(self.node_ids):
            raise ValueError(
                f"replication {replication} must be in [1, {len(self.node_ids)}]"
            )
        self.replication = replication
        self._files: Dict[str, DfsFile] = {}
        self._placement_cursor = 0

    # -- write path ---------------------------------------------------------

    def create(self, path: str, size: float, writer_node: Optional[int] = None,
               overwrite: bool = False) -> DfsFile:
        """Register a file of ``size`` bytes and place its blocks.

        ``writer_node`` pins the primary replica (HDFS write-locality); when
        omitted (e.g. pre-loaded benchmark inputs) primaries rotate across the
        cluster, giving the balanced layout HiBench data generators produce.
        """
        if path in self._files:
            if not overwrite:
                raise FileExistsError(f"DFS path already exists: {path}")
            del self._files[path]
        if not 0 <= size < math.inf:
            raise ValueError(f"file size must be finite and >= 0, got {size}")
        dfs_file = DfsFile(path=path, size=float(size))
        remaining = float(size)
        index = 0
        while remaining > 0 or index == 0:
            block_bytes = min(self.block_size, remaining) if size > 0 else 0.0
            dfs_file.blocks.append(
                BlockLocation(
                    index=index,
                    size=block_bytes,
                    replicas=self._place_replicas(writer_node),
                )
            )
            remaining -= block_bytes
            index += 1
            if size == 0:
                break
        self._files[path] = dfs_file
        return dfs_file

    def _place_replicas(self, writer_node: Optional[int]) -> Sequence[int]:
        order: List[int] = []
        if writer_node is not None:
            if writer_node not in self.node_ids:
                raise ValueError(f"unknown writer node: {writer_node}")
            order.append(writer_node)
        cursor = self._placement_cursor
        nodes = self.node_ids
        while len(order) < self.replication:
            candidate = nodes[cursor % len(nodes)]
            cursor += 1
            if candidate not in order:
                order.append(candidate)
        self._placement_cursor = cursor % len(nodes)
        return tuple(order)

    def fail_node(self, node_id: int) -> List[str]:
        """Drop a dead node from placement and every block's replica set.

        Mirrors the NameNode declaring a DataNode dead: its replicas vanish
        and future placements avoid it.  The replication factor is clamped to
        the surviving population.  Returns the paths that lost their last
        replica of some block (unreadable until rewritten); with the paper's
        replication-equals-cluster-size default this list is empty.
        """
        if node_id not in self.node_ids:
            return []
        self.node_ids = [n for n in self.node_ids if n != node_id]
        if self.node_ids:
            self._placement_cursor %= len(self.node_ids)
            self.replication = min(self.replication, len(self.node_ids))
        lost: List[str] = []
        for path, dfs_file in self._files.items():
            rebuilt: List[BlockLocation] = []
            changed = False
            for block in dfs_file.blocks:
                if node_id in block.replicas:
                    block = BlockLocation(
                        index=block.index,
                        size=block.size,
                        replicas=tuple(n for n in block.replicas if n != node_id),
                    )
                    changed = True
                    if not block.replicas and block.size > 0 and path not in lost:
                        lost.append(path)
                rebuilt.append(block)
            if changed:
                dfs_file.blocks = rebuilt
        return lost

    def delete(self, path: str) -> None:
        if path not in self._files:
            raise FileNotFoundError(path)
        del self._files[path]

    # -- read path ------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._files

    def status(self, path: str) -> DfsFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def locations(self, path: str) -> List[BlockLocation]:
        return list(self.status(path).blocks)

    def split_for_partitions(self, path: str, num_partitions: int) -> List[dict]:
        """Divide a file into ``num_partitions`` read assignments.

        Returns one dict per partition with ``bytes`` and ``preferred_nodes``
        (the replica holders of the blocks the partition overlaps), mirroring
        how Spark derives partition locality from HDFS block locations.
        """
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive: {num_partitions}")
        dfs_file = self.status(path)
        per_partition = dfs_file.size / num_partitions
        assignments = []
        for i in range(num_partitions):
            start = i * per_partition
            end = start + per_partition
            preferred: List[int] = []
            for block in dfs_file.blocks:
                block_start = block.index * self.block_size
                block_end = block_start + block.size
                if block_end > start and block_start < end:
                    if not block.replicas and block.size > 0:
                        raise FileNotFoundError(
                            f"{path}: block {block.index} lost all replicas"
                        )
                    for node in block.replicas:
                        if node not in preferred:
                            preferred.append(node)
            assignments.append(
                {"bytes": per_partition, "preferred_nodes": tuple(preferred)}
            )
        return assignments

    @property
    def files(self) -> List[str]:
        return sorted(self._files)

    def total_stored_bytes(self) -> float:
        """Logical bytes stored (one copy), ignoring replication."""
        return sum(f.size for f in self._files.values())
