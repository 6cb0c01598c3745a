"""Shuffle bookkeeping: map-output tracking and fetch planning.

Shuffle is the paper's hidden I/O source (limitation L2: "shuffle stages use
the disk for storing intermediate data" even though they never call an I/O
action).  We model it the way Spark's sort shuffle behaves on the cluster:

* each **map task** writes its partitioned output to its node's local disk
  (the spill the paper's Table 2 measures);
* each **reduce task** fetches one bucket from every map output -- a local
  disk read when the map ran on the same node, a source-disk read plus a
  network transfer otherwise.

The :class:`MapOutputTracker` is the driver-side registry of where map
outputs live and how large each reducer's share is; reduce-task profiles are
derived from it after the map stage completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.sizing import SizeInfo


@dataclass
class MapStatus:
    """Where one map task's output lives and how it splits across reducers.

    Synthetic map outputs split uniformly across reducers; those carry one
    ``uniform_size`` (the per-reducer slice) instead of a full per-reducer
    list, which keeps registration O(1) instead of O(reducers) -- shuffles
    here can be ~10^4 x 10^4.
    """

    map_id: int
    node_id: int
    reducer_sizes: Optional[List[SizeInfo]] = None
    real_buckets: Optional[List[List[Any]]] = None
    uniform_size: Optional[SizeInfo] = None
    num_reducers: int = 0

    @classmethod
    def uniform(cls, map_id: int, node_id: int, num_reducers: int,
                total: SizeInfo) -> "MapStatus":
        """A synthetic map output split evenly across ``num_reducers``."""
        per_reducer = SizeInfo(
            total.records / num_reducers, total.bytes / num_reducers
        )
        return cls(
            map_id=map_id,
            node_id=node_id,
            uniform_size=per_reducer,
            num_reducers=num_reducers,
        )

    def __post_init__(self) -> None:
        if (self.reducer_sizes is None) == (self.uniform_size is None):
            raise ValueError(
                "exactly one of reducer_sizes / uniform_size is required"
            )
        if self.reducer_sizes is not None:
            self.num_reducers = len(self.reducer_sizes)
        elif self.num_reducers <= 0:
            raise ValueError("uniform map status requires num_reducers")

    def size_for(self, reducer: int) -> SizeInfo:
        if self.uniform_size is not None:
            return self.uniform_size
        return self.reducer_sizes[reducer]

    @property
    def total_bytes(self) -> float:
        if self.uniform_size is not None:
            return self.uniform_size.bytes * self.num_reducers
        return sum(size.bytes for size in self.reducer_sizes)


@dataclass
class _ShuffleState:
    """Per-shuffle registry with incrementally maintained aggregates.

    ``reducer_records``/``reducer_bytes`` and the per-source-node byte
    arrays are accumulated at registration time so reduce-side queries are
    O(1)/O(nodes) instead of O(maps) -- shuffles here can have ~10^4 maps
    and reducers, making the naive per-query scan quadratic.
    """

    num_maps: int
    num_reducers: int
    statuses: Dict[int, MapStatus] = field(default_factory=dict)
    reducer_records: List[float] = field(default_factory=list)
    reducer_bytes: List[float] = field(default_factory=list)
    node_reducer_bytes: Dict[int, List[float]] = field(default_factory=dict)
    # Uniform (synthetic) contributions, kept as per-reducer scalars.
    uniform_records: float = 0.0
    uniform_bytes: float = 0.0
    node_uniform_bytes: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.reducer_records = [0.0] * self.num_reducers
        self.reducer_bytes = [0.0] * self.num_reducers

    @property
    def complete(self) -> bool:
        return len(self.statuses) == self.num_maps

    def accumulate(self, status: MapStatus) -> None:
        if status.uniform_size is not None:
            self.uniform_records += status.uniform_size.records
            self.uniform_bytes += status.uniform_size.bytes
            self.node_uniform_bytes[status.node_id] = (
                self.node_uniform_bytes.get(status.node_id, 0.0)
                + status.uniform_size.bytes
            )
            return
        per_node = self.node_reducer_bytes.setdefault(
            status.node_id, [0.0] * self.num_reducers
        )
        for reducer, size in enumerate(status.reducer_sizes):
            self.reducer_records[reducer] += size.records
            self.reducer_bytes[reducer] += size.bytes
            per_node[reducer] += size.bytes

    def reduce_totals(self, reducer: int) -> Tuple[float, float]:
        return (self.reducer_records[reducer] + self.uniform_records,
                self.reducer_bytes[reducer] + self.uniform_bytes)

    def fetch_plan(self, reducer: int) -> List[tuple]:
        per_node: Dict[int, float] = dict(self.node_uniform_bytes)
        for node_id, sizes in self.node_reducer_bytes.items():
            if sizes[reducer] > 0:
                per_node[node_id] = per_node.get(node_id, 0.0) + sizes[reducer]
        return sorted(item for item in per_node.items() if item[1] > 0)


class MapOutputTracker:
    """Driver-side registry of shuffle map outputs."""

    def __init__(self) -> None:
        self._shuffles: Dict[int, _ShuffleState] = {}
        self._next_shuffle_id = 0
        #: Optional span tracer, wired by the owning context.
        self.tracer = None

    def register_shuffle(self, num_maps: int, num_reducers: int) -> int:
        """Allocate a shuffle id for a new shuffle dependency."""
        if num_maps <= 0 or num_reducers <= 0:
            raise ValueError(
                f"shuffle needs positive maps/reducers, got {num_maps}/{num_reducers}"
            )
        shuffle_id = self._next_shuffle_id
        self._next_shuffle_id += 1
        self._shuffles[shuffle_id] = _ShuffleState(num_maps, num_reducers)
        return shuffle_id

    def _state(self, shuffle_id: int) -> _ShuffleState:
        try:
            return self._shuffles[shuffle_id]
        except KeyError:
            raise KeyError(f"unknown shuffle id: {shuffle_id}") from None

    def register_map_output(self, shuffle_id: int, status: MapStatus) -> None:
        state = self._state(shuffle_id)
        if status.num_reducers != state.num_reducers:
            raise ValueError(
                f"map output has {status.num_reducers} reducer slices, "
                f"shuffle {shuffle_id} expects {state.num_reducers}"
            )
        if not 0 <= status.map_id < state.num_maps:
            raise ValueError(f"map_id {status.map_id} out of range")
        if status.map_id in state.statuses:
            raise ValueError(
                f"map output {status.map_id} already registered for "
                f"shuffle {shuffle_id}"
            )
        state.statuses[status.map_id] = status
        state.accumulate(status)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(
                "shuffle", "map-output",
                shuffle_id=shuffle_id,
                map_id=status.map_id,
                node_id=status.node_id,
                bytes=status.total_bytes,
                registered=len(state.statuses),
                expected=state.num_maps,
            )

    def discard_node_outputs(self, node_id: int) -> Dict[int, List[int]]:
        """Forget every map output stored on ``node_id`` (executor loss).

        Mirrors Spark's ``MapOutputTracker`` unregistering a dead block
        manager's outputs: the affected shuffles become incomplete again and
        the scheduler must recompute the lost map tasks through lineage.
        Returns ``{shuffle_id: [lost map ids]}`` for the shuffles touched.
        """
        lost: Dict[int, List[int]] = {}
        for shuffle_id, state in self._shuffles.items():
            dead = sorted(
                map_id for map_id, status in state.statuses.items()
                if status.node_id == node_id
            )
            if not dead:
                continue
            lost[shuffle_id] = dead
            for map_id in dead:
                del state.statuses[map_id]
            # Rebuild the incremental aggregates from the survivors; they
            # have no subtraction path and float drift would accumulate.
            fresh = _ShuffleState(state.num_maps, state.num_reducers)
            for status in state.statuses.values():
                fresh.accumulate(status)
            state.reducer_records = fresh.reducer_records
            state.reducer_bytes = fresh.reducer_bytes
            state.node_reducer_bytes = fresh.node_reducer_bytes
            state.uniform_records = fresh.uniform_records
            state.uniform_bytes = fresh.uniform_bytes
            state.node_uniform_bytes = fresh.node_uniform_bytes
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.instant(
                    "fault", "shuffle-outputs-lost",
                    shuffle_id=shuffle_id,
                    node_id=node_id,
                    lost_maps=len(dead),
                )
        return lost

    def is_complete(self, shuffle_id: int) -> bool:
        return self._state(shuffle_id).complete

    def missing_map_ids(self, shuffle_id: int) -> List[int]:
        """Map ids with no registered output (lost or never computed)."""
        state = self._state(shuffle_id)
        return [m for m in range(state.num_maps) if m not in state.statuses]

    # -- reduce-side queries (valid once the map stage completed) ------------

    def reduce_size(self, shuffle_id: int, reduce_id: int) -> SizeInfo:
        """Total records/bytes reduce task ``reduce_id`` will fetch."""
        return SizeInfo(*self.reduce_totals(shuffle_id, reduce_id))

    def reduce_totals(self, shuffle_id: int,
                      reduce_id: int) -> Tuple[float, float]:
        """:meth:`reduce_size` as a ``(records, bytes)`` pair."""
        return self._require_complete(shuffle_id).reduce_totals(reduce_id)

    def fetch_plan(self, shuffle_id: int, reduce_id: int) -> List[tuple]:
        """``[(source_node_id, bytes), ...]`` aggregated per source node."""
        return self._require_complete(shuffle_id).fetch_plan(reduce_id)

    def uniform_fetch_plan(self, shuffle_id: int) -> Optional[List[tuple]]:
        """The fetch plan every reducer shares when all map outputs split
        uniformly, else ``None``."""
        state = self._require_complete(shuffle_id)
        return None if state.node_reducer_bytes else state.fetch_plan(0)

    def fetch_real(self, shuffle_id: int, reduce_id: int) -> List[Any]:
        """Concatenate the materialised bucket contents for a reducer."""
        state = self._require_complete(shuffle_id)
        records: List[Any] = []
        for map_id in sorted(state.statuses):
            status = state.statuses[map_id]
            if status.real_buckets is None:
                raise RuntimeError(
                    f"shuffle {shuffle_id} map {map_id} has no materialised data"
                )
            records.extend(status.real_buckets[reduce_id])
        return records

    def total_shuffle_bytes(self, shuffle_id: int) -> float:
        state = self._state(shuffle_id)
        return sum(status.total_bytes for status in state.statuses.values())

    def _require_complete(self, shuffle_id: int) -> _ShuffleState:
        state = self._state(shuffle_id)
        if not state.complete:
            missing = state.num_maps - len(state.statuses)
            raise RuntimeError(
                f"shuffle {shuffle_id} is incomplete: {missing} map outputs missing"
            )
        return state
