"""RDDs: lineage, transformations, and the I/O markers the paper keys on.

The API mirrors the subset of Spark's RDD surface the paper's workloads use.
Each transformation records:

* **lineage** -- narrow vs. shuffle dependencies, from which the DAG
  scheduler cuts stages (paper section 4: "all the transformations and
  actions in Spark happen at the level of RDDs ... we modified them to let
  the executors know whether the current stage should be considered as I/O");
* **I/O markers** -- ``textFile`` marks a stage input-bound, ``saveAsTextFile``
  / ``saveAsHadoopFile`` mark it output-bound; the *static solution* keys on
  exactly these markers;
* **cost annotations** -- CPU seconds per record/byte and size-propagation
  factors, so synthetic (non-materialised) datasets flow through the
  simulator with realistic volumes.

Every RDD supports two modes: *materialised* partitions really compute
(tests and examples validate semantics end-to-end), *synthetic* partitions
propagate sizes only (benchmark-scale runs).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.engine.sizing import SizeInfo, estimate_partition

#: Baseline CPU second per byte for deserialising + lightly transforming data.
#: Calibrated so I/O-dominated stages land in the paper's 6-15% CPU band
#: (Fig. 1, Terasort) on the DAS-5 node model.
DEFAULT_CPU_PER_BYTE = 1.2e-8
DEFAULT_CPU_PER_RECORD = 1.0e-7


class SyntheticDataError(RuntimeError):
    """Raised when real records are requested from a synthetic dataset."""


class Dependency:
    """Edge in the lineage graph."""

    def __init__(self, rdd: "RDD") -> None:
        self.rdd = rdd


class NarrowDependency(Dependency):
    """Partition i of the child depends only on partition i of the parent."""


class ShuffleDependency(Dependency):
    """A repartitioning edge; the DAG scheduler cuts a stage boundary here.

    ``map_records_factor`` / ``map_bytes_factor`` model the map-side combine
    and serialisation (shuffle-write volume relative to the map-side RDD's
    partition size).  ``reduce_records_factor`` / ``reduce_bytes_factor``
    model the reduce-side aggregation (output relative to fetched bytes).
    """

    def __init__(
        self,
        rdd: "RDD",
        partitioner: Partitioner,
        *,
        map_records_factor: float = 1.0,
        map_bytes_factor: float = 1.0,
        reduce_records_factor: float = 1.0,
        reduce_bytes_factor: float = 1.0,
        combiner: Optional[Callable[[Any, Any], Any]] = None,
        map_side_combine: bool = False,
        group_values: bool = False,
        sort_by_key: bool = False,
    ) -> None:
        super().__init__(rdd)
        self.partitioner = partitioner
        self.map_records_factor = map_records_factor
        self.map_bytes_factor = map_bytes_factor
        self.reduce_records_factor = reduce_records_factor
        self.reduce_bytes_factor = reduce_bytes_factor
        self.combiner = combiner
        self.map_side_combine = map_side_combine
        self.group_values = group_values
        self.sort_by_key = sort_by_key
        self.shuffle_id = rdd.ctx.map_output_tracker.register_shuffle(
            num_maps=rdd.num_partitions, num_reducers=partitioner.num_partitions
        )

    def map_output_size(self, split: int) -> SizeInfo:
        """Shuffle-write volume for one map partition."""
        return self.rdd.partition_size(split).scaled(
            self.map_records_factor, self.map_bytes_factor
        )


class RDD:
    """Base class: a partitioned, lazily evaluated dataset."""

    #: Static-solution markers (paper section 4): does computing this RDD
    #: explicitly read job input from the DFS / write job output to it?
    reads_input = False
    writes_output = False

    #: True when real records can be produced for this lineage.  Lineage
    #: and input datasets are fixed at construction, so each subclass's
    #: constructor sets it once.
    is_materialized: bool

    def __init__(
        self,
        ctx,
        num_partitions: int,
        deps: Sequence[Dependency],
        partitioner: Optional[Partitioner] = None,
        name: str = "",
        cpu_per_record: float = DEFAULT_CPU_PER_RECORD,
        cpu_per_byte: float = DEFAULT_CPU_PER_BYTE,
    ) -> None:
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive: {num_partitions}")
        self.ctx = ctx
        self.id = ctx.new_rdd_id()
        self.num_partitions = num_partitions
        self.deps = list(deps)
        self.partitioner = partitioner
        self.name = name or type(self).__name__
        self.cpu_per_record = cpu_per_record
        self.cpu_per_byte = cpu_per_byte
        self.cached = False
        self._size_cache: Dict[int, SizeInfo] = {}

    # -- lineage ------------------------------------------------------------

    @property
    def narrow_parents(self) -> List["RDD"]:
        return [d.rdd for d in self.deps if isinstance(d, NarrowDependency)]

    # -- size propagation -----------------------------------------------------

    def partition_size(self, split: int) -> SizeInfo:
        if split not in self._size_cache:
            self._check_split(split)
            self._size_cache[split] = self._compute_size(split)
        return self._size_cache[split]

    def _compute_size(self, split: int) -> SizeInfo:
        raise NotImplementedError

    def total_size(self) -> SizeInfo:
        total = SizeInfo(0.0, 0.0)
        for split in range(self.num_partitions):
            total = total + self.partition_size(split)
        return total

    def _check_split(self, split: int) -> None:
        if not 0 <= split < self.num_partitions:
            raise IndexError(
                f"split {split} out of range for {self.name} "
                f"({self.num_partitions} partitions)"
            )

    # -- CPU cost model ---------------------------------------------------------

    def cpu_cost(self, split: int) -> float:
        """CPU seconds this operator alone spends producing partition ``split``."""
        records, nbytes = self._processed(split)
        return records * self.cpu_per_record + nbytes * self.cpu_per_byte

    def _processed(self, split: int) -> Tuple[float, float]:
        """Records and bytes this operator iterates over (its input, by
        default), summed in dependency order."""
        parents = self.narrow_parents
        if not parents:
            size = self.partition_size(split)
            return size.records, size.bytes
        records = nbytes = 0.0
        for parent in parents:
            size = parent.partition_size(split)
            records += size.records
            nbytes += size.bytes
        return records, nbytes

    # -- real computation ------------------------------------------------------

    def compute(self, split: int) -> List[Any]:
        raise NotImplementedError

    def iterator(self, split: int) -> List[Any]:
        """Compute (or fetch from cache) the records of one partition."""
        if self.cached:
            hit = self.ctx.cache_manager.get(self.id, split)
            if hit is not None:
                return hit
        records = self.compute(split)
        if self.cached:
            self.ctx.cache_manager.put(self.id, split, records)
        return records

    # -- caching -----------------------------------------------------------------

    def cache(self) -> "RDD":
        """Mark this RDD for in-memory persistence after first computation."""
        self.cached = True
        return self

    persist = cache

    # -- transformations -----------------------------------------------------------

    def map(self, f: Callable[[Any], Any], **annotations: float) -> "RDD":
        return MapLikeRDD(
            self,
            lambda records: [f(x) for x in records],
            name="map",
            preserves_partitioning=False,
            **annotations,
        )

    def filter(self, f: Callable[[Any], bool], *, selectivity: float = 0.5,
               **annotations: float) -> "RDD":
        annotations.setdefault("records_factor", selectivity)
        annotations.setdefault("bytes_factor", selectivity)
        return MapLikeRDD(
            self,
            lambda records: [x for x in records if f(x)],
            name="filter",
            preserves_partitioning=True,
            **annotations,
        )

    def flat_map(self, f: Callable[[Any], Sequence[Any]], *, fanout: float = 1.0,
                 **annotations: float) -> "RDD":
        annotations.setdefault("records_factor", fanout)
        annotations.setdefault("bytes_factor", fanout)
        return MapLikeRDD(
            self,
            lambda records: [y for x in records for y in f(x)],
            name="flatMap",
            preserves_partitioning=False,
            **annotations,
        )

    flatMap = flat_map

    def map_values(self, f: Callable[[Any], Any], **annotations: float) -> "RDD":
        return MapLikeRDD(
            self,
            lambda records: [(k, f(v)) for k, v in records],
            name="mapValues",
            preserves_partitioning=True,
            **annotations,
        )

    mapValues = map_values

    def flat_map_values(self, f: Callable[[Any], Sequence[Any]], *,
                        fanout: float = 1.0, **annotations: float) -> "RDD":
        annotations.setdefault("records_factor", fanout)
        annotations.setdefault("bytes_factor", fanout)
        return MapLikeRDD(
            self,
            lambda records: [(k, y) for k, v in records for y in f(v)],
            name="flatMapValues",
            preserves_partitioning=True,
            **annotations,
        )

    def map_partitions(self, f: Callable[[List[Any]], List[Any]],
                       **annotations: float) -> "RDD":
        return MapLikeRDD(
            self, lambda records: list(f(records)), name="mapPartitions",
            preserves_partitioning=False, **annotations,
        )

    def key_by(self, f: Callable[[Any], Any], **annotations: float) -> "RDD":
        return MapLikeRDD(
            self,
            lambda records: [(f(x), x) for x in records],
            name="keyBy",
            preserves_partitioning=False,
            **annotations,
        )

    def sample(self, fraction: float, **annotations: float) -> "RDD":
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        rng = self.ctx.streams.stream(f"sample.{self.id}")
        annotations.setdefault("records_factor", fraction)
        annotations.setdefault("bytes_factor", fraction)
        return MapLikeRDD(
            self,
            lambda records: [x for x in records if rng.random() < fraction],
            name="sample",
            preserves_partitioning=True,
            **annotations,
        )

    # -- shuffling transformations -----------------------------------------------

    def _default_partitions(self, num_partitions: Optional[int]) -> int:
        if num_partitions is not None:
            return num_partitions
        return self.ctx.default_parallelism

    def reduce_by_key(
        self,
        f: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
        *,
        map_combine_factor: float = 1.0,
        reduce_factor: float = 1.0,
        **annotations: float,
    ) -> "RDD":
        partitioner = HashPartitioner(self._default_partitions(num_partitions))
        dep = ShuffleDependency(
            self,
            partitioner,
            map_records_factor=map_combine_factor,
            map_bytes_factor=map_combine_factor,
            reduce_records_factor=reduce_factor,
            reduce_bytes_factor=reduce_factor,
            combiner=f,
            map_side_combine=True,
        )
        return ShuffledRDD(self.ctx, dep, name="reduceByKey", **annotations)

    reduceByKey = reduce_by_key

    def group_by_key(
        self,
        num_partitions: Optional[int] = None,
        *,
        reduce_factor: float = 1.0,
        **annotations: float,
    ) -> "RDD":
        partitioner = HashPartitioner(self._default_partitions(num_partitions))
        dep = ShuffleDependency(
            self,
            partitioner,
            reduce_records_factor=reduce_factor,
            group_values=True,
        )
        return ShuffledRDD(self.ctx, dep, name="groupByKey", **annotations)

    groupByKey = group_by_key

    def partition_by(self, partitioner: Partitioner, **annotations: float) -> "RDD":
        if self.partitioner == partitioner:
            return self
        dep = ShuffleDependency(self, partitioner)
        return ShuffledRDD(self.ctx, dep, name="partitionBy", **annotations)

    partitionBy = partition_by

    def sort_by_key(self, num_partitions: Optional[int] = None,
                    **annotations: float) -> "RDD":
        partitioner = RangePartitioner(self._default_partitions(num_partitions))
        dep = ShuffleDependency(self, partitioner, sort_by_key=True)
        return ShuffledRDD(self.ctx, dep, name="sortByKey", **annotations)

    sortByKey = sort_by_key

    def distinct(self, num_partitions: Optional[int] = None, *,
                 distinct_factor: float = 1.0, **annotations: float) -> "RDD":
        keyed = self.map(lambda x: (x, None))
        reduced = keyed.reduce_by_key(
            lambda a, b: a,
            num_partitions,
            map_combine_factor=distinct_factor,
            **annotations,
        )
        return reduced.map(lambda kv: kv[0])

    def cogroup(self, other: "RDD", num_partitions: Optional[int] = None,
                **annotations: float) -> "CoGroupedRDD":
        partitions = (
            num_partitions
            if num_partitions is not None
            else (
                self.partitioner.num_partitions
                if self.partitioner is not None
                else self._default_partitions(None)
            )
        )
        partitioner = (
            self.partitioner
            if self.partitioner is not None
            and self.partitioner.num_partitions == partitions
            else HashPartitioner(partitions)
        )
        return CoGroupedRDD(self.ctx, [self, other], partitioner, **annotations)

    def join(self, other: "RDD", num_partitions: Optional[int] = None, *,
             match_factor: float = 1.0, **annotations: float) -> "RDD":
        grouped = self.cogroup(other, num_partitions, **annotations)

        def emit(groups: Tuple[List[Any], List[Any]]) -> List[Any]:
            left, right = groups
            return [(v, w) for v in left for w in right]

        return grouped.flat_map_values(emit, fanout=match_factor)

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.ctx, [self, other])

    # -- actions --------------------------------------------------------------

    def collect(self) -> List[Any]:
        from repro.engine.actions import CollectAction

        return self.ctx.run_job(self, CollectAction())

    def count(self) -> float:
        from repro.engine.actions import CountAction

        return self.ctx.run_job(self, CountAction())

    def reduce(self, f: Callable[[Any, Any], Any]) -> Any:
        from repro.engine.actions import ReduceAction

        return self.ctx.run_job(self, ReduceAction(f))

    def save_as_text_file(self, path: str, *, bytes_factor: float = 1.0) -> None:
        from repro.engine.actions import SaveAction

        self.ctx.run_job(self, SaveAction(path, bytes_factor=bytes_factor))

    saveAsTextFile = save_as_text_file

    def save_as_hadoop_file(self, path: str, *, bytes_factor: float = 1.0) -> None:
        self.save_as_text_file(path, bytes_factor=bytes_factor)

    saveAsHadoopFile = save_as_hadoop_file

    def foreach(self, f: Callable[[Any], None]) -> None:
        from repro.engine.actions import ForeachAction

        self.ctx.run_job(self, ForeachAction(f))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.name}[{self.id}] ({self.num_partitions} partitions)"


class HadoopRDD(RDD):
    """Input read from the DFS (``textFile``); marks the stage as I/O-read."""

    reads_input = True

    def __init__(self, ctx, path: str, num_partitions: Optional[int] = None,
                 **annotations: float) -> None:
        status = ctx.dfs.status(path)
        if num_partitions is None:
            max_bytes = ctx.conf.get("spark.files.maxPartitionBytes")
            num_partitions = max(1, int(-(-status.size // max_bytes)))
        super().__init__(ctx, num_partitions, deps=[], name=f"textFile({path})",
                         **annotations)
        self.path = path
        self._splits = ctx.dfs.split_for_partitions(path, num_partitions)
        self._dataset = ctx.datasets.describe(path)
        self.is_materialized = self._dataset.records_available

    def preferred_nodes(self, split: int) -> Tuple[int, ...]:
        self._check_split(split)
        return tuple(self._splits[split]["preferred_nodes"])

    def input_bytes(self, split: int) -> float:
        self._check_split(split)
        return self._splits[split]["bytes"]

    def _compute_size(self, split: int) -> SizeInfo:
        bytes_here = self.input_bytes(split)
        records = self._dataset.records / self.num_partitions
        return SizeInfo(records, bytes_here)

    def compute(self, split: int) -> List[Any]:
        records = self._dataset.partition_records(split, self.num_partitions)
        if records is None:
            raise SyntheticDataError(
                f"{self.path} is a synthetic dataset; its records cannot be "
                "materialised"
            )
        return records


class ParallelizedRDD(RDD):
    """Driver-memory data (``parallelize``); no disk read is charged."""

    def __init__(self, ctx, data: Sequence[Any], num_partitions: int,
                 **annotations: float) -> None:
        super().__init__(ctx, num_partitions, deps=[], name="parallelize",
                         **annotations)
        data = list(data)
        self._slices: List[List[Any]] = [
            data[i::num_partitions] for i in range(num_partitions)
        ]
        self.is_materialized = True

    def _compute_size(self, split: int) -> SizeInfo:
        return estimate_partition(self._slices[split])

    def compute(self, split: int) -> List[Any]:
        self._check_split(split)
        return list(self._slices[split])


class MapLikeRDD(RDD):
    """A narrow one-parent transformation (map/filter/flatMap/...)."""

    def __init__(
        self,
        parent: RDD,
        transform: Callable[[List[Any]], List[Any]],
        name: str,
        preserves_partitioning: bool,
        *,
        records_factor: float = 1.0,
        bytes_factor: float = 1.0,
        **annotations: float,
    ) -> None:
        if records_factor < 0 or bytes_factor < 0:
            raise ValueError("size factors must be non-negative")
        super().__init__(
            parent.ctx,
            parent.num_partitions,
            deps=[NarrowDependency(parent)],
            partitioner=parent.partitioner if preserves_partitioning else None,
            name=name,
            **annotations,
        )
        self.parent = parent
        self.transform = transform
        self.records_factor = records_factor
        self.bytes_factor = bytes_factor
        self.is_materialized = parent.is_materialized

    def _compute_size(self, split: int) -> SizeInfo:
        if self.is_materialized:
            return estimate_partition(self.iterator(split))
        return self.parent.partition_size(split).scaled(
            self.records_factor, self.bytes_factor
        )

    def _processed(self, split: int) -> Tuple[float, float]:
        size = self.parent.partition_size(split)
        return 0.0 + size.records, 0.0 + size.bytes  # the one-parent sum

    def compute(self, split: int) -> List[Any]:
        return self.transform(self.parent.iterator(split))


class ShuffledRDD(RDD):
    """The reduce side of a shuffle dependency."""

    def __init__(self, ctx, dep: ShuffleDependency, name: str,
                 **annotations: float) -> None:
        super().__init__(
            ctx,
            dep.partitioner.num_partitions,
            deps=[dep],
            partitioner=dep.partitioner,
            name=name,
            **annotations,
        )
        self.dep = dep
        self.is_materialized = dep.rdd.is_materialized

    def fetched_size(self, split: int) -> SizeInfo:
        """Bytes/records this reduce partition pulls over the shuffle."""
        return self.ctx.map_output_tracker.reduce_size(self.dep.shuffle_id, split)

    def _compute_size(self, split: int) -> SizeInfo:
        if self.is_materialized:
            return estimate_partition(self.iterator(split))
        return self.fetched_size(split).scaled(
            self.dep.reduce_records_factor, self.dep.reduce_bytes_factor
        )

    def _processed(self, split: int) -> Tuple[float, float]:
        return self.ctx.map_output_tracker.reduce_totals(
            self.dep.shuffle_id, split)

    def compute(self, split: int) -> List[Any]:
        records = self.ctx.map_output_tracker.fetch_real(self.dep.shuffle_id, split)
        dep = self.dep
        if dep.group_values:
            groups: Dict[Any, List[Any]] = {}
            for key, value in records:
                groups.setdefault(key, []).append(value)
            return list(groups.items())
        if dep.combiner is not None:
            combined: Dict[Any, Any] = {}
            for key, value in records:
                if key in combined:
                    combined[key] = dep.combiner(combined[key], value)
                else:
                    combined[key] = value
            records = list(combined.items())
        if dep.sort_by_key:
            records = sorted(records, key=lambda kv: kv[0])
        return records


class CoGroupedRDD(RDD):
    """Groups two keyed parents by key; the building block of ``join``.

    A parent that is already partitioned by the target partitioner
    contributes through a narrow dependency (the optimisation that makes
    PageRank's per-iteration join shuffle-free once ``links`` is hash
    partitioned); any other parent contributes through a shuffle.
    """

    def __init__(self, ctx, parents: Sequence[RDD], partitioner: Partitioner,
                 **annotations: float) -> None:
        deps: List[Dependency] = []
        for parent in parents:
            if parent.partitioner is not None and parent.partitioner == partitioner:
                deps.append(NarrowDependency(parent))
            else:
                deps.append(ShuffleDependency(parent, partitioner))
        super().__init__(
            ctx,
            partitioner.num_partitions,
            deps=deps,
            partitioner=partitioner,
            name="cogroup",
            **annotations,
        )
        self.parents = list(parents)
        self.is_materialized = all(p.is_materialized for p in self.parents)

    def _compute_size(self, split: int) -> SizeInfo:
        if self.is_materialized:
            return estimate_partition(self.iterator(split))
        return SizeInfo(*self._processed(split))

    def _processed(self, split: int) -> Tuple[float, float]:
        records = nbytes = 0.0
        for dep in self.deps:
            if isinstance(dep, ShuffleDependency):
                dep_records, dep_bytes = self.ctx.map_output_tracker.reduce_totals(
                    dep.shuffle_id, split)
            else:
                size = dep.rdd.partition_size(split)
                dep_records, dep_bytes = size.records, size.bytes
            records += dep_records
            nbytes += dep_bytes
        return records, nbytes

    def compute(self, split: int) -> List[Any]:
        groups: Dict[Any, Tuple[List[Any], ...]] = {}
        arity = len(self.deps)
        for index, dep in enumerate(self.deps):
            if isinstance(dep, ShuffleDependency):
                records = self.ctx.map_output_tracker.fetch_real(
                    dep.shuffle_id, split
                )
            else:
                records = dep.rdd.iterator(split)
            for key, value in records:
                if key not in groups:
                    groups[key] = tuple([] for _ in range(arity))
                groups[key][index].append(value)
        return list(groups.items())


class UnionRDD(RDD):
    """Concatenation of parents; partition i maps to one parent partition."""

    def __init__(self, ctx, parents: Sequence[RDD], **annotations: float) -> None:
        total_partitions = sum(p.num_partitions for p in parents)
        super().__init__(
            ctx,
            total_partitions,
            deps=[NarrowDependency(p) for p in parents],
            name="union",
            **annotations,
        )
        self.parents = list(parents)
        self._index: List[Tuple[RDD, int]] = [
            (parent, split)
            for parent in self.parents
            for split in range(parent.num_partitions)
        ]
        self.is_materialized = all(p.is_materialized for p in self.parents)

    def parent_split(self, split: int) -> Tuple[RDD, int]:
        self._check_split(split)
        return self._index[split]

    def _compute_size(self, split: int) -> SizeInfo:
        parent, parent_split = self.parent_split(split)
        return parent.partition_size(parent_split)

    def cpu_cost(self, split: int) -> float:
        return 0.0  # union moves no data and does no work of its own

    def compute(self, split: int) -> List[Any]:
        parent, parent_split = self.parent_split(split)
        return parent.iterator(parent_split)
