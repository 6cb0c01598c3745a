"""``SparkContext`` analogue: the application entry point.

Wires a cluster, DFS, dataset catalog, executors, schedulers, monitoring and
a pool-size policy into one application, and runs jobs to completion on the
simulated timeline.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional, Sequence

from repro.cluster import Cluster, ClusterSpec
from repro.engine.actions import Action, SketchAction
from repro.engine.cache import CacheManager
from repro.engine.conf import SparkConf
from repro.engine.dag import DAGScheduler
from repro.engine.datasets import DatasetCatalog
from repro.engine.executor import Executor
from repro.engine.metrics import RunRecorder
from repro.engine.policy import ExecutorPolicy
from repro.engine.rdd import HadoopRDD, ParallelizedRDD, RDD
from repro.engine.scheduler import TaskScheduler
from repro.engine.shuffle import MapOutputTracker
from repro.engine.sizing import SizeInfo, estimate_size
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.storage.dfs import DistributedFileSystem

PolicyFactory = Callable[[Executor], ExecutorPolicy]


class SparkContext:
    """One application on one cluster.

    ``policy_factory`` creates the thread-pool policy for each executor --
    the seam through which the paper's three systems (default, static,
    self-adaptive) plug in.
    """

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        conf: Optional[SparkConf] = None,
        policy_factory: Optional[PolicyFactory] = None,
        monitoring_interval: float = 1.0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        fault_plan=None,
        invariants=None,
    ) -> None:
        #: Set before anything else: executors read ``ctx.faults`` on their
        #: hot path, and ``None`` means every fault branch is skipped.
        self.faults = None
        #: Same contract for the invariant monitor: engine hook sites check
        #: ``ctx.invariants is not None`` and otherwise cost nothing.
        self.invariants = None
        self.cluster = cluster if cluster is not None else Cluster(ClusterSpec())
        self.sim = self.cluster.sim
        self.streams = self.cluster.streams
        self.conf = conf if conf is not None else SparkConf()
        self.dfs = DistributedFileSystem(self.cluster.node_ids)
        self.datasets = DatasetCatalog()
        self.map_output_tracker = MapOutputTracker()
        self.cache_manager = CacheManager()
        self.recorder = RunRecorder()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if invariants is not None:
            # Before _wire_tracer, so the monitor's sink observes the
            # application-start instant (it carries the cluster geometry).
            invariants.bind(self)
        if self.tracer.enabled:
            self._wire_tracer()
        #: Demand profiling is on only when an enabled tracer carries a
        #: profiler sink.  Every profiling hook (monitoring probe, registry
        #: histograms) gates on this flag, so runs without a profiler --
        #: including the golden-log runs -- emit byte-identical logs.
        self.profiling = self.tracer.enabled and any(
            getattr(sink, "is_profiler", False) for sink in self.tracer.sinks
        )
        # Imported here to avoid a package-level cycle: repro.monitoring
        # reads engine metrics types, and this module wires monitoring in.
        from repro.monitoring import MonitoringService

        self.monitoring = MonitoringService(self, interval=monitoring_interval)
        self.executors: List[Executor] = [
            Executor(self, node, executor_id)
            for executor_id, node in enumerate(self.cluster.nodes)
        ]
        self.scheduler = TaskScheduler(self)
        self.dag = DAGScheduler(self)
        self._next_rdd_id = 0
        #: Divergence barrier (see :mod:`repro.harness.fork`): when set, the
        #: first job whose execution spans ``fork_hook_at`` pauses there and
        #: calls ``fork_hook(self)`` -- the seam through which the fork
        #: engine turns one warm prefix into many copy-on-write children.
        self.fork_hook: Optional[Callable[["SparkContext"], None]] = None
        self.fork_hook_at: float = 0.0
        if policy_factory is not None:
            self.set_policy_factory(policy_factory)
        if fault_plan is not None:
            self.install_fault_plan(fault_plan)

    # -- wiring ------------------------------------------------------------------

    def _wire_tracer(self) -> None:
        """Attach the tracer to every instrumented subsystem."""
        tracer = self.tracer
        # Reads the clock attribute directly: no lambda frame and no
        # property call on every event.
        tracer.bind_clock(functools.partial(getattr, self.sim, "_now"))
        self.sim.tracer = tracer
        self.map_output_tracker.tracer = tracer
        self.cluster.fabric.tracer = tracer
        for node in self.cluster.nodes:
            node.disk.tracer = tracer
        tracer.instant(
            "app", "application-start",
            num_nodes=self.cluster.num_nodes,
            cores_per_node=self.cluster.nodes[0].cores
            if self.cluster.nodes else 0,
            device=self.cluster.nodes[0].disk.profile.name
            if self.cluster.nodes else "",
        )

    def install_fault_plan(self, fault_plan) -> None:
        """Arm a fault plan: build the injector and schedule its timers.

        Called at construction for ordinary runs, and at the divergence
        barrier by forked children trying fault ablations against a shared
        fault-free prefix.  Timer scheduling goes through
        :meth:`Simulator.call_at`, so a plan whose faults predate the
        barrier time fails loudly instead of silently firing late.
        """
        if self.faults is not None:
            raise ValueError("context already has a fault plan installed")
        # Imported lazily: repro.faults depends on engine types.
        from repro.faults import FaultInjector

        self.faults = FaultInjector(self, fault_plan)
        self.faults.wire()

    def set_policy_factory(self, factory: PolicyFactory) -> None:
        for executor in self.executors:
            executor.policy = factory(executor)

    def new_rdd_id(self) -> int:
        rdd_id = self._next_rdd_id
        self._next_rdd_id += 1
        return rdd_id

    @property
    def default_parallelism(self) -> int:
        configured = self.conf.get("spark.default.parallelism")
        if configured:
            return int(configured)
        return self.cluster.total_cores

    # -- dataset creation ---------------------------------------------------------

    def write_text_file(self, path: str, lines: Sequence[Any]) -> None:
        """Store real records as a DFS file (materialised dataset)."""
        lines = list(lines)
        size = SizeInfo(records=float(len(lines)), bytes=estimate_size(lines))
        self.datasets.register_input(path, size, records=lines)
        self.dfs.create(path, size.bytes)

    def register_synthetic_file(self, path: str, size_bytes: float,
                                num_records: float) -> None:
        """Declare a benchmark-scale input that is never materialised."""
        if size_bytes < 0 or num_records < 0:
            raise ValueError("synthetic file sizes must be non-negative")
        self.datasets.register_input(
            path, SizeInfo(records=num_records, bytes=size_bytes)
        )
        self.dfs.create(path, size_bytes)

    # -- RDD creation -----------------------------------------------------------------

    def text_file(self, path: str, num_partitions: Optional[int] = None,
                  **annotations: float) -> HadoopRDD:
        return HadoopRDD(self, path, num_partitions, **annotations)

    textFile = text_file

    def parallelize(self, data: Sequence[Any],
                    num_partitions: Optional[int] = None) -> ParallelizedRDD:
        if num_partitions is None:
            num_partitions = min(len(data), self.default_parallelism) or 1
        return ParallelizedRDD(self, data, num_partitions)

    # -- job execution -------------------------------------------------------------------

    def run_job(self, rdd: RDD, action: Action) -> Any:
        """Run all jobs needed for ``action`` (sampling pre-jobs included)."""
        for dep in self.dag.unbounded_range_partitioners(rdd):
            sample = self._execute_job(dep.rdd, SketchAction())
            dep.partitioner.set_bounds(sample if sample is not None else [])
        return self._execute_job(rdd, action)

    def _execute_job(self, rdd: RDD, action: Action) -> Any:
        stages = self.dag.build_stages(rdd, action)

        def job():
            results = None
            for stage in stages:
                results = yield self.scheduler.run_stage(stage)
            return results

        handle = self.sim.process(job(), name=f"job-{rdd.name}")
        if self.fork_hook is not None:
            # Fire the divergence barrier inside the job that spans its
            # time point; a job that finishes first leaves the hook armed
            # for the next one (fork_barrier stops without advancing the
            # clock, so pending fault timers are untouched).
            if (self.fork_hook_at <= self.sim.now
                    or self.sim.fork_barrier(self.fork_hook_at, stop=handle)):
                hook, self.fork_hook = self.fork_hook, None
                hook(self)
        if self.faults is None:
            self.sim.run()
        else:
            # Stop at job completion instead of draining the queue: pending
            # fault timers must fire *during* later jobs, not idle-fire now.
            self.sim.run_until(handle)
        if not handle.triggered:
            raise RuntimeError(
                f"job on {rdd.name} deadlocked: the event queue drained with "
                f"{len(stages)} stages planned but the job incomplete"
            )
        if not handle.ok:
            raise handle.value
        return action.finalize(handle.value, rdd)

    # -- reporting ------------------------------------------------------------------------

    @property
    def total_runtime(self) -> float:
        return self.recorder.total_runtime
