"""Workload base class and run results.

A :class:`Workload` is an RDD program plus its paper-calibrated data
volumes: ``prepare`` materialises input in the simulated DFS, ``execute``
builds and runs the DAG, and :meth:`Workload.run` wraps both into a
:class:`WorkloadRun` -- runtime, per-stage records, and cluster I/O totals,
exactly the fields the harness summarises into sweep journals and the
service layer's runtime oracle.  ``scale`` multiplies every byte count so
tests and thousand-job service scenarios stay cheap while ratios (and
therefore thread-count optima) are preserved.  Subclasses also provide a
small *materialised* mode (``run_small``) whose outputs are semantically
checkable (Terasort really sorts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.engine.context import SparkContext
from repro.engine.metrics import StageRecord

GiB = 1024.0**3
MiB = 1024.0**2


@dataclass
class WorkloadRun:
    """Everything a harness needs from one completed workload run."""

    workload: str
    ctx: SparkContext
    result: Any = None

    @property
    def runtime(self) -> float:
        return self.ctx.total_runtime

    @property
    def stages(self) -> List[StageRecord]:
        return self.ctx.recorder.stages

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def stage_durations(self) -> List[float]:
        return [stage.duration for stage in self.stages]

    @property
    def cluster_io_bytes(self) -> float:
        """All bytes moved through cluster disks (Table 2's I/O activity)."""
        for node in self.ctx.cluster.nodes:
            node.disk.sync()
        return self.ctx.cluster.total_disk_bytes()


class Workload:
    """One benchmark application.

    Subclasses define the paper-calibrated synthetic run (``prepare`` +
    ``execute``) and, where semantics are checkable, a small materialised
    variant (``prepare_small`` + ``execute``) whose output tests can verify.
    """

    #: registry name, HiBench category, and paper-reported volumes
    name: str = ""
    category: str = ""
    input_size: float = 0.0  # bytes (Table 2)
    paper_io_activity: float = 0.0  # bytes (Table 2)

    def __init__(self, scale: float = 1.0) -> None:
        if not 0 < scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {scale}")
        self.scale = scale

    @property
    def scaled_input_size(self) -> float:
        return self.input_size * self.scale

    @property
    def paper_amplification(self) -> float:
        """Paper Table 2: I/O activity relative to input size."""
        return self.paper_io_activity / self.input_size

    # -- synthetic (benchmark-scale) mode -----------------------------------

    def prepare(self, ctx: SparkContext) -> None:
        """Register this workload's synthetic input datasets."""
        raise NotImplementedError

    def execute(self, ctx: SparkContext) -> Any:
        """Build the RDD program and run its action(s)."""
        raise NotImplementedError

    def run(self, ctx: SparkContext) -> WorkloadRun:
        self.prepare(ctx)
        result = self.execute(ctx)
        return WorkloadRun(workload=self.name, ctx=ctx, result=result)

    # -- materialised (small, correctness-checkable) mode ----------------------

    def prepare_small(self, ctx: SparkContext) -> None:
        """Register a small materialised input; override where supported."""
        raise NotImplementedError(
            f"{self.name} does not provide a materialised variant"
        )

    def run_small(self, ctx: SparkContext) -> WorkloadRun:
        self.prepare_small(ctx)
        result = self.execute(ctx)
        return WorkloadRun(workload=self.name, ctx=ctx, result=result)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(scale={self.scale})"
