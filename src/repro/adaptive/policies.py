"""Pool-size policies for the paper's compared systems.

:class:`AdaptivePolicy` is the dynamic solution: one MAPE-K control loop per
(executor, stage).  :class:`BestFitPolicy` is the paper's "static BestFit"
baseline: the hypothetical optimum obtained by sweeping the static solution
and keeping the best per-stage thread count.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.adaptive.mapek import AdaptiveControlLoop
from repro.engine.metrics import TaskMetrics
from repro.engine.policy import ExecutorPolicy


class AdaptivePolicy(ExecutorPolicy):
    """The self-adaptive executor policy (paper section 5).

    Every stage starts a fresh hill-climb from ``cmin`` ("the algorithm
    always starts from the minimum number of threads in each stage"), so
    different stages -- and different executors, on heterogeneous nodes --
    can settle on different sizes (addresses limitations L1 and L4).
    """

    def __init__(self, cmin: Optional[int] = None, cmax: Optional[int] = None,
                 tolerance: Optional[float] = None) -> None:
        self._cmin = cmin
        self._cmax = cmax
        self._tolerance = tolerance
        self._loop: Optional[AdaptiveControlLoop] = None

    def bounds_for(self, executor) -> tuple:
        conf = executor.ctx.conf
        cmin = self._cmin if self._cmin is not None else int(conf.get("repro.adaptive.cmin"))
        cmax = self._cmax
        if cmax is None:
            configured = conf.get("repro.adaptive.cmax")
            cmax = int(configured) if configured else executor.node.cores
        tolerance = (
            self._tolerance
            if self._tolerance is not None
            else float(conf.get("repro.adaptive.tolerance"))
        )
        return cmin, cmax, tolerance

    def on_stage_start(self, executor, stage) -> int:
        cmin, cmax, tolerance = self.bounds_for(executor)
        self._loop = AdaptiveControlLoop(executor, stage, cmin, cmax,
                                         tolerance=tolerance)
        return self._loop.initial_threads()

    def on_task_complete(self, executor, stage, metrics: TaskMetrics) -> Optional[int]:
        if self._loop is None or self._loop.stage is not stage:
            return None
        return self._loop.on_task_complete()

    def on_fault(self, executor, reason: str) -> None:
        if self._loop is not None:
            self._loop.invalidate_interval(reason)


class BestFitPolicy(ExecutorPolicy):
    """Per-stage oracle sizes (the paper's hypothetical "static BestFit").

    ``stage_sizes`` maps a stage's *ordinal position* in the run (0, 1, ...)
    to a thread count, since that is how the paper reports per-stage choices;
    unmapped stages use the executor default.
    """

    def __init__(self, stage_sizes: Dict[int, int]) -> None:
        for ordinal, size in stage_sizes.items():
            if size <= 0:
                raise ValueError(
                    f"stage {ordinal}: thread count must be positive, got {size}"
                )
        self.stage_sizes = dict(stage_sizes)
        self._seen_stages: Dict[int, int] = {}

    def _ordinal(self, stage) -> int:
        if stage.stage_id not in self._seen_stages:
            self._seen_stages[stage.stage_id] = len(self._seen_stages)
        return self._seen_stages[stage.stage_id]

    def on_stage_start(self, executor, stage) -> int:
        ordinal = self._ordinal(stage)
        return self.stage_sizes.get(ordinal, executor.default_pool_size)
