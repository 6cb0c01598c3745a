"""Copy-on-write what-if planning: one simulated prefix, many futures.

Trial-and-error tuning asks "what if, from this point of the run, the pool
size / policy / conf / fault plan were different?".  :func:`run_whatif`
runs one workload to a chosen simulated time ``t=T`` once, then continues
each :class:`Alternative` in a child forked by the supervised-child
executor (:func:`~repro.harness.supervise.supervise`) and races the
futures.  Forking sidesteps the impossibility of pickling the kernel's
generator-based :class:`~repro.simulation.core.Process` objects: the child
inherits the entire live simulator -- heap, event queue, suspended
generators -- for the cost of a page-table copy.  Children are babysat,
retried and quarantined exactly like any other supervised child.

Where ``os.fork`` is unavailable (:func:`fork_available` is False) the
fan-out falls back to sequential re-simulation with identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.harness.parallel import RunSummary, summarize_run
from repro.harness.supervise import (
    CHILD_CONTINUES,
    CONTINUE,
    ForkUnavailableError,
    child_abort,
    child_finish,
    current_child_key,
    fork_available,
    in_forked_child,
    supervise,
)


class ForkBarrierNotReached(RuntimeError):
    """The what-if barrier time lies beyond the end of the run."""


class AlternativeError(ValueError):
    """A what-if alternative spec could not be parsed or applied."""


@dataclass(frozen=True)
class Alternative:
    """One divergent future to try from the fork point.

    ``kind`` is one of:

    * ``"continue"`` -- no change: the baseline future.
    * ``"policy"``   -- swap every executor's policy (harness spec
      vocabulary, e.g. ``"dynamic"`` or ``("fixed", 8)``); takes effect
      from the next decision point (stage start / task completion).
    * ``"pool"``     -- force every live executor's pool to ``value``
      threads *now* and pin it there (fixed policy onward).
    * ``"conf"``     -- ``{key: value}`` conf overrides; only keys read
      after the fork point have any effect.
    * ``"faults"``   -- install a fault plan (dict or
      :class:`~repro.faults.plan.FaultPlan`); fault times must lie at or
      after the fork point.
    * ``"reseed"``   -- decorrelate this child's random streams from the
      shared prefix (:meth:`RandomStreams.reseed_for_fork`).
    """

    key: str
    kind: str
    value: Any = None

    def apply(self, ctx) -> None:
        from repro.harness.runner import make_policy_factory

        if self.kind == "continue":
            return
        if self.kind == "policy":
            ctx.set_policy_factory(make_policy_factory(self.value))
            return
        if self.kind == "pool":
            from repro.engine.task import PoolResized

            size = int(self.value)
            ctx.set_policy_factory(make_policy_factory(("fixed", size)))
            for executor in ctx.executors:
                if not executor.alive:
                    continue
                executor._apply_pool_size(size, reason="whatif")
                ctx.scheduler.channel.send(
                    ctx.scheduler.handle_message,
                    PoolResized(executor.executor_id, executor.pool_size),
                )
            return
        if self.kind == "conf":
            for conf_key, conf_value in dict(self.value).items():
                ctx.conf.set(conf_key, conf_value)
            return
        if self.kind == "faults":
            from repro.faults.plan import FaultPlan

            plan = self.value
            if isinstance(plan, dict):
                plan = FaultPlan.from_dict(plan)
            ctx.install_fault_plan(plan)
            return
        if self.kind == "reseed":
            ctx.streams.reseed_for_fork(str(self.value or self.key))
            return
        raise AlternativeError(f"unknown alternative kind: {self.kind!r}")


def parse_alternative(spec: str) -> Alternative:
    """Parse a CLI alternative spec.

    Grammar (one divergence per spec)::

        continue                    the unchanged baseline
        policy=dynamic|default      swap the executor policy
        policy=fixed:N|static:N     ... to a sized policy
        pool=N                      force & pin every pool to N threads
        conf:KEY=VALUE              set one conf key
        faults=PLAN.json            install a fault plan file
        reseed[=KEY]                decorrelate random streams
    """
    text = spec.strip()
    if text == "continue":
        return Alternative(key=text, kind="continue")
    if text == "reseed" or text.startswith("reseed="):
        _, _, seed_key = text.partition("=")
        return Alternative(key=text, kind="reseed", value=seed_key or None)
    if text.startswith("conf:"):
        body = text[len("conf:"):]
        conf_key, sep, conf_value = body.partition("=")
        if not sep or not conf_key:
            raise AlternativeError(
                f"conf alternative must look like conf:KEY=VALUE, got {spec!r}"
            )
        return Alternative(key=text, kind="conf",
                           value={conf_key: conf_value})
    name, sep, value = text.partition("=")
    if not sep:
        raise AlternativeError(f"cannot parse alternative spec: {spec!r}")
    if name == "pool":
        try:
            size = int(value)
        except ValueError:
            raise AlternativeError(
                f"pool alternative needs an integer, got {spec!r}"
            ) from None
        return Alternative(key=text, kind="pool", value=size)
    if name == "policy":
        kind_name, sep2, threads = value.partition(":")
        if sep2:
            try:
                policy = (kind_name, int(threads))
            except ValueError:
                raise AlternativeError(
                    f"policy size must be an integer, got {spec!r}"
                ) from None
        else:
            policy = kind_name
        return Alternative(key=text, kind="policy", value=policy)
    if name == "faults":
        from repro.faults.plan import FaultPlan

        return Alternative(key=text, kind="faults",
                           value=FaultPlan.load(value).to_dict())
    raise AlternativeError(f"cannot parse alternative spec: {spec!r}")


@dataclass
class WhatIfReport:
    """The outcome of one what-if fan-out."""

    workload: str
    at: float
    forked: bool
    alternatives: List[Alternative]
    summaries: List[Optional[RunSummary]]

    @property
    def baseline(self) -> Optional[RunSummary]:
        for alternative, summary in zip(self.alternatives, self.summaries):
            if alternative.kind == "continue":
                return summary
        return None

    def to_dict(self) -> Dict[str, Any]:
        baseline = self.baseline
        rows = []
        for alternative, summary in zip(self.alternatives, self.summaries):
            row: Dict[str, Any] = {
                "key": alternative.key,
                "kind": alternative.kind,
            }
            if summary is None:
                row["quarantined"] = True
            else:
                row["runtime"] = summary.runtime
                row["stage_durations"] = summary.stage_durations()
                if baseline is not None and baseline.runtime > 0:
                    row["vs_continue"] = (
                        1.0 - summary.runtime / baseline.runtime
                    )
            rows.append(row)
        return {
            "schema": "repro.whatif/1",
            "workload": self.workload,
            "at": self.at,
            "forked": self.forked,
            "alternatives": rows,
        }


class _ParentForkDone(Exception):
    """Unwinds the parent's suspended run once every child is collected."""

    def __init__(self, results: List[Optional[RunSummary]]) -> None:
        super().__init__("fork fan-out complete")
        self.results = results


def run_whatif(
    workload: Union[str, Any],
    at: float,
    alternatives: Sequence[Alternative],
    policy: Any = "default",
    conf_overrides: Optional[Dict[str, Any]] = None,
    workload_kwargs: Optional[Dict[str, Any]] = None,
    fault_plan=None,
    parallel: int = 1,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    allow_quarantine: bool = False,
    use_fork: Optional[bool] = None,
    **cluster_kwargs: Any,
) -> WhatIfReport:
    """Fork one run at ``t=at`` and try each alternative future.

    The warm-up prefix -- setup plus the simulation up to ``at`` under the
    base ``policy`` -- runs once; each alternative then continues in a
    copy-on-write child.  ``use_fork=None`` picks forking when the
    platform supports it and otherwise falls back to sequential
    re-simulation (one full run per alternative, applying the divergence
    at the same barrier) with identical results.
    """
    from repro.harness.runner import build_context
    from repro.workloads import Workload, get_workload

    if not 0 <= at < math.inf:
        raise ValueError(f"fork time must be finite and >= 0, got {at}")
    alternatives = list(alternatives)
    if not alternatives:
        raise ValueError("run_whatif needs at least one alternative")
    if isinstance(workload, str):
        workload = get_workload(workload, **(workload_kwargs or {}))
    elif workload_kwargs:
        raise ValueError("workload_kwargs only apply when passing a name")
    assert isinstance(workload, Workload)
    if use_fork is None:
        use_fork = fork_available()
    if use_fork and not fork_available():
        raise ForkUnavailableError("os.fork is unavailable on this platform")

    def _context():
        return build_context(
            policy=policy,
            conf_overrides=conf_overrides,
            fault_plan=fault_plan,
            **cluster_kwargs,
        )

    if not use_fork:
        summaries: List[Optional[RunSummary]] = []
        for alternative in alternatives:
            ctx = _context()
            ctx.fork_hook_at = at

            def hook(c, alternative=alternative):
                c.sim.after_fork(str(alternative.key))
                alternative.apply(c)

            ctx.fork_hook = hook
            run = workload.run(ctx)
            if ctx.fork_hook is not None:
                raise ForkBarrierNotReached(
                    f"fork time t={at} lies beyond the end of the run "
                    f"(runtime {run.runtime:.1f}s)"
                )
            summaries.append(summarize_run(run, alternative.key))
        return WhatIfReport(workload=workload.name, at=at, forked=False,
                           alternatives=alternatives, summaries=summaries)

    def _diverge(alternative: Alternative):
        # Executed in the child, on the parent's suspended stack: apply
        # the divergence and resume the simulation by returning.
        ctx = _live_ctx[0]
        ctx.sim.after_fork(str(alternative.key))
        alternative.apply(ctx)
        return CONTINUE

    def hook(ctx):
        _live_ctx[0] = ctx
        outcome = supervise(
            alternatives,
            _diverge,
            parallel=parallel,
            timeout=timeout,
            max_attempts=max_attempts,
            allow_quarantine=allow_quarantine,
        )
        if outcome is CHILD_CONTINUES:
            return  # we are a child now; resume the simulation
        raise _ParentForkDone(outcome)

    _live_ctx: List[Any] = [None]
    ctx = _context()
    ctx.fork_hook_at = at
    ctx.fork_hook = hook
    try:
        run = workload.run(ctx)
    except _ParentForkDone as done:
        return WhatIfReport(workload=workload.name, at=at, forked=True,
                            alternatives=alternatives,
                            summaries=done.results)
    except BaseException as exc:  # noqa: BLE001 - a child must not unwind
        if in_forked_child():
            child_abort(exc)
        raise
    if in_forked_child():
        # A child's continued simulation ran to completion: report the
        # summary over the pipe and exit; the parent assembles the report.
        child_finish(summarize_run(run, current_child_key()))
    raise ForkBarrierNotReached(
        f"fork time t={at} lies beyond the end of the run "
        f"(runtime {run.runtime:.1f}s)"
    )
