"""Exact, noise-free cost check of the fair-share kernel.

One fixed engine run (terasort, scale 0.01, seed 42) under ``cProfile``,
with the exact number of calls of each kernel entry point pinned.  Call
counts do not depend on the host or its load, so a change that adds a
pass, a re-pricing or a queue entry per membership change shows up here
on any machine, where a wall-clock gate would drown it in noise.

A change that moves a count on purpose updates the pinned number below
and says so in CHANGES.md.  ``benchmarks/perf/opcodes.py`` gives the
matching opcode and call ledger of a full Fig. 8 matrix pass.
"""

import cProfile
import os
import pstats

from repro.harness.runner import run_workload

#: Calls per ``file:function`` over the run.  ``uniform_rate`` is called
#: once per re-planning (``_reschedule``) of a non-idle set: the passes in
#: between reuse the rate it kept.  ``device.py:submit`` is absent because
#: a device request hands its job straight to the base class.
#: ``call_in`` is the only queue push, stage ends included.
PINNED = {
    "resources.py:_on_wake": 2806,
    "resources.py:_advance": 1166,
    "resources.py:_reschedule": 3812,
    "resources.py:uniform_rate": 1773,
    "device.py:uniform_rate": 1033,
    "device.py:rates": 12,
    "device.py:submit": 0,
    "core.py:call_in": 7627,
}


def _kernel_calls():
    profiler = cProfile.Profile()
    profiler.runcall(run_workload, "terasort",
                     workload_kwargs={"scale": 0.01}, seed=42)
    counts = dict.fromkeys(PINNED, 0)
    for (path, _line, name), row in pstats.Stats(profiler).stats.items():
        key = f"{os.path.basename(path)}:{name}"
        if key in counts and f"{os.sep}repro{os.sep}" in path:
            counts[key] += row[1]
    return counts


def test_kernel_call_counts_are_pinned():
    assert _kernel_calls() == PINNED
