"""Deterministic discrete-event simulation kernel.

This package provides the substrate on which the Spark-like engine runs:

* :mod:`repro.simulation.core` -- the event loop (a queue of deferred
  calls).
* :mod:`repro.simulation.resources` -- fair-share resources whose aggregate
  service rate depends on the number of concurrent jobs.  These model CPUs,
  disks, and network links.
* :mod:`repro.simulation.randomness` -- named, seeded random streams so that
  every experiment is reproducible.

The kernel is intentionally small and dependency-free: one pure-Python
implementation whose fair-share loops make a single pass over a
resource's jobs per membership change (see PERFORMANCE.md, "Fair-share
kernel").  It is a purpose-built replacement for the real cluster the
paper ran on (see DESIGN.md section 2).
"""

from repro.simulation.core import SimulationError, Simulator
from repro.simulation.randomness import RandomStreams
from repro.simulation.resources import (
    CpuResource,
    FairShareResource,
    Job,
    ResourceStats,
)

__all__ = [
    "CpuResource",
    "FairShareResource",
    "Job",
    "RandomStreams",
    "ResourceStats",
    "SimulationError",
    "Simulator",
]
