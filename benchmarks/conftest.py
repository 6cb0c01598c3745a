"""Shared settings for the reproduction benchmarks.

Every figure gets its runs from :mod:`repro.harness.experiments`, which
simulates each distinct run once per session, so figures that share a
protocol (e.g. Fig. 2 -> Fig. 5 -> Fig. 8, Fig. 7 -> Fig. 12) re-use each
other's runs.

``REPRO_BENCH_SCALE`` (default 1.0) scales every workload's input size; all
reported ratios are scale-invariant, so e.g. ``REPRO_BENCH_SCALE=0.25`` gives
a quick smoke pass of the whole evaluation.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from repro.harness.experiments import RUN_COUNTS  # noqa: E402

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"engine runs: {RUN_COUNTS['requested']} requested, "
        f"{RUN_COUNTS['simulated']} simulated"
    )
