"""Fig. 4: the static solution does not help the SQL workloads."""

from repro.harness.experiments import fig2_static_sweep
from repro.harness.report import render_table, write_result

from conftest import BENCH_SCALE


def _render(result, label):
    rows = []
    for threads in sorted(result["runs"], reverse=True):
        run = result["runs"][threads]
        rows.append((threads, run["total"], *[f"{d:.0f}" for d in run["stages"]]))
    num_stages = len(result["bestfit"]["stages"])
    return render_table(
        ["Threads", "Total (s)"] + [f"Stage {i}" for i in range(num_stages)],
        rows,
        title=f"Fig. 4 ({label}): static solution on SQL workloads",
    )


def _check_sql_shape(result):
    """The default wins (or nearly wins) every static setting: the scan
    stages are compute-bound (68%/46% CPU), so cutting threads only removes
    CPU parallelism (paper section 4, limitation L3)."""
    runs = result["runs"]
    default_total = runs[32]["total"]
    best_total = min(run["total"] for run in runs.values())
    # No static setting beats the default by more than a whisker...
    assert best_total > default_total * 0.85
    # ...and aggressive reductions are catastrophically slower.
    assert runs[2]["total"] > default_total * 2.0
    # The compute-heavy scan stage (stage 0) is best at the default.
    scan_by_threads = {t: runs[t]["stages"][0] for t in runs}
    assert min(scan_by_threads, key=scan_by_threads.get) == 32


def test_fig4_aggregation():
    result = fig2_static_sweep("aggregation", scale=BENCH_SCALE)
    write_result("fig4a_static_aggregation", _render(result, "Aggregation"))
    _check_sql_shape(result)


def test_fig4_join():
    result = fig2_static_sweep("join", scale=BENCH_SCALE)
    write_result("fig4b_static_join", _render(result, "Join"))
    _check_sql_shape(result)
