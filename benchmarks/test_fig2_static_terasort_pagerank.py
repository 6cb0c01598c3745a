"""Fig. 2: the static solution's effect on Terasort and PageRank runtimes."""

from repro.harness.experiments import fig2_static_sweep
from repro.harness.report import render_table, write_result

from conftest import BENCH_SCALE

#: Paper: best static threads per Terasort stage (Fig. 2a) and the headline
#: reductions of the static solution at its best uniform setting.
PAPER_TERASORT_REDUCTION = 0.3935  # 39.35% at 8 threads
PAPER_PAGERANK_REDUCTION = 0.1902  # 19.02% at 8 threads


def _render(result):
    rows = []
    for threads in sorted(result["runs"], reverse=True):
        run = result["runs"][threads]
        rows.append(
            (threads, run["total"], *[f"{d:.0f}" for d in run["stages"]])
        )
    rows.append(
        ("bestfit", result["bestfit"]["total"],
         *[f"{d:.0f}" for d in result["bestfit"]["stages"]])
    )
    num_stages = len(result["bestfit"]["stages"])
    return render_table(
        ["Threads", "Total (s)"] + [f"Stage {i}" for i in range(num_stages)],
        rows,
        title=f"Fig. 2 ({result['workload']}): static solution runtimes",
    )


def test_fig2_terasort():
    result = fig2_static_sweep("terasort", scale=BENCH_SCALE)
    write_result("fig2a_static_terasort", _render(result))
    runs = result["runs"]

    # The default (32 threads) is never the best uniform setting.
    best_uniform = min(runs, key=lambda t: runs[t]["total"])
    assert best_uniform in (4, 8)

    # The paper's best uniform setting (8 threads) cuts ~39% off the default.
    reduction = 1.0 - runs[8]["total"] / runs[32]["total"]
    assert reduction > 0.30, reduction

    # BestFit (per-stage minima) is at least as good as any uniform setting.
    assert result["bestfit"]["total"] <= runs[best_uniform]["total"] * 1.05

    # Per-stage optima sit in the paper's 4-8 band, never at the default.
    for _stage, threads in result["bestfit_sizes"].items():
        assert threads in (4, 8), result["bestfit_sizes"]


def test_fig2_pagerank():
    result = fig2_static_sweep("pagerank", scale=BENCH_SCALE)
    write_result("fig2b_static_pagerank", _render(result))
    runs = result["runs"]

    # The static solution helps PageRank, but only modestly (~19% in the
    # paper): just the ingest and output stages are I/O-marked.
    best_uniform = min(runs, key=lambda t: runs[t]["total"])
    reduction = 1.0 - runs[best_uniform]["total"] / runs[32]["total"]
    assert 0.05 < reduction < 0.40, reduction

    # The I/O-marked stages pick non-default counts; shuffle stages are out
    # of the static solution's reach and keep the default (limitation L2).
    sizes = result["bestfit_sizes"]
    assert sizes[0] != 32
    assert sizes[len(sizes) - 1] != 32
    for middle in range(1, len(sizes) - 1):
        assert sizes[middle] == 32
