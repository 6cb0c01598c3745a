"""Fig. 7: ε, µ, and ζ vs thread count for the Terasort stages."""

from repro.harness.experiments import fig7_congestion_index
from repro.harness.report import render_table, write_result

from conftest import BENCH_SCALE

MiB = 1024.0**2


def test_fig7_congestion_index():
    rows = fig7_congestion_index(scale=BENCH_SCALE)
    lines = []
    for row in rows:
        table = render_table(
            ["Threads", "epoll wait (s)", "I/O throughput (MB/s)",
             "congestion index"],
            [
                (
                    threads,
                    row["series"][threads]["epoll_wait"],
                    row["series"][threads]["throughput"] / MiB,
                    f"{row['series'][threads]['congestion'] * MiB:.4f}",
                )
                for threads in sorted(row["series"])
            ],
            title=(
                f"Fig. 7 stage {row['stage']}: sensors per thread count "
                f"(selected: {row['selected']})"
            ),
        )
        lines.append(table)
    write_result("fig7_congestion_index", "\n\n".join(lines))

    assert len(rows) == 3
    for row in rows:
        series = row["series"]
        # ε grows with the thread count (the paper's Fig. 7 across all
        # stages: more threads, more accumulated wait).
        waits = [series[t]["epoll_wait"] for t in sorted(series)]
        assert waits == sorted(waits), row["stage"]
        # µ peaks at a moderate thread count, not at the extremes.
        best_mu = max(series, key=lambda t: series[t]["throughput"])
        assert best_mu in (4, 8, 16), (row["stage"], best_mu)

    # The hill-climb selection (the "Selected" arrow) reproduces the paper's
    # choices: 4 for the read stage, 8 for the shuffle-write stage, and 4-8
    # for the output stage.
    assert rows[0]["selected"] in (4, 8)
    assert rows[1]["selected"] == 8
    assert rows[2]["selected"] in (4, 8)
