"""Table 2: I/O activity of Spark applications relative to input size."""

from repro.harness.experiments import table2_io_activity
from repro.harness.report import render_table, write_result


def test_table2_io_activity():
    rows = table2_io_activity()
    table = render_table(
        ["Application", "Input (GiB)", "I/O activity (GiB)",
         "Amplification (measured)", "Amplification (paper)"],
        [
            (
                r["application"],
                r["input_gib"],
                r["io_activity_gib"],
                f"{r['measured_amplification']:.2f}x",
                f"{r['paper_amplification']:.2f}x",
            )
            for r in rows
        ],
        title="Table 2: cluster disk I/O relative to input size",
    )
    write_result("table2_io_activity", table)

    by_name = {r["application"]: r for r in rows}
    # Every application moves more bytes than its input (the paper's point).
    for row in rows:
        assert row["measured_amplification"] > 1.0, row

    # Join is the paper's smallest amplification; NWeight its largest.
    assert by_name["join"]["measured_amplification"] == min(
        r["measured_amplification"] for r in rows
    )
    assert by_name["nweight"]["measured_amplification"] == max(
        r["measured_amplification"] for r in rows
    )

    # Each measured ratio is within 45% of the paper's (different substrate,
    # same order of magnitude and ranking).
    for row in rows:
        ratio = row["measured_amplification"] / row["paper_amplification"]
        assert 0.55 < ratio < 1.8, row
