"""Fig. 3: inherent I/O performance variability across DAS-5 nodes."""

from repro.harness.experiments import fig3_node_variability
from repro.harness.report import render_table, write_result


def test_fig3_node_variability():
    rows = fig3_node_variability(num_nodes=44)
    write_result(
        "fig3_node_variability",
        render_table(
            ["Node", "Write time (s)", "Read time (s)", "Disk speed factor"],
            [
                (r["node"], r["write_time"], r["read_time"],
                 f"{r['disk_speed_factor']:.3f}")
                for r in rows
            ],
            title="Fig. 3: 30 GB write/read time per node (44 nodes)",
        ),
    )
    assert len(rows) == 44

    read_times = [r["read_time"] for r in rows]
    write_times = [r["write_time"] for r in rows]

    # Nominally identical machines spread significantly (the paper's point).
    assert max(read_times) / min(read_times) > 1.2
    assert max(write_times) / min(write_times) > 1.2

    # Writes are slower than reads on the HDD model, as in the paper's plot.
    mean_read = sum(read_times) / len(read_times)
    mean_write = sum(write_times) / len(write_times)
    assert mean_write > mean_read

    # Faster disks (higher speed factor) finish sooner.
    fastest = max(rows, key=lambda r: r["disk_speed_factor"])
    slowest = min(rows, key=lambda r: r["disk_speed_factor"])
    assert fastest["read_time"] < slowest["read_time"]
