"""Table 1: the number of functional Spark parameters per category."""

from repro.harness.experiments import table1_parameters
from repro.harness.report import render_table, write_result

PAPER_TABLE1 = {
    "Shuffle": 19,
    "Compression and Serialization": 16,
    "Memory Management": 14,
    "Execution Behavior": 14,
    "Network": 13,
    "Scheduling": 32,
    "Dynamic Allocation": 9,
}


def test_table1_parameters():
    counts = table1_parameters()
    rows = [(category, count, PAPER_TABLE1[category])
            for category, count in counts.items()]
    rows.append(("Total", sum(counts.values()), sum(PAPER_TABLE1.values())))
    table = render_table(
        ["Category", "#Parameters (measured)", "#Parameters (paper)"],
        rows,
        title="Table 1: functional parameters in Spark 2.4",
    )
    write_result("table1_parameters", table)
    assert counts == PAPER_TABLE1
    assert sum(counts.values()) == 117
