"""Ablations of the simulation substrate's modelling choices.

DESIGN.md section 5 claims the thread-count optimum *emerges* from two
mechanisms: per-request access latency (starves the disk at low thread
counts) and the efficiency decay (collapses it at high counts), mediated by
task chunking.  These benchmarks disable each mechanism and verify the
phenomenon degenerates exactly as the model predicts -- evidence that the
reproduction reproduces for the right reason.
"""

import dataclasses

from repro.harness.experiments import run_configs
from repro.harness.parallel import RunConfig
from repro.harness.report import render_table, write_result
from repro.storage.device import HDD_PROFILE

from conftest import BENCH_SCALE

THREADS = (32, 8, 2)
#: Below ~30 GiB the task count drops under the cluster's slot count and
#: contention effects dilute; floor the ablation scale there.
SUBSTRATE_SCALE = max(0.25, BENCH_SCALE * 0.25)


def run_terasort(profile, threads=THREADS, chunk_bytes=None):
    """Fixed-policy Terasort on 4 identical nodes with disk ``profile``,
    one run per thread count."""
    conf = {} if chunk_bytes is None else {"repro.task.chunk.bytes": chunk_bytes}
    runs = run_configs([
        RunConfig("terasort", policy=("fixed", t),
                  workload_kwargs={"scale": SUBSTRATE_SCALE},
                  conf_overrides=conf, cluster_kwargs={"device": profile})
        for t in threads
    ])
    return dict(zip(threads, runs))


def stage0(run):
    return run.stages[0].duration


def test_ablation_no_access_latency():
    """Per-request latency is one of the two low-thread-count penalties
    (the other being CPU interleaving): removing it must measurably shrink
    the gap between 2 and 8 threads on the read stage."""
    zero_latency = dataclasses.replace(
        HDD_PROFILE, read_latency=0.0, write_latency=0.0
    )
    with_latency, without_latency = (
        {t: stage0(run) for t, run in run_terasort(profile).items()}
        for profile in (HDD_PROFILE, zero_latency)
    )
    write_result(
        "ablation_access_latency",
        render_table(
            ["Threads", "stage 0 with latency (s)", "stage 0 without (s)"],
            [(t, with_latency[t], without_latency[t]) for t in THREADS],
            title="Ablation: HDD per-request latency (Terasort read stage)",
        ),
    )
    # With latency, 2 threads clearly lose to 8 (latency gaps idle the disk).
    assert with_latency[2] > with_latency[8] * 1.3
    # Removing the latency closes part of that gap.
    gap_with = with_latency[2] / with_latency[8]
    gap_without = without_latency[2] / without_latency[8]
    assert gap_without < gap_with * 0.95
    # And 2 threads get absolutely faster without per-request latency.
    assert without_latency[2] < with_latency[2]


def test_ablation_no_efficiency_decay():
    """Without the seek-thrash decay, more threads never hurt: the default
    (32) matches or beats 8, eliminating the paper's headline effect."""
    no_decay = dataclasses.replace(
        HDD_PROFILE, read_alpha=0.0, write_alpha=0.0, min_efficiency=1.0
    )
    with_decay, without_decay = (
        {t: run.runtime for t, run in run_terasort(profile).items()}
        for profile in (HDD_PROFILE, no_decay)
    )
    write_result(
        "ablation_efficiency_decay",
        render_table(
            ["Threads", "total with decay (s)", "total without (s)"],
            [(t, with_decay[t], without_decay[t]) for t in THREADS],
            title="Ablation: HDD efficiency decay (Terasort totals)",
        ),
    )
    # With the decay, the default is far from optimal...
    assert with_decay[32] > with_decay[8] * 1.5
    # ...without it, the default is the best setting (no contention to flee).
    assert without_decay[32] <= min(without_decay.values()) * 1.02


def test_ablation_chunk_granularity():
    """Coarse chunks serialise each task's I/O and CPU into long exclusive
    phases; the thread-count response must survive granularity changes
    (it is a property of the device, not of the chunking)."""
    results = {
        chunk_mb: {
            t: run.runtime
            for t, run in run_terasort(
                HDD_PROFILE, (32, 8), chunk_bytes=chunk_mb * 1024 * 1024
            ).items()
        }
        for chunk_mb in (4, 8, 32)
    }
    write_result(
        "ablation_chunk_granularity",
        render_table(
            ["Chunk (MiB)", "total @32 threads (s)", "total @8 threads (s)"],
            [(c, r[32], r[8]) for c, r in sorted(results.items())],
            title="Ablation: task I/O chunk size (Terasort totals)",
        ),
    )
    for chunk_mb, by_threads in results.items():
        assert by_threads[8] < by_threads[32], (
            f"8 threads should beat 32 at chunk={chunk_mb}MiB"
        )
