"""Tests for the perf-benchmark engine (repro.harness.bench).

Timing-independent by design: the microbenchmark *programs* are checked
for correctness (event counts, completion accounting) and the regression
gate for its comparison logic, but no test asserts on wall-clock rates --
those belong to ``repro bench`` runs, not the CI test suite.
"""

import pytest

from repro.harness import bench


def _doc(**merits):
    return {
        "schema": bench.BENCH_SCHEMA,
        "benchmarks": {
            name: {"events_per_sec": value} for name, value in merits.items()
        },
    }


class TestCheckRegression:
    def test_equal_docs_pass(self):
        doc = _doc(kernel=100_000.0)
        assert bench.check_regression(doc, doc) == []

    def test_drop_beyond_tolerance_fails(self):
        failures = bench.check_regression(
            _doc(kernel=70_000.0), _doc(kernel=100_000.0), tolerance=0.25
        )
        assert len(failures) == 1
        assert "kernel" in failures[0]

    def test_drop_within_tolerance_passes(self):
        assert bench.check_regression(
            _doc(kernel=80_000.0), _doc(kernel=100_000.0), tolerance=0.25
        ) == []

    def test_improvement_passes(self):
        assert bench.check_regression(
            _doc(kernel=200_000.0), _doc(kernel=100_000.0)
        ) == []

    def test_new_benchmark_not_gated_retroactively(self):
        assert bench.check_regression(
            _doc(kernel=100_000.0, extra=1.0), _doc(kernel=100_000.0)
        ) == []

    def test_removed_benchmark_ignored(self):
        assert bench.check_regression(
            _doc(kernel=100_000.0), _doc(kernel=100_000.0, gone=999.0)
        ) == []

    def test_runs_per_min_used_when_events_rate_absent(self):
        current = {"benchmarks": {"sweep": {"events_per_sec": None,
                                            "runs_per_min": 10.0}}}
        baseline = {"benchmarks": {"sweep": {"events_per_sec": None,
                                             "runs_per_min": 100.0}}}
        failures = bench.check_regression(current, baseline)
        assert len(failures) == 1 and "sweep" in failures[0]


class TestKernelPrograms:
    def test_terasort_kernel_run_counts_events(self):
        events = bench._terasort_kernel_run(num_nodes=2, tasks_per_node=4,
                                            waves=2)
        # Lower bound: every task needs >= 6 I/O + 1 CPU + 1 message, each
        # at least one queue entry, plus process bootstraps.
        assert events > 2 * 4 * 2 * 8

    def test_terasort_kernel_run_is_deterministic(self):
        first = bench._terasort_kernel_run(2, 4, 2)
        second = bench._terasort_kernel_run(2, 4, 2)
        assert first == second

    def test_storm_run_counts_events(self):
        events = bench._storm_run(processes=10, hops=5)
        # Each hop is one timeout + one resume bookkeeping entry at minimum.
        assert events >= 10 * 5

    def test_timed_returns_best_of_n(self):
        calls = []

        def fake():
            calls.append(1)
            return 42

        events, wall = bench._timed(fake, repeats=3)
        assert events == 42
        assert len(calls) == 3
        assert wall >= 0.0


class TestSuiteShape:
    def test_smoke_suite_document(self):
        doc = bench.run_suite(smoke=True, parallel=1)
        assert doc["schema"] == bench.BENCH_SCHEMA
        assert doc["mode"] == "smoke"
        expected = {"kernel_terasort", "kernel_fairshare", "kernel_storm",
                    "e2e_terasort", "e2e_pagerank", "profiler_overhead",
                    "sweep", "fork_sweep", "serve_chaos"}
        assert set(doc["benchmarks"]) == expected
        for name in expected - {"sweep", "profiler_overhead", "fork_sweep"}:
            assert doc["benchmarks"][name]["events_per_sec"] > 0
        sweep = doc["benchmarks"]["sweep"]
        assert sweep["points"] == 8
        assert sweep["runs_per_min"] > 0
        overhead = doc["benchmarks"]["profiler_overhead"]
        # Not regression-gated (host-dependent walls) but present and sane:
        # a profiled run schedules at least as many events as the baseline.
        assert overhead["events_per_sec"] is None
        assert overhead["events"] >= overhead["baseline_events"] > 0
        fork_sweep = doc["benchmarks"]["fork_sweep"]
        assert fork_sweep["points"] == 8
        if fork_sweep["fork_available"]:
            assert fork_sweep["runs_per_min"] > 0
            assert fork_sweep["speedup"] > 0
        serve = doc["benchmarks"]["serve_chaos"]
        assert serve["us_per_job"] == pytest.approx(
            1e6 * serve["wall_s"] / serve["jobs"])
        assert serve["scaling_ratio"] > 0
        # The suite gates against itself: a doc never regresses vs itself.
        assert bench.check_regression(doc, doc) == []

    def test_only_filters_suite(self):
        doc = bench.run_suite(smoke=True, only=["kernel_storm"])
        assert set(doc["benchmarks"]) == {"kernel_storm"}

    def test_only_preserves_registry_order(self):
        doc = bench.run_suite(smoke=True,
                              only=["kernel_storm", "kernel_terasort"])
        assert list(doc["benchmarks"]) == ["kernel_terasort", "kernel_storm"]

    def test_only_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            bench.run_suite(smoke=True, only=["no_such_bench"])


class TestCheckRetriesOnlyFailing(object):
    """``repro bench --check`` must re-measure just the failing
    benchmark(s): re-running the whole suite gives every passing benchmark
    a fresh chance to flake and costs minutes on a one-benchmark blip."""

    def test_retry_scope(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        calls = {"stable": 0, "flaky": 0}

        def stable(smoke, parallel):
            calls["stable"] += 1
            return {"events_per_sec": 100.0, "wall_s": 0.1}

        def flaky(smoke, parallel):
            # Below baseline on the first measurement, recovered on retry.
            calls["flaky"] += 1
            rate = 10.0 if calls["flaky"] == 1 else 100.0
            return {"events_per_sec": rate, "wall_s": 0.1}

        registry = {"stable": stable, "flaky": flaky,
                    "sweep": lambda smoke, parallel: {
                        "events_per_sec": None, "runs_per_min": 60.0,
                        "points": 1, "workers": 1, "speedup": 1.0,
                        "parallel_wall_s": 0.1}}
        monkeypatch.setattr(bench, "BENCHMARKS", registry)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            '{"benchmarks": {"stable": {"events_per_sec": 100.0}, '
            '"flaky": {"events_per_sec": 100.0}}}'
        )
        code = main(["bench", "--smoke", "--out",
                     str(tmp_path / "out.json"), "--check", str(baseline)])
        capsys.readouterr()
        assert code == 0
        assert calls["flaky"] == 2   # re-measured
        assert calls["stable"] == 1  # NOT re-measured

    def test_persistent_regression_still_fails(self, tmp_path, monkeypatch,
                                               capsys):
        from repro.cli import main

        registry = {"slow": lambda smoke, parallel: {
                        "events_per_sec": 10.0, "wall_s": 0.1},
                    "sweep": lambda smoke, parallel: {
                        "events_per_sec": None, "runs_per_min": 60.0,
                        "points": 1, "workers": 1, "speedup": 1.0,
                        "parallel_wall_s": 0.1}}
        monkeypatch.setattr(bench, "BENCHMARKS", registry)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            '{"benchmarks": {"slow": {"events_per_sec": 100.0}}}'
        )
        code = main(["bench", "--smoke", "--out",
                     str(tmp_path / "out.json"), "--check", str(baseline)])
        assert code == 1
        assert "PERF REGRESSION" in capsys.readouterr().err
