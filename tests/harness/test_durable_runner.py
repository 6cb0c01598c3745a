"""The crash-safe sweep runner: resume, retry, watchdog, quarantine."""

import multiprocessing
import os
import time

import pytest

import repro.harness.parallel as parallel_mod
from repro.engine.metrics import RunRecorder
from repro.harness.journal import SweepJournal, config_fingerprint
from repro.harness.parallel import (
    QuarantinedConfigError,
    RunConfig,
    RunSummary,
    SweepInterrupted,
    map_runs,
    summary_to_doc,
)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker tests monkeypatch state inherited through fork",
)


def _configs(n=3):
    return [
        RunConfig(workload="wordcount", policy=("static", 2 ** i),
                  key=2 ** i, workload_kwargs={"scale": 0.02},
                  cluster_kwargs={"num_nodes": 2, "seed": 42})
        for i in range(n)
    ]


def _fake_summary(config):
    return RunSummary(workload=config.workload, key=config.key,
                      runtime=float(config.key), recorder=RunRecorder(),
                      cluster_io_bytes=1.5 * config.key)


class TestInProcessPath:
    def test_matches_map_runs(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "execute_run_config",
                            _fake_summary)
        configs = _configs()
        durable = map_runs(configs)
        assert [summary_to_doc(s) for s in durable] == [
            summary_to_doc(_fake_summary(c)) for c in configs
        ]

    def test_stop_after_interrupts_with_progress_journaled(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(parallel_mod, "execute_run_config",
                            _fake_summary)
        configs = _configs()
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        with pytest.raises(SweepInterrupted) as info:
            map_runs(configs, journal=journal, stop_after=2)
        assert info.value.completed == 2
        assert "--resume" in str(info.value)
        assert len(SweepJournal(journal.path)) == 2

    def test_resume_skips_journaled_points_identically(
            self, monkeypatch, tmp_path):
        calls = []

        def counting(config):
            calls.append(config.key)
            return _fake_summary(config)

        monkeypatch.setattr(parallel_mod, "execute_run_config", counting)
        configs = _configs()
        path = str(tmp_path / "sweep.journal")
        with pytest.raises(SweepInterrupted):
            map_runs(configs, journal=SweepJournal(path),
                     stop_after=2)
        assert calls == [configs[0].key, configs[1].key]

        resumed = map_runs(configs, journal=SweepJournal(path),
                           resume=True)
        assert calls[2:] == [configs[2].key]  # only the missing point ran
        uninterrupted = [_fake_summary(c) for c in configs]
        assert ([summary_to_doc(s) for s in resumed]
                == [summary_to_doc(s) for s in uninterrupted])

    def test_transient_failure_retried_then_succeeds(self, monkeypatch):
        attempts = []

        def flaky(config):
            attempts.append(config.key)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return _fake_summary(config)

        monkeypatch.setattr(parallel_mod, "execute_run_config", flaky)
        [summary] = map_runs(_configs(1), backoff=0.0)
        assert summary.key == 1
        assert len(attempts) == 2

    def test_persistent_failure_quarantines(self, monkeypatch, tmp_path):
        def broken(config):
            raise RuntimeError("always broken")

        monkeypatch.setattr(parallel_mod, "execute_run_config", broken)
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        with pytest.raises(QuarantinedConfigError) as info:
            map_runs(_configs(1), journal=journal, max_attempts=2,
                     backoff=0.0)
        assert info.value.attempts == 2
        assert "always broken" in info.value.reason
        entry = journal.get_quarantine(config_fingerprint(_configs(1)[0]))
        assert entry["attempts"] == 2

    def test_allow_quarantine_leaves_a_none_slot(self, monkeypatch):
        def broken(config):
            raise RuntimeError("nope")

        monkeypatch.setattr(parallel_mod, "execute_run_config", broken)
        results = map_runs(_configs(2), max_attempts=1, backoff=0.0,
                           allow_quarantine=True)
        assert results == [None, None]

    def test_resume_refuses_quarantined_config(self, tmp_path):
        configs = _configs(1)
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        journal.record_quarantine(config_fingerprint(configs[0]),
                                  attempts=3, reason="kept hanging")
        with pytest.raises(QuarantinedConfigError):
            map_runs(configs, journal=journal, resume=True)
        results = map_runs(configs, journal=journal, resume=True,
                           allow_quarantine=True)
        assert results == [None]

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            map_runs(_configs(1), max_attempts=0)


@fork_only
class TestWorkerPool:
    """Forked workers inherit the monkeypatched module state, so a flag
    file lets the first attempt misbehave and the retry succeed."""

    def test_crashed_worker_is_retried(self, monkeypatch, tmp_path):
        flag = tmp_path / "crashed-once"

        def crash_once(config):
            if not flag.exists():
                flag.touch()
                os._exit(3)  # simulate a hard crash, no exception raised
            return _fake_summary(config)

        monkeypatch.setattr(parallel_mod, "execute_run_config", crash_once)
        [summary] = map_runs(_configs(1), parallel=2, backoff=0.0)
        assert summary.key == 1
        assert flag.exists()

    def test_hung_worker_is_killed_and_retried(self, monkeypatch, tmp_path):
        flag = tmp_path / "hung-once"

        def hang_once(config):
            if not flag.exists():
                flag.touch()
                time.sleep(60.0)
            return _fake_summary(config)

        monkeypatch.setattr(parallel_mod, "execute_run_config", hang_once)
        start = time.monotonic()
        [summary] = map_runs(_configs(1), parallel=1, timeout=1.0,
                             backoff=0.0)
        assert summary.key == 1
        assert time.monotonic() - start < 30.0  # watchdog fired, not sleep

    def test_repeated_crash_quarantines(self, monkeypatch, tmp_path):
        def always_crash(config):
            os._exit(7)

        monkeypatch.setattr(parallel_mod, "execute_run_config",
                            always_crash)
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        with pytest.raises(QuarantinedConfigError) as info:
            map_runs(_configs(1), parallel=2, journal=journal,
                     max_attempts=2, backoff=0.0)
        assert "exit code 7" in info.value.reason

    def test_pool_results_identical_to_in_process(self):
        configs = _configs(2)
        pooled = map_runs(configs, parallel=2)
        sequential = map_runs(configs)
        assert ([summary_to_doc(s) for s in pooled]
                == [summary_to_doc(s) for s in sequential])
