"""One failure contract for every execution mode of the harness.

The same cases run in-process (``map_runs``, ``parallel=1``), in forked
children one at a time (``map_runs`` with a watchdog) and two at a time
(``map_runs``, ``parallel=2``): transient failures are retried, persistent
ones are quarantined and journaled, and a stopped sweep resumes
byte-identically.
"""

import os
import time

import pytest

import repro.harness.parallel as parallel_mod
import repro.harness.supervise as supervise_mod
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
from repro.harness.supervise import (
    ForkUnavailableError,
    fork_available,
    supervise,
)

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="os.fork unavailable")


def _configs(n=3):
    return [
        RunConfig(workload="wordcount", policy=("static", 2 ** i),
                  key=2 ** i, workload_kwargs={"scale": 0.02},
                  cluster_kwargs={"num_nodes": 2, "seed": 42})
        for i in range(n)
    ]


def _fake_summary(config, blob=None):
    return RunSummary(workload=config.workload, key=config.key,
                      runtime=float(config.key), recorder=RunRecorder(),
                      cluster_io_bytes=1.5 * config.key,
                      demand_profile=blob)


MODES = {
    "in-process": lambda configs, **kw: map_runs(configs, **kw),
    "forked-1": lambda configs, **kw: map_runs(
        configs, parallel=1, timeout=kw.pop("timeout", 60.0), **kw),
    "forked-2": lambda configs, **kw: map_runs(configs, parallel=2, **kw),
}
FORKED = ["forked-1", "forked-2"]


def _install(monkeypatch, body):
    """Make every run execute ``body(config)`` instead."""
    monkeypatch.setattr(parallel_mod, "execute_run_config", body)


@pytest.mark.parametrize("mode", list(MODES))
class TestFailureContract:
    def test_transient_failure_retried(self, mode, monkeypatch, tmp_path):
        flag = tmp_path / "failed-once"

        def flaky(config):
            if not flag.exists():
                flag.touch()
                raise RuntimeError("transient")
            return _fake_summary(config)

        _install(monkeypatch, flaky)
        [summary] = MODES[mode](_configs(1), backoff=0.0)
        assert summary.key == 1
        assert flag.exists()

    def test_persistent_failure_quarantined_and_journaled(
            self, mode, monkeypatch, tmp_path):
        def broken(config):
            raise RuntimeError("always broken")

        _install(monkeypatch, broken)
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        with pytest.raises(QuarantinedConfigError) as info:
            MODES[mode](_configs(1), journal=journal, max_attempts=2,
                        backoff=0.0)
        assert info.value.attempts == 2
        assert "RuntimeError: always broken" in info.value.reason
        entry = journal.get_quarantine(config_fingerprint(_configs(1)[0]))
        assert entry["attempts"] == 2

    def test_allow_quarantine_leaves_a_none_slot(self, mode, monkeypatch):
        def broken_one(config):
            if config.key == 1:
                raise RuntimeError("nope")
            return _fake_summary(config)

        _install(monkeypatch, broken_one)
        results = MODES[mode](_configs(2), max_attempts=1, backoff=0.0,
                              allow_quarantine=True)
        assert results[0] is None
        assert results[1].key == 2

    def test_large_payload_crosses_pipe(self, mode, monkeypatch):
        # Bigger than any pipe buffer: the parent must drain while the
        # child writes.
        blob = {"x": "x" * (4 << 20)}
        _install(monkeypatch,
                 lambda config: _fake_summary(config, blob))
        [summary] = MODES[mode](_configs(1))
        assert summary.demand_profile == blob

    def test_stop_after_then_resume_is_identical(self, mode, tmp_path):
        configs = _configs()
        uninterrupted = map_runs(configs)
        path = str(tmp_path / "sweep.journal")
        with pytest.raises(SweepInterrupted):
            MODES[mode](configs, journal=SweepJournal(path), stop_after=1)
        assert len(SweepJournal(path)) == 1
        resumed = MODES[mode](configs, journal=SweepJournal(path),
                              resume=True)
        assert ([summary_to_doc(s) for s in resumed]
                == [summary_to_doc(s) for s in uninterrupted])


@pytest.mark.parametrize("mode", FORKED)
class TestChildDeath:
    def test_silent_death_counts_as_failure(self, mode, monkeypatch):
        def dies(config):
            os._exit(3)  # no exception, no result

        _install(monkeypatch, dies)
        with pytest.raises(QuarantinedConfigError, match="exit code 3"):
            MODES[mode](_configs(1), max_attempts=2, backoff=0.0)

    def test_hung_child_killed_by_watchdog(self, mode, monkeypatch):
        def hangs(config):
            time.sleep(60.0)

        _install(monkeypatch, hangs)
        start = time.monotonic()
        [result] = MODES[mode](_configs(1), timeout=0.2, max_attempts=1,
                               allow_quarantine=True)
        assert result is None
        assert time.monotonic() - start < 30.0


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestNoOrphans:
    def test_quarantine_reaps_siblings(self, monkeypatch):
        def body(config):
            if config.key == 1:
                raise RuntimeError("boom")
            time.sleep(60.0)

        monkeypatch.setattr(parallel_mod, "execute_run_config", body)
        with pytest.raises(QuarantinedConfigError):
            map_runs(_configs(2), parallel=2, max_attempts=1)
        _assert_no_children()

    def test_sweep_interrupted_reaps_siblings(self, monkeypatch, tmp_path):
        def body(config):
            if config.key != 1:
                time.sleep(60.0)
            return _fake_summary(config)

        monkeypatch.setattr(parallel_mod, "execute_run_config", body)
        journal = SweepJournal(str(tmp_path / "sweep.journal"))
        with pytest.raises(SweepInterrupted):
            map_runs(_configs(3), parallel=2, journal=journal, stop_after=1)
        _assert_no_children()


class TestWithoutFork:
    def test_in_process_fallback_is_identical(self, monkeypatch):
        configs = _configs(2)
        forked = map_runs(configs, parallel=2)
        monkeypatch.setattr(supervise_mod, "fork_available", lambda: False)
        for results in (map_runs(configs, parallel=2),
                        supervise(configs, parallel_mod.execute_run_config,
                                  parallel=2)):
            assert ([summary_to_doc(s) for s in results]
                    == [summary_to_doc(s) for s in forked])
        with pytest.raises(ForkUnavailableError):
            map_runs(configs, timeout=5.0)
