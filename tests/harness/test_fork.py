"""Copy-on-write what-if engine: determinism, divergences, and babysitting.

The contract under test (see ``repro.harness.fork``):

* the what-if fork path and its sequential fallback are interchangeable,
  result for result;
* crashed / hung / silently-dying children are retried and quarantined
  with the same semantics as the durable runner.
"""

import os

import pytest

from repro.harness.fork import (
    CONTINUE,
    Alternative,
    AlternativeError,
    ForkBarrierNotReached,
    fork_available,
    parse_alternative,
    run_whatif,
)
from repro.harness.parallel import QuarantinedConfigError
from repro.harness.supervise import supervise
from repro.simulation.randomness import RandomStreams

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="os.fork unavailable")

SCALE = 0.02
WK = {"scale": SCALE}


class _Item:
    def __init__(self, key):
        self.key = key


@needs_fork
class TestForkMap:
    def test_results_in_item_order(self):
        items = [_Item(i) for i in range(5)]
        results = supervise(items, lambda item: item.key * 10)
        assert results == [0, 10, 20, 30, 40]

    def test_parallel_children(self):
        items = [_Item(i) for i in range(4)]
        results = supervise(items, lambda item: item.key + 1, parallel=4)
        assert results == [1, 2, 3, 4]

    def test_large_payload_crosses_pipe(self):
        # Bigger than any pipe buffer: exercises the concurrent-drain
        # parent loop (a naive read-after-wait would deadlock here).
        blob = "x" * (4 << 20)
        [result] = supervise([_Item("big")], lambda item: blob)
        assert result == blob

    def test_crashing_child_quarantined(self):
        def child(item):
            raise RuntimeError("boom")

        with pytest.raises(QuarantinedConfigError, match="boom"):
            supervise([_Item("bad")], child, max_attempts=2, backoff=0.01)

    def test_allow_quarantine_yields_none_slot(self):
        def child(item):
            if item.key == 1:
                raise RuntimeError("boom")
            return item.key

        results = supervise([_Item(0), _Item(1), _Item(2)], child,
                            max_attempts=2, backoff=0.01,
                            allow_quarantine=True)
        assert results == [0, None, 2]

    def test_silent_death_counts_as_failure(self):
        def child(item):
            os._exit(3)  # dies without reporting a result

        with pytest.raises(QuarantinedConfigError, match="exit code 3"):
            supervise([_Item("dead")], child, max_attempts=2, backoff=0.01)

    def test_hung_child_killed_by_watchdog(self):
        import time

        def child(item):
            time.sleep(60)

        [result] = supervise([_Item("hung")], child, timeout=0.2,
                             max_attempts=1, allow_quarantine=True)
        assert result is None

    def test_retry_succeeds_after_transient_crash(self, tmp_path):
        # Deterministic "fails once, then works": the first attempt sees
        # no marker file, creates it, and dies; the retry sees it.
        marker = tmp_path / "attempted"

        def child(item):
            if not marker.exists():
                marker.write_text("x")
                raise RuntimeError("transient")
            return "recovered"

        [result] = supervise([_Item("flaky")], child, max_attempts=3,
                             backoff=0.01)
        assert result == "recovered"


class TestParseAlternative:
    def test_specs(self):
        assert parse_alternative("continue").kind == "continue"
        alt = parse_alternative("pool=8")
        assert (alt.kind, alt.value) == ("pool", 8)
        alt = parse_alternative("policy=dynamic")
        assert (alt.kind, alt.value) == ("policy", "dynamic")
        alt = parse_alternative("policy=fixed:4")
        assert (alt.kind, alt.value) == ("policy", ("fixed", 4))
        alt = parse_alternative("conf:spark.reducer.maxSizeInFlight=16m")
        assert alt.kind == "conf"
        assert alt.value == {"spark.reducer.maxSizeInFlight": "16m"}
        assert parse_alternative("reseed").value is None
        assert parse_alternative("reseed=a").value == "a"

    @pytest.mark.parametrize("spec", ["pool=abc", "policy=fixed:x",
                                      "conf:noequals", "bogus", "pool"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(AlternativeError):
            parse_alternative(spec)


class TestWhatIf:
    ALTS = [
        Alternative(key="continue", kind="continue"),
        Alternative(key="pool=8", kind="pool", value=8),
        Alternative(key="policy=dynamic", kind="policy", value="dynamic"),
        Alternative(key="reseed", kind="reseed"),
    ]

    def test_sequential_baseline_matches_plain_run(self):
        from repro.harness.runner import run_workload

        report = run_whatif("terasort", at=15.0, alternatives=self.ALTS,
                            use_fork=False, workload_kwargs=WK)
        assert not report.forked
        plain = run_workload("terasort", workload_kwargs=WK)
        assert report.baseline.runtime == plain.runtime

    @needs_fork
    def test_forked_matches_sequential_exactly(self, monkeypatch):
        from repro.harness import runner

        # Second input: a warm-up-heavy 8-member reseed ensemble forked at
        # 85% of the runtime, the case where sharing the prefix pays most.
        runtime = runner.run_workload("terasort", workload_kwargs=WK).runtime
        late = 0.85 * runtime
        ensemble = [Alternative(key=f"reseed={index}", kind="reseed",
                                value=str(index)) for index in range(8)]

        real_build_context = runner.build_context
        built = []

        def spy(*args, **kwargs):
            built.append(real_build_context(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(runner, "build_context", spy)
        for at, alternatives in ((15.0, self.ALTS), (late, ensemble)):
            built.clear()
            forked = run_whatif("terasort", at=at, alternatives=alternatives,
                                use_fork=True, workload_kwargs=WK)
            # The parent stops at the barrier; its children inherit it.
            [parent] = built
            prefix_events = parent.sim.events_scheduled
            built.clear()
            sequential = run_whatif("terasort", at=at,
                                    alternatives=alternatives,
                                    use_fork=False, workload_kwargs=WK)
            assert len(built) == len(alternatives)
            run_events = [ctx.sim.events_scheduled for ctx in built]
            assert forked.forked and not sequential.forked
            assert ({**forked.to_dict(), "forked": None}
                    == {**sequential.to_dict(), "forked": None})
            for fork, seq in zip(forked.summaries, sequential.summaries):
                assert fork.key == seq.key
                assert fork.runtime == seq.runtime
                assert fork.recorder.to_dict() == seq.recorder.to_dict()

        # Forking simulates the ensemble's shared prefix once instead of
        # once per member: counted in scheduled events, not wall time.
        forked_events = prefix_events + sum(
            events - prefix_events for events in run_events)
        assert sum(run_events) / forked_events >= 1.5

    def test_barrier_beyond_run_end_raises(self):
        with pytest.raises(ForkBarrierNotReached, match="beyond the end"):
            run_whatif("terasort", at=1e6, alternatives=self.ALTS[:1],
                       use_fork=False, workload_kwargs=WK)

    def test_reseed_decorrelates_futures(self):
        alts = [Alternative(key="continue", kind="continue"),
                Alternative(key="reseed=a", kind="reseed", value="a"),
                Alternative(key="reseed=b", kind="reseed", value="b")]
        report = run_whatif("terasort", at=15.0, alternatives=alts,
                            use_fork=False, workload_kwargs=WK)
        cont, a, b = report.summaries
        assert a.runtime != cont.runtime
        assert a.runtime != b.runtime

    def test_report_dict_shape(self):
        report = run_whatif("terasort", at=15.0, alternatives=self.ALTS[:2],
                            use_fork=False, workload_kwargs=WK)
        doc = report.to_dict()
        assert doc["schema"] == "repro.whatif/1"
        assert doc["at"] == 15.0
        keys = [row["key"] for row in doc["alternatives"]]
        assert keys == ["continue", "pool=8"]
        assert "vs_continue" in doc["alternatives"][1]


class TestPostForkReseeding:
    def test_same_key_reproducible(self):
        one, two = RandomStreams(7), RandomStreams(7)
        one.stream("disk").random()  # consume mid-sequence state
        two.stream("disk").random()
        one.reseed_for_fork("child")
        two.reseed_for_fork("child")
        assert one.stream("disk").random() == two.stream("disk").random()
        assert one.stream("net").random() == two.stream("net").random()

    def test_different_keys_decorrelate(self):
        one, two = RandomStreams(7), RandomStreams(7)
        one.reseed_for_fork("a")
        two.reseed_for_fork("b")
        assert one.stream("disk").random() != two.stream("disk").random()

    def test_no_reseed_continues_parent_sequence(self):
        parent, reference = RandomStreams(7), RandomStreams(7)
        draws = [parent.stream("disk").random() for _ in range(3)]
        expected = [reference.stream("disk").random() for _ in range(6)]
        assert draws == expected[:3]
        # A forked child that does NOT reseed just keeps drawing the
        # parent's sequence -- the property byte-identity relies on.
        assert [parent.stream("disk").random() for _ in range(3)] \
            == expected[3:]


class TestForkBarrier:
    """The barrier is a bounded :meth:`Simulator.run`."""

    def test_advances_clock_to_barrier(self):
        from repro.simulation.core import Simulator

        sim = Simulator()
        fired = []
        sim.call_at(5.0, lambda: fired.append(5))
        sim.call_at(20.0, lambda: fired.append(20))
        assert sim.run(10.0)
        assert sim.now == 10.0
        assert fired == [5]
        sim.run()
        assert fired == [5, 20]

    def test_rejects_past_barrier(self):
        from repro.simulation.core import Simulator, SimulationError

        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="past"):
            sim.run(1.0)


class TestWhatIfCli:
    def test_table_and_report_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "whatif.json"
        code = main(["whatif", "terasort", "--at", "15", "--scale",
                     str(SCALE), "--alt", "pool=8", "--out", str(out)])
        assert code == 0
        shown = capsys.readouterr().out
        assert "continue" in shown and "pool=8" in shown
        assert out.exists()

    @needs_fork
    def test_json_output(self, capsys):
        import json

        from repro.cli import main

        code = main(["whatif", "terasort", "--at", "15", "--scale",
                     str(SCALE), "--alt", "policy=dynamic", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["forked"] is fork_available()
        assert [row["key"] for row in doc["alternatives"]] \
            == ["continue", "policy=dynamic"]

    def test_bad_alternative_exits_cleanly(self, capsys):
        from repro.cli import main

        code = main(["whatif", "terasort", "--at", "15", "--scale",
                     str(SCALE), "--alt", "bogus-spec"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_barrier_past_end_exits_cleanly(self, capsys):
        from repro.cli import main

        code = main(["whatif", "terasort", "--at", "999999", "--scale",
                     str(SCALE)])
        assert code == 1
        assert "beyond the end" in capsys.readouterr().err
