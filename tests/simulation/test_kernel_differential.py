"""Differential tests: the single-pass fair-share kernel vs the reference.

``reference_kernel.py`` keeps the three-loop kernel (advance, completion
test, horizon scan), per-entry ``step`` dispatch and the unmemoised storage
device.  The production kernel must reproduce it *bit for bit*: every float
is compared through ``float.hex``, ``work_by_tag`` by its key order as well
as its values, and the event order and ``events_scheduled`` exactly.

Storms mix every path the fused loops touch: uniform and per-job rates
(CPU, equal split, mixed read/write devices, an unstructured ``rates()``
subclass), zero-work jobs, zero-delay bursts, waiters detached from a
job mid-service, ``call_in`` ties against kernel wake-ups, ``sync()``
mid-service, ``speed_factor`` changes with and without
``notify_rates_changed``, bursts of 20-40 jobs (deep sets; identical
sizes finish in one wake; read/write mixes that flip), and submits queued
at the instant of a wake-up.  The storm drivers are continuations on
``call_in`` and completion hooks, the way the engine drives the kernel.
Mutation checks plant the faults the fast paths invite and require the
storms to catch them.

The hypothesis storms take their budget from the active profile (100
examples by default); ``tests/conftest.py`` registers ``kernel-ci`` with
2000 for longer runs::

    python -m pytest tests/simulation/test_kernel_differential.py \\
        --hypothesis-profile=kernel-ci
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.simulation.core import Simulator
from repro.simulation.resources import CpuResource, FairShareResource
from repro.storage.device import HDD_PROFILE, SSD_PROFILE, MiB, StorageDevice
from tests.simulation.reference_kernel import (
    ReferenceCpuResource,
    ReferenceFairShareResource,
    ReferenceSimulator,
    ReferenceStorageDevice,
    install,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

class _SkewRates:
    """Unstructured rates: neither uniform nor op-shaped, so both kernels
    take the per-job ``rates()`` path."""

    def rates(self, jobs):
        k = len(jobs)
        return {
            job: self.capacity * (1.0 + 0.25 * (job.attrs.get("w", 0) % 3)) / k
            for job in jobs
        }


class Skew(_SkewRates, FairShareResource):
    pass


class ReferenceSkew(_SkewRates, ReferenceFairShareResource):
    pass


KERNELS = {
    "fused": (Simulator, FairShareResource, CpuResource, StorageDevice, Skew),
    "reference": (ReferenceSimulator, ReferenceFairShareResource,
                  ReferenceCpuResource, ReferenceStorageDevice, ReferenceSkew),
}

RESOURCES = ("fair", "cpu", "hdd", "ssd", "skew")


def _hex(value):
    """Floats as exact hex strings, recursively; everything else as is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hex(item) for item in value]
    if isinstance(value, dict):
        return [(key, _hex(item)) for key, item in value.items()]
    return value


def run_storm(kernel, plan, split_at=None, prepare=None):
    """Replay ``plan`` on one kernel; returns everything observable.

    ``prepare(resources)``, if given, runs once the resources exist (the
    mutation checks below plant a fault through it)."""
    sim_cls, fair_cls, cpu_cls, disk_cls, skew_cls = KERNELS[kernel]
    sim = sim_cls()
    resources = {
        "fair": fair_cls(sim, "fair", capacity=8.0),
        "cpu": cpu_cls(sim, "cpu", cores=4, speed_factor=0.9),
        "hdd": disk_cls(sim, "hdd", HDD_PROFILE),
        "ssd": disk_cls(sim, "ssd", SSD_PROFILE, speed_factor=1.3),
        "skew": skew_cls(sim, "skew", capacity=4.0),
    }
    if prepare is not None:
        prepare(resources)
    trace = []

    def note(label, idx):
        return lambda _done: trace.append((sim.now, label, idx))

    def submit(where, work, tag, label, then):
        """``label`` is the op on a device, the weight on ``skew``."""
        if where in ("hdd", "ssd"):
            return resources[where].submit(work, tag, then, op=label)
        if where == "skew":
            return resources[where].submit(work, tag, then, w=label)
        return resources[where].submit(work, tag, then)

    settled = set()

    def settle(idx, outcome):
        """Trace the first of a detach action's job completion and detach."""
        if idx not in settled:
            settled.add(idx)
            trace.append((sim.now, outcome, idx))

    def drive(start):
        """Replay ``plan`` from ``start``; a wait re-queues the rest."""
        for idx in range(start, len(plan)):
            action = plan[idx]
            kind = action[0]
            if kind == "submit":
                _, where, work, label = action
                tag = "skew" if where == "skew" else label
                submit(where, work, tag, label, note(where, idx))
            elif kind == "pair":
                # Two jobs whose sizes differ by ``delta``: when the first
                # finishes, the second's residual lands near the completion
                # threshold (size-relative, absolute, or rate-relative).
                _, where, work, delta, label = action
                for size in (work, work + delta):
                    submit(where, size, "pair", label, note("pair", idx))
            elif kind == "burst":
                # ``count`` jobs at one instant, of ``work * (1 + spread *
                # i)`` (spread 0.0: identical jobs, which finish in one
                # wake); on a device, label "mix" makes every third a write.
                _, where, count, work, spread, label = action
                for i in range(count):
                    op = label
                    if label == "mix":
                        op = "write" if i % 3 == 0 else "read"
                    submit(where, work * (1.0 + spread * i), op, op,
                           note("burst", idx))
            elif kind == "request":
                _, where, size, op = action
                resources[where].request(size, op, note("request", idx))
            elif kind == "wait":
                sim.call_in(action[1], drive, idx + 1)
                return
            elif kind == "detach":
                resources["cpu"].submit(
                    5.0, "doomed",
                    lambda _job, idx=idx: settle(idx, "wait-done"))
                sim.call_in(action[1], settle, idx, "wait-intr")
                # A deferred call landing at the same instant as kernel
                # wake-ups must order identically on both kernels.
                sim.call_in(action[1], trace.append, (idx, "tick"))
            elif kind == "sync":
                resources[action[1]].sync()
                trace.append((sim.now, "sync", idx,
                              resources[action[1]].stats.work_done))
            elif kind == "speed":
                _, where, factor = action
                resource = resources[where]
                resource.sync()
                resource.speed_factor *= factor
                resource.notify_rates_changed()
            elif kind == "race":
                # On an idle ``fair``, a submit queued ahead of the lone
                # job's wake-up, at its instant: the pass steps that job
                # by about its whole remaining work, either side of it.
                _, work, second = action
                fair = resources["fair"]
                if not fair.active_jobs:
                    sim.call_in(work / fair.capacity, submit, "fair", second,
                                "race", "", note("race-second", idx))
                submit("fair", work, "race", "", note("race", idx))
            elif kind == "quiet-speed":
                # Synced first, as documented, but with no re-plan: the
                # pending wake-up keeps its horizon and the next pass
                # prices at the new rate.
                _, where, factor = action
                resources[where].sync()
                resources[where].speed_factor *= factor
            elif kind == "sample":
                counters = resources[action[1]].sample_counters()
                trace.append((sim.now, "sample", idx, counters))

    sim.call_in(0.0, drive, 0)
    if split_at is not None:
        sim.run(until=split_at)
        trace.append((sim.now, "split"))
    sim.run()
    return {
        "trace": _hex(trace),
        "now": _hex(sim.now),
        "events": sim.events_scheduled,
        "stats": {
            name: {
                "busy_time": _hex(r.stats.busy_time),
                "work_done": _hex(r.stats.work_done),
                "concurrency_integral": _hex(r.stats.concurrency_integral),
                "occupancy_integral": _hex(r.stats.occupancy_integral),
                "jobs_completed": r.stats.jobs_completed,
                # Key order too: it survives into metrics snapshots.
                "work_by_tag": _hex(r.stats.work_by_tag),
                "active": r.active_jobs,
            }
            for name, r in resources.items()
        },
    }


def assert_kernels_agree(plan, split_at=None):
    fused = run_storm("fused", plan, split_at)
    reference = run_storm("reference", plan, split_at)
    assert fused["trace"] == reference["trace"]
    assert fused["stats"] == reference["stats"]
    assert fused["now"] == reference["now"]
    # One sequence number per push on both kernels: equal totals.
    assert fused["events"] == reference["events"]
    return fused


# -- hypothesis storms -------------------------------------------------------

_work = st.floats(min_value=1e-7, max_value=64.0, allow_nan=False)
_delay = st.one_of(st.just(0.0),
                   st.floats(min_value=1e-9, max_value=2.0, allow_nan=False))

#: Size gaps straddling every term of the completion threshold: the 1e-6
#: absolute floor, 1e-9 of a 1e4-unit job, and 1e-6 s at a device's rate.
_delta = st.sampled_from([5e-7, 2e-6, 5e-6, 2e-5, 1.0, 20.0, 200.0])

_actions = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(["fair", "cpu"]), _work,
              st.sampled_from(["", "map", "reduce", "spill"])),
    st.tuples(st.just("submit"), st.sampled_from(["hdd", "ssd"]),
              _work.map(lambda w: w * MiB), st.sampled_from(["read", "write"])),
    st.tuples(st.just("submit"), st.just("skew"), _work, st.integers(0, 5)),
    st.sampled_from([("submit", "fair", 0.0, "zero"),
                     ("submit", "cpu", 0.0, "zero"),
                     ("submit", "hdd", 0.0, "read"),
                     ("submit", "ssd", 0.0, "write"),
                     ("submit", "skew", 0.0, 1)]),
    st.tuples(st.just("pair"), st.sampled_from(["fair", "cpu"]),
              st.sampled_from([0.5, 2.0, 1e4, 3e4]), _delta, st.just("")),
    st.tuples(st.just("pair"), st.sampled_from(["hdd", "ssd"]),
              st.sampled_from([1.0 * MiB, 48.0 * MiB]), _delta,
              st.sampled_from(["read", "write"])),
    st.tuples(st.just("pair"), st.just("skew"),
              st.sampled_from([0.5, 2.0, 1e4]), _delta, st.integers(0, 2)),
    st.tuples(st.just("request"), st.sampled_from(["hdd", "ssd"]),
              _work.map(lambda w: w * MiB), st.sampled_from(["read", "write"])),
    st.tuples(st.just("wait"), _delay),
    st.tuples(st.just("detach"), _delay),
    st.tuples(st.just("sync"), st.sampled_from(RESOURCES)),
    st.tuples(st.just("speed"), st.sampled_from(["cpu", "hdd", "ssd"]),
              st.sampled_from([0.25, 0.5, 2.0, 4.0, 1.0 / 3.0])),
    st.tuples(st.just("sample"), st.sampled_from(RESOURCES)),
    st.tuples(st.just("burst"), st.sampled_from(["fair", "cpu"]),
              st.integers(20, 40), _work, st.sampled_from([0.0, 1e-3, 0.05]),
              st.sampled_from(["", "map", "spill"])),
    st.tuples(st.just("burst"), st.sampled_from(["hdd", "ssd"]),
              st.integers(20, 40), _work.map(lambda w: w * MiB),
              st.sampled_from([0.0, 0.05]),
              st.sampled_from(["read", "write", "mix"])),
    st.tuples(st.just("quiet-speed"), st.sampled_from(["cpu", "hdd", "ssd"]),
              st.sampled_from([0.5, 2.0, 1.0 / 3.0])),
    st.tuples(st.just("race"), _work, _work),
)


class TestHypothesisStorms:
    @settings(deadline=None)
    @given(plan=st.lists(_actions, max_size=60))
    def test_fused_kernel_matches_reference(self, plan):
        assert_kernels_agree(plan)

    @settings(deadline=None)
    @given(plan=st.lists(_actions, min_size=1, max_size=60),
           split_at=st.floats(min_value=0.0, max_value=5.0))
    def test_run_until_then_drain_matches_reference(self, plan, split_at):
        assert_kernels_agree(plan, split_at=split_at)


# -- seeded storms -----------------------------------------------------------


def _make_plan(seed, actions=240):
    """A deterministic op plan; both kernels replay the same plan object."""
    rng = random.Random(seed)
    plan = []
    for _ in range(actions):
        roll = rng.random()
        if roll < 0.25:
            plan.append(("submit", rng.choice(["fair", "cpu"]),
                         rng.uniform(0.1, 4.0),
                         rng.choice(["map", "reduce", ""])))
        elif roll < 0.50:
            plan.append(("submit", rng.choice(["hdd", "ssd"]),
                         rng.uniform(1.0, 64.0) * MiB,
                         rng.choice(["read", "read", "write"])))
        elif roll < 0.58:
            plan.append(("submit", "skew", rng.uniform(0.1, 2.0),
                         rng.randrange(3)))
        elif roll < 0.62:
            plan.append(("submit", rng.choice(["fair", "cpu"]), 0.0, "zero"))
        elif roll < 0.72:
            plan.append(("wait", 0.0))
        elif roll < 0.82:
            plan.append(("wait", rng.uniform(0.001, 0.5)))
        elif roll < 0.87:
            plan.append(("detach", rng.uniform(0.01, 0.3)))
        elif roll < 0.91:
            plan.append(("sync", rng.choice(RESOURCES)))
        elif roll < 0.95:
            plan.append(("speed", rng.choice(["cpu", "hdd", "ssd"]),
                         rng.choice([0.5, 2.0])))
        else:
            plan.append(("request", rng.choice(["hdd", "ssd"]),
                         rng.uniform(1.0, 16.0) * MiB,
                         rng.choice(["read", "write"])))
    return plan


class TestSeededStorms:
    @pytest.mark.parametrize("seed", [1, 7, 42, 1337])
    def test_storm_matches_reference(self, seed):
        assert_kernels_agree(_make_plan(seed))

    def test_storm_completes_all_jobs(self):
        # Agreement proves nothing unless the storms really run their work.
        stats = run_storm("fused", _make_plan(3))["stats"]
        for name in ("fair", "cpu", "hdd", "ssd"):
            assert stats[name]["jobs_completed"] > 10
        assert stats["skew"]["jobs_completed"] > 0
        assert all(entry["active"] == 0 for entry in stats.values())


def _burst_plan(seed, actions=50):
    """Deep sets and many finishes per wake: bursts of 20-40 jobs (often
    identical), read/write mixes that flip as their jobs finish, and
    speed changes between membership changes."""
    rng = random.Random(seed)
    plan = []
    for _ in range(actions):
        roll = rng.random()
        if roll < 0.3:
            where = rng.choice(["fair", "cpu", "hdd", "ssd"])
            disk = where in ("hdd", "ssd")
            plan.append(("burst", where, rng.randint(20, 40),
                         rng.uniform(0.5, 4.0) * (MiB if disk else 1.0),
                         rng.choice([0.0, 0.0, 1e-3, 0.05]),
                         rng.choice(["read", "write", "mix"] if disk
                                    else ["map", "spill", ""])))
        elif roll < 0.55:
            plan.append(("wait", rng.uniform(0.001, 0.3)))
        elif roll < 0.70:
            plan.append(("submit", rng.choice(["fair", "cpu"]),
                         rng.uniform(0.1, 2.0), "reduce"))
        elif roll < 0.80:
            plan.append(("submit", rng.choice(["hdd", "ssd"]),
                         rng.uniform(1.0, 8.0) * MiB,
                         rng.choice(["read", "write"])))
        elif roll < 0.86:
            plan.append(("quiet-speed", rng.choice(["cpu", "hdd", "ssd"]),
                         rng.choice([0.5, 2.0])))
        elif roll < 0.92:
            plan.append(("race", rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)))
        else:
            plan.append(("speed", rng.choice(["cpu", "hdd", "ssd"]),
                         rng.choice([0.5, 2.0])))
    return plan


BURST_PLANS = [_burst_plan(seed) for seed in range(4)]


def _race_plan(seed, races=200):
    """Submits at the instant of a lone job's wake-up, each time on an
    idle resource: about half step past the job's remaining work and must
    clamp, the rest must not (the boundary of ``_advance``'s fast path)."""
    rng = random.Random(seed)
    plan = []
    for _ in range(races):
        plan.append(("race", rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)))
        plan.append(("wait", rng.uniform(0.5, 1.0)))
    return plan


class TestBurstStorms:
    @pytest.mark.parametrize("plan", BURST_PLANS)
    def test_bursts_match_reference(self, plan):
        assert_kernels_agree(plan)

    def test_wake_instant_races_match_reference(self):
        assert_kernels_agree(_race_plan(5))

    def test_bursts_reach_the_fast_paths(self, monkeypatch):
        """Sets of 20+ jobs and wakes that finish several jobs at once."""
        seen = {"deepest": 0, "multi": 0}
        wake = FairShareResource._on_wake

        def spy(self, generation):
            before = len(self._jobs)
            live = generation == self._wake_generation
            wake(self, generation)
            if live:
                seen["deepest"] = max(seen["deepest"], before)
                seen["multi"] += before - len(self._jobs) > 1

        monkeypatch.setattr(FairShareResource, "_on_wake", spy)
        run_storm("fused", BURST_PLANS[0])
        assert seen["deepest"] >= 20 and seen["multi"] >= 5


class _SwapRemoveList(list):
    """An active set whose removals do not keep the survivors' order."""

    def remove(self, item):
        index = self.index(item)
        self[index] = self[-1]
        del self[-1]

    def __setitem__(self, key, value):
        if isinstance(key, slice):
            value = list(value)[::-1]
        super().__setitem__(key, value)


class TestMutationsAreCaught:
    """Faults the fast paths invite must make the storms disagree."""

    @staticmethod
    def _caught(prepare=None):
        return any(
            run_storm("fused", plan, prepare=prepare)
            != run_storm("reference", plan)
            for plan in BURST_PLANS
        )

    def test_reordering_removal_is_caught(self):
        def plant(resources):
            for resource in resources.values():
                resource._jobs = _SwapRemoveList(resource._jobs)

        assert self._caught(plant)

    def test_kept_rate_not_cleared_is_caught(self, monkeypatch):
        for cls in (CpuResource, StorageDevice):
            prop = cls.speed_factor

            def setter(self, value, fset=prop.fset):
                kept = self._rate, self._rates
                fset(self, value)
                self._rate, self._rates = kept

            monkeypatch.setattr(cls, "speed_factor",
                                property(prop.fget, setter))
        assert self._caught()


class TestDeepChurn:
    def test_wide_churn_matches_reference(self):
        """Hundreds of concurrent jobs on one resource, staggered arrivals
        and distinct sizes: deep queues, frequent partial advances."""

        def run(kernel):
            sim_cls, fair_cls = KERNELS[kernel][:2]
            sim = sim_cls()
            cpu = fair_cls(sim, "cpu", capacity=64.0)
            done = []

            def drive(wave, start):
                """Submit from job ``start`` of ``wave`` on, pausing after
                every 16th and between waves."""
                for i in range(start, 200):
                    work = 1.0 + 0.01 * ((i * 7919) % 97)
                    tag = "spill" if i % 2 else "shuffle"
                    cpu.submit(work, tag,
                               lambda _job, i=i: done.append((sim.now, i)))
                    if i % 16 == 0:
                        sim.call_in(0.0005, drive, wave, i + 1)
                        return
                if wave < 2:
                    sim.call_in(50.0, drive, wave + 1, 0)

            sim.call_in(0.0, drive, 0, 0)
            sim.run()
            return _hex([done, sim.now, sim.events_scheduled,
                         cpu.stats.work_done, cpu.stats.work_by_tag,
                         cpu.stats.jobs_completed])

        assert run("fused") == run("reference")

    def test_remaining_reads_work_then_zero(self):
        sim = Simulator()
        cpu = FairShareResource(sim, "cpu", capacity=2.0)
        jobs = [cpu.submit(4.0, "", lambda _job: None) for _ in range(40)]
        assert all(job.remaining == 4.0 for job in jobs)
        sim.run()
        assert all(job.remaining == 0.0 for job in jobs)


class TestStorageDeviceState:
    def test_op_counts_exact_at_every_completion(self):
        """The kernel retires a job and its op count together, so the
        counts always equal the live set -- no callback lag."""
        sim = Simulator()
        disk = StorageDevice(sim, "disk", HDD_PROFILE)
        seen = []

        def check(_job):
            live = [job.attrs["op"] for job in disk._jobs]
            counts = {op: live.count(op) for op in ("read", "write")}
            seen.append(counts == disk._op_counts)

        for index in range(24):
            op = "read" if index % 3 else "write"
            disk.submit((index + 1) * MiB, op, check, op=op)
        sim.run()
        assert len(seen) == 24 and all(seen)
        assert disk._op_counts == {"read": 0, "write": 0}

    def test_speed_factor_change_clears_rate_memo(self):
        sim = Simulator()
        disk = StorageDevice(sim, "disk", HDD_PROFILE)
        before = disk.group_rate("read", 4)
        disk.speed_factor = 0.5
        after = disk.group_rate("read", 4)
        assert after == (HDD_PROFILE.rate("read")
                         * HDD_PROFILE.efficiency("read", 4) * 0.5 / 4)
        assert after != before


class TestEndToEnd:
    """Whole engine runs with the reference kernel swapped in."""

    def _events(self, tmp_path, extra):
        out = tmp_path / "events.jsonl"
        assert main(["run", "terasort", "--scale", "0.05", "--seed", "42",
                     "--events", str(out)] + extra) == 0
        return out.read_bytes()

    def test_reference_event_log_bit_identical(self, tmp_path, capsys,
                                               monkeypatch):
        # Pins the reference itself to the committed golden log, so the
        # differential storms compare against the kernel the goldens saw.
        install(monkeypatch)
        golden = REPO_ROOT / "tests" / "golden" / "terasort_s005_seed42.jsonl"
        assert self._events(tmp_path, []) == golden.read_bytes()

    def test_reference_node_loss_bit_identical(self, tmp_path, capsys,
                                               monkeypatch):
        install(monkeypatch)
        plan = REPO_ROOT / "examples" / "faults" / "node-loss.json"
        golden = (REPO_ROOT / "tests" / "golden"
                  / "terasort_s005_seed42_nodeloss.jsonl")
        assert (self._events(tmp_path, ["--faults", str(plan)])
                == golden.read_bytes())

    def test_run_results_identical_to_reference(self, capsys, monkeypatch):
        argv = ["run", "pagerank", "--scale", "0.02", "--nodes", "2",
                "--cores", "4", "--policy", "dynamic", "--json"]
        assert main(argv) == 0
        fused = capsys.readouterr().out
        install(monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().out == fused

    def test_sweep_reports_equal_to_reference(self, capsys, monkeypatch):
        """Every pool size of the sweep ladder, so both shallow and deep
        fair-share queues."""
        argv = ["sweep", "terasort", "--scale", "0.02", "--seed", "7",
                "--json"]
        assert main(argv) == 0
        fused = capsys.readouterr().out
        install(monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().out == fused
