"""FaultPlan wire format: round-trips, validation, canned builders."""

import pytest

from repro.faults import (
    CANNED_PLANS,
    DiskDegrade,
    ExecutorLoss,
    FaultPlan,
    FaultPlanError,
    NodeLoss,
    PLAN_SCHEMA,
    SpeculationConfig,
    Straggler,
    TaskCrash,
    TaskCrashRate,
)

NAN = float("nan")


def full_plan():
    return FaultPlan(
        seed=7,
        task_crashes=[TaskCrash(stage_ordinal=0, partition=3, attempt=0,
                                at_fraction=0.25)],
        crash_rate=TaskCrashRate(probability=0.1, max_crashes=4),
        executor_losses=[ExecutorLoss(executor_id=1, at=30.0)],
        node_losses=[NodeLoss(node_id=0, at=45.0)],
        disk_degradations=[DiskDegrade(node_id=1, at=5.0, duration=20.0,
                                       factor=0.5)],
        stragglers=[Straggler(node_id=1, at=10.0, duration=60.0,
                              cpu_factor=0.3, disk_factor=0.4)],
        speculation=SpeculationConfig(enabled=True, multiplier=1.5,
                                      quantile=0.5),
    )


class TestRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        plan = full_plan()
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.to_dict() == plan.to_dict()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = full_plan()
        plan.save(str(path))
        assert FaultPlan.load(str(path)) == plan

    def test_empty_plan_round_trip(self):
        plan = FaultPlan()
        assert plan.is_empty
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.is_empty
        assert clone == plan

    def test_dict_has_schema_marker(self):
        assert full_plan().to_dict()["schema"] == PLAN_SCHEMA


class TestValidation:
    def test_wrong_schema_rejected(self):
        payload = full_plan().to_dict()
        payload["schema"] = "repro.faults/99"
        with pytest.raises(FaultPlanError, match="schema"):
            FaultPlan.from_dict(payload)

    def test_unknown_field_rejected(self):
        payload = full_plan().to_dict()
        payload["gremlins"] = True
        with pytest.raises(FaultPlanError, match="gremlins"):
            FaultPlan.from_dict(payload)

    def test_unknown_entry_field_rejected(self):
        payload = FaultPlan(node_losses=[NodeLoss(0, 1.0)]).to_dict()
        payload["node_losses"][0]["rack"] = 3
        with pytest.raises(FaultPlanError, match="NodeLoss"):
            FaultPlan.from_dict(payload)

    def test_duplicate_task_crash_rejected(self):
        plan = FaultPlan(task_crashes=[
            TaskCrash(stage_ordinal=1, partition=2),
            TaskCrash(stage_ordinal=1, partition=2),
        ])
        with pytest.raises(FaultPlanError, match="duplicate"):
            plan.validate()

    def test_not_json_rejected(self):
        with pytest.raises(FaultPlanError, match="JSON"):
            FaultPlan.from_json("{nope")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FaultPlanError, match="no such file"):
            FaultPlan.load(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize("bad", [
        FaultPlan(crash_rate=TaskCrashRate(probability=1.5)),
        FaultPlan(task_crashes=[TaskCrash(0, 0, at_fraction=2.0)]),
        FaultPlan(executor_losses=[ExecutorLoss(executor_id=-1, at=1.0)]),
        FaultPlan(node_losses=[NodeLoss(node_id=0, at=-5.0)]),
        FaultPlan(disk_degradations=[DiskDegrade(0, 1.0, duration=0.0)]),
        FaultPlan(stragglers=[Straggler(0, 1.0, 10.0, cpu_factor=0.0)]),
        FaultPlan(speculation=SpeculationConfig(multiplier=1.0)),
        # NaN compares False against every bound.
        FaultPlan(node_losses=[NodeLoss(node_id=0, at=NAN)]),
        FaultPlan(executor_losses=[ExecutorLoss(executor_id=0, at=NAN)]),
        FaultPlan(disk_degradations=[DiskDegrade(0, 1.0, duration=NAN)]),
        FaultPlan(stragglers=[Straggler(0, 1.0, 10.0, cpu_factor=NAN)]),
        FaultPlan(speculation=SpeculationConfig(multiplier=NAN)),
    ])
    def test_out_of_range_values_rejected(self, bad):
        with pytest.raises(FaultPlanError):
            bad.validate()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity",
                                       "1e999"])
    def test_non_finite_json_numbers_rejected(self, token):
        text = ('{"schema": "repro.faults/1", "node_losses": '
                f'[{{"node_id": 1, "at": {token}}}]}}')
        with pytest.raises(FaultPlanError, match="JSON"):
            FaultPlan.from_json(text)

    def test_overflowing_seed_rejected(self):
        with pytest.raises(FaultPlanError, match="malformed"):
            FaultPlan.from_dict({"schema": PLAN_SCHEMA,
                                 "seed": float("inf")})

    def test_non_finite_plan_is_not_written(self):
        plan = FaultPlan(node_losses=[NodeLoss(node_id=0, at=float("inf"))])
        with pytest.raises(FaultPlanError, match="JSON"):
            plan.to_json()


class TestCannedPlans:
    def test_every_canned_plan_validates_and_round_trips(self):
        for name, builder in CANNED_PLANS.items():
            plan = builder()
            plan.validate()
            assert FaultPlan.from_json(plan.to_json()) == plan, name
            assert not plan.is_empty, name

    def test_straggler_plan_speculation_toggle(self):
        assert CANNED_PLANS["stragglers"]().speculation.enabled
        assert CANNED_PLANS["stragglers"](speculation=False).speculation is None
