"""Arrival plans: determinism, JSON round-trip, and validation."""

import json
from pathlib import Path

import pytest

from repro.workloads.arrivals import (
    ArrivalPlan,
    ArrivalPlanError,
    JobTemplate,
    TenantSpec,
    poisson_plan,
    single_job_plan,
)


def two_tenant_plan(seed=7):
    return ArrivalPlan(
        seed=seed,
        horizon=500.0,
        tenants=(
            TenantSpec(
                name="ads",
                weight=2.0,
                slots=2,
                process=("poisson", 0.05, 0.0, None),
                mix=(
                    JobTemplate(workload="terasort", scale=0.05, weight=3.0),
                    JobTemplate(workload="wordcount", scale=0.05,
                                policy="dynamic"),
                ),
            ),
            TenantSpec(
                name="batch",
                slots=1,
                process=("trace", (0.0, 120.0, 120.0)),
                mix=(JobTemplate(workload="pagerank", scale=0.1,
                                 policy=("static", 8)),),
            ),
        ),
    )


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        first = two_tenant_plan().generate()
        second = two_tenant_plan().generate()
        assert first == second

    def test_different_seed_different_sequence(self):
        first = two_tenant_plan(seed=7).generate()
        second = two_tenant_plan(seed=8).generate()
        # Trace arrivals stay fixed; the Poisson tenant's times must move.
        assert [a.time for a in first if a.tenant == "ads"] != \
               [a.time for a in second if a.tenant == "ads"]

    def test_sequence_is_time_sorted_with_fresh_ids(self):
        arrivals = two_tenant_plan().generate()
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert [a.job_id for a in arrivals] == \
               [f"j{i:04d}" for i in range(len(arrivals))]

    def test_tenant_streams_are_independent(self):
        """Removing one tenant does not perturb another's draws."""
        full = two_tenant_plan().generate()
        solo_plan = ArrivalPlan(
            seed=7, horizon=500.0, tenants=(two_tenant_plan().tenants[0],)
        )
        solo = solo_plan.generate()
        assert [(a.time, a.template) for a in full if a.tenant == "ads"] == \
               [(a.time, a.template) for a in solo]

    def test_trace_times_pass_through(self):
        arrivals = two_tenant_plan().generate()
        batch = [a.time for a in arrivals if a.tenant == "batch"]
        assert batch == [0.0, 120.0, 120.0]

    def test_poisson_respects_window(self):
        plan = poisson_plan(tenants=1, rate=0.5, horizon=200.0)
        arrivals = plan.generate()
        assert arrivals  # rate*horizon = 100 expected; zero is astronomically unlikely
        assert all(0.0 < a.time <= 200.0 for a in arrivals)

    def test_mix_draws_follow_weights(self):
        plan = ArrivalPlan(
            seed=1,
            horizon=4000.0,
            tenants=(
                TenantSpec(
                    name="t",
                    process=("poisson", 0.25, 0.0, None),
                    mix=(
                        JobTemplate(workload="terasort", weight=9.0),
                        JobTemplate(workload="wordcount", weight=1.0),
                    ),
                ),
            ),
        )
        arrivals = plan.generate()
        heavy = sum(1 for a in arrivals if a.template.workload == "terasort")
        assert 0.8 < heavy / len(arrivals) < 1.0


class TestRoundTrip:
    def test_json_round_trip_preserves_plan(self):
        plan = two_tenant_plan()
        clone = ArrivalPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.generate() == plan.generate()

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "plan.json")
        plan = poisson_plan(seed=3)
        plan.save(path)
        assert ArrivalPlan.load(path) == plan

    def test_canned_single_round_trips(self):
        plan = single_job_plan(workload="terasort", scale=0.05, slots=4)
        assert ArrivalPlan.from_json(plan.to_json()) == plan
        arrivals = plan.generate()
        assert len(arrivals) == 1
        assert arrivals[0].time == 0.0
        assert arrivals[0].slots == 4

    def test_schema_field_is_emitted(self):
        doc = two_tenant_plan().to_dict()
        assert doc["schema"] == "repro.arrivals/1"


class TestValidation:
    def test_rejects_wrong_schema(self):
        with pytest.raises(ArrivalPlanError, match="schema"):
            ArrivalPlan.from_dict({"schema": "repro.faults/1", "tenants": []})

    def test_rejects_unknown_workload(self):
        with pytest.raises(ArrivalPlanError, match="unknown workload"):
            JobTemplate(workload="nope").validate()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArrivalPlanError, match="no such file"):
            ArrivalPlan.load(str(tmp_path / "absent.json"))

    def test_rejects_bad_policy(self):
        with pytest.raises(ArrivalPlanError, match="policy"):
            JobTemplate.from_dict({"workload": "terasort",
                                   "policy": "bestfit"})

    def test_rejects_duplicate_tenants(self):
        tenant = two_tenant_plan().tenants[1]
        with pytest.raises(ArrivalPlanError, match="duplicate"):
            ArrivalPlan(tenants=(tenant, tenant)).validate()

    def test_rejects_poisson_without_horizon(self):
        tenant = TenantSpec(
            name="t", process=("poisson", 0.1, 0.0, None),
            mix=(JobTemplate(workload="terasort"),),
        )
        with pytest.raises(ArrivalPlanError, match="horizon"):
            ArrivalPlan(tenants=(tenant,), horizon=None).validate()

    def test_rejects_unsorted_trace(self):
        tenant = TenantSpec(
            name="t", process=("trace", (5.0, 1.0)),
            mix=(JobTemplate(workload="terasort"),),
        )
        with pytest.raises(ArrivalPlanError, match="sorted"):
            ArrivalPlan(tenants=(tenant,)).validate()

    def test_rejects_unknown_fields(self):
        doc = two_tenant_plan().to_dict()
        doc["surprise"] = 1
        with pytest.raises(ArrivalPlanError, match="surprise"):
            ArrivalPlan.from_dict(doc)

    def test_rejects_invalid_json(self):
        with pytest.raises(ArrivalPlanError, match="JSON"):
            ArrivalPlan.from_json("{not json")

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(ArrivalPlanError, match="finite"):
            JobTemplate(workload="terasort", scale=scale).validate()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity",
                                       "1e999"])
    def test_rejects_non_finite_json_numbers(self, token):
        text = json.dumps(two_tenant_plan().to_dict()).replace(
            '"horizon": 500.0', f'"horizon": {token}')
        assert token in text
        with pytest.raises(ArrivalPlanError, match="JSON"):
            ArrivalPlan.from_json(text)

    def test_rejects_empty_mix(self):
        with pytest.raises(ArrivalPlanError, match="mix"):
            TenantSpec(name="t", mix=()).validate(None)


EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "arrivals"


class TestExamples:
    @pytest.mark.parametrize("name", ["two-tenants", "single-terasort"])
    def test_committed_examples_load(self, name):
        plan = ArrivalPlan.load(str(EXAMPLES / f"{name}.json"))
        assert plan.generate()

    def test_committed_examples_are_canonical_json(self):
        with open(EXAMPLES / "two-tenants.json") as handle:
            text = handle.read()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
