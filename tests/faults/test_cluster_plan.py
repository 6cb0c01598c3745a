"""Cluster-scope fault vocabulary: schema v2, validation, canned builders.

``repro.faults/2`` adds a ``cluster`` section to the fault-plan wire
format.  These tests pin the version gating (a /1 plan never grows the
section; a /2 plan with cluster faults round-trips byte-for-byte), the
strict validation of every cluster dataclass, and the engine/cluster plan
split (:meth:`FaultPlan.engine_dict`) the service layer relies on for
byte-identical inner runs.
"""

import json

import pytest

from repro.faults.plan import (
    CANNED_PLANS,
    PLAN_SCHEMA,
    PLAN_SCHEMA_V2,
    ClusterFaults,
    DemandSurge,
    FaultPlan,
    FaultPlanError,
    NodeChurn,
    NodeLoss,
    ProtectionConfig,
    SlotFlap,
    TenantPoison,
    node_churn_plan,
    overload_plan,
    poison_tenant_plan,
    slot_flap_plan,
    surge_plan,
)


def cluster_plan(**kwargs) -> FaultPlan:
    return FaultPlan(seed=7, cluster=ClusterFaults(**kwargs))


class TestSchemaGating:
    def test_engine_only_plan_stays_v1(self):
        plan = FaultPlan(node_losses=(NodeLoss(node_id=1, at=5.0),))
        doc = plan.to_dict()
        assert doc["schema"] == PLAN_SCHEMA
        assert "cluster" not in doc

    def test_cluster_plan_emits_v2(self):
        plan = cluster_plan(node_churn=(NodeChurn(node_id=0, down_at=1.0),))
        doc = plan.to_dict()
        assert doc["schema"] == PLAN_SCHEMA_V2
        assert "cluster" in doc

    def test_cluster_key_rejected_under_v1(self):
        doc = cluster_plan(
            node_churn=(NodeChurn(node_id=0, down_at=1.0),)).to_dict()
        doc["schema"] = PLAN_SCHEMA
        with pytest.raises(FaultPlanError, match="repro.faults/2"):
            FaultPlan.from_dict(doc)

    def test_round_trip_is_byte_identical(self):
        plan = overload_plan(node_id=1, at=50.0, duration=100.0, factor=2.5,
                             seed=3)
        text = plan.to_json()
        again = FaultPlan.from_dict(json.loads(text)).to_json()
        assert text == again

    def test_unknown_cluster_key_rejected(self):
        doc = cluster_plan(
            node_churn=(NodeChurn(node_id=0, down_at=1.0),)).to_dict()
        doc["cluster"]["mystery"] = True
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict(doc)

    def test_cluster_only_plan_is_not_empty(self):
        plan = cluster_plan(node_churn=(NodeChurn(node_id=0, down_at=1.0),))
        assert not plan.is_empty


class TestEnginePlanSplit:
    def test_cluster_only_plan_has_no_engine_dict(self):
        plan = node_churn_plan()
        assert plan.engine_dict() is None
        assert plan.engine_plan().cluster is None

    def test_mixed_plan_keeps_engine_faults(self):
        plan = FaultPlan(
            seed=7,
            node_losses=(NodeLoss(node_id=1, at=5.0),),
            cluster=ClusterFaults(
                node_churn=(NodeChurn(node_id=0, down_at=1.0),)),
        )
        doc = plan.engine_dict()
        assert doc is not None
        assert doc["schema"] == PLAN_SCHEMA
        assert "cluster" not in doc
        assert len(doc["node_losses"]) == 1


class TestValidation:
    def test_churn_rejects_negative_time(self):
        with pytest.raises(FaultPlanError):
            cluster_plan(
                node_churn=(NodeChurn(node_id=0, down_at=-1.0),)).validate()

    def test_churn_rejects_nonpositive_duration(self):
        with pytest.raises(FaultPlanError):
            cluster_plan(node_churn=(
                NodeChurn(node_id=0, down_at=1.0, duration=0.0),)).validate()

    def test_flap_requires_duration(self):
        with pytest.raises(FaultPlanError):
            cluster_plan(slot_flaps=(
                SlotFlap(node_id=0, at=1.0, duration=-2.0),)).validate()

    def test_poison_probability_range(self):
        with pytest.raises(FaultPlanError):
            cluster_plan(poison=(
                TenantPoison(tenant="a", probability=1.5),)).validate()

    def test_surge_factor_must_be_positive(self):
        with pytest.raises(FaultPlanError):
            cluster_plan(surges=(
                DemandSurge(at=0.0, duration=10.0, factor=0.0),)).validate()

    def test_protection_degrade_factor_range(self):
        with pytest.raises(FaultPlanError):
            cluster_plan(protection=ProtectionConfig(
                degrade_queue=4, degrade_factor=1.0)).validate()

    def test_protection_rejects_negative_retries(self):
        with pytest.raises(FaultPlanError):
            cluster_plan(
                protection=ProtectionConfig(max_retries=-1)).validate()


class TestCannedChaos:
    @pytest.mark.parametrize("kind", ["node-churn", "overload",
                                      "poison-tenant", "slot-flaps", "surge"])
    def test_every_canned_plan_validates(self, kind):
        plan = CANNED_PLANS[kind]()
        plan.validate()
        assert plan.cluster is not None
        assert plan.to_dict()["schema"] == PLAN_SCHEMA_V2

    def test_node_churn_episodes_repeat(self):
        plan = node_churn_plan(node_id=2, at=10.0, duration=5.0, count=3,
                               every=50.0)
        churn = plan.cluster.node_churn
        assert [episode.down_at for episode in churn] == [10.0, 60.0, 110.0]
        assert all(episode.node_id == 2 for episode in churn)

    def test_slot_flap_episodes_repeat(self):
        plan = slot_flap_plan(node_id=1, at=5.0, duration=2.0, count=2,
                              every=20.0)
        assert [flap.at for flap in plan.cluster.slot_flaps] == [5.0, 25.0]

    def test_poison_plan_arms_breaker(self):
        plan = poison_tenant_plan(tenant="t0", probability=0.5)
        assert plan.cluster.protection.breaker_failures is not None
        assert plan.cluster.poison[0].tenant == "t0"

    def test_surge_plan_scopes_tenant(self):
        plan = surge_plan(at=10.0, duration=20.0, factor=2.0, tenant="t1")
        assert plan.cluster.surges[0].tenant == "t1"

    def test_overload_plan_composes_churn_and_surge(self):
        plan = overload_plan()
        assert plan.cluster.node_churn and plan.cluster.surges
        protection = plan.cluster.protection
        assert protection.max_queue is not None
        assert protection.degrade_queue is not None
