"""Tests for the network fabric."""

import pytest

from repro.network import NetworkFabric
from repro.network.fabric import GBIT, NetworkLink
from repro.simulation import Simulator


def _ignore(_size):
    """Completion hook of a flow whose end the test does not watch."""


def make_fabric(sim, nodes=2, bandwidth=100.0, latency=0.0):
    fabric = NetworkFabric(sim, bandwidth=bandwidth, latency=latency)
    for node_id in range(nodes):
        fabric.register_node(node_id)
    return fabric


class TestNetworkLink:
    def test_send_duration_is_latency_plus_transfer(self):
        sim = Simulator()
        link = NetworkLink(sim, "l", bandwidth=100.0, latency=0.5)
        done = {}
        link.send(200.0, "flow", lambda _s: done.setdefault("t", sim.now))
        sim.run()
        assert done["t"] == pytest.approx(2.5)

    def test_flows_share_bandwidth(self):
        sim = Simulator()
        link = NetworkLink(sim, "l", bandwidth=100.0, latency=0.0)
        link.send(100.0, "flow", _ignore)
        link.send(100.0, "flow", _ignore)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_bytes_accounted(self):
        sim = Simulator()
        link = NetworkLink(sim, "l", bandwidth=100.0, latency=0.0)
        link.send(30.0, "flow", _ignore)
        link.send(12.0, "flow", _ignore)
        sim.run()
        assert link.bytes_transferred == pytest.approx(42.0)

    def test_negative_size_rejected(self):
        sim = Simulator()
        link = NetworkLink(sim, "l", bandwidth=100.0)
        with pytest.raises(ValueError):
            link.send(-1.0, "flow", _ignore)

    def test_negative_latency_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            NetworkLink(sim, "l", bandwidth=100.0, latency=-0.1)


class TestNetworkFabric:
    def test_transfer_limited_by_bottleneck(self):
        sim = Simulator()
        fabric = make_fabric(sim, nodes=3)
        # Two flows leave node 0 to different destinations: egress at node 0
        # is the bottleneck, each flow gets 50/s.
        fabric.transfer(0, 1, 100.0, "flow", _ignore)
        fabric.transfer(0, 2, 100.0, "flow", _ignore)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_same_node_transfer_is_free(self):
        sim = Simulator()
        fabric = make_fabric(sim)
        done = []
        fabric.transfer(0, 0, 1e9, "flow", done.append)
        assert done == [1e9]  # inside transfer, before any dispatch
        assert sim.now == 0.0

    def test_incast_contends_at_ingress(self):
        sim = Simulator()
        fabric = make_fabric(sim, nodes=3)
        fabric.transfer(0, 2, 100.0, "flow", _ignore)
        fabric.transfer(1, 2, 100.0, "flow", _ignore)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_disjoint_pairs_do_not_contend(self):
        sim = Simulator()
        fabric = make_fabric(sim, nodes=4)
        fabric.transfer(0, 1, 100.0, "flow", _ignore)
        fabric.transfer(2, 3, 100.0, "flow", _ignore)
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        fabric = make_fabric(sim)
        with pytest.raises(ValueError):
            fabric.register_node(0)

    def test_total_bytes_counts_each_flow_once(self):
        sim = Simulator()
        fabric = make_fabric(sim, nodes=3)
        fabric.transfer(0, 1, 10.0, "flow", _ignore)
        fabric.transfer(1, 2, 32.0, "flow", _ignore)
        sim.run()
        assert fabric.total_bytes() == pytest.approx(42.0)

    def test_gbit_constant(self):
        assert GBIT == pytest.approx(1.25e8)

    def test_node_ids_sorted(self):
        sim = Simulator()
        fabric = NetworkFabric(sim)
        for node_id in (2, 0, 1):
            fabric.register_node(node_id)
        assert fabric.node_ids == [0, 1, 2]
