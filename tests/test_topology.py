"""Tests for the topology model, concrete fabrics, and routing."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import RoutingError, TopologyError
from repro.topology.base import TopoNode, Topology
from repro.topology.fabrics import single_rack, single_switch, three_tier_clos
from repro.topology.routing import Router
from repro.units import gbps


def tiny_topo() -> Topology:
    topo = Topology("tiny")
    topo.add_node(TopoNode("s", "switch"))
    topo.add_node(TopoNode("a", "host", rack=0))
    topo.add_node(TopoNode("b", "host", rack=0))
    topo.add_duplex_link("a", "s", gbps(1), is_edge=True)
    topo.add_duplex_link("b", "s", gbps(1), is_edge=True)
    return topo


class TestTopologyBase:
    def test_duplicate_node_rejected(self):
        topo = Topology("t")
        topo.add_node(TopoNode("x", "host"))
        with pytest.raises(TopologyError):
            topo.add_node(TopoNode("x", "host"))

    def test_link_requires_known_nodes(self):
        topo = Topology("t")
        topo.add_node(TopoNode("x", "host"))
        with pytest.raises(TopologyError):
            topo.add_link("x", "ghost", gbps(1))

    def test_duplicate_link_rejected(self):
        topo = tiny_topo()
        with pytest.raises(TopologyError):
            topo.add_link("a", "s", gbps(1))

    def test_zero_capacity_rejected(self):
        topo = Topology("t")
        topo.add_node(TopoNode("x", "host"))
        topo.add_node(TopoNode("y", "host"))
        with pytest.raises(TopologyError):
            topo.add_link("x", "y", 0.0)

    def test_hosts_lists_only_hosts(self):
        topo = tiny_topo()
        assert set(topo.hosts) == {"a", "b"}

    def test_uplink_downlink(self):
        topo = tiny_topo()
        assert topo.host_uplink("a").link_id == "a->s"
        assert topo.host_downlink("a").link_id == "s->a"

    def test_uplink_of_switch_rejected(self):
        topo = tiny_topo()
        with pytest.raises(TopologyError):
            topo.host_uplink("s")

    def test_edge_links(self):
        topo = tiny_topo()
        assert len(topo.edge_links()) == 4

    def test_unknown_lookups_raise(self):
        topo = tiny_topo()
        with pytest.raises(TopologyError):
            topo.node("ghost")
        with pytest.raises(TopologyError):
            topo.link("ghost->ghost")
        with pytest.raises(TopologyError):
            topo.out_links("ghost")

    def test_hop_distance_levels(self):
        topo = three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=2)
        hosts = topo.hosts
        assert topo.hop_distance(hosts[0], hosts[0]) == 0
        assert topo.hop_distance(hosts[0], hosts[1]) == 2  # same rack
        assert topo.hop_distance(hosts[0], hosts[2]) == 4  # same pod
        assert topo.hop_distance(hosts[0], hosts[-1]) == 6  # cross pod


class TestFabrics:
    def test_single_switch_host_count(self):
        topo = single_switch(5)
        assert len(topo.hosts) == 5
        # every host link is an edge link
        assert len(topo.edge_links()) == 10

    def test_single_switch_needs_a_host(self):
        with pytest.raises(TopologyError):
            single_switch(0)

    def test_single_rack_defaults(self):
        topo = single_rack()
        assert len(topo.hosts) == 10
        assert all(topo.node(h).rack == 0 for h in topo.hosts)

    def test_clos_dimensions(self):
        topo = three_tier_clos()
        assert len(topo.hosts) == 160

    def test_clos_rack_and_pod_metadata(self):
        topo = three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=3)
        racks = {topo.node(h).rack for h in topo.hosts}
        pods = {topo.node(h).pod for h in topo.hosts}
        assert racks == {0, 1, 2, 3}
        assert pods == {0, 1}

    def test_clos_oversubscription_divides_fabric(self):
        base = three_tier_clos(pods=1, racks_per_pod=1, hosts_per_rack=2)
        over = three_tier_clos(
            pods=1, racks_per_pod=1, hosts_per_rack=2, oversubscription=4.0
        )
        tor_up_base = base.link("tor0->agg0_0").capacity
        tor_up_over = over.link("tor0->agg0_0").capacity
        assert tor_up_over == pytest.approx(tor_up_base / 4)
        # edges are untouched
        assert over.host_uplink("h000").capacity == pytest.approx(
            base.host_uplink("h000").capacity
        )

    def test_clos_rejects_bad_oversubscription(self):
        with pytest.raises(TopologyError):
            three_tier_clos(oversubscription=0.5)

    def test_clos_rejects_zero_dimension(self):
        with pytest.raises(TopologyError):
            three_tier_clos(pods=0)


class TestRouter:
    def test_self_path_is_empty(self):
        router = Router(tiny_topo())
        assert router.path("a", "a").links == ()
        assert router.path("a", "a").hop_count == 0

    def test_star_path(self):
        router = Router(tiny_topo())
        path = router.path("a", "b")
        assert path.links == ("a->s", "s->b")

    def test_paths_are_cached(self):
        router = Router(tiny_topo())
        assert router.path("a", "b") is router.path("a", "b")

    def test_no_route_raises(self):
        topo = Topology("split")
        topo.add_node(TopoNode("a", "host"))
        topo.add_node(TopoNode("b", "host"))
        with pytest.raises(RoutingError):
            Router(topo).path("a", "b")

    def test_clos_paths_have_expected_length(self):
        topo = three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=2)
        router = Router(topo)
        hosts = topo.hosts
        # same rack: host->tor->host = 2 links
        assert router.path(hosts[0], hosts[1]).hop_count == 2
        # same pod, different racks: via agg = 4 links
        assert router.path(hosts[0], hosts[2]).hop_count == 4
        # cross pod: via core = 6 links
        assert router.path(hosts[0], hosts[-1]).hop_count == 6

    def test_ecmp_deterministic_across_routers(self):
        topo = three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=2)
        p1 = Router(topo, ecmp_seed=9).path("h000", "h007")
        p2 = Router(topo, ecmp_seed=9).path("h000", "h007")
        assert p1.links == p2.links

    def test_ecmp_spreads_pairs(self):
        """Different (src, dst) pairs should not all share one core link."""
        topo = three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=4)
        router = Router(topo)
        used_first_fabric_hop = set()
        src = topo.hosts[0]
        for dst in topo.hosts[8:]:  # cross-pod destinations
            path = router.path(src, dst)
            used_first_fabric_hop.add(path.links[1])
        assert len(used_first_fabric_hop) > 1

    #: sha256 of every ordered host pair's path (or ``RoutingError`` text)
    #: on the 160-host Clos, then again after ``PIN_FAILURES`` fail in
    #: order; the value the router had before it kept its adjacency.
    PATH_PIN = "e6c7e44c4ecfbff9ea11cd3dabb00c9ecf9ab6cd92cf2d7cc8afad007faa9d17"
    #: Fabric hops of every tier, both uplinks of tor3 (its hosts keep only
    #: their rack) and one edge link each way (h005 sends nowhere, h015
    #: hears from nobody).
    PIN_FAILURES = (
        "agg0_0->core1", "agg1_1->tor4", "core2->agg2_0", "core0->agg3_1",
        "tor3->agg0_0", "tor3->agg0_1", "h005->tor0", "tor1->h015",
    )

    def test_every_path_on_clos_160_is_pinned_through_failures(self):
        topo = three_tier_clos()
        router = Router(topo)
        digest, errors = hashlib.sha256(), 0
        for failures in ((), self.PIN_FAILURES):
            for link_id in failures:
                topo.link(link_id)  # a typo would pin nothing
                router.fail_link(link_id)
            for src in topo.hosts:
                for dst in topo.hosts:
                    try:
                        line = "|".join(router.path(src, dst).links)
                    except RoutingError as error:
                        line, errors = f"RoutingError: {error}", errors + 1
                    digest.update(f"{src} {dst} {line}\n".encode())
        assert errors > 0
        assert digest.hexdigest() == self.PATH_PIN

    def test_path_endpoints_consistent(self):
        topo = three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=2)
        router = Router(topo)
        path = router.path("h000", "h005")
        assert topo.link(path.links[0]).src == "h000"
        assert topo.link(path.links[-1]).dst == "h005"
        for prev, nxt in zip(path.links, path.links[1:]):
            assert topo.link(prev).dst == topo.link(nxt).src
