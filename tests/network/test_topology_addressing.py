"""Tests for the topology model and IP prefix handling."""

import ipaddress

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RoutingError, TopologyError
from repro.network.addressing import Prefix, PrefixTable, allocate_prefixes
from repro.network.topology import Topology
from repro.rela.locations import Granularity


def build_topology() -> Topology:
    topology = Topology("test")
    topology.add_router("a1", group="A1", region="A", asn=100, tier="core")
    topology.add_router("a2", group="A1", region="A", asn=100, tier="core")
    topology.add_router("b1", group="B1", region="B", asn=200, tier="edge")
    topology.add_link("a1", "a2", members=3, cost=5)
    topology.add_link("a1", "b1", cost=10)
    return topology


def test_router_and_link_accounting():
    topology = build_topology()
    assert topology.num_routers == 3
    assert topology.num_links == 4
    assert topology.neighbors("a1") == {"a2", "b1"}
    assert len(topology.links_between("a1", "a2")) == 3
    assert topology.link_cost("a1", "b1") == 10
    assert {router.name for router in topology.routers_in_group("A1")} == {"a1", "a2"}
    assert {router.name for router in topology.routers_in_region("B")} == {"b1"}
    assert {router.name for router in topology.routers_in_asn(100)} == {"a1", "a2"}
    assert topology.groups() == {"A1", "B1"}


def test_topology_validation_and_errors():
    topology = build_topology()
    topology.validate()
    with pytest.raises(TopologyError):
        topology.add_router("a1", group="A1")
    with pytest.raises(TopologyError):
        topology.add_link("a1", "zz")
    with pytest.raises(TopologyError):
        topology.add_link("a1", "a1")
    with pytest.raises(TopologyError):
        topology.add_link("a1", "a2", members=0)
    with pytest.raises(TopologyError):
        topology.link_cost("a2", "b1")
    with pytest.raises(TopologyError):
        topology.router("missing")
    with pytest.raises(TopologyError):
        topology.neighbors("missing")


def test_link_interface_names_are_distinct_per_member():
    topology = build_topology()
    members = topology.links_between("a1", "a2")
    names = {link.interface_a() for link in members} | {link.interface_b() for link in members}
    assert len(names) == 6


def test_to_location_db_covers_interfaces_and_loopbacks():
    topology = build_topology()
    db = topology.to_location_db()
    assert db.names_at(Granularity.ROUTER) == {"a1", "a2", "b1"}
    assert db.names_at(Granularity.GROUP) == {"A1", "B1"}
    assert any(name.endswith(":lo0") for name in db.names_at(Granularity.INTERFACE))
    assert db.group_of_router("b1") == "B1"


def test_subset_topology():
    topology = build_topology()
    sub = topology.subset(["a1", "a2"])
    assert sub.num_routers == 2
    assert len(sub.links_between("a1", "a2")) == 3
    assert not sub.has_router("b1")
    with pytest.raises(TopologyError):
        topology.subset(["a1", "nope"])


def test_parallel_bundles_cost_their_cheapest_member():
    topology = build_topology()
    topology.add_link("a2", "b1", cost=7)
    topology.add_link("b1", "a2", members=2, cost=3)
    assert topology.link_cost("a2", "b1") == topology.link_cost("b1", "a2") == 3
    assert topology.neighbor_costs("a2") == {"a1": 5, "b1": 3}


def test_without_links_keeps_surviving_costs_and_drops_failed_pairs():
    topology = build_topology()
    failed = topology.without_links([("b1", "a1")])
    assert failed.link_cost("a1", "a2") == 5
    assert failed.neighbor_costs("a1") == {"a2": 5}
    assert failed.neighbor_costs("b1") == {}
    with pytest.raises(TopologyError):
        failed.link_cost("a1", "b1")
    # The parent keeps its own map.
    assert topology.neighbor_costs("a1") == {"a2": 5, "b1": 10}


def test_subset_preserves_costs():
    topology = build_topology()
    topology.add_link("a1", "a2", cost=2)
    sub = topology.subset(["a1", "a2"])
    assert sub.link_cost("a1", "a2") == 2
    assert sub.neighbor_costs("a2") == {"a1": 2}


def test_neighbor_costs_is_read_only():
    topology = build_topology()
    with pytest.raises(TypeError):
        topology.neighbor_costs("a1")["b1"] = 1
    with pytest.raises(TopologyError):
        topology.neighbor_costs("missing")


@given(st.integers(0, 2**32 - 1), st.integers(0, 32))
def test_prefix_str_matches_ipaddress(network, length):
    assert str(Prefix(network, length)) == f"{ipaddress.IPv4Address(network)}/{length}"


def test_prefix_parsing_and_containment():
    prefix = Prefix.parse("10.1.0.0/16")
    assert str(prefix) == "10.1.0.0/16"
    assert prefix.contains("10.1.2.0/24")
    assert prefix.contains(prefix)
    assert not prefix.contains("10.2.0.0/24")
    assert not Prefix.parse("10.1.2.0/24").contains(prefix)
    assert prefix.overlaps("10.0.0.0/8")
    assert not prefix.overlaps("192.168.0.0/16")
    with pytest.raises(RoutingError):
        Prefix.parse("not-a-prefix")
    assert Prefix.coerce(prefix) is prefix


def test_prefix_subnets():
    prefix = Prefix.parse("10.0.0.0/22")
    subnets = list(prefix.subnets(new_length=24))
    assert len(subnets) == 4
    assert str(subnets[1]) == "10.0.1.0/24"
    with pytest.raises(RoutingError):
        list(prefix.subnets(new_length=20))


def test_prefix_table_longest_match():
    table = PrefixTable()
    table.insert("10.0.0.0/8", "coarse")
    table.insert("10.1.0.0/16", "fine")
    assert table.lookup("10.1.2.0/24") == "fine"
    assert table.lookup("10.2.0.0/24") == "coarse"
    assert table.lookup("192.168.0.0/24") is None
    assert table.lookup_prefix("10.1.2.0/24") == Prefix.parse("10.1.0.0/16")
    assert table.exact("10.0.0.0/8") == "coarse"
    assert "10.1.0.0/16" in table
    table.remove("10.1.0.0/16")
    assert table.lookup("10.1.2.0/24") == "coarse"
    assert len(table) == 1


def test_allocate_prefixes():
    prefixes = allocate_prefixes("10.0.0.0/16", 4, new_length=24)
    assert [str(p) for p in prefixes] == [
        "10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24",
    ]
    with pytest.raises(RoutingError):
        allocate_prefixes("10.0.0.0/24", 300, new_length=25)
