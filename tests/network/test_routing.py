"""Tests for policy, IGP, BGP route selection, FIBs and the simulator."""

import pytest

from repro.automata.alphabet import DROP
from repro.errors import RoutingError
from repro.network import (
    Fib,
    NetworkConfig,
    Prefix,
    Simulator,
    Topology,
    allow_list,
    build_fibs,
    deny_prefixes,
    equal_cost_next_hops,
    igp_cost,
    permit_all,
    set_local_pref,
    shortest_path_costs,
    trace_forwarding,
)
from repro.network.bgp import BGPComputation
from repro.network.igp import IgpCostCache
from repro.network.policy import PolicyAction
from repro.network.simulator import TraceOptions
from repro.rela.locations import Granularity


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
def test_policy_evaluation_order_and_defaults():
    policy = allow_list(["10.0.0.0/8"])
    assert policy.permits(Prefix.parse("10.1.0.0/24"))
    assert not policy.permits(Prefix.parse("192.168.0.0/24"))

    filt = deny_prefixes(["10.9.0.0/16"])
    assert not filt.permits(Prefix.parse("10.9.1.0/24"))
    assert filt.permits(Prefix.parse("10.8.0.0/24"))

    pref = set_local_pref(["10.0.0.0/8"], 200)
    action, local_pref = pref.evaluate(Prefix.parse("10.1.0.0/24"))
    assert action is PolicyAction.PERMIT and local_pref == 200
    action, local_pref = pref.evaluate(Prefix.parse("172.16.0.0/16"))
    assert action is PolicyAction.PERMIT and local_pref is None

    assert permit_all().permits(Prefix.parse("0.0.0.0/0"))


# ----------------------------------------------------------------------
# Fixture topology: two ASes, a cheap and an expensive path
# ----------------------------------------------------------------------
@pytest.fixture()
def diamond() -> tuple[Topology, NetworkConfig]:
    topology = Topology("diamond")
    topology.add_router("src", group="SRC", region="A", asn=100)
    topology.add_router("left", group="LEFT", region="A", asn=100)
    topology.add_router("right", group="RIGHT", region="A", asn=100)
    topology.add_router("dst", group="DST", region="B", asn=200)
    topology.add_link("src", "left", cost=1)
    topology.add_link("src", "right", cost=5)
    topology.add_link("left", "dst", cost=1)
    topology.add_link("right", "dst", cost=1)
    config = NetworkConfig()
    config.router("dst").originate("10.0.0.0/24")
    return topology, config


# ----------------------------------------------------------------------
# IGP
# ----------------------------------------------------------------------
def test_igp_shortest_paths(diamond):
    topology, _config = diamond
    costs = shortest_path_costs(topology, "src")
    # The cheapest way to reach "right" goes around through left and dst.
    assert costs["left"] == 1 and costs["right"] == 3 and costs["dst"] == 2
    assert igp_cost(topology, "src", "dst") == 2
    assert equal_cost_next_hops(topology, "src", "dst") == {"left"}
    with pytest.raises(RoutingError):
        shortest_path_costs(topology, "missing")


def test_igp_ecmp_next_hops():
    topology = Topology("ecmp")
    for name in ("s", "m1", "m2", "t"):
        topology.add_router(name, group=name.upper(), asn=1)
    topology.add_link("s", "m1", cost=1)
    topology.add_link("s", "m2", cost=1)
    topology.add_link("m1", "t", cost=1)
    topology.add_link("m2", "t", cost=1)
    assert equal_cost_next_hops(topology, "s", "t") == {"m1", "m2"}


def _fresh_next_hops(topology, source, target):
    """Next hops straight from two Dijkstras, with no cache involved."""
    costs = shortest_path_costs(topology, source)
    if source == target or target not in costs:
        return set()
    back = shortest_path_costs(topology, target)
    return {
        neighbor
        for neighbor in topology.neighbors(source)
        if neighbor in back
        and topology.link_cost(source, neighbor) + back[neighbor] == costs[target]
    }


def test_memoised_next_hops_equal_a_fresh_computation(diamond):
    topology, _config = diamond
    ecmp = Topology("ecmp")
    for name in ("s", "m1", "m2", "t"):
        ecmp.add_router(name, group=name.upper(), asn=1)
    for a, b in (("s", "m1"), ("s", "m2"), ("m1", "t"), ("m2", "t")):
        ecmp.add_link(a, b)
    for network in (topology, ecmp, topology.without_links([("src", "left")])):
        cache = IgpCostCache(network)
        for source in (router.name for router in network):
            for target in (router.name for router in network):
                first = cache.equal_cost_next_hops(source, target)
                assert first == _fresh_next_hops(network, source, target)
                assert first == equal_cost_next_hops(network, source, target)
                assert cache.equal_cost_next_hops(source, target) is first


# ----------------------------------------------------------------------
# BGP + FIB
# ----------------------------------------------------------------------
def test_bgp_selection_prefers_ebgp_exit_and_builds_fib(diamond):
    topology, config = diamond
    selected = BGPComputation(topology, config).compute()
    assert Prefix.parse("10.0.0.0/24") in selected["src"]
    fib = build_fibs(topology, selected)
    entry = fib.lookup("src", "10.0.0.0/24")
    assert entry is not None and not entry.is_drop()
    # Both left and right peer with dst over eBGP; src chooses the cheaper exit.
    assert entry.next_hops == {"left"}
    dst_entry = fib.lookup("dst", "10.0.0.0/24")
    assert dst_entry.egress


def test_local_pref_overrides_igp_choice(diamond):
    topology, config = diamond
    # Raise local preference for routes learned via the expensive right exit.
    config.router("right").set_import_policy("dst", set_local_pref(["10.0.0.0/24"], 300))
    selected = BGPComputation(topology, config).compute()
    fib = build_fibs(topology, selected)
    entry = fib.lookup("src", "10.0.0.0/24")
    assert entry.next_hops == {"right"}


def test_import_deny_blackholes_traffic(diamond):
    topology, config = diamond
    config.router("left").set_import_policy("dst", deny_prefixes(["10.0.0.0/24"]))
    config.router("right").set_import_policy("dst", deny_prefixes(["10.0.0.0/24"]))
    simulator = Simulator(topology, config)
    graph = simulator.trace("src", "10.0.0.0/24")
    assert graph.path_set() == {(DROP,)}


def test_fib_manual_entries_and_copy():
    fib = Fib()
    fib.set_entry("r1", "10.0.0.0/24", ["r2"])
    fib.set_entry("r2", "10.0.0.0/24", [], egress=True)
    assert fib.lookup("r1", "10.0.0.5/32").next_hops == {"r2"}
    assert fib.lookup("r3", "10.0.0.0/24") is None
    assert fib.num_routes() == 2
    clone = fib.copy()
    clone.remove_entry("r1", "10.0.0.0/24")
    assert fib.lookup("r1", "10.0.0.0/24") is not None
    assert clone.lookup("r1", "10.0.0.0/24") is None
    assert set(fib.routers()) == {"r1", "r2"}
    assert len(list(fib.entries("r2"))) == 1


# ----------------------------------------------------------------------
# Dataplane tracing
# ----------------------------------------------------------------------
def test_trace_follows_fib_and_marks_egress(diamond):
    topology, config = diamond
    simulator = Simulator(topology, config)
    graph = simulator.trace("src", "10.0.0.0/24")
    assert graph.path_set() == {("src", "left", "dst")}
    assert graph.sources == {"src"}
    assert "dst" in graph.sinks


def test_trace_interface_granularity_expands_parallel_links():
    topology = Topology("parallel")
    topology.add_router("a", group="A", asn=1)
    topology.add_router("b", group="B", asn=2)
    topology.add_link("a", "b", members=3)
    config = NetworkConfig()
    config.router("b").originate("10.0.0.0/24")
    simulator = Simulator(topology, config)
    router_graph = simulator.trace("a", "10.0.0.0/24")
    assert router_graph.count_paths() == 1
    iface_graph = simulator.trace("a", "10.0.0.0/24", granularity=Granularity.INTERFACE)
    # Three parallel members yield three interface-level paths.
    assert iface_graph.count_paths() == 3
    assert iface_graph.granularity is Granularity.INTERFACE


def test_trace_group_granularity(diamond):
    topology, config = diamond
    simulator = Simulator(topology, config)
    graph = simulator.trace("src", "10.0.0.0/24", granularity=Granularity.GROUP)
    assert graph.path_set() == {("SRC", "LEFT", "DST")}


def test_trace_unknown_ingress_raises(diamond):
    topology, config = diamond
    simulator = Simulator(topology, config)
    with pytest.raises(RoutingError):
        simulator.trace("nope", "10.0.0.0/24")


def test_trace_forwarding_over_manual_fib(diamond):
    topology, _config = diamond
    fib = Fib()
    fib.set_entry("src", "10.0.0.0/24", ["right"])
    fib.set_entry("right", "10.0.0.0/24", ["dst"])
    fib.set_entry("dst", "10.0.0.0/24", [], egress=True)
    graph = trace_forwarding(topology, fib, "src", "10.0.0.0/24", options=TraceOptions())
    assert graph.path_set() == {("src", "right", "dst")}


def test_snapshot_assembly(diamond, small_backbone):
    topology, config = diamond
    from repro.snapshots.fec import FlowEquivalenceClass

    simulator = Simulator(topology, config)
    snapshot = simulator.snapshot(
        [FlowEquivalenceClass("f1", dst_prefix="10.0.0.0/24", ingress="src")]
    )
    assert len(snapshot) == 1
    assert snapshot.graph("f1").path_set() == {("src", "left", "dst")}

    backbone, fecs, pre = small_backbone
    assert len(pre) == len(fecs)
    # Every simulated flow either reaches an egress or is explicitly dropped.
    for fec, graph in pre.items():
        assert not graph.is_empty()
        assert graph.is_acyclic()
