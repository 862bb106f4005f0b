"""Differential tests: the route simulator against the naive reference.

:mod:`repro.testing.routing` recomputes selections and FIBs by synchronous
all-pairs rounds and Bellman-Ford.  Every case asserts that
``BGPComputation.compute`` and ``build_fibs`` produce exactly what it does:
random small multi-AS topologies with parallel members, ECMP ties, import
and export policies and failed bundles, plus the synthetic backbone under
every single bundle failure.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network import NetworkConfig, Topology, build_fibs, deny_prefixes, set_local_pref
from repro.network.bgp import BGPComputation
from repro.testing.routing import reference_fib, reference_routes
from repro.workloads.backbone import BackboneParams, generate_backbone

#: Nested on purpose, so a policy on the /16 also matches the /24 inside it.
PREFIXES = ("10.0.0.0/24", "10.0.1.0/24", "10.1.0.0/16", "10.1.2.0/24")


def _fib_entries(fib):
    return {router: dict(fib.table(router).items()) for router in fib.routers()}


def _assert_matches_reference(topology, config, *, drop_unreachable):
    expected = reference_routes(topology, config.copy())
    actual = BGPComputation(topology, config.copy()).compute()
    assert actual == expected
    assert _fib_entries(build_fibs(topology, actual, drop_unreachable=drop_unreachable)) == (
        _fib_entries(reference_fib(topology, expected, drop_unreachable=drop_unreachable))
    )


@st.composite
def routing_cases(draw):
    """A 2–3 AS, 3–8 router network with policies and 0–2 failed bundles."""
    size = draw(st.integers(3, 8))
    ases = draw(st.integers(2, 3))
    topology = Topology("oracle")
    names = [f"r{index}" for index in range(size)]
    for index, name in enumerate(names):
        asn = index if index < ases else draw(st.integers(0, ases - 1))
        topology.add_router(name, group=name.upper(), asn=100 + asn)
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            min_size=2,
            max_size=2 * size,
        )
    )
    for a, b in pairs:
        # Unequal member costs on one pair, and small costs so ECMP ties happen.
        for cost in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)):
            topology.add_link(a, b, members=draw(st.integers(1, 2)), cost=cost)

    config = NetworkConfig()
    for prefix in draw(st.lists(st.sampled_from(PREFIXES), min_size=1, max_size=3, unique=True)):
        for origin in draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)):
            config.router(origin).originate(prefix)

    sessions = sorted(
        (a, b)
        for a in names
        for b in names
        if a != b
        and (
            topology.router(a).asn == topology.router(b).asn
            or b in topology.neighbors(a)
        )
    )
    policy = st.tuples(
        st.sampled_from(sessions),
        st.sampled_from(("import", "export")),
        st.lists(st.sampled_from(PREFIXES), min_size=1, max_size=2, unique=True),
        st.none() | st.sampled_from((50, 150, 200)),
    )
    for (router, neighbor), direction, prefixes, local_pref in draw(
        st.lists(policy, max_size=4)
    ):
        if local_pref is None:
            rule = deny_prefixes(prefixes)
        else:
            rule = set_local_pref(prefixes, local_pref)
        if direction == "import":
            config.router(router).set_import_policy(neighbor, rule)
        else:
            config.router(router).set_export_policy(neighbor, rule)

    failed = draw(st.lists(st.sampled_from(topology.link_bundles()), max_size=2, unique=True))
    return (topology.without_links(failed) if failed else topology), config


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(routing_cases())
def test_simulator_matches_reference_on_random_networks(case):
    topology, config = case
    _assert_matches_reference(topology, config, drop_unreachable=True)


@pytest.mark.parametrize("regions", [3, 4])
def test_simulator_matches_reference_on_backbone_under_single_failures(regions):
    backbone = generate_backbone(BackboneParams(regions=regions))
    topology = backbone.topology
    _assert_matches_reference(topology, backbone.config, drop_unreachable=False)
    for bundle in topology.link_bundles():
        _assert_matches_reference(
            topology.without_links([bundle]), backbone.config, drop_unreachable=True
        )
