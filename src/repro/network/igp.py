"""IGP shortest paths over the topology's link costs.

The BGP-style route selection in :mod:`repro.network.bgp` breaks ties using
the IGP cost toward the route's egress (hot-potato routing), and the Figure 1
case study's third iteration hinges on mis-set link costs making the
``A3-B3-D1`` detour cheaper than the direct ``A3-D1`` link.  This module
provides the cost computations: single-source Dijkstra over routers and
equal-cost next-hop extraction for ECMP forwarding.
"""

from __future__ import annotations

import heapq

from repro.errors import RoutingError
from repro.network.topology import Topology


def shortest_path_costs(topology: Topology, source: str) -> dict[str, int]:
    """Dijkstra from ``source``: minimal IGP cost to every reachable router."""
    if not topology.has_router(source):
        raise RoutingError(f"unknown router {source!r}")
    costs: dict[str, int] = {source: 0}
    heap: list[tuple[int, str]] = [(0, source)]
    visited: set[str] = set()
    while heap:
        cost, router = heapq.heappop(heap)
        if router in visited:
            continue
        visited.add(router)
        for neighbor, edge_cost in topology.neighbor_costs(router).items():
            candidate = cost + edge_cost
            if candidate < costs.get(neighbor, float("inf")):
                costs[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return costs


def igp_cost(topology: Topology, source: str, target: str) -> int | None:
    """Minimal IGP cost between two routers, ``None`` when disconnected."""
    return IgpCostCache(topology).cost(source, target)


def equal_cost_next_hops(topology: Topology, source: str, target: str) -> set[str]:
    """Neighbors of ``source`` on some shortest IGP path toward ``target``.

    This is the ECMP next-hop set used for intra-AS forwarding toward a BGP
    next hop: a neighbor ``n`` qualifies when ``cost(source, n) + cost(n,
    target)`` equals ``cost(source, target)``.
    """
    return set(IgpCostCache(topology).equal_cost_next_hops(source, target))


def all_pairs_costs(topology: Topology) -> dict[str, dict[str, int]]:
    """Shortest-path costs between every router pair (used by simulations)."""
    return {router.name: shortest_path_costs(topology, router.name) for router in topology}


class IgpCostCache:
    """Memoized single-source IGP costs and next hops over one (immutable) topology.

    :func:`~repro.network.fib.build_fibs` asks for next hops once per router
    × prefix × selected route and contingency sweeps rebuild FIBs once per
    failed link, so fresh Dijkstras per query would be quadratically
    wasteful.  The cache runs at most one Dijkstra per distinct source ever
    queried, and memoises each ``(source, target)`` next-hop set: a network
    has few distinct exits per AS, so most queries are one dict lookup.
    The topology must not gain links while a cache is alive.
    """

    __slots__ = ("topology", "_costs", "_next_hops")

    def __init__(self, topology: Topology):
        self.topology = topology
        self._costs: dict[str, dict[str, int]] = {}
        self._next_hops: dict[tuple[str, str], frozenset[str]] = {}

    def costs_from(self, source: str) -> dict[str, int]:
        """Memoized :func:`shortest_path_costs` from ``source``."""
        costs = self._costs.get(source)
        if costs is None:
            costs = shortest_path_costs(self.topology, source)
            self._costs[source] = costs
        return costs

    def cost(self, source: str, target: str) -> int | None:
        """Minimal IGP cost between two routers, ``None`` when disconnected."""
        return self.costs_from(source).get(target)

    def equal_cost_next_hops(self, source: str, target: str) -> frozenset[str]:
        """As :func:`equal_cost_next_hops`, memoised per ``(source, target)``."""
        hops = self._next_hops.get((source, target))
        if hops is None:
            hops = self._next_hops[(source, target)] = self._fresh_next_hops(source, target)
        return hops

    def _fresh_next_hops(self, source: str, target: str) -> frozenset[str]:
        if source == target:
            return frozenset()
        total = self.costs_from(source).get(target)
        if total is None:
            return frozenset()
        target_costs = self.costs_from(target)
        return frozenset(
            neighbor
            for neighbor, edge in self.topology.neighbor_costs(source).items()
            if neighbor in target_costs and edge + target_costs[neighbor] == total
        )
