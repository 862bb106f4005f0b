"""A naive reference for route computation, for differential tests.

:class:`~repro.network.bgp.BGPComputation` drives BGP to a fixed point as a
change wavefront over memoised sessions and IGP costs, and
:func:`~repro.network.fib.build_fibs` resolves exits through per-AS cost
caches.  This module computes the same answers the slow, obvious way, so a
test can assert that the two agree:

* :func:`reference_routes` runs synchronous all-pairs path-vector rounds:
  every round, every router re-selects every prefix from its whole
  Adj-RIB-in and advertises the result to every peer.  Like the simulator it
  models no withdrawals (a route a peer stops advertising stays in the
  receiver's Adj-RIB-in), and it stops after the same ``max_rounds``;
* IGP costs come from Bellman-Ford over the link list, and
  :func:`reference_fib` recomputes each next-hop set per query over the
  AS's own links.

Nothing is memoised, so the reference is slow; keep its inputs small.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import RoutingError
from repro.network.addressing import Prefix
from repro.network.bgp import NetworkConfig, Route, RouterConfig, SelectedRoutes
from repro.network.fib import Fib
from repro.network.policy import PolicyAction, RoutePolicy
from repro.network.topology import Link, Topology

#: The selection cost of an IGP-unreachable exit, as in the simulator (kept
#: here so the reference imports nothing the simulator's rewrites touch).
UNREACHABLE = 1 << 30


def _bellman_ford(links: list[Link], source: str) -> dict[str, int]:
    """Minimal cost from ``source`` to every router ``links`` reach."""
    dist = {source: 0}
    changed = True
    while changed:
        changed = False
        for link in links:
            for here, there in ((link.a, link.b), (link.b, link.a)):
                if here in dist and dist[here] + link.cost < dist.get(there, float("inf")):
                    dist[there] = dist[here] + link.cost
                    changed = True
    return dist


def reference_routes(
    topology: Topology, config: NetworkConfig, *, max_rounds: int | None = None
) -> SelectedRoutes:
    """Selected routes per router and prefix, by synchronous all-pairs rounds."""
    asn = {router.name: router.asn for router in topology}
    configs = {entry.name: entry for entry in config.routers()}
    for name in configs:
        if name not in asn:
            raise RoutingError(f"configuration references unknown router {name!r}")
    links = topology.links()
    igp = {name: _bellman_ford(links, name) for name in asn}
    peers: dict[str, list[tuple[str, bool]]] = {name: [] for name in asn}
    for name in asn:
        adjacent = {link.a for link in links if link.b == name}
        adjacent |= {link.b for link in links if link.a == name}
        for other in asn:
            if other == name:
                continue
            if asn[other] == asn[name]:
                peers[name].append((other, False))
            elif other in adjacent:
                peers[name].append((other, True))

    unconfigured = RouterConfig(name="")

    def policy_verdict(policies: dict[str, RoutePolicy], neighbor: str, prefix: Prefix):
        policy = policies.get(neighbor)
        return (PolicyAction.PERMIT, None) if policy is None else policy.evaluate(prefix)

    def advertise(sender: str, receiver: str, ebgp: bool, best: list[Route]) -> Route | None:
        # iBGP peers only hear routes that were not learned over iBGP.
        route = next(
            (
                route
                for route in best
                if ebgp or route.learned_from is None or asn[route.learned_from] != asn[sender]
            ),
            None,
        )
        if route is None:
            return None
        exports = configs.get(sender, unconfigured).export_policies
        action, pref = policy_verdict(exports, receiver, route.prefix)
        if action is PolicyAction.DENY:
            return None
        local_pref = route.local_pref if pref is None else pref
        if ebgp:
            as_path = (asn[sender],) + route.as_path
            if asn[receiver] in as_path:
                return None
            exit_router = receiver
            local_pref = configs.get(receiver, unconfigured).default_local_pref
        else:
            as_path, exit_router = route.as_path, route.exit_router
        imports = configs.get(receiver, unconfigured).import_policies
        action, pref = policy_verdict(imports, sender, route.prefix)
        if action is PolicyAction.DENY:
            return None
        return replace(
            route,
            as_path=as_path,
            local_pref=local_pref if pref is None else pref,
            learned_from=sender,
            exit_router=exit_router,
        )

    def select(
        router: str, rib: dict[tuple[str | None, Prefix], Route]
    ) -> dict[Prefix, list[Route]]:
        candidates: dict[Prefix, list[Route]] = {}
        for (_source, prefix), route in rib.items():
            candidates.setdefault(prefix, []).append(route)
        chosen: dict[Prefix, list[Route]] = {}
        for prefix, routes in candidates.items():
            def rank(route: Route) -> tuple[int, int, int]:
                cost = igp[router].get(route.exit_router, UNREACHABLE)
                return (-route.local_pref, len(route.as_path), cost)

            best = min(rank(route) for route in routes)
            chosen[prefix] = sorted(
                (route for route in routes if rank(route) == best),
                key=lambda route: (route.exit_router, route.learned_from or ""),
            )
        return chosen

    # Adj-RIB-in: router -> (source router, or None when originated; prefix) -> route
    ribs: dict[str, dict[tuple[str | None, Prefix], Route]] = {name: {} for name in asn}
    for entry in configs.values():
        for prefix in entry.originated:
            ribs[entry.name][(None, prefix)] = Route(
                prefix=prefix,
                origin=entry.name,
                local_pref=entry.default_local_pref,
                exit_router=entry.name,
            )
    for _round in range(max_rounds or (2 * topology.num_routers + 10)):
        selection = {name: select(name, ribs[name]) for name in asn}
        changed = False
        for sender, by_prefix in selection.items():
            for prefix, best in by_prefix.items():
                for receiver, ebgp in peers[sender]:
                    route = advertise(sender, receiver, ebgp, best)
                    if route is not None and ribs[receiver].get((sender, prefix)) != route:
                        ribs[receiver][(sender, prefix)] = route
                        changed = True
        if not changed:
            break
    return {name: select(name, ribs[name]) for name in asn}


def reference_fib(topology: Topology, selected: SelectedRoutes, *, drop_unreachable: bool) -> Fib:
    """FIBs from ``selected``, each IGP next-hop set recomputed from scratch."""
    fib = Fib()
    for router, by_prefix in selected.items():
        asn = topology.router(router).asn
        inside = [
            link
            for link in topology.links()
            if topology.router(link.a).asn == asn == topology.router(link.b).asn
        ]
        for prefix, routes in by_prefix.items():
            next_hops: set[str] = set()
            egress = False
            for route in routes:
                if route.exit_router == router:
                    if route.learned_from is None:
                        egress = True
                    else:
                        next_hops.add(route.learned_from)
                    continue
                to_exit = _bellman_ford(inside, route.exit_router)
                hops = {
                    there
                    for link in inside
                    for here, there in ((link.a, link.b), (link.b, link.a))
                    if here == router
                    and router in to_exit
                    and link.cost + to_exit.get(there, UNREACHABLE) == to_exit[router]
                }
                if not hops:
                    if drop_unreachable:
                        continue
                    raise RoutingError(f"router {router!r} cannot reach exit {route.exit_router!r}")
                next_hops |= hops
            fib.set_entry(router, prefix, next_hops, egress=egress)
    return fib
