"""Network topology model: routers, router groups, regions, ASes and links.

The topology is the static substrate beneath everything else: the routing
simulator computes paths over it, the location database used by Rela ``where``
queries is derived from it, and the synthetic backbone generator
(:mod:`repro.workloads.backbone`) produces instances of it.

The model mirrors the structure described in Section 2.1 of the paper: the
network is divided into BGP autonomous systems; each AS spans geographic
regions; each region contains *router groups* (circles in Figure 1) of
functionally equivalent routers; routers are connected by (possibly many
parallel) physical links, each with an IGP cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator
from types import MappingProxyType

from repro.errors import TopologyError
from repro.rela.locations import Location, LocationDB


@dataclass(frozen=True, slots=True)
class Router:
    """A router (device)."""

    name: str
    group: str
    region: str = ""
    asn: int = 0
    tier: str = ""

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Link:
    """One physical link member between two routers.

    Parallel links between the same router pair are modelled as multiple
    :class:`Link` records with distinct ``member`` indices; this is what
    makes interface-level analysis much heavier than router-level analysis
    (paper Section 6.1 and Figure 7).
    """

    a: str
    b: str
    member: int = 0
    cost: int = 1

    def interface_a(self) -> str:
        """Name of the interface on router ``a``."""
        return f"{self.a}|{self.b}|{self.member}"

    def interface_b(self) -> str:
        """Name of the interface on router ``b``."""
        return f"{self.b}|{self.a}|{self.member}"

    def endpoints(self) -> tuple[str, str]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"{self.a}<->{self.b}#{self.member}"


class Topology:
    """A network topology: routers plus (parallel) links."""

    def __init__(self, name: str = "network"):
        self.name = name
        self._routers: dict[str, Router] = {}
        self._links: list[Link] = []
        # Cost map: router -> neighbor -> minimum IGP cost over the bundle's
        # members, maintained as links are added (they are never removed in
        # place), so ``link_cost`` and every Dijkstra edge relaxation are one
        # dict lookup; ``_neighbor_views`` holds one read-only view per router.
        self._adjacency: dict[str, dict[str, int]] = {}
        self._neighbor_views: dict[str, MappingProxyType[str, int]] = {}
        # Bundle index: unordered router pair -> its parallel link members.
        self._bundles: dict[frozenset[str], list[Link]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_router(
        self,
        name: str,
        *,
        group: str,
        region: str = "",
        asn: int = 0,
        tier: str = "",
    ) -> Router:
        """Add a router; the group/region/ASN become queryable attributes."""
        if name in self._routers:
            raise TopologyError(f"duplicate router {name!r}")
        router = Router(name=name, group=group, region=region, asn=asn, tier=tier)
        self._routers[name] = router
        self._adjacency[name] = {}
        self._neighbor_views[name] = MappingProxyType(self._adjacency[name])
        return router

    def add_link(self, a: str, b: str, *, members: int = 1, cost: int = 1) -> list[Link]:
        """Add ``members`` parallel links between two existing routers."""
        if a not in self._routers or b not in self._routers:
            raise TopologyError(f"link endpoints must be existing routers: {a!r}, {b!r}")
        if a == b:
            raise TopologyError(f"self-links are not allowed: {a!r}")
        if members < 1:
            raise TopologyError("a link bundle needs at least one member")
        created = [Link(a=a, b=b, member=index, cost=cost) for index in range(members)]
        self._links.extend(created)
        for here, there in ((a, b), (b, a)):
            costs = self._adjacency[here]
            costs[there] = min(costs.get(there, cost), cost)
        self._bundles.setdefault(frozenset((a, b)), []).extend(created)
        return created

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_routers(self) -> int:
        return len(self._routers)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def routers(self) -> list[Router]:
        """All routers."""
        return list(self._routers.values())

    def router(self, name: str) -> Router:
        """Look up a router by name."""
        try:
            return self._routers[name]
        except KeyError:
            raise TopologyError(f"unknown router {name!r}") from None

    def has_router(self, name: str) -> bool:
        return name in self._routers

    def links(self) -> list[Link]:
        """All link members."""
        return list(self._links)

    def neighbors(self, name: str) -> set[str]:
        """Routers adjacent to ``name``."""
        if name not in self._adjacency:
            raise TopologyError(f"unknown router {name!r}")
        return set(self._adjacency[name])

    def neighbor_costs(self, name: str) -> MappingProxyType[str, int]:
        """Read-only ``neighbor -> link_cost`` map of one router."""
        try:
            return self._neighbor_views[name]
        except KeyError:
            raise TopologyError(f"unknown router {name!r}") from None

    def links_between(self, a: str, b: str) -> list[Link]:
        """All parallel link members between two routers (either direction)."""
        return list(self._bundles.get(frozenset((a, b)), ()))

    def link_bundles(self) -> list[tuple[str, str]]:
        """All connected router pairs, as sorted ``(a, b)`` tuples.

        One entry per *bundle* (parallel members collapse): this is the unit
        failure models enumerate, since failing a single member of a bundle
        leaves router-level forwarding unchanged (IGP costs take the minimum
        over surviving members of the same cost).
        """
        return sorted(tuple(sorted(pair)) for pair in self._bundles)

    def link_cost(self, a: str, b: str) -> int:
        """The minimum IGP cost among parallel members between two routers."""
        try:
            return self._adjacency[a][b]
        except KeyError:
            raise TopologyError(f"no link between {a!r} and {b!r}") from None

    def routers_in_group(self, group: str) -> list[Router]:
        """All routers belonging to a router group."""
        return [router for router in self._routers.values() if router.group == group]

    def routers_in_region(self, region: str) -> list[Router]:
        """All routers belonging to a geographic region."""
        return [router for router in self._routers.values() if router.region == region]

    def routers_in_asn(self, asn: int) -> list[Router]:
        """All routers belonging to a BGP autonomous system."""
        return [router for router in self._routers.values() if router.asn == asn]

    def groups(self) -> set[str]:
        """All router group names."""
        return {router.group for router in self._routers.values()}

    def __iter__(self) -> Iterator[Router]:
        return iter(self._routers.values())

    # ------------------------------------------------------------------
    # Derived artifacts
    # ------------------------------------------------------------------
    def to_location_db(self) -> LocationDB:
        """Build the Rela location database for this topology.

        One record per link interface is created (plus a loopback per router
        so routers without links remain queryable); record attributes carry
        the router/group/region/ASN/tier metadata used by ``where`` queries.
        """
        db = LocationDB()
        seen_interfaces: set[str] = set()
        for link in self._links:
            for interface, owner in ((link.interface_a(), link.a), (link.interface_b(), link.b)):
                if interface in seen_interfaces:
                    continue
                seen_interfaces.add(interface)
                router = self._routers[owner]
                db.add(
                    Location(
                        interface=interface,
                        router=router.name,
                        group=router.group,
                        region=router.region,
                        asn=router.asn,
                        tier=router.tier,
                    )
                )
        for router in self._routers.values():
            loopback = f"{router.name}:lo0"
            if loopback not in seen_interfaces:
                db.add(
                    Location(
                        interface=loopback,
                        router=router.name,
                        group=router.group,
                        region=router.region,
                        asn=router.asn,
                        tier=router.tier,
                    )
                )
        return db

    def validate(self) -> None:
        """Check structural invariants (dangling links, empty groups)."""
        for link in self._links:
            if link.a not in self._routers or link.b not in self._routers:
                raise TopologyError(f"link {link} references unknown routers")
        for router in self._routers.values():
            if not router.group:
                raise TopologyError(f"router {router.name!r} has no group")

    def subset(self, router_names: Iterable[str], *, name: str | None = None) -> "Topology":
        """The sub-topology induced by the given routers."""
        keep = set(router_names)
        missing = keep - set(self._routers)
        if missing:
            raise TopologyError(f"unknown routers in subset: {sorted(missing)}")
        sub = Topology(name=name or f"{self.name}-subset")
        for router_name in keep:
            router = self._routers[router_name]
            sub.add_router(
                router.name,
                group=router.group,
                region=router.region,
                asn=router.asn,
                tier=router.tier,
            )
        bundles: dict[tuple[str, str, int], int] = {}
        for link in self._links:
            if link.a in keep and link.b in keep:
                bundles[(link.a, link.b, link.cost)] = (
                    bundles.get((link.a, link.b, link.cost), 0) + 1
                )
        for (a, b, cost), members in bundles.items():
            sub.add_link(a, b, members=members, cost=cost)
        return sub

    def without_links(
        self, failed: Iterable[tuple[str, str]], *, name: str | None = None
    ) -> "Topology":
        """The topology with the given link bundles failed (removed).

        ``failed`` names unordered router pairs; *every* parallel member of a
        named pair is removed, modelling the failure (or planned drain) of
        the whole physical bundle.  Routers are never removed — an isolated
        router simply has no adjacency, and the routing layers turn that
        into dropped traffic.  Naming a pair with no links is an error: a
        contingency that fails a non-existent link is a typo, not a no-op.
        """
        gone = {frozenset(pair) for pair in failed}
        for pair in gone:
            if len(pair) != 2 or pair not in self._bundles:
                a, b = sorted(pair) if len(pair) == 2 else (next(iter(pair)),) * 2
                raise TopologyError(f"no link between {a!r} and {b!r} to fail")
        derived = Topology(name=name or f"{self.name}-failed")
        for router in self._routers.values():
            derived.add_router(
                router.name,
                group=router.group,
                region=router.region,
                asn=router.asn,
                tier=router.tier,
            )
        for pair, members in self._bundles.items():
            if pair in gone:
                continue
            derived._links.extend(members)
            derived._bundles[pair] = list(members)
            a, b = pair
            derived._adjacency[a][b] = derived._adjacency[b][a] = self._adjacency[a][b]
        return derived
