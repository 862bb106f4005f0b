"""A BGP-style path-vector routing substrate.

The paper's workflow starts from a control-plane simulator that computes the
network's forwarding state from router configurations (Section 2.3); Rela
itself only consumes the resulting forwarding paths.  To reproduce the whole
workflow end to end we implement a simplified but recognizable BGP:

* routers originate prefixes;
* routes propagate over eBGP sessions (physically adjacent routers in
  different ASes) and an implicit iBGP full mesh inside each AS;
* import policies can deny routes or set local preference (which is how the
  Figure 1 change iterations go wrong);
* best-route selection follows the classic order: highest local preference,
  then shortest AS path, then lowest IGP cost to the exit, with ties kept as
  an ECMP set.

The output is, per router and prefix, the set of selected routes, which
:mod:`repro.network.fib` turns into forwarding tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.errors import RoutingError
from repro.network.addressing import Prefix
from repro.network.igp import IgpCostCache
from repro.network.policy import PolicyAction, RoutePolicy, permit_all
from repro.network.topology import Topology

DEFAULT_LOCAL_PREF = 100


@dataclass(frozen=True, slots=True)
class Route:
    """One BGP route as held in a router's RIB."""

    prefix: Prefix
    origin: str
    as_path: tuple[int, ...] = ()
    local_pref: int = DEFAULT_LOCAL_PREF
    #: The physically adjacent neighbor this route was learned from over
    #: eBGP, or the iBGP peer holding the exit, or ``None`` when originated
    #: locally.
    learned_from: str | None = None
    #: The router at which traffic exits toward the prefix (the eBGP exit or
    #: the originating router).
    exit_router: str = ""


@dataclass(slots=True)
class RouterConfig:
    """Per-router configuration consumed by the routing computation."""

    name: str
    originated: list[Prefix] = field(default_factory=list)
    import_policies: dict[str, RoutePolicy] = field(default_factory=dict)
    export_policies: dict[str, RoutePolicy] = field(default_factory=dict)
    default_local_pref: int = DEFAULT_LOCAL_PREF

    def originate(self, prefix: Prefix | str) -> None:
        """Originate a prefix from this router."""
        self.originated.append(Prefix.coerce(prefix))

    def set_import_policy(self, neighbor: str, policy: RoutePolicy) -> None:
        """Attach an import policy for routes learned from ``neighbor``."""
        self.import_policies[neighbor] = policy

    def set_export_policy(self, neighbor: str, policy: RoutePolicy) -> None:
        """Attach an export policy for routes advertised to ``neighbor``."""
        self.export_policies[neighbor] = policy

    def import_policy(self, neighbor: str) -> RoutePolicy:
        return self.import_policies.get(neighbor, permit_all())

    def export_policy(self, neighbor: str) -> RoutePolicy:
        return self.export_policies.get(neighbor, permit_all())


class NetworkConfig:
    """The collection of all router configurations."""

    def __init__(self, configs: Iterable[RouterConfig] = ()):
        self._configs: dict[str, RouterConfig] = {}
        for config in configs:
            self._configs[config.name] = config

    def router(self, name: str) -> RouterConfig:
        """Get (or lazily create) the configuration of a router."""
        if name not in self._configs:
            self._configs[name] = RouterConfig(name=name)
        return self._configs[name]

    def routers(self) -> list[RouterConfig]:
        return list(self._configs.values())

    def copy(self) -> "NetworkConfig":
        """A deep copy, so change iterations can be derived from a base config."""
        clone = NetworkConfig()
        for name, config in self._configs.items():
            clone._configs[name] = RouterConfig(
                name=name,
                originated=list(config.originated),
                import_policies=dict(config.import_policies),
                export_policies=dict(config.export_policies),
                default_local_pref=config.default_local_pref,
            )
        return clone


#: Selected routes: router name -> prefix -> list of equally-good routes.
SelectedRoutes = dict[str, dict[Prefix, list[Route]]]


#: One BGP session of a router: ``(peer, is_ebgp, export policy, import
#: policy, the peer's default local preference)``; a policy is ``None`` when
#: the session has none in that direction.
Session = tuple[str, bool, RoutePolicy | None, RoutePolicy | None, int]

#: The selection cost of an exit the router cannot reach over the IGP.
UNREACHABLE = 1 << 30


class BGPComputation:
    """Fixed-point computation of BGP route propagation and selection."""

    def __init__(self, topology: Topology, config: NetworkConfig, *, max_rounds: int | None = None):
        self.topology = topology
        self.config = config
        self.max_rounds = max_rounds or (2 * topology.num_routers + 10)
        self._igp = IgpCostCache(topology)
        self._asn = {router.name: router.asn for router in topology}

    def _sessions(self) -> dict[str, list[Session]]:
        """Every router's BGP sessions.

        eBGP sessions exist between physically adjacent routers in different
        ASes; iBGP sessions form an implicit full mesh within an AS.
        """
        configs = {entry.name: entry for entry in self.config.routers()}
        unconfigured = RouterConfig(name="")
        members: dict[int, list[str]] = {}
        for name, asn in self._asn.items():
            members.setdefault(asn, []).append(name)
        sessions: dict[str, list[Session]] = {}
        for name, asn in self._asn.items():
            peers = [
                (neighbor, True)
                for neighbor in sorted(self.topology.neighbors(name))
                if self._asn[neighbor] != asn
            ]
            peers += [(other, False) for other in members[asn] if other != name]
            exports = configs.get(name, unconfigured).export_policies
            sessions[name] = []
            for peer, is_ebgp in peers:
                peer_config = configs.get(peer, unconfigured)
                sessions[name].append(
                    (
                        peer,
                        is_ebgp,
                        exports.get(peer),
                        peer_config.import_policies.get(name),
                        peer_config.default_local_pref,
                    )
                )
        return sessions

    # ------------------------------------------------------------------
    # Main computation
    # ------------------------------------------------------------------
    def compute(self) -> SelectedRoutes:
        """Run route propagation to a fixed point and return selected routes.

        The fixed point is driven as a *wavefront*: per round, best-route
        selection is recomputed only for ``(router, prefix)`` pairs whose
        Adj-RIB-in changed in the previous round, and a router re-advertises
        a prefix only when its selection for that prefix actually changed.
        This is an exactness-preserving pruning of the textbook
        all-pairs-every-round sweep: re-advertising an *unchanged* selection
        is idempotent — the same best route exports and imports to the same
        value, which the previous round already wrote into the peer's rib, so
        the write comparison fails and nothing changes.  Skipping that work
        leaves the per-round rib evolution, the convergence round count and
        the final fixed point identical while cutting the steady-state cost
        from ``O(routers × sessions × prefixes)`` per round to the size of
        the actual change wavefront — the property that makes per-contingency
        recomputation affordable in k-failure sweeps.
        (:func:`repro.testing.routing.reference_routes` is that textbook
        sweep, kept as the differential oracle.)

        Per changed selection, the advertised route is picked once per
        session kind: the best route for eBGP peers, the best route not
        learned over iBGP for iBGP peers.  An iBGP session without policy
        imports that route unchanged except for ``learned_from``, so the
        imported :class:`Route` (frozen) is built once and shared by every
        policy-free member of the mesh.  The Adj-RIB-in is keyed
        ``router -> prefix -> source``, so re-selecting one prefix reads
        one dict.

        Neither the frontier's order nor a dict's iteration order can change
        a result: within one round every rib slot ``(receiver, prefix,
        sender)`` is written from the sender's selection alone, and
        :meth:`_select` orders equally good routes by ``(exit_router,
        learned_from)``, which is unique per candidate (one route per
        source).
        """
        ribs: dict[str, dict[Prefix, dict[str | None, Route]]] = {
            router.name: {} for router in self.topology
        }
        for config in self.config.routers():
            if not self.topology.has_router(config.name):
                raise RoutingError(f"configuration references unknown router {config.name!r}")
            for prefix in config.originated:
                ribs[config.name].setdefault(prefix, {})[None] = Route(
                    prefix=prefix,
                    origin=config.name,
                    as_path=(),
                    local_pref=config.default_local_pref,
                    learned_from=None,
                    exit_router=config.name,
                )

        asn = self._asn
        sessions = self._sessions()
        selection: SelectedRoutes = {name: {} for name in ribs}
        dirty: set[tuple[str, Prefix]] = {
            (name, prefix) for name, by_prefix in ribs.items() for prefix in by_prefix
        }
        for _round in range(self.max_rounds):
            frontier = self._reselect(ribs, selection, dirty)
            if not frontier:
                break
            dirty = set()
            changed = False
            for name, prefix, routes in frontier:
                own_asn = asn[name]
                # iBGP peers only hear routes not learned over iBGP (the
                # full mesh's loop-avoidance rule).
                ibgp_route = next(
                    (
                        route
                        for route in routes
                        if route.learned_from is None or asn[route.learned_from] != own_asn
                    ),
                    None,
                )
                shared_import: Route | None = None
                for session in sessions[name]:
                    peer, is_ebgp, export, import_, _pref = session
                    if is_ebgp:
                        imported = self._exchange(name, routes[0], session)
                    elif ibgp_route is None:
                        continue
                    elif export is None and import_ is None:
                        if shared_import is None:
                            shared_import = self._exchange(name, ibgp_route, session)
                        imported = shared_import
                    else:
                        imported = self._exchange(name, ibgp_route, session)
                    if imported is None:
                        continue
                    peer_rib = ribs[peer].setdefault(prefix, {})
                    if peer_rib.get(name) != imported:
                        peer_rib[name] = imported
                        dirty.add((peer, prefix))
                        changed = True
            if not changed:
                break
        # Fold any dirt left by a max_rounds exhaustion so the returned
        # selection always reflects the final ribs.
        self._reselect(ribs, selection, dirty)
        return selection

    def _reselect(
        self,
        ribs: dict[str, dict[Prefix, dict[str | None, Route]]],
        selection: SelectedRoutes,
        dirty: set[tuple[str, Prefix]],
    ) -> list[tuple[str, Prefix, list[Route]]]:
        """Recompute selection for ``dirty`` pairs; return the ones that changed."""
        frontier: list[tuple[str, Prefix, list[Route]]] = []
        for name, prefix in sorted(dirty, key=lambda pair: (pair[0], str(pair[1]))):
            best = self._select(name, ribs[name][prefix].values())
            if selection[name].get(prefix) != best:
                selection[name][prefix] = best
                frontier.append((name, prefix, best))
        return frontier

    def _exchange(self, sender: str, route: Route, session: Session) -> Route | None:
        """``route`` as the session's peer imports it from ``sender``.

        ``None`` when the sender's export policy or the peer's import
        policy denies it, or when the peer's ASN is already on the eBGP
        path (loop prevention).
        """
        peer, is_ebgp, export, import_, peer_pref = session
        local_pref = route.local_pref
        if export is not None:
            action, override = export.evaluate(route.prefix)
            if action is PolicyAction.DENY:
                return None
            if override is not None:
                local_pref = override
        as_path = route.as_path
        if is_ebgp:
            # The sender prepends its own ASN; the receiver rejects routes
            # whose AS path already contains its ASN.
            as_path = (self._asn[sender],) + as_path
            if self._asn[peer] in as_path:
                return None
            exit_router = peer
            local_pref = peer_pref
        else:
            exit_router = route.exit_router
        if import_ is not None:
            action, override = import_.evaluate(route.prefix)
            if action is PolicyAction.DENY:
                return None
            if override is not None:
                local_pref = override
        return Route(
            prefix=route.prefix,
            origin=route.origin,
            as_path=as_path,
            local_pref=local_pref,
            learned_from=sender,
            exit_router=exit_router,
        )

    def _select(self, router: str, routes: Iterable[Route]) -> list[Route]:
        """Best-route selection with ECMP ties, ordered by (exit, learned_from)."""
        costs: dict[str, int] | None = None
        best_key: tuple[int, int, int] | None = None
        chosen: list[Route] = []
        for route in routes:
            if route.exit_router == router:
                igp = 0
            else:
                if costs is None:
                    costs = self._igp.costs_from(router)
                igp = costs.get(route.exit_router, UNREACHABLE)
            key = (-route.local_pref, len(route.as_path), igp)
            if best_key is None or key < best_key:
                best_key, chosen = key, [route]
            elif key == best_key:
                chosen.append(route)
        chosen.sort(key=lambda route: (route.exit_router, route.learned_from or ""))
        return chosen
