"""Dataplane simulation: from FIBs to per-FEC forwarding graphs.

This is the reproduction's stand-in for the operator's simulation toolchain
(paper Section 2.3, steps 1-3): given a topology, router configurations and a
set of traffic descriptors, it computes each flow equivalence class's
forwarding graph — the DAG-format path set Rela consumes (Section 6.1).

Two entry points are provided:

* :class:`Simulator` — the full pipeline: run the BGP computation, build
  FIBs, then trace every traffic class;
* :func:`trace_forwarding` — dataplane-only tracing over an explicit
  :class:`~repro.network.fib.Fib`, used by workloads that handcraft FIBs
  (such as the Figure 1 case study) and by tests.

The simulator is also the substrate of *contingency sweeps* (what-if
verification under failures, :mod:`repro.verifier.contingency`):
:meth:`Simulator.under_failure` derives a simulator over the topology with
a set of link bundles failed (recomputing BGP/IGP/FIB state lazily, with
unreachable exits degrading to dropped traffic instead of errors), and
:meth:`Simulator.derive_snapshot` re-traces **only** the traffic classes
whose forwarding the failure can actually change: a class whose baseline
trace visits only routers with identical FIB decisions under the failure
provably forwards identically, so its baseline graph object is reused —
which also makes cross-contingency interning an identity hit.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.automata.alphabet import DROP
from repro.errors import RoutingError
from repro.network.addressing import Prefix
from repro.network.bgp import BGPComputation, NetworkConfig, SelectedRoutes
from repro.network.fib import Fib, build_fibs
from repro.network.topology import Topology
from repro.rela.locations import Granularity
from repro.snapshots.fec import FlowEquivalenceClass
from repro.snapshots.forwarding_graph import ForwardingGraph
from repro.snapshots.graphstore import GraphStore
from repro.snapshots.snapshot import Snapshot


@dataclass(slots=True)
class TraceOptions:
    """Options controlling forwarding-graph construction."""

    #: Granularity of the emitted graphs (interface expands parallel links).
    granularity: Granularity = Granularity.ROUTER
    #: Safety bound on the number of routers visited per trace.
    max_hops: int = 1024


def trace_forwarding(
    topology: Topology,
    fib: Fib,
    ingress: str,
    destination: Prefix | str,
    *,
    options: TraceOptions | None = None,
) -> ForwardingGraph:
    """Trace the forwarding graph of traffic entering at ``ingress``.

    The trace follows FIB longest-prefix-match decisions hop by hop,
    recording every (router, next-hop) edge used.  Routers whose entry marks
    them as egress become sinks; missing entries or explicit drop entries
    send traffic to the special ``drop`` sink.
    """
    options = options or TraceOptions()
    router_graph = _trace_router_graph(
        topology, fib, ingress, Prefix.coerce(destination), max_hops=options.max_hops
    )
    return _convert_router_graph(topology, router_graph, options.granularity)


def _trace_router_graph(
    topology: Topology,
    fib: Fib,
    ingress: str,
    destination: Prefix,
    *,
    max_hops: int = 1024,
) -> ForwardingGraph:
    """The router-level FIB trace (the granularity-independent core)."""
    if not topology.has_router(ingress):
        raise RoutingError(f"unknown ingress router {ingress!r}")

    router_graph = ForwardingGraph(granularity=Granularity.ROUTER)
    router_graph.add_node(ingress)
    router_graph.sources.add(ingress)

    visited: set[str] = set()
    queue: deque[str] = deque([ingress])
    hops = 0
    dropped = False
    while queue and hops < max_hops:
        router = queue.popleft()
        if router in visited:
            continue
        visited.add(router)
        hops += 1
        entry = fib.lookup(router, destination)
        if entry is None or entry.is_drop():
            # Dropped traffic is modelled as the special single-location path
            # "drop" (paper Section 5.1), not as a partial path.
            dropped = True
            continue
        if entry.egress:
            router_graph.sinks.add(router)
            if entry.next_hops:
                # An egress that also forwards (e.g. anycast origin) keeps going.
                pass
            else:
                continue
        for next_hop in sorted(entry.next_hops):
            if not topology.has_router(next_hop):
                raise RoutingError(
                    f"FIB of {router!r} points to unknown router {next_hop!r}"
                )
            router_graph.add_edge(router, next_hop)
            if next_hop not in visited:
                queue.append(next_hop)

    if dropped:
        router_graph.add_node(DROP)
        router_graph.sources.add(DROP)
        router_graph.sinks.add(DROP)
    return router_graph


def _convert_router_graph(
    topology: Topology, router_graph: ForwardingGraph, granularity: Granularity
) -> ForwardingGraph:
    """Coarsen or expand a router-level trace to the requested granularity."""
    if granularity is Granularity.ROUTER:
        return router_graph
    if granularity is Granularity.GROUP:
        mapping = {router.name: router.group for router in topology}
        return router_graph.coarsen(mapping, Granularity.GROUP)
    return _expand_to_interfaces(topology, router_graph)


def _expand_to_interfaces(topology: Topology, router_graph: ForwardingGraph) -> ForwardingGraph:
    """Expand a router-level graph to interface granularity.

    Every router-level edge ``u -> v`` becomes, per parallel link member, an
    edge from the member's ``u``-side interface to its ``v``-side interface;
    consecutive hops are stitched inside each router (ingress interface to
    egress interface).  Ingress routers contribute their loopback as the
    source location and egress routers their loopback as the sink, so paths
    always start and end at a stable per-router location.
    """
    graph = ForwardingGraph(granularity=Granularity.INTERFACE)

    def loopback(router: str) -> str:
        return f"{router}:lo0"

    # Interfaces at which traffic can enter each router (loopback for sources).
    entry_points: dict[str, set[str]] = {}
    for source in router_graph.sources:
        if source == DROP:
            graph.add_node(DROP)
            graph.sources.add(DROP)
            graph.sinks.add(DROP)
            continue
        entry_points.setdefault(source, set()).add(loopback(source))
        graph.sources.add(loopback(source))
        graph.add_node(loopback(source))

    # First pass: record the per-edge interface pairs.
    edge_interfaces: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for src, dst in sorted(router_graph.edges):
        if dst == DROP:
            continue
        members = topology.links_between(src, dst)
        pairs: list[tuple[str, str]] = []
        for link in members:
            if link.a == src:
                pairs.append((link.interface_a(), link.interface_b()))
            else:
                pairs.append((link.interface_b(), link.interface_a()))
        if not pairs:
            raise RoutingError(f"forwarding edge {src!r}->{dst!r} has no physical link")
        edge_interfaces[(src, dst)] = pairs
        for egress_iface, ingress_iface in pairs:
            graph.add_edge(egress_iface, ingress_iface)
            entry_points.setdefault(dst, set()).add(ingress_iface)

    # Second pass: stitch entry interfaces to egress interfaces inside routers,
    # and handle drops and sinks.
    for src, dst in sorted(router_graph.edges):
        if dst == DROP:
            for entry in sorted(entry_points.get(src, {loopback(src)})):
                graph.add_edge(entry, DROP)
            graph.sinks.add(DROP)
            continue
        for entry in sorted(entry_points.get(src, {loopback(src)})):
            for egress_iface, _ingress_iface in edge_interfaces[(src, dst)]:
                graph.add_edge(entry, egress_iface)
    for sink in router_graph.sinks:
        if sink == DROP:
            graph.add_node(DROP)
            graph.sinks.add(DROP)
            continue
        sink_lo = loopback(sink)
        graph.add_node(sink_lo)
        for entry in sorted(entry_points.get(sink, set())):
            if entry != sink_lo:
                graph.add_edge(entry, sink_lo)
        graph.sinks.add(sink_lo)
    return graph


class Simulator:
    """The full control-plane + dataplane simulation pipeline.

    ``drop_unreachable`` selects the failure-mode FIB semantics (see
    :func:`~repro.network.fib.build_fibs`): simulators produced by
    :meth:`under_failure` blackhole traffic whose exits were cut off instead
    of raising, because that is what the failed network would do.
    """

    def __init__(
        self,
        topology: Topology,
        config: NetworkConfig,
        *,
        drop_unreachable: bool = False,
    ):
        self.topology = topology
        self.config = config
        self.drop_unreachable = drop_unreachable
        self._selected: SelectedRoutes | None = None
        self._fib: Fib | None = None
        # Trace memoization: classes that differ only in source prefix or
        # metadata share one trace and one graph object, and derived
        # contingency snapshots reuse baseline graphs by identity.  Cached
        # graphs may get frozen by snapshot interning; they are never
        # mutated here.
        self._router_traces: dict[tuple[str, str], ForwardingGraph] = {}
        self._traces: dict[tuple[str, str, Granularity], ForwardingGraph] = {}

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def compute_routes(self) -> SelectedRoutes:
        """Run the BGP computation (cached)."""
        if self._selected is None:
            self._selected = BGPComputation(self.topology, self.config).compute()
        return self._selected

    def fib(self) -> Fib:
        """The FIBs derived from the routing computation (cached)."""
        if self._fib is None:
            self._fib = build_fibs(
                self.topology, self.compute_routes(), drop_unreachable=self.drop_unreachable
            )
        return self._fib

    # ------------------------------------------------------------------
    # Contingencies
    # ------------------------------------------------------------------
    def under_failure(self, failed_links: Iterable[tuple[str, str]]) -> "Simulator":
        """A simulator over this topology with the given link bundles failed.

        This is the failure-aware recompute entry point of contingency
        sweeps: the derived simulator shares the (unmutated) configuration,
        recomputes BGP routes / IGP costs / FIBs over the failed topology on
        first use, and installs drop entries where the failure cut a route's
        exit off (``drop_unreachable=True``) rather than rejecting the
        network as malformed.

        Memo-staleness audit (incremental k-failure derivation): every
        ``Simulator`` owns *instance-level* trace memos (``_router_traces``,
        ``_traces``, ``_selected``, ``_fib``), and this method always
        returns a **fresh** instance with empty memos over the reduced
        topology.  Chained derivation (``base.under_failure(k1)`` followed
        by ``base.under_failure(k1 + k2)``) therefore cannot leak a parent
        or baseline trace into a child simulator through shared mutable
        state — the only cross-simulator reuse is the explicit,
        criterion-guarded graph adoption in :meth:`derive_snapshot`.
        """
        return Simulator(
            self.topology.without_links(failed_links),
            self.config,
            drop_unreachable=True,
        )

    def router_trace(self, ingress: str, destination: Prefix | str) -> ForwardingGraph:
        """Memoized router-level FIB trace of one (ingress, destination)."""
        destination = Prefix.coerce(destination)
        key = (ingress, str(destination))
        graph = self._router_traces.get(key)
        if graph is None:
            graph = _trace_router_graph(self.topology, self.fib(), ingress, destination)
            self._router_traces[key] = graph
        return graph

    # ------------------------------------------------------------------
    # Dataplane
    # ------------------------------------------------------------------
    def trace(
        self,
        ingress: str,
        destination: Prefix | str,
        *,
        granularity: Granularity = Granularity.ROUTER,
    ) -> ForwardingGraph:
        """Forwarding graph of one traffic class (memoized)."""
        destination = Prefix.coerce(destination)
        key = (ingress, str(destination), granularity)
        graph = self._traces.get(key)
        if graph is None:
            graph = _convert_router_graph(
                self.topology, self.router_trace(ingress, destination), granularity
            )
            self._traces[key] = graph
        return graph

    def snapshot(
        self,
        fecs: list[FlowEquivalenceClass],
        *,
        name: str = "snapshot",
        granularity: Granularity = Granularity.ROUTER,
        store: GraphStore | None = None,
    ) -> Snapshot:
        """Simulate all traffic classes and assemble a snapshot.

        Traces are memoized by (ingress, destination): classes that differ
        only in source prefix or metadata share one trace *and* one graph
        object, and the snapshot's interning store collapses any remaining
        cross-destination duplicates — a 10^5-class backbone stores each
        distinct forwarding behaviour exactly once.  Passing ``store``
        interns into a shared (e.g. sweep-wide) store instead of a fresh
        per-snapshot one.
        """
        if store is None:
            snapshot = Snapshot(name=name, granularity=granularity)
        else:
            snapshot = Snapshot.with_shared_store(store, name=name, granularity=granularity)
        for fec in fecs:
            snapshot.add(fec, self.trace(fec.ingress, fec.dst_prefix, granularity=granularity))
        return snapshot

    def changed_routers(
        self, reference: "Simulator", destinations: Iterable[str]
    ) -> dict[str, frozenset[str]]:
        """Per destination, the routers whose FIB decision differs from ``reference``.

        The *FIB-delta index* behind contingency derivation: one
        all-routers scan per distinct destination replaces a per-(ingress,
        destination) walk over every reference trace, so the FIB comparisons
        are shared across all ingresses of a destination.  A combination is
        then provably unaffected iff its reference trace is disjoint from the
        destination's delta set: a FIB trace is a pure function of the FIB
        decisions at the visited routers (the BFS is deterministic), so if
        every visited router keeps an identical entry for the destination,
        this network traces the identical graph — including at interface
        granularity, because an unchanged entry can only point over surviving
        bundles and failures remove whole bundles, never individual members.
        """
        fib = self.fib()
        reference_fib = reference.fib()
        # A router whose entire table is unchanged cannot differ on any
        # destination; screen with one dict comparison per router so the
        # (linear-scan) LPM lookups below only run for genuine suspects.
        suspects = [
            router.name
            for router in self.topology
            if not fib.table_equals(router.name, reference_fib)
        ]
        index: dict[str, frozenset[str]] = {}
        for destination in sorted(set(destinations)):
            dest = Prefix.coerce(destination)
            index[destination] = frozenset(
                name
                for name in suspects
                if fib.lookup(name, dest) != reference_fib.lookup(name, dest)
            )
        return index

    def derive_snapshot(
        self,
        baseline: "Simulator",
        base_snapshot: Snapshot,
        *,
        name: str | None = None,
        combos: dict[tuple[str, str], list[str]] | None = None,
        parent: tuple["Simulator", Snapshot] | None = None,
        siblings: Sequence[tuple["Simulator", Snapshot]] = (),
    ) -> Snapshot:
        """``base_snapshot`` as this (failed) simulator would have traced it.

        Copy-on-write derivation for contingency sweeps: classes whose
        reference traces are provably unaffected (disjoint from the
        :meth:`changed_routers` delta index) keep their reference graph
        objects — and therefore their interned refs, so cross-contingency
        dedup is an identity hit — and only the affected (ingress,
        destination) combinations are re-traced.  ``combos`` optionally
        passes the precomputed ``(ingress, dst) → fec ids`` grouping so a
        sweep does not regroup per contingency.

        ``parent`` is the incremental-derivation seam: a ``(simulator,
        snapshot)`` pair for a *neighboring* contingency (typically this
        contingency's (k−1)-failure parent, which differs by one link).  The
        changed-FIB-decision criterion runs against the parent's FIBs and
        traces — far fewer decisions change between lattice neighbors than
        against the healthy network.  Unchanged classes adopt the parent's
        graph objects, which is sound by induction: the parent snapshot is
        (content-)identical to what full simulation would produce, and an
        unaffected class forwards identically to the parent.  A missing
        ``parent`` means ``(baseline, base_snapshot)``.

        ``siblings`` are *secondary* references consulted when the parent's
        criterion fails — typically the single-failure node of the last
        failed link.  A combination the last link flips (changed vs the
        parent) usually forwards exactly as it does under that link's
        *solo* failure: the criterion re-runs against the sibling, and on a
        pass the sibling's trace and graph are adopted instead of re-traced.
        Soundness is reference-agnostic — the criterion only ever compares
        this simulator's own FIB decisions against a reference's over the
        reference trace's routers, and a pass proves the deterministic BFS
        reproduces that exact graph here (identical FIB entries can only
        point over bundles that survive in *both* topologies, and failures
        remove whole bundles, so even interface-granularity conversion
        agrees).  Only combinations affected by the last link *jointly with*
        the earlier ones — the slice overlap, not the slice union — pay a
        real re-trace.
        """
        if parent is not None:
            reference, reference_snapshot = parent
        else:
            reference, reference_snapshot = baseline, base_snapshot
        derived = reference_snapshot.copy(name=name or f"{base_snapshot.name}-derived")
        if combos is None:
            combos = group_fec_combos(base_snapshot.fecs())
        granularity = base_snapshot.granularity
        destinations = {dst for _, dst in combos}
        delta = self.changed_routers(reference, destinations)
        sibling_refs = [
            (sib, sib_snapshot, self.changed_routers(sib, destinations), sib._router_traces)
            for sib, sib_snapshot in siblings
        ]
        traces = self._router_traces
        reference_traces = reference._router_traces
        for (ingress, destination), fec_ids in combos.items():
            changed = delta[destination]
            # The combo key doubles as the router-trace memo key, so probe the
            # reference's memo directly and only fall back to a real trace
            # call (coerce + BFS) on a miss.
            reference_trace = reference_traces.get((ingress, destination))
            if reference_trace is None:
                reference_trace = reference.router_trace(ingress, destination)
            if not changed or changed.isdisjoint(reference_trace.nodes):
                # Criterion-guarded memo adoption: an unaffected combination
                # provably traces the identical router graph, so the child
                # inherits the reference's trace object.  This keeps the whole
                # derivation lattice warm — a (k+1)-failure grandchild probing
                # this simulator as *its* reference hits memoized traces
                # instead of re-walking the FIB per combination.
                traces.setdefault((ingress, destination), reference_trace)
                continue
            adopted = False
            for sibling, sibling_snapshot, sibling_delta, sibling_traces in sibling_refs:
                sibling_changed = sibling_delta[destination]
                sibling_trace = sibling_traces.get((ingress, destination))
                if sibling_trace is None:
                    sibling_trace = sibling.router_trace(ingress, destination)
                if sibling_changed and not sibling_changed.isdisjoint(sibling_trace.nodes):
                    continue
                # Same criterion, different reference: this combination
                # forwards exactly as it does under the sibling's failure
                # set, so adopt its trace *and* its snapshot graph (object
                # identity, hence identical interned refs).
                traces.setdefault((ingress, destination), sibling_trace)
                graph = sibling_snapshot.graph(fec_ids[0])
                for fec_id in fec_ids:
                    derived.replace(fec_id, graph)
                adopted = True
                break
            if adopted:
                continue
            graph = self.trace(ingress, destination, granularity=granularity)
            for fec_id in fec_ids:
                derived.replace(fec_id, graph)
        return derived


def group_fec_combos(
    fecs: Iterable[FlowEquivalenceClass],
) -> dict[tuple[str, str], list[str]]:
    """Group FEC ids by their (ingress, destination prefix) trace key."""
    combos: dict[tuple[str, str], list[str]] = {}
    for fec in fecs:
        combos.setdefault((fec.ingress, str(fec.dst_prefix)), []).append(fec.fec_id)
    return combos
