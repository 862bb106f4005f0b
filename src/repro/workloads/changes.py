"""Change-scenario generator: the stand-in for the paper's change dataset.

The paper's evaluation (Section 9) uses all high-risk changes reviewed by the
operator's technical committee over seven months.  That dataset is
confidential, so this module generates synthetic change scenarios drawn from
the archetypes the paper describes:

* **no-change refactors** — half of the real changes expect *no* forwarding
  impact at all (route aggregation, community standardisation); their spec is
  the single atomic ``.* : preserve``;
* **traffic shifts** — move traffic off a router group onto another
  (the Figure 1 change is one of these);
* **prefix decommissions** — a prefix must be dropped everywhere
  (the Section 7 example);
* **path pruning / filter insertion** — specific paths are removed while the
  rest of the flow's ECMP fan-out stays;
* **link maintenance** — interface-granularity shifts off a drained link;
* **multi-shifts** — compositions of several shifts, which produce the large
  specs in the tail of Figure 5 and the N-sweep of Figure 7.

Each scenario packages the pre/post snapshots, the Rela spec, the spec size
(number of atomic terms) and whether the implementation is expected to
comply, so benchmarks can regenerate Figures 5-7 and the baseline
comparisons.  Buggy variants (incomplete moves, collateral damage) are used
by tests and the baseline benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.rela import (
    RelaSpec,
    SpecPolicy,
    DstPrefixWithin,
    PSpec,
    any_hops,
    any_of,
    atomic,
    drop,
    locs,
    nochange,
    remove,
    seq,
)
from repro.rela.locations import Granularity
from repro.rela.spec import else_chain
from repro.snapshots.forwarding_graph import ForwardingGraph
from repro.snapshots.forwarding_graph import drop_graph as make_drop_graph
from repro.snapshots.snapshot import Snapshot
from repro.workloads.backbone import Backbone


@dataclass(slots=True)
class ChangeScenario:
    """One synthetic change: snapshots, spec and expectations."""

    change_id: str
    archetype: str
    description: str
    pre: Snapshot
    post: Snapshot
    spec: RelaSpec | SpecPolicy
    atomic_count: int
    granularity: Granularity = Granularity.ROUTER
    #: Whether the change implementation complies with the spec.
    expect_holds: bool = True


# ----------------------------------------------------------------------
# Graph surgery helpers
# ----------------------------------------------------------------------
def _rename_nodes(graph: ForwardingGraph, mapping: dict[str, str]) -> ForwardingGraph:
    """Replace node names in a graph (keeps granularity)."""
    return graph.coarsen(mapping, graph.granularity)


def _remove_node(graph: ForwardingGraph, node: str) -> ForwardingGraph:
    """Remove a node and its edges from a graph (used for path pruning)."""
    pruned = ForwardingGraph(granularity=graph.granularity)
    for name in graph.nodes:
        if name != node:
            pruned.add_node(name)
    for src, dst in graph.edges:
        if node not in (src, dst):
            pruned.add_edge(src, dst)
    pruned.sources = {name for name in graph.sources if name != node}
    pruned.sinks = {name for name in graph.sinks if name != node}
    return pruned


def _graph_mentions(graph: ForwardingGraph, names: set[str]) -> bool:
    return bool(graph.nodes & names)


def _mention_refs(snapshot: Snapshot, names: set[str]) -> set[int]:
    """Refs of the snapshot's distinct graphs that mention any of ``names``.

    Snapshots intern their graphs, so membership tests — like the rename /
    prune transforms below — run once per *distinct* forwarding behaviour
    and are shared by every FEC with that behaviour.  On a backbone-scale
    snapshot this is the difference between O(#FECs) and O(#unique graphs)
    graph work.
    """
    store = snapshot.store
    return {
        ref
        for ref in {snapshot.graph_ref(fec_id) for fec_id in snapshot.fec_ids()}
        if ref is not None and _graph_mentions(store.graph(ref), names)
    }


def _shift_snapshot(
    pre: Snapshot,
    mapping: dict[str, str],
    *,
    name: str,
    leave_unmoved: int = 0,
) -> tuple[Snapshot, int]:
    """Rename routers per ``mapping`` in every graph mentioning a source.

    One rename per *distinct* affected graph; every FEC sharing that graph
    shares the renamed result (the copy-on-write snapshot plus the interning
    store keep this O(#unique graphs)).  ``leave_unmoved`` keeps the first N
    affected FECs on their old paths — the incomplete-move bug — and the
    number actually left is returned alongside the new snapshot.  Only FECs
    whose paths avoid every *target* router count: a path already traversing
    the targets satisfies ``any(through targets)`` unmoved, so leaving it
    would not be a spec-visible bug and ``expect_holds`` could not be
    asserted from the count.
    """
    post = pre.copy(name=name)
    affected_refs = _mention_refs(pre, set(mapping))
    detectable_refs = (
        affected_refs - _mention_refs(pre, set(mapping.values()))
        if leave_unmoved
        else set()
    )
    renamed: dict[int, ForwardingGraph] = {}
    left = 0
    for fec_id in pre.fec_ids():
        ref = pre.graph_ref(fec_id)
        if ref not in affected_refs:
            continue
        if left < leave_unmoved and ref in detectable_refs:
            left += 1
            continue
        moved = renamed.get(ref)
        if moved is None:
            moved = _rename_nodes(pre.store.graph(ref), mapping)
            renamed[ref] = moved
        post.replace(fec_id, moved)
    return post, left


# ----------------------------------------------------------------------
# Archetypes
# ----------------------------------------------------------------------
def no_change(pre: Snapshot, *, change_id: str = "refactor", buggy: bool = False) -> ChangeScenario:
    """A refactor with no expected forwarding impact (half of the real dataset).

    The buggy variant perturbs one flow's forwarding graph, modelling a
    "no-op" change that actually alters forwarding — the kind of latent error
    the paper notes could have caused an outage.
    """
    post = pre.copy(name=f"{pre.name}-post")
    if buggy:
        fec_ids = post.fec_ids()
        if not fec_ids:
            raise WorkloadError("cannot inject a bug into an empty snapshot")
        victim = fec_ids[len(fec_ids) // 2]
        graph = post.graph(victim)
        if graph.nodes:
            node = sorted(graph.nodes)[0]
            post.replace(victim, _rename_nodes(graph, {node: f"{node}-misrouted"}))
    return ChangeScenario(
        change_id=change_id,
        archetype="no_change",
        description="routing policy refactor with no intended forwarding impact",
        pre=pre,
        post=post,
        spec=nochange(),
        atomic_count=1,
        granularity=pre.granularity,
        expect_holds=not buggy,
    )


def traffic_shift(
    pre: Snapshot,
    from_routers: list[str],
    to_routers: list[str],
    *,
    change_id: str = "shift",
    buggy_leave_unmoved: int = 0,
    buggy_collateral: int = 0,
) -> ChangeScenario:
    """Move all traffic traversing ``from_routers`` onto ``to_routers``.

    The spec is the prioritized union of a shift spec for the affected zone
    and ``nochange`` for everything else.  ``buggy_leave_unmoved`` leaves the
    first N affected flows that avoid ``to_routers`` on their old paths (an
    incomplete move, like v1 of the paper's example; see
    :func:`_shift_snapshot`); ``buggy_collateral`` perturbs N unaffected
    flows (collateral damage, like v2).
    """
    if not from_routers or not to_routers:
        raise WorkloadError("traffic_shift needs non-empty router lists")
    mapping = {
        src: to_routers[index % len(to_routers)] for index, src in enumerate(from_routers)
    }
    from_set = set(from_routers)
    post, left_unmoved = _shift_snapshot(
        pre, mapping, name=f"{pre.name}-post", leave_unmoved=buggy_leave_unmoved
    )
    # Collateral damage is injected as a blackhole of an unrelated flow: that
    # is always a spec violation, whereas merely re-routing a flow that
    # already traverses the target routers would be tolerated by ``any``.
    collateral_injected = 0
    blackhole = make_drop_graph(granularity=pre.granularity)
    for fec_id in pre.fec_ids():
        if collateral_injected >= buggy_collateral:
            break
        if not _graph_mentions(pre.graph(fec_id), from_set):
            post.replace(fec_id, blackhole)
            collateral_injected += 1

    shift_spec = atomic(
        seq(any_hops(), locs(from_set), any_hops()),
        any_of(seq(any_hops(), locs(set(to_routers)), any_hops())),
        name=f"{change_id}-shift",
    )
    spec = shift_spec.else_(nochange())
    return ChangeScenario(
        change_id=change_id,
        archetype="traffic_shift",
        description=f"shift traffic off {sorted(from_set)} onto {sorted(set(to_routers))}",
        pre=pre,
        post=post,
        spec=spec,
        atomic_count=spec.atomic_count(),
        granularity=pre.granularity,
        expect_holds=left_unmoved == 0 and collateral_injected == 0,
    )


def _shifts_independent(shifts: list[tuple[list[str], list[str]]]) -> bool:
    """Whether no shift moves traffic off another shift's target routers.

    Shifts are applied to the post snapshot sequentially, so when a later
    shift's source routers intersect an earlier shift's target routers (or
    vice versa), traffic that one branch requires to traverse its targets is
    renamed away again and the prioritized-union spec is violated for every
    flow that exercises the overlap.  ``from/from`` and ``to/to`` overlaps
    are harmless: the earliest matching branch governs a path, and target
    routers are never renamed when this predicate holds.
    """
    from_sets = [set(from_routers) for from_routers, _ in shifts]
    to_sets = [set(to_routers) for _, to_routers in shifts]
    for i, to_set in enumerate(to_sets):
        for j, from_set in enumerate(from_sets):
            if i != j and from_set & to_set:
                return False
    return True


def multi_shift(
    pre: Snapshot,
    shifts: list[tuple[list[str], list[str]]],
    *,
    change_id: str = "multi-shift",
) -> ChangeScenario:
    """Several traffic shifts rolled into one change (the Figure 5 tail).

    Each shift contributes one atomic spec; the change spec is the
    prioritized union of all shift specs followed by ``nochange``, so the
    spec size is ``len(shifts) + 1``.

    The implementation is only expected to comply when the shifts are
    *independent* (see :func:`_shifts_independent`): a shift whose sources
    intersect another shift's targets re-moves traffic that an earlier
    branch pinned to those targets.  ``expect_holds`` reflects that
    condition, which is exact on backbones where every region pair carries
    traffic.
    """
    if not shifts:
        raise WorkloadError("multi_shift needs at least one shift")
    post = pre.copy(name=f"{pre.name}-post")
    branch_specs: list[RelaSpec] = []
    for index, (from_routers, to_routers) in enumerate(shifts):
        mapping = {
            src: to_routers[position % len(to_routers)]
            for position, src in enumerate(from_routers)
        }
        from_set = set(from_routers)
        # One rename per distinct post graph per shift round (shifts apply
        # sequentially, so round ``i`` reads the graphs round ``i-1`` wrote).
        moved_by_ref: dict[int, ForwardingGraph | None] = {}
        for fec_id in pre.fec_ids():
            ref = post.graph_ref(fec_id)
            if ref not in moved_by_ref:
                graph = post.store.graph(ref)
                moved_by_ref[ref] = (
                    _rename_nodes(graph, mapping) if _graph_mentions(graph, from_set) else None
                )
            moved = moved_by_ref[ref]
            if moved is not None:
                post.replace(fec_id, moved)
        branch_specs.append(
            atomic(
                seq(any_hops(), locs(from_set), any_hops()),
                any_of(seq(any_hops(), locs(set(to_routers)), any_hops())),
                name=f"{change_id}-shift-{index}",
            )
        )
    branch_specs.append(nochange())
    spec = else_chain(*branch_specs, name=change_id)
    return ChangeScenario(
        change_id=change_id,
        archetype="multi_shift",
        description=f"{len(shifts)} traffic shifts in one maintenance window",
        pre=pre,
        post=post,
        spec=spec,
        atomic_count=spec.atomic_count(),
        granularity=pre.granularity,
        expect_holds=_shifts_independent(shifts),
    )


def prefix_decommission(
    pre: Snapshot,
    prefix: str,
    *,
    change_id: str = "decommission",
    buggy_still_forwarding: bool = False,
) -> ChangeScenario:
    """Decommission a prefix: the network must drop its traffic everywhere.

    This reproduces the Section 7 example: a prefix-guarded spec applies the
    ``drop`` modifier to matching classes and ``nochange`` to the rest.
    """
    post = pre.copy(name=f"{pre.name}-post")
    matched = 0
    predicate = DstPrefixWithin(prefix)
    dropped = make_drop_graph(granularity=pre.granularity)
    for fec in pre.fecs():
        if predicate.matches(fec):
            matched += 1
            if not buggy_still_forwarding:
                post.replace(fec.fec_id, dropped)
    if matched == 0:
        raise WorkloadError(f"no flow equivalence class matches prefix {prefix}")
    dealloc = atomic(any_hops(), drop(), name="dealloc")
    policy = SpecPolicy(
        default=nochange(),
        guarded=[PSpec(DstPrefixWithin(prefix), dealloc, name="deallocP")],
    )
    return ChangeScenario(
        change_id=change_id,
        archetype="prefix_decommission",
        description=f"decommission {prefix}: drop its traffic on every path",
        pre=pre,
        post=post,
        spec=policy,
        atomic_count=policy.atomic_count(),
        granularity=pre.granularity,
        expect_holds=not buggy_still_forwarding,
    )


def path_prune(
    pre: Snapshot,
    router: str,
    *,
    change_id: str = "prune",
    buggy_keep_paths: bool = False,
) -> ChangeScenario:
    """Insert a filter so that paths through ``router`` disappear.

    Flows whose entire path set went through the router end up dropped; flows
    with ECMP alternatives keep only the alternatives.  The spec uses the
    ``remove`` modifier over the pruned path shape.
    """
    post = pre.copy(name=f"{pre.name}-post")
    affected = 0
    pruned_by_ref: dict[int, ForwardingGraph] = {}
    for fec_id in pre.fec_ids():
        ref = pre.graph_ref(fec_id)
        graph = pre.store.graph(ref)
        if router not in graph.nodes:
            continue
        affected += 1
        if buggy_keep_paths:
            continue
        pruned = pruned_by_ref.get(ref)
        if pruned is None:
            pruned = _remove_node(graph, router)
            if pruned.is_empty():
                pruned = make_drop_graph(granularity=pre.granularity)
            pruned_by_ref[ref] = pruned
        post.replace(fec_id, pruned)
    if affected == 0:
        raise WorkloadError(f"no flow equivalence class traverses {router!r}")
    through_router = seq(any_hops(), locs({router}), any_hops())
    spec = else_chain(
        atomic(any_hops(), remove(through_router), name=f"{change_id}-filter"),
        name=change_id,
    )
    return ChangeScenario(
        change_id=change_id,
        archetype="path_prune",
        description=f"filter out forwarding paths through {router}",
        pre=pre,
        post=post,
        spec=spec,
        atomic_count=spec.atomic_count(),
        granularity=pre.granularity,
        expect_holds=not buggy_keep_paths,
    )


def independent_multi_shift(
    backbone: Backbone,
    pre: Snapshot,
    *,
    num_shifts: int = 36,
    change_id: str = "arch-migration",
) -> ChangeScenario:
    """A compliant ``num_shifts``-shift maintenance window (scenario-35 class).

    Deterministic stand-in for the paper's routing-architecture changes
    (the ~40-atomic tail of Figure 5): traffic moves from border routers of
    one half of the regions onto the other half, so shifts are independent
    (:func:`_shifts_independent`) and the change complies by construction.
    Used by the spec-compilation guard test and microbenchmark.
    """
    regions = backbone.regions()
    half = len(regions) // 2
    if half == 0:
        raise WorkloadError("independent_multi_shift needs at least two regions")
    from_regions, to_regions = regions[:half], regions[half:]
    shifts = [
        (
            backbone.routers_in(from_regions[index % len(from_regions)], "border"),
            backbone.routers_in(to_regions[index % len(to_regions)], "border"),
        )
        for index in range(num_shifts)
    ]
    return multi_shift(pre, shifts, change_id=change_id)


# ----------------------------------------------------------------------
# Dataset generation (Figures 5 and 6)
# ----------------------------------------------------------------------
def generate_change_dataset(
    backbone: Backbone,
    pre: Snapshot,
    *,
    count: int = 30,
    seed: int = 23,
) -> list[ChangeScenario]:
    """Generate a dataset of change scenarios with a Figure 5 like size mix.

    Roughly half the changes are no-change refactors (spec size 1); most of
    the rest are single shifts, prefix decommissions and filter insertions
    (sizes 2-4); a small tail of multi-shift maintenance windows produces the
    large specs (sizes up to ~37) that the paper attributes to infrequent
    routing-architecture changes.

    Each scenario is generated from its own entry of a sorted, deterministic
    per-scenario seed schedule derived from ``seed``, so scenario ``i`` is a
    pure function of ``(seed, count, i)``: benchmark workers running the
    same dataset parameters can regenerate any slice independently (and in
    any order) and still agree on every scenario, instead of depending on
    the shared generator state that threading one RNG through the whole
    loop would create.  (The schedule depends on ``count`` — regenerating
    with a different ``count`` is a different dataset, which is why the CI
    gate validates the CDF population size.)
    """
    schedule_rng = random.Random(seed)
    scenario_seeds = sorted(schedule_rng.randrange(2**32) for _ in range(count))
    regions = backbone.regions()
    scenarios: list[ChangeScenario] = []

    def border_routers(region: str) -> list[str]:
        return backbone.routers_in(region, "border")

    def core_routers(region: str) -> list[str]:
        return backbone.routers_in(region, "core")

    for index in range(count):
        rng = random.Random(scenario_seeds[index])
        change_id = f"change-{index:03d}"
        slot = rng.random()
        if slot < 0.5:
            scenarios.append(no_change(pre, change_id=change_id))
        elif slot < 0.7:
            region_a, region_b = rng.sample(regions, 2)
            scenarios.append(
                traffic_shift(
                    pre,
                    border_routers(region_a),
                    border_routers(region_b),
                    change_id=change_id,
                )
            )
        elif slot < 0.8:
            region = rng.choice(regions)
            prefix = str(rng.choice(backbone.region_prefixes[region]))
            scenarios.append(prefix_decommission(pre, prefix, change_id=change_id))
        elif slot < 0.9:
            region = rng.choice(regions)
            routers = core_routers(region) or border_routers(region)
            scenarios.append(path_prune(pre, routers[0], change_id=change_id))
        else:
            # Multi-shift maintenance window: 6 or, rarely, 36 shifts.  The
            # shifts move traffic from one half of the regions onto the
            # other, so no shift's sources intersect another's targets:
            # maintenance windows comply with their spec by construction
            # (see _shifts_independent), like the paper's reviewed changes.
            num_shifts = 36 if rng.random() < 0.2 else rng.choice([3, 6, 9, 12])
            shuffled = list(regions)
            rng.shuffle(shuffled)
            half = len(shuffled) // 2
            from_regions, to_regions = shuffled[:half], shuffled[half:]
            shifts = []
            for _ in range(num_shifts):
                shifts.append(
                    (
                        border_routers(rng.choice(from_regions)),
                        border_routers(rng.choice(to_regions)),
                    )
                )
            scenarios.append(multi_shift(pre, shifts, change_id=change_id))
    return scenarios
