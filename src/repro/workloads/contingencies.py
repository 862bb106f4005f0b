"""Contingency-sweep workloads: changes to verify under failure models.

A sweep scenario packages what a what-if contingency sweep needs beyond the
failure model itself: the backbone, the traffic classes every contingency
re-simulates, the Rela spec, and the *change transform* — a function that
applies the change under test to a (possibly degraded) pre-change snapshot
and states whether the implementation complies **on that snapshot**.  The
per-snapshot expectation matters: a buggy drain that leaves one traffic
group behind is only spec-visible under contingencies where that group's
paths still avoid the drain targets, so ``expect_holds`` is computed from
the snapshot the change actually lands on, never assumed.

Like the change dataset (:mod:`repro.workloads.changes`) and the stream
families (:mod:`repro.workloads.stream`), every scenario is a pure function
of its seed, and buggy variants are first-class: the differential tests
drive both compliant and violating sweeps through the
:class:`~repro.verifier.contingency.ContingencySweep` and the naive
per-contingency one-shot loop and require byte-identical reports.

Scenario archetypes:

* :func:`drain_sweep_scenario` — the classic question: a border drain
  (group- or router-level traffic shift), verified under failures.  The
  buggy variant leaves one distinct traffic group unmoved.
* :func:`refactor_sweep_scenario` — a no-op change (``nochange``); the
  buggy variant misroutes one class, which every contingency must catch.
* :func:`decommission_sweep_scenario` — the Section 7 prefix
  decommission; the buggy variant keeps forwarding, which a contingency
  that already blackholed the traffic *cannot* catch (dropped is dropped) —
  the expectation accounts for that.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from repro.automata.alphabet import DROP
from repro.errors import WorkloadError
from repro.rela import (
    DstPrefixWithin,
    PSpec,
    RelaSpec,
    SpecPolicy,
    any_hops,
    atomic,
    drop,
    nochange,
)
from repro.rela.locations import Granularity
from repro.snapshots.fec import FlowEquivalenceClass
from repro.snapshots.forwarding_graph import drop_graph as make_drop_graph
from repro.snapshots.snapshot import Snapshot
from repro.verifier.contingency import (
    Contingency,
    ContingencySweep,
    LinkPair,
    maintenance_link_sets,
)
from repro.verifier.engine import VerificationOptions
from repro.workloads.backbone import Backbone
from repro.workloads.scale import scale_fec_list
from repro.workloads.changes import _shift_snapshot
from repro.workloads.stream import _drain_spec


@dataclass(slots=True)
class SweepScenario:
    """One change to verify under a contingency failure model."""

    scenario_id: str
    archetype: str
    description: str
    backbone: Backbone
    fecs: list[FlowEquivalenceClass]
    spec: RelaSpec | SpecPolicy
    #: The change transform: degraded pre snapshot -> (post snapshot,
    #: expect_holds on that snapshot).
    change: Callable[[Snapshot], tuple[Snapshot, bool]]
    granularity: Granularity = Granularity.ROUTER
    #: Whether the scenario carries an injected bug (the *expectation* per
    #: contingency still comes from the change transform).
    buggy: bool = False

    def sweep(
        self,
        contingencies: list[Contingency],
        *,
        options: VerificationOptions | None = None,
        include_baseline: bool = True,
    ) -> ContingencySweep:
        """A ready-to-run sweep of this scenario over ``contingencies``."""
        if options is None:
            options = VerificationOptions(granularity=self.granularity)
        return ContingencySweep(
            self.backbone.topology,
            self.backbone.config,
            self.fecs,
            self.change,
            self.spec,
            contingencies,
            db=self.backbone.location_db(),
            options=options,
            granularity=self.granularity,
            include_baseline=include_baseline,
        )


def _drain_mapping(
    backbone: Backbone, from_region: str, to_region: str, granularity: Granularity
) -> tuple[dict[str, str], list[str], list[str]]:
    """The rename mapping and spec endpoints of a border drain."""
    if granularity is Granularity.INTERFACE:
        # Interface graphs name nodes "router|peer|member" / "router:lo0",
        # so a router-name rename would match nothing: the change transform
        # would silently be a no-op and even a buggy drain would "hold".
        # Refuse rather than sweep a vacuous change.
        raise WorkloadError(
            "drain sweeps support router or group granularity; interface-level "
            "graphs need an interface-level change transform"
        )
    if granularity is Granularity.GROUP:
        from_locs = [backbone.group_name(from_region, "border")]
        to_locs = [backbone.group_name(to_region, "border")]
        mapping = {from_locs[0]: to_locs[0]}
    else:
        from_locs = backbone.routers_in(from_region, "border")
        to_locs = backbone.routers_in(to_region, "border")
        if not from_locs or not to_locs:
            raise WorkloadError(
                f"regions {from_region}/{to_region} have no border routers"
            )
        mapping = {
            src: to_locs[index % len(to_locs)] for index, src in enumerate(from_locs)
        }
    return mapping, from_locs, to_locs


def drain_sweep_scenario(
    backbone: Backbone,
    *,
    num_fecs: int = 2000,
    granularity: Granularity = Granularity.GROUP,
    from_region: str | None = None,
    to_region: str | None = None,
    buggy: bool = False,
    seed: int = 59,
    scenario_id: str = "drain-sweep",
) -> SweepScenario:
    """A border drain to hold under failures ("does the drain still hold?").

    All traffic through the drained region's border locations must move
    onto the partner region's; everything else must not change.  The buggy
    variant leaves one distinct traffic group on its old paths — detectable
    only under contingencies where that group's paths avoid the targets,
    which the change transform accounts for per snapshot.
    """
    rng = random.Random(seed)
    regions = backbone.regions()
    if len(regions) < 2:
        raise WorkloadError("a drain sweep needs at least two regions")
    from_region = from_region or regions[-1]
    to_region = to_region or regions[0]
    if from_region == to_region:
        raise WorkloadError("cannot drain a region onto itself")
    mapping, from_locs, to_locs = _drain_mapping(
        backbone, from_region, to_region, granularity
    )
    spec = _drain_spec(from_locs, to_locs, name=f"{scenario_id}-{from_region}")
    leave = 1 + rng.randrange(2) if buggy else 0

    def change(pre: Snapshot) -> tuple[Snapshot, bool]:
        post, left = _shift_snapshot(
            pre, mapping, name=f"{pre.name}-post", leave_unmoved=leave
        )
        return post, left == 0

    return SweepScenario(
        scenario_id=scenario_id,
        archetype="drain",
        description=(
            f"drain {from_region} borders onto {to_region}"
            + (" (incomplete: bug)" if buggy else "")
        ),
        backbone=backbone,
        fecs=scale_fec_list(backbone, num_fecs=num_fecs),
        spec=spec,
        change=change,
        granularity=granularity,
        buggy=buggy,
    )


def refactor_sweep_scenario(
    backbone: Backbone,
    *,
    num_fecs: int = 2000,
    granularity: Granularity = Granularity.GROUP,
    buggy: bool = False,
    seed: int = 59,
    scenario_id: str = "refactor-sweep",
) -> SweepScenario:
    """A no-op refactor that must stay a no-op under every contingency.

    The buggy variant misroutes one class (renames a node of its graph),
    which is spec-visible on any snapshot: ``nochange`` compares the class
    against itself, so whatever the contingency did to its paths, the
    perturbation is a difference.
    """
    rng = random.Random(seed)
    fecs = scale_fec_list(backbone, num_fecs=num_fecs)
    victim = fecs[rng.randrange(len(fecs))].fec_id

    def change(pre: Snapshot) -> tuple[Snapshot, bool]:
        post = pre.copy(name=f"{pre.name}-post")
        if buggy:
            graph = pre.graph(victim)
            node = sorted(graph.nodes)[0]
            post.replace(victim, graph.coarsen({node: f"{node}-misrouted"}, pre.granularity))
        return post, not buggy

    return SweepScenario(
        scenario_id=scenario_id,
        archetype="refactor",
        description="no-op refactor" + (" that misroutes one class (bug)" if buggy else ""),
        backbone=backbone,
        fecs=fecs,
        spec=nochange(),
        change=change,
        granularity=granularity,
        buggy=buggy,
    )


def decommission_sweep_scenario(
    backbone: Backbone,
    *,
    num_fecs: int = 2000,
    granularity: Granularity = Granularity.GROUP,
    region: str | None = None,
    buggy: bool = False,
    seed: int = 59,
    scenario_id: str = "decommission-sweep",
) -> SweepScenario:
    """A prefix decommission that must drop traffic under every contingency.

    The buggy variant keeps forwarding the traffic it was supposed to drop.
    Expectation subtlety: under a contingency that already blackholes the
    prefix's traffic (its pre paths are all ``drop``), keeping "forwarding"
    it satisfies the spec — dropped is dropped — so the expectation is
    computed from the degraded snapshot, not from the bug flag.
    """
    rng = random.Random(seed)
    regions = backbone.regions()
    region = region or rng.choice(regions)
    prefixes = backbone.region_prefixes.get(region)
    if not prefixes:
        raise WorkloadError(f"region {region!r} originates no prefixes")
    prefix = str(prefixes[0])
    predicate = DstPrefixWithin(prefix)
    dealloc = atomic(any_hops(), drop(), name="dealloc")
    policy = SpecPolicy(
        default=nochange(),
        guarded=[PSpec(predicate, dealloc, name=f"dealloc-{region}")],
    )
    fecs = scale_fec_list(backbone, num_fecs=num_fecs)
    matched_ids = [fec.fec_id for fec in fecs if predicate.matches(fec)]
    if not matched_ids:
        raise WorkloadError(f"no traffic class is destined to {prefix}")

    def change(pre: Snapshot) -> tuple[Snapshot, bool]:
        dropped = make_drop_graph(granularity=pre.granularity)
        post = pre.copy(name=f"{pre.name}-post")
        holds = True
        for fec_id in matched_ids:
            if buggy:
                # Still forwarding: only a violation where the degraded
                # network was actually delivering the traffic.
                if set(pre.graph(fec_id).nodes) != {DROP}:
                    holds = False
            else:
                post.replace(fec_id, dropped)
        return post, holds

    return SweepScenario(
        scenario_id=scenario_id,
        archetype="decommission",
        description=(
            f"decommission {prefix}"
            + (" but keep forwarding it (bug)" if buggy else "")
        ),
        backbone=backbone,
        fecs=fecs,
        spec=policy,
        change=change,
        granularity=granularity,
        buggy=buggy,
    )


# ----------------------------------------------------------------------
# Failure-model conveniences and the seeded scenario generator
# ----------------------------------------------------------------------
def interconnect_maintenance_sets(backbone: Backbone) -> list[Contingency]:
    """Planned-maintenance contingencies severing whole region interconnects.

    One contingency per connected region pair, failing *every* link bundle
    between the two regions' border groups — the unit a real maintenance
    window drains.  Unlike single-bundle failures (absorbed by parallel
    redundancy at group level), a severed interconnect genuinely reroutes
    transit traffic, so these contingencies exhibit new forwarding
    behaviour for the sweep to dedup.
    """
    region_of = {router.name: router.region for router in backbone.topology.routers()}
    by_region_pair: dict[tuple[str, str], list[LinkPair]] = {}
    for a, b in backbone.topology.link_bundles():
        region_a, region_b = region_of[a], region_of[b]
        if region_a != region_b:
            key = (min(region_a, region_b), max(region_a, region_b))
            by_region_pair.setdefault(key, []).append((a, b))
    return maintenance_link_sets(
        (by_region_pair[key] for key in sorted(by_region_pair)), prefix="interconnect"
    )


def intra_region_bundles(backbone: Backbone, *, tiers: tuple[str, str] = ("agg", "core")) -> list[LinkPair]:
    """One representative intra-region link bundle per region, sorted.

    Selects each region's first-``tiers[0]``-to-first-``tiers[1]`` bundle
    (``rN-agg0 ~ rN-core0`` by default) — the candidate set the k≥2 sweeps
    and the ``bench_k2_sweep`` benchmark combine over.  Intra-region
    aggregation-to-core bundles are the interesting k=2 unit: with anycast
    origination at every aggregation router and full-mesh ECMP, each
    failure flips a region-wide slice of traffic, so pairs of them exhibit
    genuinely new joint forwarding behaviour instead of degenerating to
    the union of the singles.
    """
    region_of = {router.name: router.region for router in backbone.topology.routers()}
    wanted: set[LinkPair] = set()
    for region in backbone.regions():
        first = backbone.routers_in(region, tiers[0])
        second = backbone.routers_in(region, tiers[1])
        if first and second:
            pair = (first[0], second[0])
            wanted.add((min(pair), max(pair)))
    return sorted(
        {
            (min(a, b), max(a, b))
            for a, b in backbone.topology.link_bundles()
            if region_of[a] == region_of[b]
            and (min(a, b), max(a, b)) in wanted
        }
    )


def generate_sweep_scenarios(
    backbone: Backbone,
    *,
    count: int = 6,
    num_fecs: int = 500,
    granularity: Granularity = Granularity.ROUTER,
    seed: int = 67,
) -> list[SweepScenario]:
    """A seeded mix of sweep scenarios, buggy variants included.

    Scenario ``i`` is a pure function of ``(seed, count, i)`` (the sorted
    per-scenario seed schedule of the change dataset), so tests and
    benchmarks can regenerate any slice independently.  Roughly half the
    scenarios are compliant drains; the rest split between refactors,
    decommissions and their buggy variants.
    """
    schedule_rng = random.Random(seed)
    scenario_seeds = sorted(schedule_rng.randrange(2**32) for _ in range(count))
    regions = backbone.regions()
    scenarios: list[SweepScenario] = []
    for index in range(count):
        rng = random.Random(scenario_seeds[index])
        scenario_id = f"sweep-{index:03d}"
        slot = rng.random()
        buggy = rng.random() < 0.4
        if slot < 0.5:
            from_region, to_region = rng.sample(regions, 2)
            scenarios.append(
                drain_sweep_scenario(
                    backbone,
                    num_fecs=num_fecs,
                    granularity=granularity,
                    from_region=from_region,
                    to_region=to_region,
                    buggy=buggy,
                    seed=scenario_seeds[index],
                    scenario_id=scenario_id,
                )
            )
        elif slot < 0.75:
            scenarios.append(
                refactor_sweep_scenario(
                    backbone,
                    num_fecs=num_fecs,
                    granularity=granularity,
                    buggy=buggy,
                    seed=scenario_seeds[index],
                    scenario_id=scenario_id,
                )
            )
        else:
            scenarios.append(
                decommission_sweep_scenario(
                    backbone,
                    num_fecs=num_fecs,
                    granularity=granularity,
                    buggy=buggy,
                    seed=scenario_seeds[index],
                    scenario_id=scenario_id,
                )
            )
    return scenarios
