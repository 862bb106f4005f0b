"""Contingency sweeps: failure models, derivation soundness, and the
sweep-vs-naive differential oracle.

The load-bearing invariant mirrors the session layer's: a sweep driven
through one shared :class:`~repro.verifier.contingency.ContingencySweep`
must produce, per contingency, a report byte-identical — verdicts,
per-branch violation counts, counterexample attribution and witness sets —
to a naive loop that independently simulates each contingency from scratch
and verifies it FEC by FEC with the reference verifier
(:func:`repro.testing.reference.naive_verify`: no interning, grouping or
verdict cache).  The differential tests fuzz that over randomized small
topologies, random single/k-link failure sets, compliant and buggy changes,
and serial and worker paths.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import SnapshotError, TopologyError, VerificationError
from repro.network.simulator import Simulator
from repro.rela.locations import Granularity
from repro.rela.pspec import SpecPolicy
from repro.testing.reference import naive_verify
from repro.verifier import (
    ContingencySweep,
    VerificationOptions,
    baseline_contingency,
    k_link_failures,
    maintenance_link_sets,
    single_link_failures,
)
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.contingencies import (
    drain_sweep_scenario,
    generate_sweep_scenarios,
    interconnect_maintenance_sets,
)
from repro.workloads.scale import scale_fec_list


@pytest.fixture(scope="module")
def world():
    backbone = generate_backbone(
        BackboneParams(regions=3, routers_per_group=2, parallel_links=1, prefixes_per_region=2)
    )
    fecs = scale_fec_list(backbone, num_fecs=48)
    return backbone, fecs


def report_facts(report) -> dict:
    """Everything observable about a report, in canonical order."""
    return {
        "holds": report.holds,
        "total_fecs": report.total_fecs,
        "violating_fecs": report.violating_fecs,
        "branch_violation_counts": dict(report.branch_violation_counts),
        "counterexamples": [
            {
                "fec_id": ce.fec_id,
                "fec_description": ce.fec_description,
                "pre_paths": list(ce.pre_paths),
                "post_paths": list(ce.post_paths),
                "violations": [
                    {
                        "branch": violation.branch,
                        "expected": sorted(violation.expected),
                        "observed": sorted(violation.observed),
                    }
                    for violation in ce.violations
                ],
            }
            for ce in report.counterexamples
        ],
    }


# ----------------------------------------------------------------------
# Failure models and topology surgery
# ----------------------------------------------------------------------
def test_link_bundles_collapse_parallel_members():
    backbone = generate_backbone(BackboneParams(regions=2, parallel_links=3))
    bundles = backbone.topology.link_bundles()
    assert len(set(bundles)) == len(bundles)
    assert all(a < b for a, b in bundles)
    # 3 parallel members per connected pair, one bundle each.
    assert len(backbone.topology.links()) == 3 * len(bundles)


def test_without_links_removes_whole_bundles(world):
    backbone, _ = world
    topology = backbone.topology
    pair = topology.link_bundles()[0]
    failed = topology.without_links([pair])
    assert failed.links_between(*pair) == []
    assert pair[1] not in failed.neighbors(pair[0])
    assert failed.num_routers == topology.num_routers
    assert failed.num_links == topology.num_links - len(topology.links_between(*pair))
    # The original is untouched.
    assert topology.links_between(*pair)


def test_without_links_rejects_unknown_pairs(world):
    backbone, _ = world
    with pytest.raises(TopologyError, match="no link between"):
        backbone.topology.without_links([("r0-agg0", "r2-border1")])


def test_single_link_failures_cover_every_bundle(world):
    backbone, _ = world
    contingencies = single_link_failures(backbone.topology)
    assert len(contingencies) == len(backbone.topology.link_bundles())
    assert all(len(c.failed_links) == 1 and not c.is_baseline for c in contingencies)


def test_k_link_failures_enumerate_combinations(world):
    backbone, _ = world
    candidates = backbone.topology.link_bundles()[:5]
    contingencies = k_link_failures(backbone.topology, 2, candidates=candidates)
    assert len(contingencies) == 10  # C(5, 2)
    assert all(len(c.failed_links) == 2 for c in contingencies)
    limited = k_link_failures(backbone.topology, 2, candidates=candidates, limit=4)
    assert [c.contingency_id for c in limited] == [
        c.contingency_id for c in contingencies[:4]
    ]
    with pytest.raises(VerificationError):
        k_link_failures(backbone.topology, 0)
    with pytest.raises(VerificationError):
        k_link_failures(backbone.topology, 6, candidates=candidates)
    with pytest.raises(VerificationError, match="candidate links"):
        single_link_failures(backbone.topology, candidates=[("nope", "nada")])


def test_maintenance_link_sets_validate():
    with pytest.raises(VerificationError, match="empty"):
        maintenance_link_sets([[]])
    sets = maintenance_link_sets([[("b", "a")], [("c", "d"), ("a", "b")]])
    assert sets[0].failed_links == (("a", "b"),)
    assert sets[1].failed_links == (("a", "b"), ("c", "d"))


def test_interconnect_maintenance_sets_sever_region_pairs(world):
    backbone, _ = world
    region_of = {router.name: router.region for router in backbone.topology.routers()}
    sets = interconnect_maintenance_sets(backbone)
    assert sets  # the ring always connects at least two region pairs
    for contingency in sets:
        regions = {
            frozenset((region_of[a], region_of[b])) for a, b in contingency.failed_links
        }
        assert len(regions) == 1  # one region pair per maintenance set
        pair = next(iter(regions))
        failed_topology = backbone.topology.without_links(contingency.failed_links)
        region_a, region_b = sorted(pair)
        for border_a in backbone.routers_in(region_a, "border"):
            for border_b in backbone.routers_in(region_b, "border"):
                assert not failed_topology.links_between(border_a, border_b)


# ----------------------------------------------------------------------
# Failure-aware simulation and derivation
# ----------------------------------------------------------------------
def test_under_failure_blackholes_instead_of_raising():
    """Cutting a stub region off turns its traffic into drops, not errors."""
    backbone = generate_backbone(
        BackboneParams(regions=2, routers_per_group=1, parallel_links=1)
    )
    topology = backbone.topology
    base = Simulator(topology, backbone.config)
    # Sever region r1's agg from its core: traffic to r1's prefixes can
    # reach the border but never the originating agg.
    failed = base.under_failure([("r1-agg0", "r1-core0")])
    prefix = str(backbone.region_prefixes["R1"][0])
    graph = failed.trace("r0-agg0", prefix)
    assert "drop" in graph.nodes
    # The healthy simulator still refuses inconsistent routing outright.
    assert base.drop_unreachable is False
    assert failed.drop_unreachable is True


def test_trace_unchanged_is_sound_and_reuses_objects(world):
    backbone, fecs = world
    base = Simulator(backbone.topology, backbone.config)
    base_snapshot = base.snapshot(fecs, name="base")
    for pair in backbone.topology.link_bundles()[:6]:
        failed = base.under_failure([pair])
        derived = failed.derive_snapshot(base, base_snapshot)
        full = failed.snapshot(fecs, name="full")
        changed = failed.changed_routers(base, {str(fec.dst_prefix) for fec in fecs})
        reused = 0
        for fec in fecs:
            derived_graph = derived.graph(fec.fec_id)
            assert derived_graph.fingerprint() == full.graph(fec.fec_id).fingerprint()
            base_trace = base.router_trace(fec.ingress, fec.dst_prefix)
            if changed[str(fec.dst_prefix)].isdisjoint(base_trace.nodes):
                # Reuse is by object identity: the baseline's interned graph.
                assert derived_graph is base_snapshot.graph(fec.fec_id)
                reused += 1
        assert reused > 0


def test_snapshot_with_shared_store_interns_across_snapshots(world):
    backbone, fecs = world
    from repro.snapshots.graphstore import GraphStore

    store = GraphStore()
    sim = Simulator(backbone.topology, backbone.config)
    first = sim.snapshot(fecs, name="a", store=store)
    second = sim.snapshot(fecs, name="b", store=store)
    assert first.store is store and second.store is store
    for fec in fecs:
        assert first.graph_ref(fec.fec_id) == second.graph_ref(fec.fec_id)
    with pytest.raises(SnapshotError):
        # Shared stores do not bypass the duplicate-FEC guard.
        first.add(fecs[0], first.graph(fecs[0].fec_id))


# ----------------------------------------------------------------------
# Sweep driver semantics
# ----------------------------------------------------------------------
def test_sweep_prepends_baseline_once(world):
    backbone, _ = world
    scenario = drain_sweep_scenario(backbone, num_fecs=24)
    contingencies = single_link_failures(
        backbone.topology, candidates=backbone.topology.link_bundles()[:2]
    )
    sweep = scenario.sweep(contingencies).run()
    assert sweep.results[0].contingency.is_baseline
    assert sweep.contingencies == 3
    explicit = scenario.sweep([baseline_contingency()] + contingencies).run()
    assert explicit.contingencies == 3
    without = scenario.sweep(contingencies, include_baseline=False).run()
    assert without.contingencies == 2
    with pytest.raises(VerificationError):
        ContingencySweep(
            backbone.topology,
            backbone.config,
            scenario.fecs,
            scenario.change,
            scenario.spec,
            [],
            include_baseline=False,
        )


def test_drain_sweep_rejects_interface_granularity(world):
    """A router-name rename matches nothing in interface graphs: refuse it
    instead of sweeping a vacuous change that would pass even when buggy."""
    from repro.errors import WorkloadError

    backbone, _ = world
    with pytest.raises(WorkloadError, match="interface-level"):
        drain_sweep_scenario(backbone, num_fecs=12, granularity=Granularity.INTERFACE)


def test_sweep_report_accounting(world):
    backbone, _ = world
    scenario = drain_sweep_scenario(backbone, num_fecs=48, granularity=Granularity.ROUTER)
    sweep = scenario.sweep(single_link_failures(backbone.topology)).run()
    assert sweep.contingencies == len(backbone.topology.link_bundles()) + 1
    assert sweep.naive_checks == sum(r.report.unique_checks for r in sweep.results)
    assert sweep.executed_checks + sweep.cached_checks == sweep.naive_checks
    assert sweep.dedup_ratio == pytest.approx(sweep.naive_checks / sweep.executed_checks)
    assert sweep.distinct_graphs > 0
    assert sweep.elapsed_seconds >= sweep.derive_seconds
    assert not sweep.expectation_mismatches
    for result in sweep.results:
        assert result.holds == result.expected_holds


def test_most_violating_orders_by_impact(world):
    backbone, _ = world
    scenario = drain_sweep_scenario(
        backbone, num_fecs=48, granularity=Granularity.ROUTER, buggy=True
    )
    sweep = scenario.sweep(
        single_link_failures(
            backbone.topology, candidates=backbone.topology.link_bundles()[:4]
        )
    ).run()
    worst = sweep.most_violating(3)
    assert worst, "the buggy drain must violate under some contingency"
    counts = [result.report.violating_fecs for result in worst]
    assert counts == sorted(counts, reverse=True)
    assert all(not result.holds for result in worst)
    assert not sweep.expectation_mismatches


# ----------------------------------------------------------------------
# The differential oracle: sweep vs naive per-contingency one-shots
# ----------------------------------------------------------------------
def distinct_checks(pre, post, spec) -> int:
    """The (spec, pre graph, post graph) combinations a dedup engine checks."""
    guarded = list(spec.guarded) if isinstance(spec, SpecPolicy) else []
    keys = set()
    for fec_id in dict.fromkeys(pre.fec_ids() + post.fec_ids()):
        fec = pre.fec(fec_id) if fec_id in pre else post.fec(fec_id)
        rule = next((i for i, rule in enumerate(guarded) if rule.applies_to(fec)), None)
        keys.add((rule, pre.graph(fec_id).fingerprint(), post.graph(fec_id).fingerprint()))
    return len(keys)


def naive_reports(backbone, scenario, contingencies, options):
    """Independently simulate and reference-verify every contingency."""
    outcomes = []
    for contingency in contingencies:
        if contingency.is_baseline:
            sim = Simulator(backbone.topology, backbone.config)
        else:
            sim = Simulator(backbone.topology, backbone.config).under_failure(
                contingency.failed_links
            )
        pre = sim.snapshot(
            scenario.fecs,
            name=f"naive-pre@{contingency.contingency_id}",
            granularity=scenario.granularity,
        )
        post, expected = scenario.change(pre)
        report = naive_verify(pre, post, scenario.spec, db=backbone.location_db(), options=options)
        distinct = distinct_checks(pre, post, scenario.spec)
        outcomes.append((contingency, report, expected, distinct))
    return outcomes


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers"])
def test_sweep_differential_against_naive_loop(world, workers):
    """Randomized sweeps pinned byte-identical to naive per-FEC loops."""
    backbone, _ = world
    rng = random.Random(97 + workers)
    bundles = backbone.topology.link_bundles()
    scenarios = generate_sweep_scenarios(
        backbone, count=3, num_fecs=48, granularity=Granularity.ROUTER, seed=rng.randrange(2**16)
    )
    saw_violation = False
    for scenario in scenarios:
        candidates = sorted(rng.sample(bundles, rng.randint(3, 5)))
        if rng.random() < 0.5:
            contingencies = single_link_failures(backbone.topology, candidates=candidates)
        else:
            contingencies = k_link_failures(
                backbone.topology, 2, candidates=candidates, limit=5
            )
        options = VerificationOptions(workers=workers)
        sweep = scenario.sweep(contingencies, options=options).run()
        naive = naive_reports(
            backbone, scenario, [r.contingency for r in sweep.results], options
        )
        assert not sweep.expectation_mismatches
        for result, (contingency, naive_report, naive_expected, distinct) in zip(
            sweep.results, naive
        ):
            context = f"{scenario.scenario_id}/{contingency.contingency_id}"
            assert result.contingency is contingency
            assert result.expected_holds == naive_expected, context
            assert report_facts(result.report) == report_facts(naive_report), context
            # The distinct-combination count is a property of the change,
            # not of the cache.
            assert result.report.unique_checks == distinct, context
            saw_violation = saw_violation or not result.holds
        assert sweep.cached_checks > 0, "the sweep must share verdicts"
    assert saw_violation, "the matrix must exercise violating reports"


def test_sweep_differential_at_group_granularity(world):
    """The absorbed regime: group-level reports still match naive runs."""
    backbone, _ = world
    scenario = drain_sweep_scenario(backbone, num_fecs=48, granularity=Granularity.GROUP)
    contingencies = single_link_failures(
        backbone.topology, candidates=backbone.topology.link_bundles()[:6]
    )
    contingencies += interconnect_maintenance_sets(backbone)
    options = VerificationOptions(granularity=Granularity.GROUP)
    sweep = scenario.sweep(contingencies, options=options).run()
    naive = naive_reports(
        backbone, scenario, [r.contingency for r in sweep.results], options
    )
    for result, (contingency, naive_report, _expected, _distinct) in zip(sweep.results, naive):
        assert report_facts(result.report) == report_facts(naive_report), (
            contingency.contingency_id
        )
    assert not sweep.expectation_mismatches
