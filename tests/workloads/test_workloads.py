"""Tests for the synthetic backbone, traffic and change-scenario generators."""

import itertools

import pytest

from repro.errors import WorkloadError
from repro.rela import SpecPolicy
from repro.rela.locations import Granularity
from repro.verifier import verify_change
from repro.workloads import (
    BackboneParams,
    generate_backbone,
    generate_change_dataset,
    generate_fecs,
    multi_shift,
    no_change,
    path_prune,
    prefix_decommission,
    traffic_shift,
)
from repro.workloads.scale import ScaleProfile, generate_scale_snapshot, scale_backbone
from repro.workloads.traffic import fecs_to_region


# ----------------------------------------------------------------------
# Backbone generation
# ----------------------------------------------------------------------
def test_backbone_structure(small_backbone):
    backbone, fecs, snapshot = small_backbone
    params = backbone.params
    expected_routers = params.regions * 3 * params.routers_per_group
    assert backbone.topology.num_routers == expected_routers
    assert len(backbone.regions()) == params.regions
    for region in backbone.regions():
        assert backbone.routers_in(region, "agg")
        assert backbone.routers_in(region, "border")
        assert len(backbone.region_prefixes[region]) == params.prefixes_per_region
    # Both autonomous systems are present.
    asns = {router.asn for router in backbone.topology}
    assert asns == {100, 200}
    db = backbone.location_db()
    assert db.names_at(Granularity.ROUTER) == {r.name for r in backbone.topology}


def test_backbone_params_validation():
    with pytest.raises(WorkloadError):
        BackboneParams(regions=1)
    with pytest.raises(WorkloadError):
        BackboneParams(routers_per_group=0)
    with pytest.raises(WorkloadError):
        BackboneParams(parallel_links=0)
    with pytest.raises(WorkloadError):
        BackboneParams(prefixes_per_region=0)


def test_backbone_generation_is_deterministic():
    params = BackboneParams(regions=3, seed=42)
    first = generate_backbone(params)
    second = generate_backbone(params)
    assert {r.name for r in first.topology} == {r.name for r in second.topology}
    assert first.topology.num_links == second.topology.num_links


# ----------------------------------------------------------------------
# Traffic generation
# ----------------------------------------------------------------------
def test_generate_fecs_covers_region_pairs(small_backbone):
    backbone, fecs, _snapshot = small_backbone
    assert len(fecs) <= 12
    assert len({fec.fec_id for fec in fecs}) == len(fecs)
    for fec in fecs:
        assert backbone.topology.has_router(fec.ingress)
    region = backbone.regions()[0]
    subset = fecs_to_region(backbone, fecs, region)
    for fec in subset:
        assert any(p.contains(fec.dst_prefix) for p in backbone.region_prefixes[region])


def test_generate_fecs_cap_is_respected(small_backbone):
    backbone, _fecs, _snapshot = small_backbone
    capped = generate_fecs(backbone, max_classes=5)
    assert len(capped) == 5


# ----------------------------------------------------------------------
# Change archetypes: verified end to end
# ----------------------------------------------------------------------
def test_no_change_scenario(small_backbone):
    backbone, _fecs, pre = small_backbone
    db = backbone.location_db()
    scenario = no_change(pre)
    assert scenario.atomic_count == 1
    report = verify_change(scenario.pre, scenario.post, scenario.spec, db=db)
    assert report.holds == scenario.expect_holds is True

    buggy = no_change(pre, buggy=True)
    report = verify_change(buggy.pre, buggy.post, buggy.spec, db=db)
    assert report.holds == buggy.expect_holds is False


def test_traffic_shift_scenarios(small_backbone):
    backbone, _fecs, pre = small_backbone
    db = backbone.location_db()
    from_routers = backbone.routers_in("R1", "border")
    to_routers = backbone.routers_in("R2", "border")

    correct = traffic_shift(pre, from_routers, to_routers)
    assert correct.atomic_count == 2
    assert verify_change(correct.pre, correct.post, correct.spec, db=db).holds

    incomplete = traffic_shift(pre, from_routers, to_routers, buggy_leave_unmoved=1)
    assert not incomplete.expect_holds
    report = verify_change(incomplete.pre, incomplete.post, incomplete.spec, db=db)
    assert not report.holds

    collateral = traffic_shift(pre, from_routers, to_routers, buggy_collateral=1)
    report = verify_change(collateral.pre, collateral.post, collateral.spec, db=db)
    assert not report.holds
    assert report.violations_for("nochange") >= 1

    with pytest.raises(WorkloadError):
        traffic_shift(pre, [], to_routers)


def test_incomplete_shift_expectation_holds_for_every_region_pair():
    """``buggy_leave_unmoved`` must leave a flow whose staying put the spec
    can see.  On the 8-region scale backbone the first affected class of 21
    of the 56 ordered region pairs already crosses the target borders on an
    ECMP path, so leaving *it* unmoved is compliant."""
    backbone = scale_backbone(ScaleProfile(num_fecs=112))
    pre = generate_scale_snapshot(backbone, num_fecs=112)
    pairs = list(itertools.permutations(backbone.regions(), 2))
    assert len(pairs) == 56
    for source, target in pairs:
        scenario = traffic_shift(
            pre,
            backbone.routers_in(source, "border"),
            backbone.routers_in(target, "border"),
            buggy_leave_unmoved=1,
        )
        assert scenario.expect_holds is False, (source, target)
        report = verify_change(scenario.pre, scenario.post, scenario.spec)
        assert report.holds == scenario.expect_holds, (source, target)


def test_multi_shift_scenario(small_backbone):
    backbone, _fecs, pre = small_backbone
    db = backbone.location_db()
    shifts = [
        (backbone.routers_in("R1", "border"), backbone.routers_in("R2", "border")),
        (backbone.routers_in("R0", "core"), backbone.routers_in("R0", "border")),
    ]
    scenario = multi_shift(pre, shifts)
    assert scenario.atomic_count == len(shifts) + 1
    assert verify_change(scenario.pre, scenario.post, scenario.spec, db=db).holds
    with pytest.raises(WorkloadError):
        multi_shift(pre, [])


def test_prefix_decommission_scenario(small_backbone):
    backbone, _fecs, pre = small_backbone
    db = backbone.location_db()
    prefix = str(backbone.region_prefixes["R0"][0])
    scenario = prefix_decommission(pre, prefix)
    assert isinstance(scenario.spec, SpecPolicy)
    assert scenario.atomic_count == 2
    assert verify_change(scenario.pre, scenario.post, scenario.spec, db=db).holds

    buggy = prefix_decommission(pre, prefix, buggy_still_forwarding=True)
    report = verify_change(buggy.pre, buggy.post, buggy.spec, db=db)
    assert not report.holds

    with pytest.raises(WorkloadError):
        prefix_decommission(pre, "203.0.113.0/24")


def test_path_prune_scenario(small_backbone):
    backbone, _fecs, pre = small_backbone
    db = backbone.location_db()
    router = backbone.routers_in("R1", "core")[0]
    scenario = path_prune(pre, router)
    assert verify_change(scenario.pre, scenario.post, scenario.spec, db=db).holds

    buggy = path_prune(pre, router, buggy_keep_paths=True)
    report = verify_change(buggy.pre, buggy.post, buggy.spec, db=db)
    assert not report.holds

    with pytest.raises(WorkloadError):
        path_prune(pre, "router-that-carries-nothing")


def test_change_dataset_distribution(small_backbone):
    backbone, _fecs, pre = small_backbone
    dataset = generate_change_dataset(backbone, pre, count=40, seed=5)
    assert len(dataset) == 40
    sizes = [scenario.atomic_count for scenario in dataset]
    # Roughly half the changes are pure no-change refactors (size 1).
    assert sizes.count(1) >= 10
    # The vast majority of specs are small, as in Figure 5.
    small = sum(1 for size in sizes if size < 10)
    assert small / len(sizes) >= 0.85
    archetypes = {scenario.archetype for scenario in dataset}
    assert "no_change" in archetypes and "traffic_shift" in archetypes
    # Generation is deterministic for a fixed seed.
    again = generate_change_dataset(backbone, pre, count=40, seed=5)
    assert [s.archetype for s in again] == [s.archetype for s in dataset]
