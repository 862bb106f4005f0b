"""Interned dedup-first engine vs per-FEC checking: reports must be identical.

The dedup-first engine groups FECs by interned graph refs and checks each
distinct (spec, pre graph, post graph) combination once; the reference
(:func:`repro.testing.reference.naive_verify`) checks every FEC
independently with no interning, grouping or identical-graph shortcut.
Both must produce the same wire report — verdicts, per-branch violation
counts, counterexample attribution and witness sets — over the whole
60-scenario change dataset once timing and the check-sharing counters are
stripped, and the worker path (graphs shipped once via the id-indexed
table) must agree with the serial path.  The dataset's world has one FEC per distinct graph, so a
second world, where classes of FECs share graphs, pins the cases where a
class splits: one pre graph moving to two post graphs, and a violating
group of several FECs whose memoized counterexample is re-attributed.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.serve.protocol import canonical_json, encode_report, strip_timing
from repro.testing.reference import naive_verify
from repro.verifier import VerificationOptions, verify_change
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.changes import generate_change_dataset, no_change, traffic_shift
from repro.workloads.traffic import generate_fecs


@pytest.fixture(scope="module")
def bench_backbone():
    """The benchmark backbone the 60-scenario dataset is defined over."""
    backbone = generate_backbone(
        BackboneParams(regions=4, routers_per_group=2, parallel_links=2, prefixes_per_region=2)
    )
    fecs = generate_fecs(backbone, max_classes=24)
    snapshot = backbone.simulator().snapshot(fecs, name="pre")
    return backbone, snapshot


@pytest.fixture(scope="module")
def dataset(bench_backbone):
    backbone, snapshot = bench_backbone
    return generate_change_dataset(backbone, snapshot, count=60, seed=23)


@pytest.fixture(scope="module")
def split_scenarios():
    """Partial shifts, with their reference reports, on a world whose FEC
    classes can split: four prefixes per region give 48 FECs over 24 graphs.

    An incomplete move maps one pre graph to two post graphs; collateral
    damage blackholes two FECs of one class together.  The fixture asserts
    that both happen, or the differential below would pin neither.
    """
    backbone = generate_backbone(
        BackboneParams(regions=4, routers_per_group=2, parallel_links=2, prefixes_per_region=4)
    )
    fecs = generate_fecs(backbone, max_classes=48)
    snapshot = backbone.simulator().snapshot(fecs, name="pre")
    db = backbone.location_db()
    shift = (backbone.routers_in("R1", "border"), backbone.routers_in("R2", "border"))
    scenarios = [
        traffic_shift(snapshot, *shift, change_id="shift-unmoved", buggy_leave_unmoved=1),
        traffic_shift(snapshot, *shift, change_id="shift-collateral", buggy_collateral=3),
    ]
    references = [naive_verify(sc.pre, sc.post, sc.spec, db=db) for sc in scenarios]
    split_pre_refs = violating_groups = 0
    for scenario, reference in zip(scenarios, references, strict=True):
        groups: dict[tuple[int, int], list[str]] = defaultdict(list)
        for fec_id in scenario.pre.fec_ids():
            refs = (scenario.pre.graph_ref(fec_id), scenario.post.graph_ref(fec_id))
            groups[refs].append(fec_id)
        post_refs: dict[int, set[int]] = defaultdict(set)
        for pre_ref, post_ref in groups:
            post_refs[pre_ref].add(post_ref)
        split_pre_refs += sum(len(refs) >= 2 for refs in post_refs.values())
        violating = {ce.fec_id for ce in reference.counterexamples}
        violating_groups += sum(
            len(members) >= 2 and violating.issuperset(members) for members in groups.values()
        )
    assert split_pre_refs >= 1, "no pre graph maps to two post graphs"
    assert violating_groups >= 1, "no violating group of two or more FECs"
    return db, list(zip(scenarios, references, strict=True))


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


def wire(report) -> bytes:
    """The wire report minus timing and the check-sharing counters."""
    payload = strip_timing(encode_report(report))
    del payload["unique_checks"], payload["cached_checks"]
    return canonical_json(payload)


def test_interning_on_vs_off_identical_over_dataset(bench_backbone, dataset):
    backbone, _snapshot = bench_backbone
    db = backbone.location_db()
    for scenario in dataset:
        interned = verify_change(scenario.pre, scenario.post, scenario.spec, db=db)
        reference = naive_verify(scenario.pre, scenario.post, scenario.spec, db=db)
        assert interned.holds == scenario.expect_holds, scenario.change_id
        assert wire(interned) == wire(reference), scenario.change_id
        # Dedup never checks more than once per FEC; the reference checks
        # exactly once per FEC.
        assert interned.unique_checks <= reference.unique_checks == reference.total_fecs


def test_interning_on_vs_off_identical_where_classes_split(split_scenarios):
    db, cases = split_scenarios
    for scenario, reference in cases:
        interned = verify_change(scenario.pre, scenario.post, scenario.spec, db=db)
        assert not interned.holds, scenario.change_id
        assert wire(interned) == wire(reference), scenario.change_id
        assert interned.unique_checks < reference.unique_checks


def test_worker_path_matches_serial_with_violations(bench_backbone):
    """Parallel workers (graph table + id batches) agree with the serial path,
    including counterexample detail for memoized violating groups."""
    backbone, snapshot = bench_backbone
    db = backbone.location_db()
    scenario = traffic_shift(
        snapshot,
        backbone.routers_in("R1", "border"),
        backbone.routers_in("R2", "border"),
        buggy_leave_unmoved=2,
        buggy_collateral=1,
    )
    serial = verify_change(scenario.pre, scenario.post, scenario.spec, db=db)
    parallel = verify_change(
        scenario.pre,
        scenario.post,
        scenario.spec,
        db=db,
        options=VerificationOptions(workers=2),
    )
    assert not serial.holds
    assert report_facts(serial) == report_facts(parallel)


def test_worker_path_matches_serial_nochange(bench_backbone):
    backbone, snapshot = bench_backbone
    db = backbone.location_db()
    scenario = no_change(snapshot)
    serial = verify_change(scenario.pre, scenario.post, scenario.spec, db=db)
    parallel = verify_change(
        scenario.pre,
        scenario.post,
        scenario.spec,
        db=db,
        options=VerificationOptions(workers=2),
    )
    assert serial.holds and parallel.holds
    assert report_facts(serial) == report_facts(parallel)
