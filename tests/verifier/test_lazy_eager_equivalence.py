"""Flat vs nested spec lowering: reports must be byte-identical.

The engine compiles each spec as the flat union of shadowed ``else``
branches, ``⋃_i I(¬(Z1|...|Z_{i-1})) ∘ R_i``; the reference
(:func:`repro.testing.reference.naive_verify`) compiles the nested Figure 4
translation ``R1 | (I(¬Z1) ∘ (R2 | ...))`` and checks every FEC on its own.
Both are delayed-operation DAGs, pinned node by node against the paper's
Appendix A set semantics in ``tests/automata/test_properties.py``.  Over a
change dataset plus one buggy variant of every archetype, both must produce
the same wire report — verdicts, per-branch counts, attribution and witness
sets — once timing and the check-sharing counters are stripped.
"""

from __future__ import annotations

import pytest

from repro.serve.protocol import canonical_json, encode_report, strip_timing
from repro.testing.reference import naive_verify
from repro.verifier import verify_change
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.changes import (
    generate_change_dataset,
    multi_shift,
    no_change,
    path_prune,
    prefix_decommission,
    traffic_shift,
)
from repro.workloads.traffic import generate_fecs


@pytest.fixture(scope="module")
def scenarios():
    backbone = generate_backbone(
        BackboneParams(regions=4, routers_per_group=2, parallel_links=2, prefixes_per_region=2)
    )
    fecs = generate_fecs(backbone, max_classes=24)
    pre = backbone.simulator().snapshot(fecs, name="pre")
    regions = backbone.regions()
    border = [backbone.routers_in(region, "border") for region in regions]
    core = backbone.routers_in(regions[0], "core") or border[0]
    buggy = [
        no_change(pre, buggy=True),
        traffic_shift(pre, border[1], border[2], buggy_collateral=2),
        path_prune(pre, core[0], buggy_keep_paths=True),
        prefix_decommission(
            pre, str(backbone.region_prefixes[regions[3]][0]), buggy_still_forwarding=True
        ),
        multi_shift(pre, [(border[0], border[2]), (border[1], border[3])]),
    ]
    dataset = generate_change_dataset(backbone, pre, count=30, seed=23)
    return backbone.location_db(), dataset + buggy


def wire(report) -> bytes:
    """The wire report minus timing and the check-sharing counters."""
    payload = strip_timing(encode_report(report))
    del payload["unique_checks"], payload["cached_checks"]
    return canonical_json(payload)


def test_lazy_and_eager_spec_compilation_give_identical_reports(scenarios):
    db, population = scenarios
    violating = 0
    for scenario in population:
        flat_report = verify_change(scenario.pre, scenario.post, scenario.spec, db=db)
        nested_report = naive_verify(scenario.pre, scenario.post, scenario.spec, db=db)
        assert wire(flat_report) == wire(nested_report), scenario.change_id
        violating += not flat_report.holds
    # The buggy variants must actually exercise attribution and witnesses.
    assert violating >= 4
