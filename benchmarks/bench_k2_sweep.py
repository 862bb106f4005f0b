"""k=2 contingency sweep: incremental lattice derivation over a combinatorial space.

The combinatorial failure spaces (k=2 over a candidate set) multiply the
sweep's *derivation* cost.  Incremental lattice derivation
(:class:`~repro.verifier.contingency._DerivationLattice`) derives each
k-failure snapshot from its (k−1)-failure parent, so the per-child cost
scales with the *marginal* effect of the last failed link.

The workload shape makes that marginal effect structural: a 12-region
backbone whose prefixes are anycast at every aggregation router, with
full-mesh equal-cost intra-region links, so each region-internal agg-core
bundle failure flips a region-wide slice of every destined trace.

Asserted here: the sweep holds as the change transform expects and its
dedup ratio clears the 10x floor.  Absolute throughput is owned by the
``sweep_k2`` workload of ``benchmarks/perf``.
"""

from __future__ import annotations

import resource
import time

import pytest

from repro.verifier import k_link_failures, single_link_failures
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.contingencies import drain_sweep_scenario, intra_region_bundles
from repro.workloads.traffic import generate_fecs


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.fixture(scope="module")
def k2_inputs():
    backbone = generate_backbone(
        BackboneParams(
            regions=12,
            routers_per_group=2,
            parallel_links=2,
            prefixes_per_region=6,
        )
    )
    fecs = generate_fecs(backbone)
    candidates = intra_region_bundles(backbone)[:8]
    contingencies = single_link_failures(backbone.topology, candidates=candidates)
    contingencies += k_link_failures(backbone.topology, 2, candidates=candidates)
    return backbone, fecs, contingencies


def test_k2_sweep_incremental_derivation(k2_inputs):
    backbone, fecs, contingencies = k2_inputs
    scenario = drain_sweep_scenario(backbone, num_fecs=8)
    scenario.fecs = fecs  # the anycast/full-ECMP traffic matrix

    started = time.perf_counter()
    sweep = scenario.sweep(list(contingencies)).run()
    wall = time.perf_counter() - started

    assert sweep.holds, sweep.summary()
    assert not sweep.expectation_mismatches

    live = [r for r in sweep.results if not r.contingency.is_baseline]
    route = sum(r.route_seconds for r in live)
    derive = sum(r.derive_seconds for r in live)
    print()
    print(
        f"k=2 sweep: {sweep.contingencies} contingencies x "
        f"{len(fecs)} FECs ({sweep.distinct_graphs} distinct graphs)"
    )
    print(f"  wall {wall:.2f}s (route {route:.2f}s, derive {derive:.2f}s)")
    print(f"  dedup ratio:   {sweep.dedup_ratio:.1f}x")
    print(f"  throughput:    {sweep.contingencies / wall:.1f} contingencies/s")
    print(f"  peak RSS: {_peak_rss_mb():.0f} MB")

    assert sweep.dedup_ratio >= 10.0, (
        f"k=2 dedup ratio {sweep.dedup_ratio:.1f}x below the 10x bar"
    )
