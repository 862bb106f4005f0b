"""Gate-scoring overhead: risk assessment + decision as a fraction of sweep cost.

The ``repro gate`` subcommand is pure post-processing: it re-reads the
verification artifacts a sweep already produced (per-FEC verdicts,
contingency flips, unknown counters) and folds them into a
:class:`~repro.analytics.risk.RiskAssessment` plus a
:class:`~repro.analytics.gate.SafetyGateDecision`.  For a CI pipeline to
adopt the gate the scoring must be effectively free next to the
verification it wraps — this benchmark measures exactly that ratio and
asserts it under an absolute ceiling of 2% of sweep wall-clock.

Method: run one 2000-FEC drain sweep (same workload family as
``bench_contingency_sweep.py`` but smaller so the bench stays cheap), then
score the *same* sweep report 50 times and take the mean per-assessment
cost.  Scoring is deterministic and side-effect free, so repetition
measures the real steady-state cost rather than cache warmup.
"""

from __future__ import annotations

import time

import pytest

from repro.analytics import SafetyGate, assess_sweep, fec_region_index
from repro.verifier import single_link_failures
from repro.workloads.contingencies import (
    drain_sweep_scenario,
    interconnect_maintenance_sets,
)
from repro.workloads.scale import ScaleProfile, scale_backbone


@pytest.fixture(scope="module")
def gated_sweep():
    backbone = scale_backbone(ScaleProfile(num_fecs=2000))
    scenario = drain_sweep_scenario(backbone, num_fecs=2000)
    contingencies = single_link_failures(backbone.topology)
    contingencies += interconnect_maintenance_sets(backbone)

    started = time.perf_counter()
    sweep = scenario.sweep(contingencies).run()
    sweep_seconds = time.perf_counter() - started
    return backbone, scenario, sweep, sweep_seconds


def test_gate_scoring_overhead(gated_sweep):
    backbone, scenario, sweep, sweep_seconds = gated_sweep
    assert sweep.holds, sweep.summary()

    rounds = 50
    fec_regions = fec_region_index(
        scenario.fecs, location_regions=backbone.location_regions()
    )
    total_regions = len(backbone.regions())
    gate = SafetyGate()

    started = time.perf_counter()
    for _ in range(rounds):
        assessment = assess_sweep(
            sweep, fec_regions=fec_regions, total_regions=total_regions
        )
        decision = gate.decide(assessment)
    gate_seconds = (time.perf_counter() - started) / rounds

    assert decision.decision.value == "pass", decision.summary()
    gate_overhead_pct = gate_seconds / sweep_seconds * 100.0

    print()
    print(
        f"gate scoring: {sweep.contingencies} contingencies x "
        f"{sweep.results[0].report.total_fecs} FECs, {len(fec_regions)} region-mapped classes"
    )
    print(f"  sweep wall:    {sweep_seconds:.2f}s")
    print(f"  gate scoring:  {gate_seconds * 1000.0:.2f} ms/assessment ({rounds} rounds)")
    print(f"  gate overhead: {gate_overhead_pct:.3f}% of sweep wall-clock")

    # The adoption bar: scoring must stay a rounding error next to the
    # verification it wraps.
    assert gate_overhead_pct < 2.0, (
        f"gate scoring overhead {gate_overhead_pct:.2f}% breaches the 2% ceiling"
    )
