"""Contingency-sweep throughput: shared-session sweeps vs naive per-contingency cost.

"Does the drain still hold under any single link failure?"  Answered
naively, every contingency pays a full verification: its own routing
recompute, its own snapshot pair, its own sweep over every distinct
(spec, pre graph, post graph) combination.  This benchmark drives the
CI-sized backbone drain (the ``scale`` workload's 20k-FEC backbone,
verified at the group granularity the paper's Figure 1 change reasons at)
through one :class:`~repro.verifier.contingency.ContingencySweep`:

* **failure model** — every single-link-bundle failure, plus the
  planned-maintenance severance of each region interconnect.  Single
  failures are mostly absorbed by parallel redundancy (their group-level
  graphs are baseline graphs — the "most failures don't touch most FECs'
  graphs" regime); severed interconnects genuinely reroute transit, so the
  sweep also proves new behaviour is discovered, checked once and reused.
* **the dedup headline** — ``naive_checks`` (unique pairs summed per
  contingency: what independent one-shot runs would each execute) over
  ``executed_checks`` (what the shared session actually ran), asserted
  as a hard floor of 10x: losing cross-contingency interning, the session
  verdict cache or the derivation's reference-trace reuse collapses it
  toward 1x.

The sweep is then re-run with ``--checkpoint`` durability enabled
(journaling every completed contingency's report, cache deltas and new
graphs to disk as it lands) and the time spent journaling — measured
inside the run, see ``SweepReport.checkpoint_seconds`` — is asserted
under an absolute 2% ceiling of the plain sweep's wall, the bar for
"crash-resume is effectively free at sweep granularity".  The resilience
guard's overhead is held under 5% the same way.  Absolute sweep
throughput is owned by the ``sweep_k1`` workload of ``benchmarks/perf``.
"""

from __future__ import annotations

import os
import resource
import tempfile
import time

import pytest

from repro.verifier import single_link_failures
from repro.workloads.contingencies import (
    drain_sweep_scenario,
    interconnect_maintenance_sets,
)
from repro.workloads.scale import ScaleProfile, scale_backbone


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux (bytes on macOS; the benchmark targets Linux CI).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.fixture(scope="module")
def sweep_inputs():
    backbone = scale_backbone(ScaleProfile(num_fecs=20000))
    scenario = drain_sweep_scenario(backbone, num_fecs=20000)
    contingencies = single_link_failures(backbone.topology)
    contingencies += interconnect_maintenance_sets(backbone)
    return backbone, scenario, contingencies


def test_contingency_sweep_dedup(sweep_inputs, guard_cost_per_check):
    backbone, scenario, contingencies = sweep_inputs

    started = time.perf_counter()
    sweep = scenario.sweep(contingencies).run()
    sweep_seconds = time.perf_counter() - started

    assert sweep.holds, sweep.summary()
    assert not sweep.expectation_mismatches
    baseline_report = sweep.results[0].report
    print()
    print(
        f"contingency sweep: {sweep.contingencies} contingencies x "
        f"{baseline_report.total_fecs} FECs "
        f"({sweep.distinct_graphs} distinct graphs sweep-wide)"
    )
    print(
        f"  naive cost:    {sweep.naive_checks} unique pair checks "
        f"(~{sweep.naive_checks // max(1, sweep.contingencies)} per contingency)"
    )
    print(
        f"  executed:      {sweep.executed_checks} "
        f"({sweep.cached_checks} served from the shared session cache)"
    )
    print(f"  dedup ratio:   {sweep.dedup_ratio:.1f}x")
    print(
        f"  wall: {sweep_seconds:.2f}s "
        f"(derive {sweep.derive_seconds:.2f}s / check {sweep.check_seconds:.2f}s, "
        f"{sweep.contingencies / sweep_seconds:.1f} contingencies/s)"
    )
    print(f"  peak RSS: {_peak_rss_mb():.0f} MB")

    # The acceptance bar: the sweep executes at least 10x fewer distinct
    # checks than contingencies x unique-pairs-per-contingency.
    assert sweep.dedup_ratio >= 10.0, (
        f"dedup ratio {sweep.dedup_ratio:.1f}x below the 10x bar"
    )
    # Non-degenerate: the maintenance severances must have exhibited (and
    # the sweep verified) genuinely new forwarding behaviour beyond the
    # baseline contingency's checks.
    assert sweep.executed_checks > baseline_report.unique_checks

    # What arming the resilience deadline guard would cost this sweep: the
    # calibrated per-check figure (conftest.guard_cost_per_check) scaled by
    # the checks actually executed, relative to the sweep's check phase.
    # The guard is paid once per *executed* check, so the sweep's dedup
    # makes it even cheaper here than in the one-shot scale run.
    guard_overhead_pct = (
        guard_cost_per_check * sweep.executed_checks / sweep.check_seconds * 100.0
    )
    print(
        f"  resilience guard overhead: {guard_overhead_pct:+.2f}% of the check phase "
        f"({guard_cost_per_check * 1e6:.1f} us/check x {sweep.executed_checks} executed checks)"
    )
    assert guard_overhead_pct <= 5.0, (
        f"resilience guard overhead {guard_overhead_pct:.2f}% breaches the 5% ceiling"
    )

    # Checkpoint overhead: the identical sweep with per-unit journaling on.
    # The overhead is SweepReport.checkpoint_seconds — the time the run
    # actually spent opening the journal, pickling/flushing unit records
    # and fsyncing on close, measured inside the run — as a fraction of
    # the plain sweep's wall.  Like the guard figure above, a two-arm
    # wall-clock comparison cannot resolve a sub-2% cost against shared-
    # runner jitter (back-to-back identical 30s runs differ by 10-20%);
    # the direct measurement *is* resolvable, and journaling per FEC
    # instead of per contingency (or an fsync per record) blows straight
    # through the 2% ceiling.
    with tempfile.TemporaryDirectory(prefix="sweep-ckpt-") as ckpt_dir:
        ckpt_path = os.path.join(ckpt_dir, "sweep.ckpt")
        checkpointed = scenario.sweep(contingencies).run(checkpoint=ckpt_path)
        journal_mb = os.path.getsize(ckpt_path) / (1024.0 * 1024.0)
    assert checkpointed.holds
    assert checkpointed.executed_checks == sweep.executed_checks
    checkpoint_overhead_pct = checkpointed.checkpoint_seconds / sweep_seconds * 100.0
    print(
        f"  checkpoint overhead: {checkpoint_overhead_pct:+.2f}% of the plain wall "
        f"({checkpointed.checkpoint_seconds * 1000.0:.0f} ms journaling, "
        f"journal {journal_mb:.1f} MB for {sweep.contingencies} units)"
    )
    assert checkpoint_overhead_pct <= 2.0, (
        f"checkpoint overhead {checkpoint_overhead_pct:.2f}% breaches the 2% ceiling"
    )
