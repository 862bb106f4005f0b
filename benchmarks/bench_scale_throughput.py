"""Backbone-scale throughput: verify a 10^5-FEC change in single-digit seconds.

The paper validates changes on a WAN with ~10^6 traffic classes.  This
benchmark drives the ``scale`` workload profile (see
:mod:`repro.workloads.scale`) through ``verify_change`` and reports the
numbers that matter at that scale:

* **FECs/sec** — end-to-end verification throughput;
* **setup vs check split** — setup (spec compilation + dedup grouping by
  interned graph refs) must scale with the number of *unique* graph pairs,
  not with the FEC count;
* **peak RSS** — structural sharing keeps the snapshot pair and the
  verification run proportional to distinct graphs.

The population is fixed at 20 000 FECs; the absolute numbers are owned by
the ``scale_oneshot`` workload of ``benchmarks/perf`` (100k FECs per shift).
What stays here is same-run: the dedup invariant and the resilience guard's
overhead ceiling, both asserted where they are measured.
"""

from __future__ import annotations

import gc
import resource

import pytest

from repro.verifier import VerificationOptions, verify_change
from repro.workloads.scale import ScaleProfile, generate_scale_change


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux (bytes on macOS; the benchmark targets Linux CI).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.fixture(scope="module")
def scale_scenario():
    return generate_scale_change(ScaleProfile(num_fecs=20000))


def test_scale_verify_throughput(scale_scenario):
    options = VerificationOptions(collect_counterexamples=False)
    report = verify_change(
        scale_scenario.pre, scale_scenario.post, scale_scenario.spec, options=options
    )

    assert report.holds == scale_scenario.expect_holds is True
    assert report.total_fecs == len(scale_scenario.pre)
    # The whole point: checks scale with distinct graph pairs, not FECs.
    assert report.unique_checks < max(1000, report.total_fecs // 10)

    fecs_per_sec = report.total_fecs / report.elapsed_seconds
    print()
    print(
        f"scale throughput: {report.total_fecs} FECs in {report.elapsed_seconds:.2f}s "
        f"({fecs_per_sec:,.0f} FECs/sec)"
    )
    print(
        f"  setup {report.setup_seconds * 1000:.0f} ms (dedup grouping + spec compile) vs "
        f"check {report.check_seconds * 1000:.0f} ms over {report.unique_checks} unique "
        f"graph pairs ({report.total_fecs - report.unique_checks} FECs shared a verdict)"
    )
    print(
        f"  distinct graphs: pre {scale_scenario.pre.distinct_graph_count()}, "
        f"post {scale_scenario.post.distinct_graph_count()}, "
        f"store {len(scale_scenario.pre.store)}"
    )
    print(f"  peak RSS: {_peak_rss_mb():.0f} MB")


def test_scale_resilience_guard_overhead(scale_scenario, guard_cost_per_check):
    """Arming the per-check deadline guard must be ~free at scale.

    The guarded run (``check_timeout``/``max_retries`` set) must complete
    clean — proving the guard is inert when nothing faults — and its cost is
    the calibrated per-check guard figure (see ``guard_cost_per_check`` in
    ``conftest.py``) scaled by the run's unique checks, as a fraction of the
    fastest observed check phase.  That composition is deterministic where a
    two-arm wall-clock diff is not: runner jitter on this ~100 ms workload is
    ±10%, an order of magnitude above the true guard cost.  The 5% ceiling
    is absolute: arming the guard per FEC instead of per unique check, or a
    guard whose per-check cost balloons, trips it immediately.
    """
    guarded = VerificationOptions(
        collect_counterexamples=False, check_timeout=30.0, max_retries=2
    )
    best_check_s = float("inf")
    unique_checks = 0
    for _ in range(3):
        gc.collect()
        report = verify_change(
            scale_scenario.pre, scale_scenario.post, scale_scenario.spec, options=guarded
        )
        assert report.holds and not report.degraded
        best_check_s = min(best_check_s, report.check_seconds)
        unique_checks = report.unique_checks

    # Fastest check phase in the denominator = the most conservative
    # (largest) overhead estimate.
    overhead_pct = guard_cost_per_check * unique_checks / best_check_s * 100.0
    print()
    print(
        f"resilience guard overhead: {overhead_pct:+.2f}% of the check phase "
        f"({guard_cost_per_check * 1e6:.1f} us/check x {unique_checks} unique checks "
        f"vs {best_check_s * 1000:.0f} ms)"
    )
    assert overhead_pct <= 5.0, (
        f"resilience guard overhead {overhead_pct:.2f}% breaches the 5% ceiling"
    )


def test_scale_snapshot_sharing(scale_scenario):
    """Structural sharing holds at scale: distinct graphs ≪ FECs, COW copies."""
    pre, post = scale_scenario.pre, scale_scenario.post
    assert pre.store is post.store  # traffic_shift copies are copy-on-write
    assert pre.distinct_graph_count() < len(pre) // 10
    # Unchanged FECs resolve to the *same* frozen object in both snapshots.
    shared = sum(
        1 for fec_id in pre.fec_ids() if pre.graph_ref(fec_id) == post.graph_ref(fec_id)
    )
    assert shared > len(pre) // 2
    clone = pre.copy(name="clone")
    assert clone.store is pre.store
    sample = pre.fec_ids()[0]
    assert clone.graph(sample) is pre.graph(sample)
