"""Session-vs-one-shot equivalence: the invariant the session layer rests on.

A stream of N changes verified through one
:class:`~repro.verifier.session.VerificationSession` must produce reports
byte-identical — verdicts, per-branch violation counts, counterexample
attribution and witness sets — to N independent ``verify_change`` calls
over the same epochs, whatever the cache absorbed.  The tests walk seeded
multi-epoch streams (drain/restore cycles, prefix-migration waves, link
flaps, buggy variants included) with the session and the one-shot engine
side by side, then pin the cache/eviction mechanics separately.
"""

from __future__ import annotations

import pytest

from repro.testing.reference import naive_verify
from repro.verifier import (
    VerificationOptions,
    VerificationSession,
    verify_change,
    verify_stream,
)
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.stream import (
    flapping_link_stream,
    prefix_migration_stream,
    rolling_drain_stream,
)
from repro.workloads.traffic import generate_fecs


@pytest.fixture(scope="module")
def stream_world():
    backbone = generate_backbone(
        BackboneParams(regions=4, routers_per_group=2, parallel_links=2, prefixes_per_region=2)
    )
    fecs = generate_fecs(backbone)
    initial = backbone.simulator().snapshot(fecs, name="initial")
    return backbone, initial


@pytest.fixture(scope="module")
def mixed_stream(stream_world):
    """A seeded multi-epoch dataset walking every stream family.

    Each family starts and (for the chained ones) ends at the initial
    snapshot, so the concatenation is one connected stream a single session
    can walk.  Buggy epochs are included on purpose: equivalence must hold
    for violating reports too, where witness sets and attribution carry the
    actual content.
    """
    backbone, initial = stream_world
    rolling = rolling_drain_stream(
        backbone, initial, epochs=8, rotation=2, seed=13, buggy_epochs={4}
    )
    flapping = flapping_link_stream(backbone, initial, flaps=4, seed=13)
    migration = prefix_migration_stream(backbone, initial, waves=2, seed=13, buggy_waves={1})
    return rolling.epochs + flapping.epochs + migration.epochs


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


def test_session_equivalent_to_independent_verify_change(stream_world, mixed_stream):
    """The acceptance invariant, over every family and buggy epochs."""
    _backbone, initial = stream_world
    session = VerificationSession(initial)
    assert mixed_stream[0].pre is initial
    for epoch in mixed_stream:
        assert epoch.pre is session.current  # the chain is connected
        incremental = session.advance(epoch.post, epoch.spec)
        independent = verify_change(epoch.pre, epoch.post, epoch.spec)
        assert incremental.holds == epoch.expect_holds, epoch.epoch_id
        assert report_facts(incremental) == report_facts(independent), epoch.epoch_id
        # The distinct-combination count is a property of the change, not of
        # the cache: both engines must agree on it (one-shot runs are cold).
        assert incremental.unique_checks == independent.unique_checks, epoch.epoch_id
        assert independent.cached_checks == 0
    # The walk revisited states (restores, flaps), so the cache must have
    # absorbed a meaningful share of the distinct checks.
    assert session.stream.cached_checks > 0
    assert session.stream.epochs == len(mixed_stream)


def test_session_equivalence_without_memoization(stream_world):
    """A warm session agrees with the per-FEC reference, which memoizes
    nothing: no interning, no grouping, no verdict cache."""
    backbone, initial = stream_world
    stream = rolling_drain_stream(
        backbone, initial, epochs=4, rotation=1, seed=3, buggy_epochs={2}
    )
    session = VerificationSession(initial)
    for epoch in stream:
        incremental = session.advance(epoch.post, epoch.spec)
        reference = naive_verify(epoch.pre, epoch.post, epoch.spec)
        assert report_facts(incremental) == report_facts(reference), epoch.epoch_id
        assert reference.unique_checks == reference.total_fecs
    assert session.stream.cached_checks > 0
    assert not session.stream.holds  # the buggy epoch tripped


def test_session_worker_path_matches_serial(stream_world):
    """Worker pools inside a session agree with the serial session,
    including violating epochs whose counterexamples cross the pool."""
    backbone, initial = stream_world
    stream = rolling_drain_stream(
        backbone, initial, epochs=4, rotation=2, seed=13, buggy_epochs={2}
    )
    serial = VerificationSession(initial)
    parallel = VerificationSession(initial, options=VerificationOptions(workers=2))
    for epoch in stream:
        serial_report = serial.advance(epoch.post, epoch.spec)
        parallel_report = parallel.advance(epoch.post, epoch.spec)
        assert report_facts(serial_report) == report_facts(parallel_report), epoch.epoch_id
    assert not serial.stream.holds  # the buggy epoch tripped


def test_recurring_epochs_are_pure_cache_hits(stream_world):
    backbone, initial = stream_world
    stream = flapping_link_stream(backbone, initial, flaps=6, seed=13)
    session = VerificationSession(initial)
    reports = [session.advance(epoch.post, epoch.spec) for epoch in stream]
    # The first down/up pair does the work; every later flap re-lands on a
    # seen (spec instance, pre ref, post ref) set and executes nothing.
    for report in reports[:2]:
        assert report.cached_checks == 0
    for report in reports[2:]:
        assert report.cached_checks == report.unique_checks
        assert report.executed_checks == 0
    assert session.stream.cache_hit_rate > 0.5


def test_verify_change_is_a_cold_session_of_length_one(stream_world):
    backbone, initial = stream_world
    stream = rolling_drain_stream(backbone, initial, epochs=1, rotation=1, seed=13)
    epoch = stream.epochs[0]
    report = verify_change(epoch.pre, epoch.post, epoch.spec)
    assert report.cached_checks == 0
    assert report.unique_checks > 0
    session = VerificationSession(initial)
    assert report_facts(session.advance(epoch.post, epoch.spec)) == report_facts(report)


def test_verify_stream_driver(stream_world):
    backbone, initial = stream_world
    stream = flapping_link_stream(backbone, initial, flaps=4, seed=13)
    result = verify_stream(initial, ((epoch.post, epoch.spec) for epoch in stream))
    assert result.holds
    assert result.epochs == 4
    assert result.cached_checks > 0
    assert result.summary().startswith("PASS")


def test_graph_budget_eviction_keeps_reports_correct(stream_world):
    """Compaction trades cache warmth for memory, never correctness."""
    backbone, initial = stream_world
    stream = flapping_link_stream(backbone, initial, flaps=6, seed=13)
    budget = initial.distinct_graph_count() + 2
    session = VerificationSession(initial, graph_budget=budget)
    for epoch in stream:
        incremental = session.advance(epoch.post, epoch.spec)
        independent = verify_change(epoch.pre, epoch.post, epoch.spec)
        assert report_facts(incremental) == report_facts(independent), epoch.epoch_id
        assert len(session.store) <= budget + initial.distinct_graph_count()
    # Eviction dropped verdicts for evicted graphs, so unlike the unbounded
    # session the stream could not be all-cached after the first pair...
    unbounded = VerificationSession(initial)
    for epoch in stream:
        unbounded.advance(epoch.post, epoch.spec)
    assert session.stream.cached_checks <= unbounded.stream.cached_checks
    # ...but every verdict that was served stayed correct (asserted above).


def test_context_budget_bounds_per_epoch_spec_streams(stream_world):
    """Streams minting a fresh spec per epoch (migration waves) stay bounded."""
    backbone, initial = stream_world
    stream = prefix_migration_stream(backbone, initial, waves=4, seed=13)
    session = VerificationSession(initial, context_budget=2)
    for epoch in stream:
        incremental = session.advance(epoch.post, epoch.spec)
        independent = verify_change(epoch.pre, epoch.post, epoch.spec)
        assert report_facts(incremental) == report_facts(independent), epoch.epoch_id
        assert session.compiled_contexts <= 2
    # Evicted contexts took their verdicts and spec registrations along;
    # recurring instances still cache within the budget window.
    flaps = flapping_link_stream(backbone, initial, flaps=4, seed=13)
    budgeted = VerificationSession(initial, context_budget=2)
    for epoch in flaps:
        report = budgeted.advance(epoch.post, epoch.spec)
    assert report.cached_checks == report.unique_checks  # still all-cached
    assert budgeted.compiled_contexts == 2


def test_report_history_bounds_retained_reports(stream_world):
    """Totals survive report trimming; only the recent detail is retained."""
    backbone, initial = stream_world
    stream = flapping_link_stream(backbone, initial, flaps=6, seed=13)
    session = VerificationSession(initial, report_history=2)
    for epoch in stream:
        session.advance(epoch.post, epoch.spec)
    assert len(session.stream.epoch_reports) == 2
    assert session.stream.epochs == 6
    assert session.stream.total_fecs == 6 * len(initial)
    assert session.stream.holds
    assert session.stream.cached_checks > 0


def test_session_compact_reports_evictions(stream_world):
    backbone, initial = stream_world
    stream = rolling_drain_stream(backbone, initial, epochs=2, rotation=1, seed=13)
    session = VerificationSession(initial)
    for epoch in stream:
        session.advance(epoch.post, epoch.spec)
    before = len(session.store)
    cached_before = session.cached_verdicts
    evicted = session.compact()
    # The drained state's exclusive graphs are unpinned after the restore.
    assert evicted > 0
    assert len(session.store) == before - evicted
    assert session.cached_verdicts < cached_before
    # The current (initial) state stays pinned and usable.
    final = session.advance(stream.epochs[0].post, stream.epochs[0].spec)
    assert final.holds
