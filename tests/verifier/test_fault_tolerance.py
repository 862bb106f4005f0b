"""Fault-injection differential suite for the resilient execution runtime.

The resilience contract (``repro/verifier/runtime.py``): under ANY fault
schedule — transient check exceptions, hung checks, worker crashes, poison
checks that never stop failing — verification completes without an
unhandled exception, and the resulting report is *equivalent to the clean
run modulo honestly-flagged unknowns*: every class the runtime does not
list in ``failed_checks`` has exactly the outcome (pass or byte-identical
counterexample) the clean run gives it, and every class it could not
complete is flagged, counted, and excluded from the ``holds`` proof.

Faults are injected with the deterministic plans in
:mod:`repro.testing.faults` at the same seam real failures pass through,
and swept across the serial path, the worker-pool path (including pool
rebuild + bisection after ``BrokenProcessPool``), the session layer
(verdict-cache purity), and contingency sweeps.  The seeded-schedule
differential at the bottom is the stress leg CI widens via
``STRESS_FAULT_SEEDS``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import DegradedExecutionError
from repro.rela.parser import parse_program
from repro.testing.faults import POISON, Fault, FaultPlan, seeded_fault_plan
from repro.verifier import (
    VerificationOptions,
    VerificationSession,
    single_link_failures,
    verify_change,
)
from repro.verifier.report import StreamReport, VerificationReport
from repro.verifier.runtime import CheckFailure
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.contingencies import drain_sweep_scenario


@pytest.fixture(scope="module")
def world(distinct_graph_world):
    backbone, fecs = distinct_graph_world
    sim = backbone.simulator()
    pre = sim.snapshot(fecs, name="pre")
    post = sim.snapshot(fecs, name="post")
    spec = parse_program("spec change := { .* : preserve ; }").spec("change")
    # One work item per FEC under default options: the worker path gets
    # real multi-item batches to crash, bisect and re-submit
    # (48 items / (2 workers * 4) = 6 per batch).
    assert verify_change(pre, post, spec).unique_checks == 48
    return pre, post, spec


def options_for(workers: int, **overrides) -> VerificationOptions:
    """Fault-suite options: no backoff sleeps."""
    defaults = dict(workers=workers, retry_backoff=0.0)
    defaults.update(overrides)
    return VerificationOptions(**defaults)


def report_facts(report: VerificationReport) -> dict:
    """Everything verdict-observable about a report, in canonical order."""
    return {
        "holds": report.holds,
        "verdict": report.verdict,
        "total_fecs": report.total_fecs,
        "violating_fecs": report.violating_fecs,
        "unknown_fecs": report.unknown_fecs,
        "branch_violation_counts": dict(report.branch_violation_counts),
        "counterexamples": [
            (ce.fec_id, ce.fec_description, tuple(ce.pre_paths), tuple(ce.post_paths))
            for ce in report.counterexamples
        ],
        "failed": [(f.fec_id, f.reason) for f in report.failed_checks],
    }


def assert_equivalent_modulo_unknown(
    clean: VerificationReport, faulted: VerificationReport
) -> None:
    """The resilience contract's report comparison.

    With no unknowns the faulted report must be byte-identical to the
    clean one; otherwise the only admissible difference is the honestly
    flagged unknown entries (which subtract their classes from the clean
    run's counterexample list and from the ``holds`` proof).
    """
    unknown = {failure.fec_id for failure in faulted.failed_checks}
    assert faulted.unknown_fecs == len(faulted.failed_checks)
    assert faulted.total_fecs == clean.total_fecs
    if not unknown:
        assert report_facts(faulted) == report_facts(clean)
        return
    assert faulted.degraded
    assert not faulted.holds
    expected_ces = [
        (ce.fec_id, ce.fec_description, tuple(ce.pre_paths), tuple(ce.post_paths))
        for ce in clean.counterexamples
        if ce.fec_id not in unknown
    ]
    actual_ces = [
        (ce.fec_id, ce.fec_description, tuple(ce.pre_paths), tuple(ce.post_paths))
        for ce in faulted.counterexamples
    ]
    assert actual_ces == expected_ces
    assert faulted.violating_fecs == len(expected_ces)
    assert faulted.verdict == ("violated" if expected_ces else "unknown")
    # Each unknown class is flagged exactly once.
    assert len(unknown) == len(faulted.failed_checks)


# ----------------------------------------------------------------------
# Clean runs: the resilience layer must be invisible without faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_resilience_options_do_not_change_clean_reports(world, workers):
    pre, post, spec = world
    baseline = verify_change(pre, post, spec, options=options_for(1))
    guarded = verify_change(
        pre,
        post,
        spec,
        options=options_for(workers, check_timeout=30.0, max_retries=3),
    )
    assert report_facts(guarded) == report_facts(baseline)
    assert not guarded.degraded
    assert guarded.pool_rebuilds == 0
    assert guarded.retried_checks == 0
    assert not guarded.serial_fallback
    # Summaries match modulo the (run-dependent) wall-clock figure.
    assert guarded.summary().split("(")[0] == baseline.summary().split("(")[0]


# ----------------------------------------------------------------------
# Transient failures: retries clear them, the report is byte-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_transient_errors_clear_after_retry(world, workers):
    pre, post, spec = world
    clean = verify_change(pre, post, spec, options=options_for(workers))
    plan = FaultPlan((Fault(kind="error", fec_id=None, attempts=1),))
    faulted = verify_change(
        pre, post, spec, options=options_for(workers, fault_plan=plan)
    )
    assert report_facts(faulted) == report_facts(clean)
    assert faulted.retried_checks > 0
    assert not faulted.degraded


def test_worker_crash_recovers_by_pool_rebuild(world):
    pre, post, spec = world
    clean = verify_change(pre, post, spec, options=options_for(2))
    victim = pre.fec_ids()[0]
    plan = FaultPlan((Fault(kind="crash", fec_id=victim, attempts=1),))
    faulted = verify_change(
        pre, post, spec, options=options_for(2, fault_plan=plan)
    )
    assert report_facts(faulted) == report_facts(clean)
    assert faulted.pool_rebuilds >= 1
    assert not faulted.degraded


# ----------------------------------------------------------------------
# Poison failures: honest unknown verdicts, everything else unaffected
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_poison_error_degrades_to_unknown(world, workers):
    pre, post, spec = world
    clean = verify_change(pre, post, spec, options=options_for(workers))
    victim = pre.fec_ids()[0]
    plan = FaultPlan((Fault(kind="error", fec_id=victim, attempts=POISON),))
    faulted = verify_change(
        pre, post, spec, options=options_for(workers, fault_plan=plan)
    )
    assert_equivalent_modulo_unknown(clean, faulted)
    assert {failure.fec_id for failure in faulted.failed_checks} == {victim}
    assert faulted.failed_checks[0].reason == "error"
    assert "InjectedFault" in faulted.failed_checks[0].detail
    assert faulted.degraded


def test_serial_crash_simulation_degrades_to_unknown(world):
    pre, post, spec = world
    victim = pre.fec_ids()[0]
    plan = FaultPlan((Fault(kind="crash", fec_id=victim, attempts=POISON),))
    faulted = verify_change(
        pre, post, spec, options=options_for(1, fault_plan=plan)
    )
    assert {failure.fec_id for failure in faulted.failed_checks} == {victim}
    assert faulted.failed_checks[0].reason == "crash"


def test_worker_poison_crash_is_bisected_and_isolated(world):
    """A check that kills every worker that touches it must cost only its
    own verdict: the batch siblings it repeatedly took down with it are
    re-executed (bisection), and only the proven killer goes unknown."""
    pre, post, spec = world
    clean = verify_change(pre, post, spec, options=options_for(2))
    victim = pre.fec_ids()[0]
    plan = FaultPlan((Fault(kind="crash", fec_id=victim, attempts=POISON),))
    faulted = verify_change(
        pre, post, spec, options=options_for(2, fault_plan=plan)
    )
    assert_equivalent_modulo_unknown(clean, faulted)
    assert {failure.fec_id for failure in faulted.failed_checks} == {victim}
    assert faulted.failed_checks[0].reason == "crash"
    assert faulted.pool_rebuilds >= 1
    assert faulted.degraded


def test_repeated_pool_loss_falls_back_to_serial(world):
    """Past ``max_pool_rebuilds`` the remaining work runs in-process: the
    poison check that broke the pool goes unknown there, and nothing else
    changes."""
    pre, post, spec = world
    clean = verify_change(pre, post, spec, options=options_for(2))
    victim = pre.fec_ids()[0]
    plan = FaultPlan((Fault(kind="crash", fec_id=victim, attempts=POISON),))
    faulted = verify_change(
        pre, post, spec, options=options_for(2, fault_plan=plan, max_pool_rebuilds=0)
    )
    assert faulted.serial_fallback is True
    assert faulted.pool_rebuilds == 1
    assert faulted.unknown_fec_ids == [victim]
    assert faulted.verdict == "unknown"
    assert_equivalent_modulo_unknown(clean, faulted)


def test_hang_is_interrupted_by_the_check_deadline(world):
    pre, post, spec = world
    victim = pre.fec_ids()[0]
    plan = FaultPlan((Fault(kind="hang", fec_id=victim, attempts=POISON, delay=30.0),))
    started = time.perf_counter()
    faulted = verify_change(
        pre,
        post,
        spec,
        options=options_for(1, fault_plan=plan, check_timeout=0.2, max_retries=1),
    )
    elapsed = time.perf_counter() - started
    assert {failure.fec_id for failure in faulted.failed_checks} == {victim}
    assert faulted.failed_checks[0].reason == "timeout"
    # Two attempts at a 0.2s budget, not one 30s nap per attempt.
    assert elapsed < 10.0


# ----------------------------------------------------------------------
# Degradation policy: --no-degrade aborts instead of recording unknowns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_no_degrade_raises_instead_of_unknown(world, workers):
    pre, post, spec = world
    victim = pre.fec_ids()[0]
    plan = FaultPlan((Fault(kind="error", fec_id=victim, attempts=POISON),))
    with pytest.raises(DegradedExecutionError):
        verify_change(
            pre,
            post,
            spec,
            options=options_for(workers, fault_plan=plan, allow_degraded=False),
        )


# ----------------------------------------------------------------------
# Session layer: unknowns are never cached as verdicts
# ----------------------------------------------------------------------
def test_check_failures_never_enter_the_verdict_cache(world):
    pre, post, spec = world
    victim = pre.fec_ids()[0]
    plan = FaultPlan((Fault(kind="error", fec_id=victim, attempts=POISON),))
    options = VerificationOptions(workers=1, retry_backoff=0.0, fault_plan=plan)
    session = VerificationSession(pre, spec, options=options)
    report = session.advance(post)
    assert report.unknown_fecs >= 1
    assert report.degraded
    # Every *completed* unique check is cached; the failed one is not — the
    # next epoch must re-execute it rather than be served a stale failure.
    assert session.cached_verdicts == report.unique_checks - 1
    assert not any(
        isinstance(verdict, CheckFailure) for verdict in session._verdicts.values()
    )


def test_stream_report_accounts_degraded_epochs():
    stream = StreamReport()
    ok = VerificationReport()
    ok.record(None)
    stream.record(ok)
    assert stream.holds and stream.verdict == "holds"

    degraded = VerificationReport()
    degraded.record(CheckFailure(fec_id="fec-1", fec_description="fec-1", reason="crash"))
    stream.record(degraded)
    assert not stream.holds
    assert stream.verdict == "unknown"
    assert stream.degraded and stream.degraded_epochs == 1
    assert stream.violating_epochs == 0
    assert stream.unknown_fecs == 1
    assert stream.summary().startswith("UNKNOWN (1 degraded epochs)")


# ----------------------------------------------------------------------
# Sweeps: a poisoned sweep completes and names what it could not prove
# ----------------------------------------------------------------------
def test_sweep_completes_under_poison_and_names_unproven():
    backbone = generate_backbone(
        BackboneParams(regions=3, routers_per_group=2, parallel_links=1, prefixes_per_region=2)
    )
    scenario = drain_sweep_scenario(backbone, num_fecs=16)
    contingencies = single_link_failures(backbone.topology)[:2]

    clean_sweep = scenario.sweep(
        contingencies, options=VerificationOptions(granularity=scenario.granularity)
    ).run()
    assert not clean_sweep.degraded

    # The first FEC is the first member of its dedup group in every epoch,
    # so with memoization on it is always the representative that actually
    # carries the check the fault plan targets.
    victim = scenario.fecs[0].fec_id
    plan = FaultPlan((Fault(kind="error", fec_id=victim, attempts=POISON),))
    options = VerificationOptions(
        granularity=scenario.granularity, retry_backoff=0.0, fault_plan=plan
    )
    sweep = scenario.sweep(contingencies, options=options).run()

    # The sweep finishes every contingency despite the poison check...
    assert sweep.contingencies == clean_sweep.contingencies
    assert sweep.degraded
    assert sweep.failed_checks >= 1
    # ...and the per-contingency reports are clean-equivalent modulo the
    # flagged unknowns.
    for clean_result, result in zip(clean_sweep.results, sweep.results):
        assert_equivalent_modulo_unknown(clean_result.report, result.report)
    unproven = sweep.unproven()
    assert all(result.verdict == "unknown" for result in unproven)
    if clean_sweep.holds:
        assert {result.contingency.contingency_id for result in unproven} == {
            result.contingency.contingency_id
            for result in sweep.results
            if result.report.unknown_fecs
        }
        assert "UNKNOWN" in sweep.summary() or sweep.violating_contingencies


# ----------------------------------------------------------------------
# Seeded schedules: the stress-leg differential (CI: STRESS_FAULT_SEEDS)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(int(os.environ.get("STRESS_FAULT_SEEDS", "3"))))
def test_seeded_fault_schedules_match_clean_modulo_unknown(world, seed):
    pre, post, spec = world
    workers = 2 if seed % 2 else 1
    clean = verify_change(pre, post, spec, options=options_for(workers))
    plan = seeded_fault_plan(
        seed,
        pre.fec_ids(),
        error_rate=0.15,
        crash_rate=0.08,
        poison_rate=0.25,
        max_transient_attempts=2,
    )
    faulted = verify_change(
        pre, post, spec, options=options_for(workers, fault_plan=plan)
    )
    assert_equivalent_modulo_unknown(clean, faulted)
    # Only checks a fault rule targeted may go unknown, and only the
    # never-clearing (poison) rules at that: transient rules stop firing
    # within the retry/rebuild budget.
    poison_ids = {
        fault.fec_id for fault in plan.faults if fault.attempts >= POISON
    }
    assert {failure.fec_id for failure in faulted.failed_checks} <= poison_ids
