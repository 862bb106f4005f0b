"""Checkpoint/resume differentials: the SIGKILL-at-any-point bar.

The contract under test: a checkpointed sweep or stream run interrupted at
*any* point — a clean SIGINT between units, or a hard kill that tears the
journal mid-record — and then resumed must produce a report byte-identical
to the uninterrupted run's, including the cache statistics the report
carries (``unique_checks``/``cached_checks``/``distinct_graphs``).  The
truncation fuzz models the kill by chopping a complete journal at sampled
byte offsets; ``DURABILITY_FUZZ_CUTS`` scales how many (CI raises it).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.errors import StateVersionError, VerificationError
from repro.persist.checkpoint import Checkpoint
from repro.persist.journal import MAGIC, read_journal
from repro.rela.locations import Granularity
from repro.testing.faults import Fault, FaultPlan
from repro.verifier import VerificationOptions, single_link_failures, verify_stream
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.contingencies import drain_sweep_scenario
from repro.workloads.stream import rolling_drain_stream
from repro.workloads.traffic import generate_fecs

FUZZ_CUTS = int(os.environ.get("DURABILITY_FUZZ_CUTS", "12"))


@pytest.fixture(scope="module")
def sweep_world():
    backbone = generate_backbone(
        BackboneParams(regions=3, routers_per_group=2, parallel_links=1, prefixes_per_region=2)
    )
    scenario = drain_sweep_scenario(
        backbone, num_fecs=48, granularity=Granularity.ROUTER, buggy=True
    )
    contingencies = single_link_failures(
        backbone.topology, candidates=backbone.topology.link_bundles()[:4]
    )
    return backbone, scenario, contingencies


@pytest.fixture(scope="module")
def stream_world():
    backbone = generate_backbone(
        BackboneParams(regions=3, routers_per_group=2, parallel_links=1, prefixes_per_region=2)
    )
    fecs = generate_fecs(backbone)
    initial = backbone.simulator().snapshot(fecs, name="initial")
    stream = rolling_drain_stream(
        backbone, initial, epochs=6, rotation=2, seed=13, buggy_epochs={3}
    )
    epochs = [(epoch.post, epoch.spec) for epoch in stream.epochs]
    return initial, epochs


def report_facts(report) -> dict:
    """Everything observable about one report, in canonical order."""
    return {
        "holds": report.holds,
        "verdict": report.verdict,
        "total_fecs": report.total_fecs,
        "violating_fecs": report.violating_fecs,
        "unknown_fec_ids": report.unknown_fec_ids,
        "branch_violation_counts": dict(report.branch_violation_counts),
        "unique_checks": report.unique_checks,
        "cached_checks": report.cached_checks,
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


def sweep_facts(sweep) -> dict:
    return {
        "ids": [result.contingency.contingency_id for result in sweep.results],
        "expected": [result.expected_holds for result in sweep.results],
        "reports": [report_facts(result.report) for result in sweep.results],
        "naive_checks": sweep.naive_checks,
        "executed_checks": sweep.executed_checks,
        "cached_checks": sweep.cached_checks,
        "distinct_graphs": sweep.distinct_graphs,
        "mismatches": sweep.expectation_mismatches,
    }


def stream_facts(stream_report) -> dict:
    return {
        "reports": [report_facts(report) for report in stream_report.epoch_reports],
        "epochs": stream_report.epochs,
        "holds": stream_report.holds,
        "violating_epochs": stream_report.violating_epochs,
        "unique_checks": stream_report.unique_checks,
        "cached_checks": stream_report.cached_checks,
    }


def interrupt_after(monkeypatch, units: int) -> None:
    """Arrange for the (units+1)-th recorded unit to be a KeyboardInterrupt.

    Raising from ``record_unit`` models an operator signal landing after a
    unit verified but before its record hit the journal: the run must flush
    an interrupt marker and a later resume must redo that unit.
    """
    original = Checkpoint.record_unit
    state = {"left": units}

    def wrapper(self, *args, **kwargs):
        if state["left"] == 0:
            raise KeyboardInterrupt
        state["left"] -= 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Checkpoint, "record_unit", wrapper)


# ----------------------------------------------------------------------
# Sweep checkpoints
# ----------------------------------------------------------------------
def test_sweep_resume_without_checkpoint_rejected(sweep_world):
    _, scenario, contingencies = sweep_world
    with pytest.raises(VerificationError, match="requires a checkpoint"):
        scenario.sweep(contingencies).run(resume=True)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers"])
def test_sweep_interrupt_resume_differential(sweep_world, tmp_path, monkeypatch, workers):
    """An interrupted-then-resumed sweep is byte-identical to a straight run."""
    _, scenario, contingencies = sweep_world
    options = VerificationOptions(workers=workers)
    control = sweep_facts(scenario.sweep(contingencies, options=options).run())

    path = tmp_path / "sweep.ckpt"
    interrupt_after(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        scenario.sweep(contingencies, options=options).run(checkpoint=path)
    monkeypatch.undo()

    _, records, recovery = read_journal(path)
    assert recovery.clean  # the interrupt path fsyncs a well-formed journal
    assert records[-1] == {"record": "interrupt"}
    assert sum(1 for r in records if isinstance(r, dict) and r.get("record") == "unit") == 2

    resumed = scenario.sweep(contingencies, options=options).run(
        checkpoint=path, resume=True
    )
    assert sweep_facts(resumed) == control


def test_sweep_truncation_fuzz_resume_differential(sweep_world, tmp_path):
    """Chopping the journal at any sampled byte offset still resumes exact.

    This is the kill -9 model: the OS persisted some prefix of the journal.
    Whatever survives — a torn frame, half the magic, nothing — the resumed
    run must reproduce the control report exactly.
    """
    _, scenario, contingencies = sweep_world
    path = tmp_path / "sweep.ckpt"
    control = sweep_facts(scenario.sweep(contingencies).run(checkpoint=path))
    data = path.read_bytes()

    rng = random.Random(4257)
    cuts = sorted(rng.sample(range(len(data)), min(FUZZ_CUTS, len(data))))
    for cut in cuts:
        torn = tmp_path / "torn.ckpt"
        torn.write_bytes(data[:cut])
        resumed = scenario.sweep(contingencies).run(checkpoint=torn, resume=True)
        assert sweep_facts(resumed) == control, f"cut at byte {cut}"


def test_sweep_full_journal_resume_is_pure_replay(sweep_world, tmp_path):
    _, scenario, contingencies = sweep_world
    path = tmp_path / "sweep.ckpt"
    control = sweep_facts(scenario.sweep(contingencies).run(checkpoint=path))
    resumed = scenario.sweep(contingencies).run(checkpoint=path, resume=True)
    facts = sweep_facts(resumed)
    assert facts == control
    # Pure replay re-executes nothing: every non-cached check is accounted
    # to the journal, so the resumed sweep spent no check time.
    assert resumed.results[-1].report is not None


def test_sweep_resume_under_different_workers_allowed(sweep_world, tmp_path, monkeypatch):
    """Worker count is not verdict-relevant: a serial checkpoint resumes
    under a pool (and vice versa) with an identical report."""
    _, scenario, contingencies = sweep_world
    control = sweep_facts(scenario.sweep(contingencies).run())
    path = tmp_path / "sweep.ckpt"
    interrupt_after(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        scenario.sweep(contingencies).run(checkpoint=path)
    monkeypatch.undo()
    options = VerificationOptions(workers=2)
    resumed = scenario.sweep(contingencies, options=options).run(
        checkpoint=path, resume=True
    )
    assert sweep_facts(resumed) == control


def test_sweep_checkpoint_rejects_changed_workload(sweep_world, tmp_path, monkeypatch):
    """Resuming under a different contingency list must refuse, not mix runs."""
    _, scenario, contingencies = sweep_world
    path = tmp_path / "sweep.ckpt"
    interrupt_after(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        scenario.sweep(contingencies).run(checkpoint=path)
    monkeypatch.undo()
    with pytest.raises(StateVersionError, match="signature"):
        scenario.sweep(contingencies[:-1]).run(checkpoint=path, resume=True)


def test_sweep_checkpoint_rejects_stream_journal(stream_world, sweep_world, tmp_path):
    initial, epochs = stream_world
    _, scenario, contingencies = sweep_world
    path = tmp_path / "stream.ckpt"
    verify_stream(initial, epochs[:1], checkpoint=path, signature="sig-a")
    with pytest.raises(StateVersionError, match="not 'sweep'"):
        scenario.sweep(contingencies).run(checkpoint=path, resume=True)


def test_sweep_degraded_units_are_retried_fresh(sweep_world, tmp_path):
    """A contingency that degraded (unknown verdicts) is never replayed.

    Run one: a fault plan makes one FEC's checks fail everywhere, so every
    contingency degrades and the journal holds only result-free markers.
    Run two resumes fault-free and must retry everything, landing exactly
    on the clean control report — nothing unknown leaks through.
    """
    _, scenario, contingencies = sweep_world
    plan = FaultPlan(
        faults=(Fault(kind="error", fec_id=scenario.fecs[0].fec_id, attempts=10**9),)
    )
    path = tmp_path / "sweep.ckpt"
    faulted = scenario.sweep(
        contingencies, options=VerificationOptions(max_retries=0, fault_plan=plan)
    ).run(checkpoint=path)
    assert all(result.report.degraded for result in faulted.results)
    assert all(
        scenario.fecs[0].fec_id in result.report.unknown_fec_ids
        for result in faulted.results
    )
    _, records, _ = read_journal(path)
    units = [r for r in records if isinstance(r, dict) and r.get("record") == "unit"]
    assert units and all(unit["degraded"] and "result" not in unit for unit in units)

    control = sweep_facts(scenario.sweep(contingencies).run())
    resumed = scenario.sweep(
        contingencies, options=VerificationOptions(max_retries=0)
    ).run(checkpoint=path, resume=True)
    facts = sweep_facts(resumed)
    assert not any(report["unknown_fec_ids"] for report in facts["reports"])
    assert facts == control


# ----------------------------------------------------------------------
# Stream checkpoints
# ----------------------------------------------------------------------
def test_stream_resume_without_checkpoint_rejected(stream_world):
    initial, epochs = stream_world
    with pytest.raises(VerificationError, match="requires a checkpoint"):
        verify_stream(initial, epochs, resume=True)


def test_stream_interrupt_resume_differential(stream_world, tmp_path, monkeypatch):
    initial, epochs = stream_world
    control = stream_facts(verify_stream(initial, epochs))

    path = tmp_path / "stream.ckpt"
    interrupt_after(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        verify_stream(initial, epochs, checkpoint=path, signature="sig-a")
    monkeypatch.undo()

    reopened = Checkpoint.open(path, kind="stream", signature="sig-a", resume=True)
    try:
        assert reopened.interrupted
        assert len(reopened.completed_units) == 3
    finally:
        reopened.close()

    replay_pattern: list[tuple[int, bool]] = []
    resumed = verify_stream(
        initial,
        epochs,
        checkpoint=path,
        resume=True,
        signature="sig-a",
        on_epoch=lambda index, report, resumed_flag: replay_pattern.append(
            (index, resumed_flag)
        ),
    )
    assert stream_facts(resumed) == control
    assert replay_pattern == [(i, i < 3) for i in range(len(epochs))]


def test_stream_truncation_fuzz_resume_differential(stream_world, tmp_path):
    initial, epochs = stream_world
    path = tmp_path / "stream.ckpt"
    control = stream_facts(
        verify_stream(initial, epochs, checkpoint=path, signature="sig-a")
    )
    data = path.read_bytes()

    rng = random.Random(90210)
    cuts = sorted(rng.sample(range(len(data)), min(FUZZ_CUTS, len(data))))
    # Always exercise the degenerate ends: nothing survived / torn magic.
    for cut in [0, len(MAGIC) - 3, *cuts]:
        torn = tmp_path / "torn.ckpt"
        torn.write_bytes(data[:cut])
        resumed = verify_stream(
            initial, epochs, checkpoint=torn, resume=True, signature="sig-a"
        )
        assert stream_facts(resumed) == control, f"cut at byte {cut}"


def test_stream_resume_rejects_other_signature(stream_world, tmp_path):
    initial, epochs = stream_world
    path = tmp_path / "stream.ckpt"
    verify_stream(initial, epochs[:2], checkpoint=path, signature="sig-a")
    with pytest.raises(StateVersionError, match="different run"):
        verify_stream(initial, epochs, checkpoint=path, resume=True, signature="sig-b")


def test_stream_resume_rejects_shorter_stream(stream_world, tmp_path):
    initial, epochs = stream_world
    path = tmp_path / "stream.ckpt"
    verify_stream(initial, epochs, checkpoint=path, signature="sig-a")
    with pytest.raises(StateVersionError, match="refusing to resume"):
        verify_stream(
            initial, epochs[:2], checkpoint=path, resume=True, signature="sig-a"
        )


def test_stream_fresh_checkpoint_overwrites_stale_file(stream_world, tmp_path):
    """Without ``resume``, an existing journal is replaced, never appended."""
    initial, epochs = stream_world
    path = tmp_path / "stream.ckpt"
    verify_stream(initial, epochs, checkpoint=path, signature="sig-a")
    control = stream_facts(
        verify_stream(initial, epochs[:2], checkpoint=path, signature="sig-b")
    )
    header, records, recovery = read_journal(path)
    assert recovery.clean
    assert header["signature"] == "sig-b"
    units = [r for r in records if isinstance(r, dict) and r.get("record") == "unit"]
    assert len(units) == 2
    assert control["epochs"] == 2
