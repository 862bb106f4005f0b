"""Unit tests on :class:`repro.verifier.runtime.ResilientPool` itself.

The differential suites reach the pool through ``verify_change`` and the
daemon, one context and one caller at a time.  These tests hold a pool
directly and drive the paths only a long-lived, shared pool takes:
worker-side context eviction and the ``need-context`` resubmission it
causes, parent-side registry eviction, concurrent runs on one executor,
and two runs observing the same broken executor.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.verifier import VerificationOptions, VerificationSession
from repro.verifier import runtime
from repro.verifier.engine import _check_one_fec
from repro.verifier.runtime import ResilientPool, execute_checks
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.changes import traffic_shift
from repro.workloads.scale import scale_fec_list

#: Upper bound on any single wait in this file.
PATIENCE = 60.0


def paced_check(*args):
    """The engine's check, slowed enough that a batch outlasts a worker's
    wake-up, so both workers of a 2-worker pool take part in every run."""
    time.sleep(0.001)
    return _check_one_fec(*args)


@pytest.fixture(scope="module")
def call():
    """The ``execute_checks`` arguments of one real advance: 48 single-FEC
    checks (memoization off) of a shift with two blackholed bystanders."""
    backbone = generate_backbone(
        BackboneParams(regions=3, routers_per_group=2, parallel_links=1, prefixes_per_region=2)
    )
    pre = backbone.simulator().snapshot(scale_fec_list(backbone, num_fecs=48), name="pre")
    first, second = backbone.regions()[:2]
    scenario = traffic_shift(
        pre,
        backbone.routers_in(first, "border"),
        backbone.routers_in(second, "border"),
        buggy_collateral=2,
    )
    captured = []

    def spy(*args):
        captured.append(args)
        return execute_checks(*args)

    options = VerificationOptions(workers=2, retry_backoff=0.0, memoize_fec_checks=False)
    session = VerificationSession(pre, scenario.spec, options=options)
    session.runner = spy
    assert session.advance(scenario.post).holds is False
    (args,) = captured
    return args


@pytest.fixture(scope="module")
def serial(call):
    work, table, compiled_specs, builder, options = call
    outcomes = execute_checks(
        work, table, compiled_specs, builder, replace(options, workers=1)
    ).outcomes
    assert len(outcomes) == 48
    assert sum(outcome is not None for outcome in outcomes.values()) == 2
    return outcomes


def test_worker_context_eviction_is_answered_by_resubmission(call, serial):
    """More contexts than a worker retains, then the first one again: its
    token is published, so batches go out bare, the workers that evicted it
    answer need-context, and the resubmission carries the payload."""
    work, table, compiled_specs, builder, options = call
    contexts = [replace(options) for _ in range(runtime.WORKER_CONTEXT_LIMIT + 1)]
    with ResilientPool(2) as pool:
        for context_options in [*contexts, contexts[0]]:
            result = pool.run(
                work, table, compiled_specs, builder, context_options, paced_check
            )
            assert result.outcomes == serial
            assert not result.degraded
        stats = pool.stats()
    assert stats["contexts_registered"] == len(contexts)
    assert stats["context_misses"] >= 1
    assert stats["context_payload_sends"] >= len(contexts) + stats["context_misses"]
    assert stats["pools_created"] == 1
    assert stats["pool_rebuilds"] == 0


def test_parent_registry_eviction_reregisters(call, serial, monkeypatch):
    """A context the parent's LRU registry dropped is pickled and shipped
    again under a fresh token, never served from a stale one."""
    work, table, compiled_specs, builder, options = call
    monkeypatch.setattr(runtime, "PARENT_CONTEXT_LIMIT", 2)
    contexts = [replace(options) for _ in range(3)]
    with ResilientPool(2) as pool:
        for context_options in [*contexts, contexts[0]]:
            result = pool.run(work, table, compiled_specs, builder, context_options)
            assert result.outcomes == serial
        stats = pool.stats()
    assert stats["contexts_registered"] == 4
    assert stats["context_payload_sends"] >= 4
    assert stats["pools_created"] == 1


def run_in_threads(targets) -> None:
    """Run the callables on one thread each under a short switch interval;
    every thread must finish, and the first exception is re-raised."""
    errors: list[BaseException] = []

    def guarded(target):
        try:
            target()
        except BaseException as error:  # noqa: BLE001 - re-raised on the main thread
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(target,)) for target in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(PATIENCE)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


def test_threads_sharing_one_pool_match_serial_runs(call, serial):
    """Concurrent runs interleave on one executor without seeing each
    other's results or accounting (more threads than workers)."""
    work, table, compiled_specs, builder, options = call
    halves = [work[: len(work) // 2], work[len(work) // 2 :]]
    results: dict[int, dict] = {}

    with ResilientPool(2) as pool:

        def runs(index):
            def target():
                for _ in range(3):
                    result = pool.run(
                        halves[index % 2], table, compiled_specs, builder, replace(options)
                    )
                    assert not result.degraded and result.pool_rebuilds == 0
                    results[index] = result.outcomes

            return target

        run_in_threads([runs(index) for index in range(4)])
        stats = pool.stats()
    for index in range(4):
        expected = {item[0]: serial[item[0]] for item in halves[index % 2]}
        assert results[index] == expected
    assert stats["pools_created"] == 1
    assert stats["contexts_registered"] == 12


@dataclass(frozen=True)
class GatedFault:
    """A fault-plan stand-in that parks one check's first attempt in its
    worker: the crasher until the test opens the gate, then it kills the
    worker; the bystander until the executor reaps it along with the rest
    of the broken pool.  Rendezvous is through files, so nothing has to be
    inherited by fork.
    """

    directory: str
    fec_id: str
    crash: bool

    def apply(self, fec_id: str, attempt: int, *, in_worker: bool) -> None:
        if fec_id != self.fec_id or attempt != 1:
            return
        Path(self.directory, f"arrived-{int(self.crash)}").touch()
        wait_for(Path(self.directory, "gate" if self.crash else "never"))
        os._exit(17)


def wait_for(path: Path) -> None:
    deadline = time.monotonic() + PATIENCE
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.005)


def test_rebuild_is_counted_once_per_executor_generation(call, serial, tmp_path):
    """Two runs in flight on the executor a crash breaks: both recover, each
    reports one rebuild, and the pool counts one — not one per observer."""
    work, table, compiled_specs, builder, options = call
    plans = [GatedFault(str(tmp_path), work[0][0], crash) for crash in (True, False)]
    results = []

    with ResilientPool(2) as pool:

        def run_with(plan):
            def target():
                results.append(
                    pool.run(
                        work, table, compiled_specs, builder, replace(options, fault_plan=plan)
                    )
                )

            return target

        def open_gate_once_both_are_in_flight():
            wait_for(tmp_path / "arrived-0")
            wait_for(tmp_path / "arrived-1")
            (tmp_path / "gate").touch()

        run_in_threads([*map(run_with, plans), open_gate_once_both_are_in_flight])
        stats = pool.stats()
    assert len(results) == 2
    for result in results:
        assert result.outcomes == serial
        assert result.pool_rebuilds == 1
        assert not result.degraded
    assert stats["pool_rebuilds"] == 1
    assert stats["pools_created"] == 2
