"""The shared worker pool of the verification service.

The library opens a :class:`~repro.verifier.runtime.ResilientPool` inside
every parallel :func:`~repro.verifier.runtime.execute_checks` call: correct,
and cheap enough for one CLI invocation, but a daemon answering a stream of
requests would pay worker spawn + context shipping on *every* request.
:class:`PoolManager` is the daemon's owner of one such pool, held for the
life of the process: workers are spawned once and reused across requests,
contexts stay cached in them by token, and a crash is recovered by the very
state machine the library runs (bisection, isolation, serial fallback, with
each check's crash exposure riding along), so served reports — degraded and
fault-injected ones included — are byte-identical to the library's.

``stats()["pools_created"]`` counts executor builds (the serve benchmark
asserts it stays at 1 in steady state) and ``pool_rebuilds`` the executors
lost to a worker death.  :meth:`PoolManager.execute` has the signature of
``execute_checks``, so it plugs into
:attr:`repro.verifier.session.VerificationSession.runner` unchanged.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.verifier.runtime import (
    CheckFn,
    ExecutionResult,
    ResilientPool,
    WorkItem,
    execute_checks,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.snapshots.forwarding_graph import ForwardingGraph
    from repro.verifier.engine import CompiledSpec, VerificationOptions
    from repro.verifier.state_automata import StateAutomatonBuilder


class PoolManager:
    """The daemon-lifetime :class:`ResilientPool` plus its request counters.

    Thread-safe: server executor threads call :meth:`execute` concurrently.
    ``workers`` fixes the pool width; requests whose options ask for serial
    execution (or that carry a single check) never needed a pool and take
    :func:`~repro.verifier.runtime.execute_checks` in-thread.
    """

    def __init__(self, workers: int = 2) -> None:
        if workers < 2:
            raise ValueError("a shared pool needs at least 2 workers")
        self.workers = workers
        self._pool = ResilientPool(workers)
        self._lock = threading.Lock()
        self._stats = {"requests": 0, "bypassed_requests": 0, "executed_checks": 0}

    def stats(self) -> dict:
        """A snapshot of the pool and request counters (the ``/healthz`` payload)."""
        with self._lock:
            return {**self._pool.stats(), **self._stats}

    def shutdown(self) -> None:
        """Stop the workers; in-flight futures are cancelled."""
        self._pool.shutdown()

    def execute(
        self,
        unique_work: Sequence[WorkItem],
        graph_table: Sequence["ForwardingGraph"],
        compiled_specs: dict[str, "CompiledSpec"],
        builder: "StateAutomatonBuilder",
        options: "VerificationOptions",
        check_fn: CheckFn | None = None,
    ) -> ExecutionResult:
        """``execute_checks`` with the pool lifted out of per-call scope."""
        bypass = options.workers <= 1 or len(unique_work) <= 1
        with self._lock:
            self._stats["requests"] += 1
            self._stats["executed_checks"] += len(unique_work)
            self._stats["bypassed_requests"] += bypass
        run = execute_checks if bypass else self._pool.run
        return run(unique_work, graph_table, compiled_specs, builder, options, check_fn)
