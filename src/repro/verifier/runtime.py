"""Fault-tolerant execution runtime for the verification engine.

The engine's parallel path used to call ``future.result()`` bare: one
worker death (OOM kill), one pathological check that hangs, or one
poisonous payload aborted a whole verification, stream epoch or
100+-contingency sweep with a raw traceback.  A verification *service*
must degrade instead of die — and, just as importantly, must report
partial failure honestly rather than conflate it with "holds".  This
module is that layer; the engine, session and sweep stack all execute
their deduplicated work lists through it.

Three mechanisms, composed:

1. **A resilient pool.**  :class:`ResilientPool` wraps
   ``ProcessPoolExecutor`` so that ``BrokenProcessPool`` is a recoverable
   event: completed results are kept, the executor is rebuilt, and only
   the unfinished batches are re-submitted.  Because a crash kills a whole
   batch without naming the guilty check, crashed batches are **bisected**
   across rebuilds until the poison check is isolated in a batch of one;
   that singleton is then retried in a dedicated single-worker executor
   (precise attribution: if *that* one breaks, the check is the killer) up
   to the retry budget before being given up on.  It is the only pool in
   ``src/``, with two lifetimes: :func:`execute_checks` opens one per call,
   the verification service (:mod:`repro.serve.pool`) keeps one for the
   life of the daemon and shares it between concurrent requests.  Either
   way a verification context (check function, compiled specs, builder,
   options) is pickled once and cached *inside each worker* under an
   integer token, so steady-state submissions carry only the token, the
   work batch, the distinct graphs it names and each check's crash
   exposure so far.

2. **Per-check timeouts and retries.**  Every check — serial or
   worker-side — runs under a wall-clock deadline
   (``VerificationOptions.check_timeout``, enforced with
   ``signal.setitimer``/``SIGALRM`` where available) and a bounded retry
   loop with exponential backoff (``max_retries``, ``retry_backoff``) for
   transient failures.  Worker processes run batches on their main
   thread, so the SIGALRM guard works in workers exactly as it does
   serially; off the main thread (or without ``SIGALRM``) the same
   budget is enforced cooperatively — :mod:`repro.automata.guard` arms a
   thread-local monotonic deadline that the lazy product walks poll at
   step boundaries.

3. **Graceful degradation.**  A check that exhausts its retries or
   deadline becomes a first-class :class:`CheckFailure` outcome — an
   honest *unknown* verdict — instead of an exception; after repeated
   pool failures (``max_pool_rebuilds``) the remaining work falls back to
   serial in-process execution.  Reports grow a ``degraded`` flag and
   ``failed_checks`` accounting, so a sweep over 119 contingencies
   completes and names the two it could not prove.  Operators who prefer
   abortion over degradation set ``allow_degraded=False`` (CLI
   ``--no-degrade``), which turns the first would-be-unknown into a
   :class:`~repro.errors.DegradedExecutionError`.

Fault injection (:mod:`repro.testing.faults`) plugs in at the same seam
every real failure passes through: ``options.fault_plan`` ships to
workers with the rest of the options and is applied inside the deadline
guard, immediately before the check body.  The differential suite
(``tests/verifier/test_fault_tolerance.py``) uses it to assert the
resilience contract: any fault schedule yields either the byte-identical
clean report or a report whose only difference is honestly-flagged
``unknown`` entries.
"""

from __future__ import annotations

import pickle
import signal
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Generator, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.automata import guard
from repro.errors import (
    CheckTimeoutError,
    DegradedExecutionError,
    WorkerCrashError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.snapshots.forwarding_graph import ForwardingGraph
    from repro.verifier.counterexample import Counterexample
    from repro.verifier.engine import CompiledSpec, VerificationOptions
    from repro.verifier.state_automata import StateAutomatonBuilder

#: One deduplicated work item: ``(fec_id, spec_key, pre table id, post table id)``.
WorkItem = tuple[str, str, int, int]

#: The per-check callable the runtime executes (the engine's ``_check_one_fec``).
CheckFn = Callable[..., "Counterexample | None"]

#: One verification context: ``(check_fn, compiled_specs, builder, options)``
#: — what a worker needs besides the graph table to run any batch of it.
Context = tuple[
    CheckFn, dict[str, "CompiledSpec"], "StateAutomatonBuilder", "VerificationOptions"
]


@dataclass(frozen=True, slots=True)
class CheckFailure:
    """A check the runtime could not complete: an honest *unknown* verdict.

    Recorded in place of a pass/counterexample when a check exhausted its
    retry budget (``reason="error"``), its wall-clock deadline
    (``"timeout"``), or repeatedly killed its worker (``"crash"``).
    Unlike a :class:`~repro.verifier.counterexample.Counterexample` this
    is *not* evidence of violation — it marks the verdict unknown, and
    reports carrying one are flagged ``degraded``.
    """

    fec_id: str
    fec_description: str
    #: ``"timeout"`` | ``"crash"`` | ``"error"``.
    reason: str
    detail: str = ""
    #: Total attempts consumed (in-process retries + pool-crash re-runs).
    attempts: int = 1

    def as_row(self) -> tuple[str, str, str, str]:
        """Render in the counterexample-table layout (cause column only)."""
        return (
            self.fec_description,
            "?",
            "?",
            f"unknown: {self.reason} after {self.attempts} attempts ({self.detail})",
        )


#: What one check resolves to: pass, violation, or unknown.
Outcome = "Counterexample | CheckFailure | None"


@dataclass(slots=True)
class ExecutionResult:
    """What :func:`execute_checks` hands back to the engine/session layer."""

    #: Per-representative-FEC outcomes (pass / counterexample / failure).
    outcomes: dict[str, Any] = field(default_factory=dict)
    #: True when any check failed or execution fell back to serial.
    degraded: bool = False
    #: Number of :class:`CheckFailure` outcomes recorded.
    failed_checks: int = 0
    #: Worker pools rebuilt after ``BrokenProcessPool`` (0 = no crashes).
    pool_rebuilds: int = 0
    #: In-process retry attempts consumed across all checks.
    retried_checks: int = 0
    #: True when repeated pool failures forced the serial in-process fallback.
    serial_fallback: bool = False


# ----------------------------------------------------------------------
# The per-check guard: deadline + bounded retry with backoff
# ----------------------------------------------------------------------
@contextmanager
def _deadline(seconds: float | None) -> Generator[None, None, None]:
    """Interrupt the enclosed block with :class:`CheckTimeoutError`.

    Uses ``SIGALRM``/``setitimer`` where possible — worker processes execute
    batches on their main thread, so the preemptive guard is fully effective
    there.  On platforms without ``SIGALRM`` (Windows) and off the main
    thread (the daemon's executor threads, any threaded caller), it falls
    back to a cooperative monotonic-clock deadline polled by the
    product-walk loops in :mod:`repro.automata.lazy`, so a hanging check is
    still cut off in-thread — at step-boundary granularity rather than
    preemptively.
    """
    if not seconds or seconds <= 0:
        yield
        return
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        guard.arm_deadline(seconds)
        try:
            yield
        finally:
            guard.disarm_deadline()
        return

    def _on_alarm(signum: int, frame: Any) -> None:
        raise CheckTimeoutError(f"check exceeded its {seconds:.3g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _failure(fec_id: str, reason: str, detail: str, attempts: int = 1) -> CheckFailure:
    return CheckFailure(fec_id, fec_id, reason, detail, attempts)


#: Ceiling on one backoff sleep, so a misconfigured base cannot stall a run.
_MAX_BACKOFF_SECONDS = 2.0


def _run_one(
    context: Context,
    item: WorkItem,
    graph_table: Sequence[ForwardingGraph],
    prior_attempts: dict[str, int],
    *,
    in_worker: bool,
) -> tuple[Any, int]:
    """One guarded check: deadline + retry/backoff; never raises for a
    check-level failure (returns a :class:`CheckFailure` instead).

    ``prior_attempts`` carries the check's pool-crash exposure from the
    parent process, so the attempt numbering the fault plan (and the
    failure record) sees is global across worker generations, not local
    to this process.  Returns ``(outcome, retries_used)``.
    """
    check_fn, compiled_specs, builder, options = context
    fec_id, spec_key, pre_id, post_id = item
    fault_plan = options.fault_plan
    base = prior_attempts.get(fec_id, 0)
    max_attempts = 1 + max(0, options.max_retries)
    reason, detail = "error", "check never ran"
    for attempt in range(1, max_attempts + 1):
        if attempt > 1 and options.retry_backoff > 0:
            time.sleep(
                min(options.retry_backoff * (2 ** (attempt - 2)), _MAX_BACKOFF_SECONDS)
            )
        try:
            with _deadline(options.check_timeout):
                if fault_plan is not None:
                    fault_plan.apply(fec_id, base + attempt, in_worker=in_worker)
                outcome = check_fn(
                    compiled_specs[spec_key],
                    fec_id,
                    fec_id,
                    graph_table[pre_id],
                    graph_table[post_id],
                    builder,
                    options,
                )
            return outcome, attempt - 1
        except CheckTimeoutError as error:
            reason, detail = "timeout", str(error)
        except WorkerCrashError as error:
            # Only reachable in-process (a worker-side crash kills the
            # worker outright); treated like any other retryable failure.
            reason, detail = "crash", str(error)
        except Exception as error:  # noqa: BLE001 - absorbing arbitrary check failures is the job
            reason, detail = "error", f"{type(error).__name__}: {error}"
    return _failure(fec_id, reason, detail, base + max_attempts), max_attempts - 1


# ----------------------------------------------------------------------
# Worker-side machinery
# ----------------------------------------------------------------------
#: Verification contexts each *worker process* retains, LRU.  Sized for a
#: busy multi-tenant daemon: most requests land on a handful of hot session
#: contexts; a cold context costs one payload reship.
WORKER_CONTEXT_LIMIT = 16
#: Contexts (token + pickled payload) the parent keeps registered, LRU.
PARENT_CONTEXT_LIMIT = 64

# Worker-process-local context cache, token -> Context.  Filled from
# submission payloads, never by a pool initializer, so one executor serves
# every context.
_CONTEXTS: OrderedDict[int, Context] = OrderedDict()


def _reset_signals() -> None:
    """Worker initializer: drop the signal wiring a forked worker inherits.

    An asyncio parent (the daemon) routes its signals through a wake-up fd
    the fork shares, so the SIGTERM an executor sends its surviving workers
    when one of them dies would reach the *daemon's* loop and drain it.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _new_executor(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, initializer=_reset_signals)


def _run_batch(
    token: int,
    payload: bytes | None,
    graph_table: Sequence[ForwardingGraph],
    prior_attempts: dict[str, int],
    batch: Sequence[WorkItem],
) -> list[tuple[str, Any, int]] | None:
    """Worker entry point: resolve the context by token, run the batch.

    Returns ``None`` when the token is unknown here and no payload was
    attached (a fresh worker, or one that evicted it); the parent then
    resubmits the batch with the pickled context.  Each item is
    independently guarded, so one failing check degrades to a
    :class:`CheckFailure` entry without poisoning its batch siblings; the
    only batch-lethal event left is a hard worker death, observed by the
    parent as ``BrokenProcessPool``.
    """
    context = _CONTEXTS.get(token)
    if context is None:
        if payload is None:
            return None
        context = _CONTEXTS[token] = pickle.loads(payload)
        while len(_CONTEXTS) > WORKER_CONTEXT_LIMIT:
            _CONTEXTS.popitem(last=False)
    else:
        _CONTEXTS.move_to_end(token)
    return [
        (item[0], *_run_one(context, item, graph_table, prior_attempts, in_worker=True))
        for item in batch
    ]


# ----------------------------------------------------------------------
# Parent-side orchestration
# ----------------------------------------------------------------------
def _record(
    result: ExecutionResult,
    options: VerificationOptions,
    fec_id: str,
    outcome: Any,
    retries: int,
) -> None:
    """Fold one outcome into the result, enforcing the degradation policy."""
    result.retried_checks += retries
    if isinstance(outcome, CheckFailure):
        if not options.allow_degraded:
            raise DegradedExecutionError(
                f"check {fec_id} could not be completed "
                f"({outcome.reason}: {outcome.detail}; {outcome.attempts} attempts) "
                "and degraded execution is disabled"
            )
        result.degraded = True
        result.failed_checks += 1
    result.outcomes[fec_id] = outcome


def _run_serial(
    items: Sequence[WorkItem],
    result: ExecutionResult,
    context: Context,
    graph_table: Sequence[ForwardingGraph],
    prior_attempts: dict[str, int],
) -> None:
    for item in items:
        outcome, retries = _run_one(
            context, item, graph_table, prior_attempts, in_worker=False
        )
        _record(result, context[3], item[0], outcome, retries)


class ResilientPool:
    """A crash-surviving process pool whose executor may outlive a call.

    The pool owns what is shared — the executor, its generation, the
    token-addressed context registry and the counters — and is thread-safe:
    the daemon's executor threads call :meth:`run` concurrently, their
    submissions interleave on one executor, and a broken executor is
    replaced once per generation however many runs observed the crash.
    Everything belonging to one work list (crash exposure, pending batches,
    rebuild budget) lives in a per-call :class:`_Run`, so runs sharing the
    pool never see each other's accounting.  Use it as a context manager
    for a per-call lifetime, or hold it and call :meth:`shutdown`.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._generation = 0
        #: Tokens a clean gang round delivered to the current generation;
        #: submissions for them omit the payload first.
        self._published: set[int] = set()
        # id()-keyed registry: key -> (token, payload, context).  Holding the
        # context pins the ids, so a token never aliases a recycled object.
        self._contexts: OrderedDict[tuple[int, ...], tuple[int, bytes, Context]] = (
            OrderedDict()
        )
        self._stats = {
            "pools_created": 0,
            "pool_rebuilds": 0,
            "contexts_registered": 0,
            "context_payload_sends": 0,
            "context_misses": 0,
        }

    def __enter__(self) -> ResilientPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def stats(self) -> dict[str, int]:
        """A snapshot of the pool counters."""
        with self._lock:
            return dict(self._stats)

    def shutdown(self) -> None:
        """Stop the workers; futures not yet running are cancelled."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(cancel_futures=True)

    def run(
        self,
        work: Sequence[WorkItem],
        graph_table: Sequence[ForwardingGraph],
        compiled_specs: dict[str, CompiledSpec],
        builder: StateAutomatonBuilder,
        options: VerificationOptions,
        check_fn: CheckFn | None = None,
    ) -> ExecutionResult:
        """Drive one work list to completion (see :class:`_Run`)."""
        context = (check_fn or _default_check_fn(), compiled_specs, builder, options)
        run = _Run(self, context, graph_table)
        run.drive(work)
        return run.result

    def _count(self, *counters: str) -> None:
        with self._lock:
            for counter in counters:
                self._stats[counter] += 1

    def _register(self, context: Context) -> tuple[int, bytes]:
        """The context's token and pickled payload (pickled once, LRU-kept)."""
        key = tuple(map(id, context))
        with self._lock:
            entry = self._contexts.get(key)
            if entry is None:
                token = self._stats["contexts_registered"]
                entry = self._contexts[key] = (token, pickle.dumps(context), context)
                self._stats["contexts_registered"] += 1
                while len(self._contexts) > PARENT_CONTEXT_LIMIT:
                    _, (evicted, _, _) = self._contexts.popitem(last=False)
                    self._published.discard(evicted)
            else:
                self._contexts.move_to_end(key)
            return entry[0], entry[1]

    def _acquire(self, token: int) -> tuple[ProcessPoolExecutor, int, bool]:
        """The live executor, its generation, and whether it knows ``token``."""
        with self._lock:
            if self._executor is None:
                self._executor = _new_executor(self.workers)
                self._generation += 1
                self._stats["pools_created"] += 1
                self._published.clear()
            return self._executor, self._generation, token in self._published

    def _release(self, token: int, generation: int, broken: bool) -> None:
        """End a gang round: publish the token after a clean one, drop the
        executor after a broken one — once per generation, however many
        runs observed the same crash; the next :meth:`_acquire` rebuilds."""
        with self._lock:
            if self._generation != generation or self._executor is None:
                return
            if not broken:
                self._published.add(token)
                return
            self._stats["pool_rebuilds"] += 1
            # Reaped under the lock: workers forked for the next generation
            # before this one is gone would inherit its pipes and keep its
            # queue feeder — and so this shutdown — blocked for their lifetime.
            self._executor.shutdown(cancel_futures=True)
            self._executor = None


class _Run:
    """One work list's trip through a :class:`ResilientPool`.

    The loop has three modes:

    * **gang mode** — all pending batches share the pool's executor.  When
      it breaks, the completed results are kept, every unfinished batch is
      bisected (a crash kills a whole batch without naming the guilty
      check), and the next round's submissions carry each check's crash
      exposure so far, so attempt numbering is global across generations.
    * **isolation mode** — once every unfinished batch is a singleton
      *after at least one crash*, each suspect runs alone in a dedicated
      single-worker executor: if that breaks, the check is the proven
      killer and is retried up to ``max_retries`` times before being
      recorded as a :class:`CheckFailure`.
    * **serial fallback** — after ``max_pool_rebuilds`` rebuilds, the
      remaining work runs in-process (flagged ``serial_fallback``/
      ``degraded``), so repeated pool loss degrades throughput instead of
      aborting the run.

    A run cancels its own pending futures on every exit path (clean drain,
    broken executor, degradation-policy abort); it never shuts the shared
    executor down under another run.
    """

    def __init__(
        self, pool: ResilientPool, context: Context, table: Sequence[ForwardingGraph]
    ) -> None:
        self.pool = pool
        self.context = context
        self.options = context[3]
        self.token, self.payload = pool._register(context)
        self.table = table
        self.result = ExecutionResult()
        #: Executor breakages each check was in flight for.
        self.exposure: dict[str, int] = {}

    def drive(self, work: Sequence[WorkItem]) -> None:
        options, result = self.options, self.result
        # Batches follow the request's options, not the pool's width, so a
        # crash bisects — and a report counts rebuilds — the same way
        # whichever pool lifetime served it.
        chunk_size = max(1, len(work) // (options.workers * 4))
        batches = [
            list(work[i : i + chunk_size]) for i in range(0, len(work), chunk_size)
        ]
        while batches:
            if result.pool_rebuilds > max(0, options.max_pool_rebuilds):
                self._serial_fallback(batches)
                return
            if result.pool_rebuilds > 0 and all(len(batch) == 1 for batch in batches):
                self._run_isolated([batch[0] for batch in batches])
                return
            if not self._gang_round(batches):
                return
            result.pool_rebuilds += 1
            batches = self._bisect_unfinished(batches)

    def _submit(
        self, executor: ProcessPoolExecutor, batch: list[WorkItem], payload: bytes | None
    ) -> Future:
        prior = {
            item[0]: crashes for item in batch if (crashes := self.exposure.get(item[0]))
        }
        # Ship only the graphs this batch names, renumbered densely, so a
        # graph crosses the process boundary about once per run, not per batch.
        refs = {ref for item in batch for ref in item[2:]}
        local = {ref: index for index, ref in enumerate(refs)}
        table = [self.table[ref] for ref in local]
        items = [(fec, key, local[pre], local[post]) for fec, key, pre, post in batch]
        return executor.submit(_run_batch, self.token, payload, table, prior, items)

    def _collect(self, future: Future, batch: list[WorkItem]) -> bool:
        """Fold a finished future in; False = the worker lacked the context."""
        try:
            triples = future.result()
        except BrokenProcessPool:
            raise
        except Exception as error:  # noqa: BLE001 - batch-level failure, executor intact
            # The batch failed without killing its worker (e.g. an
            # unpicklable result): degrade its unfinished items.
            detail = f"batch execution failed: {type(error).__name__}: {error}"
            triples = [
                (item[0], _failure(item[0], "error", detail), 0)
                for item in batch
                if item[0] not in self.result.outcomes
            ]
        if triples is None:
            return False
        for fec_id, outcome, retries in triples:
            _record(self.result, self.options, fec_id, outcome, retries)
        return True

    def _gang_round(self, batches: list[list[WorkItem]]) -> bool:
        """One shared-executor round; returns True when the executor broke."""
        pool = self.pool
        executor, generation, published = pool._acquire(self.token)
        payload = None if published else self.payload
        if payload is not None:
            pool._count("context_payload_sends")
        pending: dict[Future, list[WorkItem]] = {}
        broken = False
        try:
            for batch in batches:
                pending[self._submit(executor, batch, payload)] = batch
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    batch = pending.pop(future)
                    try:
                        delivered = self._collect(future, batch)
                    except BrokenProcessPool:
                        broken = True  # keep draining: finished siblings count
                        continue
                    if not delivered:
                        # A worker without this context picked the batch
                        # up: resubmit with the payload attached.
                        pool._count("context_misses", "context_payload_sends")
                        pending[self._submit(executor, batch, self.payload)] = batch
        except RuntimeError:
            # ``submit`` refused: the executor broke (BrokenProcessPool is a
            # RuntimeError) or another run's rebuild already shut it down.
            broken = True
        finally:
            for future in pending:
                future.cancel()
            pool._release(self.token, generation, broken)
        return broken

    def _bisect_unfinished(self, batches: list[list[WorkItem]]) -> list[list[WorkItem]]:
        """Halve every batch the crash left unfinished, tracking exposure."""
        halves: list[list[WorkItem]] = []
        for batch in batches:
            remaining = [item for item in batch if item[0] not in self.result.outcomes]
            for item in remaining:
                self.exposure[item[0]] = self.exposure.get(item[0], 0) + 1
            mid = (len(remaining) + 1) // 2
            halves += [half for half in (remaining[:mid], remaining[mid:]) if half]
        return halves

    def _run_isolated(self, items: Sequence[WorkItem]) -> None:
        """Run crash suspects one at a time, each in its own executor.

        With exactly one check in flight, a broken executor *is*
        attribution: the check killed its worker.  Retried up to
        ``max_retries`` total crashes (counting gang-mode exposure), then
        recorded as unknown.
        """
        retry_budget = max(0, self.options.max_retries)
        for item in items:
            fec_id = item[0]
            while fec_id not in self.result.outcomes:
                executor = _new_executor(1)
                try:
                    self._collect(self._submit(executor, [item], self.payload), [item])
                except BrokenProcessPool:
                    self.result.pool_rebuilds += 1
                    crashes = self.exposure[fec_id] = self.exposure.get(fec_id, 0) + 1
                    if crashes > retry_budget:
                        detail = f"worker process died {crashes} times running this check"
                        failure = _failure(fec_id, "crash", detail, crashes)
                        _record(self.result, self.options, fec_id, failure, 0)
                finally:
                    executor.shutdown(cancel_futures=True)

    def _serial_fallback(self, batches: list[list[WorkItem]]) -> None:
        """Give up on worker processes for this run; finish in-process."""
        result = self.result
        remaining = [
            item for batch in batches for item in batch if item[0] not in result.outcomes
        ]
        if not self.options.allow_degraded:
            raise DegradedExecutionError(
                f"worker pool failed {result.pool_rebuilds} times; "
                f"{len(remaining)} checks remain and degraded serial fallback "
                "is disabled"
            )
        result.serial_fallback = True
        result.degraded = True
        _run_serial(remaining, result, self.context, self.table, self.exposure)


def _default_check_fn() -> CheckFn:
    """The engine's per-FEC check (imported lazily: the engine imports us)."""
    from repro.verifier.engine import _check_one_fec

    return _check_one_fec


def execute_checks(
    unique_work: Sequence[WorkItem],
    graph_table: Sequence[ForwardingGraph],
    compiled_specs: dict[str, CompiledSpec],
    builder: StateAutomatonBuilder,
    options: VerificationOptions,
    check_fn: CheckFn | None = None,
) -> ExecutionResult:
    """Run the deduplicated work list with fault tolerance.

    ``unique_work`` holds one ``(fec_id, spec_key, pre id, post id)`` item
    per distinct (spec, graph pair) combination, with ids indexing
    ``graph_table``.  Serial runs index the table in-process under the same
    deadline/retry guard the workers use; parallel runs go through a
    :class:`ResilientPool` that lives for this call.  Every work item is
    guaranteed an entry in ``outcomes`` — a pass, a counterexample, or a
    :class:`CheckFailure` — unless degradation is disabled, in which case
    the first failure raises :class:`~repro.errors.DegradedExecutionError`.
    The session's ``runner`` seam defaults to this function.
    """
    if options.workers <= 1 or len(unique_work) <= 1:
        result = ExecutionResult()
        context = (check_fn or _default_check_fn(), compiled_specs, builder, options)
        _run_serial(unique_work, result, context, graph_table, {})
        return result
    with ResilientPool(options.workers) as pool:
        return pool.run(
            unique_work, graph_table, compiled_specs, builder, options, check_fn
        )
