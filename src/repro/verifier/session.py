"""Incremental change-stream verification sessions.

The paper's operators validate *sequences* of changes — a maintenance
window is a rolling series of drains and restores, a migration lands in
waves — but one-shot :func:`~repro.verifier.engine.verify_change` treats
every change as cold: the interned graph store, the compiled specs and the
``(spec, pre graph, post graph)`` verdicts all die with the call, so a
30-epoch stream pays 30× for graphs and checks that barely move between
epochs.

A :class:`VerificationSession` makes the engine's lifecycle per-*session*
instead of per-call:

* **Cross-epoch graph store** — one ref-counted
  :class:`~repro.snapshots.graphstore.GraphStore` interns every distinct
  forwarding graph the stream ever exhibits; a drain→restore cycle that
  returns the network to a previous state resolves to the *same* session
  refs it had before.  Graphs pinned by the current epoch are ref-counted,
  so long streams can bound memory with :meth:`VerificationSession.compact`
  (or an automatic ``graph_budget``).
* **Persistent verdict cache** — verdicts (including full counterexamples)
  are cached by ``(compiled-spec context, spec key, pre ref, post ref)``
  and survive across :meth:`VerificationSession.advance` calls.  An epoch
  re-verifies only combinations the session has never seen; unchanged
  classes and recurring graph pairs are cache hits.
* **Compiled-spec contexts** — specs are compiled once per (spec instance,
  alphabet signature) and reused while the stream's location universe is
  stable; each epoch's alphabet is computed exactly as a one-shot run
  would, so reports stay byte-identical to independent ``verify_change``
  calls (the session-equivalence invariant, pinned by
  ``tests/verifier/test_session.py``).

``advance(new_snapshot)`` verifies the change from the session's current
snapshot to ``new_snapshot``, returns the per-epoch
:class:`~repro.verifier.report.VerificationReport` (with
``cached_checks`` cache statistics), folds it into the cumulative
:class:`~repro.verifier.report.StreamReport`, and makes ``new_snapshot``
current.  One-shot ``verify_change`` is literally a session of length 1.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from pathlib import Path

from repro.automata.alphabet import Alphabet
from repro.errors import StateVersionError, VerificationError
from repro.persist.checkpoint import Checkpoint
from repro.persist.digest import stable_digest
from repro.rela.locations import Granularity, LocationDB
from repro.rela.pspec import PSpec, SpecPolicy
from repro.rela.spec import RelaSpec
from repro.snapshots.forwarding_graph import ForwardingGraph
from repro.snapshots.graphstore import GraphStore
from repro.snapshots.snapshot import Snapshot
from repro.verifier.counterexample import Counterexample
from repro.verifier.engine import (
    CompiledSpec,
    VerificationOptions,
    _as_policy,
    _policy_specs,
    _relabel,
    _spec_symbols,
    compile_spec,
)
from repro.verifier.report import StreamReport, VerificationReport
from repro.verifier.runtime import CheckFailure, ExecutionResult, execute_checks
from repro.verifier.state_automata import StateAutomatonBuilder, build_alphabet

#: Epoch-local identity of one check: FECs sharing a key share one verdict.
MemoKey = tuple[str, int, int]

#: Sentinel distinguishing "cached None verdict" from "not cached".
_MISS = object()


@dataclass(slots=True, eq=False)
class _CompiledContext:
    """Specs compiled over one alphabet, reusable while the universe is stable.

    The ``token`` is the context's component of every persistent verdict-cache
    key: two epochs share cached verdicts only when they resolved to the same
    context, i.e. the same spec instance compiled over the same alphabet
    signature.
    """

    token: int
    alphabet: Alphabet
    #: The alphabet's symbol list at compile time.  A context is only reused
    #: when a fresh epoch derives exactly this signature *and* the alphabet
    #: has not grown since (growth would make later complements over it
    #: diverge from what a cold run would compute).
    signature: tuple[str, ...]
    builder: StateAutomatonBuilder
    compiled_specs: dict[str, CompiledSpec]
    guarded_specs: list[tuple[int, PSpec]]
    #: Epoch number this context last served; drives LRU eviction under a
    #: ``context_budget``.
    last_used_epoch: int = 0


class VerificationSession:
    """A long-lived verification session over a stream of network changes.

    Parameters
    ----------
    initial:
        The snapshot the stream starts from (the network's state before the
        first change).
    spec:
        Default specification applied by :meth:`advance` when no per-epoch
        spec is given.  Each epoch may also pass its own spec — recurring
        *instances* (e.g. the drain spec reused every maintenance night)
        share compiled forms and cached verdicts; structurally equal but
        distinct instances are conservatively treated as different specs.
    db:
        Location database, as for :func:`~repro.verifier.engine.verify_change`.
    options:
        Engine options, fixed for the whole session (verdicts cached under
        one set of options would not be valid under another).
    graph_budget:
        When set, :meth:`advance` automatically calls :meth:`compact` once
        the session store holds more than this many distinct graphs.  The
        default (``None``) never evicts: every state the stream ever
        visited stays cache-warm.
    context_budget:
        When set, :meth:`advance` keeps at most this many compiled-spec
        contexts, evicting the least-recently-used ones (together with
        their cached verdicts and spec registrations) past the budget.
        Streams that mint a fresh spec per epoch — a migration policy per
        wave — would otherwise retain one compiled context per epoch
        forever; recurring spec instances are unaffected as long as they
        re-land within the budget.
    report_history:
        When set, the cumulative :attr:`stream` report retains only the
        most recent N per-epoch reports (its running totals are unaffected)
        — the third memory axis for unbounded daemon-style streams.
    """

    def __init__(
        self,
        initial: Snapshot,
        spec: RelaSpec | SpecPolicy | None = None,
        *,
        db: LocationDB | None = None,
        options: VerificationOptions | None = None,
        graph_budget: int | None = None,
        context_budget: int | None = None,
        report_history: int | None = None,
    ) -> None:
        self.options = options or VerificationOptions()
        self.db = db
        self.graph_budget = graph_budget
        self.context_budget = context_budget
        #: Cumulative report over every ``advance`` call.
        self.stream = StreamReport(max_retained_reports=report_history)
        #: Execution hook for the deduplicated work list.  ``None`` (the
        #: default) runs :func:`~repro.verifier.runtime.execute_checks` — a
        #: :class:`~repro.verifier.runtime.ResilientPool` that lives for
        #: the call.  The verification service installs
        #: :meth:`repro.serve.pool.PoolManager.execute` here so many
        #: sessions share one pool that lives for the daemon.  The hook must
        #: be report-transparent; it is runtime plumbing, never persisted
        #: by save/load.
        self.runner: Callable[..., "ExecutionResult"] | None = None

        self._current = initial
        self._default_spec = spec
        self._store = GraphStore()
        # Per-source-store ref translation caches: id(source store) -> its
        # (strong reference, src ref -> session ref) entry.  Strong refs keep
        # the id() keys from being recycled; streams share one store via
        # copy-on-write snapshots, so this stays tiny.
        self._local: dict[int, tuple[GraphStore, dict[int, int]]] = {}
        self._empty_refs: dict[Granularity, int] = {}
        # Spec-instance registry: id(spec) -> (instance, spec token, policy
        # wrapper).  The strong reference to the instance keeps its id() from
        # being recycled, so tokens stay unambiguous while registered.
        self._registry: dict[int, tuple[RelaSpec | SpecPolicy, int, SpecPolicy]] = {}
        self._next_spec_token = 0
        self._contexts: dict[tuple[int, tuple[str, ...]], _CompiledContext] = {}
        self._next_context_token = 0
        # The persistent verdict cache: (context token, spec key, pre ref,
        # post ref) -> counterexample or None.  Entries survive epochs and
        # are only dropped by compact() when their graphs are evicted.
        self._verdicts: dict[tuple[int, str, int, int], Counterexample | None] = {}
        # Session refs pinned on behalf of the current snapshot.
        self._current_refs: set[int] = set()
        # --- Durability hooks (repro.persist) ---
        # When enabled, every cache-visible state change is appended here in
        # persistent form: ("spec", token, digest), ("add", spec token,
        # signature, spec key, pre graph, post graph, outcome),
        # ("drop_context", spec token, signature), ("drop_graphs", fps).
        # Checkpoints drain it per unit; replaying the events into a fresh
        # session reconstructs the verdict cache exactly.
        self._delta_log: list[tuple] | None = None
        # Journaled verdicts awaiting adoption, keyed by (spec token,
        # alphabet signature); each bucket maps (spec key, pre fingerprint,
        # post fingerprint) -> (pre graph, post graph, outcome).  A bucket
        # is adopted — graphs interned, verdicts installed — only when a
        # live epoch compiles a context with the *exact* same spec token and
        # alphabet signature (and a matching spec digest), so a stale store
        # can never change a report.
        self._pending_verdicts: dict[
            tuple[int, tuple[str, ...]],
            dict[tuple[str, str, str], tuple[ForwardingGraph, ForwardingGraph, object]],
        ] = {}
        #: Expected spec digests by token, from the journal being replayed.
        self._pending_spec_digests: dict[int, str] = {}
        #: Digests of the specs this session actually registered.
        self._spec_digests: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current(self) -> Snapshot:
        """The snapshot the next :meth:`advance` will verify against."""
        return self._current

    @property
    def store(self) -> GraphStore:
        """The session's cross-epoch interning store."""
        return self._store

    @property
    def cached_verdicts(self) -> int:
        """Number of (spec, graph pair) verdicts currently cached."""
        return len(self._verdicts)

    @property
    def compiled_contexts(self) -> int:
        """Number of compiled-spec contexts currently retained."""
        return len(self._contexts)

    @property
    def epochs(self) -> int:
        """Number of changes verified so far."""
        return self.stream.epochs

    def outcome_history(self) -> dict[str, int]:
        """Rolling outcome counters across every epoch this session verified.

        The history hook the risk layer consumes
        (:meth:`repro.analytics.risk.ChangeHistory.from_counters`): a change
        class that violated or degraded in earlier epochs of the same
        session scores hotter than a first-time-clean one.  Counters come
        from the cumulative :class:`~repro.verifier.report.StreamReport`, so
        they survive ``report_history`` trimming.
        """
        return {
            "epochs": self.stream.epochs,
            "violating_epochs": self.stream.violating_epochs,
            "degraded_epochs": self.stream.degraded_epochs,
            "unknown_epochs": self.stream.unknown_epochs,
        }

    # ------------------------------------------------------------------
    # The epoch step
    # ------------------------------------------------------------------
    def advance(
        self,
        new_snapshot: Snapshot,
        spec: RelaSpec | SpecPolicy | None = None,
    ) -> VerificationReport:
        """Verify the change from the current snapshot to ``new_snapshot``.

        Only (spec, pre graph, post graph) combinations the session has not
        seen are checked; everything else — unchanged classes after the
        first epoch, recurring pairs from drain→restore cycles — is served
        from the verdict cache.  The report is byte-identical (verdicts,
        per-branch counts, witness sets) to what an independent
        ``verify_change(current, new_snapshot, spec)`` would produce; its
        ``cached_checks`` field says how much of it the cache absorbed.

        On return ``new_snapshot`` is the session's current snapshot.
        """
        options = self.options
        pre, post = self._current, new_snapshot
        started = time.perf_counter()

        chosen = spec if spec is not None else self._default_spec
        if chosen is None:
            raise ValueError("advance() needs a spec (none given and no session default)")
        spec_token, policy = self._register(chosen)
        context = self._context_for(spec_token, policy, pre, post)

        # Dedup-first grouping, as in the one-shot engine, but interning into
        # the *session* store: a graph pair the stream exhibited before maps
        # to the refs it had then, which is what makes the verdict cache hit
        # across epochs.  FECs appearing in either snapshot are checked; a
        # FEC missing from one side contributes an empty path set.
        fec_ids = list(dict.fromkeys(pre.fec_ids() + post.fec_ids()))
        pre_cache = self._localizer(pre.store)
        post_cache = self._localizer(post.store)
        cache_token = context.token
        guarded_specs = context.guarded_specs

        membership: list[tuple[str, MemoKey]] = []
        outcomes: dict[MemoKey, Counterexample | CheckFailure | None] = {}
        to_check: list[tuple[str, str, int, int]] = []
        key_of_representative: dict[str, MemoKey] = {}
        seen_keys: set[MemoKey] = set()
        cached_hits = 0
        for fec_id in fec_ids:
            spec_key = "default"
            if guarded_specs:
                fec = pre.fec(fec_id) if fec_id in pre else post.fec(fec_id)
                for index, guarded in guarded_specs:
                    if guarded.applies_to(fec):
                        spec_key = f"guard-{index}"
                        break
            pre_ref = self._session_ref(pre.graph_ref(fec_id), pre, pre_cache)
            post_ref = self._session_ref(post.graph_ref(fec_id), post, post_cache)
            memo_key = (spec_key, pre_ref, post_ref)
            membership.append((fec_id, memo_key))
            if memo_key in seen_keys:
                continue
            seen_keys.add(memo_key)
            cached = self._verdicts.get((cache_token, *memo_key), _MISS)
            if cached is not _MISS:
                outcomes[memo_key] = cached
                cached_hits += 1
                continue
            to_check.append((fec_id, *memo_key))
            key_of_representative[fec_id] = memo_key

        report = VerificationReport(
            granularity=options.granularity, workers=max(1, options.workers)
        )
        report.setup_seconds = time.perf_counter() - started
        report.unique_checks = len(seen_keys)
        report.cached_checks = cached_hits
        check_started = time.perf_counter()

        if to_check:
            # Compact the work list's session refs into a dense table: the
            # serial path indexes it in-process, the worker path ships each
            # batch the graphs it names.
            table: list[ForwardingGraph] = []
            table_ids: dict[int, int] = {}

            def table_id(ref: int) -> int:
                local = table_ids.get(ref)
                if local is None:
                    local = len(table)
                    table.append(self._store.graph(ref))
                    table_ids[ref] = local
                return local

            work = [
                (fec_id, spec_key, table_id(pre_ref), table_id(post_ref))
                for fec_id, spec_key, pre_ref, post_ref in to_check
            ]
            fresh = (self.runner or execute_checks)(
                work, table, context.compiled_specs, context.builder, options
            )
            for fec_id, spec_key, pre_ref, post_ref in to_check:
                outcome = fresh.outcomes[fec_id]
                outcomes[key_of_representative[fec_id]] = outcome
                # A CheckFailure is an *unknown* verdict, not a verdict: it
                # must never enter the persistent cache (the next epoch —or a
                # retry of this one— should re-execute the check, not be
                # served a stale failure).
                if not isinstance(outcome, CheckFailure):
                    self._verdicts[(cache_token, spec_key, pre_ref, post_ref)] = outcome
                    if self._delta_log is not None:
                        self._delta_log.append(
                            (
                                "add",
                                spec_token,
                                context.signature,
                                spec_key,
                                self._store.graph(pre_ref),
                                self._store.graph(post_ref),
                                outcome,
                            )
                        )
            report.degraded = fresh.degraded
            report.pool_rebuilds = fresh.pool_rebuilds
            report.retried_checks = fresh.retried_checks
            report.serial_fallback = fresh.serial_fallback

        report.check_seconds = time.perf_counter() - check_started

        # Fold per-FEC results into the report.  Descriptions and relabeled
        # counterexamples are built only for violating/unknown FECs, so the
        # all-pass case stays allocation-free here.
        for fec_id, memo_key in membership:
            outcome = outcomes[memo_key]
            if outcome is None:
                report.record(None)
                continue
            fec = pre.fec(fec_id) if fec_id in pre else post.fec(fec_id)
            if isinstance(outcome, CheckFailure):
                report.record(
                    replace(outcome, fec_id=fec_id, fec_description=str(fec))
                )
            else:
                report.record(_relabel(outcome, fec_id, str(fec)))

        if not options.collect_counterexamples:
            # Timing-only runs keep the verdict and counts but drop the detail.
            report.counterexamples = []

        report.finalize()
        report.elapsed_seconds = time.perf_counter() - started

        self._rotate(post, post_cache)
        self.stream.record(report)
        return report

    def rebase(self, snapshot: Snapshot) -> None:
        """Make ``snapshot`` current without verifying a change.

        Contingency sweeps verify *unordered pairs* through one session —
        each contingency's (pre, post) is a fresh branch off the baseline,
        not a continuation of the previous contingency's post state.
        ``rebase`` repositions the session (re-pinning graph refs, honouring
        the memory budgets) so the next :meth:`advance` verifies from
        ``snapshot``; the verdict cache and compiled contexts carry over,
        which is the whole point.
        """
        self._rotate(snapshot, self._localizer(snapshot.store))

    # ------------------------------------------------------------------
    # Durability (crash-resume + persistent state; see repro.persist)
    # ------------------------------------------------------------------
    def enable_delta_log(self) -> None:
        """Start recording cache-state deltas for checkpointing.

        While enabled, :meth:`drain_deltas` returns (and clears) the
        persistent-form events since the last drain; a checkpoint journals
        them with each completed unit, and :meth:`preload_deltas` replays
        them into a fresh session on resume.
        """
        if self._delta_log is None:
            self._delta_log = []

    def drain_deltas(self) -> list[tuple]:
        """The cache-state deltas since the last drain (clears the log)."""
        deltas = self._delta_log or []
        self._delta_log = [] if self._delta_log is not None else None
        return deltas

    def preload_deltas(self, deltas: Iterable[tuple]) -> None:
        """Replay journaled cache-state deltas into this session.

        Events fold into *pending* verdict buckets keyed by (spec token,
        alphabet signature); nothing touches the live cache until an epoch
        actually compiles a context with the same key and a matching spec
        digest (see :meth:`_context_for`), at which point the bucket's
        graphs are interned and its verdicts adopted.  Folding preserves
        journal order, so context invalidations and graph evictions from
        the original run drop exactly the entries they dropped then.
        """
        for event in deltas:
            kind = event[0]
            if kind == "spec":
                _, token, digest = event
                self._pending_spec_digests[token] = digest
                self._assert_spec_unchanged(token)
            elif kind == "add":
                _, spec_token, signature, spec_key, pre_graph, post_graph, outcome = event
                bucket = self._pending_verdicts.setdefault(
                    (spec_token, tuple(signature)), {}
                )
                bucket[(spec_key, pre_graph.fingerprint(), post_graph.fingerprint())] = (
                    pre_graph,
                    post_graph,
                    outcome,
                )
            elif kind == "drop_context":
                self._pending_verdicts.pop((event[1], tuple(event[2])), None)
            elif kind == "drop_graphs":
                dropped = set(event[1])
                for bucket in self._pending_verdicts.values():
                    stale = [
                        key
                        for key in bucket
                        if key[1] in dropped or key[2] in dropped
                    ]
                    for key in stale:
                        del bucket[key]
            else:
                raise StateVersionError(f"unknown journal delta event {kind!r}")

    def restore_epoch(
        self,
        new_snapshot: Snapshot,
        spec: RelaSpec | SpecPolicy | None,
        report: VerificationReport,
        deltas: Iterable[tuple] = (),
    ) -> None:
        """Replay one journaled epoch without re-verifying it (crash-resume).

        Equivalent, for every observable the session carries forward, to
        the :meth:`advance` call that originally produced ``report``: the
        spec registers under the same token (journal replay is strictly in
        epoch order, so token assignment matches the original run), the
        epoch's cache deltas preload, the session repositions on
        ``new_snapshot`` and the stored report folds into the cumulative
        :attr:`stream` totals.
        """
        chosen = spec if spec is not None else self._default_spec
        if chosen is None:
            raise ValueError("restore_epoch() needs a spec (none given and no session default)")
        if deltas:
            self.preload_deltas(deltas)
        self._register(chosen)
        self.rebase(new_snapshot)
        self.stream.record(report)

    def _assert_spec_unchanged(self, spec_token: int) -> None:
        """Refuse journaled verdicts when the live spec's digest drifted."""
        expected = self._pending_spec_digests.get(spec_token)
        if expected is None:
            return
        digest = self._spec_digests.get(spec_token)
        if digest is None:
            for instance, token, _ in self._registry.values():
                if token == spec_token:
                    digest = stable_digest(instance)
                    self._spec_digests[spec_token] = digest
                    break
        if digest is not None and digest != expected:
            raise StateVersionError(
                f"journaled verdicts for spec token {spec_token} were produced "
                "by a different spec (digest mismatch): adopting them could "
                "change the report, refusing"
            )

    def save(self, path: str | Path) -> None:
        """Persist this session's durable state to a journal at ``path``.

        Saves the interned graph store, registered specs, compiled-context
        keys with their cached verdicts, the cumulative stream counters and
        the current snapshot — everything a later invocation needs to pick
        the stream up warm.  Compiled automata are never persisted (they
        are derived state, recompiled on demand); neither is any
        ``CheckFailure`` (unknown verdicts are always retried fresh).
        """
        from repro.persist.statestore import StateStore

        StateStore(path).save_session(self)

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        options: VerificationOptions | None = None,
        db: LocationDB | None = None,
    ) -> VerificationSession:
        """Rebuild a session saved with :meth:`save`.

        ``options`` may override the saved engine options only when every
        verdict-relevant field matches (:class:`~repro.errors.StateVersionError`
        otherwise — cached verdicts computed under one semantics must not
        be served under another); workers and resilience knobs may differ
        freely.  Cached verdicts re-enter service only through the pending
        adoption path, i.e. after the alphabet-signature and spec-digest
        validation every journaled verdict goes through.
        """
        from repro.persist.statestore import StateStore

        return StateStore(path).load_session(options=options, db=db)

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Evict graphs not pinned by the current snapshot; drop their verdicts.

        Returns the number of graphs evicted.  Eviction trades cache warmth
        for memory: a later epoch revisiting an evicted state re-interns the
        graphs (possibly recycling refs) and re-verifies its combinations.
        Source-store translation caches other than the current snapshot's
        are released as well, so a stream that churned through many stores
        does not pin them all.
        """
        fingerprints: dict[int, str] = {}
        if self._delta_log is not None:
            fingerprints = {ref: graph.fingerprint() for ref, graph in self._store.items()}
        evicted = self._store.evict_unreferenced()
        if not evicted:
            return 0
        gone = set(evicted)
        if self._delta_log is not None:
            self._delta_log.append(
                ("drop_graphs", tuple(fingerprints[ref] for ref in evicted))
            )
        self._verdicts = {
            key: verdict
            for key, verdict in self._verdicts.items()
            if key[2] not in gone and key[3] not in gone
        }
        current_store = self._current.store
        self._local = {
            store_id: entry
            for store_id, entry in self._local.items()
            if entry[0] is current_store
        }
        for _, cache in self._local.values():
            stale = [src_ref for src_ref, ref in cache.items() if ref in gone]
            for src_ref in stale:
                del cache[src_ref]
        self._empty_refs = {
            granularity: ref
            for granularity, ref in self._empty_refs.items()
            if ref not in gone
        }
        return len(evicted)

    def _evict_stale_contexts(self) -> None:
        """Drop least-recently-used compiled contexts past ``context_budget``.

        An evicted context takes its verdict-cache entries with it (they are
        keyed by its token and can never be served again), and spec
        instances left without any live context are unregistered — with one
        exception: the session's default spec stays registered, so its
        token is stable for the session's whole life.
        """
        budget = self.context_budget
        if budget is None or len(self._contexts) <= budget:
            return
        by_age = sorted(self._contexts.items(), key=lambda item: item[1].last_used_epoch)
        dead_tokens: set[int] = set()
        for key, context in by_age[: len(self._contexts) - budget]:
            dead_tokens.add(context.token)
            del self._contexts[key]
            if self._delta_log is not None:
                self._delta_log.append(("drop_context", key[0], key[1]))
        self._verdicts = {
            key: verdict
            for key, verdict in self._verdicts.items()
            if key[0] not in dead_tokens
        }
        live_spec_tokens = {spec_token for spec_token, _ in self._contexts}
        self._registry = {
            instance_id: entry
            for instance_id, entry in self._registry.items()
            if entry[1] in live_spec_tokens or entry[0] is self._default_spec
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _register(self, spec: RelaSpec | SpecPolicy) -> tuple[int, SpecPolicy]:
        """The (token, policy wrapper) of a spec instance, registered once.

        Registered instances are strongly referenced, so an ``id()`` key can
        never be recycled while its entry lives; a context-budget eviction
        may unregister an instance, after which re-seeing it (or a new
        instance at the same address) simply registers afresh under a new
        token — old tokens are never reissued.
        """
        key = id(spec)
        entry = self._registry.get(key)
        if entry is None:
            token = self._next_spec_token
            digest: str | None = None
            if self._pending_spec_digests:
                # Journaled verdicts are keyed by the *original* run's spec
                # tokens; a fresh process registers fresh instances, so the
                # binding is by content digest: a new registration whose
                # digest matches an unclaimed journaled token takes over
                # that token (and thereby its pending verdict buckets).
                digest = stable_digest(spec)
                claimed = {existing[1] for existing in self._registry.values()}
                for pending_token in sorted(self._pending_spec_digests):
                    if pending_token in claimed:
                        continue
                    if self._pending_spec_digests[pending_token] == digest:
                        token = pending_token
                        break
            entry = (spec, token, _as_policy(spec))
            self._next_spec_token = max(self._next_spec_token, token + 1)
            self._registry[key] = entry
            if self._delta_log is not None or self._pending_spec_digests:
                if digest is None:
                    digest = stable_digest(spec)
                self._spec_digests[token] = digest
                expected = self._pending_spec_digests.get(token)
                if expected is not None and expected != digest:
                    raise StateVersionError(
                        f"spec registered under token {token} does not match the "
                        "journaled run's spec (digest mismatch): resuming would "
                        "change the report, refusing"
                    )
                if self._delta_log is not None:
                    self._delta_log.append(("spec", token, digest))
        return entry[1], entry[2]

    def _context_for(
        self,
        spec_token: int,
        policy: SpecPolicy,
        pre: Snapshot,
        post: Snapshot,
    ) -> _CompiledContext:
        """The compiled form of ``policy`` over this epoch's exact alphabet.

        The alphabet is derived precisely as a one-shot run would derive it
        (database names, both snapshots' locations, the specs' symbols); a
        cached context is reused only when the derivation lands on the same
        symbol signature and the cached alphabet has not grown since it was
        compiled.  That makes reuse an *optimization with an equivalence
        proof obligation* rather than a semantic change — forced alphabet
        rebuilds only cost speed, never fidelity.
        """
        specs_to_compile = _policy_specs(policy)
        alphabet = build_alphabet(
            pre,
            post,
            db=self.db,
            granularity=self.options.granularity,
            extra_symbols=_spec_symbols(specs_to_compile.values()),
        )
        signature = tuple(alphabet.names())
        key = (spec_token, signature)
        context = self._contexts.get(key)
        if context is not None and len(context.alphabet) != len(context.signature):
            # The cached context's alphabet grew since compile time (some
            # check interned a symbol): its compiled complements are no
            # longer what a cold run would produce.  Rebuild, and drop the
            # dead token's verdicts — they can never be served again.
            dead = context.token
            self._verdicts = {
                verdict_key: verdict
                for verdict_key, verdict in self._verdicts.items()
                if verdict_key[0] != dead
            }
            if self._delta_log is not None:
                self._delta_log.append(("drop_context", spec_token, signature))
            context = None
        if context is None:
            builder = StateAutomatonBuilder(
                alphabet=alphabet, granularity=self.options.granularity, db=self.db
            )
            compiled_specs = {
                spec_key: compile_spec(value, alphabet)
                for spec_key, value in specs_to_compile.items()
            }
            context = _CompiledContext(
                token=self._next_context_token,
                alphabet=alphabet,
                signature=signature,
                builder=builder,
                compiled_specs=compiled_specs,
                guarded_specs=list(enumerate(policy.guarded)),
            )
            self._next_context_token += 1
            self._contexts[key] = context
            pending = self._pending_verdicts.pop(key, None)
            if pending:
                # Adoption: this epoch landed on the exact (spec token,
                # alphabet signature) a journaled run cached verdicts for.
                # The digest check makes the binding spec-*content* deep,
                # not just token-deep.
                self._assert_spec_unchanged(spec_token)
                for (adopted_key, _, _), entry in pending.items():
                    pre_graph, post_graph, outcome = entry
                    pre_ref = self._store.intern(pre_graph)
                    post_ref = self._store.intern(post_graph)
                    self._verdicts[(context.token, adopted_key, pre_ref, post_ref)] = outcome
                    if self._delta_log is not None:
                        self._delta_log.append(
                            (
                                "add",
                                spec_token,
                                signature,
                                adopted_key,
                                pre_graph,
                                post_graph,
                                outcome,
                            )
                        )
        context.last_used_epoch = self.stream.epochs + 1
        return context

    def _localizer(self, store: GraphStore) -> dict[int, int]:
        """The persistent src-ref → session-ref cache for one source store."""
        entry = self._local.get(id(store))
        if entry is None or entry[0] is not store:
            entry = (store, {})
            self._local[id(store)] = entry
        return entry[1]

    def _session_ref(
        self, ref: int | None, snapshot: Snapshot, cache: dict[int, int]
    ) -> int:
        """Translate one snapshot-local graph ref into a session-store ref."""
        if ref is None:
            granularity = snapshot.granularity
            session_ref = self._empty_refs.get(granularity)
            if session_ref is None:
                session_ref = self._store.intern(ForwardingGraph.empty(granularity=granularity))
                self._empty_refs[granularity] = session_ref
            return session_ref
        session_ref = cache.get(ref)
        if session_ref is None:
            session_ref = self._store.intern(snapshot.store.graph(ref))
            cache[ref] = session_ref
        return session_ref

    def _rotate(self, new_snapshot: Snapshot, post_cache: dict[int, int]) -> None:
        """Make ``new_snapshot`` current: re-pin refs, maybe compact."""
        new_refs = {
            self._session_ref(ref, new_snapshot, post_cache)
            for ref in new_snapshot.distinct_graph_refs()
        }
        for ref in self._current_refs:
            self._store.release(ref)
        for ref in new_refs:
            self._store.acquire(ref)
        self._current_refs = new_refs
        self._current = new_snapshot
        if self.graph_budget is not None and len(self._store) > self.graph_budget:
            self.compact()
        self._evict_stale_contexts()


def verify_stream(
    initial: Snapshot,
    epochs: Iterable[tuple[Snapshot, RelaSpec | SpecPolicy]],
    *,
    db: LocationDB | None = None,
    options: VerificationOptions | None = None,
    graph_budget: int | None = None,
    context_budget: int | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    signature: str = "stream",
    on_epoch: Callable[[int, VerificationReport, bool], None] | None = None,
) -> StreamReport:
    """Verify a whole change stream through one session (convenience driver).

    ``epochs`` yields ``(new_snapshot, spec)`` pairs in stream order; the
    cumulative :class:`~repro.verifier.report.StreamReport` (which holds
    every per-epoch report) is returned.  ``context_budget`` matters for
    streams that mint a fresh spec per epoch — see
    :class:`VerificationSession`.

    With ``checkpoint`` set, every completed epoch is journaled (its report
    plus the session cache deltas it produced) to that path as it lands;
    ``resume=True`` replays the journal's clean prefix of epochs instead of
    re-verifying them, producing a stream report byte-identical to an
    uninterrupted run's.  ``signature`` binds the journal to this workload:
    resuming against a checkpoint written under a different signature
    raises :class:`~repro.errors.StateVersionError`.  Epochs whose report
    degraded (any unknown verdict) are journaled as markers only, so a
    resumed run retries them fresh.  A ``KeyboardInterrupt`` (SIGINT, or
    the CLI's SIGTERM translation) flushes a final interrupt marker before
    propagating, so ``--resume`` picks up exactly where the operator
    stopped.  ``on_epoch(index, report, resumed)`` is invoked for every
    epoch, replayed or live.
    """
    if resume and checkpoint is None:
        raise VerificationError("resume=True requires a checkpoint path")

    session = VerificationSession(
        initial,
        db=db,
        options=options,
        graph_budget=graph_budget,
        context_budget=context_budget,
    )

    if checkpoint is None:
        for index, (new_snapshot, spec) in enumerate(epochs):
            report = session.advance(new_snapshot, spec)
            if on_epoch is not None:
                on_epoch(index, report, False)
        return session.stream

    epoch_list = list(epochs)
    ckpt = Checkpoint.open(checkpoint, kind="stream", signature=signature, resume=resume)
    try:
        if len(ckpt.completed_units) > len(epoch_list):
            raise StateVersionError(
                f"checkpoint {ckpt.path} records {len(ckpt.completed_units)} completed "
                f"epochs but the stream only has {len(epoch_list)}: it belongs to a "
                "different run, refusing to resume"
            )
        session.enable_delta_log()
        for unit in ckpt.completed_units:
            index = unit["index"]
            new_snapshot, spec = epoch_list[index]
            report = unit["result"]
            session.restore_epoch(new_snapshot, spec, report, unit.get("deltas", ()))
            if on_epoch is not None:
                on_epoch(index, report, True)
        try:
            for index in range(len(ckpt.completed_units), len(epoch_list)):
                new_snapshot, spec = epoch_list[index]
                report = session.advance(new_snapshot, spec)
                deltas = session.drain_deltas()
                if report.degraded:
                    # Result-free marker: degraded epochs are retried fresh
                    # on resume (their deltas would replay verdicts computed
                    # alongside unknown ones, so they are dropped too).
                    ckpt.record_unit(index, f"epoch-{index}", degraded=True)
                else:
                    ckpt.record_unit(
                        index, f"epoch-{index}", result=report, deltas=deltas
                    )
                if on_epoch is not None:
                    on_epoch(index, report, False)
        except KeyboardInterrupt:
            ckpt.interrupt()
            raise
    finally:
        ckpt.close()
    return session.stream
