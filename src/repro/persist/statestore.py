"""Persistent state across CLI invocations: gate history and saved sessions.

A :class:`StateStore` is one ``repro-journal/v1`` file (kind ``state``)
playing two roles:

* **Outcome history** — every gated change appends one small JSON record
  (verdict + degraded flag); :meth:`StateStore.history` folds them into the
  :class:`~repro.analytics.risk.ChangeHistory` the safety gate's risk
  scoring consumes.  ``repro gate verify --state history.journal`` makes a
  change class that violated last week score hotter this week — history
  that previously died with the process.
* **Saved sessions** — :meth:`StateStore.save_session` persists a
  :class:`~repro.verifier.session.VerificationSession`'s durable state
  (registered specs, cached verdicts with their graphs, cumulative stream
  counters, current snapshot) and :meth:`StateStore.load_session` rebuilds
  it.  Restored verdicts re-enter service only through the session's
  pending-adoption path — exact alphabet-signature match plus spec-digest
  validation — so a stale store can never change a report; at worst it
  contributes nothing and the run is merely cold.

Outcome records survive :meth:`save_session` rewrites (the rewrite is an
atomic tmp-file + ``os.replace``), and a torn tail from a killed writer is
truncated on the next append, exactly as for checkpoints.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import StateVersionError
from repro.persist.digest import options_digest, stable_digest
from repro.persist.journal import (
    JournalWriter,
    RecoveryInfo,
    header_record,
    open_for_append,
    read_journal,
)

if TYPE_CHECKING:
    from repro.analytics.risk import ChangeHistory
    from repro.rela.locations import LocationDB
    from repro.verifier.engine import VerificationOptions
    from repro.verifier.session import VerificationSession

#: Saved-session payload format (bumped on incompatible layout changes).
SESSION_FORMAT = 1

#: State journals are not bound to one workload (a gate history spans many
#: changes), so their header signature is a role constant.
_STATE_SIGNATURE = "state/v1"


class StateStore:
    """The persistent state journal at one path (created lazily on write)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Recovery details from the most recent read (None before any).
        self.last_recovery: RecoveryInfo | None = None

    # ------------------------------------------------------------------
    # Outcome history (the gate's persistent memory)
    # ------------------------------------------------------------------
    def record_outcome(self, verdict: str, *, degraded: bool = False) -> None:
        """Append one gated change's outcome (creates the store if missing)."""
        writer, header, _, recovery = open_for_append(self.path)
        self.last_recovery = recovery
        if header is None:
            writer.close(sync=False)
            writer = JournalWriter.create(
                self.path, header_record("state", _STATE_SIGNATURE)
            )
        elif header.get("kind") != "state":
            writer.close(sync=False)
            raise StateVersionError(
                f"{self.path} is a {header.get('kind')!r} journal, not a state store"
            )
        with writer:
            writer.append_json(
                {"record": "outcome", "verdict": verdict, "degraded": bool(degraded)}
            )

    def outcomes(self) -> list[dict]:
        """Every recorded outcome, oldest first (empty for a missing store)."""
        return [
            record
            for record in self._records()
            if isinstance(record, dict) and record.get("record") == "outcome"
        ]

    def history(self) -> ChangeHistory:
        """The recorded outcomes folded into the risk layer's history."""
        from repro.analytics.risk import ChangeHistory

        outcomes = self.outcomes()
        return ChangeHistory(
            epochs=len(outcomes),
            violating_epochs=sum(1 for o in outcomes if o.get("verdict") == "violated"),
            degraded_epochs=sum(1 for o in outcomes if o.get("degraded")),
        )

    # ------------------------------------------------------------------
    # Saved sessions
    # ------------------------------------------------------------------
    def save_session(self, session: VerificationSession) -> None:
        """Persist ``session``'s durable state (atomic rewrite).

        The rewrite preserves every outcome record already in the store and
        replaces any previously-saved session.  Compiled automata are
        derived state and are never persisted; ``CheckFailure`` verdicts
        are never cached in the first place, so a loaded session retries
        unknowns fresh by construction.
        """
        specs = sorted(
            (token, instance) for instance, token, _ in session._registry.values()
        )
        spec_digests = {
            token: session._spec_digests.get(token) or stable_digest(instance)
            for token, instance in specs
        }
        default_token = None
        for instance, token, _ in session._registry.values():
            if instance is session._default_spec:
                default_token = token
                break

        # Both the live verdict cache and any not-yet-adopted pending
        # entries flatten into one persistent-form list: on load, all of
        # them re-enter through the same pending-adoption validation.
        context_keys = {
            context.token: key for key, context in session._contexts.items()
        }
        verdicts: list[tuple] = []
        for (ctx_token, spec_key, pre_ref, post_ref), outcome in session._verdicts.items():
            key = context_keys.get(ctx_token)
            if key is None:
                continue  # context already evicted; its verdicts are dead
            spec_token, signature = key
            verdicts.append(
                (
                    spec_token,
                    signature,
                    spec_key,
                    session._store.graph(pre_ref),
                    session._store.graph(post_ref),
                    outcome,
                )
            )
        for (spec_token, signature), bucket in session._pending_verdicts.items():
            for (spec_key, _, _), entry in bucket.items():
                pre_graph, post_graph, outcome = entry
                verdicts.append(
                    (spec_token, signature, spec_key, pre_graph, post_graph, outcome)
                )

        payload = {
            "record": "session",
            "format": SESSION_FORMAT,
            "options": session.options,
            "options_digest": options_digest(session.options),
            "db": session.db,
            "graph_budget": session.graph_budget,
            "context_budget": session.context_budget,
            "report_history": session.stream.max_retained_reports,
            "specs": specs,
            "spec_digests": spec_digests,
            "default_token": default_token,
            "current": session.current,
            "verdicts": verdicts,
            "stream": session.stream,
        }

        tmp = self.path.with_name(self.path.name + ".tmp")
        writer = JournalWriter.create(tmp, header_record("state", _STATE_SIGNATURE))
        with writer:
            for outcome_record in self.outcomes():
                writer.append_json(outcome_record)
            writer.append_pickle(payload)
        os.replace(tmp, self.path)

    def load_session(
        self,
        *,
        options: VerificationOptions | None = None,
        db: LocationDB | None = None,
    ) -> VerificationSession:
        """Rebuild the session saved by :meth:`save_session`.

        ``options``/``db`` default to the saved ones; an ``options``
        override must agree on every verdict-relevant field
        (:class:`~repro.errors.StateVersionError` otherwise — see
        :data:`~repro.persist.digest.VERDICT_RELEVANT_OPTION_FIELDS`).
        """
        from repro.verifier.session import VerificationSession

        payload = None
        for record in self._records():
            if isinstance(record, dict) and record.get("record") == "session":
                payload = record  # the last one wins (rewrites keep only one)
        if payload is None:
            # A session written by a build whose pickled classes have since
            # changed shape fails to decode and is dropped by recovery: name
            # that cause instead of reporting an empty store.
            damage = self.last_recovery
            cause = f" ({damage.reason})" if damage is not None and damage.reason else ""
            raise StateVersionError(f"no saved session in state store {self.path}{cause}")
        if payload.get("format") != SESSION_FORMAT:
            raise StateVersionError(
                f"state store {self.path} holds a format-{payload.get('format')!r} "
                f"session, this build reads format {SESSION_FORMAT}"
            )
        if options is not None and options_digest(options) != payload["options_digest"]:
            raise StateVersionError(
                "given options differ from the saved session's on a "
                "verdict-relevant field: cached verdicts would not be valid, "
                "refusing to load"
            )

        specs: list[tuple] = payload["specs"]
        instance_by_token = dict(specs)
        default_token = payload["default_token"]
        session = VerificationSession(
            payload["current"],
            instance_by_token.get(default_token),
            db=db if db is not None else payload["db"],
            options=options if options is not None else payload["options"],
            graph_budget=payload["graph_budget"],
            context_budget=payload["context_budget"],
        )
        # Saved tokens are NOT pre-claimed: the loading process will pass
        # its own spec instances, and the session's registration path binds
        # them to saved tokens by content digest (a live spec matching a
        # saved digest takes over that token and its pending verdicts).
        # Starting the token counter past every saved token keeps genuinely
        # new specs from colliding with journaled ones.
        session._next_spec_token = max((t for t, _ in specs), default=-1) + 1
        session._pending_spec_digests = dict(payload["spec_digests"])
        for spec_token, signature, spec_key, pre_graph, post_graph, outcome in payload[
            "verdicts"
        ]:
            bucket = session._pending_verdicts.setdefault(
                (spec_token, tuple(signature)), {}
            )
            bucket[(spec_key, pre_graph.fingerprint(), post_graph.fingerprint())] = (
                pre_graph,
                post_graph,
                outcome,
            )
        session.stream = payload["stream"]
        return session

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _records(self) -> list[object]:
        header, records, recovery = read_journal(self.path)
        self.last_recovery = recovery
        if header is None:
            return []
        if header.get("kind") != "state":
            raise StateVersionError(
                f"{self.path} is a {header.get('kind')!r} journal, not a state store"
            )
        return records
