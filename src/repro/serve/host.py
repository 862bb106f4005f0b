"""Transport-independent request handling of the verification service.

:class:`SessionHost` is the service *behind* the HTTP layer: a thread-safe
registry of named per-tenant :class:`~repro.verifier.session.VerificationSession`
objects plus the stateless one-shot endpoints, speaking request/response
dictionaries.  The asyncio server (:mod:`repro.serve.server`) parses HTTP
and calls :meth:`SessionHost.handle_json` on an executor thread; the
differential test suite drives a *second* host in-process with the very
same request bytes and asserts byte-identical responses — the daemon must
add transport, never semantics.

Per-session guarantees:

* **Ordered, exclusive epochs** — each hosted session has its own lock;
  concurrent advances on one session serialize, advances on different
  sessions (or tenants) proceed in parallel.
* **Spec interning by digest** — a client re-sending the same spec (same
  program text, same pickled policy) gets the same registered instance,
  so recurring specs hit the session's compiled contexts and verdict
  cache exactly as a long-lived in-process caller reusing one instance
  would.
* **Durability** — with a state directory configured, sessions save
  through the existing :class:`~repro.persist.statestore.StateStore` on
  drain (and on demand), and a restarted daemon reloads them warm:
  adopted verdicts surface as ``cached_checks`` in the first reports of
  the new process.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import (
    DegradedExecutionError,
    PersistenceError,
    ProtocolError,
    QuotaExceededError,
    ReproError,
    SessionExistsError,
    SessionNotFoundError,
    ServeError,
)
from repro.persist.statestore import StateStore
from repro.rela.locations import Granularity
from repro.rela.pspec import SpecPolicy
from repro.rela.spec import RelaSpec
from repro.persist.digest import stable_digest
from repro.serve import protocol
from repro.serve.pool import PoolManager
from repro.serve.quotas import AdmissionLedger
from repro.verifier import k_link_failures, single_link_failures
from repro.verifier.session import VerificationSession
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.contingencies import (
    decommission_sweep_scenario,
    drain_sweep_scenario,
    interconnect_maintenance_sets,
    refactor_sweep_scenario,
)

#: Tenant and session names are path segments and state-directory entries:
#: one conservative shape serves both (no traversal, no hidden files).
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_SWEEP_SCENARIOS = {
    "drain": drain_sweep_scenario,
    "refactor": refactor_sweep_scenario,
    "decommission": decommission_sweep_scenario,
}

#: State files a daemon writes under ``state_dir/<tenant>/``.
_STATE_SUFFIX = ".state"


@dataclass
class HostedSession:
    """One named tenant session plus its service-side bookkeeping."""

    tenant: str
    name: str
    session: VerificationSession
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Digest-interned spec instances this session has seen (see module doc).
    specs: dict[str, RelaSpec | SpecPolicy] = field(default_factory=dict)

    def intern_spec(self, spec: RelaSpec | SpecPolicy) -> RelaSpec | SpecPolicy:
        digest = stable_digest(spec)
        held = self.specs.get(digest)
        if held is None:
            self.specs[digest] = spec
            return spec
        return held

    def info(self) -> dict:
        session = self.session
        return {
            "tenant": self.tenant,
            "name": self.name,
            "epochs": session.epochs,
            "cached_verdicts": session.cached_verdicts,
            "compiled_contexts": session.compiled_contexts,
            "graphs": len(session.store),
            "current_snapshot": session.current.name,
            "graph_budget": session.graph_budget,
            "context_budget": session.context_budget,
        }


def status_of(error: ReproError) -> int:
    """Map a service-layer exception to its HTTP status."""
    if isinstance(error, QuotaExceededError):
        return 429
    if isinstance(error, SessionNotFoundError):
        return 404
    if isinstance(error, SessionExistsError):
        return 409
    if isinstance(error, ProtocolError):
        return 400
    if isinstance(error, ServeError):
        return 503  # service-side refusal (draining)
    if isinstance(error, (DegradedExecutionError, PersistenceError)):
        return 500
    return 400  # other library errors are malformed client inputs


def _error_code(error: ReproError) -> str:
    return {
        QuotaExceededError: "quota-exceeded",
        SessionNotFoundError: "session-not-found",
        SessionExistsError: "session-exists",
        ProtocolError: "bad-request",
        DegradedExecutionError: "degraded-execution",
        PersistenceError: "persistence-error",
    }.get(type(error), "unavailable" if isinstance(error, ServeError) else "bad-request")


class SessionHost:
    """The verification service's request handler (no transport attached)."""

    def __init__(
        self,
        *,
        pool: PoolManager | None = None,
        state_dir: str | Path | None = None,
        ledger: AdmissionLedger | None = None,
    ) -> None:
        self.pool = pool
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.ledger = ledger or AdmissionLedger()
        self.draining = False
        self._lock = threading.RLock()
        self._sessions: dict[tuple[str, str], HostedSession] = {}
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._load_state_dir()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def handle_json(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        """Serve one request; always returns ``(status, payload)``.

        Every failure — malformed body, unknown route, quota refusal,
        engine error — becomes a structured :func:`protocol.encode_error`
        document; nothing propagates (the HTTP layer never sees a
        traceback, the lifecycle suite pins this).
        """
        try:
            decoded = None
            if body:
                try:
                    decoded = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    raise ProtocolError(f"request body is not valid JSON: {error}")
                if not isinstance(decoded, dict):
                    raise ProtocolError("request body must be a JSON object")
            return self.handle(method, path, decoded)
        except ReproError as error:
            return status_of(error), protocol.encode_error(_error_code(error), str(error))
        except Exception as error:  # noqa: BLE001 - the 500 of last resort
            return 500, protocol.encode_error(
                "internal-error", f"{type(error).__name__}: {error}"
            )

    def handle(self, method: str, path: str, body: dict | None) -> tuple[int, dict]:
        """Route one decoded request (raises ``ReproError`` on failure)."""
        parts = [part for part in path.split("/") if part]
        if path == "/healthz":
            self._expect(method, "GET", path)
            return 200, self.health()
        if parts[:2] == ["v1", "sessions"] and len(parts) == 2:
            self._expect(method, "GET", path)
            return 200, self.list_sessions()
        if parts[:2] == ["v1", "sessions"] and len(parts) in (4, 5):
            tenant, name = self._names(parts[2], parts[3])
            if len(parts) == 5 and parts[4] == "advance":
                self._expect(method, "POST", path)
                self._refuse_if_draining()
                return 200, self.advance(tenant, name, self._require_body(body))
            if len(parts) == 4:
                if method == "POST":
                    self._refuse_if_draining()
                    return 200, self.create(tenant, name, self._require_body(body))
                if method == "DELETE":
                    self._refuse_if_draining()
                    return 200, self.delete(tenant, name)
                raise ProtocolError(f"method {method} not allowed on {path}")
        if parts == ["v1", "verify"]:
            self._expect(method, "POST", path)
            self._refuse_if_draining()
            return 200, self.verify(self._require_body(body))
        if parts == ["v1", "sweep"]:
            self._expect(method, "POST", path)
            self._refuse_if_draining()
            return 200, self.sweep(self._require_body(body))
        raise SessionNotFoundError(f"no such endpoint: {method} {path}")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        with self._lock:
            sessions = len(self._sessions)
        return {
            "status": "draining" if self.draining else "ok",
            "sessions": sessions,
            "pool": self.pool.stats() if self.pool is not None else None,
            "admission": self.ledger.snapshot(),
            "state_dir": str(self.state_dir) if self.state_dir is not None else None,
        }

    def list_sessions(self) -> dict:
        with self._lock:
            hosted = sorted(self._sessions.values(), key=lambda h: (h.tenant, h.name))
            return {"sessions": [entry.info() for entry in hosted]}

    def create(self, tenant: str, name: str, body: dict) -> dict:
        allowed = {
            "initial",
            "spec",
            "options",
            "graph_budget",
            "context_budget",
            "report_history",
        }
        unknown = set(body) - allowed
        if unknown:
            raise ProtocolError(f"unknown fields: {', '.join(sorted(unknown))}")
        if "initial" not in body:
            raise ProtocolError("session create needs an 'initial' snapshot")
        initial = protocol.decode_snapshot(body["initial"], what="initial")
        spec = (
            protocol.decode_spec(body["spec"]) if body.get("spec") is not None else None
        )
        options = protocol.decode_options(body.get("options"))
        session = VerificationSession(
            initial,
            spec,
            options=options,
            graph_budget=protocol.decode_budget(body, "graph_budget"),
            context_budget=protocol.decode_budget(body, "context_budget"),
            report_history=protocol.decode_budget(body, "report_history"),
        )
        if self.pool is not None:
            session.runner = self.pool.execute
        hosted = HostedSession(tenant=tenant, name=name, session=session)
        if spec is not None:
            hosted.specs[stable_digest(spec)] = spec
        with self._lock:
            key = (tenant, name)
            if key in self._sessions:
                raise SessionExistsError(f"session {tenant}/{name} already exists")
            self.ledger.claim_session(tenant)
            self._sessions[key] = hosted
        return {"created": True, "session": hosted.info()}

    def advance(self, tenant: str, name: str, body: dict) -> dict:
        unknown = set(body) - {"snapshot", "spec"}
        if unknown:
            raise ProtocolError(f"unknown fields: {', '.join(sorted(unknown))}")
        if "snapshot" not in body:
            raise ProtocolError("advance needs a 'snapshot'")
        hosted = self._hosted(tenant, name)
        snapshot = protocol.decode_snapshot(body["snapshot"], what="snapshot")
        spec = (
            protocol.decode_spec(body["spec"]) if body.get("spec") is not None else None
        )
        with hosted.lock:
            if spec is not None:
                spec = hosted.intern_spec(spec)
            try:
                report = hosted.session.advance(snapshot, spec)
            except ValueError as error:
                # advance() without a spec on a default-less session
                raise ProtocolError(str(error)) from error
            epoch = hosted.session.epochs
        return {
            "tenant": tenant,
            "name": name,
            "epoch": epoch,
            "report": protocol.encode_report(report),
        }

    def delete(self, tenant: str, name: str) -> dict:
        with self._lock:
            hosted = self._sessions.pop((tenant, name), None)
            if hosted is None:
                raise SessionNotFoundError(f"no session {tenant}/{name}")
            self.ledger.release_session(tenant)
        if self.state_dir is not None:
            state_path = self._state_path(tenant, name)
            if state_path.exists():
                state_path.unlink()
        return {"deleted": True, "tenant": tenant, "name": name}

    def verify(self, body: dict) -> dict:
        unknown = set(body) - {"pre", "post", "spec", "options"}
        if unknown:
            raise ProtocolError(f"unknown fields: {', '.join(sorted(unknown))}")
        for needed in ("pre", "post", "spec"):
            if needed not in body:
                raise ProtocolError(f"verify needs a {needed!r} field")
        pre = protocol.decode_snapshot(body["pre"], what="pre")
        post = protocol.decode_snapshot(body["post"], what="post")
        spec = protocol.decode_spec(body["spec"])
        options = protocol.decode_options(body.get("options"))
        # One-shot verification is a session of length 1, exactly as
        # verify_change() builds it — with the shared pool plugged in.
        session = VerificationSession(pre, spec, options=options)
        if self.pool is not None:
            session.runner = self.pool.execute
        report = session.advance(post)
        return {"report": protocol.encode_report(report)}

    def sweep(self, body: dict) -> dict:
        allowed = {
            "scenario",
            "buggy",
            "fecs",
            "regions",
            "routers_per_group",
            "parallel_links",
            "prefixes_per_region",
            "granularity",
            "seed",
            "failures",
            "k",
            "limit",
            "options",
        }
        unknown = set(body) - allowed
        if unknown:
            raise ProtocolError(f"unknown fields: {', '.join(sorted(unknown))}")
        scenario_name = body.get("scenario", "drain")
        if scenario_name not in _SWEEP_SCENARIOS:
            raise ProtocolError(
                f"unknown scenario {scenario_name!r} "
                f"(choose from {', '.join(sorted(_SWEEP_SCENARIOS))})"
            )
        try:
            granularity = Granularity(body.get("granularity", "group"))
        except ValueError as error:
            raise ProtocolError(f"granularity: {error}") from error
        params = BackboneParams(
            regions=int(body.get("regions", 6)),
            routers_per_group=int(body.get("routers_per_group", 2)),
            parallel_links=int(body.get("parallel_links", 2)),
            prefixes_per_region=int(body.get("prefixes_per_region", 2)),
            seed=int(body.get("seed", 59)),
        )
        backbone = generate_backbone(params)
        scenario = _SWEEP_SCENARIOS[scenario_name](
            backbone,
            num_fecs=int(body.get("fecs", 2000)),
            granularity=granularity,
            buggy=bool(body.get("buggy", False)),
            seed=int(body.get("seed", 59)),
        )
        failures = body.get("failures", "single")
        if failures == "single":
            contingencies = single_link_failures(backbone.topology)
        elif failures == "k":
            contingencies = k_link_failures(
                backbone.topology,
                int(body.get("k", 2)),
                limit=body.get("limit"),
            )
        elif failures == "maintenance":
            contingencies = interconnect_maintenance_sets(backbone)
        else:
            raise ProtocolError(
                f"unknown failure model {failures!r} (single, k, or maintenance)"
            )
        options = protocol.decode_options(body.get("options"))
        if "granularity" not in (body.get("options") or {}):
            options.granularity = scenario.granularity
        sweep = scenario.sweep(contingencies, options=options)
        if self.pool is not None:
            sweep.runner = self.pool.execute
        return {"sweep": protocol.encode_sweep_report(sweep.run())}

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def save_all(self) -> int:
        """Persist every hosted session to the state directory (drain path)."""
        if self.state_dir is None:
            return 0
        with self._lock:
            hosted = list(self._sessions.values())
        saved = 0
        for entry in hosted:
            path = self._state_path(entry.tenant, entry.name)
            path.parent.mkdir(parents=True, exist_ok=True)
            with entry.lock:
                StateStore(path).save_session(entry.session)
            saved += 1
        return saved

    def _load_state_dir(self) -> None:
        """Reload every saved session; a restarted daemon resumes warm."""
        for state_path in sorted(self.state_dir.glob(f"*/*{_STATE_SUFFIX}")):
            tenant = state_path.parent.name
            name = state_path.name[: -len(_STATE_SUFFIX)]
            if not (_NAME_RE.match(tenant) and _NAME_RE.match(name)):
                continue
            session = StateStore(state_path).load_session()
            if self.pool is not None:
                session.runner = self.pool.execute
            self.ledger.claim_session(tenant)
            self._sessions[(tenant, name)] = HostedSession(
                tenant=tenant, name=name, session=session
            )

    def _state_path(self, tenant: str, name: str) -> Path:
        assert self.state_dir is not None
        return self.state_dir / tenant / f"{name}{_STATE_SUFFIX}"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _hosted(self, tenant: str, name: str) -> HostedSession:
        with self._lock:
            hosted = self._sessions.get((tenant, name))
        if hosted is None:
            raise SessionNotFoundError(f"no session {tenant}/{name}")
        return hosted

    @staticmethod
    def _names(tenant: str, name: str) -> tuple[str, str]:
        for label, value in (("tenant", tenant), ("session name", name)):
            if not _NAME_RE.match(value):
                raise ProtocolError(
                    f"{label} {value!r} is invalid (letters, digits, '._-', "
                    "max 64 chars, no leading punctuation)"
                )
        return tenant, name

    @staticmethod
    def _expect(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise ProtocolError(f"method {method} not allowed on {path}")

    @staticmethod
    def _require_body(body: dict | None) -> dict:
        if body is None:
            raise ProtocolError("request needs a JSON body")
        return body

    def _refuse_if_draining(self) -> None:
        if self.draining:
            raise ServeError("service is draining; retry against a new instance")

    # Tenant extraction for admission control (the HTTP layer calls this
    # before occupying an executor thread).
    @staticmethod
    def tenant_of(path: str) -> str | None:
        parts = [part for part in path.split("/") if part]
        if parts[:2] == ["v1", "sessions"] and len(parts) >= 4:
            return parts[2]
        return None
