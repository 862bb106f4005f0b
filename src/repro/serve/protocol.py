"""Wire protocol of the verification service: a canonical JSON codec.

The daemon's equivalence contract — serve-vs-direct reports are
*byte-identical* — needs one unambiguous byte encoding for every report
shape the engine produces.  This module is that encoding:

* :func:`canonical_json` renders any JSON-able payload with sorted keys,
  compact separators and ASCII escapes, so two equal payloads are equal
  *bytes* (the differential suite under ``tests/serve/`` compares exactly
  these bytes).
* ``encode_report`` / ``encode_stream_report`` / ``encode_sweep_report``
  flatten the engine's report dataclasses into deterministic dictionaries.
  Wall-clock measurements are quarantined under ``"timing"`` keys —
  :func:`strip_timing` removes them recursively, leaving only fields two
  equivalent runs must agree on.
* The request decoders (`decode_snapshot`, `decode_spec`,
  `decode_options`) accept either a self-describing JSON form or a
  base64-pickle escape hatch (``{"pickle": "..."}``) for payloads with no
  JSON form, such as programmatic :class:`~repro.rela.pspec.SpecPolicy`
  objects or options carrying a fault plan.  Every decode failure raises
  :class:`~repro.errors.ProtocolError`, which the server maps to HTTP 400
  with a structured error document.

.. warning::
   Pickle payloads execute arbitrary code when loaded.  The daemon is a
   backend service for trusted callers (loopback or a private socket by
   default), not an internet-facing API; deployments that cannot trust
   their clients should front it with an authenticating proxy and restrict
   requests to the JSON forms.
"""

from __future__ import annotations

import base64
import json
import pickle
from typing import Any

from repro.errors import ProtocolError, ReproError
from repro.rela.locations import Granularity
from repro.rela.parser import parse_program
from repro.rela.pspec import SpecPolicy
from repro.rela.spec import RelaSpec
from repro.snapshots.snapshot import Snapshot
from repro.verifier.contingency import SweepReport
from repro.verifier.engine import VerificationOptions
from repro.verifier.report import StreamReport, VerificationReport

#: Wire format identifiers, one per payload shape.
REPORT_FORMAT = "repro-report/v1"
STREAM_FORMAT = "repro-stream-report/v1"
SWEEP_FORMAT = "repro-sweep-report/v1"
ERROR_FORMAT = "repro-error/v1"


def canonical_json(payload: Any) -> bytes:
    """The canonical byte encoding of a JSON payload (sorted, compact, ASCII)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def strip_timing(payload: Any) -> Any:
    """A deep copy of ``payload`` with every ``"timing"`` key removed.

    Timing is honest measurement, so it can never be byte-stable across two
    runs; the differential suite compares ``canonical_json(strip_timing(a))``
    against ``canonical_json(strip_timing(b))``.
    """
    if isinstance(payload, dict):
        return {
            key: strip_timing(value)
            for key, value in payload.items()
            if key != "timing"
        }
    if isinstance(payload, list):
        return [strip_timing(item) for item in payload]
    return payload


# ----------------------------------------------------------------------
# Report encoders
# ----------------------------------------------------------------------
def _encode_paths(paths: list[tuple[str, ...]]) -> list[list[str]]:
    return [list(path) for path in paths]


def encode_report(report: VerificationReport) -> dict:
    """Flatten one :class:`VerificationReport` into its wire dictionary."""
    return {
        "format": REPORT_FORMAT,
        "holds": report.holds,
        "verdict": report.verdict,
        "total_fecs": report.total_fecs,
        "violating_fecs": report.violating_fecs,
        "unknown_fecs": report.unknown_fecs,
        "unique_checks": report.unique_checks,
        "cached_checks": report.cached_checks,
        "granularity": report.granularity.value,
        "workers": report.workers,
        "degraded": report.degraded,
        "pool_rebuilds": report.pool_rebuilds,
        "retried_checks": report.retried_checks,
        "serial_fallback": report.serial_fallback,
        "branch_violation_counts": dict(sorted(report.branch_violation_counts.items())),
        "counterexamples": [
            {
                "fec_id": cex.fec_id,
                "fec_description": cex.fec_description,
                "pre_paths": _encode_paths(cex.pre_paths),
                "post_paths": _encode_paths(cex.post_paths),
                "violations": [
                    {
                        "branch": violation.branch,
                        "expected": _encode_paths(violation.expected),
                        "observed": _encode_paths(violation.observed),
                    }
                    for violation in cex.violations
                ],
            }
            for cex in report.counterexamples
        ],
        "failed_checks": [
            {
                "fec_id": failure.fec_id,
                "fec_description": failure.fec_description,
                "reason": failure.reason,
                "detail": failure.detail,
                "attempts": failure.attempts,
            }
            for failure in report.failed_checks
        ],
        "timing": {
            "elapsed_seconds": report.elapsed_seconds,
            "setup_seconds": report.setup_seconds,
            "check_seconds": report.check_seconds,
        },
    }


def encode_stream_report(stream: StreamReport) -> dict:
    """Flatten one cumulative :class:`StreamReport` into its wire dictionary."""
    return {
        "format": STREAM_FORMAT,
        "holds": stream.holds,
        "verdict": stream.verdict,
        "epochs": stream.epochs,
        "violating_epochs": stream.violating_epochs,
        "degraded_epochs": stream.degraded_epochs,
        "unknown_epochs": stream.unknown_epochs,
        "unknown_fecs": stream.unknown_fecs,
        "total_fecs": stream.total_fecs,
        "unique_checks": stream.unique_checks,
        "cached_checks": stream.cached_checks,
        "executed_checks": stream.executed_checks,
        "retained_reports": len(stream.epoch_reports),
        "epoch_reports": [encode_report(report) for report in stream.epoch_reports],
        "timing": {"elapsed_seconds": stream.elapsed_seconds},
    }


def encode_sweep_report(sweep: SweepReport) -> dict:
    """Flatten one :class:`SweepReport` into its wire dictionary."""
    return {
        "format": SWEEP_FORMAT,
        "holds": sweep.holds,
        "verdict": sweep.verdict,
        "contingencies": sweep.contingencies,
        "violating_contingencies": sweep.violating_contingencies,
        "unknown_contingencies": sweep.unknown_contingencies,
        "flipped_contingencies": sweep.flipped_contingencies,
        "failed_checks": sweep.failed_checks,
        "naive_checks": sweep.naive_checks,
        "executed_checks": sweep.executed_checks,
        "dedup_ratio": sweep.dedup_ratio,
        "distinct_graphs": sweep.distinct_graphs,
        "expectation_mismatches": [
            result.contingency.contingency_id
            for result in sweep.expectation_mismatches
        ],
        "most_violating": [
            result.contingency.contingency_id for result in sweep.most_violating()
        ],
        "results": [
            {
                "contingency": {
                    "id": result.contingency.contingency_id,
                    "failed_links": [list(pair) for pair in result.contingency.failed_links],
                    "description": result.contingency.description,
                },
                "expected_holds": result.expected_holds,
                "report": encode_report(result.report),
                "timing": {"derive_seconds": result.derive_seconds},
            }
            for result in sweep.results
        ],
        "timing": {
            "elapsed_seconds": sweep.elapsed_seconds,
            "checkpoint_seconds": sweep.checkpoint_seconds,
        },
    }


def encode_error(code: str, message: str) -> dict:
    """The structured error document every non-2xx response carries."""
    return {"format": ERROR_FORMAT, "error": {"code": code, "message": message}}


# ----------------------------------------------------------------------
# Request decoders
# ----------------------------------------------------------------------
def pickle_b64(obj: Any) -> dict:
    """Encode an arbitrary engine object as a ``{"pickle": ...}`` payload."""
    return {"pickle": base64.b64encode(pickle.dumps(obj)).decode("ascii")}


def _unpickle_b64(text: Any, *, what: str) -> Any:
    if not isinstance(text, str):
        raise ProtocolError(f"{what}: 'pickle' payload must be a base64 string")
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii"), validate=True))
    except Exception as error:  # noqa: BLE001 - any decode failure is a client error
        raise ProtocolError(f"{what}: undecodable pickle payload ({error})") from error


def _require_mapping(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ProtocolError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def decode_snapshot(obj: Any, *, what: str = "snapshot") -> Snapshot:
    """Decode a snapshot payload: ``{"data": <snapshot dict>}`` or pickle."""
    body = _require_mapping(obj, what)
    if "pickle" in body:
        snapshot = _unpickle_b64(body["pickle"], what=what)
        if not isinstance(snapshot, Snapshot):
            raise ProtocolError(f"{what}: pickle payload is not a Snapshot")
        return snapshot
    if "data" in body:
        try:
            return Snapshot.from_dict(_require_mapping(body["data"], f"{what}.data"))
        except ProtocolError:
            raise
        except ReproError as error:
            raise ProtocolError(f"{what}: {error}") from error
    raise ProtocolError(f"{what} needs a 'data' or 'pickle' field")


def decode_spec(obj: Any, *, what: str = "spec") -> RelaSpec | SpecPolicy:
    """Decode a spec payload: a textual Rela program or a pickled object.

    The JSON form is ``{"program": "<rela source>", "name": "change"}``;
    the pickle form carries :class:`RelaSpec`/:class:`SpecPolicy` instances
    that have no textual syntax (programmatic policies, generated specs).
    """
    body = _require_mapping(obj, what)
    if "pickle" in body:
        spec = _unpickle_b64(body["pickle"], what=what)
        if not isinstance(spec, (RelaSpec, SpecPolicy)):
            raise ProtocolError(f"{what}: pickle payload is not a RelaSpec/SpecPolicy")
        return spec
    if "program" in body:
        if not isinstance(body["program"], str):
            raise ProtocolError(f"{what}.program must be a string")
        name = body.get("name", "change")
        if not isinstance(name, str):
            raise ProtocolError(f"{what}.name must be a string")
        try:
            return parse_program(body["program"]).spec(name)
        except ReproError as error:
            raise ProtocolError(f"{what}: {error}") from error
    raise ProtocolError(f"{what} needs a 'program' or 'pickle' field")


#: Options fields settable through the JSON form, by value type.
#: ``fault_plan`` is deliberately absent: fault schedules are harness
#: objects with no JSON form and ride the pickle escape hatch
#: (``pickle_b64(options)``).
_COUNT_FIELDS = frozenset(
    {
        "max_witnesses",
        "max_paths",
        "max_witness_length",
        "workers",
        "max_retries",
        "max_pool_rebuilds",
    }
)
_FLAG_FIELDS = frozenset(
    {
        "collect_counterexamples",
        "allow_degraded",
    }
)
_OPTION_FIELDS = _COUNT_FIELDS | _FLAG_FIELDS | {"granularity", "check_timeout", "retry_backoff"}


def _is_number(value: Any) -> bool:
    return isinstance(value, int | float) and not isinstance(value, bool)


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def decode_options(obj: Any, *, what: str = "options") -> VerificationOptions:
    """Decode engine options: a field dictionary, a pickle, or ``None``.

    Field values are type-checked here, so a wrongly typed option is a
    client error rather than a crash or a silently reinterpreted run.
    """
    if obj is None:
        return VerificationOptions()
    body = _require_mapping(obj, what)
    if "pickle" in body:
        options = _unpickle_b64(body["pickle"], what=what)
        if not isinstance(options, VerificationOptions):
            raise ProtocolError(f"{what}: pickle payload is not VerificationOptions")
        return options
    unknown = set(body) - _OPTION_FIELDS
    if unknown:
        raise ProtocolError(f"{what} has unknown fields: {', '.join(sorted(unknown))}")
    kwargs = dict(body)
    for field, value in kwargs.items():
        if field in _COUNT_FIELDS:
            valid, expected = _is_count(value), "a non-negative integer"
        elif field in _FLAG_FIELDS:
            valid, expected = isinstance(value, bool), "a boolean"
        elif field == "check_timeout":
            valid = value is None or (_is_number(value) and value > 0)
            expected = "null or a positive number"
        elif field == "retry_backoff":
            valid, expected = _is_number(value) and value >= 0, "a non-negative number"
        else:
            continue
        if not valid:
            raise ProtocolError(f"{what}.{field} must be {expected}, got {value!r}")
    if "granularity" in kwargs:
        try:
            kwargs["granularity"] = Granularity(kwargs["granularity"])
        except ValueError as error:
            raise ProtocolError(f"{what}.granularity: {error}") from error
    return VerificationOptions(**kwargs)


def decode_budget(body: dict, field: str) -> int | None:
    """Decode an optional non-negative integer budget field."""
    value = body.get(field)
    if value is None:
        return None
    if not _is_count(value):
        raise ProtocolError(f"{field} must be a non-negative integer")
    return value
