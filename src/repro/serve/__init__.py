"""``repro serve`` — the verification daemon and its building blocks.

Layering (each importable on its own):

* :mod:`repro.serve.protocol` — canonical JSON codec for reports, errors
  and request payloads (the byte-equivalence contract lives here);
* :mod:`repro.serve.pool` — :class:`PoolManager`, the daemon-lifetime
  owner of the one :class:`~repro.verifier.runtime.ResilientPool` every
  request shares (the same class ``runtime.execute_checks`` opens per call);
* :mod:`repro.serve.quotas` — :class:`AdmissionLedger`, bounded request
  queue + per-tenant limits behind HTTP 429;
* :mod:`repro.serve.host` — :class:`SessionHost`, the transport-free
  request router over named per-tenant sessions;
* :mod:`repro.serve.server` — the asyncio HTTP/1.1 front end with
  graceful drain;
* :mod:`repro.serve.client` — a stdlib convenience client.
"""

from repro.serve.client import ServeClient, ServeResponse
from repro.serve.host import HostedSession, SessionHost
from repro.serve.pool import PoolManager
from repro.serve.protocol import (
    canonical_json,
    encode_report,
    encode_stream_report,
    encode_sweep_report,
    pickle_b64,
    strip_timing,
)
from repro.serve.quotas import AdmissionLedger
from repro.serve.server import EmbeddedServer, ServeConfig, VerificationServer

__all__ = [
    "AdmissionLedger",
    "EmbeddedServer",
    "HostedSession",
    "PoolManager",
    "ServeClient",
    "ServeConfig",
    "ServeResponse",
    "SessionHost",
    "VerificationServer",
    "canonical_json",
    "encode_report",
    "encode_stream_report",
    "encode_sweep_report",
    "pickle_b64",
    "strip_timing",
]
