"""Daemon lifecycle: graceful drain, warm restart, malformed inputs.

Pinned here: SIGTERM mid-request lets the in-flight request finish and
the process exit 0; a ``--state-dir`` daemon restart resumes sessions
*warm* (adopted verdicts surface as ``cached_checks`` in the first
post-restart reports, and the replay stays byte-identical to an
uninterrupted direct session); malformed and oversized bodies get a
structured 400 — never a traceback, never a hang — and the daemon keeps
serving afterwards.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.persist.digest import VERDICT_RELEVANT_OPTION_FIELDS
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.host import SessionHost
from repro.verifier import VerificationOptions, VerificationSession

from serve_helpers import start_daemon  # pytest puts tests/serve on sys.path


def wire_bytes(payload: dict) -> bytes:
    return protocol.canonical_json(protocol.strip_timing(payload))


def report_bytes(report) -> bytes:
    return wire_bytes(protocol.encode_report(report))


def advance_body(post, spec) -> dict:
    return {"snapshot": {"data": post.to_dict()}, "spec": protocol.pickle_b64(spec)}


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
def test_sigterm_mid_request_drains_cleanly(daemon):
    """SIGTERM while a sweep is in flight: the response still arrives
    complete and correct, and the process exits 0."""
    client = daemon.client()
    started = threading.Event()

    def slow_request():
        started.set()
        return client.sweep(
            {
                "scenario": "drain",
                "fecs": 200,
                "regions": 3,
                "routers_per_group": 2,
                "parallel_links": 1,
                "prefixes_per_region": 2,
                "seed": 5,
            }
        )

    with ThreadPoolExecutor(max_workers=1) as executor:
        future = executor.submit(slow_request)
        started.wait(timeout=10)
        time.sleep(0.3)  # let the request reach the executor
        daemon.sigterm()
        response = future.result(timeout=300)
    assert response.status == 200, response.payload
    assert response.payload["sweep"]["format"] == "repro-sweep-report/v1"
    assert response.payload["sweep"]["contingencies"] > 0
    assert daemon.wait(timeout=60) == 0


def test_sigterm_idle_daemon_exits_zero(daemon):
    assert daemon.client().healthz().status == 200
    daemon.sigterm()
    assert daemon.wait(timeout=60) == 0


# ----------------------------------------------------------------------
# Warm restart via --state-dir
# ----------------------------------------------------------------------
def test_state_dir_restart_resumes_warm(stream_world, make_epochs, tmp_path):
    """Drain a daemon with hosted sessions, restart it on the same state
    directory, continue the stream: the replay stays byte-identical to an
    uninterrupted direct session, and post-restart cache-hit counters
    prove the adopted verdicts are doing real work."""
    _backbone, initial = stream_world
    # Rotation 2 revisits the same graph pairs from epoch 4 on: advance
    # through one full cycle before the restart so the epochs replayed
    # against the reloaded daemon are exactly the cacheable ones.
    epochs = make_epochs(epochs=6, buggy_epochs=frozenset())
    state_dir = str(tmp_path / "state")

    first = start_daemon("--state-dir", state_dir)
    try:
        client = first.client()
        assert (
            client.create_session("acme", "s", {"initial": {"data": initial.to_dict()}}).status
            == 200
        )
        served = []
        for post, spec in epochs[:4]:
            response = client.advance("acme", "s", advance_body(post, spec))
            assert response.status == 200, response.payload
            served.append(wire_bytes(response.payload["report"]))
    finally:
        assert first.stop() == 0  # drain saved the session

    second = start_daemon("--state-dir", state_dir)
    try:
        client = second.client()
        listed = client.list_sessions()
        assert [s["name"] for s in listed.payload["sessions"]] == ["s"]
        assert listed.payload["sessions"][0]["epochs"] == 4
        for post, spec in epochs[4:]:
            response = client.advance("acme", "s", advance_body(post, spec))
            assert response.status == 200, response.payload
            served.append(wire_bytes(response.payload["report"]))
    finally:
        assert second.stop() == 0

    direct_session = VerificationSession(initial)
    direct = [report_bytes(direct_session.advance(post, spec)) for post, spec in epochs]
    assert served == direct
    # Warmth, not just correctness: the post-restart epochs repeat graph
    # pairs already verified before the restart, so the restarted daemon
    # must be hitting the verdict cache it reloaded from disk — every
    # check cached, none re-executed.
    post_restart = json.loads(served[4])
    assert post_restart["cached_checks"] > 0
    assert post_restart["cached_checks"] == post_restart["unique_checks"]


# ----------------------------------------------------------------------
# Malformed and oversized inputs
# ----------------------------------------------------------------------
def test_malformed_bodies_get_structured_400_and_daemon_survives(daemon):
    client = daemon.client()
    cases = [
        ("POST", "/v1/verify", b"this is not json"),
        ("POST", "/v1/verify", b'{"pre": 1}'),  # wrong shape
        ("POST", "/v1/verify", b'["a", "list"]'),  # not an object
        ("POST", "/v1/sessions/t/s", b"{}"),  # missing initial
        ("POST", "/v1/sessions/bad..name!/s", b"{}"),  # invalid tenant
        ("POST", "/v1/verify", b'{"unknown_field": 1}'),
    ]
    import http.client

    host, port = daemon.base_url.removeprefix("http://").split(":")
    for method, path, raw in cases:
        connection = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            connection.request(
                method, path, body=raw, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert response.status == 400, (path, payload)
        assert payload["format"] == "repro-error/v1"
        assert payload["error"]["code"]
        assert "Traceback" not in payload["error"]["message"]
    assert client.healthz().status == 200  # still serving


@pytest.mark.parametrize(
    "options",
    [
        {"workers": "two"},
        {"workers": 2.5},
        {"workers": True},
        {"max_retries": -1},
        {"check_timeout": "1"},
        {"check_timeout": 0},
        {"collect_counterexamples": "no"},
        {"allow_degraded": 1},
        {"retry_backoff": "0.1"},
        {"retry_backoff": -0.5},
    ],
    ids=repr,
)
def test_wrongly_typed_options_get_structured_400(stream_world, options):
    """Option values are type-checked: no 500, no silently reinterpreted run."""
    _backbone, initial = stream_world
    body = {
        "pre": {"data": initial.to_dict()},
        "post": {"data": initial.to_dict()},
        "spec": {"program": "spec change := { .* : preserve ; }"},
        "options": options,
    }
    status, payload = SessionHost().handle_json(
        "POST", "/v1/verify", protocol.canonical_json(body)
    )
    assert status == 400, payload
    assert payload["error"]["code"] == "bad-request"
    assert next(iter(options)) in payload["error"]["message"]


@pytest.mark.parametrize(
    "field", ["lazy_spec_compilation", "memoize_fec_checks", "fast_path_identical_graphs"]
)
def test_retired_option_fields_get_structured_400(stream_world, field):
    """The retired engine switches are unknown fields, not a tenant-chosen
    slow path: setting one is a client error that names it."""
    _backbone, initial = stream_world
    body = {
        "pre": {"data": initial.to_dict()},
        "post": {"data": initial.to_dict()},
        "spec": {"program": "spec change := { .* : preserve ; }"},
        "options": {field: False},
    }
    status, payload = SessionHost().handle_json(
        "POST", "/v1/verify", protocol.canonical_json(body)
    )
    assert status == 400, payload
    assert payload["format"] == "repro-error/v1"
    assert payload["error"]["code"] == "bad-request"
    assert field in payload["error"]["message"]


def test_option_field_lists_move_in_lockstep():
    """Every engine option is settable on the wire (bar the harness-only
    fault plan), and every verdict-relevant one is a real option."""
    fields = {field.name for field in dataclasses.fields(VerificationOptions)}
    assert fields == protocol._OPTION_FIELDS | {"fault_plan"}
    assert set(VERDICT_RELEVANT_OPTION_FIELDS) <= fields


def test_well_typed_options_are_accepted(stream_world):
    _backbone, initial = stream_world
    body = {
        "pre": {"data": initial.to_dict()},
        "post": {"data": initial.to_dict()},
        "spec": {"program": "spec change := { .* : preserve ; }"},
        "options": {
            "workers": 1,
            "check_timeout": 30,
            "retry_backoff": 0,
            "collect_counterexamples": False,
        },
    }
    status, payload = SessionHost().handle_json(
        "POST", "/v1/verify", protocol.canonical_json(body)
    )
    assert status == 200, payload
    assert payload["report"]["verdict"] == "holds"


def test_oversized_body_gets_structured_400(daemon_factory):
    handle = daemon_factory("--max-body", "1024")
    client = handle.client()
    response = client.request("POST", "/v1/verify", {"padding": "x" * 4096})
    assert response.status == 400
    assert response.payload["format"] == "repro-error/v1"
    assert "exceeds" in response.payload["error"]["message"]
    assert client.healthz().status == 200


def test_unknown_routes_and_methods(daemon):
    client = daemon.client()
    assert client.request("GET", "/v1/nope").status == 404
    assert client.request("DELETE", "/v1/sessions/none/none").status == 404
    assert client.request("PUT", "/healthz").status == 400  # method mismatch
    response = client.advance("ghost", "ghost", {"snapshot": {"data": {}}})
    assert response.status == 404
    assert response.payload["error"]["code"] == "session-not-found"


def test_create_conflict_and_delete_roundtrip(stream_world, daemon):
    _backbone, initial = stream_world
    client = daemon.client()
    body = {"initial": {"data": initial.to_dict()}}
    assert client.create_session("t", "s", body).status == 200
    conflict = client.create_session("t", "s", body)
    assert conflict.status == 409
    assert conflict.payload["error"]["code"] == "session-exists"
    assert client.delete_session("t", "s").status == 200
    assert client.delete_session("t", "s").status == 404
    assert client.create_session("t", "s", body).status == 200  # name reusable


def test_unix_socket_endpoint(daemon_factory, tmp_path):
    socket_path = str(tmp_path / "repro.sock")
    handle = daemon_factory("--socket", socket_path)
    client = ServeClient(socket_path=socket_path)
    response = client.healthz()
    assert response.status == 200
    assert response.payload["status"] == "ok"
