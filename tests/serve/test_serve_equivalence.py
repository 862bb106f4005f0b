"""Serve-vs-direct equivalence: the daemon adds transport, never semantics.

Every test replays a workload twice — once through a *real* ``repro
serve`` child process over loopback HTTP, once through the in-process
path — and asserts the reports are **byte-identical** after stripping
timing: ``canonical_json(strip_timing(a)) == canonical_json(strip_timing(b))``.
Covered: clean and buggy stream epochs, the shared-pool worker path,
degraded (fault-injected) runs, contingency sweeps, and the stateless
one-shot endpoint.
"""

from __future__ import annotations

import pytest

from repro.serve import protocol
from repro.serve.host import SessionHost
from repro.testing.faults import POISON, Fault, FaultPlan
from repro.verifier import (
    VerificationOptions,
    VerificationSession,
    single_link_failures,
    verify_change,
)
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.contingencies import drain_sweep_scenario


def wire_bytes(payload: dict) -> bytes:
    return protocol.canonical_json(protocol.strip_timing(payload))


def report_bytes(report) -> bytes:
    return wire_bytes(protocol.encode_report(report))


def advance_body(post, spec) -> dict:
    return {
        "snapshot": {"data": post.to_dict()},
        "spec": protocol.pickle_b64(spec),
    }


def replay_direct(initial, epochs, *, options=None) -> list[bytes]:
    """The ground truth: one long-lived in-process session, instances reused."""
    session = VerificationSession(initial, options=options)
    return [report_bytes(session.advance(post, spec)) for post, spec in epochs]


def replay_host(initial, epochs, *, options=None) -> list[bytes]:
    """The in-process service path: same handler code, no HTTP."""
    host = SessionHost()
    body = {"initial": {"data": initial.to_dict()}}
    if options is not None:
        body["options"] = protocol.pickle_b64(options)
    status, _ = host.handle_json(
        "POST", "/v1/sessions/t/s", protocol.canonical_json(body)
    )
    assert status == 200
    out = []
    for post, spec in epochs:
        status, payload = host.handle_json(
            "POST",
            "/v1/sessions/t/s/advance",
            protocol.canonical_json(advance_body(post, spec)),
        )
        assert status == 200, payload
        out.append(wire_bytes(payload["report"]))
    return out


def replay_daemon(client, initial, epochs, *, options=None, tenant="t", name="s"):
    """The full stack: child process, HTTP framing, executor, shared pool."""
    body = {"initial": {"data": initial.to_dict()}}
    if options is not None:
        body["options"] = protocol.pickle_b64(options)
    assert client.create_session(tenant, name, body).status == 200
    out = []
    for post, spec in epochs:
        response = client.advance(tenant, name, advance_body(post, spec))
        assert response.status == 200, response.payload
        out.append(wire_bytes(response.payload["report"]))
    return out


# ----------------------------------------------------------------------
# Stream workloads
# ----------------------------------------------------------------------
def test_stream_replay_byte_identical_including_buggy_epochs(stream_world, daemon, make_epochs):
    """Clean and violating epochs alike round-trip byte-for-byte."""
    _backbone, initial = stream_world
    epochs = make_epochs(epochs=5, buggy_epochs={2, 4})
    direct = replay_direct(initial, epochs)
    hosted = replay_host(initial, epochs)
    served = replay_daemon(daemon.client(), initial, epochs)
    assert hosted == direct
    assert served == direct
    # The buggy epochs really did violate — this is not a vacuous pass.
    import json

    verdicts = [json.loads(blob)["holds"] for blob in direct]
    assert verdicts == [True, True, False, True, False]


def test_recurring_specs_hit_caches_like_a_direct_caller(stream_world, daemon, make_epochs):
    """Digest interning restores instance identity for recurring specs.

    A rotation-2 stream re-sends the same two spec contents forever; the
    direct caller reuses the same two *instances*.  The daemon decodes a
    fresh instance per request, so only interning makes its cache
    behaviour (cached_checks, compiled context count) match — and the
    byte-equality above would fail without it.  This test pins the cache
    counters explicitly.
    """
    import json

    _backbone, initial = stream_world
    epochs = make_epochs(epochs=6, buggy_epochs=frozenset())
    direct = replay_direct(initial, epochs)
    served = replay_daemon(daemon.client(), initial, epochs)
    assert served == direct
    cached = [json.loads(blob)["cached_checks"] for blob in direct]
    # Later cycles must reuse verdicts; if interning broke, these are all 0.
    assert sum(cached[2:]) > 0


def test_worker_path_byte_identical(stream_world, daemon, make_epochs):
    """workers=2 through the daemon's shared pool == direct workers=2."""
    _backbone, initial = stream_world
    epochs = make_epochs(epochs=3, buggy_epochs={1})
    options = VerificationOptions(workers=2)
    direct = replay_direct(initial, epochs, options=options)
    served = replay_daemon(daemon.client(), initial, epochs, options=options)
    assert served == direct
    stats = daemon.client().healthz().payload["pool"]
    assert stats["pools_created"] == 1
    assert stats["pool_rebuilds"] == 0


def test_degraded_run_byte_identical(stream_world, daemon, make_epochs):
    """A fault-injected (degraded) run serves byte-identically.

    The plan poisons one flow equivalence class past any retry budget, so
    both paths must produce the same honestly-flagged unknown verdict —
    degraded reports are part of the equivalence contract, not an excuse.
    """
    import json

    _backbone, initial = stream_world
    epochs = make_epochs(epochs=2, buggy_epochs=frozenset())
    victim = initial.fec_ids()[0]
    options = VerificationOptions(
        max_retries=0,
        fault_plan=FaultPlan(faults=(Fault(kind="error", fec_id=victim, attempts=POISON),)),
    )
    direct = replay_direct(initial, epochs, options=options)
    served = replay_daemon(daemon.client(), initial, epochs, options=options)
    assert served == direct
    first = json.loads(direct[0])
    assert first["degraded"] is True
    assert first["unknown_fecs"] > 0


# ----------------------------------------------------------------------
# One-shot verify
# ----------------------------------------------------------------------
def test_one_shot_verify_matches_verify_change(stream_world, daemon, make_epochs):
    _backbone, initial = stream_world
    epochs = make_epochs(epochs=1, buggy_epochs=frozenset())
    post, spec = epochs[0]
    response = daemon.client().verify(
        {
            "pre": {"data": initial.to_dict()},
            "post": {"data": post.to_dict()},
            "spec": protocol.pickle_b64(spec),
        }
    )
    assert response.status == 200
    direct = verify_change(initial, post, spec)
    assert wire_bytes(response.payload["report"]) == report_bytes(direct)


def test_one_shot_verify_worker_path(stream_world, daemon, make_epochs):
    _backbone, initial = stream_world
    epochs = make_epochs(epochs=1, buggy_epochs={0})
    post, spec = epochs[0]
    options = VerificationOptions(workers=2)
    response = daemon.client().verify(
        {
            "pre": {"data": initial.to_dict()},
            "post": {"data": post.to_dict()},
            "spec": protocol.pickle_b64(spec),
            "options": {"workers": 2},
        }
    )
    assert response.status == 200
    direct = verify_change(initial, post, spec, options=options)
    assert wire_bytes(response.payload["report"]) == report_bytes(direct)


@pytest.mark.parametrize("attempts", [1, POISON], ids=["transient", "poison"])
def test_worker_crash_in_shared_pool_byte_identical(
    stream_world, daemon, make_epochs, attempts
):
    """A worker death inside the daemon's pool is recovered there.

    Crash exposure rides with every batch, so the shared pool numbers a
    re-run check's attempts exactly as the per-call pool does: the served
    report (rebuild count and ``CheckFailure.attempts`` included) equals
    ``verify_change``'s, and the rebuilt pool serves the next request.
    """
    _backbone, initial = stream_world
    post, spec = make_epochs(epochs=1, buggy_epochs=frozenset())[0]
    plan = FaultPlan((Fault(kind="crash", fec_id=initial.fec_ids()[0], attempts=attempts),))
    options = VerificationOptions(
        workers=2, retry_backoff=0.0, memoize_fec_checks=False, fault_plan=plan
    )
    client = daemon.client()
    body = {
        "pre": {"data": initial.to_dict()},
        "post": {"data": post.to_dict()},
        "spec": protocol.pickle_b64(spec),
    }
    response = client.verify({**body, "options": protocol.pickle_b64(options)})
    assert response.status == 200, response.payload
    direct = verify_change(initial, post, spec, options=options)
    assert direct.pool_rebuilds >= 1
    assert direct.degraded is (attempts == POISON)
    assert wire_bytes(response.payload["report"]) == report_bytes(direct)
    crashed = client.healthz().payload["pool"]
    assert crashed["pool_rebuilds"] >= 1
    assert crashed["bypassed_requests"] == 0

    response = client.verify({**body, "options": {"workers": 2}})
    assert response.status == 200, response.payload
    clean = verify_change(initial, post, spec, options=VerificationOptions(workers=2))
    assert wire_bytes(response.payload["report"]) == report_bytes(clean)
    after = client.healthz().payload["pool"]
    assert after["requests"] == crashed["requests"] + 1
    assert after["bypassed_requests"] == 0
    assert after["pool_rebuilds"] == crashed["pool_rebuilds"]


# ----------------------------------------------------------------------
# Contingency sweeps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("buggy", [False, True], ids=["clean", "buggy"])
def test_sweep_byte_identical(daemon, buggy):
    """A full what-if sweep round-trips byte-for-byte, clean and buggy."""
    params = dict(regions=3, routers_per_group=2, parallel_links=1, prefixes_per_region=2)
    seed = 23
    fecs = 120
    response = daemon.client().sweep(
        {
            "scenario": "drain",
            "buggy": buggy,
            "fecs": fecs,
            "seed": seed,
            "failures": "single",
            **params,
        }
    )
    assert response.status == 200, response.payload

    backbone = generate_backbone(BackboneParams(seed=seed, **params))
    scenario = drain_sweep_scenario(backbone, num_fecs=fecs, buggy=buggy, seed=seed)
    contingencies = single_link_failures(backbone.topology)
    options = VerificationOptions()
    options.granularity = scenario.granularity
    sweep = scenario.sweep(contingencies, options=options)
    direct = sweep.run()
    assert wire_bytes(response.payload["sweep"]) == wire_bytes(
        protocol.encode_sweep_report(direct)
    )
    if buggy:
        assert direct.holds is False


# ----------------------------------------------------------------------
# The runner seam itself
# ----------------------------------------------------------------------
def test_runner_seam_defaults_to_engine_path(stream_world, make_epochs):
    """session.runner=None is exactly the pre-serve engine behaviour."""
    _backbone, initial = stream_world
    epochs = make_epochs(epochs=2, buggy_epochs={1})
    plain = VerificationSession(initial)
    assert plain.runner is None
    calls = []

    def spying_runner(work, table, compiled_specs, builder, options):
        from repro.verifier.runtime import execute_checks

        calls.append(len(work))
        return execute_checks(work, table, compiled_specs, builder, options)

    spied = VerificationSession(initial)
    spied.runner = spying_runner
    for post, spec in epochs:
        a = report_bytes(plain.advance(post, spec))
        b = report_bytes(spied.advance(post, spec))
        assert a == b
    assert len(calls) == len(epochs)
