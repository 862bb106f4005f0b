"""Benchmark: the verification daemon's sustained throughput and pool reuse.

Three arms against one live ``repro serve`` child process:

* **Sustained multi-tenant replay** — N tenants each replay a rolling-drain
  stream through their own hosted session concurrently; measures sustained
  requests/sec and p99 request latency over loopback HTTP.
* **Warm one-shot verifies** — stateless ``/v1/verify`` requests at
  ``workers=2`` through the daemon's *shared* pool; after the arm, the
  daemon's ``/healthz`` pool counters must show exactly one pool ever
  created and zero rebuilds — the tentpole claim (pool lifted out of
  per-call scope) stated as an invariant.
* **Fork-per-request baseline** — the pre-daemon architecture: one
  fresh Python process per request, loading pre-serialized inputs and
  calling ``verify_change`` with the same options.  The daemon must beat
  it by >= 5x on mean request latency (interpreter + import + per-call
  pool construction is precisely the cost a resident daemon amortizes;
  input generation is excluded from both arms).

Absolute request throughput and latency are owned by the ``serve_replay``
workload of ``benchmarks/perf``.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.stream import rolling_drain_stream
from repro.workloads.traffic import generate_fecs

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Concurrent tenants in the replay arm.
TENANTS = 3
#: Epochs each tenant replays.
EPOCHS = 8
#: One-shot verifies through the shared pool.
ONESHOT = 12
#: Fork-per-request baseline samples.
FORK_REQUESTS = 4

#: The acceptance floor: a resident daemon must beat fork-per-request by
#: at least this factor on mean request latency.
MIN_FORK_SPEEDUP = 5.0

_FORK_DRIVER = """\
import pickle, sys
from repro.verifier import VerificationOptions, verify_change

with open(sys.argv[1], "rb") as handle:
    pre, post, spec = pickle.load(handle)
report = verify_change(pre, post, spec, options=VerificationOptions(workers=2))
sys.exit(0 if report.holds else 1)
"""


def start_daemon() -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(f"daemon exited during startup: {process.poll()}")
        if line.startswith("serving on "):
            return process, line.split("serving on ", 1)[1].strip()
    process.kill()
    raise RuntimeError("daemon did not report its endpoint in time")


@pytest.fixture(scope="module")
def serve_world():
    backbone = generate_backbone(
        BackboneParams(
            regions=3, routers_per_group=2, parallel_links=1, prefixes_per_region=2
        )
    )
    fecs = generate_fecs(backbone)
    initial = backbone.simulator().snapshot(fecs, name="initial")
    stream = rolling_drain_stream(backbone, initial, epochs=EPOCHS, rotation=2, seed=13)
    return initial, [(epoch.post, epoch.spec) for epoch in stream.epochs]


@pytest.fixture(scope="module")
def daemon():
    process, base_url = start_daemon()
    yield base_url
    process.terminate()
    process.wait(timeout=60)


def replay_tenant(base_url: str, tenant: str, initial, epochs) -> list[float]:
    """One tenant's full session replay; returns per-request latencies."""
    client = ServeClient(base_url)
    response = client.create_session(
        tenant, "bench", {"initial": {"data": initial.to_dict()}}
    )
    assert response.status == 200, response.payload
    latencies = []
    for post, spec in epochs:
        body = {
            "snapshot": {"data": post.to_dict()},
            "spec": protocol.pickle_b64(spec),
        }
        start = time.perf_counter()
        response = client.advance(tenant, "bench", body)
        latencies.append(time.perf_counter() - start)
        assert response.status == 200, response.payload
    return latencies


def test_serve_throughput_and_pool_reuse(serve_world, daemon, tmp_path):
    initial, epochs = serve_world
    base_url = daemon
    client = ServeClient(base_url)

    # ------------------------------------------------------------------
    # Arm 1: sustained multi-tenant session replay (serial engine options,
    # concurrency across tenants), measuring rps and p99 latency.
    # ------------------------------------------------------------------
    tenants = [f"tenant-{index}" for index in range(TENANTS)]
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=TENANTS) as executor:
        futures = [
            executor.submit(replay_tenant, base_url, tenant, initial, epochs)
            for tenant in tenants
        ]
        latencies = [latency for future in futures for latency in future.result()]
    replay_wall = time.perf_counter() - start
    requests = len(latencies)
    rps = requests / replay_wall
    p99 = sorted(latencies)[max(0, int(len(latencies) * 0.99) - 1)]

    # ------------------------------------------------------------------
    # Arm 2: warm one-shot verifies through the shared worker pool.
    # ------------------------------------------------------------------
    post, spec = epochs[0]
    oneshot_body = {
        "pre": {"data": initial.to_dict()},
        "post": {"data": post.to_dict()},
        "spec": protocol.pickle_b64(spec),
        "options": {"workers": 2},
    }
    client.verify(oneshot_body).raise_for_status()  # pool spin-up excluded
    start = time.perf_counter()
    for _ in range(ONESHOT):
        client.verify(oneshot_body).raise_for_status()
    oneshot_avg = (time.perf_counter() - start) / ONESHOT

    stats = client.healthz().payload["pool"]
    # The tentpole invariant: steady state never rebuilds the pool.
    assert stats["pools_created"] == 1, stats
    assert stats["pool_rebuilds"] == 0, stats

    # ------------------------------------------------------------------
    # Arm 3: fork-per-request baseline (the pre-daemon architecture).
    # ------------------------------------------------------------------
    inputs = tmp_path / "request.pickle"
    with open(inputs, "wb") as handle:
        pickle.dump((initial, post, spec), handle)
    driver = tmp_path / "fork_driver.py"
    driver.write_text(_FORK_DRIVER)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    fork_command = [sys.executable, str(driver), str(inputs)]
    subprocess.run(fork_command, env=env, check=True)  # warm the page cache
    start = time.perf_counter()
    for _ in range(FORK_REQUESTS):
        subprocess.run(fork_command, env=env, check=True)
    fork_avg = (time.perf_counter() - start) / FORK_REQUESTS

    speedup = fork_avg / oneshot_avg
    print(
        f"\nserve: {requests} replay requests in {replay_wall:.2f}s "
        f"({rps:.1f} rps, p99 {p99 * 1000:.1f} ms); one-shot avg "
        f"{oneshot_avg * 1000:.1f} ms vs fork-per-request {fork_avg * 1000:.1f} ms "
        f"=> {speedup:.1f}x; pool stats {stats}"
    )
    # The acceptance floor: resident daemon >= 5x fork-per-request.
    assert speedup >= MIN_FORK_SPEEDUP, (
        f"daemon only {speedup:.1f}x faster than fork-per-request "
        f"(floor {MIN_FORK_SPEEDUP}x): shared pool reuse is not paying for itself"
    )
