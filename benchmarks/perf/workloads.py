"""The five workloads: inputs from a seed, one round of operations, the check.

A workload's *round* is a fixed list of operations -- the unit whose
completion a user waits for -- generated from the seed by the public
``repro.workloads`` constructors.  The runner repeats whole rounds until its
time is up and reports medians over them, so the work per round (and with it
every count) is the same however long the run lasts.  Every operation's
verdict is compared with the generator's by-construction expectation, never
with another run of the verifier.

Why these five, and why these sizes, is recorded in ``BENCHMARK.json``
(one line each) and in ``README.md`` (in full).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from spans import Span, Tracer, load

from repro.analytics import gate
from repro.serve import protocol
from repro.verifier import VerificationOptions, k_link_failures, single_link_failures, verify_change
from repro.workloads import (
    BackboneParams,
    ScaleProfile,
    drain_sweep_scenario,
    generate_backbone,
    generate_fecs,
    generate_scale_snapshot,
    multi_shift,
    no_change,
    path_prune,
    prefix_decommission,
    rolling_drain_stream,
    scale_backbone,
    traffic_shift,
)
from repro.workloads.contingencies import intra_region_bundles

REPO_ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent

#: An operation slower than this counts as failed, whatever its verdict.
OP_TIMEOUT_S = 60.0


class Op(NamedTuple):
    latency_s: float
    #: FEC verdicts the operation delivered.
    fecs: int
    #: Completed in time with the verdict the generator built in.
    ok: bool


@dataclass
class CheckCounts:
    """Check accounting summed over a round's reports (public report fields)."""

    unique: int = 0
    cached: int = 0
    failed: int = 0
    retried: int = 0
    #: What independent one-shot runs would have executed; sweeps report it,
    #: elsewhere every operation's unique checks are its naive cost.
    naive: int = 0

    def add(self, unique: int, cached: int, failed: int, retried: int) -> None:
        self.unique += unique
        self.cached += cached
        self.failed += failed
        self.retried += retried
        self.naive += unique

    def add_report(self, report) -> None:
        self.add(
            report.unique_checks,
            report.cached_checks,
            len(report.failed_checks),
            report.retried_checks,
        )

    def metrics(self) -> dict[str, float]:
        executed = self.unique - self.cached
        return {
            "verifier.unique_checks": self.unique,
            "verifier.executed_checks": executed,
            "verifier.cached_checks": self.cached,
            "verifier.cache_hit_share": self.cached / self.unique if self.unique else 0.0,
            "verifier.naive_checks": self.naive,
            "verifier.dedup_ratio": self.naive / executed if executed else 0.0,
            "verifier.failed_checks": self.failed,
            "verifier.retried_checks": self.retried,
        }


@dataclass
class Round:
    """What one round measured."""

    start: float
    end: float
    ops: list[Op]
    #: Count metrics of this round, by ``BENCHMARK.json`` name.
    counts: dict[str, float]

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Workload:
    """Base class: in-process workloads only override ``setup`` and ``run_round``."""

    name = ""

    def __init__(self, seed: int, *, quick: bool, work_dir: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.work_dir = work_dir

    def setup(self, *, traced: bool = False) -> None:
        """Build every input of a round from the seed (timed as ``setup_s``)."""
        raise NotImplementedError

    def run_round(self, tracer: Tracer | None) -> Round:
        raise NotImplementedError

    def close(self) -> list[Span]:
        """Release what ``setup`` started; spans recorded in other processes."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: The operation a round records for one that raised.
FAILED_OP = Op(OP_TIMEOUT_S, 0, False)


def _timed_op(tracer: Tracer | None, call) -> tuple[float, object]:
    """Run one operation under a root ``op`` span; (latency, its result).

    An operation that raises is a failed operation, not the end of the run:
    the traceback goes to standard error and the result is ``None``.
    """
    started = time.perf_counter()
    try:
        if tracer is None:
            result = call()
        else:
            with tracer.op():
                result = call()
    except Exception:
        traceback.print_exc()
        result = None
    return time.perf_counter() - started, result


def _verify_round(tracer: Tracer | None, scenarios, *, db, options, distinct_graphs: int) -> Round:
    """One cold ``verify_change`` per scenario, each checked against ``expect_holds``."""
    counts = CheckCounts()
    ops = []
    start = time.perf_counter()
    for scenario in scenarios:
        latency, report = _timed_op(
            tracer,
            lambda s=scenario: verify_change(s.pre, s.post, s.spec, db=db, options=options),
        )
        if report is None:
            ops.append(FAILED_OP)
            continue
        counts.add_report(report)
        ok = report.holds == scenario.expect_holds and latency < OP_TIMEOUT_S
        ops.append(Op(latency, report.total_fecs, ok))
    end = time.perf_counter()
    metrics = counts.metrics()
    metrics["snapshots.distinct_graphs"] = distinct_graphs
    return Round(start, end, ops, metrics)


# ----------------------------------------------------------------------
# change_mix
# ----------------------------------------------------------------------
class ChangeMix(Workload):
    """The paper's Figure 6 population: cold one-shot verifies of a change mix.

    The archetype shares follow ``generate_change_dataset`` (half no-change
    refactors, a fifth single shifts, a tenth each decommissions, filters and
    multi-shift windows) but the *composition* is fixed: that generator draws
    the archetype per change, so two seeds differ several-fold in work
    (a 36-shift window alone costs more than the other 63 changes together)
    and no bound could tell a regression from a lucky draw.  The seed picks
    every region, router and prefix involved and the order of the changes.
    """

    name = "change_mix"

    def setup(self, *, traced: bool = False) -> None:
        rng = random.Random(self.seed)
        if self.quick:
            params = BackboneParams(regions=4, prefixes_per_region=2)
            mix = {"no_change": 5, "shift": 2, "decommission": 1, "prune": 1, "multi": (3,)}
        else:
            params = BackboneParams(regions=8, prefixes_per_region=4)
            mix = {"no_change": 37, "shift": 16, "decommission": 4, "prune": 4, "multi": (3, 6, 9)}
        backbone = generate_backbone(params)
        pre = backbone.simulator().snapshot(generate_fecs(backbone), name="pre")
        regions = backbone.regions()

        def borders(region: str) -> list[str]:
            return backbone.routers_in(region, "border")

        # What a change costs depends on the regions it touches, and the
        # backbone (a ring plus chords, split over two ASes) is not symmetric:
        # so the region pairs are fixed -- every region drains onto the one
        # across the ring, as in rolling_drain_stream -- and the seed picks
        # which pairs a change uses, never how many distinct ones.
        half = len(regions) // 2
        partner = {
            region: regions[(index + half) % len(regions)] for index, region in enumerate(regions)
        }
        sources = rng.sample(regions, len(regions))

        def shift(index: int, **bugs):
            source = sources[index % len(sources)]
            return traffic_shift(pre, borders(source), borders(partner[source]), **bugs)

        def decommission(**bugs):
            prefix = rng.choice(backbone.region_prefixes[rng.choice(regions)])
            return prefix_decommission(pre, str(prefix), **bugs)

        def prune(**bugs):
            return path_prune(pre, backbone.routers_in(rng.choice(regions), "core")[0], **bugs)

        def multi(num_shifts: int):
            # Sources in the first half of the regions, targets in the other:
            # the shifts are independent, so the window complies by
            # construction.  The seed pairs them up.
            targets = rng.sample(regions[half:], half)
            return multi_shift(
                pre,
                [
                    (borders(regions[index % half]), borders(targets[index % half]))
                    for index in range(num_shifts)
                ],
            )

        scenarios = [no_change(pre) for _ in range(mix["no_change"])]
        scenarios += [shift(index) for index in range(mix["shift"])]
        scenarios += [decommission() for _ in range(mix["decommission"])]
        scenarios += [prune() for _ in range(mix["prune"])]
        scenarios += [multi(size) for size in mix["multi"]]
        # Buggy variants put the witness / branch-attribution path in the
        # mix.  traffic_shift(buggy_leave_unmoved=...) is left out: its
        # expectation is wrong on this backbone (see README.md).
        scenarios += [
            no_change(pre, buggy=True),
            shift(mix["shift"], buggy_collateral=3),
            prune(buggy_keep_paths=True),
            decommission(buggy_still_forwarding=True),
        ]
        rng.shuffle(scenarios)
        self.scenarios = scenarios
        self.db = backbone.location_db()
        self.options = VerificationOptions()
        self.distinct_graphs = pre.distinct_graph_count()

    def run_round(self, tracer: Tracer | None) -> Round:
        return _verify_round(
            tracer,
            self.scenarios,
            db=self.db,
            options=self.options,
            distinct_graphs=self.distinct_graphs,
        )


# ----------------------------------------------------------------------
# scale_oneshot
# ----------------------------------------------------------------------
class ScaleOneshot(Workload):
    """Every region's traffic in turn shifted on a 10^5-FEC snapshot, verified cold.

    ``generate_scale_change`` drains the last region onto the first.  What a
    drain costs depends on the region (0.18-0.23 s on this backbone), so a
    round drains each of the eight regions once, onto the region across the
    ring, and the seed only picks the order: the work of a round is the same
    for every seed.
    """

    name = "scale_oneshot"

    def setup(self, *, traced: bool = False) -> None:
        num_fecs = 5_000 if self.quick else 100_000
        backbone = scale_backbone(ScaleProfile(num_fecs=num_fecs))
        pre = generate_scale_snapshot(backbone, num_fecs=num_fecs, name="scale-pre")
        regions = backbone.regions()
        half = len(regions) // 2
        order = random.Random(self.seed).sample(range(len(regions)), 2 if self.quick else 8)
        self.scenarios = [
            traffic_shift(
                pre,
                backbone.routers_in(regions[index], "border"),
                backbone.routers_in(regions[(index + half) % len(regions)], "border"),
            )
            for index in order
        ]
        self.options = VerificationOptions(collect_counterexamples=False)
        self.distinct_graphs = pre.distinct_graph_count()

    def run_round(self, tracer: Tracer | None) -> Round:
        return _verify_round(
            tracer,
            self.scenarios,
            db=None,
            options=self.options,
            distinct_graphs=self.distinct_graphs,
        )


# ----------------------------------------------------------------------
# sweep_k1 / sweep_k2
# ----------------------------------------------------------------------
class _Sweep(Workload):
    """A drain verified under a failure model through one shared sweep.

    An operation is one contingency; its latency is the time between two
    ``on_contingency`` callbacks (the first one counts from the start of the
    run, so it carries the baseline routing and snapshot).
    """

    checkpointed = False

    def build(self):
        """(scenario, contingencies) from the seed."""
        raise NotImplementedError

    def setup(self, *, traced: bool = False) -> None:
        self.scenario, self.contingencies = self.build()

    def run_round(self, tracer: Tracer | None) -> Round:
        stamps: list[float] = []
        sweep = self.scenario.sweep(self.contingencies)
        journal_bytes = 0
        with tempfile.TemporaryDirectory(dir=self.work_dir) as scratch:
            checkpoint = os.path.join(scratch, "sweep.ckpt") if self.checkpointed else None
            start = time.perf_counter()
            try:
                report = sweep.run(
                    checkpoint=checkpoint,
                    on_contingency=lambda index, result, resumed: stamps.append(
                        time.perf_counter()
                    ),
                )
                if self.checkpointed:
                    # Through the module: the tracer patches `repro.*`
                    # namespaces, not an alias imported into this file.
                    gate.gate_sweep(report)
            except Exception:
                # The sweep is one call: when it raises, no contingency of
                # the round was answered.
                traceback.print_exc()
                failed = [FAILED_OP] * (len(self.contingencies) + 1)
                return Round(start, time.perf_counter(), failed, {})
            end = time.perf_counter()
            if checkpoint is not None:
                journal_bytes = os.path.getsize(checkpoint)
        boundaries = [start, *stamps]
        counts = CheckCounts()
        ops = []
        for result, begun, done in zip(report.results, boundaries, stamps):
            counts.add_report(result.report)
            # What SweepReport.expectation_mismatches tests, per contingency.
            ok = result.holds == result.expected_holds and done - begun < OP_TIMEOUT_S
            ops.append(Op(done - begun, result.report.total_fecs, ok))
        counts.naive = report.naive_checks
        metrics = counts.metrics()
        metrics["snapshots.distinct_graphs"] = report.distinct_graphs
        metrics["persist.journal_bytes"] = journal_bytes
        if tracer is not None:
            tracer.mark_ops(boundaries)
        return Round(start, end, ops, metrics)


class SweepK1(_Sweep):
    """Single-link failures over the 20k-FEC scale backbone, journaled, gated."""

    name = "sweep_k1"
    checkpointed = True

    def build(self):
        num_fecs, failures = (1_000, 4) if self.quick else (20_000, 24)
        rng = random.Random(self.seed)
        backbone = scale_backbone(ScaleProfile(num_fecs=num_fecs))
        scenario = drain_sweep_scenario(backbone, num_fecs=num_fecs)
        every = single_link_failures(backbone.topology)
        picked = sorted(rng.sample(range(len(every)), failures))
        return scenario, [every[index] for index in picked]


class SweepK2(_Sweep):
    """Singles and pairs of intra-region bundles: the routing-bound sweep."""

    name = "sweep_k2"

    def build(self):
        regions, prefixes, bundles = (4, 2, 3) if self.quick else (8, 6, 6)
        rng = random.Random(self.seed)
        backbone = generate_backbone(BackboneParams(regions=regions, prefixes_per_region=prefixes))
        candidates = sorted(rng.sample(intra_region_bundles(backbone), bundles))
        contingencies = single_link_failures(backbone.topology, candidates=candidates)
        contingencies += k_link_failures(backbone.topology, 2, candidates=candidates)
        scenario = drain_sweep_scenario(backbone, num_fecs=8)
        # The anycast, full-ECMP traffic matrix of bench_k2_sweep.
        scenario.fecs = generate_fecs(backbone)
        return scenario, contingencies


# ----------------------------------------------------------------------
# serve_replay
# ----------------------------------------------------------------------
class ServeReplay(Workload):
    """Closed-loop clients replaying a rolling drain against a real daemon.

    Closed loop: a caller waits for a verdict before it
    sends the next change.  Each client owns a tenant and, per round, a fresh
    hosted session (created before the round is timed), so every round pays
    the same cold first cycle and serves the same warm later ones.  Request
    bodies are encoded during set-up.
    """

    name = "serve_replay"
    #: The dev container's core count; fixed so the workload is the same everywhere.
    clients = 2

    def setup(self, *, traced: bool = False) -> None:
        # Three of the eight regions drain and restore in turn: the first
        # cycle of six epochs is cold, the rest is served from the session's
        # cache.  Three ops in ten are cold, so the median op is a warm one
        # and the 80th percentile a cold one.
        num_fecs, rotation, epochs = (200, 1, 4) if self.quick else (1_000, 3, 20)
        backbone = scale_backbone(ScaleProfile(num_fecs=num_fecs))
        initial = generate_scale_snapshot(backbone, num_fecs=num_fecs, name="initial")
        stream = rolling_drain_stream(
            backbone,
            initial,
            epochs=epochs,
            rotation=rotation,
            seed=self.seed,
            buggy_epochs={2 * rotation - 2},
        )
        self.create_body = protocol.canonical_json({"initial": {"data": initial.to_dict()}})
        self.requests = [
            (
                protocol.canonical_json(
                    {
                        "snapshot": {"data": epoch.post.to_dict()},
                        "spec": protocol.pickle_b64(epoch.spec),
                    }
                ),
                epoch.expect_holds,
            )
            for epoch in stream.epochs
        ]
        self.rounds_run = 0
        self.spans_path = self.work_dir / f"daemon-{os.getpid()}.spans.json" if traced else None
        if traced:
            command = [sys.executable, str(HERE / "traced_daemon.py"), str(self.spans_path)]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONUNBUFFERED="1")
        self.daemon = subprocess.Popen(
            [*command, "--port", "0"], stdout=subprocess.PIPE, text=True, env=env
        )
        line = self.daemon.stdout.readline()
        if not line.startswith("serving on http://"):
            self.close()
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, _, port = line.strip().removeprefix("serving on http://").partition(":")
        self.address = (host, int(port))

    def _request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, dict]:
        connection = http.client.HTTPConnection(*self.address, timeout=OP_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def _client(self, path: str, tracer: Tracer | None, ops: list, reports: list) -> None:
        for body, expect_holds in self.requests:
            latency, answer = _timed_op(
                tracer, lambda b=body: self._request("POST", f"{path}/advance", b)
            )
            if answer is None:  # no connection, no HTTP, no JSON
                ops.append(FAILED_OP)
                continue
            status, payload = answer
            report = payload.get("report", {}) if status == 200 else {}
            reports.append(report)
            ok = status == 200 and report.get("holds") == expect_holds
            ops.append(Op(latency, report.get("total_fecs", 0), ok))

    def run_round(self, tracer: Tracer | None) -> Round:
        paths = [
            f"/v1/sessions/tenant-{index}/round-{self.rounds_run}" for index in range(self.clients)
        ]
        self.rounds_run += 1
        for path in paths:
            status, _ = self._request("POST", path, self.create_body)
            if status != 200:
                raise RuntimeError(f"session create answered {status}")
        before = self._request("GET", "/healthz")[1]
        per_client: list[tuple[list, list]] = [([], []) for _ in paths]
        threads = [
            threading.Thread(target=self._client, args=(path, tracer, ops, reports))
            for path, (ops, reports) in zip(paths, per_client)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        after = self._request("GET", "/healthz")[1]
        for path in paths:
            self._request("DELETE", path)

        ops = [op for client_ops, _ in per_client for op in client_ops]
        counts = CheckCounts()
        for _, reports in per_client:
            for report in reports:
                counts.add(
                    report.get("unique_checks", 0),
                    report.get("cached_checks", 0),
                    len(report.get("failed_checks", ())),
                    report.get("retried_checks", 0),
                )
        metrics = counts.metrics()
        pool_before, pool_after = before["pool"] or {}, after["pool"] or {}
        for key in ("pools_created", "pool_rebuilds", "bypassed_requests"):
            metrics[f"serve.pool.{key}"] = pool_after.get(key, 0) - pool_before.get(key, 0)
        metrics["serve.admission.rejected"] = (
            after["admission"]["rejected"] - before["admission"]["rejected"]
        )
        metrics["serve.request_bytes"] = self.clients * sum(
            len(body) for body, _ in self.requests
        )
        return Round(start, end, ops, metrics)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.daemon.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("daemon has no VmHWM")

    def close(self) -> list[Span]:
        daemon = self.daemon
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)  # graceful drain; a traced daemon dumps
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        daemon.stdout.close()
        if self.spans_path is None or not self.spans_path.exists():
            return []
        spans = load(str(self.spans_path))
        self.spans_path.unlink()
        return spans


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ChangeMix, ScaleOneshot, SweepK1, SweepK2, ServeReplay)
}
