"""Command-line interface for the Rela reproduction.

Subcommands mirror the operator workflow described in the paper:

* ``simulate`` — generate a synthetic backbone, simulate its forwarding state
  and write a snapshot JSON file;
* ``pathdiff`` — compare two snapshot files the way the manual-inspection
  workflow does (Section 2.3);
* ``verify`` — check a pre/post snapshot pair against a Rela spec written in
  the textual format (Section 4), printing violations in the Table 1 layout;
* ``casestudy`` — replay the Figure 1 change iterations end to end;
* ``stream`` — generate a rolling-maintenance change stream and verify it
  through one incremental :class:`~repro.verifier.session.VerificationSession`,
  reporting per-epoch verdicts and the cumulative cache statistics;
* ``sweep`` — verify a change under a failure model (all single link
  failures, k-link combinations, or planned-maintenance link sets) through
  one shared :class:`~repro.verifier.contingency.ContingencySweep`,
  reporting the most-violating contingencies and the sweep-wide dedup
  ratio;
* ``gate`` — wrap ``verify`` or ``sweep`` in the risk/safety-gate layer
  (:mod:`repro.analytics`): score the change from its proven verification
  artifacts, print a human risk table (or ``--json`` machine output) and
  encode the graded decision in the exit code — ``0`` = pass, ``3`` =
  conditional, ``5`` = hold/block — so any CI pipeline can use the verdict
  as a merge gate.

Exit codes form a contract the change-automation callers script against
(also printed in ``--help``):

* ``0`` — the specification holds (every class proven);
* ``1`` — violations found;
* ``2`` — usage or library error (malformed inputs, missing files,
  unparsable specs: one-line ``error: ...`` message, no traceback);
* ``3`` — degraded run: verification completed without finding a
  violation, but some checks ended *unknown* (crashes, timeouts) or
  execution fell back to serial after repeated worker-pool loss —
  the verdict is not a proof;
* ``4`` — unrecoverable execution failure: the worker pool was lost
  beyond recovery, ``--no-degrade`` aborted a run that would have
  had to degrade, or a ``--checkpoint``/``--state`` file is unusable
  (not a journal at all, or written by an incompatible run);
* ``130`` — interrupted (Ctrl-C or SIGTERM), no traceback.  A
  checkpointed ``stream``/``sweep`` run flushes a final journal record
  before exiting, so ``--resume`` continues from the interruption point.

``gate`` speaks its own graded contract on top: ``0`` = pass, ``3`` =
conditional (ship once the listed conditions are satisfied), ``5`` =
hold/block (do not ship); ``2``/``4``/``130`` keep their meanings.

The ``verify``/``stream``/``sweep``/``gate`` commands share the resilience
knobs ``--check-timeout``, ``--max-retries`` and ``--no-degrade`` (see
:mod:`repro.verifier.runtime`).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from concurrent.futures.process import BrokenProcessPool

from repro.analytics import fec_region_index, gate_report, gate_sweep
from repro.errors import DegradedExecutionError, PersistenceError, ReproError
from repro.persist import options_digest, stable_digest
from repro.persist.statestore import StateStore
from repro.rela.locations import Granularity
from repro.rela.parser import parse_program
from repro.snapshots.pathdiff import path_diff
from repro.snapshots.snapshot import Snapshot
from repro.verifier import (
    VerificationOptions,
    k_link_failures,
    single_link_failures,
    verify_change,
    verify_stream,
)
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.contingencies import (
    decommission_sweep_scenario,
    drain_sweep_scenario,
    interconnect_maintenance_sets,
    refactor_sweep_scenario,
)
from repro.workloads.figure1 import build_scenario
from repro.workloads.stream import (
    StreamProfile,
    flapping_link_stream,
    generate_stream,
    prefix_migration_stream,
    rolling_drain_stream,
)
from repro.workloads.traffic import generate_fecs


def _report_exit(verdict: str, degraded: bool) -> int:
    """Map a three-valued verdict onto the CLI exit-code contract."""
    if verdict == "violated":
        return 1
    if degraded or verdict == "unknown":
        return 3
    return 0


def _print_failed_checks(report, max_rows: int) -> None:
    """One line per unknown-verdict class (honest-degradation output)."""
    for failure in report.failed_checks[:max_rows]:
        print(
            f"  unknown: {failure.fec_description} "
            f"({failure.reason} after {failure.attempts} attempts: {failure.detail})"
        )
    omitted = len(report.failed_checks) - max_rows
    if omitted > 0:
        print(f"  ... and {omitted} more unknown classes")


def _resilience_kwargs(args: argparse.Namespace) -> dict:
    """The VerificationOptions fields the shared resilience flags control."""
    return {
        "check_timeout": args.check_timeout,
        "max_retries": args.max_retries,
        "allow_degraded": not args.no_degrade,
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = BackboneParams(
        regions=args.regions,
        routers_per_group=args.routers_per_group,
        parallel_links=args.parallel_links,
        prefixes_per_region=args.prefixes_per_region,
        seed=args.seed,
    )
    backbone = generate_backbone(params)
    fecs = generate_fecs(backbone, max_classes=args.max_classes)
    snapshot = backbone.simulator().snapshot(
        fecs, name=args.name, granularity=Granularity(args.granularity)
    )
    snapshot.to_json(args.output, indent=2)
    print(
        f"wrote {args.output}: {len(snapshot)} flow equivalence classes over "
        f"{backbone.topology.num_routers} routers"
    )
    return 0


def _cmd_pathdiff(args: argparse.Namespace) -> int:
    pre = Snapshot.from_json(args.pre)
    post = Snapshot.from_json(args.post)
    diff = path_diff(pre, post)
    print(diff.summary())
    for entry in diff:
        print(f"  {entry}")
    return 0 if len(diff) == 0 else 1


def _run_verify(args: argparse.Namespace):
    """Run one ``verify``-shaped check (shared with ``gate verify``)."""
    pre = Snapshot.from_json(args.pre)
    post = Snapshot.from_json(args.post)
    with open(args.spec, encoding="utf-8") as handle:
        program = parse_program(handle.read())
    spec = program.spec(args.spec_name)
    options = VerificationOptions(
        granularity=Granularity(args.granularity),
        workers=args.workers,
        **_resilience_kwargs(args),
    )
    return verify_change(pre, post, spec, options=options)


def _cmd_verify(args: argparse.Namespace) -> int:
    report = _run_verify(args)
    print(report.summary())
    if report.violating_fecs:
        print(report.table(max_rows=args.max_rows))
    if report.failed_checks:
        _print_failed_checks(report, args.max_rows)
    return _report_exit(report.verdict, report.degraded)


def _cmd_casestudy(args: argparse.Namespace) -> int:
    scenario = build_scenario()
    pre = scenario.pre_change()
    checks = [
        ("v1", scenario.iteration_v1(), scenario.change_spec()),
        ("v2", scenario.iteration_v2(), scenario.refined_spec()),
        ("v3", scenario.iteration_v3(), scenario.refined_spec()),
        ("final", scenario.final_implementation(), scenario.refined_spec()),
    ]
    failures = 0
    for name, post, spec in checks:
        report = verify_change(pre, post, spec, db=scenario.db)
        print(f"[{name}] {report.summary()}")
        if not report.holds:
            failures += 1
            if args.show_counterexamples:
                print(report.table(max_rows=4))
    return 0 if failures == 0 else 1


def _cmd_stream(args: argparse.Namespace) -> int:
    profile = StreamProfile(
        num_fecs=args.fecs,
        regions=args.regions,
        epochs=args.epochs,
        rotation=args.rotation,
        seed=args.seed,
    )
    if args.profile == "rolling-drain":
        stream = generate_stream(profile)
    else:
        # Migration waves and link flaps exercise per-prefix traffic, so the
        # snapshot comes from the full traffic generator rather than the
        # scale profile's one-prefix-per-region fan-out.
        backbone = generate_backbone(profile.backbone_params())
        fecs = generate_fecs(backbone, max_classes=args.fecs)
        initial = backbone.simulator().snapshot(fecs, name="initial")
        if args.profile == "prefix-migration":
            stream = prefix_migration_stream(
                backbone, initial, waves=args.epochs, seed=args.seed
            )
            if len(stream) < args.epochs:
                # One wave needs at least one prefix of its own; the region
                # caps how many waves a migration can have.
                print(
                    f"note: prefix-migration capped at {len(stream)} waves "
                    f"(the migrated region originates {len(stream)} usable prefixes)"
                )
        else:
            stream = flapping_link_stream(
                backbone, initial, flaps=args.epochs, seed=args.seed
            )
    parser: argparse.ArgumentParser = args.parser
    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")
    options = VerificationOptions(workers=args.workers, **_resilience_kwargs(args))
    epochs = list(stream)
    # The checkpoint signature binds the journal to this exact workload:
    # profile, generation parameters and verdict-relevant options.
    signature = stable_digest(
        (
            "stream-cli/v1",
            args.profile,
            args.fecs,
            args.regions,
            args.epochs,
            args.rotation,
            args.seed,
            options_digest(options),
        )
    )

    def on_epoch(index: int, report, resumed: bool) -> None:
        cache = (
            f"{report.cached_checks}/{report.unique_checks} checks cached"
            if report.unique_checks
            else "no checks"
        )
        if resumed:
            cache += ", resumed from checkpoint"
        print(f"[{epochs[index].epoch_id}] {report.summary()} [{cache}]")
        if report.violating_fecs and args.show_counterexamples:
            print(report.table(max_rows=args.max_rows))
        if report.failed_checks:
            _print_failed_checks(report, args.max_rows)

    result = verify_stream(
        stream.initial,
        ((epoch.post, epoch.spec) for epoch in epochs),
        options=options,
        graph_budget=args.graph_budget,
        context_budget=args.context_budget,
        checkpoint=args.checkpoint,
        resume=args.resume,
        signature=signature,
        on_epoch=on_epoch,
    )
    print(result.summary())
    return _report_exit(result.verdict, result.degraded)


_SWEEP_SCENARIOS = {
    "drain": drain_sweep_scenario,
    "refactor": refactor_sweep_scenario,
    "decommission": decommission_sweep_scenario,
}


def _parse_link(text: str) -> tuple[str, str]:
    """Parse a ``routerA~routerB`` link-bundle name."""
    parts = text.split("~")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise argparse.ArgumentTypeError(
            f"link {text!r} is not of the form routerA~routerB"
        )
    return (parts[0], parts[1])


def _run_sweep(args: argparse.Namespace):
    """Build and run one ``sweep``-shaped run (shared with ``gate sweep``).

    Returns ``(backbone, scenario, sweep_report)`` so callers that need the
    region structure (the gate's blast-radius scoring) have it.
    """
    parser: argparse.ArgumentParser = args.parser
    if args.k is not None and args.failures != "k":
        parser.error("--k only applies to --failures k")
    if args.limit is not None and args.failures != "k":
        parser.error("--limit only applies to --failures k")
    if args.candidate_links and args.failures == "maintenance":
        parser.error("--candidate-links conflicts with --failures maintenance "
                     "(maintenance sets are derived from the region interconnects)")
    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")

    params = BackboneParams(
        regions=args.regions,
        routers_per_group=args.routers_per_group,
        parallel_links=args.parallel_links,
        prefixes_per_region=args.prefixes_per_region,
        seed=args.seed,
    )
    backbone = generate_backbone(params)
    scenario = _SWEEP_SCENARIOS[args.scenario](
        backbone,
        num_fecs=args.fecs,
        granularity=Granularity(args.granularity),
        buggy=args.buggy,
        seed=args.seed,
    )
    candidates = args.candidate_links or None
    if args.failures == "single":
        contingencies = single_link_failures(backbone.topology, candidates=candidates)
    elif args.failures == "k":
        contingencies = k_link_failures(
            backbone.topology, args.k if args.k is not None else 2,
            candidates=candidates, limit=args.limit,
        )
    else:
        contingencies = interconnect_maintenance_sets(backbone)
    if args.with_maintenance and args.failures != "maintenance":
        contingencies = contingencies + interconnect_maintenance_sets(backbone)

    options = VerificationOptions(
        granularity=scenario.granularity,
        workers=args.workers,
        **_resilience_kwargs(args),
    )
    sweep = scenario.sweep(contingencies, options=options).run(
        checkpoint=args.checkpoint,
        resume=args.resume,
        first_worst=args.first_worst,
    )
    return backbone, scenario, sweep


def _cmd_sweep(args: argparse.Namespace) -> int:
    _, _, sweep = _run_sweep(args)
    for result in sweep.results:
        if args.show_contingencies or not result.holds:
            print(f"[{result.contingency}] {result.report.summary()}")
    worst = sweep.most_violating(args.max_rows)
    if worst:
        print("most-violating contingencies:")
        for result in worst:
            print(
                f"  {result.contingency}: {result.report.violating_fecs} violating classes"
            )
        if sweep.prioritized:
            position = sweep.first_worst_after()
            if position is not None:
                print(
                    f"first-worst search: worst contingency surfaced after "
                    f"{position} of {len(sweep.results)} units"
                )
    for result in sweep.expectation_mismatches:
        print(
            f"warning: {result.contingency.contingency_id} expected "
            f"holds={result.expected_holds} but verified holds={result.holds}"
        )
    unproven = sweep.unproven()
    if unproven:
        print("unproven contingencies (unknown verdicts):")
        for result in unproven:
            print(
                f"  {result.contingency}: {result.report.unknown_fecs} classes unknown"
            )
    print(sweep.summary())
    if sweep.violating_contingencies > 0:
        return 1
    if sweep.degraded:
        return 3
    return 0


def _emit_gate(decision, payload: dict, as_json: bool, summary_line: str) -> int:
    """Print a gate decision (human table or machine JSON); return its exit code."""
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(summary_line)
        print(decision.table())
    return decision.exit_code


def _gate_history(args: argparse.Namespace):
    """The persisted change history for a gate run (None without --state)."""
    if args.state is None:
        return None
    history = StateStore(args.state).history()
    # A store with no outcomes yet carries no signal; the risk layer treats
    # None as "no history" and skips the history factor entirely.
    return history if history.epochs else None


def _record_gate_outcome(args: argparse.Namespace, verdict: str, degraded: bool) -> None:
    """Append this gated change's outcome to the persistent history."""
    if args.state is not None:
        StateStore(args.state).record_outcome(verdict, degraded=degraded)


def _cmd_gate_verify(args: argparse.Namespace) -> int:
    report = _run_verify(args)
    decision = gate_report(report, history=_gate_history(args))
    _record_gate_outcome(args, report.verdict, report.degraded)
    payload = decision.to_dict()
    payload["mode"] = "verify"
    payload["verdict"] = {
        "verdict": report.verdict,
        "holds": report.holds,
        "total_fecs": report.total_fecs,
        "violating_fecs": report.violating_fecs,
        "unknown_fecs": report.unknown_fecs,
        "unknown_fec_ids": report.unknown_fec_ids,
        "degraded": report.degraded,
    }
    return _emit_gate(decision, payload, args.json, report.summary())


def _cmd_gate_sweep(args: argparse.Namespace) -> int:
    backbone, scenario, sweep = _run_sweep(args)
    fec_regions = fec_region_index(
        scenario.fecs, location_regions=backbone.location_regions()
    )
    decision = gate_sweep(
        sweep,
        fec_regions=fec_regions,
        total_regions=len(backbone.regions()),
        history=_gate_history(args),
    )
    _record_gate_outcome(args, sweep.verdict, sweep.degraded)
    payload = decision.to_dict()
    payload["mode"] = "sweep"
    payload["verdict"] = {
        "verdict": sweep.verdict,
        "holds": sweep.holds,
        "contingencies": sweep.contingencies,
        "violating_contingencies": sweep.violating_contingencies,
        "unknown_contingencies": sweep.unknown_contingencies,
        "flipped_contingencies": sweep.flipped_contingencies,
        "expectation_mismatches": len(sweep.expectation_mismatches),
        "unknown_fec_ids": sweep.unknown_fec_ids,
        "degraded": sweep.degraded,
    }
    return _emit_gate(decision, payload, args.json, sweep.summary())


def _add_checkpoint_flags(command: argparse.ArgumentParser) -> None:
    """The durability knobs shared by stream / sweep (and gate sweep)."""
    group = command.add_argument_group("durability")
    group.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="journal every completed epoch/contingency to this file as it "
        "lands; a killed run can be resumed from it with --resume",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="replay the checkpoint's completed prefix instead of re-verifying "
        "it (requires --checkpoint; the final report is identical to an "
        "uninterrupted run's)",
    )


def _add_resilience_flags(command: argparse.ArgumentParser) -> None:
    """The resilience knobs shared by verify / stream / sweep."""
    group = command.add_argument_group("resilience")
    group.add_argument(
        "--check-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per FEC check; an over-budget check is retried, "
        "then recorded as an unknown verdict (default: unlimited)",
    )
    group.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per check for transient failures/timeouts, and worker "
        "deaths tolerated per check before it is declared poisonous (default: 2)",
    )
    group.add_argument(
        "--no-degrade",
        action="store_true",
        help="abort with exit code 4 instead of recording unknown verdicts or "
        "falling back to serial execution after repeated worker-pool loss",
    )


_EXIT_CODE_HELP = (
    "exit codes: 0 = specification holds; 1 = violations found; "
    "2 = usage or library error; 3 = degraded run (some checks ended unknown "
    "or execution fell back to serial; no violation found); "
    "4 = unrecoverable execution failure (worker pool lost beyond recovery, "
    "--no-degrade aborted a degrading run, or a checkpoint/state file is "
    "unusable: not a journal, or written by an incompatible run); "
    "130 = interrupted (a checkpointed run flushes a final record first, "
    "so --resume continues from the interruption point). "
    "The gate subcommand encodes its graded decision instead: 0 = pass, "
    "3 = conditional, 5 = hold/block"
)

_GATE_EXIT_CODE_HELP = (
    "gate exit codes: 0 = pass (ship it); 2 = usage or library error; "
    "3 = conditional (ship once the listed conditions are satisfied); "
    "4 = unrecoverable execution failure; 5 = hold or block (do not ship); "
    "130 = interrupted"
)


def _add_verify_arguments(command: argparse.ArgumentParser) -> None:
    """The ``verify`` inputs and knobs (shared with ``gate verify``)."""
    command.add_argument("pre")
    command.add_argument("post")
    command.add_argument("spec", help="Rela program file (textual syntax)")
    command.add_argument("--spec-name", default="change", help="name of the spec to check")
    command.add_argument(
        "--granularity", default="router", choices=[g.value for g in Granularity]
    )
    command.add_argument("--workers", type=int, default=1)
    command.add_argument("--max-rows", type=int, default=20)
    _add_resilience_flags(command)


def _add_sweep_arguments(command: argparse.ArgumentParser) -> None:
    """The ``sweep`` workload and failure-model knobs (shared with ``gate sweep``)."""
    command.add_argument(
        "--scenario",
        default="drain",
        choices=sorted(_SWEEP_SCENARIOS),
        help="change under test (see repro.workloads.contingencies)",
    )
    command.add_argument(
        "--buggy", action="store_true", help="inject the scenario's bug variant"
    )
    command.add_argument("--fecs", type=int, default=2000, help="traffic classes per snapshot")
    command.add_argument("--regions", type=int, default=6)
    command.add_argument("--routers-per-group", type=int, default=2)
    command.add_argument("--parallel-links", type=int, default=2)
    command.add_argument("--prefixes-per-region", type=int, default=2)
    command.add_argument(
        "--granularity", default="group", choices=[g.value for g in Granularity]
    )
    command.add_argument("--seed", type=int, default=59)
    command.add_argument(
        "--failures",
        default="single",
        choices=["single", "k", "maintenance"],
        help="failure model: every single link, k-link combinations, or "
        "planned-maintenance interconnect severances",
    )
    command.add_argument(
        "--k", type=int, default=None, help="links failed together (with --failures k)"
    )
    command.add_argument(
        "--limit",
        type=int,
        default=None,
        help="cap the k-combination enumeration (with --failures k)",
    )
    command.add_argument(
        "--candidate-links",
        type=_parse_link,
        nargs="*",
        default=None,
        metavar="A~B",
        help="restrict single/k failures to these link bundles",
    )
    command.add_argument(
        "--with-maintenance",
        action="store_true",
        help="append the planned-maintenance interconnect severances",
    )
    command.add_argument("--workers", type=int, default=1)
    command.add_argument(
        "--first-worst",
        action="store_true",
        help="reorder k>=2 contingencies most-fragile first so the worst "
        "violation surfaces early (checkpoints bind to this order: resume "
        "with the same flag)",
    )
    command.add_argument(
        "--show-contingencies",
        action="store_true",
        help="print every contingency's report line (failing ones always print)",
    )
    command.add_argument("--max-rows", type=int, default=8)
    _add_checkpoint_flags(command)
    _add_resilience_flags(command)


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the daemon machinery stays off the fast CLI paths.
    from repro.serve.server import ServeConfig, VerificationServer

    config = ServeConfig(
        host=args.host,
        port=args.port,
        socket=args.socket,
        state_dir=args.state_dir,
        pool_workers=args.pool_workers,
        exec_threads=args.exec_threads,
        queue_limit=args.queue_limit,
        tenant_inflight=args.tenant_inflight,
        max_sessions_per_tenant=args.max_sessions_per_tenant,
        max_body=args.max_body,
    )
    return VerificationServer(config).serve_forever()


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 picks a free port; the chosen one is printed)",
    )
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="serve on a unix domain socket instead of TCP",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="persist hosted sessions here on drain; a restarted daemon "
        "reloads them warm (cached verdicts intact)",
    )
    parser.add_argument(
        "--pool-workers",
        type=int,
        default=2,
        help="shared verification worker pool size (below 2: serial, no pool)",
    )
    parser.add_argument(
        "--exec-threads",
        type=int,
        default=8,
        help="request-execution threads (independent sessions run in parallel)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        help="admitted requests at once before answering 429 + Retry-After",
    )
    parser.add_argument(
        "--tenant-inflight",
        type=int,
        default=8,
        help="per-tenant in-flight request limit (429 above it)",
    )
    parser.add_argument(
        "--max-sessions-per-tenant",
        type=int,
        default=16,
        help="hard session-count quota per tenant",
    )
    parser.add_argument(
        "--max-body",
        type=int,
        default=64 * 1024 * 1024,
        help="request body byte cap (oversized bodies get a structured 400)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="rela-repro",
        description="Relational network verification (Rela) reproduction toolkit",
        epilog=_EXIT_CODE_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="generate and simulate a synthetic backbone")
    simulate.add_argument("output", help="snapshot JSON file to write")
    simulate.add_argument("--name", default="snapshot")
    simulate.add_argument("--regions", type=int, default=4)
    simulate.add_argument("--routers-per-group", type=int, default=2)
    simulate.add_argument("--parallel-links", type=int, default=2)
    simulate.add_argument("--prefixes-per-region", type=int, default=4)
    simulate.add_argument("--max-classes", type=int, default=None)
    simulate.add_argument("--granularity", default="router", choices=[g.value for g in Granularity])
    simulate.add_argument("--seed", type=int, default=7)
    simulate.set_defaults(func=_cmd_simulate)

    diff = sub.add_parser("pathdiff", help="manual-inspection style path diff of two snapshots")
    diff.add_argument("pre")
    diff.add_argument("post")
    diff.set_defaults(func=_cmd_pathdiff)

    verify = sub.add_parser("verify", help="verify a change against a Rela spec file")
    _add_verify_arguments(verify)
    verify.set_defaults(func=_cmd_verify)

    casestudy = sub.add_parser("casestudy", help="replay the Figure 1 change iterations")
    casestudy.add_argument("--show-counterexamples", action="store_true")
    casestudy.set_defaults(func=_cmd_casestudy)

    stream = sub.add_parser(
        "stream",
        help="verify a synthetic rolling-maintenance change stream through one session",
    )
    stream.add_argument(
        "--profile",
        default="rolling-drain",
        choices=["rolling-drain", "prefix-migration", "flapping"],
        help="change-stream family (see repro.workloads.stream)",
    )
    stream.add_argument("--fecs", type=int, default=5000, help="traffic classes in the snapshot")
    stream.add_argument("--regions", type=int, default=10)
    stream.add_argument("--epochs", type=int, default=20, help="epochs (waves/flaps) to verify")
    stream.add_argument(
        "--rotation", type=int, default=1, help="regions the rolling drain rotates through"
    )
    stream.add_argument("--seed", type=int, default=47)
    stream.add_argument("--workers", type=int, default=1)
    stream.add_argument(
        "--graph-budget",
        type=int,
        default=None,
        help="evict unpinned graphs (and their cached verdicts) past this store size",
    )
    stream.add_argument(
        "--context-budget",
        type=int,
        default=None,
        help="keep at most this many compiled-spec contexts (LRU; bounds per-epoch-spec streams)",
    )
    stream.add_argument("--show-counterexamples", action="store_true")
    stream.add_argument("--max-rows", type=int, default=8)
    _add_checkpoint_flags(stream)
    _add_resilience_flags(stream)
    stream.set_defaults(func=_cmd_stream, parser=stream)

    sweep = sub.add_parser(
        "sweep",
        help="verify a change under a failure model (what-if contingency sweep)",
    )
    _add_sweep_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep, parser=sweep)

    gate = sub.add_parser(
        "gate",
        help="verify (or sweep) a change and emit a graded safety decision",
        description="Run a verification and map the result onto a graded "
        "pass/conditional/hold/block safety decision for CI pipelines.",
        epilog=_GATE_EXIT_CODE_HELP,
    )
    gate.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable repro-gate/v1 JSON document instead of a table",
    )
    gate.add_argument(
        "--state",
        default=None,
        metavar="PATH",
        help="persistent state store: read the recorded change history into "
        "the risk scoring, and append this run's outcome to it",
    )
    gate_sub = gate.add_subparsers(dest="gate_command", required=True)
    gate_verify_parser = gate_sub.add_parser(
        "verify", help="gate a single pre/post/spec verification"
    )
    _add_verify_arguments(gate_verify_parser)
    gate_verify_parser.set_defaults(func=_cmd_gate_verify)
    gate_sweep_parser = gate_sub.add_parser(
        "sweep", help="gate a synthetic contingency sweep scenario"
    )
    _add_sweep_arguments(gate_sweep_parser)
    gate_sweep_parser.set_defaults(func=_cmd_gate_sweep, parser=gate_sweep_parser)

    serve = sub.add_parser(
        "serve",
        help="run the verification daemon (HTTP/JSON API over named sessions)",
        description="Serve named per-tenant verification sessions plus "
        "stateless one-shot verify/sweep endpoints over a thin HTTP/JSON "
        "API, sharing one worker pool across all requests.  SIGTERM "
        "drains gracefully: in-flight requests finish, sessions flush to "
        "--state-dir, exit 0.",
    )
    _add_serve_arguments(serve)
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (see the module docstring for the exit-code contract).

    Library and I/O failures exit 2 with a one-line message instead of a
    traceback: the CLI's inputs (snapshot files, spec programs, workload
    parameters) are user data, and a typo in them is not a crash.  Ctrl-C
    exits 130 without a traceback; resilience failures the runtime could
    not absorb (an unrecoverable worker-pool loss, or a ``--no-degrade``
    run that would have had to degrade) exit 4.
    """
    parser = build_parser()
    args = parser.parse_args(argv)

    # SIGTERM (the orchestrator's "wrap it up") rides the KeyboardInterrupt
    # path: checkpointed runs flush a final interrupt marker on the way out,
    # so a drained run is resumable from exactly where it stopped.
    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # not the main thread (embedded use): no handler
        pass
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenProcessPool as error:
        print(f"error: worker pool failed unrecoverably: {error}", file=sys.stderr)
        return 4
    except DegradedExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 4
    except PersistenceError as error:
        # Unusable durability artifacts (not-a-journal files, wrong-run
        # signatures) are unrecoverable for this invocation: rerunning the
        # same command cannot succeed until the operator intervenes.
        print(f"error: {error}", file=sys.stderr)
        return 4
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
