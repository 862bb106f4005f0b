"""Smoke and error-path tests for the command-line interface.

Exit-code contract: 0 = verified and holds, 1 = verified and violations
found, 2 = the run itself failed (missing files, unparsable specs, invalid
workload parameters, conflicting flags).  Library and I/O failures print a
one-line ``error: ...`` to stderr instead of a traceback; argparse flag
conflicts raise ``SystemExit(2)`` with a usage message.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.snapshots import FlowEquivalenceClass, build_snapshot


@pytest.fixture()
def snapshot_files(tmp_path):
    """Pre/post (and buggy post) snapshot JSON files plus a spec file."""
    web = FlowEquivalenceClass("web", dst_prefix="203.0.113.0/24", ingress="edge")
    dns = FlowEquivalenceClass("dns", dst_prefix="198.51.100.0/24", ingress="edge")
    pre = build_snapshot(
        "pre",
        [
            (web, [("edge", "mid1", "core1")]),
            (dns, [("edge", "mid1", "core2")]),
        ],
    )
    post_good = build_snapshot(
        "post-good",
        [
            (web, [("edge", "mid1", "core1")]),
            (dns, [("edge", "mid2", "core2")]),
        ],
    )
    post_buggy = build_snapshot(
        "post-buggy",
        [
            (web, [("edge", "mid2", "core1")]),
            (dns, [("edge", "mid1", "core2")]),
        ],
    )
    paths = {}
    for name, snapshot in [("pre", pre), ("post", post_good), ("buggy", post_buggy)]:
        paths[name] = tmp_path / f"{name}.json"
        snapshot.to_json(paths[name], indent=2)
    paths["spec"] = tmp_path / "change.rela"
    paths["spec"].write_text(
        "regex viazone := edge (mid1|mid2) core2\n"
        "regex newpath := edge mid2 core2\n"
        "spec move := { viazone : any(newpath) ; }\n"
        "spec nochange := { .* : preserve ; }\n"
        "spec change := move else nochange\n"
    )
    return paths


def test_verify_pass(snapshot_files, capsys):
    code = main(
        [
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["post"]),
            str(snapshot_files["spec"]),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS")


def test_verify_fail_prints_table(snapshot_files, capsys):
    code = main(
        [
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["buggy"]),
            str(snapshot_files["spec"]),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL")
    assert "Cause of violation" in out  # the Table 1 layout


def test_stream_rolling_drain(capsys):
    code = main(
        [
            "stream",
            "--fecs",
            "200",
            "--regions",
            "4",
            "--epochs",
            "4",
            "--rotation",
            "1",
            "--seed",
            "7",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("[rolling-drain-")]
    assert len(lines) == 4
    # One cumulative stream summary with cache statistics at the end.
    assert out.splitlines()[-1].startswith("PASS: 4 epochs")
    assert "cache hits" in out


def test_stream_flapping_profile(capsys):
    code = main(
        [
            "stream",
            "--profile",
            "flapping",
            "--fecs",
            "24",
            "--regions",
            "4",
            "--epochs",
            "4",
            "--seed",
            "7",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[flapping-e003]" in out
    assert out.splitlines()[-1].startswith("PASS")


def test_sweep_smoke(capsys):
    code = main(
        [
            "sweep",
            "--fecs",
            "120",
            "--regions",
            "3",
            "--candidate-links",
            "r0-agg0~r0-core0",
            "r0-border0~r1-border0",
            "--seed",
            "7",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1].startswith("PASS: 3 contingencies")
    assert "dedup" in out


def test_sweep_buggy_reports_most_violating(capsys):
    code = main(
        [
            "sweep",
            "--scenario",
            "refactor",
            "--buggy",
            "--fecs",
            "120",
            "--regions",
            "3",
            "--candidate-links",
            "r0-agg0~r0-core0",
            "--seed",
            "7",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "most-violating contingencies:" in out
    assert out.splitlines()[-1].startswith("FAIL")


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
def test_verify_missing_snapshot_file(snapshot_files, capsys, tmp_path):
    code = main(
        [
            "verify",
            str(tmp_path / "does-not-exist.json"),
            str(snapshot_files["post"]),
            str(snapshot_files["spec"]),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "does-not-exist.json" in captured.err


def test_verify_malformed_snapshot_json(snapshot_files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "granularity": "router"')  # truncated
    code = main(
        ["verify", str(bad), str(snapshot_files["post"]), str(snapshot_files["spec"])]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "JSON" in captured.err


def test_verify_bad_spec_text(snapshot_files, capsys, tmp_path):
    bad_spec = tmp_path / "broken.rela"
    bad_spec.write_text("spec change = { this is not rela ;\n")
    code = main(
        ["verify", str(snapshot_files["pre"]), str(snapshot_files["post"]), str(bad_spec)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_verify_unknown_spec_name(snapshot_files, capsys):
    code = main(
        [
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["post"]),
            str(snapshot_files["spec"]),
            "--spec-name",
            "nope",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown spec" in captured.err


def test_pathdiff_missing_file(capsys, tmp_path):
    code = main(["pathdiff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_stream_invalid_profile(capsys):
    code = main(["stream", "--fecs", "10", "--regions", "4", "--epochs", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "at least one epoch" in captured.err


def test_sweep_k_flag_conflicts_with_single_failures(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--k", "2"])
    assert excinfo.value.code == 2
    assert "--k only applies to --failures k" in capsys.readouterr().err


def test_sweep_limit_flag_conflicts_with_single_failures(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--limit", "3"])
    assert excinfo.value.code == 2
    assert "--limit only applies" in capsys.readouterr().err


def test_sweep_candidates_conflict_with_maintenance(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "sweep",
                "--failures",
                "maintenance",
                "--candidate-links",
                "r0-agg0~r0-core0",
            ]
        )
    assert excinfo.value.code == 2
    assert "conflicts with --failures maintenance" in capsys.readouterr().err


def test_sweep_malformed_candidate_link(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--candidate-links", "not-a-link"])
    assert excinfo.value.code == 2
    assert "routerA~routerB" in capsys.readouterr().err


def test_sweep_drain_rejects_interface_granularity(capsys):
    code = main(
        ["sweep", "--fecs", "60", "--regions", "3", "--granularity", "interface"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "interface-level" in captured.err


def test_sweep_unknown_candidate_link(capsys):
    code = main(
        ["sweep", "--fecs", "60", "--regions", "3", "--candidate-links", "a~b"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "candidate links not in the topology" in captured.err


def test_stream_prefix_migration_profile(capsys):
    code = main(
        [
            "stream",
            "--profile",
            "prefix-migration",
            "--fecs",
            "24",
            "--regions",
            "4",
            "--epochs",
            "2",
            "--seed",
            "7",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1].startswith("PASS")


# ----------------------------------------------------------------------
# The gate subcommand (graded exit codes: 0 pass, 3 conditional, 5 hold/block)
# ----------------------------------------------------------------------
def test_gate_sweep_clean_passes_with_valid_json(capsys):
    import json

    code = main(
        [
            "gate",
            "--json",
            "sweep",
            "--fecs",
            "120",
            "--regions",
            "3",
            "--candidate-links",
            "r0-agg0~r0-core0",
            "--seed",
            "7",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    document = json.loads(out)
    assert document["schema"] == "repro-gate/v1"
    assert document["decision"] == "pass"
    assert document["exit_code"] == 0
    assert document["mode"] == "sweep"
    assert document["verdict"]["verdict"] == "holds"
    assert document["risk"]["tier"] == "negligible"
    # And the CI schema checker accepts exactly this document.
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "check_gate_output",
        Path(__file__).resolve().parent.parent / "scripts" / "check_gate_output.py",
    )
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    assert checker.validate(document) == []


def test_gate_sweep_buggy_blocks_exit_5(capsys):
    import json

    code = main(
        [
            "gate",
            "--json",
            "sweep",
            "--scenario",
            "refactor",
            "--buggy",
            "--fecs",
            "120",
            "--regions",
            "3",
            "--candidate-links",
            "r0-agg0~r0-core0",
            "--seed",
            "7",
        ]
    )
    out = capsys.readouterr().out
    assert code == 5
    document = json.loads(out)
    assert document["decision"] == "block"
    assert document["exit_code"] == 5
    assert document["risk"]["proven_violation"] is True
    assert document["verdict"]["verdict"] == "violated"
    assert document["verdict"]["violating_contingencies"] >= 1


def test_gate_sweep_human_table(capsys):
    code = main(
        [
            "gate",
            "sweep",
            "--fecs",
            "120",
            "--regions",
            "3",
            "--candidate-links",
            "r0-agg0~r0-core0",
            "--seed",
            "7",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "risk: negligible" in out
    assert "decision: pass (exit 0)" in out


def test_gate_verify_clean_and_buggy(snapshot_files, capsys):
    import json

    code = main(
        [
            "gate",
            "--json",
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["post"]),
            str(snapshot_files["spec"]),
        ]
    )
    clean = json.loads(capsys.readouterr().out)
    assert code == 0
    assert clean["decision"] == "pass"
    assert clean["mode"] == "verify"

    code = main(
        [
            "gate",
            "--json",
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["buggy"]),
            str(snapshot_files["spec"]),
        ]
    )
    buggy = json.loads(capsys.readouterr().out)
    assert code == 5
    assert buggy["decision"] == "block"
    assert buggy["verdict"]["violating_fecs"] >= 1


def test_gate_verify_degraded_run_is_conditional(snapshot_files, capsys, monkeypatch):
    import json

    import repro.cli as cli_module
    from repro.verifier import CheckFailure, VerificationReport

    def fake_verify_change(pre, post, spec, *, options=None, **kwargs):
        report = VerificationReport()
        report.record(None)
        report.record(
            CheckFailure(
                fec_id="dns",
                fec_description="dns 198.51.100.0/24@edge",
                reason="timeout",
            )
        )
        report.finalize()
        return report

    monkeypatch.setattr(cli_module, "verify_change", fake_verify_change)
    code = main(
        [
            "gate",
            "--json",
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["post"]),
            str(snapshot_files["spec"]),
        ]
    )
    document = json.loads(capsys.readouterr().out)
    assert code == 3
    assert document["decision"] == "conditional"
    assert document["conditions"]
    assert document["verdict"]["verdict"] == "unknown"


def test_gate_help_documents_graded_exit_codes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gate", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "gate exit codes:" in out
    assert "5 = hold or block" in out


# ----------------------------------------------------------------------
# Resilience exit codes (3 degraded, 4 unrecoverable, 130 interrupted)
# ----------------------------------------------------------------------
def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes:" in out
    assert "3 = degraded run" in out
    assert "130 = interrupted" in out


def test_verify_resilience_flags_reach_the_options(snapshot_files, capsys, monkeypatch):
    import repro.cli as cli_module
    from repro.verifier import VerificationReport

    captured_options = {}

    def fake_verify_change(pre, post, spec, *, options=None, **kwargs):
        captured_options["options"] = options
        report = VerificationReport()
        report.record(None)
        return report

    monkeypatch.setattr(cli_module, "verify_change", fake_verify_change)
    code = main(
        [
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["post"]),
            str(snapshot_files["spec"]),
            "--check-timeout",
            "2.5",
            "--max-retries",
            "5",
            "--no-degrade",
        ]
    )
    assert code == 0
    options = captured_options["options"]
    assert options.check_timeout == 2.5
    assert options.max_retries == 5
    assert options.allow_degraded is False


def test_verify_degraded_run_exits_3(snapshot_files, capsys, monkeypatch):
    import repro.cli as cli_module
    from repro.verifier import CheckFailure, VerificationReport

    def fake_verify_change(pre, post, spec, *, options=None, **kwargs):
        report = VerificationReport()
        report.record(None)
        report.record(
            CheckFailure(
                fec_id="dns",
                fec_description="dns 198.51.100.0/24@edge",
                reason="timeout",
                detail="check exceeded its 2s wall-clock budget",
                attempts=3,
            )
        )
        report.finalize()
        return report

    monkeypatch.setattr(cli_module, "verify_change", fake_verify_change)
    code = main(
        [
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["post"]),
            str(snapshot_files["spec"]),
        ]
    )
    out = capsys.readouterr().out
    assert code == 3
    assert out.startswith("UNKNOWN")
    assert "unknown: dns" in out
    assert "timeout" in out


def test_no_degrade_abort_exits_4(snapshot_files, capsys, monkeypatch):
    import repro.cli as cli_module
    from repro.errors import DegradedExecutionError

    def fake_verify_change(pre, post, spec, *, options=None, **kwargs):
        raise DegradedExecutionError(
            "check web could not be completed and degraded execution is disabled"
        )

    monkeypatch.setattr(cli_module, "verify_change", fake_verify_change)
    code = main(
        [
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["post"]),
            str(snapshot_files["spec"]),
            "--no-degrade",
        ]
    )
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("error:")
    assert "degraded execution is disabled" in captured.err


def test_unrecoverable_pool_loss_exits_4(snapshot_files, capsys, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    import repro.cli as cli_module

    def fake_verify_change(pre, post, spec, *, options=None, **kwargs):
        raise BrokenProcessPool("a child process terminated abruptly")

    monkeypatch.setattr(cli_module, "verify_change", fake_verify_change)
    code = main(
        [
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["post"]),
            str(snapshot_files["spec"]),
        ]
    )
    captured = capsys.readouterr()
    assert code == 4
    assert "worker pool failed unrecoverably" in captured.err


def test_keyboard_interrupt_exits_130_without_traceback(
    snapshot_files, capsys, monkeypatch
):
    import repro.cli as cli_module

    def fake_verify_change(pre, post, spec, *, options=None, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "verify_change", fake_verify_change)
    code = main(
        [
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["post"]),
            str(snapshot_files["spec"]),
        ]
    )
    captured = capsys.readouterr()
    assert code == 130
    assert captured.err.strip() == "interrupted"


def test_verify_end_to_end_with_injected_timeout(snapshot_files, capsys, monkeypatch):
    """A real (not monkeypatched) degraded verify: the engine's fault seam
    is reached through the CLI by injecting a plan into the built options."""
    import repro.cli as cli_module
    from repro.testing.faults import POISON, Fault, FaultPlan
    from repro.verifier import VerificationOptions

    # "web" and "dns" have distinct graphs, so each is its own check and
    # the fault keyed on "web" fires under default options.
    plan = FaultPlan((Fault(kind="error", fec_id="web", attempts=POISON),))
    original_options = VerificationOptions

    def options_with_plan(**kwargs):
        kwargs.setdefault("fault_plan", plan)
        kwargs.setdefault("retry_backoff", 0.0)
        return original_options(**kwargs)

    monkeypatch.setattr(cli_module, "VerificationOptions", options_with_plan)
    code = main(
        [
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["post"]),
            str(snapshot_files["spec"]),
        ]
    )
    out = capsys.readouterr().out
    assert code == 3
    assert "unknown: " in out


# ----------------------------------------------------------------------
# Durability: --checkpoint/--resume and the persistent gate state store
def test_stream_checkpoint_and_resume(capsys, tmp_path):
    args = [
        "stream",
        "--fecs",
        "60",
        "--regions",
        "3",
        "--epochs",
        "3",
        "--rotation",
        "1",
        "--seed",
        "7",
        "--checkpoint",
        str(tmp_path / "stream.ckpt"),
    ]
    code = main(args)
    first = capsys.readouterr().out
    assert code == 0
    assert first.splitlines()[-1].startswith("PASS: 3 epochs")

    code = main(args + ["--resume"])
    second = capsys.readouterr().out
    assert code == 0
    # Every epoch replays from the journal; the verdict lines say so.
    assert second.count("resumed from checkpoint") == 3
    assert second.splitlines()[-1] == first.splitlines()[-1]


def test_sweep_checkpoint_and_resume(capsys, tmp_path):
    args = [
        "sweep",
        "--fecs",
        "120",
        "--regions",
        "3",
        "--candidate-links",
        "r0-agg0~r0-core0",
        "r0-border0~r1-border0",
        "--seed",
        "7",
        "--checkpoint",
        str(tmp_path / "sweep.ckpt"),
    ]
    code = main(args)
    first = capsys.readouterr().out
    assert code == 0
    assert first.splitlines()[-1].startswith("PASS: 3 contingencies")

    code = main(args + ["--resume"])
    second = capsys.readouterr().out
    assert code == 0
    assert second.splitlines()[-1].startswith("PASS: 3 contingencies")


@pytest.mark.parametrize("command", ["stream", "sweep"])
def test_resume_without_checkpoint_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--resume"])
    assert excinfo.value.code == 2
    assert "--resume requires --checkpoint" in capsys.readouterr().err


def test_unusable_checkpoint_file_exits_4(capsys, tmp_path):
    not_journal = tmp_path / "data.bin"
    not_journal.write_text("this is somebody's data, not a journal at all")
    code = main(
        [
            "sweep",
            "--fecs",
            "60",
            "--regions",
            "3",
            "--candidate-links",
            "r0-agg0~r0-core0",
            "--seed",
            "7",
            "--checkpoint",
            str(not_journal),
            "--resume",
        ]
    )
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err.startswith("error:")
    assert "not a repro-journal/v1 file" in captured.err
    # The refused file was not clobbered.
    assert not_journal.read_text().startswith("this is somebody's data")


def test_gate_state_store_carries_history_across_runs(capsys, tmp_path):
    import json

    from repro.persist.statestore import StateStore

    state = tmp_path / "gate-history.journal"
    buggy = [
        "gate",
        "--json",
        "--state",
        str(state),
        "sweep",
        "--scenario",
        "refactor",
        "--buggy",
        "--fecs",
        "120",
        "--regions",
        "3",
        "--candidate-links",
        "r0-agg0~r0-core0",
        "--seed",
        "7",
    ]
    code = main(buggy)
    first = json.loads(capsys.readouterr().out)
    assert code == 5
    assert first["decision"] == "block"

    clean = [flag for flag in buggy if flag not in ("--buggy",)]
    code = main(clean)
    second = json.loads(capsys.readouterr().out)
    # The violation recorded last run survives the process: the same clean
    # sweep that gates "pass" cold (see test_gate_sweep_clean_passes_with_
    # valid_json) now scores hot enough to hold for review.
    assert code == 3
    assert second["decision"] == "conditional"
    assert second["risk"]["tier"] == "moderate"
    assert second["verdict"]["verdict"] == "holds"

    outcomes = StateStore(state).outcomes()
    assert [o["verdict"] for o in outcomes] == ["violated", "holds"]


def test_gate_json_lists_unknown_fec_ids(snapshot_files, capsys, monkeypatch):
    import json

    import repro.cli as cli_module
    from repro.verifier import CheckFailure, VerificationReport

    def fake_verify_change(pre, post, spec, *, options=None, **kwargs):
        report = VerificationReport()
        report.record(None)
        report.record(
            CheckFailure(
                fec_id="dns",
                fec_description="dns 198.51.100.0/24@edge",
                reason="timeout",
            )
        )
        report.finalize()
        return report

    monkeypatch.setattr(cli_module, "verify_change", fake_verify_change)
    code = main(
        [
            "gate",
            "--json",
            "verify",
            str(snapshot_files["pre"]),
            str(snapshot_files["post"]),
            str(snapshot_files["spec"]),
        ]
    )
    document = json.loads(capsys.readouterr().out)
    assert code == 3
    assert document["verdict"]["unknown_fecs"] == 1
    # The actionable half: WHICH classes went unproven, not just how many.
    assert document["verdict"]["unknown_fec_ids"] == ["dns"]


def test_gate_sweep_json_has_empty_unknown_fec_ids_when_clean(capsys):
    import json

    code = main(
        [
            "gate",
            "--json",
            "sweep",
            "--fecs",
            "60",
            "--regions",
            "3",
            "--candidate-links",
            "r0-agg0~r0-core0",
            "--seed",
            "7",
        ]
    )
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert document["verdict"]["unknown_fec_ids"] == []
