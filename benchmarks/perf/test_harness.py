"""Checks of the benchmark harness itself.  Run by explicit path, not tier-1:

    PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py -q

About a minute: the dominant-layer checks run four workloads at full size.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

sys.path.insert(0, str(REPO_ROOT / "src"))

import compare  # noqa: E402
import run as harness  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(workload: str, *extra: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload, "--seed", "3"]
        + ["--trace", str(trace), *extra],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def test_benchmark_json_respects_the_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"] for kind in ("workloads", "end_to_end", "per_layer") for entry in SPEC[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    assert setup in SPEC["end_to_end"]
    # The bounds README.md derives from the measured spreads; a change to one
    # is a change to that table too.
    assert {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]} == {
        "setup_s": 0.25, "wall_s": 0.24, "ops_per_s": 0.24, "fecs_per_s": 0.24,
        "op_p50_ms": 0.24, "op_p80_ms": 0.24, "peak_rss_mb": 0.15,
    }  # fmt: skip
    assert all(set(metric) == {"name", "unit", "better"} for metric in SPEC["per_layer"])


def test_every_traced_entry_point_has_its_metrics():
    listed = {metric["name"] for metric in SPEC["per_layer"]}
    for span in TARGETS:
        assert {f"{span}.calls", f"{span}.self_s"} <= listed
    for name in listed:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "total_s"):
            assert span in TARGETS, name


def test_uninstall_restores_every_patched_attribute():
    import repro.automata.equivalence
    import repro.verifier.engine
    from repro.verifier.session import VerificationSession

    original_compare = repro.automata.equivalence.compare
    original_advance = vars(VerificationSession)["advance"]
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched()
    # The definition, the `from ... import` alias and a method are all wrapped.
    assert repro.automata.equivalence.compare is not original_compare
    assert repro.verifier.engine.compare is repro.automata.equivalence.compare
    assert vars(VerificationSession)["advance"] is not original_advance
    assert len(patched) >= len(TARGETS)
    tracer.uninstall()
    assert tracer.patched() == []
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original, (owner, attribute)
    assert repro.verifier.engine.compare is original_compare


def test_quick_runs_report_exactly_the_listed_metrics_and_reach_every_span():
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    per_layer = {metric["name"] for metric in SPEC["per_layer"]}
    reached: set[str] = set()
    for workload in WORKLOADS:
        plain = run(workload, "--quick", "--seconds", "1", trace=0)
        assert set(plain) == end_to_end
        assert all(value > 0 for value in plain.values()), plain
        traced = run(workload, "--quick", "--seconds", "1", trace=1)
        assert set(traced) == per_layer
        reached |= {span for span in TARGETS if traced[f"{span}.calls"] > 0}
        if workload != "serve_replay":  # server spans are per-thread times
            assert traced["trace.op_coverage_share"] >= 0.95
    assert reached == set(TARGETS)


@pytest.mark.parametrize(
    ("workload", "dominant", "whole", "share"),
    [
        ("change_mix", ("automata.",), None, 0.60),
        ("sweep_k2", ("network.",), None, 0.80),
        ("scale_oneshot", ("verifier.session.advance",), None, 0.50),
        # Decoding a request (serve.*, and snapshots.* on its behalf) over
        # the time the server spent handling requests.
        ("serve_replay", ("serve.", "snapshots."), "serve.host.handle_json.total_s", 0.60),
    ],
)
def test_dominant_layer_matches_the_workloads_why(workload, dominant, whole, share):
    traced = run(workload, "--seconds", "4", trace=1)
    self_s = {
        name.removesuffix(".self_s"): value
        for name, value in traced.items()
        if name.endswith(".self_s")
    }
    total = traced[whole] if whole else sum(self_s.values())
    part = sum(value for span, value in self_s.items() if span.startswith(dominant))
    assert part / total >= share, (part, total)


def test_an_op_that_raises_is_a_failed_op_and_a_pass_that_dies_a_failed_pass():
    import workloads

    broken = workloads.ChangeMix(1, quick=True, work_dir=HERE)
    broken.setup()
    broken.scenarios = [None, *broken.scenarios[:2]]  # the first op raises AttributeError
    ops = broken.run_round(None).ops
    assert ops[0] == workloads.FAILED_OP and all(op.ok for op in ops[1:])
    # run.py exits 2 without a result for a workload it does not know.
    dead = harness.child("no-such-workload", 1, 1.0, 0, True)
    assert dead == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_counts_bytes_and_ratios_of_counts_are_all_held_to_repeat_exactly():
    exact = set(harness.exact_metrics(SPEC))
    assert harness.ALSO_EXACT <= exact
    assert {f"{span}.calls" for span in TARGETS} <= exact
    assert not any(name.endswith(("_s", "_ms", "_share")) for name in exact - harness.ALSO_EXACT)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns(".*", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "change_mix", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_compare_says_unresolved_where_the_spread_exceeds_the_bound():
    steady = [10.0, 10.1, 9.9, 10.0]
    def word(a, b, better="lower"):
        return compare.verdict(a, b, better=better, bound=0.1)[1]

    steady, slower, faster = ([base + d for d in (0.0, 0.1, -0.1, 0.0)] for base in (10, 12, 8))
    assert word(steady, steady) == "within"
    assert word(steady, slower) == "regressed"
    assert word(steady, faster) == "improved"
    assert word(steady, faster, better="higher") == "regressed"
    assert word(steady, [8.0, 10.0, 12.0, 10.5]) == "unresolved"
    assert word([10.0], [10.0]) == "unresolved"
