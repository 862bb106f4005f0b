"""The benchmark's one command.

``python3 benchmarks/perf/run.py --seed N`` runs every workload of
``BENCHMARK.json`` twice, each time in a fresh process: once untraced for the
end-to-end metrics and once traced for the per-layer split.  It prints every
metric by name with its unit, checks every verdict, and exits non-zero when
an operation failed.  ``--runs``, ``--quick``, ``--check-determinism`` and
``--out`` are described in ``README.md``.

``--workload NAME --seed N --seconds S --trace 0|1`` is the form a driver
calls: one workload in this process, one JSON object as the last line of
standard output (``correct``, ``attempted``, ``failed``, ``metrics``).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
#: A pass in a fresh process is killed, and counts as failed, when it has not
#: ended this long after its ``--seconds`` were up (a driver allows the same).
PASS_TIMEOUT_S = 180
#: Per-layer metrics that are not counts and must repeat exactly all the same.
ALSO_EXACT = frozenset(
    {
        "persist.journal_bytes",
        "serve.request_bytes",
        "verifier.cache_hit_share",
        "verifier.dedup_ratio",
    }
)


def load_spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def exact_metrics(spec: dict) -> list[str]:
    """Per-layer metrics that must repeat exactly for a fixed seed."""
    return [
        metric["name"]
        for metric in spec["per_layer"]
        if metric["unit"] == "count" or metric["name"] in ALSO_EXACT
    ]


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of ``values``."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def spin_ms() -> float:
    """Machine calibration: a fixed pure-python loop, median of five timings.

    Recorded beside every run so that two sets of numbers taken on machines
    (or moments) of different speed can be told apart from a code change.
    """
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for index in range(200_000):
            total += index * index % 7
        timings.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(timings)


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def run_rounds(workload, tracer, seconds: float) -> tuple[list, list]:
    """Repeat whole rounds until ``seconds`` have passed; (rounds, spans per round)."""
    rounds, spans = [], []
    started = time.perf_counter()
    while True:
        gc.collect()  # a round starts from a collected heap, whatever ran before it
        rounds.append(workload.run_round(tracer))
        spans.append(tracer.drain() if tracer is not None else [])
        if time.perf_counter() - started >= seconds:
            return rounds, spans


def end_to_end(workload, seconds: float, quick: bool) -> tuple[dict[str, float], list]:
    setups = []
    while True:
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
        # Three set-ups at least; cheap ones are repeated until a second has
        # gone into them, for a median over three 2 ms samples would not repeat.
        if quick or (len(setups) >= 3 and (sum(setups) >= 1.0 or len(setups) >= 200)):
            break
        workload.close()
    try:
        rounds, _ = run_rounds(workload, None, seconds)
        peak_rss_mb = workload.peak_rss_mb()
    finally:
        workload.close()
    wall_s = statistics.median(r.wall_s for r in rounds)
    latencies = [op.latency_s for r in rounds for op in r.ops]
    correct_ops = statistics.median(sum(op.ok for op in r.ops) for r in rounds)
    correct_fecs = statistics.median(sum(op.fecs for op in r.ops if op.ok) for r in rounds)
    print(
        f"# {workload.name}: {len(rounds)} rounds of {len(rounds[0].ops)} ops, "
        f"{len(latencies)} latency samples, {len(setups)} set-ups",
        file=sys.stderr,
    )
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "ops_per_s": correct_ops / wall_s,
        "fecs_per_s": correct_fecs / wall_s,
        "op_p50_ms": quantile(latencies, 0.5) * 1000.0,
        "op_p80_ms": quantile(latencies, 0.8) * 1000.0,
        "peak_rss_mb": peak_rss_mb,
    }, rounds


def per_layer(
    workload, seconds: float, names: list[str], exact: list[str]
) -> tuple[dict[str, float], list, list[str]]:
    """(metrics, rounds run, exact metrics whose value differs between rounds)."""
    from spans import OP, Tracer, summarize

    spin = spin_ms()
    # Untraced rounds first: the wall difference between the two passes is
    # the tracing overhead.
    workload.setup()
    try:
        plain_rounds, _ = run_rounds(workload, None, seconds * 0.4)
    finally:
        workload.close()
    tracer = Tracer()
    workload.setup(traced=True)
    tracer.install()
    try:
        rounds, spans_per_round = run_rounds(workload, tracer, seconds * 0.6)
    finally:
        tracer.uninstall()
        remote = workload.close()
    per_round: list[dict[str, float]] = []
    for round_, spans in zip(rounds, spans_per_round):
        spans = spans + [s for s in remote if round_.start <= s.start < round_.end]
        values = dict.fromkeys(names, 0.0)
        values.update(round_.counts)
        for name, layer in summarize(spans).items():
            if name != OP:
                values[f"{name}.calls"] = layer.calls
                values[f"{name}.self_s"] = layer.self_s
                values[f"{name}.total_s"] = layer.total_s
        ops = [s for s in spans if s.name == OP]
        op_threads = len({s.thread for s in ops}) or 1  # no op span: a sweep that raised
        values["trace.spans"] = len(spans)
        values["trace.op_coverage_share"] = sum(s.duration for s in ops) / (
            round_.wall_s * op_threads
        )
        requests = values["serve.host.handle_json.calls"]
        if requests:
            mean_latency = statistics.fmean(op.latency_s for op in round_.ops)
            mean_handled = values["serve.host.handle_json.total_s"] / requests
            values["serve.transport_ms"] = (mean_latency - mean_handled) * 1000.0
        per_round.append(values)
    plain_wall = statistics.median(r.wall_s for r in plain_rounds)
    traced_wall = statistics.median(r.wall_s for r in rounds)
    metrics = {name: statistics.median(v[name] for v in per_round) for name in names}
    metrics["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
    metrics["machine.spin_ms"] = spin
    # A median would hide a count that differs in one round of several.
    unsteady = [name for name in exact if len({v[name] for v in per_round}) > 1]
    for name in unsteady:
        print(
            f"# {workload.name}: {name} differs between rounds: "
            f"{[v[name] for v in per_round]}",
            file=sys.stderr,
        )
    print(
        f"# {workload.name}: {len(plain_rounds)} untraced and {len(rounds)} traced rounds "
        f"of {len(rounds[0].ops)} ops, {int(metrics['trace.spans'])} spans per round",
        file=sys.stderr,
    )
    return metrics, plain_rounds + rounds, unsteady


def run_one(args: argparse.Namespace, spec: dict) -> int:
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print("error: no src/repro beside BENCHMARK.json: nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # Sweep journals and the traced daemon's span dump.  Inside the checkout
    # (a driver lets the benchmark write nowhere else); .gitignore lists it.
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as work_dir:
        workload = WORKLOADS[args.workload](args.seed, quick=args.quick, work_dir=Path(work_dir))
        return measure(workload, args, spec)


def measure(workload, args: argparse.Namespace, spec: dict) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    unsteady: list[str] = []
    if args.trace:
        metrics, rounds, unsteady = per_layer(
            workload, args.seconds, list(units), exact_metrics(spec)
        )
    else:
        metrics, rounds = end_to_end(workload, args.seconds, args.quick)
    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(not op.ok for r in rounds for op in r.ops)
    correct = failed == 0 and not unsteady
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Every workload, each pass in a fresh process
# ----------------------------------------------------------------------
def child(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One pass in a fresh process; a pass that crashes or hangs is one failed op."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    if quick:
        command.append("--quick")
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=seconds + PASS_TIMEOUT_S
        )
        lines = done.stdout.strip().splitlines()
        outcome = f"exited {done.returncode} without a result"
    except subprocess.TimeoutExpired:
        lines = []
        outcome = f"was killed after {seconds + PASS_TIMEOUT_S:.0f} s"
    if lines:
        return json.loads(lines[-1])
    print(f"{workload} (trace {trace}, seed {seed}) {outcome}", file=sys.stderr)
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_all(args: argparse.Namespace, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.check_determinism:
        return check_determinism(names, args, spec)
    record: dict = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "runs": args.runs,
        "workloads": {name: {"attempted": 0, "failed": 0, "metrics": {}} for name in names},
    }
    all_correct = True
    for _ in range(args.runs):
        for name in names:
            for trace in (0, 1):
                result = child(name, args.seed, args.seconds, trace, args.quick)
                all_correct = all_correct and result["correct"]
                row = record["workloads"][name]
                row["attempted"] += result["attempted"]
                row["failed"] += result["failed"]
                for metric, entry in result["metrics"].items():
                    row["metrics"].setdefault(metric, []).append(entry["value"])
    for kind in ("end_to_end", "per_layer"):
        for name in names:
            row = record["workloads"][name]
            if kind == "end_to_end":
                print(
                    f"\n{name}: failed_share {row['failed'] / row['attempted']:.4f} "
                    f"({row['failed']} of {row['attempted']} ops)"
                )
            else:
                print(f"\n{name}, per layer:")
            for metric in spec[kind]:
                values = row["metrics"].get(metric["name"], [])
                if not values or (kind == "per_layer" and not any(values)):
                    continue  # a pass that crashed, or a layer this workload never enters
                line = f"  {metric['name']:<42} {statistics.median(values):>14.4f} {metric['unit']}"
                if len(values) > 1:
                    line += f"   [min {min(values):.4f}, max {max(values):.4f}, n {len(values)}]"
                print(line)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
    return 0 if all_correct else 1


def check_determinism(names: list[str], args: argparse.Namespace, spec: dict) -> int:
    """Exact metrics must repeat exactly; a second seed must be valid.

    A traced pass is not ``correct`` when an exact metric differs between two
    of its rounds, so comparing two passes compares every round of both.
    """
    exact = exact_metrics(spec)
    status = 0
    for name in names:
        first, second = (child(name, args.seed, args.seconds, 1, args.quick) for _ in range(2))
        other = child(name, args.seed + 1, args.seconds, 1, args.quick)
        passes = (first, second, other)
        differing = [
            metric
            for metric in exact
            if first["metrics"].get(metric) != second["metrics"].get(metric)
        ]
        for metric in differing:
            print(
                f"{name}: {metric} does not repeat: {first['metrics'].get(metric)} "
                f"then {second['metrics'].get(metric)}"
            )
        if not all(result["correct"] for result in passes):
            failures = sum(result["failed"] for result in passes)
            print(
                f"{name}: {failures} failed operations over seeds {args.seed}, {args.seed + 1}, "
                "or a count that differs between rounds (see standard error)"
            )
            status = 1
        elif differing:
            status = 1
        else:
            print(f"{name}: {len(exact)} counts repeat exactly; seed {args.seed + 1} is valid")
    return status


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured time per pass")
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, same shapes")
    parser.add_argument("--runs", type=int, default=1, help="repeat; report median/min/max")
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--out", help="write every value measured to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else float(spec["run_seconds"])
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
