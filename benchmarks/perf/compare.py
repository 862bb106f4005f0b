"""Compare two ``run.py --out`` records under the bounds of ``BENCHMARK.json``.

``python3 benchmarks/perf/compare.py A.json B.json`` prints one row per
workload and end-to-end metric: both medians, how much worse B is than A as a
share of A, the run-to-run spread inside each record, and a verdict:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- it is not, but the spread of A or of B exceeds the bound
  (or a record holds a single run, so no spread is known): the records
  cannot show that the metric is unchanged;
* ``improved``   -- B is better by more than the bound and than both spreads;
* ``within``     -- everything else.

Counts (``run.exact_metrics``) must repeat exactly, so every one that differs
is listed.  The exit code is 1 when anything regressed or any operation
failed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import exact_metrics

REPO_ROOT = Path(__file__).resolve().parents[2]


def spread(values: list[float]) -> float | None:
    """Inter-quartile range as a share of the median; ``None`` when unknown."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], *, better: str, bound: float) -> tuple[float, str]:
    """(how much worse B's median is, as a share of A's; the verdict)."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = (median_b - median_a) / abs(median_a)
    if better == "higher":
        worse = -worse
    spreads = [spread(a), spread(b)]
    if worse > bound:
        return worse, "regressed"
    if any(s is None or s > bound for s in spreads):
        return worse, "unresolved"
    if -worse > max(bound, *spreads):
        return worse, "improved"
    return worse, "within"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    records = []
    for path in argv:
        with open(path) as handle:
            records.append(json.load(handle))
    first, second = records
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        if name not in first["workloads"] or name not in second["workloads"]:
            print(f"{name}: missing from a record, not compared")
            continue
        row_a, row_b = first["workloads"][name], second["workloads"][name]
        print(f"{name}  (failed ops: {row_a['failed']} then {row_b['failed']})")
        if row_a["failed"] or row_b["failed"]:
            status = 1
        listed = {metric["name"] for kind in ("end_to_end", "per_layer") for metric in spec[kind]}
        if not all(listed <= set(row["metrics"]) for row in (row_a, row_b)):
            print("  a pass crashed and left no metrics: not compared")
            continue
        for metric in spec["end_to_end"]:
            a, b = (row["metrics"][metric["name"]] for row in (row_a, row_b))
            worse, word = verdict(a, b, better=metric["better"], bound=metric["bound"])
            if word == "regressed":
                status = 1
            spreads = " / ".join("?" if s is None else f"{s:.3f}" for s in (spread(a), spread(b)))
            print(
                f"  {metric['name']:<12} {statistics.median(a):>12.4f} -> "
                f"{statistics.median(b):>12.4f} {metric['unit']:<4} worse by {worse:+.3f} "
                f"(bound {metric['bound']:.2f}, spreads {spreads})  {word}"
            )
        for count in exact_metrics(spec):
            a, b = (row["metrics"][count] for row in (row_a, row_b))
            if set(a) != set(b):
                print(f"  {count}: count changed, {sorted(set(a))} -> {sorted(set(b))}")
        spins = [statistics.median(row["metrics"]["machine.spin_ms"]) for row in (row_a, row_b)]
        if abs(spins[1] - spins[0]) / spins[0] > 0.1:
            print(
                f"  machine.spin_ms {spins[0]:.2f} -> {spins[1]:.2f}: the machine itself "
                "differs by more than a tenth between the records"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
