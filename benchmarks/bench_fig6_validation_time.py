"""Figure 6: distribution of change validation time.

The paper validates every change in its dataset against the same snapshot
pair and reports the CDF of wall-clock time: the median equals the cost of
the "no change" spec, 80% finish within 20 minutes, the worst case takes 150
minutes on a 96-core machine.  Absolute numbers do not transfer to a laptop
and a synthetic backbone, but the *shape* does: the median is the no-change
check, and larger specs sit in the tail.

The benchmark prints the full per-change timing CDF.  It sweeps the
*entire* change dataset — including the 30+-atomic ``multi_shift``
scenarios that the eager spec compiler could not finish and that earlier
perf records had to exclude — and asserts every verdict against the
scenario's expectation.  Absolute timings are owned by the ``change_mix``
workload of ``benchmarks/perf``.
"""

from __future__ import annotations

import time

from repro.verifier import VerificationOptions, verify_change


def _quantile(sorted_times: list[float], quantile: float) -> float:
    index = min(len(sorted_times) - 1, int(quantile * len(sorted_times)))
    return sorted_times[index]


def test_fig6_validation_time_cdf(backbone, change_dataset):
    db = backbone.location_db()
    options = VerificationOptions(collect_counterexamples=False)

    # Measure every change once (the Figure 6 population).
    timings: list[tuple[str, int, float, bool]] = []
    for scenario in change_dataset:
        started = time.perf_counter()
        report = verify_change(scenario.pre, scenario.post, scenario.spec, db=db, options=options)
        elapsed = time.perf_counter() - started
        timings.append((scenario.archetype, scenario.atomic_count, elapsed, report.holds))
        assert report.holds == scenario.expect_holds

    nochange_times = sorted(t for archetype, _n, t, _h in timings if archetype == "no_change")
    other_times = sorted(t for archetype, _n, t, _h in timings if archetype != "no_change")
    all_times = sorted(t for _a, _n, t, _h in timings)

    print()
    print(
        "Figure 6 (reproduced): CDF of validation time over "
        f"{len(all_times)} changes (full dataset, multi_shift tail included)"
    )
    for quantile in (0.5, 0.8, 1.0):
        print(f"  p{int(quantile * 100):>3}: {_quantile(all_times, quantile) * 1000:8.1f} ms")
    if nochange_times and other_times:
        print(
            f"  median no-change check {nochange_times[len(nochange_times)//2]*1000:.1f} ms vs "
            f"largest change {other_times[-1]*1000:.1f} ms"
        )
        # Shape claim: the no-change check bounds the median; bigger specs cost more.
        assert nochange_times[len(nochange_times) // 2] <= other_times[-1]
