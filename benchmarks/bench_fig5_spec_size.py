"""Figure 5: distribution of Rela spec sizes across the change dataset.

The paper reports that 93% of high-risk changes need fewer than 10 atomic
specs, half need exactly one ("no expected forwarding impact"), and a small
tail of routing-architecture changes needs up to ~40.  This benchmark builds
the Rela spec for every change in the synthetic dataset, prints the CDF rows
of Figure 5 and asserts the headline shape claims.
"""

from __future__ import annotations

from repro.workloads.changes import generate_change_dataset


def spec_sizes(backbone, pre_snapshot):
    dataset = generate_change_dataset(backbone, pre_snapshot, count=60, seed=23)
    return sorted(scenario.atomic_count for scenario in dataset)


def test_fig5_spec_size_distribution(backbone, pre_snapshot):
    sizes = spec_sizes(backbone, pre_snapshot)

    total = len(sizes)
    fraction_single = sum(1 for size in sizes if size == 1) / total
    fraction_small = sum(1 for size in sizes if size < 10) / total

    # Headline claims of Figure 5 / Section 9.1.
    assert fraction_single >= 0.4, "about half the changes expect no forwarding impact"
    assert fraction_small >= 0.9, "the vast majority of specs stay below 10 atomic terms"
    assert max(sizes) >= 10, "a tail of large multi-shift changes exists"

    print()
    print("Figure 5 (reproduced): CDF of the number of atomic specs per change")
    print(f"  {'atomic specs':>12} | {'CDF':>6}")
    for threshold in (1, 2, 4, 7, 10, 13, 20, 37, max(sizes)):
        cdf = sum(1 for size in sizes if size <= threshold) / total
        print(f"  {threshold:>12} | {cdf:>6.2f}")
    print(f"  paper: 93% of changes need < 10 atomic specs; ours: {fraction_small:.0%}")
    print(f"  paper: half need exactly 1;                    ours: {fraction_single:.0%}")
