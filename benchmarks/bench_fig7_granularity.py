"""Figure 7: validation time versus spec size and location granularity.

The paper sweeps spec size (N = 1, 4, 7, 13, 37 atomic specs) and granularity
(router group, router, interface) and finds that validation time grows with
spec size, that group- and router-level analyses cost about the same, and
that interface-level analysis is roughly an order of magnitude more expensive
because of the parallel-link path blowup.

The benchmark reproduces a scaled-down sweep (N = 1, 4, 7 over a smaller FEC
sample) and asserts the two shape claims; the full matrix is printed.
"""

from __future__ import annotations

import time

from repro.rela.locations import Granularity
from repro.verifier import VerificationOptions, verify_change
from repro.workloads.changes import multi_shift, no_change
from repro.workloads.traffic import generate_fecs

SPEC_SIZES = (1, 4, 7)
GRANULARITIES = (Granularity.GROUP, Granularity.ROUTER, Granularity.INTERFACE)


def build_scenario(backbone, snapshot, atomic_count):
    if atomic_count == 1:
        return no_change(snapshot)
    regions = backbone.regions()
    shifts = []
    for index in range(atomic_count - 1):
        region_a = regions[index % len(regions)]
        region_b = regions[(index + 1) % len(regions)]
        shifts.append(
            (backbone.routers_in(region_a, "border"), backbone.routers_in(region_b, "border"))
        )
    return multi_shift(snapshot, shifts, change_id=f"sweep-{atomic_count}")


def test_fig7_granularity_sweep(backbone):
    db = backbone.location_db()
    fecs = generate_fecs(backbone, max_classes=8)
    simulator = backbone.simulator()

    matrix: dict[tuple[str, int], float] = {}
    for granularity in GRANULARITIES:
        snapshot = simulator.snapshot(
            fecs, name=f"pre-{granularity.value}", granularity=granularity
        )
        for atomic_count in SPEC_SIZES:
            scenario = build_scenario(backbone, snapshot, atomic_count)
            run_options = VerificationOptions(
                granularity=granularity, collect_counterexamples=False
            )
            started = time.perf_counter()
            report = verify_change(
                scenario.pre, scenario.post, scenario.spec, db=db, options=run_options
            )
            matrix[(granularity.value, atomic_count)] = time.perf_counter() - started
            assert report.holds

    print()
    print("Figure 7 (reproduced): validation time [ms] by spec size and granularity")
    header = "  granularity    " + "".join(f"N={n:<8}" for n in SPEC_SIZES)
    print(header)
    for granularity in GRANULARITIES:
        row = f"  {granularity.value:<14}"
        for atomic_count in SPEC_SIZES:
            row += f"{matrix[(granularity.value, atomic_count)]*1000:8.1f}  "
        print(row)

    # Shape claims: time grows with spec size; interface level costs the most.
    for granularity in GRANULARITIES:
        assert matrix[(granularity.value, SPEC_SIZES[-1])] >= matrix[(granularity.value, 1)]
    for atomic_count in SPEC_SIZES:
        assert (
            matrix[(Granularity.INTERFACE.value, atomic_count)]
            >= matrix[(Granularity.ROUTER.value, atomic_count)]
        )
