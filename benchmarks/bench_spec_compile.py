"""Spec-compilation microbenchmark: the 30+-branch multi_shift tail.

The ROADMAP performance log records the seed's cliff: eagerly compiling a
``multi_shift`` spec with ~37 atomic branches exceeded 570 seconds, which
excluded the paper's routing-architecture tail (Figure 5, up to ~40 atomic
specs) from the reproduction.  The delayed-operation layer compiles the same
spec as a lazy relation DAG in well under two seconds (1.4–1.9 s on a
2-core Xeon container) and verifies the change end-to-end in a few seconds;
these benchmarks print both numbers and assert the structure behind them.
The compile is not "milliseconds": most of it is the branch shadows, each a
left-nested binary ``Union`` of every prior zone whose ``to_fsa`` re-embeds
the accumulated NFA at every level (about 10 600 ``FSA._embed`` calls per
compile).  The multi-shift tail's timing is owned by the
``change_mix`` workload of ``benchmarks/perf``; the tier-1
``tests/integration/test_spec_compile_guard.py`` holds the 37-atomic chain,
bare and wrapped in a sequence spec, to a hard wall-clock budget.
"""

from __future__ import annotations

import time

from repro.rela.compile import zone
from repro.rela.spec import flatten_else
from repro.verifier import VerificationOptions, build_alphabet, compile_spec, verify_change
from repro.workloads.changes import independent_multi_shift


def _spec_alphabet(scenario, db):
    spec_symbols = zone(scenario.spec).symbols()
    for branch in flatten_else(scenario.spec):
        spec_symbols |= zone(branch).symbols()
    return build_alphabet(scenario.pre, scenario.post, db=db, extra_symbols=spec_symbols)


def test_spec_compile_multi_shift_37(backbone, pre_snapshot):
    """Delayed compilation of a 37-atomic spec (DAG construction only)."""
    scenario = independent_multi_shift(backbone, pre_snapshot)
    assert scenario.atomic_count == 37
    alphabet = _spec_alphabet(scenario, backbone.location_db())

    started = time.perf_counter()
    compiled = compile_spec(scenario.spec, alphabet)
    elapsed = time.perf_counter() - started

    assert len(compiled.branches) == 37
    print()
    print(
        "Spec compilation (37 atomic branches, delayed DAG, shadow unions "
        f"included): {elapsed:.2f} s "
        "(the eager seed path exceeded 570 s end-to-end)"
    )


def test_verify_multi_shift_37_end_to_end(backbone, pre_snapshot):
    """Scenario-35-class validation end-to-end (compile + all FEC checks)."""
    scenario = independent_multi_shift(backbone, pre_snapshot)
    db = backbone.location_db()
    options = VerificationOptions(collect_counterexamples=False)

    started = time.perf_counter()
    report = verify_change(scenario.pre, scenario.post, scenario.spec, db=db, options=options)
    elapsed = time.perf_counter() - started

    assert report.holds == scenario.expect_holds is True
    print()
    print(
        "37-atomic multi_shift verified end-to-end in "
        f"{elapsed:.2f} s (was >570 s at the seed)"
    )
