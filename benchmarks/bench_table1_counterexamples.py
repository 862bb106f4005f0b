"""Table 1: counterexamples generated for the Figure 1c (v2) implementation.

The paper's Table 1 shows two counterexamples for iteration v2: a T1 flow
whose new path bounces through B3 (violating ``e2e``) and a T2 flow that
suffered collateral damage (violating ``nochange``).  This benchmark verifies
the v2 snapshot pair and checks the reproduced counterexamples have exactly
that structure.
"""

from __future__ import annotations

from repro.verifier import verify_change
from repro.workloads.figure1 import T2_CLASSES, T1_CLASSES


def test_table1_counterexamples(figure1_scenario):
    scenario = figure1_scenario
    pre = scenario.pre_change()
    post = scenario.iteration_v2()
    spec = scenario.refined_spec()

    report = verify_change(pre, post, spec, db=scenario.db)

    assert not report.holds
    assert report.violations_for("e2e") == T1_CLASSES
    assert report.violations_for("nochange") == T2_CLASSES
    assert report.violations_for("sideEffects") == 0

    by_bundle = {}
    for counterexample in report.counterexamples:
        bundle = counterexample.fec_id.split("-")[0]
        by_bundle.setdefault(bundle, counterexample)

    t1 = by_bundle["t1"]
    assert t1.pre_paths == [("x1", "A1", "B1", "B2", "B3", "D1", "y1")]
    assert t1.post_paths == [("x1", "A1", "A2", "A3", "B3", "D1", "y1")]
    assert t1.branches == ["e2e"]
    t2 = by_bundle["t2"]
    assert t2.post_paths == [("x2", "C1", "C2", "D1", "y2")]
    assert t2.branches == ["nochange"]

    print()
    print("Table 1 (reproduced): counterexamples for change implementation v2")
    print(report.table(max_rows=4))
