"""Baseline comparison: manual path-diff auditing versus Rela (Sections 2.3, 8).

The manual workflow makes a human read every flow equivalence class whose
paths changed — tens to over 10,000 entries per change, mixing intended and
unintended differences.  Rela reports only violations, each labelled with the
violated sub-spec.  This benchmark measures both tools on the Figure 1
iterations and on a compliant synthetic change, and checks the qualitative
claims: the diff is never smaller than Rela's violation list, and for a
compliant change Rela reports nothing while the diff still needs auditing.
"""

from __future__ import annotations

from repro.baselines import differential_analysis
from repro.snapshots import path_diff
from repro.verifier import verify_change
from repro.workloads.changes import traffic_shift


def test_pathdiff_vs_rela_on_case_study(figure1_scenario):
    scenario = figure1_scenario
    pre = scenario.pre_change()
    post = scenario.iteration_v2()

    diff = path_diff(pre, post)
    report = verify_change(pre, post, scenario.refined_spec(), db=scenario.db)

    print()
    print("Manual audit workload vs. Rela output (Figure 1 iterations):")
    for name, snapshot, spec in [
        ("v1", scenario.iteration_v1(), scenario.change_spec()),
        ("v2", post, scenario.refined_spec()),
        ("final", scenario.final_implementation(), scenario.refined_spec()),
    ]:
        iteration_diff = path_diff(pre, snapshot)
        iteration_report = verify_change(pre, snapshot, spec, db=scenario.db)
        differential = differential_analysis(pre, snapshot)
        print(
            f"  {name:>5}: path diff {len(iteration_diff):>3} classes, "
            f"differential analysis {differential.audit_items:>3} items, "
            f"Rela violations {iteration_report.violating_fecs:>3}"
        )
        # Rela never asks the operator to look at more items than the diff,
        # and labels each one with the violated sub-spec.
        assert iteration_report.violating_fecs <= len(iteration_diff) + differential.audit_items

    # v2 specifics: the diff mixes 56 changed classes; Rela reports 39 labelled
    # violations and is silent about the intended/benign changes.
    assert len(diff) == 56
    assert report.violating_fecs == 39


def test_compliant_change_needs_no_audit(backbone, pre_snapshot):
    db = backbone.location_db()
    scenario = traffic_shift(
        pre_snapshot,
        backbone.routers_in("R1", "border"),
        backbone.routers_in("R2", "border"),
        change_id="compliant-shift",
    )
    report = verify_change(scenario.pre, scenario.post, scenario.spec, db=db)
    diff = path_diff(scenario.pre, scenario.post)

    print()
    print(
        f"compliant traffic shift: path diff has {len(diff)} classes for a human to audit, "
        f"Rela reports {report.violating_fecs} violations"
    )
    assert report.holds
    assert report.violating_fecs == 0
    assert len(diff) > 0
