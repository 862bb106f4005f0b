"""Section 8.1 case study: violation counts across change iterations.

The paper reports, per iteration, how many flow equivalence classes violate
each sub-spec (v1: 17 ``nochange`` + 15 ``e2e``; v2: 15 ``e2e`` + 24
``nochange`` + 0 ``sideEffects``; final: none).  The benchmark replays the
full case study and asserts the reproduced counts.
"""

from __future__ import annotations

from repro.verifier import verify_change
from repro.workloads.figure1 import SIDE_EFFECT_CLASSES, T1_CLASSES, T2_CLASSES


def run_case_study(scenario):
    pre = scenario.pre_change()
    results = {}
    results["v1"] = verify_change(
        pre, scenario.iteration_v1(), scenario.change_spec(), db=scenario.db
    )
    results["v2"] = verify_change(
        pre, scenario.iteration_v2(), scenario.refined_spec(), db=scenario.db
    )
    results["v3"] = verify_change(
        pre, scenario.iteration_v3(), scenario.refined_spec(), db=scenario.db
    )
    results["final"] = verify_change(
        pre, scenario.final_implementation(), scenario.refined_spec(), db=scenario.db
    )
    return results


def test_case_study_iterations(figure1_scenario):
    results = run_case_study(figure1_scenario)

    assert results["v1"].violations_for("e2e") == T1_CLASSES == 15
    assert results["v1"].violations_for("nochange") == SIDE_EFFECT_CLASSES == 17
    assert results["v2"].violations_for("e2e") == 15
    assert results["v2"].violations_for("nochange") == T2_CLASSES == 24
    assert results["v2"].violations_for("sideEffects") == 0
    assert results["v3"].violations_for("nochange") == 0
    assert results["v3"].violations_for("e2e") == 15
    assert results["final"].holds

    v1, v2 = results["v1"], results["v2"]
    print()
    print("Section 8.1 case study (reproduced):")
    print(
        f"  paper v1:    17 nochange + 15 e2e   -> ours: "
        f"{v1.violations_for('nochange')} nochange + {v1.violations_for('e2e')} e2e"
    )
    print(
        f"  paper v2:    15 e2e + 24 nochange + 0 sideEffects -> ours: "
        f"{v2.violations_for('e2e')} e2e + {v2.violations_for('nochange')} nochange + "
        f"{v2.violations_for('sideEffects')} sideEffects"
    )
    final = "compliant" if results["final"].holds else "violations"
    print(f"  paper final: compliant -> ours: {final}")
