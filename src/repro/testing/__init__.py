"""Deterministic test harnesses for the repro package.

Home to the fault-injection plans (:mod:`repro.testing.faults`) the
resilience runtime's differential tests are driven by, and to the naive
route-computation reference (:mod:`repro.testing.routing`) the simulator's
differential tests compare against.  Nothing in ``src/repro`` outside the
verifier's injection seams depends on this package, and nothing here
depends on the verifier — plans are plain data.
"""

from repro.testing.faults import Fault, FaultPlan, InjectedFault, seeded_fault_plan

__all__ = ["Fault", "FaultPlan", "InjectedFault", "seeded_fault_plan"]
