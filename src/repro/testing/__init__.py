"""Deterministic test harnesses for the repro package.

Home to the fault-injection plans (:mod:`repro.testing.faults`) the
resilience runtime's differential tests are driven by, to the naive
route-computation reference (:mod:`repro.testing.routing`) the simulator's
differential tests compare against, to the naive per-FEC verifier
(:mod:`repro.testing.reference`) the engine's grouping, caching and flat
spec lowering are pinned against, and to the bounded pair enumeration
(:mod:`repro.testing.pairs`) that compares delayed relations with the
paper's Appendix A set semantics.  Nothing in ``src/repro`` outside the
verifier's injection seams depends on this package.  The verifier
reference depends on the verifier, so this package does not import it:
import :mod:`repro.testing.reference` directly.
"""

from repro.testing.faults import Fault, FaultPlan, InjectedFault, seeded_fault_plan

__all__ = ["Fault", "FaultPlan", "InjectedFault", "seeded_fault_plan"]
