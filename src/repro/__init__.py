"""Reproduction of "Relational Network Verification" (Rela, SIGCOMM 2024).

The package is organised as:

* :mod:`repro.automata` — automata and delayed transducers (OpenFST/HFST stand-in);
* :mod:`repro.rir` — the Regular Intermediate Representation (Section 5.2);
* :mod:`repro.rela` — the Rela surface language and its compiler (Sections 4-5);
* :mod:`repro.network` — topology, routing and dataplane simulation substrate;
* :mod:`repro.snapshots` — forwarding graphs, flow equivalence classes, path diff;
* :mod:`repro.verifier` — the relational decision procedure (Section 6);
* :mod:`repro.workloads` — synthetic backbone, traffic and change generators;
* :mod:`repro.baselines` — single-snapshot and differential-analysis baselines.

The most convenient entry points are re-exported here; see ``README.md`` for
a quickstart.
"""

from __future__ import annotations

__version__ = "1.0.0"

__all__ = ["__version__"]
