"""Guard: 30+-branch spec compilation must never cliff again.

The seed implementation compiled a ``multi_shift`` spec with ~30+ atomic
branches behind nested eager ``RCompose``/``RUnion`` products and took over
570 seconds (ROADMAP performance log).  The delayed-operation layer makes
the same workload complete in seconds; these tests pin that behaviour under
a hard wall-clock timeout so an accidental return to eager materialization
cannot slip through the suite silently.  The second guard wraps the chain
in a sequence spec, whose relation concatenation once forced the whole
nested ``else`` lowering into an eager transducer (153 s for 17 atomics).
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import pytest

from repro.automata.regex import Epsilon
from repro.rela.modifiers import Preserve
from repro.rela.spec import AtomicSpec, SeqSpec
from repro.serve.protocol import canonical_json, encode_report, strip_timing
from repro.verifier import VerificationOptions, verify_change
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.changes import independent_multi_shift
from repro.workloads.traffic import generate_fecs

#: Hard wall-clock budget for the lazy path.  The acceptance target is
#: single-digit seconds on the benchmark backbone; this guard runs on a
#: smaller backbone and normally finishes in well under a second, so the
#: budget only trips on a genuine cliff, not on a slow CI runner.
LAZY_BUDGET_SECONDS = 20


@contextmanager
def hard_timeout(seconds: float):
    def handler(signum, frame):  # pragma: no cover - only fires on regression
        raise TimeoutError(f"exceeded the {seconds}s spec-compilation budget")

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def big_multi_shift():
    """A 37-atomic multi_shift scenario on a small 4-region backbone."""
    backbone = generate_backbone(
        BackboneParams(regions=4, routers_per_group=1, parallel_links=1, prefixes_per_region=1)
    )
    fecs = generate_fecs(backbone, max_classes=12)
    pre = backbone.simulator().snapshot(fecs, name="pre")
    scenario = independent_multi_shift(backbone, pre, num_shifts=36)
    assert scenario.atomic_count >= 30
    assert scenario.expect_holds  # from/to halves are disjoint -> independent
    return backbone, scenario


@pytest.fixture(scope="module")
def bare_run(big_multi_shift):
    """The bare chain's report and wall-clock seconds, under the budget."""
    backbone, scenario = big_multi_shift
    started = time.perf_counter()
    with hard_timeout(LAZY_BUDGET_SECONDS):
        report = verify_change(
            scenario.pre, scenario.post, scenario.spec, db=backbone.location_db()
        )
    return report, time.perf_counter() - started


def test_lazy_compilation_handles_30_plus_branches(big_multi_shift, bare_run):
    _backbone, scenario = big_multi_shift
    report, elapsed = bare_run
    assert report.holds == scenario.expect_holds
    # The verdict above already proves end-to-end tractability; keep a loose
    # absolute bound as documentation of the expected order of magnitude.
    assert elapsed < LAZY_BUDGET_SECONDS


def test_sequence_wrapped_else_chain_stays_delayed(big_multi_shift, bare_run):
    """``{ chain ; ε : preserve }`` verifies like the bare 37-atomic chain.

    The sequence lowers to a relation concatenation around the nested
    ``else`` translation; it must stay a delayed node, within the same
    budget, with the bare spec's verdict, and pickle into workers.
    """
    backbone, scenario = big_multi_shift
    db = backbone.location_db()
    wrapped = SeqSpec((scenario.spec, AtomicSpec(Epsilon(), Preserve())))
    bare, _elapsed = bare_run
    with hard_timeout(LAZY_BUDGET_SECONDS):
        serial = verify_change(scenario.pre, scenario.post, wrapped, db=db)
        pooled = verify_change(
            scenario.pre, scenario.post, wrapped, db=db, options=VerificationOptions(workers=2)
        )
    assert serial.holds == scenario.expect_holds
    assert serial.violating_fecs == bare.violating_fecs
    # More than one distinct check goes to the pool, so the compiled spec
    # (new delayed nodes included) was pickled into the workers.
    assert pooled.workers == 2 and pooled.unique_checks > 1
    assert wire(pooled) == wire(serial)


def wire(report) -> bytes:
    """The wire report minus timing and the worker count."""
    payload = strip_timing(encode_report(report))
    del payload["workers"]
    return canonical_json(payload)
