"""Guard: 30+-branch spec compilation must never cliff again.

The seed implementation compiled a ``multi_shift`` spec with ~30+ atomic
branches behind nested eager ``RCompose``/``RUnion`` products and took over
570 seconds (ROADMAP performance log).  The delayed-operation layer makes
the same workload complete in seconds; this test pins that behaviour under
a hard wall-clock timeout so an accidental return to eager materialization
cannot slip through the suite silently.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from repro.verifier import verify_change
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.changes import independent_multi_shift
from repro.workloads.traffic import generate_fecs

#: Hard wall-clock budget for the lazy path.  The acceptance target is
#: single-digit seconds on the benchmark backbone; this guard runs on a
#: smaller backbone and normally finishes in well under a second, so the
#: budget only trips on a genuine cliff, not on a slow CI runner.
LAZY_BUDGET_SECONDS = 20
#: Budget under which the eager path is *expected* to die: the seed took
#: >570 s, so 5 s cleanly separates "cliff" from "fixed" without making the
#: suite slow.
EAGER_BUDGET_SECONDS = 5


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


def test_lazy_compilation_handles_30_plus_branches(big_multi_shift):
    backbone, scenario = big_multi_shift
    started = time.perf_counter()
    with hard_timeout(LAZY_BUDGET_SECONDS):
        report = verify_change(
            scenario.pre, scenario.post, scenario.spec, db=backbone.location_db()
        )
    elapsed = time.perf_counter() - started
    assert report.holds == scenario.expect_holds
    # The verdict above already proves end-to-end tractability; keep a loose
    # absolute bound as documentation of the expected order of magnitude.
    assert elapsed < LAZY_BUDGET_SECONDS


# The eager probe runs in a throwaway subprocess: the blowup allocates
# gigabytes inside single C-level set/list operations, so an in-process
# SIGALRM can be delayed until well after the machine starts thrashing (and
# under memory pressure the failure surfaces as MemoryError rather than
# TimeoutError).  A child process with a hard address-space cap is killable
# and cannot take the test runner down with it.
_EAGER_PROBE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))
from repro.rela.compile import zone
from repro.rela.spec import flatten_else
from repro.testing.reference import compile_spec_eager
from repro.verifier import build_alphabet
from repro.workloads.backbone import BackboneParams, generate_backbone
from repro.workloads.changes import independent_multi_shift
from repro.workloads.traffic import generate_fecs

backbone = generate_backbone(
    BackboneParams(regions=4, routers_per_group=1, parallel_links=1, prefixes_per_region=1)
)
fecs = generate_fecs(backbone, max_classes=12)
pre = backbone.simulator().snapshot(fecs, name="pre")
scenario = independent_multi_shift(backbone, pre, num_shifts=36)
spec_symbols = zone(scenario.spec).symbols()
for branch in flatten_else(scenario.spec):
    spec_symbols |= zone(branch).symbols()
alphabet = build_alphabet(
    scenario.pre, scenario.post, db=backbone.location_db(), extra_symbols=spec_symbols
)
compile_spec_eager(scenario.spec, alphabet)  # branch transducers included
print("EAGER_COMPLETED")
"""


def test_eager_compilation_still_cliffs_on_30_plus_branches():
    """The eager reference compiler still cannot compile the 37-branch spec.

    This is the cliff's regression marker: if the eager pipeline ever
    finishes the scenario-35-class compile within budget, this test fails
    loudly so the delayed-ops layer's tests and docs get revisited rather
    than silently drifting.  (Before the delayed-ops layer landed, the lazy
    guard above was the xfail; now the expectation is inverted.)
    """
    import os

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    try:
        result = subprocess.run(
            [sys.executable, "-c", _EAGER_PROBE],
            timeout=EAGER_BUDGET_SECONDS,
            capture_output=True,
            text=True,
            env=env,
        )
    except subprocess.TimeoutExpired:
        return  # the cliff: still compiling when the budget expired
    if result.returncode == 0 and "EAGER_COMPLETED" in result.stdout:
        pytest.fail(
            "eager spec compilation of a 37-branch multi_shift finished within "
            f"{EAGER_BUDGET_SECONDS}s/2GB — the documented cliff is gone; update "
            "the delayed-ops guard and ROADMAP"
        )
    # The only acceptable failure mode is resource exhaustion; anything else
    # (ImportError, crash in the probe script) is a broken probe, not a cliff.
    assert "MemoryError" in result.stderr, (
        f"eager probe failed for an unexpected reason:\n{result.stderr[-2000:]}"
    )
