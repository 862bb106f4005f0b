"""The cooperative deadline: hanging product walks are cut off in-thread.

The runtime's preemptive per-check guard is SIGALRM-based, and SIGALRM can
only be armed on a process's main thread.  Off the main thread — the
embedded service runner, a sharded sweep's shard-local session, the
resilient pool's serial fallback running under a thread — the guard used to
be a silent no-op: a pathological product walk would hang the thread with
no cutoff short of the process-level CI timeout.  These tests pin the
fallback (:mod:`repro.automata.guard`): the same ``_deadline`` context
manager, armed off the main thread, still interrupts the walk — at
step-boundary granularity instead of preemptively.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.automata import FSA, Alphabet
from repro.automata.guard import active_deadline, arm_deadline, check_deadline, disarm_deadline
from repro.automata.lazy import is_equivalent
from repro.errors import CheckTimeoutError
from repro.rir import (
    PSStar,
    PSSymbol,
    PSUnion,
    RConcat,
    RIdentity,
    RIRContext,
    compile_rel_lazy,
)
from repro.verifier.runtime import _deadline

ALPHA = Alphabet(["a", "b"])


def blowup(n: int) -> FSA:
    """The classic (a|b)*a(a|b)^n NFA: determinizing it needs 2^n subsets,
    so an equivalence walk over two of these explores far more product
    states than any test budget allows — a deterministic stand-in for a
    hanging check."""
    any_ab = FSA.any_symbol(ALPHA, ["a", "b"])
    fsa = any_ab.star().concat(FSA.symbol(ALPHA, "a"))
    for _ in range(n):
        fsa = fsa.concat(any_ab)
    return fsa


def test_cooperative_deadline_cuts_off_a_hanging_walk_in_thread():
    """A check body that would run for hours is interrupted near its 0.2s
    budget when executed on a worker thread, where SIGALRM cannot fire."""
    left, right = blowup(26), blowup(27)
    outcome: dict[str, object] = {}

    def body() -> None:
        assert threading.current_thread() is not threading.main_thread()
        started = time.perf_counter()
        try:
            with _deadline(0.2):
                outcome["result"] = is_equivalent(left, right)
        except CheckTimeoutError as exc:
            outcome["error"] = exc
        outcome["elapsed"] = time.perf_counter() - started

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "the walk was never interrupted"
    assert "result" not in outcome, "the blowup walk should not have finished"
    assert isinstance(outcome["error"], CheckTimeoutError)
    # Step-boundary polling is coarse, not unbounded: the cutoff lands near
    # the budget, nowhere near the walk's natural runtime.
    assert outcome["elapsed"] < 5.0


def test_deadline_is_disarmed_after_the_context_exits():
    def body() -> None:
        with _deadline(30.0):
            assert active_deadline() is not None
        assert active_deadline() is None

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def test_guard_primitives():
    deadline = arm_deadline(60.0)
    try:
        assert active_deadline() == deadline
        check_deadline(deadline)  # not expired: no raise
    finally:
        disarm_deadline()
    assert active_deadline() is None
    with pytest.raises(CheckTimeoutError):
        check_deadline(time.monotonic() - 1.0)


def test_every_image_walk_polls_the_deadline():
    """A compiled relation concatenation is imaged by the one image walk,
    which polls the cooperative deadline like every other product walk."""
    empty = FSA.empty_language(ALPHA)
    ctx = RIRContext(ALPHA, empty, empty)
    sigma_star = RIdentity(PSStar(PSUnion(PSSymbol("a"), PSSymbol("b"))))
    relation = compile_rel_lazy(RConcat(sigma_star, sigma_star), ctx)
    path = FSA.from_word(ALPHA, ["a"] * 300)  # well over 256 walk steps
    arm_deadline(-1.0)  # already expired
    try:
        with pytest.raises(CheckTimeoutError):
            relation.image(path)
    finally:
        disarm_deadline()
