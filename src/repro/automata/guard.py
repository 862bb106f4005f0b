"""Cooperative wall-clock deadlines for product walks.

The runtime's per-check deadline guard (:func:`repro.verifier.runtime._deadline`)
is SIGALRM-based, and ``SIGALRM`` can only be armed on the main thread of a
process.  Checks executed *in-thread* — serial requests and the resilient
pool's serial fallback on the daemon's executor threads, any threaded
caller — used to silently lose their ``check_timeout`` protection: a
pathological product walk could hang the thread with no cutoff short of
the process-level CI timeout.

This module is the non-main-thread fallback: a thread-local monotonic-clock
deadline that the lazy decision procedures poll at product-walk step
boundaries (:mod:`repro.automata.lazy`).  The contract:

* the runtime *arms* the deadline around a check body
  (:func:`arm_deadline` / :func:`disarm_deadline`) when SIGALRM is
  unavailable — wrong thread or platform;
* every unbounded exploration loop captures :func:`active_deadline` once on
  entry (the deadline cannot change mid-check) and, when armed, calls
  :func:`check_deadline` every few hundred steps, raising
  :class:`~repro.errors.CheckTimeoutError` past the deadline.

The poll granularity trades precision for overhead: a disarmed walk pays one
``is not None`` test per step, an armed walk one ``time.monotonic()`` call
per 256 steps.  Product walks that finish in fewer steps never poll — they
also never hang, so nothing is lost.
"""

from __future__ import annotations

import threading
import time

from repro.errors import CheckTimeoutError

__all__ = ["arm_deadline", "disarm_deadline", "active_deadline", "check_deadline"]

#: How many walk steps pass between clock reads once a deadline is armed.
#: Must be a power of two minus one (used as a bitmask by the walk loops).
POLL_MASK = 255

_STATE = threading.local()


def arm_deadline(seconds: float) -> float:
    """Arm this thread's cooperative deadline ``seconds`` from now."""
    deadline = time.monotonic() + seconds
    _STATE.deadline = deadline
    return deadline


def disarm_deadline() -> None:
    """Clear this thread's cooperative deadline."""
    _STATE.deadline = None


def active_deadline() -> float | None:
    """The monotonic deadline armed on this thread, or ``None``."""
    return getattr(_STATE, "deadline", None)


def check_deadline(deadline: float) -> None:
    """Raise :class:`CheckTimeoutError` when ``deadline`` has passed."""
    if time.monotonic() > deadline:
        raise CheckTimeoutError(
            "check exceeded its wall-clock budget (cooperative deadline)"
        )
