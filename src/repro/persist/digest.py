"""Canonical, cross-process digests of run-identifying values.

Checkpoint resume and state-store loading must refuse artifacts produced
by a *different* run — different workload, different spec, different
verdict-relevant options — because silently adopting their cached verdicts
could change a report.  That refusal needs a digest that is stable across
processes, and ``pickle`` is not: strings hash differently per process
(``PYTHONHASHSEED``), so pickling anything containing a ``set`` or
``frozenset`` of strings yields different bytes on every run.

:func:`stable_digest` instead walks the value and feeds a *canonical*
byte stream to SHA-256: mappings by sorted key, sets by sorted element
representation, dataclasses and plain objects as ``(qualified class name,
field dict)``.  Two structurally-equal values built by two processes from
the same code digest identically; any change to a spec's zones, a
workload's FEC list, or an option that affects verdicts changes the
digest.
"""

from __future__ import annotations

import dataclasses
import enum
from hashlib import sha256
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.verifier.engine import VerificationOptions


def stable_digest(value: object) -> str:
    """A SHA-256 hex digest of ``value``, stable across processes."""
    digest = sha256()
    _feed(value, digest.update)
    return digest.hexdigest()


def _feed(value: object, update) -> None:
    # Each branch writes a type marker before its content, so values of
    # different shapes can never collide by concatenation ("ab", "c") vs
    # ("a", "bc").
    if value is None:
        update(b"N;")
    elif isinstance(value, bool):
        update(b"B1;" if value else b"B0;")
    elif isinstance(value, int):
        text = str(value).encode()
        update(b"I%d:%s;" % (len(text), text))
    elif isinstance(value, float):
        text = repr(value).encode()
        update(b"F%d:%s;" % (len(text), text))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        update(b"S%d:%s;" % (len(raw), raw))
    elif isinstance(value, bytes):
        update(b"Y%d:%s;" % (len(value), value))
    elif isinstance(value, enum.Enum):
        _feed((type(value).__qualname__, value.value), update)
    elif isinstance(value, (list, tuple)):
        update(b"L(")
        for item in value:
            _feed(item, update)
        update(b")")
    elif isinstance(value, (set, frozenset)):
        update(b"E(")
        for item in sorted(value, key=repr):
            _feed(item, update)
        update(b")")
    elif isinstance(value, dict):
        update(b"D(")
        for key in sorted(value, key=repr):
            _feed(key, update)
            _feed(value[key], update)
        update(b")")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        update(b"C(")
        _feed(type(value).__qualname__, update)
        for field in dataclasses.fields(value):
            _feed(field.name, update)
            _feed(getattr(value, field.name), update)
        update(b")")
    elif callable(value):
        # Functions (change transforms) digest by name only: their code is
        # part of the repo, not of the run's data identity.
        _feed(("callable", getattr(value, "__qualname__", repr(type(value)))), update)
    elif hasattr(value, "__dict__"):
        update(b"O(")
        _feed(type(value).__qualname__, update)
        _feed(vars(value), update)
        update(b")")
    elif hasattr(value, "__slots__"):
        update(b"O(")
        _feed(type(value).__qualname__, update)
        slot_values = {
            name: getattr(value, name)
            for name in type(value).__slots__
            if hasattr(value, name)
        }
        _feed(slot_values, update)
        update(b")")
    else:  # last resort: repr (deterministic for anything sane left over)
        _feed(("repr", repr(value)), update)


#: The :class:`~repro.verifier.engine.VerificationOptions` fields that can
#: change a verdict or a counterexample.  Resuming with different *workers*
#: or resilience knobs is allowed — parallelism and retry policy change how
#: fast checks run, never what they conclude.
VERDICT_RELEVANT_OPTION_FIELDS = (
    "granularity",
    "max_witnesses",
    "max_paths",
    "max_witness_length",
    "collect_counterexamples",
)


def options_digest(options: VerificationOptions | None) -> str:
    """Digest of the verdict-relevant option fields (None = engine defaults)."""
    if options is None:
        from repro.verifier.engine import VerificationOptions

        options = VerificationOptions()
    return stable_digest(
        (
            "options/v1",
            {
                name: getattr(options, name)
                for name in VERDICT_RELEVANT_OPTION_FIELDS
            },
        )
    )
