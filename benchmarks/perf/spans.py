"""Spans around the layers' public entry points, recorded from outside ``src/``.

The traced pass of a workload installs a wrapper around every entry point in
:data:`TARGETS` -- class attributes are patched in place, module functions at
their definition and at every ``from ... import`` alias already present in
``sys.modules`` -- and records one span per call: name, start, end, parent,
thread and operation, plus the span's *self* time (its duration minus the
part its child spans cover).  Spans stay in memory; :meth:`Tracer.dump`
writes them out when the workload ends.

Only coarse entry points are wrapped (10^4 spans per round, not 10^6):
per-FEC functions such as ``GraphStore.intern`` are never wrapped, so the
cost of a per-FEC loop shows up as the self time of the span that contains
it.  Threading spans through ``src/`` itself is ROADMAP item 1.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import NamedTuple

#: span name -> (module, qualified name of the wrapped entry point)
TARGETS: dict[str, tuple[str, str]] = {
    "network.bgp.compute": ("repro.network.bgp", "BGPComputation.compute"),
    "network.igp.spf": ("repro.network.igp", "shortest_path_costs"),
    "network.fib.build": ("repro.network.fib", "build_fibs"),
    "network.topology.without_links": ("repro.network.topology", "Topology.without_links"),
    "network.simulator.snapshot": ("repro.network.simulator", "Simulator.snapshot"),
    "network.simulator.derive": ("repro.network.simulator", "Simulator.derive_snapshot"),
    "network.simulator.screen": ("repro.network.simulator", "Simulator.changed_routers"),
    "snapshots.snapshot.from_dict": ("repro.snapshots.snapshot", "Snapshot.from_dict"),
    "rela.compile.lower": ("repro.rela.compile", "branch_relations"),
    "rir.compiler.compile": ("repro.rir.compiler", "compile_rel_lazy"),
    "automata.lazy.image": ("repro.automata.lazy", "relation_image"),
    "automata.equivalence.compare": ("repro.automata.equivalence", "compare"),
    "verifier.engine.compile_spec": ("repro.verifier.engine", "compile_spec"),
    "verifier.runtime.execute": ("repro.verifier.runtime", "execute_checks"),
    "verifier.session.advance": ("repro.verifier.session", "VerificationSession.advance"),
    "verifier.session.rebase": ("repro.verifier.session", "VerificationSession.rebase"),
    "verifier.contingency.run": ("repro.verifier.contingency", "ContingencySweep.run"),
    "persist.checkpoint.record_unit": ("repro.persist.checkpoint", "Checkpoint.record_unit"),
    "analytics.gate.gate_sweep": ("repro.analytics.gate", "gate_sweep"),
    "serve.host.handle_json": ("repro.serve.host", "SessionHost.handle_json"),
    "serve.host.advance": ("repro.serve.host", "SessionHost.advance"),
    "serve.protocol.decode_snapshot": ("repro.serve.protocol", "decode_snapshot"),
    "serve.protocol.decode_spec": ("repro.serve.protocol", "decode_spec"),
    "serve.protocol.encode_report": ("repro.serve.protocol", "encode_report"),
    "serve.quotas.try_admit": ("repro.serve.quotas", "AdmissionLedger.try_admit"),
    "serve.pool.execute": ("repro.serve.pool", "PoolManager.execute"),
}

#: The name of the root span the harness opens around each operation.
OP = "op"


class Span(NamedTuple):
    """One recorded call (times are ``time.perf_counter`` seconds)."""

    name: str
    span_id: int
    start: float
    end: float
    #: ``span_id`` of the enclosing span on the same thread, ``None`` at a root.
    parent: int | None
    thread: int
    #: ``span_id`` of the root span of this span's stack: the operation.
    op: int
    #: Duration minus the time covered by child spans.
    self_s: float
    #: False for a span nested inside another span of the same name, whose
    #: duration is already part of that ancestor's (recursive entry points).
    outermost: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("name", "span_id", "start", "child_s", "op", "outermost")

    def __init__(self, name: str, span_id: int, op: int, outermost: bool) -> None:
        self.name = name
        self.span_id = span_id
        self.op = op
        self.outermost = outermost
        self.child_s = 0.0
        self.start = time.perf_counter()


class Tracer:
    """Installs the wrappers, holds the spans, restores what it patched."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (owner object, attribute name, original value), in install order.
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _enter(self, name: str) -> _Frame:
        stack = self._stack()
        span_id = next(self._ids)
        op = stack[0].span_id if stack else span_id
        outermost = all(frame.name != name for frame in stack)
        frame = _Frame(name, span_id, op, outermost)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        parent = None
        if stack:
            stack[-1].child_s += duration
            parent = stack[-1].span_id
        self.spans.append(
            Span(
                frame.name,
                frame.span_id,
                frame.start,
                end,
                parent,
                threading.get_ident(),
                frame.op,
                duration - frame.child_s,
                frame.outermost,
            )
        )

    @contextmanager
    def op(self) -> Iterator[None]:
        """The root span of one operation on the calling thread."""
        frame = self._enter(OP)
        try:
            yield
        finally:
            self._exit(frame)

    def mark_ops(self, boundaries: list[float]) -> None:
        """Cut the spans recorded so far into operations at ``boundaries``.

        A contingency sweep is one library call that completes many
        operations, so its operations cannot be opened as enclosing spans:
        the harness notes when each one completed and the root ``op`` spans
        are laid over the recorded spans afterwards.  ``boundaries`` holds
        the start of the first operation followed by each completion time.
        """
        thread = threading.get_ident()
        ops = []
        for start, end in zip(boundaries, boundaries[1:]):
            span_id = next(self._ids)
            ops.append(Span(OP, span_id, start, end, None, thread, span_id, 0.0, True))
        relabelled = []
        for span in self.spans:
            index = bisect_right(boundaries, span.start) - 1
            if span.thread == thread and 0 <= index < len(ops):
                span = span._replace(op=ops[index].span_id)
            relabelled.append(span)
        self.spans = relabelled + ops

    def drain(self) -> list[Span]:
        """Hand over the spans recorded so far and start afresh."""
        spans, self.spans = self.spans, []
        return spans

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def _patch(self, owner: object, attribute: str, value: object) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, (module_name, qualname) in TARGETS.items():
            module = importlib.import_module(module_name)
            owner_name, _, attribute = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = vars(owner)[attribute]
                if isinstance(raw, classmethod):
                    wrapped: object = classmethod(self._wrap(name, raw.__func__))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patch(owner, attribute, wrapped)
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(name, original)
            # `from module import function` binds the original in the
            # importer's namespace; every such alias is patched as well.
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for alias, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, alias, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original value) of everything patched right now."""
        return list(self._patches)

    # ------------------------------------------------------------------
    # Writing out and reading back
    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([list(span) for span in self.spans], handle)


def load(path: str) -> list[Span]:
    with open(path) as handle:
        return [Span(*row) for row in json.load(handle)]


class LayerTime(NamedTuple):
    calls: int
    self_s: float
    #: Time inside the span including its children, nested re-entries of the
    #: same entry point counted once.
    total_s: float


def summarize(spans: Iterable[Span]) -> dict[str, LayerTime]:
    """Per span name: calls, self time and total time."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
        if span.outermost:
            total_s[span.name] = total_s.get(span.name, 0.0) + span.duration
    return {
        name: LayerTime(calls[name], self_s[name], total_s.get(name, 0.0)) for name in calls
    }
