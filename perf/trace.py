"""Span recorder for the traced run.

``Recorder.install`` replaces each probed callable with a wrapper that
records one span per call — (id, parent, probe, start, end, thread,
operation) — into an in-memory list; ``uninstall`` puts the originals
back.  Nothing is written until the run asks for it.

Parents follow the call stack of each thread.  The load generator opens
one root span per operation on its own thread; a span that starts with
an empty stack on some *other* thread (a service worker, a router
scatter thread) is doing that operation's work, so it is parented to
the root of the operation in flight — one read and one write can be in
flight at once, told apart by the probe's ``classify``.

A span's self time is its duration minus the union of its children's
intervals (children on different threads may overlap each other).
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from perf.probes import Probe

OP_LAYER = "perf.op"


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # 0 = none
    name: str
    layer: str
    start: float
    end: float
    thread: int
    op: int  # 0 = outside any operation (set-up)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadState:
    __slots__ = ("stack", "op", "thread")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.op = 0
        self.thread = threading.get_ident()


class Recorder:
    def __init__(self, probes: tuple[Probe, ...]):
        self.probes = probes
        #: public names of probes whose target could not be found
        self.missing: list[str] = []
        #: operation id -> "read" | "write"
        self.op_kinds: dict[int, str] = {}
        self._raw: list = []  # seven scalars per span
        self._labels: list[tuple[str, str]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._in_flight: dict[str, tuple[int, int]] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._op_labels = {
            kind: self._label(f"{OP_LAYER}.{kind}", OP_LAYER)
            for kind in ("read", "write")
        }

    # -- wrapping -------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for probe in self.probes:
            try:
                owners = self._owners(probe)
            except (ImportError, AttributeError):
                self.missing.append(probe.name)
                continue
            label = self._label(probe.name, probe.layer)
            for owner, attribute in owners:
                original = vars(owner)[attribute]
                setattr(owner, attribute, self._wrap(original, label, probe.classify))
                self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @staticmethod
    def _owners(probe: Probe) -> list[tuple[object, str]]:
        module_name, _, path = probe.site.partition(":")
        owner: object = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if not inspect.isfunction(vars(owner).get(attribute)):
            raise AttributeError(probe.site)
        owners = [(owner, attribute)]
        if probe.subclasses:
            pending = list(owner.__subclasses__())
            while pending:
                cls = pending.pop()
                pending.extend(cls.__subclasses__())
                if inspect.isfunction(vars(cls).get(attribute)):
                    owners.append((cls, attribute))
        return owners

    def _label(self, name: str, layer: str) -> int:
        self._labels.append((name, layer))
        return len(self._labels) - 1

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            return state

    def _adopt(self, state: _ThreadState, classify, args, kwargs) -> int:
        """Parent of a span that starts on an idle thread: the root of
        the operation (of its kind) in flight."""
        kind = classify(*args, **kwargs) if classify else "read"
        state.op, parent = self._in_flight.get(kind, (0, 0))
        return parent

    def _wrap(self, function, label: int, classify):
        local, new_state, adopt = self._local, self._state, self._adopt
        ids, clock = self._ids, time.perf_counter
        # seven scalars per span, flat: allocating a tuple per span would
        # make the recorder itself the garbage collector's main customer
        record = self._raw.extend

        if inspect.isgeneratorfunction(function):
            # the work happens while the caller iterates: the span runs
            # from the first ``next`` to exhaustion
            def wrapper(*args, **kwargs):
                state = new_state()
                stack = state.stack
                span = next(ids)
                parent = stack[-1] if stack else adopt(state, classify, args, kwargs)
                stack.append(span)
                start = clock()
                try:
                    yield from function(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    record((span, parent, label, start, end, state.thread, state.op))
        else:
            def wrapper(*args, **kwargs):
                try:
                    state = local.state
                except AttributeError:
                    state = new_state()
                stack = state.stack
                span = next(ids)
                parent = stack[-1] if stack else adopt(state, classify, args, kwargs)
                stack.append(span)
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    record((span, parent, label, start, end, state.thread, state.op))

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", "wrapper")
        return wrapper

    # -- operations -----------------------------------------------------

    @contextmanager
    def operation(self, kind: str):
        """Root span of one operation, opened by the thread that sends it."""
        state = self._state()
        span = next(self._ids)
        self.op_kinds[span] = kind
        self._in_flight[kind] = (span, span)
        state.op = span
        state.stack.append(span)
        label = self._op_labels[kind]
        start = time.perf_counter()
        try:
            yield span
        finally:
            end = time.perf_counter()
            state.stack.pop()
            state.op = 0
            self._in_flight.pop(kind, None)
            self._raw.extend((span, 0, label, start, end, state.thread, span))

    # -- reading --------------------------------------------------------

    def spans(self) -> list[Span]:
        labels = self._labels
        raw = list(self._raw)
        return [
            Span(raw[i], raw[i + 1], *labels[raw[i + 2]], *raw[i + 3 : i + 7])
            for i in range(0, len(raw), 7)
        ]

    def clear(self) -> None:
        self._raw.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.duration - covered
    return result


def write_jsonl(spans: list[Span], path: str) -> None:
    """One span per line, times in seconds since the first span started."""
    origin = min((span.start for span in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            out.write(
                json.dumps(
                    {
                        "id": span.id,
                        "parent": span.parent,
                        "op": span.op,
                        "thread": span.thread,
                        "layer": span.layer,
                        "name": span.name,
                        "start": round(span.start - origin, 7),
                        "end": round(span.end - origin, 7),
                    }
                )
                + "\n"
            )
