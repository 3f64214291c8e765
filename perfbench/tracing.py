"""Spans recorded around calls into bjda's modules, from outside the package.

A Tracer replaces a module attribute (or a class method) with a wrapper that
records a span: name, start, end, and the span that was open on the same
thread when the call began. Each wrapper replaces the name the caller looks
up at call time, so `from .kernels import kbw_sq` in bjda.train is wrapped in
bjda.train's namespace, not in bjda.kernels'. Spans stay in memory; the
harness turns them into metrics after the traced invocation returns.

The tracer's own hooks run inside the enclosing span; their time is kept
apart (Span.hook_s) and taken out of every duration the harness reads.
"""
from __future__ import annotations

import functools
import threading
import time
import weakref
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span on the same thread, -1 for a root
    thread: int
    start: float = 0.0
    end: float = 0.0
    rows: int = 0        # rows handled, for the spans that report a rate
    hook_s: float = 0.0  # time the tracer's hooks took inside this span, outside its children

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TapeStats:
    """What one Tape.backward call saw: its tape and the tapes still alive."""
    nodes: int
    tape_bytes: int | None
    tapes_alive: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    backward_stats: list[TapeStats] = field(default_factory=list)

    def __post_init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._tapes: weakref.WeakSet = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, rows=None, on_call=None):
        """Return fn wrapped in a span. rows(args, result) sets Span.rows;
        on_call(args) runs first, before the span starts, and its time is
        charged to the enclosing span's hook_s."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if on_call is not None:
                hook_start = time.perf_counter()
                on_call(args)
                if stack:
                    tracer.spans[stack[-1]].hook_s += time.perf_counter() - hook_start
            with tracer._lock:
                index = len(tracer.spans)
                span = Span(name, stack[-1] if stack else -1, threading.get_ident())
                tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if rows is not None:
                span.rows = rows(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, **hooks))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def record_backward(self, args) -> None:
        """Tape.backward hook: node count, value + grad bytes, live tapes.

        Tapes are reference cycles (each Value points back at its tape), so
        only the cyclic collector frees them; the weak set shows how many
        earlier tapes are still held when a new backward starts.
        """
        tape = args[0]
        nodes = getattr(tape, "_nodes", None)
        tape_bytes = None
        if nodes is not None:
            tape_bytes = sum(n.value.nbytes + getattr(n.grad, "nbytes", 0) for n in nodes)
        with self._lock:
            self._tapes.add(tape)
            self.backward_stats.append(TapeStats(len(tape), tape_bytes, len(self._tapes)))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- reading -----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def durations(self) -> list[float]:
        """Each span's duration without the hook time inside it, its
        descendants' included. A child's index is always above its parent's."""
        inner = [s.hook_s for s in self.spans]
        for i in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[i].parent
            if parent >= 0:
                inner[parent] += inner[i]
        return [s.duration - h for s, h in zip(self.spans, inner)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children and the
        tracer's hooks cover."""
        durations = self.durations()
        own = list(durations)
        for span, duration in zip(self.spans, durations):
            if span.parent >= 0:
                own[span.parent] -= duration
        return own
