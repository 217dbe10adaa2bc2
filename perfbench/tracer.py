"""Span accounting for the traced run.

The benchmark times calls into each layer's public functions by patching
them with wrappers from this file; nothing under ``src/`` knows about it.
A wrapper opens a *frame* on a per-context stack (a ``ContextVar``, so
threads and asyncio tasks each see their own stack), times the call with
``perf_counter_ns`` and, on exit, adds its duration to the enclosing
frame's child time.  Self time is a span's duration minus its children.

Four wrapper kinds:

* ``call`` — a plain function or method;
* ``async`` — a coroutine function.  The wrapper drives the coroutine
  step by step, so the time it ran (``busy``) and the time it was parked
  on an ``await`` (``wait``) are measured separately; a parked frame is
  marked inactive, so callbacks that run meanwhile (a batch flush, a
  reader) are not counted as its children;
* ``wait`` — a blocking wait (``TcpTransport.wait``, the fan-out's
  ``wait`` on its workers): all of its time counts as wait, none as work;
* ``iter`` — a function returning an iterator (``OfferStore.ordered_by``
  is a generator): every ``next`` is timed and counted as work of the
  one span, and the items it yields are counted too.

Spans are aggregated in memory per name — count, total, self and wait
nanoseconds — and read out once at the end of the measured window.
"""

from __future__ import annotations

import contextvars
import threading
import types
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers the report groups by.  A span's name is ``<layer>.<what>``.
LAYERS = (
    "loadgen",
    "rpc.client",
    "rpc.codec",
    "rpc.message",
    "rpc.transport",
    "rpc.server",
    "trader.trader",
    "trader.offers",
    "trader.sharding",
    "trader.federation",
    "core",
)


def layer_of(span_name: str) -> str:
    for layer in sorted(LAYERS, key=len, reverse=True):
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    raise KeyError(span_name)


class _Frame:
    __slots__ = ("children", "child_wait", "active")

    def __init__(self) -> None:
        self.children = 0
        self.child_wait = 0
        self.active = True


_STACK: contextvars.ContextVar = contextvars.ContextVar("perfbench_spans", default=())


def _push() -> Tuple[tuple, _Frame, contextvars.Token]:
    """Open a frame on this thread's or task's stack."""
    parent = _STACK.get()
    frame = _Frame()
    return parent, frame, _STACK.set(parent + (frame,))


def _pop(parent: tuple, token: contextvars.Token, worked: int) -> None:
    """Close the frame; its working time counts as the parent's child time."""
    _STACK.reset(token)
    if parent and parent[-1].active:
        parent[-1].children += worked

After = Optional[Callable[[tuple, dict, Any], None]]


class Tracer:
    """In-memory span table plus named counters and maxima."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: Dict[str, List[int]] = {}
        self._counts: Dict[str, float] = {}
        self._maxima: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def record(self, name: str, total: int, own: int, wait: int = 0, calls: int = 1) -> None:
        with self._lock:
            row = self._spans.get(name)
            if row is None:
                row = self._spans[name] = [0, 0, 0, 0]
            row[0] += calls
            row[1] += total
            row[2] += own
            row[3] += wait

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            if value > self._maxima.get(name, float("-inf")):
                self._maxima[name] = value

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self._counts.clear()
            self._maxima.clear()

    def table(self) -> Dict[str, Any]:
        """Wire-encodable copy: ``spans`` rows are [calls, total, self, wait] ns."""
        with self._lock:
            return {
                "spans": {name: list(row) for name, row in self._spans.items()},
                "counts": dict(self._counts),
                "maxima": dict(self._maxima),
            }

    # -- wrapping ----------------------------------------------------------

    def span(self, name: str, fn: Callable, kind: str = "call", after: After = None) -> Callable:
        layer_of(name)  # fail fast on a name outside the layer table
        if kind == "async":
            return self._async_span(name, fn, after)
        if kind == "iter":
            return self._iter_span(name, fn)
        if kind == "wait":
            return self._wait_span(name, fn)
        record = self.record

        def timed(*args, **kwargs):
            parent, frame, token = _push()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                _pop(parent, token, elapsed)
                record(name, elapsed, elapsed - frame.children)
            if after is not None:
                after(args, kwargs, result)
            return result

        return timed

    def _wait_span(self, name: str, fn: Callable) -> Callable:
        """A blocking wait: all of its time is wait, none of it work."""
        record = self.record

        def waited(*args, **kwargs):
            parent = _STACK.get()
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                if parent and parent[-1].active:
                    parent[-1].children += elapsed
                record(name, elapsed, 0, elapsed)

        return waited

    def _async_span(self, name: str, fn: Callable, after: After) -> Callable:
        record = self.record

        async def timed(*args, **kwargs):
            parent, frame, token = _push()
            clocks = [0, 0]  # busy, wait
            try:
                result = await _stepped(fn(*args, **kwargs), frame, clocks)
            finally:
                busy, wait = clocks
                _pop(parent, token, busy)
                if parent:
                    # The parent was parked while this span was: each parked
                    # interval is the innermost span's wait.  The parent's
                    # park starts a little later and ends a little earlier
                    # than the child's, hence the floor at zero.
                    parent[-1].child_wait += wait
                record(
                    name, busy + wait, busy - frame.children, max(0, wait - frame.child_wait)
                )
            if after is not None:
                after(args, kwargs, result)
            return result

        return timed

    def _iter_span(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def timed(*args, **kwargs):
            return _TimedIterator(tracer, name, iter(fn(*args, **kwargs)))

        return timed

    # -- installation ------------------------------------------------------

    def patch(
        self, owner: Any, attr: str, name: str, kind: str = "call", after: After = None
    ) -> None:
        """Replace ``owner.attr`` by a timed wrapper (undone by :meth:`unpatch`).

        ``owner`` is a module, a class or an instance; a wrapper must be
        installed where callers look the name up.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.span(name, raw.__func__, kind, after))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.span(name, raw.__func__, kind, after))
        else:
            wrapped = self.span(name, raw, kind, after)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def hook(self, owner: Any, attr: str, after: Callable[[tuple, dict, Any], None]) -> None:
        """Run ``after(args, kwargs, result)`` after each call; no timing."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def hooked(*args, **kwargs):
            result = raw(*args, **kwargs)
            after(args, kwargs, result)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, hooked)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


@types.coroutine
def _stepped(coro, frame: _Frame, clocks: List[int]):
    """Drive ``coro`` like a task would, timing its steps and its parks."""
    value: Any = None
    error: Optional[BaseException] = None
    try:
        while True:
            start = perf_counter_ns()
            frame.active = True
            try:
                if error is not None:
                    pending, error = error, None
                    yielded = coro.throw(pending)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                clocks[0] += perf_counter_ns() - start
                return stop.value
            finally:
                frame.active = False
            parked = perf_counter_ns()
            clocks[0] += parked - start
            try:
                value = yield yielded
            except BaseException as exc:  # noqa: BLE001 - forwarded into coro
                value, error = None, exc
            clocks[1] += perf_counter_ns() - parked
    finally:
        coro.close()


class _TimedIterator:
    """Times each ``next`` of a wrapped iterator as work of one span."""

    __slots__ = ("_tracer", "_name", "_inner", "_first")

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._first = True

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        parent, frame, token = _push()
        start = perf_counter_ns()
        try:
            item = next(self._inner)
        finally:
            elapsed = perf_counter_ns() - start
            _pop(parent, token, elapsed)
            self._tracer.record(
                self._name, elapsed, elapsed - frame.children, calls=int(self._first)
            )
            self._first = False
        self._tracer.count(self._name + ".items")
        return item


def merge_tables(*tables: Dict[str, Any]) -> Dict[str, Any]:
    """Sum span rows and counters of several processes; max the maxima."""
    spans: Dict[str, List[int]] = {}
    counts: Dict[str, float] = {}
    maxima: Dict[str, float] = {}
    for table in tables:
        for name, row in table["spans"].items():
            merged = spans.setdefault(name, [0, 0, 0, 0])
            for index, value in enumerate(row):
                merged[index] += value
        for name, value in table["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in table["maxima"].items():
            maxima[name] = max(value, maxima.get(name, value))
    return {"spans": spans, "counts": counts, "maxima": maxima}
