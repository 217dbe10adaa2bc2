"""Sans-IO call engines and the two drivers that run them.

Every retrying loop of the client stack is written once, as a generator
that *yields effects* and receives their results, never touching a
socket, a clock wait or an event loop itself:

* the single-call attempt loop (:meth:`RpcClient.call_raw`);
* the ``call_many`` gap-retransmitting batch loop;
* the failover / backoff / breaker rounds (:class:`ResilientCaller`);
* the rebind rounds (:class:`~repro.core.rebind.RebindingClient`).

An effect is a tuple led by one of the tags below.  Two small drivers
perform them — :func:`drive` blocks (``transport.wait``, plain calls) and
:func:`drive_async` awaits (per-xid futures, ``asyncio.sleep``, awaitable
attempt results) — so the sync and async flavour of each layer are the
same engine behind a different driver.

A failed effect is thrown back into the engine, which classifies it as it
would an inline exception.  The async driver never throws
:class:`asyncio.CancelledError` in: it closes the engine (running its
``finally`` blocks) and re-raises, so cancellation always wins.
"""

from __future__ import annotations

import asyncio
import inspect
from typing import Any, Callable, Generator

#: ``(SEND, destination, payload, deadline)`` -> ``None``.  ``payload`` is
#: one encoded CALL, or a list of them to ship in watermark-sized batches.
SEND = "send"
#: ``(WAIT, xid, timeout)`` -> the reply, or ``None`` on timeout.
WAIT = "wait"
#: ``(WAIT_ALL, xids, timeout)`` -> ``{xid: reply}`` for the replies in.
WAIT_ALL = "wait_all"
#: ``(SLEEP, seconds)`` -> ``None``.
SLEEP = "sleep"
#: ``(ATTEMPT, target, child_ctx)`` -> the attempt's result.
ATTEMPT = "attempt"
#: ``(ROUND, offers, round_ctx)`` -> the failover round's result.
ROUND = "round"

Engine = Generator[tuple, Any, Any]


def drive(engine: Engine, perform: Callable[[tuple], Any]) -> Any:
    """Run ``engine`` to completion, performing each effect inline."""
    try:
        effect = next(engine)
        while True:
            error = None
            try:
                result = perform(effect)
            except BaseException as exc:  # noqa: BLE001 - the engine classifies
                error = exc
            effect = engine.send(result) if error is None else engine.throw(error)
    except StopIteration as stop:
        return stop.value


async def drive_async(engine: Engine, perform: Callable[[tuple], Any]) -> Any:
    """Run ``engine`` to completion, awaiting awaitable effect results."""
    try:
        effect = next(engine)
        while True:
            error = None
            try:
                result = perform(effect)
                if result is not None and inspect.isawaitable(result):
                    result = await result
            except asyncio.CancelledError:
                engine.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - the engine classifies
                error = exc
            effect = engine.send(result) if error is None else engine.throw(error)
    except StopIteration as stop:
        return stop.value
