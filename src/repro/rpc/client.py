"""RPC client handles: retransmission, typed errors, and call batching.

:class:`ClientCore` and :class:`BatchingCore` hold the sans-IO call
engines (:mod:`repro.rpc.engine`) that the sync clients here and the
async ones in :mod:`repro.rpc.aio` share.  :class:`RpcClient` drives them
with blocking waits and is the one-call-per-write baseline.
:class:`BatchingClient` adds the wire fast lane: concurrent calls to the
same endpoint coalesce into a single BATCH payload (one ``send`` for
many CALL frames), flushed when a count, byte, or deadline-slack
watermark trips — see :class:`BatchBuffer`.  Batching never changes
call semantics: each call keeps its own xid, deadline, retransmission
schedule, and typed error surface.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.context import CallContext, SpanRecord, current_context
from repro.net.endpoints import Address
from repro.rpc.codec import CODECS
from repro.rpc.dispatch import dispatcher_for
from repro.rpc.engine import SEND, WAIT, WAIT_ALL, Engine, drive
from repro.rpc.errors import (
    DeadlineExceeded,
    GarbageArguments,
    ProcedureUnavailable,
    ProgramUnavailable,
    RemoteFault,
    RpcError,
    RpcTimeout,
    ServerShedding,
)
from repro.rpc.message import ReplyStatus, RpcCall, RpcReply
from repro.rpc.transport import Transport
from repro.rpc.xdr import decode_value
from repro.telemetry import sampling
from repro.telemetry.hub import flush_context
from repro.telemetry.metrics import METRICS


class RetiredXids:
    """Bounded memory of finished transaction ids.

    Late duplicate replies for a retired xid are dropped instead of
    accumulating in the pending table forever.  Shared by the sync and
    async clients; behaves enough like the original ``OrderedDict`` for
    introspection (``len``, ``in``, ``reversed``).
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[int, None]" = OrderedDict()

    def add(self, xid: int) -> None:
        self._entries[xid] = None
        self._entries.move_to_end(xid)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __contains__(self, xid: int) -> bool:
        return xid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __reversed__(self):
        return reversed(self._entries)


def reply_to_result(
    reply: RpcReply, destination: Address, prog: int, vers: int, proc: int
) -> Any:
    """Decode a reply body or raise the typed error its status maps to.

    One mapping for every client flavour (sync, async, multicast), so a
    given status always surfaces as the same exception type.
    """
    if reply.status is ReplyStatus.SUCCESS:
        return CODECS.decode_result(prog, vers, proc, reply.body)
    if reply.status is ReplyStatus.PROG_UNAVAIL:
        raise ProgramUnavailable(f"program {prog} v{vers} not at {destination}")
    if reply.status is ReplyStatus.PROC_UNAVAIL:
        raise ProcedureUnavailable(
            f"procedure {proc} of program {prog} not at {destination}"
        )
    if reply.status is ReplyStatus.GARBAGE_ARGS:
        raise GarbageArguments(f"arguments rejected by {destination}")
    if reply.status is ReplyStatus.DEADLINE_EXCEEDED:
        raise DeadlineExceeded(
            f"{destination} rejected prog={prog} proc={proc}: deadline expired"
        )
    if reply.status is ReplyStatus.SHED:
        # The server declined under load while our budget was still
        # live.  Surface it as immediately retryable — the caller
        # should try an alternate offer, not hammer this server.
        raise ServerShedding(
            f"{destination} shed prog={prog} proc={proc} under load; "
            f"retry against an alternate offer"
        )
    fault = decode_value(reply.body)
    raise RemoteFault(fault.get("kind", "Error"), fault.get("detail", ""))


def resolve_context(
    context: Optional[CallContext],
    timeout: Optional[float],
    retries: Optional[int],
    ambient: Optional[CallContext],
    default_timeout: float,
    default_retries: int,
    now: float,
) -> CallContext:
    """Resolve the context governing one call.

    An explicit ``context`` wins outright.  Otherwise a shim context is
    built from the legacy kwargs (or the client's configured defaults) —
    and when this call happens *inside* an RPC handler, the ambient
    request context narrows it: the shim inherits the trace id, span
    chain (list and lock), hop budget, and scope, and its deadline is
    capped by the caller's remaining budget.  Local configuration still
    paces attempts; the inherited deadline bounds the total.
    """
    if context is not None:
        return context
    shim = CallContext.from_legacy(
        default_timeout if timeout is None else timeout,
        default_retries if retries is None else retries,
        now,
        trace_id=ambient.trace_id if ambient is not None else None,
    )
    if ambient is not None:
        shim.share_chain(ambient)
        if ambient.deadline is not None:
            shim.deadline = min(shim.deadline, ambient.deadline)
        shim.hops = ambient.hops
        shim.visited = ambient.visited
        shim.sampled = ambient.sampled
    return shim


class ClientCore:
    """What the sync and async RPC clients share: state and engines.

    The single-call attempt loop lives here once, as a sans-IO engine
    (:mod:`repro.rpc.engine`): it yields ``SEND`` and ``WAIT`` effects and
    the flavour's driver performs them — :class:`RpcClient` blocks on
    ``transport.wait``, :class:`~repro.rpc.aio.AsyncRpcClient` awaits a
    per-xid future.  A subclass names its driver (``_drive``: the
    blocking :func:`~repro.rpc.engine.drive` or the coroutine
    :func:`~repro.rpc.engine.drive_async`) and performs the effects
    (``_perform``).  ``_pending`` maps each in-flight xid to what that
    driver waits on — the reply itself (sync) or its future (async) —
    and the subclass keeps it through ``_deliver``/``retire_xid``.
    """

    #: One counter for every flavour: a process mixing sync and async
    #: clients never reuses a live xid against the same reply cache.
    _xid_counter = itertools.count(1)

    def __init__(
        self,
        transport: Transport,
        timeout: float = 1.0,
        retries: int = 3,
        retired_xid_capacity: int = 4096,
    ) -> None:
        self.transport = transport
        self.timeout = timeout
        self.retries = retries
        self._pending: Dict[int, Any] = {}
        # Bounded memory of finished xids: late duplicate replies for them
        # are dropped instead of leaking into the reply table forever.
        self._retired = RetiredXids(retired_xid_capacity)
        self.calls_sent = 0
        self.retransmissions = 0
        self.duplicate_replies_dropped = 0
        dispatcher_for(transport).client = self

    @property
    def address(self) -> Address:
        return self.transport.local_address

    def handle_reply(self, source: Address, reply: RpcReply) -> None:
        """Entry point from the dispatcher: hand the reply to its waiter.

        Replies for retired xids, and ones the flavour's ``_deliver``
        refuses (no live waiter), are counted as duplicates and dropped.
        """
        if reply.xid in self._retired or not self._deliver(reply):
            self.duplicate_replies_dropped += 1
            METRICS.inc("rpc.client.duplicate_replies_dropped")

    def stats(self, destination: Address, **kwargs: Any) -> Any:
        """Fetch the STATS snapshot from the server at ``destination``.

        Every :class:`~repro.rpc.server.RpcServer` serves the well-known
        stats program; this is the client-side one-liner for it (an
        awaitable on the async client, whose ``call`` is a coroutine).
        """
        from repro.rpc import stats as stats_mod

        return stats_mod.fetch(self, destination, **kwargs)

    def call_raw(
        self,
        destination: Address,
        prog: int,
        vers: int,
        proc: int,
        body: bytes,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        context: Optional[CallContext] = None,
    ) -> Any:
        """Send pre-encoded bytes and return the raw reply.

        On the async client the result is awaitable.
        """
        return self._drive(self._in_call_scope(
            context, timeout, retries, f"call {prog}:{proc}",
            lambda ctx, span: self._call_attempts(
                ctx, destination, prog, vers, proc, body, span
            ),
        ), self._perform)

    def _in_call_scope(
        self,
        context: Optional[CallContext],
        timeout: Optional[float],
        retries: Optional[int],
        operation: str,
        engine: Callable[[CallContext, SpanRecord], Engine],
    ) -> Engine:
        """Run ``engine`` under the call's context and ``rpc`` span."""
        ambient = current_context() if context is None else None
        ctx = resolve_context(
            context, timeout, retries, ambient,
            self.timeout, self.retries, self.transport.now(),
        )
        # A shim built with no ambient request owns its chain: nobody
        # else will ever see it, so flush it at the reply boundary
        # (a no-op unless an exporter is installed).
        owns_chain = context is None and ambient is None
        try:
            with ctx.span("rpc", operation, self.transport.now) as span:
                return (yield from engine(ctx, span))
        finally:
            if owns_chain:
                flush_context(ctx)

    def _call_attempts(
        self,
        ctx: CallContext,
        destination: Address,
        prog: int,
        vers: int,
        proc: int,
        body: bytes,
        span: Optional[SpanRecord] = None,
    ) -> Engine:
        """The attempt loop: same-xid retransmission on the deadline budget."""
        now = self.transport.now()
        labels = (str(prog), str(proc))
        if ctx.expired(now):
            METRICS.inc("rpc.client.deadline_exceeded", labels)
            raise DeadlineExceeded(
                f"deadline expired before calling {destination} "
                f"(trace {ctx.trace_id})"
            )
        xid = next(self._xid_counter)
        call = RpcCall(
            xid, prog, vers, proc, body,
            deadline=ctx.deadline, trace_id=ctx.trace_id, hops=ctx.hops,
            sampled=sampling.mark(ctx),
        )
        encoded = call.encode()
        attempts = ctx.retry.attempts
        try:
            for attempt in range(attempts):
                now = self.transport.now()
                if ctx.expired(now):
                    METRICS.inc("rpc.client.deadline_exceeded", labels)
                    raise DeadlineExceeded(
                        f"deadline expired after {attempt} attempt(s) to "
                        f"{destination} (trace {ctx.trace_id})"
                    )
                if attempt:
                    self.retransmissions += 1
                    METRICS.inc("rpc.client.retransmissions", labels)
                    if span is not None:
                        # Wire-level visibility: each extra attempt is an
                        # event on the rpc span, exported with the chain.
                        span.add_event("retransmission", at=now, attempt=attempt)
                self.calls_sent += 1
                wait = ctx.attempt_timeout(now, attempts - attempt)
                yield SEND, destination, encoded, ctx.deadline
                reply = yield WAIT, xid, wait
                if reply is not None:
                    if reply.status is ReplyStatus.SHED:
                        METRICS.inc("rpc.client.shed_received", labels)
                        if span is not None:
                            span.add_event(
                                "shed", at=self.transport.now(), attempt=attempt
                            )
                    return reply
            if ctx.expired(self.transport.now()) and ctx.retry.attempt_timeout is None:
                METRICS.inc("rpc.client.deadline_exceeded", labels)
                raise DeadlineExceeded(
                    f"no reply from {destination} within the deadline "
                    f"(trace {ctx.trace_id})"
                )
            raise RpcTimeout(
                f"no reply from {destination} for prog={prog} proc={proc} "
                f"after {attempts} attempt(s)"
            )
        finally:
            self.retire_xid(xid)

    def _send(
        self, destination: Address, payload: Any, deadline: Optional[float]
    ) -> None:
        """Perform a ``SEND``: one CALL, or a list shipped as batches."""
        if isinstance(payload, list):
            self._send_batches(destination, payload)
        else:
            self._send_call(destination, payload, deadline)

    def _send_call(
        self, destination: Address, encoded: bytes, deadline: Optional[float]
    ) -> None:
        """Put one encoded CALL on the wire.

        The seam the batching clients override to coalesce writes; the
        base client writes immediately, one message per payload.
        """
        self.transport.send(destination, encoded)

    def close(self) -> None:
        dispatcher_for(self.transport).client = None


class RpcClient(ClientCore):
    """Issues calls over a transport.

    Retransmits with the *same* xid on timeout so the server's at-most-once
    cache can suppress re-execution.  Timing is governed by a
    :class:`~repro.context.CallContext`: each attempt's wait is carved out
    of the context's *remaining* deadline budget
    (:meth:`CallContext.attempt_timeout`).  The legacy ``timeout``/
    ``retries`` kwargs remain as a shim that builds an equivalent context
    with total budget ``timeout * (retries + 1)``.

    Calls made while serving an RPC (e.g. a trader forwarding a federated
    import) inherit the ambient server-side context automatically, so one
    deadline and one trace id cover the whole cascade.

    This is the blocking driver of :class:`ClientCore`'s engines: a
    ``WAIT`` blocks in ``transport.wait`` until the reply lands in
    ``_pending``.
    """

    _drive = staticmethod(drive)

    def _deliver(self, reply: RpcReply) -> bool:
        self._pending[reply.xid] = reply
        return True

    def retire_xid(self, xid: int) -> None:
        """Mark ``xid`` finished: later replies for it are dropped."""
        self._pending.pop(xid, None)
        self._retired.add(xid)

    def _perform(self, effect: tuple) -> Any:
        kind = effect[0]
        if kind == SEND:
            return self._send(effect[1], effect[2], effect[3])
        pending = self._pending
        if kind == WAIT:
            xid = effect[1]
            if self.transport.wait(lambda: xid in pending, effect[2]):
                return pending.pop(xid)
            return None
        xids = effect[1]
        self.transport.wait(lambda: all(x in pending for x in xids), effect[2])
        return {xid: pending.pop(xid) for xid in xids if xid in pending}

    def call(
        self,
        destination: Address,
        prog: int,
        vers: int,
        proc: int,
        args: Any = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        context: Optional[CallContext] = None,
    ) -> Any:
        """Call and decode; raises a typed :class:`RpcError` on failure."""
        reply = self.call_raw(
            destination, prog, vers, proc,
            CODECS.encode_args(prog, vers, proc, args), timeout, retries,
            context,
        )
        return reply_to_result(reply, destination, prog, vers, proc)

    def ping(self, destination: Address, prog: int, vers: int = 1) -> bool:
        """True when the destination answers procedure 0 (NULL proc)."""
        try:
            self.call(destination, prog, vers, 0)
            return True
        except RpcError:
            return False


class BatchBuffer:
    """Per-destination staging area for encoded CALL frames.

    Three flush watermarks, checked on every :meth:`add`:

    * ``max_batch`` — staged call count;
    * ``max_bytes`` — staged payload bytes (keeps one batch inside a
      sane write size);
    * ``flush_slack`` — earliest-deadline slack: the moment the most
      urgent staged call has less than this much budget left, the batch
      goes out now rather than waiting for stragglers.

    Flushes are tracked per destination by a generation counter so a
    lingering leader can tell "someone already flushed my batch" from
    "still mine to send" without holding the lock while sleeping.
    """

    def __init__(
        self,
        max_batch: int = 16,
        max_bytes: int = 64 * 1024,
        flush_slack: float = 0.005,
    ) -> None:
        self.max_batch = max_batch
        self.max_bytes = max_bytes
        self.flush_slack = flush_slack
        self._lock = threading.Lock()
        self._staged: Dict[Address, List[bytes]] = {}
        self._bytes: Dict[Address, int] = {}
        self._earliest: Dict[Address, float] = {}
        self._generation: Dict[Address, int] = {}

    def add(
        self,
        destination: Address,
        encoded: bytes,
        deadline: Optional[float],
        now: float,
    ) -> Tuple[str, Any]:
        """Stage one encoded CALL.

        Returns ``("flush", payloads)`` when a watermark tripped (the
        caller must send them), ``("lead", generation)`` when this entry
        opened an empty buffer (the caller should linger then
        :meth:`take`), or ``("wait", None)`` when an existing leader
        will flush it.
        """
        with self._lock:
            staged = self._staged.setdefault(destination, [])
            leader = not staged
            staged.append(encoded)
            self._bytes[destination] = self._bytes.get(destination, 0) + len(encoded)
            if deadline is not None:
                earliest = self._earliest.get(destination)
                if earliest is None or deadline < earliest:
                    self._earliest[destination] = deadline
            if (
                len(staged) >= self.max_batch
                or self._bytes[destination] >= self.max_bytes
                or (
                    destination in self._earliest
                    and self._earliest[destination] - now <= self.flush_slack
                )
            ):
                return "flush", self._pop(destination)
            if leader:
                return "lead", self._generation.get(destination, 0)
            return "wait", None

    def take(self, destination: Address, generation: int) -> List[bytes]:
        """Claim the staged batch if generation still matches, else []."""
        with self._lock:
            if self._generation.get(destination, 0) != generation:
                return []
            return self._pop(destination)

    def flushed(self, destination: Address, generation: int) -> bool:
        with self._lock:
            return self._generation.get(destination, 0) != generation

    def _pop(self, destination: Address) -> List[bytes]:
        payloads = self._staged.pop(destination, [])
        self._bytes.pop(destination, None)
        self._earliest.pop(destination, None)
        self._generation[destination] = self._generation.get(destination, 0) + 1
        return payloads


class BatchingCore:
    """The ``call_many`` engine and BATCH chunking both batching clients share.

    Mixed in ahead of a :class:`ClientCore` subclass, which drives the
    engine; the subclass supplies the ``max_batch``/``max_bytes``
    watermarks and sets ``batches_sent``.
    """

    def call_many(
        self,
        destination: Address,
        calls: Sequence[Tuple[int, int, int, Any]],
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        context: Optional[CallContext] = None,
    ) -> Any:
        """Issue many ``(prog, vers, proc, args)`` calls as batches.

        Returns outcomes in call order (awaitable on the async client):
        the decoded result, or the typed :class:`RpcError` instance that
        call would have raised.  All calls share one context (one
        deadline budget, one trace); replies are awaited collectively and
        only the missing xids are retransmitted.
        """
        return self._drive(
            self._call_many_engine(destination, calls, timeout, retries, context),
            self._perform,
        )

    def _call_many_engine(
        self,
        destination: Address,
        calls: Sequence[Tuple[int, int, int, Any]],
        timeout: Optional[float],
        retries: Optional[int],
        context: Optional[CallContext],
    ) -> Engine:
        calls = list(calls)
        if not calls:
            return []
        return (yield from self._in_call_scope(
            context, timeout, retries, f"call_many x{len(calls)}",
            lambda ctx, span: self._batch_attempts(ctx, destination, calls),
        ))

    def _batch_attempts(
        self,
        ctx: CallContext,
        destination: Address,
        calls: Sequence[Tuple[int, int, int, Any]],
    ) -> Engine:
        entries = []
        sampled = sampling.mark(ctx)
        for prog, vers, proc, args in calls:
            xid = next(self._xid_counter)
            call = RpcCall(
                xid, prog, vers, proc,
                CODECS.encode_args(prog, vers, proc, args),
                deadline=ctx.deadline, trace_id=ctx.trace_id, hops=ctx.hops,
                sampled=sampled,
            )
            entries.append((xid, prog, vers, proc, call.encode()))
        try:
            replies = yield from self._collect_replies(ctx, destination, entries)
            expired = ctx.expired(self.transport.now())
            outcomes: List[Any] = []
            for xid, prog, vers, proc, __ in entries:
                reply = replies.get(xid)
                if reply is None:
                    if expired:
                        outcomes.append(DeadlineExceeded(
                            f"no reply from {destination} for prog={prog} "
                            f"proc={proc} within the deadline "
                            f"(trace {ctx.trace_id})"
                        ))
                    else:
                        outcomes.append(RpcTimeout(
                            f"no reply from {destination} for prog={prog} "
                            f"proc={proc} after {ctx.retry.attempts} attempt(s)"
                        ))
                    continue
                try:
                    outcomes.append(
                        reply_to_result(reply, destination, prog, vers, proc)
                    )
                except RpcError as error:
                    outcomes.append(error)
            return outcomes
        finally:
            for xid, *__ in entries:
                self.retire_xid(xid)

    def _collect_replies(
        self, ctx: CallContext, destination: Address, entries
    ) -> Engine:
        """Send batches and gather replies, retransmitting only gaps."""
        replies: Dict[int, RpcReply] = {}
        outstanding = {
            xid: (prog, proc, encoded)
            for xid, prog, vers, proc, encoded in entries
        }
        attempts = ctx.retry.attempts
        for attempt in range(attempts):
            now = self.transport.now()
            if ctx.expired(now):
                break
            if attempt:
                for prog, proc, __ in outstanding.values():
                    self.retransmissions += 1
                    METRICS.inc(
                        "rpc.client.retransmissions", (str(prog), str(proc))
                    )
            self.calls_sent += len(outstanding)
            yield (
                SEND, destination,
                [encoded for __, __, encoded in outstanding.values()], None,
            )
            wait = ctx.attempt_timeout(now, attempts - attempt)
            arrived = yield WAIT_ALL, list(outstanding), wait
            for xid, reply in arrived.items():
                replies[xid] = reply
                del outstanding[xid]
            if not outstanding:
                break
        return replies

    def _send_batches(
        self, destination: Address, encoded_calls: List[bytes]
    ) -> None:
        """Ship encoded CALLs in watermark-sized BATCH payloads."""
        chunk: List[bytes] = []
        chunk_bytes = 0
        for encoded in encoded_calls:
            if chunk and (
                len(chunk) >= self.max_batch
                or chunk_bytes + len(encoded) > self.max_bytes
            ):
                self._send_batch(destination, chunk)
                chunk, chunk_bytes = [], 0
            chunk.append(encoded)
            chunk_bytes += len(encoded)
        if chunk:
            self._send_batch(destination, chunk)

    def _send_batch(self, destination: Address, payloads: List[bytes]) -> None:
        self.batches_sent += 1
        METRICS.inc("rpc.client.batches_sent")
        METRICS.observe("rpc.client.batch_size", float(len(payloads)))
        self.transport.send(destination, b"".join(payloads))


class BatchingClient(BatchingCore, RpcClient):
    """RPC client that coalesces concurrent calls into BATCH writes.

    Two modes, freely mixed:

    * :meth:`call_many` — the explicit fast lane: hand over a sequence
      of calls for one endpoint and they ship as back-to-back CALL
      frames in watermark-sized payloads, wait collectively, and
      return per-call outcomes (result value or the typed error
      *instance*) in order.  No linger delay.
    * Transparent coalescing — plain :meth:`call` from concurrent
      threads routes through :class:`BatchBuffer`: the first call to
      touch an idle destination becomes the *leader*, lingers up to
      ``linger`` seconds for companions, then flushes everyone in one
      write.  Watermarks (count/bytes/deadline slack) cut the linger
      short.  ``linger=0`` disables coalescing entirely.

    Per-call semantics are untouched: same xids, same retransmission
    pacing, same at-most-once behaviour server-side, and the wire
    format is plain concatenated CALL frames, so a non-batching server
    reads them back-to-back.
    """

    def __init__(
        self,
        transport: Transport,
        timeout: float = 1.0,
        retries: int = 3,
        retired_xid_capacity: int = 4096,
        max_batch: int = 16,
        max_bytes: int = 64 * 1024,
        linger: float = 0.001,
        flush_slack: float = 0.005,
    ) -> None:
        super().__init__(transport, timeout, retries, retired_xid_capacity)
        self.linger = linger
        self.batches_sent = 0
        self._buffer = BatchBuffer(max_batch, max_bytes, flush_slack)

    @property
    def max_batch(self) -> int:
        return self._buffer.max_batch

    @property
    def max_bytes(self) -> int:
        return self._buffer.max_bytes

    # -- transparent coalescing -------------------------------------------

    def _send_call(
        self, destination: Address, encoded: bytes, deadline: Optional[float]
    ) -> None:
        if self.linger <= 0:
            self.transport.send(destination, encoded)
            return
        action, data = self._buffer.add(
            destination, encoded, deadline, self.transport.now()
        )
        if action == "flush":
            self._send_batch(destination, data)
        elif action == "lead":
            generation = data
            self.transport.wait(
                lambda: self._buffer.flushed(destination, generation),
                self.linger,
            )
            payloads = self._buffer.take(destination, generation)
            if payloads:
                self._send_batch(destination, payloads)
        # "wait": the current leader (or a watermark) flushes it for us
        # within ``linger``.

