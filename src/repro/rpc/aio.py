"""Async-first RPC: asyncio transport, client, and server.

The sync stack in :mod:`repro.rpc.client` / :mod:`repro.rpc.server`
blocks a thread per in-flight call — on real TCP that means a thread per
connection, and on the simulator it forces *serial* operation because
the calling thread is also the one advancing the virtual clock.  This
module keeps every wire artefact identical (message format, xdr bodies,
at-most-once cache, admission control, SHED) and swaps only the
concurrency substrate:

* :class:`AsyncTcpTransport` — one event loop serves every connection;
  framing is byte-compatible with :class:`~repro.rpc.transport.TcpTransport`
  (``u32`` length prefix, first frame on a fresh connection announces
  the sender's stable address).  Unlike the threaded transport it
  answers over the *inbound* connection when one exists, halving socket
  count for request/reply traffic.
* :class:`AsyncRpcClient` — any number of concurrent calls per client;
  each in-flight xid owns a future, retransmission keeps the same xid
  (and the same future) across attempts so the server's at-most-once
  cache still coalesces.
* :class:`AsyncRpcServer` — reuses the sync server's admission queue and
  reply cache verbatim but executes each admitted call as its own task,
  so slow handlers overlap; ``async def`` handlers are awaited and
  cancelled when their wire deadline expires.

Over a :class:`~repro.rpc.transport.SimTransport` the same client and
server run in *virtual* time on a :class:`~repro.net.aioclock.SimEventLoop`:
thousands of calls in flight, deterministic interleaving, microseconds
of wall clock.
"""

from __future__ import annotations

import asyncio
import inspect
import struct
from typing import Any, Callable, Dict, List, Optional, Set

from repro.context import CallContext, use_context
from repro.errors import CommunicationError
from repro.net.endpoints import Address
from repro.rpc.client import BatchingCore, ClientCore, reply_to_result
from repro.rpc.codec import CODECS
from repro.rpc.engine import SEND, WAIT, drive_async
from repro.rpc.errors import RpcError
from repro.rpc.message import RpcCall, RpcReply
from repro.rpc.server import AdmissionPolicy, RpcServer
from repro.rpc.transport import SimTransport, Transport, enable_nodelay
from repro.telemetry.hub import spans_wanted
from repro.telemetry.metrics import METRICS

__all__ = [
    "AsyncBatchingClient",
    "AsyncRpcClient",
    "AsyncRpcServer",
    "AsyncTcpTransport",
]


#: Process-wide count of calls currently awaiting a reply across *all*
#: async clients — the saturation signal the telemetry report surfaces.
_inflight_total = 0


def _inflight(delta: int) -> None:
    global _inflight_total
    _inflight_total += delta
    METRICS.set_gauge("rpc.async.inflight", _inflight_total)


class AsyncTcpTransport(Transport):
    """Datagram semantics over asyncio TCP streams.

    Wire-compatible with the threaded :class:`TcpTransport`: each frame
    is a big-endian ``u32`` length followed by the payload, and the
    first frame of every outgoing connection carries the sender's
    advertised port in ASCII so the peer learns a stable reply address.

    Build with :meth:`create` (binding a listener needs a running
    loop).  Pure clients may pass ``listen=False``: no listener socket
    is bound and the hello frame advertises the *connection's* local
    port instead — unique per connection, so the peer's reply routing
    (which prefers the inbound connection) still finds its way back.
    ``send`` never blocks: when no connection exists yet the payload is
    queued and a connect task drains the queue once established.
    """

    _HEADER = struct.Struct(">I")

    def __init__(self) -> None:
        raise TypeError("use 'await AsyncTcpTransport.create(...)'")

    @classmethod
    async def create(
        cls, host: str = "127.0.0.1", port: int = 0, listen: bool = True,
        backlog: int = 4096,
    ) -> "AsyncTcpTransport":
        self = cls.__new__(cls)
        self._loop = asyncio.get_running_loop()
        self._receiver: Optional[Callable[[Address, bytes], None]] = None
        self._writers: Dict[Address, asyncio.StreamWriter] = {}
        self._connecting: Dict[Address, List[bytes]] = {}
        self._tasks: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = False
        self.connections_opened = 0
        self.connections_accepted = 0
        if listen:
            self._server = await asyncio.start_server(
                self._accepted, host, port, backlog=backlog
            )
            bound = self._server.sockets[0].getsockname()[1]
            self.local_address = Address(host, bound)
        else:
            self.local_address = Address(host, 0)
        return self

    # -- Transport interface ----------------------------------------------

    def send(self, destination: Address, payload: bytes) -> None:
        if self._closed:
            raise CommunicationError("transport closed")
        writer = self._writers.get(destination)
        if writer is not None:
            writer.write(self._frame(payload))
            return
        queue = self._connecting.get(destination)
        if queue is not None:
            queue.append(payload)
            return
        self._connecting[destination] = [payload]
        self._spawn(self._connect(destination))

    def set_receiver(self, receiver: Callable[[Address, bytes], None]) -> None:
        self._receiver = receiver

    def wait(self, predicate: Callable[[], bool], timeout: float) -> bool:
        raise CommunicationError(
            "AsyncTcpTransport has no blocking wait; use AsyncRpcClient"
        )

    def now(self) -> float:
        return self._loop.time()

    def close(self) -> None:
        self._closed = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers.values()):
            writer.close()
        self._writers.clear()
        self._connecting.clear()
        for task in list(self._tasks):
            task.cancel()

    async def aclose(self) -> None:
        """Graceful close: also waits for the listener to release."""
        self.close()
        if self._server is not None:
            await self._server.wait_closed()

    # -- internals --------------------------------------------------------

    def _frame(self, payload: bytes) -> bytes:
        return self._HEADER.pack(len(payload)) + payload

    def _spawn(self, coro) -> None:
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _connect(self, destination: Address) -> None:
        try:
            reader, writer = await asyncio.open_connection(
                destination.host, destination.port
            )
        except OSError:
            # Unreachable peer: drop what was queued.  Callers observe a
            # timeout and surface it through their retry budget, exactly
            # as a lost datagram would.
            self._connecting.pop(destination, None)
            return
        enable_nodelay(writer.get_extra_info("socket"))
        self.connections_opened += 1
        advertised = self.local_address.port
        if advertised == 0:  # listen=False: per-connection reply address
            advertised = writer.get_extra_info("sockname")[1]
        writer.write(self._frame(str(advertised).encode("ascii")))
        self._writers[destination] = writer
        for payload in self._connecting.pop(destination, []):
            writer.write(self._frame(payload))
        await self._read_loop(reader, writer, destination)

    async def _accepted(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # First frame is the peer's advertised port (its reply address).
        try:
            hello = await self._read_frame(reader)
            source = Address(
                writer.get_extra_info("peername")[0], int(hello.decode("ascii"))
            )
        except (asyncio.IncompleteReadError, ValueError, OSError):
            writer.close()
            return
        enable_nodelay(writer.get_extra_info("socket"))
        self.connections_accepted += 1
        # Replies to this peer ride the inbound connection — no second
        # socket pair per client, unlike the threaded transport.
        self._writers.setdefault(source, writer)
        await self._read_loop(reader, writer, source)

    async def _read_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        source: Address,
    ) -> None:
        try:
            while not self._closed:
                payload = await self._read_frame(reader)
                receiver = self._receiver
                if receiver is not None:
                    receiver(source, payload)
        except (asyncio.IncompleteReadError, asyncio.CancelledError, OSError):
            # Peer hung up or the transport is tearing down: either way
            # this connection is done; exit without propagating so the
            # stream server's bookkeeping callback stays quiet.
            pass
        finally:
            if self._writers.get(source) is writer:
                self._writers.pop(source, None)
            writer.close()

    async def _read_frame(self, reader: asyncio.StreamReader) -> bytes:
        header = await reader.readexactly(self._HEADER.size)
        (length,) = self._HEADER.unpack(header)
        return await reader.readexactly(length)


class AsyncRpcClient(ClientCore):
    """Coroutine RPC client: many concurrent calls over one transport.

    The async driver of :class:`~repro.rpc.client.ClientCore`'s engines,
    so semantics are :class:`~repro.rpc.client.RpcClient`'s exactly —
    same-xid retransmission carved out of the context's remaining
    deadline budget, ambient-context inheritance, retired-xid duplicate
    suppression — but each in-flight call awaits its own future instead
    of blocking the transport's wait loop, so calls overlap freely.
    Works over :class:`AsyncTcpTransport` in wall time and over
    :class:`~repro.rpc.transport.SimTransport` in virtual time when
    driven by a :class:`~repro.net.aioclock.SimEventLoop`.
    """

    _drive = staticmethod(drive_async)

    def _deliver(self, reply: RpcReply) -> bool:
        waiter = self._pending.get(reply.xid)
        if waiter is None or waiter.done():
            return False
        waiter.set_result(reply)
        return True

    def retire_xid(self, xid: int) -> None:
        """Mark ``xid`` finished: later replies for it are dropped."""
        waiter = self._pending.pop(xid, None)
        if waiter is not None:
            _inflight(-1)
            if not waiter.done():
                waiter.cancel()
        self._retired.add(xid)

    def _waiter(self, xid: int) -> asyncio.Future:
        """The xid's reply future, created on its first wait.

        One future per xid, shared across attempts: retransmissions
        re-await the *same* future, so whichever attempt's reply lands
        first resolves the call and later duplicates are dropped.  The
        first wait follows the first send with no loop turn in between,
        so no reply can arrive before its future exists.
        """
        waiter = self._pending.get(xid)
        if waiter is None:
            waiter = self._pending[xid] = asyncio.get_running_loop().create_future()
            _inflight(+1)
        return waiter

    def _perform(self, effect: tuple) -> Any:
        kind = effect[0]
        if kind == SEND:
            return self._send(effect[1], effect[2], effect[3])
        if kind == WAIT:
            return self._await_reply(effect[1], effect[2])
        return self._await_replies(effect[1], effect[2])

    async def _await_reply(self, xid: int, timeout: float) -> Optional[RpcReply]:
        try:
            # shield: a per-attempt timeout must not cancel the waiter —
            # the xid (and its future) live on into the next attempt.
            return await asyncio.wait_for(asyncio.shield(self._waiter(xid)), timeout)
        except asyncio.TimeoutError:
            return None

    async def _await_replies(
        self, xids: List[int], timeout: float
    ) -> Dict[int, RpcReply]:
        waiters = {xid: self._waiter(xid) for xid in xids}
        waiting = [waiter for waiter in waiters.values() if not waiter.done()]
        if waiting:
            # One collective timeout; pending futures are left
            # un-cancelled so the next attempt re-awaits them.
            await asyncio.wait(waiting, timeout=timeout)
        return {
            xid: waiter.result()
            for xid, waiter in waiters.items()
            if waiter.done() and not waiter.cancelled()
        }

    async def call(
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
        reply = await self.call_raw(
            destination, prog, vers, proc,
            CODECS.encode_args(prog, vers, proc, args), timeout, retries,
            context,
        )
        return reply_to_result(reply, destination, prog, vers, proc)

    async def ping(self, destination: Address, prog: int, vers: int = 1) -> bool:
        """True when the destination answers procedure 0 (NULL proc)."""
        try:
            await self.call(destination, prog, vers, 0)
            return True
        except RpcError:
            return False


class AsyncBatchingClient(BatchingCore, AsyncRpcClient):
    """Async client that coalesces same-tick calls into BATCH writes.

    Calls issued in the same event-loop tick — the natural shape of an
    ``asyncio.gather`` fan-out — stage their CALL frames per
    destination; a ``call_soon`` callback flushes each destination's
    stage as one transport write before the loop goes back to I/O.  No
    linger delay is ever added: the flush runs in the *current* tick, so
    a lone call leaves exactly as fast as with the base client, and a
    thousand-call gather leaves as ``ceil(1000 / max_batch)`` writes.
    Count and byte watermarks cut oversized batches early.
    """

    def __init__(
        self,
        transport: Transport,
        timeout: float = 1.0,
        retries: int = 3,
        retired_xid_capacity: int = 4096,
        max_batch: int = 16,
        max_bytes: int = 64 * 1024,
    ) -> None:
        super().__init__(transport, timeout, retries, retired_xid_capacity)
        self.max_batch = max_batch
        self.max_bytes = max_bytes
        self.batches_sent = 0
        self._staged: Dict[Address, List[bytes]] = {}
        self._staged_bytes: Dict[Address, int] = {}
        self._flush_scheduled: Set[Address] = set()

    def _send_call(
        self, destination: Address, encoded: bytes, deadline: Optional[float]
    ) -> None:
        staged = self._staged.setdefault(destination, [])
        staged.append(encoded)
        total = self._staged_bytes.get(destination, 0) + len(encoded)
        self._staged_bytes[destination] = total
        if len(staged) >= self.max_batch or total >= self.max_bytes:
            self._flush(destination)
            return
        if destination not in self._flush_scheduled:
            self._flush_scheduled.add(destination)
            asyncio.get_running_loop().call_soon(self._flush, destination)

    def _flush(self, destination: Address) -> None:
        self._flush_scheduled.discard(destination)
        staged = self._staged.pop(destination, None)
        self._staged_bytes.pop(destination, None)
        if staged:
            self._send_batch(destination, staged)



class AsyncRpcServer(RpcServer):
    """Task-per-call RPC server sharing the sync server's admission core.

    Arrival-time admission, the deadline-ordered queue, the at-most-once
    reply cache, and every counter are inherited unchanged from
    :class:`~repro.rpc.server.RpcServer`; only the drain differs —
    calls bound for ``async def`` handlers become event-loop tasks, so
    they overlap and are awaited, while plain sync handlers (which
    would hold the loop for their whole body regardless) execute inline
    during the drain, skipping per-call task overhead.

    Cancellation on deadline expiry: an awaitable handler result runs
    under ``asyncio.wait_for`` bounded by the call's remaining wire
    budget.  When the budget lapses mid-execution the task is cancelled
    and the caller gets ``DEADLINE_EXCEEDED`` — the async analogue of
    the sync server's wasted-handler-seconds accounting, except the
    waste itself is clawed back.
    """

    def __init__(
        self,
        transport: Transport,
        at_most_once: bool = True,
        reply_cache_size: int = 2048,
        admission: Optional[AdmissionPolicy] = None,
    ) -> None:
        super().__init__(transport, at_most_once, reply_cache_size, admission)
        self._handler_tasks: Set[asyncio.Task] = set()
        self.cancelled_on_deadline = 0
        self.reply_max_batch = 16
        self._reply_staged: Dict[Address, List[bytes]] = {}
        self._reply_flush_scheduled: Set[Address] = set()

    def handle_call(self, source: Address, call: RpcCall) -> None:
        """Entry point from the dispatcher; spawns a task per admitted call."""
        if not self._receive(source, call):
            return
        self._pump()

    def handle_batch(self, source: Address, calls: List[RpcCall]) -> None:
        """BATCH entry point: admit every call, then start tasks once.

        All calls join the deadline-ordered queue before any task is
        created, so the batch's most urgent call starts first regardless
        of wire position.  Reply coalescing needs no batch scope here —
        :meth:`_send_reply` tick-coalesces every reply.
        """
        for call in calls:
            self._receive(source, call)
        self._pump()

    def _send_reply(self, source: Address, reply: RpcReply) -> None:
        """Stage a reply; one write flushes everything ready this tick.

        Handler tasks that complete in the same event-loop tick (common
        for fast handlers fed by one BATCH payload) share a single
        transport write.  Outside a running loop — the sim fallback
        path — replies send immediately, matching the sync server.
        """
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            self.transport.send(source, reply.encode())
            return
        staged = self._reply_staged.setdefault(source, [])
        staged.append(reply.encode())
        if len(staged) >= self.reply_max_batch:
            self._flush_replies(source)
            return
        if source not in self._reply_flush_scheduled:
            self._reply_flush_scheduled.add(source)
            loop.call_soon(self._flush_replies, source)

    def _flush_replies(self, source: Address) -> None:
        self._reply_flush_scheduled.discard(source)
        staged = self._reply_staged.pop(source, None)
        if not staged:
            return
        METRICS.observe("rpc.server.batch_replies", float(len(staged)))
        try:
            self.transport.send(source, b"".join(staged))
        except CommunicationError:
            # Transport torn down while replies were staged; nobody is
            # left to read them.
            pass

    def _pump(self) -> None:
        """Drain the admission queue: inline for sync handlers, tasks else.

        Entries leave the queue in deadline order.  ``async def``
        handlers become event-loop tasks (so they overlap and can be
        cancelled at their deadline); plain sync handlers — which would
        monopolise the loop for their whole body either way — run
        *inline* right here, skipping task creation, scheduling ticks,
        and done-callback bookkeeping per call.  A caller outside the
        event loop (a sync test driving a sim clock by hand) falls back
        to running each entry to completion, mirroring the sync
        server's serial drain.
        """
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            loop = None
        try:
            while True:
                entry = self._queue.pop()
                if entry is None:
                    return
                source, call = entry
                self._start_entry(source, call, loop)
        finally:
            METRICS.set_gauge(
                "rpc.server.queue_depth", len(self._queue), self._gauge_label
            )

    def _start_entry(self, source: Address, call: RpcCall, loop) -> None:
        if loop is None:
            self._fallback_loop().run_until_complete(self._run_entry(source, call))
        elif self._wants_task(call):
            task = loop.create_task(self._run_entry(source, call))
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        else:
            self._start_inline(source, call, loop)

    def _wants_task(self, call: RpcCall) -> bool:
        """True when the call's handler needs the task path (async def)."""
        program = self._programs.get((call.prog, call.vers))
        if program is None:
            return False
        handler = program.lookup(call.proc)
        return handler is not None and inspect.iscoroutinefunction(handler)

    def _start_inline(self, source: Address, call: RpcCall, loop) -> None:
        """Sync-handler fast lane: dequeue checks + execution, no task."""
        now = self.transport.now()
        if call.deadline is not None and now >= call.deadline:
            self._finish(source, call, self._reject_deadline(call), cacheable=True)
            return
        if self._shedding_needed(call, now):
            self._finish(source, call, self._shed(call, "dequeue"), cacheable=False)
            return
        cache_key = (source, call.xid)
        self._in_flight.add(cache_key)
        reply: Optional[RpcReply] = None
        handed_off = False
        try:
            reply = self._execute_inline(source, call, loop)
            handed_off = reply is None
        finally:
            if not handed_off:
                self._in_flight.discard(cache_key)
        if reply is not None:
            try:
                self._finish(source, call, reply, cacheable=True)
            except CommunicationError:
                pass

    def _execute_inline(
        self, source: Address, call: RpcCall, loop
    ) -> Optional[RpcReply]:
        """Run a (presumed) sync handler without leaving this tick.

        Returns the reply, or ``None`` when the handler turned out to
        return an awaitable after all (a partial or wrapper the
        ``iscoroutinefunction`` gate cannot see) — then a task finishes
        the call and owns the in-flight key.
        """
        program, handler, args, early = self._prepare(call)
        if early is not None:
            return early
        ctx = self._context_for(call)
        started = self.transport.now()
        try:
            if ctx is not None:
                # Server-built context, dropped after the dispatch:
                # span bookkeeping only pays off with an exporter.
                if spans_wanted():
                    with ctx.span(
                        "server", f"{program.name}:{call.proc}", self.transport.now
                    ):
                        with use_context(ctx):
                            result = handler(args)
                else:
                    with use_context(ctx):
                        result = handler(args)
            else:
                result = handler(args)
        except Exception as exc:  # noqa: BLE001 - faults cross the wire as data
            self._observe(call, program, ctx, started)
            return self._fault_reply(call.xid, exc)
        if inspect.isawaitable(result):
            task = loop.create_task(
                self._finish_awaited(source, call, program, ctx, started, result)
            )
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
            return None
        self._observe(call, program, ctx, started)
        return self._success_reply(call, result)

    async def _finish_awaited(
        self, source: Address, call: RpcCall, program, ctx, started, awaitable
    ) -> None:
        """Complete an inline call whose sync handler returned an awaitable."""
        try:
            try:
                value = await self._bounded(awaitable, call)
            except asyncio.TimeoutError:
                self.cancelled_on_deadline += 1
                METRICS.inc(
                    "rpc.server.cancelled_on_deadline",
                    (program.name, str(call.proc)),
                )
                reply = self._reject_deadline(call)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - faults cross the wire as data
                reply = self._fault_reply(call.xid, exc)
            else:
                reply = self._success_reply(call, value)
        finally:
            self._observe(call, program, ctx, started)
            self._in_flight.discard((source, call.xid))
        try:
            self._finish(source, call, reply, cacheable=True)
        except CommunicationError:
            pass

    def _fallback_loop(self) -> asyncio.AbstractEventLoop:
        if isinstance(self.transport, SimTransport):
            from repro.net.aioclock import loop_for

            return loop_for(self.transport.network.clock)
        raise CommunicationError(
            "AsyncRpcServer needs a running event loop on this transport"
        )

    async def _run_entry(self, source: Address, call: RpcCall) -> None:
        """Dequeue-time re-check, execution, reply — one task per call."""
        now = self.transport.now()
        if call.deadline is not None and now >= call.deadline:
            self._finish(source, call, self._reject_deadline(call), cacheable=True)
            return
        if self._shedding_needed(call, now):
            self._finish(source, call, self._shed(call, "dequeue"), cacheable=False)
            return
        cache_key = (source, call.xid)
        self._in_flight.add(cache_key)
        try:
            reply = await self._execute_async(call)
        finally:
            self._in_flight.discard(cache_key)
        try:
            self._finish(source, call, reply, cacheable=True)
        except CommunicationError:
            # Transport torn down while the handler ran; nobody is left
            # to read the reply.
            pass

    async def _execute_async(self, call: RpcCall) -> RpcReply:
        program, handler, args, early = self._prepare(call)
        if early is not None:
            return early
        ctx = self._context_for(call)
        started = self.transport.now()
        try:
            try:
                if ctx is not None and spans_wanted():
                    with ctx.span(
                        "server", f"{program.name}:{call.proc}", self.transport.now
                    ):
                        with use_context(ctx):
                            result = handler(args)
                            if inspect.isawaitable(result):
                                result = await self._bounded(result, call)
                elif ctx is not None:
                    with use_context(ctx):
                        result = handler(args)
                        if inspect.isawaitable(result):
                            result = await self._bounded(result, call)
                else:
                    result = handler(args)
                    if inspect.isawaitable(result):
                        result = await self._bounded(result, call)
            except asyncio.TimeoutError:
                # The wire deadline lapsed mid-execution and the handler
                # task was cancelled: answer DEADLINE_EXCEEDED instead
                # of burning further handler time on a dead budget.
                self.cancelled_on_deadline += 1
                METRICS.inc(
                    "rpc.server.cancelled_on_deadline",
                    (program.name, str(call.proc)),
                )
                return self._reject_deadline(call)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - faults cross the wire as data
                return self._fault_reply(call.xid, exc)
            return self._success_reply(call, result)
        finally:
            self._observe(call, program, ctx, started)

    async def _bounded(self, awaitable, call: RpcCall):
        """Await a handler's result, cancelling at the wire deadline."""
        if call.deadline is None:
            return await awaitable
        remaining = call.deadline - self.transport.now()
        return await asyncio.wait_for(awaitable, max(0.0, remaining))

    async def drain_tasks(self) -> None:
        """Wait for every in-flight handler task (test/shutdown helper)."""
        while self._handler_tasks:
            await asyncio.gather(*list(self._handler_tasks), return_exceptions=True)
