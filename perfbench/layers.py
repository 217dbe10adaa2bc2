"""Where the traced run puts its timing wrappers, layer by layer.

:func:`install` patches the public entry points of every layer the
benchmark reports, in whichever process calls it (the load generator and
the server launcher both do, before driving or serving).  Each wrapper is
installed where its caller looks the name up: ``trader.py`` imports
``parse_constraint`` and ``fan_out`` by name, and the dispatcher imports
``decode_messages`` by name, so those are patched in the importing
module.  Handlers registered by a service at construction time are bound
then, so :func:`install` must run before the deployment is built.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.core.generic_client import GenericBinding, GenericClient
from repro.core.service_runtime import ServiceRuntime
from repro.naming.binder import Binder
from repro.rpc import dispatch
from repro.rpc.aio import AsyncRpcClient, AsyncRpcServer, AsyncTcpTransport
from repro.rpc.client import RpcClient
from repro.rpc.codec import CODECS
from repro.rpc.message import RpcCall, RpcReply
from repro.rpc.server import AdmissionQueue, RpcServer
from repro.rpc.transport import TcpTransport
from repro.sidl.sid import ServiceDescription
from repro.trader import federation
from repro.trader import trader as trader_module
from repro.trader.federation import TraderLink
from repro.trader.offers import OfferStore, ServiceOffer
from repro.trader.sharding.replication import DeltaLog
from repro.trader.sharding.router import ShardHandle, ShardRouter
from repro.trader.sharding.shard import TraderShard
from repro.trader.trader import LocalTrader

from tracer import Tracer

TRADER_OPS = ("import_", "export", "renew", "modify", "withdraw")


def install(tracer: Tracer) -> None:
    """Patch every layer's entry points with ``tracer``'s wrappers."""
    count = tracer.count

    def sent_bytes(args, kwargs, result):
        count("rpc.transport.bytes", len(args[2]))

    def decoded(args, kwargs, result):
        count("rpc.message.messages", len(result))

    def reply_bytes(args, kwargs, result):
        count("rpc.codec.reply_bytes", len(result))

    def examined(args, kwargs, result):
        count("trader.offers.examined", len(result))

    def returned(args, kwargs, result):
        count("trader.offers.returned", len(result))

    def linked(args, kwargs, result):
        count("trader.federation.links", len(args[0]))

    def shard_call(args, kwargs, result):
        count("trader.sharding.shard_calls")

    # rpc.client: the call engines, sync and async, and the blocking wait.
    tracer.patch(RpcClient, "call", "rpc.client.call")
    tracer.patch(AsyncRpcClient, "call", "rpc.client.call", kind="async")
    tracer.patch(TcpTransport, "wait", "rpc.client.wait", kind="wait")
    tracer.patch(ServiceOffer, "from_wire", "rpc.client.from_wire")
    # rpc.codec: the server's argument decode and result encode (the
    # client's halves belong to rpc.client).
    tracer.patch(CODECS, "encode_args", "rpc.client.encode_args")
    tracer.patch(CODECS, "decode_result", "rpc.client.decode_result")
    tracer.patch(CODECS, "decode_args", "rpc.codec.decode_args")
    tracer.patch(CODECS, "encode_result", "rpc.codec.encode_result", after=reply_bytes)
    # rpc.message: framing of calls and replies, BATCH-aware decode.
    tracer.patch(RpcCall, "encode", "rpc.message.encode_call")
    tracer.patch(RpcReply, "encode", "rpc.message.encode_reply")
    tracer.patch(dispatch, "decode_messages", "rpc.message.decode", after=decoded)
    # rpc.transport: every write, with its payload size.
    tracer.patch(TcpTransport, "send", "rpc.transport.send", after=sent_bytes)
    tracer.patch(AsyncTcpTransport, "send", "rpc.transport.send", after=sent_bytes)
    # rpc.server: admission, dispatch and at-most-once, sync and async.
    for server_class in (RpcServer, AsyncRpcServer):
        tracer.patch(server_class, "handle_call", "rpc.server.handle")
        tracer.patch(server_class, "handle_batch", "rpc.server.handle")
    _queue_wait(tracer)
    # trader.trader: the single-store trader (also each shard's engine).
    for op in TRADER_OPS:
        tracer.patch(LocalTrader, op, f"trader.trader.{op.rstrip('_')}",
                     after=returned if op == "import_" else None)
    tracer.patch(LocalTrader, "import_wire", "trader.trader.import_wire")
    # trader.offers: candidate selection, ordered walks, constraint parsing.
    tracer.patch(OfferStore, "candidates", "trader.offers.candidates", after=examined)
    tracer.patch(OfferStore, "ordered_by", "trader.offers.ordered_by", kind="iter")
    tracer.patch(trader_module, "parse_constraint", "trader.offers.parse_constraint")
    # trader.sharding: router, shard handles, shards, delta log, replicas.
    for op in TRADER_OPS + ("import_wire",):
        tracer.patch(ShardRouter, op, f"trader.sharding.router.{op.rstrip('_')}")
    tracer.patch(ShardHandle, "call", "trader.sharding.handle", after=shard_call)
    for op in ("export", "renew", "modify", "withdraw", "import_wire"):
        tracer.patch(TraderShard, op, f"trader.sharding.shard.{op}")
    tracer.patch(TraderShard, "apply_delta", "trader.sharding.replica_apply")
    tracer.patch(DeltaLog, "append", "trader.sharding.append")
    # trader.federation: the fan-out and each link's forward.
    tracer.patch(trader_module, "fan_out", "trader.federation.fanout", after=linked)
    tracer.patch(TraderLink, "forward", "trader.federation.link")
    tracer.patch(federation, "wait", "trader.federation.wait", kind="wait")
    # core: generic client, binder, SID transfer, service runtime.
    tracer.patch(GenericClient, "bind", "core.bind")
    tracer.patch(Binder, "bind", "core.binder_bind")
    tracer.patch(ServiceDescription, "from_wire", "core.sid_decode")
    tracer.patch(ServiceDescription, "to_wire", "core.sid_encode")
    tracer.patch(GenericBinding, "invoke", "core.invoke")
    tracer.patch(GenericBinding, "unbind", "core.unbind")
    for handler in ("_get_sid", "_bind", "_unbind", "_invoke"):
        tracer.patch(ServiceRuntime, handler, f"core.runtime{handler}")


def _queue_wait(tracer: Tracer) -> None:
    """Admission-queue depth and the time each call waited in it."""
    stamped: Dict[int, int] = {}

    def pushed(args, kwargs, result):
        queue, item = args[0], args[1]
        if result is not item:
            stamped[id(item)] = time.perf_counter_ns()
        tracer.maximum("rpc.server.queue_depth", len(queue))

    def popped(args, kwargs, result):
        if result is not None:
            since = stamped.pop(id(result), None)
            if since is not None:
                waited = time.perf_counter_ns() - since
                tracer.record("rpc.server.queue", waited, 0, waited)

    tracer.hook(AdmissionQueue, "push", pushed)
    tracer.hook(AdmissionQueue, "pop", popped)
