"""Per-peer codec safety: a reply is compiled only for a caller that can
decode it.

Negotiation is per process, so a server holding the trader layouts
cannot assume its caller does.  The rule: reply compiled only when the
call being answered arrived compiled.  Here the server keeps the
process-global registry (every trader layout) while the client side is
swapped for a recording stand-in: either a fresh, empty
:class:`CodecRegistry` (a peer without the layouts) or the global one
(a peer with them).  Each case runs over the sync and async stacks,
singly and inside BATCH envelopes.
"""

import pytest

import repro.rpc.aio as aio_module
import repro.rpc.client as client_module
from repro.naming.refs import ServiceRef
from repro.net import SimNetwork, loop_for
from repro.net.endpoints import Address
from repro.net.latency import FixedLatency
from repro.rpc import AsyncBatchingClient, AsyncRpcClient, AsyncRpcServer, RpcServer
from repro.rpc.client import BatchingClient, RpcClient
from repro.rpc.codec import CODECS, CodecRegistry, is_compiled
from repro.rpc.transport import SimTransport
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType, STRING
from repro.trader.service_types import ServiceType
from repro.trader.trader import (
    _PROC_IMPORT,
    _PROC_RENEW,
    TRADER_PROGRAM,
    ImportRequest,
    LocalTrader,
    TraderService,
)

IMPORT = ImportRequest(
    "Rental", "City == 'Zurich'", preference="min ChargePerDay", max_matches=2
).to_wire()


class RecordingCodecs:
    """The caller's side of the codec: records every reply body it decodes."""

    def __init__(self, registry):
        self.registry = registry
        self.replies = []

    def encode_args(self, prog, vers, proc, args):
        return self.registry.encode_args(prog, vers, proc, args)

    def decode_result(self, prog, vers, proc, body):
        self.replies.append(bytes(body))
        return self.registry.decode_result(prog, vers, proc, body)


@pytest.fixture(params=["tagged", "compiled"])
def peer(request, monkeypatch):
    """``(kind, recorder)``: a caller without (tagged) or with the layouts."""
    registry = CodecRegistry() if request.param == "tagged" else CODECS
    recorder = RecordingCodecs(registry)
    monkeypatch.setattr(client_module, "CODECS", recorder)
    monkeypatch.setattr(aio_module, "CODECS", recorder)
    return request.param, recorder


@pytest.fixture
def net():
    return SimNetwork(seed=7, latency=FixedLatency(0.001))


def stocked_trader():
    trader = LocalTrader("peer-safety")
    trader.add_type(
        ServiceType(
            "Rental",
            InterfaceType("RentalOps", [OperationType("Rent", [], LONG)]),
            [("ChargePerDay", DOUBLE), ("City", STRING)],
        )
    )
    for index, (city, charge) in enumerate(
        [("Zurich", 80.0), ("Berlin", 60.0), ("Zurich", 55.5), ("Zurich", 91.25)]
    ):
        ref = ServiceRef.create(f"Desk{index}", Address("desk", 7000 + index), 4711)
        trader.export(
            "Rental", ref, {"ChargePerDay": charge, "City": city}, now=0.0,
            lease_seconds=30.0,
        )
    return trader


def assert_replies(peer, expected_count):
    kind, recorder = peer
    assert len(recorder.replies) == expected_count
    assert all(is_compiled(body) == (kind == "compiled") for body in recorder.replies)


def assert_import_answer(result):
    assert [item["properties"]["ChargePerDay"] for item in result] == [55.5, 80.0]
    assert all(item["ref"]["host"] == "desk" for item in result)


def test_sync_import_and_renew(net, peer):
    server = RpcServer(SimTransport(net, "trader"))
    TraderService(server, stocked_trader())
    client = RpcClient(SimTransport(net, "importer"), timeout=1.0, retries=0)
    result = client.call(server.address, TRADER_PROGRAM, 1, _PROC_IMPORT, IMPORT)
    assert_import_answer(result)
    offer_id = result[0]["offer_id"]
    renewed = client.call(
        server.address, TRADER_PROGRAM, 1, _PROC_RENEW, {"offer_id": offer_id}
    )
    assert isinstance(renewed, float)
    assert_replies(peer, 2)


def test_sync_batch_import_and_renew(net, peer):
    server = RpcServer(SimTransport(net, "trader"))
    trader = stocked_trader()
    TraderService(server, trader)
    client = BatchingClient(SimTransport(net, "importer"), timeout=1.0, retries=0)
    offer_id = trader.offers.all()[0].offer_id
    outcomes = client.call_many(
        server.address,
        [
            (TRADER_PROGRAM, 1, _PROC_IMPORT, IMPORT),
            (TRADER_PROGRAM, 1, _PROC_RENEW, {"offer_id": offer_id}),
        ],
    )
    assert_import_answer(outcomes[0])
    assert isinstance(outcomes[1], float)
    assert client.batches_sent == 1
    assert_replies(peer, 2)


def test_async_import_and_renew(net, peer):
    server = AsyncRpcServer(SimTransport(net, "trader"))
    TraderService(server, stocked_trader())
    client = AsyncRpcClient(SimTransport(net, "importer"), timeout=1.0, retries=0)

    async def journey():
        result = await client.call(
            server.address, TRADER_PROGRAM, 1, _PROC_IMPORT, IMPORT
        )
        renewed = await client.call(
            server.address, TRADER_PROGRAM, 1, _PROC_RENEW,
            {"offer_id": result[0]["offer_id"]},
        )
        return result, renewed

    result, renewed = loop_for(net.clock).run_until_complete(journey())
    assert_import_answer(result)
    assert isinstance(renewed, float)
    assert_replies(peer, 2)


def test_async_batch_import_and_renew(net, peer):
    server = AsyncRpcServer(SimTransport(net, "trader"))
    trader = stocked_trader()
    TraderService(server, trader)
    client = AsyncBatchingClient(SimTransport(net, "importer"), timeout=1.0, retries=0)
    offer_id = trader.offers.all()[0].offer_id
    outcomes = loop_for(net.clock).run_until_complete(
        client.call_many(
            server.address,
            [
                (TRADER_PROGRAM, 1, _PROC_IMPORT, IMPORT),
                (TRADER_PROGRAM, 1, _PROC_RENEW, {"offer_id": offer_id}),
            ],
        )
    )
    assert_import_answer(outcomes[0])
    assert isinstance(outcomes[1], float)
    assert client.batches_sent == 1
    assert_replies(peer, 2)
