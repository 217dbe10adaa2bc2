"""Sync/async call-engine parity on one seeded, faulty sim network.

Every client flavour comes in a blocking form and a coroutine form.  The
two must be the *same* engine seen through two drivers: given the same
seeded network and the same call script, the sync and the async flavour
send the same datagrams, draw the same fault decisions, and so end with
the same outcomes, counters and span events.  Each pair below runs the
script twice — once per flavour — on identically seeded networks and
compares what a caller can observe.
"""

import pytest

from repro.context import CallContext
from repro.net import SimNetwork, loop_for
from repro.net.latency import FixedLatency
from repro.rpc import (
    AsyncBatchingClient,
    AsyncRpcClient,
    RpcProgram,
    RpcServer,
)
from repro.rpc.client import BatchingClient, RpcClient
from repro.rpc.message import ReplyStatus, RpcReply, decode_message
from repro.rpc.resilience import BackoffPolicy, BreakerPolicy, ResilientCaller
from repro.rpc.transport import SimTransport

PROG = 663000
SEEDS = (1994, 2024, 7)
TIMEOUT = 0.08
RETRIES = 3


def faulty_world(seed, drop=0.2, duplicate=0.1, hosts=("srv",)):
    """A seeded network with echo servers on ``hosts``; faults start now."""
    net = SimNetwork(seed=seed, latency=FixedLatency(0.01))
    servers = {}
    for host in hosts:
        server = RpcServer(SimTransport(net, host))
        program = RpcProgram(PROG, 1, "parity-echo")
        program.register(1, lambda args: {"echo": args}, "echo")

        def boom(args):
            raise ValueError("kaput")

        program.register(2, boom, "boom")
        server.serve(program)
        servers[host] = server
    net.faults.drop_probability = drop
    net.faults.duplicate_probability = duplicate
    return net, servers


def outcome(run):
    """The type name of a result or raised error, plus the echoed value."""
    try:
        value = run()
    except Exception as exc:  # noqa: BLE001 - the type is the observable
        return type(exc).__name__, None
    if isinstance(value, Exception):
        return type(value).__name__, None
    return "ok", value


def span_events(ctx):
    return [
        (span.operation, event["name"], event.get("attempt"), round(event["at"], 9))
        for span in ctx.spans
        for event in span.events
    ]


SCRIPT = [(1, {"n": index}) for index in range(10)] + [(2, {}), (9, {})]


def single_call_run(seed, flavour):
    net, servers = faulty_world(seed)
    destination = servers["srv"].address
    transport = SimTransport(net, "cli")
    contexts = []

    def context():
        ctx = CallContext.from_legacy(TIMEOUT, RETRIES, net.clock.now)
        contexts.append(ctx)
        return ctx

    if flavour == "sync":
        client = RpcClient(transport, timeout=TIMEOUT, retries=RETRIES)
        outcomes = [
            outcome(lambda: client.call(
                destination, PROG, 1, proc, args, context=context()
            ))
            for proc, args in SCRIPT
        ]
    else:
        client = AsyncRpcClient(transport, timeout=TIMEOUT, retries=RETRIES)

        async def script():
            results = []
            for proc, args in SCRIPT:
                try:
                    value = await client.call(
                        destination, PROG, 1, proc, args, context=context()
                    )
                except Exception as exc:  # noqa: BLE001
                    results.append((type(exc).__name__, None))
                else:
                    results.append(("ok", value))
            return results

        outcomes = loop_for(net.clock).run_until_complete(script())
    net.clock.drain()
    return {
        "outcomes": outcomes,
        "calls_sent": client.calls_sent,
        "retransmissions": client.retransmissions,
        "duplicate_replies_dropped": client.duplicate_replies_dropped,
        "events": [event for ctx in contexts for event in span_events(ctx)],
        "dropped": net.faults.dropped_count,
        "duplicated": net.faults.duplicated_count,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_single_call_engine_is_flavour_blind(seed):
    sync = single_call_run(seed, "sync")
    aio = single_call_run(seed, "async")
    assert sync == aio
    # The faults really fired, so the retransmit path was compared too.
    assert sync["retransmissions"] > 0
    assert sync["dropped"] > 0 and sync["duplicated"] > 0
    assert any(name == "retransmission" for __, name, *__ in sync["events"])


def shedding_run(flavour):
    """A peer that answers every CALL with SHED: ``shed`` events match."""
    net = SimNetwork(seed=1994, latency=FixedLatency(0.01))
    peer = SimTransport(net, "srv")

    def shed_everything(source, payload):
        call = decode_message(payload)
        peer.send(source, RpcReply(call.xid, ReplyStatus.SHED).encode())

    peer.set_receiver(shed_everything)
    ctx = CallContext.from_legacy(TIMEOUT, RETRIES, net.clock.now)
    if flavour == "sync":
        client = RpcClient(SimTransport(net, "cli"))
        result = outcome(lambda: client.call(
            peer.local_address, PROG, 1, 1, {}, context=ctx
        ))
    else:
        client = AsyncRpcClient(SimTransport(net, "cli"))

        async def one():
            return await client.call(
                peer.local_address, PROG, 1, 1, {}, context=ctx
            )

        result = outcome(lambda: loop_for(net.clock).run_until_complete(one()))
    return result, span_events(ctx), client.calls_sent


def test_shed_span_events_match():
    sync = shedding_run("sync")
    assert sync == shedding_run("async")
    assert sync[0][0] == "ServerShedding"
    assert [name for __, name, *__ in sync[1]] == ["shed"]


def call_many_run(seed, flavour):
    net, servers = faulty_world(seed)
    destination = servers["srv"].address
    transport = SimTransport(net, "cli")
    calls = [(PROG, 1, proc, args) for proc, args in SCRIPT * 2]
    if flavour == "sync":
        client = BatchingClient(
            transport, timeout=TIMEOUT, retries=RETRIES, max_batch=4
        )
        results = client.call_many(destination, calls)
    else:
        client = AsyncBatchingClient(
            transport, timeout=TIMEOUT, retries=RETRIES, max_batch=4
        )
        results = loop_for(net.clock).run_until_complete(
            client.call_many(destination, calls)
        )
    net.clock.drain()
    return {
        "outcomes": [outcome(lambda: result) for result in results],
        "calls_sent": client.calls_sent,
        "retransmissions": client.retransmissions,
        "batches_sent": client.batches_sent,
    }


def test_call_many_engine_is_flavour_blind():
    runs = {seed: call_many_run(seed, "sync") for seed in SEEDS}
    for seed, sync in runs.items():
        assert sync == call_many_run(seed, "async"), seed
    # At least one seed lost frames, so gap retransmission was compared.
    assert sum(run["retransmissions"] for run in runs.values()) > 0


def resilient_run(seed, flavour):
    net, servers = faulty_world(
        seed, drop=0.1, duplicate=0.1, hosts=("dead1", "dead2", "live")
    )
    net.faults.crash("dead1")
    net.faults.crash("dead2")
    targets = [servers[host].address for host in ("dead1", "dead2", "live")]
    transport = SimTransport(net, "cli")
    options = dict(
        backoff=BackoffPolicy(base=0.02, cap=0.1),
        breaker=BreakerPolicy(failure_threshold=2, probe_interval=0.5),
        seed=seed,
    )
    calls = range(8)

    def budget():
        return CallContext(deadline=net.clock.now + 2.0)

    if flavour == "sync":
        caller = ResilientCaller(
            RpcClient(transport, timeout=0.1, retries=1), **options
        )
        outcomes = [
            outcome(lambda: caller.call(
                targets, PROG, 1, 1, {"n": index}, ctx=budget()
            ))
            for index in calls
        ]
    else:
        caller = ResilientCaller(
            AsyncRpcClient(transport, timeout=0.1, retries=1), **options
        )

        async def script():
            results = []
            for index in calls:
                try:
                    value = await caller.call_async(
                        targets, PROG, 1, 1, {"n": index}, ctx=budget()
                    )
                except Exception as exc:  # noqa: BLE001
                    results.append((type(exc).__name__, None))
                else:
                    results.append(("ok", value))
            return results

        outcomes = loop_for(net.clock).run_until_complete(script())
    net.clock.drain()
    return {
        "outcomes": outcomes,
        "failovers": caller.failovers,
        "backoff_sleeps": caller.backoff_sleeps,
        "breaker_opens": caller.breaker_opens(),
        "now": net.clock.now,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_resilient_rounds_are_flavour_blind(seed):
    sync = resilient_run(seed, "sync")
    assert sync == resilient_run(seed, "async")
    assert sync["failovers"] > 0
    assert sync["breaker_opens"] > 0


def test_stats_and_ping_answer_on_both_flavours():
    net, servers = faulty_world(1994, drop=0.0, duplicate=0.0)
    destination = servers["srv"].address
    sync = RpcClient(SimTransport(net, "cli"))
    aio = AsyncRpcClient(SimTransport(net, "acli"))

    async def probe():
        return await aio.stats(destination), await aio.ping(destination, PROG)

    snapshot, pinged = loop_for(net.clock).run_until_complete(probe())
    assert pinged and sync.ping(destination, PROG)
    assert snapshot["stats_version"] == sync.stats(destination)["stats_version"]
