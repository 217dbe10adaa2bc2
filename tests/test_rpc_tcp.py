"""Tests for the real-TCP transport: same RPC stack, real sockets.

Kept small (each test opens real listeners on 127.0.0.1) but proves the
transport abstraction holds: client, server, and the COSM layers above
run unchanged.
"""

import pytest

from repro.rpc.client import RpcClient
from repro.rpc.server import RpcProgram, RpcServer
from repro.rpc.transport import TcpTransport

PROG = 710000


@pytest.fixture
def tcp_pair():
    server_transport = TcpTransport()
    client_transport = TcpTransport()
    yield server_transport, client_transport
    server_transport.close()
    client_transport.close()


def test_call_over_real_sockets(tcp_pair):
    server_transport, client_transport = tcp_pair
    server = RpcServer(server_transport)
    program = RpcProgram(PROG, 1)
    program.register(1, lambda args: {"pong": args})
    server.serve(program)
    client = RpcClient(client_transport, timeout=2.0, retries=0)
    assert client.call(server_transport.local_address, PROG, 1, 1, "ping") == {
        "pong": "ping"
    }


def test_many_sequential_calls(tcp_pair):
    server_transport, client_transport = tcp_pair
    server = RpcServer(server_transport)
    program = RpcProgram(PROG, 1)
    program.register(1, lambda args: args * 2)
    server.serve(program)
    client = RpcClient(client_transport, timeout=2.0, retries=0)
    for i in range(20):
        assert client.call(server_transport.local_address, PROG, 1, 1, i) == i * 2


def test_timeout_against_dead_port(tcp_pair):
    __, client_transport = tcp_pair
    client = RpcClient(client_transport, timeout=0.1, retries=0)
    from repro.net.endpoints import Address
    from repro.rpc.errors import RpcError

    # A bound-then-closed listener: connection refused or timeout.
    probe = TcpTransport()
    dead = probe.local_address
    probe.close()
    with pytest.raises((RpcError, OSError)):
        client.call(Address(dead.host, dead.port), PROG, 1, 1)


def test_generic_client_over_tcp():
    """The whole mediation stack runs over real sockets too."""
    from repro.core import GenericClient
    from repro.services import start_car_rental

    server_transport = TcpTransport()
    client_transport = TcpTransport()
    try:
        runtime = start_car_rental(RpcServer(server_transport))
        generic = GenericClient(RpcClient(client_transport, timeout=2.0))
        binding = generic.bind(runtime.ref)
        result = binding.invoke(
            "SelectCar",
            {"selection": {"CarModel": "AUDI", "BookingDate": "x", "Days": 1}},
        )
        assert result.value["available"] is True
        binding.unbind()
    finally:
        server_transport.close()
        client_transport.close()


def test_nodelay_set_on_outgoing_connections(tcp_pair):
    """Nagle must stay off on the wire fast lane: a 100-byte CALL frame
    sitting in the kernel for 40 ms would dwarf every software win."""
    import socket

    server_transport, client_transport = tcp_pair
    server = RpcServer(server_transport)
    program = RpcProgram(PROG, 1)
    program.register(1, lambda args: args, "echo")
    server.serve(program)
    client = RpcClient(client_transport, timeout=2.0)
    assert client.call(server.address, PROG, 1, 1, {"x": 1}) == {"x": 1}
    conns = list(client_transport._connections.values())
    assert conns, "expected a cached outgoing connection"
    for conn in conns:
        assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1


def test_enable_nodelay_tolerates_non_tcp_sockets():
    import socket

    from repro.rpc.transport import enable_nodelay

    left, right = socket.socketpair()  # AF_UNIX: no TCP_NODELAY option
    try:
        enable_nodelay(left)  # must not raise
        enable_nodelay(None)  # and must tolerate missing sockets
    finally:
        left.close()
        right.close()


# -- outgoing connections: idle readers and peer hang-ups ---------------------


@pytest.fixture
def async_echo_server():
    """An AsyncRpcServer on its own loop thread; it replies to a caller on
    the connection the call arrived on (unlike the threaded transport)."""
    import asyncio
    import threading

    from repro.rpc.aio import AsyncRpcServer, AsyncTcpTransport

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    async def start():
        transport = await AsyncTcpTransport.create()
        server = AsyncRpcServer(transport)
        program = RpcProgram(PROG, 1)
        program.register(1, lambda args: args, "echo")
        server.serve(program)
        return transport

    transport = asyncio.run_coroutine_threadsafe(start(), loop).result(5)
    yield transport.local_address
    loop.call_soon_threadsafe(transport.close)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(5)
    loop.close()


def test_idle_outgoing_connection_still_hears_replies(monkeypatch, async_echo_server):
    """The connect timeout must not outlive the connect: a reader thread
    that times out on an idle connection loses every later reply the
    peer sends back on it.  A short connect timeout makes the idle
    window cheap to cross."""
    import socket
    import time

    connect = socket.create_connection

    def short_connect(address, timeout=None, *args, **kwargs):
        return connect(address, 0.2, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", short_connect)
    transport = TcpTransport()
    try:
        client = RpcClient(transport, timeout=2.0, retries=0)
        assert client.call(async_echo_server, PROG, 1, 1, "first") == "first"
        time.sleep(0.5)  # idle well past the connect timeout
        assert client.call(async_echo_server, PROG, 1, 1, "second") == "second"
    finally:
        transport.close()


def test_outgoing_connection_evicted_when_peer_hangs_up():
    """When the peer closes a cached connection, the next send reconnects
    rather than writing into the dead socket."""
    import socket
    import time

    from repro.net.endpoints import Address

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    listener.settimeout(5)
    destination = Address("127.0.0.1", listener.getsockname()[1])
    transport = TcpTransport()
    try:
        transport.send(destination, b"one")
        first, __ = listener.accept()
        first.close()
        deadline = time.monotonic() + 5
        while destination in transport._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert destination not in transport._connections
        transport.send(destination, b"two")
        second, __ = listener.accept()  # times out unless it reconnected
        second.close()
    finally:
        transport.close()
        listener.close()


# -- input bounds: the frame-length header --------------------------------------


def _announce_oversized_frame(address):
    """Connect, say hello, then announce a 4 GiB frame; return the socket."""
    import socket
    import struct

    sock = socket.create_connection((address.host, address.port), timeout=5)
    hello = b"1"
    sock.sendall(struct.pack(">I", len(hello)) + hello + struct.pack(">I", 0xFFFFFFFF))
    return sock


def _assert_hung_up(sock):
    try:
        assert sock.recv(1) == b""  # raises a timeout if the peer stays
    finally:
        sock.close()


def test_frame_bound_is_inclusive():
    from repro.rpc.transport import MAX_FRAME, frame_too_large

    assert MAX_FRAME == 16 * 1024 * 1024
    assert not frame_too_large(MAX_FRAME)
    assert frame_too_large(MAX_FRAME + 1)


def test_threaded_transport_rejects_an_oversized_frame(tcp_pair):
    from repro.telemetry.metrics import METRICS

    server_transport, __ = tcp_pair
    received = []
    server_transport.set_receiver(lambda source, payload: received.append(payload))
    before = METRICS.counter("rpc.transport.frames_rejected")
    _assert_hung_up(_announce_oversized_frame(server_transport.local_address))
    assert METRICS.counter("rpc.transport.frames_rejected") == before + 1
    assert received == []


def test_async_transport_rejects_an_oversized_frame(async_echo_server):
    from repro.telemetry.metrics import METRICS

    before = METRICS.counter("rpc.transport.frames_rejected")
    _assert_hung_up(_announce_oversized_frame(async_echo_server))
    assert METRICS.counter("rpc.transport.frames_rejected") == before + 1
