"""Server launcher: builds one workload's trader deployment and serves it.

Started by ``run.py`` as its own process::

    python3 perfbench/server.py --workload import_read --seed 1 --trace 0

It installs the GC probe (and, with ``--trace 1``, the layer wrappers),
builds the deployment, preloads it through the deployment's own
``export``, prints one ``READY <json>`` line with the addresses to use,
and serves until its stdin closes.
``--setup-only`` exits right after READY: the generator launches the
server several times to time set-up.

Besides the deployment's own programs the main server answers a small
control program (:data:`CONTROL_PROGRAM`): begin and end a measured
window (server-side probe readings) and run the workload's server-side
correctness check.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.integration import make_tradable
from repro.rpc.aio import AsyncRpcServer, AsyncTcpTransport
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcProgram, RpcServer
from repro.rpc.transport import TcpTransport
from repro.services.car_rental import CarRentalImpl, make_car_rental_sid, start_car_rental
from repro.trader.constraints import _compile as compile_constraint
from repro.trader.service_types import service_type_from_sid
from repro.trader.sharding import build_local_router
from repro.trader.trader import LocalTrader, TraderService

import workloads
from tracer import Tracer

CONTROL_PROGRAM = 399900
PROC_WINDOW_BEGIN = 1
PROC_WINDOW_END = 2
PROC_CHECK = 3


class GcProbe:
    """Cyclic-GC pause accounting through ``gc.callbacks``."""

    def __init__(self) -> None:
        self._started = 0
        self.reset()
        gc.callbacks.append(self._callback)

    def reset(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_ns_total = 0
        self.pause_ns_max = 0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        now = time.perf_counter_ns()
        if phase == "start":
            self._started = now
            return
        pause = now - self._started
        self.collections[info["generation"]] += 1
        self.pause_ns_total += pause
        self.pause_ns_max = max(self.pause_ns_max, pause)

    def reading(self) -> Dict[str, Any]:
        return {
            "collections": list(self.collections),
            "pause_ms_total": self.pause_ns_total / 1e6,
            "pause_ms_max": self.pause_ns_max / 1e6,
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Launcher:
    """One deployment plus the probes and the control program."""

    def __init__(self, workload: str, seed: int, tracer: Optional[Tracer]) -> None:
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.gc_probe = GcProbe()
        self.started = time.monotonic()
        self.router = None
        self.services: List[CarRentalImpl] = []
        self.runtimes: list = []
        self._cpu_start = time.process_time()
        self._cache_start = compile_constraint.cache_info()

    def now(self) -> float:
        """The trader clock: seconds since launch."""
        return time.monotonic() - self.started

    # -- deployments -------------------------------------------------------

    def sharded(self, server: RpcServer, offers: int) -> Dict[str, Any]:
        self.router = build_local_router(
            workloads.SHARD_IDS, replicas=workloads.REPLICAS, router_id=workloads.ROUTER_ID
        )
        for name in workloads.TYPE_NAMES:
            self.router.add_type(workloads.service_type(name))
        lease = workloads.LEASE_SECONDS if self.workload == "lease_churn" else None
        now = self.now()
        for service_type, ref, properties in workloads.preload(self.seed, offers):
            self.router.export(service_type, ref, properties, now, lease_seconds=lease)
        TraderService(server, self.router, now=self.now)
        return {"trader": list(server.address)}

    def cascade(self, hub_server: RpcServer) -> Dict[str, Any]:
        specs = workloads.cascade_services()
        peers = []
        for peer in range(workloads.PEERS):
            server = RpcServer(TcpTransport())
            peers.append((server, TraderService(server, LocalTrader(f"peer{peer}"))))
        for spec in specs:
            server, service = peers[spec["peer"]]
            sid = make_car_rental_sid(
                model=spec["model"], charge_per_day=spec["charge"],
                service_id=spec["service_id"], name=spec["name"],
            )
            impl = CarRentalImpl(
                charge_per_day=spec["charge"],
                available_models={model: workloads.FLEET for model in workloads.CAR_MODELS},
            )
            runtime = start_car_rental(server, sid, impl)
            make_tradable(sid, runtime.ref, service.trader)
            self.services.append(impl)
            self.runtimes.append(runtime)
        hub = LocalTrader("hub")
        hub.add_type(service_type_from_sid(make_car_rental_sid()))
        hub_service = TraderService(
            hub_server, hub, client=RpcClient(TcpTransport()), now=self.now
        )
        for index, (server, _) in enumerate(peers):
            hub_service.link_to(server.address, name=f"peer{index}")
        return {"trader": list(hub_server.address)}

    # -- control program -----------------------------------------------------

    def serve_control(self, server: RpcServer) -> None:
        program = RpcProgram(CONTROL_PROGRAM, 1, "perfbench")
        program.register(PROC_WINDOW_BEGIN, self._window_begin, "window_begin")
        program.register(PROC_WINDOW_END, self._window_end, "window_end")
        program.register(PROC_CHECK, self._check, "check")
        server.serve(program)

    def _window_begin(self, args: Any) -> bool:
        self.gc_probe.reset()
        if self.tracer is not None:
            self.tracer.reset()
        self._cpu_start = time.process_time()
        self._cache_start = compile_constraint.cache_info()
        return True

    def _window_end(self, args: Any) -> Dict[str, Any]:
        cache = compile_constraint.cache_info()
        return {
            "gc": self.gc_probe.reading(),
            "rss_mb": peak_rss_mb(),
            "cpu_s": time.process_time() - self._cpu_start,
            "parse_cache": {
                "hits": cache.hits - self._cache_start.hits,
                "misses": cache.misses - self._cache_start.misses,
            },
            "trace": self.tracer.table() if self.tracer is not None else None,
        }

    def _check(self, args: Any) -> Dict[str, Any]:
        if self.workload == "mediated_cascade":
            return {
                "bookings": sum(impl.bookings for impl in self.services),
                "fsm_rejections": sum(runtime.fsm_rejections for runtime in self.runtimes),
            }
        return self._replica_check(with_offers=self.workload == "lease_churn")

    def _replica_check(self, with_offers: bool) -> Dict[str, Any]:
        """Each replica against its primary: sequence, ids, properties, leases."""
        lag = 0
        mismatched = 0
        offers: List[List[Any]] = []
        for shard_id in workloads.SHARD_IDS:
            handle = self.router.handle(shard_id)
            primary = handle.primary
            for replica in handle.replicas:
                lag = max(lag, primary.log.last_seq - replica.applied_seq)
                mine = {o.offer_id: (o.properties, o.expires_at) for o in primary.offers.all()}
                theirs = {o.offer_id: (o.properties, o.expires_at) for o in replica.offers.all()}
                mismatched += sum(
                    1 for key in mine.keys() | theirs.keys() if mine.get(key) != theirs.get(key)
                )
            if with_offers:
                offers.extend([o.offer_id, o.properties] for o in primary.offers.all())
        return {"replica_lag": lag, "replica_mismatches": mismatched, "offers": offers}


def _watch_stdin(stop: Callable[[], None]) -> None:
    """Stop when the generator goes away (stdin reaches EOF)."""

    def watch() -> None:
        sys.stdin.read()
        stop()

    threading.Thread(target=watch, daemon=True).start()


def _ready(addresses: Dict[str, Any]) -> None:
    print("READY " + json.dumps(addresses), flush=True)


def serve_threaded(launcher: Launcher, setup_only: bool) -> None:
    server = RpcServer(TcpTransport())
    if launcher.workload == "mediated_cascade":
        addresses = launcher.cascade(server)
    else:
        addresses = launcher.sharded(server, workloads.IMPORT_READ_OFFERS)
    launcher.serve_control(server)
    _ready(addresses)
    if setup_only:
        return
    stopped = threading.Event()
    _watch_stdin(stopped.set)
    stopped.wait()


async def serve_async(launcher: Launcher, setup_only: bool) -> None:
    transport = await AsyncTcpTransport.create()
    server = AsyncRpcServer(transport)
    addresses = launcher.sharded(server, workloads.LEASE_CHURN_OFFERS)
    launcher.serve_control(server)
    _ready(addresses)
    if setup_only:
        return
    loop = asyncio.get_running_loop()
    stopped = asyncio.Event()
    _watch_stdin(lambda: loop.call_soon_threadsafe(stopped.set))
    await stopped.wait()
    await transport.aclose()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        import layers

        tracer = Tracer()
        layers.install(tracer)
    launcher = Launcher(args.workload, args.seed, tracer)
    if args.workload == "lease_churn":
        asyncio.run(serve_async(launcher, args.setup_only))
    else:
        serve_threaded(launcher, args.setup_only)
    sys.stdout.flush()
    # Daemon reader and accept threads still hold sockets; the process
    # owns nothing that needs an orderly teardown.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
