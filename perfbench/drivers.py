"""Load generators, one per workload, with their correctness checks.

Each driver takes the server's READY addresses, the seed, the window
length, the warm-up length and an optional :class:`~tracer.Tracer`, runs
a warm-up phase and then the measured window, checks the answers, and
returns the raw result ``run.py`` reports from.  Latencies are
``perf_counter_ns`` intervals.  Closed loops time each operation from its
start; the open loop times it from the moment it was due.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import gc
import math
import random
import statistics
import threading
import time
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.generic_client import GenericClient
from repro.errors import CosmError
from repro.net.endpoints import Address
from repro.rpc.aio import AsyncBatchingClient, AsyncTcpTransport
from repro.rpc.client import RpcClient
from repro.rpc.transport import TcpTransport
from repro.trader.offers import ServiceOffer
from repro.trader.trader import TRADER_PROGRAM, LocalTrader, TraderClient

import workloads
from server import (
    CONTROL_PROGRAM,
    PROC_CHECK,
    PROC_WINDOW_BEGIN,
    PROC_WINDOW_END,
)

IMPORT_READ_THREADS = 2
#: One caller: ``CarRentalImpl`` keeps its selection per service, not per
#: session, so two concurrent journeys on one service can fail BookCar
#: (see README "Known defects").  Such failures depend on thread timing,
#: so their count differs from run to run; the window keeps one caller
#: and :func:`_shared_selection_probe` shows the defect deterministically.
CASCADE_THREADS = 1
#: Answers of the ``import_read`` window re-derived by the oracle.
ORACLE_SAMPLE = 400

#: ``lease_churn`` offered load, ops/s, and its mix.  A third of the
#: highest rate measured on a shared 2-core host (1500 ops/s: the server
#: used 0.72 of a core and the generator ran 17 ms late at p99, near the
#: validity limit).  At 750 ops/s, CPU stolen by other tenants tipped
#: whole runs into queueing and the spread of the median latency over
#: ten runs reached 0.55.
CHURN_RATE = 500.0
CHURN_MIX = (("export", 0.12), ("withdraw", 0.12), ("modify", 0.16), ("import", 0.10))
CHURN_RENEW_SHARE = 0.5
#: The open loop is invalid when its p99 lateness exceeds this …
MAX_LATE_P99_MS = 20.0
#: … or when more than this many seconds of offered load was still
#: outstanding at the end of the window (a queue that kept growing).
MAX_BACKLOG_SECONDS = 0.5

_PROC_EXPORT, _PROC_WITHDRAW, _PROC_MODIFY, _PROC_IMPORT, _PROC_RENEW = 1, 2, 3, 4, 11


class BenchError(Exception):
    """The run could not be measured (as opposed to a wrong answer)."""


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def timing(name: str, samples_ns: List[int]) -> Dict[str, Any]:
    """Median and p99 of a latency sample, in ms, with its sample count."""
    values = sorted(sample / 1e6 for sample in samples_ns)
    if not values:
        raise BenchError(f"no {name} samples in the window")
    count = len(values)
    return {
        "p50": percentile(values, 0.50),
        "p99": percentile(values, 0.99),
        "count": count,
        "beyond_p99": count - math.ceil(0.99 * count),
        "mean": sum(values) / count,
    }


def sustained_rate(ends: List[float], start: float, seconds: float) -> float:
    """Median over the window's whole seconds of the completion rate.

    ``ends`` are the completion times (s) of the successful operations.
    Second ``k`` runs from the first completion at or after ``start + k``
    to the first at or after ``start + k + 1``, so each rate is a count
    over a measured span.  A median, unlike ops ÷ window, is not moved by
    a few seconds in which the shared host stole the CPU.
    """
    ends = sorted(ends)
    marks = [bisect.bisect_left(ends, start + k) for k in range(int(seconds) + 1)]
    rates = [
        (upper - lower) / (ends[upper] - ends[lower])
        for lower, upper in zip(marks, marks[1:])
        if upper < len(ends) and ends[upper] > ends[lower]
    ]
    if not rates:
        raise BenchError("no completions to rate in the window")
    return statistics.median(rates)


def _address(pair: List[Any]) -> Address:
    return Address(pair[0], int(pair[1]))


class Control:
    """The generator's side channel: control program and STATS probes.

    Every call opens a fresh connection.  A ``TcpTransport`` connection
    stops reading after 5 s without traffic (its connect timeout stays on
    the socket), and an asyncio server answers on the connection the call
    came in on, so a reused idle connection would lose the reply.
    """

    def __init__(self, address: Address) -> None:
        self.address = address

    def call(self, proc: int) -> Any:
        return self._ask(
            f"control call {proc}",
            lambda client: client.call(self.address, CONTROL_PROGRAM, 1, proc),
        )

    def stats(self) -> Dict[str, Any]:
        return self._ask("STATS probe", lambda client: client.stats(self.address))

    @staticmethod
    def _ask(what: str, ask: Callable[[RpcClient], Any]) -> Any:
        client = RpcClient(TcpTransport(), timeout=60.0, retries=0)
        try:
            return ask(client)
        except CosmError as exc:
            raise BenchError(f"{what} failed: {exc}") from exc
        finally:
            client.transport.close()


class Window:
    """Bracket one measured window on both sides, with every probe."""

    def __init__(self, control: Control, tracer) -> None:
        self.control = control
        self.tracer = tracer

    def __enter__(self) -> "Window":
        self.stats_before = self.control.stats()
        self.control.call(PROC_WINDOW_BEGIN)
        if self.tracer is not None:
            self.tracer.reset()
        self.cpu_start = time.process_time()
        self.started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s = perf_counter() - self.started
        self.cpu_s = time.process_time() - self.cpu_start
        self.client_trace = self.tracer.table() if self.tracer is not None else None
        self.server = self.control.call(PROC_WINDOW_END)
        self.stats_after = self.control.stats()

    def common(self) -> Dict[str, Any]:
        return {
            "server": self.server,
            "stats": (self.stats_before, self.stats_after),
            "client_trace": self.client_trace,
            "client_cpu_s": self.cpu_s,
        }


@contextlib.contextmanager
def quiet_generator_gc():
    """Keep the generator's own cyclic GC out of the measured latencies.

    The generator holds its model and every record of the phase; a gen-2
    collection of that heap would stall it and show up as server latency
    (the open loop times from due time).  The server's GC stays on: it is
    part of the system under test and is reported by the server probe.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def _timed(tracer, name: str, fn: Callable) -> Callable:
    return fn if tracer is None else tracer.span(name, fn)


def _closed_phase(steps: List[Callable[[], Any]], seconds: float) -> Tuple[List[Any], List[int]]:
    """Run every step function in its own thread until ``seconds`` pass.

    Returns the records and the generator gaps between one operation's
    end and the next one's start.
    """
    records: List[Any] = []
    gaps: List[int] = []
    lock = threading.Lock()
    stop_at = perf_counter() + seconds

    def loop(step: Callable[[], Any]) -> None:
        mine, my_gaps = [], []
        last_end = None
        while perf_counter() < stop_at:
            record = step()
            if last_end is not None:
                my_gaps.append(record["start"] - last_end)
            last_end = record["end"]
            mine.append(record)
        with lock:
            records.extend(mine)
            gaps.extend(my_gaps)

    threads = [threading.Thread(target=loop, args=(step,)) for step in steps]
    with quiet_generator_gc():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return records, gaps


def _closed_loadgen(gaps: List[int], window: Window) -> Dict[str, Any]:
    gaps = sorted(gaps) or [0]
    return {
        "late_p99_ms": gaps[min(len(gaps) - 1, int(0.99 * len(gaps)))] / 1e6,
        "cpu_share": window.cpu_s / window.wall_s,
        "backlog": 0,
    }


def _summary(records: List[Dict[str, Any]], window: Window) -> Dict[str, Any]:
    ends = [record["end"] / 1e9 for record in records if record["ok"]]
    return {
        "attempted": len(records),
        "failed": len(records) - len(ends),
        "window_s": window.wall_s,
        "throughput_ops_s": sustained_rate(ends, window.started, window.wall_s),
    }


# -- import_read ------------------------------------------------------------


def import_read(addresses, seed: int, seconds: float, warmup: float, tracer) -> Dict[str, Any]:
    trader_address = _address(addresses["trader"])
    control = Control(trader_address)
    clients = []

    def make_step(index: int) -> Callable[[], Dict[str, Any]]:
        client = RpcClient(TcpTransport())
        clients.append(client)
        trader = TraderClient(client, trader_address)
        rng = random.Random(f"import_read:{seed}:{index}")

        def op(request):
            return trader.import_(request)

        op = _timed(tracer, "loadgen.op", op)

        def step() -> Dict[str, Any]:
            kind, request = workloads.import_query(rng)
            start = perf_counter_ns()
            try:
                offers, ok = op(request), True
            except CosmError as exc:
                offers, ok = repr(exc), False
            end = perf_counter_ns()
            return {"kind": kind, "request": request, "answer": offers, "ok": ok,
                    "start": start, "end": end, "latency": end - start}

        return step

    steps = [make_step(index) for index in range(IMPORT_READ_THREADS)]
    _closed_phase(steps, warmup)
    with Window(control, tracer) as window:
        records, gaps = _closed_phase(steps, seconds)
    check = control.call(PROC_CHECK)
    checks, correct = _check_import_read(records, seed, check)
    for client in clients:
        client.transport.close()
    import_latencies = [record["latency"] for record in records if record["ok"]]
    result = {
        "loop": f"closed, {IMPORT_READ_THREADS} sync callers",
        **_summary(records, window),
        **window.common(),
        "timings": {
            "op": timing("op", import_latencies),
            "import": timing("import", import_latencies),
        },
        "loadgen": _closed_loadgen(gaps, window),
        "checks": checks,
        "correct": correct,
        "valid": True,
        "replica_lag": check["replica_lag"],
    }
    for kind in ("eq_range", "ordered", "top50"):
        result["timings"][kind] = timing(
            kind, [r["latency"] for r in records if r["ok"] and r["kind"] == kind]
        )
    return result


def _oracle(seed: int) -> LocalTrader:
    """A single in-process trader holding the same preload."""
    oracle = LocalTrader("oracle", offer_prefix=workloads.ROUTER_ID)
    for name in workloads.TYPE_NAMES:
        oracle.add_type(workloads.service_type(name))
    for service_type, ref, properties in workloads.preload(seed, workloads.IMPORT_READ_OFFERS):
        oracle.export(service_type, ref, properties)
    return oracle


def _check_import_read(records, seed: int, check: Dict[str, Any]) -> Tuple[List[str], bool]:
    answered = [record for record in records if record["ok"]]
    sample = random.Random(f"oracle:{seed}").sample(answered, min(ORACLE_SAMPLE, len(answered)))
    oracle = _oracle(seed)
    wrong = 0
    for record in sample:
        expected = [(o.offer_id, o.properties) for o in oracle.import_(record["request"])]
        got = [(o.offer_id, o.properties) for o in record["answer"]]
        wrong += expected != got
    replicas_ok = check["replica_lag"] == 0 and check["replica_mismatches"] == 0
    checks = [
        f"oracle replay: {len(sample) - wrong}/{len(sample)} sampled answers match "
        f"the in-process trader (ids, order, properties)",
        f"replicas: lag {check['replica_lag']}, mismatched offers {check['replica_mismatches']}",
    ]
    return checks, wrong == 0 and bool(sample) and replicas_ok


# -- lease_churn ------------------------------------------------------------


class ChurnModel:
    """The generator's view of the live offers, host cohorts and in-flight ids."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"lease_churn:{seed}")
        self.live: Dict[str, Dict[str, Any]] = {}
        self._ids: List[str] = []
        self._slot: Dict[str, int] = {}
        self.hosts: List[set] = [set() for _ in range(workloads.CHURN_HOSTS)]
        self.host_of: Dict[str, int] = {}
        self.busy: set = set()
        minted: Dict[str, int] = {}
        preload = workloads.preload(seed, workloads.LEASE_CHURN_OFFERS)
        for index, (service_type, _ref, properties) in enumerate(preload):
            minted[service_type] = minted.get(service_type, 0) + 1
            offer_id = f"{workloads.ROUTER_ID}:{service_type}:{minted[service_type]}"
            self.add(offer_id, properties, index % workloads.CHURN_HOSTS)
        self.next_ref = len(preload)

    def add(self, offer_id: str, properties: Dict[str, Any], host: int) -> None:
        self.live[offer_id] = properties
        self._slot[offer_id] = len(self._ids)
        self._ids.append(offer_id)
        self.hosts[host].add(offer_id)
        self.host_of[offer_id] = host

    def remove(self, offer_id: str) -> None:
        del self.live[offer_id]
        slot = self._slot.pop(offer_id)
        last = self._ids.pop()
        if last != offer_id:
            self._ids[slot] = last
            self._slot[last] = slot
        self.hosts[self.host_of.pop(offer_id)].discard(offer_id)

    def pick_idle(self) -> Optional[str]:
        for _ in range(16):
            offer_id = self.rng.choice(self._ids)
            if offer_id not in self.busy:
                return offer_id
        return None


def churn_schedule(rng: random.Random, seconds: float) -> List[Tuple[float, str, int]]:
    """``(offset, kind, host)`` events of one phase, sorted by offset.

    RENEWs fire per host cohort on a fixed heartbeat cadence; the other
    operations arrive as a Poisson stream at the rest of the rate.
    """
    events: List[Tuple[float, str, int]] = []
    per_host = workloads.LEASE_CHURN_OFFERS / workloads.CHURN_HOSTS
    cohort_interval = per_host / (CHURN_RATE * CHURN_RENEW_SHARE)
    host = rng.randrange(workloads.CHURN_HOSTS)
    due = rng.random() * cohort_interval
    while due < seconds:
        events.append((due, "renew", host))
        host = (host + 1) % workloads.CHURN_HOSTS
        due += cohort_interval
    single_rate = CHURN_RATE * (1.0 - CHURN_RENEW_SHARE)
    kinds = [kind for kind, _ in CHURN_MIX]
    weights = [share for _, share in CHURN_MIX]
    due = rng.expovariate(single_rate)
    while due < seconds:
        events.append((due, rng.choices(kinds, weights)[0], rng.randrange(workloads.CHURN_HOSTS)))
        due += rng.expovariate(single_rate)
    events.sort()
    return events


def lease_churn(addresses, seed: int, seconds: float, warmup: float, tracer) -> Dict[str, Any]:
    return asyncio.run(_lease_churn(addresses, seed, seconds, warmup, tracer))


async def _lease_churn(
    addresses, seed: int, seconds: float, warmup: float, tracer
) -> Dict[str, Any]:
    trader_address = _address(addresses["trader"])
    loop = asyncio.get_running_loop()
    transport = await AsyncTcpTransport.create(listen=False)
    client = AsyncBatchingClient(transport, timeout=2.0, retries=2)
    model = ChurnModel(seed)
    control = Control(trader_address)
    imports_seen: List[Tuple[int, List[ServiceOffer]]] = []
    errors: List[str] = []

    async def call(proc: int, args: Dict[str, Any]) -> Any:
        return await client.call(trader_address, TRADER_PROGRAM, 1, proc, args)

    async def renew(offer_id: str) -> None:
        await call(_PROC_RENEW, {"offer_id": offer_id})

    async def export(host: int) -> None:
        service_type = model.rng.choice(workloads.TYPE_NAMES)
        properties = workloads.draw_properties(model.rng)
        ref = workloads.offer_ref(model.next_ref)
        model.next_ref += 1
        offer_id = await call(_PROC_EXPORT, {
            "service_type": service_type, "ref": ref, "properties": properties,
            "lifetime": None, "lease_seconds": workloads.LEASE_SECONDS,
        })
        model.add(offer_id, properties, host)

    async def withdraw(offer_id: str) -> None:
        await call(_PROC_WITHDRAW, {"offer_id": offer_id})

    async def modify(offer_id: str, properties: Dict[str, Any]) -> None:
        await call(_PROC_MODIFY, {"offer_id": offer_id, "properties": properties})
        model.live[offer_id] = properties

    async def import_(index: int) -> None:
        request = workloads.CHURN_IMPORTS[index]
        wires = await call(_PROC_IMPORT, request.to_wire())
        imports_seen.append((index, [ServiceOffer.from_wire(wire) for wire in wires]))

    ops = {"renew": renew, "export": export, "withdraw": withdraw,
           "modify": modify, "import": import_}
    if tracer is not None:
        ops = {name: tracer.span("loadgen.op", fn, kind="async") for name, fn in ops.items()}

    async def run_op(kind: str, coro, due: float, held: Optional[str], records: list) -> None:
        try:
            await coro
            ok = True
        except CosmError as exc:
            ok = False
            errors.append(f"{kind}: {exc!r}")
        finally:
            if held is not None:
                model.busy.discard(held)
        end = loop.time()
        records.append({"kind": kind, "ok": ok, "end": end, "latency": int((end - due) * 1e9)})

    def launch(kind: str, host: int, due: float, records: list, tasks: set) -> None:
        held = None
        if kind == "renew":
            for offer_id in [oid for oid in model.hosts[host] if oid not in model.busy]:
                model.busy.add(offer_id)
                _spawn(run_op("renew", ops["renew"](offer_id), due, offer_id, records), tasks)
            return
        if kind == "export":
            coro = ops["export"](host)
        elif kind == "import":
            coro = ops["import"](model.rng.randrange(len(workloads.CHURN_IMPORTS)))
        else:
            held = model.pick_idle()
            if held is None:
                return
            model.busy.add(held)
            if kind == "withdraw":
                model.remove(held)
                coro = ops["withdraw"](held)
            else:
                coro = ops["modify"](held, workloads.draw_properties(model.rng))
        _spawn(run_op(kind, coro, due, held, records), tasks)

    def _spawn(coro, tasks: set) -> None:
        task = loop.create_task(coro)
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    async def phase(length: float) -> Tuple[list, List[float], int, float]:
        records: list = []
        lates: List[float] = []
        tasks: set = set()
        schedule = churn_schedule(model.rng, length)
        start = loop.time()
        for offset, kind, host in schedule:
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lates.append(loop.time() - due)
            launch(kind, host, due, records, tasks)
        end = start + length
        if loop.time() < end:
            await asyncio.sleep(end - loop.time())
        backlog = len(tasks)
        while tasks:
            await asyncio.gather(*list(tasks), return_exceptions=True)
        return records, lates, backlog, start

    with quiet_generator_gc():
        await phase(warmup)
    window = Window(control, tracer)
    await loop.run_in_executor(None, window.__enter__)
    with quiet_generator_gc():
        records, lates, backlog, window_start = await phase(seconds)
    await loop.run_in_executor(None, window.__exit__, None, None, None)
    check = await loop.run_in_executor(None, control.call, PROC_CHECK)
    transport.close()
    checks, correct = _check_churn(model, check, imports_seen, errors)
    lates_sorted = sorted(lates) or [0.0]
    late_p99_ms = lates_sorted[min(len(lates_sorted) - 1, int(0.99 * len(lates_sorted)))] * 1e3
    succeeded = [record for record in records if record["ok"]]
    writes = [r for r in succeeded if r["kind"] in ("export", "modify", "withdraw")]
    valid = late_p99_ms <= MAX_LATE_P99_MS and backlog <= MAX_BACKLOG_SECONDS * CHURN_RATE
    result = {
        "loop": f"open, {CHURN_RATE:.0f} ops/s offered, one async batching client",
        "attempted": len(records),
        "failed": len(records) - len(succeeded),
        "window_s": seconds,
        "throughput_ops_s": sustained_rate(
            [record["end"] for record in succeeded], window_start, seconds
        ),
        **window.common(),
        "timings": {
            "op": timing("op", [r["latency"] for r in succeeded]),
            "import": timing("import", [r["latency"] for r in succeeded if r["kind"] == "import"]),
            "write": timing("write", [r["latency"] for r in writes]),
            "renew": timing("renew", [r["latency"] for r in succeeded if r["kind"] == "renew"]),
        },
        "loadgen": {
            "late_p99_ms": late_p99_ms,
            "cpu_share": window.cpu_s / window.wall_s,
            "backlog": backlog,
        },
        "checks": checks,
        "correct": correct,
        "valid": valid,
        "replica_lag": check["replica_lag"],
    }
    return result


def _check_churn(model: ChurnModel, check, imports_seen, errors) -> Tuple[List[str], bool]:
    served = {offer_id: properties for offer_id, properties in check["offers"]}
    missing = [oid for oid in model.live if oid not in served]
    extra = [oid for oid in served if oid not in model.live]
    changed = [oid for oid, props in model.live.items() if oid in served and served[oid] != props]
    bad_imports = 0
    for index, offers in imports_seen:
        request = workloads.CHURN_IMPORTS[index]
        city = request.constraint.split("'")[1]
        charges = [offer.properties["ChargePerDay"] for offer in offers]
        bad_imports += not (
            len(offers) == request.max_matches
            and all(o.properties["City"] == city and o.properties["Rating"] >= 3 for o in offers)
            and charges == sorted(charges)
        )
    replicas_ok = check["replica_lag"] == 0 and check["replica_mismatches"] == 0
    checks = [
        f"reconcile: {len(model.live)} live offers in the model, {len(served)} at the trader; "
        f"missing {len(missing)}, extra {len(extra)}, properties differ {len(changed)}",
        f"replicas: lag {check['replica_lag']}, mismatched offers {check['replica_mismatches']}",
        f"imports: {len(imports_seen) - bad_imports}/{len(imports_seen)} answers are full, "
        f"satisfy their constraint and are in preference order",
    ]
    if errors:
        checks.append(f"failed operations: {len(errors)}, first: {errors[0]}")
    correct = not (missing or extra or changed or bad_imports) and replicas_ok
    return checks, correct


# -- mediated_cascade -------------------------------------------------------


def mediated_cascade(addresses, seed: int, seconds: float, warmup: float, tracer) -> Dict[str, Any]:
    hub = _address(addresses["trader"])
    control = Control(hub)
    clients = []
    generics: List[GenericClient] = []

    def make_step(index: int) -> Callable[[], Dict[str, Any]]:
        client = RpcClient(TcpTransport())
        clients.append(client)
        trader = TraderClient(client, hub)
        generic = GenericClient(client)
        generics.append(generic)
        rng = random.Random(f"mediated_cascade:{seed}:{index}")

        def journey(request, selection, record) -> None:
            started = perf_counter_ns()
            offers = trader.import_(request)
            record["import"] = perf_counter_ns() - started
            record["picked"] = offers[0].ref["name"] if offers else None
            if not offers:
                raise LookupError("no offer matched")
            bound = perf_counter_ns()
            binding = generic.bind(offers[0].service_ref())
            record["bind"] = perf_counter_ns() - bound
            try:
                binding.invoke("SelectCar", {"selection": selection})
                booked = binding.invoke("BookCar", {})
                record["confirmation"] = booked.value.get("confirmation")
            finally:
                binding.unbind()

        journey = _timed(tracer, "loadgen.op", journey)

        def step() -> Dict[str, Any]:
            request, selection, expected = workloads.cascade_query(rng)
            record: Dict[str, Any] = {"expected": expected}
            record["start"] = perf_counter_ns()
            try:
                journey(request, selection, record)
                record["ok"] = True
            except (CosmError, LookupError) as exc:
                record["ok"] = False
                record["error"] = repr(exc)
            record["end"] = perf_counter_ns()
            record["latency"] = record["end"] - record["start"]
            return record

        return step

    steps = [make_step(index) for index in range(CASCADE_THREADS)]
    warm_records, _ = _closed_phase(steps, warmup)
    with Window(control, tracer) as window:
        records, gaps = _closed_phase(steps, seconds)
    check = control.call(PROC_CHECK)
    probe = _shared_selection_probe(clients[0], hub)
    for client in clients:
        client.transport.close()
    all_records = warm_records + records
    succeeded = [r for r in all_records if r["ok"]]
    confirmed = [r for r in succeeded if isinstance(r.get("confirmation"), int)]
    misrouted = [
        r for r in all_records if r.get("picked") is not None and r["picked"] != r["expected"]
    ]
    failures = [r for r in records if not r["ok"]]
    checks = [
        f"bookings: {check['bookings']} at the services, {len(succeeded)} successful journeys, "
        f"{len(confirmed)} carry a confirmation",
        f"imports: {len(all_records) - len(misrouted)}/{len(all_records)} chose the cheapest "
        f"matching service",
        f"fsm rejections: server {check['fsm_rejections']}, "
        f"client {sum(g.local_rejections for g in generics)}",
        f"shared-selection defect (two interleaved sessions, after the check): {probe}",
    ]
    if failures:
        checks.append(
            f"failed journeys in the window: {len(failures)}, first: {failures[0]['error']}"
        )
    correct = (
        check["bookings"] == len(succeeded) == len(confirmed) and not misrouted
    )
    ok_records = [r for r in records if r["ok"]]
    return {
        "loop": f"closed, {CASCADE_THREADS} sync callers, one journey per operation",
        **_summary(records, window),
        **window.common(),
        "timings": {
            "op": timing("op", [r["latency"] for r in ok_records]),
            "import": timing("import", [r["import"] for r in records if "import" in r]),
            "journey": timing("journey", [r["latency"] for r in ok_records]),
            "bind": timing("bind", [r["bind"] for r in records if "bind" in r]),
        },
        "fsm_rejections": check["fsm_rejections"] + sum(g.local_rejections for g in generics),
        "loadgen": _closed_loadgen(gaps, window),
        "checks": checks,
        "correct": correct,
        "valid": True,
        "replica_lag": 0,
    }


def _shared_selection_probe(client: RpcClient, hub: Address) -> str:
    """Interleave two sessions on one car-rental service, in a fixed order.

    Session A selects, B selects, A books, B books.  Each session's FSM
    allows every one of these calls; B's BookCar still fails while the
    service keeps one selection for all its sessions.
    """
    request, selection, _ = workloads.cascade_query(random.Random("probe"))
    ref = TraderClient(client, hub).import_(request)[0].service_ref()
    generic = GenericClient(client)
    first, second = generic.bind(ref), generic.bind(ref)
    try:
        try:
            first.invoke("SelectCar", {"selection": selection})
            second.invoke("SelectCar", {"selection": selection})
            first.invoke("BookCar", {})
        except CosmError as exc:
            return f"inconclusive, the first session failed: {exc!r}"
        try:
            second.invoke("BookCar", {})
        except CosmError as exc:
            return f"reproduced, the second session's BookCar failed: {exc!r}"
        return "not reproduced, both sessions booked"
    finally:
        first.unbind()
        second.unbind()


DRIVERS = {
    "import_read": import_read,
    "lease_churn": lease_churn,
    "mediated_cascade": mediated_cascade,
}
