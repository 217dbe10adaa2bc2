"""Per-layer metrics of a traced run.

The span tables of both processes are merged (:func:`tracer.merge_tables`)
and every time is divided by the operations of the measured window, so a
layer's ``self_us`` is microseconds of that layer's own work per
workload operation (per journey on ``mediated_cascade``).  Counters come
from the wrappers, from the server's STATS snapshot (differenced over the
window) and from the server launcher's probes.
"""

from __future__ import annotations

from typing import Any, Dict, TextIO

from tracer import LAYERS, layer_of, merge_tables

#: Per-layer metric -> unit, in report order (BENCHMARK.json lists the same).
UNITS: Dict[str, str] = {}
for _layer in LAYERS:
    UNITS[f"{_layer}.spans"] = "count"
    UNITS[f"{_layer}.self_us"] = "us"
    UNITS[f"{_layer}.wait_us"] = "us"
UNITS.update({
    "rpc.client.calls": "count",
    "rpc.client.encode_us": "us",
    "rpc.client.decode_us": "us",
    "rpc.codec.server_decode_us": "us",
    "rpc.codec.server_encode_us": "us",
    "rpc.codec.reply_bytes": "bytes",
    "rpc.codec.compiled_share": "fraction",
    "rpc.message.encode_us": "us",
    "rpc.message.decode_us": "us",
    "rpc.message.calls_per_write": "count",
    "rpc.transport.writes_per_op": "count",
    "rpc.transport.send_us": "us",
    "rpc.transport.bytes_per_op": "bytes",
    "rpc.server.handle_us": "us",
    "rpc.server.admission_self_us": "us",
    "rpc.server.queue_depth_max": "count",
    "rpc.server.shed": "count",
    "rpc.server.calls_handled": "count",
    "trader.import_us": "us",
    "trader.export_us": "us",
    "trader.renew_us": "us",
    "trader.modify_us": "us",
    "trader.withdraw_us": "us",
    "trader.offers_per_import": "count",
    "trader.offers.candidates_us": "us",
    "trader.offers.examined_per_returned": "count",
    "trader.offers.index_hits": "count",
    "trader.offers.fallback_scans": "count",
    "trader.offers.range_hits": "count",
    "trader.offers.ordered_scans": "count",
    "trader.constraints.parse_hit_ratio": "fraction",
    "trader.sharding.router_self_us": "us",
    "trader.sharding.shard_calls_per_op": "count",
    "trader.sharding.deltas_per_write": "count",
    "trader.sharding.append_us": "us",
    "trader.sharding.replica_apply_us": "us",
    "trader.sharding.replica_lag_end": "count",
    "trader.federation.fanout_us": "us",
    "trader.federation.link_us": "us",
    "trader.federation.links_per_import": "count",
    "trader.federation.link_ok_share": "fraction",
    "core.bind_us": "us",
    "core.sid_decode_us": "us",
    "core.invoke_us": "us",
    "core.fsm_rejections": "count",
    "runtime.gc.gen2_collections": "count",
    "runtime.gc.pause_ms_total": "ms",
    "runtime.gc.pause_ms_max": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.cpu_share": "fraction",
    "trace.overhead_share": "fraction",
    "trace.request_us": "us",
    "trace.accounted_us": "us",
    "trace.residual_us": "us",
})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter(snapshot: Dict[str, Any], name: str, label_suffix: str = "") -> float:
    """Sum of a METRICS counter over its labels (optionally one label tail)."""
    total = 0.0
    for key, value in snapshot["metrics"]["counters"].items():
        series, _, labels = key.partition("[")
        if series == name and labels.rstrip("]").endswith(label_suffix):
            total += value
    return total


def _delta(result: Dict[str, Any], fn) -> float:
    before, after = result["stats"]
    return fn(after) - fn(before)


def per_layer(result: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of a traced run, as ``{name: {value, unit}}``."""
    table = merge_tables(result["client_trace"], result["server"]["trace"])
    spans, counts, maxima = table["spans"], table["counts"], table["maxima"]
    ops = result["attempted"]

    def row(name: str):
        return spans.get(name, [0, 0, 0, 0])

    def us(ns: float) -> float:
        return _ratio(ns / 1e3, ops)

    def total(*names: str) -> float:
        return us(sum(row(name)[1] for name in names))

    def own(prefix: str) -> float:
        return us(sum(r[2] for name, r in spans.items() if name.startswith(prefix)))

    values: Dict[str, float] = {}
    for layer in LAYERS:
        rows = [r for name, r in spans.items() if layer_of(name) == layer]
        values[f"{layer}.spans"] = _ratio(sum(r[0] for r in rows), ops)
        values[f"{layer}.self_us"] = us(sum(r[2] for r in rows))
        values[f"{layer}.wait_us"] = us(sum(r[3] for r in rows))
    hits = _delta(result, lambda s: s["codec"]["compiled_hits"])
    fallbacks = _delta(result, lambda s: s["codec"]["fallbacks"])
    parse = result["server"]["parse_cache"]
    link_ok = _delta(result, lambda s: _counter(s, "federation.link", "|ok"))
    link_all = _delta(result, lambda s: _counter(s, "federation.link"))
    writes = sum(
        row(f"trader.sharding.router.{op}")[0] for op in ("export", "renew", "modify", "withdraw")
    )
    returned = counts.get("trader.offers.returned", 0)
    gc_reading = result["server"]["gc"]
    values.update({
        "rpc.client.calls": _ratio(row("rpc.client.call")[0], ops),
        "rpc.client.encode_us": total("rpc.client.encode_args"),
        "rpc.client.decode_us": total("rpc.client.decode_result", "rpc.client.from_wire"),
        "rpc.codec.server_decode_us": total("rpc.codec.decode_args"),
        "rpc.codec.server_encode_us": total("rpc.codec.encode_result"),
        "rpc.codec.reply_bytes": _ratio(counts.get("rpc.codec.reply_bytes", 0), ops),
        "rpc.codec.compiled_share": _ratio(hits, hits + fallbacks),
        "rpc.message.encode_us": total("rpc.message.encode_call", "rpc.message.encode_reply"),
        "rpc.message.decode_us": total("rpc.message.decode"),
        "rpc.message.calls_per_write": _ratio(
            counts.get("rpc.message.messages", 0), row("rpc.message.decode")[0]
        ),
        "rpc.transport.writes_per_op": _ratio(row("rpc.transport.send")[0], ops),
        "rpc.transport.send_us": total("rpc.transport.send"),
        "rpc.transport.bytes_per_op": _ratio(counts.get("rpc.transport.bytes", 0), ops),
        "rpc.server.handle_us": total("rpc.server.handle"),
        "rpc.server.admission_self_us": us(row("rpc.server.handle")[2]),
        "rpc.server.queue_depth_max": maxima.get("rpc.server.queue_depth", 0),
        "rpc.server.shed": _delta(result, lambda s: s["server"]["calls_shed"]),
        "rpc.server.calls_handled": _ratio(
            _delta(result, lambda s: s["server"]["calls_handled"]), ops
        ),
        "trader.import_us": total("trader.trader.import"),
        "trader.export_us": total("trader.trader.export"),
        "trader.renew_us": total("trader.trader.renew"),
        "trader.modify_us": total("trader.trader.modify"),
        "trader.withdraw_us": total("trader.trader.withdraw"),
        "trader.offers_per_import": _ratio(returned, row("trader.trader.import")[0]),
        "trader.offers.candidates_us": total(
            "trader.offers.candidates", "trader.offers.ordered_by"
        ),
        "trader.offers.examined_per_returned": _ratio(
            counts.get("trader.offers.examined", 0)
            + counts.get("trader.offers.ordered_by.items", 0),
            returned,
        ),
        "trader.offers.index_hits": _ratio(
            _delta(result, lambda s: _counter(s, "offers.index_hits")), ops
        ),
        "trader.offers.fallback_scans": _ratio(
            _delta(result, lambda s: _counter(s, "offers.fallback_scans")), ops
        ),
        "trader.offers.range_hits": _ratio(
            _delta(result, lambda s: _counter(s, "offers.range_hits")), ops
        ),
        "trader.offers.ordered_scans": _ratio(
            _delta(result, lambda s: _counter(s, "trader.ordered_scans")), ops
        ),
        "trader.constraints.parse_hit_ratio": _ratio(
            parse["hits"], parse["hits"] + parse["misses"]
        ),
        "trader.sharding.router_self_us": own("trader.sharding.router.")
        + own("trader.sharding.handle"),
        "trader.sharding.shard_calls_per_op": _ratio(
            counts.get("trader.sharding.shard_calls", 0), ops
        ),
        "trader.sharding.deltas_per_write": _ratio(row("trader.sharding.append")[0], writes),
        "trader.sharding.append_us": total("trader.sharding.append"),
        "trader.sharding.replica_apply_us": total("trader.sharding.replica_apply"),
        "trader.sharding.replica_lag_end": result["replica_lag"],
        "trader.federation.fanout_us": total("trader.federation.fanout"),
        "trader.federation.link_us": total("trader.federation.link"),
        "trader.federation.links_per_import": _ratio(
            counts.get("trader.federation.links", 0), row("trader.federation.fanout")[0]
        ),
        "trader.federation.link_ok_share": _ratio(link_ok, link_all),
        "core.bind_us": total("core.bind"),
        "core.sid_decode_us": total("core.sid_decode"),
        "core.invoke_us": total("core.invoke"),
        "core.fsm_rejections": result.get("fsm_rejections", 0),
        "runtime.gc.gen2_collections": gc_reading["collections"][2],
        "runtime.gc.pause_ms_total": gc_reading["pause_ms_total"],
        "runtime.gc.pause_ms_max": gc_reading["pause_ms_max"],
        "loadgen.late_p99_ms": result["loadgen"]["late_p99_ms"],
        "loadgen.cpu_share": result["loadgen"]["cpu_share"],
        "trace.overhead_share": overhead_share(result),
    })
    request_us = result["timings"]["op"]["mean"] * 1e3
    accounted = sum(values[f"{layer}.self_us"] for layer in LAYERS)
    values["trace.request_us"] = request_us
    values["trace.accounted_us"] = accounted
    values["trace.residual_us"] = request_us - accounted
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def _cpu_per_op(result: Dict[str, Any]) -> float:
    return (result["client_cpu_s"] + result["server"]["cpu_s"]) / result["attempted"]


def overhead_share(result: Dict[str, Any]) -> float:
    """What tracing costs, from the untraced reference window of the run.

    Closed loops compare throughput; the open loop offers the same rate
    either way, so it compares CPU seconds per operation (both processes).
    """
    reference = result["reference"]
    if result["loop"].startswith("open"):
        return 1.0 - _ratio(_cpu_per_op(reference), _cpu_per_op(result))
    return 1.0 - _ratio(result["throughput_ops_s"], reference["throughput_ops_s"])


def print_layers(out: TextIO, result: Dict[str, Any]) -> None:
    metrics = per_layer(result)
    out.write("  per layer, per operation (both processes; self = own work, wait = parked):\n")
    out.write(f"    {'layer':<20}{'spans':>8}{'self_us':>12}{'wait_us':>12}\n")
    for layer in LAYERS:
        out.write(
            f"    {layer:<20}{metrics[layer + '.spans']['value']:>8.2f}"
            f"{metrics[layer + '.self_us']['value']:>12.1f}"
            f"{metrics[layer + '.wait_us']['value']:>12.1f}\n"
        )
    out.write(
        f"  blocking path: request {metrics['trace.request_us']['value']:.1f} us = "
        f"layer self times {metrics['trace.accounted_us']['value']:.1f} us + residual "
        f"{metrics['trace.residual_us']['value']:.1f} us (kernel, network, scheduling, "
        f"queueing; negative where parallel work overlaps)\n"
    )
    for name, metric in metrics.items():
        if name.rsplit(".", 1)[-1] in ("spans", "self_us", "wait_us"):
            continue
        out.write(f"    {name:<40}{metric['value']:>14.4f} {metric['unit']}\n")
