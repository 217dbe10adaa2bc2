"""The trader benchmark: one workload, over real loopback TCP, checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload import_read --seed 1 --seconds 20 --trace 0

The load generator (this process) launches the trader deployment in its
own server process (``server.py``), drives it for ``--seconds`` after a
short warm-up, checks every answer it can, and prints each end-to-end
metric with its unit and sample count.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` the run measures the same
workload twice, untraced and then with the layer wrappers of
``layers.py`` installed in both processes, and the metrics are the
per-layer table.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_DIR = ROOT / "src"

#: ``setup_s`` is the median of several server launches per run: at
#: least three, and set-up-only launches continue until they have taken
#: this long, so a deployment that starts in a fraction of a second is
#: timed often enough for its median to hold still.
SETUP_MIN_SECONDS = 4.0
SETUP_MAX_LAUNCHES = 15
WARMUP_SECONDS = 1.5


# -- server processes ---------------------------------------------------------


class ServerProcess:
    """One launch of ``server.py``; ``setup_s`` is launch until READY."""

    def __init__(self, workload: str, seed: int, trace: bool, setup_only: bool) -> None:
        command = [
            sys.executable, str(BENCH_DIR / "server.py"),
            "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
        ]
        if setup_only:
            command.append("--setup-only")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SOURCE_DIR), str(BENCH_DIR)])
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if not line.startswith("READY "):
            from drivers import BenchError

            self.stop()
            raise BenchError(f"server for {workload} did not start: {line!r}")
        self.addresses = json.loads(line[len("READY "):])

    def stop(self) -> None:
        """Close stdin (the server exits on EOF) and wait for the exit."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure_setup(workload: str, seed: int) -> List[float]:
    """Set-up-only launches (the serving launch adds one more time)."""
    times: List[float] = []
    while len(times) < 2 or (sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_LAUNCHES):
        server = ServerProcess(workload, seed, trace=False, setup_only=True)
        server.stop()
        times.append(server.setup_s)
    return times


# -- the run -------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import drivers

    driver = drivers.DRIVERS[workload]
    if not trace:
        setups = measure_setup(workload, seed)
        result = measured_window(driver, workload, seed, seconds, traced=False)
        setups.append(result["setup_s"])
        result["setup_runs"] = setups
        result["setup_s"] = statistics.median(setups)
        return result
    reference = measured_window(driver, workload, seed, seconds, traced=False)
    traced = measured_window(driver, workload, seed, seconds, traced=True)
    traced["reference"] = reference
    return traced


def measured_window(
    driver, workload: str, seed: int, seconds: float, traced: bool
) -> Dict[str, Any]:
    """Launch the serving process, warm up, measure, check, shut down."""
    tracer = None
    if traced:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    server = ServerProcess(workload, seed, trace=traced, setup_only=False)
    try:
        result = driver(server.addresses, seed, seconds, WARMUP_SECONDS, tracer)
        result["setup_s"] = server.setup_s
        if tracer is not None:
            tracer.unpatch()
        return result
    finally:
        server.stop()


# -- reporting -----------------------------------------------------------------


def end_to_end(result: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The ``BENCHMARK.json`` end-to-end metrics of one untraced run."""
    ops, imports = result["timings"]["op"], result["timings"]["import"]
    return {
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "throughput_ops_s": {"value": result["throughput_ops_s"], "unit": "ops/s"},
        "op_p50_ms": {"value": ops["p50"], "unit": "ms"},
        "import_p50_ms": {"value": imports["p50"], "unit": "ms"},
        "server_rss_mb": {"value": result["server"]["rss_mb"], "unit": "MiB"},
    }


def print_report(workload: str, result: Dict[str, Any], trace: bool) -> None:
    out = sys.stdout
    out.write(f"workload {workload}: {result['loop']}\n")
    if not trace:
        runs = ", ".join(f"{value:.3f}" for value in result["setup_runs"])
        out.write(f"  setup_s              {result['setup_s']:.4f} s   (median of {runs})\n")
    out.write(
        f"  throughput_ops_s     {result['throughput_ops_s']:.2f} ops/s   "
        f"(n={result['attempted']} in {result['window_s']:.2f} s)\n"
    )
    out.write(
        f"  error_rate           {result['failed'] / result['attempted']:.5f} fraction   "
        f"(failed={result['failed']} attempted={result['attempted']})\n"
    )
    out.write(f"  server_rss_mb        {result['server']['rss_mb']:.1f} MiB   (peak)\n")
    out.write(
        f"  server cpu           {result['server']['cpu_s'] / result['window_s']:.3f} "
        f"of one core over the window\n"
    )
    for name, stats in result["timings"].items():
        out.write(
            f"  {name + '_p50_ms':<20} {stats['p50']:.3f} ms   "
            f"{name + '_p99_ms':<16} {stats['p99']:.3f} ms   "
            f"(n={stats['count']}, {stats['beyond_p99']} beyond p99)\n"
        )
    gc_reading = result["server"]["gc"]
    out.write(
        f"  server gc            gen2={gc_reading['collections'][2]} "
        f"pause_total={gc_reading['pause_ms_total']:.1f} ms "
        f"pause_max={gc_reading['pause_ms_max']:.1f} ms\n"
    )
    loadgen = result["loadgen"]
    out.write(
        f"  loadgen              late_p99={loadgen['late_p99_ms']:.3f} ms "
        f"cpu_share={loadgen['cpu_share']:.3f} backlog={loadgen['backlog']}\n"
    )
    for line in result["checks"]:
        out.write(f"  check                {line}\n")
    if trace:
        import report

        report.print_layers(out, result)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Trader benchmark over loopback TCP.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE_DIR / "repro").is_dir():
        print(f"error: no trader sources at {SOURCE_DIR}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE_DIR), str(BENCH_DIR)]
    import drivers

    if args.workload not in drivers.DRIVERS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except drivers.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print_report(args.workload, result, bool(args.trace))
    if not result["valid"]:
        print("error: the generator fell behind; this run is invalid", file=sys.stderr)
        return 3
    if args.trace:
        import report

        metrics = report.per_layer(result)
    else:
        metrics = end_to_end(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
