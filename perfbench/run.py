#!/usr/bin/env python3
"""Two-plane benchmark: host latency and simulated traffic, per workload.

    python3 perfbench/run.py --workload ssb-join --seed 1 --seconds 20 --trace 0

Runs one workload (``ssb-join``, ``tpch-lazy-fleet`` or ``adhoc-serve``;
see ``NOTES.md``) from the repository's ``src/`` as a closed loop, checks
every result, and prints a report whose last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, measured with no shims installed.  ``--trace 1``
reports the per-layer metrics of a traced run instead.

Results land in ``perfbench/out/full/`` (``perfbench/out/smoke/`` with
``--smoke``, which uses tiny inputs and never overwrites a full run).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: An untraced run sets up at least this many times and for at least
#: this long; ``setup_s`` is the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
#: Traced runs rotate through these modes block by block.
MODES = ("plain", "shims", "telemetry")

END_TO_END = (
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("sim_ms_per_query", "ms"),
    ("sim_global_bytes_per_query", "B"),
    ("sim_pcie_bytes_per_query", "B"),
    ("sim_kernels_per_host_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one block; writes under out/smoke/")
    return parser.parse_args(argv)


def simulated(result) -> tuple[float, int, int, int]:
    """(critical-path ms, global bytes, PCIe wire bytes, kernel launches).

    A fleet's critical path is its makespan: ``total_ms`` is the serial
    sum over devices."""
    sim_ms = result.scaleout.makespan_ms if result.scaleout is not None else result.total_ms
    return (
        sim_ms,
        result.global_memory_bytes,
        result.input_bytes + result.output_bytes,
        len(result.profile.kernels),
    )


class Loop:
    """The closed loop shared by both run kinds: one query in flight."""

    def __init__(self, workload):
        from oracle import Oracle

        self.workload = workload
        self.oracle = Oracle(workload)
        self.queries = workload.queries()
        self.attempted = 0
        self.raised: list[str] = []
        self.busy_s = 0.0

    def step(self, wrap=contextlib.nullcontext):
        """Send the next query; returns (latency s, result or None)."""
        key, query = next(self.queries)
        number = self.attempted
        self.attempted += 1
        begin = time.perf_counter()
        try:
            with wrap(number):
                result = self.workload.run(query)
        except Exception as error:  # counted in failed_frac; the loop goes on
            self.busy_s += time.perf_counter() - begin
            self.raised.append(f"{key[:60]}: {type(error).__name__}: {error}")
            return None, None
        latency = time.perf_counter() - begin
        self.busy_s += latency
        self.oracle.record(key, query, result)
        return latency, result


def untraced(workload, seconds: float, min_queries: int):
    """Set up repeatedly, then time the closed loop."""
    from repro.kernels.codegen import clear_kernel_cache

    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        if setups:
            workload.close()
        clear_kernel_cache()  # every set-up starts as a fresh process would
        begin = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - begin)
    loop = Loop(workload)
    latencies, window, kernels, plan_hits = [], [], 0, []
    started = time.perf_counter()
    while loop.attempted < min_queries or time.perf_counter() - started < seconds:
        number = loop.attempted
        latency, result = loop.step()
        if result is None:
            continue
        latencies.append(latency)
        if result.serving is not None:
            plan_hits.append(result.serving.plan_cache_hit)
        sim = simulated(result)
        kernels += sim[3]
        if number < min_queries:
            window.append(sim)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.close()
    metrics = {
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p95_ms": statistics.quantiles(latencies, n=20)[18] * 1e3,
        "throughput_qps": len(latencies) / loop.busy_s,
        "sim_ms_per_query": statistics.fmean(s[0] for s in window),
        "sim_global_bytes_per_query": statistics.fmean(s[1] for s in window),
        "sim_pcie_bytes_per_query": statistics.fmean(s[2] for s in window),
        "sim_kernels_per_host_s": kernels / loop.busy_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "setups_s": setups,
        "completed": len(latencies),
        "beyond_p95": sum(1 for value in latencies if value * 1e3 > metrics["query_p95_ms"]),
        "distinct_queries": len(loop.oracle.first),
        "plan_cache_hit_ratio": statistics.fmean(plan_hits) if plan_hits else None,
    }
    return loop, metrics, END_TO_END, details


def traced(workload, seconds: float, min_queries: int, out_dir: str, stem: str):
    """Rotate plain / shimmed / program-telemetry blocks; derive layers."""
    from layers import PER_LAYER, LayerTally, layer_metrics
    from repro.kernels.codegen import kernel_cache_stats
    from repro.telemetry import FlightRecorder, tracing
    from shims import Shims

    workload.setup()
    shims = Shims()
    recorder = FlightRecorder(postmortem_dir=os.path.join(out_dir, "postmortems"), install=False)

    @contextlib.contextmanager
    def telemetry_on():
        workload.client.recorder = recorder
        try:
            with tracing(True), recorder:
                yield
        finally:
            workload.client.recorder = None

    contexts = {"plain": contextlib.nullcontext, "shims": shims.patched,
                "telemetry": telemetry_on}
    loop = Loop(workload)
    tally = LayerTally()
    host_s = {mode: [] for mode in MODES}
    cache_before = kernel_cache_stats()
    placement_before = workload.placement_stats()
    started = time.perf_counter()
    block = 0
    while (
        block < 2 * len(MODES)
        or loop.attempted < min_queries
        or time.perf_counter() - started < seconds
    ):
        mode = MODES[block % len(MODES)]
        wrap = shims.query if mode == "shims" else contextlib.nullcontext
        with contexts[mode]():
            for _ in range(workload.block):
                latency, result = loop.step(wrap)
                if result is not None:
                    host_s[mode].append(latency)
                    tally.add(result, latency)
        block += 1
    cache_after = kernel_cache_stats()
    placement_after = workload.placement_stats()
    workload.close()
    placement_delta = (0, 0, 0)
    if placement_before is not None:
        placement_delta = (
            placement_after.hits - placement_before.hits,
            placement_after.misses - placement_before.misses,
            placement_after.evictions - placement_before.evictions,
        )
    metrics = layer_metrics(
        tally,
        shims.spans,
        shims.counts,
        len(host_s["shims"]),
        host_s,
        (cache_after.hits - cache_before.hits, cache_after.misses - cache_before.misses),
        placement_delta,
    )
    shims.write(os.path.join(out_dir, f"{stem}.spans.jsonl.gz"))
    details = {"queries_per_mode": {mode: len(host_s[mode]) for mode in MODES},
               "spans": len(shims.spans)}
    return loop, metrics, PER_LAYER, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program sources not found at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out", "smoke" if args.smoke else "full")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    min_queries = workload.block if args.smoke else workload.window
    if args.trace:
        loop, metrics, names, details = traced(workload, args.seconds, min_queries, out_dir, stem)
    else:
        loop, metrics, names, details = untraced(workload, args.seconds, min_queries)
    loop.oracle.verify()
    failed = len(loop.raised) + loop.oracle.failed
    failed_frac = failed / loop.attempted

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {loop.attempted}  host {loop.busy_s:.1f} s")
    for key, value in details.items():
        print(f"  {key}: {value}")
    for name, unit in names:
        print(f"  {name:<40s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':<40s} {failed_frac:>16.6g} ratio")
    for problem in (loop.raised + loop.oracle.failures)[:20]:
        print(f"  FAILED {problem}")
    line = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as handle:
        json.dump(dict(line, details=details, failed_frac=failed_frac,
                       failures=loop.raised + loop.oracle.failures), handle, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
