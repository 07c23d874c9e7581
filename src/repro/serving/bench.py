"""Serving-throughput benchmark: cold vs. warm caches, 1..N workers.

Two phases over a mixed SSB workload (all 13 queries):

* **Latency** (single worker) — per-query *serving latency*, defined as
  the host-side front-end cost actually paid (SQL parse + pipeline
  extraction + kernel compilation, measured wall clock) plus the
  query's simulated device time (transfers + kernels, the repo's
  standard metric).  Cold = first execution with empty caches; warm =
  repeat executions with the plan and kernel caches hot.
* **Throughput** (1, 2, 4, 8 workers) — queries/second of a warm
  server.  Each worker owns a private virtual device, so the modeled
  makespan is the *maximum over workers* of their busy time (host
  overhead + simulated device ms of the queries they executed);
  one worker serializes the whole stream on one device.  Host
  wall-clock throughput is reported alongside, but on a single-core
  host it cannot scale — the serving metric models the multi-device
  deployment, consistent with every other benchmark in this repo
  (simulated time from measured traffic, see EXPERIMENTS.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..analysis import format_table
from ..kernels.codegen import clear_kernel_cache
from ..primitives.hashtable import clear_hash_table_cache
from ..placement.stats import PlacementStats
from ..storage.database import Database
from ..workloads import SSB_QUERIES, generate_ssb
from .plan_cache import PlanCache
from .server import Server

#: Acceptance thresholds the report checks itself against.
WARM_SPEEDUP_TARGET = 2.0
SCALING_TARGET = 1.5


@dataclass
class LatencyRow:
    query: str
    cold_ms: float
    warm_ms: float

    @property
    def speedup(self) -> float:
        return self.cold_ms / self.warm_ms if self.warm_ms else float("inf")


@dataclass
class ThroughputRow:
    workers: int
    queries: int
    serving_qps: float
    wall_qps: float
    makespan_ms: float
    plan_hit_rate: float
    #: serving_qps relative to the 1-worker row.
    scaling: float = 1.0


@dataclass
class ServingBenchReport:
    scale_factor: float
    repeats: int
    latency: list[LatencyRow] = field(default_factory=list)
    throughput: list[ThroughputRow] = field(default_factory=list)
    #: Residency counters of the single-worker latency server
    #: (``None`` when the benchmark ran with ``residency=False``).
    placement: PlacementStats | None = None
    #: ``ServerStats.summary()`` of the single-worker latency server
    #: (queue depth, cancelled, p50/p95/p99 latency).
    server_summary: str | None = None
    #: Prometheus text exposition of the latency server, for
    #: ``repro serve-bench --metrics-out``.
    metrics_text: str | None = None

    # ------------------------------------------------------------------
    @property
    def warm_speedup(self) -> float:
        """Aggregate cold/warm serving-latency ratio over the workload."""
        cold = sum(row.cold_ms for row in self.latency)
        warm = sum(row.warm_ms for row in self.latency)
        return cold / warm if warm else float("inf")

    @property
    def best_scaling(self) -> float:
        """Best multi-worker serving throughput relative to 1 worker."""
        multi = [row.scaling for row in self.throughput if row.workers > 1]
        return max(multi) if multi else 0.0

    @property
    def passed(self) -> bool:
        return (
            self.warm_speedup >= WARM_SPEEDUP_TARGET
            and self.best_scaling >= SCALING_TARGET
        )

    # ------------------------------------------------------------------
    def text(self) -> str:
        latency_rows = [
            [row.query, round(row.cold_ms, 3), round(row.warm_ms, 3),
             f"{row.speedup:.2f}x"]
            for row in self.latency
        ]
        parts = [
            format_table(
                ["query", "cold (ms)", "warm (ms)", "speedup"],
                latency_rows,
                title=(
                    f"Serving latency, mixed SSB at SF {self.scale_factor} "
                    "(plan+compile wall + simulated device ms; 1 worker)"
                ),
                float_format="{:.3f}",
            )
        ]
        throughput_rows = [
            [row.workers, row.queries, round(row.serving_qps, 1),
             round(row.wall_qps, 1), f"{row.plan_hit_rate * 100:.0f}%",
             f"{row.scaling:.2f}x"]
            for row in self.throughput
        ]
        parts.append(
            format_table(
                ["workers", "queries", "serving q/s", "host wall q/s",
                 "plan hits", "scaling"],
                throughput_rows,
                title=(
                    "Warm-cache throughput (serving q/s = queries / modeled "
                    "makespan over per-worker devices)"
                ),
            )
        )
        if self.placement is not None:
            parts.append(
                "Placement (cross-query column residency, 1-worker server):\n"
                f"  resident bytes   {self.placement.resident_bytes}\n"
                f"  hit rate         {self.placement.hit_rate * 100:.0f}% "
                f"({self.placement.hits}/{self.placement.hits + self.placement.misses})\n"
                f"  PCIe saved       {self.placement.hit_bytes / 1e6:.2f} MB\n"
                f"  evictions        {self.placement.evictions}\n"
                f"  out-of-core      {self.placement.fallbacks}"
            )
        if self.server_summary is not None:
            parts.append("Latency server counters:\n" + self.server_summary)
        parts.append(
            f"warm-cache latency speedup: {self.warm_speedup:.2f}x "
            f"(target >= {WARM_SPEEDUP_TARGET:.1f}x)\n"
            f"multi-worker scaling:       {self.best_scaling:.2f}x "
            f"(target >= {SCALING_TARGET:.1f}x)\n"
            f"result: {'PASS' if self.passed else 'FAIL'}"
        )
        return "\n\n".join(parts)


def _serving_ms(result) -> float:
    """One query's serving latency: host front-end + simulated device
    critical path (``latency_ms``: the fleet makespan on scale-out)."""
    stats = result.serving
    return stats.plan_ms + stats.compile_ms + result.latency_ms


def run_serving_benchmark(
    scale_factor: float = 0.005,
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
    repeats: int = 3,
    passes: int = 4,
    device: str = "gtx970",
    engine: str = "resolution",
    database: Database | None = None,
    seed: int = 7,
    residency: bool = True,
    devices: int = 1,
    partitioning: str = "range",
    fault_plan=None,
    retry_policy=None,
    recorder=None,
) -> ServingBenchReport:
    """Run both phases; see the module docstring for the metrics.

    ``devices=N`` gives every server a per-worker scale-out fleet
    (:mod:`repro.scaleout`); latencies then use the fleet makespan.
    ``fault_plan``/``retry_policy`` arm deterministic fault injection
    on every worker's fleet (see ``docs/fault-tolerance.md``).
    ``recorder`` (a :class:`~repro.telemetry.FlightRecorder`) rides
    along in every server: per-query flight records, post-mortem
    bundles on failure, and recorder counters in ``metrics_text``."""
    if database is None:
        database = generate_ssb(scale_factor, seed=seed)
    names = sorted(SSB_QUERIES)
    queries = [SSB_QUERIES[name] for name in names]
    report = ServingBenchReport(scale_factor=scale_factor, repeats=repeats)

    # Phase 1: cold vs warm serving latency, single worker. ------------
    clear_kernel_cache()
    clear_hash_table_cache()
    with Server(database, device=device, engine=engine, workers=1,
                queue_size=len(queries) + 1, residency=residency,
                devices=devices, partitioning=partitioning,
                fault_plan=fault_plan, retry_policy=retry_policy,
                recorder=recorder) as server:
        cold = server.execute_many(queries)
        warm_passes = [server.execute_many(queries) for _ in range(repeats)]
        latency_stats = server.stats()
        report.placement = latency_stats.placement
        report.server_summary = latency_stats.summary()
        report.metrics_text = server.metrics_text()
    for index, name in enumerate(names):
        warm = [_serving_ms(run[index]) for run in warm_passes]
        report.latency.append(
            LatencyRow(
                query=name,
                cold_ms=_serving_ms(cold[index]),
                warm_ms=sum(warm) / len(warm),
            )
        )

    # Phase 2: warm throughput at 1..N workers. ------------------------
    workload = queries * passes
    shared_cache = PlanCache(capacity=256)
    base_qps: float | None = None
    for workers in worker_counts:
        with Server(database, device=device, engine=engine, workers=workers,
                    queue_size=len(workload) + 1,
                    plan_cache=shared_cache, residency=residency,
                    devices=devices, partitioning=partitioning,
                    fault_plan=fault_plan, retry_policy=retry_policy,
                    recorder=recorder) as server:
            server.execute_many(queries)  # warm this server's devices/caches
            started = time.perf_counter()
            results = server.execute_many(workload)
            wall_s = time.perf_counter() - started
            stats = server.stats()
        busy = [0.0] * workers
        for result in results:
            busy[result.serving.worker] += _serving_ms(result)
        makespan_ms = max(busy)
        row = ThroughputRow(
            workers=workers,
            queries=len(workload),
            serving_qps=len(workload) / makespan_ms * 1e3,
            wall_qps=len(workload) / wall_s,
            makespan_ms=makespan_ms,
            plan_hit_rate=stats.plan_hit_rate,
        )
        if base_qps is None:
            base_qps = row.serving_qps
        row.scaling = row.serving_qps / base_qps if base_qps else 1.0
        report.throughput.append(row)
    return report
