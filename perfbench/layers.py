"""Per-layer metrics of the traced run.

Host times come from the shims' self times (:mod:`shims`).  Counts come
from the shims' counters and from the public ``ExecutionResult`` of
every query.  Unless a unit says otherwise, a metric is a mean per
query of the traced run; each ratio names its base in
:data:`PER_LAYER` and ``NOTES.md``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from repro.hardware.traffic import MemoryLevel
from shims import ROOT, self_times, span_names

#: Kernel kinds the device's ``launch`` calls use; anything new lands
#: in ``other``.
KERNEL_KINDS = (
    "build", "compound", "count", "decode", "encode", "gather", "map",
    "prefix_sum", "probe", "reduce", "scan", "sort", "write", "other",
)


def _host_metric_names() -> list[str]:
    names = []
    for span in span_names():
        if span == ROOT:
            continue
        layer, _, part = span.partition(".")
        if f"{layer}.host_ms" not in names:
            names.append(f"{layer}.host_ms")
        if part:
            names.append(f"{layer}.{part}_host_ms")
    return names


#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [(name, "ms/query") for name in _host_metric_names()]
    + [
        ("other.host_ms", "ms/query"),
        ("trace.total_host_ms", "ms/query"),
        ("trace.overhead_frac", "ratio"),
        ("trace.queries", "count"),
        ("trace.spans_per_query", "count/query"),
        ("sql.calls", "count/query"),
        ("plan.pipelines_per_query", "count/query"),
        ("serving.plan_cache_hit_ratio", "ratio"),
        ("serving.queue_wait_ms", "ms/query"),
        ("serving.overhead_ms", "ms/query"),
        ("kernels.compile_hit_ratio", "ratio"),
        ("primitives.probe_rows", "count/query"),
        ("primitives.build_rows", "count/query"),
        ("hardware.kernels_per_query", "count/query"),
        ("hardware.sim_kernel_ms", "ms/query"),
        ("hardware.sim_transfer_ms", "ms/query"),
    ]
    + [(f"hardware.sim_ms.{kind}", "ms/query") for kind in KERNEL_KINDS]
    + [
        ("hardware.onchip_bytes", "B/query"),
        ("hardware.atomics", "count/query"),
        ("hardware.h2d_bytes", "B/query"),
        ("hardware.d2h_bytes", "B/query"),
        ("hardware.reconcile_violations", "count/query"),
        ("compression.ratio", "ratio"),
        ("compression.decode_kernels", "count/query"),
        ("compression.compressed_scans", "count/query"),
        ("compression.blocks_skipped_ratio", "ratio"),
        ("compression.partial_decode_bytes", "B/query"),
        ("placement.hit_ratio", "ratio"),
        ("placement.evictions", "count/query"),
        ("scaleout.sim_makespan_ms", "ms/query"),
        ("scaleout.sim_serial_ms", "ms/query"),
        ("scaleout.imbalance", "ratio"),
        ("scaleout.fallback_queries", "count/query"),
        ("optimizer.candidates_per_query", "count/query"),
        ("optimizer.pred_error_frac", "ratio"),
        ("telemetry.tracing_overhead_frac", "ratio"),
        ("telemetry.unattributed_global_bytes", "B/query"),
    ]
)


def reconcile_violations(result) -> int:
    """How many of the simulated plane's bookkeeping identities fail.

    Per-kernel bytes and times must sum to the profile totals; transfer
    records must sum to ``input_bytes`` (h2d) and ``output_bytes``
    (d2h); a fleet's makespan must not exceed its serial sum.
    """
    profile = result.profile
    kernels = profile.kernels
    checks = [
        sum(trace.meter.bytes_at(MemoryLevel.GLOBAL) for trace in kernels)
        == result.global_memory_bytes,
        sum(trace.meter.bytes_at(MemoryLevel.ONCHIP) for trace in kernels)
        == result.onchip_bytes,
        sum(entry["launches"] for entry in profile.by_kind().values()) == len(kernels),
        profile.transfer_bytes("h2d") == result.input_bytes,
        profile.transfer_bytes("d2h") == result.output_bytes,
    ]
    if result.scaleout is not None:
        checks.append(result.scaleout.makespan_ms <= result.scaleout.serial_ms + 1e-9)
    return checks.count(False)


def unattributed_global_bytes(result) -> int:
    """Profile global bytes outside every pipeline span of the program's
    own trace (needs ``repro.telemetry.tracing()`` on)."""
    attributed = sum(
        span.attrs.get("global_bytes", 0) for span in result.trace.spans("pipeline")
    )
    return result.global_memory_bytes - attributed


class LayerTally:
    """Sums the result-derived per-layer counts over a run's queries."""

    def __init__(self) -> None:
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.queries = 0
        self.pred_errors: list[float] = []
        self.traced = 0

    def add(self, result, latency_s: float) -> None:
        sums = self.sums
        self.queries += 1
        profile = result.profile
        sums["hardware.kernels_per_query"] += len(profile.kernels)
        sums["hardware.sim_kernel_ms"] += result.kernel_ms
        sums["hardware.sim_transfer_ms"] += result.transfer_ms
        for trace in profile.kernels:
            kind = trace.kind if trace.kind in KERNEL_KINDS else "other"
            sums[f"hardware.sim_ms.{kind}"] += trace.time_ms
        sums["hardware.onchip_bytes"] += result.onchip_bytes
        sums["hardware.atomics"] += profile.atomic_count
        sums["hardware.h2d_bytes"] += profile.transfer_bytes("h2d")
        sums["hardware.d2h_bytes"] += profile.transfer_bytes("d2h")
        sums["hardware.reconcile_violations"] += reconcile_violations(result)
        serving = result.serving
        if serving is not None:
            sums["serving.lookups"] += 1
            sums["serving.hits"] += serving.plan_cache_hit
            sums["serving.queue_wait_ms"] += serving.queue_wait_ms
            sums["serving.overhead_ms"] += (
                latency_s * 1e3 - serving.plan_ms - serving.execute_ms
            )
        compression = result.compression
        if compression is not None:
            sums["compression.raw_bytes"] += compression.raw_bytes
            sums["compression.wire_bytes"] += compression.wire_bytes
            sums["compression.decode_kernels"] += compression.decode_kernels
            sums["compression.compressed_scans"] += compression.compressed_scans
            sums["compression.scan_blocks"] += compression.scan_blocks
            sums["compression.scan_blocks_skipped"] += compression.scan_blocks_skipped
            sums["compression.partial_decode_bytes"] += compression.partial_decode_bytes
        scaleout = result.scaleout
        if scaleout is not None:
            sums["scaleout.sim_makespan_ms"] += scaleout.makespan_ms
            sums["scaleout.sim_serial_ms"] += scaleout.serial_ms
            sums["scaleout.imbalance"] += scaleout.imbalance
            sums["scaleout.fallback_queries"] += scaleout.fallback
            sums["scaleout.queries"] += 1
        optimizer = result.optimizer
        if optimizer is not None:
            sums["optimizer.candidates_per_query"] += len(optimizer.candidates)
            error = optimizer.error_fraction()
            if error is not None:
                self.pred_errors.append(abs(error))
        if result.trace is not None:
            self.traced += 1
            sums["telemetry.unattributed_global_bytes"] += unattributed_global_bytes(result)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tally: LayerTally,
    spans: list[list],
    counts: dict,
    shim_queries: int,
    host_s: dict[str, list[float]],
    cache_delta: tuple[int, int],
    placement_delta: tuple[int, int, int],
) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER`, from one traced run."""
    per_query = tally.queries or 1
    metrics: dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    for name, seconds in self_times(spans).items():
        ms = seconds * 1e3 / shim_queries
        if name == ROOT:
            metrics["other.host_ms"] = ms
            continue
        layer, _, part = name.partition(".")
        metrics[f"{layer}.host_ms"] += ms
        if part:
            metrics[f"{layer}.{part}_host_ms"] += ms
    roots = [span for span in spans if span[0] == ROOT]
    total = sum(end - start for _name, start, end, _parent, _query in roots)
    metrics["trace.total_host_ms"] = total * 1e3 / shim_queries
    layers = sum(value for name, value in metrics.items()
                 if name.endswith(".host_ms") and name.count(".") == 1
                 and not name.startswith(("trace.", "other.")))
    gap = layers + metrics["other.host_ms"] - metrics["trace.total_host_ms"]
    if abs(gap) > 1e-6 * max(metrics["trace.total_host_ms"], 1e-9):
        raise RuntimeError(f"layer self times do not add up to the total ({gap:+.6f} ms)")
    plain = statistics.fmean(host_s["plain"])
    metrics["trace.overhead_frac"] = statistics.fmean(host_s["shims"]) / plain - 1
    metrics["telemetry.tracing_overhead_frac"] = statistics.fmean(host_s["telemetry"]) / plain - 1
    metrics["trace.queries"] = shim_queries
    metrics["trace.spans_per_query"] = (len(spans) - len(roots)) / shim_queries
    metrics["sql.calls"] = counts.get("sql.calls", 0) / shim_queries
    metrics["plan.pipelines_per_query"] = counts.get("plan.pipelines", 0) / shim_queries
    metrics["primitives.probe_rows"] = counts.get("primitives.probe_rows", 0) / shim_queries
    metrics["primitives.build_rows"] = counts.get("primitives.build_rows", 0) / shim_queries
    hits, misses = cache_delta
    metrics["kernels.compile_hit_ratio"] = _ratio(hits, hits + misses)
    pool_hits, pool_misses, evictions = placement_delta
    metrics["placement.hit_ratio"] = _ratio(pool_hits, pool_hits + pool_misses)
    metrics["placement.evictions"] = evictions / per_query

    sums = tally.sums
    for name, _unit in PER_LAYER:
        if name.startswith("hardware.") and not name.endswith("host_ms"):
            metrics[name] = sums[name] / per_query
    lookups = sums["serving.lookups"]
    metrics["serving.plan_cache_hit_ratio"] = _ratio(sums["serving.hits"], lookups)
    metrics["serving.queue_wait_ms"] = _ratio(sums["serving.queue_wait_ms"], lookups)
    metrics["serving.overhead_ms"] = _ratio(sums["serving.overhead_ms"], lookups)
    metrics["compression.ratio"] = _ratio(
        sums["compression.raw_bytes"], sums["compression.wire_bytes"]
    )
    for name in ("decode_kernels", "compressed_scans", "partial_decode_bytes"):
        metrics[f"compression.{name}"] = sums[f"compression.{name}"] / per_query
    metrics["compression.blocks_skipped_ratio"] = _ratio(
        sums["compression.scan_blocks_skipped"], sums["compression.scan_blocks"]
    )
    fleet = sums["scaleout.queries"]
    for name in ("sim_makespan_ms", "sim_serial_ms", "imbalance"):
        metrics[f"scaleout.{name}"] = _ratio(sums[f"scaleout.{name}"], fleet)
    metrics["scaleout.fallback_queries"] = sums["scaleout.fallback_queries"] / per_query
    metrics["optimizer.candidates_per_query"] = sums["optimizer.candidates_per_query"] / per_query
    metrics["optimizer.pred_error_frac"] = (
        statistics.median(tally.pred_errors) if tally.pred_errors else 0.0
    )
    metrics["telemetry.unattributed_global_bytes"] = _ratio(
        sums["telemetry.unattributed_global_bytes"], tally.traced
    )
    return metrics
