"""High-level convenience API.

    from repro import api
    from repro.workloads import generate_ssb

    session = api.connect(generate_ssb(0.01))
    result = session.execute("select sum(lo_revenue) as r from lineorder")
    print(result.table.to_rows(), result.kernel_ms)

A :class:`Session` bundles a database, a virtual device, and an engine
choice; ``execute`` accepts SQL text or a logical plan.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from .engines import ENGINE_FACTORIES, make_engine
from .engines.base import Engine, ExecutionResult
from .execution import (
    ExecutionConfig,
    resolve_engine_override,
    resolve_executor,
    run_query,
)
from .hardware.device import VirtualCoprocessor
from .hardware.interconnect import PCIE3, Interconnect
from .hardware.profiles import GTX970, DeviceProfile
from .plan.logical import LogicalPlan
from .plan.pipelines import extract_pipelines
from .sql.translate import plan_sql
from .storage.database import Database

if TYPE_CHECKING:  # avoid the api -> serving -> api import cycle
    from .serving.plan_cache import PlanCache
    from .telemetry.metrics import MetricsRegistry
    from .telemetry.recorder import FlightRecorder

__all__ = ["ENGINE_FACTORIES", "Session", "connect", "make_engine"]


class Session:
    """A database bound to a virtual coprocessor and a default engine.

    Passing a :class:`~repro.serving.PlanCache` makes ``execute`` skip
    SQL parsing and pipeline extraction on repeat queries (the cache
    may be shared with a :class:`~repro.serving.Server` or with other
    sessions); cached executions carry their serving metrics in
    ``result.serving``.

    ``residency=True`` attaches a :class:`~repro.placement.BufferPool`
    to the session's device: base columns stay device-resident between
    queries (repeat loads skip the PCIe charge), and working sets
    larger than device memory transparently fall back to the streaming
    out-of-core executor.  Off by default so single-shot measurement
    sessions keep the paper's stateless reset-per-query semantics;
    the serving :class:`~repro.serving.Server` defaults it on.

    ``devices=N`` (N > 1) runs every query through the scale-out
    executor (:mod:`repro.scaleout`): the fact table is partitioned
    under ``partitioning`` (``"range"`` or ``"hash"``) across N
    simulated devices of the session's profile, partials are merged
    scatter-gather style, and results carry ``result.scaleout``
    accounting.  With ``residency=True`` each fleet device gets its
    own buffer pool (``session.pool`` stays ``None`` — the fleet owns
    residency; :meth:`placement_stats` aggregates across devices).

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`, a plan dict, or
    a path to a plan JSON file) arms deterministic fault injection on
    the scale-out executor; ``retry_policy`` tunes the per-morsel
    retry/backoff/timeout behaviour (see ``docs/fault-tolerance.md``).
    Arming a fault plan routes queries through the scale-out executor
    even at ``devices=1`` so the recovery ladder — including the host
    out-of-core fallback — stays reachable.

    ``engine="auto"`` and/or ``devices="auto"`` hand the corresponding
    decision to the adaptive cost-based optimizer
    (:mod:`repro.optimizer`, see ``docs/optimizer.md``): each query is
    planned over the strategy lattice (micro engine x run-to-finish
    vs. out-of-core x device count x placement) and executed on the
    cheapest feasible candidate; ``result.optimizer`` carries the full
    :class:`~repro.optimizer.OptimizerDecision`.  Dimensions you pin
    stay pinned — ``engine="auto", devices=2`` fixes the fleet size
    but lets the advisor pick the rest.  ``residency=True`` pins
    placement to ``pooled``.  Fault plans require pinned devices.

    ``compression="auto"`` turns on compression-aware transfers: each
    base column crosses the simulated link in its cheapest sampled
    codec and is decompressed by a generated kernel on device, so PCIe
    charges shrink while results stay byte-identical (see
    ``docs/compression.md``).  A codec name (``"rle"``, ``"forpack"``,
    ``"delta"``, ``"dictionary"``, ``"passthrough"``) pins that codec;
    ``"off"`` (default) keeps raw transfers.

    The configuration keywords are validated once into
    ``session.config`` (an :class:`~repro.execution.ExecutionConfig`)
    and dispatched by :func:`~repro.execution.resolve_executor`
    (``session.executor``); every query runs through
    :func:`~repro.execution.run_query` — the same path each
    :class:`~repro.serving.Server` worker takes.
    """

    def __init__(
        self,
        database: Database,
        device: VirtualCoprocessor | DeviceProfile | str = GTX970,
        engine: Engine | str = "resolution",
        interconnect: Interconnect = PCIE3,
        plan_cache: "PlanCache | None" = None,
        residency: bool = False,
        metrics: "MetricsRegistry | None" = None,
        devices: int | str = 1,
        partitioning: str = "range",
        fault_plan=None,
        retry_policy=None,
        recorder: "FlightRecorder | None" = None,
        compression: str = "off",
    ):
        #: The validated :class:`~repro.execution.ExecutionConfig`.
        self.config = ExecutionConfig(
            device=device,
            interconnect=interconnect,
            engine=engine,
            devices=devices,
            partitioning=partitioning,
            residency=residency,
            compression=compression,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        )
        #: The resolved execution path (see :func:`~repro.execution.resolve_executor`).
        self.executor = resolve_executor(self.config)
        self.database = database
        self.plan_cache = plan_cache
        #: Optional :class:`~repro.telemetry.FlightRecorder`; when set,
        #: every ``execute`` lands a flight record (and failures write a
        #: post-mortem bundle) under a per-query correlation id.
        self.recorder = recorder
        #: Optional :class:`~repro.telemetry.MetricsRegistry`; when set,
        #: every ``execute`` observes the session query-latency
        #: histogram and bumps ``repro_queries_total`` (the same metric
        #: names a :class:`~repro.serving.Server` exposes).
        self.metrics = metrics
        self.device = self.executor.device
        #: The pinned engine (``None`` when the optimizer picks).
        self.engine = self.executor.engine
        #: The scale-out executor when queries run on a fleet.
        self.scaleout = self.executor.scaleout
        #: The device's buffer pool when ``residency=True`` on one device.
        self.pool = self.executor.pool

    @property
    def auto(self):
        """The adaptive executor (``engine``/``devices="auto"``, or once
        a per-query ``engine="auto"`` override ran), else ``None``."""
        return self.executor.auto

    # ------------------------------------------------------------------
    def plan(self, query: str | LogicalPlan) -> LogicalPlan:
        """Parse SQL into a logical plan (plans pass through)."""
        if isinstance(query, LogicalPlan):
            return query
        return plan_sql(query, self.database)

    def physical(self, query: str | LogicalPlan):
        """The extracted pipelines, via the plan cache when one is set."""
        if self.plan_cache is not None:
            physical, _hit = self.plan_cache.lookup(
                query, self.database, self.executor.strategy_token()
            )
            return physical
        return extract_pipelines(self.plan(query), self.database)

    def explain(
        self,
        query: str | LogicalPlan,
        analyze: bool = False,
        engine: Engine | str | None = None,
        seed: int = 42,
    ) -> str:
        """The fusion-operator decomposition of a query (pipelines +
        host post-processing), one line per pipeline.

        With ``analyze=True`` the query actually *runs* (with span
        tracing enabled) and the report shows per-pipeline rows in/out,
        kernels launched, per-level byte volumes, PCIe bytes, simulated
        vs host milliseconds, and cache/placement outcomes.

        On an ``engine="auto"`` session both variants additionally
        render the optimizer's decision: the ranked candidate lattice
        with predicted time/bytes per strategy (and, with ``analyze``,
        the observed time and prediction error).
        """
        if analyze:
            from .telemetry.explain import explain_analyze

            return explain_analyze(self, query, engine=engine, seed=seed)
        description = self.physical(query).describe()
        if self.config.auto and engine is None:
            decision = self.optimizer_decision(query)
            return f"{description}\n\noptimizer:\n{decision.render()}"
        return description

    def execute(
        self,
        query: str | LogicalPlan,
        engine: Engine | str | None = None,
        seed: int = 42,
    ) -> ExecutionResult:
        """Run a query; returns the result table plus all metrics.

        When tracing is enabled (:func:`repro.telemetry.tracing`) the
        result carries the full span tree on ``result.trace``,
        including the front-end ``plan`` span.
        """
        started = time.perf_counter()
        result = run_query(
            self.executor,
            query,
            self.database,
            seed=seed,
            engine=resolve_engine_override(engine),
            plan_cache=self.plan_cache,
            recorder=self.recorder,
            metrics=self.metrics,
        )
        if self.metrics is not None:
            self.executor.observe_metrics(self.metrics)
            self.metrics.histogram(
                "repro_query_latency_ms",
                "End-to-end query latency (host wall clock, ms)",
            ).observe((time.perf_counter() - started) * 1e3)
            self.metrics.counter(
                "repro_queries_total", "Queries executed", status="completed"
            ).inc()
        return result

    def placement_stats(self):
        """Residency counters (``None`` unless something is pooled).

        Scale-out sessions aggregate across the fleet's per-device
        pools; auto sessions report the adaptive executor's pool."""
        return self.executor.placement_stats()

    def optimizer_decision(self, query: str | LogicalPlan):
        """Advise (without executing) on an auto session: the ranked
        strategy breakdown the optimizer would use for ``query``."""
        return self.executor.adaptive().advise(self.physical(query), self.database)


def connect(
    database: Database,
    device: VirtualCoprocessor | DeviceProfile | str = GTX970,
    engine: Engine | str = "resolution",
    plan_cache: "PlanCache | None" = None,
    residency: bool = False,
    metrics: "MetricsRegistry | None" = None,
    devices: int | str = 1,
    partitioning: str = "range",
    fault_plan=None,
    retry_policy=None,
    recorder=None,
    compression: str = "off",
) -> Session:
    """Create a session (the one-line entry point).

    ``engine="auto"`` / ``devices="auto"`` enable the adaptive
    cost-based optimizer (see :class:`Session`).  ``compression=
    "auto"`` ships base columns over the link compressed (see
    ``docs/compression.md``); a codec name pins one codec, ``"off"``
    (the default) keeps raw transfers."""
    return Session(
        database,
        device=device,
        engine=engine,
        plan_cache=plan_cache,
        residency=residency,
        metrics=metrics,
        devices=devices,
        partitioning=partitioning,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        recorder=recorder,
        compression=compression,
    )
