"""One execution path for every front end.

The paper's design space is a handful of choices — the micro model
(engine), the macro model, and the device, link and placement.  This
module owns them once:

* :class:`ExecutionConfig` — the validated, frozen configuration: the
  same fields :class:`~repro.api.Session` and
  :class:`~repro.serving.Server` take as keyword arguments.  It
  round-trips through :meth:`~ExecutionConfig.to_dict` /
  :meth:`~ExecutionConfig.from_dict`, which is what flight records
  store and ``repro replay`` rebuilds.
* :func:`resolve_executor` — the single auto / scale-out / pooled /
  plain ladder, returning an :class:`Executor`.
* :func:`run_query` — the per-query front end: correlation id,
  tracing, flight recorder, plan cache + :class:`ServingStats`,
  optimizer strategy recording and compression metrics.

``Session`` (and its per-query ``engine=`` overrides), every ``Server``
worker, the CLI, ``replay`` and the baseline sentinel all go through
these three.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time

from .compression import observe_compression_metrics, resolve_compression
from .engines import ENGINE_FACTORIES, make_engine
from .engines.base import Engine, ExecutionResult
from .errors import ConfigurationError
from .hardware.device import VirtualCoprocessor
from .hardware.interconnect import NVLINK1, OPENCAPI, PCIE3, Interconnect
from .hardware.profiles import GTX970, get_profile
from .kernels.codegen import begin_thread_compile_stats, thread_compile_stats
from .plan.physical import PhysicalQuery
from .plan.pipelines import extract_pipelines
from .sql.translate import plan_sql
from .telemetry.events import installed_log, new_query_id, query_scope, record_event
from .telemetry.trace import Tracer, tracing_enabled

__all__ = [
    "AUTO",
    "ExecutionConfig",
    "Executor",
    "engine_alias",
    "resolve_engine_override",
    "resolve_executor",
    "run_query",
]

#: ``engine=`` / ``devices=`` value that hands the dimension to the
#: adaptive optimizer.
AUTO = "auto"

_INTERCONNECTS = {link.name: link for link in (PCIE3, NVLINK1, OPENCAPI)}


@dataclasses.dataclass(frozen=True)
class ExecutionConfig:
    """Where and how queries run; validated once, on construction.

    ``device`` is a profile (names resolve to built-in profiles) or a
    ready :class:`VirtualCoprocessor`, whose own link then wins over
    ``interconnect``.  ``engine`` is an alias, ``"auto"`` or an
    :class:`Engine`; ``devices`` an integer >= 1 or ``"auto"``.
    ``fault_plan`` accepts a plan, a plan dict or a JSON path and is
    stored as a :class:`~repro.faults.FaultPlan`.  ``compression`` is a
    mode name or a policy instance (shared as is).
    """

    device: object = GTX970
    interconnect: Interconnect = PCIE3
    engine: object = "resolution"
    devices: int | str = 1
    partitioning: str = "range"
    residency: bool = False
    compression: object = "off"
    fault_plan: object = None
    retry_policy: object = None

    def __post_init__(self) -> None:
        from .faults import RetryPolicy
        from .scaleout import validate_devices
        from .scaleout.partition import validate_partitioning

        set_field = functools.partial(object.__setattr__, self)
        if isinstance(self.device, str):
            set_field("device", get_profile(self.device))
        if isinstance(self.device, VirtualCoprocessor):
            set_field("interconnect", self.device.interconnect)
        if isinstance(self.engine, str) and self.engine != AUTO:
            make_engine(self.engine)  # unknown aliases list the choices
        if isinstance(self.devices, str):
            if self.devices != AUTO:
                raise ConfigurationError(
                    f"devices must be an integer >= 1 or 'auto', got {self.devices!r}"
                )
            if not isinstance(self.engine, str):
                raise ConfigurationError(
                    "devices='auto' needs an engine alias (or 'auto'), "
                    "not an Engine instance; known engines: "
                    + ", ".join(sorted(ENGINE_FACTORIES))
                )
        else:
            validate_devices(self.devices)
        validate_partitioning(self.partitioning)
        resolve_compression(self.compression)
        set_field("fault_plan", _coerce_fault_plan(self.fault_plan))
        if self.auto and self.fault_plan is not None:
            raise ConfigurationError(
                "fault injection needs a pinned configuration; use an "
                "explicit engine and devices=N instead of 'auto'"
            )
        if self.retry_policy is not None and not isinstance(
            self.retry_policy, RetryPolicy
        ):
            raise ConfigurationError(
                f"retry_policy must be a RetryPolicy or None, got {self.retry_policy!r}"
            )

    @property
    def auto(self) -> bool:
        """True when the adaptive optimizer owns a dimension."""
        return self.engine == AUTO or self.devices == AUTO

    @property
    def profile(self):
        device = self.device
        return device.profile if isinstance(device, VirtualCoprocessor) else device

    def kwargs(self) -> dict:
        """The fields as ``Session``/``Server`` keyword arguments."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def to_dict(self) -> dict:
        """JSON-ready form (device, link and engine by name)."""
        compression = self.compression
        if compression is not None and not isinstance(compression, str):
            compression = compression.mode
        return {
            "device": self.profile.name,
            "interconnect": self.interconnect.name,
            "engine": engine_alias(self.engine),
            "devices": self.devices,
            "partitioning": self.partitioning,
            "residency": self.residency,
            "compression": compression or "off",
            "fault_plan": (
                self.fault_plan.to_dict() if self.fault_plan is not None else None
            ),
            "retry_policy": (
                dataclasses.asdict(self.retry_policy)
                if self.retry_policy is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionConfig":
        """Rebuild from :meth:`to_dict` output; missing keys take the
        defaults and unknown keys (``sql``, ``seed``...) are ignored."""
        from .faults import RetryPolicy

        names = {f.name for f in dataclasses.fields(cls)}
        values = {
            key: value
            for key, value in data.items()
            if key in names and value is not None
        }
        link = values.get("interconnect")
        if isinstance(link, str):
            try:
                values["interconnect"] = _INTERCONNECTS[link]
            except KeyError:
                known = ", ".join(sorted(_INTERCONNECTS))
                raise ConfigurationError(
                    f"unknown interconnect {link!r}; known interconnects: {known}"
                ) from None
        if isinstance(values.get("retry_policy"), dict):
            values["retry_policy"] = RetryPolicy(**values["retry_policy"])
        return cls(**values)


def _coerce_fault_plan(fault_plan):
    """Accept a :class:`~repro.faults.FaultPlan`, a plan ``dict``, or a
    path to a plan JSON file (how the CLI passes ``--fault-plan``)."""
    if fault_plan is None:
        return None
    from .faults import FaultPlan

    if isinstance(fault_plan, FaultPlan):
        return fault_plan
    if isinstance(fault_plan, dict):
        return FaultPlan.from_dict(fault_plan)
    if isinstance(fault_plan, str):
        return FaultPlan.load(fault_plan)
    raise ConfigurationError(
        f"fault_plan must be a FaultPlan, a plan dict, or a JSON path, "
        f"got {fault_plan!r}"
    )


@functools.lru_cache(maxsize=None)
def _aliases_by_name() -> dict:
    aliases: dict = {}
    for alias, factory in ENGINE_FACTORIES.items():
        aliases.setdefault(factory().name, alias)
    return aliases


def engine_alias(engine) -> str | None:
    """The alias that rebuilds ``engine`` (``None`` if none does)."""
    if engine is None or isinstance(engine, str):
        return engine
    return _aliases_by_name().get(getattr(engine, "name", None))


def resolve_engine_override(engine):
    """A per-query ``engine=``: ``None`` (the configured path),
    ``"auto"``, or an :class:`Engine` (aliases are instantiated, so
    unknown names raise :class:`ConfigurationError` at the caller)."""
    if isinstance(engine, str) and engine != AUTO:
        return make_engine(engine)
    return engine


def _physical(query, database) -> PhysicalQuery:
    if isinstance(query, PhysicalQuery):
        return query
    return extract_pipelines(query, database)


# ----------------------------------------------------------------------
# the resolver
# ----------------------------------------------------------------------
class Executor:
    """One resolved execution path (see :func:`resolve_executor`).

    The configured path is the adaptive executor (auto configurations),
    ``scaleout``, the ``pool`` on ``device``, or ``device`` alone.  A
    per-query ``engine="auto"`` on a pinned
    configuration builds an adaptive executor on first use; a pinned
    per-query engine runs on the fleet when there is one, else on
    ``device``.
    """

    def __init__(self, config: ExecutionConfig, statistics=None, calibrator=None):
        self.config = config
        self.compression = resolve_compression(config.compression)
        device = config.device
        if not isinstance(device, VirtualCoprocessor):
            device = VirtualCoprocessor(device, interconnect=config.interconnect)
        device.compression = self.compression
        self.device = device
        #: The configured engine (``None`` when the optimizer picks).
        self.engine: Engine | None = None
        self.scaleout = None
        self.pool = None
        self._adaptive = None
        self._statistics = statistics
        self._calibrator = calibrator

    @property
    def auto(self):
        """The adaptive executor, once one exists."""
        return self._adaptive

    def adaptive(self):
        """The adaptive executor: the configured one, or the one built
        for per-query ``engine="auto"`` overrides (advisor picks every
        dimension; placement follows ``residency``)."""
        if self._adaptive is None:
            from .optimizer import AutoExecutor

            config = self.config
            # An auto configuration keeps the dimensions it pins; an
            # override on a pinned configuration leaves all to the advisor.
            pins = config.auto
            self._adaptive = AutoExecutor(
                config.profile,
                interconnect=config.interconnect,
                engine=config.engine if pins and config.engine != AUTO else None,
                devices=config.devices if pins and config.devices != AUTO else None,
                partitioning=config.partitioning,
                placement="pooled" if config.residency else None,
                statistics=self._statistics,
                calibrator=self._calibrator,
                compression=self.compression,
            )
        return self._adaptive

    def _routes_auto(self, engine) -> bool:
        return engine == AUTO or (engine is None and self.config.auto)

    def strategy_token(self, engine=None) -> tuple | None:
        """Plan-cache strategy key: ``None`` for pinned runs (physical
        plans are engine-independent), the lattice pins for auto runs
        so their entries never collide with pinned ones."""
        if not self._routes_auto(engine):
            return None
        auto = self.adaptive()
        return (
            AUTO,
            auto.pinned_engine,
            auto.pinned_devices,
            auto.partitioning,
            auto.pinned_placement,
        )

    def execute(self, query, database, seed: int = 42, engine=None) -> ExecutionResult:
        """Run one query (SQL-free: a logical or physical plan).

        ``engine`` is a value of :func:`resolve_engine_override`."""
        if self._routes_auto(engine):
            return self.adaptive().execute(_physical(query, database), database, seed=seed)
        engine = engine if engine is not None else self.engine
        if self.scaleout is not None:
            return self.scaleout.execute(engine, query, database, seed=seed)
        if self.device.placement_pool is None:
            return engine.execute(query, database, self.device, seed=seed)
        from .placement import execute_with_placement

        return execute_with_placement(
            engine, _physical(query, database), database, self.device, seed=seed
        )

    def placement_stats(self):
        """Residency counters across the pool, fleet and adaptive
        executor (``None`` when nothing is pooled)."""
        snapshots = []
        if self.scaleout is not None:
            snapshots.append(self.scaleout.placement_stats())
        elif self.device.placement_pool is not None:
            snapshots.append(self.device.placement_pool.stats())
        if self._adaptive is not None:
            snapshots.append(self._adaptive.placement_stats())
        snapshots = [snapshot for snapshot in snapshots if snapshot is not None]
        if len(snapshots) <= 1:
            return snapshots[0] if snapshots else None
        from .placement import PlacementStats

        return PlacementStats.aggregate(snapshots)

    def observe_metrics(self, metrics, **labels) -> None:
        """Export the fleet's and the optimizer's metric families."""
        if self.scaleout is not None:
            self.scaleout.observe_metrics(metrics, **labels)
        if self._adaptive is not None:
            self._adaptive.observe_metrics(metrics, **labels)


def resolve_executor(
    config: ExecutionConfig, statistics=None, calibrator=None
) -> Executor:
    """The one dispatch ladder: auto, else scale-out (``devices > 1``
    or an armed fault plan, so the recovery ladder stays reachable at
    one device), else pooled (``residency``), else plain.

    ``statistics``/``calibrator`` let several executors (a server's
    workers) tighten one shared optimizer model."""
    executor = Executor(config, statistics=statistics, calibrator=calibrator)
    if config.auto:
        executor.adaptive()
        return executor
    engine = config.engine
    executor.engine = make_engine(engine) if isinstance(engine, str) else engine
    if config.devices > 1 or config.fault_plan is not None:
        from .scaleout import ScaleOutExecutor

        executor.scaleout = ScaleOutExecutor(
            config.devices,
            profile=config.profile,
            interconnect=config.interconnect,
            partitioning=config.partitioning,
            residency=config.residency,
            fault_plan=config.fault_plan,
            retry_policy=config.retry_policy,
            compression=executor.compression,
        )
    elif config.residency:
        executor.pool = executor.device.placement_pool
        if executor.pool is None:
            from .placement import BufferPool

            executor.pool = BufferPool(executor.device)
    return executor


# ----------------------------------------------------------------------
# the per-query front end
# ----------------------------------------------------------------------
def run_query(
    executor: Executor,
    query,
    database,
    seed: int = 42,
    engine=None,
    plan_cache=None,
    recorder=None,
    metrics=None,
    worker: int | None = None,
    queue_wait_ms: float = 0.0,
) -> ExecutionResult:
    """Plan and run one query with every per-query concern attached.

    ``engine`` is a :func:`resolve_engine_override` value.  ``worker``
    marks a serving worker (``None`` for sessions): it labels the trace
    root, the flight record and the ``query.executed`` event, and the
    trace gets a ``queue_wait`` event.  With a ``plan_cache`` the
    result carries :class:`~repro.serving.ServingStats`; ``metrics``
    receives the compression family and, for optimizer-chosen
    strategies, the per-query ``repro_optimizer_*`` families.
    """
    config = executor.config
    flight = None
    if recorder is not None:
        recipe = config.to_dict()
        if engine is not None:
            recipe["engine"] = engine_alias(engine)
        if worker is not None:
            recipe["worker"] = worker
        flight = recorder.start(query, seed=seed, **recipe)
        flight.note(seed=seed)
    # A correlation id whenever anything is listening: the flight's
    # when the recorder is on, a fresh one when only an event log is.
    query_id = flight.query_id if flight is not None else (
        new_query_id() if installed_log() is not None else None
    )
    tracer = None
    if tracing_enabled():
        tracer = Tracer(api="session") if worker is None else Tracer(worker=worker)
        if query_id is not None:
            tracer.root.attrs["query_id"] = query_id
    activation = tracer.activate() if tracer else contextlib.nullcontext()
    try:
        with query_scope(query_id), activation:
            if tracer is not None and worker is not None:
                tracer.event("queue_wait", "queue", wait_ms=queue_wait_ms)
            result = _plan_and_execute(
                executor, query, database, seed, engine, plan_cache,
                tracer, flight, worker, queue_wait_ms,
            )
    except BaseException as error:
        if recorder is not None:
            # The flight's strategy already holds the whole config; the
            # plan also lands as the bundle's fault_plan.json.
            recorder.fail(
                flight,
                error,
                trace=tracer.finish() if tracer is not None else None,
                fault_plan=config.fault_plan,
            )
        raise
    if tracer is not None:
        result.trace = tracer.finish()
    if recorder is not None:
        recorder.complete(flight, result)
    if metrics is not None:
        if result.compression is not None:
            observe_compression_metrics(metrics, result.compression)
        if result.optimizer is not None:
            labels = {} if worker is None else {"worker": str(worker)}
            result.optimizer.observe_metrics(metrics, **labels)
    return result


def _plan_and_execute(
    executor, query, database, seed, engine, plan_cache, tracer, flight,
    worker, queue_wait_ms,
) -> ExecutionResult:
    token = executor.strategy_token(engine) if plan_cache is not None else None
    plan_start = time.perf_counter()
    span = tracer.span("plan", "plan") if tracer is not None else contextlib.nullcontext()
    with span as opened:
        if plan_cache is not None:
            plan, hit = plan_cache.lookup(query, database, token)
        else:
            plan = plan_sql(query, database) if isinstance(query, str) else query
            hit = False
        if opened is not None:
            opened.attrs["cache_hit"] = hit
    plan_ms = (time.perf_counter() - plan_start) * 1e3
    record_event("query.planned", cache_hit=hit, plan_ms=round(plan_ms, 3))
    if flight is not None and plan_cache is not None:
        from .telemetry.recorder import plan_fingerprint

        flight.note(plan_fingerprint=plan_fingerprint(plan), cache_hit=hit)
    begin_thread_compile_stats()
    execute_start = time.perf_counter()
    result = executor.execute(plan, database, seed=seed, engine=engine)
    execute_ms = (time.perf_counter() - execute_start) * 1e3
    labels = {} if worker is None else {"worker": worker}
    record_event(
        "query.executed", status="ok", execute_ms=round(execute_ms, 3), **labels
    )
    if plan_cache is None:
        return result
    from .serving.stats import ServingStats

    compile_hits, compile_misses, compile_ms = thread_compile_stats()
    placement = result.placement
    result.serving = ServingStats(
        plan_cache_hit=hit,
        compile_hits=compile_hits,
        compile_misses=compile_misses,
        queue_wait_ms=queue_wait_ms,
        plan_ms=plan_ms,
        compile_ms=compile_ms,
        execute_ms=execute_ms,
        worker=-1 if worker is None else worker,
        placement_hits=placement.hits if placement else 0,
        placement_misses=placement.misses if placement else 0,
        placement_hit_bytes=placement.hit_bytes if placement else 0,
        out_of_core=bool(placement and placement.out_of_core),
    )
    if isinstance(query, str) and result.optimizer is not None:
        plan_cache.record_strategy(query, database, token, result.optimizer.chosen)
    return result
