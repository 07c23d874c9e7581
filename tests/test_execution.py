"""One execution path: the validated config, the resolver, the front end.

``Session`` and ``Server`` build the same :class:`ExecutionConfig`,
resolve it with the same ladder and run every query through the same
front end, so one configuration must give the same bytes and the same
simulated fingerprint from either; flight records carry the whole
config, so ``replay`` rebuilds it; and ``latency_ms`` is the one
simulated critical path.
"""

from __future__ import annotations

import itertools
import json
import os

import pytest

import repro.api
from repro.api import Session
from repro.errors import ConfigurationError
from repro.execution import ExecutionConfig, resolve_executor
from repro.faults import FaultPlan, RetryPolicy
from repro.hardware import NVLINK1, GTX970
from repro.serving import Server
from repro.telemetry import (
    FlightRecorder,
    replay_bundle,
    result_fingerprint,
    table_checksum,
)
from repro.telemetry.recorder import BUNDLE_MANIFEST
from repro.workloads import SSB_QUERIES, generate_ssb

GRID_QUERIES = ("q1.1", "q2.1", "q3.2")


@pytest.fixture(scope="module")
def ssb_small():
    return generate_ssb(0.002, seed=7)


# ----------------------------------------------------------------------
# ExecutionConfig
# ----------------------------------------------------------------------
class TestExecutionConfig:
    def test_round_trip(self):
        config = ExecutionConfig(
            device="gtx970",
            interconnect=NVLINK1,
            engine="multipass",
            devices=2,
            partitioning="hash",
            residency=True,
            compression="lazy",
            fault_plan={"specs": [], "seed": 5},
            retry_policy=RetryPolicy(max_retries=4),
        )
        data = config.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["compression"] == "lazy" and data["residency"] is True
        rebuilt = ExecutionConfig.from_dict(data)
        assert rebuilt.to_dict() == data
        assert rebuilt.device is GTX970
        assert rebuilt.interconnect is NVLINK1
        assert isinstance(rebuilt.fault_plan, FaultPlan)
        assert rebuilt.retry_policy == RetryPolicy(max_retries=4)

    def test_missing_keys_take_defaults(self):
        config = ExecutionConfig.from_dict(
            {"engine": "resolution", "device": "GTX970", "sql": "select 1"}
        )
        assert config == ExecutionConfig()

    def test_engine_instance_recorded_by_alias(self):
        from repro.engines import MultiPassEngine

        assert ExecutionConfig(engine=MultiPassEngine()).to_dict()["engine"] == "multipass"

    def test_validates_once_on_construction(self):
        with pytest.raises(ConfigurationError, match="unknown partitioning"):
            ExecutionConfig(partitioning="zigzag")
        with pytest.raises(ConfigurationError, match="unknown compression"):
            ExecutionConfig(compression="zip")
        with pytest.raises(ConfigurationError, match="retry_policy"):
            ExecutionConfig(retry_policy="nope")
        with pytest.raises(ConfigurationError, match="unknown interconnect"):
            ExecutionConfig.from_dict({"interconnect": "carrier pigeon"})

    def test_resolver_ladder(self):
        assert resolve_executor(ExecutionConfig(engine="auto")).auto is not None
        fleet = resolve_executor(ExecutionConfig(devices=2))
        assert fleet.scaleout is not None and fleet.pool is None
        armed = resolve_executor(ExecutionConfig(fault_plan={"specs": []}))
        assert armed.scaleout is not None
        pooled = resolve_executor(ExecutionConfig(residency=True))
        assert pooled.pool is pooled.device.placement_pool is not None
        plain = resolve_executor(ExecutionConfig())
        assert (plain.auto, plain.scaleout, plain.pool) == (None, None, None)


# ----------------------------------------------------------------------
# Session and Server: one path, same bytes
# ----------------------------------------------------------------------
GRID = list(
    itertools.product(("resolution", "auto"), (1, 2), ("off", "lazy"), (False, True))
)


@pytest.mark.parametrize("engine,devices,compression,residency", GRID)
def test_session_and_server_agree(ssb_small, engine, devices, compression, residency):
    config = dict(
        engine=engine, devices=devices, compression=compression, residency=residency
    )
    session = Session(ssb_small, **config)
    queries = [SSB_QUERIES[name] for name in GRID_QUERIES]
    expected = [session.execute(sql) for sql in queries]
    with Server(ssb_small, workers=1, **config) as server:
        served = [server.execute(sql) for sql in queries]
    for name, mine, theirs in zip(GRID_QUERIES, expected, served):
        assert table_checksum(mine.table) == table_checksum(theirs.table), name
        assert result_fingerprint(mine) == result_fingerprint(theirs), name


# ----------------------------------------------------------------------
# simulated latency
# ----------------------------------------------------------------------
def test_latency_ms_is_the_critical_path(ssb_small, tpch_db):
    from repro.workloads import tpch_plan

    cases = [(ssb_small, SSB_QUERIES[name]) for name in GRID_QUERIES]
    cases.append((tpch_db, tpch_plan("q17", tpch_db)))  # fleet fallback plan
    for database, query in cases:
        single = Session(database).execute(query)
        assert single.scaleout is None
        assert single.latency_ms == single.total_ms
        fleet = Session(database, devices=2).execute(query)
        assert fleet.latency_ms == fleet.scaleout.makespan_ms
        assert fleet.latency_ms <= fleet.total_ms


def test_auto_calibration_is_deterministic(ssb_small):
    """The calibrator observes the simulated critical path only (no
    host-clock merge time), so identical runs calibrate identically."""

    def run():
        session = Session(ssb_small, engine="auto", devices=2)
        observed = [
            session.execute(SSB_QUERIES[name]).optimizer.observed_ms
            for name in ("q2.1", "q1.1", "q2.1", "q4.1")
        ]
        return observed, session.auto.calibrator.snapshot()

    assert run() == run()


# ----------------------------------------------------------------------
# replay fidelity
# ----------------------------------------------------------------------
def test_replay_rebuilds_the_recorded_config(ssb_small, tmp_path, monkeypatch):
    recorder = FlightRecorder(
        postmortem_dir=str(tmp_path),
        database_recipe={"workload": "ssb", "scale_factor": 0.002, "seed": 7},
    )
    try:
        session = Session(
            ssb_small, compression="lazy", residency=True, recorder=recorder
        )
        session.execute(SSB_QUERIES["q1.1"])
        bundle = recorder.capture(recorder.last(), name="lazy-resident")
    finally:
        recorder.uninstall()
    manifest = json.load(open(os.path.join(bundle, BUNDLE_MANIFEST)))
    assert manifest["replay"]["compression"] == "lazy"
    assert manifest["replay"]["residency"] is True

    built = []

    class RecordingSession(Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(repro.api, "Session", RecordingSession)
    report = replay_bundle(bundle)
    assert report.matched, report.render()
    assert [replayed.config for replayed in built] == [session.config]
