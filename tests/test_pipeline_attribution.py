"""Every kernel of a traced query is charged to a pipeline span.

EXPLAIN ANALYZE promises that the per-pipeline global bytes sum to the
profile's.  The result-side encode kernels issued in ``finalize`` and
the scale-out gather encodes run after their pipeline's span closed;
they are charged to that pipeline as its epilogue.
"""

from __future__ import annotations

import pytest

from repro.execution import ExecutionConfig, resolve_executor, run_query
from repro.hardware.traffic import MemoryLevel
from repro.telemetry import tracing
from repro.telemetry.explain import render_explain_analyze
from repro.workloads import ssb_plan, tpch_plan
from repro.workloads.ssb.queries import SSB_QUERIES
from repro.workloads.tpch.queries import PAPER_TPCH_SET


def _assert_attributed(result) -> None:
    pipelines = result.trace.spans("pipeline")
    assert sum(span.attrs["global_bytes"] for span in pipelines) == (
        result.profile.bytes_at(MemoryLevel.GLOBAL)
    )
    assert sum(span.attrs["kernels"] for span in pipelines) == len(
        result.profile.kernels
    )
    assert "WARNING" not in render_explain_analyze(result)


@pytest.mark.parametrize("compression", ["off", "auto", "lazy"])
def test_every_ssb_query_reconciles(ssb_db, compression):
    executor = resolve_executor(ExecutionConfig(compression=compression))
    with tracing(True):
        for name in sorted(SSB_QUERIES):
            _assert_attributed(run_query(executor, ssb_plan(name, ssb_db), ssb_db))


def test_fleet_gather_encodes_reconcile(tpch_db):
    executor = resolve_executor(
        ExecutionConfig(engine="multipass", devices=2, compression="lazy")
    )
    with tracing(True):
        for name in PAPER_TPCH_SET:
            _assert_attributed(run_query(executor, tpch_plan(name, tpch_db), tpch_db))
