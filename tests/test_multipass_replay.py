"""Multi-pass write kernels replay their count kernel's outcomes.

Every row a write kernel sees is flagged, so it already passed every
filter and probe of the count kernel.  The replaying write kernel takes
the count kernel's probe rows, payload values and compressed-scan plans
and charges what re-executing the primitives would cost.  Contexts built
without the replay source re-execute them and are the reference: every
count and write kernel, every meter field and every result byte must
match it.
"""

from __future__ import annotations

import pytest

from repro.execution import ExecutionConfig, resolve_executor
from repro.kernels.context import KernelContext
from repro.telemetry import table_checksum
from repro.workloads import ssb_plan, tpch_plan
from repro.workloads.ssb.queries import SSB_QUERIES
from repro.workloads.tpch.queries import PAPER_TPCH_SET


def _pass_kernels(result) -> list[tuple]:
    return [
        (trace.name, trace.kind, trace.elements, vars(trace.meter), trace.time_ms)
        for trace in result.profile.kernels
        if trace.kind in ("count", "write")
    ]


def _run(plans, database, compression: str, devices: int) -> list[tuple]:
    executor = resolve_executor(
        ExecutionConfig(engine="multipass", devices=devices, compression=compression)
    )
    runs = []
    for plan in plans:
        result = executor.execute(plan, database)
        runs.append((_pass_kernels(result), table_checksum(result.table)))
    return runs


def _assert_replay_matches(plans, database, compression, devices) -> None:
    replayed = _run(plans, database, compression, devices)
    original = KernelContext.__init__

    def reexecute(self, *args, replayable=False, replay=None, **kwargs):
        original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KernelContext, "__init__", reexecute)
        reference = _run(plans, database, compression, devices)
    for (kernels, checksum), (expected_kernels, expected_checksum) in zip(
        replayed, reference
    ):
        assert any(kind == "write" for _, kind, *_ in kernels)
        assert kernels == expected_kernels
        assert checksum == expected_checksum


@pytest.mark.parametrize("devices", [1, 2])
@pytest.mark.parametrize("compression", ["off", "auto", "lazy"])
def test_ssb_write_kernels_replay_exactly(ssb_db, compression, devices):
    plans = [ssb_plan(name, ssb_db) for name in sorted(SSB_QUERIES)]
    _assert_replay_matches(plans, ssb_db, compression, devices)


@pytest.mark.parametrize("devices", [1, 2])
@pytest.mark.parametrize("compression", ["off", "auto", "lazy"])
def test_tpch_write_kernels_replay_exactly(tpch_db, compression, devices):
    plans = [tpch_plan(name, tpch_db) for name in PAPER_TPCH_SET]
    _assert_replay_matches(plans, tpch_db, compression, devices)


def test_write_kernels_decide_compressed_scans_for_their_own_rows(
    ssb_db, tpch_db, monkeypatch
):
    """With decode priced at zero a compressed scan only pays over many
    rows, so write kernels (fewer rows alive) turn down scans their
    count kernels ran.  The replay still matches the reference."""
    from repro.compression.policy import CompressionPolicy

    monkeypatch.setattr(CompressionPolicy, "decode_factor", lambda self, codec: 0.0)
    for database, plan, names in (
        (ssb_db, ssb_plan, sorted(SSB_QUERIES)),
        (tpch_db, tpch_plan, PAPER_TPCH_SET),
    ):
        plans = [plan(name, database) for name in names]
        _assert_replay_matches(plans, database, "lazy", 1)
