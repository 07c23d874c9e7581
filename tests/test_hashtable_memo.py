"""Prepared join hash tables: the build memo and the direct-address probe.

Both are host shortcuts only.  Every table they serve must return the
rows the linear-probe loop returns and charge the meter exactly what
the loop charges, field by field.  A scalar linear probe written out
here is the independent reference for both.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.execution import ExecutionConfig, resolve_executor
from repro.hardware import GTX970, VirtualCoprocessor
from repro.primitives import hashtable
from repro.primitives.hashtable import (
    JoinHashTable,
    clear_hash_table_cache,
    hash_key_columns,
    hash_table_cache_stats,
)
from repro.telemetry.recorder import result_fingerprint
from repro.workloads import ssb_plan


@pytest.fixture(autouse=True)
def cold_memo():
    clear_hash_table_cache()
    yield
    clear_hash_table_cache()


def _reference_probe(table: JoinHashTable, probe_arrays) -> tuple[list, int]:
    """One probe at a time: walk from the home slot to a hit or an empty
    slot, counting every slot read."""
    homes = hash_key_columns(probe_arrays) & np.uint64(table.capacity - 1)
    rows, steps = [], 0
    for index, home in enumerate(homes.tolist()):
        slot = home
        while True:
            steps += 1
            row = int(table.slots[slot])
            if row < 0:
                rows.append(-1)
                break
            if all(
                build[row] == probe[index]
                for build, probe in zip(table.key_arrays, probe_arrays)
            ):
                rows.append(row)
                break
            slot = (slot + 1) % table.capacity
    return rows, steps


def _cold_and_warm(key_arrays, load_factor=0.5):
    """A first-sighting table (insert and probe loops) and a memo hit,
    each built on its own device."""
    clear_hash_table_cache()
    cold_device = VirtualCoprocessor(GTX970)
    cold = JoinHashTable.build(cold_device, key_arrays, load_factor=load_factor)
    JoinHashTable.build(VirtualCoprocessor(GTX970), key_arrays, load_factor=load_factor)
    warm_device = VirtualCoprocessor(GTX970)
    warm = JoinHashTable.build(warm_device, key_arrays, load_factor=load_factor)
    assert hash_table_cache_stats().hits == 1
    return (cold, cold_device), (warm, warm_device)


def _assert_same_work(key_arrays, probe_arrays, l2_capacity=None, load_factor=0.5):
    """Cold and warm tables build and probe identically, and both match
    the scalar reference.  Returns the warm table."""
    (cold, cold_device), (warm, warm_device) = _cold_and_warm(key_arrays, load_factor)
    assert vars(cold_device.log.kernels[-1].meter) == vars(
        warm_device.log.kernels[-1].meter
    )
    assert cold_device.peak_allocated == warm_device.peak_allocated
    assert np.array_equal(cold.slots, warm.slots)
    outcomes = []
    for table, device in ((cold, cold_device), (warm, warm_device)):
        meter = device.new_meter()
        rows = table.probe(meter, probe_arrays, l2_capacity)
        assert rows.dtype == np.int64
        outcomes.append((rows.tolist(), vars(meter)))
    assert outcomes[0] == outcomes[1]
    if len(probe_arrays[0]):
        rows, steps = _reference_probe(cold, probe_arrays)
        assert outcomes[0][0] == rows
        assert outcomes[0][1]["instructions"] == 4 * steps
    return warm


def _probed_directly(table: JoinHashTable) -> bool:
    """Whether a probe of ``table`` built the direct-address index."""
    return table._built._index is not None


INT_DTYPES = [np.int32, np.int64]


@given(
    low=st.integers(-100_000, 100_000),
    offsets=st.lists(st.integers(0, 3_000), max_size=300, unique=True),
    probe_offsets=st.lists(st.integers(-5_000, 8_000), max_size=500),
    build_dtype=st.sampled_from(INT_DTYPES),
    probe_dtype=st.sampled_from(INT_DTYPES),
    l2_capacity=st.sampled_from([None, 256, GTX970.l2_capacity]),
)
@settings(max_examples=120, deadline=None)
def test_property_direct_probe_matches_loop(
    low, offsets, probe_offsets, build_dtype, probe_dtype, l2_capacity
):
    """Negative keys, keys on both sides of the span, empty build and
    probe sides, int32/int64 on either side."""
    build = (low + np.array(offsets, dtype=np.int64)).astype(build_dtype)
    probe = (low + np.array(probe_offsets, dtype=np.int64)).astype(probe_dtype)
    span = int(build.max()) - int(build.min()) + 1 if len(build) else 0
    if len(probe):
        # Long enough a batch to pay for the index.
        probe = np.resize(probe, max(len(probe), span))
    warm = _assert_same_work([build], [probe], l2_capacity)
    dense = len(build) and span <= max(8 * warm.capacity, 65_536) and len(probe) >= span
    assert _probed_directly(warm) == bool(dense)


@pytest.mark.parametrize(
    "keys, span",
    [
        pytest.param(13, 1_500, id="part-by-brand-13-over-1500"),
        pytest.param(101, 10_000, id="part-by-category-101-over-10000"),
        pytest.param(2_557, 61_131, id="date-2557-over-61131"),
    ],
)
def test_sparse_ssb_builds_take_the_index(keys, span):
    """Small filtered builds over wide key ranges (SSB's filtered
    ``part``/``customer`` builds and its date dimension) span more than
    8 capacities but at most 65,536 keys: they take the index."""
    rng = np.random.default_rng(keys)
    interior = rng.choice(np.arange(1, span - 1), size=keys - 2, replace=False)
    build = np.concatenate([[1, span], 1 + interior]).astype(np.int32)
    probe = rng.integers(-50, span + 50, size=span + 100).astype(np.int32)
    probe[::7] = build[rng.integers(0, keys, size=len(probe[::7]))]
    warm = _assert_same_work([build], [probe], GTX970.l2_capacity)
    assert warm._built.span == span
    assert _probed_directly(warm)


@given(
    low=st.integers(-100_000, 100_000),
    offsets=st.lists(st.integers(0, 2_000), max_size=200, unique=True),
    probe_offsets=st.lists(st.integers(-3_000, 5_000), max_size=300),
    stride=st.sampled_from([1, 1_000]),
    kind=st.sampled_from(["inner", "anti", "left"]),
)
@settings(max_examples=80, deadline=None)
def test_property_per_row_steps_sum_to_the_charge(low, offsets, probe_offsets, stride, kind):
    """Per-row steps (kept by multi-pass count kernels) sum to the
    probe's total on the loop and on the direct index, for keys in and
    out of the span, negative keys, and the rows each join kind keeps."""
    build = low + stride * np.array(offsets, dtype=np.int64)
    probe = low + stride * np.array(probe_offsets, dtype=np.int64)
    span = int(build.max()) - int(build.min()) + 1 if len(build) else 0
    if len(probe) and span <= 65_536:
        probe = np.resize(probe, max(len(probe), span))
    (cold, cold_device), (warm, warm_device) = _cold_and_warm([build])
    for table, device in ((cold, cold_device), (warm, warm_device)):
        total = device.new_meter()
        rows = table.probe(total, [probe])
        meter = device.new_meter()
        kept, steps = table.probe(meter, [probe], per_row=True)
        assert np.array_equal(kept, rows) and vars(meter) == vars(total)
        assert steps.dtype == np.int32 and len(steps) == len(probe)
        if len(probe):
            assert steps.min() >= 1
        _, reference = _reference_probe(table, [probe]) if len(probe) else (None, 0)
        assert int(steps.sum()) == reference
        # A write kernel's flagged rows: the hits (inner), the misses
        # (anti) or every row (left) charge the steps they took.
        flagged = {"inner": rows >= 0, "anti": rows < 0, "left": np.ones(len(rows), bool)}[kind]
        charged = device.new_meter()
        table.charge_probe(charged, int(steps.sum(where=flagged, dtype=np.int64)))
        subset = device.new_meter()
        if flagged.any():
            table.probe(subset, [probe[flagged]])
        assert vars(charged) == vars(subset)
    assert _probed_directly(warm) == bool(len(build) and len(probe) and span <= 65_536)


def test_extreme_probe_keys_land_outside_the_span():
    build = np.arange(-500, 500, dtype=np.int64)
    info = np.iinfo(np.int64)
    extremes = [info.min, info.min + 1, -501, -500, 0, 499, 500, info.max - 1, info.max]
    probe = np.concatenate([np.array(extremes, dtype=np.int64), np.arange(-600, 600)])
    warm = _assert_same_work([build], [probe])
    assert _probed_directly(warm)


def test_short_probe_batches_take_the_loop():
    """A batch shorter than the key span does not pay for the index."""
    keys = [np.arange(0, 1_000, 2, dtype=np.int64)]
    warm = _assert_same_work(keys, [np.arange(0, 500, dtype=np.int64)])
    assert warm._built.span == 999 and not _probed_directly(warm)
    before = hash_table_cache_stats().bytes
    warm = _assert_same_work(keys, [np.arange(-10, 1_100, dtype=np.int64)])
    assert _probed_directly(warm)
    assert hash_table_cache_stats().bytes > before


def test_empty_build_side_misses_in_one_step():
    warm = _assert_same_work(
        [np.zeros(0, dtype=np.int64)], [np.arange(-5, 5, dtype=np.int64)]
    )
    assert warm._built.span is None


def test_full_table_keeps_the_loop():
    """With no empty slot a miss never ends, so hits go through the
    loop (which raises on the first miss, as it always has)."""
    build = np.arange(16, dtype=np.int64)
    warm = _assert_same_work([build], [build[::-1].copy()], load_factor=1.0)
    assert warm._built.span is None and not _probed_directly(warm)
    with pytest.raises(PlanError, match="did not converge"):
        warm.probe(VirtualCoprocessor(GTX970).new_meter(), [np.array([99])])


@pytest.mark.parametrize(
    "build, probe",
    [
        pytest.param(
            [np.arange(0, 200, dtype=np.int64)],
            [
                np.concatenate(
                    [
                        np.array([0, 5, 2**63 + 5, 2**64 - 1, 199], dtype=np.uint64),
                        np.arange(0, 300, dtype=np.uint64),
                    ]
                )
            ],
            id="uint64-probe",
        ),
        pytest.param(
            [np.arange(0, 50, dtype=np.float64) / 4],
            [np.arange(-10, 60, dtype=np.float64) / 4],
            id="float64",
        ),
        pytest.param(
            [np.array([0.1, 0.2, 0.30000001], dtype=np.float32)],
            [np.array([0.2, 0.3, 0.30000001], dtype=np.float32)],
            id="float32",
        ),
        pytest.param(
            [np.arange(0, 60, dtype=np.int64) // 3, np.arange(0, 60, dtype=np.int64) % 3],
            [np.arange(-3, 25, dtype=np.int64), np.arange(0, 28, dtype=np.int64) % 4],
            id="composite",
        ),
        pytest.param(
            [np.array([1, 10_000, 1_000_000], dtype=np.int64)],
            [np.arange(0, 2_000_000, 997, dtype=np.int64)],
            id="wide-span",
        ),
        pytest.param(
            [np.arange(0, 100, dtype=np.uint64)],
            [np.arange(0, 200, dtype=np.int64)],
            id="uint64-build",
        ),
    ],
)
def test_other_key_types_take_the_loop(build, probe, monkeypatch):
    def refuse(*args):
        raise AssertionError("direct-address probe used")

    monkeypatch.setattr(hashtable._DirectIndex, "probe", refuse)
    warm = _assert_same_work(build, probe)
    assert not _probed_directly(warm)
    if probe[0].dtype != np.uint64:
        assert warm._built.span is None


def test_duplicate_keys_raise_on_every_build():
    keys = [np.array([3, 1, 3], dtype=np.int64)]
    for _ in range(4):
        with pytest.raises(PlanError, match="duplicate keys"):
            JoinHashTable.build(VirtualCoprocessor(GTX970), keys)
        device = VirtualCoprocessor(GTX970)
        with pytest.raises(PlanError, match="duplicate keys"):
            JoinHashTable.build_pipelined(device.new_meter(), device, keys)
    stats = hash_table_cache_stats()
    assert stats.admissions == 0 and stats.hits == 0 and stats.size == 0


class TestMemo:
    def test_admits_on_second_sighting(self):
        keys = [np.arange(100, dtype=np.int64)]
        JoinHashTable.build(VirtualCoprocessor(GTX970), keys)
        first = hash_table_cache_stats()
        assert (first.misses, first.admissions, first.size) == (1, 0, 0)
        JoinHashTable.build(VirtualCoprocessor(GTX970), keys)
        second = hash_table_cache_stats()
        assert (second.misses, second.admissions, second.size) == (2, 1, 1)
        assert second.bytes == 256 * 4  # int32 slots only: no index yet
        device = VirtualCoprocessor(GTX970)
        table = JoinHashTable.build_pipelined(device.new_meter(), device, keys)
        table.probe(device.new_meter(), [np.arange(-20, 120)])
        third = hash_table_cache_stats()
        assert (third.hits, third.misses) == (1, 2)
        assert third.bytes > second.bytes  # the probe index, built lazily

    def test_key_is_the_build_not_the_name(self):
        keys = np.arange(40, dtype=np.int64)
        JoinHashTable.build(VirtualCoprocessor(GTX970), [keys], name="a")
        JoinHashTable.build(VirtualCoprocessor(GTX970), [keys.copy()], name="b")
        JoinHashTable.build(VirtualCoprocessor(GTX970), [keys.astype(np.int32)])
        JoinHashTable.build(VirtualCoprocessor(GTX970), [keys], load_factor=0.25)
        stats = hash_table_cache_stats()
        assert stats.admissions == 1 and stats.hits == 0

    def test_entries_are_read_only(self):
        keys = [np.arange(64, dtype=np.int64)]
        for _ in range(3):
            table = JoinHashTable.build(VirtualCoprocessor(GTX970), keys)
        table.probe(VirtualCoprocessor(GTX970).new_meter(), [np.arange(100)])
        index = table._built._index
        for array in (table.slots, index.packed, index.run):
            assert array.dtype == np.int32
            with pytest.raises(ValueError):
                array[0] = 7

    def test_lru_bound(self, monkeypatch):
        monkeypatch.setattr(hashtable, "HASH_TABLE_CACHE_CAPACITY", 2)
        for start in range(3):
            keys = [np.arange(start, start + 20, dtype=np.int64)]
            for _ in range(2):
                JoinHashTable.build(VirtualCoprocessor(GTX970), keys)
        stats = hash_table_cache_stats()
        assert (stats.admissions, stats.evictions, stats.size) == (3, 1, 2)
        clear_hash_table_cache()
        assert hash_table_cache_stats() == hashtable.HashTableCacheStats(0, 0, 0, 0, 0, 0)


def test_concurrent_broadcast_builds_are_identical():
    """Two devices building one broadcast table at once, cold, at the
    admission and from the memo."""
    keys = [np.random.default_rng(3).permutation(5_000).astype(np.int64)]
    probe = [np.arange(-100, 5_100, dtype=np.int64)]
    for _ in range(4):
        devices = [VirtualCoprocessor(GTX970) for _ in range(2)]
        tables = [None, None]
        barrier = threading.Barrier(2)

        def build(lane):
            barrier.wait()
            tables[lane] = JoinHashTable.build(devices[lane], keys, name="dim")

        threads = [threading.Thread(target=build, args=(lane,)) for lane in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert np.array_equal(tables[0].slots, tables[1].slots)
        assert vars(devices[0].log.kernels[-1].meter) == vars(
            devices[1].log.kernels[-1].meter
        )
        meters = [device.new_meter() for device in devices]
        rows = [table.probe(meter, probe) for table, meter in zip(tables, meters)]
        assert np.array_equal(rows[0], rows[1])
        assert vars(meters[0]) == vars(meters[1])
    assert hash_table_cache_stats().hits >= 2


def test_memo_counters_survive_thread_stress(monkeypatch):
    """More builder threads than cores over a small memo: every build is
    counted exactly once and every table matches its cold twin."""
    monkeypatch.setattr(hashtable, "HASH_TABLE_CACHE_CAPACITY", 3)
    key_sets = [[np.arange(start, start + 300, dtype=np.int64)] for start in range(6)]
    expected = [
        JoinHashTable._insert_all(keys, "cold", 0.5)[0].tolist() for keys in key_sets
    ]
    clear_hash_table_cache()
    builds_per_thread, errors = 40, []

    def hammer(lane):
        try:
            device = VirtualCoprocessor(GTX970)
            for step in range(builds_per_thread):
                which = (lane + step) % len(key_sets)
                table = JoinHashTable.build(device, key_sets[which])
                assert table.slots.tolist() == expected[which]
                device.free(table.slots_buffer)
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(lane,)) for lane in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    stats = hash_table_cache_stats()
    assert stats.hits + stats.misses == 8 * builds_per_thread
    assert stats.size <= 3 and stats.admissions - stats.evictions == stats.size


def test_fleet_query_is_identical_cold_and_memoized(ssb_db):
    """A two-device query gives the same table and simulated numbers
    whether its broadcast builds run cold or come from the memo."""
    plan = ssb_plan("q2.1", ssb_db)
    runs = []
    for _ in range(3):
        executor = resolve_executor(ExecutionConfig(devices=2))
        result = executor.execute(plan, ssb_db)
        runs.append((result_fingerprint(result), result.table.sorted_rows()))
    assert runs[0] == runs[1] == runs[2]
    assert hash_table_cache_stats().hits > 0
