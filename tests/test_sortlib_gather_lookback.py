"""Tests for device sort, gather accounting, and the look-back scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import GTX970, MemoryLevel, TrafficMeter, VirtualCoprocessor
from repro.primitives import (
    account_gather,
    account_scatter,
    account_stream,
    device_radix_sort,
    device_segmented_reduce,
    lookback_positions,
    lrgp_positions,
    reference_positions,
)
from repro.primitives.gather import TRANSACTION_BYTES, random_access_volume


class TestRadixSort:
    def test_returns_sorting_permutation(self, device):
        keys = np.array([30, 10, 20, 10], dtype=np.int64)
        order = device_radix_sort(device, keys)
        assert keys[order].tolist() == [10, 10, 20, 30]

    def test_stable(self, device):
        keys = np.array([1, 0, 1, 0], dtype=np.int64)
        order = device_radix_sort(device, keys)
        assert order.tolist() == [1, 3, 0, 2]

    def test_pass_count_independent_of_value_range(self, device):
        """Library sorts process the full 32-bit key width, making the
        cost group-count independent (Experiment 2)."""
        device_radix_sort(device, np.arange(100, dtype=np.int64) % 2)
        small_range = len(device.log.kernels)
        device.reset()
        device_radix_sort(device, np.arange(100, dtype=np.int64) * 1000)
        large_range = len(device.log.kernels)
        assert small_range == large_range == 4

    def test_wide_keys_need_more_passes(self, device):
        device_radix_sort(device, np.array([2**40], dtype=np.int64))
        assert len(device.log.kernels) == 8

    def test_each_pass_streams_data_twice(self, device):
        n = 1000
        device_radix_sort(device, np.arange(n, dtype=np.int64), payload_bytes=4)
        element = 8 + 4 + 4  # key + index + payload
        for trace in device.log.kernels:
            assert trace.meter.reads[MemoryLevel.GLOBAL] >= n * element
            assert trace.meter.writes[MemoryLevel.GLOBAL] >= n * element


class TestSegmentedReduce:
    def test_two_kernels(self, device):
        device_segmented_reduce(device, 4, 4, 2)
        assert len(device.log.kernels) == 2
        kinds = {trace.kind for trace in device.log.kernels}
        assert kinds == {"reduce"}


class TestGatherAccounting:
    def test_gather_reads_indices_and_values(self):
        meter = TrafficMeter()
        account_gather(meter, 100, 4)
        assert meter.reads[MemoryLevel.GLOBAL] == 100 * 4 + 100 * 4
        assert meter.writes[MemoryLevel.GLOBAL] == 100 * 4

    def test_scatter_symmetry(self):
        meter = TrafficMeter()
        account_scatter(meter, 10, 8, read_indices=False)
        assert meter.reads[MemoryLevel.GLOBAL] == 80
        assert meter.writes[MemoryLevel.GLOBAL] == 80

    def test_stream_charges_ops(self):
        meter = TrafficMeter()
        account_stream(meter, 5, read_bytes=8, write_bytes=4, ops_per_element=3)
        assert meter.reads[MemoryLevel.GLOBAL] == 40
        assert meter.writes[MemoryLevel.GLOBAL] == 20
        assert meter.instructions == 15

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            account_gather(TrafficMeter(), -1, 4)


class TestRandomAccessVolume:
    def test_cached_structures_pay_itemsize(self):
        assert random_access_volume(10, 4, 1000, 2048) == 40

    def test_large_structures_pay_transactions(self):
        volume = random_access_volume(10, 4, 10_000_000, 2048)
        assert volume == 10 * TRANSACTION_BYTES

    def test_no_l2_means_no_amplification(self):
        assert random_access_volume(10, 4, 10_000_000, None) == 40

    def test_wide_items_not_double_charged(self):
        assert random_access_volume(10, 64, 10_000_000, 2048) == 640


class TestLookbackScan:
    def test_ordered_positions(self):
        rng = np.random.default_rng(1)
        flags = rng.random(3000) < 0.4
        meter = TrafficMeter()
        result = lookback_positions(meter, flags, rng)
        assert np.array_equal(result.positions, reference_positions(flags).positions)

    def test_no_atomics_but_global_descriptor_traffic(self):
        rng = np.random.default_rng(2)
        flags = np.ones(2560, dtype=bool)
        meter = TrafficMeter()
        lookback_positions(meter, flags, rng)
        assert meter.atomic_count == 0
        assert meter.bytes_at(MemoryLevel.GLOBAL) > 0

    def test_lrgp_uses_atomics_instead_of_lookback_reads(self):
        rng = np.random.default_rng(3)
        flags = np.ones(256 * 64, dtype=bool)
        meter_lb = TrafficMeter()
        lookback_positions(meter_lb, flags, rng)
        meter_lrgp = TrafficMeter()
        lrgp_positions(meter_lrgp, flags, GTX970, rng, "simd")
        assert meter_lrgp.atomic_count > 0
        assert meter_lb.bytes_at(MemoryLevel.GLOBAL) > meter_lrgp.bytes_at(
            MemoryLevel.GLOBAL
        )

    @given(st.lists(st.booleans(), max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_reference(self, flags):
        rng = np.random.default_rng(4)
        meter = TrafficMeter()
        result = lookback_positions(meter, np.array(flags, dtype=bool), rng)
        assert np.array_equal(
            result.positions, reference_positions(np.array(flags, dtype=bool)).positions
        )
