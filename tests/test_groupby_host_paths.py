"""Differential tests for the host fast paths of the pipeline breakers.

* Direct-address ``factorize`` must give exactly the sort path's codes
  and unique keys (``np.unique`` order, ``lexsort`` order for composite
  keys), and must decline float keys and spans above its rule.
* The charge-only C1 sort and B1 reduce must launch kernel for kernel
  what ``device_radix_sort`` / ``device_reduce`` launch.
* ``reference_positions`` must match the sequential reference loop.
* Integer grouped sum/min/max must be exact beyond float64's 53 bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.hardware import GTX970, VirtualCoprocessor
from repro.primitives import grouped_reduce, reference_positions, sequential_prefix_sum
from repro.primitives.reduce import charge_reduce, device_reduce
from repro.primitives.segmented import (
    _DIRECT_SPAN_PER_ROW,
    direct_address_factorize,
    factorize,
    sort_factorize,
)
from repro.primitives.sortlib import charge_group_sort, device_radix_sort
from repro.storage.database import Database
from repro.storage.table import Column, Table

KEY_DTYPES = (
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.bool_,
)


def assert_same_factorization(actual, expected):
    codes, uniques = actual
    ref_codes, ref_uniques = expected
    assert codes.dtype == np.int64
    assert codes.tolist() == ref_codes.tolist()
    assert len(uniques) == len(ref_uniques)
    for unique, ref in zip(uniques, ref_uniques):
        assert unique.dtype == ref.dtype
        assert unique.tolist() == ref.tolist()


@st.composite
def key_column(draw, n):
    """An integer/bool key column of ``n`` rows over a narrow range at a
    random place in the dtype's range (extremes and negatives included)."""
    dtype = np.dtype(draw(st.sampled_from(KEY_DTYPES)))
    if dtype == np.bool_:
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    info = np.iinfo(dtype)
    width = draw(st.integers(0, 12))
    low = draw(
        st.one_of(
            st.just(int(info.min)),
            st.just(int(info.max) - width),
            st.integers(int(info.min), int(info.max) - width),
        )
    )
    offsets = draw(st.lists(st.integers(0, width), min_size=n, max_size=n))
    return np.array([low + offset for offset in offsets], dtype=dtype)


@st.composite
def key_sets(draw):
    n = draw(st.integers(1, 40))
    keys = draw(st.integers(1, 5))
    return [draw(key_column(n)) for _ in range(keys)]


class TestDirectAddressFactorize:
    @settings(max_examples=300, deadline=None)
    @given(key_sets())
    def test_matches_sort_path(self, key_arrays):
        n = len(key_arrays[0])
        span = 1
        for array in key_arrays:
            span *= int(array.max()) - int(array.min()) + 1
        direct = direct_address_factorize(key_arrays)
        assert (direct is not None) == (span <= _DIRECT_SPAN_PER_ROW * n)
        reference = sort_factorize(key_arrays)
        assert_same_factorization(factorize(key_arrays), reference)
        if direct is not None:
            assert_same_factorization(direct, reference)

    @pytest.mark.parametrize("dtype", KEY_DTYPES)
    def test_single_valued(self, dtype):
        keys = [np.full(7, 1, dtype=dtype)]
        direct = direct_address_factorize(keys)
        assert direct is not None
        assert_same_factorization(direct, sort_factorize(keys))

    def test_empty(self):
        codes, uniques = factorize([np.zeros(0, dtype=np.int32), np.zeros(0, dtype=bool)])
        assert codes.dtype == np.int64 and len(codes) == 0
        assert [unique.dtype for unique in uniques] == [np.int32, np.bool_]

    @pytest.mark.parametrize("dtype", (np.int32, np.int64, np.uint64))
    def test_span_rule_boundary(self, dtype):
        """A span of exactly the limit goes direct; one more declines."""
        n = 50
        limit = _DIRECT_SPAN_PER_ROW * n
        inside = np.arange(n, dtype=np.int64) * (limit - 1) // (n - 1)
        outside = np.arange(n, dtype=np.int64) * limit // (n - 1)
        for values, direct in ((inside, True), (outside, False)):
            keys = [values.astype(dtype)]
            assert (direct_address_factorize(keys) is not None) == direct
            assert_same_factorization(factorize(keys), sort_factorize(keys))

    def test_composite_span_is_the_product(self):
        n = 40
        limit = _DIRECT_SPAN_PER_ROW * n  # 160 = 16 * 10
        first = np.arange(n, dtype=np.int32) % 16
        second = np.arange(n, dtype=np.int16) % 10
        assert direct_address_factorize([first, second]) is not None
        assert direct_address_factorize([first, second, second % 2]) is None
        wider = second.copy()
        wider[0] = 10  # span 16 * 11 > limit
        assert 16 * 11 > limit
        assert direct_address_factorize([first, wider]) is None
        assert_same_factorization(factorize([first, wider]), sort_factorize([first, wider]))

    def test_first_key_is_most_significant(self):
        first = np.array([2, 1, 2, 1], dtype=np.int8)
        second = np.array([0, 3, -3, 3], dtype=np.int64)
        codes, uniques = direct_address_factorize([first, second])
        assert codes.tolist() == [2, 0, 1, 0]
        assert uniques[0].tolist() == [1, 2, 2]
        assert uniques[1].tolist() == [3, -3, 0]

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_float_keys_take_the_sort_path(self, dtype):
        floats = np.array([1.0, 0.5, 1.0], dtype=dtype)
        ints = np.array([0, 1, 0], dtype=np.int32)
        assert direct_address_factorize([floats]) is None
        assert direct_address_factorize([ints, floats]) is None
        assert_same_factorization(factorize([ints, floats]), sort_factorize([ints, floats]))


def kernel_records(device):
    return [
        (trace.name, trace.kind, trace.elements, vars(trace.meter), trace.time_ms, trace.bound_by)
        for trace in device.log.kernels
    ]


class TestChargeOnlyBreakers:
    @pytest.mark.parametrize("payload_bytes", (0, 4, 12))
    @pytest.mark.parametrize("rows,groups", ((0, 0), (1, 1), (5, 2), (1000, 1000), (4096, 3)))
    def test_group_sort_matches_radix_sort(self, rows, groups, payload_bytes):
        codes = np.arange(rows, dtype=np.int64) % max(groups, 1)
        sorted_device = VirtualCoprocessor(GTX970)
        device_radix_sort(sorted_device, codes, payload_bytes=payload_bytes, label="q.group_sort")
        charged_device = VirtualCoprocessor(GTX970)
        charge_group_sort(charged_device, rows, groups, payload_bytes=payload_bytes, label="q.group_sort")
        assert kernel_records(charged_device) == kernel_records(sorted_device)

    def test_group_sort_wide_codes_take_eight_passes(self):
        """Codes past int32 (num_groups - 1 >= 2**31) sort in 8 passes;
        only the extreme codes matter to the radix sort's charge."""
        sorted_device = VirtualCoprocessor(GTX970)
        device_radix_sort(sorted_device, np.array([0, 2**31], dtype=np.int64))
        charged_device = VirtualCoprocessor(GTX970)
        charge_group_sort(charged_device, 2, 2**31 + 1)
        assert len(charged_device.log.kernels) == 8
        assert kernel_records(charged_device) == kernel_records(sorted_device)

    @pytest.mark.parametrize("dtype", (np.int32, np.int64, np.float64))
    @pytest.mark.parametrize("n", (0, 1, 255, 256, 10_000))
    def test_reduce_matches_device_reduce(self, dtype, n):
        values = np.arange(n).astype(dtype)
        reduced_device = VirtualCoprocessor(GTX970)
        device_reduce(reduced_device, values, label="q.total")
        charged_device = VirtualCoprocessor(GTX970)
        charge_reduce(charged_device, n, values.dtype.itemsize, label="q.total")
        assert kernel_records(charged_device) == kernel_records(reduced_device)


class TestReferencePositions:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), max_size=300))
    def test_matches_sequential_loop(self, flags):
        scan = reference_positions(np.array(flags, dtype=bool))
        assert scan.positions.dtype == np.int64
        assert scan.positions.tolist() == sequential_prefix_sum(flags)
        assert scan.total == sum(flags)


class TestExactIntegerGroupedReduce:
    def test_sum_past_float53(self):
        values = np.array([2**53 + 1, 1], dtype=np.int64)
        assert grouped_reduce(np.zeros(2, dtype=np.int64), 1, values, "sum").tolist() == [2**53 + 2]

    @pytest.mark.parametrize("op,expected", (("min", 2**62 + 1), ("max", 2**62 + 3)))
    def test_min_max_past_float53(self, op, expected):
        values = np.array([2**62 + 3, 2**62 + 1], dtype=np.int64)
        out = grouped_reduce(np.zeros(2, dtype=np.int64), 1, values, op)
        assert out.dtype == np.int64
        assert out.tolist() == [expected]

    def test_uint64_max(self):
        values = np.array([2**64 - 2, 2**64 - 1, 3], dtype=np.uint64)
        out = grouped_reduce(np.array([0, 0, 1]), 2, values, "max")
        assert out.dtype == np.uint64
        assert out.tolist() == [2**64 - 1, 3]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(-(2**60), 2**60)), min_size=1, max_size=60))
    def test_property_matches_python(self, rows):
        codes = np.array([code for code, _ in rows], dtype=np.int64)
        values = np.array([value for _, value in rows], dtype=np.int64)
        groups = 5
        expected = {
            "sum": [sum(v for c, v in rows if c == g) for g in range(groups)],
            "min": [min((v for c, v in rows if c == g), default=None) for g in range(groups)],
            "max": [max((v for c, v in rows if c == g), default=None) for g in range(groups)],
        }
        for op, want in expected.items():
            got = grouped_reduce(codes, groups, values, op).tolist()
            assert [g for g, w in zip(got, want) if w is not None] == [w for w in want if w is not None]

    @pytest.mark.parametrize(
        "engine,devices",
        (("operator-at-a-time", 1), ("multipass", 1), ("resolution", 1), ("resolution", 2)),
    )
    def test_grouped_query_is_exact(self, engine, devices):
        """End to end, through ``aggregate_rows`` and the scale-out merge."""
        keys = np.array([1, 1, 2, 2, 1, 2], dtype=np.int64)
        values = np.array(
            [2**53 + 1, 1, 2**62 + 3, 2**62 + 1, 2, -(2**53) - 1], dtype=np.int64
        )
        db = Database({"t": Table({"k": Column.int64(keys), "v": Column.int64(values)})})
        session = repro.connect(db, engine=engine, devices=devices)
        rows = session.execute(
            "select k, sum(v) as s, min(v) as lo, max(v) as hi from t group by k"
        ).table.sorted_rows()
        assert [tuple(int(x) for x in row) for row in rows] == [
            (1, 2**53 + 4, 1, 2**53 + 1),
            (2, 2 * 2**62 + 4 - 2**53 - 1, -(2**53) - 1, 2**62 + 3),
        ]
