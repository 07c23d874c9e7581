"""Grouped-aggregation primitives: techniques C1, C2, C3 (Table 4).

Grouped aggregation (``GROUP BY``) reduces qualifying tuples into a
table of per-group aggregates.  The paper's three implementations:

* **C1 — sort-based, multi-pass** (pipeline breaker): global sort by
  key, then a segmented reduction over the sorted runs.  Used by the
  operator-at-a-time engine; its cost is dominated by the sort and is
  therefore independent of the group count (Experiment 2).
* **C2 — atomic hash reduce** (pipelined): every qualifying tuple
  performs one atomic RMW on a global aggregation hash table.  With few
  groups the per-group conflict chains explode (the contention cliff of
  Figure 18).
* **C3 — segmented pre-aggregation** (pipelined): each CTA sorts its
  slice in scratchpad, reduces segments locally, and inserts only one
  pre-aggregate per distinct (CTA, key) pair into the global table
  (Section 6.1, Figure 15c) — up to 126x faster at small group counts.

This module provides the shared factorization/reduction machinery plus
the C2/C3 cost accounting; C1 is assembled from :mod:`sortlib` by the
engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExpressionError
from ..hardware.profiles import DeviceProfile
from ..hardware.traffic import AtomicBatch, MemoryLevel, TrafficMeter
from .common import DEFAULT_CTA_SIZE, log2_ceil, num_blocks


#: Direct-address factorization applies while the key span (the product
#: of the per-key value ranges) is at most this many times the row count.
#: Measured against the sort path (numpy 2.4, 2-core x86_64 VM, int32
#: keys, 5-100% distinct): at a span of 4n the direct path is 1.9-3.8x
#: faster from 10k to 300k rows (two-key composites 2-7.5x); at 8n it
#: only ties in the worst case and at 16n it loses (0.65x).  Below ~1k
#: rows both take ~10 us either way.
_DIRECT_SPAN_PER_ROW = 4


def factorize(key_arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Map composite keys to dense group codes.

    Returns ``(codes, unique_keys)`` where ``codes[i]`` is the dense
    group id of row ``i`` and ``unique_keys[k][g]`` is the ``k``-th key
    component of group ``g``.  Group ids are assigned in sorted key
    order, making results deterministic across engines.
    """
    if not key_arrays:
        raise ExpressionError("factorize needs at least one key array")
    n = len(key_arrays[0])
    if any(len(array) != n for array in key_arrays):
        raise ExpressionError("key arrays must have equal length")
    if n == 0:
        return np.zeros(0, dtype=np.int64), [array[:0] for array in key_arrays]
    direct = direct_address_factorize(key_arrays)
    return direct if direct is not None else sort_factorize(key_arrays)


def direct_address_factorize(
    key_arrays: list[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """:func:`factorize` by direct addressing, or ``None`` when the keys
    do not qualify (a float key, or a span above the rule).

    Each row's keys combine into one offset in mixed radix, the first
    key most significant, so offset order is the sort path's key order.
    A presence bitmap over the span marks the occurring offsets; their
    ranks are the group codes.
    """
    n = len(key_arrays[0])
    limit = _DIRECT_SPAN_PER_ROW * n
    bounds = []
    span = 1
    for array in key_arrays:
        if array.dtype.kind not in "biu":
            return None
        low, high = int(array.min()), int(array.max())
        span *= high - low + 1
        if span > limit:
            return None
        bounds.append((low, high - low + 1))
    combined = _offsets(key_arrays[0], bounds[0][0])
    for array, (low, width) in zip(key_arrays[1:], bounds[1:]):
        combined *= width
        combined += _offsets(array, low)
    presence = np.zeros(span, dtype=bool)
    presence[combined] = True
    present = np.flatnonzero(presence)
    rank = np.empty(span, dtype=np.int64)
    rank[present] = np.arange(len(present), dtype=np.int64)
    uniques = []
    rest = present
    for array, (low, width) in reversed(list(zip(key_arrays, bounds))):
        rest, digit = np.divmod(rest, width)
        # Wraps in the key dtype, exact because every key fits it.
        uniques.append(digit.astype(array.dtype) + array.dtype.type(low))
    return rank[combined], uniques[::-1]


def _offsets(array: np.ndarray, low: int) -> np.ndarray:
    """``array - low`` as int64, exact for every integer dtype (uint64
    values above the int64 range subtract before the cast)."""
    if array.dtype == np.uint64:
        return (array - np.uint64(low)).astype(np.int64)
    return array.astype(np.int64) - low


def sort_factorize(key_arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """:func:`factorize` by sorting: the reference for every key type."""
    n = len(key_arrays[0])
    if len(key_arrays) == 1:
        uniques, inverse = np.unique(key_arrays[0], return_inverse=True)
        return inverse.astype(np.int64), [uniques]
    order = np.lexsort(tuple(reversed(key_arrays)))
    sorted_cols = [array[order] for array in key_arrays]
    boundary = np.zeros(n, dtype=bool)
    boundary[0] = True
    for column in sorted_cols:
        boundary[1:] |= column[1:] != column[:-1]
    group_of_sorted = np.cumsum(boundary) - 1
    codes = np.empty(n, dtype=np.int64)
    codes[order] = group_of_sorted
    uniques = [column[boundary] for column in sorted_cols]
    return codes, uniques


def grouped_reduce(codes: np.ndarray, num_groups: int, values: np.ndarray, op: str) -> np.ndarray:
    """Reduce ``values`` into ``num_groups`` buckets keyed by ``codes``.

    Integer sums accumulate in int64 and integer min/max in the value
    dtype, exact wherever float64's 53-bit mantissa is not (sums wrap
    past int64); other values reduce in float64.
    """
    if op == "count":
        return np.bincount(codes, minlength=num_groups).astype(np.int64)
    values = np.asarray(values)
    integer = np.issubdtype(values.dtype, np.integer)
    if op == "sum":
        if integer:
            out = np.zeros(num_groups, dtype=np.int64)
            np.add.at(out, codes, values.astype(np.int64, copy=False))
            return out
        return np.bincount(codes, weights=values.astype(np.float64), minlength=num_groups)
    if op in ("min", "max"):
        reduce_at = np.minimum.at if op == "min" else np.maximum.at
        if integer:
            info = np.iinfo(values.dtype)
            out = np.full(num_groups, info.max if op == "min" else info.min, dtype=values.dtype)
            reduce_at(out, codes, values)
            return out
        out = np.full(num_groups, np.inf if op == "min" else -np.inf)
        reduce_at(out, codes, values.astype(np.float64))
        return out
    raise ExpressionError(f"unknown aggregate {op!r}")


@dataclass
class HashAggregateCost:
    """Observed cost drivers of a pipelined hash aggregation."""

    inputs: int
    groups: int
    global_atomics: int
    max_chain: int


# ----------------------------------------------------------------------
# C2 — atomic hash reduce
# ----------------------------------------------------------------------
def atomic_hash_aggregate(
    meter: TrafficMeter,
    codes: np.ndarray,
    num_groups: int,
    entry_bytes: int,
) -> HashAggregateCost:
    """Account a per-tuple atomic hash-table update (C2).

    Every qualifying tuple performs one atomic RMW against its group's
    table entry, so the longest conflict chain is the population of the
    hottest group — with 2 groups that is ~n/2 serialized atomics, which
    is the cliff on the left of Figure 18.
    """
    n = len(codes)
    max_chain = int(np.bincount(codes, minlength=max(num_groups, 1)).max()) if n else 0
    meter.record_atomics(AtomicBatch(count=n, max_chain=max_chain, kind="rmw"))
    # Hash + probe instructions and the RMW traffic on the global table.
    meter.record_instructions(4 * n)
    meter.record_table_read(n * entry_bytes)
    meter.record_table_write(n * entry_bytes)
    return HashAggregateCost(
        inputs=n, groups=num_groups, global_atomics=n, max_chain=max_chain
    )


# ----------------------------------------------------------------------
# C3 — segmented pre-aggregation in scratchpad
# ----------------------------------------------------------------------
def segmented_hash_aggregate(
    meter: TrafficMeter,
    codes: np.ndarray,
    num_groups: int,
    entry_bytes: int,
    profile: DeviceProfile,
    cta_size: int = DEFAULT_CTA_SIZE,
) -> HashAggregateCost:
    """Account the sort-merge pre-aggregation of Figure 15c (C3).

    Each CTA sorts its slice by key in scratchpad (bitonic network),
    reduces segments, and inserts one pre-aggregate per distinct
    (CTA, key) pair into the global hash table.  The conflict chain per
    group therefore shrinks from its population to the number of CTAs
    that saw the group.
    """
    n = len(codes)
    blocks = num_blocks(n, cta_size)
    # Bitonic sort in scratchpad: ~log^2(cta)/2 compare-exchange stages.
    stages = log2_ceil(cta_size) * (log2_ceil(cta_size) + 1) // 2
    meter.record_read(MemoryLevel.ONCHIP, stages * n * entry_bytes)
    meter.record_write(MemoryLevel.ONCHIP, stages * n * entry_bytes)
    meter.record_instructions(stages * n)
    meter.record_barrier(blocks * stages)
    # Segmented reduce over the sorted slice.
    meter.record_read(MemoryLevel.ONCHIP, n * entry_bytes)
    meter.record_write(MemoryLevel.ONCHIP, n * entry_bytes)
    meter.record_instructions(2 * n)

    if n:
        cta_of = np.arange(n, dtype=np.int64) // cta_size
        pairs = np.unique(cta_of * max(num_groups, 1) + codes)
        distinct_pairs = len(pairs)
        pair_groups = pairs % max(num_groups, 1)
        max_chain = int(np.bincount(pair_groups, minlength=max(num_groups, 1)).max())
    else:
        distinct_pairs = 0
        max_chain = 0
    meter.record_atomics(AtomicBatch(count=distinct_pairs, max_chain=max_chain, kind="rmw"))
    meter.record_table_read(distinct_pairs * entry_bytes)
    meter.record_table_write(distinct_pairs * entry_bytes)
    return HashAggregateCost(
        inputs=n,
        groups=num_groups,
        global_atomics=distinct_pairs,
        max_chain=max_chain,
    )
