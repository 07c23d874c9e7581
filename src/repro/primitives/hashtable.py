"""Open-addressing join hash tables with simulated atomic inserts.

State-of-the-art GPU joins build a hash table over the (smaller) build
side in GPU global memory and probe it from the pipeline (Karnagel et
al., cited in Section 6).  Inserts use atomic compare-and-swap to claim
slots; probes are random global-memory reads — both are accounted here.

The table stores *row indices* into the build-side key columns, so
composite keys are compared exactly (no lossy packing).  Build keys
must be unique (all joins in the evaluated workloads are PK-FK joins or
joins against aggregated subplans); duplicate keys raise ``PlanError``.

Host fast path.  The simulated work of a build (insert attempts,
contention) and of a probe (linear-probe steps) is a pure function of
the build keys and the probe keys, so the host need not redo it to
charge it.  A process-wide memo keyed by a digest of the build keys
keeps the insert outcome of builds seen at least twice, and lazily an
exact direct-address probe index for single integer keys over a dense
or small span.  Every build and probe still charges the meter exactly
what the insert and probe loops below count; those loops remain the
reference and serve every table the fast path does not cover.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import PlanError
from ..hardware.device import VirtualCoprocessor
from ..hardware.traffic import AtomicBatch, MemoryLevel, TrafficMeter
from .gather import random_access_volume

#: Row indices are stored as 4-byte ints, as a real GPU build would.
_SLOT_BYTES = 4

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(h: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer — a strong, cheap 64-bit mixer.  Mixes
    the uint64 array ``h`` in place and returns it."""
    shifted = np.empty_like(h)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        h ^= np.right_shift(h, np.uint64(shift), out=shifted)
        h *= np.uint64(multiplier)
    h ^= np.right_shift(h, np.uint64(31), out=shifted)
    return h


def _key_bits(array: np.ndarray) -> np.ndarray:
    """A 64-bit pattern per key value (bit view for floats, so equal
    floats hash equally without lossy integer truncation)."""
    if array.dtype.kind == "f":
        return array.astype(np.float64).view(np.uint64)
    return array.astype(np.uint64)


def hash_key_columns(key_arrays: list[np.ndarray]) -> np.ndarray:
    """Combine one or more key columns into 64-bit hashes."""
    if not key_arrays:
        raise PlanError("hash join needs at least one key column")
    combined = None
    for array in key_arrays:
        mixed = _key_bits(array) * _GOLDEN
        if combined is not None:
            mixed ^= combined
        combined = _splitmix64(mixed)
    return combined


def _next_power_of_two(value: int) -> int:
    power = 16
    while power < value:
        power *= 2
    return power


#: Direct-address probes cover build keys whose span (max - min + 1) is
#: at most this many table capacities (SSB's yyyymmdd date keys: 2,557
#: keys over a span of 61,131 in 8,192 slots), or at most
#: ``_SPAN_FLOOR`` keys (256 KiB of packed int32 entries) for small
#: filtered builds over wide key ranges (SSB ``part`` by brand: 101
#: keys over a span of ~10,000 in 256 slots).
_SPAN_FACTOR = 8
_SPAN_FLOOR = 1 << 16


def _exact_int(dtype: np.dtype) -> bool:
    """Integer keys whose every value is exact in int64."""
    return dtype.kind == "i" or (dtype.kind == "u" and dtype.itemsize < 8)


class _DirectIndex:
    """Exact probe outcomes for one integer build key column.

    ``packed[key - low]`` holds ``(row + 1) << shift | steps`` for every
    key of the build span: the build row (-1 for a miss) and the steps
    the linear probe takes — displacement + 1 for a hit, distance to
    the first empty slot + 1 for a miss.  One trailing zero entry
    stands for every key outside the span; ``run[slot]`` (the miss
    steps from any slot) prices those keys from their home slot.
    """

    __slots__ = ("low", "span", "shift", "packed", "run")

    def __init__(self, low: int, span: int, shift: int, packed, run):
        # The offset of a key is computed in wrapping uint64 arithmetic,
        # so keys below ``low`` land beyond ``span`` as well.
        self.low = np.uint64(low & 0xFFFFFFFFFFFFFFFF)
        self.span = np.uint64(span)
        self.shift = shift
        self.packed = packed
        self.run = run

    @property
    def nbytes(self) -> int:
        return self.packed.nbytes + self.run.nbytes

    @classmethod
    def prepare(cls, keys: np.ndarray, slots: np.ndarray, span: int) -> "_DirectIndex | None":
        """The index for ``keys`` (span ``span``) in ``slots``; ``None``
        when a packed entry would not fit in int32."""
        capacity = len(slots)
        low = int(keys.min())
        empty = np.flatnonzero(slots < 0)
        positions = np.arange(capacity, dtype=np.int64)
        next_empty = empty[np.searchsorted(empty, positions) % empty.size]
        run = (next_empty - positions) % capacity + 1
        home = hash_key_columns([np.arange(low, low + span, dtype=np.int64)])
        home = (home & np.uint64(capacity - 1)).astype(np.int64)
        steps = np.zeros(span + 1, dtype=np.int64)
        steps[:span] = run[home]
        rows = np.full(span + 1, -1, dtype=np.int64)
        occupied = np.flatnonzero(slots >= 0)
        built = slots[occupied].astype(np.int64)
        offset = keys[built].astype(np.int64) - low
        steps[offset] = (occupied - home[offset]) % capacity + 1
        rows[offset] = built
        shift = int(steps.max()).bit_length()
        if (len(keys) + 1) << shift > np.iinfo(np.int32).max:
            return None
        packed = ((rows + 1) << shift | steps).astype(np.int32)
        run = run.astype(np.int32)
        packed.flags.writeable = False
        run.flags.writeable = False
        return cls(low, span, shift, packed, run)

    def probe(self, keys: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
        """Build rows (-1 for misses) and the linear-probe steps of
        each key (int32)."""
        offset = keys.astype(np.int64).view(np.uint64)
        offset -= self.low
        outside = None
        if offset.max() >= self.span:
            outside = np.flatnonzero(offset >= self.span)
            np.minimum(offset, self.span, out=offset)
        packed = self.packed[offset.view(np.int64)]
        rows = np.subtract(packed >> self.shift, 1, dtype=np.int64)
        packed &= (1 << self.shift) - 1
        if outside is not None:
            # Keys outside the span miss: walk from their home slot.
            home = hash_key_columns([keys[outside]]) & np.uint64(capacity - 1)
            packed[outside] = self.run[home.astype(np.int64)]
        return rows, packed


def _direct_span(key_arrays: list[np.ndarray], capacity: int) -> int | None:
    """The key span when a direct-address index may serve the table:
    one exact integer key column, a span of at most ``_SPAN_FACTOR``
    capacities or ``_SPAN_FLOOR`` keys, and an empty slot (misses must
    end somewhere)."""
    if len(key_arrays) != 1:
        return None
    keys = key_arrays[0]
    if not keys.size or keys.size >= capacity or not _exact_int(keys.dtype):
        return None
    span = int(keys.max()) - int(keys.min()) + 1
    return span if span <= max(_SPAN_FACTOR * capacity, _SPAN_FLOOR) else None


class _PreparedBuild:
    """One insert outcome (``slots`` read-only) and, for memoized
    builds, the lazily built :class:`_DirectIndex`.

    The index holds 4 bytes per span key for as long as the entry
    lives, so only a probe batch at least as long as the key span
    builds it; shorter batches take the probe loop and cost the memo
    no index bytes.  Small fact tables probing wide date-range builds
    are what this keeps out (see docs/cost_model.md for the measured
    memory and latency on both sides)."""

    __slots__ = ("slots", "capacity", "attempts", "max_contention", "span", "_index")

    def __init__(self, key_arrays, slots, capacity, attempts, max_contention, memoized):
        slots.flags.writeable = False
        self.slots = slots
        self.capacity = capacity
        self.attempts = attempts
        self.max_contention = max_contention
        #: Key span the direct-address index would cover (``None``: the
        #: loop serves every probe).
        self.span = _direct_span(key_arrays, capacity) if memoized else None
        self._index = None

    def direct_index(self, key_arrays: list[np.ndarray], probe_rows: int) -> _DirectIndex | None:
        if self._index is None:
            if self.span is None or probe_rows < self.span:
                return None
            # Racing threads compute equal indexes; either one may win.
            self._index = _DirectIndex.prepare(key_arrays[0], self.slots, self.span)
            if self._index is None:
                self.span = None
        return self._index

    @property
    def nbytes(self) -> int:
        index = self._index
        return self.slots.nbytes + (index.nbytes if index is not None else 0)


@dataclass(frozen=True)
class HashTableCacheStats:
    """Counters of the prepared-build memo (see
    :func:`hash_table_cache_stats`)."""

    hits: int
    misses: int
    admissions: int
    evictions: int
    size: int
    bytes: int


#: Prepared builds are pure functions of the build keys and the load
#: factor, so a digest of those is the memo key.  A digest is admitted
#: the second time it is seen: ad-hoc literals make most one-off build
#: sets new, while dimension and broadcast builds repeat.  Bounded LRU
#: guarded by a lock, like the kernel cache.
HASH_TABLE_CACHE_CAPACITY = 256
_memo_lock = threading.Lock()
_memo: "OrderedDict[bytes, _PreparedBuild]" = OrderedDict()
#: Digests seen once, awaiting a second sighting (bounded the same way).
_seen: "OrderedDict[bytes, None]" = OrderedDict()
_memo_counts = {"hits": 0, "misses": 0, "admissions": 0, "evictions": 0}


def hash_table_cache_stats() -> HashTableCacheStats:
    """Process-wide memo counters (see :class:`HashTableCacheStats`)."""
    with _memo_lock:
        return HashTableCacheStats(
            **_memo_counts,
            size=len(_memo),
            bytes=sum(entry.nbytes for entry in _memo.values()),
        )


def clear_hash_table_cache() -> None:
    """Drop every prepared build and reset the counters (benchmarks
    that measure cold runs, tests)."""
    with _memo_lock:
        _memo.clear()
        _seen.clear()
        for key in _memo_counts:
            _memo_counts[key] = 0


def _build_digest(key_arrays: list[np.ndarray], load_factor: float) -> bytes:
    hasher = hashlib.blake2b(digest_size=16)
    shape = [(array.dtype.str, len(array)) for array in key_arrays]
    hasher.update(repr((float(load_factor), shape)).encode())
    for array in key_arrays:
        hasher.update(array)
    return hasher.digest()


class JoinHashTable:
    """An open-addressing (linear probing) hash table over build rows.

    Created via :meth:`build`, which simulates the build kernel on a
    device; probed via :meth:`probe`, which accounts its traffic into
    the probing kernel's meter (probes happen *inside* pipelines).
    """

    def __init__(self, key_arrays: list[np.ndarray], built: _PreparedBuild, name: str):
        self.key_arrays = key_arrays
        self.name = name
        #: The insert outcome (shared with the memo when it holds it).
        self._built = built
        #: Device buffer backing ``slots`` (set by the build paths so
        #: error handling can free a half-built table).
        self.slots_buffer = None

    # ------------------------------------------------------------------
    @property
    def slots(self) -> np.ndarray:
        """Build row per slot (-1 for empty slots); read-only."""
        return self._built.slots

    @property
    def capacity(self) -> int:
        return self._built.capacity

    @property
    def num_rows(self) -> int:
        return len(self.key_arrays[0])

    @property
    def entry_bytes(self) -> int:
        """Bytes read to inspect one slot: row index + stored key."""
        return _SLOT_BYTES + sum(array.dtype.itemsize for array in self.key_arrays)

    @property
    def table_bytes(self) -> int:
        """Global-memory footprint of the slot array."""
        return self.capacity * _SLOT_BYTES

    # ------------------------------------------------------------------
    @classmethod
    def _insert_all(
        cls, key_arrays: list[np.ndarray], name: str, load_factor: float
    ) -> tuple[np.ndarray, int, int, int]:
        """Shared insert loop: returns (slots, capacity, attempts,
        max same-slot contention)."""
        n = len(key_arrays[0])
        if any(len(array) != n for array in key_arrays):
            raise PlanError("join key columns must have equal length")
        capacity = _next_power_of_two(max(16, int(n / load_factor)))
        mask = np.uint64(capacity - 1)

        slots = np.full(capacity, -1, dtype=np.int32)
        hashes = hash_key_columns(key_arrays)
        position = (hashes & mask).astype(np.int64)
        pending = np.arange(n, dtype=np.int64)
        attempts = 0
        max_slot_contention = 0
        rounds = 0
        while pending.size:
            rounds += 1
            if rounds > capacity + 1:
                raise PlanError(f"hash table {name!r} insert did not converge")
            target = position[pending]
            occupant = slots[target]
            occupied = occupant >= 0
            # Duplicate-key check: an occupied slot holding an equal key
            # is a duplicate build key.
            if occupied.any():
                dup_rows = pending[occupied]
                dup_slots = occupant[occupied]
                equal = np.ones(len(dup_rows), dtype=bool)
                for array in key_arrays:
                    equal &= array[dup_slots] == array[dup_rows]
                if equal.any():
                    raise PlanError(
                        f"duplicate keys in build side of hash table {name!r}"
                    )
            free_rows = pending[~occupied]
            free_targets = target[~occupied]
            attempts += len(pending)
            if free_rows.size:
                contention = np.bincount(free_targets)
                max_slot_contention = max(max_slot_contention, int(contention.max()))
                unique_targets, winner_index = np.unique(free_targets, return_index=True)
                slots[unique_targets] = free_rows[winner_index]
                won = np.zeros(len(free_rows), dtype=bool)
                won[winner_index] = True
                losers = free_rows[~won]
            else:
                losers = free_rows
            # Collision rows saw a non-equal occupant and linear-probe
            # onward; CAS losers re-read the slot they lost (so that
            # duplicate keys racing for one slot are detected).
            colliders = pending[occupied]
            position[colliders] = (position[colliders] + 1) % capacity
            pending = np.concatenate([colliders, losers])
        return slots, capacity, attempts, max_slot_contention

    @classmethod
    def _prepare(
        cls, key_arrays: list[np.ndarray], name: str, load_factor: float
    ) -> "JoinHashTable":
        """A table over ``key_arrays`` whose insert outcome comes from
        the memo when it holds them.  Failed builds raise before they
        can be admitted, so they raise again on every build."""
        key_arrays = [np.ascontiguousarray(array) for array in key_arrays]
        digest = _build_digest(key_arrays, load_factor)
        with _memo_lock:
            built = _memo.get(digest)
            if built is not None:
                _memo.move_to_end(digest)
                _memo_counts["hits"] += 1
                return cls(key_arrays, built, name)
            _memo_counts["misses"] += 1
            admit = digest in _seen
            if admit:
                del _seen[digest]
            else:
                _seen[digest] = None
                if len(_seen) > HASH_TABLE_CACHE_CAPACITY:
                    _seen.popitem(last=False)
        built = _PreparedBuild(
            key_arrays, *cls._insert_all(key_arrays, name, load_factor), memoized=admit
        )
        if admit:
            with _memo_lock:
                if digest in _memo:  # a racing thread admitted it first
                    built = _memo[digest]
                else:
                    _memo[digest] = built
                    _memo_counts["admissions"] += 1
                    if len(_memo) > HASH_TABLE_CACHE_CAPACITY:
                        _memo.popitem(last=False)
                        _memo_counts["evictions"] += 1
        return cls(key_arrays, built, name)

    def _charge_inserts(self, meter: TrafficMeter) -> None:
        """Every insert attempt reads a slot; every success writes one."""
        attempts = self._built.attempts
        n = self.num_rows
        meter.record_table_read(attempts * _SLOT_BYTES)
        meter.record_table_write(n * _SLOT_BYTES)
        meter.record_atomics(
            AtomicBatch(
                count=attempts,
                max_chain=max(self._built.max_contention, 1) if n else 0,
                kind="rmw",
            )
        )
        meter.record_instructions(3 * attempts)

    def _allocate_slots(self, device: VirtualCoprocessor) -> None:
        """The slot array stays resident in device global memory.  Its
        buffer keeps the 8-byte slot width the simulated allocation has
        always been charged at, so peak-allocation figures stay put."""
        self.slots_buffer = device.allocate(
            self.slots.astype(np.int64), label=f"{self.name}.slots"
        )

    @classmethod
    def build(
        cls,
        device: VirtualCoprocessor,
        key_arrays: list[np.ndarray],
        name: str = "hash_table",
        load_factor: float = 0.5,
    ) -> "JoinHashTable":
        """Build the table as one device kernel with atomic-CAS inserts.

        Reads materialized key columns from GPU global memory (the
        multi-pass and operator-at-a-time flow).
        """
        table = cls._prepare(key_arrays, name, load_factor)
        meter = device.new_meter()
        key_bytes = sum(array.nbytes for array in table.key_arrays)
        meter.record_read(MemoryLevel.GLOBAL, key_bytes)
        table._charge_inserts(meter)
        device.launch(f"build.{name}", "build", table.num_rows, meter)
        table._allocate_slots(device)
        return table

    @classmethod
    def build_pipelined(
        cls,
        meter: TrafficMeter,
        device: VirtualCoprocessor,
        key_arrays: list[np.ndarray],
        name: str = "hash_table",
        load_factor: float = 0.5,
    ) -> "JoinHashTable":
        """Insert inside an enclosing compound kernel (fully pipelined).

        Keys arrive in registers, so no key reads are charged — only the
        atomic-CAS slot traffic.  This is the build path of a compound
        build pipeline (Section 5.2: "hash table operations" as function
        calls in the generated kernel).
        """
        table = cls._prepare(key_arrays, name, load_factor)
        table._charge_inserts(meter)
        table._allocate_slots(device)
        return table

    # ------------------------------------------------------------------
    def probe(
        self,
        meter: TrafficMeter,
        probe_arrays: list[np.ndarray],
        l2_capacity: int | None = None,
        per_row: bool = False,
    ) -> "np.ndarray | tuple[np.ndarray, np.ndarray]":
        """Probe the table; returns the matching build row per probe row.

        The result holds the build-side row index for hits and -1 for
        misses.  Probe traffic (random slot reads + key comparisons) is
        recorded into the supplied meter — probes execute inside count,
        write, or compound kernels, never as kernels of their own.
        Tables larger than ``l2_capacity`` pay DRAM transaction
        amplification per slot access.

        With ``per_row`` the result is ``(rows, steps)``: the int32
        steps each probe row took, whose sum is what the meter was
        charged — a multi-pass write kernel charges its flagged rows'
        share through :meth:`charge_probe` instead of probing again.
        """
        probe_arrays = [np.ascontiguousarray(array) for array in probe_arrays]
        if len(probe_arrays) != len(self.key_arrays):
            raise PlanError(
                f"probe key count {len(probe_arrays)} does not match build "
                f"key count {len(self.key_arrays)}"
            )
        n = len(probe_arrays[0])
        if n == 0:
            rows = np.full(0, -1, dtype=np.int64)
            return (rows, np.zeros(0, dtype=np.int32)) if per_row else rows
        index = None
        if _exact_int(probe_arrays[0].dtype):
            # Probe keys int64 cannot compare exactly stay on the loop.
            index = self._built.direct_index(self.key_arrays, n)
        if index is not None:
            rows, steps = index.probe(probe_arrays[0], self.capacity)
            total = int(steps.sum(dtype=np.int64))
        else:
            rows, steps = self._probe_loop(probe_arrays, per_row)
            total = int(steps.sum(dtype=np.int64)) if per_row else steps
        self.charge_probe(meter, total, l2_capacity)
        return (rows, steps) if per_row else rows

    def charge_probe(
        self, meter: TrafficMeter, steps: int, l2_capacity: int | None = None
    ) -> None:
        """Charge ``steps`` linear-probe steps: one random read of a slot
        and its stored key per step, 4 instructions per step."""
        structure_bytes = self.capacity * _SLOT_BYTES + sum(
            array.nbytes for array in self.key_arrays
        )
        meter.record_table_read(
            random_access_volume(steps, self.entry_bytes, structure_bytes, l2_capacity)
        )
        meter.record_instructions(4 * steps)

    def _probe_loop(
        self, probe_arrays: list[np.ndarray], per_row: bool = False
    ) -> tuple[np.ndarray, "int | np.ndarray"]:
        """The linear-probe loop: build rows (-1 for misses) and the
        slot reads it took, in total or (``per_row``) per probe row.
        Each round reads one slot per probe still walking; ``position``
        stays aligned with those probes."""
        n = len(probe_arrays[0])
        result = np.full(n, -1, dtype=np.int64)
        counts = np.ones(n, dtype=np.int32) if per_row else None
        mask = self.capacity - 1
        position = (hash_key_columns(probe_arrays) & np.uint64(mask)).astype(np.int64)
        walking = None  # probe rows still walking (None: all, in order)
        steps = 0
        rounds = 0
        while position.size:
            rounds += 1
            if rounds > self.capacity + 1:
                raise PlanError(f"hash table {self.name!r} probe did not converge")
            steps += len(position)
            candidate = self.slots[position]
            # An empty slot ends the walk with a miss (result stays -1).
            occupied = np.flatnonzero(candidate >= 0)
            rows = occupied if walking is None else walking[occupied]
            found = candidate[occupied]
            equal = np.ones(len(rows), dtype=bool)
            for build, probe in zip(self.key_arrays, probe_arrays):
                equal &= build[found] == probe[rows]
            result[rows[equal]] = found[equal]
            onward = ~equal
            walking = rows[onward]
            position = (position[occupied[onward]] + 1) & mask
            if counts is not None:
                counts[walking] = rounds + 1
        return result, steps if counts is None else counts
