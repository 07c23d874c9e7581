"""Timing shims for the traced run: spans around each layer's entry points.

Nothing here changes the program.  :class:`Shims` wraps the public entry
points named in :data:`TARGETS` with timing functions while a traced
block runs, and puts the originals back afterwards.  A function that
callers import by name (``from ..sql.translate import plan_sql``) is
replaced in every loaded ``repro`` module that holds it, so each call
site sees the shim.

Spans carry name, start, end, parent and query id.  They stay in memory
and are written out when the run ends.  Each thread keeps its own stack
of open spans.  A thread with an empty stack parents its first span on
the span that waits for it: the submitter's open span for work sent
through a ``ThreadPoolExecutor`` (scale-out device threads), else the
client's innermost open span (long-lived serving workers; one query is
in flight, and its client waits in ``Server.execute``).

:func:`self_times` turns spans into self times.  At every instant the
host time goes to the open spans that have no open child; when several
threads are busy at once the instant is split equally between them.  So
the self times of one query add up exactly to its root span, which is
the client's call.  Root time outside every layer span is ``other``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

ROOT = "other"


def _rows(position: int):
    """Count of rows in the key-array list passed at ``position``."""

    def count(args, _returned) -> int:
        arrays = args[position]
        return len(arrays[0]) if arrays else 0

    return count


def _pipelines(_args, physical) -> int:
    return len(physical.pipelines)


#: (module, function or Class.method, span name, counter name, counter).
#: The span name is ``<layer>.<part>`` or just ``<layer>``; the counter
#: adds ``counter(args, returned)`` per call, or 1 when it is ``None``.
TARGETS = [
    ("repro.sql.translate", "plan_sql", "sql", "sql.calls", None),
    ("repro.plan.pipelines", "extract_pipelines", "plan", "plan.pipelines", _pipelines),
    ("repro.serving.server", "Server.execute", "serving", None, None),
    ("repro.serving.plan_cache", "PlanCache.lookup", "serving", None, None),
    ("repro.kernels.codegen", "generate_compound_kernel", "kernels.codegen", None, None),
    ("repro.kernels.codegen", "generate_count_kernel", "kernels.codegen", None, None),
    ("repro.kernels.codegen", "generate_write_kernel", "kernels.codegen", None, None),
    ("repro.engines.base", "Engine.execute", "engines.execute", None, None),
    ("repro.engines.runtime", "QueryRuntime.load_source", "engines.load_source", None, None),
    ("repro.engines.runtime", "QueryRuntime.aggregate_rows", "engines.aggregate", None, None),
    ("repro.engines.runtime", "QueryRuntime.finalize", "engines.finalize", None, None),
    ("repro.primitives.hashtable", "JoinHashTable.probe", "primitives.probe",
     "primitives.probe_rows", _rows(2)),
    ("repro.primitives.hashtable", "JoinHashTable.build", "primitives.build",
     "primitives.build_rows", _rows(2)),
    ("repro.primitives.hashtable", "JoinHashTable.build_pipelined", "primitives.build",
     "primitives.build_rows", _rows(3)),
    ("repro.primitives.hashtable", "hash_key_columns", "primitives.hash", None, None),
    ("repro.primitives.segmented", "factorize", "primitives.aggregate", None, None),
    ("repro.primitives.segmented", "grouped_reduce", "primitives.aggregate", None, None),
    ("repro.primitives.sortlib", "device_radix_sort", "primitives.sort", None, None),
    ("repro.hardware.device", "VirtualCoprocessor.launch", "hardware.launch", None, None),
    ("repro.hardware.device", "VirtualCoprocessor.transfer_to_device",
     "hardware.transfer", None, None),
    ("repro.compression.policy", "CompressionPolicy.encoded", "compression.encode", None, None),
    ("repro.compression.policy", "CompressionPolicy.encode_slice", "compression.encode",
     None, None),
    ("repro.compression.policy", "CompressionPolicy.encode_array", "compression.encode",
     None, None),
    ("repro.compression.lazy", "plan_scan", "compression.scan", None, None),
    ("repro.engines.runtime", "QueryRuntime.lazy_gather", "compression.scan", None, None),
    ("repro.placement.pool", "BufferPool.acquire", "placement.acquire", None, None),
    ("repro.scaleout.executor", "ScaleOutExecutor.execute", "scaleout.execute", None, None),
    ("repro.scaleout.merge", "merge_partials", "scaleout.merge", None, None),
    ("repro.scaleout.partition", "build_partitions", "scaleout.partition", None, None),
    ("repro.optimizer.advisor", "Advisor.advise", "optimizer.advise", None, None),
    ("repro.optimizer.auto", "AutoExecutor.execute", "optimizer.execute", None, None),
]

#: Every public method of the generated kernels' context is one span
#: name: the layer's self time outside the primitives it calls.
CONTEXT_CLASS = ("repro.kernels.context", "KernelContext", "kernels.context")


def span_names() -> list[str]:
    """Every span name a traced run can record, root included."""
    names = {target[2] for target in TARGETS} | {CONTEXT_CLASS[2], ROOT}
    return sorted(names)


class Shims:
    """Span recorder plus the patches that feed it.

    ``with shims.patched():`` installs the shims; ``with
    shims.query(key):`` opens a query's root span.  Spans are recorded
    only while a root span is open, so set-up work is never traced.
    """

    def __init__(self) -> None:
        #: [name, start_s, end_s, parent index or None, query number]
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        #: The client thread's span stack while a query runs.
        self._client: list[int] = []
        self._query = -1
        self._patches = self._plan_patches()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """The calling thread's innermost open span, else its inherited
        parent while that is open, else the client's innermost span."""
        stack = self._stack()
        if stack:
            return stack[-1]
        inherited = getattr(self._local, "inherited", None)
        if inherited is not None and self.spans[inherited][2] == 0.0:
            return inherited
        try:
            return self._client[-1]
        except IndexError:  # the client closed its root meanwhile
            return self._root

    def _open(self, name: str) -> int:
        parent = self.current()
        span = [name, time.perf_counter(), 0.0, parent, self._query]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        self._stack().append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def query(self, number: int):
        """The root span of one client call."""
        self._query = number
        self._client = self._stack()
        self._root = self._open(ROOT)
        try:
            yield
        finally:
            self._close(self._root)
            self._root = None

    def _wrap(self, fn, name: str, counter: str | None, count):
        shims = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if shims._root is None:
                return fn(*args, **kwargs)
            index = shims._open(name)
            try:
                returned = fn(*args, **kwargs)
            finally:
                shims._close(index)
            if counter is not None:
                amount = 1 if count is None else count(args, returned)
                with shims._lock:
                    shims.counts[counter] += amount
            return returned

        return shim

    def _adopting(self, parent: int | None, fn):
        """``fn`` run on another thread, parented on ``parent``."""
        local = self._local

        def adopted(*args, **kwargs):
            local.inherited = parent
            try:
                return fn(*args, **kwargs)
            finally:
                local.inherited = None

        return adopted

    # ------------------------------------------------------------------
    # patches
    # ------------------------------------------------------------------
    def _plan_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, shim) for every call site."""
        patches = []
        loaded = [
            module for name, module in sorted(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for module_name, path, name, counter, count in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                patches.append(self._method_patch(owner, attribute, name, counter, count))
                continue
            original = getattr(module, path)
            shim = self._wrap(original, name, counter, count)
            for holder in loaded:
                for attribute, value in vars(holder).items():
                    if value is original:
                        patches.append((holder, attribute, original, shim))
        module_name, class_name, name = CONTEXT_CLASS
        owner = getattr(importlib.import_module(module_name), class_name)
        for attribute, value in vars(owner).items():
            if callable(value) and not attribute.startswith("_"):
                patches.append(self._method_patch(owner, attribute, name, None, None))
        shims = self

        class PropagatingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(shims._adopting(shims.current(), fn), *args, **kwargs)

        for holder in loaded:
            if vars(holder).get("ThreadPoolExecutor") is ThreadPoolExecutor:
                patches.append((holder, "ThreadPoolExecutor", ThreadPoolExecutor, PropagatingPool))
        return patches

    def _method_patch(self, owner, attribute: str, name: str, counter, count):
        original = vars(owner)[attribute]
        if isinstance(original, classmethod):
            shim = classmethod(self._wrap(original.__func__, name, counter, count))
        else:
            shim = self._wrap(original, name, counter, count)
        return (owner, attribute, original, shim)

    @contextlib.contextmanager
    def patched(self):
        """Install every shim; restore the originals on exit."""
        for owner, attribute, _original, shim in self._patches:
            setattr(owner, attribute, shim)
        try:
            yield
        finally:
            for owner, attribute, original, _shim in self._patches:
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines (times in microseconds from
        the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as handle:
            for index, (name, start, end, parent, query) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "query": query, "parent": parent,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                }) + "\n")


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds of self time per span name, summed over all queries.

    Sweeps span boundaries in time order.  Between two boundaries the
    elapsed time is split equally over the open spans that have no open
    child (the spans doing work right now).  A root span is always open
    while its query runs, so the totals add up to the root durations.
    """
    events = []
    for index, (_name, start, end, _parent, _query) in enumerate(spans):
        events.append((start, 0, index))
        events.append((end, 1, index))
    events.sort()
    totals: defaultdict[str, float] = defaultdict(float)
    open_children: defaultdict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    leaves: set[int] = set()
    previous = None
    for moment, closing, index in events:
        if leaves:
            share = (moment - previous) / len(leaves)
            for leaf in leaves:
                totals[spans[leaf][0]] += share
        previous = moment
        parent = spans[index][3]
        if not closing:
            is_open.add(index)
            leaves.add(index)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(index)
            leaves.discard(index)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and parent in is_open:
                    leaves.add(parent)
    return dict(totals)
