"""Correctness checks behind ``failed`` and ``failed_frac``.

Three checks, run after timing and outside set-up:

* every execution of a query is checksum-identical to its first one;
* once per distinct query, the first result matches a reference
  configuration (operator-at-a-time, 1 device, compression off) on
  sorted rows, with ``rows_approx_equal``'s float tolerance;
* once per distinct query, the first result matches the same engine and
  device count with compression off *exactly* (``table_checksum``):
  codecs promise byte identity.

The reference comparison tolerates float rounding because engines and
device counts sum floats in different orders (see NOTES.md); the codec
comparison does not.
"""

from __future__ import annotations

from collections import Counter

import repro
from repro.storage.table import rows_approx_equal
from repro.telemetry import table_checksum

REFERENCE = {"engine": "operator-at-a-time"}


class Oracle:
    """Collects results during a run; :meth:`verify` checks them after."""

    def __init__(self, workload):
        self.workload = workload
        #: key -> (query, table, checksum, twin connect arguments)
        self.first: dict[str, tuple] = {}
        #: key -> executions byte-identical to the first one
        self.same: Counter = Counter()
        self.failures: list[str] = []
        self.failed = 0

    def record(self, key: str, query, result) -> None:
        checksum = table_checksum(result.table)
        first = self.first.get(key)
        if first is None:
            self.first[key] = (query, result.table, checksum, self.workload.twin(result))
            self.same[key] += 1
        elif checksum == first[2]:
            self.same[key] += 1
        else:
            self.failed += 1
            self.failures.append(f"{key[:60]}: repeated execution is not byte-identical")

    def verify(self) -> None:
        """Compare each distinct query's first result with its references."""
        database = self.workload.database
        reference = repro.connect(database, **REFERENCE)
        twins: dict[tuple, repro.Session] = {}
        for key, (query, table, checksum, twin) in self.first.items():
            problems = []
            expected = reference.execute(query).table
            if not rows_approx_equal(expected.sorted_rows(), table.sorted_rows()):
                problems.append("differs from operator-at-a-time")
            config = tuple(sorted(twin.items()))
            if config not in twins:
                twins[config] = repro.connect(database, compression="off", **twin)
            if table_checksum(twins[config].execute(query).table) != checksum:
                problems.append(f"not byte-identical to {twin} with compression off")
            if problems:
                # Every execution identical to the first shares its fault.
                self.failed += self.same[key]
                self.failures.append(f"{key[:60]}: {'; '.join(problems)}")
