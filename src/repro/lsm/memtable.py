"""The LSM memtable: the small mutable tier in front of the segments.

Freshly-inserted points live here until a flush freezes them into an L0
:class:`~repro.lsm.segment.Segment`.  It is the brute-force
:class:`~repro.core.segment_search.Delta` tier that
:class:`~repro.core.dynamic.DynamicMatchDatabase` also uses: tiny by
construction (the store flushes at ``memtable_flush_rows``), so one
vectorised profile scan of its rows costs less than maintaining sorted
columns under mutation would.  Deleted rows stay in place, flagged in
its dead mask, until the flush drops them.

The memtable itself is not thread-safe; the store's RLock serialises
every access, like all other mutable state.
"""

from __future__ import annotations

from ..core.segment_search import Delta

__all__ = ["Memtable"]


class Memtable(Delta):
    """Append-only (rows, pids) in ascending-pid order, scanned by brute force.

    Insertion order *is* pid order (pids are assigned monotonically
    under the store lock), so :meth:`live_arrays` is ready to freeze
    without a sort — asserted cheaply by the segment constructor's
    strictly-ascending check.
    """
