"""Dynamic matching-based search: inserts and deletes.

The paper's engines assume a static, pre-sorted database.  A system a
downstream user would actually adopt needs updates, so
:class:`DynamicMatchDatabase` layers a classic two-tier design on top of
the static engines:

* a **base** segment — a static :class:`~repro.core.ad_block.BlockADEngine`
  over sorted columns, rebuilt only on compaction;
* a small **delta buffer** of freshly-inserted points, searched by brute
  force (it is tiny by construction);
* a **tombstone set** of deleted point ids, masked out of every search.

Queries are *exact* at every moment.  They run the LSM store's bounded
pass (:mod:`repro.core.segment_search`): the buffer's match profiles are
computed in one numpy expression, and the base engine's windows skip the
tombstoned rows through a dead-row mask kept in step with every delete.
Both candidate streams merge under the same deterministic (difference,
id) order the static engines use.  When the buffer or the tombstones outgrow
``compaction_threshold`` (a fraction of the live size), the structure
compacts: live rows are consolidated into a new base segment and the
sorted columns are rebuilt once.

Point ids are stable across compactions — they are assigned at insert
time and never reused.

The structure is **thread-safe**: one reentrant lock serialises updates
and queries, so it can sit behind the threaded HTTP server
(:mod:`repro.serve`) with writers racing readers.  Every mutation bumps
a monotonic :attr:`generation` counter, which the serving layer's
result cache keys on — a cached answer is valid exactly as long as the
generation it was computed under.

Like every other facade, ``metrics=`` installs a
:class:`~repro.obs.MetricsRegistry` (queries recorded under
``engine="dynamic"``) and ``spans=`` a
:class:`~repro.obs.SpanCollector` (roots ``dynamic/k_n_match`` /
``dynamic/frequent_k_n_match`` with ``base_search``, ``buffer_scan``
and ``merge`` phases).  The inner base engine stays uninstrumented so
logical query counters are not double-counted, mirroring the shard
layer's convention.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ValidationError
from . import validation
from .ad_block import BlockADEngine
from .segment_search import Delta, SegmentSetQueries, SegmentView, position

__all__ = ["DynamicMatchDatabase"]


class DynamicMatchDatabase(SegmentSetQueries):
    """Exact k-n-match search over a mutable point set."""

    _span_names = ("dynamic", "buffer_scan", "base_search")

    def __init__(
        self,
        data=None,
        dimensionality: Optional[int] = None,
        compaction_threshold: float = 0.25,
        min_buffer: int = 64,
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
    ) -> None:
        if data is None and dimensionality is None:
            raise ValidationError(
                "provide initial data or an explicit dimensionality"
            )
        if not 0 < compaction_threshold <= 1:
            raise ValidationError(
                f"compaction_threshold must be in (0, 1]; got {compaction_threshold}"
            )
        if min_buffer < 1:
            raise ValidationError(f"min_buffer must be >= 1; got {min_buffer}")
        self.compaction_threshold = compaction_threshold
        self.min_buffer = min_buffer

        if data is not None:
            array = validation.as_database_array(data)
            if dimensionality is not None and dimensionality != array.shape[1]:
                raise ValidationError(
                    f"dimensionality {dimensionality} does not match data's "
                    f"{array.shape[1]}"
                )
            self._dimensionality = array.shape[1]
            self._set_base(array, np.arange(array.shape[0], dtype=np.int64))
            self._next_pid = array.shape[0]
        else:
            self._dimensionality = int(dimensionality)
            if self._dimensionality < 1:
                raise ValidationError(
                    f"dimensionality must be >= 1; got {self._dimensionality}"
                )
            self._set_base(
                np.empty((0, self._dimensionality), dtype=np.float64),
                np.empty(0, dtype=np.int64),
            )
            self._next_pid = 0

        self._buffer = Delta(self._dimensionality)
        self._tombstones: set = set()
        self.compactions = 0
        self._metrics = metrics
        self._spans = spans
        self._generation = 0
        # Reentrant: insert -> _maybe_compact -> compact re-enters, and
        # insert_many loops over insert.
        self._lock = threading.RLock()

    @classmethod
    def from_snapshot(
        cls,
        rows,
        pids,
        generation: int = 0,
        **kwargs,
    ) -> "DynamicMatchDatabase":
        """Rebuild a database from a :meth:`snapshot`, resuming counters.

        ``generation`` must be at least the generation the snapshot was
        taken under — restart then resumes *past* it, so a serve-layer
        cache keyed on (generation, query) can never alias a pre-restart
        entry onto the rebuilt store.  Point ids resume after the
        largest snapshotted id, preserving the never-reused contract.
        """
        rows = np.asarray(rows, dtype=np.float64)
        pids = np.asarray(pids, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[0] != pids.shape[0]:
            raise ValidationError(
                f"snapshot rows {rows.shape} do not match {pids.shape[0]} pids"
            )
        if generation < 0:
            raise ValidationError(
                f"generation must be >= 0; got {generation}"
            )
        order = np.argsort(pids)
        pids = pids[order]
        if pids.shape[0] and np.any(np.diff(pids) <= 0):
            raise ValidationError("snapshot pids must be unique")
        db = cls(
            data=np.ascontiguousarray(rows[order]) if rows.shape[0] else None,
            dimensionality=rows.shape[1] if rows.ndim == 2 else None,
            **kwargs,
        )
        db._set_base(db._base, pids)
        db._next_pid = int(pids[-1]) + 1 if pids.shape[0] else 0
        # Resume one past the snapshot generation: the rebuilt store is a
        # distinct mutation epoch even before its first write.
        db._generation = int(generation) + 1
        return db

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic mutation counter; bumps on insert/delete/compact.

        Two queries observing the same generation see the same live
        point set, so any result computed at generation ``g`` may be
        replayed verbatim while :attr:`generation` still equals ``g`` —
        the invariant the :mod:`repro.serve` result cache relies on.
        """
        return self._generation

    @property
    def cardinality(self) -> int:
        """Number of live (non-deleted) points."""
        with self._lock:
            return (
                self._base.shape[0]
                + len(self._buffer)
                - len(self._tombstones)
            )

    @property
    def buffer_size(self) -> int:
        return len(self._buffer)

    @property
    def tombstone_count(self) -> int:
        return len(self._tombstones)

    def __contains__(self, pid: int) -> bool:
        with self._lock:
            if pid in self._tombstones:
                return False
            return pid in self._buffer or position(self._base_pids, pid) >= 0

    def get_point(self, pid: int) -> np.ndarray:
        """The coordinates of a live point."""
        with self._lock:
            if pid in self._tombstones:
                raise ValidationError(f"point {pid} was deleted")
            if pid in self._buffer:
                return self._buffer.get_point(pid)
            row = position(self._base_pids, pid)
            if row >= 0:
                return self._base[row].copy()
            raise ValidationError(f"unknown point id {pid}")

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """All live points as ``(rows, pids)``, base then buffer order."""
        with self._lock:
            all_rows = np.vstack([self._base, self._buffer.rows])
            all_pids = np.concatenate([self._base_pids, self._buffer.pids])
            if self._tombstones:
                live = ~np.isin(all_pids, list(self._tombstones))
                return all_rows[live], all_pids[live]
            return all_rows, all_pids

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, point) -> int:
        """Insert one point; returns its (stable) id."""
        coords = validation.as_query_array(point, self._dimensionality)
        with self._lock:
            pid = self._next_pid
            self._next_pid += 1
            self._buffer.add(coords, pid)
            self._generation += 1
            self._maybe_compact()
        return pid

    def delete(self, pid: int) -> None:
        """Delete a live point by id."""
        with self._lock:
            if pid not in self:
                raise ValidationError(
                    f"point {pid} does not exist or was deleted"
                )
            self._tombstones.add(pid)
            if not self._buffer.kill(pid):
                self._base_dead[position(self._base_pids, pid)] = True
            self._generation += 1
            self._maybe_compact()

    def compact(self) -> None:
        """Consolidate live points into a fresh base segment."""
        with self._lock:
            rows, pids = self.snapshot()
            order = np.argsort(pids)
            self._set_base(np.ascontiguousarray(rows[order]), pids[order])
            self._buffer.clear()
            self._tombstones = set()
            self.compactions += 1
            self._generation += 1

    def _set_base(self, rows: np.ndarray, pids: np.ndarray) -> None:
        self._base = rows
        self._base_pids = pids
        self._base_dead = np.zeros(rows.shape[0], dtype=bool)
        self._base_engine = None

    def _maybe_compact(self) -> None:
        churn = len(self._buffer) + len(self._tombstones)
        threshold = max(
            self.min_buffer, int(self.compaction_threshold * max(1, self.cardinality))
        )
        if churn > threshold:
            self.compact()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _sources(self) -> Tuple[Delta, List[SegmentView]]:
        if not self._base.shape[0]:
            return self._buffer, []
        if self._base_engine is None:
            self._base_engine = BlockADEngine(self._base)
        return self._buffer, [
            SegmentView(self._base_engine, self._base_pids, self._base_dead, {})
        ]
