"""Exact k-n-match over a brute-force delta plus immutable segments.

The mutable facades (:class:`~repro.core.dynamic.DynamicMatchDatabase`
and :class:`~repro.lsm.LsmMatchDatabase`) hold their points as one small
append-only :class:`Delta`, searched by brute force, plus immutable
segments, each a static :class:`~repro.core.ad_block.BlockADEngine` over
sorted columns, and a set of tombstoned ids.  One bounded pass answers a
query exactly:

1. Score the live delta rows with one numpy expression.
2. Visit the segments largest first.  Each runs the block-AD epsilon
   schedule with its **dead-row mask**, so tombstoned rows never become
   candidates and nothing is over-fetched.  Once the points merged so
   far are at least as many as the segment's live rows, it also gets
   per-level **caps**: the k-th smallest n-match difference among them.  A point whose difference
   exceeds the cap cannot be an answer, so each level's windows open
   straight at its cap and close after one round — the threshold idea
   of Fagin's algorithm (the paper's [11]).
3. Refine the candidates to exact match profiles.
4. Merge per level under the canonical ``(difference, id)`` order of
   :func:`repro.core.merge.merge_top_k`; frequencies are counted only
   after the last merge.

Every source contributes a superset of the answers it can hold, so the
merged answer is bit-identical to the naive oracle over the live points.
See ``docs/durability.md`` for the exactness argument.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import EmptyDatabaseError, ValidationError
from . import validation
from .ad_block import BlockADEngine, refine
from .types import FrequentMatchResult, MatchResult, SearchStats, rank_by_frequency

__all__ = ["Delta", "SegmentView", "SegmentSetQueries", "position", "search"]

#: segments with at most this many rows are scanned, not windowed
SCAN_ROWS = BlockADEngine.SEED_SAMPLE


def position(pids: np.ndarray, pid: int) -> int:
    """The index of ``pid`` in the ascending array ``pids``, or ``-1``."""
    index = int(np.searchsorted(pids, pid))
    return index if index < pids.shape[0] and pids[index] == pid else -1


class Delta:
    """Append-only ``(rows, pids)`` with a dead-row mask.

    Rows sit in one growable float64 array, so a query scores the whole
    tier in one numpy expression.  Deleted rows stay in place, flagged
    by :meth:`kill`.  Pids arrive in ascending order (ids are assigned
    monotonically), so membership is one ``searchsorted``.  Not
    thread-safe; the owning facade's lock serialises every access.
    """

    def __init__(self, dimensionality: int) -> None:
        self.dimensionality = int(dimensionality)
        self.clear()

    def clear(self) -> None:
        self._rows = np.empty((16, self.dimensionality), dtype=np.float64)
        self._pids = np.empty(16, dtype=np.int64)
        self._dead = np.zeros(16, dtype=bool)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: self._size]

    @property
    def pids(self) -> np.ndarray:
        return self._pids[: self._size]

    @property
    def dead(self) -> np.ndarray:
        return self._dead[: self._size]

    def __contains__(self, pid: int) -> bool:
        return position(self.pids, pid) >= 0

    def add(self, coords: np.ndarray, pid: int) -> None:
        if self._size and pid <= self._pids[self._size - 1]:
            raise ValueError(
                f"delta pids must ascend; got {pid} after "
                f"{int(self._pids[self._size - 1])}"
            )
        if self._size == self._pids.shape[0]:
            grown = 2 * self._size
            self._rows = np.resize(self._rows, (grown, self.dimensionality))
            self._pids = np.resize(self._pids, grown)
            self._dead = np.resize(self._dead, grown)
        self._rows[self._size] = coords
        self._pids[self._size] = pid
        self._dead[self._size] = False
        self._size += 1

    def kill(self, pid: int) -> bool:
        """Flag ``pid`` dead; returns whether this tier holds it."""
        row = position(self.pids, pid)
        if row >= 0:
            self._dead[row] = True
        return row >= 0

    def get_point(self, pid: int) -> np.ndarray:
        return self._rows[position(self.pids, pid)].copy()

    def live_arrays(self, tombstones) -> Tuple[np.ndarray, np.ndarray]:
        """Rows and pids not in ``tombstones``, in ascending-pid order."""
        keep = ~np.isin(self.pids, np.fromiter(tombstones, dtype=np.int64))
        return self.rows[keep], self.pids[keep]


class SegmentView(NamedTuple):
    """One immutable segment as the search sees it."""

    engine: BlockADEngine
    #: row index -> point id
    pids: np.ndarray
    #: tombstoned rows, or ``None`` when there are none
    dead: Optional[np.ndarray]
    #: annotations of the segment's span
    meta: Dict[str, int]


def search(
    query: np.ndarray,
    k: int,
    n0: int,
    n1: int,
    delta: Delta,
    segments: Sequence[SegmentView],
    spans: Optional[object] = None,
    names: Tuple[str, str, str] = ("", "", ""),
) -> Tuple[List[np.ndarray], List[np.ndarray], SearchStats]:
    """Per-level answer ids and differences, ``n0..n1``, plus the stats.

    ``k`` must not exceed the live point count.  With ``spans`` the
    delta scan and each segment run in spans named ``names[1]`` and
    ``names[2]``; a segment span carries its ``rounds`` and the number
    of levels its cap closed (``capped``).  ``binary_search_probes``
    charges ``d`` once plus ``2d`` per round, so
    :func:`repro.obs.epsilon_rounds_from_stats` gives the rounds summed
    over the segments.
    """
    d = query.shape[0]
    levels = range(n0, n1 + 1)
    best_ids = [np.empty(0, dtype=np.int64) for _ in levels]
    best_diffs = [np.empty(0, dtype=np.float64) for _ in levels]

    def merge(ids: np.ndarray, profiles: np.ndarray) -> None:
        for i, n in enumerate(levels):
            ids_n, diffs = ids, profiles[:, n - 1]
            if best_diffs[i].shape[0] == k:
                # Only a difference <= the current k-th can enter.
                keep = diffs <= best_diffs[i][-1]
                if not keep.any():
                    continue
                ids_n, diffs = ids[keep], diffs[keep]
            all_ids = np.concatenate((best_ids[i], ids_n))
            all_diffs = np.concatenate((best_diffs[i], diffs))
            order = np.lexsort((all_ids, all_diffs))[:k]
            best_ids[i], best_diffs[i] = all_ids[order], all_diffs[order]

    live = ~delta.dead
    with _span(spans, names[1], rows=len(delta)):
        merge(delta.pids[live], np.sort(np.abs(delta.rows[live] - query), axis=1))
    cardinality = int(np.count_nonzero(live))
    work = [cardinality * d, 0, 0]  # attributes, rounds, candidates refined
    for segment in sorted(segments, key=lambda s: -s.pids.shape[0]):
        rows = segment.pids.shape[0]
        dead = 0 if segment.dead is None else int(np.count_nonzero(segment.dead))
        if dead == rows:
            continue
        caps = None
        if cardinality >= max(k, rows - dead):
            # The k-th difference of a merged pool at least as large as
            # the segment is no looser than the segment's own seeds.
            caps = np.array([[diffs[k - 1] for diffs in best_diffs]])
        cardinality += rows - dead
        with _span(spans, names[2], **segment.meta):
            found = _search_segment(
                query, k, n0, n1, segment.engine, segment.pids,
                segment.dead if dead else None, caps, merge,
            )
            if spans is not None:
                spans.annotate(rounds=found[1], capped=found[3])
        for i in range(3):
            work[i] += found[i]
    attributes, rounds, refined = work
    stats = SearchStats(
        attributes_retrieved=attributes + refined * d,
        total_attributes=cardinality * d,
        binary_search_probes=d + 2 * d * rounds if rounds else 0,
        candidates_refined=refined,
    )
    return best_ids, best_diffs, stats


def _search_segment(query, k, n0, n1, engine, pids, dead, caps, merge):
    """One segment's windows, refinement and merge.

    Returns (attributes, rounds, candidates refined, levels capped).  A
    segment no larger than the engine's seed sample is scanned like the
    delta: the seed pass alone would compute every row's profile.
    """
    if engine.cardinality <= SCAN_ROWS:
        rows = engine.data
        if dead is not None:
            rows, pids = rows[~dead], pids[~dead]
        merge(pids, np.sort(np.abs(rows - query), axis=1))
        return rows.size, 0, 0, 0
    masks, attributes, rounds, capped = engine.grow_windows(
        query[None], k, n0, n1, dead=dead, caps=caps
    )
    candidates, profiles = refine(engine.data, query, masks[0])
    merge(pids[candidates], profiles)
    return attributes[0], rounds[0], candidates.shape[0], capped[0]


def _span(spans, name: str, **meta):
    return nullcontext() if spans is None else spans.span(name, **meta)


class SegmentSetQueries:
    """The query surface of a facade over a delta plus segments.

    A subclass provides ``_lock``, ``_dimensionality``, ``_metrics``,
    ``_spans``, ``cardinality``, ``insert``, :meth:`_sources` and
    ``_span_names``: the root span prefix (also the metrics' engine
    label), the delta phase and the segment phase.
    """

    _span_names: Tuple[str, str, str]

    def _sources(self) -> Tuple[Delta, List[SegmentView]]:
        raise NotImplementedError

    @property
    def metrics(self):
        """The installed :class:`~repro.obs.MetricsRegistry`, or ``None``."""
        return self._metrics

    def set_metrics(self, registry) -> None:
        """Install (or remove, with ``None``) a metrics registry."""
        self._metrics = registry

    @property
    def spans(self):
        """The installed :class:`~repro.obs.SpanCollector`, or ``None``."""
        return self._spans

    def set_spans(self, collector) -> None:
        """Install (or remove, with ``None``) a span collector."""
        self._spans = collector

    def __len__(self) -> int:
        return self.cardinality

    @property
    def dimensionality(self) -> int:
        return self._dimensionality

    def insert_many(self, points) -> List[int]:
        """Insert several points; returns their ids."""
        array = validation.as_database_array(points)
        if array.shape[1] != self._dimensionality:
            raise ValidationError(
                f"points have {array.shape[1]} dimensions; expected "
                f"{self._dimensionality}"
            )
        with self._lock:
            return [self.insert(row) for row in array]

    def k_n_match(self, query, k: int, n: int) -> MatchResult:
        """Exact k-n-match over the live points."""
        return self._query("k_n_match", query, k, n)

    def frequent_k_n_match(
        self, query, k: int, n_range: Tuple[int, int], keep_answer_sets: bool = True
    ) -> FrequentMatchResult:
        """Exact frequent k-n-match over the live points."""
        return self._query(
            "frequent_k_n_match", query, k, n_range, keep_answer_sets
        )

    def _query(self, kind, query, k, levels, keep_answer_sets=True):
        started = time.perf_counter()
        d, spans, names = self._dimensionality, self._spans, self._span_names
        with self._lock:
            if self.cardinality == 0:
                raise EmptyDatabaseError("no live points to search")
            k = validation.validate_k(k, self.cardinality)
            if kind == "k_n_match":
                n0 = n1 = validation.validate_n(levels, d)
                meta = {"k": k, "n": n0}
            else:
                n0, n1 = validation.validate_n_range(levels, d)
                meta = {"k": k, "n0": n0, "n1": n1}
            query = validation.as_query_array(query, d)
            with _span(spans, f"{names[0]}/{kind}", **meta):
                ids, diffs, stats = search(
                    query, k, n0, n1, *self._sources(), spans, names
                )
                with _span(spans, "merge"):
                    result = _assemble(
                        kind, k, n0, n1, ids, diffs, stats, keep_answer_sets
                    )
        if self._metrics is not None:
            from ..obs import observe_query

            observe_query(
                self._metrics, names[0], kind, stats,
                time.perf_counter() - started, d,
            )
        return result


def _assemble(kind, k, n0, n1, ids, diffs, stats, keep_answer_sets):
    """The facade's result from the merged per-level answers."""
    if kind == "k_n_match":
        return MatchResult(
            ids=ids[0].tolist(), differences=diffs[0].tolist(), k=k, n=n0,
            stats=stats,
        )
    answer_sets = {n: level.tolist() for n, level in zip(range(n0, n1 + 1), ids)}
    chosen, frequencies = rank_by_frequency(answer_sets, k)
    return FrequentMatchResult(
        ids=chosen,
        frequencies=frequencies,
        k=k,
        n_range=(n0, n1),
        answer_sets=answer_sets if keep_answer_sets else None,
        stats=stats,
    )
