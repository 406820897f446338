"""Vectorised multi-query Block-AD: one numpy pass per round, whole batch.

:class:`~repro.core.ad_block.BlockADEngine` replaces the
attribute-at-a-time heap walk with epsilon windows, and its sample
seed finishes most queries in one or two rounds.  Run one query at a
time, though, every round still costs ``2d`` `searchsorted` calls and a
handful of ``O(c)`` reductions *per query*, and the seed its own small
numpy pass.

:class:`BatchBlockADEngine` runs the serial engine's schedule
(:meth:`BlockADEngine.grow_windows`) over a whole batch in **lock-step**:

1. The seeds of all queries come from one vectorised pass over the
   shared seed sample.
2. Per round, per dimension, one ``searchsorted`` locates the window
   bounds of *all* active queries at once; only the newly admitted ends
   of each (nested) window are scattered into a query's count row.
3. A query leaves the round set as soon as its ``n1`` level is
   satisfied, so a straggler never forces work for the rest.

Answers and per-query ``SearchStats`` are **identical** to the serial
engine's: the schedule is the same code, a query's seeds and growth
factors do not depend on its batch, and the exact refinement (sorted
difference profiles + the deterministic ``lexsort``/
:func:`rank_by_frequency` tie-breaking) is shared too.  Even if the
schedule changed, correctness would not: the refinement recomputes exact
n-match differences for a candidate superset, so the windows only decide
*how much* work is done, never *which* answers come back.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple, Union

import numpy as np

from ..core import validation
from ..core.ad_block import (
    BlockADEngine,
    n_match_differences,
    rank_answer_sets,
    refine,
    window_stats,
)
from ..core.types import FrequentMatchResult, MatchResult, rank_by_frequency
from ..sorted_lists import SortedColumns

__all__ = ["BatchBlockADEngine"]


class BatchBlockADEngine:
    """Lock-step vectorised Block-AD over a whole query batch."""

    name = "batch-block-ad"

    #: default lock-step group size.  Each in-flight query owns a
    #: ``c``-element count row that the scatter and threshold passes
    #: sweep every round, so the group working set is ``chunk * 4c``
    #: bytes; past the last-level cache the rows thrash and the scatter
    #: slows ~2x.  32 rows balances that against amortising each
    #: round's column bisections over more queries (measured optimum on
    #: a 50k x 32 database; 16 is within a few percent).
    DEFAULT_CHUNK = 32

    def __init__(
        self,
        data: Union[np.ndarray, SortedColumns],
        chunk_size: Union[int, None] = None,
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
    ) -> None:
        if isinstance(data, SortedColumns):
            self._columns = data
        else:
            self._columns = SortedColumns(data)
        # Serial engine for single-query calls and the shared epsilon
        # schedule; shares the same build.  It keeps metrics=None: the
        # batch engine records its own events (including for delegated
        # single-query calls) so nothing is double-counted.  Spans *are*
        # shared: delegated single-query calls trace as the serial
        # engine's phases, which is what they run.
        self._serial = BlockADEngine(self._columns, spans=spans)
        self._metrics = metrics
        self._spans = spans
        if chunk_size is None:
            chunk_size = self.DEFAULT_CHUNK
        elif chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1; got {chunk_size}")
        self._chunk_size = int(chunk_size)

    # ------------------------------------------------------------------
    @property
    def columns(self) -> SortedColumns:
        return self._columns

    @property
    def data(self) -> np.ndarray:
        return self._columns.data

    @property
    def cardinality(self) -> int:
        return self._columns.cardinality

    @property
    def dimensionality(self) -> int:
        return self._columns.dimensionality

    @property
    def metrics(self):
        """The installed :class:`~repro.obs.MetricsRegistry`, or ``None``."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry

    @property
    def spans(self):
        """The installed :class:`~repro.obs.SpanCollector`, or ``None``."""
        return self._spans

    @spans.setter
    def spans(self, collector) -> None:
        self._spans = collector
        self._serial.spans = collector

    # ------------------------------------------------------------------
    # single-query API (delegates to the serial engine, same answers)
    # ------------------------------------------------------------------
    def k_n_match(self, query, k: int, n: int) -> MatchResult:
        registry = self._metrics
        started = time.perf_counter() if registry is not None else 0.0
        result = self._serial.k_n_match(query, k, n)
        if registry is not None:
            from ..obs import observe_query

            observe_query(
                registry, self.name, "k_n_match", result.stats,
                time.perf_counter() - started, self.dimensionality,
            )
        return result

    def frequent_k_n_match(
        self, query, k: int, n_range: Tuple[int, int], keep_answer_sets: bool = True
    ) -> FrequentMatchResult:
        registry = self._metrics
        started = time.perf_counter() if registry is not None else 0.0
        result = self._serial.frequent_k_n_match(
            query, k, n_range, keep_answer_sets=keep_answer_sets
        )
        if registry is not None:
            from ..obs import observe_query

            observe_query(
                registry, self.name, "frequent_k_n_match", result.stats,
                time.perf_counter() - started, self.dimensionality,
            )
        return result

    # ------------------------------------------------------------------
    # batch API
    # ------------------------------------------------------------------
    def k_n_match_batch(self, queries, k: int, n: int) -> List[MatchResult]:
        """One k-n-match per row of ``queries`` in one lock-step run."""
        c, d = self.cardinality, self.dimensionality
        queries, k, n = validation.validate_batch_match_args(
            queries, k, n, c, d
        )
        registry = self._metrics
        spans = self._spans
        started = time.perf_counter() if registry is not None else 0.0
        if spans is None:
            results = self._k_n_match_batch_impl(queries, k, n)
        else:
            with spans.span(
                f"{self.name}/k_n_match_batch",
                batch=int(queries.shape[0]), k=k, n=n,
            ):
                results = self._k_n_match_batch_impl(queries, k, n)
        if registry is not None:
            self._observe_batch(registry, "k_n_match", results, started)
        return results

    def _k_n_match_batch_impl(
        self, queries: np.ndarray, k: int, n: int
    ) -> List[MatchResult]:
        """The lock-step run plus per-query conversion to MatchResult."""
        frequents = self._frequent_batch_impl(
            queries, k, n, n, keep_answer_sets=True
        )
        data = self._columns.data
        results: List[MatchResult] = []
        for query, freq in zip(queries, frequents):
            ids = freq.answer_sets[n]
            results.append(
                MatchResult(
                    ids=list(ids),
                    differences=n_match_differences(data, query, ids, n),
                    k=freq.k,
                    n=n,
                    stats=freq.stats,
                )
            )
        return results

    def frequent_k_n_match_batch(
        self,
        queries,
        k: int,
        n_range: Tuple[int, int],
        keep_answer_sets: bool = False,
    ) -> List[FrequentMatchResult]:
        """One frequent k-n-match per row of ``queries``, lock-step."""
        c, d = self.cardinality, self.dimensionality
        queries, k, (n0, n1) = validation.validate_batch_frequent_args(
            queries, k, n_range, c, d
        )
        registry = self._metrics
        spans = self._spans
        started = time.perf_counter() if registry is not None else 0.0
        if spans is None:
            results = self._frequent_batch_impl(
                queries, k, n0, n1, keep_answer_sets=keep_answer_sets
            )
        else:
            with spans.span(
                f"{self.name}/frequent_k_n_match_batch",
                batch=int(queries.shape[0]), k=k, n0=n0, n1=n1,
            ):
                results = self._frequent_batch_impl(
                    queries, k, n0, n1, keep_answer_sets=keep_answer_sets
                )
        if registry is not None:
            self._observe_batch(
                registry, "frequent_k_n_match", results, started
            )
        return results

    def _observe_batch(self, registry, kind, results, started: float) -> None:
        """Record one event per batched query, amortising the wall time.

        The batch runs lock-step, so individual query latencies do not
        exist; each query is charged the batch mean (documented in
        ``docs/observability.md``).  Cost counters come from each
        query's own :class:`SearchStats`, so totals are exact.
        """
        from ..obs import observe_query

        if not results:
            return
        share = (time.perf_counter() - started) / len(results)
        d = self.dimensionality
        for result in results:
            observe_query(registry, self.name, kind, result.stats, share, d)

    def _frequent_batch_impl(
        self,
        queries: np.ndarray,
        k: int,
        n0: int,
        n1: int,
        keep_answer_sets: bool,
    ) -> List[FrequentMatchResult]:
        """The lock-step batch body (arguments pre-validated)."""
        a = queries.shape[0]
        if a == 0:
            return []
        if a > self._chunk_size:
            # Queries are independent (each has its own epsilon
            # schedule), so grouping only bounds the cache working set —
            # the per-query answers and stats are unaffected.
            results: List[FrequentMatchResult] = []
            for start in range(0, a, self._chunk_size):
                results.extend(
                    self._frequent_batch_impl(
                        queries[start : start + self._chunk_size],
                        k,
                        n0,
                        n1,
                        keep_answer_sets=keep_answer_sets,
                    )
                )
            return results

        spans = self._spans
        if spans is None:
            grown = self._serial.grow_windows(queries, k, n0, n1)
            return self._finalize_batch(
                queries, k, n0, n1, keep_answer_sets, *grown[:3]
            )
        with spans.span("lockstep", queries=a):
            grown = self._serial.grow_windows(queries, k, n0, n1)
            spans.annotate(rounds=max(grown[2]))
        with spans.span("finalize"):
            return self._finalize_batch(
                queries, k, n0, n1, keep_answer_sets, *grown[:3]
            )

    def _finalize_batch(
        self,
        queries: np.ndarray,
        k: int,
        n0: int,
        n1: int,
        keep_answer_sets: bool,
        masks: np.ndarray,
        attributes: List[int],
        rounds: List[int],
    ) -> List[FrequentMatchResult]:
        """Exact refinement + result assembly after the lock-step rounds."""
        c, d = self.cardinality, self.dimensionality
        data = self._columns.data
        results: List[FrequentMatchResult] = []
        for i, query in enumerate(queries):
            candidates, profiles = refine(data, query, masks[i])
            answer_sets = rank_answer_sets(candidates, profiles, k, n0, n1)
            chosen, frequencies = rank_by_frequency(answer_sets, k)
            results.append(
                FrequentMatchResult(
                    ids=chosen,
                    frequencies=frequencies,
                    k=k,
                    n_range=(n0, n1),
                    answer_sets=answer_sets if keep_answer_sets else None,
                    stats=window_stats(
                        c, d, attributes[i], rounds[i], candidates.shape[0]
                    ),
                )
            )
        return results
