"""Scatter-gather query execution across database shards.

:class:`ScatterGatherCoordinator` fans a (frequent) k-n-match query —
or a whole batch — out to per-shard :class:`~repro.core.engine.MatchDatabase`
instances, then merges the per-shard answers into the exact global
answer with the canonical tie-break (ascending difference, then
ascending *global* id; see :mod:`repro.core.merge`).

The fan-out reuses :class:`~repro.parallel.ParallelBatchExecutor`: shard
indices are presented to the executor as a one-column "query batch"
(one row per shard, ``chunk_size=1`` so every shard is its own work
unit), which buys the shard layer the executor's whole scheduling
stack — thread pool, inline fast path for one shard or one worker, and,
with a metrics registry installed, per-shard latency/straggler/worker-
utilisation metrics under the ``shard-scatter`` engine label.

Frequent k-n-match merging runs the per-``n`` merge *before* frequency
counting: each ``n``'s answer sets are merged across shards into the
exact global k-list first, and only then are appearance frequencies
counted over the merged sets — Definition 4 counts appearances in
answer sets of size exactly ``k``, so counting per shard and summing
would be wrong whenever a shard's local top-k differs from the global
one.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.engine import MatchDatabase
from ..core.merge import merge_shard_stats, merge_top_k
from ..core.types import (
    FrequentMatchResult,
    MatchResult,
    SearchStats,
    rank_by_frequency,
)
from ..errors import ValidationError
from ..parallel import BatchStats, ParallelBatchExecutor

__all__ = [
    "ScatterGatherCoordinator",
    "SHARD_BACKENDS",
    "validate_shard_backend",
]

#: Execution backends for the scatter fan-out: ``"thread"`` reuses the
#: executor's thread pool in-process; ``"process"`` runs each shard call
#: in a persistent spawned worker over shared-memory columns
#: (:mod:`repro.shard.procpool`), escaping the GIL.  Answers are
#: bit-identical either way — the canonical merge always runs here, in
#: the coordinator process.
SHARD_BACKENDS = ("thread", "process")

#: Pool task kind for each coordinator scatter kind.
_POOL_KINDS = {
    "k_n_match": "query",
    "frequent_k_n_match": "frequent",
    "k_n_match_batch": "batch",
    "frequent_k_n_match_batch": "frequent_batch",
}


def validate_shard_backend(backend: str) -> str:
    """Check ``backend`` against :data:`SHARD_BACKENDS` and return it.

    Every layer that accepts a backend name (the coordinator, the
    sharded database, the loader, the CLI, the server) funnels through
    here so an unknown backend raises the same :class:`ValidationError`
    everywhere.
    """
    if backend not in SHARD_BACKENDS:
        raise ValidationError(
            f"unknown shard backend {backend!r}; choose from {SHARD_BACKENDS}"
        )
    return backend


class _ShardOutput:
    """One shard's contribution to a scatter: payload + rolled-up stats.

    ``stats`` is what :class:`ParallelBatchExecutor` aggregates into its
    :class:`BatchStats`; ``queries`` feeds the per-shard obs counters.
    """

    __slots__ = ("payload", "stats", "queries")

    def __init__(self, payload, stats: SearchStats, queries: int) -> None:
        self.payload = payload
        self.stats = stats
        self.queries = queries


class _ShardTaskEngine:
    """Adapter letting :class:`ParallelBatchExecutor` schedule shards.

    The executor fans out rows of a query batch; here each "row" is a
    shard position encoded as a one-element float vector.  The adapter
    deliberately defines no ``k_n_match_batch`` so the executor falls
    back to its per-row loop — one :meth:`k_n_match` call per shard —
    and ``k``/``n`` are ignored dummies.
    """

    name = "shard-scatter"

    def __init__(self, run_shard) -> None:
        self._run_shard = run_shard

    def k_n_match(self, task: np.ndarray, k: int, n: int) -> _ShardOutput:
        return self._run_shard(int(task[0]))


def _answer_set_differences(
    data: np.ndarray, query: np.ndarray, answer_sets: Dict[int, List[int]]
) -> Dict[int, np.ndarray]:
    """Exact n-match differences of each per-``n`` answer set's ids.

    Uses the same float64 arithmetic as the serial engines (``n-1``-th
    order statistic of ``|data[pid] - query|``), so merged orderings are
    bit-identical to unsharded execution.  ``data`` and the ids are
    shard-local here; the caller maps ids to the global space.
    """
    differences: Dict[int, np.ndarray] = {}
    for n, ids in answer_sets.items():
        rows = np.abs(data[np.asarray(ids, dtype=np.int64)] - query)
        differences[n] = np.partition(rows, n - 1, axis=1)[:, n - 1]
    return differences


def _wrap_pool_payload(pool_kind: str, payload) -> _ShardOutput:
    """Roll a worker payload into the same envelope the closures build.

    The payload shapes match the thread closures exactly (see
    :func:`repro.shard.procpool._run_task`); only the stats roll-up and
    query count need reconstructing on this side of the boundary.
    """
    if pool_kind == "query":
        return _ShardOutput(payload, payload.stats, 1)
    if pool_kind == "frequent":
        return _ShardOutput(payload, payload[0].stats, 1)
    if pool_kind == "batch":
        return _ShardOutput(
            payload,
            SearchStats.aggregate([result.stats for result in payload]),
            len(payload),
        )
    results = payload[0]  # frequent_batch
    return _ShardOutput(
        payload,
        SearchStats.aggregate([result.stats for result in results]),
        len(results),
    )


class ScatterGatherCoordinator:
    """Fan queries out over shards; merge exact global answers back.

    Parameters
    ----------
    shards:
        ``(shard_index, database, global_ids)`` triples for every
        *non-empty* shard.  ``global_ids`` maps the shard's local point
        ids (its row numbers) to global ids and must be ascending — the
        sharded database builds shards in ascending global id order, so
        local id order preserves global id order and the merge tie-break
        is exact.
    total_attributes:
        ``cardinality * dimensionality`` of the *whole* database, used
        as the denominator of merged :class:`SearchStats`.
    workers:
        Fan-out thread-pool size; defaults to one worker per shard,
        capped at ``os.cpu_count()``.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; enables per-shard
        counters/latency (``repro_shard_*``) plus the executor's
        scatter-level metrics.  Answers are identical either way.
    spans:
        Optional :class:`~repro.obs.SpanCollector`; each logical query
        then traces as a ``sharded/<kind>`` root with ``shard_fanout``
        and ``merge`` phases, plus one ``shard_call`` span per shard on
        its worker thread.
    partitioner:
        Name of the partitioning strategy that built the shards, carried
        as a label on the ``repro_shard_*`` metrics so per-shard skew
        can be attributed to the strategy that caused it.
    backend:
        ``"thread"`` (default) fans out on the executor's thread pool;
        ``"process"`` fans out to a persistent spawned worker pool over
        shared-memory shard columns (lazy-started on the first scatter;
        release it with :meth:`close` or a ``with`` block).  Answers and
        merged stats are bit-identical in both modes.
    """

    def __init__(
        self,
        shards: Sequence[Tuple[int, MatchDatabase, np.ndarray]],
        total_attributes: int,
        workers: Optional[int] = None,
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
        partitioner: str = "",
        backend: str = "thread",
    ) -> None:
        if not shards:
            raise ValidationError("scatter-gather needs at least one shard")
        if workers is not None and workers < 1:
            raise ValidationError(f"workers must be >= 1; got {workers}")
        self._shards = list(shards)
        self._total_attributes = int(total_attributes)
        self._dimensionality = self._shards[0][1].dimensionality
        self._workers = (
            int(workers)
            if workers is not None
            else max(1, min(len(self._shards), os.cpu_count() or 1))
        )
        self._metrics = metrics
        self._spans = spans
        self._partitioner = str(partitioner)
        self._backend = validate_shard_backend(backend)
        self._pool = None
        self._last_batch_stats: Optional[BatchStats] = None

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._workers

    @property
    def backend(self) -> str:
        """The fan-out backend, ``"thread"`` or ``"process"``."""
        return self._backend

    def set_backend(
        self, backend: str, workers: Optional[int] = None
    ) -> None:
        """Switch the fan-out backend (and optionally the worker count).

        Releases the process pool (if any) when the configuration
        changes; the next scatter lazily builds whatever the new mode
        needs.  Answers are identical before and after.
        """
        backend = validate_shard_backend(backend)
        if workers is not None and workers < 1:
            raise ValidationError(f"workers must be >= 1; got {workers}")
        changed = backend != self._backend or (
            workers is not None and int(workers) != self._workers
        )
        if changed:
            self.close()
            self._pool = None
        self._backend = backend
        if workers is not None:
            self._workers = int(workers)

    def close(self) -> None:
        """Release backend resources (idempotent, restart-friendly).

        Only the process backend holds releasable state — its worker
        pool and shared-memory segments.  A scatter after ``close()``
        transparently restarts the pool, so ``close()`` is a resource
        release, never a poison pill; the thread backend makes this a
        no-op, keeping one lifecycle contract across backends.
        """
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ScatterGatherCoordinator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _ensure_pool(self):
        if self._pool is None:
            from .procpool import ShardProcessPool

            self._pool = ShardProcessPool(
                [(shard_index, db) for shard_index, db, _ in self._shards],
                workers=min(self._workers, len(self._shards)),
                default_engine=self._shards[0][1].default_engine,
            )
        return self._pool

    @property
    def metrics(self):
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

    @property
    def partitioner(self) -> str:
        """The partitioner name used as a ``repro_shard_*`` label."""
        return self._partitioner

    @property
    def last_batch_stats(self) -> Optional[BatchStats]:
        """The :class:`BatchStats` of the most recent ``*_batch`` call."""
        return self._last_batch_stats

    # ------------------------------------------------------------------
    def k_n_match(
        self, query: np.ndarray, k: int, n: int, engine: Optional[str] = None
    ) -> MatchResult:
        """Exact global k-n-match via per-shard top-k + canonical merge."""
        engine_name = self._engine_name(engine)

        def run_one(position: int) -> _ShardOutput:
            _, db, _ = self._shards[position]
            result = db.k_n_match(query, min(k, db.cardinality), n, engine=engine)
            return _ShardOutput(result, result.stats, 1)

        pool_args = (query, k, n, engine_name)
        spans = self._spans
        if spans is None:
            outputs = self._scatter(
                "k_n_match", engine_name, run_one, pool_args
            )
            return self._merge_match(outputs, k, n)
        with spans.span(
            "sharded/k_n_match", k=k, n=n, shards=len(self._shards)
        ):
            outputs = self._scatter(
                "k_n_match", engine_name, run_one, pool_args
            )
            with spans.span("merge"):
                return self._merge_match(outputs, k, n)

    def _merge_match(
        self, outputs: List[_ShardOutput], k: int, n: int
    ) -> MatchResult:
        """Gather per-shard top-k lists into the exact global answer."""
        ids = np.concatenate(
            [
                gids[np.asarray(output.payload.ids, dtype=np.int64)]
                for (_, _, gids), output in zip(self._shards, outputs)
            ]
        )
        differences = np.concatenate(
            [
                np.asarray(output.payload.differences, dtype=np.float64)
                for output in outputs
            ]
        )
        merged_ids, merged_differences = merge_top_k(ids, differences, k)
        return MatchResult(
            ids=merged_ids,
            differences=merged_differences,
            k=k,
            n=n,
            stats=merge_shard_stats(
                [output.stats for output in outputs], self._total_attributes
            ),
        )

    def frequent_k_n_match(
        self,
        query: np.ndarray,
        k: int,
        n_range: Tuple[int, int],
        engine: Optional[str] = None,
        keep_answer_sets: bool = True,
    ) -> FrequentMatchResult:
        """Exact global frequent k-n-match.

        Per-``n`` answer sets are merged across shards first (each to
        the exact global k-list), and frequencies are counted over the
        merged sets — the order Definition 4 requires.
        """
        n0, n1 = n_range
        engine_name = self._engine_name(engine)

        def run_one(position: int) -> _ShardOutput:
            _, db, _ = self._shards[position]
            result = db.frequent_k_n_match(
                query,
                min(k, db.cardinality),
                (n0, n1),
                engine=engine,
                keep_answer_sets=True,
            )
            differences = _answer_set_differences(
                db.data, query, result.answer_sets
            )
            return _ShardOutput((result, differences), result.stats, 1)

        pool_args = (query, k, (n0, n1), engine_name)
        spans = self._spans
        if spans is None:
            outputs = self._scatter(
                "frequent_k_n_match", engine_name, run_one, pool_args
            )
            return self._merge_frequent(outputs, k, n0, n1, keep_answer_sets)
        with spans.span(
            "sharded/frequent_k_n_match",
            k=k, n0=n0, n1=n1, shards=len(self._shards),
        ):
            outputs = self._scatter(
                "frequent_k_n_match", engine_name, run_one, pool_args
            )
            with spans.span("merge"):
                return self._merge_frequent(
                    outputs, k, n0, n1, keep_answer_sets
                )

    def _merge_frequent(
        self,
        outputs: List[_ShardOutput],
        k: int,
        n0: int,
        n1: int,
        keep_answer_sets: bool,
    ) -> FrequentMatchResult:
        """Per-``n`` merge first, frequency counting second (Def. 4)."""
        merged_sets: Dict[int, List[int]] = {}
        for n in range(n0, n1 + 1):
            ids = np.concatenate(
                [
                    gids[
                        np.asarray(
                            output.payload[0].answer_sets[n], dtype=np.int64
                        )
                    ]
                    for (_, _, gids), output in zip(self._shards, outputs)
                ]
            )
            differences = np.concatenate(
                [output.payload[1][n] for output in outputs]
            )
            merged_sets[n], _ = merge_top_k(ids, differences, k)
        chosen, frequencies = rank_by_frequency(merged_sets, k)
        return FrequentMatchResult(
            ids=chosen,
            frequencies=frequencies,
            k=k,
            n_range=(n0, n1),
            answer_sets=merged_sets if keep_answer_sets else None,
            stats=merge_shard_stats(
                [output.stats for output in outputs], self._total_attributes
            ),
        )

    # ------------------------------------------------------------------
    def k_n_match_batch(
        self,
        queries: np.ndarray,
        k: int,
        n: int,
        engine: Optional[str] = None,
    ) -> List[MatchResult]:
        """One exact global k-n-match per query row, shard-parallel.

        Every shard runs the *whole* batch through its own engine's
        native batch path (lock-step vectorisation for ``block-ad``),
        so the scatter parallelism composes with the batch engines
        rather than replacing them.
        """
        count = queries.shape[0]
        started = time.perf_counter()
        if count == 0:
            self._last_batch_stats = BatchStats(
                queries=0, shards=0, workers=self._workers,
                backend=self._backend,
            )
            return []
        engine_name = self._engine_name(engine)

        def run_one(position: int) -> _ShardOutput:
            _, db, _ = self._shards[position]
            results = db.k_n_match_batch(
                queries, min(k, db.cardinality), n, engine=engine
            )
            return _ShardOutput(
                results,
                SearchStats.aggregate([result.stats for result in results]),
                count,
            )

        pool_args = (queries, k, n, engine_name)
        spans = self._spans
        if spans is None:
            outputs = self._scatter(
                "k_n_match_batch", engine_name, run_one, pool_args
            )
            merged = self._merge_match_batch(outputs, count, k, n)
        else:
            with spans.span(
                "sharded/k_n_match_batch",
                batch=count, k=k, n=n, shards=len(self._shards),
            ):
                outputs = self._scatter(
                    "k_n_match_batch", engine_name, run_one, pool_args
                )
                with spans.span("merge"):
                    merged = self._merge_match_batch(outputs, count, k, n)
        self._record_batch(count, started, merged)
        return merged

    def _merge_match_batch(
        self, outputs: List[_ShardOutput], count: int, k: int, n: int
    ) -> List[MatchResult]:
        """Per-query gather of the per-shard batch results."""
        merged: List[MatchResult] = []
        for qi in range(count):
            ids = np.concatenate(
                [
                    gids[np.asarray(output.payload[qi].ids, dtype=np.int64)]
                    for (_, _, gids), output in zip(self._shards, outputs)
                ]
            )
            differences = np.concatenate(
                [
                    np.asarray(
                        output.payload[qi].differences, dtype=np.float64
                    )
                    for output in outputs
                ]
            )
            merged_ids, merged_differences = merge_top_k(ids, differences, k)
            merged.append(
                MatchResult(
                    ids=merged_ids,
                    differences=merged_differences,
                    k=k,
                    n=n,
                    stats=merge_shard_stats(
                        [output.payload[qi].stats for output in outputs],
                        self._total_attributes,
                    ),
                )
            )
        return merged

    def frequent_k_n_match_batch(
        self,
        queries: np.ndarray,
        k: int,
        n_range: Tuple[int, int],
        engine: Optional[str] = None,
        keep_answer_sets: bool = False,
    ) -> List[FrequentMatchResult]:
        """One exact global frequent k-n-match per query row."""
        count = queries.shape[0]
        started = time.perf_counter()
        if count == 0:
            self._last_batch_stats = BatchStats(
                queries=0, shards=0, workers=self._workers,
                backend=self._backend,
            )
            return []
        n0, n1 = n_range
        engine_name = self._engine_name(engine)

        def run_one(position: int) -> _ShardOutput:
            _, db, _ = self._shards[position]
            results = db.frequent_k_n_match_batch(
                queries,
                min(k, db.cardinality),
                (n0, n1),
                engine=engine,
                keep_answer_sets=True,
            )
            differences = [
                _answer_set_differences(db.data, query, result.answer_sets)
                for query, result in zip(queries, results)
            ]
            return _ShardOutput(
                (results, differences),
                SearchStats.aggregate([result.stats for result in results]),
                count,
            )

        pool_args = (queries, k, (n0, n1), engine_name)
        spans = self._spans
        if spans is None:
            outputs = self._scatter(
                "frequent_k_n_match_batch", engine_name, run_one, pool_args
            )
            merged = self._merge_frequent_batch(
                outputs, count, k, n0, n1, keep_answer_sets
            )
        else:
            with spans.span(
                "sharded/frequent_k_n_match_batch",
                batch=count, k=k, n0=n0, n1=n1, shards=len(self._shards),
            ):
                outputs = self._scatter(
                    "frequent_k_n_match_batch", engine_name, run_one,
                    pool_args,
                )
                with spans.span("merge"):
                    merged = self._merge_frequent_batch(
                        outputs, count, k, n0, n1, keep_answer_sets
                    )
        self._record_batch(count, started, merged)
        return merged

    def _merge_frequent_batch(
        self,
        outputs: List[_ShardOutput],
        count: int,
        k: int,
        n0: int,
        n1: int,
        keep_answer_sets: bool,
    ) -> List[FrequentMatchResult]:
        """Per-query, per-``n`` gather of the per-shard batch results."""
        merged: List[FrequentMatchResult] = []
        for qi in range(count):
            merged_sets: Dict[int, List[int]] = {}
            for n in range(n0, n1 + 1):
                ids = np.concatenate(
                    [
                        gids[
                            np.asarray(
                                output.payload[0][qi].answer_sets[n],
                                dtype=np.int64,
                            )
                        ]
                        for (_, _, gids), output in zip(self._shards, outputs)
                    ]
                )
                differences = np.concatenate(
                    [output.payload[1][qi][n] for output in outputs]
                )
                merged_sets[n], _ = merge_top_k(ids, differences, k)
            chosen, frequencies = rank_by_frequency(merged_sets, k)
            merged.append(
                FrequentMatchResult(
                    ids=chosen,
                    frequencies=frequencies,
                    k=k,
                    n_range=(n0, n1),
                    answer_sets=merged_sets if keep_answer_sets else None,
                    stats=merge_shard_stats(
                        [output.payload[0][qi].stats for output in outputs],
                        self._total_attributes,
                    ),
                )
            )
        return merged

    # ------------------------------------------------------------------
    def _engine_name(self, engine: Optional[str]) -> str:
        return engine or self._shards[0][1].default_engine

    def _scatter(
        self, kind: str, engine_name: str, run_one, pool_args: tuple
    ) -> List[_ShardOutput]:
        """Fan the scatter out on the configured backend.

        ``run_one(position)`` is the thread-backend closure; ``pool_args``
        is the equivalent worker-task argument tuple for the process
        backend.  Both produce the same payload shapes, so everything
        downstream (merge, stats roll-up) is backend-agnostic.
        """
        if self._backend == "process":
            return self._scatter_process(kind, engine_name, pool_args)
        return self._scatter_thread(kind, engine_name, run_one)

    def _scatter_thread(
        self, kind: str, engine_name: str, run_one
    ) -> List[_ShardOutput]:
        """Run ``run_one(position)`` for every shard via the executor."""
        registry = self._metrics
        spans = self._spans
        if registry is None and spans is None:
            run = run_one
        else:
            # Captured on the request thread: pool-thread shard_call
            # roots re-attach it so cross-thread siblings stay
            # correlated with the request that spawned them.
            trace_id = (
                spans.capture_context("trace_id")
                if spans is not None
                else None
            )

            def run(position: int) -> _ShardOutput:
                shard_index = self._shards[position][0]
                shard_started = (
                    time.perf_counter() if registry is not None else 0.0
                )
                if spans is None:
                    output = run_one(position)
                else:
                    # On a pool worker this opens a new root (span stacks
                    # are thread-confined); inline it nests under the
                    # ``shard_fanout`` span of the calling thread.
                    call_meta = dict(
                        shard=shard_index,
                        engine=engine_name,
                        kind=kind,
                        backend="thread",
                    )
                    if trace_id is not None:
                        call_meta["trace_id"] = trace_id
                    with spans.span("shard_call", **call_meta):
                        output = run_one(position)
                if registry is not None:
                    from ..obs import observe_shard_call

                    observe_shard_call(
                        registry,
                        shard=str(shard_index),
                        engine=engine_name,
                        kind=kind,
                        queries=output.queries,
                        stats=output.stats,
                        wall_seconds=time.perf_counter() - shard_started,
                        dimensionality=self._dimensionality,
                        partitioner=self._partitioner,
                        backend="thread",
                    )
                return output

        tasks = np.arange(len(self._shards), dtype=np.float64).reshape(-1, 1)
        executor = ParallelBatchExecutor(
            _ShardTaskEngine(run),
            workers=min(self._workers, len(self._shards)),
            chunk_size=1,
            metrics=registry,
        )
        if spans is None:
            return list(executor.k_n_match_batch(tasks, 1, 1))
        with spans.span(
            "shard_fanout",
            kind=kind,
            engine=engine_name,
            shards=len(self._shards),
            backend="thread",
        ):
            return list(executor.k_n_match_batch(tasks, 1, 1))

    def _scatter_process(
        self, kind: str, engine_name: str, pool_args: tuple
    ) -> List[_ShardOutput]:
        """Fan the scatter out to the shared-memory worker pool.

        One pool task per shard; the pool load-balances them over its
        workers and ships back the same payload shapes the thread
        closures produce, plus a per-shard envelope (worker pid, worker
        wall seconds).  Spans and metrics are recorded here, post hoc —
        worker processes never see the obs objects — with the worker's
        own wall time as the duration of record.
        """
        pool = self._ensure_pool()
        pool_kind = _POOL_KINDS[kind]
        tasks = [
            (position, pool_kind, pool_args)
            for position in range(len(self._shards))
        ]
        spans = self._spans
        if spans is None:
            results = pool.run_tasks(tasks)
        else:
            with spans.span(
                "shard_fanout",
                kind=kind,
                engine=engine_name,
                shards=len(self._shards),
                backend="process",
                workers=pool.workers,
            ):
                results = pool.run_tasks(tasks, want_spans=True)
        registry = self._metrics
        trace_id = (
            spans.capture_context("trace_id") if spans is not None else None
        )
        outputs: List[_ShardOutput] = []
        for position, result in enumerate(results):
            shard_index = self._shards[position][0]
            output = _wrap_pool_payload(pool_kind, result.payload)
            if spans is not None:
                # Post-hoc marker span: the shard ran in a worker
                # process, so the span's own duration is ~0 and the
                # authoritative timing is the shipped-back
                # ``worker_seconds`` annotation.  The worker's own span
                # forest (shipped in the ok envelope) is then grafted
                # underneath, rebased onto this span's clock, so the
                # tree shows real worker phase rows.
                call_meta = dict(
                    shard=shard_index,
                    engine=engine_name,
                    kind=kind,
                    backend="process",
                    worker_pid=result.worker_pid,
                    worker_seconds=result.worker_seconds,
                )
                if trace_id is not None:
                    call_meta["trace_id"] = trace_id
                with spans.span("shard_call", **call_meta) as call_span:
                    pass
                if result.spans:
                    from ..obs.spans import span_from_dict, stitch_worker_spans

                    stitch_worker_spans(
                        call_span,
                        [span_from_dict(tree) for tree in result.spans],
                        result.worker_pid,
                    )
            if registry is not None:
                from ..obs import observe_shard_call

                observe_shard_call(
                    registry,
                    shard=str(shard_index),
                    engine=engine_name,
                    kind=kind,
                    queries=output.queries,
                    stats=output.stats,
                    wall_seconds=result.worker_seconds,
                    dimensionality=self._dimensionality,
                    partitioner=self._partitioner,
                    backend="process",
                )
            outputs.append(output)
        return outputs

    def _record_batch(self, count: int, started: float, merged) -> None:
        self._last_batch_stats = BatchStats(
            queries=count,
            shards=len(self._shards),
            workers=self._workers,
            wall_time_seconds=time.perf_counter() - started,
            total=SearchStats.aggregate([result.stats for result in merged]),
            backend=self._backend,
        )
