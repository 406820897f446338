"""Shared instrumentation hooks: one vocabulary of metric names.

Every instrumented component (engines, the batch executor, the pager,
the disk engines) records through the helpers here, so metric names and
label conventions live in exactly one place.  See
``docs/observability.md`` for the full catalogue.

All helpers take the registry explicitly and must only be called behind
an ``if registry is not None`` guard — the guard at the call site is the
whole zero-cost story; none of these functions tolerates ``None``.
"""

from __future__ import annotations

from ..core.types import SearchStats
from .registry import (
    DEFAULT_COST_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)
from .trace import epsilon_rounds_from_stats

__all__ = [
    "observe_query",
    "observe_approx_query",
    "observe_batch",
    "observe_shard_call",
    "observe_page_read",
    "observe_pager_fault",
    "observe_serve_request",
    "observe_serve_shed",
    "observe_serve_cache",
    "observe_plan_decision",
    "observe_lsm_mutation",
    "observe_lsm_flush",
    "observe_lsm_compaction",
    "update_lsm_gauges",
    "serve_inflight_gauge",
    "SHARD_SIZE_BUCKETS",
    "STRAGGLER_RATIO_BUCKETS",
    "RECALL_BUCKETS",
]

#: Shard-size buckets: powers of two up to the chunked maximum.
SHARD_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Straggler-ratio buckets (slowest shard / mean shard wall time); 1.0
#: means perfectly balanced shards.
STRAGGLER_RATIO_BUCKETS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0)

#: Certified-recall buckets: dense near 1.0, where targets live.
RECALL_BUCKETS = (0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


def observe_query(
    registry: MetricsRegistry,
    engine: str,
    kind: str,
    stats: SearchStats,
    wall_seconds: float,
    dimensionality: int,
) -> None:
    """Record one finished query on ``registry``.

    ``stats`` is the query's :class:`SearchStats` — the engines' single
    source of truth — so instrumentation can never disagree with the
    counters a result reports, and the engines' answers stay
    bit-identical whether or not a registry is installed.
    """
    labels = {"engine": engine, "kind": kind}
    registry.counter(
        "repro_queries_total", "queries executed"
    ).labels(**labels).inc()
    registry.counter(
        "repro_attributes_retrieved_total",
        "individual attributes retrieved (the paper's cost measure)",
    ).labels(**labels).inc(stats.attributes_retrieved)
    registry.counter(
        "repro_heap_pops_total", "frontier heap pops"
    ).labels(**labels).inc(stats.heap_pops)
    rounds = epsilon_rounds_from_stats(stats, dimensionality)
    registry.counter(
        "repro_epsilon_rounds_total", "block-engine window growth rounds"
    ).labels(**labels).inc(rounds)
    if stats.sequential_page_reads or stats.random_page_reads:
        pages = registry.counter(
            "repro_query_page_reads_total", "page reads charged to queries"
        )
        pages.labels(engine=engine, pattern="sequential").inc(
            stats.sequential_page_reads
        )
        pages.labels(engine=engine, pattern="random").inc(
            stats.random_page_reads
        )
    registry.histogram(
        "repro_query_seconds",
        "query wall time",
        buckets=DEFAULT_LATENCY_BUCKETS,
    ).labels(**labels).observe(wall_seconds)
    registry.histogram(
        "repro_query_attributes",
        "attributes retrieved per query",
        buckets=DEFAULT_COST_BUCKETS,
    ).labels(**labels).observe(stats.attributes_retrieved)


def observe_approx_query(
    registry: MetricsRegistry,
    engine: str,
    kind: str,
    stats: SearchStats,
    wall_seconds: float,
    dimensionality: int,
    certified_recall: float,
) -> None:
    """Record one finished *approximate* query.

    Everything :func:`observe_query` records (same names, so exact and
    approx throughput share dashboards, separated by the engine label)
    plus the per-query recall certificate — the
    ``repro_approx_certified_recall`` histogram is the live view of how
    much certified quality the configured budgets are actually buying.
    """
    observe_query(registry, engine, kind, stats, wall_seconds, dimensionality)
    registry.histogram(
        "repro_approx_certified_recall",
        "certified (provable lower-bound) recall per approximate query",
        buckets=RECALL_BUCKETS,
    ).labels(engine=engine, kind=kind).observe(certified_recall)


def observe_batch(
    registry: MetricsRegistry,
    engine: str,
    queries: int,
    shard_sizes,
    shard_seconds,
    worker_busy_seconds,
    wall_seconds: float,
) -> None:
    """Record one executor batch: shards, stragglers, worker utilisation."""
    labels = {"engine": engine}
    registry.counter(
        "repro_batches_total", "executor batches run"
    ).labels(**labels).inc()
    registry.counter(
        "repro_batch_queries_total", "queries run through the executor"
    ).labels(**labels).inc(queries)
    size_histogram = registry.histogram(
        "repro_batch_shard_queries",
        "queries per shard",
        buckets=SHARD_SIZE_BUCKETS,
    ).labels(**labels)
    time_histogram = registry.histogram(
        "repro_batch_shard_seconds",
        "shard wall time",
        buckets=DEFAULT_LATENCY_BUCKETS,
    ).labels(**labels)
    for size, seconds in zip(shard_sizes, shard_seconds):
        size_histogram.observe(size)
        time_histogram.observe(seconds)
    if shard_seconds:
        mean = sum(shard_seconds) / len(shard_seconds)
        ratio = (max(shard_seconds) / mean) if mean > 0 else 1.0
        registry.histogram(
            "repro_batch_straggler_ratio",
            "slowest shard / mean shard wall time per batch",
            buckets=STRAGGLER_RATIO_BUCKETS,
        ).labels(**labels).observe(ratio)
    utilisation = registry.gauge(
        "repro_batch_worker_utilization",
        "per-worker busy fraction of the last batch",
    )
    busy_total = registry.counter(
        "repro_batch_worker_busy_seconds_total",
        "cumulative per-worker busy time",
    )
    for index, busy in enumerate(worker_busy_seconds):
        worker = str(index)
        busy_total.labels(engine=engine, worker=worker).inc(busy)
        utilisation.labels(engine=engine, worker=worker).set(
            busy / wall_seconds if wall_seconds > 0 else 0.0
        )


def observe_shard_call(
    registry: MetricsRegistry,
    shard: str,
    engine: str,
    kind: str,
    queries: int,
    stats: SearchStats,
    wall_seconds: float,
    dimensionality: int,
    partitioner: str = "",
    backend: str = "",
) -> None:
    """Record one per-shard engine call of a scatter-gather fan-out.

    A *call* covers every query of the scattered request on that shard
    (one for a single query, the batch size for a ``*_batch``); ``stats``
    is the shard's rolled-up :class:`SearchStats` for the call.  The
    shard-labelled counters expose per-partition skew — the signal for
    choosing a partitioner, which is why the partitioner name is itself
    a label — while the logical-query counters
    (``repro_queries_total``...) stay un-inflated because the shard
    layer, not the per-shard engines, is the metered component.
    ``backend`` says where the call ran (``thread`` in-process,
    ``process`` in a shared-memory pool worker — there ``wall_seconds``
    is the worker's own wall time, shipped back in the result
    envelope).  Epsilon rounds come from the rolled-up probe counter:
    every block-engine query charges ``d`` probes plus ``2d`` per round,
    so the call's rounds are ``(probes - queries * d) / 2d``.
    """
    labels = {
        "shard": shard,
        "engine": engine,
        "kind": kind,
        "partitioner": partitioner,
        "backend": backend,
    }
    registry.counter(
        "repro_shard_calls_total", "per-shard engine calls in scatter-gather"
    ).labels(**labels).inc()
    registry.counter(
        "repro_shard_queries_total", "queries scattered to a shard"
    ).labels(**labels).inc(queries)
    registry.counter(
        "repro_shard_attributes_retrieved_total",
        "attributes retrieved within a shard",
    ).labels(**labels).inc(stats.attributes_retrieved)
    extra = stats.binary_search_probes - queries * dimensionality
    registry.counter(
        "repro_shard_epsilon_rounds_total",
        "block-engine window growth rounds within a shard",
    ).labels(**labels).inc(max(0, extra) // (2 * dimensionality))
    registry.histogram(
        "repro_shard_call_seconds",
        "per-shard wall time of one scatter call",
        buckets=DEFAULT_LATENCY_BUCKETS,
    ).labels(**labels).observe(wall_seconds)
    # The same wall time under the worker-centric label set: one series
    # per backend (not per shard), the honest thread-vs-process
    # comparison a dashboard wants without the shard-cardinality fan.
    registry.histogram(
        "repro_shard_worker_seconds",
        "per-worker wall time of one scatter call, by backend",
        buckets=DEFAULT_LATENCY_BUCKETS,
    ).labels(engine=engine, kind=kind, backend=backend).observe(wall_seconds)


def observe_serve_request(
    registry: MetricsRegistry,
    endpoint: str,
    status: int,
    wall_seconds: float,
    queue_seconds: float,
) -> None:
    """Record one finished HTTP request of the serving layer.

    ``endpoint`` is the request path (``/v1/query``...), ``status`` the
    HTTP status sent, ``wall_seconds`` the whole in-server handling time
    and ``queue_seconds`` the admission queue wait (0 for requests that
    never queued — GETs, early 4xx rejections).
    """
    labels = {"endpoint": endpoint, "status": str(status)}
    registry.counter(
        "repro_serve_requests_total", "HTTP requests served"
    ).labels(**labels).inc()
    registry.histogram(
        "repro_serve_request_seconds",
        "in-server request handling time",
        buckets=DEFAULT_LATENCY_BUCKETS,
    ).labels(endpoint=endpoint).observe(wall_seconds)
    registry.histogram(
        "repro_serve_queue_seconds",
        "admission queue wait before a request runs",
        buckets=DEFAULT_LATENCY_BUCKETS,
    ).labels(endpoint=endpoint).observe(queue_seconds)


def observe_serve_shed(
    registry: MetricsRegistry, endpoint: str, reason: str
) -> None:
    """Record one load-shed (429) decision (``reason``: queue_full /
    deadline)."""
    registry.counter(
        "repro_serve_sheds_total", "requests shed by admission control"
    ).labels(endpoint=endpoint, reason=reason).inc()


def observe_serve_cache(
    registry: MetricsRegistry,
    endpoint: str,
    event: str,
    evictions: int = 0,
) -> None:
    """Record one result-cache outcome (``event``: hit / miss / bypass).

    ``evictions`` is the number of entries evicted while storing the
    miss, counted separately under ``repro_serve_cache_evictions_total``.
    """
    if event == "hit":
        registry.counter(
            "repro_serve_cache_hits_total", "result-cache hits"
        ).labels(endpoint=endpoint).inc()
    elif event == "miss":
        registry.counter(
            "repro_serve_cache_misses_total", "result-cache misses"
        ).labels(endpoint=endpoint).inc()
    if evictions:
        registry.counter(
            "repro_serve_cache_evictions_total", "result-cache evictions"
        ).labels().inc(evictions)


def observe_plan_decision(
    registry: MetricsRegistry,
    engine: str,
    kind: str,
    predicted_seconds: float,
    actual_seconds: float,
    fanout: int = 1,
) -> None:
    """Record one executed ``engine="auto"`` planning decision.

    ``engine`` is the concrete engine the planner resolved to, ``kind``
    the query kind planned, and the two latency series put the model's
    prediction next to what the query actually took — the drift signal
    for re-calibrating a stale plan-model sidecar.  ``fanout`` is the
    shard fan-out the plan scattered to (1 on a flat database).
    """
    labels = {"engine": engine, "kind": kind}
    registry.counter(
        "repro_plan_decisions_total",
        "engine=auto queries by resolved engine",
    ).labels(**labels).inc()
    registry.histogram(
        "repro_plan_predicted_seconds",
        "planner-predicted per-query cost",
        buckets=DEFAULT_LATENCY_BUCKETS,
    ).labels(**labels).observe(predicted_seconds)
    registry.histogram(
        "repro_plan_actual_seconds",
        "measured per-query cost of planned queries",
        buckets=DEFAULT_LATENCY_BUCKETS,
    ).labels(**labels).observe(actual_seconds)
    if fanout > 1:
        registry.counter(
            "repro_plan_fanout_total",
            "shard calls scattered by planned queries",
        ).labels(**labels).inc(fanout)


def observe_lsm_mutation(
    registry: MetricsRegistry, op: str, wal_bytes: int, wall_seconds: float
) -> None:
    """Record one LSM mutation (``op``: insert / delete) and its WAL cost."""
    registry.counter(
        "repro_lsm_mutations_total", "LSM store mutations applied"
    ).labels(op=op).inc()
    registry.counter(
        "repro_lsm_wal_bytes_total", "bytes appended to the write-ahead log"
    ).labels().inc(wal_bytes)
    registry.histogram(
        "repro_lsm_mutation_seconds",
        "wall time of one LSM mutation (WAL append included)",
        buckets=DEFAULT_LATENCY_BUCKETS,
    ).labels(op=op).observe(wall_seconds)


def observe_lsm_flush(
    registry: MetricsRegistry,
    rows: int,
    bytes_written: int,
    wall_seconds: float,
) -> None:
    """Record one memtable flush into an L0 segment."""
    registry.counter(
        "repro_lsm_flushes_total", "memtable flushes into L0 segments"
    ).labels().inc()
    registry.counter(
        "repro_lsm_flush_rows_total", "live rows frozen by flushes"
    ).labels().inc(rows)
    registry.counter(
        "repro_lsm_segment_bytes_total", "segment bytes written to disk"
    ).labels(cause="flush").inc(bytes_written)
    registry.histogram(
        "repro_lsm_flush_seconds",
        "wall time of one memtable flush",
        buckets=DEFAULT_LATENCY_BUCKETS,
    ).labels().observe(wall_seconds)


def observe_lsm_compaction(
    registry: MetricsRegistry,
    level: int,
    segments_merged: int,
    rows_in: int,
    rows_out: int,
    wall_seconds: float,
    bytes_written: int,
) -> None:
    """Record one finished level compaction.

    ``rows_in - rows_out`` is the garbage (tombstoned rows) the merge
    reclaimed; the byte counter shares its name with the flush series,
    split by the ``cause`` label, so total write amplification is one
    sum over ``repro_lsm_segment_bytes_total``.
    """
    labels = {"level": str(level)}
    registry.counter(
        "repro_lsm_compactions_total", "level compactions completed"
    ).labels(**labels).inc()
    registry.counter(
        "repro_lsm_compaction_rows_total", "rows read by compactions"
    ).labels(**labels).inc(rows_in)
    registry.counter(
        "repro_lsm_compaction_reclaimed_total",
        "tombstoned rows dropped by compactions",
    ).labels(**labels).inc(rows_in - rows_out)
    registry.counter(
        "repro_lsm_segment_bytes_total", "segment bytes written to disk"
    ).labels(cause="compact").inc(bytes_written)
    registry.histogram(
        "repro_lsm_compaction_seconds",
        "wall time of one level compaction",
        buckets=DEFAULT_LATENCY_BUCKETS,
    ).labels(**labels).observe(wall_seconds)


def update_lsm_gauges(registry: MetricsRegistry, store) -> None:
    """Refresh the point-in-time LSM gauges from a store's current state.

    Called after mutations, flushes and compactions — cheap reads of
    counters the store already maintains.
    """
    for entry in store.level_layout():
        registry.gauge(
            "repro_lsm_segments", "segments per LSM level"
        ).labels(level=str(entry["level"])).set(entry["segments"])
    registry.gauge(
        "repro_lsm_memtable_rows", "rows in the mutable memtable tier"
    ).labels().set(store.memtable_size)
    registry.gauge(
        "repro_lsm_tombstones", "live tombstones awaiting compaction"
    ).labels().set(store.tombstone_count)
    registry.gauge(
        "repro_lsm_live_points", "live (queryable) points in the store"
    ).labels().set(store.cardinality)
    registry.gauge(
        "repro_lsm_wal_bytes", "current write-ahead log size"
    ).labels().set(store.wal_bytes)
    registry.gauge(
        "repro_lsm_write_amplification",
        "segment bytes written per user byte inserted",
    ).labels().set(store.write_amplification)


def serve_inflight_gauge(registry: MetricsRegistry):
    """The gauge tracking currently-executing serve requests."""
    return registry.gauge(
        "repro_serve_inflight", "requests currently holding an admission slot"
    ).labels()


def observe_page_read(registry: MetricsRegistry, sequential: bool) -> None:
    """Record one pager-level page read (called from the recorder)."""
    registry.counter(
        "repro_pager_reads_total", "pages served by the pager"
    ).labels(pattern="sequential" if sequential else "random").inc()


def observe_pager_fault(registry: MetricsRegistry, kind: str) -> None:
    """Record one injected pager fault (``kind``: hard / corruption)."""
    registry.counter(
        "repro_pager_faults_total", "injected storage faults"
    ).labels(kind=kind).inc()
