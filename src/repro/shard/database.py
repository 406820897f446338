"""The sharded database facade: partition, scatter, gather, exactly.

:class:`ShardedMatchDatabase` mirrors the
:class:`~repro.core.engine.MatchDatabase` query surface but holds one
independent ``MatchDatabase`` per shard, each over a disjoint slice of
the point set chosen by a :class:`~repro.shard.partition.Partitioner`.
Queries fan out through a
:class:`~repro.shard.coordinator.ScatterGatherCoordinator` and come back
merged into the exact global answer — ids, differences, frequencies and
answer sets bit-identical to a single unsharded database for the
canonical-tie-break engines (``naive``, ``block-ad`` and its alias
``batch-block-ad``; the heap ``ad`` engine agrees wherever its
within-tie discovery order does, i.e. always on tie-free data).

Shard membership is materialised in ascending global id order, so each
shard's local id ``j`` maps to ``global_ids(s)[j]`` and local id order
preserves global id order — the invariant the merge tie-break relies
on.  Empty shards (more shards than points, or an unlucky hash) are
tracked for :meth:`shard_sizes` but never queried; shards smaller than
``k`` simply contribute their whole point set.

Metrics (``metrics=``) are recorded by the shard layer itself — one
logical query produces shard-labelled ``repro_shard_*`` counters plus
the scatter executor's batch metrics — rather than by the per-shard
engines, so aggregate query counters keep counting *logical* queries,
not ``shards``-times-inflated ones.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple, Union

import numpy as np

from ..core import validation
from ..core.engine import (
    AUTO_ENGINE,
    MatchDatabase,
    validate_engine_choice,
    validate_engine_name,
)
from ..core.types import FrequentMatchResult, MatchResult
from ..errors import ValidationError
from ..parallel import BatchStats
from .coordinator import ScatterGatherCoordinator
from .partition import (
    DEFAULT_PARTITIONER,
    Partitioner,
    make_partitioner,
    validate_shard_count,
)

__all__ = ["ShardedMatchDatabase"]


class ShardedMatchDatabase:
    """Scatter-gather k-n-match over a partitioned point set.

    >>> import numpy as np
    >>> from repro.shard import ShardedMatchDatabase
    >>> db = ShardedMatchDatabase(np.arange(20.0).reshape(10, 2), shards=3)
    >>> db.k_n_match([8.0, 9.0], k=2, n=2).ids
    [4, 3]
    """

    def __init__(
        self,
        data,
        shards: int = 4,
        partitioner: Union[str, Partitioner] = DEFAULT_PARTITIONER,
        default_engine: str = "ad",
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
        workers: Optional[int] = None,
        backend: str = "thread",
        **partitioner_options,
    ) -> None:
        array = validation.as_database_array(data)
        validate_engine_choice(default_engine)
        shards = validate_shard_count(shards)
        if isinstance(partitioner, Partitioner):
            if partitioner_options:
                raise ValidationError(
                    "partitioner options are only accepted with a "
                    "partitioner name, not a Partitioner instance"
                )
            self._partitioner = partitioner
        else:
            self._partitioner = make_partitioner(
                partitioner, **partitioner_options
            )
        assignment = self._checked_assignment(array, shards)
        self._data = array
        self._assignment = assignment
        self._shard_count = shards
        self._default_engine = default_engine
        self._metrics = metrics
        self._spans = spans
        self._planner = None
        self._plan_model = None
        self._global_ids: List[np.ndarray] = [
            np.flatnonzero(assignment == s) for s in range(shards)
        ]
        # An "auto" facade default is resolved *before* the scatter, so
        # per-shard databases always hold a concrete engine default.
        shard_default = (
            "block-ad" if default_engine == AUTO_ENGINE else default_engine
        )
        self._shard_dbs: List[Optional[MatchDatabase]] = [
            MatchDatabase(array[gids], default_engine=shard_default)
            if gids.size
            else None
            for gids in self._global_ids
        ]
        self._coordinator = ScatterGatherCoordinator(
            [
                (s, db, gids)
                for s, (db, gids) in enumerate(
                    zip(self._shard_dbs, self._global_ids)
                )
                if db is not None
            ],
            total_attributes=array.shape[0] * array.shape[1],
            workers=workers,
            metrics=metrics,
            spans=spans,
            partitioner=self._partitioner.name,
            backend=backend,
        )

    def _checked_assignment(
        self, array: np.ndarray, shards: int
    ) -> np.ndarray:
        """Run the partitioner and validate its output defensively.

        Custom partitioners are user code; a malformed assignment would
        otherwise surface as silently wrong answers, the one failure
        mode this subsystem exists to rule out.
        """
        assignment = np.asarray(self._partitioner.assign(array, shards))
        if assignment.shape != (array.shape[0],):
            raise ValidationError(
                f"partitioner {self._partitioner.describe()!r} returned "
                f"shape {assignment.shape}; expected ({array.shape[0]},)"
            )
        if not np.issubdtype(assignment.dtype, np.integer):
            raise ValidationError(
                f"partitioner {self._partitioner.describe()!r} returned "
                f"dtype {assignment.dtype}; expected integers"
            )
        assignment = assignment.astype(np.int64)
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= shards
        ):
            raise ValidationError(
                f"partitioner {self._partitioner.describe()!r} assigned "
                f"shards outside [0, {shards})"
            )
        return assignment

    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The full ``(cardinality, dimensionality)`` array (global ids)."""
        return self._data

    @property
    def cardinality(self) -> int:
        return self._data.shape[0]

    @property
    def dimensionality(self) -> int:
        return self._data.shape[1]

    @property
    def shard_count(self) -> int:
        """Number of shards, including empty ones."""
        return self._shard_count

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        """Points per shard (zeros mark empty shards)."""
        return tuple(int(gids.size) for gids in self._global_ids)

    @property
    def partitioner(self) -> Partitioner:
        return self._partitioner

    @property
    def assignment(self) -> np.ndarray:
        """The ``point id -> shard`` map (treat as read-only)."""
        return self._assignment

    @property
    def default_engine(self) -> str:
        return self._default_engine

    @property
    def workers(self) -> int:
        """Fan-out pool size (threads or processes) of the coordinator."""
        return self._coordinator.workers

    @property
    def backend(self) -> str:
        """The fan-out backend, ``"thread"`` or ``"process"``."""
        return self._coordinator.backend

    def set_backend(
        self, backend: str, workers: Optional[int] = None
    ) -> None:
        """Switch the fan-out backend (see the coordinator's docs).

        Answers stay bit-identical; only where the per-shard engine
        calls execute changes.
        """
        self._coordinator.set_backend(backend, workers=workers)

    def close(self) -> None:
        """Release backend resources (idempotent; queries still work).

        With the process backend this shuts the worker pool down and
        unlinks the shared-memory segments; the next query transparently
        restarts them.  The thread backend holds nothing releasable.
        """
        self._coordinator.close()

    def __enter__(self) -> "ShardedMatchDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def metrics(self):
        """The installed :class:`~repro.obs.MetricsRegistry`, or ``None``."""
        return self._metrics

    def set_metrics(self, registry) -> None:
        """Install (or remove, with ``None``) a metrics registry.

        Only the shard layer records (see the module docstring); the
        per-shard engines stay unmetered so logical query counts are
        not inflated by the shard count.
        """
        self._metrics = registry
        self._coordinator.metrics = registry

    @property
    def spans(self):
        """The installed :class:`~repro.obs.SpanCollector`, or ``None``."""
        return self._spans

    def set_spans(self, collector) -> None:
        """Install (or remove, with ``None``) a span collector.

        Like metrics, only the shard layer traces: each logical query
        becomes a ``sharded/<kind>`` root with ``shard_fanout`` and
        ``merge`` phases plus per-shard ``shard_call`` spans on the
        fan-out worker threads.
        """
        self._spans = collector
        self._coordinator.spans = collector

    @property
    def last_batch_stats(self) -> Optional[BatchStats]:
        """The :class:`BatchStats` of the most recent ``*_batch`` call."""
        return self._coordinator.last_batch_stats

    def shard(self, index: int) -> Optional[MatchDatabase]:
        """The per-shard database (``None`` for an empty shard)."""
        self._check_shard(index)
        return self._shard_dbs[index]

    def global_ids(self, index: int) -> np.ndarray:
        """Ascending global ids of the points in one shard."""
        self._check_shard(index)
        return self._global_ids[index]

    def shard_of(self, point_id: int) -> int:
        """The shard a global point id was assigned to."""
        if not 0 <= point_id < self.cardinality:
            raise ValidationError(
                f"point id {point_id} out of range [0, {self.cardinality})"
            )
        return int(self._assignment[point_id])

    def _check_shard(self, index: int) -> None:
        if not 0 <= index < self._shard_count:
            raise ValidationError(
                f"shard {index} out of range [0, {self._shard_count})"
            )

    # ------------------------------------------------------------------
    # cost-based planning (engine="auto")
    # ------------------------------------------------------------------
    @property
    def planner(self):
        """The facade's :class:`~repro.plan.QueryPlanner`.

        Plans over the *largest* shard's database (the representative
        slice: per-shard cost is what the scatter pays per worker) and
        reports the non-empty shard count as the plan fan-out.
        """
        if self._planner is None:
            from ..plan import QueryPlanner

            populated = [db for db in self._shard_dbs if db is not None]
            base = max(populated, key=lambda db: db.cardinality)
            self._planner = QueryPlanner(
                base,
                model=self._plan_model,
                fanout=len(populated),
                spans_owner=self,
            )
        return self._planner

    def set_plan_model(self, model) -> None:
        """Install a :class:`~repro.plan.PlanModel` (e.g. a loaded sidecar)."""
        self._plan_model = model
        self._planner = None

    def plan_query(
        self,
        kind: str,
        k: int,
        n_range,
        batched: bool = False,
        mode: str = "exact",
        target_recall: Optional[float] = None,
    ):
        """The :class:`~repro.plan.QueryPlan` ``engine="auto"`` would use.

        ``k`` is clamped to the planning shard's cardinality — shards
        smaller than ``k`` contribute their whole point set, so that is
        the cost actually paid per shard.
        """
        planner = self.planner
        shard_k = min(int(k), planner.db.cardinality)
        return planner.plan(
            kind, shard_k, n_range, batched=batched, mode=mode,
            target_recall=target_recall,
        )

    def _resolve_engine(self, name, kind, k, n_range, batched=False):
        """Resolve ``engine=`` to ``(concrete name or None, plan|None)``.

        ``None`` means "per-shard default" exactly as before; ``"auto"``
        (explicit or the facade default) is planned here, before the
        scatter, so every shard runs the same concrete engine.
        """
        choice = name if name is not None else self._default_engine
        if choice == AUTO_ENGINE:
            plan = self.plan_query(kind, k, n_range, batched=batched)
            return plan.engine, plan
        if name is not None:
            validate_engine_name(name)
        return name, None

    def _observe_plan(self, plan, results, started) -> None:
        """Export one executed plan; feed per-shard cost back to the model."""
        seconds = time.perf_counter() - started
        count = max(1, len(results))
        cells = sum(r.stats.attributes_retrieved for r in results)
        if self._metrics is not None:
            from ..obs.instrument import observe_plan_decision

            observe_plan_decision(
                self._metrics,
                engine=plan.engine,
                kind=plan.kind,
                predicted_seconds=plan.predicted_seconds,
                actual_seconds=seconds / count,
                fanout=plan.fanout,
            )
        # The model prices one engine call on one shard; the measured
        # retrieval spans all shards, so charge the per-shard share.
        self.planner.record_actual(
            plan, cells / count / plan.fanout, seconds / count
        )

    # ------------------------------------------------------------------
    def k_n_match(
        self,
        query,
        k: int,
        n: int,
        engine: Optional[str] = None,
        trace: bool = False,
        mode: Optional[str] = None,
        budget: Optional[int] = None,
        target_recall: Optional[float] = None,
        candidate_multiplier: Optional[int] = None,
    ) -> MatchResult:
        """The exact global k-n-match (Definition 3), scatter-gathered.

        ``mode="approx"`` switches to the approximate tier: each shard
        runs its approx engine under a proportional share of the budget
        and the gather keeps the *weakest* shard certificate, so the
        merged ``certified_recall`` is sound for the global answer.
        Without any approx argument the call is byte-identical to
        before the tier existed.
        """
        if (
            mode is not None
            or budget is not None
            or target_recall is not None
            or candidate_multiplier is not None
        ):
            from ..approx import validate_approx_params

            mode, budget, target_recall, candidate_multiplier = (
                validate_approx_params(
                    mode, budget, target_recall, candidate_multiplier
                )
            )
            if mode == "approx":
                return self._k_n_match_approx(
                    query, k, n, engine, trace, budget, target_recall,
                    candidate_multiplier,
                )
        query, k, n = validation.validate_match_args(
            query, k, n, self.cardinality, self.dimensionality
        )
        engine, plan = self._resolve_engine(engine, "k_n_match", k, (n, n))
        started = time.perf_counter() if (trace or plan is not None) else 0.0
        result = self._coordinator.k_n_match(query, k, n, engine=engine)
        if plan is not None:
            self._observe_plan(plan, [result], started)
        if trace:
            result.trace = self._build_trace(
                engine, "k_n_match", k, (n, n), result.stats, started
            )
        return result

    def frequent_k_n_match(
        self,
        query,
        k: int,
        n_range: Union[Tuple[int, int], None] = None,
        engine: Optional[str] = None,
        keep_answer_sets: bool = True,
        trace: bool = False,
        mode: Optional[str] = None,
    ) -> FrequentMatchResult:
        """The exact global frequent k-n-match (Definition 4).

        ``mode="approx"`` is rejected, exactly as on the flat facade.
        """
        if mode is not None:
            from ..approx import APPROX_FREQUENT_MESSAGE, validate_mode

            if validate_mode(mode) == "approx":
                raise ValidationError(APPROX_FREQUENT_MESSAGE)
        if n_range is None:
            n_range = (1, self.dimensionality)
        query, k, n_range = validation.validate_frequent_args(
            query, k, n_range, self.cardinality, self.dimensionality
        )
        engine, plan = self._resolve_engine(
            engine, "frequent_k_n_match", k, n_range
        )
        started = time.perf_counter() if (trace or plan is not None) else 0.0
        result = self._coordinator.frequent_k_n_match(
            query, k, n_range, engine=engine, keep_answer_sets=keep_answer_sets
        )
        if plan is not None:
            self._observe_plan(plan, [result], started)
        if trace:
            result.trace = self._build_trace(
                engine, "frequent_k_n_match", k, n_range, result.stats, started
            )
        return result

    def k_n_match_batch(
        self,
        queries,
        k: int,
        n: int,
        engine: Optional[str] = None,
        mode: Optional[str] = None,
        budget: Optional[int] = None,
        target_recall: Optional[float] = None,
        candidate_multiplier: Optional[int] = None,
    ) -> List[MatchResult]:
        """One exact global k-n-match per row of ``queries``.

        Each shard runs the whole batch through its engine's native
        batch path; shards execute concurrently on the coordinator's
        thread pool.  ``mode="approx"`` runs each query through the
        budget-split scatter of :meth:`k_n_match` instead.
        """
        if (
            mode is not None
            or budget is not None
            or target_recall is not None
            or candidate_multiplier is not None
        ):
            from ..approx import validate_approx_params

            mode, budget, target_recall, candidate_multiplier = (
                validate_approx_params(
                    mode, budget, target_recall, candidate_multiplier
                )
            )
            if mode == "approx":
                return self._k_n_match_batch_approx(
                    queries, k, n, engine, budget, target_recall,
                    candidate_multiplier,
                )
        queries, k, n = validation.validate_batch_match_args(
            queries, k, n, self.cardinality, self.dimensionality
        )
        engine, plan = self._resolve_engine(
            engine, "k_n_match", k, (n, n), batched=True
        )
        started = time.perf_counter() if plan is not None else 0.0
        results = self._coordinator.k_n_match_batch(
            queries, k, n, engine=engine
        )
        if plan is not None and results:
            self._observe_plan(plan, results, started)
        return results

    def frequent_k_n_match_batch(
        self,
        queries,
        k: int,
        n_range: Union[Tuple[int, int], None] = None,
        engine: Optional[str] = None,
        keep_answer_sets: bool = False,
        mode: Optional[str] = None,
    ) -> List[FrequentMatchResult]:
        """One exact global frequent k-n-match per row of ``queries``."""
        if mode is not None:
            from ..approx import APPROX_FREQUENT_MESSAGE, validate_mode

            if validate_mode(mode) == "approx":
                raise ValidationError(APPROX_FREQUENT_MESSAGE)
        if n_range is None:
            n_range = (1, self.dimensionality)
        queries, k, n_range = validation.validate_batch_frequent_args(
            queries, k, n_range, self.cardinality, self.dimensionality
        )
        engine, plan = self._resolve_engine(
            engine, "frequent_k_n_match", k, n_range, batched=True
        )
        started = time.perf_counter() if plan is not None else 0.0
        results = self._coordinator.frequent_k_n_match_batch(
            queries, k, n_range, engine=engine,
            keep_answer_sets=keep_answer_sets,
        )
        if plan is not None and results:
            self._observe_plan(plan, results, started)
        return results

    # ------------------------------------------------------------------
    # approximate tier (mode="approx")
    # ------------------------------------------------------------------
    def _resolve_approx_engine(self, name, k, n, target_recall):
        """Resolve ``engine=`` under ``mode="approx"`` to (name, plan|None)."""
        from ..approx import DEFAULT_APPROX_ENGINE, validate_approx_engine

        choice = name if name is not None else DEFAULT_APPROX_ENGINE
        if choice != AUTO_ENGINE:
            return validate_approx_engine(choice), None
        plan = self.plan_query(
            "k_n_match", k, (n, n), mode="approx", target_recall=target_recall
        )
        return plan.engine, plan

    def _approx_shard_budgets(self, budget: Optional[int]) -> List[Optional[int]]:
        """Split a global attribute budget across shards by cardinality.

        Cumulative rounding (``budget * cum // total``) so the shares
        sum to exactly ``budget``, deterministically.  ``None`` (no
        budget) passes through so every shard resolves its own default.
        """
        if budget is None:
            return [None] * self._shard_count
        total = self.cardinality
        shares: List[Optional[int]] = []
        cum = 0
        allotted = 0
        for gids in self._global_ids:
            cum += int(gids.size)
            share = budget * cum // total - allotted
            allotted += share
            shares.append(share)
        return shares

    def _approx_scatter(
        self, query, k, n, engine_name, budget, target_recall, multiplier
    ):
        """One approximate query: scatter, gather, certify the merge.

        Each shard answers under its budget share with ``k`` clamped to
        its cardinality; the gather takes the global top-k of the union
        and certifies against the *weakest* shard bound ``L``:

        * a shard whose answer is exact (certificate 1.0) contributes
          ``+inf`` — its unreturned points cannot displace any merged
          answer that beats its own top-k (and if the merged answer
          does not beat it, the shard's k returned candidates already
          outrank it in the merge);
        * a budgeted shard contributes its frontier bound — every
          unreturned point there costs at least that much;
        * an uncertified shard (pivot-sketch without a full scan)
          contributes ``-inf``, collapsing the merged certificate to 0.

        Any merged difference ``<= L`` is then provably within the
        exact tie-aware global top-k.
        """
        from ..approx import ApproxResult

        shard_budgets = self._approx_shard_budgets(budget)
        shard_results = []
        gid_arrays = []
        for index, (db, gids) in enumerate(
            zip(self._shard_dbs, self._global_ids)
        ):
            if db is None:
                continue
            engine = db._approx_engine(engine_name)
            result = engine.k_n_match(
                query,
                min(k, db.cardinality),
                n,
                budget=shard_budgets[index],
                target_recall=target_recall,
                candidate_multiplier=multiplier,
            )
            shard_results.append(result)
            gid_arrays.append(gids)

        bounds = []
        for result in shard_results:
            if result.exact:
                bounds.append(np.inf)
            elif result.unseen_lower_bound is None:
                bounds.append(-np.inf)
            else:
                bounds.append(result.unseen_lower_bound)
        limit = min(bounds) if bounds else np.inf

        all_ids = np.concatenate(
            [
                gids[np.asarray(result.ids, dtype=np.int64)]
                for result, gids in zip(shard_results, gid_arrays)
            ]
            or [np.empty(0, dtype=np.int64)]
        )
        all_diffs = np.concatenate(
            [
                np.asarray(result.differences, dtype=np.float64)
                for result in shard_results
            ]
            or [np.empty(0, dtype=np.float64)]
        )
        order = np.lexsort((all_ids, all_diffs))[:k]
        out_ids = all_ids[order]
        out_diffs = all_diffs[order]
        certified_count = int(np.count_nonzero(out_diffs <= limit))

        from ..core.types import SearchStats

        stats = SearchStats(
            attributes_retrieved=sum(
                r.stats.attributes_retrieved for r in shard_results
            ),
            total_attributes=self.cardinality * self.dimensionality,
            heap_pops=sum(r.stats.heap_pops for r in shard_results),
            binary_search_probes=sum(
                r.stats.binary_search_probes for r in shard_results
            ),
            candidates_refined=sum(
                r.stats.candidates_refined for r in shard_results
            ),
            approximation_entries_scanned=sum(
                r.stats.approximation_entries_scanned for r in shard_results
            ),
        )
        return ApproxResult(
            ids=[int(pid) for pid in out_ids],
            differences=[float(dif) for dif in out_diffs],
            k=k,
            n=n,
            engine=engine_name,
            certified_recall=certified_count / k,
            certified_count=certified_count,
            unseen_lower_bound=None if not np.isfinite(limit) else float(limit),
            exact=certified_count == k,
            budget=budget,
            stats=stats,
        )

    def _k_n_match_approx(
        self, query, k, n, engine, trace, budget, target_recall,
        candidate_multiplier,
    ):
        from ..approx import DEFAULT_TARGET_RECALL

        query, k, n = validation.validate_match_args(
            query, k, n, self.cardinality, self.dimensionality
        )
        if (
            budget is None
            and target_recall is None
            and candidate_multiplier is None
        ):
            target_recall = DEFAULT_TARGET_RECALL
        resolved, plan = self._resolve_approx_engine(
            engine, k, n, target_recall
        )
        started = time.perf_counter()
        spans = self._spans
        if spans is None:
            result = self._approx_scatter(
                query, k, n, resolved, budget, target_recall,
                candidate_multiplier,
            )
        else:
            with spans.span(
                "sharded/k_n_match",
                k=k,
                n=n,
                mode="approx",
                engine=resolved,
            ):
                result = self._approx_scatter(
                    query, k, n, resolved, budget, target_recall,
                    candidate_multiplier,
                )
                spans.annotate(
                    certified_recall=round(result.certified_recall, 4)
                )
        seconds = time.perf_counter() - started
        if self._metrics is not None:
            from ..obs import observe_approx_query

            observe_approx_query(
                self._metrics,
                resolved,
                "k_n_match",
                result.stats,
                seconds,
                self.dimensionality,
                result.certified_recall,
            )
        if plan is not None:
            self._observe_plan(plan, [result], started)
            self.planner.record_recall(plan.engine, result.certified_recall)
        if trace:
            result.trace = self._build_trace(
                resolved, "k_n_match", k, (n, n), result.stats, started
            )
        return result

    def _k_n_match_batch_approx(
        self, queries, k, n, engine, budget, target_recall,
        candidate_multiplier,
    ):
        from ..approx import DEFAULT_TARGET_RECALL

        queries, k, n = validation.validate_batch_match_args(
            queries, k, n, self.cardinality, self.dimensionality
        )
        if (
            budget is None
            and target_recall is None
            and candidate_multiplier is None
        ):
            target_recall = DEFAULT_TARGET_RECALL
        resolved, plan = self._resolve_approx_engine(
            engine, k, n, target_recall
        )
        started = time.perf_counter()
        results = [
            self._approx_scatter(
                query, k, n, resolved, budget, target_recall,
                candidate_multiplier,
            )
            for query in queries
        ]
        if self._metrics is not None:
            from ..obs import observe_approx_query

            seconds = time.perf_counter() - started
            for result in results:
                observe_approx_query(
                    self._metrics,
                    resolved,
                    "k_n_match",
                    result.stats,
                    seconds / len(results),
                    self.dimensionality,
                    result.certified_recall,
                )
        if plan is not None and results:
            self._observe_plan(plan, results, started)
            mean_recall = sum(
                result.certified_recall for result in results
            ) / len(results)
            self.planner.record_recall(plan.engine, mean_recall)
        return results

    # ------------------------------------------------------------------
    def _build_trace(self, engine, kind, k, n_range, stats, started):
        from ..obs import QueryTrace

        label = (
            f"sharded[{self._shard_count}x{engine or self._default_engine}"
            f"/{self._partitioner.name}]"
        )
        spans = self._spans
        return QueryTrace.from_stats(
            engine=label,
            kind=kind,
            k=k,
            n_range=n_range,
            stats=stats,
            wall_time_seconds=time.perf_counter() - started,
            dimensionality=self.dimensionality,
            trace_id=(
                spans.capture_context("trace_id")
                if spans is not None
                else None
            ),
        )

    def __len__(self) -> int:
        return self.cardinality

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ShardedMatchDatabase(cardinality={self.cardinality}, "
            f"dimensionality={self.dimensionality}, "
            f"shards={self._shard_count}, "
            f"partitioner={self._partitioner.describe()!r}, "
            f"default_engine={self._default_engine!r})"
        )
