"""Public facade: :class:`MatchDatabase`.

A :class:`MatchDatabase` wraps a point set and answers k-n-match and
frequent k-n-match queries with a selectable engine:

* ``"ad"`` — the paper's AD algorithm (optimal attribute retrieval),
* ``"block-ad"`` — the vectorised variant (same answers, numpy speed);
  its batch calls grow a whole query batch in lock-step,
* ``"batch-block-ad"`` — another name for ``"block-ad"`` (same code),
  kept so saved defaults and callers that name it keep working,
* ``"naive"`` — the full-scan oracle,
* ``"auto"`` — not an engine but a *choice*: the cost-based planner
  (:mod:`repro.plan`) picks one of the exact engines per query, so
  answers stay bit-identical while the wall clock tracks the winner.

All engines share one :class:`~repro.sorted_lists.SortedColumns` build, so
switching engines on the same database is cheap.

>>> import numpy as np
>>> from repro import MatchDatabase
>>> db = MatchDatabase([[1.0, 2.0], [5.0, 2.1], [9.0, 9.0]])
>>> db.k_n_match([5.0, 2.0], k=1, n=1).ids
[1]
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ValidationError
from ..sorted_lists import SortedColumns
from . import validation
from .ad import ADEngine
from .ad_block import BatchBlockADEngine, BlockADEngine
from .naive import NaiveScanEngine
from .types import FrequentMatchResult, MatchResult

__all__ = [
    "MatchDatabase",
    "ENGINE_NAMES",
    "ENGINE_CHOICES",
    "AUTO_ENGINE",
    "ANYTIME_ENGINE",
    "validate_engine_name",
    "validate_engine_choice",
    "make_engine",
]


def _make_ad(columns: SortedColumns, metrics, spans):
    return ADEngine(columns, metrics=metrics, spans=spans)


def _make_block_ad(columns: SortedColumns, metrics, spans):
    return BlockADEngine(columns, metrics=metrics, spans=spans)


def _make_batch_block_ad(columns: SortedColumns, metrics, spans):
    return BatchBlockADEngine(columns, metrics=metrics, spans=spans)


def _make_naive(columns: SortedColumns, metrics, spans):
    return NaiveScanEngine(columns.data, metrics=metrics, spans=spans)


#: The one engine registry: name -> factory taking
#: ``(columns, metrics, spans)``.  Adding an engine here is the whole
#: registration step — the name tuple, :class:`MatchDatabase`
#: construction, the shard layer and the CLI choices all derive from
#: this mapping.
_ENGINE_FACTORIES = {
    "ad": _make_ad,
    "block-ad": _make_block_ad,
    "batch-block-ad": _make_batch_block_ad,
    "naive": _make_naive,
}

#: Engines selectable through :class:`MatchDatabase` (registry order).
ENGINE_NAMES = tuple(_ENGINE_FACTORIES)

#: The pseudo-engine resolved per query by the cost-based planner
#: (:mod:`repro.plan`).  It is *not* in the registry — it never runs —
#: so ``engine()`` rejects it while the query methods accept it.
AUTO_ENGINE = "auto"

#: What callers may pass as ``engine=``: every registry engine plus the
#: planner pseudo-engine.  CLI ``--engine`` choices derive from this.
ENGINE_CHOICES = ENGINE_NAMES + (AUTO_ENGINE,)

#: The budgeted-prefix engine (:class:`~repro.core.anytime.AnytimeADEngine`).
#: Like ``"auto"`` it is not in the registry — it answers ``k_n_match``
#: only, takes ``attribute_budget=`` and returns an
#: :class:`~repro.core.anytime.AnytimeResult` (a verified *prefix*, not
#: always k answers), so it is special-cased rather than registered.
ANYTIME_ENGINE = "anytime"


def validate_engine_name(name: str) -> str:
    """Check ``name`` against the engine registry and return it.

    Every layer that accepts an engine name (:class:`MatchDatabase`, the
    sharded database, the CLI) funnels through here, so an unknown
    engine raises the same :class:`ValidationError` — same message, same
    valid-name list — everywhere.
    """
    if name not in _ENGINE_FACTORIES:
        raise ValidationError(
            f"unknown engine {name!r}; choose from {ENGINE_NAMES}"
        )
    return name


def validate_engine_choice(name: str) -> str:
    """Like :func:`validate_engine_name`, but also admitting ``"auto"``.

    Layers that resolve the planner pseudo-engine per query (the
    database facades, ``serve``, the CLI) validate through here; layers
    that need a concrete engine keep using :func:`validate_engine_name`.
    """
    if name == AUTO_ENGINE:
        return name
    if name not in _ENGINE_FACTORIES:
        raise ValidationError(
            f"unknown engine {name!r}; choose from {ENGINE_CHOICES}"
        )
    return name


def make_engine(name: str, columns: SortedColumns, metrics=None, spans=None):
    """Build a standalone engine over an existing sorted-column build.

    Used by the planner's calibration probes, which need throwaway
    engine instances (typically unmetered, so probe queries never
    inflate the logical query counters) sharing the database's columns.
    """
    name = validate_engine_name(name)
    return _ENGINE_FACTORIES[name](columns, metrics, spans)


class MatchDatabase:
    """In-memory matching-based similarity search over a point set.

    Pass ``metrics=`` (a :class:`~repro.obs.MetricsRegistry`) to have
    every engine record per-query cost counters; pass ``spans=`` (a
    :class:`~repro.obs.SpanCollector`) to have every engine record
    hierarchical phase spans; pass ``trace=True`` on a query call to get
    a :class:`~repro.obs.QueryTrace` attached to the result.  All are
    off by default and cost nothing when off.
    """

    def __init__(
        self,
        data,
        default_engine: str = "ad",
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
    ) -> None:
        validate_engine_choice(default_engine)
        self._columns = SortedColumns(data)
        self._default_engine = default_engine
        self._engines: Dict[str, object] = {}
        self._approx_engines: Dict[str, object] = {}
        self._anytime = None
        self._metrics = metrics
        self._spans = spans
        self._planner = None
        self._plan_model = None

    @classmethod
    def from_columns(
        cls,
        columns: SortedColumns,
        default_engine: str = "ad",
        metrics: Optional[object] = None,
        spans: Optional[object] = None,
    ) -> "MatchDatabase":
        """Wrap an existing :class:`SortedColumns` build without re-sorting.

        The zero-copy constructor shared by the persistence loader and
        the shared-memory shard workers: the columns (typically restored
        from disk or mapped from a shared segment) are adopted as-is.
        """
        validate_engine_choice(default_engine)
        db = cls.__new__(cls)
        db._columns = columns
        db._default_engine = default_engine
        db._engines = {}
        db._approx_engines = {}
        db._anytime = None
        db._metrics = metrics
        db._spans = spans
        db._planner = None
        db._plan_model = None
        return db

    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The ``(cardinality, dimensionality)`` array being searched."""
        return self._columns.data

    @property
    def cardinality(self) -> int:
        return self._columns.cardinality

    @property
    def dimensionality(self) -> int:
        return self._columns.dimensionality

    @property
    def columns(self) -> SortedColumns:
        """The shared sorted-column substrate (built once)."""
        return self._columns

    @property
    def default_engine(self) -> str:
        return self._default_engine

    @property
    def metrics(self):
        """The installed :class:`~repro.obs.MetricsRegistry`, or ``None``."""
        return self._metrics

    def set_metrics(self, registry) -> None:
        """Install (or remove, with ``None``) a metrics registry.

        Applies to already-constructed engines as well as engines built
        after the call.
        """
        self._metrics = registry
        for engine in self._engines.values():
            engine.metrics = registry
        for engine in self._approx_engines.values():
            engine.metrics = registry

    @property
    def spans(self):
        """The installed :class:`~repro.obs.SpanCollector`, or ``None``."""
        return self._spans

    def set_spans(self, collector) -> None:
        """Install (or remove, with ``None``) a span collector.

        Applies to already-constructed engines as well as engines built
        after the call.
        """
        self._spans = collector
        for engine in self._engines.values():
            engine.spans = collector
        for engine in self._approx_engines.values():
            engine.spans = collector

    def engine(self, name: Optional[str] = None):
        """Return (lazily constructing) the engine called ``name``.

        ``"auto"`` is rejected here: it is a per-query planner decision,
        not a constructible engine — run a query with ``engine="auto"``
        or ask :meth:`plan_query` which engine it resolves to.
        """
        name = name or self._default_engine
        if name == AUTO_ENGINE:
            raise ValidationError(
                "engine 'auto' is resolved per query by the planner; run "
                "a query with engine='auto' or call plan_query() to see "
                "the decision"
            )
        name = validate_engine_name(name)
        if name not in self._engines:
            self._engines[name] = _ENGINE_FACTORIES[name](
                self._columns, self._metrics, self._spans
            )
        return self._engines[name]

    # ------------------------------------------------------------------
    # cost-based planning (engine="auto")
    # ------------------------------------------------------------------
    @property
    def planner(self):
        """The lazily built :class:`~repro.plan.QueryPlanner` for this db."""
        if self._planner is None:
            from ..plan import QueryPlanner

            self._planner = QueryPlanner(self, model=self._plan_model)
        return self._planner

    def set_plan_model(self, model) -> None:
        """Install a :class:`~repro.plan.PlanModel` (e.g. a loaded sidecar).

        Resets the planner so cached decisions are re-made against the
        new curves.  ``None`` reverts to an empty model (probe-on-demand).
        """
        self._plan_model = model
        self._planner = None

    def plan_query(
        self,
        kind: str,
        k: int,
        n_range,
        batched: bool = False,
        mode: str = "exact",
        target_recall=None,
    ):
        """The :class:`~repro.plan.QueryPlan` ``engine="auto"`` would use."""
        return self.planner.plan(
            kind, k, n_range, batched=batched, mode=mode,
            target_recall=target_recall,
        )

    def _resolve_engine(self, name, kind, k, n_range, batched=False):
        """Resolve an ``engine=`` choice to ``(concrete name, plan|None)``."""
        choice = name if name is not None else self._default_engine
        if choice != AUTO_ENGINE:
            if choice not in _ENGINE_FACTORIES:
                self._reject_special_engine(choice)
            return validate_engine_name(choice), None
        plan = self.plan_query(kind, k, n_range, batched=batched)
        return plan.engine, plan

    def _reject_special_engine(self, choice) -> None:
        """Precise errors for engine names that exist but don't fit here.

        The approx engines and ``"anytime"`` are real engines a caller
        may have heard of, so the unknown-engine message would mislead;
        falls through to :func:`validate_engine_name` for truly unknown
        names.
        """
        from ..approx import APPROX_ENGINE_NAMES

        if choice in APPROX_ENGINE_NAMES:
            raise ValidationError(
                f"engine {choice!r} is approximate; pass mode='approx' "
                "to use it"
            )
        if choice == ANYTIME_ENGINE:
            raise ValidationError(
                "engine 'anytime' supports k_n_match only (with "
                "attribute_budget=)"
            )
        validate_engine_name(choice)

    # ------------------------------------------------------------------
    # approximate tier (mode="approx") and the anytime prefix engine
    # ------------------------------------------------------------------
    def _approx_engine(self, name: str):
        """Return (lazily constructing) the approx engine called ``name``."""
        if name not in self._approx_engines:
            from ..approx import (
                BudgetADEngine,
                PivotSketchEngine,
                validate_approx_engine,
            )

            validate_approx_engine(name)
            factory = {
                "budget-ad": BudgetADEngine,
                "pivot-sketch": PivotSketchEngine,
            }[name]
            self._approx_engines[name] = factory(
                self._columns, metrics=self._metrics, spans=self._spans
            )
        return self._approx_engines[name]

    def _resolve_approx_engine(self, name, kind, k, n_range, target_recall):
        """Resolve ``engine=`` under ``mode="approx"`` to (name, plan|None).

        ``None`` defaults to the certified engine; ``"auto"`` asks the
        planner, which only ever picks an approx engine here — never on
        an exact query (the caller declared the mode, the planner just
        prices within it).
        """
        from ..approx import DEFAULT_APPROX_ENGINE, validate_approx_engine

        choice = name if name is not None else DEFAULT_APPROX_ENGINE
        if choice != AUTO_ENGINE:
            return validate_approx_engine(choice), None
        plan = self.planner.plan(
            kind, k, n_range, mode="approx", target_recall=target_recall
        )
        return plan.engine, plan

    def _k_n_match_anytime(
        self, query, k, n, engine, trace, mode, budget, target_recall,
        candidate_multiplier, attribute_budget,
    ):
        if engine is not None and engine != ANYTIME_ENGINE:
            raise ValidationError(
                "attribute_budget requires engine='anytime'"
            )
        extras = (mode, budget, target_recall, candidate_multiplier)
        if any(value is not None for value in extras):
            raise ValidationError(
                "engine 'anytime' takes attribute_budget=; mode/budget/"
                "target_recall/candidate_multiplier do not apply"
            )
        if self._anytime is None:
            from .anytime import AnytimeADEngine

            self._anytime = AnytimeADEngine(self._columns)
        started = time.perf_counter()
        result = self._anytime.k_n_match(
            query, k, n, attribute_budget=attribute_budget
        )
        if trace:
            result.trace = self._build_trace(
                self._anytime, "k_n_match", result.k, (result.n, result.n),
                result.stats, started,
            )
        return result

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
            engine, "k_n_match", k, (n, n), target_recall
        )
        selected = self._approx_engine(resolved)
        started = time.perf_counter()
        result = selected.k_n_match(
            query, k, n, budget=budget, target_recall=target_recall,
            candidate_multiplier=candidate_multiplier,
        )
        if plan is not None:
            self._observe_plan(
                plan,
                result.stats.attributes_retrieved,
                time.perf_counter() - started,
            )
            self.planner.record_recall(plan.engine, result.certified_recall)
        if trace:
            result.trace = self._build_trace(
                selected, "k_n_match", result.k, (result.n, result.n),
                result.stats, started,
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
            engine, "k_n_match", k, (n, n), target_recall
        )
        selected = self._approx_engine(resolved)
        started = time.perf_counter()
        results = [
            selected.k_n_match(
                query, k, n, budget=budget, target_recall=target_recall,
                candidate_multiplier=candidate_multiplier,
            )
            for query in queries
        ]
        if plan is not None and results:
            self._observe_plan_batch(plan, results, started)
            mean_recall = sum(
                result.certified_recall for result in results
            ) / len(results)
            self.planner.record_recall(plan.engine, mean_recall)
        return results

    def _observe_plan(self, plan, cells, seconds) -> None:
        """Export one executed plan and feed its cost back into the model."""
        if self._metrics is not None:
            from ..obs.instrument import observe_plan_decision

            observe_plan_decision(
                self._metrics,
                engine=plan.engine,
                kind=plan.kind,
                predicted_seconds=plan.predicted_seconds,
                actual_seconds=seconds,
                fanout=plan.fanout,
            )
        self.planner.record_actual(plan, float(cells), seconds)

    def _observe_plan_batch(self, plan, results, started) -> None:
        """Per-query averages of one planned batch into model + metrics."""
        seconds = time.perf_counter() - started
        cells = sum(result.stats.attributes_retrieved for result in results)
        self._observe_plan(
            plan, cells / len(results), seconds / len(results)
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
        attribute_budget: Optional[int] = None,
    ) -> MatchResult:
        """The k-n-match query (Definition 3).

        Find the ``k`` points whose n-match difference w.r.t. ``query``
        is smallest; the ``n`` best-matching dimensions are chosen
        per point, dynamically.  With ``trace=True`` the result carries
        a :class:`~repro.obs.QueryTrace` in ``result.trace``.

        ``mode="approx"`` switches to the approximate tier
        (:mod:`repro.approx`) and returns an
        :class:`~repro.approx.ApproxResult` carrying a per-query recall
        certificate; ``budget=`` / ``target_recall=`` /
        ``candidate_multiplier=`` tune it, and ``engine=`` then names an
        approx engine (or ``"auto"``).  ``engine="anytime"`` (with
        ``attribute_budget=``) runs the budgeted prefix engine and
        returns an :class:`~repro.core.anytime.AnytimeResult`.  The
        default mode is exact and answers are byte-identical to a call
        without any of these arguments.
        """
        if engine == ANYTIME_ENGINE or attribute_budget is not None:
            return self._k_n_match_anytime(
                query, k, n, engine, trace, mode, budget, target_recall,
                candidate_multiplier, attribute_budget,
            )
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
        resolved, plan = self._resolve_engine(engine, "k_n_match", k, (n, n))
        selected = self.engine(resolved)
        if not trace and plan is None:
            return selected.k_n_match(query, k, n)
        started = time.perf_counter()
        result = selected.k_n_match(query, k, n)
        if plan is not None:
            self._observe_plan(
                plan,
                result.stats.attributes_retrieved,
                time.perf_counter() - started,
            )
        if trace:
            result.trace = self._build_trace(
                selected, "k_n_match", result.k, (result.n, result.n),
                result.stats, started,
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
        """The frequent k-n-match query (Definition 4).

        Runs k-n-match for every ``n`` in ``n_range`` (default
        ``[1, d]``) and returns the ``k`` points appearing most often
        across the answer sets.  With ``trace=True`` the result carries
        a :class:`~repro.obs.QueryTrace` in ``result.trace``.
        ``mode="approx"`` is rejected: the frequency vote has no
        per-query certificate semantics.
        """
        if mode is not None:
            from ..approx import APPROX_FREQUENT_MESSAGE, validate_mode

            if validate_mode(mode) == "approx":
                raise ValidationError(APPROX_FREQUENT_MESSAGE)
        if n_range is None:
            n_range = (1, self.dimensionality)
        resolved, plan = self._resolve_engine(
            engine, "frequent_k_n_match", k, n_range
        )
        selected = self.engine(resolved)
        if not trace and plan is None:
            return selected.frequent_k_n_match(
                query, k, n_range, keep_answer_sets=keep_answer_sets
            )
        started = time.perf_counter()
        result = selected.frequent_k_n_match(
            query, k, n_range, keep_answer_sets=keep_answer_sets
        )
        if plan is not None:
            self._observe_plan(
                plan,
                result.stats.attributes_retrieved,
                time.perf_counter() - started,
            )
        if trace:
            result.trace = self._build_trace(
                selected, "frequent_k_n_match", result.k, result.n_range,
                result.stats, started,
            )
        return result

    def _build_trace(self, selected, kind, k, n_range, stats, started):
        from ..obs import QueryTrace

        spans = self._spans
        return QueryTrace.from_stats(
            engine=selected.name,
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

    def k_n_match_batch(
        self,
        queries,
        k: int,
        n: int,
        engine: Optional[str] = None,
        parallel: Optional[bool] = None,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
        budget: Optional[int] = None,
        target_recall: Optional[float] = None,
        candidate_multiplier: Optional[int] = None,
    ) -> "List[MatchResult]":
        """Run one k-n-match per row of ``queries``; results in query order.

        The sorted-column *build* is amortised across the batch (all
        engines share one build).  Engines with a native batch path
        (``"block-ad"`` and its alias ``"batch-block-ad"``) execute the
        whole batch in one lock-step call; the others run one engine
        call per row.

        ``parallel=True`` (or passing ``workers``) instead shards the
        batch across a :class:`~repro.parallel.ParallelBatchExecutor`
        thread pool — an escape hatch for large batches on multi-core
        machines.  Answers are identical on every path.

        ``mode="approx"`` runs the whole batch on one approx engine
        (planned once for ``engine="auto"``) and returns a list of
        :class:`~repro.approx.ApproxResult`.
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
                if parallel or workers is not None:
                    raise ValidationError(
                        "parallel batch execution does not support "
                        "mode='approx'"
                    )
                return self._k_n_match_batch_approx(
                    queries, k, n, engine, budget, target_recall,
                    candidate_multiplier,
                )
        # Validate everything up front (canonical order: k, n, queries)
        # so every engine — including an empty batch, where no per-query
        # call ever runs — rejects the same bad input the same way.
        queries, k, n = validation.validate_batch_match_args(
            queries, k, n, self.cardinality, self.dimensionality
        )
        resolved, plan = self._resolve_engine(
            engine, "k_n_match", k, (n, n), batched=True
        )
        selected = self.engine(resolved)
        executor = self._batch_executor(selected, parallel, workers)
        started = time.perf_counter() if plan is not None else None
        if executor is not None:
            results = executor.k_n_match_batch(queries, k, n)
        else:
            native = getattr(selected, "k_n_match_batch", None)
            if native is not None:
                results = native(queries, k, n)
            else:
                results = [
                    selected.k_n_match(query, k, n) for query in queries
                ]
        if plan is not None and results:
            self._observe_plan_batch(plan, results, started)
        return results

    def frequent_k_n_match_batch(
        self,
        queries,
        k: int,
        n_range: Union[Tuple[int, int], None] = None,
        engine: Optional[str] = None,
        keep_answer_sets: bool = False,
        parallel: Optional[bool] = None,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> "List[FrequentMatchResult]":
        """Run one frequent k-n-match per row of ``queries``.

        Batch dispatch (native batch engines, the ``parallel=`` /
        ``workers=`` escape hatch) works exactly as in
        :meth:`k_n_match_batch`.  ``mode="approx"`` is rejected as in
        :meth:`frequent_k_n_match`.
        """
        if mode is not None:
            from ..approx import APPROX_FREQUENT_MESSAGE, validate_mode

            if validate_mode(mode) == "approx":
                raise ValidationError(APPROX_FREQUENT_MESSAGE)
        if n_range is None:
            n_range = (1, self.dimensionality)
        queries, k, n_range = validation.validate_batch_frequent_args(
            queries, k, n_range, self.cardinality, self.dimensionality
        )
        resolved, plan = self._resolve_engine(
            engine, "frequent_k_n_match", k, n_range, batched=True
        )
        selected = self.engine(resolved)
        executor = self._batch_executor(selected, parallel, workers)
        started = time.perf_counter() if plan is not None else None
        if executor is not None:
            results = executor.frequent_k_n_match_batch(
                queries, k, n_range, keep_answer_sets=keep_answer_sets
            )
        else:
            native = getattr(selected, "frequent_k_n_match_batch", None)
            if native is not None:
                results = native(
                    queries, k, n_range, keep_answer_sets=keep_answer_sets
                )
            else:
                results = [
                    selected.frequent_k_n_match(
                        query, k, n_range, keep_answer_sets=keep_answer_sets
                    )
                    for query in queries
                ]
        if plan is not None and results:
            self._observe_plan_batch(plan, results, started)
        return results

    def _batch_executor(self, selected, parallel, workers):
        """The thread-pool executor for a batch call, or None for in-line.

        ``parallel=True`` opts in explicitly; passing ``workers`` alone
        implies it.  ``parallel=False`` always stays in-line.
        """
        use_parallel = bool(parallel) or (parallel is None and workers is not None)
        if not use_parallel:
            return None
        # Imported lazily: repro.parallel depends on this module.
        from ..parallel import ParallelBatchExecutor

        return ParallelBatchExecutor(
            selected, workers=workers, metrics=self._metrics,
            spans=self._spans,
        )

    def __len__(self) -> int:
        return self.cardinality

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MatchDatabase(cardinality={self.cardinality}, "
            f"dimensionality={self.dimensionality}, "
            f"default_engine={self._default_engine!r})"
        )
